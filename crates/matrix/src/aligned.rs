//! 64-byte-aligned heap buffers.
//!
//! Knights Corner's vector unit operates on 64-byte (512-bit) registers and
//! its L1/L2 lines are 64 bytes; the paper's DGEMM kernels assume tile
//! storage starts on a cache-line boundary so that every `vmovapd` and
//! `vprefetch` touches whole lines. [`AlignedBuf`] provides that guarantee
//! for the emulated kernels in `phi-knc` and the packed-tile buffers in
//! `phi-blas`.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Cache-line / vector-register alignment used throughout the workspace.
const ALIGN: usize = 64;

/// A heap allocation of `T`s guaranteed to start on a 64-byte boundary.
///
/// Unlike `Vec<T>`, the length is fixed at construction; the buffer is
/// zero-initialized. `T` must be a plain scalar (`f32`/`f64`/integers) —
/// the type is only instantiated with `Copy` types that are valid when
/// zero-filled.
pub(crate) struct AlignedBuf<T: Copy + Default> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AlignedBuf owns its allocation exclusively, like Vec<T>.
unsafe impl<T: Copy + Default + Send> Send for AlignedBuf<T> {}
unsafe impl<T: Copy + Default + Sync> Sync for AlignedBuf<T> {}

impl<T: Copy + Default> AlignedBuf<T> {
    /// Allocates a zero-filled buffer of `len` elements aligned to
    /// [`ALIGN`] bytes. A `len` of zero is allowed and performs no
    /// allocation.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T is a scalar type).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout);
        };
        Self { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .expect("AlignedBuf size overflow");
        let align = ALIGN.max(std::mem::align_of::<T>());
        Layout::from_size_align(size, align).expect("invalid AlignedBuf layout")
    }
}

impl<T: Copy + Default> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated with the same layout in `zeroed`.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

impl<T: Copy + Default> Deref for AlignedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe a live allocation of `len` initialized Ts.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as above, and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + Default> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.copy_from_slice(self);
        out
    }
}

impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .field("align", &ALIGN)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_aligned_and_zero() {
        let buf = AlignedBuf::<f64>::zeroed(123);
        assert_eq!(buf.len(), 123);
        assert_eq!(buf.as_ptr() as usize % ALIGN, 0);
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_buffer_is_usable() {
        let buf = AlignedBuf::<f32>::zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(&buf[..], &[] as &[f32]);
    }

    #[test]
    fn writes_round_trip() {
        let mut buf = AlignedBuf::<f64>::zeroed(16);
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = i as f64;
        }
        assert_eq!(buf[15], 15.0);
        let cloned = buf.clone();
        assert_eq!(&cloned[..], &buf[..]);
        assert_eq!(cloned.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn many_allocations_stay_aligned() {
        for len in [1usize, 7, 8, 9, 31, 64, 1000] {
            let buf = AlignedBuf::<f32>::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % ALIGN, 0, "len={len}");
            assert_eq!(buf.len(), len);
        }
    }
}
