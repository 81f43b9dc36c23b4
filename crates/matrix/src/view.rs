//! Borrowed rectangular windows into dense matrices.
//!
//! LU factorization repeatedly decomposes the active matrix into a column
//! panel, a row panel (`U_i`) and a trailing sub-matrix (`A_i`) — see
//! Fig. 5a of the paper. These views provide exactly those splits without
//! copying. Because a column split produces two windows whose rows
//! interleave in memory, [`MatrixViewMut`] is built on raw pointers with a
//! lifetime marker; disjointness of splits is asserted at split time, after
//! which the borrow checker enforces exclusivity as usual.

use crate::scalar::Scalar;
use std::marker::PhantomData;

/// An immutable `rows × cols` window with row stride `ld`.
#[derive(Clone, Copy)]
pub struct MatrixView<'a, T: Scalar> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// Wraps a slice as a matrix window.
    ///
    /// # Panics
    /// Panics when the slice is too short to hold the described window.
    pub(crate) fn new(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols || rows <= 1, "ld {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            let need = (rows - 1) * ld + cols;
            assert!(data.len() >= need, "slice len {} < {need}", data.len());
        }
        Self {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.ld + j]
    }

    /// Row `i` as a slice of its live `cols` elements.
    pub fn row(&self, i: usize) -> &'a [T] {
        assert!(i < self.rows);
        &self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// Sub-window of shape `nr × nc` anchored at `(r0, c0)`.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'a, T> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub OOB");
        let start = if nr == 0 || nc == 0 {
            0
        } else {
            r0 * self.ld + c0
        };
        MatrixView::new(&self.data[start..], nr, nc, self.ld)
    }

    /// Copies the window into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }
}

/// A mutable `rows × cols` window with row stride `ld`.
pub struct MatrixViewMut<'a, T: Scalar> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a MatrixViewMut is an exclusive borrow of its window, like
// &mut [T]; sending it to another thread is sound for Send scalars.
unsafe impl<T: Scalar + Send> Send for MatrixViewMut<'_, T> {}
unsafe impl<T: Scalar + Sync> Sync for MatrixViewMut<'_, T> {}

impl<'a, T: Scalar> MatrixViewMut<'a, T> {
    /// Wraps a mutable slice as a matrix window.
    ///
    /// # Panics
    /// Panics when the slice is too short to hold the described window.
    pub(crate) fn new(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols || rows <= 1, "ld {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            let need = (rows - 1) * ld + cols;
            assert!(data.len() >= need, "slice len {} < {need}", data.len());
        }
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in-bounds of the borrowed window by the debug_assert and
        // construction invariant.
        unsafe { *self.ptr.add(i * self.ld + j) }
    }

    /// Mutable reference to element `(i, j)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in-bounds, and &mut self guarantees exclusivity.
        unsafe { &mut *self.ptr.add(i * self.ld + j) }
    }

    /// Row `i` as an immutable slice.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows);
        // SAFETY: rows within the window are in-bounds.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols) }
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows);
        // SAFETY: rows within the window are in-bounds; &mut self is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols) }
    }

    /// Reborrows with a shorter lifetime (analogous to `&mut *x`).
    pub fn reborrow(&mut self) -> MatrixViewMut<'_, T> {
        MatrixViewMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Immutable view of the same window.
    pub fn as_view(&self) -> MatrixView<'_, T> {
        let len = if self.rows == 0 || self.cols == 0 {
            0
        } else {
            (self.rows - 1) * self.ld + self.cols
        };
        // SAFETY: the window is a live exclusive borrow; we hand out a
        // shared view tied to &self.
        MatrixView::new(
            unsafe { std::slice::from_raw_parts(self.ptr, len) },
            self.rows,
            self.cols,
            self.ld,
        )
    }

    /// Consumes the view, returning the sub-window at `(r0, c0)` of shape
    /// `nr × nc` with the original lifetime.
    pub fn into_sub(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'a, T> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub OOB");
        MatrixViewMut {
            // SAFETY: anchor stays inside the window for non-empty results;
            // empty windows never dereference.
            ptr: unsafe { self.ptr.add(r0 * self.ld + c0) },
            rows: nr,
            cols: nc,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Borrows the sub-window at `(r0, c0)` of shape `nr × nc`.
    pub fn sub_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_, T> {
        self.reborrow().into_sub(r0, c0, nr, nc)
    }

    /// Splits into (top `at` rows, remaining rows); the two windows are
    /// disjoint.
    pub fn split_rows_mut(self, at: usize) -> (MatrixViewMut<'a, T>, MatrixViewMut<'a, T>) {
        assert!(at <= self.rows);
        let top = MatrixViewMut {
            ptr: self.ptr,
            rows: at,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        let bottom = MatrixViewMut {
            // SAFETY: `at <= rows`; empty bottom windows never dereference.
            ptr: unsafe { self.ptr.add(at * self.ld) },
            rows: self.rows - at,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Splits into (left `at` columns, remaining columns); the windows
    /// interleave by rows but cover disjoint elements.
    pub fn split_cols_mut(self, at: usize) -> (MatrixViewMut<'a, T>, MatrixViewMut<'a, T>) {
        assert!(at <= self.cols);
        let left = MatrixViewMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: at,
            ld: self.ld,
            _marker: PhantomData,
        };
        let right = MatrixViewMut {
            // SAFETY: `at <= cols`; the two windows address disjoint column
            // ranges of every row.
            ptr: unsafe { self.ptr.add(at) },
            rows: self.rows,
            cols: self.cols - at,
            ld: self.ld,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Swaps rows `a` and `b` across the full window width (DLASWP step).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        assert!(a < self.rows && b < self.rows);
        for j in 0..self.cols {
            // SAFETY: both offsets are in-bounds; a != b so they are distinct.
            unsafe {
                std::ptr::swap(self.ptr.add(a * self.ld + j), self.ptr.add(b * self.ld + j));
            }
        }
    }

    /// Copies `src` (same shape) into this window.
    pub fn copy_from(&mut self, src: &MatrixView<'_, T>) {
        assert_eq!(self.rows, src.rows());
        assert_eq!(self.cols, src.cols());
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Fills the window with `value`.
    pub fn fill(&mut self, value: T) {
        for i in 0..self.rows {
            self.row_mut(i).fill(value);
        }
    }
}

#[cfg(test)]
mod tests {

    use crate::Matrix;

    fn sample() -> Matrix<f64> {
        Matrix::from_fn(6, 6, |i, j| (10 * i + j) as f64)
    }

    #[test]
    fn view_at_and_row() {
        let m = sample();
        let v = m.view();
        assert_eq!(v.at(2, 3), 23.0);
        assert_eq!(v.row(1), &[10., 11., 12., 13., 14., 15.]);
    }

    #[test]
    fn sub_view_anchors_correctly() {
        let m = sample();
        let s = m.sub(2, 1, 3, 2);
        assert_eq!((s.rows(), s.cols()), (3, 2));
        assert_eq!(s.at(0, 0), 21.0);
        assert_eq!(s.at(2, 1), 42.0);
    }

    #[test]
    fn mut_split_cols_disjoint_writes() {
        let mut m = sample();
        let (mut l, mut r) = m.view_mut().split_cols_mut(3);
        *l.at_mut(0, 0) = -1.0;
        *r.at_mut(0, 0) = -2.0;
        *r.at_mut(5, 2) = -3.0;
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(0, 3)], -2.0);
        assert_eq!(m[(5, 5)], -3.0);
    }

    #[test]
    fn mut_split_rows_disjoint_writes() {
        let mut m = sample();
        let (mut t, mut b) = m.view_mut().split_rows_mut(4);
        t.row_mut(3).fill(7.0);
        b.row_mut(0).fill(8.0);
        assert_eq!(m.row(3), &[7.0; 6]);
        assert_eq!(m.row(4), &[8.0; 6]);
    }

    #[test]
    fn swap_rows_in_sub_window_leaves_rest() {
        let mut m = sample();
        let mut s = m.sub_mut(1, 2, 4, 3);
        s.swap_rows(0, 3);
        // row 1 cols 2..5 swapped with row 4 cols 2..5
        assert_eq!(m[(1, 2)], 42.0);
        assert_eq!(m[(4, 4)], 14.0);
        // outside the window untouched
        assert_eq!(m[(1, 0)], 10.0);
        assert_eq!(m[(4, 5)], 45.0);
    }

    #[test]
    fn copy_from_and_fill() {
        let src = sample();
        let mut dst = Matrix::<f64>::zeros(6, 6);
        dst.view_mut().copy_from(&src.view());
        assert!(dst.approx_eq(&src, 0.0));
        dst.sub_mut(0, 0, 2, 2).fill(5.0);
        assert_eq!(dst[(1, 1)], 5.0);
        assert_eq!(dst[(2, 2)], 22.0);
    }

    #[test]
    fn to_matrix_copies_window() {
        let m = sample();
        let s = m.sub(3, 3, 2, 2).to_matrix();
        assert_eq!(s[(0, 0)], 33.0);
        assert_eq!(s[(1, 1)], 44.0);
    }

    #[test]
    fn empty_windows_are_fine() {
        let m = Matrix::<f64>::zeros(4, 4);
        let v = m.sub(4, 0, 0, 4);
        assert_eq!((v.rows(), v.cols()), (0, 4));
        let v2 = m.sub(0, 4, 4, 0);
        assert_eq!((v2.rows(), v2.cols()), (4, 0));
    }
}
