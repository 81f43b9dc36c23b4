//! The two-ended tile counter of offload DGEMM (Section V-B).
//!
//! "Knights Corner starts with the first tile in the upper-left corner of
//! the matrix (C00), and continues forward in column-major order,
//! stealing one tile at a time. When Sandy Bridge EP ... is ready to work
//! on the trailing update, it starts with the last tile in the lower-
//! right corner (C33) and continues backwards also stealing one tile at a
//! time. Both ... continue in this fashion, until there are no more tiles
//! to steal."
//!
//! [`TileDeque`] is that structure: a lock-free range `[front, back]` of
//! tile indices; the device claims from the front, the host from the
//! back; claims are linearized by one CAS so every tile is taken exactly
//! once.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free two-ended claim counter over tiles `0..count`.
#[derive(Debug)]
pub struct TileDeque {
    /// Packed state: high 32 bits = front (next tile for the device),
    /// low 32 bits = back + 1 (one past the next tile for the host).
    /// Empty when front == back + 1 boundary crosses, i.e. front >= lo.
    state: AtomicU64,
}

impl TileDeque {
    /// A deque over `count` tiles (at most `u32::MAX`).
    pub fn new(count: usize) -> Self {
        let count = u32::try_from(count).expect("tile count fits in u32");
        Self {
            state: AtomicU64::new(pack(0, count)),
        }
    }

    /// Device side: claims the lowest unclaimed tile (forward order).
    pub fn steal_front(&self) -> Option<usize> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (front, lo) = unpack(cur);
            if front >= lo {
                return None;
            }
            match self.state.compare_exchange_weak(
                cur,
                pack(front + 1, lo),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(front as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Host side: claims the highest unclaimed tile (backward order).
    pub fn steal_back(&self) -> Option<usize> {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            let (front, lo) = unpack(cur);
            if front >= lo {
                return None;
            }
            match self.state.compare_exchange_weak(
                cur,
                pack(front, lo - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo - 1) as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Tiles not yet claimed.
    fn remaining(&self) -> usize {
        let (front, lo) = unpack(self.state.load(Ordering::Acquire));
        lo.saturating_sub(front) as usize
    }

    /// True when everything is claimed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

fn pack(front: u32, lo: u32) -> u64 {
    ((front as u64) << 32) | lo as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fronts_and_backs_meet_in_the_middle() {
        let d = TileDeque::new(6);
        assert_eq!(d.steal_front(), Some(0));
        assert_eq!(d.steal_back(), Some(5));
        assert_eq!(d.steal_front(), Some(1));
        assert_eq!(d.steal_back(), Some(4));
        assert_eq!(d.steal_front(), Some(2));
        assert_eq!(d.steal_back(), Some(3));
        assert_eq!(d.steal_front(), None);
        assert_eq!(d.steal_back(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn empty_deque_yields_nothing() {
        let d = TileDeque::new(0);
        assert_eq!(d.steal_front(), None);
        assert_eq!(d.steal_back(), None);
    }

    #[test]
    fn single_tile_goes_to_exactly_one_side() {
        let d = TileDeque::new(1);
        assert_eq!(d.steal_back(), Some(0));
        assert_eq!(d.steal_front(), None);
    }

    #[test]
    fn remaining_tracks_claims() {
        let d = TileDeque::new(10);
        assert_eq!(d.remaining(), 10);
        d.steal_front();
        d.steal_back();
        assert_eq!(d.remaining(), 8);
    }

    #[test]
    fn concurrent_steals_partition_exactly() {
        let d = TileDeque::new(10_000);
        let (front_claims, back_claims) = std::thread::scope(|s| {
            let f = s.spawn(|| {
                let mut v = Vec::new();
                while let Some(t) = d.steal_front() {
                    v.push(t);
                }
                v
            });
            let b = s.spawn(|| {
                let mut v = Vec::new();
                while let Some(t) = d.steal_back() {
                    v.push(t);
                }
                v
            });
            (f.join().unwrap(), b.join().unwrap())
        });
        let mut all: Vec<usize> = front_claims.iter().chain(&back_claims).copied().collect();
        assert_eq!(all.len(), 10_000, "every tile claimed");
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(set.len(), 10_000, "no tile claimed twice");
        all.sort_unstable();
        assert_eq!(all[0], 0);
        assert_eq!(all[9999], 9999);
        // Front claims are ascending and contiguous from 0; back claims
        // descending from the end (the paper's column-major forward /
        // backward walk).
        assert!(front_claims.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(back_claims.windows(2).all(|w| w[1] + 1 == w[0]));
    }
}
