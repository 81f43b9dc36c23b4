//! TLB model: why packing exists (Section III-A3).
//!
//! "Multiplying matrices stored in row or column-major format may result
//! in performance degradation, due to TLB pressure and cache associativity
//! conflicts, especially when these matrices have large leading
//! dimensions." This module models KNC's data TLB (64 entries, 4 KB
//! pages) and demonstrates the claim: walking a *column* of a matrix with
//! a large leading dimension touches one page per element and thrashes
//! the TLB, while the same work over a packed tile (small leading
//! dimension) stays within a handful of pages.

/// A fully-associative LRU TLB over fixed-size pages.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: usize,
    page_bytes: usize,
    /// Resident page numbers, most-recently-used first.
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A TLB with `entries` slots over `page_bytes` pages.
    fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0 && page_bytes.is_power_of_two());
        Self {
            entries,
            page_bytes,
            pages: Vec::with_capacity(entries),
            hits: 0,
            misses: 0,
        }
    }

    /// KNC's first-level data TLB: 64 entries × 4 KB pages.
    pub fn knc_dtlb() -> Self {
        Self::new(64, 4096)
    }

    /// Translates a byte address, updating LRU and counters. Returns
    /// `true` on hit.
    pub fn access(&mut self, byte_addr: usize) -> bool {
        let page = (byte_addr / self.page_bytes) as u64;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.insert(0, page);
            self.hits += 1;
            true
        } else {
            self.pages.insert(0, page);
            self.pages.truncate(self.entries);
            self.misses += 1;
            false
        }
    }

    /// [`Self::access`] with an undo record appended to `log` (trace
    /// replay). Counters are snapshot/restored by the caller.
    pub(crate) fn access_logged(&mut self, byte_addr: usize, log: &mut Vec<TlbUndo>) -> bool {
        let page = (byte_addr / self.page_bytes) as u64;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.insert(0, page);
            self.hits += 1;
            log.push(TlbUndo::Touched { from_pos: pos });
            true
        } else {
            self.pages.insert(0, page);
            let evicted = if self.pages.len() > self.entries {
                self.pages.pop()
            } else {
                None
            };
            self.misses += 1;
            log.push(TlbUndo::Inserted { evicted });
            false
        }
    }

    /// Reverses one logged mutation (undo in reverse order of logging).
    pub(crate) fn undo(&mut self, op: TlbUndo) {
        match op {
            TlbUndo::Touched { from_pos } => {
                let page = self.pages.remove(0);
                self.pages.insert(from_pos, page);
            }
            TlbUndo::Inserted { evicted } => {
                self.pages.remove(0);
                if let Some(p) = evicted {
                    self.pages.push(p);
                }
            }
        }
    }

    /// Overwrites the counters — rollback companion of [`Self::undo`].
    pub(crate) fn set_stats(&mut self, hits: u64, misses: u64) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Drops every translation (counters kept) — a TLB shootdown.
    pub(crate) fn flush(&mut self) {
        self.pages.clear();
    }

    /// FNV-1a digest of resident pages (LRU order) plus counters.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let fold = |w: u64, h: &mut u64| {
            for b in w.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for &p in &self.pages {
            fold(p.wrapping_add(1), &mut h);
        }
        fold(self.hits, &mut h);
        fold(self.misses, &mut h);
        h
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Miss rate over all accesses so far (0.0 with no accesses).
    #[cfg(test)]
    fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A reversible record of one TLB mutation (see [`Tlb::access_logged`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum TlbUndo {
    /// A resident page moved from `from_pos` to MRU position 0.
    Touched {
        /// Position the page occupied before promotion.
        from_pos: usize,
    },
    /// A new page was inserted at MRU, possibly evicting the LRU page.
    Inserted {
        /// The evicted page, if the TLB was full.
        evicted: Option<u64>,
    },
}

/// Walks the access pattern of reading `cols` consecutive elements from
/// each of `rows` rows of an f64 matrix with leading dimension `ld`
/// (elements), in column-major-ish kernel order: for each column chunk,
/// touch every row. Returns the TLB miss rate — the experiment behind
/// Section III-A3.
#[cfg(test)]
fn column_walk_miss_rate(rows: usize, cols: usize, ld: usize, mut tlb: Tlb) -> f64 {
    for j in 0..cols {
        for i in 0..rows {
            tlb.access((i * ld + j) * 8);
        }
    }
    tlb.miss_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basics() {
        let mut t = Tlb::new(2, 4096);
        assert!(!t.access(0));
        assert!(t.access(8)); // same page
        assert!(!t.access(4096));
        assert!(t.access(0)); // still resident
        assert!(!t.access(2 * 4096)); // evicts page 1 (LRU)
        assert!(!t.access(4096));
        assert_eq!(t.stats().0, 2);
    }

    #[test]
    fn packing_kills_tlb_pressure() {
        // The Section III-A3 experiment: a 31-row column walk over a
        // matrix with leading dimension 28,000 touches 31 distinct pages
        // per column (ld*8 = 224 KB row stride ≫ 4 KB page) and misses
        // almost always with only 64 entries... per fresh column; across
        // columns the same 31 pages are re-walked, so the rate collapses
        // only if they all FIT — which they do (31 < 64). The real
        // pressure appears when the kernel streams several tiles at once:
        // model that with 120 rows (the paper's mc), which exceeds the
        // TLB.
        let thrash = column_walk_miss_rate(120, 64, 28_000, Tlb::knc_dtlb());
        assert!(
            thrash > 0.9,
            "large-ld walk must thrash the TLB: miss rate {thrash:.3}"
        );
        // The packed tile: leading dimension 30 → a whole 30×k tile spans
        // k*30*8 bytes contiguously; 64 columns is 15 KB = 4 pages.
        let packed = column_walk_miss_rate(120, 64, 30, Tlb::knc_dtlb());
        assert!(
            packed < 0.01,
            "packed-tile walk must be TLB-friendly: miss rate {packed:.3}"
        );
    }

    #[test]
    fn small_matrices_fit_regardless() {
        // With a small leading dimension even many rows fit: 64 entries ×
        // 4 KB = 256 KB reach.
        let rate = column_walk_miss_rate(64, 64, 256, Tlb::knc_dtlb());
        assert!(rate < 0.05, "{rate}");
    }

    #[test]
    fn miss_rate_zero_without_accesses() {
        assert_eq!(Tlb::knc_dtlb().miss_rate(), 0.0);
    }
}
