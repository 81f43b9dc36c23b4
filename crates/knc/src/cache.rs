//! Set-associative cache model with KNC's two-ported L1 and the
//! deferred-fill prefetch semantics of Fig. 1c.
//!
//! Knights Corner's L1 has one read port and one write port. A prefetch
//! whose line has arrived from L2 must *fill* L1: the victim line is
//! evicted and the new line written, an operation that needs **both**
//! ports for a cycle. When another instruction is using a port — e.g. a
//! vector FMA with a memory operand occupies the read port — the fill is
//! deferred and re-checked every cycle; after a threshold number of
//! deferrals the core pipeline **stalls** for a few cycles to force the
//! fill through. Basic Kernel 2 exists precisely to open port-free
//! "holes" so fills land without stalls (Section III-A2).

/// Cache geometry and behaviour parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes (L1: 32 KB, L2: 512 KB per core).
    pub capacity_bytes: usize,
    /// Associativity (8-way on KNC for both levels).
    pub ways: usize,
    /// Line size in bytes (64 on KNC).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// KNC per-core L1 data cache: 32 KB, 8-way, 64 B lines.
    pub fn knc_l1() -> Self {
        Self {
            capacity_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// KNC per-core L2 cache: 512 KB, 8-way, 64 B lines.
    pub fn knc_l2() -> Self {
        Self {
            capacity_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }
}

/// An LRU set-associative cache over abstract line addresses.
///
/// Addresses are *element* indices (f64 granularity); a line holds 8.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `tags[set]` ordered most-recently-used first.
    tags: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            cfg,
            sets,
            tags: vec![Vec::with_capacity(cfg.ways); sets],
            hits: 0,
            misses: 0,
        }
    }

    fn line_of(&self, elem_idx: usize) -> u64 {
        (elem_idx * 8 / self.cfg.line_bytes) as u64
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// True when the line containing `elem_idx` is resident (does not
    /// update LRU or counters).
    pub fn contains(&self, elem_idx: usize) -> bool {
        let line = self.line_of(elem_idx);
        self.tags[self.set_of(line)].contains(&line)
    }

    /// Performs an access: returns `true` on hit. Misses insert the line
    /// (evicting LRU) — i.e. access-with-allocate.
    pub fn access(&mut self, elem_idx: usize) -> bool {
        let line = self.line_of(elem_idx);
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let entry = &mut self.tags[set];
        if let Some(pos) = entry.iter().position(|&t| t == line) {
            entry.remove(pos);
            entry.insert(0, line);
            self.hits += 1;
            true
        } else {
            entry.insert(0, line);
            entry.truncate(ways);
            self.misses += 1;
            false
        }
    }

    /// Inserts the line containing `elem_idx` without counting an access
    /// (prefetch fill path).
    pub fn fill(&mut self, elem_idx: usize) {
        let line = self.line_of(elem_idx);
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let entry = &mut self.tags[set];
        if let Some(pos) = entry.iter().position(|&t| t == line) {
            entry.remove(pos);
        }
        entry.insert(0, line);
        entry.truncate(ways);
    }

    /// [`Self::access`] with an undo record appended to `log`, for the
    /// trace-replay rollback path. Counters are NOT captured in the log —
    /// the replayer snapshots and restores them wholesale.
    pub(crate) fn access_logged(&mut self, elem_idx: usize, log: &mut Vec<CacheUndo>) -> bool {
        let line = self.line_of(elem_idx);
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let entry = &mut self.tags[set];
        if let Some(pos) = entry.iter().position(|&t| t == line) {
            entry.remove(pos);
            entry.insert(0, line);
            self.hits += 1;
            log.push(CacheUndo::Touched { set, from_pos: pos });
            true
        } else {
            entry.insert(0, line);
            let evicted = if entry.len() > ways {
                entry.pop()
            } else {
                None
            };
            self.misses += 1;
            log.push(CacheUndo::Inserted { set, evicted });
            false
        }
    }

    /// [`Self::fill`] with an undo record appended to `log`.
    pub(crate) fn fill_logged(&mut self, elem_idx: usize, log: &mut Vec<CacheUndo>) {
        let line = self.line_of(elem_idx);
        let set = self.set_of(line);
        let ways = self.cfg.ways;
        let entry = &mut self.tags[set];
        if let Some(pos) = entry.iter().position(|&t| t == line) {
            entry.remove(pos);
            entry.insert(0, line);
            log.push(CacheUndo::Touched { set, from_pos: pos });
        } else {
            entry.insert(0, line);
            let evicted = if entry.len() > ways {
                entry.pop()
            } else {
                None
            };
            log.push(CacheUndo::Inserted { set, evicted });
        }
    }

    /// Reverses one logged mutation. Records must be undone in reverse
    /// order of logging; doing so restores the exact pre-mutation LRU
    /// state (counters are restored separately via [`Self::set_stats`]).
    pub(crate) fn undo(&mut self, op: CacheUndo) {
        match op {
            CacheUndo::Touched { set, from_pos } => {
                let line = self.tags[set].remove(0);
                self.tags[set].insert(from_pos, line);
            }
            CacheUndo::Inserted { set, evicted } => {
                self.tags[set].remove(0);
                if let Some(t) = evicted {
                    self.tags[set].push(t);
                }
            }
        }
    }

    /// Overwrites the (hits, misses) counters — rollback companion of
    /// [`Self::undo`].
    pub(crate) fn set_stats(&mut self, hits: u64, misses: u64) {
        self.hits = hits;
        self.misses = misses;
    }

    /// Invalidates every line (counters are kept) — the cache half of a
    /// TLB-shootdown-style global invalidation.
    pub(crate) fn flush(&mut self) {
        for set in &mut self.tags {
            set.clear();
        }
    }

    /// FNV-1a digest of the full tag state (sets in order, MRU-first
    /// within each set) plus the counters — bit-identity evidence for the
    /// differential harness.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let fold = |w: u64, h: &mut u64| {
            for b in w.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (si, set) in self.tags.iter().enumerate() {
            fold(si as u64, &mut h);
            for &t in set {
                fold(t.wrapping_add(1), &mut h);
            }
        }
        fold(self.hits, &mut h);
        fold(self.misses, &mut h);
        h
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A reversible record of one cache mutation, produced by
/// [`Cache::access_logged`] / [`Cache::fill_logged`] and consumed (in
/// reverse order) by [`Cache::undo`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum CacheUndo {
    /// An already-resident line moved from `from_pos` to MRU position 0.
    Touched {
        /// Set index the mutation happened in.
        set: usize,
        /// Position the line occupied before being promoted.
        from_pos: usize,
    },
    /// A new line was inserted at MRU, possibly evicting the LRU line.
    Inserted {
        /// Set index the mutation happened in.
        set: usize,
        /// The evicted tag, if the set was full.
        evicted: Option<u64>,
    },
}

/// A pending L1 prefetch: issued, waiting for its line and then for a
/// port-free cycle to fill.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PendingFill {
    /// Element index whose line is being prefetched.
    pub elem_idx: usize,
    /// Cycle at which the line arrives from L2/memory and the fill first
    /// becomes attemptable.
    pub ready_at: u64,
    /// Number of cycles the fill has been deferred by busy ports.
    pub deferred: u32,
    /// Per-iteration stride of the prefetch address that created this
    /// fill. Lets the trace engine compare pending lists across loop
    /// iterations in iteration-relative form (`elem_idx - iter * scale`).
    pub scale_iter: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let l1 = CacheConfig::knc_l1();
        assert_eq!(l1.sets(), 64);
        let l2 = CacheConfig::knc_l2();
        assert_eq!(l2.sets(), 1024);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(CacheConfig::knc_l1());
        assert!(!c.contains(0));
        c.fill(0);
        assert!(c.contains(0));
        assert!(c.contains(7), "same 8-element line");
        assert!(!c.contains(8), "next line");
    }

    #[test]
    fn access_allocates_and_counts() {
        let mut c = Cache::new(CacheConfig::knc_l1());
        assert!(!c.access(100));
        assert!(c.access(100));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = CacheConfig {
            capacity_bytes: 2 * 64, // 2 lines total
            ways: 2,
            line_bytes: 64,
        };
        assert_eq!(cfg.sets(), 1);
        let mut c = Cache::new(cfg);
        c.access(0); // line 0
        c.access(8); // line 1
        c.access(0); // touch line 0 → line 1 is LRU
        c.access(16); // line 2 evicts line 1
        assert!(c.contains(0));
        assert!(!c.contains(8));
        assert!(c.contains(16));
    }

    #[test]
    fn conflict_misses_with_large_stride() {
        // Lines mapping to the same set (stride = sets * line) thrash an
        // 8-way set once more than 8 distinct lines are touched — the TLB /
        // associativity pathology packing exists to avoid (Section III-A3).
        let mut c = Cache::new(CacheConfig::knc_l1());
        let stride_elems = 64 * 8; // 64 sets * 8 elems per line
        for rep in 0..2 {
            for i in 0..9 {
                c.access(i * stride_elems);
            }
            let _ = rep;
        }
        let (hits, misses) = c.stats();
        assert!(
            misses > 9,
            "second sweep must still miss (thrash): h={hits} m={misses}"
        );
    }
}
