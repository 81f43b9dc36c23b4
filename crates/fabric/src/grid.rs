//! The P × Q process grid of HPL.
//!
//! HPL distributes the matrix block-cyclically over a `P × Q` grid of
//! processes: block row `i` belongs to process row `i mod P`, block
//! column `j` to process column `j mod Q`. Table III identifies runs by
//! their `P` and `Q` ("the number of used nodes can be derived by
//! multiplying P and Q"); the 100-node run is a 10 × 10 grid.

/// How a cluster remaps block-cyclic ownership after a host-rank
/// death.
///
/// The §V rebalance argument — minimize the data that moves on a
/// reconfiguration — applies to recovery too: the MIC deployment
/// studies (arXiv:1308.3123, arXiv:1310.5842) put fabric transfer
/// volume at the top of exactly the cost regime our recovery constants
/// live in, so the default strategy moves only what the dead rank
/// owned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RemapStrategy {
    /// Re-form the squarest [`ProcessGrid::fallback_grid`] the
    /// survivors allow and redistribute the whole trailing matrix to
    /// its block-cyclic ownership — every surviving rank's blocks move.
    Wholesale,
    /// Locality-preserving [`ProcessGrid::patch_remap`]: every
    /// survivor's ownership stays fixed and only the dead rank's
    /// block-cyclic share is dealt out round-robin — ~`P·Q×` less
    /// modeled traffic, paid for with a mild per-rank load imbalance.
    /// Falls back to [`RemapStrategy::Wholesale`] when the survivor
    /// count forces a reshape (more than 1/8 of the grid dead).
    #[default]
    Patch,
}

impl RemapStrategy {
    /// Short label for tables (`patch` / `whsl`).
    pub fn label(&self) -> &'static str {
        match self {
            RemapStrategy::Wholesale => "whsl",
            RemapStrategy::Patch => "patch",
        }
    }
}

/// Why a grid recovery operation cannot be performed. The panicking
/// entry points ([`ProcessGrid::fallback_grid`],
/// [`ProcessGrid::patch_remap`]) wrap the `try_` variants and panic
/// with exactly this error's message, so callers that validated their
/// inputs and callers that want a typed result see the same contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GridError {
    /// `fallback_grid(0)`: no survivors to re-form a grid from.
    NoSurvivors,
    /// `patch_remap(dead_rank)` with `dead_rank >= size`: the rank is
    /// not in the grid.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// The grid's size.
        size: usize,
    },
    /// `patch_remap` on a 1×1 grid: no survivors to patch onto.
    SingletonGrid,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NoSurvivors => write!(f, "no survivors to re-form a grid from"),
            GridError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} not in the grid of {size} processes")
            }
            GridError::SingletonGrid => write!(f, "no survivors to patch onto"),
        }
    }
}

impl std::error::Error for GridError {}

/// Position of a process in the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridCoord {
    /// Row index in `0..P`.
    pub p: usize,
    /// Column index in `0..Q`.
    pub q: usize,
}

/// A `P × Q` process grid with block-cyclic ownership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Process rows.
    pub p: usize,
    /// Process columns.
    pub q: usize,
}

impl ProcessGrid {
    /// Builds a grid; both dimensions must be positive.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "degenerate grid {p}x{q}");
        Self { p, q }
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.p * self.q
    }

    /// Linear rank of a coordinate (row-major).
    pub fn rank(&self, c: GridCoord) -> usize {
        debug_assert!(c.p < self.p && c.q < self.q);
        c.p * self.q + c.q
    }

    /// Coordinate of a linear rank.
    pub fn coord(&self, rank: usize) -> GridCoord {
        debug_assert!(rank < self.size());
        GridCoord {
            p: rank / self.q,
            q: rank % self.q,
        }
    }

    /// Process column owning global block-column `j` (block-cyclic).
    pub fn owner_col(&self, j: usize) -> usize {
        j % self.q
    }

    /// Process row owning global block-row `i` (block-cyclic).
    pub fn owner_row(&self, i: usize) -> usize {
        i % self.p
    }

    /// Number of block-columns from a total of `nblocks` owned by process
    /// column `q` (block-cyclic count).
    pub fn blocks_owned_col(&self, q: usize, nblocks: usize) -> usize {
        debug_assert!(q < self.q);
        nblocks / self.q + usize::from(nblocks % self.q > q)
    }

    /// Number of block-rows from a total of `nblocks` owned by process
    /// row `p`.
    pub fn blocks_owned_row(&self, p: usize, nblocks: usize) -> usize {
        debug_assert!(p < self.p);
        nblocks / self.p + usize::from(nblocks % self.p > p)
    }

    /// Local trailing extent: of the global blocks `first..nblocks`, how
    /// many does process row `p` own? Used to size each node's share of a
    /// trailing update. Closed form — this sits on the per-stage loop of
    /// every cluster simulation, and the autotuner evaluates thousands of
    /// such runs.
    pub fn trailing_blocks_row(&self, p: usize, first: usize, nblocks: usize) -> usize {
        count_congruent(first, nblocks, p, self.p)
    }

    /// Same along columns.
    pub fn trailing_blocks_col(&self, q: usize, first: usize, nblocks: usize) -> usize {
        count_congruent(first, nblocks, q, self.q)
    }

    /// Ring order of a process row starting after `root` — the increasing
    /// ring HPL's panel broadcast walks.
    pub fn row_ring(&self, root_q: usize) -> Vec<usize> {
        (1..self.q).map(|i| (root_q + i) % self.q).collect()
    }

    /// Best grid the `survivors` ranks left after a host death can
    /// re-form. Survivor counts rarely factor into anything rectangular
    /// (99 does, 97 is prime), so up to 1/8 of the survivors may be
    /// idled to reach a better shape: every process count `m` in
    /// `(survivors − survivors/8) ..= survivors` is scored with its
    /// squarest factorization `p × q = m` (`p ≤ q`) as
    /// `m · sqrt(p / q)` — work capacity discounted by aspect-ratio
    /// imbalance, the same trade HPL's own grid advice makes — and the
    /// best score wins (larger `m` on ties). 99 survivors stay 9 × 11;
    /// a prime 97 idles seven ranks to re-form a near-square 9 × 10.
    pub fn fallback_grid(survivors: usize) -> Self {
        match Self::try_fallback_grid(survivors) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`Self::fallback_grid`]: returns
    /// [`GridError::NoSurvivors`] for `survivors == 0` instead of
    /// panicking. Recovery paths that derive the survivor count from
    /// untrusted fault plans should prefer this.
    fn try_fallback_grid(survivors: usize) -> Result<Self, GridError> {
        if survivors == 0 {
            return Err(GridError::NoSurvivors);
        }
        let floor = survivors - survivors / 8;
        let mut best = (Self::new(1, 1), f64::NEG_INFINITY);
        for m in (floor..=survivors).rev() {
            let g = squarest(m);
            let score = m as f64 * (g.p as f64 / g.q as f64).sqrt();
            if score > best.1 {
                best = (g, score);
            }
        }
        Ok(best.0)
    }

    /// Locality-preserving remap after the death of `dead_rank`: the
    /// grid keeps its shape, every surviving rank keeps its block-cyclic
    /// ownership, and only the dead rank's blocks are dealt out to the
    /// survivors. The returned [`PatchRemap`] prices that move in O(1).
    ///
    /// # Panics
    /// Panics with the corresponding `GridError` message when
    /// `dead_rank` is out of range (`GridError::RankOutOfRange`) or
    /// the grid has a single process — nobody left to absorb the share
    /// (`GridError::SingletonGrid`).
    pub fn patch_remap(&self, dead_rank: usize) -> PatchRemap {
        match self.try_patch_remap(dead_rank) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`Self::patch_remap`]: the same remap as a typed
    /// result, rejecting a foreign `dead_rank` and the singleton grid.
    fn try_patch_remap(&self, dead_rank: usize) -> Result<PatchRemap, GridError> {
        if dead_rank >= self.size() {
            return Err(GridError::RankOutOfRange {
                rank: dead_rank,
                size: self.size(),
            });
        }
        if self.size() <= 1 {
            return Err(GridError::SingletonGrid);
        }
        Ok(PatchRemap {
            grid: *self,
            dead: self.coord(dead_rank),
        })
    }

    /// Per-rank load factor on the trailing update after `dead` ranks
    /// have been patched out: the survivors absorb the dead ranks'
    /// block-cyclic share round-robin, so each carries
    /// `size / (size − dead)` of its balanced load. `1.0` exactly when
    /// nothing died.
    ///
    /// # Panics
    /// Panics when `dead >= size` — a patched grid needs a survivor.
    pub fn patch_imbalance(&self, dead: usize) -> f64 {
        assert!(dead < self.size(), "patched out the whole grid");
        self.size() as f64 / (self.size() - dead) as f64
    }
}

/// Priced outcome of [`ProcessGrid::patch_remap`]: which blocks move
/// when one rank's share is dealt out to the survivors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatchRemap {
    /// The grid, shape unchanged — survivors keep their coordinates.
    pub grid: ProcessGrid,
    /// Coordinate of the rank whose blocks move.
    pub dead: GridCoord,
}

impl PatchRemap {
    /// Blocks of the trailing submatrix `first..nblocks` (in block
    /// units, both dimensions) owned by the dead rank — exactly the
    /// blocks a locality-preserving recovery moves. Closed form,
    /// mirroring the trailing-count math the per-stage loop uses: the
    /// dead rank owns the block rows `≡ dead.p (mod P)` crossed with
    /// the block columns `≡ dead.q (mod Q)`.
    pub fn moved_trailing_blocks(&self, first: usize, nblocks: usize) -> usize {
        self.grid.trailing_blocks_row(self.dead.p, first, nblocks)
            * self.grid.trailing_blocks_col(self.dead.q, first, nblocks)
    }

    /// Element-exact extent of the dead rank's trailing share of an
    /// `n × n` matrix tiled in `nb × nb` blocks: the block counts of
    /// [`Self::moved_trailing_blocks`] scaled to elements, with the
    /// final partial block clipped to the matrix edge when the dead
    /// coordinate owns it. Summed over all ranks this tiles the
    /// trailing `(n - first·nb)²` elements exactly, so a patch never
    /// ships more than a wholesale redistribution.
    pub fn moved_trailing_elements(
        &self,
        first: usize,
        nblocks: usize,
        nb: usize,
        n: usize,
    ) -> f64 {
        if nblocks == 0 {
            return 0.0;
        }
        let overhang = (nblocks * nb).saturating_sub(n) as f64;
        let rows = self.grid.trailing_blocks_row(self.dead.p, first, nblocks);
        let cols = self.grid.trailing_blocks_col(self.dead.q, first, nblocks);
        let rows_e = (rows * nb) as f64
            - if rows > 0 && self.grid.owner_row(nblocks - 1) == self.dead.p {
                overhang
            } else {
                0.0
            };
        let cols_e = (cols * nb) as f64
            - if cols > 0 && self.grid.owner_col(nblocks - 1) == self.dead.q {
                overhang
            } else {
                0.0
            };
        rows_e * cols_e
    }

    /// Blocks a wholesale redistribution of the same trailing
    /// submatrix moves: all of them.
    pub fn wholesale_trailing_blocks(first: usize, nblocks: usize) -> usize {
        let t = nblocks.saturating_sub(first);
        t * t
    }
}

/// Squarest `p × q = m` factorization with `p ≤ q`.
fn squarest(m: usize) -> ProcessGrid {
    let mut p = (m as f64).sqrt() as usize;
    while p > 1 && !m.is_multiple_of(p) {
        p -= 1;
    }
    ProcessGrid::new(p.max(1), m / p.max(1))
}

/// Count of `i` in `first..nblocks` with `i % p == r`.
fn count_congruent(first: usize, nblocks: usize, r: usize, p: usize) -> usize {
    let len = nblocks.saturating_sub(first);
    let off = (r + p - first % p) % p;
    if off >= len {
        0
    } else {
        (len - off - 1) / p + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_roundtrip() {
        let g = ProcessGrid::new(3, 4);
        assert_eq!(g.size(), 12);
        for r in 0..12 {
            assert_eq!(g.rank(g.coord(r)), r);
        }
    }

    #[test]
    fn block_cyclic_ownership() {
        let g = ProcessGrid::new(2, 3);
        assert_eq!(g.owner_col(0), 0);
        assert_eq!(g.owner_col(4), 1);
        assert_eq!(g.owner_row(5), 1);
    }

    #[test]
    fn owned_counts_sum_to_total() {
        let g = ProcessGrid::new(3, 4);
        for nblocks in [0usize, 1, 7, 12, 100] {
            let col_sum: usize = (0..4).map(|q| g.blocks_owned_col(q, nblocks)).sum();
            assert_eq!(col_sum, nblocks);
            let row_sum: usize = (0..3).map(|p| g.blocks_owned_row(p, nblocks)).sum();
            assert_eq!(row_sum, nblocks);
        }
    }

    #[test]
    fn trailing_counts_match_filter() {
        let g = ProcessGrid::new(2, 2);
        // Blocks 3..10 → rows 3,5,7,9 odd → p=1 owns 4 of 7.
        assert_eq!(g.trailing_blocks_row(1, 3, 10), 4);
        assert_eq!(g.trailing_blocks_row(0, 3, 10), 3);
        let total: usize = (0..2).map(|q| g.trailing_blocks_col(q, 3, 10)).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn closed_form_counts_match_exhaustive_filter() {
        for p in 1..=7usize {
            let g = ProcessGrid::new(p, p);
            for first in 0..20 {
                for nblocks in 0..25 {
                    for r in 0..p {
                        let want = (first..nblocks).filter(|&i| i % p == r).count();
                        assert_eq!(
                            g.trailing_blocks_row(r, first, nblocks),
                            want,
                            "p={p} r={r} first={first} nblocks={nblocks}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_covers_all_other_columns() {
        let g = ProcessGrid::new(1, 5);
        let ring = g.row_ring(2);
        assert_eq!(ring, vec![3, 4, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "degenerate grid")]
    fn zero_dimension_rejected() {
        ProcessGrid::new(0, 3);
    }

    #[test]
    fn fallback_grid_prefers_balanced_shapes() {
        // One death in the Table III 10×10 run: 99 survivors stay 9×11.
        assert_eq!(ProcessGrid::fallback_grid(99), ProcessGrid::new(9, 11));
        // Prime survivor count idles ranks for a square-ish shape.
        assert_eq!(ProcessGrid::fallback_grid(97), ProcessGrid::new(9, 10));
        // Perfect squares stay perfect.
        assert_eq!(ProcessGrid::fallback_grid(100), ProcessGrid::new(10, 10));
        assert_eq!(ProcessGrid::fallback_grid(1), ProcessGrid::new(1, 1));
        assert_eq!(ProcessGrid::fallback_grid(3), ProcessGrid::new(1, 3));
    }

    #[test]
    fn fallback_grid_never_exceeds_survivors_or_idles_too_many() {
        for survivors in 1..=256usize {
            let g = ProcessGrid::fallback_grid(survivors);
            assert!(g.size() <= survivors, "survivors={survivors}");
            assert!(
                g.size() >= survivors - survivors / 8,
                "survivors={survivors} kept only {}",
                g.size()
            );
            assert!(g.p <= g.q);
        }
    }

    #[test]
    #[should_panic(expected = "no survivors")]
    fn fallback_grid_rejects_zero() {
        ProcessGrid::fallback_grid(0);
    }

    #[test]
    fn patch_remap_counts_match_exhaustive_filter() {
        for (p, q) in [(2usize, 2usize), (3, 4), (10, 10)] {
            let g = ProcessGrid::new(p, q);
            for rank in [0, g.size() / 2, g.size() - 1] {
                let r = g.patch_remap(rank);
                for (first, nblocks) in [(0usize, 25usize), (7, 31), (30, 30), (29, 30)] {
                    let want = (first..nblocks).filter(|&i| i % p == r.dead.p).count()
                        * (first..nblocks).filter(|&j| j % q == r.dead.q).count();
                    assert_eq!(
                        r.moved_trailing_blocks(first, nblocks),
                        want,
                        "{p}x{q} rank {rank} [{first}, {nblocks})"
                    );
                }
            }
        }
    }

    #[test]
    fn patch_moves_a_grid_size_fraction_of_wholesale() {
        // On the Table III 10×10 grid the dead rank owns 1/100 of the
        // trailing blocks: the locality-preserving remap moves ~P·Q×
        // less than a wholesale redistribution.
        let g = ProcessGrid::new(10, 10);
        let r = g.patch_remap(42);
        let (first, nblocks) = (200, 860);
        let moved = r.moved_trailing_blocks(first, nblocks);
        let wholesale = PatchRemap::wholesale_trailing_blocks(first, nblocks);
        assert!(moved > 0);
        let ratio = wholesale as f64 / moved as f64;
        assert!(
            (90.0..=110.0).contains(&ratio),
            "expected ~100x reduction, got {ratio:.1}x"
        );
        // Summed over every rank, the per-rank shares tile the trailing
        // submatrix exactly.
        let total: usize = (0..g.size())
            .map(|k| g.patch_remap(k).moved_trailing_blocks(first, nblocks))
            .sum();
        assert_eq!(total, wholesale);
    }

    #[test]
    fn patch_imbalance_is_identity_then_grows() {
        let g = ProcessGrid::new(10, 10);
        assert_eq!(g.patch_imbalance(0).to_bits(), 1.0f64.to_bits());
        assert!((g.patch_imbalance(1) - 100.0 / 99.0).abs() < 1e-15);
        assert!(g.patch_imbalance(12) > g.patch_imbalance(1));
    }

    #[test]
    #[should_panic(expected = "not in the grid")]
    fn patch_remap_rejects_foreign_rank() {
        ProcessGrid::new(2, 2).patch_remap(4);
    }

    #[test]
    #[should_panic(expected = "no survivors to patch")]
    fn patch_remap_rejects_singleton_grid() {
        ProcessGrid::new(1, 1).patch_remap(0);
    }

    #[test]
    fn typed_errors_mirror_the_panicking_contracts() {
        assert_eq!(
            ProcessGrid::try_fallback_grid(0),
            Err(GridError::NoSurvivors)
        );
        assert_eq!(
            ProcessGrid::try_fallback_grid(99),
            Ok(ProcessGrid::new(9, 11))
        );
        let g = ProcessGrid::new(2, 2);
        assert_eq!(
            g.try_patch_remap(4),
            Err(GridError::RankOutOfRange { rank: 4, size: 4 })
        );
        assert_eq!(
            ProcessGrid::new(1, 1).try_patch_remap(0),
            Err(GridError::SingletonGrid)
        );
        assert_eq!(g.try_patch_remap(3).unwrap(), g.patch_remap(3));
        // The panic messages are exactly the typed errors' Display.
        assert_eq!(
            GridError::NoSurvivors.to_string(),
            "no survivors to re-form a grid from"
        );
        assert!(GridError::RankOutOfRange { rank: 4, size: 4 }
            .to_string()
            .contains("not in the grid"));
        assert_eq!(
            GridError::SingletonGrid.to_string(),
            "no survivors to patch onto"
        );
    }

    #[test]
    fn remap_strategy_default_and_labels() {
        assert_eq!(RemapStrategy::default(), RemapStrategy::Patch);
        assert_eq!(RemapStrategy::Patch.label(), "patch");
        assert_eq!(RemapStrategy::Wholesale.label(), "whsl");
    }
}
