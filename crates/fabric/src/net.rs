//! Inter-node network model: single-rail FDR InfiniBand.
//!
//! The cluster results (Table III, Fig. 9) run on "a single rail FDR
//! Infiniband network": ≈6.8 GB/s per direction sustained, ~1 µs MPI
//! latency. The hybrid HPL critical path sees the network through two
//! operations, both given analytic postal-model times here:
//!
//! * **panel broadcast** along a process row (the factored panel of
//!   `m × NB` doubles travels an increasing ring, pipelined);
//! * **swap + U broadcast** along a process column (partial rows are
//!   exchanged and the `NB × cols` U panel is spread — HPL's
//!   "spread-roll" long swap).
//!
//! These enter the per-stage simulation as durations, and the pipelined
//! look-ahead scheme (Fig. 8c) splits them into column strips.

/// Panel-broadcast algorithm along a process row.
///
/// HPL ships several broadcast variants and the paper's Fig. 8 tuning
/// picks among them per machine; the tuner enumerates these three:
///
/// * [`Ring`](BcastScheme::Ring) — HPL's `1ring` increasing ring,
///   pipelined (the default the rest of the repo has always used);
/// * [`TwoRing`](BcastScheme::TwoRing) — `2ring`: the root injects into
///   two half-rings, halving the hop count at the cost of sending the
///   message twice;
/// * [`Binomial`](BcastScheme::Binomial) — a binomial tree, `⌈log₂ q⌉`
///   full-message rounds; wins at small messages / large q, loses
///   pipelining for large panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BcastScheme {
    /// Pipelined increasing one-ring (HPL `1ring`).
    Ring,
    /// Two half-rings from the root (HPL `2ring`).
    TwoRing,
    /// Binomial tree, `⌈log₂ q⌉` store-and-forward rounds.
    Binomial,
}

impl BcastScheme {
    /// All schemes, in the fixed order the tuner enumerates them.
    pub const ALL: [BcastScheme; 3] = [
        BcastScheme::Ring,
        BcastScheme::TwoRing,
        BcastScheme::Binomial,
    ];

    /// Stable lowercase name (used in score tables and cache bytes).
    pub fn name(&self) -> &'static str {
        match self {
            BcastScheme::Ring => "ring",
            BcastScheme::TwoRing => "2ring",
            BcastScheme::Binomial => "binomial",
        }
    }
}

/// A radius-`r` face-halo exchange over a 3-D grid of doubles,
/// block-decomposed on a `(p1, p2, p3)` rank grid with periodic
/// boundaries — the traffic pattern of the performance lab's stencil
/// workload, sitting beside the HPL panel broadcast and long swap.
///
/// Each rank owns a contiguous block (uneven remainders go to the
/// low-coordinate ranks, standard block distribution) and, per decomposed
/// axis, exchanges a `radius`-deep face with both neighbours. Faces are
/// whole cross-sections: axis-0 faces carry `radius × ly × lz` points of
/// the *sender's* local extents — which equal the receiver's, because
/// neighbours along one axis share their extents along the other two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HaloSpec {
    /// Global grid points per axis.
    pub dims: (usize, usize, usize),
    /// Rank grid: how many ranks split each axis.
    pub ranks: (usize, usize, usize),
    /// Stencil radius: halo depth in grid points.
    pub radius: usize,
}

impl HaloSpec {
    /// Builds a spec, checking the decomposition is meaningful: every
    /// rank's block must be at least `radius` deep along decomposed axes
    /// (a halo deeper than its donor block would need multi-hop sourcing).
    pub fn new(dims: (usize, usize, usize), ranks: (usize, usize, usize), radius: usize) -> Self {
        let s = Self {
            dims,
            ranks,
            radius,
        };
        for a in 0..3 {
            let (n, p) = (s.dim(a), s.rank_dim(a));
            assert!(p >= 1 && n >= p, "axis {a}: {p} ranks over {n} points");
            if p > 1 {
                let min_extent = n / p;
                assert!(
                    min_extent >= radius,
                    "axis {a}: blocks of {min_extent} shallower than radius {radius}"
                );
            }
        }
        s
    }

    fn dim(&self, axis: usize) -> usize {
        [self.dims.0, self.dims.1, self.dims.2][axis]
    }

    fn rank_dim(&self, axis: usize) -> usize {
        [self.ranks.0, self.ranks.1, self.ranks.2][axis]
    }

    /// Total ranks in the decomposition.
    pub fn rank_count(&self) -> usize {
        self.ranks.0 * self.ranks.1 * self.ranks.2
    }

    /// Local extent along `axis` for a rank at `coord`: `n/p`, with the
    /// first `n mod p` coordinates absorbing the remainder.
    fn local_extent(&self, axis: usize, coord: usize) -> usize {
        let (n, p) = (self.dim(axis), self.rank_dim(axis));
        n / p + usize::from(coord < n % p)
    }

    fn rank_id(&self, c: [usize; 3]) -> usize {
        c[0] + self.ranks.0 * (c[1] + self.ranks.1 * c[2])
    }

    /// Every point-to-point message of one full exchange as
    /// `(from, to, bytes)` triples, in a fixed deterministic order:
    /// axis-major, then rank-id, then the `+`/`−` direction.
    pub fn messages(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for axis in 0..3 {
            let p = self.rank_dim(axis);
            if p <= 1 {
                continue;
            }
            for c2 in 0..self.ranks.2 {
                for c1 in 0..self.ranks.1 {
                    for c0 in 0..self.ranks.0 {
                        let c = [c0, c1, c2];
                        let bytes = self.face_bytes(axis, c);
                        for dir in [1usize, p - 1] {
                            let mut n = c;
                            n[axis] = (c[axis] + dir) % p;
                            out.push((self.rank_id(c), self.rank_id(n), bytes));
                        }
                    }
                }
            }
        }
        out
    }

    /// Bytes of one face a rank at `coord` sends along `axis`: a
    /// `radius`-deep slab of its own cross-section, 8 bytes per point.
    fn face_bytes(&self, axis: usize, coord: [usize; 3]) -> f64 {
        let mut area = 1.0;
        for (other, &c) in coord.iter().enumerate() {
            if other != axis {
                area *= self.local_extent(other, c) as f64;
            }
        }
        8.0 * self.radius as f64 * area
    }

    /// Bytes each rank sends in one exchange, indexed by rank id.
    pub fn sent_bytes(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.rank_count()];
        for (from, _, b) in self.messages() {
            v[from] += b;
        }
        v
    }

    /// Bytes each rank receives in one exchange, indexed by rank id.
    pub fn received_bytes(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.rank_count()];
        for (_, to, b) in self.messages() {
            v[to] += b;
        }
        v
    }

    /// Total bytes crossing the network in one exchange.
    pub fn total_bytes(&self) -> f64 {
        self.messages().iter().map(|m| m.2).sum()
    }
}

/// `⌈log₂ p⌉` — the smallest `r` with `2^r ≥ p` — in integer arithmetic:
/// the round count of every tree-shaped collective priced here and in
/// the hybrid stage model. (A libm `log2` is not correctly rounded; one
/// ulp high at a power of two would add a round to every stage.)
///
/// `#[inline]` here and on its two callers, [`NetModel::bcast`] and
/// [`NetModel::long_swap`]: with the float form those were leaf
/// functions, which rustc inlines across crates on its own; calling
/// this function ended that, and the stage model's `parts` in `phi-hpl`
/// made two out-of-line calls per stage.
#[inline]
pub fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        (p - 1).ilog2() + 1
    }
}

/// Analytic network model.
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// Per-direction link bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Per-message latency, seconds.
    pub latency: f64,
}

impl Default for NetModel {
    /// FDR InfiniBand 4x: 56 Gb/s signalling → ≈6.8 GB/s effective
    /// unidirectional; ~1.5 µs end-to-end MPI latency.
    fn default() -> Self {
        Self {
            bandwidth: 6.8e9,
            latency: 1.5e-6,
        }
    }
}

impl NetModel {
    /// Point-to-point message time (postal model).
    pub fn p2p(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }

    /// The same rail under injected degradation: bandwidth multiplied by
    /// `bw_factor` (≤ 1, e.g. a flapping link renegotiating width) and
    /// `extra_latency_s` added per message (switch buffer jitter). With
    /// `bw_factor = 1` and `extra_latency_s = 0` the returned model is
    /// bit-identical to `self` — the healthy path costs nothing.
    pub fn degraded(&self, bw_factor: f64, extra_latency_s: f64) -> NetModel {
        assert!(bw_factor > 0.0 && extra_latency_s >= 0.0);
        NetModel {
            bandwidth: self.bandwidth * bw_factor,
            latency: self.latency + extra_latency_s,
        }
    }

    /// Pipelined increasing-ring broadcast of `bytes` to `q - 1` peers:
    /// the message is chunked, so completion at the last peer is one full
    /// transmission plus per-hop pipeline fill. For `q = 1` this is free.
    pub fn ring_bcast(&self, bytes: f64, q: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        let hops = (q - 1) as f64;
        // One full message transmission + per-hop latency + a residual
        // chunk per extra hop (chunking at 1/8 of the message).
        self.latency * hops + bytes / self.bandwidth * (1.0 + 0.125 * (hops - 1.0).max(0.0))
    }

    /// Broadcast of `bytes` to `q - 1` peers under the given scheme.
    /// `Ring` delegates to [`ring_bcast`](Self::ring_bcast) and is
    /// bit-identical to it; the other two reuse the same postal constants
    /// so the schemes are comparable, not separately calibrated.
    #[inline]
    pub fn bcast(&self, scheme: BcastScheme, bytes: f64, q: usize) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        match scheme {
            BcastScheme::Ring => self.ring_bcast(bytes, q),
            BcastScheme::TwoRing => {
                // Root feeds two half-rings concurrently: half the hops,
                // but the root's link carries the message twice, so the
                // bandwidth term starts at 2× before pipeline residuals.
                let hops = (q - 1).div_ceil(2) as f64;
                self.latency * hops + bytes / self.bandwidth * (2.0 + 0.125 * (hops - 1.0).max(0.0))
            }
            BcastScheme::Binomial => {
                // ⌈log₂ q⌉ store-and-forward rounds, full message each.
                let rounds = ceil_log2(q).max(1) as f64;
                rounds * (self.latency + bytes / self.bandwidth)
            }
        }
    }

    /// HPL long-swap ("spread-roll") of an `NB`-deep row window `cols`
    /// wide over `p` process rows: every process sends/receives ≈
    /// `(p-1)/p` of its share twice (spread + roll), with `log2(p)`-ish
    /// latency stages.
    #[inline]
    pub fn long_swap(&self, nb: usize, cols: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let bytes = 8.0 * nb as f64 * cols as f64;
        let share = bytes / p as f64;
        let stages = ceil_log2(p).max(1) as f64;
        2.0 * share * (p - 1) as f64 / p as f64 * p as f64 / self.bandwidth / p as f64
            + 2.0 * share / self.bandwidth
            + stages * self.latency
    }

    /// Broadcast of the solved `U` panel (`nb × cols` doubles) down a
    /// process column of `p` nodes.
    pub fn u_bcast(&self, nb: usize, cols: usize, p: usize) -> f64 {
        self.ring_bcast(8.0 * nb as f64 * cols as f64, p)
    }

    /// One full face-halo exchange: per decomposed axis, every rank
    /// shifts a face to each neighbour. The two directional shifts of an
    /// axis serialize on the single rail, axes proceed as separate
    /// phases, and the widest face paces each phase (the postal analogue
    /// of the bulk-synchronous `MPI_Sendrecv` ladder stencil codes use).
    /// Free when no axis is decomposed — the halo then wraps in memory.
    pub fn halo_exchange(&self, spec: &HaloSpec) -> f64 {
        let mut t = 0.0;
        for axis in 0..3 {
            let p = [spec.ranks.0, spec.ranks.1, spec.ranks.2][axis];
            if p <= 1 {
                continue;
            }
            let widest = (0..spec.ranks.2)
                .flat_map(|c2| {
                    (0..spec.ranks.1)
                        .flat_map(move |c1| (0..spec.ranks.0).map(move |c0| [c0, c1, c2]))
                })
                .map(|c| spec.face_bytes(axis, c))
                .fold(0.0f64, f64::max);
            t += 2.0 * self.p2p(widest);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_is_the_smallest_exponent_covering_p() {
        for p in (1..=4096).chain([usize::MAX]) {
            let r = ceil_log2(p);
            // 2^r ≥ p (2^BITS covers every usize) …
            assert!(r == usize::BITS || 1usize << r >= p, "p = {p}, r = {r}");
            // … and no smaller exponent does.
            assert!(r == 0 || 1usize << (r - 1) < p, "p = {p}, r = {r}");
        }
        assert_eq!(ceil_log2(usize::MAX), usize::BITS);
    }

    #[test]
    fn p2p_postal_model() {
        let n = NetModel::default();
        let t = n.p2p(6.8e9);
        assert!((t - (1.0 + 1.5e-6)).abs() < 1e-9);
    }

    #[test]
    fn bcast_degenerate_cases() {
        let n = NetModel::default();
        assert_eq!(n.ring_bcast(1e9, 1), 0.0);
        // Two processes: a single hop ≈ p2p.
        let two = n.ring_bcast(1e6, 2);
        assert!((two - n.p2p(1e6)).abs() < 1e-9);
    }

    #[test]
    fn bcast_grows_slowly_with_q() {
        // Pipelining keeps the ring broadcast well under q × p2p.
        let n = NetModel::default();
        let one = n.p2p(1e8);
        let ten = n.ring_bcast(1e8, 10);
        assert!(ten > one);
        assert!(ten < 3.0 * one, "pipelined: {ten} vs naive {}", 9.0 * one);
    }

    #[test]
    fn degraded_identity_is_bit_exact() {
        let n = NetModel::default();
        let same = n.degraded(1.0, 0.0);
        assert_eq!(same.bandwidth.to_bits(), n.bandwidth.to_bits());
        assert_eq!(same.latency.to_bits(), n.latency.to_bits());
        let worse = n.degraded(0.5, 10e-6);
        assert!(worse.p2p(1e8) > n.p2p(1e8));
        assert!(worse.ring_bcast(1e8, 4) > n.ring_bcast(1e8, 4));
    }

    #[test]
    fn ring_scheme_is_bit_identical_to_ring_bcast() {
        let n = NetModel::default();
        for q in 1..=16 {
            for bytes in [0.0, 1e3, 1e6, 1e9] {
                assert_eq!(
                    n.bcast(BcastScheme::Ring, bytes, q).to_bits(),
                    n.ring_bcast(bytes, q).to_bits()
                );
            }
        }
    }

    #[test]
    fn scheme_crossover_matches_intuition() {
        let n = NetModel::default();
        // Large panel, modest row: pipelined ring beats binomial.
        let big = 8.0 * 84_000.0 * 1200.0;
        assert!(n.bcast(BcastScheme::Ring, big, 10) < n.bcast(BcastScheme::Binomial, big, 10));
        // Tiny message, wide row: binomial's log rounds beat the ring's
        // linear latency chain.
        assert!(n.bcast(BcastScheme::Binomial, 64.0, 64) < n.bcast(BcastScheme::Ring, 64.0, 64));
        // All schemes free on a single column.
        for s in BcastScheme::ALL {
            assert_eq!(n.bcast(s, 1e9, 1), 0.0);
        }
    }

    #[test]
    fn long_swap_scales_with_volume() {
        let n = NetModel::default();
        let small = n.long_swap(1200, 10_000, 4);
        let large = n.long_swap(1200, 40_000, 4);
        assert!(large > 3.0 * small);
        assert_eq!(n.long_swap(1200, 40_000, 1), 0.0);
    }

    #[test]
    fn halo_volume_is_conserved_rank_by_rank() {
        // Uneven decomposition (remainder blocks differ in extent): every
        // byte sent must land somewhere, and with periodic faces each
        // rank's inflow matches its outflow pairwise.
        let spec = HaloSpec::new((37, 22, 9), (3, 2, 1), 2);
        let sent = spec.sent_bytes();
        let recv = spec.received_bytes();
        let (s, r): (f64, f64) = (sent.iter().sum(), recv.iter().sum());
        assert_eq!(s.to_bits(), r.to_bits(), "conservation: {s} vs {r}");
        assert!((s - spec.total_bytes()).abs() < 1e-9);
        // Neighbours along an axis share cross-sections, so per-rank
        // inflow equals outflow too.
        for (i, (a, b)) in sent.iter().zip(&recv).enumerate() {
            assert!((a - b).abs() < 1e-9, "rank {i}: sent {a} recv {b}");
        }
        // 2 messages per rank per decomposed axis.
        assert_eq!(spec.messages().len(), 2 * 2 * spec.rank_count());
    }

    #[test]
    fn halo_time_scales_with_radius_and_is_free_undivided() {
        let n = NetModel::default();
        let single = HaloSpec::new((512, 512, 512), (1, 1, 1), 4);
        assert_eq!(n.halo_exchange(&single), 0.0);
        assert!(single.messages().is_empty());

        let r1 = HaloSpec::new((512, 512, 512), (2, 2, 2), 1);
        let r4 = HaloSpec::new((512, 512, 512), (2, 2, 2), 4);
        let (t1, t4) = (n.halo_exchange(&r1), n.halo_exchange(&r4));
        assert!(t1 > 0.0);
        assert!(t4 > 2.0 * t1, "radius-4 halo {t4} vs radius-1 {t1}");
        // Three axis phases, two shifts each: at least 6 latencies.
        assert!(t1 >= 6.0 * n.latency);
    }

    #[test]
    #[should_panic(expected = "shallower than radius")]
    fn halo_rejects_blocks_thinner_than_the_radius() {
        HaloSpec::new((8, 8, 8), (4, 1, 1), 3);
    }

    #[test]
    fn swap_volume_sane_for_84k_case() {
        // Fig. 9's 2×2 grid at N = 84K, NB = 1200: per-column share is
        // 42K columns; the swap should take tens of milliseconds — the
        // "13% of iteration time" scale of exposed swap the paper reports.
        let n = NetModel::default();
        let t = n.long_swap(1200, 42_000, 2);
        assert!((0.01..0.3).contains(&t), "swap time {t}");
    }
}
