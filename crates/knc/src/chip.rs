//! Chip-level performance model of Knights Corner.
//!
//! The emulator ([`crate::kernels`]) establishes the per-iteration cycle
//! cost of the inner kernels from first principles; this module scales
//! those constants to full-chip, paper-scale problems. Every calibration
//! constant is documented with the paper statement that pins it, and
//! `EXPERIMENTS.md` records model-vs-paper numbers for each table/figure.
//!
//! * [`KncChip`] — the Table I hardware constants.
//! * [`GemmModel`] — DGEMM/SGEMM efficiency as a function of the inner
//!   blocking `k` and the matrix size (Table II, Fig. 4): kernel issue
//!   efficiency × C-update/loop overhead × L2-spill penalty × scalar
//!   drive factor × tile-quantization × packing overhead.
//! * [`LuTaskModel`] — durations of the LU task types (panel
//!   factorization, row swap, DTRSM, trailing GEMM) used by the
//!   discrete-event native-Linpack simulation (Fig. 6/7).

use phi_blas::gemm::MicroKernelKind;

/// Element precision for the GEMM models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 32-bit floats (SGEMM): 16 lanes per vector, 4 bytes/element.
    F32,
    /// 64-bit floats (DGEMM): 8 lanes per vector, 8 bytes/element.
    F64,
}

impl Precision {
    /// Bytes per element.
    fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// FLOPs per core per cycle (FMA counts as 2 × lanes).
    fn flops_per_cycle(self) -> f64 {
        match self {
            Precision::F32 => 32.0,
            Precision::F64 => 16.0,
        }
    }
}

/// Knights Corner hardware constants (Table I of the paper).
#[derive(Clone, Copy, Debug)]
pub struct KncChip {
    /// Physical cores on the die (61; the last is reserved for the OS).
    pub cores_total: usize,
    /// Cores used for computation in native mode (60).
    pub cores_compute: usize,
    /// Core clock in GHz (1.1).
    pub freq_ghz: f64,
    /// Achievable STREAM bandwidth in GB/s (150).
    pub stream_bw_gbs: f64,
    /// GDDR capacity in GiB (8) — the limit that motivates hybrid HPL.
    pub memory_gib: f64,
    /// Per-core L2 in bytes (512 KB).
    pub l2_bytes: usize,
}

impl Default for KncChip {
    fn default() -> Self {
        Self {
            cores_total: 61,
            cores_compute: 60,
            freq_ghz: 1.1,
            stream_bw_gbs: 150.0,
            memory_gib: 8.0,
            l2_bytes: 512 * 1024,
        }
    }
}

impl KncChip {
    /// Peak GFLOPS over `cores` cores.
    fn peak_gflops(&self, prec: Precision, cores: usize) -> f64 {
        cores as f64 * self.freq_ghz * prec.flops_per_cycle()
    }

    /// Native peak (60 compute cores): 1056 DP GFLOPS — the denominator of
    /// the paper's native efficiency numbers (footnote 2).
    pub fn native_peak_gflops(&self, prec: Precision) -> f64 {
        self.peak_gflops(prec, self.cores_compute)
    }

    /// Full-chip peak (61 cores): 1074 DP GFLOPS, the Table I entry and
    /// the denominator for offload/hybrid efficiency.
    pub fn full_peak_gflops(&self, prec: Precision) -> f64 {
        self.peak_gflops(prec, self.cores_total)
    }

    /// The chip with `core_fraction` of its cores throttled to run
    /// `slowdown`× slower — a straggler card running hot and clocking
    /// down part of the die. Barrier-synchronized LU kernels run at the
    /// pace of the slowest group, but work stealing rebalances most of
    /// the gap, so the model charges the *aggregate throughput* drag
    /// `1 - f + f·k` against the clock. With `core_fraction = 0` or
    /// `slowdown = 1` the returned chip is bit-identical to `self`.
    pub fn with_straggler(&self, core_fraction: f64, slowdown: f64) -> Self {
        assert!((0.0..=1.0).contains(&core_fraction) && slowdown >= 1.0);
        let drag = 1.0 - core_fraction + core_fraction * slowdown;
        Self {
            freq_ghz: self.freq_ghz / drag,
            ..*self
        }
    }
}

/// Calibrated GEMM performance model (Table II / Fig. 4).
#[derive(Clone, Copy, Debug)]
pub struct GemmModel {
    /// Hardware constants.
    pub chip: KncChip,
    /// Steady-state cycles per inner-loop iteration for Basic Kernel 2,
    /// cross-checked against the emulator (32.0: stall-free).
    pub kernel2_cycles_per_iter: f64,
    /// Ditto for Basic Kernel 1 (≈34: two fill stalls per iteration,
    /// Section III-A2's "91% = 31/(32+2)").
    pub kernel1_cycles_per_iter: f64,
    /// Fixed overhead cycles per `k`-loop pass: C-tile update (the ~2
    /// instructions × 30 rows of the epilogue) plus loop setup/drain.
    /// Divided by `32k` this reproduces the "less than 0.5% for k = 240"
    /// statement for the update share.
    pub per_pass_overhead_cycles: f64,
    /// Multiplicative efficiency factor for "scalar instructions overhead
    /// required to drive DGEMM parallel distribution of work" (the paper's
    /// third unaccounted overhead). Calibrated so DGEMM(k=300) = 89.4%.
    pub drive_factor_dp: f64,
    /// Same for SGEMM; calibrated so SGEMM(k=400) = 90.8%.
    pub drive_factor_sp: f64,
    /// Effective L2 capacity before spill effects begin (associativity
    /// and sharing leave less than the nominal 512 KB usable).
    pub l2_effective_bytes: f64,
    /// Spill penalty slope: fractional slowdown per fractional overflow.
    /// Calibrated to Table II's DGEMM droop at k = 340/400.
    pub spill_gamma: f64,
    /// `mc` of the chip-wide blocking (120, Section III-A1 example).
    pub mc: usize,
    /// `nc` per core (32).
    pub nc: usize,
    /// Fixed per-call overhead of one chip-wide outer product: thread
    /// wake-up/barrier across 240 threads (seconds). Governs the small-
    /// size droop of Fig. 4's kernel curve.
    pub call_overhead_s: f64,
    /// Packing overhead coefficients: `c1/S + c2/S²` with `S` in units of
    /// 1000 (matrix dimension). Fit to Fig. 4's quoted points: 15% at 1K,
    /// <2% from 5K, ~0.4% at 17K.
    pub pack_c1: f64,
    /// See `pack_c1`.
    pub pack_c2: f64,
}

impl Default for GemmModel {
    fn default() -> Self {
        Self {
            chip: KncChip::default(),
            kernel2_cycles_per_iter: 32.0,
            kernel1_cycles_per_iter: 34.0,
            per_pass_overhead_cycles: 175.0,
            drive_factor_dp: 0.971,
            drive_factor_sp: 0.982,
            l2_effective_bytes: 400.0 * 1024.0,
            spill_gamma: 0.034,
            mc: 120,
            nc: 32,
            call_overhead_s: 100e-6,
            pack_c1: 0.0629,
            pack_c2: 0.0871,
        }
    }
}

/// Steady-state kernel costs re-measured on the cycle-level emulator
/// ([`crate::kernels`]) with the block-trace fast path enabled — the
/// calibration experiment behind [`GemmModel`]'s two kernel constants.
#[derive(Clone, Copy, Debug)]
pub struct KernelCalibration {
    /// Measured per-thread steady cycles per iteration of Basic Kernel 1.
    pub kernel1_cycles_per_iter: f64,
    /// Measured per-thread steady cycles per iteration of Basic Kernel 2.
    pub kernel2_cycles_per_iter: f64,
    /// Trace-replay coverage speedup of the Kernel 1 measurement run
    /// (total cycles over interpreter-executed cycles).
    pub kernel1_replay_speedup: f64,
    /// Trace-replay coverage speedup of the Kernel 2 measurement run.
    pub kernel2_replay_speedup: f64,
}

impl KernelCalibration {
    /// Runs both basic kernels on the emulator at inner depth `depth`
    /// and measures their steady per-thread cycle costs. The emulator is
    /// the ground truth the hand-written [`GemmModel`] constants must
    /// reproduce: Kernel 2 at exactly 32 cycles per 30-FMA iteration
    /// (stall-free holes absorb every prefetch fill), Kernel 1 dragged
    /// above 32 by fill stalls toward the paper's worst case of 34.
    ///
    /// The measurement runs with the trace fast path on; its bit-identity
    /// guarantee (`crates/knc/src/trace.rs`) means the numbers are the
    /// interpreter's own.
    pub fn measure(depth: usize) -> Self {
        use crate::kernels::{kernel_mr, run_tile_product_traced, NR};
        use crate::pipeline::PipelineConfig;
        let run = |kind: MicroKernelKind| {
            let mr = kernel_mr(kind);
            // Operand values cannot affect timing (data-independent
            // pipeline); any deterministic fill works.
            let a: Vec<f64> = (0..mr * depth)
                .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
                .collect();
            let bs: [Vec<f64>; 4] = std::array::from_fn(|t| {
                (0..depth * NR)
                    .map(|i| ((i * 5 + t) % 17) as f64 - 8.0)
                    .collect()
            });
            let (rep, _, speedup) =
                run_tile_product_traced(kind, depth, &a, &bs, PipelineConfig::default());
            // steady_cycles_per_iter counts all four SMT threads; the
            // model's constant is per thread.
            (rep.steady_cycles_per_iter / 4.0, speedup)
        };
        let (k1, s1) = run(MicroKernelKind::Kernel1);
        let (k2, s2) = run(MicroKernelKind::Kernel2);
        Self {
            kernel1_cycles_per_iter: k1,
            kernel2_cycles_per_iter: k2,
            kernel1_replay_speedup: s1,
            kernel2_replay_speedup: s2,
        }
    }
}

impl GemmModel {
    /// Issue-limited kernel efficiency for a variant: FMAs per cycle in
    /// steady state (Kernel 2: 30/32; Kernel 1: 31/34).
    fn kernel_efficiency(&self, kind: MicroKernelKind) -> f64 {
        match kind {
            MicroKernelKind::Kernel1 => 31.0 / self.kernel1_cycles_per_iter,
            MicroKernelKind::Kernel2 => 30.0 / self.kernel2_cycles_per_iter,
        }
    }

    /// L2 footprint of the blocking at inner dimension `k` (Section
    /// III-A1 inequality, left side).
    fn footprint_bytes(&self, k: usize, prec: Precision) -> f64 {
        (prec.bytes() * (self.mc * self.nc + self.mc * k + k * self.nc)) as f64
    }

    /// Spill penalty ≥ 1: grows once the block triple overflows the
    /// effective L2 ("as k increases, L2 block sizes also increase and
    /// eventually fall out of L2 cache").
    fn spill_penalty(&self, k: usize, prec: Precision) -> f64 {
        let fp = self.footprint_bytes(k, prec);
        let over = (fp - self.l2_effective_bytes).max(0.0) / self.l2_effective_bytes;
        1.0 + self.spill_gamma * over
    }

    /// Chip-wide GEMM efficiency as a function of the inner blocking `k`
    /// for asymptotically large matrices — the Table II model.
    pub fn efficiency_vs_k(&self, k: usize, prec: Precision) -> f64 {
        assert!(k > 0);
        let kern = self.kernel_efficiency(MicroKernelKind::Kernel2);
        let pass = 32.0 * k as f64;
        let pass_eff = pass / (pass + self.per_pass_overhead_cycles);
        let drive = match prec {
            Precision::F64 => self.drive_factor_dp,
            Precision::F32 => self.drive_factor_sp,
        };
        kern * pass_eff * drive / self.spill_penalty(k, prec)
    }

    /// GFLOPS corresponding to [`Self::efficiency_vs_k`] on the native
    /// 60-core peak.
    pub fn gflops_vs_k(&self, k: usize, prec: Precision) -> f64 {
        self.efficiency_vs_k(k, prec) * self.chip.native_peak_gflops(prec)
    }

    /// Tile-quantization and load-imbalance factor for an `m × n` output:
    /// rows round up to 30-row register tiles, columns to the 32-wide
    /// per-core strip, and whole tiles round-robin over 60 cores.
    fn quantization_factor(&self, m: usize, n: usize) -> f64 {
        if m == 0 || n == 0 {
            return 1.0;
        }
        let row_tiles = m.div_ceil(30);
        let col_tiles = n.div_ceil(self.nc);
        let q_rows = m as f64 / (row_tiles * 30) as f64;
        let q_cols = n as f64 / (col_tiles * self.nc) as f64;
        let tasks = row_tiles * col_tiles;
        let cores = self.chip.cores_compute;
        let waves = tasks.div_ceil(cores);
        let balance = tasks as f64 / (waves * cores) as f64;
        q_rows * q_cols * balance
    }

    /// Efficiency of one `m × n × k` outer-product kernel call (Fig. 4
    /// middle curve: no packing overhead).
    pub fn outer_product_efficiency(&self, m: usize, n: usize, k: usize, prec: Precision) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return 0.0;
        }
        let base = self.efficiency_vs_k(k, prec) * self.quantization_factor(m, n);
        let peak = self.chip.native_peak_gflops(prec) * 1e9;
        let compute_s = (2.0 * m as f64 * n as f64 * k as f64) / (base * peak);
        compute_s / (compute_s + self.call_overhead_s) * base
    }

    /// Fractional packing overhead for an `S × S` DGEMM (Fig. 4 top vs
    /// middle curve): `c1/S + c2/S²` with `S` in thousands.
    pub fn packing_overhead(&self, s: usize) -> f64 {
        if s == 0 {
            return 0.0;
        }
        let sk = s as f64 / 1000.0;
        self.pack_c1 / sk + self.pack_c2 / (sk * sk)
    }

    /// Efficiency of a full square `S × S` DGEMM including packing — the
    /// top curve of Fig. 4 (and, for `S = 28000`, the Table II row).
    pub fn dgemm_efficiency(&self, s: usize, k: usize, prec: Precision) -> f64 {
        self.outer_product_efficiency(s, s, k, prec) / (1.0 + self.packing_overhead(s))
    }

    /// Time in seconds of one `m × n × k` outer product on `cores` cores
    /// (native DGEMM path). Used by the DES backends.
    pub fn gemm_time_s(&self, m: usize, n: usize, k: usize, cores: f64, prec: Precision) -> f64 {
        if m == 0 || n == 0 || k == 0 || cores <= 0.0 {
            return 0.0;
        }
        let eff = self.efficiency_vs_k(k.max(1), prec) * self.quantization_factor(m, n);
        let peak_per_core = self.chip.freq_ghz * prec.flops_per_cycle() * 1e9;
        (2.0 * m as f64 * n as f64 * k as f64) / (eff.max(1e-3) * peak_per_core * cores)
    }
}

/// Durations of native-LU task types for the discrete-event simulation
/// (Fig. 6/7). Units: seconds; `cores` is the (possibly fractional) number
/// of KNC cores assigned to the task's thread group.
#[derive(Clone, Copy, Debug)]
pub struct LuTaskModel {
    /// The GEMM model supplying trailing-update throughput.
    pub gemm: GemmModel,
    /// Panel factorization efficiency relative to peak: DGETRF on a tall
    /// panel is latency/bandwidth bound on the in-order KNC cores; the
    /// Gantt profile of Fig. 7a shows the panel dominating small problems.
    pub panel_efficiency: f64,
    /// Serial per-column latency of panel factorization at a 4-core
    /// group (pivot-search reduction + broadcast), seconds. The cost
    /// grows with the group size — synchronizing more cores per column
    /// is exactly why panels do not scale to the whole chip and thread
    /// groups exist at all (Section IV-A).
    pub panel_col_latency_s: f64,
    /// Fraction of STREAM bandwidth achievable by row swapping (DLASWP is
    /// a gather/scatter pattern, well below STREAM).
    pub swap_bw_fraction: f64,
    /// DTRSM efficiency relative to peak (small triangular solves run at
    /// a fraction of GEMM speed).
    pub trsm_efficiency: f64,
    /// Global-barrier cost across the whole chip, seconds (static
    /// look-ahead pays this once per stage, Fig. 7a's white regions).
    pub barrier_s: f64,
    /// Scheduling efficiency of group-executed GEMM tasks relative to the
    /// raw DGEMM model: intra-group task barriers, tile edges within the
    /// group's split, and scheduler overhead. Calibrated so native HPL at
    /// 30K lands at the paper's 832 GFLOPS — i.e. it carries the bulk of
    /// the "within 12% of native DGEMM" gap of Section IV-B.
    pub sched_efficiency: f64,
    /// Additional per-core intra-task synchronization drag: executing one
    /// task cooperatively across `c` cores loses a `1/(1 + c·this)`
    /// factor (keeping 240 threads coherent on one small task is how the
    /// degenerate single-group schedule loses to real groups).
    pub group_sync_per_core: f64,
    /// Panel throughput degradation for short panels (latency-bound
    /// pivot chains): effective efficiency is
    /// `panel_efficiency · m/(m + this)`. Zero (the default) disables the
    /// knee; the per-column latency term already carries the small-panel
    /// floor.
    pub panel_m_knee: f64,
}

impl Default for LuTaskModel {
    fn default() -> Self {
        Self {
            gemm: GemmModel::default(),
            panel_efficiency: 0.20,
            panel_col_latency_s: 1.2e-6,
            swap_bw_fraction: 0.35,
            trsm_efficiency: 0.45,
            barrier_s: 12e-6,
            sched_efficiency: 1.0,
            group_sync_per_core: 0.002,
            panel_m_knee: 0.0,
        }
    }
}

impl LuTaskModel {
    /// Peak GFLOPS of `cores` cores in f64.
    fn peak(&self, cores: f64) -> f64 {
        cores * self.gemm.chip.freq_ghz * 16.0 * 1e9
    }

    /// Panel factorization (DGETRF) of an `m × nb` panel on a group of
    /// `cores` cores: compute term at panel efficiency plus the serial
    /// per-column latency chain.
    pub fn panel_time_s(&self, m: usize, nb: usize, cores: f64) -> f64 {
        if m == 0 || nb == 0 {
            return 0.0;
        }
        let m = m as f64;
        let nbf = nb as f64;
        let flops = m * nbf * nbf - nbf * nbf * nbf / 3.0;
        let sync_scale = 1.0 + cores.max(0.25) / 8.0;
        let eff = self.panel_efficiency * m / (m + self.panel_m_knee);
        flops.max(0.0) / (eff * self.peak(cores.max(0.25)))
            + nbf * self.panel_col_latency_s * sync_scale
    }

    /// Row swap (DLASWP) over an `nb`-deep pivot window of a row block
    /// `cols` wide: bandwidth bound.
    pub fn swap_time_s(&self, nb: usize, cols: usize, cores: f64) -> f64 {
        let traffic = 2.0 * 8.0 * nb as f64 * cols as f64; // read + write
        let chip_cores = self.gemm.chip.cores_compute as f64;
        let bw_share = self.gemm.chip.stream_bw_gbs
            * 1e9
            * self.swap_bw_fraction
            * (cores / chip_cores).min(1.0);
        traffic / bw_share.max(1.0)
    }

    /// Forward solve (DTRSM) of the `nb × cols` row panel.
    pub fn trsm_time_s(&self, nb: usize, cols: usize, cores: f64) -> f64 {
        let flops = nb as f64 * nb as f64 * cols as f64;
        flops / (self.trsm_efficiency * self.peak(cores.max(0.25)))
    }

    /// Trailing-matrix GEMM update of an `m × n` block with depth `nb` on
    /// a *group* of `cores` cores. Unlike [`GemmModel::gemm_time_s`], the
    /// chip-wide load-balance factor is omitted — in the DAG-scheduled LU,
    /// balance across groups emerges from the scheduler itself, and only
    /// the register-tile quantization of the block applies.
    pub fn update_time_s(&self, m: usize, n: usize, nb: usize, cores: f64) -> f64 {
        if m == 0 || n == 0 || nb == 0 || cores <= 0.0 {
            return 0.0;
        }
        let g = &self.gemm;
        let row_tiles = m.div_ceil(30);
        let q_rows = m as f64 / (row_tiles * 30) as f64;
        let col_tiles = n.div_ceil(8);
        let q_cols = n as f64 / (col_tiles * 8) as f64;
        let sync = 1.0 / (1.0 + cores * self.group_sync_per_core);
        let eff = g.efficiency_vs_k(nb.max(1), Precision::F64)
            * q_rows
            * q_cols
            * self.sched_efficiency
            * sync;
        let peak_per_core = g.chip.freq_ghz * 16.0 * 1e9;
        2.0 * m as f64 * n as f64 * nb as f64 / (eff.max(1e-3) * peak_per_core * cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE2_K: [usize; 6] = [120, 180, 240, 300, 340, 400];
    const TABLE2_DP_EFF: [f64; 6] = [0.867, 0.886, 0.891, 0.894, 0.893, 0.889];
    const TABLE2_SP_EFF: [f64; 6] = [0.883, 0.893, 0.901, 0.904, 0.906, 0.908];

    #[test]
    fn straggler_throttling_drags_the_clock() {
        let chip = KncChip::default();
        // Identity case is bit-exact: a healthy chip is untouched.
        let same = chip.with_straggler(0.0, 1.0);
        assert_eq!(same.freq_ghz.to_bits(), chip.freq_ghz.to_bits());
        // Half the cores at 2x slower → 1.5x aggregate drag.
        let hot = chip.with_straggler(0.5, 2.0);
        assert!((hot.freq_ghz - chip.freq_ghz / 1.5).abs() < 1e-12);
        assert!(hot.native_peak_gflops(Precision::F64) < chip.native_peak_gflops(Precision::F64));
    }

    #[test]
    fn peaks_match_table1() {
        let chip = KncChip::default();
        // Table I: 1074 DP / 2148 SP GFLOPS for 61 cores.
        assert!((chip.full_peak_gflops(Precision::F64) - 1073.6).abs() < 1.0);
        assert!((chip.full_peak_gflops(Precision::F32) - 2147.2).abs() < 2.0);
        assert!((chip.native_peak_gflops(Precision::F64) - 1056.0).abs() < 1.0);
    }

    #[test]
    fn table2_dgemm_efficiencies_within_half_point() {
        let model = GemmModel::default();
        for (&k, &paper) in TABLE2_K.iter().zip(&TABLE2_DP_EFF) {
            let ours = model.efficiency_vs_k(k, Precision::F64);
            assert!(
                (ours - paper).abs() < 0.005,
                "DGEMM k={k}: model {ours:.4} vs paper {paper:.4}"
            );
        }
        // The best k is 300, matching the paper's choice.
        let best = TABLE2_K
            .iter()
            .copied()
            .max_by(|&a, &b| {
                model
                    .efficiency_vs_k(a, Precision::F64)
                    .total_cmp(&model.efficiency_vs_k(b, Precision::F64))
            })
            .unwrap();
        assert_eq!(best, 300);
    }

    #[test]
    fn table2_sgemm_efficiencies_within_half_point() {
        let model = GemmModel::default();
        for (&k, &paper) in TABLE2_K.iter().zip(&TABLE2_SP_EFF) {
            let ours = model.efficiency_vs_k(k, Precision::F32);
            assert!(
                (ours - paper).abs() < 0.005,
                "SGEMM k={k}: model {ours:.4} vs paper {paper:.4}"
            );
        }
        // SGEMM keeps improving to k = 400 (its blocks are half the size).
        let e340 = model.efficiency_vs_k(340, Precision::F32);
        let e400 = model.efficiency_vs_k(400, Precision::F32);
        assert!(e400 > e340);
    }

    #[test]
    fn headline_944_gflops() {
        let model = GemmModel::default();
        let gf = model.gflops_vs_k(300, Precision::F64);
        assert!(
            (gf - 944.0).abs() < 5.0,
            "DGEMM k=300 must be ≈944 GFLOPS, got {gf:.0}"
        );
    }

    #[test]
    fn fig4_kernel_curve_shape() {
        let model = GemmModel::default();
        // "kernel performance is high even for sizes as small as 5K for
        // which it reaches 88% efficiency".
        let e5k = model.outer_product_efficiency(5000, 5000, 300, Precision::F64);
        assert!((e5k - 0.88).abs() < 0.01, "5K kernel eff {e5k:.3}");
        // Monotone growth toward the asymptote at 28K.
        let e1k = model.outer_product_efficiency(1000, 1000, 300, Precision::F64);
        let e28k = model.outer_product_efficiency(28000, 28000, 300, Precision::F64);
        assert!(e1k < e5k && e5k < e28k);
        assert!((e28k - 0.894).abs() < 0.005, "28K eff {e28k:.3}");
    }

    #[test]
    fn fig4_packing_overhead_points() {
        let model = GemmModel::default();
        // "this overhead decreases from 15% for 1K matrices down to less
        // than 0.4% for matrices larger than 17K. The packing overhead is
        // under 2% starting from 5K matrices."
        assert!((model.packing_overhead(1000) - 0.15).abs() < 0.01);
        assert!(model.packing_overhead(5000) < 0.02);
        assert!(model.packing_overhead(17000) < 0.005);
        // Monotone decreasing.
        assert!(model.packing_overhead(2000) > model.packing_overhead(4000));
    }

    #[test]
    fn kernel_efficiencies_match_emulator_story() {
        let model = GemmModel::default();
        let k1 = model.kernel_efficiency(MicroKernelKind::Kernel1);
        let k2 = model.kernel_efficiency(MicroKernelKind::Kernel2);
        assert!((k1 - 31.0 / 34.0).abs() < 1e-12);
        assert!((k2 - 30.0 / 32.0).abs() < 1e-12);
        assert!(k2 > k1, "Kernel 2 wins in practice");
    }

    #[test]
    fn emulator_calibration_confirms_model_constants() {
        let cal = KernelCalibration::measure(256);
        // Kernel 2 is stall-free: exactly 32 cycles per iteration.
        assert!(
            (cal.kernel2_cycles_per_iter - 32.0).abs() < 0.5,
            "kernel2 measured {:.3} cycles/iter",
            cal.kernel2_cycles_per_iter
        );
        // Kernel 1 lands between the issue bound (32) and the paper's
        // stall-bound worst case (34): stall holes absorb part of the
        // fill backlog.
        assert!(
            cal.kernel1_cycles_per_iter > 32.0 && cal.kernel1_cycles_per_iter < 34.5,
            "kernel1 measured {:.3} cycles/iter",
            cal.kernel1_cycles_per_iter
        );
        // The measurement itself ran mostly on the trace fast path.
        assert!(
            cal.kernel1_replay_speedup > 2.0 && cal.kernel2_replay_speedup > 2.0,
            "replay speedups {:.2} / {:.2}",
            cal.kernel1_replay_speedup,
            cal.kernel2_replay_speedup
        );
        // A model built from the measurement stays close to the default
        // calibration and preserves the Kernel 2 > Kernel 1 ordering.
        let model = GemmModel {
            kernel1_cycles_per_iter: cal.kernel1_cycles_per_iter,
            kernel2_cycles_per_iter: cal.kernel2_cycles_per_iter,
            ..GemmModel::default()
        };
        let k2 = model.kernel_efficiency(MicroKernelKind::Kernel2);
        let k1 = model.kernel_efficiency(MicroKernelKind::Kernel1);
        assert!((k2 - 30.0 / 32.0).abs() < 0.02, "calibrated k2 eff {k2:.4}");
        assert!(k1 < k2, "calibrated ordering: k1 {k1:.4} vs k2 {k2:.4}");
    }

    #[test]
    fn gemm_time_scales_inversely_with_cores() {
        let model = GemmModel::default();
        let t60 = model.gemm_time_s(3000, 3000, 300, 60.0, Precision::F64);
        let t30 = model.gemm_time_s(3000, 3000, 300, 30.0, Precision::F64);
        assert!((t30 / t60 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lu_task_times_are_sane() {
        let m = LuTaskModel::default();
        // A 30K × 256 panel on a couple of cores takes a sizable fraction
        // of a second — exactly why look-ahead must hide it.
        let p = m.panel_time_s(30_000, 256, 8.0);
        assert!(p > 1e-4 && p < 5.0, "panel time {p}");
        // On an 8-core group the panel still fits under the full trailing
        // update, so early stages can hide it (Section IV-A).
        let u = m.update_time_s(30_000, 30_000, 256, 60.0);
        assert!(u > p, "update {u} vs panel {p}");
        // Swap is bandwidth-bound and cheap relative to the update.
        let s = m.swap_time_s(256, 30_000, 60.0);
        assert!(s < u);
        assert!(m.trsm_time_s(256, 30_000, 60.0) < u);
    }
}
