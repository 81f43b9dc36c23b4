//! Hybrid HPL (Section V): host + coprocessor(s), one node or a P × Q
//! cluster.
//!
//! Per LU stage, the host factors the panel, broadcasts it along its
//! process row, performs the row swaps, the `U` DTRSM and the `U`
//! broadcast down the columns, and the trailing update is offloaded to
//! the card(s) with host work stealing. The three schemes of Fig. 8
//! differ in what overlaps:
//!
//! * [`Lookahead::None`] — everything serial; the card idles through all
//!   host phases (Fig. 8a).
//! * [`Lookahead::Basic`] — the *next* panel factorization (and its
//!   broadcast) overlaps the current trailing update; the card still
//!   idles through U broadcast, swapping and DTRSM — ≈13% of iteration
//!   time at N = 84K (Fig. 8b / Fig. 9a).
//! * [`Lookahead::Pipelined`] — those three steps are additionally
//!   pipelined in column strips against the update, hiding all but the
//!   first strip; the price is extra per-strip overhead that delays late
//!   panels (Fig. 8c / Fig. 9b). This is the paper's contribution on top
//!   of Bach et al., worth up to 11% per iteration.
//!
//! One stage is priced in exactly one place, [`stage`]: ingredient
//! times from the calibrated host, card, PCIe and network models over
//! the real block-cyclic geometry of the grid, then the look-ahead
//! overlap. Everything else here is a driver of that model — the
//! healthy and DES-calibrated stage loop (this file; Table III and the
//! Fig. 9 profiles), the fault-injected loop (`faulty`), the
//! rank-level DES ([`rankdes`]) and the Fig. 8 Gantt ([`stage_gantt`]).

mod faulty;
pub mod rankdes;
pub mod stage;
pub mod stage_gantt;

pub(crate) use faulty::DeathStep;
pub use faulty::{recovery_regimes, simulate_cluster_faulty, FtPolicy};
pub use rankdes::simulate_cluster_rankdes;
pub(crate) use stage::StageEnv;

use crate::offload::{OffloadModel, OffloadOutcome};
use crate::report::GigaflopsReport;
use phi_fabric::{BcastScheme, NetModel, ProcessGrid};
use phi_knc::Precision;

/// Look-ahead scheme (Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookahead {
    /// No overlap (Fig. 8a).
    None,
    /// Panel overlapped with update (Fig. 8b).
    Basic,
    /// Panel overlap + swap/DTRSM/U-broadcast pipelining (Fig. 8c).
    Pipelined,
}

/// How trailing-update work is divided between host and card(s).
///
/// §IV-B/§V-B: the paper's implementation divides work *dynamically* by
/// two-ended stealing; a static split is the natural alternative it
/// argues against. The tuner searches both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkDivision {
    /// Dynamic two-ended work stealing (the paper's choice).
    Dynamic,
    /// Fixed fraction of the update flops pinned to the card side.
    Static {
        /// Share of the trailing-update flops the card(s) take, in `0..=1`.
        card_fraction: f64,
    },
}

/// Configuration of a hybrid (or CPU-only) HPL run.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Global problem size.
    pub n: usize,
    /// Block size (`NB = Kt = 1200`, set by the PCIe bound of §V-B).
    pub nb: usize,
    /// Process grid.
    pub grid: ProcessGrid,
    /// Coprocessors per node (0 = CPU-only MKL-style run).
    pub cards_per_node: usize,
    /// Card/host/PCIe models.
    pub offload: OffloadModel,
    /// Inter-node network.
    pub net: NetModel,
    /// Scheme in force.
    pub lookahead: Lookahead,
    /// Host memory per node, GiB (gates the problem size; Table III's
    /// fourth section doubles it to 128 GB).
    pub host_mem_gib: f64,
    /// Host/card division of the trailing update.
    pub division: WorkDivision,
    /// Panel-broadcast algorithm along the process row.
    pub bcast: BcastScheme,
}

impl HybridConfig {
    /// Table III-style defaults: NB = 1200, one card, basic look-ahead.
    pub fn new(n: usize, grid: ProcessGrid, cards_per_node: usize) -> Self {
        Self {
            n,
            nb: 1200,
            grid,
            cards_per_node,
            offload: OffloadModel::default(),
            net: NetModel::default(),
            lookahead: Lookahead::Pipelined,
            host_mem_gib: 64.0,
            division: WorkDivision::Dynamic,
            bcast: BcastScheme::Ring,
        }
    }

    /// Per-node matrix bytes.
    pub fn bytes_per_node(&self) -> f64 {
        (self.n as f64 / self.grid.p as f64) * (self.n as f64 / self.grid.q as f64) * 8.0
    }

    /// The host-memory gate every hybrid entry point asserts — the
    /// constraint that structures Table III: the per-node share must
    /// fit in 95 % of `host_mem_gib`. Callers that must not panic check
    /// it first and report the refusal it returns.
    #[inline]
    pub fn fits_host_memory(&self) -> Result<(), String> {
        if self.bytes_per_node() <= self.host_mem_gib * 1.073741824e9 * 0.95 {
            return Ok(());
        }
        Err(format!(
            "N = {} does not fit in {} GiB/node on a {}x{} grid",
            self.n, self.host_mem_gib, self.grid.p, self.grid.q
        ))
    }

    /// Peak GFLOPS of the whole machine (hosts + cards).
    pub fn peak_gflops(&self) -> f64 {
        let host = self.offload.host.cfg.peak_gflops();
        let card = self.offload.card.chip.full_peak_gflops(Precision::F64);
        self.grid.size() as f64 * (host + self.cards_per_node as f64 * card)
    }
}

/// Per-iteration profile (the Fig. 9 series).
#[derive(Clone, Copy, Debug)]
pub struct IterationProfile {
    /// Stage index.
    pub stage: usize,
    /// Global trailing dimension at this stage.
    pub trailing_n: usize,
    /// Stage wall time, seconds.
    pub stage_time: f64,
    /// Card compute within the stage, seconds.
    pub card_busy: f64,
    /// Host panel + its broadcast (exposed portion).
    pub panel_exposed: f64,
    /// Swap + DTRSM + U-broadcast exposed to the card.
    pub three_exposed: f64,
    /// Trailing-update time.
    pub update: f64,
}

/// End-to-end result of a run.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Overall performance.
    pub report: GigaflopsReport,
    /// Per-stage profiles (empty unless requested).
    pub iterations: Vec<IterationProfile>,
    /// Aggregate card idle fraction.
    pub card_idle_fraction: f64,
}

/// Runs the per-stage simulation.
///
/// # Panics
/// Panics when the per-node share does not fit in host memory — the same
/// constraint that structures Table III.
pub fn simulate_cluster(cfg: &HybridConfig, keep_profiles: bool) -> ClusterResult {
    run_cluster(cfg, keep_profiles, None)
}

/// The calibrated re-scoring path: like [`simulate_cluster`] but every
/// `sample_every`-th stage times its trailing update on the
/// discrete-event offload engine instead of the closed form, with the
/// intermediate stages ratio-corrected. The tuner's coarse search runs
/// thousands of candidates through the analytic path and only the
/// finalists through this one.
///
/// # Panics
/// Panics when the per-node share does not fit in host memory, or when
/// `sample_every == 0`.
pub fn simulate_cluster_calibrated(cfg: &HybridConfig, sample_every: usize) -> ClusterResult {
    assert!(sample_every > 0, "sample_every must be >= 1");
    run_cluster(cfg, false, Some(sample_every))
}

/// Panics with [`HybridConfig::fits_host_memory`]'s refusal.
fn assert_fits_host_memory(cfg: &HybridConfig) {
    if let Err(refusal) = cfg.fits_host_memory() {
        panic!("{refusal}");
    }
}

/// The stage loop: every stage priced by [`stage`] against the worst
/// node's extents, summed, plus the final back-substitution. With
/// `des_every = Some(k)` every `k`-th stage re-times its update on the
/// discrete-event offload engine and the stages in between scale the
/// closed form by the last measured DES/analytic ratio — orders of
/// magnitude slower, used to re-score tuning finalists.
fn run_cluster(cfg: &HybridConfig, keep_profiles: bool, des_every: Option<usize>) -> ClusterResult {
    assert_fits_host_memory(cfg);
    let s = cfg.n.div_ceil(cfg.nb);
    let env = StageEnv::healthy(cfg);

    let mut total = 0.0f64;
    let mut card_busy_total = 0.0f64;
    let mut profiles = Vec::new();
    // DES/analytic ratio from the last sampled stage.
    let mut des_ratio = 1.0f64;

    for stage in 0..s {
        let (rows_loc, cols_loc) = stage::worst_extents(cfg.grid, cfg.n, cfg.nb, stage);
        let mut parts = stage::parts(&env, stage, rows_loc, cols_loc);

        if let Some(every) = des_every {
            if cfg.cards_per_node > 0 && rows_loc > 0 && cols_loc > 0 {
                if stage % every == 0 {
                    let (des_time, des_busy) = des_update(cfg, rows_loc, cols_loc)
                        .map_or((parts.update, parts.busy), |d| (d.time_s, d.card_busy_s));
                    des_ratio = des_time / parts.update.max(1e-12);
                    (parts.update, parts.busy) = (des_time, des_busy);
                } else {
                    parts.update *= des_ratio;
                    parts.busy *= des_ratio;
                }
            }
        }

        let (stage_time, three_exposed, panel_exposed) = parts.compose(cfg.lookahead);

        total += stage_time;
        card_busy_total += parts.busy;
        if keep_profiles {
            profiles.push(IterationProfile {
                stage,
                trailing_n: cfg.n - stage * cfg.nb,
                stage_time,
                card_busy: parts.busy,
                panel_exposed,
                three_exposed,
                update: parts.update,
            });
        }
    }

    // Final back-substitution: bandwidth bound, negligible but real.
    total += backsub_time_s(cfg, cfg.grid);

    let peak = cfg.peak_gflops();
    let report = GigaflopsReport::new(cfg.n, total, peak);
    let card_idle_fraction = if cfg.cards_per_node > 0 && total > 0.0 {
        1.0 - card_busy_total / (total * cfg.cards_per_node as f64)
    } else {
        0.0
    };
    ClusterResult {
        report,
        iterations: profiles,
        card_idle_fraction,
    }
}

/// Re-times one offloaded trailing update on the discrete-event engine.
/// `None` where the DES has no model: its static split drives a single
/// card, so with more the closed form stays un-corrected.
fn des_update(cfg: &HybridConfig, rows_loc: usize, cols_loc: usize) -> Option<OffloadOutcome> {
    match cfg.division {
        WorkDivision::Dynamic => Some(cfg.offload.simulate(
            rows_loc,
            cols_loc,
            cfg.cards_per_node,
            stage::HOST_UPDATE_CORES,
        )),
        WorkDivision::Static { card_fraction } if cfg.cards_per_node == 1 => {
            Some(cfg.offload.simulate_static_split(
                rows_loc,
                cols_loc,
                stage::HOST_UPDATE_CORES,
                (6, 6),
                card_fraction,
            ))
        }
        WorkDivision::Static { .. } => None,
    }
}

/// Back-substitution on `grid`: one bandwidth-bound sweep over the
/// local share of the factored matrix.
fn backsub_time_s(cfg: &HybridConfig, grid: ProcessGrid) -> f64 {
    2.0 * (cfg.n as f64 / grid.p as f64) * (cfg.n as f64 / grid.q as f64) * 8.0
        / (cfg.offload.host.cfg.stream_bw_gbs * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, p: usize, q: usize, cards: usize, la: Lookahead, mem: f64) -> ClusterResult {
        let mut cfg = HybridConfig::new(n, ProcessGrid::new(p, q), cards);
        cfg.lookahead = la;
        cfg.host_mem_gib = mem;
        simulate_cluster(&cfg, false)
    }

    #[test]
    fn single_node_single_card_pipelined_near_80_percent() {
        // Table III: pipeline, 1 card, 64GB, N=84K → 1.12 TFLOPS, 79.8%.
        let r = run(84_000, 1, 1, 1, Lookahead::Pipelined, 64.0);
        let eff = r.report.efficiency();
        assert!(
            (eff - 0.798).abs() < 0.025,
            "single-node pipelined eff = {eff:.3} ({:.2} TFLOPS)",
            r.report.gflops / 1e3
        );
    }

    #[test]
    fn pipelining_beats_basic_by_several_points() {
        // Table III: 71.0% → 79.8% on a single node ("pipelined look-ahead
        // improves hybrid HPL efficiency by 7%-9%").
        let basic = run(84_000, 1, 1, 1, Lookahead::Basic, 64.0);
        let pipe = run(84_000, 1, 1, 1, Lookahead::Pipelined, 64.0);
        let gain = pipe.report.efficiency() - basic.report.efficiency();
        assert!(
            (0.05..0.12).contains(&gain),
            "pipelining gain {gain:.3} (basic {:.3}, pipe {:.3})",
            basic.report.efficiency(),
            pipe.report.efficiency()
        );
    }

    #[test]
    fn no_lookahead_is_worst() {
        let none = run(84_000, 1, 1, 1, Lookahead::None, 64.0);
        let basic = run(84_000, 1, 1, 1, Lookahead::Basic, 64.0);
        assert!(none.report.efficiency() < basic.report.efficiency());
    }

    #[test]
    fn hundred_node_run_matches_headline() {
        // Table III: pipeline, 1 card, N=825K, 10×10 → 107 TFLOPS, 76.1%.
        let r = run(825_000, 10, 10, 1, Lookahead::Pipelined, 64.0);
        let tf = r.report.gflops / 1e3;
        assert!(
            (tf - 107.0).abs() < 5.0,
            "100-node run = {tf:.1} TFLOPS ({:.3})",
            r.report.efficiency()
        );
        assert!((r.report.efficiency() - 0.761).abs() < 0.03);
    }

    #[test]
    fn multi_node_degrades_by_a_few_percent() {
        // "performance degradation of multi-node implementation, compared
        // to a single node is 4%".
        let single = run(84_000, 1, 1, 1, Lookahead::Pipelined, 64.0);
        let quad = run(168_000, 2, 2, 1, Lookahead::Pipelined, 64.0);
        let drop = single.report.efficiency() - quad.report.efficiency();
        assert!(
            (0.0..0.08).contains(&drop),
            "multi-node drop {drop:.3} (1-node {:.3}, 4-node {:.3})",
            single.report.efficiency(),
            quad.report.efficiency()
        );
    }

    #[test]
    fn second_card_costs_efficiency() {
        // Table III: "the efficiency loss due to a second Knights Corner
        // card is 4.2%" (84K: 79.8% → 76.6%).
        let one = run(84_000, 1, 1, 1, Lookahead::Pipelined, 64.0);
        let two = run(84_000, 1, 1, 2, Lookahead::Pipelined, 64.0);
        let loss = one.report.efficiency() - two.report.efficiency();
        assert!(
            (0.01..0.08).contains(&loss),
            "dual-card loss {loss:.3} (1 card {:.3}, 2 cards {:.3})",
            one.report.efficiency(),
            two.report.efficiency()
        );
    }

    #[test]
    fn more_memory_lifts_dual_card_efficiency() {
        // Table III fourth section: doubling node memory to 128 GB lets
        // N grow to 242K on 2×2 and lifts efficiency.
        let small = run(166_000, 2, 2, 2, Lookahead::Pipelined, 64.0);
        let big = run(242_000, 2, 2, 2, Lookahead::Pipelined, 128.0);
        assert!(big.report.efficiency() > small.report.efficiency());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn memory_gate_enforced() {
        let _ = run(242_000, 2, 2, 2, Lookahead::Pipelined, 64.0);
    }

    #[test]
    fn cpu_only_matches_mkl_results() {
        // Table III first section: Sandy Bridge only, N=84K → 86.4% on a
        // single node; N=168K on 2×2 → 82.8%.
        let one = run(84_000, 1, 1, 0, Lookahead::Basic, 64.0);
        assert!(
            (one.report.efficiency() - 0.864).abs() < 0.03,
            "CPU-only single node {:.3}",
            one.report.efficiency()
        );
        let four = run(168_000, 2, 2, 0, Lookahead::Basic, 64.0);
        assert!(
            (four.report.efficiency() - 0.828).abs() < 0.035,
            "CPU-only 2x2 {:.3}",
            four.report.efficiency()
        );
        assert!(four.report.efficiency() < one.report.efficiency());
    }

    #[test]
    fn calibrated_rescoring_tracks_analytic() {
        let cfg = HybridConfig::new(84_000, ProcessGrid::new(1, 1), 1);
        let fast = simulate_cluster(&cfg, false);
        let slow = simulate_cluster_calibrated(&cfg, 8);
        let rel = (slow.report.gflops - fast.report.gflops).abs() / fast.report.gflops;
        assert!(
            rel < 0.10,
            "calibrated {:.0} vs analytic {:.0} GFLOPS ({rel:.3})",
            slow.report.gflops,
            fast.report.gflops
        );
        // Deterministic: same inputs, same bits.
        let again = simulate_cluster_calibrated(&cfg, 8);
        assert_eq!(slow.report.time_s.to_bits(), again.report.time_s.to_bits());
    }

    #[test]
    fn static_division_never_beats_dynamic_stealing() {
        let mut cfg = HybridConfig::new(84_000, ProcessGrid::new(1, 1), 1);
        let dynamic = simulate_cluster(&cfg, false);
        let mut best_static = 0.0f64;
        for f in [0.6, 0.8, 0.85, 0.9, 1.0] {
            cfg.division = WorkDivision::Static { card_fraction: f };
            let s = simulate_cluster(&cfg, false);
            best_static = best_static.max(s.report.gflops);
            assert!(
                s.report.gflops <= dynamic.report.gflops * 1.001,
                "static f={f} beat dynamic: {} vs {}",
                s.report.gflops,
                dynamic.report.gflops
            );
        }
        // The best static fraction lands near the dynamic equilibrium.
        assert!(best_static > dynamic.report.gflops * 0.90);
    }

    #[test]
    fn bcast_scheme_selects_ring_for_big_panels() {
        // On a wide grid with HPL-sized panels, the pipelined ring should
        // beat the store-and-forward binomial tree.
        let mut cfg = HybridConfig::new(330_000, ProcessGrid::new(4, 4), 1);
        let ring = simulate_cluster(&cfg, false);
        cfg.bcast = phi_fabric::BcastScheme::Binomial;
        let binomial = simulate_cluster(&cfg, false);
        assert!(ring.report.gflops >= binomial.report.gflops);
    }

    #[test]
    fn pipelined_idle_small_basic_idle_large() {
        // Fig. 9: basic ≈13% of iteration in the three steps; pipelined
        // < 3% early on.
        let mut cfg = HybridConfig::new(84_000, ProcessGrid::new(2, 2), 2);
        cfg.lookahead = Lookahead::Basic;
        let basic = simulate_cluster(&cfg, true);
        cfg.lookahead = Lookahead::Pipelined;
        let pipe = simulate_cluster(&cfg, true);

        // Average the early (large-matrix) third of the iterations.
        let early = |r: &ClusterResult| {
            let k = r.iterations.len() / 3;
            let exp: f64 = r.iterations[..k].iter().map(|i| i.three_exposed).sum();
            let tot: f64 = r.iterations[..k].iter().map(|i| i.stage_time).sum();
            exp / tot
        };
        let fb = early(&basic);
        let fp = early(&pipe);
        // The paper reports the card "idle at least 13% of the time" under
        // basic look-ahead; in our model the three steps expose ~24% of
        // the early iterations on this configuration.
        assert!(
            (0.10..0.30).contains(&fb),
            "basic three-step exposure {fb:.3}"
        );
        assert!(fp < 0.030, "pipelined exposure {fp:.3}");
        assert!(fb > 4.0 * fp, "pipelining must collapse the exposure");
    }
}
