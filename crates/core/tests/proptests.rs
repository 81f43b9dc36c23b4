//! Property tests for the Linpack flavours: numeric backends must agree
//! with their sequential oracles on arbitrary shapes, and the timed
//! backends must respect physical and algorithmic invariants for
//! arbitrary configurations.
//!
//! Driven by the in-repo deterministic [`phi_matrix::HplRng`] (no
//! external proptest dependency): each property runs over a fixed-seed
//! sweep of randomized cases.

use phi_blas::gemm::{gemm_naive, BlockSizes};
use phi_blas::lu::getrf;
use phi_fabric::ProcessGrid;
use phi_hpl::hybrid::{simulate_cluster, HybridConfig, Lookahead};
use phi_hpl::native::factorize_parallel;
use phi_hpl::offload::{offload_gemm_numeric, OffloadModel};
use phi_hpl::refine::solve_mixed_precision;
use phi_knc::Precision;
use phi_matrix::{hpl_residual, HplRng, MatGen, Matrix};
use phi_sched::GroupPlan;

/// Deterministic case generator for the sweeps below.
struct Cases(HplRng);

impl Cases {
    fn new(seed: u64) -> Self {
        Self(HplRng::new(seed))
    }
    fn index(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.0.next_u64() % (hi - lo) as u64) as usize
    }
    fn seed(&mut self) -> u64 {
        self.0.next_u64() % 1000
    }
}

/// Offload tile-stealing GEMM equals the naive product for any shape,
/// grid and thread mix.
#[test]
fn offload_numeric_is_exact() {
    let mut cases = Cases::new(0x0FF1);
    let mut ran = 0;
    while ran < 24 {
        let m = cases.index(1, 80);
        let n = cases.index(1, 80);
        let k = cases.index(1, 30);
        let gr = cases.index(1, 6);
        let gc = cases.index(1, 6);
        let card_threads = cases.index(0, 3);
        let host_threads = cases.index(0, 3);
        let seed = cases.seed();
        if card_threads + host_threads == 0 {
            continue;
        }
        ran += 1;
        let a = MatGen::new(seed).matrix::<f64>(m, k);
        let b = MatGen::new(seed + 1).matrix::<f64>(k, n);
        let c0 = MatGen::new(seed + 2).matrix::<f64>(m, n);
        let mut expect = c0.clone();
        gemm_naive(-1.0, &a.view(), &b.view(), 1.0, &mut expect.view_mut());
        let mut c = c0.clone();
        offload_gemm_numeric(&a, &b, &mut c, (gr, gc), card_threads, host_threads);
        assert!(c.max_abs_diff(&expect) < 1e-10 * (k as f64 + 1.0));
    }
}

/// DAG-parallel LU matches sequential getrf for any shape, panel
/// width and group plan.
#[test]
fn parallel_lu_matches_sequential() {
    let mut cases = Cases::new(0x1AB5);
    let mut ran = 0;
    while ran < 24 {
        let n = cases.index(2, 64);
        let nb = cases.index(1, 20);
        let threads = cases.index(1, 6);
        let tpg = cases.index(1, 3);
        let seed = cases.seed();
        if tpg > threads {
            continue;
        }
        ran += 1;
        let a0 = MatGen::new(seed).matrix::<f64>(n, n);
        let mut seq = a0.clone();
        let Ok(piv_seq) = getrf(&mut seq.view_mut(), nb, &BlockSizes::default()) else {
            continue; // singular draw: astronomically unlikely
        };
        let mut par = a0.clone();
        let piv_par = factorize_parallel(&mut par, nb, &GroupPlan::new(threads, tpg)).unwrap();
        assert_eq!(piv_par, piv_seq);
        assert!(par.max_abs_diff(&seq) < 1e-9);
    }
}

/// Mixed-precision refinement reaches f64 accuracy on random HPL
/// systems.
#[test]
fn mixed_precision_converges() {
    let mut cases = Cases::new(0x3EF1);
    for _ in 0..24 {
        let n = cases.index(8, 96);
        let seed = cases.seed();
        let a = MatGen::new(seed).matrix::<f64>(n, n);
        let b = MatGen::new(seed + 1).rhs::<f64>(n);
        let Ok(res) = solve_mixed_precision(&a, &b, 16, 12) else {
            continue;
        };
        assert!(
            res.residual.passed,
            "n={n}: {}",
            res.residual.scaled_residual
        );
    }
}

/// For any feasible hybrid configuration, the look-ahead ladder holds
/// and efficiency stays inside (0, 1).
#[test]
fn hybrid_lookahead_ladder_everywhere() {
    let mut cases = Cases::new(0x1ADD);
    for _ in 0..12 {
        let n_blocks = cases.index(40, 120);
        let p = cases.index(1, 3);
        let q = cases.index(1, 3);
        let cards = cases.index(1, 3);
        let n = n_blocks * 1200;
        let grid = ProcessGrid::new(p, q);
        let mut cfg = HybridConfig::new(n, grid, cards);
        cfg.host_mem_gib = 2048.0; // lift the memory gate for the sweep
        let mut effs = Vec::new();
        for la in [Lookahead::None, Lookahead::Basic, Lookahead::Pipelined] {
            cfg.lookahead = la;
            let r = simulate_cluster(&cfg, false);
            let e = r.report.efficiency();
            assert!(e > 0.0 && e < 1.0, "eff {e}");
            effs.push(e);
        }
        assert!(effs[0] <= effs[1] + 1e-9, "basic >= none: {effs:?}");
        assert!(effs[1] <= effs[2] + 1e-9, "pipelined >= basic: {effs:?}");
    }
}

/// The offload DES never exceeds aggregate peak, is deterministic,
/// and its card-busy accounting stays within the run time.
#[test]
fn offload_model_physical_invariants() {
    let mut cases = Cases::new(0x0DE5);
    for _ in 0..12 {
        let size = cases.index(5, 80);
        let cards = cases.index(1, 3);
        let host_cores = cases.index(0, 13);
        let g = cases.index(1, 9);
        let n = size * 1000;
        let model = OffloadModel::default();
        let out = model.simulate_with_grid(n, n, cards, host_cores as f64, (g, g));
        let peak = model.card.chip.full_peak_gflops(Precision::F64) * cards as f64
            + model.host.cfg.peak_gflops();
        assert!(
            out.gflops > 0.0 && out.gflops < peak,
            "{} vs {peak}",
            out.gflops
        );
        assert!(out.card_busy_s <= out.time_s * cards as f64 + 1e-9);
        assert_eq!(out.card_tiles + out.host_tiles, g * g);
        let again = model.simulate_with_grid(n, n, cards, host_cores as f64, (g, g));
        assert_eq!(out.time_s, again.time_s, "determinism");
    }
}

/// The closed-form worst-node extents equal the O(P)/O(Q) scan over
/// every process row and column, for any grid, blocking and stage —
/// including ragged last blocks and stages past the end.
#[test]
fn worst_extents_closed_form_equals_the_grid_scan() {
    use phi_hpl::hybrid::stage::worst_extents;
    let mut cases = Cases::new(0xE87E);
    for _ in 0..2000 {
        let grid = ProcessGrid::new(cases.index(1, 14), cases.index(1, 14));
        let nb = cases.index(1, 400);
        let n = cases.index(1, 40 * nb);
        let nblocks = n.div_ceil(nb);
        let stage = cases.index(0, nblocks + 2);
        let scan = |count: usize, blocks: &dyn Fn(usize) -> usize| {
            ((0..count).map(blocks).max().unwrap() * nb).min(n)
        };
        let rows = scan(grid.p, &|r| grid.trailing_blocks_row(r, stage + 1, nblocks));
        let cols = scan(grid.q, &|c| grid.trailing_blocks_col(c, stage + 1, nblocks));
        assert_eq!(
            worst_extents(grid, n, nb, stage),
            (rows, cols),
            "{}x{} grid, n {n}, nb {nb}, stage {stage}",
            grid.p,
            grid.q
        );
    }
}

#[test]
fn hybrid_memory_gate_is_tight() {
    // Just over the gate must panic; just under must run.
    let grid = ProcessGrid::new(1, 1);
    let over = HybridConfig::new(100_000, grid, 1); // 80 GB > 64 GB
    assert!(std::panic::catch_unwind(|| simulate_cluster(&over, false)).is_err());
    let under = HybridConfig::new(84_000, grid, 1); // 56 GB < 64 GB
    let r = simulate_cluster(&under, false);
    assert!(r.report.gflops > 0.0);
}

#[test]
fn report_breakdown_consistency() {
    // Traced native runs report breakdowns whose total is bounded by
    // lanes × wall time.
    let cfg = phi_hpl::native::NativeConfig::new(4096);
    let (r, trace) = phi_hpl::native::model::simulate_dynamic_traced(&cfg, true);
    let lane_count = trace.spans().iter().map(|s| s.lane).max().unwrap_or(0) as f64 + 1.0;
    let busy: f64 = r.breakdown.iter().map(|(_, t)| t).sum();
    assert!(
        busy <= lane_count * r.time_s * 1.001,
        "{busy} vs {}",
        lane_count * r.time_s
    );
    let mat = MatGen::new(1).matrix::<f64>(8, 8);
    let x = phi_blas::lu::lu_solve(&mat, &[1.0; 8], 4).unwrap();
    assert!(hpl_residual(&mat.view(), &x, &[1.0; 8]).passed);
    let _ = Matrix::<f64>::zeros(0, 0);
}
