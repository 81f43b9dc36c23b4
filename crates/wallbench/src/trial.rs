//! Metrics of the two subsystems on trial (ROADMAP item 2): block-trace
//! replay in the emulator and the rank-parallel DES. They live in this
//! one file and feed no end-to-end number, so a "delete" verdict on
//! either subsystem is preceded by a one-file change to the benchmark.
//!
//! The keep bar is a host speed-up of at least 2 over the simple path
//! (`*_host_speedup`, `t2_over_seq`; base = the simple path). A replay
//! that becomes fast shows end to end only through
//! `knc.chip.calibrate_ms`, which `emu_dgemm` times.

use super::workloads::{Layers, Scale};
use crate::stats::Summary;
use crate::timing::Tracer;
use phi_blas::gemm::MicroKernelKind;
use phi_fabric::ProcessGrid;
use phi_hpl::hybrid::rankdes::simulate_cluster_rankdes;
use phi_hpl::HybridConfig;
use phi_knc::kernels::run_tile_product_traced;
use phi_knc::{run_spmv_traced, Csr, PipelineConfig};

/// Kernel 2 through replay against the interpreter's `interp` seconds.
pub fn replay_kernel2(
    tr: &mut Tracer,
    out: &mut Layers,
    scale: Scale,
    depth: usize,
    a: &[f64],
    bs: &[Vec<f64>; 4],
    interp: Summary,
) {
    let kind = MicroKernelKind::Kernel2;
    let cfg = PipelineConfig::default();
    let traced = tr.bench("knc.trace.k2", scale.budget(0.15), 3, || {
        run_tile_product_traced(kind, depth, a, bs, cfg)
    });
    let (_, stats, coverage) = run_tile_product_traced(kind, depth, a, bs, cfg);
    out.exact("knc.trace.k2_host_speedup", interp.median / traced.median);
    out.exact("knc.trace.k2_cycle_coverage", coverage);
    out.exact(
        "knc.trace.replayed_segments",
        stats.replayed_segments as f64,
    );
    out.exact("knc.trace.deopts", stats.deopts as f64);
    out.exact("knc.trace.guard_misses", stats.guard_misses as f64);
}

/// SpMV through replay against the interpreter's `interp` seconds.
pub fn replay_spmv(
    tr: &mut Tracer,
    out: &mut Layers,
    scale: Scale,
    a: &Csr,
    x: &[f64],
    interp: Summary,
) {
    let cfg = PipelineConfig::default();
    let traced = tr.bench("knc.trace.spmv", scale.budget(0.15), 3, || {
        run_spmv_traced(a, x, cfg)
    });
    let (_, _, coverage) = run_spmv_traced(a, x, cfg);
    out.exact("knc.trace.spmv_host_speedup", interp.median / traced.median);
    out.exact("knc.trace.spmv_cycle_coverage", coverage);
}

/// The rank-level DES of a 4 × 4 Table III run, sequential and on two
/// threads: events per host second, and windows per event (one event per
/// barrier is the extreme case of "the slowest part sets the time").
pub fn parallel_des(tr: &mut Tracer, out: &mut Layers, scale: Scale) {
    let cfg = HybridConfig::new(scale.pick(168_000, 48_000), ProcessGrid::new(4, 4), 1);
    let reference = simulate_cluster_rankdes(&cfg, 1).parallel;
    let events = reference.events as f64;
    let seq = tr.bench("des.parallel.seq", scale.budget(0.1), 3, || {
        simulate_cluster_rankdes(&cfg, 1)
    });
    // Two threads are slower by two orders of magnitude today: two calls.
    let par = tr.bench("des.parallel.t2", 0.0, 2, || {
        simulate_cluster_rankdes(&cfg, 2)
    });
    let windows = simulate_cluster_rankdes(&cfg, 2).parallel.windows as f64;
    out.put("des.parallel.seq_events_per_s", seq.map(|s| events / s));
    out.put("des.parallel.t2_events_per_s", par.map(|s| events / s));
    out.exact("des.parallel.t2_over_seq", seq.median / par.median);
    out.exact("des.parallel.windows_per_event", windows / events);
}
