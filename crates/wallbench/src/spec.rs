//! The metric registry: the one place that names every workload and
//! metric, with unit, direction, bound and owning workload.
//! `BENCHMARK.json` at the repository root is checked against it by
//! `tests/contract.rs`.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: emitted by the untraced run of every workload.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: emitted by the traced run.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<part>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workload that measures it (`"*"`: every workload). On every
    /// other workload the metric reads 0 — the layer is not exercised
    /// there, which is the *no change* prediction.
    pub owner: &'static str,
    /// A count or deterministic simulated statistic: repeats exactly, so
    /// two results compare exactly.
    pub exact: bool,
}

impl Layer {
    /// Whether `workload` measures this metric (it reads 0 elsewhere).
    pub fn owned_by(&self, workload: &str) -> bool {
        self.owner == "*" || self.owner == workload
    }
}

/// The end-to-end metrics. `work_per_s` is each workload's throughput in
/// its own unit of work ([`work_unit`]).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// What one unit of `work_per_s` is on a workload, and the name the
/// issue tracker uses for that (metric, workload) pair.
pub fn work_unit(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "hpl_solve" => ("host GFLOP", "hpl_gflops"),
        "emu_dgemm" | "emu_sparse" => ("simulated Mcycle", "emu_mcycles_per_s"),
        "des_models" => ("simulator run", "des_runs_per_s"),
        "tune_cold" => ("candidate", "tune_cands_per_s"),
        "fleet_mc" => ("seed", "fleet_seeds_per_s"),
        "serve_mix" => ("request", "serve_mix_rps"),
        _ => ("unit", "work_per_s"),
    }
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        owner,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        owner,
        exact: true,
    }
}

use Better::{Higher as Hi, Lower as Lo};

/// The per-layer metrics.
pub const PER_LAYER: &[Layer] = &[
    // phi-matrix, phi-blas, phi-sched, phi-hpl native numeric + distributed
    host("matrix.gen.ms", "ms", Lo, "hpl_solve"),
    host("hpl.numeric.factorize_ms", "ms", Lo, "hpl_solve"),
    host("hpl.numeric.backsolve_ms", "ms", Lo, "hpl_solve"),
    host("matrix.residual.ms", "ms", Lo, "hpl_solve"),
    exact("matrix.residual.scaled", "ratio", Lo, "hpl_solve"),
    host("hpl.numeric.t1_gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("sched.groups.parallel_eff", "ratio", Hi, "hpl_solve"),
    host("blas.gemm.update_gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("blas.gemm.square_gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("blas.micro.k1_gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("blas.micro.k2_gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("blas.pack.a_gb_per_s", "GB/s", Hi, "hpl_solve"),
    host("blas.pack.b_gb_per_s", "GB/s", Hi, "hpl_solve"),
    host("blas.getf2.panel_ms", "ms", Lo, "hpl_solve"),
    host("blas.trsm.gflops", "GFLOP/s", Hi, "hpl_solve"),
    host("blas.laswp.gb_per_s", "GB/s", Hi, "hpl_solve"),
    host("sched.dag.tasks_per_s", "1/s", Hi, "hpl_solve"),
    host("sched.steal.ops_per_s", "1/s", Hi, "hpl_solve"),
    host("hpl.distributed.q2_ms", "ms", Lo, "hpl_solve"),
    // phi-knc on the L1-hit steady state, phi-lint kernel passes
    host("knc.interp.k1_mcycles_per_s", "Mcycles/s", Hi, "emu_dgemm"),
    host("knc.interp.k2_mcycles_per_s", "Mcycles/s", Hi, "emu_dgemm"),
    host(
        "knc.interp.d300_mcycles_per_s",
        "Mcycles/s",
        Hi,
        "emu_dgemm",
    ),
    host("knc.chip.calibrate_ms", "ms", Lo, "emu_dgemm"),
    host("knc.cache.accesses_per_s", "1/s", Hi, "emu_dgemm"),
    host("knc.tlb.accesses_per_s", "1/s", Hi, "emu_dgemm"),
    host("lint.kernel.analyze_us", "us", Lo, "emu_dgemm"),
    exact("knc.sim.k1_cycles_per_iter", "cycles", Lo, "emu_dgemm"),
    exact("knc.sim.k2_cycles_per_iter", "cycles", Lo, "emu_dgemm"),
    exact("knc.sim.k1_fill_stall_cycles", "cycles", Lo, "emu_dgemm"),
    exact("knc.sim.k1_fills_in_holes_ratio", "ratio", Hi, "emu_dgemm"),
    exact("knc.sim.k2_fills_in_holes_ratio", "ratio", Hi, "emu_dgemm"),
    exact("lint.kernel.k1_static_gap_pct", "pct", Lo, "emu_dgemm"),
    // on trial (src/trial.rs): block-trace replay
    host("knc.trace.k2_host_speedup", "ratio", Hi, "emu_dgemm"),
    exact("knc.trace.k2_cycle_coverage", "ratio", Hi, "emu_dgemm"),
    exact("knc.trace.replayed_segments", "count", Hi, "emu_dgemm"),
    exact("knc.trace.deopts", "count", Lo, "emu_dgemm"),
    exact("knc.trace.guard_misses", "count", Lo, "emu_dgemm"),
    // phi-knc on the miss paths
    host(
        "knc.interp.spmv_band_mcycles_per_s",
        "Mcycles/s",
        Hi,
        "emu_sparse",
    ),
    host(
        "knc.interp.spmv_rect_mcycles_per_s",
        "Mcycles/s",
        Hi,
        "emu_sparse",
    ),
    host(
        "knc.interp.stencil_mcycles_per_s",
        "Mcycles/s",
        Hi,
        "emu_sparse",
    ),
    host(
        "knc.cache.miss_stream_accesses_per_s",
        "1/s",
        Hi,
        "emu_sparse",
    ),
    host("knc.spmv.build_ms", "ms", Lo, "emu_sparse"),
    host("knc.ref.check_ms", "ms", Lo, "emu_sparse"),
    exact("knc.sim.spmv_demand_stall_share", "ratio", Lo, "emu_sparse"),
    exact(
        "knc.sim.spmv_flops_per_cycle",
        "flop/cycle",
        Hi,
        "emu_sparse",
    ),
    exact(
        "knc.sim.stencil_flops_per_cycle",
        "flop/cycle",
        Hi,
        "emu_sparse",
    ),
    host("knc.trace.spmv_host_speedup", "ratio", Hi, "emu_sparse"),
    exact("knc.trace.spmv_cycle_coverage", "ratio", Hi, "emu_sparse"),
    // phi-des, phi-fabric net/pcie, phi-hpl native model / offload /
    // calibrated hybrid / stencil cluster
    host("des.sim.events_per_s", "1/s", Hi, "des_models"),
    host("des.sim.schedule_ns", "ns", Lo, "des_models"),
    host("hpl.native.dyn_30720_ms", "ms", Lo, "des_models"),
    host("hpl.native.dyn_8192_ms", "ms", Lo, "des_models"),
    host("hpl.native.static_30720_ms", "ms", Lo, "des_models"),
    host("hpl.offload.sim_82k_ms", "ms", Lo, "des_models"),
    host("hpl.offload.analytic_82k_us", "us", Lo, "des_models"),
    host("hpl.hybrid.calibrated_10x10_ms", "ms", Lo, "des_models"),
    host(
        "hpl.hybrid.calibrated_over_analytic",
        "ratio",
        Lo,
        "des_models",
    ),
    host("hpl.stencil.cluster_ms", "ms", Lo, "des_models"),
    host("fabric.net.bcast_ns", "ns", Lo, "des_models"),
    host("fabric.net.halo_exchange_us", "us", Lo, "des_models"),
    exact("hpl.native.sim_gflops_30720", "GFLOP/s", Hi, "des_models"),
    exact("hpl.offload.sim_eff_82k", "ratio", Hi, "des_models"),
    // on trial (src/trial.rs): parallel DES
    host("des.parallel.seq_events_per_s", "1/s", Hi, "des_models"),
    host("des.parallel.t2_events_per_s", "1/s", Hi, "des_models"),
    host("des.parallel.t2_over_seq", "ratio", Hi, "des_models"),
    exact("des.parallel.windows_per_event", "ratio", Lo, "des_models"),
    // phi-hpl analytic hybrid, phi-tune, phi-fabric grid, phi-knc chip, hpldat
    host("hpl.hybrid.analytic_10x10_us", "us", Lo, "tune_cold"),
    host("hpl.hybrid.analytic_1x1_us", "us", Lo, "tune_cold"),
    host("hpl.hybrid.ns_per_stage", "ns", Lo, "tune_cold"),
    host("hpl.hybrid.profiles_10x10_us", "us", Lo, "tune_cold"),
    host("tune.cluster100_ms", "ms", Lo, "tune_cold"),
    host("tune.single_node_ms", "ms", Lo, "tune_cold"),
    host("tune.cluster100_t1_ms", "ms", Lo, "tune_cold"),
    host("tune.scaling_eff", "ratio", Hi, "tune_cold"),
    host("tune.cache.hit_us", "us", Lo, "tune_cold"),
    host("tune.spmv_blocking_us", "us", Lo, "tune_cold"),
    host("tune.stencil_decomp_us", "us", Lo, "tune_cold"),
    host("fabric.grid.patch_remap_us", "us", Lo, "tune_cold"),
    host("fabric.grid.trailing_counts_ns", "ns", Lo, "tune_cold"),
    host("knc.chip.gemm_model_ns", "ns", Lo, "tune_cold"),
    host("hpl.hpldat.parse_render_us", "us", Lo, "tune_cold"),
    exact("tune.cluster100_best_gflops", "GFLOP/s", Hi, "tune_cold"),
    exact("tune.cluster100_candidates", "count", Lo, "tune_cold"),
    exact("hpl.hybrid.sim_gflops_10x10", "GFLOP/s", Hi, "tune_cold"),
    exact("hpl.hybrid.card_idle_fraction", "ratio", Lo, "tune_cold"),
    exact("paper.err_pts_mean", "pts", Lo, "tune_cold"),
    exact("paper.err_pts_max", "pts", Lo, "tune_cold"),
    // phi-faults, faulty hybrid, native-FT cluster, fleet, schedule lints
    host("faults.plan.generate_us", "us", Lo, "fleet_mc"),
    host("faults.plan.resolved_events_per_s", "1/s", Hi, "fleet_mc"),
    host("faults.plan.effects_over_ns", "ns", Lo, "fleet_mc"),
    host("faults.plan.fingerprint_ns", "ns", Lo, "fleet_mc"),
    host("hpl.faulty.patch_us", "us", Lo, "fleet_mc"),
    host("hpl.faulty.wholesale_us", "us", Lo, "fleet_mc"),
    host("hpl.faulty.healthy_over_analytic", "ratio", Lo, "fleet_mc"),
    host("hpl.native_ft.cluster_us", "us", Lo, "fleet_mc"),
    host("fleet.t1_seeds_per_s", "1/s", Hi, "fleet_mc"),
    host("fleet.scaling_eff", "ratio", Hi, "fleet_mc"),
    host("fleet.report_ms", "ms", Lo, "fleet_mc"),
    host("fleet.stored_cold_seeds_per_s", "1/s", Hi, "fleet_mc"),
    host("fleet.stored_hit_seeds_per_s", "1/s", Hi, "fleet_mc"),
    host("lint.schedule.check_us", "us", Lo, "fleet_mc"),
    host("lint.ownership.prove_us", "us", Lo, "fleet_mc"),
    exact("fleet.p99_time_s", "s", Lo, "fleet_mc"),
    // phi-serve
    host("serve.phase.cold_rps", "1/s", Hi, "serve_mix"),
    host("serve.phase.warm_rps", "1/s", Hi, "serve_mix"),
    host("serve.phase.restart_rps", "1/s", Hi, "serve_mix"),
    host("serve.get.miss_p50_us", "us", Lo, "serve_mix"),
    host("serve.get.miss_p99_us", "us", Lo, "serve_mix"),
    host("serve.get.cold_p99_us", "us", Lo, "serve_mix"),
    host("serve.get.warm_p99_us", "us", Lo, "serve_mix"),
    host("serve.spec.canonical_key_ns", "ns", Lo, "serve_mix"),
    host("serve.spec.validate_ns", "ns", Lo, "serve_mix"),
    host("serve.service.mem_hit_ns", "ns", Lo, "serve_mix"),
    host("serve.service.warm_rps_c1", "1/s", Hi, "serve_mix"),
    host("serve.campaign.run_us", "us", Lo, "serve_mix"),
    host("serve.store.put_us", "us", Lo, "serve_mix"),
    host("serve.record.serialize_ns", "ns", Lo, "serve_mix"),
    host("serve.store.load_us", "us", Lo, "serve_mix"),
    host("serve.record.parse_ns", "ns", Lo, "serve_mix"),
    host("serve.service.open_shutdown_ms", "ms", Lo, "serve_mix"),
    host("serve.store.corrupt_recover_us", "us", Lo, "serve_mix"),
    host("serve.table.load_ms", "ms", Lo, "serve_mix"),
    host("serve.table.filter_agg_us", "us", Lo, "serve_mix"),
    host("serve.service.coalesced", "count", Hi, "serve_mix"),
    exact("serve.service.executed", "count", Lo, "serve_mix"),
    // the benchmark itself
    host("bench.trace.overhead_pct", "pct", Lo, "*"),
    host("bench.canary.spin_ms", "ms", Lo, "*"),
    host("bench.canary.drift_pct", "pct", Lo, "*"),
];

/// One-line reason each workload exists (`BENCHMARK.json`'s `why`).
pub fn why(workload: &str) -> &'static str {
    match workload {
        "hpl_solve" => "The paper's metric on real arithmetic: only here do the phi-blas kernels, packing and the phi-sched DAG do the work; emulator, DES and service idle.",
        "emu_dgemm" => "Cycle-level emulator on the compute-bound, L1-hit steady state of both paper kernels, plus the production chip calibration that consumes it.",
        "emu_sparse" => "Same emulator on SpMV and a stencil: demand-miss, fill-stall and TLB paths, so an interpreter change that speeds hits but slows misses shows.",
        "des_models" => "Every model that drives the phi-des event heap and phi-fabric links: native, offload, calibrated hybrid and the stencil cluster.",
        "tune_cold" => "Thousands of healthy analytic stage-model runs with the DES almost idle: the bypass workload for DES work and the guard for stage-model refactors.",
        "fleet_mc" => "The faulty use of the same stage model plus fault-plan generation and native-FT; the reads-beside-writes pair of tune_cold.",
        "serve_mix" => "The service shell under a cold, warm and restart traffic mix: spec keys, single-flight map, worker pool, record codec and page-cache-warm file I/O.",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is registered twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn every_layer_metric_has_a_real_owner_and_every_workload_a_reason() {
        for m in PER_LAYER {
            assert!(m.owner == "*" || NAMES.contains(&m.owner), "{}", m.name);
        }
        for w in NAMES {
            assert!(!why(w).is_empty() && why(w).len() <= 200, "{w}");
            assert!(PER_LAYER.iter().any(|m| m.owner == w));
        }
    }
}
