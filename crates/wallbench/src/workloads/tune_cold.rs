//! `tune_cold`: a cold (uncached) autotuning of the paper's two reference
//! machines — thousands of *healthy* `simulate_cluster` calls over varying
//! grid, `NB`, broadcast and look-ahead. The analytic stage model does the
//! work and the DES is almost idle: the bypass workload for DES changes,
//! and the guard for "healthy = faulty with a trivial plan".

use super::{Env, Layers, Pass, Workload};
use crate::timing::{timed, Tracer};
use phi_bench::{table2_rows, table3_rows};
use phi_fabric::{NetModel, ProcessGrid};
use phi_hpl::hpldat::paper_table3_dat;
use phi_hpl::hybrid::simulate_cluster;
use phi_hpl::{HplDat, HybridConfig};
use phi_knc::{GemmModel, Precision};
use phi_serve::Fnv;
use phi_tune::workload::default_spmv_windows;
use phi_tune::{
    tune, tune_cached, tune_spmv_blocking, tune_stencil_decomposition, MachineConfig, TuneCache,
    TuneOptions, TuneOutcome, TuneSpace,
};

struct Target {
    span: &'static str,
    machine: MachineConfig,
    space: TuneSpace,
    opts: TuneOptions,
}

/// The built workload.
pub struct TuneCold {
    env: Env,
    targets: Vec<Target>,
    last: Vec<Option<TuneOutcome>>,
}

/// Fixes the machines, search spaces and the seeded options.
pub fn build(env: &Env) -> TuneCold {
    let small = MachineConfig {
        nodes: 4,
        cards_per_node: 1,
        host_mem_gib: 64.0,
        n: 120_000,
    };
    // Full size: the two machines `phi-bench`'s tuner runs, with its
    // sampling cadences. Tests: one small machine, coarse grid only.
    let machines = env.scale.pick(
        vec![
            (
                "tune.single_node",
                MachineConfig::paper_single_node(),
                16,
                false,
            ),
            (
                "tune.cluster100",
                MachineConfig::paper_cluster_100(),
                64,
                false,
            ),
        ],
        vec![("tune.cluster100", small, 16, true)],
    );
    let targets: Vec<Target> = machines
        .into_iter()
        .map(|(span, machine, sample_every, coarse_only)| Target {
            span,
            space: TuneSpace::coarse(&machine),
            machine,
            opts: TuneOptions {
                seed: env.seed,
                threads: env.threads,
                sample_every,
                coarse_only,
                ..TuneOptions::default()
            },
        })
        .collect();
    TuneCold {
        env: env.clone(),
        last: vec![None; targets.len()],
        targets,
    }
}

/// Mean and max `|model − paper|` in efficiency points over Table II
/// (12 values) and Table III (15 rows).
fn paper_error_pts() -> (f64, f64) {
    let t2 = table2_rows();
    let errs: Vec<f64> = t2
        .iter()
        .flat_map(|r| [r.sp_eff - r.paper_sp_eff, r.dp_eff - r.paper_dp_eff])
        .chain(table3_rows().iter().map(|r| r.eff - r.paper_eff))
        .map(|e| 100.0 * e.abs())
        .collect();
    (
        errs.iter().sum::<f64>() / errs.len() as f64,
        errs.iter().fold(0.0, |a: f64, &b| a.max(b)),
    )
}

impl Workload for TuneCold {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut h = Fnv::new();
        for (i, t) in self.targets.iter().enumerate() {
            let (out, s) = timed(|| tr.time(t.span, || tune(&t.machine, &t.space, &t.opts)));
            pass.seconds += s;
            pass.work += out.candidates_evaluated as f64;
            pass.check(
                (out.tuned_report.gflops < out.baseline_report.gflops).then(|| {
                    format!(
                        "{}: tuned {} GFLOPS regresses below the paper baseline {}",
                        t.span, out.tuned_report.gflops, out.baseline_report.gflops
                    )
                }),
            );
            h.write(format!("{:?}", out.tuned).as_bytes());
            h.write_u64(out.tuned_report.gflops.to_bits());
            h.write_u64(out.baseline_report.gflops.to_bits());
            h.write_u64(out.candidates_evaluated as u64);
            self.last[i] = Some(out);
        }
        pass.sim_digest = h.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let threads = self.env.threads;
        let cluster = self.targets.last().expect("at least one target");
        let outcome = self
            .last
            .last()
            .and_then(Option::as_ref)
            .expect("layers run after a pass");
        out.from_spans("tune.cluster100_ms", tr, "tune.cluster100", 1e3);
        if self.targets.len() > 1 {
            out.from_spans("tune.single_node_ms", tr, "tune.single_node", 1e3);
        } else {
            out.from_spans("tune.single_node_ms", tr, "tune.cluster100", 1e3);
        }
        out.exact("tune.cluster100_best_gflops", outcome.tuned_report.gflops);
        out.exact(
            "tune.cluster100_candidates",
            outcome.candidates_evaluated as f64,
        );

        let one = TuneOptions {
            threads: 1,
            ..cluster.opts
        };
        let t1 = tr.bench("tune.cluster100_t1", 0.0, 3, || {
            tune(&cluster.machine, &cluster.space, &one)
        });
        let tt = tr.bench("tune.cluster100_tT", 0.0, 3, || {
            tune(&cluster.machine, &cluster.space, &cluster.opts)
        });
        out.put("tune.cluster100_t1_ms", t1.map(|s| s * 1e3));
        out.exact("tune.scaling_eff", t1.median / (threads as f64 * tt.median));

        let cache = TuneCache::open(self.env.scratch.join("tune-cache"))
            .expect("the scratch directory is writable");
        tune_cached(&cluster.machine, &cluster.space, &cluster.opts, &cache)
            .expect("the scratch directory is writable");
        let s = tr.bench("tune.cache.hit", sc.budget(0.05), 5, || {
            tune_cached(&cluster.machine, &cluster.space, &cluster.opts, &cache)
        });
        out.put("tune.cache.hit_us", s.map(|sec| sec * 1e6));

        // The analytic stage model on the Table III pipelined rows.
        let p = sc.pick(10, 4);
        let n = sc.pick(825_000, 120_000);
        let big = HybridConfig::new(n, ProcessGrid::new(p, p), 1);
        let node = HybridConfig::new(sc.pick(84_000, 24_000), ProcessGrid::new(1, 1), 1);
        let s10 = tr.bench("hpl.hybrid.analytic_10x10", sc.budget(0.1), 10, || {
            simulate_cluster(&big, false)
        });
        out.put("hpl.hybrid.analytic_10x10_us", s10.map(|s| s * 1e6));
        let stages = big.n.div_ceil(big.nb) as f64;
        out.put("hpl.hybrid.ns_per_stage", s10.map(|s| s * 1e9 / stages));
        let s = tr.bench("hpl.hybrid.analytic_1x1", sc.budget(0.1), 10, || {
            simulate_cluster(&node, false)
        });
        out.put("hpl.hybrid.analytic_1x1_us", s.map(|s| s * 1e6));
        let s = tr.bench("hpl.hybrid.profiles_10x10", sc.budget(0.1), 10, || {
            simulate_cluster(&big, true)
        });
        out.put("hpl.hybrid.profiles_10x10_us", s.map(|s| s * 1e6));
        let r = simulate_cluster(&big, false);
        out.exact("hpl.hybrid.sim_gflops_10x10", r.report.gflops);
        out.exact("hpl.hybrid.card_idle_fraction", r.card_idle_fraction);
        let (mean, max) = paper_error_pts();
        out.exact("paper.err_pts_mean", mean);
        out.exact("paper.err_pts_max", max);

        let rows = sc.pick(4096, 256);
        let lens: Vec<usize> = (0..rows).map(|r| 8 + (r * 37 + 11) % 57).collect();
        let windows = default_spmv_windows(rows);
        let s = tr.bench("tune.spmv_blocking", sc.budget(0.05), 5, || {
            tune_spmv_blocking(&lens, &windows)
        });
        out.put("tune.spmv_blocking_us", s.map(|sec| sec * 1e6));
        let net = NetModel::default();
        let s = tr.bench("tune.stencil_decomp", sc.budget(0.05), 5, || {
            tune_stencil_decomposition((384, 384, 384), 64, 1, &net)
        });
        out.put("tune.stencil_decomp_us", s.map(|sec| sec * 1e6));

        let grid = ProcessGrid::new(10, 10);
        let nblocks = 688;
        let s = tr.bench("fabric.grid.patch_remap", sc.budget(0.05), 10, || {
            (0..grid.size())
                .map(|dead| grid.patch_remap(dead).moved_trailing_blocks(100, nblocks))
                .sum::<usize>()
        });
        out.put(
            "fabric.grid.patch_remap_us",
            s.map(|sec| sec * 1e6 / grid.size() as f64),
        );
        let s = tr.bench("fabric.grid.trailing_counts", sc.budget(0.05), 10, || {
            let mut t = 0usize;
            for first in 0..nblocks {
                t += grid.trailing_blocks_row(first % 10, first, nblocks);
                t += grid.trailing_blocks_col(first % 10, first, nblocks);
            }
            t
        });
        out.put(
            "fabric.grid.trailing_counts_ns",
            s.map(|sec| sec * 1e9 / (2 * nblocks) as f64),
        );
        let model = GemmModel::default();
        let s = tr.bench("knc.chip.gemm_model", sc.budget(0.05), 10, || {
            (1..=256usize)
                .map(|i| model.gemm_time_s(120 * i, 1200, 1200, 60.0, Precision::F64))
                .sum::<f64>()
        });
        out.put("knc.chip.gemm_model_ns", s.map(|sec| sec * 1e9 / 256.0));
        let s = tr.bench("hpl.hpldat.parse_render", sc.budget(0.05), 10, || {
            HplDat::parse(paper_table3_dat())
                .expect("the paper's own input parses")
                .render()
        });
        out.put("hpl.hpldat.parse_render_us", s.map(|sec| sec * 1e6));
    }
}
