//! Performance-regression gate: a handful of headline metrics computed
//! in-process from the deterministic simulators, compared against the
//! committed `BENCH_baseline.json` with a ±1 % tolerance.
//!
//! The metrics are all analytic-model outputs, so on an unchanged tree
//! they reproduce bit-for-bit and the gate is noise-free: any delta is
//! a real change to the model or the recovery machinery. CI runs
//! `phi perfgate`; an intentional change regenerates the baseline
//! with `UPDATE_BASELINE=1` and commits the diff like any fixture.

use crate::emudiff::tile_inputs;
use crate::faults::fault_campaign_cluster_rows;
use crate::fleet::{completion_percentiles, run_fleet, FleetOptions};
use crate::serve::{serve_load, ServeLoadOptions, ServeLoadResult};
use crate::tune::{io_ctx, run_tuner, IoError};
use crate::TextTable;
use phi_blas::gemm::MicroKernelKind;
use phi_fabric::{ProcessGrid, RemapStrategy};
use phi_faults::{CampaignScope, FaultPlan};
use phi_hpl::hybrid::{simulate_cluster_rankdes, HybridConfig};
use phi_knc::kernels::run_tile_product_traced;
use phi_knc::PipelineConfig;
use std::fmt;
use std::path::Path;

/// Seed the gate's fault campaign runs under — the fixture seed, so the
/// goldens, the docs and the baseline all describe the same campaign.
pub(crate) const GATE_SEED: u64 = 0xFA_0175;

/// Relative tolerance for every metric: a metric regresses (or
/// improves) past the gate when `|current / baseline - 1|` exceeds
/// this.
const GATE_TOLERANCE: f64 = 0.01;

/// A failure in the perf gate, carried as a value so `phi` exits
/// with a message instead of a panic backtrace.
#[derive(Debug)]
pub(crate) enum PerfGateError {
    /// Filesystem I/O failed (baseline file or tune cache).
    Io(IoError),
    /// The baseline file exists but a metric line cannot be parsed.
    Malformed(String),
}

impl fmt::Display for PerfGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfGateError::Io(e) => e.fmt(f),
            PerfGateError::Malformed(line) => {
                write!(f, "malformed baseline metric line: `{line}`")
            }
        }
    }
}

impl From<IoError> for PerfGateError {
    fn from(e: IoError) -> Self {
        PerfGateError::Io(e)
    }
}

/// One gated metric: a stable name and its current value.
#[derive(Clone, Debug, PartialEq)]
struct Metric {
    /// Stable snake_case key, used to match against the baseline.
    pub name: &'static str,
    /// Current value on this tree.
    pub value: f64,
}

/// Seeds in the gate's reference fleet — small enough to keep the gate
/// fast, large enough that the P99 is a real tail statistic.
const GATE_FLEET_SEEDS: usize = 160;

/// The gate's fleet: [`GATE_FLEET_SEEDS`] mixed-scope campaigns rooted
/// at [`GATE_SEED`]. Thread count stays at auto — the fleet is
/// byte-identical at any value, so the metric is machine-independent.
fn gate_fleet_options() -> FleetOptions {
    FleetOptions {
        seeds: GATE_FLEET_SEEDS,
        seed0: GATE_SEED,
        ..FleetOptions::default()
    }
}

/// Fan-out resolution throughput in *simulated* terms: resolved events
/// per simulated hour across a reference set of rack-scoped (maximally
/// fanning) campaign plans. Pure plan arithmetic — no wall clock, so
/// the metric reproduces bit-for-bit; it moves only when the fan-out
/// resolution itself starts spawning more or fewer events.
fn fanout_resolution_throughput() -> f64 {
    const PLANS: usize = 64;
    const HORIZON_S: f64 = 3600.0;
    let events: usize = (0..PLANS as u64)
        .map(|i| {
            FaultPlan::fleet_campaign(
                GATE_SEED.wrapping_add(i),
                HORIZON_S,
                3,
                100,
                2,
                CampaignScope::Rack,
            )
            .events()
            .len()
        })
        .sum();
    events as f64 / (PLANS as f64 * HORIZON_S / 3600.0)
}

/// The gate's reference campaign-service workload: a small cold + warm
/// load generation on an in-memory service rooted at [`GATE_SEED`].
/// Both derived metrics are defined in deterministic terms —
/// `serve_requests_per_s` divides requests by *simulated* seconds (the
/// Σ completion time of the unique campaigns behind them, no wall
/// clock) and `serve_hit_rate` counts requests that skipped execution —
/// so they reproduce bit-for-bit at any worker count. They move only
/// when spec canonicalization, the dedup machinery or the simulated
/// campaigns themselves change.
fn gate_serve_load() -> ServeLoadResult {
    serve_load(&ServeLoadOptions {
        requests: 600,
        space: 24,
        clients: 4,
        seed0: GATE_SEED,
        ..ServeLoadOptions::default()
    })
}

/// Block-replay coverage speedup of the traced emulator: total simulated
/// cycles over interpreter-executed cycles on the paper's Kernel 2 tile
/// product at a steady-state depth. Deterministic cycle arithmetic — the
/// metric moves only when the trace engine's coverage changes (a guard
/// that starts missing, a template that stops forming), and the
/// differential harness separately proves the covered cycles are
/// bit-identical.
fn emu_block_replay_speedup() -> f64 {
    const DEPTH: usize = 1024;
    let (a, bs) = tile_inputs(MicroKernelKind::Kernel2, DEPTH);
    let (_, _, speedup) = run_tile_product_traced(
        MicroKernelKind::Kernel2,
        DEPTH,
        &a,
        &bs,
        PipelineConfig::default(),
    );
    speedup
}

/// Parallel-DES throughput in *simulated* terms: events per simulated
/// second of the reference rank-level cluster DES (a 4 × 4 grid running
/// the hybrid HPL stage loop). No wall clock — the figure reproduces
/// bit-for-bit and is byte-identical at any worker count (the engine's
/// contract); it moves only when the rank partitioning or the stage
/// pipeline changes how many events the simulation needs.
fn parallel_des_events_per_s() -> f64 {
    let cfg = HybridConfig::new(160_000, ProcessGrid::new(4, 4), 2);
    let r = simulate_cluster_rankdes(&cfg, 1);
    r.parallel.events as f64 / r.time_s
}

/// Computes every gated metric in-process. The fault-campaign figures
/// come from the Table III cluster campaign at [`GATE_SEED`]; the fleet
/// tail figure from the 160-seed reference fleet; the
/// tune figure from the 100-node smoke tune (cached under `cache_dir`).
fn collect_metrics(cache_dir: &Path) -> Result<Vec<Metric>, PerfGateError> {
    let rows = fault_campaign_cluster_rows(GATE_SEED, RemapStrategy::Patch);
    // Row layout is pinned by `cluster_table_covers_host_death_and_recovers`:
    // 0 healthy, 2 host death (patch, checkpointed), 4 host death (wholesale).
    let healthy = &rows[0];
    let patch = &rows[2];
    let whsl = &rows[4];
    let serve = gate_serve_load();
    serve
        .check()
        .expect("gate serve workload violates an invariant");
    let runs = run_tuner(true, cache_dir)?;
    let cluster100 = runs
        .iter()
        .find(|r| r.label == "cluster-100")
        .expect("run_tuner always returns the cluster-100 machine");
    Ok(vec![
        Metric {
            name: "cluster_healthy_gflops",
            value: healthy.gflops,
        },
        Metric {
            name: "host_death_patch_overhead",
            value: patch.overhead,
        },
        Metric {
            name: "host_death_patch_blocks_moved",
            value: patch.blocks_moved as f64,
        },
        Metric {
            name: "host_death_wholesale_overhead",
            value: whsl.overhead,
        },
        Metric {
            name: "host_death_wholesale_blocks_moved",
            value: whsl.blocks_moved as f64,
        },
        Metric {
            name: "patch_volume_reduction",
            value: whsl.blocks_moved as f64 / patch.blocks_moved as f64,
        },
        Metric {
            name: "tune_cluster100_smoke_gflops",
            value: cluster100.outcome.tuned_report.gflops,
        },
        Metric {
            name: "fleet_p99_time_s",
            value: completion_percentiles(&run_fleet(&gate_fleet_options()))[1].1,
        },
        Metric {
            name: "fanout_resolution_throughput",
            value: fanout_resolution_throughput(),
        },
        // Send/recv operations the schedule-lint reference sweep
        // proves. A pure deterministic count (no wall clock): it moves
        // only when the sweep's regime or schedule coverage changes —
        // a silent shrink in verification coverage fails the gate.
        Metric {
            name: "schedule_lint_throughput",
            value: crate::schedlint::reference_sweep_ops(),
        },
        Metric {
            name: "serve_requests_per_s",
            value: serve.simulated_requests_per_s(),
        },
        Metric {
            name: "serve_hit_rate",
            value: serve.stats.hit_rate(),
        },
        Metric {
            name: "emu_block_replay_speedup",
            value: emu_block_replay_speedup(),
        },
        Metric {
            name: "parallel_des_events_per_s",
            value: parallel_des_events_per_s(),
        },
        // Performance-lab workloads: the emulated SpMV operating point
        // (bandwidth side of the roofline) and the stencil cluster's
        // exposed halo time (the new fabric pattern). Both deterministic
        // model outputs — see `crate::workloads`.
        Metric {
            name: "spmv_gflops",
            value: crate::workloads::spmv_gflops(),
        },
        Metric {
            name: "stencil_halo_exchange_s",
            value: crate::workloads::stencil_halo_exchange_s(),
        },
    ])
}

/// Renders the metrics as the `BENCH_baseline.json` artifact: one
/// metric per line so the parser (and `git diff`) stay line-oriented.
fn baseline_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{\n  \"schema\": \"phi-bench/perfgate/v1\",\n  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {:.6}{}\n",
            m.name,
            m.value,
            if i + 1 < metrics.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses a baseline produced by [`baseline_json`]. Line-based on
/// purpose — the workspace carries no JSON dependency, and the emitter
/// guarantees one `"name": value` pair per line inside `"metrics"`.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, PerfGateError> {
    let mut out = Vec::new();
    let mut in_metrics = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"metrics\"") {
            in_metrics = true;
            continue;
        }
        if !in_metrics {
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        let Some((name, value)) = t.split_once(':') else {
            return Err(PerfGateError::Malformed(t.to_string()));
        };
        let name = name.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .trim_end_matches(',')
            .parse()
            .map_err(|_| PerfGateError::Malformed(t.to_string()))?;
        out.push((name, value));
    }
    Ok(out)
}

/// The comparison of one metric against its baseline entry.
#[derive(Clone, Debug)]
struct GateLine {
    /// Metric name.
    pub name: String,
    /// Value recorded in the baseline, if the baseline has the metric.
    pub baseline: Option<f64>,
    /// Value on this tree, if the tree still produces the metric.
    pub current: Option<f64>,
    /// `current / baseline - 1`; `None` when either side is missing.
    pub delta: Option<f64>,
    /// Whether this line keeps the gate green.
    pub pass: bool,
}

/// The full gate verdict: one line per metric, most-regressed first.
#[derive(Clone, Debug)]
struct GateReport {
    /// Per-metric comparisons.
    pub lines: Vec<GateLine>,
}

impl GateReport {
    /// True iff every metric is within tolerance and neither side has
    /// metrics the other lacks.
    fn pass(&self) -> bool {
        self.lines.iter().all(|l| l.pass)
    }

    /// Renders the delta table `phi perfgate` prints.
    fn render(&self) -> String {
        let mut t = TextTable::new(["metric", "baseline", "current", "delta", "gate"]);
        for l in &self.lines {
            let f = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |x| format!("{x:.4}"));
            t.row([
                l.name.clone(),
                f(l.baseline),
                f(l.current),
                l.delta
                    .map_or_else(|| "-".to_string(), |d| format!("{:+.3}%", 100.0 * d)),
                if l.pass { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
        t.render()
    }
}

/// Compares current metrics against the baseline at `tolerance`.
/// A metric present on only one side fails the gate — a renamed or
/// dropped metric must come with a regenerated baseline.
fn compare(baseline: &[(String, f64)], current: &[Metric], tolerance: f64) -> GateReport {
    let mut lines = Vec::new();
    for m in current {
        let base = baseline.iter().find(|(n, _)| n == m.name).map(|&(_, v)| v);
        let delta = base.map(|b| if b == 0.0 { 0.0 } else { m.value / b - 1.0 });
        let pass = matches!(delta, Some(d) if d.abs() <= tolerance);
        lines.push(GateLine {
            name: m.name.to_string(),
            baseline: base,
            current: Some(m.value),
            delta,
            pass,
        });
    }
    for (n, v) in baseline {
        if !current.iter().any(|m| m.name == n) {
            lines.push(GateLine {
                name: n.clone(),
                baseline: Some(*v),
                current: None,
                delta: None,
                pass: false,
            });
        }
    }
    lines.sort_by(|a, b| {
        let key = |l: &GateLine| l.delta.map_or(f64::INFINITY, f64::abs);
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    GateReport { lines }
}

/// Runs the whole gate against the `baseline` file, smoke-tuning under
/// `cache_dir`: collect, then either regenerate the baseline (when
/// `update` is set, as `phi perfgate` does under `UPDATE_BASELINE=1`)
/// or compare against it. Returns the report text and whether the gate
/// passed.
pub(crate) fn run_gate(
    baseline: &Path,
    cache_dir: &Path,
    update: bool,
) -> Result<(String, bool), PerfGateError> {
    let metrics = collect_metrics(cache_dir)?;
    if update {
        std::fs::write(baseline, baseline_json(&metrics))
            .map_err(io_ctx(format!("writing baseline {}", baseline.display())))?;
        return Ok((
            format!(
                "perfgate: wrote {} ({} metrics)\n",
                baseline.display(),
                metrics.len()
            ),
            true,
        ));
    }
    let text = std::fs::read_to_string(baseline).map_err(io_ctx(format!(
        "reading baseline {} (UPDATE_BASELINE=1 to create it)",
        baseline.display()
    )))?;
    let recorded = parse_baseline(&text)?;
    let report = compare(&recorded, &metrics, GATE_TOLERANCE);
    let verdict = if report.pass() {
        format!(
            "perfgate: PASS — {} metrics within ±{:.0}% of {}\n",
            metrics.len(),
            100.0 * GATE_TOLERANCE,
            baseline.display()
        )
    } else {
        let failed = report.lines.iter().filter(|l| !l.pass).count();
        format!(
            "perfgate: FAIL — {failed} metric(s) outside ±{:.0}% of {} \
             (UPDATE_BASELINE=1 to accept an intentional change)\n",
            100.0 * GATE_TOLERANCE,
            baseline.display()
        )
    };
    Ok((format!("{}{verdict}", report.render()), report.pass()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        vec![
            Metric {
                name: "cluster_healthy_gflops",
                value: 107170.25,
            },
            Metric {
                name: "patch_volume_reduction",
                value: 100.0,
            },
        ]
    }

    #[test]
    fn baseline_round_trips_through_the_line_parser() {
        let json = baseline_json(&metrics());
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("cluster_healthy_gflops".to_string(), 107170.25),
                ("patch_volume_reduction".to_string(), 100.0),
            ]
        );
        assert!(parse_baseline("{\n  \"metrics\": {\n    garbage\n  }\n}\n").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_outside() {
        let m = metrics();
        let base = parse_baseline(&baseline_json(&m)).unwrap();
        assert!(compare(&base, &m, GATE_TOLERANCE).pass());
        // 0.9 % drift: still inside the ±1 % gate.
        let drifted = vec![
            Metric {
                name: "cluster_healthy_gflops",
                value: 107170.25 * 1.009,
            },
            m[1].clone(),
        ];
        assert!(compare(&base, &drifted, GATE_TOLERANCE).pass());
        // 2 % regression: outside, and sorted to the top of the table.
        let regressed = vec![
            Metric {
                name: "cluster_healthy_gflops",
                value: 107170.25 * 0.98,
            },
            m[1].clone(),
        ];
        let report = compare(&base, &regressed, GATE_TOLERANCE);
        assert!(!report.pass());
        assert_eq!(report.lines[0].name, "cluster_healthy_gflops");
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn missing_and_extra_metrics_fail_the_gate() {
        let m = metrics();
        let base = parse_baseline(&baseline_json(&m)).unwrap();
        let report = compare(&base, &m[..1], GATE_TOLERANCE);
        assert!(!report.pass());
        let one = parse_baseline(&baseline_json(&m[..1])).unwrap();
        assert!(!compare(&one, &m, GATE_TOLERANCE).pass());
    }

    #[test]
    fn collected_metrics_reproduce_and_gate_green_against_themselves() {
        let dir = std::env::temp_dir().join(format!("phi-perfgate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = collect_metrics(&dir).unwrap();
        let b = collect_metrics(&dir).unwrap();
        assert_eq!(a, b, "gate metrics must be deterministic");
        assert_eq!(a.len(), 16);
        let spmv = a.iter().find(|m| m.name == "spmv_gflops").unwrap();
        // Bandwidth-bound: a small fraction of the 17.6 GF per-core
        // peak, but nonzero — the steady state stays on the L1-hit path.
        assert!(
            spmv.value > 0.0 && spmv.value < 8.0,
            "spmv operating point drifted off the bandwidth roof: {}",
            spmv.value
        );
        let halo = a
            .iter()
            .find(|m| m.name == "stencil_halo_exchange_s")
            .unwrap();
        assert!(halo.value > 0.0, "stencil cluster exposed no halo stage");
        let hit_rate = a.iter().find(|m| m.name == "serve_hit_rate").unwrap();
        // 1200 requests over 24 unique specs: all but the first touch of
        // each key must be a hit.
        assert!(
            (hit_rate.value - (1200.0 - 24.0) / 1200.0).abs() < 1e-12,
            "hit rate drifted: {}",
            hit_rate.value
        );
        let rps = a.iter().find(|m| m.name == "serve_requests_per_s").unwrap();
        assert!(rps.value > 0.0 && rps.value.is_finite());
        let sched = a
            .iter()
            .find(|m| m.name == "schedule_lint_throughput")
            .unwrap();
        assert!(sched.value > 10_000.0, "sweep shrank to {}", sched.value);
        let p99 = a.iter().find(|m| m.name == "fleet_p99_time_s").unwrap();
        assert!(p99.value > 0.0);
        let thr = a
            .iter()
            .find(|m| m.name == "fanout_resolution_throughput")
            .unwrap();
        // Rack campaigns amplify: more events than the 3 roots per
        // plan-hour, or the fan-out stopped fanning.
        assert!(thr.value > 3.0, "throughput collapsed: {}", thr.value);
        let speedup = a
            .iter()
            .find(|m| m.name == "emu_block_replay_speedup")
            .unwrap();
        assert!(
            speedup.value >= 5.0,
            "block replay must cover >= 5x of steady state, got {}",
            speedup.value
        );
        let des = a
            .iter()
            .find(|m| m.name == "parallel_des_events_per_s")
            .unwrap();
        assert!(des.value > 0.0 && des.value.is_finite());
        let reduction = a
            .iter()
            .find(|m| m.name == "patch_volume_reduction")
            .unwrap();
        assert!(
            reduction.value >= 10.0,
            "patch must cut redistribution volume >= 10x, got {}",
            reduction.value
        );
        let base = parse_baseline(&baseline_json(&a)).unwrap();
        assert!(compare(&base, &a, GATE_TOLERANCE).pass());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
