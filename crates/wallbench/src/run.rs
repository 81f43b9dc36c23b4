//! Runs one workload in this process: set-up, timed passes, checks,
//! canary, and the result in the three forms it is consumed in (human
//! lines, the one-line contract object, the detail file `run` merges).

use crate::json::{obj, Value};
use crate::spec::{work_unit, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::timing::{canary_spin_ms, Stopwatch, Tracer};
use crate::workloads::{self, Env, Layers, Pass, Scale};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Set-ups per run: `setup_s` is their median, so one cold start (page
/// faults, lazy statics) does not decide it.
const SETUPS: usize = 3;
/// Fewest timed passes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Canary drift beyond which a run is marked disturbed, percent.
const DISTURBED_PCT: f64 = 10.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Must-fail self-test.
    pub inject: bool,
    /// Problem-size selector (always `Full` from the command line).
    pub scale: Scale,
    /// Where trace and detail files go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over passes (or spans) with quartiles and sample count.
    pub value: Summary,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Checked units over all passes.
    pub attempted: u64,
    /// Failure reasons (one per failed unit).
    pub failures: Vec<String>,
    /// Digest of the simulated outputs (identical in every pass).
    pub sim_digest: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Self time per span name over the traced passes, seconds.
    pub self_times: BTreeMap<&'static str, f64>,
    /// Canary before the workload, ms.
    pub canary_before_ms: f64,
    /// Canary after the workload, ms.
    pub canary_after_ms: f64,
}

/// `T = min(nproc, 2)`.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs passes until `seconds` have gone by, at least `min` of them.
fn run_passes(
    w: &mut dyn workloads::Workload,
    tr: &mut Tracer,
    seconds: f64,
    min: usize,
    first_pass_id: u32,
) -> Vec<Pass> {
    let total = Stopwatch::start();
    let mut passes = Vec::new();
    while passes.len() < min || total.elapsed_s() < seconds {
        tr.set_pass(first_pass_id + passes.len() as u32);
        let id = tr.begin("pass");
        passes.push(w.pass(tr));
        tr.end(id);
    }
    tr.set_pass(0);
    passes
}

fn rate(passes: &[Pass]) -> Summary {
    let rates: Vec<f64> = passes.iter().map(|p| p.work / p.seconds).collect();
    summarize(&rates)
}

/// Runs the workload named in `cfg`. `Err` means the benchmark itself
/// could not run (unknown workload, unreadable `/proc`, a metric the
/// registry and the workload disagree on) — distinct from a run whose
/// checks failed, which is an `Ok` outcome with failures.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = cfg
        .out_dir
        .join(format!("tmp-{}-{}", cfg.workload, std::process::id()));
    let env = Env {
        seed: cfg.seed,
        scale: cfg.scale,
        inject: cfg.inject,
        threads: bench_threads(),
        scratch: scratch.clone(),
    };
    let canary_before_ms = canary_spin_ms();

    // Set-up: input generation plus one untimed warm-up pass, repeated.
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut all: Vec<Pass> = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let sw = Stopwatch::start();
        let mut w = workloads::build(&cfg.workload, &env)
            .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
        all.push(w.pass(&mut off));
        setup_s.push(sw.elapsed_s());
        built = Some(w);
    }
    let mut w = built.expect("SETUPS >= 1");

    let mut tr = Tracer::new(cfg.trace);
    let mut layers = Layers::default();
    let timed = if cfg.trace {
        // A third of the time untraced, as the base of the overhead
        // figure; the rest traced.
        let base = run_passes(w.as_mut(), &mut off, cfg.seconds / 3.0, 2, 0);
        let traced = run_passes(w.as_mut(), &mut tr, cfg.seconds * 2.0 / 3.0, 2, 1);
        w.layers(&mut tr, &mut layers);
        layers.exact(
            "bench.trace.overhead_pct",
            (rate(&base).median / rate(&traced).median - 1.0) * 100.0,
        );
        all.extend(base);
        traced
    } else {
        run_passes(w.as_mut(), &mut off, cfg.seconds, MIN_PASSES, 1)
    };
    drop(w);
    let _ = std::fs::remove_dir_all(&scratch);
    let canary_after_ms = canary_spin_ms();

    let mut out = Outcome {
        workload: cfg.workload.clone(),
        trace: cfg.trace,
        attempted: 0,
        failures: Vec::new(),
        sim_digest: all[0].sim_digest,
        metrics: Vec::new(),
        self_times: tr.self_times(),
        canary_before_ms,
        canary_after_ms,
    };
    out.metrics = if cfg.trace {
        layers.exact("bench.canary.spin_ms", canary_before_ms);
        layers.exact("bench.canary.drift_pct", out.drift_pct());
        assemble_layers(&cfg.workload, layers)?
    } else {
        end_to_end(&timed, &setup_s)?
    };
    all.extend(timed);
    for (i, p) in all.iter().enumerate() {
        // The digest comparison is one more checked unit per pass.
        out.attempted += p.attempted + 1;
        out.failures.extend(p.failures.iter().cloned());
        if p.sim_digest != out.sim_digest {
            out.failures.push(format!(
                "pass {i}: simulated outputs differ from the first pass ({:#018x} vs {:#018x})",
                p.sim_digest, out.sim_digest
            ));
        }
    }
    write_files(cfg, &out, &tr)?;
    Ok(out)
}

fn end_to_end(timed: &[Pass], setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "work_per_s" => rate(timed),
                "peak_rss_mb" => Summary::exact(peak_rss_mb()?),
                "setup_s" => summarize(setup_s),
                other => return Err(format!("end-to-end metric `{other}` has no measurement")),
            };
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
        })
        .collect()
}

/// Orders the collected layer metrics as the registry does, reads 0 for
/// the layers this workload does not exercise, and refuses a mismatch
/// between what the workload emitted and what the registry says it owns.
fn assemble_layers(workload: &str, layers: Layers) -> Result<Vec<Metric>, String> {
    let mut got: BTreeMap<&str, Summary> = BTreeMap::new();
    for (name, s) in layers.0 {
        if got.insert(name, s).is_some() {
            return Err(format!("{workload}: layer metric `{name}` emitted twice"));
        }
    }
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let value = match (got.remove(m.name), m.owned_by(workload)) {
            (Some(s), true) => s,
            (None, false) => Summary::exact(0.0),
            (None, true) => return Err(format!("{workload}: did not emit `{}`", m.name)),
            (Some(_), false) => {
                return Err(format!(
                    "{workload}: emitted `{}`, owned by {}",
                    m.name, m.owner
                ))
            }
        };
        out.push(Metric {
            name: m.name,
            unit: m.unit,
            value,
        });
    }
    match got.keys().next() {
        Some(name) => Err(format!("{workload}: emitted unregistered `{name}`")),
        None => Ok(out),
    }
}

fn write_files(cfg: &RunConfig, out: &Outcome, tr: &Tracer) -> Result<(), String> {
    let io = |p: &Path, e: std::io::Error| format!("writing {}: {e}", p.display());
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| io(&cfg.out_dir, e))?;
    if cfg.trace {
        let p = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        std::fs::write(&p, tr.chrome_json(&cfg.workload)).map_err(|e| io(&p, e))?;
    }
    let p = detail_path(&cfg.out_dir, &cfg.workload, cfg.trace);
    std::fs::write(&p, out.detail_json().render() + "\n").map_err(|e| io(&p, e))
}

/// Where a run leaves the detail file `run` merges into `result.json`.
pub fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

impl Outcome {
    /// Failed checked units.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Whether every checked unit passed (decides the exit status).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Canary drift over the run, percent.
    pub fn drift_pct(&self) -> f64 {
        (self.canary_after_ms / self.canary_before_ms - 1.0) * 100.0
    }

    /// Whether the machine changed speed under the run.
    pub fn disturbed(&self) -> bool {
        self.drift_pct().abs() > DISTURBED_PCT
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([
                    ("value", Value::Num(m.value.median)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        });
        obj([
            ("correct", Value::Bool(self.passed())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", obj(metrics)),
        ])
        .render()
    }

    /// Everything, for `result.json`.
    pub fn detail_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([
                    ("unit", Value::Str(m.unit.to_string())),
                    ("median", Value::Num(m.value.median)),
                    ("q1", Value::Num(m.value.q1)),
                    ("q3", Value::Num(m.value.q3)),
                    ("n", Value::Num(m.value.n as f64)),
                ]),
            )
        });
        obj([
            ("workload", Value::Str(self.workload.clone())),
            ("trace", Value::Bool(self.trace)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            (
                "failed_share",
                Value::Num(self.failed() as f64 / self.attempted as f64),
            ),
            (
                "failures",
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "sim_digest",
                Value::Str(format!("{:#018x}", self.sim_digest)),
            ),
            ("canary_before_ms", Value::Num(self.canary_before_ms)),
            ("canary_after_ms", Value::Num(self.canary_after_ms)),
            ("disturbed", Value::Bool(self.disturbed())),
            ("metrics", obj(metrics)),
        ])
    }

    /// `name unit value (n, q1, q3)` lines, plus the self-time table of
    /// a traced run.
    pub fn human(&self) -> String {
        let (unit, alias) = work_unit(&self.workload);
        let mut s = format!(
            "# {} ({}), sim_digest {:#018x}, {} checked, {} failed, canary {:.3} -> {:.3} ms{}\n",
            self.workload,
            if self.trace { "traced" } else { "untraced" },
            self.sim_digest,
            self.attempted,
            self.failed(),
            self.canary_before_ms,
            self.canary_after_ms,
            if self.disturbed() { " DISTURBED" } else { "" },
        );
        for f in &self.failures {
            s.push_str(&format!("FAILED {f}\n"));
        }
        for m in &self.metrics {
            let owned = PER_LAYER
                .iter()
                .find(|l| l.name == m.name)
                .is_none_or(|l| l.owned_by(&self.workload));
            if !owned {
                continue;
            }
            let v = m.value;
            s.push_str(&format!(
                "{} {} {} ({}, {}, {})",
                m.name, m.unit, v.median, v.n, v.q1, v.q3
            ));
            if m.name == "work_per_s" {
                s.push_str(&format!("  # {unit}s per host second ({alias})"));
            }
            s.push('\n');
        }
        if !self.self_times.is_empty() {
            let total: f64 = self.self_times.values().sum();
            s.push_str("# self time over the traced passes\n");
            for (name, sec) in &self.self_times {
                s.push_str(&format!(
                    "#   {name:<32} {:>10.3} ms {:>5.1} %\n",
                    sec * 1e3,
                    100.0 * sec / total
                ));
            }
        }
        s
    }
}
