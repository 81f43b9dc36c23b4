//! Autotuner driver: runs `phi-tune` on the paper's two reference
//! machines (the Table II single node and the Table III 100-node
//! cluster) and emits `BENCH_tune.json` plus a per-candidate score
//! table. I/O failures surface as [`IoError`] values, never panics.

use crate::TextTable;
use phi_tune::{tune_cached, MachineConfig, TuneCache, TuneOptions, TuneOutcome, TuneSpace};
use std::fmt;
use std::io;
use std::path::Path;

/// An I/O failure of the tune driver (cache directory, JSON output),
/// and what was being done.
#[derive(Debug)]
pub(crate) struct IoError {
    context: String,
    source: io::Error,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

/// Tags an `io::Error` with what was being done when it occurred.
pub(crate) fn io_ctx(context: impl Into<String>) -> impl FnOnce(io::Error) -> IoError {
    let context = context.into();
    move |source| IoError { context, source }
}

/// One tuned machine: its label and the full tuning outcome.
#[derive(Clone, Debug)]
pub(crate) struct TuneRun {
    /// Machine label used in reports and JSON ("single-node", …).
    pub label: &'static str,
    /// The tuner's outcome on that machine.
    pub outcome: TuneOutcome,
}

/// Runs the tuner on both paper reference machines. `smoke` restricts
/// the search to the coarse grid (the quick mode); the cache
/// directory makes a second invocation a pure cache hit.
pub(crate) fn run_tuner(smoke: bool, cache_dir: &Path) -> Result<Vec<TuneRun>, IoError> {
    let cache = TuneCache::open(cache_dir).map_err(io_ctx(format!(
        "opening tune cache {}",
        cache_dir.display()
    )))?;
    let mut runs = Vec::new();
    for (label, machine, sample_every) in [
        ("single-node", MachineConfig::paper_single_node(), 16),
        ("cluster-100", MachineConfig::paper_cluster_100(), 64),
    ] {
        let space = TuneSpace::coarse(&machine);
        let opts = TuneOptions {
            coarse_only: smoke,
            sample_every,
            ..TuneOptions::default()
        };
        let outcome = tune_cached(&machine, &space, &opts, &cache)
            .map_err(io_ctx(format!("tuning {label}")))?;
        runs.push(TuneRun { label, outcome });
    }
    Ok(runs)
}

fn json_f64(x: f64) -> String {
    // JSON has no NaN/Inf; the tuner never produces them, but guard
    // anyway so the artifact always parses.
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders the runs as the `BENCH_tune.json` artifact: per machine the
/// config fingerprint, candidate count, best and baseline GFLOPS and
/// wall time.
fn bench_json(runs: &[TuneRun]) -> String {
    let mut s = String::from("{\n  \"schema\": \"phi-bench/tune/v1\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let o = &r.outcome;
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"fingerprint\": \"{:#018x}\", \"candidates\": {}, \
             \"best_gflops\": {}, \"baseline_gflops\": {}, \"wall_time_s\": {}, \
             \"cache_hit\": {}, \"nb\": {}, \"grid\": [{}, {}]}}{}\n",
            r.label,
            o.fingerprint,
            o.candidates_evaluated,
            json_f64(o.tuned_report.gflops),
            json_f64(o.baseline_report.gflops),
            json_f64(o.wall_time_s),
            o.cache_hit,
            o.tuned.nb,
            o.tuned.grid.0,
            o.tuned.grid.1,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes the JSON artifact to `path`.
pub(crate) fn write_bench_json(path: &Path, runs: &[TuneRun]) -> Result<(), IoError> {
    std::fs::write(path, bench_json(runs)).map_err(io_ctx(format!("writing {}", path.display())))
}

/// Renders the summary table plus each machine's per-candidate score
/// table.
pub(crate) fn render(runs: &[TuneRun]) -> String {
    let mut t = TextTable::new([
        "machine", "NB", "grid", "config", "GFLOPS", "baseline", "Δ", "cands", "cache", "wall(s)",
    ]);
    for r in runs {
        let o = &r.outcome;
        let c = o.tuned.candidate();
        t.row([
            r.label.to_string(),
            o.tuned.nb.to_string(),
            format!("{}x{}", o.tuned.grid.0, o.tuned.grid.1),
            c.describe(),
            format!("{:.0}", o.tuned_report.gflops),
            format!("{:.0}", o.baseline_report.gflops),
            format!(
                "{:+.2}%",
                100.0 * (o.tuned_report.gflops / o.baseline_report.gflops - 1.0)
            ),
            o.candidates_evaluated.to_string(),
            if o.cache_hit { "hit" } else { "miss" }.to_string(),
            format!("{:.2}", o.wall_time_s),
        ]);
    }
    let mut s = t.render();
    for r in runs {
        s.push_str(&format!("\n{} — top candidates:\n", r.label));
        let mut ct = TextTable::new(["#", "config", "GFLOPS", "vs best"]);
        let best = r.outcome.table.first().map(|sc| sc.report.gflops);
        for (i, sc) in r.outcome.table.iter().enumerate().take(8) {
            let rel = best.map_or(0.0, |b| 100.0 * (sc.report.gflops / b - 1.0));
            ct.row([
                (i + 1).to_string(),
                sc.candidate.describe(),
                format!("{:.0}", sc.report.gflops),
                format!("{rel:+.2}%"),
            ]);
        }
        s.push_str(&ct.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_well_formed_json_and_caches() {
        let dir = std::env::temp_dir().join(format!("phi-bench-tune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runs = run_tuner(true, &dir).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "single-node");
        assert_eq!(runs[1].label, "cluster-100");
        for r in &runs {
            assert!(!r.outcome.cache_hit);
            assert!(r.outcome.tuned_report.gflops >= r.outcome.baseline_report.gflops);
        }
        let json = bench_json(&runs);
        assert!(json.contains("\"schema\": \"phi-bench/tune/v1\""));
        assert!(json.contains("\"label\": \"single-node\""));
        assert!(json.contains("\"label\": \"cluster-100\""));
        assert!(json.contains("\"fingerprint\": \"0x"));
        assert!(json.contains("\"best_gflops\""));
        assert!(json.contains("\"baseline_gflops\""));
        assert!(json.contains("\"wall_time_s\""));
        // Second invocation: pure cache hit, same tuned config.
        let again = run_tuner(true, &dir).unwrap();
        for (a, b) in runs.iter().zip(&again) {
            assert!(b.outcome.cache_hit, "{} must hit the cache", b.label);
            assert_eq!(a.outcome.tuned, b.outcome.tuned);
        }
        let text = render(&again);
        assert!(text.contains("hit"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
