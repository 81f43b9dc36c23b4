//! Autotuner driver: runs `phi-tune` on the paper's two reference
//! machines (the Table II single node and the Table III 100-node
//! cluster) and emits `BENCH_tune.json` plus a per-candidate score
//! table. I/O failures surface as [`TuneBenchError`] values, never
//! panics.

use crate::TextTable;
use phi_tune::{tune_cached, MachineConfig, TuneCache, TuneOptions, TuneOutcome, TuneSpace};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A failure in the tune driver, carried as a value so the binary can
/// exit with a message instead of a panic backtrace.
#[derive(Debug)]
pub enum TuneBenchError {
    /// An unrecognized command-line argument.
    BadArg(String),
    /// Filesystem I/O failed (cache directory or JSON output).
    Io {
        /// What the driver was doing when the error occurred.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for TuneBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneBenchError::BadArg(a) => {
                write!(f, "unrecognized argument `{a}` (expected --smoke, --out <path> or --cache-dir <path>)")
            }
            TuneBenchError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for TuneBenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneBenchError::BadArg(_) => None,
            TuneBenchError::Io { source, .. } => Some(source),
        }
    }
}

fn io_ctx(context: impl Into<String>) -> impl FnOnce(io::Error) -> TuneBenchError {
    let context = context.into();
    move |source| TuneBenchError::Io { context, source }
}

/// One tuned machine: its label and the full tuning outcome.
#[derive(Clone, Debug)]
pub struct TuneRun {
    /// Machine label used in reports and JSON ("single-node", …).
    pub label: &'static str,
    /// The tuner's outcome on that machine.
    pub outcome: TuneOutcome,
}

/// Runs the tuner on both paper reference machines. `smoke` restricts
/// the search to the coarse grid (the CI-friendly mode); the cache
/// directory makes a second invocation a pure cache hit.
pub fn run_tuner(smoke: bool, cache_dir: &Path) -> Result<Vec<TuneRun>, TuneBenchError> {
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
pub fn write_bench_json(path: &Path, runs: &[TuneRun]) -> Result<(), TuneBenchError> {
    std::fs::write(path, bench_json(runs)).map_err(io_ctx(format!("writing {}", path.display())))
}

/// Renders the summary table plus each machine's per-candidate score
/// table.
pub fn render(runs: &[TuneRun]) -> String {
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

/// Parsed command line of the `tune` binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneArgs {
    /// Coarse grid only (CI smoke mode).
    pub smoke: bool,
    /// Where to write the JSON artifact.
    pub out: PathBuf,
    /// Tuning-cache directory.
    pub cache_dir: PathBuf,
}

impl Default for TuneArgs {
    fn default() -> Self {
        TuneArgs {
            smoke: false,
            out: PathBuf::from("BENCH_tune.json"),
            cache_dir: PathBuf::from("target/tune-cache"),
        }
    }
}

impl TuneArgs {
    /// Parses `--smoke`, `--out <path>` and `--cache-dir <path>`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, TuneBenchError> {
        let mut out = TuneArgs::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--smoke" => out.smoke = true,
                "--out" => match args.next() {
                    Some(p) => out.out = PathBuf::from(p),
                    None => return Err(TuneBenchError::BadArg(a)),
                },
                "--cache-dir" => match args.next() {
                    Some(p) => out.cache_dir = PathBuf::from(p),
                    None => return Err(TuneBenchError::BadArg(a)),
                },
                _ => return Err(TuneBenchError::BadArg(a)),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok = TuneArgs::parse(
            ["--smoke", "--out", "x.json", "--cache-dir", "c"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert!(ok.smoke);
        assert_eq!(ok.out, PathBuf::from("x.json"));
        assert_eq!(ok.cache_dir, PathBuf::from("c"));
        assert!(TuneArgs::parse(["--bogus".to_string()].into_iter()).is_err());
        assert!(TuneArgs::parse(["--out".to_string()].into_iter()).is_err());
    }

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
