//! `run`: every workload, each in its own child process of this binary
//! (so `peak_rss_mb` and cache warmth are per workload), one at a time,
//! untraced then traced; merged into `result.json` with the machine
//! fingerprint.

use crate::json::{obj, parse, Value};
use crate::run::{bench_threads, detail_path};
use crate::workloads::NAMES;
use std::path::Path;
use std::process::Command;

/// Workloads `--inject` corrupts an output of.
pub const INJECTABLE: [&str; 4] = ["hpl_solve", "emu_dgemm", "fleet_mc", "serve_mix"];

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8(out.stdout)
            .ok()?
            .lines()
            .next()?
            .to_string(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were taken on: they compare only against a result
/// with the same fingerprint.
fn fingerprint(seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = first_line_of(Command::new("git").args(["rev-parse", "--short", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        ("nproc", Value::Num(nproc as f64)),
        ("threads", Value::Num(bench_threads() as f64)),
        ("cpu", Value::Str(cpu_model())),
        ("rustc", Value::Str(env!("WALLBENCH_RUSTC").to_string())),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("commit", Value::Str(commit)),
        ("seed", Value::Str(seed.to_string())),
        ("seconds", Value::Num(seconds)),
    ])
}

/// Runs one workload in a child process and reads back its detail file.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: bool,
    out_dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if inject {
        cmd.arg("--inject");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    // 0: clean; 1: checks failed (reported through the detail file).
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} run ended with {status}"));
    }
    let path = detail_path(out_dir, workload, trace);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed(detail: &Value) -> f64 {
    detail.get("failed").and_then(Value::as_f64).unwrap_or(0.0)
}

fn is_true(detail: &Value, key: &str) -> bool {
    detail.get(key) == Some(&Value::Bool(true))
}

/// The `run` command. `Ok(true)`: all ran, no check failed. In inject
/// mode the sense follows the workspace's `--inject` idiom: `Ok(false)`
/// (non-zero exit) when every injected fault was caught, `Ok(true)` when
/// one slipped through — CI inverts the status.
pub fn run_all(seed: u64, seconds: f64, inject: bool, out_dir: &Path) -> Result<bool, String> {
    if inject {
        let mut caught = 0;
        for w in INJECTABLE {
            let d = child(w, seed, seconds, false, true, out_dir)?;
            let share = d.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
            if failed(&d) > 0.0 && share > 0.0 {
                caught += 1;
            } else {
                eprintln!("wallbench --inject: the fault injected into {w} was NOT caught");
            }
        }
        println!(
            "wallbench --inject: {caught}/{} injected faults caught",
            INJECTABLE.len()
        );
        return Ok(caught != INJECTABLE.len());
    }

    let mut workloads = Vec::new();
    let (mut any_failed, mut disturbed) = (false, false);
    for w in NAMES {
        let e2e = child(w, seed, seconds, false, false, out_dir)?;
        let layers = child(w, seed, seconds, true, false, out_dir)?;
        any_failed |= failed(&e2e) > 0.0 || failed(&layers) > 0.0;
        disturbed |= is_true(&e2e, "disturbed") || is_true(&layers, "disturbed");
        workloads.push((w, obj([("end_to_end", e2e), ("per_layer", layers)])));
    }
    let result = obj([
        ("schema", Value::Str("phi-wallbench/result/v1".to_string())),
        ("fingerprint", fingerprint(seed, seconds)),
        ("disturbed", Value::Bool(disturbed)),
        ("workloads", obj(workloads)),
    ]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "wallbench: wrote {}{}{}",
        path.display(),
        if disturbed {
            " (DISTURBED: the canary drifted more than 10 % during a workload)"
        } else {
            ""
        },
        if any_failed { " — CHECKS FAILED" } else { "" }
    );
    Ok(!any_failed)
}
