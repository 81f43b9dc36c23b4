//! Command line.
//!
//! ```text
//! phi-wallbench --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--inject]
//! phi-wallbench run --seed <u64> [--seconds <s>] [--inject]
//! phi-wallbench compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, the one-object result the benchmark contract asks for. `run`
//! drives every workload that way, each in its own child process, and
//! merges the results; `compare` reads two such merged results.

use crate::run::{run_workload, RunConfig};
use crate::workloads::{Scale, NAMES};
use crate::{compare, orchestrate};
use std::path::PathBuf;
use std::process::ExitCode;

/// Timed seconds per workload when `run` is not told otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  phi-wallbench --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--inject]
  phi-wallbench run --seed <u64> [--seconds <s>] [--inject]
  phi-wallbench compare <A.json> <B.json>";

/// Where results, traces and scratch files go: `wallbench/` under the
/// cargo target directory of the invocation.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("wallbench")
}

/// Parsed flags of the `--workload` and `run` forms.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    inject: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("`{a}` needs {what}"))
                .map(String::as_str)
        };
        match a.as_str() {
            "--inject" => f.inject = true,
            "--workload" => {
                let w = value("a workload name")?;
                if !NAMES.contains(&w) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        NAMES.join(", ")
                    ));
                }
                f.workload = Some(w.to_string());
            }
            "--seed" => {
                let s = value("a u64 (decimal or 0x-hex)")?;
                f.seed = Some(parse_seed(s).ok_or_else(|| format!("bad seed `{s}`"))?);
            }
            "--seconds" => {
                let s = value("a number of seconds")?;
                let v: f64 = s.parse().map_err(|_| format!("bad seconds `{s}`"))?;
                if !(0.0..=3600.0).contains(&v) {
                    return Err(format!("seconds `{s}` out of range"));
                }
                f.seconds = Some(v);
            }
            "--trace" => {
                f.trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace `{other}` (0 or 1)")),
                });
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(f)
}

/// Runs the command line; the process exits with the returned code.
/// 0: everything ran and every check passed. 1: a check failed, a
/// comparison came out worse — or, under `run --inject`, every injected
/// fault was caught (non-zero by contract: a fault is present). 2: the
/// command line or the benchmark itself is broken.
pub fn main(args: Vec<String>) -> ExitCode {
    ExitCode::from(exit_status(&args))
}

/// [`main`]'s exit status as a number.
pub fn exit_status(args: &[String]) -> u8 {
    match dispatch(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("phi-wallbench: {msg}\n{USAGE}");
            2
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("run") => {
            let f = parse_flags(&args[1..])?;
            if f.workload.is_some() || f.trace.is_some() {
                return Err("`run` runs every workload, untraced then traced".to_string());
            }
            orchestrate::run_all(
                f.seed.ok_or("`run` needs --seed")?,
                f.seconds.unwrap_or(DEFAULT_SECONDS),
                f.inject,
                &out_dir(),
            )
        }
        Some(_) => {
            let f = parse_flags(args)?;
            let cfg = RunConfig {
                workload: f.workload.ok_or("--workload is required")?,
                seed: f.seed.ok_or("--seed is required")?,
                seconds: f.seconds.ok_or("--seconds is required")?,
                trace: f.trace.ok_or("--trace is required")?,
                inject: f.inject,
                scale: Scale::Full,
                out_dir: out_dir(),
            };
            let out = run_workload(&cfg)?;
            print!("{}", out.human());
            println!("{}", out.contract_line());
            Ok(out.passed())
        }
        None => Err("no command".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_parses_in_any_order() {
        let f = flags(&[
            "--trace",
            "1",
            "--seconds",
            "8",
            "--seed",
            "0x10",
            "--workload",
            "fleet_mc",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("fleet_mc"));
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(16), Some(8.0), Some(true))
        );
        assert!(!f.inject);
    }

    #[test]
    fn garbage_is_rejected_with_a_reason() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "twelve"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
        let to_vec = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&to_vec(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&to_vec(&["run"])).is_err());
        assert!(dispatch(&to_vec(&["--workload", "fleet_mc", "--seed", "1"])).is_err());
    }
}
