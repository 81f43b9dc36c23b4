//! Load generator for the `phi-serve` campaign service: replays
//! thousands of concurrent requests (cold, then warm) against one
//! service and reports throughput, hit rate, p99 latency and the
//! per-phase determinism digests, ending with a PASS/FAIL verdict over
//! the service invariants (single-flight dedup, zero warm executions,
//! byte-identical hit path).
//!
//! ```text
//! serve [--requests N] [--space N] [--workers T] [--clients T] \
//!       [--seed0 SEED] [--store DIR] [--out FILE]
//! ```
//!
//! The digests are byte-identical at any `--workers`/`--clients` value;
//! only the wall-clock columns vary between runs.

use phi_bench::serve::{serve_load_render, ServeLoadOptions};
use std::process::ExitCode;

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let mut opts = ServeLoadOptions::default();
    let mut out_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.requests = n,
                _ => {
                    eprintln!("serve: --requests needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--space" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.space = n,
                _ => {
                    eprintln!("serve: --space needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => opts.workers = t,
                None => {
                    eprintln!("serve: --workers needs an integer (0 = auto)");
                    return ExitCode::FAILURE;
                }
            },
            "--clients" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) if t > 0 => opts.clients = t,
                _ => {
                    eprintln!("serve: --clients needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed0" => match args.next().as_deref().and_then(parse_seed) {
                Some(s) => opts.seed0 = s,
                None => {
                    eprintln!("serve: --seed0 needs a u64 (decimal or 0x-hex)");
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match args.next() {
                Some(p) => opts.store_dir = Some(p.into()),
                None => {
                    eprintln!("serve: --store needs a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("serve: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("serve: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = serve_load_render(&opts);
    print!("{report}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.contains("serve-load invariants: PASS") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
