//! The seven workloads. Each module builds its inputs from the seed,
//! runs one *pass* (the unit that is timed and checked), and — in the
//! traced run only — measures its layers in isolation.

use crate::stats::{summarize, Summary};
use crate::timing::Tracer;
use phi_faults::FaultRng;
use phi_serve::Fnv;

pub mod des_models;
pub mod emu_dgemm;
pub mod emu_sparse;
pub mod fleet_mc;
pub mod hpl_solve;
pub mod serve_mix;
pub mod tune_cold;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 7] = [
    "hpl_solve",
    "emu_dgemm",
    "emu_sparse",
    "des_models",
    "tune_cold",
    "fleet_mc",
    "serve_mix",
];

/// Problem-size selector. The binary always runs [`Scale::Full`]; the
/// fiftieth-size variant exists so the crate's own tests can exercise
/// every workload in seconds, and is deliberately not reachable from the
/// command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's fixed sizes.
    Full,
    /// About one fiftieth of the work (tests only).
    Fiftieth,
}

impl Scale {
    /// `full` at full size, `small` in tests.
    pub fn pick<T>(self, full: T, small: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Fiftieth => small,
        }
    }

    /// A repetition count: `full`, or a fiftieth of it (at least one).
    pub fn reps(self, full: usize) -> usize {
        self.pick(full, (full / 50).max(1))
    }

    /// A microbenchmark time budget, seconds.
    pub fn budget(self, full_s: f64) -> f64 {
        self.pick(full_s, full_s / 50.0)
    }
}

/// What every workload is built from.
#[derive(Clone, Debug)]
pub struct Env {
    /// Drives every generated input.
    pub seed: u64,
    /// Problem-size selector.
    pub scale: Scale,
    /// Must-fail self-test: corrupt one output so a check has to fire.
    pub inject: bool,
    /// `T = min(nproc, 2)`: no workload runs more runnable threads.
    pub threads: usize,
    /// Scratch directory for workloads that touch the file system.
    pub scratch: std::path::PathBuf,
}

/// Outcome of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed part of the pass (checks excluded).
    pub seconds: f64,
    /// Units of work the timed part did (GFLOP, simulated Mcycles, runs,
    /// candidates, seeds, requests — fixed per workload).
    pub work: f64,
    /// Checked units.
    pub attempted: u64,
    /// Checked units that failed, with the reason of each.
    pub failures: Vec<String>,
    /// FNV over every simulated output of the pass; must not differ
    /// between passes, and a simulator-speed PR must leave it unchanged.
    pub sim_digest: u64,
}

impl Pass {
    /// Records one checked unit; `problem` is `Some(reason)` when it
    /// failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failures.push(p);
        }
    }
}

/// Collector of per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, Summary)>);

impl Layers {
    /// A measured distribution.
    pub fn put(&mut self, name: &'static str, s: Summary) {
        self.0.push((name, s));
    }

    /// An exact count or deterministic simulated statistic.
    pub fn exact(&mut self, name: &'static str, v: f64) {
        self.put(name, Summary::exact(v));
    }

    /// Median duration of the spans called `span` in the traced passes,
    /// in units of `1 / per_s` seconds (1e3 → ms, 1e6 → µs).
    pub fn from_spans(&mut self, name: &'static str, tr: &Tracer, span: &str, per_s: f64) {
        let secs = tr.pass_seconds(span);
        if !secs.is_empty() {
            self.put(name, summarize(&secs).map(|s| s * per_s));
        }
    }
}

/// One workload, built by its module's `build`.
pub trait Workload {
    /// Runs one pass. Calls into the layers are wrapped in spans of `tr`.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;

    /// Traced run only: isolated microbenchmarks and exact counters of
    /// the layers this workload exercises, after the traced passes.
    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers);
}

/// Builds the named workload from `env` (input generation; part of
/// `setup_s`).
pub fn build(name: &str, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hpl_solve" => Box::new(hpl_solve::build(env)),
        "emu_dgemm" => Box::new(emu_dgemm::build(env)),
        "emu_sparse" => Box::new(emu_sparse::build(env)),
        "des_models" => Box::new(des_models::build(env)),
        "tune_cold" => Box::new(tune_cold::build(env)),
        "fleet_mc" => Box::new(fleet_mc::build(env)),
        "serve_mix" => Box::new(serve_mix::build(env)),
        _ => return None,
    })
}

/// Folds `f64`s into a digest by their exact bit patterns.
pub(crate) fn fold_f64s(h: &mut Fnv, xs: &[f64]) {
    for x in xs {
        h.write_u64(x.to_bits());
    }
}

/// Uniform in `0..n` (`n > 0`), from the high bits of the workspace's
/// standard LCG — its low bits are weak, so no `% n`.
pub(crate) fn below(rng: &mut FaultRng, n: usize) -> usize {
    (rng.unit() * n as f64) as usize
}

/// Fisher–Yates shuffle.
pub(crate) fn shuffle<T>(rng: &mut FaultRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, below(rng, i + 1));
    }
}
