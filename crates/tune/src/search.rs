//! The two-phase search: coarse grid → coordinate descent with
//! successive halving → calibrated re-score of the finalists.

use crate::space::{Candidate, CandidateKey, MachineConfig, TuneSpace};
use crate::{cache, TuneRng};
use phi_hpl::hybrid::{simulate_cluster, simulate_cluster_calibrated, Lookahead};
use phi_hpl::{GigaflopsReport, HplDat};
use std::collections::BTreeSet;
// lint:allow(seed-bypass): wall clock feeds progress reporting only,
// never a tuning decision — scores replay bit-for-bit from the seed.
use std::time::Instant;

/// ε of the selection rule: among finalists within this fraction of the
/// best score (and no slower than the paper baseline), the smallest NB
/// wins.
const EPSILON: f64 = 0.01;

/// Rows kept in the persisted score table.
const MAX_TABLE: usize = 16;

/// Finalists carried out of the coarse phase.
const FINALISTS: usize = 8;

/// Knobs of a tuning run. All defaults are deterministic; `threads`
/// only changes wall time, never the result (evaluations merge by
/// index). Every other field is part of the cache key.
#[derive(Clone, Copy, Debug)]
pub struct TuneOptions {
    /// Seed of the refinement proposals.
    pub seed: u64,
    /// Worker threads (0 = auto: available parallelism, capped at 8).
    pub threads: usize,
    /// Coordinate-descent rounds (each halves the finalist set).
    pub refine_rounds: usize,
    /// Stage-sampling cadence of the calibrated re-score.
    pub sample_every: usize,
    /// Smoke mode: coarse grid only, no refinement, no calibrated pass.
    pub coarse_only: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            seed: 0x2013_0522, // the paper's conference date
            threads: 0,
            refine_rounds: 2,
            sample_every: 16,
            coarse_only: false,
        }
    }
}

/// A candidate with the report that scored it.
#[derive(Clone, Debug)]
pub struct ScoredCandidate {
    /// The configuration point.
    pub candidate: Candidate,
    /// Its simulated result ([`GigaflopsReport`], HPL conventions).
    pub report: GigaflopsReport,
}

/// The winning configuration, in a form that round-trips through the
/// standard `HPL.dat` layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedConfig {
    /// Problem size the tuning targeted.
    pub n: usize,
    /// Chosen panel width.
    pub nb: usize,
    /// Chosen process grid.
    pub grid: (usize, usize),
    /// Chosen look-ahead scheme.
    pub lookahead: Lookahead,
    /// Chosen work division.
    pub division: phi_hpl::WorkDivision,
    /// Chosen broadcast scheme.
    pub bcast: phi_fabric::BcastScheme,
}

impl TunedConfig {
    /// Packs a winning candidate.
    pub(crate) fn from_candidate(n: usize, c: &Candidate) -> Self {
        Self {
            n,
            nb: c.nb,
            grid: c.grid,
            lookahead: c.lookahead,
            division: c.division,
            bcast: c.bcast,
        }
    }

    /// Back to a [`Candidate`].
    pub fn candidate(&self) -> Candidate {
        Candidate {
            nb: self.nb,
            lookahead: self.lookahead,
            division: self.division,
            bcast: self.bcast,
            grid: self.grid,
        }
    }

    /// The tuned plan as an [`HplDat`] — `dat.render()` emits the
    /// standard input file, and parsing it back recovers N, NB, the
    /// grid and the look-ahead depth.
    pub fn hpl_dat(&self) -> HplDat {
        HplDat {
            ns: vec![self.n],
            nbs: vec![self.nb],
            grids: vec![self.grid],
            depth: match self.lookahead {
                Lookahead::None => 0,
                Lookahead::Basic => 1,
                Lookahead::Pipelined => 2,
            },
        }
    }
}

/// Everything a tuning run produces.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Cache key: FNV over machine fingerprint, space signature, the
    /// result-shaping options and tuner version.
    pub fingerprint: u64,
    /// The machine tuned for.
    pub machine: MachineConfig,
    /// The winning configuration.
    pub tuned: TunedConfig,
    /// The winner's score (calibrated unless `coarse_only`).
    pub tuned_report: GigaflopsReport,
    /// The paper's hand-set configuration on this machine.
    pub baseline: Candidate,
    /// The baseline's score at the same fidelity as the winner's.
    pub baseline_report: GigaflopsReport,
    /// Total candidate evaluations across all phases.
    pub candidates_evaluated: usize,
    /// Final score table, best first (top `MAX_TABLE` rows).
    pub table: Vec<ScoredCandidate>,
    /// Whether this outcome was served from the tuning cache.
    pub cache_hit: bool,
    /// Wall-clock seconds the run (or cache load) took.
    pub wall_time_s: f64,
}

#[derive(Clone, Copy, Debug)]
enum Fidelity {
    Analytic,
    Calibrated { sample_every: usize },
}

fn eval_one(c: &Candidate, machine: &MachineConfig, fid: Fidelity) -> GigaflopsReport {
    let cfg = c.config(machine);
    match fid {
        Fidelity::Analytic => simulate_cluster(&cfg, false).report,
        Fidelity::Calibrated { sample_every } => {
            simulate_cluster_calibrated(&cfg, sample_every).report
        }
    }
}

/// Thread-striped, deterministically merged map over `0..count`:
/// thread `t` takes indices `t, t + T, t + 2T, …` (striping balances a
/// cost gradient along the index) and results land in their input
/// slots, so the output is independent of `T` and of thread scheduling.
/// `threads == 0` means auto: available parallelism, capped at 8.
pub fn striped_map<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let nthreads = if threads == 0 { auto } else { threads }.min(count).max(1);
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                s.spawn(move || {
                    (t..count)
                        .step_by(nthreads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("striped_map worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("slot evaluated"))
        .collect()
}

/// Parallel candidate evaluation, merged by index.
fn eval_parallel(
    cands: &[Candidate],
    machine: &MachineConfig,
    threads: usize,
    fid: Fidelity,
) -> Vec<GigaflopsReport> {
    striped_map(cands.len(), threads, |i| eval_one(&cands[i], machine, fid))
}

/// Coordinate-descent proposals around a finalist: NB half/quarter
/// steps of the coarse lattice, one seeded NB probe, and ±0.05 on a
/// static split fraction.
fn neighbors(c: &Candidate, machine: &MachineConfig, rng: &mut TuneRng) -> Vec<Candidate> {
    let mut out = Vec::new();
    let push_nb = |nb: i64, out: &mut Vec<Candidate>| {
        if nb >= 240 {
            let cand = Candidate {
                nb: nb as usize,
                ..*c
            };
            if cand.feasible(machine) {
                out.push(cand);
            }
        }
    };
    for d in [-120i64, -60, 60, 120] {
        push_nb(c.nb as i64 + d, &mut out);
    }
    // One seeded probe on a 20-multiple lattice within ±200.
    let jitter = (rng.below(21) as i64 - 10) * 20;
    if jitter != 0 {
        push_nb(c.nb as i64 + jitter, &mut out);
    }
    if let phi_hpl::WorkDivision::Static { card_fraction } = c.division {
        for df in [-0.05f64, 0.05] {
            let f = (card_fraction + df).clamp(0.0, 1.0);
            let cand = Candidate {
                division: phi_hpl::WorkDivision::Static { card_fraction: f },
                ..*c
            };
            if cand.feasible(machine) {
                out.push(cand);
            }
        }
    }
    out
}

/// Ranks `(candidate, report)` pairs best-first: score descending, then
/// canonical key ascending — a total, deterministic order.
fn rank(set: &mut [ScoredCandidate]) {
    set.sort_by(|a, b| {
        b.report
            .gflops
            .partial_cmp(&a.report.gflops)
            .expect("scores are finite")
            .then_with(|| a.candidate.key().cmp(&b.candidate.key()))
    });
}

/// The ε-rule: among candidates within [`EPSILON`] of the best score
/// **and** at least as fast as the baseline, the smallest canonical key
/// (NB leads) wins. The argmax always qualifies, so the eligible set is
/// never empty and the winner never scores below the baseline.
fn select(set: &[ScoredCandidate], baseline_key: CandidateKey) -> usize {
    let bidx = set
        .iter()
        .position(|sc| sc.candidate.key() == baseline_key)
        .expect("baseline is always scored");
    let base_g = set[bidx].report.gflops;
    let best_g = set
        .iter()
        .map(|sc| sc.report.gflops)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut chosen: Option<usize> = None;
    for (i, sc) in set.iter().enumerate() {
        if sc.report.gflops >= best_g * (1.0 - EPSILON) && sc.report.gflops >= base_g {
            let better = match chosen {
                None => true,
                Some(j) => sc.candidate.key() < set[j].candidate.key(),
            };
            if better {
                chosen = Some(i);
            }
        }
    }
    chosen.expect("the argmax is always eligible")
}

/// Runs the full search (no cache). Deterministic for a given
/// `(machine, space, opts)`: the seed, `refine_rounds`, `sample_every`
/// and `coarse_only` all shape the result, while `opts.threads` never
/// changes it.
///
/// # Panics
/// Panics when the paper baseline configuration does not fit the
/// machine — the never-regress guard needs it in the population.
pub fn tune(machine: &MachineConfig, space: &TuneSpace, opts: &TuneOptions) -> TuneOutcome {
    let t0 = Instant::now(); // lint:allow(seed-bypass): wall time reported, not consumed
    let fingerprint = cache::cache_key(machine, space, opts);
    let baseline = Candidate::paper_baseline(machine);
    assert!(
        baseline.feasible(machine),
        "paper baseline must fit the machine"
    );

    // Phase 1: coarse grid (baseline force-included — never-regress).
    let mut pop = space.candidates(machine);
    if !pop.iter().any(|c| c.key() == baseline.key()) {
        pop.push(baseline);
    }
    let scores = eval_parallel(&pop, machine, opts.threads, Fidelity::Analytic);
    let mut evaluated = pop.len();

    let mut scored: Vec<ScoredCandidate> = pop
        .iter()
        .zip(scores)
        .map(|(c, report)| ScoredCandidate {
            candidate: *c,
            report,
        })
        .collect();
    rank(&mut scored);

    if opts.coarse_only {
        return pack(
            machine,
            fingerprint,
            scored,
            baseline,
            evaluated,
            t0.elapsed().as_secs_f64(),
        );
    }

    // Phase 2: coordinate descent with successive halving.
    let mut finalists: Vec<ScoredCandidate> = scored.iter().take(FINALISTS).cloned().collect();
    let mut seen: BTreeSet<CandidateKey> = pop.iter().map(Candidate::key).collect();
    let mut rng = TuneRng::new(opts.seed ^ machine.fingerprint());
    for _ in 0..opts.refine_rounds {
        let mut proposals = Vec::new();
        for sc in &finalists {
            for n in neighbors(&sc.candidate, machine, &mut rng) {
                if seen.insert(n.key()) {
                    proposals.push(n);
                }
            }
        }
        let pscores = eval_parallel(&proposals, machine, opts.threads, Fidelity::Analytic);
        evaluated += proposals.len();
        finalists.extend(
            proposals
                .iter()
                .zip(pscores)
                .map(|(c, report)| ScoredCandidate {
                    candidate: *c,
                    report,
                }),
        );
        rank(&mut finalists);
        let keep = (finalists.len() / 2).clamp(2, FINALISTS);
        finalists.truncate(keep);
    }

    // Phase 3: calibrated re-score of the survivors plus the baseline.
    let mut cal_set: Vec<Candidate> = finalists.iter().map(|sc| sc.candidate).collect();
    if !cal_set.iter().any(|c| c.key() == baseline.key()) {
        cal_set.push(baseline);
    }
    let cal_scores = eval_parallel(
        &cal_set,
        machine,
        opts.threads,
        Fidelity::Calibrated {
            sample_every: opts.sample_every,
        },
    );
    evaluated += cal_set.len();
    let mut cal: Vec<ScoredCandidate> = cal_set
        .iter()
        .zip(cal_scores)
        .map(|(c, report)| ScoredCandidate {
            candidate: *c,
            report,
        })
        .collect();
    rank(&mut cal);

    pack(
        machine,
        fingerprint,
        cal,
        baseline,
        evaluated,
        t0.elapsed().as_secs_f64(),
    )
}

/// Applies the ε-rule to a ranked set and assembles the outcome.
fn pack(
    machine: &MachineConfig,
    fingerprint: u64,
    scored: Vec<ScoredCandidate>,
    baseline: Candidate,
    evaluated: usize,
    wall_time_s: f64,
) -> TuneOutcome {
    let chosen = select(&scored, baseline.key());
    let bidx = scored
        .iter()
        .position(|sc| sc.candidate.key() == baseline.key())
        .expect("baseline scored");
    let tuned = TunedConfig::from_candidate(machine.n, &scored[chosen].candidate);
    let tuned_report = scored[chosen].report.clone();
    let baseline_report = scored[bidx].report.clone();
    let mut table = scored;
    table.truncate(MAX_TABLE);
    TuneOutcome {
        fingerprint,
        machine: *machine,
        tuned,
        tuned_report,
        baseline,
        baseline_report,
        candidates_evaluated: evaluated,
        table,
        cache_hit: false,
        wall_time_s,
    }
}

/// [`tune`] behind a content-addressed cache: a prior run with the same
/// machine fingerprint, space signature and options (`threads` aside)
/// is returned verbatim (with `cache_hit = true`) without evaluating a
/// single candidate.
pub fn tune_cached(
    machine: &MachineConfig,
    space: &TuneSpace,
    opts: &TuneOptions,
    cache: &cache::TuneCache,
) -> std::io::Result<TuneOutcome> {
    let t0 = Instant::now(); // lint:allow(seed-bypass): wall time reported, not consumed
    let key = cache::cache_key(machine, space, opts);
    match cache.load_checked(key) {
        Ok(Some(mut out)) => {
            out.cache_hit = true;
            out.wall_time_s = t0.elapsed().as_secs_f64();
            return Ok(out);
        }
        Ok(None) => {}
        // A damaged record is not fatal: fall through to a fresh tune,
        // which overwrites the bad bytes below.
        Err(cache::CacheReadError::Corrupt { .. }) => {}
        Err(cache::CacheReadError::Io(e)) => return Err(e),
    }
    let out = tune(machine, space, opts);
    cache.store(&out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_fabric::BcastScheme;
    use phi_hpl::WorkDivision;

    /// A small machine that keeps tests fast: 4 nodes, modest N.
    fn small_machine() -> MachineConfig {
        MachineConfig {
            nodes: 4,
            cards_per_node: 1,
            host_mem_gib: 64.0,
            n: 120_000,
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let mut o1 = TuneOptions {
            threads: 1,
            coarse_only: true,
            ..TuneOptions::default()
        };
        let a = tune(&m, &space, &o1);
        o1.threads = 4;
        let b = tune(&m, &space, &o1);
        assert_eq!(a.tuned, b.tuned);
        assert_eq!(
            a.tuned_report.gflops.to_bits(),
            b.tuned_report.gflops.to_bits()
        );
        assert_eq!(a.candidates_evaluated, b.candidates_evaluated);
    }

    #[test]
    fn never_regresses_below_the_baseline() {
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let out = tune(&m, &space, &TuneOptions::default());
        assert!(
            out.tuned_report.gflops >= out.baseline_report.gflops,
            "tuned {} < baseline {}",
            out.tuned_report.gflops,
            out.baseline_report.gflops
        );
        assert!(out.candidates_evaluated > 100);
        assert!(!out.table.is_empty());
        // The table is ranked best-first.
        for w in out.table.windows(2) {
            assert!(w[0].report.gflops >= w[1].report.gflops);
        }
    }

    #[test]
    fn tuned_config_roundtrips_through_hpldat() {
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let out = tune(
            &m,
            &space,
            &TuneOptions {
                coarse_only: true,
                ..TuneOptions::default()
            },
        );
        let dat = out.tuned.hpl_dat();
        let text = dat.render();
        let back = phi_hpl::HplDat::parse(&text).expect("rendered HPL.dat parses");
        assert_eq!(back, dat);
        assert_eq!(back.render().as_bytes(), text.as_bytes());
        assert_eq!(back.nbs, vec![out.tuned.nb]);
        assert_eq!(back.grids, vec![out.tuned.grid]);
        assert_eq!(back.lookahead(), out.tuned.lookahead);
        // And back to a runnable config.
        let cfg = out.tuned.candidate().config(&m);
        assert_eq!(cfg.nb, out.tuned.nb);
        assert_eq!(cfg.offload.kt, out.tuned.nb);
    }

    #[test]
    fn epsilon_rule_prefers_smallest_nb_within_band() {
        // Hand-built score set: three candidates within 1% of the best,
        // one clearly below, baseline in the middle.
        let m = small_machine();
        let base = Candidate::paper_baseline(&m);
        let mk = |nb: usize, t: f64| ScoredCandidate {
            candidate: Candidate { nb, ..base },
            report: GigaflopsReport::new(m.n, t, 1.0e5),
        };
        // Smaller time = higher score. 1200 is baseline; 960 within 1%
        // of best and above baseline; 800 below baseline; 2000 best.
        let set = vec![
            mk(2000, 100.0),
            mk(960, 100.4),
            mk(1200, 100.6), // baseline
            mk(800, 103.0),
        ];
        let chosen = select(&set, base.key());
        assert_eq!(set[chosen].candidate.nb, 960);
        // If every alternative is below the baseline, the baseline wins.
        let set2 = vec![mk(1200, 100.0), mk(960, 101.5), mk(800, 103.0)];
        let chosen2 = select(&set2, base.key());
        assert_eq!(set2[chosen2].candidate.nb, 1200);
    }

    #[test]
    fn seeded_refinement_is_reproducible_per_seed() {
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            refine_rounds: 1,
            sample_every: 32,
            ..TuneOptions::default()
        };
        let a = tune(&m, &space, &opts);
        let b = tune(&m, &space, &opts);
        assert_eq!(a.tuned, b.tuned);
        assert_eq!(
            a.tuned_report.time_s.to_bits(),
            b.tuned_report.time_s.to_bits()
        );
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn gate_single_node_rediscovers_paper_configuration() {
        // Headline gate, Table II/III single node: the tuner must find a
        // configuration at least as fast as the hand-set paper
        // parameters, with NB inside the paper's optimum band.
        let m = MachineConfig::paper_single_node();
        let space = TuneSpace::coarse(&m);
        let out = tune(&m, &space, &TuneOptions::default());
        assert!(
            out.tuned_report.gflops >= out.baseline_report.gflops,
            "tuned {:.0} GFLOPS < paper baseline {:.0}",
            out.tuned_report.gflops,
            out.baseline_report.gflops
        );
        assert!(
            (960..=1536).contains(&out.tuned.nb),
            "tuned NB {} outside the paper's optimum band",
            out.tuned.nb
        );
        // The winner keeps the paper's structural choices.
        assert_eq!(out.tuned.lookahead, Lookahead::Pipelined);
        assert_eq!(out.tuned.division, WorkDivision::Dynamic);
        assert_eq!(out.tuned.bcast, BcastScheme::Ring);
        assert_eq!(out.tuned.grid, (1, 1));
        // And lands in Table III's efficiency neighborhood.
        let eff = out.tuned_report.efficiency();
        assert!((eff - 0.798).abs() < 0.05, "tuned efficiency {eff:.3}");
    }

    #[test]
    fn gate_hundred_node_rediscovers_paper_configuration() {
        // Headline gate, Table III 100-node row (N = 825K, 10 × 10).
        let m = MachineConfig::paper_cluster_100();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            sample_every: 64,
            ..TuneOptions::default()
        };
        let out = tune(&m, &space, &opts);
        assert!(
            out.tuned_report.gflops >= out.baseline_report.gflops,
            "tuned {:.0} GFLOPS < paper baseline {:.0}",
            out.tuned_report.gflops,
            out.baseline_report.gflops
        );
        assert!(
            (960..=1536).contains(&out.tuned.nb),
            "tuned NB {} outside the paper's optimum band",
            out.tuned.nb
        );
        assert_eq!(out.tuned.grid, (10, 10), "grid search must find 10x10");
        // §VI: the multi-node optimum NB differs from single node — our
        // model puts it at or below the single-node choice.
        let tf = out.tuned_report.gflops / 1e3;
        assert!((tf - 107.0).abs() < 6.0, "tuned 100-node {tf:.1} TFLOPS");
    }
}
