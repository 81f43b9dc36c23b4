//! Fleet-scale Monte Carlo availability campaigns: the fault model as
//! *statistics*, not anecdotes.
//!
//! One seeded campaign is an anecdote; an operator sizing a Phi
//! deployment needs the distribution — what completion time the 99.9th
//! percentile run pays, what fraction of runs still clear a GFLOPS
//! floor, where the locality-preserving patch remap stops beating the
//! wholesale reshape, and how many correlated deaths the patch budget
//! should absorb before giving up. [`run_fleet`] answers those by
//! streaming tens of thousands of seeded [`FaultPlan::fleet_campaign`]
//! draws through the fault-tolerant cluster simulators — each seed runs
//! the Table III hybrid system under both remap strategies plus a
//! native-mode cluster — and reducing the per-seed outcomes into
//! P50/P99/P99.9 completion times, a GFLOPS-availability curve, a
//! patch-vs-wholesale crossover frontier keyed by hosts lost, and a
//! death-budget sweep.
//!
//! Determinism is the contract: seeds are striped across worker
//! threads with a by-index merge (the `phi-tune` evaluator's idiom), so
//! the outcome vector — and therefore every reduced statistic and the
//! rendered report — is byte-identical at any thread count. The
//! [`FleetResult::digest`] folds every per-seed fingerprint in seed
//! order so one `u64` witnesses the whole campaign.

use crate::faults::paper_cluster;
use crate::TextTable;
use phi_fabric::RemapStrategy;
use phi_faults::{CampaignScope, FaultPlan, Fnv};
use phi_hpl::hybrid::{simulate_cluster, HybridConfig};
use phi_hpl::native::{simulate_native_cluster, simulate_native_cluster_ft, NativeClusterConfig};
use phi_hpl::{simulate_cluster_faulty, FtPolicy};
use phi_serve::store::{field, hex_f64, Record, ResultStore};
use phi_tune::striped_map;
use std::fmt::Write;

/// Knobs of one fleet campaign.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Seeds (campaigns) to run. The acceptance default is 10 000; the
    /// tests run a small count.
    pub seeds: usize,
    /// Base seed: campaign `i` draws from `seed0 + i`.
    pub seed0: u64,
    /// Worker threads; `0` picks `available_parallelism` (capped at 8).
    /// The results are byte-identical at any value.
    pub threads: usize,
    /// Which failure-mode family the campaigns draw from.
    pub scope: CampaignScope,
    /// Root events per campaign (cascade fan-out adds more).
    pub events: usize,
    /// Patch death budgets swept for the expected-throughput maximum.
    pub budgets: Vec<usize>,
    /// Budget-sweep subsample stride: every `stride`-th seed re-runs
    /// under each budget (the sweep costs `budgets × seeds / stride`
    /// extra simulations).
    pub budget_stride: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            seeds: 10_000,
            seed0: 0xF1EE7,
            threads: 0,
            scope: CampaignScope::Mixed,
            events: 3,
            budgets: vec![1, 2, 4, 8, 12, 16, 25],
            budget_stride: 25,
        }
    }
}

/// One campaign's outcome: the same fault plan run under the patch and
/// wholesale remaps on the Table III hybrid system, plus a native-mode
/// cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedOutcome {
    /// The campaign's seed.
    pub seed: u64,
    /// Host ranks permanently lost (patch run accounting).
    pub hosts_lost: usize,
    /// Cards permanently lost.
    pub cards_lost: usize,
    /// Completion time under the locality-preserving patch remap, s.
    pub patch_time_s: f64,
    /// Delivered GFLOPS under the patch remap.
    pub patch_gflops: f64,
    /// Completion time under the wholesale reshape, s.
    pub whsl_time_s: f64,
    /// Native-mode cluster completion time, s.
    pub native_time_s: f64,
    /// Replay fingerprint folding both hybrid runs and the native run.
    pub fingerprint: u64,
}

/// A fleet campaign's full result set, in seed order.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// The options the fleet ran under.
    pub options: FleetOptions,
    /// Per-seed outcomes, index `i` ↔ seed `seed0 + i`.
    pub outcomes: Vec<SeedOutcome>,
    /// Healthy Table III completion time, s.
    pub healthy_time_s: f64,
    /// Healthy Table III GFLOPS.
    pub healthy_gflops: f64,
    /// FNV-1a over every outcome's fingerprint, in seed order.
    pub digest: u64,
}

/// The native-mode companion system: 100 cards on a 10 × 10 grid at
/// N = 90K (each card's share fits its GDDR).
pub fn fleet_native_cluster() -> NativeClusterConfig {
    NativeClusterConfig::new(90_000, 10, 10)
}

/// Runs one seed's campaign through both hybrid remaps and the native
/// cluster. `healthy_s` / `native_healthy_s` scale the fault horizons
/// so every campaign actually overlaps its run.
fn eval_seed(
    cfg: &HybridConfig,
    ncfg: &NativeClusterConfig,
    healthy_s: f64,
    native_healthy_s: f64,
    opts: &FleetOptions,
    idx: usize,
) -> SeedOutcome {
    let seed = opts.seed0.wrapping_add(idx as u64);
    let plan = FaultPlan::fleet_campaign(
        seed,
        healthy_s * 1.2,
        opts.events,
        cfg.grid.size(),
        cfg.cards_per_node,
        opts.scope,
    );
    let patch = simulate_cluster_faulty(cfg, &plan, &FtPolicy::default(), false);
    let whsl = simulate_cluster_faulty(
        cfg,
        &plan,
        &FtPolicy::default().with_remap(RemapStrategy::Wholesale),
        false,
    );
    let native_plan = FaultPlan::fleet_campaign(
        seed,
        native_healthy_s * 1.2,
        opts.events,
        ncfg.grid.size(),
        1,
        opts.scope,
    );
    let native = simulate_native_cluster_ft(ncfg, &native_plan, true, RemapStrategy::Patch);
    let f = patch
        .result
        .report
        .faults
        .expect("faulty runs carry accounting");
    let mut fp = Fnv::resume(patch.run_fingerprint());
    fp.write_u64(whsl.run_fingerprint());
    fp.write_u64(native.time_s.to_bits());
    SeedOutcome {
        seed,
        hosts_lost: f.hosts_lost,
        cards_lost: f.cards_lost,
        patch_time_s: patch.result.report.time_s,
        patch_gflops: patch.result.report.gflops,
        whsl_time_s: whsl.result.report.time_s,
        native_time_s: native.time_s,
        fingerprint: fp.finish(),
    }
}

/// Every per-seed fingerprint folded in seed order.
fn fleet_digest(outcomes: &[SeedOutcome]) -> u64 {
    let mut h = Fnv::new();
    for o in outcomes {
        h.write_u64(o.fingerprint);
    }
    h.finish()
}

/// Runs the whole fleet: `opts.seeds` campaigns, thread-striped,
/// byte-identical at any thread count.
pub fn run_fleet(opts: &FleetOptions) -> FleetResult {
    fleet_loop(opts, None).0
}

impl Record for SeedOutcome {
    const NAMESPACE: &'static str = "fleet";
    const HEADER: &'static str = "phi-serve fleet v1";

    fn write_fields(&self, out: &mut String) {
        out.push_str(&format!(
            "seed {:016x} hosts={} cards={}\n",
            self.seed, self.hosts_lost, self.cards_lost
        ));
        out.push_str(&format!(
            "times pt={:016x} pg={:016x} wt={:016x} nt={:016x}\n",
            self.patch_time_s.to_bits(),
            self.patch_gflops.to_bits(),
            self.whsl_time_s.to_bits(),
            self.native_time_s.to_bits(),
        ));
        out.push_str(&format!("fp {:016x}\n", self.fingerprint));
    }

    fn parse_fields(fields: &str) -> Option<Self> {
        let mut lines = fields.lines();
        let s: Vec<&str> = lines.next()?.strip_prefix("seed ")?.split(' ').collect();
        let seed = u64::from_str_radix(s.first()?, 16).ok()?;
        let t: Vec<&str> = lines.next()?.strip_prefix("times ")?.split(' ').collect();
        let fp = u64::from_str_radix(lines.next()?.strip_prefix("fp ")?, 16).ok()?;
        if lines.next().is_some() {
            return None;
        }
        Some(Self {
            seed,
            hosts_lost: field(&s, "hosts")?.parse().ok()?,
            cards_lost: field(&s, "cards")?.parse().ok()?,
            patch_time_s: hex_f64(field(&t, "pt")?)?,
            patch_gflops: hex_f64(field(&t, "pg")?)?,
            whsl_time_s: hex_f64(field(&t, "wt")?)?,
            native_time_s: hex_f64(field(&t, "nt")?)?,
            fingerprint: fp,
        })
    }
}

/// Bumped when the per-seed evaluation or the record layout changes
/// meaning, so stale fleet records can never serve a current campaign.
const FLEET_STORE_VERSION: u64 = 1;

/// The content-addressed key of one fleet seed's evaluation: everything
/// [`eval_seed`] reads — the seed itself, the campaign shape and the
/// healthy completion times that scale both fault horizons. Two fleets
/// with identical options share every key; changing the scope, the
/// event count or either system invalidates all of them.
fn fleet_seed_key(
    seed: u64,
    opts: &FleetOptions,
    healthy_s: f64,
    native_healthy_s: f64,
    grid_size: usize,
    cards_per_node: usize,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(FLEET_STORE_VERSION);
    h.write_u64(seed);
    h.write(opts.scope.name().as_bytes());
    h.write_u64(opts.events as u64);
    h.write_u64(healthy_s.to_bits());
    h.write_u64(native_healthy_s.to_bits());
    h.write_u64(grid_size as u64);
    h.write_u64(cards_per_node as u64);
    h.finish()
}

/// Store traffic of one [`run_fleet_stored`] call. Per-seed, so
/// `hits + misses == seeds`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStoreStats {
    /// Seeds served from the store without simulating.
    pub hits: usize,
    /// Seeds evaluated and written back (includes corrupt-record
    /// recoveries — a damaged record is a miss, recomputed and
    /// overwritten, never an error).
    pub misses: usize,
}

/// [`run_fleet`] streamed through a content-addressed [`ResultStore`]:
/// each seed's outcome is keyed by seed × options × machine
/// fingerprints in the `fleet`
/// namespace, hits skip the three simulations entirely, and misses are
/// written back — so a second identical fleet is a pure cache hit. The
/// result (outcomes, digest, report) is byte-identical to the unstored
/// fleet at any thread count and any hit/miss split.
pub fn run_fleet_stored(
    opts: &FleetOptions,
    store: &ResultStore,
) -> (FleetResult, FleetStoreStats) {
    fleet_loop(opts, Some(store))
}

/// The one fleet loop behind [`run_fleet`] and [`run_fleet_stored`]:
/// the healthy baselines, the thread-striped per-seed map (through
/// `store` when one is given) and the result assembly. Without a store
/// every seed counts as a miss.
fn fleet_loop(opts: &FleetOptions, store: Option<&ResultStore>) -> (FleetResult, FleetStoreStats) {
    let cfg = paper_cluster();
    let ncfg = fleet_native_cluster();
    let healthy = simulate_cluster(&cfg, false).report;
    let native_healthy_s = simulate_native_cluster(&ncfg).time_s;
    let evaluated = striped_map(opts.seeds, opts.threads, |i| {
        let eval = || eval_seed(&cfg, &ncfg, healthy.time_s, native_healthy_s, opts, i);
        let Some(store) = store else {
            return (eval(), false);
        };
        let seed = opts.seed0.wrapping_add(i as u64);
        let key = fleet_seed_key(
            seed,
            opts,
            healthy.time_s,
            native_healthy_s,
            cfg.grid.size(),
            cfg.cards_per_node,
        );
        // A hit must witness the exact seed: a colliding or stale
        // record is treated as a miss, not served.
        if let Ok(Some(out)) = store.load::<SeedOutcome>(key) {
            if out.seed == seed {
                return (out, true);
            }
        }
        let out = eval();
        // A failed write-back costs a future hit, never correctness.
        let _ = store.put(key, &out);
        (out, false)
    });
    let mut stats = FleetStoreStats::default();
    let mut outcomes = Vec::with_capacity(evaluated.len());
    for (out, hit) in evaluated {
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        outcomes.push(out);
    }
    let digest = fleet_digest(&outcomes);
    (
        FleetResult {
            options: opts.clone(),
            outcomes,
            healthy_time_s: healthy.time_s,
            healthy_gflops: healthy.gflops,
            digest,
        },
        stats,
    )
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over a `total_cmp`-sorted
/// copy of `xs`. Empty input returns `NaN`.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The headline completion-time percentiles of the patch-remap runs:
/// `[(label, seconds)]` for P50, P99 and P99.9.
pub fn completion_percentiles(fleet: &FleetResult) -> Vec<(&'static str, f64)> {
    let times: Vec<f64> = fleet.outcomes.iter().map(|o| o.patch_time_s).collect();
    vec![
        ("P50", percentile(&times, 50.0)),
        ("P99", percentile(&times, 99.0)),
        ("P99.9", percentile(&times, 99.9)),
    ]
}

/// The GFLOPS-availability curve: for each threshold fraction of the
/// healthy Table III GFLOPS, the fraction of seeds whose patch-remap
/// run still delivered at least that rate.
pub fn availability_curve(fleet: &FleetResult) -> Vec<(f64, f64)> {
    const THRESHOLDS: [f64; 8] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0];
    let n = fleet.outcomes.len().max(1) as f64;
    THRESHOLDS
        .iter()
        .map(|&thr| {
            let ok = fleet
                .outcomes
                .iter()
                .filter(|o| o.patch_gflops >= thr * fleet.healthy_gflops)
                .count();
            (thr, ok as f64 / n)
        })
        .collect()
}

/// One row of the patch-vs-wholesale crossover frontier: every seed
/// that lost exactly `hosts_lost` ranks, with the mean completion time
/// under each remap.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierRow {
    /// Host ranks lost by the seeds in this bucket.
    pub hosts_lost: usize,
    /// Seeds in the bucket.
    pub seeds: usize,
    /// Mean patch-remap completion time, s.
    pub patch_mean_s: f64,
    /// Mean wholesale-reshape completion time, s.
    pub whsl_mean_s: f64,
}

/// Buckets the fleet by hosts lost and compares the two remap
/// strategies' mean completion times per bucket — the empirical
/// crossover frontier. Rows come out in increasing `hosts_lost`.
pub fn crossover_frontier(fleet: &FleetResult) -> Vec<FrontierRow> {
    let mut by_lost: Vec<(usize, usize, f64, f64)> = Vec::new();
    for o in &fleet.outcomes {
        match by_lost.binary_search_by_key(&o.hosts_lost, |r| r.0) {
            Ok(i) => {
                by_lost[i].1 += 1;
                by_lost[i].2 += o.patch_time_s;
                by_lost[i].3 += o.whsl_time_s;
            }
            Err(i) => by_lost.insert(i, (o.hosts_lost, 1, o.patch_time_s, o.whsl_time_s)),
        }
    }
    by_lost
        .into_iter()
        .map(|(hosts_lost, n, pt, wt)| FrontierRow {
            hosts_lost,
            seeds: n,
            patch_mean_s: pt / n as f64,
            whsl_mean_s: wt / n as f64,
        })
        .collect()
}

/// The smallest death count at which the wholesale reshape's mean
/// completion time undercuts the patch remap's — `None` when patch
/// wins everywhere the fleet sampled.
fn crossover_point(frontier: &[FrontierRow]) -> Option<usize> {
    frontier
        .iter()
        .find(|r| r.hosts_lost > 0 && r.whsl_mean_s < r.patch_mean_s)
        .map(|r| r.hosts_lost)
}

/// One death budget's expected throughput over the sweep subsample.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetRow {
    /// Patch death budget ([`FtPolicy::death_budget`]).
    pub budget: usize,
    /// Mean delivered GFLOPS across the subsampled seeds.
    pub mean_gflops: f64,
}

/// Sweeps [`FtPolicy::death_budget`] over a strided subsample of the
/// fleet's seeds and reports each budget's expected throughput —
/// thread-striped and byte-identical at any thread count, like the
/// fleet itself.
pub fn budget_sweep(fleet: &FleetResult) -> Vec<BudgetRow> {
    let opts = &fleet.options;
    let cfg = paper_cluster();
    let healthy_s = fleet.healthy_time_s;
    let sub: Vec<u64> = (0..opts.seeds)
        .step_by(opts.budget_stride.max(1))
        .map(|i| opts.seed0.wrapping_add(i as u64))
        .collect();
    if sub.is_empty() {
        return Vec::new();
    }
    opts.budgets
        .iter()
        .map(|&budget| {
            let gflops = striped_map(sub.len(), opts.threads, |k| {
                let plan = FaultPlan::fleet_campaign(
                    sub[k],
                    healthy_s * 1.2,
                    opts.events,
                    cfg.grid.size(),
                    cfg.cards_per_node,
                    opts.scope,
                );
                let pol = FtPolicy::default().with_death_budget(budget);
                simulate_cluster_faulty(&cfg, &plan, &pol, false)
                    .result
                    .report
                    .gflops
            });
            BudgetRow {
                budget,
                mean_gflops: gflops.iter().sum::<f64>() / gflops.len() as f64,
            }
        })
        .collect()
}

/// The budget maximizing expected throughput (first maximum wins ties).
fn best_budget(sweep: &[BudgetRow]) -> Option<usize> {
    sweep
        .iter()
        .max_by(|a, b| {
            a.mean_gflops
                .total_cmp(&b.mean_gflops)
                .then(b.budget.cmp(&a.budget))
        })
        .map(|r| r.budget)
}

/// Runs the fleet under `opts` and renders the full availability
/// report: headline percentiles, the GFLOPS-availability curve, the
/// patch-vs-wholesale crossover frontier, the death-budget sweep and
/// the campaign digest. Byte-identical at any thread count.
pub fn fleet_render(opts: &FleetOptions) -> String {
    render_fleet_result(&run_fleet(opts))
}

/// [`fleet_render`] streamed through a [`ResultStore`]: byte-identical
/// report (store traffic is returned separately, never printed into the
/// report, so a stored and an unstored run `cmp` equal).
pub(crate) fn fleet_render_stored(
    opts: &FleetOptions,
    store: &ResultStore,
) -> (String, FleetStoreStats) {
    let (fleet, stats) = run_fleet_stored(opts, store);
    (render_fleet_result(&fleet), stats)
}

fn render_fleet_result(fleet: &FleetResult) -> String {
    let opts = &fleet.options;
    let mut out = String::new();
    writeln!(
        out,
        "== Fleet availability campaign: {} seeds, scope {}, {} events/campaign ==",
        opts.seeds,
        opts.scope.name(),
        opts.events
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "system: Table III hybrid (N = 825K, 10x10) under patch + wholesale remaps, \
         native cluster (N = 90K, 10x10)\nhealthy: {:.2} s, {:.0} GFLOPS\n",
        fleet.healthy_time_s, fleet.healthy_gflops
    )
    .expect("writing to a String cannot fail");

    out.push_str("completion time (patch remap):\n");
    let mut t = TextTable::new(["percentile", "t(s)", "vs healthy"]);
    for (label, v) in completion_percentiles(fleet) {
        t.row([
            label.to_string(),
            format!("{v:.2}"),
            format!("{:+.1}%", 100.0 * (v / fleet.healthy_time_s - 1.0)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nGFLOPS availability (fraction of seeds at or above the floor):\n");
    let mut t = TextTable::new(["floor", "GFLOPS", "availability"]);
    for (thr, frac) in availability_curve(fleet) {
        t.row([
            format!("{:.0}%", 100.0 * thr),
            format!("{:.0}", thr * fleet.healthy_gflops),
            format!("{:.3}", frac),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\npatch-vs-wholesale crossover frontier (mean t by hosts lost):\n");
    let frontier = crossover_frontier(fleet);
    let mut t = TextTable::new([
        "hosts lost",
        "seeds",
        "patch t(s)",
        "wholesale t(s)",
        "winner",
    ]);
    for r in &frontier {
        t.row([
            r.hosts_lost.to_string(),
            r.seeds.to_string(),
            format!("{:.2}", r.patch_mean_s),
            format!("{:.2}", r.whsl_mean_s),
            if r.whsl_mean_s < r.patch_mean_s {
                "wholesale".to_string()
            } else {
                "patch".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    match crossover_point(&frontier) {
        Some(d) => writeln!(
            out,
            "crossover: wholesale overtakes patch at {d} hosts lost"
        )
        .expect("writing to a String cannot fail"),
        None => out.push_str("crossover: none — patch wins at every sampled death count\n"),
    }

    out.push_str("\ndeath-budget sweep (expected throughput on the subsample):\n");
    let sweep = budget_sweep(fleet);
    let mut t = TextTable::new(["budget", "mean GFLOPS"]);
    for r in &sweep {
        t.row([r.budget.to_string(), format!("{:.0}", r.mean_gflops)]);
    }
    out.push_str(&t.render());
    if let Some(b) = best_budget(&sweep) {
        writeln!(out, "best budget: {b} deaths before wholesale reshape")
            .expect("writing to a String cannot fail");
    }

    writeln!(out, "\nfleet digest: {:#018x}", fleet.digest)
        .expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> FleetOptions {
        FleetOptions {
            seeds: 40,
            budgets: vec![2, 12],
            budget_stride: 10,
            ..FleetOptions::default()
        }
    }

    #[test]
    fn fleet_is_byte_identical_at_any_thread_count() {
        let base = run_fleet(&FleetOptions {
            threads: 1,
            ..small_opts()
        });
        for threads in [2usize, 8] {
            let other = run_fleet(&FleetOptions {
                threads,
                ..small_opts()
            });
            assert_eq!(other.digest, base.digest, "threads {threads}");
            assert_eq!(other.outcomes, base.outcomes, "threads {threads}");
        }
    }

    #[test]
    fn percentiles_and_curve_are_sane() {
        let fleet = run_fleet(&small_opts());
        let pcts = completion_percentiles(&fleet);
        assert_eq!(pcts.len(), 3);
        // P50 ≤ P99 ≤ P99.9, all at or above the healthy time.
        assert!(pcts[0].1 <= pcts[1].1 && pcts[1].1 <= pcts[2].1);
        assert!(pcts[0].1 >= fleet.healthy_time_s);
        // Availability is monotone non-increasing in the floor.
        let curve = availability_curve(&fleet);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "{curve:?}");
        }
        // Every outcome is monotone vs healthy.
        for o in &fleet.outcomes {
            assert!(o.patch_time_s >= fleet.healthy_time_s);
            assert!(o.patch_gflops <= fleet.healthy_gflops);
        }
    }

    #[test]
    fn frontier_covers_every_seed_and_budget_sweep_runs() {
        let fleet = run_fleet(&small_opts());
        let frontier = crossover_frontier(&fleet);
        assert_eq!(
            frontier.iter().map(|r| r.seeds).sum::<usize>(),
            fleet.outcomes.len()
        );
        for w in frontier.windows(2) {
            assert!(w[0].hosts_lost < w[1].hosts_lost);
        }
        let sweep = budget_sweep(&fleet);
        assert_eq!(sweep.len(), 2);
        assert!(best_budget(&sweep).is_some());
        // A generous budget can't underperform a starved one here: the
        // patch dominance property lifts to the means.
        assert!(sweep[1].mean_gflops >= sweep[0].mean_gflops);
    }

    #[test]
    fn scopes_produce_distinct_fleets() {
        let mixed = run_fleet(&small_opts());
        let rack = run_fleet(&FleetOptions {
            scope: CampaignScope::Rack,
            ..small_opts()
        });
        let storm = run_fleet(&FleetOptions {
            scope: CampaignScope::Storm,
            ..small_opts()
        });
        assert_ne!(mixed.digest, rack.digest);
        assert_ne!(mixed.digest, storm.digest);
        assert_ne!(rack.digest, storm.digest);
        // Rack campaigns kill correlated sets: strictly more hosts lost
        // on average than the mixed blend.
        let lost = |f: &FleetResult| f.outcomes.iter().map(|o| o.hosts_lost).sum::<usize>();
        assert!(lost(&rack) > lost(&mixed));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn stored_fleet_matches_unstored_and_second_run_is_pure_hit() {
        let dir = std::env::temp_dir().join(format!("phi-fleet-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let opts = FleetOptions {
            seeds: 20,
            ..small_opts()
        };
        let plain = run_fleet(&opts);
        let (cold, cold_stats) = run_fleet_stored(&opts, &store);
        assert_eq!(cold_stats.misses, opts.seeds);
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold.digest, plain.digest, "store must not change results");
        assert_eq!(cold.outcomes, plain.outcomes);

        // Second identical fleet: every seed deduplicates to a hit, at
        // a different thread count, with identical bytes.
        let (warm, warm_stats) = run_fleet_stored(
            &FleetOptions {
                threads: 3,
                ..opts.clone()
            },
            &store,
        );
        assert_eq!(warm_stats.hits, opts.seeds, "{warm_stats:?}");
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm.digest, plain.digest);
        assert_eq!(warm.outcomes, plain.outcomes);

        // A corrupt record is a per-seed miss, recovered by rewrite.
        let keys = store.keys::<SeedOutcome>().unwrap();
        assert_eq!(keys.len(), opts.seeds);
        std::fs::write(store.record_path::<SeedOutcome>(keys[0]), "junk\n").unwrap();
        let (fixed, fixed_stats) = run_fleet_stored(&opts, &store);
        assert_eq!(fixed_stats.misses, 1);
        assert_eq!(fixed_stats.hits, opts.seeds - 1);
        assert_eq!(fixed.digest, plain.digest);

        // A changed scope shares no keys with the mixed fleet.
        let (_, other_stats) = run_fleet_stored(
            &FleetOptions {
                scope: CampaignScope::Rack,
                ..opts.clone()
            },
            &store,
        );
        assert_eq!(other_stats.hits, 0, "scope change must re-key every seed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_outcome_record_round_trips_byte_identically() {
        use phi_serve::store::{parse_record, serialize_record};
        let out = SeedOutcome {
            seed: 0xF1EE7,
            hosts_lost: 2,
            cards_lost: 3,
            patch_time_s: 123.456,
            patch_gflops: -0.0,
            whsl_time_s: f64::MIN_POSITIVE / 2.0,
            native_time_s: 99.5,
            fingerprint: 0xABCD,
        };
        let text = serialize_record(&out);
        let back: SeedOutcome = parse_record(&text).expect("own serialization parses");
        assert_eq!(back.patch_gflops.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back, out);
        assert_eq!(serialize_record(&back), text);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let opts = FleetOptions {
            seeds: 12,
            budgets: vec![2, 12],
            budget_stride: 6,
            ..FleetOptions::default()
        };
        let a = fleet_render(&opts);
        let b = fleet_render(&FleetOptions { threads: 3, ..opts });
        assert_eq!(a, b, "report must not depend on the thread count");
        for needle in [
            "P99.9",
            "availability",
            "crossover",
            "death-budget sweep",
            "fleet digest",
        ] {
            assert!(a.contains(needle), "missing {needle}:\n{a}");
        }
    }
}
