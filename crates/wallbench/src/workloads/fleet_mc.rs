//! `fleet_mc`: a Monte Carlo availability fleet — every seed draws a
//! fault plan and runs it through both hybrid remaps and the native-FT
//! cluster. The *faulty* use of the stage model that `tune_cold` runs
//! healthy, plus `phi-faults` plan generation and resolution.

use super::{Env, Layers, Pass, Workload};
use crate::timing::{timed, Tracer};
use phi_bench::fleet::{
    availability_curve, budget_sweep, completion_percentiles, crossover_frontier,
    fleet_native_cluster, run_fleet, run_fleet_stored, FleetOptions, FleetResult, SeedOutcome,
};
use phi_bench::paper_cluster;
use phi_fabric::{BcastScheme, ProcessGrid, RemapStrategy, ScheduleBuilder};
use phi_faults::{CampaignScope, ChildSpec, Escalation, FaultKind, FaultPlan, Scope};
use phi_hpl::hybrid::simulate_cluster;
use phi_hpl::native::simulate_native_cluster_ft;
use phi_hpl::{simulate_cluster_faulty, FtPolicy};
use phi_lint::ownership::{check_exactly_once, check_patch_conservation};
use phi_lint::OwnershipMap;
use phi_serve::ResultStore;

/// The built workload.
pub struct FleetMc {
    env: Env,
    opts: FleetOptions,
    /// The first seeds' outcomes from a one-thread run: the fleet must
    /// reproduce them at any thread count.
    reference: Vec<SeedOutcome>,
    last: Option<FleetResult>,
}

fn options(env: &Env, seeds: usize, threads: usize) -> FleetOptions {
    FleetOptions {
        seeds,
        seed0: env.seed,
        threads,
        scope: CampaignScope::Mixed,
        ..FleetOptions::default()
    }
}

/// Fixes the fleet's options from the seed and runs the one-thread
/// reference slice.
pub fn build(env: &Env) -> FleetMc {
    let seeds = env.scale.pick(500, 20);
    let reference = run_fleet(&options(env, seeds / 10, 1)).outcomes;
    FleetMc {
        env: env.clone(),
        opts: options(env, seeds, env.threads),
        reference,
        last: None,
    }
}

impl Workload for FleetMc {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (mut fleet, s) = timed(|| tr.time("fleet.run", || run_fleet(&self.opts)));
        pass.seconds = s;
        pass.work = self.opts.seeds as f64;
        if self.env.inject {
            let t = &mut fleet.outcomes[0].patch_time_s;
            *t = f64::from_bits(t.to_bits() ^ 1);
        }
        let slice = &fleet.outcomes[..self.reference.len()];
        pass.check((slice != self.reference.as_slice()).then(|| {
            format!(
                "the first {} outcomes at {} threads differ from the one-thread run",
                slice.len(),
                self.opts.threads
            )
        }));
        pass.sim_digest = fleet.digest;
        self.last = Some(fleet);
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let seed = self.env.seed;
        let threads = self.env.threads;
        let fleet = self.last.as_ref().expect("layers run after a pass");
        let p99 = completion_percentiles(fleet)
            .into_iter()
            .find(|(label, _)| *label == "P99")
            .expect("the fleet reports a P99")
            .1;
        out.exact("fleet.p99_time_s", p99);

        let seeds = self.opts.seeds;
        let one = options(&self.env, seeds, 1);
        let t1 = tr.bench("fleet.run_t1", 0.0, 3, || run_fleet(&one));
        let tt = crate::stats::summarize(&tr.pass_seconds("fleet.run"));
        out.put("fleet.t1_seeds_per_s", t1.map(|s| seeds as f64 / s));
        out.exact(
            "fleet.scaling_eff",
            t1.median / (threads as f64 * tt.median),
        );
        let s = tr.bench("fleet.report", 0.0, 3, || {
            (
                completion_percentiles(fleet),
                availability_curve(fleet),
                crossover_frontier(fleet),
                budget_sweep(fleet),
            )
        });
        out.put("fleet.report_ms", s.map(|sec| sec * 1e3));

        // Through the result store: every seed a miss written back, then
        // every seed a hit.
        let stored = options(&self.env, sc.pick(400, 10), threads);
        let mut dir = 0u32;
        let cold = tr.bench("fleet.stored_cold", 0.0, 3, || {
            dir += 1;
            let store = ResultStore::open(self.env.scratch.join(format!("fleet-{dir}")))
                .expect("the scratch directory is writable");
            run_fleet_stored(&stored, &store)
        });
        let store = ResultStore::open(self.env.scratch.join("fleet-1"))
            .expect("the scratch directory is writable");
        let hit = tr.bench("fleet.stored_hit", sc.budget(0.1), 3, || {
            run_fleet_stored(&stored, &store)
        });
        let n = stored.seeds as f64;
        out.put("fleet.stored_cold_seeds_per_s", cold.map(|s| n / s));
        out.put("fleet.stored_hit_seeds_per_s", hit.map(|s| n / s));

        // phi-faults on the plans the fleet draws.
        let cfg = paper_cluster();
        let ncfg = fleet_native_cluster();
        let healthy = simulate_cluster(&cfg, false).report.time_s;
        let horizon = healthy * 1.2;
        let draw = |i: u64, nodes: usize| {
            FaultPlan::fleet_campaign(
                seed.wrapping_add(i),
                horizon,
                3,
                nodes,
                1,
                CampaignScope::Mixed,
            )
        };
        let batch = 32u64;
        let s = tr.bench("faults.plan.generate", sc.budget(0.05), 5, || {
            (0..batch)
                .map(|i| draw(i, 100).events().len())
                .sum::<usize>()
        });
        out.put(
            "faults.plan.generate_us",
            s.map(|sec| sec * 1e6 / batch as f64),
        );
        // Rack scope, unresolved: every root fans out over eight ranks.
        let mut rack = FaultPlan::none();
        for i in 0..16usize {
            let start = (i * 11) % 92;
            rack = rack.with_cascade(
                horizon * (i as f64 + 0.5) / 17.0,
                FaultKind::LinkDegrade {
                    factor: 0.2,
                    duration_s: horizon / 20.0,
                },
                Escalation::fan(vec![ChildSpec::new(
                    FaultKind::HostDeath { rank: start },
                    horizon / 100.0,
                    0.9,
                )
                .with_scope(Scope::RankSet((start..start + 8).collect()))]),
            );
        }
        let resolved = rack.resolved(seed, horizon).events().len() as f64;
        let s = tr.bench("faults.plan.resolved", sc.budget(0.05), 5, || {
            rack.resolved(seed, horizon)
        });
        out.put(
            "faults.plan.resolved_events_per_s",
            s.map(|sec| resolved / sec),
        );
        let plans: Vec<FaultPlan> = (0..batch).map(|i| draw(i, 100)).collect();
        let windows = 688u32;
        let s = tr.bench("faults.plan.effects_over", sc.budget(0.05), 5, || {
            let dt = horizon / f64::from(windows);
            (0..windows)
                .map(|w| {
                    let t0 = f64::from(w) * dt;
                    plans[w as usize % plans.len()]
                        .effects_over(t0, t0 + dt)
                        .is_healthy()
                })
                .filter(|h| *h)
                .count()
        });
        out.put(
            "faults.plan.effects_over_ns",
            s.map(|sec| sec * 1e9 / f64::from(windows)),
        );
        let s = tr.bench("faults.plan.fingerprint", sc.budget(0.05), 5, || {
            plans.iter().fold(0u64, |h, p| h ^ p.fingerprint())
        });
        out.put(
            "faults.plan.fingerprint_ns",
            s.map(|sec| sec * 1e9 / batch as f64),
        );

        // The faulty stage model, per remap, and what its plumbing costs
        // on a healthy run against the analytic path.
        let patch = FtPolicy::default();
        let wholesale = FtPolicy::default().with_remap(RemapStrategy::Wholesale);
        for (name, span, policy) in [
            ("hpl.faulty.patch_us", "hpl.faulty.patch", &patch),
            (
                "hpl.faulty.wholesale_us",
                "hpl.faulty.wholesale",
                &wholesale,
            ),
        ] {
            let s = tr.bench(span, sc.budget(0.1), 3, || {
                plans
                    .iter()
                    .map(|p| {
                        simulate_cluster_faulty(&cfg, p, policy, false)
                            .result
                            .report
                            .time_s
                    })
                    .sum::<f64>()
            });
            out.put(name, s.map(|sec| sec * 1e6 / batch as f64));
        }
        let none = FaultPlan::none();
        let faulty_healthy = tr.bench("hpl.faulty.healthy", sc.budget(0.1), 5, || {
            simulate_cluster_faulty(&cfg, &none, &FtPolicy::none(), false)
        });
        let analytic = tr.bench("hpl.hybrid.analytic", sc.budget(0.1), 5, || {
            simulate_cluster(&cfg, false)
        });
        out.exact(
            "hpl.faulty.healthy_over_analytic",
            faulty_healthy.median / analytic.median,
        );
        let native: Vec<FaultPlan> = (0..batch).map(|i| draw(i, ncfg.grid.size())).collect();
        let s = tr.bench("hpl.native_ft.cluster", sc.budget(0.1), 3, || {
            native
                .iter()
                .map(|p| simulate_native_cluster_ft(&ncfg, p, true, RemapStrategy::Patch).time_s)
                .sum::<f64>()
        });
        out.put(
            "hpl.native_ft.cluster_us",
            s.map(|sec| sec * 1e6 / batch as f64),
        );

        // phi-lint schedule passes on one 10 × 10 stage.
        let grid = ProcessGrid::new(10, 10);
        let stage = ScheduleBuilder::new(grid).kill(37).stage_schedule(
            BcastScheme::Ring,
            3,
            4,
            1200 * 8 * 82_500,
            1200 * 8 * 82_500,
            12,
        );
        let s = tr.bench("lint.schedule.check", sc.budget(0.05), 5, || {
            phi_lint::schedule::check(&stage)
        });
        out.put("lint.schedule.check_us", s.map(|sec| sec * 1e6));
        let (nblocks, first, nb, n) = (sc.pick(96, 24), 8, 1200, sc.pick(96, 24) * 1200);
        let live: Vec<bool> = (0..grid.size()).map(|r| r != 37).collect();
        let survivors: Vec<usize> = (0..grid.size()).filter(|&r| r != 37).collect();
        let s = tr.bench("lint.ownership.prove", sc.budget(0.1), 3, || {
            let before = OwnershipMap::block_cyclic(&grid, nblocks);
            let mut after = before.clone();
            after.apply_patch(37, &survivors, first);
            let mut diags = check_exactly_once(&after, first, &live, "patched");
            diags.extend(check_patch_conservation(
                &before,
                &after,
                &grid.patch_remap(37),
                first,
                nb,
                n,
                "patch",
            ));
            diags
        });
        out.put("lint.ownership.prove_us", s.map(|sec| sec * 1e6));
    }
}
