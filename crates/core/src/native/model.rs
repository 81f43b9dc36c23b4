//! Timed backend: dynamic DAG scheduling over virtual time.
//!
//! The same [`DagScheduler`] that drives the real threads in
//! `super::numeric` is driven here by the discrete-event engine: each
//! worker lane is one thread *group*; fetching a task costs the dispatch
//! overhead (the master's critical section + group wake-up), executing it
//! advances virtual time by the `LuTaskModel` duration. Super-stage
//! boundaries insert the global barrier and regroup threads, exactly as
//! Section IV-A describes.
//!
//! The output is the Fig. 6 "dynamic scheduling" curve; with tracing
//! enabled, the spans reproduce the Fig. 7b Gantt chart.

use super::NativeConfig;
use crate::report::GigaflopsReport;
use phi_des::{Kind, Sim};
use phi_knc::Precision;
use phi_sched::{superstage_plan, DagScheduler, Task};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared state of one super-stage phase.
struct Phase {
    dag: DagScheduler,
    cfg: NativeConfig,
    stage_limit: usize,
    cores_per_group: f64,
    /// Lanes (groups) currently idle, waiting for a dependency.
    waiting: Vec<u32>,
    /// Lanes that have retired for this phase.
    retired: usize,
    groups: usize,
}

impl Phase {
    /// Duration of a task in seconds.
    fn duration(&self, task: Task) -> f64 {
        let cfg = &self.cfg;
        let t = &cfg.tasks;
        let cores = self.cores_per_group;
        match task {
            Task::Factor { panel } => {
                let m = cfg.rows_at(panel);
                t.panel_time_s(m, cfg.panel_width(panel), cores)
            }
            Task::Update { stage, panel } => {
                let w = cfg.panel_width(panel);
                let nbs = cfg.panel_width(stage);
                let m_trail = cfg.rows_at(stage + 1);
                t.swap_time_s(nbs, w, cores)
                    + t.trsm_time_s(nbs, w, cores)
                    + t.update_time_s(m_trail, w, nbs, cores)
            }
        }
    }

    fn kind(task: Task) -> Kind {
        match task {
            Task::Factor { .. } => Kind::Panel,
            Task::Update { .. } => Kind::Gemm,
        }
    }
}

/// One lane becomes free: fetch and execute the next task, or park.
fn lane_free(sim: &mut Sim, ph: Rc<RefCell<Phase>>, lane: u32) {
    let task = {
        let p = ph.borrow();
        p.dag.available_task_limited(p.stage_limit)
    };
    match task {
        Some(task) => {
            let (dur, overhead) = {
                let p = ph.borrow();
                (p.duration(task), p.cfg.dispatch_overhead_s)
            };
            let start = sim.now();
            let end = start + overhead + dur;
            sim.trace_mut()
                .record(lane, start + overhead, end, Phase::kind(task));
            let ph2 = ph.clone();
            sim.schedule(overhead + dur, move |s| {
                let wakeups: Vec<u32> = {
                    let mut p = ph2.borrow_mut();
                    p.dag.commit(task);
                    std::mem::take(&mut p.waiting)
                };
                // A commit may unblock parked lanes.
                for w in wakeups {
                    let ph3 = ph2.clone();
                    s.schedule(0.0, move |s2| lane_free(s2, ph3, w));
                }
                lane_free(s, ph2, lane);
            });
        }
        None => {
            let mut p = ph.borrow_mut();
            if p.dag.phase_complete(p.stage_limit) {
                p.retired += 1;
            } else {
                p.waiting.push(lane);
            }
        }
    }
}

/// Simulates a native Linpack run with dynamic DAG scheduling and
/// super-stage regrouping. With `trace`, the report carries the per-kind
/// breakdown and the simulation's spans can be rendered as Fig. 7b.
pub fn simulate_dynamic(cfg: &NativeConfig, trace: bool) -> GigaflopsReport {
    let (report, _) = simulate_dynamic_traced(cfg, trace);
    report
}

/// Like [`simulate_dynamic`] but also returns the trace (Gantt source).
pub fn simulate_dynamic_traced(
    cfg: &NativeConfig,
    trace: bool,
) -> (GigaflopsReport, phi_des::Trace) {
    let npanels = cfg.npanels();
    assert!(npanels > 0, "empty problem");
    let peak = cfg.tasks.gemm.chip.native_peak_gflops(Precision::F64);

    // Plan super-stages: the group size must keep each stage's panel
    // hidden under that stage's trailing update on the rest of the chip.
    // The ablation hook replaces the plan with one fixed grouping.
    let plan = if let Some(tpg) = cfg.fixed_group_threads {
        vec![phi_sched::SuperStage {
            first_stage: 0,
            end_stage: npanels,
            threads_per_group: tpg.clamp(4, cfg.total_threads),
        }]
    } else {
        superstage_plan(
            npanels,
            cfg.total_threads,
            cfg.min_group_threads,
            |stage, tpg| {
                let m_next = cfg.rows_at(stage + 1);
                if m_next == 0 {
                    return 0.0;
                }
                let panel = cfg.tasks.panel_time_s(m_next, cfg.nb, tpg as f64 / 4.0);
                let chip_cores = cfg.total_threads as f64 / 4.0;
                let update = cfg
                    .tasks
                    .update_time_s(m_next, m_next, cfg.nb, chip_cores)
                    .max(1e-12);
                panel / update
            },
        )
    };

    let mut sim = Sim::new();
    if trace {
        sim.trace_mut().enable();
    }
    let dag = DagScheduler::new(npanels);
    let mut dag = Some(dag);

    for (idx, ss) in plan.iter().enumerate() {
        let groups = (cfg.total_threads / ss.threads_per_group).max(1);
        let ph = Rc::new(RefCell::new(Phase {
            dag: dag.take().expect("dag handed over between phases"),
            cfg: *cfg,
            stage_limit: ss.end_stage,
            cores_per_group: ss.threads_per_group as f64 / 4.0,
            waiting: Vec::new(),
            retired: 0,
            groups,
        }));
        for lane in 0..groups as u32 {
            let ph2 = ph.clone();
            sim.schedule(0.0, move |s| lane_free(s, ph2, lane));
        }
        sim.run();
        {
            let p = ph.borrow();
            assert!(
                p.dag.phase_complete(p.stage_limit),
                "phase {idx} did not drain (limit {})",
                p.stage_limit
            );
            assert_eq!(p.retired + p.waiting.len(), p.groups);
        }
        // Global barrier + regroup between super-stages (amortized: the
        // barrier "is executed infrequently, at the end of the
        // super-stage").
        let barrier = cfg.tasks.barrier_s;
        let t = sim.now();
        sim.trace_mut().record(0, t, t + barrier, Kind::Barrier);
        sim.schedule(barrier, |_| {});
        sim.run();
        dag = Some(
            Rc::try_unwrap(ph)
                .ok()
                .expect("phase released")
                .into_inner()
                .dag,
        );
    }

    let dag = dag.expect("dag returned");
    assert!(dag.is_complete(), "LU did not complete");
    let total = sim.now();
    let breakdown = sim.trace().totals();
    let report = GigaflopsReport::new(cfg.n, total, peak).with_breakdown(breakdown);
    (report, sim.trace().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeConfig;

    #[test]
    fn completes_and_is_deterministic() {
        let cfg = NativeConfig::new(5120);
        let a = simulate_dynamic(&cfg, false);
        let b = simulate_dynamic(&cfg, false);
        assert_eq!(a.time_s, b.time_s, "DES must be deterministic");
        assert!(a.gflops > 0.0);
        assert!(a.efficiency() < 1.0);
    }

    #[test]
    fn efficiency_grows_with_problem_size() {
        let small = simulate_dynamic(&NativeConfig::new(2048), false);
        let mid = simulate_dynamic(&NativeConfig::new(8192), false);
        let large = simulate_dynamic(&NativeConfig::new(20480), false);
        assert!(small.efficiency() < mid.efficiency());
        assert!(mid.efficiency() < large.efficiency());
    }

    #[test]
    fn headline_30k_efficiency_near_79_percent() {
        // Fig. 6: "For the 30K problem, both schemes achieve 832 GFLOPS,
        // which corresponds to ≈79% efficiency."
        let cfg = NativeConfig::new(30_720);
        let r = simulate_dynamic(&cfg, false);
        assert!(
            (r.efficiency() - 0.788).abs() < 0.02,
            "30K dynamic eff = {:.3} ({} GFLOPS)",
            r.efficiency(),
            r.gflops
        );
    }

    #[test]
    fn trace_contains_panels_and_updates() {
        let cfg = NativeConfig::new(2048);
        let (report, trace) = simulate_dynamic_traced(&cfg, true);
        assert!(!report.breakdown.is_empty());
        let kinds: Vec<_> = trace.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&phi_des::Kind::Panel));
        assert!(kinds.contains(&phi_des::Kind::Gemm));
    }
}
