//! The compact panel DAG with dynamic look-ahead scheduling.
//!
//! The matrix is divided into `n` column panels. Two task families exist
//! (Fig. 5b):
//!
//! * `Task1(j)` — factorization of panel `j` (DGETRF);
//! * `Task2(i, j)` — the composite update of panel `j` by stage `i`:
//!   pivoting, forward solve and trailing GEMM against panel `i`'s
//!   factors.
//!
//! Dependencies: `Task2(i, j)` needs panel `i` factored and panel `j`
//! updated through stage `i - 1`; `Task1(j)` needs panel `j` updated
//! through stage `j - 1`. Storage is exactly the paper's: one counter per
//! panel (`progress[j]` = number of update stages applied) plus a
//! factored flag — the "one dimensional array of the length equal to the
//! number of panels".
//!
//! [`DagScheduler::available_task`] reproduces the scheduling policy of
//! Fig. 5c: it serves tasks from the lowest incomplete stage, *except*
//! that a panel whose updates just completed is factored immediately
//! (look-ahead), overlapping the next stage's panel factorization with
//! the remainder of the current stage's updates.

use std::sync::Mutex;

/// A schedulable unit of LU work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// Factor panel `panel` (Task1 / DGETRF).
    Factor {
        /// Panel index.
        panel: usize,
    },
    /// Apply stage `stage`'s composite update (swap + DTRSM + DGEMM) to
    /// panel `panel` (Task2).
    Update {
        /// Stage (= index of the factored source panel).
        stage: usize,
        /// Target panel (`panel > stage`).
        panel: usize,
    },
}

#[derive(Debug)]
struct Inner {
    /// progress[j] = number of update stages applied to panel j.
    progress: Vec<usize>,
    /// factored[j] = Task1(j) committed.
    factored: Vec<bool>,
    /// busy[j] = a task targeting panel j is checked out.
    busy: Vec<bool>,
    in_flight: usize,
}

/// Thread-safe dynamic scheduler over the panel DAG.
///
/// `available_task` / `commit` form the protocol: a worker (the *master*
/// thread of its group, per Section IV-A) checks a task out, the group
/// executes it, and the master commits it — the commit "does not require
/// \[the\] critical section" in the paper because it is panel-local; here
/// the shared lock is kept for simplicity, with contention still bounded
/// by the number of groups, not threads.
#[derive(Debug)]
pub struct DagScheduler {
    inner: Mutex<Inner>,
    npanels: usize,
}

impl DagScheduler {
    /// Scheduler for `npanels` column panels.
    pub fn new(npanels: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                progress: vec![0; npanels],
                factored: vec![false; npanels],
                busy: vec![false; npanels],
                in_flight: 0,
            }),
            npanels,
        }
    }

    /// Fetches the next runnable task, or `None` if nothing is currently
    /// available (either done, or all runnable work is checked out).
    ///
    /// Priority order (Fig. 5c):
    /// 1. **look-ahead factorization**: the lowest unfactored panel whose
    ///    updates are complete;
    /// 2. updates from the lowest incomplete stage, left to right.
    pub fn available_task(&self) -> Option<Task> {
        self.available_task_limited(usize::MAX)
    }

    /// Like [`Self::available_task`], but only serves tasks whose stage
    /// index is below `stage_limit` — the confinement a super-stage
    /// imposes (tasks of later super-stages wait for the regrouping
    /// barrier). A task's stage index is `panel` for `Factor` and `stage`
    /// for `Update`.
    pub fn available_task_limited(&self, stage_limit: usize) -> Option<Task> {
        let mut g = self.inner.lock().unwrap();
        let n = self.npanels;

        // 1. Look-ahead: factor any panel that is fully updated.
        for j in 0..n.min(stage_limit) {
            if !g.factored[j] && !g.busy[j] && g.progress[j] == j {
                g.busy[j] = true;
                g.in_flight += 1;
                return Some(Task::Factor { panel: j });
            }
        }
        // 2. Updates: serve the lowest applicable stage per panel.
        for j in 0..n {
            if g.factored[j] || g.busy[j] {
                continue;
            }
            let i = g.progress[j]; // next stage this panel needs
            if i < j && i < stage_limit && g.factored[i] {
                g.busy[j] = true;
                g.in_flight += 1;
                return Some(Task::Update { stage: i, panel: j });
            }
        }
        None
    }

    /// True when every task with stage index below `stage_limit` has been
    /// committed: panels `< stage_limit` factored, and every panel updated
    /// through `min(panel, stage_limit)` stages. This is the super-stage
    /// completion condition checked before the regrouping barrier.
    pub fn phase_complete(&self, stage_limit: usize) -> bool {
        let g = self.inner.lock().unwrap();
        if g.in_flight > 0 {
            return false;
        }
        let n = self.npanels;
        for j in 0..n {
            if j < stage_limit && !g.factored[j] {
                return false;
            }
            if g.progress[j] < j.min(stage_limit) {
                return false;
            }
        }
        true
    }

    /// Commits a completed task, updating the panel-stage array.
    ///
    /// # Panics
    /// Panics if the commit violates the DAG (double factorization,
    /// out-of-order update) — these indicate scheduler bugs and must
    /// never be silently absorbed.
    pub fn commit(&self, task: Task) {
        let mut g = self.inner.lock().unwrap();
        match task {
            Task::Factor { panel } => {
                assert!(!g.factored[panel], "panel {panel} factored twice");
                assert_eq!(
                    g.progress[panel], panel,
                    "panel {panel} factored before its updates completed"
                );
                g.factored[panel] = true;
                g.busy[panel] = false;
            }
            Task::Update { stage, panel } => {
                assert!(g.factored[stage], "update from unfactored stage {stage}");
                assert_eq!(
                    g.progress[panel], stage,
                    "out-of-order update of panel {panel}"
                );
                g.progress[panel] = stage + 1;
                g.busy[panel] = false;
            }
        }
        // saturating: tests may commit forged tasks that were never
        // checked out, and the panic must come from the DAG assertions
        // above, not from counter underflow.
        g.in_flight = g.in_flight.saturating_sub(1);
    }

    /// True when every panel is factored.
    pub fn is_complete(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.factored.iter().all(|&f| f)
    }

    /// True when no task is runnable *and* none are checked out — used by
    /// workers to distinguish "done" from "wait for a dependency".
    pub fn is_drained(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.in_flight == 0 && g.factored.iter().all(|&f| f)
    }

    /// Total number of tasks a full run must execute:
    /// `n` factorizations + `n(n-1)/2` updates.
    pub fn total_tasks(&self) -> usize {
        self.npanels + self.npanels * (self.npanels.saturating_sub(1)) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drains the scheduler single-threaded, checking the dependency
    /// invariants hold at every step.
    fn drain_and_check(n: usize) -> Vec<Task> {
        let dag = DagScheduler::new(n);
        let mut order = Vec::new();
        let mut factored = vec![false; n];
        let mut progress = vec![0usize; n];
        while let Some(t) = dag.available_task() {
            match t {
                Task::Factor { panel } => {
                    assert_eq!(progress[panel], panel, "deps violated for Task1({panel})");
                    factored[panel] = true;
                }
                Task::Update { stage, panel } => {
                    assert!(factored[stage]);
                    assert_eq!(progress[panel], stage);
                    progress[panel] = stage + 1;
                }
            }
            dag.commit(t);
            order.push(t);
        }
        assert!(dag.is_complete(), "n={n}");
        assert_eq!(order.len(), dag.total_tasks());
        order
    }

    #[test]
    fn single_panel_is_one_factorization() {
        let order = drain_and_check(1);
        assert_eq!(order, vec![Task::Factor { panel: 0 }]);
    }

    #[test]
    fn drains_completely_for_various_sizes() {
        for n in [2, 3, 6, 17] {
            let order = drain_and_check(n);
            // Every task unique.
            let set: HashSet<_> = order.iter().copied().collect();
            assert_eq!(set.len(), order.len());
        }
    }

    #[test]
    fn lookahead_factors_next_panel_before_stage_finishes() {
        // n = 4: after Factor(0), the first update the scheduler hands out
        // is Update(0,1); committing it must make Factor(1) available
        // immediately, even though Update(0,2) and Update(0,3) are
        // outstanding — the essence of look-ahead.
        let dag = DagScheduler::new(4);
        let t0 = dag.available_task().unwrap();
        assert_eq!(t0, Task::Factor { panel: 0 });
        dag.commit(t0);
        let t1 = dag.available_task().unwrap();
        assert_eq!(t1, Task::Update { stage: 0, panel: 1 });
        dag.commit(t1);
        let t2 = dag.available_task().unwrap();
        assert_eq!(
            t2,
            Task::Factor { panel: 1 },
            "look-ahead must prioritize the freed panel factorization"
        );
    }

    #[test]
    fn tasks_of_one_stage_run_in_parallel() {
        // After Factor(0), all Update(0, j) are simultaneously available.
        let dag = DagScheduler::new(5);
        let f = dag.available_task().unwrap();
        dag.commit(f);
        let mut checked_out = Vec::new();
        while let Some(t) = dag.available_task() {
            checked_out.push(t);
            if checked_out.len() == 4 {
                break;
            }
        }
        assert_eq!(checked_out.len(), 4, "all stage-0 updates co-available");
        for t in &checked_out {
            assert!(matches!(t, Task::Update { stage: 0, .. }));
        }
        // Nothing else is available while they're in flight.
        assert_eq!(dag.available_task(), None);
        assert!(!dag.is_drained());
    }

    #[test]
    #[should_panic(expected = "factored twice")]
    fn double_factor_commit_panics() {
        let dag = DagScheduler::new(2);
        let t = dag.available_task().unwrap();
        dag.commit(t);
        dag.commit(t);
    }

    #[test]
    #[should_panic(expected = "out-of-order update")]
    fn out_of_order_update_commit_panics() {
        let dag = DagScheduler::new(4);
        let f = dag.available_task().unwrap();
        dag.commit(f); // Factor(0)
                       // Forge an update that skips stage 0.
        dag.commit(Task::Update { stage: 0, panel: 3 });
        dag.commit(Task::Update { stage: 0, panel: 3 });
    }

    #[test]
    fn threaded_drain_respects_dependencies() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 12;
        let dag = DagScheduler::new(n);
        let executed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    match dag.available_task() {
                        Some(t) => {
                            // Simulate work.
                            std::hint::black_box(0u64);
                            dag.commit(t);
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if dag.is_drained() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), dag.total_tasks());
        assert!(dag.is_complete());
    }

    #[test]
    fn total_tasks_formula() {
        assert_eq!(DagScheduler::new(1).total_tasks(), 1);
        assert_eq!(DagScheduler::new(4).total_tasks(), 4 + 6);
        assert_eq!(DagScheduler::new(0).total_tasks(), 0);
    }
}

#[cfg(test)]
mod limited_tests {
    use super::*;

    #[test]
    fn stage_limit_confines_work() {
        let dag = DagScheduler::new(6);
        // Phase 1: stages < 2 only.
        let mut served = Vec::new();
        while let Some(t) = dag.available_task_limited(2) {
            dag.commit(t);
            served.push(t);
        }
        assert!(dag.phase_complete(2));
        assert!(!dag.phase_complete(3));
        // Everything served had stage index < 2.
        for t in &served {
            let s = match t {
                Task::Factor { panel } => *panel,
                Task::Update { stage, .. } => *stage,
            };
            assert!(s < 2, "task {t:?} beyond limit");
        }
        // Phase 2 finishes the job.
        while let Some(t) = dag.available_task() {
            dag.commit(t);
        }
        assert!(dag.is_complete());
    }

    #[test]
    fn phase_complete_requires_no_inflight() {
        let dag = DagScheduler::new(2);
        let t = dag.available_task_limited(1).unwrap();
        assert!(!dag.phase_complete(1), "task in flight");
        dag.commit(t);
        // Factor(0) done; Update(0,1) still pending under limit 1.
        assert!(!dag.phase_complete(1));
        let u = dag.available_task_limited(1).unwrap();
        assert_eq!(u, Task::Update { stage: 0, panel: 1 });
        dag.commit(u);
        assert!(dag.phase_complete(1));
    }
}
