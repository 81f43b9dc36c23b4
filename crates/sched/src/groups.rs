//! Thread groups with a master-only critical section.
//!
//! On a 61-core, 244-thread part, letting every thread contend on the
//! scheduler lock "limits scalability" (Section IV-A). The paper's fix:
//! partition threads into groups; "only a single 'master' thread within a
//! group accesses the critical section to obtain a new task, while the
//! remaining threads wait on the local group barrier for the 'master'
//! thread to return with a new task, at which point the entire group
//! starts computing the task."
//!
//! [`run_group_scheduled`] implements exactly that protocol with real
//! threads (used by the numeric backend and by the scalability
//! ablations); the DES backend reuses the same [`crate::DagScheduler`]
//! but advances virtual time instead of running kernels.

use crate::dag::{DagScheduler, Task};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How threads are partitioned into groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupPlan {
    /// Number of groups.
    pub groups: usize,
    /// Threads per group.
    pub threads_per_group: usize,
}

impl GroupPlan {
    /// Partitions `total_threads` into groups of `threads_per_group`
    /// (the last group absorbs any remainder).
    pub fn new(total_threads: usize, threads_per_group: usize) -> Self {
        assert!(total_threads > 0 && threads_per_group > 0);
        assert!(threads_per_group <= total_threads);
        Self {
            groups: total_threads / threads_per_group,
            threads_per_group,
        }
    }
}

/// The group-local handoff: the master publishes either a task or the
/// shutdown signal; members wait, execute, then wait again.
struct GroupChannel {
    slot: Mutex<(u64, Option<Task>, bool)>, // (generation, task, done)
    cv: Condvar,
    /// Members that finished the current task (master waits for all).
    finished: AtomicUsize,
}

impl GroupChannel {
    fn new() -> Self {
        Self {
            slot: Mutex::new((0, None, false)),
            cv: Condvar::new(),
            finished: AtomicUsize::new(0),
        }
    }
}

/// Runs the DAG to completion on `plan.groups × plan.threads_per_group`
/// real threads with the paper's master/worker protocol.
///
/// `execute(task, member, group_size)` is called once per group member
/// per task — cooperative kernels split their work by `member`. It must
/// be safe to run members of one task concurrently (they operate on
/// disjoint slices).
pub fn run_group_scheduled<F>(dag: &DagScheduler, plan: &GroupPlan, execute: F)
where
    F: Fn(Task, usize, usize) + Sync,
{
    let channels: Vec<Arc<GroupChannel>> = (0..plan.groups)
        .map(|_| Arc::new(GroupChannel::new()))
        .collect();
    let execute = &execute;

    std::thread::scope(|s| {
        for ch in channels.iter().take(plan.groups) {
            let ch = ch.clone();
            let size = plan.threads_per_group;
            // Master thread of group g.
            s.spawn(move || {
                // Spawn the group's member threads.
                for member in 1..size {
                    let ch = ch.clone();
                    s.spawn(move || {
                        let mut seen = 0u64;
                        loop {
                            let (task, done) = {
                                let mut slot = ch.slot.lock().unwrap();
                                while slot.0 == seen {
                                    slot = ch.cv.wait(slot).unwrap();
                                }
                                seen = slot.0;
                                (slot.1, slot.2)
                            };
                            if done {
                                return;
                            }
                            if let Some(t) = task {
                                execute(t, member, size);
                            }
                            ch.finished.fetch_add(1, Ordering::AcqRel);
                        }
                    });
                }

                // Master loop: fetch → broadcast → cooperate → commit.
                loop {
                    match dag.available_task() {
                        Some(task) => {
                            ch.finished.store(0, Ordering::Release);
                            {
                                let mut slot = ch.slot.lock().unwrap();
                                slot.0 += 1;
                                slot.1 = Some(task);
                                ch.cv.notify_all();
                            }
                            // Master participates as member 0.
                            execute(task, 0, size);
                            // Local group barrier: wait for members.
                            while ch.finished.load(Ordering::Acquire) < size - 1 {
                                std::hint::spin_loop();
                            }
                            dag.commit(task);
                        }
                        None => {
                            if dag.is_drained() {
                                // Broadcast shutdown.
                                let mut slot = ch.slot.lock().unwrap();
                                slot.0 += 1;
                                slot.1 = None;
                                slot.2 = true;
                                ch.cv.notify_all();
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn plan_partitioning() {
        let p = GroupPlan::new(240, 4);
        assert_eq!(p.groups, 60);
    }

    #[test]
    fn group_protocol_executes_every_task_once_per_member() {
        let n = 8;
        let dag = DagScheduler::new(n);
        let plan = GroupPlan::new(6, 3);
        let counts: StdMutex<HashMap<(Task, usize), usize>> = StdMutex::new(HashMap::new());
        run_group_scheduled(&dag, &plan, |task, member, size| {
            assert_eq!(size, 3);
            assert!(member < 3);
            *counts.lock().unwrap().entry((task, member)).or_insert(0) += 1;
        });
        assert!(dag.is_complete());
        let counts = counts.into_inner().unwrap();
        let total_tasks = n + n * (n - 1) / 2;
        assert_eq!(counts.len(), total_tasks * 3, "each task × each member");
        assert!(counts.values().all(|&c| c == 1), "no duplicate execution");
    }

    #[test]
    fn dependencies_hold_under_group_execution() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = 10;
        let dag = DagScheduler::new(n);
        let plan = GroupPlan::new(8, 2);
        // factored_mask bit j set when Factor(j) ran; every Update(i, j)
        // must observe bit i already set.
        let factored_mask = AtomicU64::new(0);
        run_group_scheduled(&dag, &plan, |task, member, _| {
            if member != 0 {
                return; // check once per task
            }
            match task {
                Task::Factor { panel } => {
                    factored_mask.fetch_or(1 << panel, Ordering::SeqCst);
                }
                Task::Update { stage, .. } => {
                    let mask = factored_mask.load(Ordering::SeqCst);
                    assert!(
                        mask & (1 << stage) != 0,
                        "update observed unfactored stage {stage}"
                    );
                }
            }
        });
        assert!(dag.is_complete());
    }

    #[test]
    fn single_thread_groups_degenerate_to_plain_workers() {
        let dag = DagScheduler::new(5);
        let plan = GroupPlan::new(4, 1);
        let executed = AtomicUsize::new(0);
        run_group_scheduled(&dag, &plan, |_, member, size| {
            assert_eq!(member, 0);
            assert_eq!(size, 1);
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executed.load(Ordering::Relaxed), dag.total_tasks());
    }
}
