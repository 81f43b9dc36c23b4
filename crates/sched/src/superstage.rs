//! Super-stages and thread regrouping (Section IV-A).
//!
//! A fixed thread partition creates load imbalance: "while using four
//! threads in a group may be sufficient to hide panel factorization
//! during early stages dominated by large trailing matrix updates, later
//! stages which work on smaller matrices require more threads to hide the
//! panel." The paper's extension breaks LU into **super-stages**; within
//! one, the grouping is fixed; at the boundary a (cheap, infrequent)
//! global barrier fires and groups are re-formed with more threads per
//! group.
//!
//! [`superstage_plan`] computes that schedule: given the total thread
//! count and the per-stage ratio of panel work to trailing work, it
//! doubles the group size whenever the current size can no longer hide
//! the panel.

/// One super-stage: a run of consecutive LU stages sharing a grouping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperStage {
    /// First stage (panel index) of the super-stage, inclusive.
    pub first_stage: usize,
    /// One past the last stage, exclusive.
    pub end_stage: usize,
    /// Threads per group within the super-stage.
    pub threads_per_group: usize,
}

impl SuperStage {
    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.first_stage >= self.end_stage
    }
}

/// Builds the super-stage schedule for an LU of `npanels` panels on
/// `total_threads` threads.
///
/// `panel_hide_ratio(stage, threads_per_group)` must return the ratio of
/// the stage's panel-factorization time (on one group) to the stage's
/// trailing-update time (on the whole machine); a ratio ≤ 1 means the
/// panel hides. Group sizes are drawn from the **divisor ladder** of
/// `total_threads` (so every grouping tiles the machine exactly, no
/// threads stranded), starting at `min_group` and climbing one rung
/// whenever the current size can no longer hide the panel.
pub fn superstage_plan<F>(
    npanels: usize,
    total_threads: usize,
    min_group: usize,
    panel_hide_ratio: F,
) -> Vec<SuperStage>
where
    F: Fn(usize, usize) -> f64,
{
    assert!(min_group > 0 && min_group <= total_threads);
    let ladder: Vec<usize> = (min_group..=total_threads)
        .filter(|d| total_threads.is_multiple_of(*d))
        .collect();
    assert!(
        !ladder.is_empty(),
        "min_group must not exceed total_threads"
    );
    let mut plan: Vec<SuperStage> = Vec::new();
    let mut level = 0usize;
    let mut start = 0usize;
    for stage in 0..npanels {
        // Climb while the panel is unhidden *and* the next rung actually
        // improves it: panel time is not monotone in group size (the
        // per-column synchronization grows with the cores it spans), so
        // past the sweet spot more threads make the panel slower.
        let mut needed = level;
        while needed + 1 < ladder.len()
            && panel_hide_ratio(stage, ladder[needed]) > 1.0
            && panel_hide_ratio(stage, ladder[needed + 1]) < panel_hide_ratio(stage, ladder[needed])
        {
            needed += 1;
        }
        if needed != level {
            if stage > start {
                plan.push(SuperStage {
                    first_stage: start,
                    end_stage: stage,
                    threads_per_group: ladder[level],
                });
            }
            start = stage;
            level = needed;
        }
    }
    if start < npanels {
        plan.push(SuperStage {
            first_stage: start,
            end_stage: npanels,
            threads_per_group: ladder[level],
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ratio_gives_single_superstage() {
        let plan = superstage_plan(100, 240, 4, |_, _| 0.5);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].first_stage, 0);
        assert_eq!(plan[0].end_stage, 100);
        assert_eq!(plan[0].threads_per_group, 4);
    }

    #[test]
    fn group_size_grows_as_matrix_shrinks() {
        // Model the real effect: trailing update shrinks quadratically
        // with stage while the panel shrinks linearly, so the hide ratio
        // grows; more threads per group reduce it.
        let npanels = 64;
        let ratio = |stage: usize, tpg: usize| {
            let remaining = (npanels - stage) as f64;
            // panel_time ∝ remaining / tpg ; update_time ∝ remaining².
            40.0 * remaining / (tpg as f64) / (remaining * remaining)
        };
        let plan = superstage_plan(npanels, 240, 4, ratio);
        assert!(plan.len() > 1, "must regroup at least once: {plan:?}");
        // Coverage: contiguous, complete, monotone group growth.
        assert_eq!(plan[0].first_stage, 0);
        assert_eq!(plan.last().unwrap().end_stage, npanels);
        for w in plan.windows(2) {
            assert_eq!(w[0].end_stage, w[1].first_stage, "contiguous");
            assert!(
                w[1].threads_per_group > w[0].threads_per_group,
                "groups only grow"
            );
        }
        // And the hide condition holds at each super-stage start (or the
        // machine is exhausted).
        for ss in &plan {
            let r = ratio(ss.first_stage, ss.threads_per_group);
            assert!(
                r <= 1.0 || ss.threads_per_group == 240,
                "stage {} unhidden: ratio {r}",
                ss.first_stage
            );
        }
    }

    #[test]
    fn group_size_caps_at_total_threads() {
        // A ratio that always exceeds 1 but improves with size climbs to
        // the top of the ladder and stops there.
        let plan = superstage_plan(10, 16, 4, |_, tpg| 100.0 / tpg as f64);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].threads_per_group, 16);
    }

    #[test]
    fn climbing_stops_at_the_panel_sweet_spot() {
        // Ratio > 1 everywhere but minimized at 8 threads: the plan must
        // not climb past the minimum even though the panel never hides.
        let plan = superstage_plan(10, 64, 4, |_, tpg| 2.0 + (tpg as f64 - 8.0).abs());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].threads_per_group, 8);
    }

    #[test]
    fn empty_lu_gives_empty_plan() {
        let plan = superstage_plan(0, 240, 4, |_, _| 0.5);
        assert!(plan.is_empty());
    }

    #[test]
    fn superstage_len_helpers() {
        let ss = SuperStage {
            first_stage: 3,
            end_stage: 7,
            threads_per_group: 8,
        };
        assert!(!ss.is_empty());
    }
}
