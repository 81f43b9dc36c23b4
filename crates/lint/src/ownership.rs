//! Block-cyclic ownership prover: exactly-once coverage and
//! conservation across recovery remaps.
//!
//! The simulators never materialize who owns which block — they use the
//! closed-form trailing counts on [`ProcessGrid`]. This pass builds the
//! explicit owner map those formulas summarize and proves, for every
//! grid shape a run can pass through:
//!
//! * **exactly-once** — each trailing block has one live owner: no
//!   gaps ([`SchedKind::OwnershipGap`], a lost block) and no overlaps
//!   ([`SchedKind::OwnershipOverlap`], two ranks updating the same
//!   panel);
//! * **conservation** — a patch remap moves exactly the dead rank's
//!   blocks and nothing else, and the element total matches the closed
//!   form [`PatchRemap::moved_trailing_elements`] the simulators charge
//!   for ([`SchedKind::ConservationMismatch`] otherwise).

use crate::diag::{SchedDiagnostic, SchedKind};
use phi_fabric::{PatchRemap, ProcessGrid};

/// Element extent of global block index `b` of an `n`-element dimension
/// tiled in `nb`-element blocks (the last block may be partial).
fn block_elems(b: usize, nb: usize, n: usize) -> f64 {
    nb.min(n.saturating_sub(b * nb)) as f64
}

/// Materialized owner map of an `nblocks × nblocks` block grid. Each
/// cell lists the ranks claiming it — exactly one for a correct
/// distribution; the checks below prove it.
#[derive(Clone, Debug)]
pub struct OwnershipMap {
    /// Blocks per dimension.
    pub nblocks: usize,
    /// Claimants of cell `(i, j)` at `i * nblocks + j`.
    pub owners: Vec<Vec<usize>>,
}

impl OwnershipMap {
    /// The HPL block-cyclic distribution: cell `(i, j)` belongs to the
    /// rank at grid coordinate `(i mod P, j mod Q)`.
    pub fn block_cyclic(grid: &ProcessGrid, nblocks: usize) -> Self {
        let mut owners = Vec::with_capacity(nblocks * nblocks);
        for i in 0..nblocks {
            for j in 0..nblocks {
                let p = grid.owner_row(i);
                let q = grid.owner_col(j);
                owners.push(vec![p * grid.q + q]);
            }
        }
        Self { nblocks, owners }
    }

    /// Claimants of cell `(i, j)`.
    fn owners(&self, i: usize, j: usize) -> &[usize] {
        &self.owners[i * self.nblocks + j]
    }

    /// Mutable claimant list of cell `(i, j)`.
    pub fn owners_mut(&mut self, i: usize, j: usize) -> &mut Vec<usize> {
        let n = self.nblocks;
        &mut self.owners[i * n + j]
    }

    /// Locality-preserving patch: every trailing cell
    /// (`first..nblocks` in both dimensions) owned by `dead_rank` is
    /// dealt to the `survivors` round-robin in row-major cell order.
    /// Cells outside the trailing window are already factored and stay
    /// put. Returns the number of cells moved.
    pub fn apply_patch(&mut self, dead_rank: usize, survivors: &[usize], first: usize) -> usize {
        assert!(!survivors.is_empty(), "no survivors to patch onto");
        let mut dealt = 0usize;
        for i in first..self.nblocks {
            for j in first..self.nblocks {
                let cell = self.owners_mut(i, j);
                if cell.contains(&dead_rank) {
                    cell.retain(|&r| r != dead_rank);
                    cell.push(survivors[dealt % survivors.len()]);
                    dealt += 1;
                }
            }
        }
        dealt
    }
}

/// Proves exactly-once live coverage of the trailing window
/// `first..nblocks` (both dimensions): each cell must have exactly one
/// owner, and that owner must be live (`live[rank]`, out-of-range ranks
/// are never live).
pub fn check_exactly_once(
    map: &OwnershipMap,
    first: usize,
    live: &[bool],
    label: &str,
) -> Vec<SchedDiagnostic> {
    let mut diags = Vec::new();
    for i in first..map.nblocks {
        for j in first..map.nblocks {
            let owners = map.owners(i, j);
            let site = format!("{label} block ({i},{j})");
            let excerpt = format!("  > owners of block ({i},{j}): {owners:?}\n");
            match owners {
                [] => diags.push(SchedDiagnostic::new(
                    SchedKind::OwnershipGap { i, j },
                    site,
                    format!("trailing block ({i},{j}) has no owner: its panel updates are lost"),
                    excerpt,
                )),
                [one] if live.get(*one) != Some(&true) => diags.push(SchedDiagnostic::new(
                    SchedKind::OwnershipGap { i, j },
                    site,
                    format!(
                        "trailing block ({i},{j}) is owned by rank {one}, which is not \
                         live: the remap left data on a dead rank"
                    ),
                    excerpt,
                )),
                [_] => {}
                many => diags.push(SchedDiagnostic::new(
                    SchedKind::OwnershipOverlap { i, j },
                    site,
                    format!(
                        "trailing block ({i},{j}) is claimed by {} ranks {many:?}: \
                         concurrent owners race on the trailing update",
                        many.len()
                    ),
                    excerpt,
                )),
            }
        }
    }
    diags
}

/// Proves a patch transition `before → after` conserves ownership: only
/// the dead rank's trailing cells change hands, and the element total
/// of the moved cells equals the closed form the simulators charge,
/// [`PatchRemap::moved_trailing_elements`]`(first, nblocks, nb, n)`.
pub fn check_patch_conservation(
    before: &OwnershipMap,
    after: &OwnershipMap,
    remap: &PatchRemap,
    first: usize,
    nb: usize,
    n: usize,
    label: &str,
) -> Vec<SchedDiagnostic> {
    let mut diags = Vec::new();
    let nblocks = before.nblocks;
    let dead_rank = remap.grid.rank(remap.dead);
    let mut moved_elems = 0.0f64;
    for i in first..nblocks {
        for j in first..nblocks {
            let (b, a) = (before.owners(i, j), after.owners(i, j));
            if b == a {
                continue;
            }
            if !b.contains(&dead_rank) {
                diags.push(SchedDiagnostic::new(
                    SchedKind::ConservationMismatch,
                    format!("{label} block ({i},{j})"),
                    format!(
                        "block ({i},{j}) moved from {b:?} to {a:?} although rank \
                         {dead_rank} is the only casualty: a patch must leave \
                         survivor blocks in place"
                    ),
                    format!("  > before {b:?}  after {a:?}\n"),
                ));
            }
            moved_elems += block_elems(i, nb, n) * block_elems(j, nb, n);
        }
    }
    let declared = remap.moved_trailing_elements(first, nblocks, nb, n);
    if (moved_elems - declared).abs() > 1e-6 * declared.max(1.0) {
        diags.push(SchedDiagnostic::new(
            SchedKind::ConservationMismatch,
            format!("{label} trailing window {first}..{nblocks}"),
            format!(
                "the remap moved {moved_elems:.0} elements but the closed form the \
                 simulators charge for declares {declared:.0}: recovery traffic is \
                 mispriced"
            ),
            format!("  > moved {moved_elems:.0} vs declared {declared:.0}\n"),
        ));
    }
    diags
}

/// A deliberately broken ownership scenario and its expected kind.
#[derive(Clone, Debug)]
pub struct BrokenOwnership {
    /// Short human name of the defect scenario.
    pub name: &'static str,
    /// `SchedKind::name()` of the expected diagnostic.
    pub expect: &'static str,
    /// Findings from running the checks on the broken map.
    pub diags: Vec<SchedDiagnostic>,
}

/// One broken fixture per ownership diagnostic kind, for the gate's
/// must-fail self-test.
pub fn broken_fixtures() -> Vec<BrokenOwnership> {
    let grid = ProcessGrid::new(2, 3);
    let live = vec![true; grid.size()];
    let nblocks = 6;

    // A dropped cell: some recovery forgot to re-home one block.
    let mut gap = OwnershipMap::block_cyclic(&grid, nblocks);
    gap.owners_mut(3, 4).clear();
    let gap_diags = check_exactly_once(&gap, 2, &live, "fixture: dropped block");

    // A double claim: two ranks both believe they own (2,2).
    let mut overlap = OwnershipMap::block_cyclic(&grid, nblocks);
    overlap.owners_mut(2, 2).push(5);
    let overlap_diags = check_exactly_once(&overlap, 2, &live, "fixture: double claim");

    // A sloppy patch that also moves a survivor's block: conservation
    // breaks both ways (a non-casualty cell changed hands, and the
    // element total no longer matches the closed form).
    let before = OwnershipMap::block_cyclic(&grid, nblocks);
    let remap = grid.patch_remap(1);
    let survivors: Vec<usize> = (0..grid.size()).filter(|&r| r != 1).collect();
    let mut after = before.clone();
    after.apply_patch(1, &survivors, 2);
    // Block (4,5) belongs to rank 2 — a survivor — yet moves anyway.
    let moved_cell = after.owners_mut(4, 5);
    moved_cell.clear();
    moved_cell.push(0);
    let cons_diags =
        check_patch_conservation(&before, &after, &remap, 2, 8, 44, "fixture: sloppy patch");

    vec![
        BrokenOwnership {
            name: "trailing block with no owner",
            expect: "ownership-gap",
            diags: gap_diags,
        },
        BrokenOwnership {
            name: "trailing block claimed twice",
            expect: "ownership-overlap",
            diags: overlap_diags,
        },
        BrokenOwnership {
            name: "patch that moves a survivor block",
            expect: "conservation-mismatch",
            diags: cons_diags,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_cyclic_is_exactly_once_on_any_grid() {
        for (p, q) in [(1usize, 1usize), (2, 3), (4, 8), (9, 11)] {
            let grid = ProcessGrid::new(p, q);
            let map = OwnershipMap::block_cyclic(&grid, 13);
            let live = vec![true; grid.size()];
            assert!(check_exactly_once(&map, 0, &live, "test").is_empty());
        }
    }

    #[test]
    fn patch_conserves_and_matches_the_closed_form() {
        let grid = ProcessGrid::new(4, 8);
        let (nblocks, nb, n) = (11usize, 1200usize, 12800usize);
        for dead in [0usize, 13, 31] {
            for first in [0usize, 3, 10] {
                let before = OwnershipMap::block_cyclic(&grid, nblocks);
                let remap = grid.patch_remap(dead);
                let survivors: Vec<usize> = (0..grid.size()).filter(|&r| r != dead).collect();
                let mut after = before.clone();
                after.apply_patch(dead, &survivors, first);
                let mut live = vec![true; grid.size()];
                live[dead] = false;
                assert!(check_exactly_once(&after, first, &live, "t").is_empty());
                let diags = check_patch_conservation(&before, &after, &remap, first, nb, n, "t");
                assert!(
                    diags.is_empty(),
                    "dead={dead} first={first}: {}",
                    diags[0].render()
                );
            }
        }
    }

    #[test]
    fn partial_edge_blocks_are_priced_element_exactly() {
        // n not a multiple of nb: the last block row/col is clipped.
        let grid = ProcessGrid::new(2, 3);
        let (nblocks, nb, n) = (5usize, 100usize, 460usize);
        let dead = 4; // owns the clipped last block row (4 % 2 == 0)? p=1,q=1.
        let before = OwnershipMap::block_cyclic(&grid, nblocks);
        let remap = grid.patch_remap(dead);
        let survivors: Vec<usize> = (0..grid.size()).filter(|&r| r != dead).collect();
        let mut after = before.clone();
        after.apply_patch(dead, &survivors, 1);
        assert!(check_patch_conservation(&before, &after, &remap, 1, nb, n, "t").is_empty());
    }

    #[test]
    fn every_broken_fixture_trips_its_expected_kind() {
        for f in broken_fixtures() {
            assert!(
                f.diags.iter().any(|d| d.kind.name() == f.expect),
                "{}: expected {}, got {:?}",
                f.name,
                f.expect,
                f.diags.iter().map(|d| d.kind.name()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dead_owner_counts_as_a_gap() {
        let grid = ProcessGrid::new(2, 2);
        let map = OwnershipMap::block_cyclic(&grid, 4);
        let mut live = vec![true; 4];
        live[3] = false;
        let diags = check_exactly_once(&map, 0, &live, "t");
        assert!(!diags.is_empty());
        assert!(diags
            .iter()
            .all(|d| matches!(d.kind, SchedKind::OwnershipGap { .. })));
        assert!(diags[0].render().contains("error[S301:ownership-gap]"));
    }
}
