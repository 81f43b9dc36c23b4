//! The schedule-verification gate behind `phi schedule-lint`; its unit
//! tests run it on the real tree.
//!
//! Four obligations, mirroring the kernel lint gate's shape but aimed
//! at the cluster side of the paper:
//!
//! 1. **Channel graphs** — every communication-grid regime the
//!    fault-tolerant simulators can route through (healthy grids,
//!    patch-remapped grids with accumulating dead ranks, wholesale
//!    fallback grids; hybrid and native flavours, every broadcast
//!    scheme, with and without lookahead strip-splitting) materializes
//!    to send/recv programs that verify deadlock-free under rendezvous
//!    semantics ([`phi_lint::schedule`]).
//! 2. **Ownership** — each regime's block-cyclic owner map proves
//!    exactly-once live coverage, and every patch transition conserves
//!    blocks against the closed form the simulators charge
//!    ([`phi_lint::ownership`]).
//! 3. **Determinism** — the simulator/fault crates scan clean of seed
//!    bypasses, hash-order iteration and unordered float reductions
//!    ([`phi_lint::determinism`]).
//! 4. **Self-test** — every schedule-family diagnostic kind fires on
//!    its deliberately broken fixture.

use crate::format::TextTable;
use phi_fabric::{BcastScheme, ProcessGrid, RemapStrategy, ScheduleBuilder, ScheduleShape};
use phi_faults::{FaultKind, FaultPlan};
use phi_hpl::hybrid::{recovery_regimes, FtPolicy};
use phi_hpl::native::{native_recovery_regimes, NativeClusterConfig};
use phi_hpl::HybridConfig;
use phi_lint::diag::json_escape;
use phi_lint::{determinism, ownership, schedule, OwnershipMap, SchedDiagnostic};
use std::path::Path;

/// Block grid of the ownership proofs: enough blocks that every process
/// coordinate of the largest grid owns trailing cells.
const NBLOCKS: usize = 12;
/// Block size of the ownership proofs (elements).
const NB: usize = 800;
/// Matrix order — deliberately not a multiple of [`NB`], so the clipped
/// final block row/column exercises the element-exact accounting.
const N: usize = NBLOCKS * NB - 160;
/// First unfactored block: the proofs run over a mid-factorization
/// trailing window, the state recovery actually remaps.
const FIRST: usize = 2;
/// Panel/swap byte sizes of the materialized schedules.
const PANEL_BYTES: u64 = 8 * (NB as u64) * (NB as u64);
const SWAP_BYTES: u64 = 8 * (NB as u64) * 64;

/// Verification tally for one communication-grid regime.
#[derive(Clone, Debug)]
pub(crate) struct ShapeRow {
    /// Which simulator family emitted the regime.
    pub flavour: &'static str,
    /// [`ScheduleShape::label`].
    pub label: String,
    /// Materialized schedules checked.
    pub schedules: usize,
    /// Send/recv operations proved across them.
    pub ops: usize,
    /// Trailing blocks covered by the ownership proof.
    pub blocks: usize,
    /// Findings against this regime (must be 0).
    pub findings: usize,
}

/// Self-test verdict for one broken fixture.
#[derive(Clone, Debug)]
pub(crate) struct SchedFixtureRow {
    /// Fixture scenario name.
    pub name: &'static str,
    /// Diagnostic kind it must trip.
    pub expect: &'static str,
    /// Whether the checker reported that kind.
    pub fired: bool,
}

/// Complete gate outcome.
#[derive(Clone, Debug)]
pub(crate) struct SchedLintGate {
    /// One row per distinct regime verified.
    pub shapes: Vec<ShapeRow>,
    /// One row per broken fixture.
    pub fixtures: Vec<SchedFixtureRow>,
    /// Source files covered by the determinism scan.
    pub files_scanned: usize,
    /// Every finding against the real tree (must be empty).
    pub findings: Vec<SchedDiagnostic>,
}

/// The fault plans whose recovery regimes the gate sweeps: nothing, a
/// seeded mixed campaign (what the `faults`/`fleet` bins replay), and a
/// deep correlated loss that blows any default death budget.
fn reference_plans(size: usize) -> Vec<FaultPlan> {
    let mut deep = FaultPlan::none();
    for k in 0..size.min(7) {
        deep = deep.with_event(
            10.0 * (k + 1) as f64,
            FaultKind::HostDeath {
                rank: (k * 5 + 3) % size,
            },
        );
    }
    vec![
        FaultPlan::none(),
        FaultPlan::campaign(crate::FIXTURE_SEED, 600.0, 8),
        deep,
    ]
}

/// Every distinct regime the reference sweep can enter, hybrid and
/// native, across grids × plans × remap policies.
fn reference_shapes() -> Vec<(&'static str, ScheduleShape)> {
    let mut out: Vec<(&'static str, ScheduleShape)> = Vec::new();
    let mut push = |flavour: &'static str, shape: ScheduleShape| {
        if !out.iter().any(|(f, s)| *f == flavour && *s == shape) {
            out.push((flavour, shape));
        }
    };
    for (p, q) in [(2usize, 2usize), (4, 8), (10, 10)] {
        let grid = ProcessGrid::new(p, q);
        let hybrid = HybridConfig::new(168_000, grid, 2);
        let policies = [
            FtPolicy::default(),
            FtPolicy::default().with_death_budget(1),
            FtPolicy::default().with_remap(RemapStrategy::Wholesale),
        ];
        for plan in reference_plans(grid.size()) {
            for policy in &policies {
                for shape in recovery_regimes(&hybrid, &plan, policy) {
                    push("hybrid", shape);
                }
            }
            let native = NativeClusterConfig::new(30_000, p, q);
            for shape in native_recovery_regimes(&native, &plan) {
                push("native", shape);
            }
        }
    }
    out
}

/// Materializes and checks every schedule variant of one regime:
/// all broadcast schemes × lookahead strip counts × corner roots.
/// Returns `(schedules, ops, findings)`.
fn verify_channels(shape: &ScheduleShape) -> (usize, usize, Vec<SchedDiagnostic>) {
    let b = ScheduleBuilder::for_shape(shape);
    let grid = shape.grid;
    let root_cols = if grid.q > 1 {
        vec![0, grid.q - 1]
    } else {
        vec![0]
    };
    let root_rows = if grid.p > 1 {
        vec![0, grid.p - 1]
    } else {
        vec![0]
    };
    let (mut schedules, mut ops) = (0usize, 0usize);
    let mut diags = Vec::new();
    for scheme in BcastScheme::ALL {
        for strips in [1usize, 4] {
            for &rc in &root_cols {
                for &rr in &root_rows {
                    let s = b.stage_schedule(scheme, rc, rr, PANEL_BYTES, SWAP_BYTES, strips);
                    schedules += 1;
                    ops += s.total_ops();
                    diags.extend(schedule::check(&s));
                }
            }
        }
    }
    (schedules, ops, diags)
}

/// Proves the regime's ownership story: exactly-once live coverage of
/// the trailing window, plus per-death conservation against
/// [`phi_fabric::PatchRemap::moved_trailing_elements`] for patched
/// regimes. Returns `(blocks_proved, findings)`.
fn verify_ownership(shape: &ScheduleShape) -> (usize, Vec<SchedDiagnostic>) {
    let grid = shape.grid;
    let label = shape.label();
    let mut diags = Vec::new();
    let trailing = (NBLOCKS - FIRST) * (NBLOCKS - FIRST);
    if shape.dead_ranks.is_empty() {
        // Healthy or wholesale-reshaped: the plain block-cyclic map
        // over the (possibly fallback) grid must cover exactly once.
        let map = OwnershipMap::block_cyclic(&grid, NBLOCKS);
        let live = vec![true; grid.size()];
        diags.extend(ownership::check_exactly_once(&map, FIRST, &live, &label));
        return (trailing, diags);
    }
    // Patched regime: replay the deaths in order. Conservation is
    // proved per death from a pristine map (the closed form prices each
    // rank's own block-cyclic share); coverage is proved on the
    // sequential map, where inherited blocks cascade to later patches.
    let pristine = OwnershipMap::block_cyclic(&grid, NBLOCKS);
    let mut map = pristine.clone();
    let mut live = vec![true; grid.size()];
    for &dead in &shape.dead_ranks {
        live[dead] = false;
        let survivors: Vec<usize> = (0..grid.size()).filter(|&r| live[r]).collect();
        let remap = grid.patch_remap(dead);
        let mut single = pristine.clone();
        single.apply_patch(dead, &survivors, FIRST);
        diags.extend(ownership::check_patch_conservation(
            &pristine, &single, &remap, FIRST, NB, N, &label,
        ));
        map.apply_patch(dead, &survivors, FIRST);
    }
    diags.extend(ownership::check_exactly_once(&map, FIRST, &live, &label));
    (trailing * (1 + shape.dead_ranks.len()), diags)
}

/// Runs the full gate. `root` is the workspace root the determinism
/// scan resolves [`determinism::SCAN_ROOTS`] against.
pub(crate) fn run(root: &Path) -> std::io::Result<SchedLintGate> {
    let mut shapes = Vec::new();
    let mut findings = Vec::new();
    for (flavour, shape) in reference_shapes() {
        let (schedules, ops, chan) = verify_channels(&shape);
        let (blocks, own) = verify_ownership(&shape);
        let row_findings = chan.len() + own.len();
        findings.extend(chan);
        findings.extend(own);
        shapes.push(ShapeRow {
            flavour,
            label: shape.label(),
            schedules,
            ops,
            blocks,
            findings: row_findings,
        });
    }

    let mut files_scanned = 0usize;
    for rel in determinism::SCAN_ROOTS {
        let dir = root.join(rel);
        let (files, diags) = determinism::scan_dir(&dir)?;
        files_scanned += files;
        findings.extend(diags);
    }

    let mut fixtures = Vec::new();
    for f in schedule::broken_fixtures() {
        let diags = schedule::check(&f.schedule);
        fixtures.push(SchedFixtureRow {
            name: f.name,
            expect: f.expect,
            fired: diags.iter().any(|d| d.kind.name() == f.expect),
        });
    }
    for f in ownership::broken_fixtures() {
        fixtures.push(SchedFixtureRow {
            name: f.name,
            expect: f.expect,
            fired: f.diags.iter().any(|d| d.kind.name() == f.expect),
        });
    }
    for f in determinism::broken_fixtures() {
        fixtures.push(SchedFixtureRow {
            name: f.name,
            expect: f.expect,
            fired: f.diags.iter().any(|d| d.kind.name() == f.expect),
        });
    }

    Ok(SchedLintGate {
        shapes,
        fixtures,
        files_scanned,
        findings,
    })
}

impl SchedLintGate {
    /// True when every regime verifies clean and every fixture fires.
    pub(crate) fn passed(&self) -> bool {
        self.findings.is_empty() && self.fixtures.iter().all(|f| f.fired)
    }

    /// Total operations proved across all regimes.
    fn ops_verified(&self) -> usize {
        self.shapes.iter().map(|s| s.ops).sum()
    }

    /// Renders the gate report as tables plus any findings.
    pub(crate) fn render(&self) -> String {
        let mut t = TextTable::new([
            "flavour",
            "regime",
            "schedules",
            "ops",
            "blocks",
            "findings",
        ]);
        for s in &self.shapes {
            t.row([
                s.flavour.to_string(),
                s.label.clone(),
                s.schedules.to_string(),
                s.ops.to_string(),
                s.blocks.to_string(),
                s.findings.to_string(),
            ]);
        }
        let mut f = TextTable::new(["fixture", "expected lint", "fired"]);
        for row in &self.fixtures {
            f.row([row.name, row.expect, if row.fired { "yes" } else { "NO" }]);
        }
        let mut out = format!(
            "schedule verification gate ({} regimes, {} ops, {} source files scanned)\n{}\n{}\n",
            self.shapes.len(),
            self.ops_verified(),
            self.files_scanned,
            t.render(),
            f.render()
        );
        for d in &self.findings {
            out.push_str(&d.render());
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }

    /// Renders the machine-readable report (`--json`): one stable JSON
    /// object, findings in [`SchedDiagnostic::render_json`] form.
    pub(crate) fn render_json(&self) -> String {
        let shapes: Vec<String> = self
            .shapes
            .iter()
            .map(|s| {
                format!(
                    "{{\"flavour\":\"{}\",\"regime\":\"{}\",\"schedules\":{},\"ops\":{},\
                     \"blocks\":{},\"findings\":{}}}",
                    s.flavour,
                    json_escape(&s.label),
                    s.schedules,
                    s.ops,
                    s.blocks,
                    s.findings
                )
            })
            .collect();
        let fixtures: Vec<String> = self
            .fixtures
            .iter()
            .map(|f| {
                format!(
                    "{{\"name\":\"{}\",\"expect\":\"{}\",\"fired\":{}}}",
                    json_escape(f.name),
                    f.expect,
                    f.fired
                )
            })
            .collect();
        let findings: Vec<String> = self.findings.iter().map(|d| d.render_json()).collect();
        format!(
            "{{\"gate\":\"schedule-lint\",\"passed\":{},\"regimes\":{},\"ops_verified\":{},\
             \"files_scanned\":{},\"shapes\":[{}],\"fixtures\":[{}],\"findings\":[{}]}}\n",
            self.passed(),
            self.shapes.len(),
            self.ops_verified(),
            self.files_scanned,
            shapes.join(","),
            fixtures.join(","),
            findings.join(",")
        )
    }
}

/// The workspace root this crate was compiled in — where `phi
/// schedule-lint` and the tests run the determinism scan.
pub(crate) fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_lint::SchedKind;

    #[test]
    fn gate_passes_on_the_real_tree_and_renders() {
        let gate = run(&workspace_root()).unwrap();
        assert!(gate.passed(), "{}", gate.render());
        assert!(
            gate.files_scanned > 20,
            "scan saw {} files",
            gate.files_scanned
        );
        // The sweep must cover healthy, patched and reshaped regimes of
        // both flavours.
        assert!(gate.shapes.iter().any(|s| s.flavour == "hybrid"));
        assert!(gate.shapes.iter().any(|s| s.flavour == "native"));
        assert!(gate.shapes.iter().any(|s| s.label.contains("dead")));
        assert!(gate.shapes.iter().any(|s| s.label.contains("reshaped")));
        // Every schedule-family diagnostic kind has a fixture, and all
        // fixtures fire.
        assert_eq!(gate.fixtures.len(), SchedKind::all_names().len());
        let text = gate.render();
        assert!(text.contains("gate: PASS"), "{text}");
    }

    /// Total send/recv operations the reference sweep proves, counted
    /// apart from the gate run.
    fn reference_sweep_ops() -> f64 {
        reference_shapes()
            .iter()
            .map(|(_, shape)| verify_channels(shape).1)
            .sum::<usize>() as f64
    }

    #[test]
    fn sweep_ops_are_deterministic_and_match_the_gate() {
        let a = reference_sweep_ops();
        assert_eq!(a, reference_sweep_ops());
        let gate = run(&workspace_root()).unwrap();
        assert_eq!(gate.ops_verified() as f64, a);
        assert!(a > 10_000.0, "sweep shrank to {a} ops");
    }

    #[test]
    fn json_report_is_well_formed_enough_for_ci() {
        let gate = run(&workspace_root()).unwrap();
        let j = gate.render_json();
        assert!(
            j.starts_with("{\"gate\":\"schedule-lint\",\"passed\":true"),
            "{j}"
        );
        assert!(j.contains("\"fixtures\":["), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }
}
