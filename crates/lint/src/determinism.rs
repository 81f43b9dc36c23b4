//! Determinism lint over the simulator and fault-injection sources.
//!
//! Every run in this workspace must replay bit-for-bit from its seed —
//! the goldens, the Monte Carlo campaigns, and the fault cascades all
//! depend on it. This pass scans source text for the three constructs
//! that silently break that contract:
//!
//! * **seed bypass** ([`SchedKind::SeedBypass`]) — entropy or wall
//!   clock flowing into results (`Instant::now`, `SystemTime::now`,
//!   `thread_rng`, `RandomState`, …) instead of the seeded generator;
//! * **unstable iteration order** ([`SchedKind::UnstableIterationOrder`])
//!   — `HashMap`/`HashSet`, whose iteration order varies per process
//!   and so reorders any computation folded over them;
//! * **unordered reduction** ([`SchedKind::UnorderedReduction`]) — a
//!   float sum/fold driven directly from an unordered source, where
//!   reassociation changes the rounded result.
//!
//! Findings are suppressed with a `lint:allow(<kind>)` marker on the
//! same or the preceding line — the reviewed escape hatch for benign
//! uses (membership-only sets, wall clock in progress reporting).
//! Test code — everything from a file's first `#[cfg(test)]` line, and
//! every file under a `tests/` directory — is held to the seed-bypass
//! rule alone: a test that reads the clock passes or fails with the
//! host's speed, but it may iterate and fold however it likes.

use crate::diag::{SchedDiagnostic, SchedKind};

/// Substrings whose presence on a live source line means entropy or
/// wall clock can reach results.
const SEED_BYPASS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
    "from_entropy",
    "RandomState",
];

/// Hash-order containers: iteration order is per-process arbitrary.
const UNSTABLE_ORDER: &[&str] = &["HashMap", "HashSet"];

/// Unordered sources feeding a reduction on the same line.
const UNORDERED_SOURCES: &[&str] = &[".values()", ".keys()", ".par_iter(", ".par_bridge("];
/// Reduction shapes whose float result depends on operand order.
const REDUCTIONS: &[&str] = &[
    ".sum::<f64>",
    ".sum::<f32>",
    ".sum()",
    ".product(",
    ".fold(",
];

/// True when `line` (or the previous line) carries an allow marker for
/// `kind_name`.
fn allowed(kind_name: &str, line: &str, prev: Option<&str>) -> bool {
    let marker = format!("lint:allow({kind_name})");
    line.contains(&marker) || prev.is_some_and(|p| p.contains(&marker))
}

/// True for comment-only lines, which never execute.
fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

/// Scans one source file's text. `name` labels the findings' sites
/// (`name:line`). `in_test` marks a whole file as test code; otherwise
/// test code starts at the first `#[cfg(test)]` line — in this
/// workspace tests sit at the bottom of each file.
fn scan_source(name: &str, text: &str, mut in_test: bool) -> Vec<SchedDiagnostic> {
    let mut diags = Vec::new();
    let mut prev: Option<&str> = None;
    for (idx, line) in text.lines().enumerate() {
        in_test |= line.trim() == "#[cfg(test)]";
        if is_comment(line) {
            prev = Some(line);
            continue;
        }
        let lineno = idx + 1;
        let site = format!("{name}:{lineno}");
        let excerpt = format!("  > {lineno:>4}  {}\n", line.trim());

        if let Some(tok) = SEED_BYPASS.iter().find(|t| line.contains(**t)) {
            if !allowed("seed-bypass", line, prev) {
                diags.push(SchedDiagnostic::new(
                    SchedKind::SeedBypass,
                    site.clone(),
                    format!(
                        "`{tok}` injects entropy or wall clock outside the seeded \
                         generator: runs stop replaying bit-for-bit"
                    ),
                    excerpt.clone(),
                ));
            }
        }
        if in_test {
            prev = Some(line);
            continue;
        }
        if let Some(tok) = UNSTABLE_ORDER.iter().find(|t| line.contains(**t)) {
            if !allowed("unstable-iteration-order", line, prev) {
                diags.push(SchedDiagnostic::new(
                    SchedKind::UnstableIterationOrder,
                    site.clone(),
                    format!(
                        "`{tok}` iterates in per-process arbitrary order: any fold \
                         over it is nondeterministic — use BTreeMap/BTreeSet or a \
                         sorted Vec, or mark membership-only uses with \
                         lint:allow(unstable-iteration-order)"
                    ),
                    excerpt.clone(),
                ));
            }
        }
        let unordered = UNORDERED_SOURCES.iter().find(|t| line.contains(**t));
        let reduces = REDUCTIONS.iter().any(|t| line.contains(*t));
        if let (Some(src), true) = (unordered, reduces) {
            if !allowed("unordered-reduction", line, prev) {
                diags.push(SchedDiagnostic::new(
                    SchedKind::UnorderedReduction,
                    site,
                    format!(
                        "float reduction driven from `{src}`: summation order is \
                         unspecified and reassociation changes the rounded result"
                    ),
                    excerpt,
                ));
            }
        }
        prev = Some(line);
    }
    diags
}

/// The simulator/fault crates this pass guards, relative to the
/// workspace root: their `src/` and `tests/` trees. `phi-lint` and
/// `phi-bench` themselves are exempt (they are the measuring devices,
/// not the experiment).
pub const SCAN_ROOTS: &[&str] = &[
    "crates/faults",
    "crates/core",
    "crates/sched",
    "crates/des",
    "crates/fabric",
    "crates/tune",
    "crates/serve",
];

/// Recursively scans every `.rs` file under `root` (a directory), in
/// sorted path order for stable output; files under a `tests`
/// directory below `root` are test code. Returns `(files_scanned,
/// findings)`.
pub fn scan_dir(root: &std::path::Path) -> std::io::Result<(usize, Vec<SchedDiagnostic>)> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let name = path.to_string_lossy().into_owned();
        let rel = path.strip_prefix(root).unwrap_or(path);
        let in_test = rel.components().any(|c| c.as_os_str() == "tests");
        diags.extend(scan_source(&name, &text, in_test));
    }
    Ok((files.len(), diags))
}

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A deliberately hazardous source snippet and its expected kind.
#[derive(Clone, Debug)]
pub struct BrokenSource {
    /// Short human name of the defect scenario.
    pub name: &'static str,
    /// `SchedKind::name()` of the expected diagnostic.
    pub expect: &'static str,
    /// Findings from scanning the snippet.
    pub diags: Vec<SchedDiagnostic>,
}

/// One hazardous snippet per determinism diagnostic kind, for the
/// gate's must-fail self-test.
pub fn broken_fixtures() -> Vec<BrokenSource> {
    let bypass = "fn jitter() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
    let order = "fn tally(m: &std::collections::HashMap<u32, f64>) {\n    for (k, v) in m.iter() { record(*k, *v); }\n}\n";
    let reduce = "fn total(m: &Map) -> f64 {\n    m.values().sum::<f64>()\n}\n";
    vec![
        BrokenSource {
            name: "wall clock feeding a result",
            expect: "seed-bypass",
            diags: scan_source("fixture/jitter.rs", bypass, false),
        },
        BrokenSource {
            name: "iteration over a hash map",
            expect: "unstable-iteration-order",
            diags: scan_source("fixture/tally.rs", order, false),
        },
        BrokenSource {
            name: "float sum over unordered values",
            expect: "unordered-reduction",
            diags: scan_source("fixture/total.rs", reduce, false),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock-bound assertion inside a test module: the seed-bypass
    /// rule reaches test code. Kept beside the tests rather than in
    /// [`broken_fixtures`], whose one-per-kind list is the
    /// `schedule-lint` self-test table.
    fn test_timing_fixture() -> BrokenSource {
        let timed = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn fast() {\n        \
                     let t = std::time::Instant::now();\n        f();\n        \
                     assert!(t.elapsed().as_millis() < 50);\n    }\n}\n";
        BrokenSource {
            name: "wall clock in a test",
            expect: "seed-bypass",
            diags: scan_source("fixture/timed.rs", timed, false),
        }
    }

    #[test]
    fn every_broken_fixture_trips_its_expected_kind() {
        for f in broken_fixtures().into_iter().chain([test_timing_fixture()]) {
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
    fn allow_markers_suppress_on_same_or_previous_line() {
        let same = "let t = Instant::now(); // lint:allow(seed-bypass): progress only\n";
        assert!(scan_source("t.rs", same, false).is_empty());
        let prev = "// lint:allow(seed-bypass): progress only\nlet t = Instant::now();\n";
        assert!(scan_source("t.rs", prev, false).is_empty());
        let wrong = "// lint:allow(unstable-iteration-order)\nlet t = Instant::now();\n";
        assert_eq!(scan_source("t.rs", wrong, false).len(), 1);
    }

    #[test]
    fn comments_and_test_modules_are_skipped() {
        let comment = "// Instant::now() would be wrong here\nlet x = 1;\n";
        assert!(scan_source("t.rs", comment, false).is_empty());
        let test_mod =
            "let x = 1;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(scan_source("t.rs", test_mod, false).is_empty());
        // Test code is skipped for every kind but seed-bypass.
        let test_file = "use std::collections::HashMap;\nlet t = SystemTime::now();\n";
        let diags = scan_source("tests/t.rs", test_file, true);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, SchedKind::SeedBypass);
        assert_eq!(diags[0].site, "tests/t.rs:2");
    }

    #[test]
    fn scan_dir_flags_a_seed_bypassing_source_file() {
        let root = std::env::temp_dir().join(format!("phi-lint-hazard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(
            root.join("src/ci_injected_hazard.rs"),
            "pub fn jitter() -> u128 {\n    std::time::Instant::now().elapsed().as_nanos()\n}\n",
        )
        .unwrap();
        let scanned = scan_dir(&root);
        let _ = std::fs::remove_dir_all(&root);
        let (files, diags) = scanned.unwrap();
        assert_eq!(files, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].render().contains("error[S401:seed-bypass]"));
    }

    #[test]
    fn sites_carry_file_and_line() {
        let d = &scan_source(
            "crates/x/src/y.rs",
            "let h: HashSet<u32> = HashSet::new();\n",
            false,
        )[0];
        assert_eq!(d.site, "crates/x/src/y.rs:1");
        assert!(d.render().contains("error[S402:unstable-iteration-order]"));
    }

    #[test]
    fn reduction_needs_both_source_and_fold() {
        assert!(scan_source("t.rs", "let s: f64 = v.iter().sum();\n", false).is_empty());
        assert_eq!(
            scan_source("t.rs", "let s: f64 = m.values().sum();\n", false).len(),
            1
        );
    }
}
