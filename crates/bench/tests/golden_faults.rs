//! Golden-snapshot tests for the fault-campaign reports. The rendered
//! tables are deterministic functions of the seed, so any drift in the
//! fault model, the recovery costs or the formatting shows up as a
//! byte-level diff against the checked-in fixtures.
//!
//! To accept an intentional change, regenerate the fixtures with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p phi-bench --test golden_faults
//! ```
//!
//! and review the diff like any other code change.

use phi_bench::FIXTURE_SEED;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line instead of dumping both
        // reports wholesale.
        for (i, (exp, act)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                exp,
                act,
                "fixture {name} diverges at line {} (UPDATE_GOLDEN=1 to regen)",
                i + 1
            );
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "fixture {name}: line count changed (UPDATE_GOLDEN=1 to regen)"
        );
        // Same lines but different bytes (trailing whitespace, final
        // newline): fall through to the exact comparison.
        assert_eq!(expected, actual, "fixture {name}: byte-level drift");
    }
}

#[test]
fn single_node_campaign_table_matches_golden() {
    check_golden(
        "fault_campaign_single.txt",
        &phi_bench::fault_campaign_render(FIXTURE_SEED),
    );
}

#[test]
fn cluster_campaign_table_matches_golden() {
    check_golden(
        "fault_campaign_cluster.txt",
        &phi_bench::fault_campaign_cluster_render(
            FIXTURE_SEED,
            phi_fabric::RemapStrategy::default(),
        ),
    );
}

#[test]
fn experiments_md_fault_section_matches_golden() {
    check_golden(
        "experiments_fault_section.md",
        &phi_bench::experiments_fault_section_md(FIXTURE_SEED),
    );
}
