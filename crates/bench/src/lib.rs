//! Experiment regenerators: every table and figure of the paper's
//! evaluation, as structured data plus plain-text renderers.
//!
//! Each `table*`/`fig*` module produces rows/series through the machine
//! models and simulations of the workspace, paired with the number the
//! paper reports so drift is visible at a glance. The `phi` binary
//! runs each regenerator, gate and campaign driver as a subcommand;
//! `cargo run --release --bin phi -- repro` regenerates everything.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ablations;
mod cli;
mod experiments;
mod faults;
pub mod fleet;
mod format;
mod lintgate;
mod schedlint;
pub mod serve;
mod tune;
pub mod workloads;

pub use cli::run_cli;
pub use experiments::{table2_rows, table3_rows};
pub use faults::{
    experiments_fault_section_md, fault_campaign_cluster_render, fault_campaign_render,
    paper_cluster,
};
pub(crate) use format::TextTable;
use phi_hpl::native::NativeScheme;

/// The seed every fixture campaign runs under: the `faults` default, the
/// fault-campaign goldens, the EXPERIMENTS.md fault section, the
/// schedule-lint sweep, the lab's reference SpMV matrix and the
/// exact-bits model golden. One value, so the docs and every golden
/// describe the same campaign.
pub const FIXTURE_SEED: u64 = 0xFA_0175;

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{completion_percentiles, run_fleet, FleetOptions};
    use phi_fabric::RemapStrategy;

    /// The headline model outputs at exact bits, against
    /// `tests/golden/model_bits.txt` (one `name bits value` line each).
    /// An intentional change regenerates the golden with
    ///
    /// ```text
    /// UPDATE_GOLDEN=1 cargo test -p phi-bench model_outputs_match
    /// ```
    ///
    /// and the diff is reviewed like any other code change.
    #[test]
    fn model_outputs_match_the_exact_bits_golden() {
        // Table III cluster campaign rows: 0 healthy, 2 host death
        // (patch, checkpointed), 4 host death (wholesale).
        let rows = faults::fault_campaign_cluster_rows(FIXTURE_SEED, RemapStrategy::Patch);
        let dir = std::env::temp_dir().join(format!("phi-bench-model-bits-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runs = tune::run_tuner(true, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let cluster100 = runs.iter().find(|r| r.label == "cluster-100").unwrap();
        let fleet = run_fleet(&FleetOptions {
            seeds: 160,
            seed0: FIXTURE_SEED,
            ..FleetOptions::default()
        });
        let values = [
            ("cluster_healthy_gflops", rows[0].gflops),
            ("host_death_patch_overhead", rows[2].overhead),
            ("host_death_wholesale_overhead", rows[4].overhead),
            (
                "tune_cluster100_smoke_gflops",
                cluster100.outcome.tuned_report.gflops,
            ),
            ("fleet_p99_time_s", completion_percentiles(&fleet)[1].1),
            ("spmv_gflops", workloads::spmv_gflops()),
            (
                "stencil_halo_exchange_s",
                workloads::reference_stencil_cluster().halo_s,
            ),
        ];
        let actual: String = values
            .iter()
            .map(|(name, v)| format!("{name} {:#018x} {v}\n", v.to_bits()))
            .collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/model_bits.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &actual).unwrap();
            return;
        }
        let expected = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing {path} ({e}); run with UPDATE_GOLDEN=1"));
        for (exp, act) in expected.lines().zip(actual.lines()) {
            assert_eq!(exp, act, "model output moved (UPDATE_GOLDEN=1 to regen)");
        }
        assert_eq!(expected, actual, "model_bits.txt: line set changed");
    }
}
