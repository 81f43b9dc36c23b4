//! The must-fail self-test: `--inject` flips one bit of the HPL solution,
//! one emulated C tile, one fleet outcome and one serve digest, and each
//! has to surface as a failed unit, a nonzero `failed_share` and a
//! failing exit status.

use phi_wallbench::json::Value;
use phi_wallbench::orchestrate::INJECTABLE;
use phi_wallbench::run::{run_workload, RunConfig};
use phi_wallbench::workloads::Scale;
use std::path::PathBuf;

fn run(workload: &str, inject: bool) -> phi_wallbench::run::Outcome {
    run_workload(&RunConfig {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace: false,
        inject,
        scale: Scale::Fiftieth,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("inject-{workload}-{inject}")),
    })
    .expect("the benchmark runs")
}

#[test]
fn every_injected_fault_is_caught() {
    for w in INJECTABLE {
        let clean = run(w, false);
        assert!(clean.passed(), "{w}: {:?}", clean.failures);

        let bad = run(w, true);
        assert!(bad.failed() > 0, "{w}: the injected fault went unnoticed");
        assert!(
            !bad.passed(),
            "{w}: a failed unit must fail the exit status"
        );
        let detail = bad.detail_json();
        let share = detail.get("failed_share").and_then(Value::as_f64).unwrap();
        assert!(share > 0.0 && share <= 1.0, "{w}: failed_share {share}");
        assert!(bad.contract_line().contains("\"correct\": false"), "{w}");
    }
}
