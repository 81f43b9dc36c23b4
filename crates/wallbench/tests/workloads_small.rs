//! Every workload at a fiftieth of its size: it emits exactly the
//! metrics the registry lists, in both runs, and passes its own checks.
//! No host time is asserted anywhere — only presence, finiteness and the
//! exact counters.

use phi_wallbench::json::{parse, Value};
use phi_wallbench::run::{run_workload, Outcome, RunConfig};
use phi_wallbench::spec::{END_TO_END, PER_LAYER};
use phi_wallbench::workloads::{Scale, NAMES};
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("small-{tag}"))
}

fn small(workload: &str, trace: bool, seed: u64) -> (Outcome, PathBuf) {
    let dir = out_dir(&format!("{workload}-{}-{seed}", u8::from(trace)));
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        inject: false,
        scale: Scale::Fiftieth,
        out_dir: dir.clone(),
    };
    (run_workload(&cfg).expect("the benchmark runs"), dir)
}

fn assert_contract_line(out: &Outcome) {
    let v = parse(&out.contract_line()).expect("the result line is JSON");
    let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    for (name, m) in v.get("metrics").unwrap().as_obj().unwrap() {
        let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["unit", "value"], "{name}");
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass() {
    for w in NAMES {
        let (out, _) = small(w, false, 7);
        assert_eq!(out.failures, Vec::<String>::new(), "{w}");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{w}");
        for m in &out.metrics {
            assert!(
                m.value.median.is_finite() && m.value.median > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value.median
            );
        }
        assert_contract_line(&out);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_a_loadable_trace() {
    for w in NAMES {
        let (out, dir) = small(w, true, 7);
        assert_eq!(out.failures, Vec::<String>::new(), "{w}");
        assert_eq!(out.metrics.len(), PER_LAYER.len(), "{w}");
        for (m, spec) in out.metrics.iter().zip(PER_LAYER) {
            assert_eq!(m.name, spec.name);
            assert!(m.value.median.is_finite(), "{w}: {}", m.name);
            if !spec.owned_by(w) {
                assert_eq!(m.value.median, 0.0, "{w} does not exercise {}", m.name);
            }
        }
        assert_contract_line(&out);

        let path = dir.join(format!("trace-{w}.json"));
        let trace = parse(&std::fs::read_to_string(&path).expect("a trace file")).unwrap();
        let events = trace.as_arr().expect("a trace-event array");
        assert!(events.len() > 2, "{w}: {} spans", events.len());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("pass")));
        // Self time is accounted to the layers, not lost: the spans
        // nested in a pass cover a nonzero part of it.
        assert!(out.self_times.len() >= 2, "{w}: {:?}", out.self_times);
    }
}

#[test]
fn the_seed_changes_the_inputs_and_nothing_else() {
    // Same seed: same simulated outputs. Another seed: other inputs, so
    // another digest — except where the model has no random input.
    for w in ["hpl_solve", "emu_sparse", "fleet_mc", "serve_mix"] {
        let a = small(w, false, 11).0.sim_digest;
        let b = small(w, false, 11).0.sim_digest;
        let c = small(w, false, 12).0.sim_digest;
        assert_eq!(a, b, "{w}");
        assert_ne!(a, c, "{w}");
    }
}
