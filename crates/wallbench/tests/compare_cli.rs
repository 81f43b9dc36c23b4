//! `compare` end to end through the command line: exit status 0 on a
//! pair that agrees, 1 on a regression or a larger `failed_share`, 2 on
//! input it cannot read.

use phi_wallbench::cli::exit_status;
use phi_wallbench::json::{obj, Value};
use std::path::PathBuf;

fn metric(median: f64) -> Value {
    obj([
        ("unit", Value::Str("1/s".to_string())),
        ("median", Value::Num(median)),
        ("q1", Value::Num(median * 0.99)),
        ("q3", Value::Num(median * 1.01)),
        ("n", Value::Num(9.0)),
    ])
}

/// A one-workload result with the given throughput and failed share.
fn result(work_per_s: f64, failed_share: f64) -> Value {
    let section = |metrics: Value| {
        obj([
            ("failed_share", Value::Num(failed_share)),
            ("sim_digest", Value::Str("0x1".to_string())),
            ("metrics", metrics),
        ])
    };
    let e2e = obj([
        ("work_per_s", metric(work_per_s)),
        ("peak_rss_mb", metric(10.0)),
        ("setup_s", metric(0.5)),
    ]);
    let layers = obj([("fleet.t1_seeds_per_s", metric(900.0))]);
    obj([(
        "workloads",
        obj([(
            "fleet_mc",
            obj([("end_to_end", section(e2e)), ("per_layer", section(layers))]),
        )]),
    )])
}

fn write(name: &str, text: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

fn compare(a: &str, b: &str) -> u8 {
    exit_status(&["compare".to_string(), a.to_string(), b.to_string()])
}

#[test]
fn exit_status_follows_the_verdicts() {
    let base = write("base.json", &result(1000.0, 0.0).render());
    let same = write("same.json", &result(1003.0, 0.0).render());
    let faster = write("faster.json", &result(1500.0, 0.0).render());
    let slower = write("slower.json", &result(700.0, 0.0).render());
    let failing = write("failing.json", &result(1000.0, 0.01).render());
    let garbage = write("garbage.json", "{\"workloads\": [");

    assert_eq!(compare(&base, &same), 0);
    assert_eq!(compare(&base, &faster), 0);
    assert_eq!(compare(&base, &slower), 1);
    assert_eq!(compare(&base, &failing), 1);
    assert_eq!(
        compare(&failing, &base),
        0,
        "fewer failures is not a regression"
    );
    assert_eq!(compare(&base, &garbage), 2);
    assert_eq!(compare(&base, "/nonexistent/result.json"), 2);
}
