//! `BENCHMARK.json` and the README against the metric registry: every
//! workload and metric the contract names is one `run` emits, and the
//! other way round.

use phi_wallbench::cli::DEFAULT_SECONDS;
use phi_wallbench::json::{parse, Value};
use phi_wallbench::spec::{why, END_TO_END, PER_LAYER};
use phi_wallbench::workloads::NAMES;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("no `{key}` in {}", v.render()))
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    field(v, key)
        .as_arr()
        .expect("an array")
        .iter()
        .map(|x| x.as_str().expect("a string").to_string())
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_exactly_what_run_emits() {
    let doc = parse(&repo_file("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let listed: Vec<(String, String)> = field(&doc, "workloads")
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| {
            (
                field(w, "name").as_str().unwrap().to_string(),
                field(w, "why").as_str().unwrap().to_string(),
            )
        })
        .collect();
    let ours: Vec<(String, String)> = NAMES
        .iter()
        .map(|w| (w.to_string(), why(w).to_string()))
        .collect();
    assert_eq!(listed, ours);

    let e2e: Vec<(String, String, String, f64)> = field(&doc, "end_to_end")
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().unwrap().to_string(),
                field(m, "unit").as_str().unwrap().to_string(),
                field(m, "better").as_str().unwrap().to_string(),
                field(m, "bound").as_f64().unwrap(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(e2e, ours);
    assert!(e2e.len() <= 16);
    assert!(e2e
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));

    let layers: Vec<(String, String, String)> = field(&doc, "per_layer")
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().unwrap().to_string(),
                field(m, "unit").as_str().unwrap().to_string(),
                field(m, "better").as_str().unwrap().to_string(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
            )
        })
        .collect();
    assert_eq!(layers, ours);
    assert!(layers.len() <= 128);

    for name in listed
        .iter()
        .map(|w| &w.0)
        .chain(e2e.iter().map(|m| &m.0))
        .chain(layers.iter().map(|m| &m.0))
    {
        assert!(well_formed_name(name), "{name}");
    }
}

#[test]
fn benchmark_json_runs_this_crate_and_nothing_outside_it() {
    let doc = parse(&repo_file("../../BENCHMARK.json")).unwrap();
    assert_eq!(strings(&doc, "paths"), ["crates/wallbench"]);
    assert_eq!(
        field(&doc, "run_seconds").as_f64(),
        Some(DEFAULT_SECONDS),
        "`run` without --seconds measures as long as the driver does"
    );
    let command = strings(&doc, "command");
    assert_eq!(command[0], "cargo");
    for arg in &command {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(arg.starts_with("crates/wallbench/"), "{arg}");
        }
    }
}

#[test]
fn the_readme_glossary_covers_every_workload_and_metric() {
    let readme = repo_file("README.md");
    for name in NAMES
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not explain `{name}`"
        );
    }
}
