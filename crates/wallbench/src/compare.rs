//! `compare A.json B.json`: one row per (metric, workload) — medians,
//! quartiles, the ratio with its base (A), the metric's bound and a
//! verdict that has the run-to-run spread in view.

use crate::json::{parse, Value};
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::path::Path;

/// What a row concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The quartile spread exceeds the bound and the two runs overlap:
    /// the pair cannot tell a regression from noise.
    Unresolved,
    /// An exact metric (or digest) reads the same in both.
    Same,
    /// An exact metric (or digest) reads differently.
    Differs,
    /// A per-layer host time: shown with its ratio, not judged.
    Info,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
        }
    }
}

/// One compared (metric, workload) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's value.
    pub a: Summary,
    /// B's value.
    pub b: Summary,
    /// Regression bound, for end-to-end metrics.
    pub bound: Option<f64>,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every compared pair.
    pub rows: Vec<Row>,
    /// Workloads whose `failed_share` is larger in B, or missing from B.
    pub problems: Vec<String>,
}

impl Report {
    /// Whether `compare` should exit zero.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    /// The table, one row per line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<11} {:<38} {:>13} {:>13} {:>8} {:>6}  {}\n",
            "workload", "metric", "A median", "B median", "B/A", "bound", "verdict (quartiles)"
        );
        for r in &self.rows {
            let ratio = if r.a.median != 0.0 {
                format!("{:.3}", r.b.median / r.a.median)
            } else {
                "-".to_string()
            };
            let bound = r.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            s.push_str(&format!(
                "{:<11} {:<38} {:>13.6} {:>13.6} {:>8} {:>6}  {} (A {:.6}..{:.6} n={}, B {:.6}..{:.6} n={})\n",
                r.workload,
                r.metric,
                r.a.median,
                r.b.median,
                ratio,
                bound,
                r.verdict.word(),
                r.a.q1,
                r.a.q3,
                r.a.n,
                r.b.q1,
                r.b.q3,
                r.b.n
            ));
        }
        for p in &self.problems {
            s.push_str(&format!("PROBLEM {p}\n"));
        }
        s
    }
}

/// Judges an end-to-end pair against its bound.
pub fn judge(a: Summary, b: Summary, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Higher => (a.median - b.median) / a.median,
        Better::Lower => (b.median - a.median) / a.median,
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn summary(metrics: &Value, name: &str) -> Option<Summary> {
    let m = metrics.get(name)?;
    let num = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")? as usize,
    })
}

/// Compares two parsed `result.json` documents; A is the base.
pub fn compare(a: &Value, b: &Value) -> Result<Report, String> {
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or("not a wallbench result: no `workloads` object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rep = Report::default();
    for (w, da) in &wa {
        let Some(db) = wb.get(w) else {
            rep.problems.push(format!("{w}: missing from B"));
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            let (Some(sa), Some(sb)) = (da.get(section), db.get(section)) else {
                rep.problems.push(format!("{w}: no `{section}` in A or B"));
                continue;
            };
            let share = |s: &Value| s.get("failed_share").and_then(Value::as_f64).unwrap_or(1.0);
            if share(sb) > share(sa) {
                rep.problems.push(format!(
                    "{w} ({section}): failed_share rose from {} to {}",
                    share(sa),
                    share(sb)
                ));
            }
            let (Some(ma), Some(mb)) = (sa.get("metrics"), sb.get("metrics")) else {
                rep.problems.push(format!("{w}: no `{section}.metrics`"));
                continue;
            };
            let mut push = |metric: &str, bound, verdict: &dyn Fn(Summary, Summary) -> Verdict| {
                if let (Some(x), Some(y)) = (summary(ma, metric), summary(mb, metric)) {
                    rep.rows.push(Row {
                        workload: w.clone(),
                        metric: metric.to_string(),
                        a: x,
                        b: y,
                        bound,
                        verdict: verdict(x, y),
                    });
                }
            };
            if section == "end_to_end" {
                for m in END_TO_END {
                    push(m.name, Some(m.bound), &|x, y| {
                        judge(x, y, m.better, m.bound)
                    });
                }
                let digest = |s: &Value| {
                    s.get("sim_digest")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                };
                if digest(sa) != digest(sb) {
                    // Informational: a model change legitimately moves it,
                    // a simulator-speed change must not.
                    rep.rows.push(Row {
                        workload: w.clone(),
                        metric: "sim_digest".to_string(),
                        a: Summary::exact(0.0),
                        b: Summary::exact(0.0),
                        bound: None,
                        verdict: Verdict::Differs,
                    });
                }
            } else {
                for m in PER_LAYER.iter().filter(|m| m.owned_by(w)) {
                    push(m.name, None, &|x, y| match m.exact {
                        true if x.median.to_bits() == y.median.to_bits() => Verdict::Same,
                        true => Verdict::Differs,
                        false => Verdict::Info,
                    });
                }
            }
        }
    }
    Ok(rep)
}

/// The `compare` command: prints the table; `Ok(false)` on any `worse`
/// row or a larger `failed_share`.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rep = compare(&load(a)?, &load(b)?)?;
    print!("{}", rep.render());
    println!(
        "compare: {} (base = {})",
        if rep.passed() { "PASS" } else { "FAIL" },
        a.display()
    );
    Ok(rep.passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = s(100.0, 99.0, 101.0);
        // Higher is better: 5 % down is inside a 10 % bound, 20 % is not.
        assert_eq!(
            judge(base, s(95.0, 94.0, 96.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(base, s(80.0, 79.0, 81.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(base, s(120.0, 119.0, 121.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            judge(base, s(120.0, 119.0, 121.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        // A noisy pair that overlaps cannot be called either way…
        assert_eq!(
            judge(
                s(100.0, 80.0, 120.0),
                s(85.0, 70.0, 100.0),
                Better::Higher,
                0.10
            ),
            Verdict::Unresolved
        );
        // …but a noisy pair that does not overlap can.
        assert_eq!(
            judge(
                s(100.0, 90.0, 110.0),
                s(50.0, 40.0, 60.0),
                Better::Higher,
                0.10
            ),
            Verdict::Worse
        );
    }
}
