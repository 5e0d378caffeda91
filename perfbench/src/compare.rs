//! `perfbench compare PARENT CHANGE`: the regression rule over two result
//! files (as `perfbench --runs N --out FILE` writes them). For every
//! workload and end-to-end metric it reports each side's sample count,
//! quartiles and median, and a verdict:
//!
//! * `regression` — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * `missing` — the change has fewer samples than the parent, because
//!   runs ended without a result or were not made; a regression too;
//! * `unresolved` — the parent's own quartile spread is wider than the
//!   bound, so the runs cannot resolve a change of that size (unless every
//!   change run reads better than every parent run: `ok`);
//! * `ok` — otherwise.
//!
//! Any rise in a workload's failed-round ratio or in its count of crashed
//! runs (runs that printed no result) is a regression too.

use crate::metrics::{quartiles, Better, END_TO_END, WORKLOADS};
use desim::json::Value;
use std::collections::BTreeMap;

/// Failed and attempted rounds, and runs without a result, of a workload.
#[derive(Default, Clone, Copy)]
struct Rounds {
    failed: u64,
    attempted: u64,
    crashed: u64,
}

/// Untraced samples per `(workload, metric)` and round counts per workload.
struct Samples {
    values: BTreeMap<(String, String), Vec<f64>>,
    rounds: BTreeMap<String, Rounds>,
}

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut s = Samples {
        values: BTreeMap::new(),
        rounds: BTreeMap::new(),
    };
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .map_err(|e| format!("{path}: {e}"))?;
    for run in runs {
        let parsed = (|| {
            if run.get("trace")?.as_bool()? {
                return Ok(());
            }
            let workload = run.get("workload")?.as_str()?.to_string();
            let rounds = s.rounds.entry(workload.clone()).or_default();
            let Ok(result) = run.get("result") else {
                rounds.crashed += 1;
                return Ok(());
            };
            rounds.failed += result.get("failed")?.as_u64()?;
            rounds.attempted += result.get("attempted")?.as_u64()?;
            for (metric, m) in result.get("metrics")?.as_obj()? {
                let v = m.get("value")?.as_f64()?;
                s.values
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(v);
            }
            Ok::<(), desim::json::JsonError>(())
        })();
        parsed.map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(s)
}

fn side(v: &[f64]) -> Value {
    if v.is_empty() {
        return Value::obj(vec![("n", Value::from_u64(0))]);
    }
    let (q1, med, q3) = quartiles(v);
    Value::obj(vec![
        ("n", Value::from_u64(v.len() as u64)),
        ("q1", Value::Num(q1)),
        ("median", Value::Num(med)),
        ("q3", Value::Num(q3)),
    ])
}

/// The verdict on one metric of one workload.
fn verdict(p: &[f64], c: &[f64], better: Better, bound: f64) -> &'static str {
    if c.len() < p.len() {
        return "missing";
    }
    let (pq1, pmed, pq3) = quartiles(p);
    let cmed = quartiles(c).1;
    let worse_by = match better {
        Better::Lower => (cmed - pmed) / pmed,
        Better::Higher => (pmed - cmed) / pmed,
    };
    let wins = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every_run_better = c.iter().all(|&x| p.iter().all(|&y| wins(x, y)));
    if (pq3 - pq1) / pmed > bound && !every_run_better {
        "unresolved"
    } else if worse_by > bound {
        "regression"
    } else {
        "ok"
    }
}

/// Print the comparison; `Ok(true)` when anything regressed.
pub fn run(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut regressed = false;
    let mut rows = Vec::new();
    let fmt = |v: &[f64]| {
        if v.is_empty() {
            "-".to_string()
        } else {
            format!("{:.6}", quartiles(v).1)
        }
    };
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>9} {:>9}  verdict",
        "workload", "metric", "parent_med", "change_med", "change", "p_spread"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        let pr = parent.rounds.get(w).copied().unwrap_or_default();
        let cr = change.rounds.get(w).copied().unwrap_or_default();
        for m in &END_TO_END {
            let key = (w.to_string(), m.name.to_string());
            let Some(p) = parent.values.get(&key) else {
                continue;
            };
            let c = change.values.get(&key).map_or(&[][..], Vec::as_slice);
            let verdict = verdict(p, c, m.better, m.bound);
            regressed |= matches!(verdict, "regression" | "missing");
            let (pq1, pmed, pq3) = quartiles(p);
            let change_pct = if c.is_empty() {
                "-".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (quartiles(c).1 - pmed) / pmed)
            };
            println!(
                "{w:<16} {:<12} {:>12} {:>12} {change_pct:>9} {:>8.2}%  {verdict}",
                m.name,
                fmt(p),
                fmt(c),
                100.0 * (pq3 - pq1) / pmed
            );
            rows.push(Value::obj(vec![
                ("workload", Value::str(w)),
                ("metric", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("bound", Value::Num(m.bound)),
                ("parent", side(p)),
                ("change", side(c)),
                ("verdict", Value::str(verdict)),
            ]));
        }
        if pr.attempted + pr.crashed == 0 {
            continue;
        }
        let ratio = |r: Rounds| r.failed as f64 / r.attempted.max(1) as f64;
        let counts: [(&str, f64, f64); 2] = [
            ("failed_ratio", ratio(pr), ratio(cr)),
            ("crashed_runs", pr.crashed as f64, cr.crashed as f64),
        ];
        for (name, pv, cv) in counts {
            let verdict = if cv > pv {
                regressed = true;
                "regression"
            } else {
                "ok"
            };
            println!(
                "{w:<16} {name:<12} {pv:>12.6} {cv:>12.6} {:>9} {:>9}  {verdict}",
                "", ""
            );
            rows.push(Value::obj(vec![
                ("workload", Value::str(w)),
                ("metric", Value::str(name)),
                ("parent", Value::Num(pv)),
                ("change", Value::Num(cv)),
                ("verdict", Value::str(verdict)),
            ]));
        }
    }
    println!("{}", Value::obj(vec![("rows", Value::Arr(rows))]).emit());
    Ok(regressed)
}
