//! `BENCHMARK.json` against the limits a benchmark declaration must keep
//! and against the table the binary measures (`perfbench --list`), and
//! `perfbench compare` on fixture result files.

use desim::json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits in the repo")
        .to_path_buf()
}

fn benchmark() -> (String, Value) {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = Value::parse(&text).expect("BENCHMARK.json parses");
    (text, v)
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

fn keys(v: &Value) -> BTreeSet<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn set<'a>(names: &[&'a str]) -> BTreeSet<&'a str> {
    names.iter().copied().collect()
}

fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn is_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_relative(p: &str) -> bool {
    !p.starts_with('/') && !p.split('/').any(|part| part == "..")
}

#[test]
fn benchmark_json_keeps_its_limits() {
    let (text, b) = benchmark();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    assert_eq!(
        keys(&b),
        set(&[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );

    let command = arr(&b, "command");
    assert!((1..=32).contains(&command.len()));
    for c in command {
        let c = c.as_str().expect("command entries are strings");
        assert!(
            c.chars().count() <= 200 && is_relative(c),
            "command entry {c}"
        );
    }
    let paths = arr(&b, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("paths are strings");
        assert!(p.len() <= 200 && is_relative(p), "path {p}");
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "path {p}"
        );
        assert!(
            root().join(p).is_dir(),
            "path {p} is a directory of the repo"
        );
    }
    let secs = b
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));

    let mut names = BTreeSet::new();
    let mut name = |n: &str| {
        assert!(is_name(n), "bad name {n}");
        assert!(names.insert(n.to_string()), "name {n} used twice");
    };
    let workloads = arr(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), set(&["name", "why"]));
        name(str_of(w, "name"));
        let why = str_of(w, "why");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why of {}",
            str_of(w, "name")
        );
    }
    let e2e = arr(&b, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), set(&["name", "unit", "better", "bound"]));
        name(str_of(m, "name"));
        assert!(is_unit(str_of(m, "unit")));
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!((0.0..=0.25).contains(&bound), "bound {bound}");
    }
    let layers = arr(&b, "per_layer");
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), set(&["name", "unit", "better"]));
        name(str_of(m, "name"));
        assert!(is_unit(str_of(m, "unit")));
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }

    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    assert!(
        e2e.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );
}

#[test]
fn declared_metrics_are_the_ones_the_binary_measures() {
    let out = perfbench(&["--list"]);
    assert!(out.status.success());
    let listed =
        Value::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("--list is JSON");
    let (_, b) = benchmark();
    assert_eq!(listed.get("run_seconds"), b.get("run_seconds"));
    assert_eq!(listed.get("workloads"), b.get("workloads"));
    assert_eq!(listed.get("end_to_end"), b.get("end_to_end"));

    let declared: Vec<(&str, &str, &str)> = arr(&b, "per_layer")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let measured: Vec<(&str, &str, &str)> = arr(&listed, "per_layer")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    assert_eq!(measured, declared);

    let e2e: BTreeSet<&str> = arr(&b, "end_to_end")
        .iter()
        .map(|m| str_of(m, "name"))
        .collect();
    let workloads: BTreeSet<&str> = arr(&b, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    for layer in arr(&listed, "per_layer") {
        let strs = |k| -> Vec<&str> {
            arr(layer, k)
                .iter()
                .map(|v| v.as_str().expect("str"))
                .collect()
        };
        let (moves, on) = (strs("moves"), strs("on"));
        let name = str_of(layer, "name");
        assert!(
            !moves.is_empty() && moves.iter().all(|m| e2e.contains(m)),
            "{name} moves {moves:?}"
        );
        assert!(
            !on.is_empty() && on.iter().all(|w| workloads.contains(w)),
            "{name} on {on:?}"
        );
    }
}

/// `perfbench compare` on two fixture files: its exit status and the
/// verdict of each `(metric, verdict)` row for `pai_mixed`.
fn compare(parent: &str, change: &str) -> (bool, Vec<(String, String)>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let out = perfbench(&[
        "compare",
        dir.join(parent).to_str().expect("utf-8 path"),
        dir.join(change).to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = Value::parse(stdout.lines().last().expect("a summary line")).expect("JSON summary");
    let rows = arr(&last, "rows")
        .iter()
        .map(|r| {
            (
                str_of(r, "metric").to_string(),
                str_of(r, "verdict").to_string(),
            )
        })
        .collect();
    (out.status.success(), rows)
}

fn verdict<'a>(rows: &'a [(String, String)], metric: &str) -> &'a str {
    &rows
        .iter()
        .find(|(m, _)| m == metric)
        .unwrap_or_else(|| panic!("no {metric} row"))
        .1
}

#[test]
fn compare_accepts_noise_within_the_bound() {
    let (ok, rows) = compare("parent.json", "same.json");
    assert!(ok);
    assert!(rows.iter().all(|(_, v)| v == "ok"), "{rows:?}");
}

#[test]
fn compare_flags_a_slower_median_as_a_regression() {
    let (ok, rows) = compare("parent.json", "slower.json");
    assert!(!ok);
    assert_eq!(verdict(&rows, "round_s"), "regression");
    assert_eq!(verdict(&rows, "throughput"), "regression");
}

#[test]
fn compare_flags_any_rise_in_failed_rounds() {
    let (ok, rows) = compare("parent.json", "failing.json");
    assert!(!ok);
    assert_eq!(verdict(&rows, "failed_ratio"), "regression");
    assert_eq!(verdict(&rows, "round_s"), "ok");
}

#[test]
fn compare_flags_a_run_that_ended_without_a_result() {
    let (ok, rows) = compare("parent.json", "crashed.json");
    assert!(!ok);
    assert_eq!(verdict(&rows, "crashed_runs"), "regression");
    assert_eq!(verdict(&rows, "round_s"), "missing");
}

#[test]
fn compare_flags_a_workload_the_change_lacks() {
    let (ok, rows) = compare("parent.json", "empty.json");
    assert!(!ok);
    assert_eq!(verdict(&rows, "round_s"), "missing");
    assert_eq!(verdict(&rows, "throughput"), "missing");
}

#[test]
fn compare_calls_a_change_unresolved_when_the_parent_spreads_wider_than_the_bound() {
    let (_, rows) = compare("noisy.json", "slower.json");
    assert_eq!(verdict(&rows, "round_s"), "unresolved");
}
