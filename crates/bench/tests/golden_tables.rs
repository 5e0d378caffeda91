//! Golden-table regression tests: the paper's headline tables and one
//! full (scaled) run report are rendered to JSON and compared against
//! checked-in snapshots under `crates/bench/golden/`. The cluster
//! studies' goldens are guarded by `scenario_goldens.rs`.
//!
//! The producing pipelines are fully deterministic (fixed seed, discrete
//! event simulation, no wall-clock), so the snapshots change only when
//! the model changes. When a change is intended:
//!
//! ```text
//! TESTKIT_BLESS=1 cargo test -p bench --test golden_tables
//! git diff crates/bench/golden/   # review, then commit
//! ```

use bench::experiments::{table2_measured, table4_measured};
use composable_core::runner::{run, ExperimentOpts};
use composable_core::HostConfig;
use desim::json::Value;
use dlmodels::Benchmark;
use testkit::check_golden;

fn golden(name: &str) -> String {
    format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Table II: per-benchmark parameter counts and depths.
#[test]
fn golden_table2() {
    let rows: Vec<Value> = table2_measured()
        .into_iter()
        .map(|(label, params, derived, reported)| {
            Value::obj(vec![
                ("benchmark", Value::str(label)),
                ("params", Value::from_u64(params)),
                ("derived_depth", Value::from_u64(u64::from(derived))),
                ("reported_depth", Value::from_u64(u64::from(reported))),
            ])
        })
        .collect();
    check_golden(golden("table2.json"), &Value::Arr(rows).emit_pretty());
}

/// Table IV: the three GPU-pair classes probed on the hybrid composition.
#[test]
fn golden_table4() {
    let rows: Vec<Value> = table4_measured()
        .into_iter()
        .map(|(pair, p2p)| {
            Value::obj(vec![
                ("pair", Value::str(pair)),
                ("latency_ns", Value::from_u64(p2p.latency.as_nanos())),
                ("unidir_gbps", Value::Num(p2p.unidir_bandwidth / 1e9)),
                ("bidir_gbps", Value::Num(p2p.bidir_bandwidth / 1e9)),
            ])
        })
        .collect();
    check_golden(golden("table4.json"), &Value::Arr(rows).emit_pretty());
}

/// Full (scaled) training runs under a pinned seed: each freezes the
/// entire report surface — iteration timing, utilizations, traffic —
/// against accidental model drift. MobileNetV2 on localGPUs pins the
/// engine with no Falcon traffic; BERT-large on hybridGPUs puts ring
/// edges across root complexes, so it also pins the fabric allocator
/// under contention and the Falcon port trace.
#[test]
fn golden_quick_runs() {
    let runs = [
        (
            Benchmark::MobileNetV2,
            HostConfig::LocalGpus,
            "quick_run_mobilenet.json",
        ),
        (
            Benchmark::BertLarge,
            HostConfig::HybridGpus,
            "quick_run_bert_large_hybrid.json",
        ),
    ];
    for (bench, config, file) in runs {
        let mut opts = ExperimentOpts::scaled(4).without_checkpoints();
        opts.seed = 7;
        let r = run(bench, config, &opts).unwrap();
        let pretty = Value::parse(&r.to_json_string()).unwrap().emit_pretty();
        check_golden(golden(file), &pretty);
    }
}
