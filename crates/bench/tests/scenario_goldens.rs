//! Scenario-driven golden regression: every pinned study is a checked-in
//! `scenarios/*.json` whose canonical report bytes, replayed through
//! `run_scenario`, are frozen under `crates/bench/golden/`. Failures name
//! the *scenario* (via
//! [`testkit::check_scenario_golden`]), so a stale golden says which spec
//! to re-run, not which test binary tripped.

use bench::scenario;
use scheduler::{run_scenario, ProbeCache, Scenario};
use std::path::PathBuf;
use testkit::check_scenario_golden;

fn scenario_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

fn golden(name: &str) -> String {
    format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The pinned studies, each as (scenario file, golden file). One table,
/// one guard loop — adding a pinned study is adding a row.
const PINNED: [(&str, &str); 7] = [
    ("cluster_fifo.json", "cluster_fifo.json"),
    ("cluster_faults.json", "cluster_faults.json"),
    ("cluster_serve.json", "cluster_serve.json"),
    ("cluster_scale32.json", "cluster_scale32.json"),
    // The production-scale replay workload (10k jobs + 60 services on
    // 128 GPUs, summary metrics) that the replay_scale bench times; its
    // summary golden pins the *semantics* of the optimized engine so a
    // perf regression fix can never silently change the answer.
    ("pai_magnitude.json", "pai_magnitude.json"),
    // The preemption study the migrate bench measures: checkpoint
    // preemption + migration defrag on a contended two-chassis mix. Its
    // golden pins the priority engine's decisions — who got preempted,
    // who migrated, and the work-loss ledger.
    ("cluster_priority.json", "cluster_priority.json"),
    // Every gang mechanism under one policy: preemption, defrag
    // migration, fault evacuation with thermal trips, elastic shrink
    // and a serving failover, all on a two-chassis mixed workload.
    ("cluster_crossed.json", "cluster_crossed.json"),
];

/// Every pinned scenario's canonical output still matches its golden.
#[test]
fn pinned_scenarios_match_their_goldens() {
    for (scenario_file, golden_file) in PINNED {
        let sc = scenario(scenario_file);
        let mut cache = ProbeCache::new(sc.config.probe_iters);
        let report = run_scenario(&sc, 2, &mut cache)
            .unwrap_or_else(|e| panic!("{scenario_file}: {e}"));
        check_scenario_golden(&sc.name, golden(golden_file), &report.canonical_json_string());
    }
}

/// Every checked-in scenario file parses, validates, and is stored in
/// canonical form (emit(parse(text)) == text), so `git diff` on a
/// scenario edit is always minimal and the property suite's byte
/// round-trip covers exactly what is on disk.
#[test]
fn checked_in_scenarios_are_valid_and_canonical() {
    let dir = scenario_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 5, "the pinned scenario set is checked in");
    for path in entries {
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        sc.validate()
            .unwrap_or_else(|e| panic!("{} does not validate: {e}", path.display()));
        assert_eq!(
            sc.to_json_string(),
            text,
            "{} is not in canonical form — re-emit it with Scenario::to_json_string",
            path.display()
        );
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(sc.name, stem, "{}: scenario name matches its file name", path.display());
    }
}

/// Probe prices are per-chassis-pure, so one persisted cache serves every
/// rack shape: a cache saved after the 2-chassis `cluster_scale32` replay
/// loads in full for the 1-chassis `cluster_fifo`, the reverse holds too,
/// and each replay on the loaded cache still matches its golden.
#[test]
fn persisted_cache_loads_in_full_across_rack_shapes() {
    for (saved, loaded) in [("cluster_scale32", "cluster_fifo"), ("cluster_fifo", "cluster_scale32")] {
        let first = scenario(&format!("{saved}.json"));
        let mut cache = ProbeCache::new(first.config.probe_iters);
        run_scenario(&first, 2, &mut cache).unwrap_or_else(|e| panic!("{saved}: {e}"));
        let second = scenario(&format!("{loaded}.json"));
        let mut reloaded = ProbeCache::load_str(&cache.save_json(), second.config.probe_iters);
        assert_eq!(reloaded.len(), cache.len(), "{saved} → {loaded}: every entry loads");
        let report = run_scenario(&second, 2, &mut reloaded)
            .unwrap_or_else(|e| panic!("{loaded}: {e}"));
        let golden_file = golden(&format!("{loaded}.json"));
        check_scenario_golden(&second.name, golden_file, &report.canonical_json_string());
    }
}
