//! Parallel execution must never change a byte of output: every sweep in
//! the workspace (scenario policy replays, recommendation ranking, probe
//! warming) produces identical results at `--jobs 1` and `--jobs 4`, and
//! across repeated parallel runs. This is the contract `parsweep` exists
//! to uphold (DESIGN §9) and what lets the golden tables stay valid while
//! the harness fans out.

use composable_core::{recommend_jobs, ExperimentOpts, HostConfig, Objective};
use desim::Dur;
use dlmodels::Benchmark;
use scheduler::{
    run_matrix, run_scenario, trace, warm_set_for_trace, ProbeCache, Scenario, ScenarioReport,
    SchedulerConfig, Topology, TraceSpec, POLICY_NAMES,
};

fn load(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_json_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The seeded two-tenant Poisson trace under the four training policies
/// on `chassis` chassis.
fn training(chassis: u8, n_jobs: usize, seed: u64, config: SchedulerConfig) -> Scenario {
    let trace = TraceSpec::Poisson {
        seed,
        n_jobs,
        tenants: 2,
        mean_interarrival: Dur::from_millis(1500),
        name: None,
    };
    let policies = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    let mut sc = Scenario::new(format!("training-{chassis}x{n_jobs}"), trace, policies);
    sc.topology = Topology::with_chassis(chassis);
    sc.config = config;
    sc
}

/// One `run_scenario` pass at `jobs` workers on a fresh cache: canonical
/// report bytes, probe-cache bytes, and the reports themselves.
fn snapshot(sc: &Scenario, jobs: usize) -> (String, String, ScenarioReport) {
    let mut cache = ProbeCache::new_for(sc.config.probe_iters, sc.topology.rack());
    let report = run_scenario(sc, jobs, &mut cache).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    (report.canonical_json_string(), cache.save_json(), report)
}

/// The table-driven leg: a multi-policy scenario replayed at `--jobs 1`,
/// `4`, and `4` again yields byte-identical reports and probe caches
/// (replays race freely; merge order may not depend on the race). Every
/// report also carries what its scenario promises: a rack-sized pool, a
/// migration ledger when preemption or defrag is on, a `recovery` block
/// with real evacuations and recovery time under faults, and request
/// conservation under serving.
fn assert_identical_across_worker_counts(sc: Scenario) {
    let serial = snapshot(&sc, 1);
    let parallel = snapshot(&sc, 4);
    let parallel_again = snapshot(&sc, 4);
    assert_eq!(serial.0, parallel.0, "{}: reports must not depend on worker count", sc.name);
    assert_eq!(serial.1, parallel.1, "{}: probe cache must not depend on worker count", sc.name);
    assert_eq!(parallel, parallel_again, "{}: parallel runs must not race", sc.name);

    let (mixed, plan) = sc.materialize();
    for r in &serial.2.reports {
        assert_eq!(r.pool_gpus as usize, sc.topology.rack().total_gpus(), "{}", r.policy);
        assert_eq!(r.migration.is_some(), sc.config.preempt || sc.config.defrag, "{}", r.policy);
        if !plan.is_empty() {
            let rec = r.recovery.as_ref().expect("faulty replay reports recovery");
            assert!(rec.evacuations > 0, "{}: no evacuations recorded", r.policy);
            assert!(!rec.mean_recovery.is_zero(), "{}: zero mean recovery time", r.policy);
        }
        if !mixed.services.is_empty() {
            let s = r.serve.as_ref().expect("mixed replay reports serving");
            assert!(s.generated > 0, "{}: services saw no traffic", r.policy);
            assert_eq!(s.generated, s.completed + s.dropped, "{}: leaked requests", r.policy);
        }
    }
}

/// One named test per table row, so a failure names its case and rows
/// run in parallel.
macro_rules! worker_count_table {
    ($($name:ident => $scenario:expr;)+) => {$(
        #[test]
        fn $name() {
            assert_identical_across_worker_counts($scenario);
        }
    )+};
}

worker_count_table! {
    cluster_replay_identical_across_worker_counts =>
        training(1, 12, 0xBEEF, SchedulerConfig::default());
    // 32 pooled GPUs: cross-chassis placement pricing included.
    rack_scale_replay_identical_across_worker_counts =>
        training(2, 24, 0xBEEF, SchedulerConfig { quota_gpus_per_tenant: 20, ..Default::default() });
    // Victims chosen, rolled back, and resumed mid-replay.
    priority_replay_identical_across_worker_counts => training(
        2,
        24,
        0xBEEF,
        SchedulerConfig { preempt: true, defrag: true, quota_gpus_per_tenant: 20, ..Default::default() },
    );
    // The pinned 3-event fault plan under the four training policies.
    faulty_replay_identical_across_worker_counts => load("faults_policies.json");
    mixed_serving_replay_identical_across_worker_counts => Scenario::new(
        "mixed-serving",
        TraceSpec::PaiMix { n_jobs: 6, n_services: 4, seed: 0xBEEF },
        POLICY_NAMES.iter().map(|p| p.to_string()).collect(),
    );
}

fn scenario_matrix_snapshot(jobs: usize) -> (Vec<String>, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ is checked in")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let scenarios: Vec<Scenario> = paths
        .iter()
        .map(|p| Scenario::from_json_str(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect();
    let mut cache = ProbeCache::new(SchedulerConfig::default().probe_iters);
    let reports = run_matrix(&scenarios, jobs, &mut cache).expect("every pinned scenario runs");
    let reports: Vec<String> = reports.iter().map(|r| r.canonical_json_string()).collect();
    (reports, cache.save_json())
}

/// The scenario matrix keeps the contract: the whole checked-in
/// `scenarios/` directory fanned across 1 vs 4 workers (and across
/// repeated parallel runs) yields byte-identical canonical reports and a
/// byte-identical shared probe cache — the property `repro
/// scenario-matrix --jobs N` advertises.
#[test]
fn scenario_matrix_identical_across_worker_counts() {
    let serial = scenario_matrix_snapshot(1);
    let parallel = scenario_matrix_snapshot(4);
    let parallel_again = scenario_matrix_snapshot(4);
    assert!(serial.0.len() >= 5, "the pinned scenario set ran");
    assert_eq!(serial.0, parallel.0, "scenario reports must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel matrix runs must not race");
}

/// The production-scale replay workload keeps the contract on its own
/// terms: `scenarios/pai_magnitude.json` (10k training jobs + 60
/// services on the 128-GPU rack, serving epochs, amortized audits)
/// replayed at `--jobs 1` and `--jobs 4` yields byte-identical
/// canonical reports. The scenario has one policy and a replay never
/// fans out inside itself, so today both runs execute the same serial
/// code; the test stays so that any future intra-replay parallelism has
/// to keep this identity.
#[test]
fn pai_magnitude_replay_identical_across_worker_counts() {
    let sc = load("pai_magnitude.json");
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    let serial = run_scenario(&sc, 1, &mut cache).unwrap().canonical_json_string();
    let parallel = run_scenario(&sc, 4, &mut cache).unwrap().canonical_json_string();
    assert_eq!(serial, parallel, "the pai_magnitude report must not depend on worker count");
    assert!(serial.contains("\"n_jobs\": 10000"), "the full 10k-job trace ran");
    assert!(serial.contains("\"n_services\": 60"), "all 48 mixed + 12 pinned services ran");
}

fn autotune_snapshot(jobs: usize) -> (String, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/portfolio_default");
    let pf = autotune::Portfolio::load_dir(std::path::Path::new(dir))
        .expect("the default portfolio is checked in");
    let spec = autotune::SearchSpec { seed: 3, budget: 24 };
    let mut cache = ProbeCache::new(pf.probe_iters());
    let tuned = autotune::tune(&pf, &spec, jobs, &mut cache).expect("small-budget tune runs");
    (tuned.to_json_string(), cache.save_json())
}

/// The policy search keeps the contract: a small-budget `tune()` over the
/// default portfolio — candidate evaluations fanned across the worker
/// pool — yields a byte-identical `TunedPolicy` artifact and probe cache
/// at `--jobs 1` and `--jobs 4`, and across repeated parallel runs. This
/// is the same identity `repro autotune` advertises at full budget.
#[test]
fn autotune_identical_across_worker_counts() {
    let serial = autotune_snapshot(1);
    let parallel = autotune_snapshot(4);
    let parallel_again = autotune_snapshot(4);
    assert_eq!(serial.0, parallel.0, "tuned artifact must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "probe cache must not depend on worker count");
    assert_eq!(parallel, parallel_again, "parallel tunes must not race");
    assert!(serial.0.contains("\"portfolio_hash\""), "artifact carries provenance");
}

/// `recommend` ranks identically (same order, same scores, same attached
/// reports) at 1 and 4 workers.
#[test]
fn recommend_identical_across_worker_counts() {
    let snapshot = |jobs: usize| {
        recommend_jobs(
            Benchmark::BertLarge,
            &HostConfig::gpu_configs(),
            Objective::TrainingTime,
            &ExperimentOpts::scaled(3),
            jobs,
        )
        .into_iter()
        .map(|r| {
            format!("{:?} {} {}", r.config, r.score, r.report.to_json_string())
        })
        .collect::<Vec<_>>()
    };
    let serial = snapshot(1);
    assert_eq!(serial, snapshot(4));
    assert!(!serial.is_empty());
}

/// Probe-cache persistence closes the loop: a cache saved by one run and
/// loaded by the next prices the same portfolio with **zero** probe
/// simulations and byte-identical reports.
#[test]
fn persisted_probe_cache_eliminates_second_run_probes() {
    let sc = training(1, 10, 0x5EED5, SchedulerConfig::default());

    let mut first = ProbeCache::new(sc.config.probe_iters);
    let a = run_scenario(&sc, 2, &mut first).unwrap().canonical_json_string();
    assert!(first.probes_run() > 0, "the first run must actually probe");
    let persisted = first.save_json();

    let mut second = ProbeCache::load_str(&persisted, sc.config.probe_iters);
    assert_eq!(second.len(), first.len(), "every entry must round-trip");
    let b = run_scenario(&sc, 2, &mut second).unwrap().canonical_json_string();
    assert_eq!(
        second.probes_run(),
        0,
        "a warm persisted cache must make the second run probe-free"
    );
    assert_eq!(a, b, "cached pricing must not change a byte of the reports");
    assert_eq!(second.save_json(), persisted, "save/load/save is a fixpoint");
}

/// Warming in parallel produces the same cache bytes as warming serially,
/// for the exact key set a trace replay draws on.
#[test]
fn parallel_warm_matches_serial_warm_for_a_trace() {
    let t = trace::seeded_two_tenant(8, 0xAB);
    let keys = warm_set_for_trace(&t);
    assert!(!keys.is_empty());
    let cfg = SchedulerConfig::default();
    let mut serial = ProbeCache::new(cfg.probe_iters);
    serial.warm(&keys, 1);
    let mut parallel = ProbeCache::new(cfg.probe_iters);
    parallel.warm(&keys, 4);
    assert_eq!(serial.save_json(), parallel.save_json());
    assert_eq!(serial.probes_run(), parallel.probes_run());
}
