//! End-to-end determinism: the whole simulator must be a pure function of
//! its configuration and seed. This is what makes the golden-table
//! regression tests (crates/bench/tests/golden_tables.rs) sound.

use composable_core::runner::{run, ExperimentOpts};
use composable_core::HostConfig;
use desim::{Dur, SimRng};
use dlmodels::Benchmark;
use scheduler::{run_scenario, ProbeCache, Scenario, TraceSpec, POLICY_NAMES};

/// The same (benchmark, config, opts, seed) twice produces byte-identical
/// RunReport JSON — every field, including the utilization traces.
#[test]
fn identical_runs_serialize_identically() {
    let mk = || {
        let mut opts = ExperimentOpts::scaled(6).without_checkpoints();
        opts.seed = 42;
        run(Benchmark::ResNet50, HostConfig::FalconGpus, &opts)
            .unwrap()
            .to_json_string()
            .into_bytes()
    };
    assert_eq!(mk(), mk(), "replay must be byte-identical");
}

/// Different seeds actually change the report (the jitter path is live,
/// so the byte-identity above is not vacuous).
#[test]
fn different_seeds_differ() {
    let mk = |seed: u64| {
        let mut opts = ExperimentOpts::scaled(6).without_checkpoints();
        opts.seed = seed;
        run(Benchmark::ResNet50, HostConfig::LocalGpus, &opts)
            .unwrap()
            .to_json_string()
    };
    assert_ne!(mk(1), mk(2));
}

/// The cluster scheduler inherits the same guarantee end to end: an equal
/// seed replays an equal trace to byte-identical reports under every
/// policy — trace generation, probe pricing, placement, elastic shrink,
/// and the metrics rollup are all pure functions of their inputs.
#[test]
fn cluster_replay_is_byte_identical_under_equal_seeds() {
    let mk = |seed: u64| {
        // One trace name for every seed, so only the schedule can differ.
        let trace = TraceSpec::Poisson {
            seed,
            n_jobs: 12,
            tenants: 2,
            mean_interarrival: Dur::from_millis(1500),
            name: Some("determinism".into()),
        };
        let policies = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
        let sc = Scenario::new("determinism", trace, policies);
        let mut cache = ProbeCache::new(sc.config.probe_iters);
        run_scenario(&sc, 2, &mut cache)
            .unwrap()
            .reports
            .iter()
            .map(|r| r.to_json_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(0xBEEF), mk(0xBEEF), "cluster replay must be byte-identical");

    // And a different seed genuinely changes the schedule.
    assert_ne!(mk(0xBEE5)[0], mk(0xBEEF)[0]);
}

/// Forked RNG streams are independent of sibling draw order: how much one
/// fork is consumed cannot change what a sibling fork produces. This is
/// the property that lets subsystems (dataloader jitter, kernel jitter,
/// checkpoint timing) draw randomness without coupling to each other.
#[test]
fn forked_streams_are_order_independent() {
    let draws = |consume_sibling_first: bool| {
        let root = SimRng::seed_from_u64(0xDEC0DE);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        if consume_sibling_first {
            for _ in 0..1000 {
                a.next_u64();
            }
        }
        (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draws(false), draws(true));

    // Forking does not advance the parent either: the parent's own stream
    // is the same whether or not forks were taken from it.
    let mut plain = SimRng::seed_from_u64(99);
    let mut forked = SimRng::seed_from_u64(99);
    let _ = forked.fork(7);
    let _ = forked.fork(8);
    assert_eq!(plain.next_u64(), forked.next_u64());

    // And distinct fork tags give distinct streams.
    let root = SimRng::seed_from_u64(5);
    assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
}
