//! Property tests driving full training runs through the public runner.
//!
//! Invariants covered (testkit, 64 cases each — raised from 12 under
//! proptest; runs are scaled down so the suite stays fast):
//! * every (benchmark, config, batch, seed) cell yields a physically
//!   coherent report (fractions in range, throughput consistent with
//!   iteration accounting, falcon traffic iff falcon GPUs);
//! * the phase totals tile the run under every strategy, and the stall
//!   and exposed-comm shares are their phases' totals;
//! * equal seeds replay identically, different seeds stay in a jitter band.

use composable_core::runner::{run, ExperimentOpts};
use composable_core::HostConfig;
use dlmodels::Benchmark;
use testkit::{bools, prop_assert, prop_assert_eq, property, select, tuple4, u64_in, usize_in};
use training::Strategy;

property! {
    /// Any (benchmark, config, small batch) cell that fits produces a
    /// physically coherent report.
    #[cases(64)]
    fn reports_are_coherent(input in tuple4(
        select(Benchmark::all().to_vec()),
        usize_in(0..3),
        u64_in(2..6),
        u64_in(0..1000),
    )) {
        let (b, cfg_idx, iters, seed) = input;
        let config = HostConfig::gpu_configs()[cfg_idx];
        let mut opts = ExperimentOpts::scaled(iters).without_checkpoints();
        opts.seed = seed;
        let r = run(b, config, &opts).unwrap();
        prop_assert_eq!(r.iterations, 2 * iters);
        prop_assert!(r.total_time.as_secs_f64() > 0.0);
        prop_assert!(r.mean_iter.as_secs_f64() > 0.0);
        // Utilizations are fractions.
        for v in [r.gpu_util, r.cpu_util, r.host_mem_util, r.gpu_mem_util,
                  r.gpu_mem_access_share, r.input_stall_share, r.exposed_comm_share] {
            prop_assert!((0.0..=1.0).contains(&v), "fraction out of range: {}", v);
        }
        // Throughput is exactly consistent with iteration accounting:
        // throughput x wall-clock = iterations x n_gpus x per-GPU batch.
        let (batch, _) = training::config::paper_batch(b, 8);
        let implied = r.throughput * r.total_time.as_secs_f64();
        let expected = (r.iterations * 8 * batch) as f64;
        prop_assert!(
            (implied - expected).abs() / expected < 1e-6,
            "samples accounted: {} vs {}", implied, expected
        );
        // Falcon traffic appears exactly when falcon GPUs exist.
        if config.has_falcon_gpus() {
            prop_assert!(r.falcon_pcie_rate > 0.0);
        } else {
            prop_assert!(r.falcon_pcie_rate == 0.0);
        }
    }

    /// The phases tile the run: on every (benchmark, GPU config,
    /// strategy, checkpoints) draw the phase totals add up to the run
    /// time, and the data-wait and exposed-comm totals are the input-stall
    /// and exposed-comm shares of it (an absent phase counts as 0).
    #[cases(64)]
    fn phase_totals_tile_the_run(input in tuple4(
        select(Benchmark::all().to_vec()),
        usize_in(0..3),
        select(vec![Strategy::ddp(), Strategy::Dp, Strategy::sharded()]),
        bools(),
    )) {
        let (b, cfg_idx, strategy, checkpoints) = input;
        let mut opts = ExperimentOpts::scaled(3).with_strategy(strategy).with_auto_batch();
        opts.checkpoint = checkpoints;
        let r = run(b, HostConfig::gpu_configs()[cfg_idx], &opts).unwrap();
        let total = r.total_time.as_secs_f64();
        let sum: f64 = r.phase_totals.iter().map(|&(_, secs)| secs).sum();
        prop_assert!(
            (sum - total).abs() < 1e-9,
            "phases sum to {} of {} s: {:?}", sum, total, r.phase_totals
        );
        let phase = |label: &str| {
            r.phase_totals.iter().find(|(l, _)| l == label).map_or(0.0, |&(_, secs)| secs)
        };
        for (label, share) in [
            ("data-wait", r.input_stall_share),
            ("exposed-comm", r.exposed_comm_share),
        ] {
            prop_assert!(
                (phase(label) - share * total).abs() < 1e-9,
                "{} total {} s vs share {} of {} s", label, phase(label), share, total
            );
        }
    }

    /// The same seed replays identically; different seeds may differ
    /// (jitter) but stay within a tight band.
    #[cases(64)]
    fn seeds_jitter_within_band(seed_a in u64_in(0..500), seed_b in u64_in(500..1000)) {
        let mk = |seed| {
            let mut o = ExperimentOpts::scaled(4).without_checkpoints();
            o.seed = seed;
            run(Benchmark::ResNet50, HostConfig::LocalGpus, &o).unwrap()
        };
        let a1 = mk(seed_a);
        let a2 = mk(seed_a);
        prop_assert_eq!(a1.total_time, a2.total_time);
        let b = mk(seed_b);
        let ratio = b.total_time.as_secs_f64() / a1.total_time.as_secs_f64();
        prop_assert!((0.9..1.1).contains(&ratio), "jitter band: {}", ratio);
    }
}
