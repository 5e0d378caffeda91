//! Production-scale replay bench (testkit harness): the PAI-magnitude
//! mixed workload from `scenarios/pai_magnitude.json` — 10k training
//! jobs, 48 bursty services, and 12 long-lived high-rate services on the
//! full 128-GPU rack — replayed under the PR-era event loop semantics
//! (full conservation audit every event, every serving micro-event
//! through the global loop) and under the current engine (amortized
//! ledger audits, epoch-sharded serving with service retirement). Both
//! legs replay the *same* trace, so the events/sec ratio is exactly the
//! speedup, and the bench **asserts** it stays >= 5x — the replay-engine
//! work is a pinned property, not a vibe.
//!
//! Also asserted here, before any timing is reported: the optimized
//! engine is worker-count independent (`--jobs 1` and `--jobs 4` produce
//! byte-identical reports on this exact workload).
//!
//! Results land in `BENCH_replay_scale.json` at the workspace root:
//! trace events/sec for both engine legs, the asserted speedup, and the
//! intra-replay sharding ratio at 4 workers (null, with a note, on
//! single-core hosts where there is no parallelism to measure).

use bench::scenario;
use desim::json::Value;
use scheduler::{request_times, run_scenario, ProbeCache, Scenario, ScheduleReport};
use testkit::bench::{black_box, BenchOpts, Suite};

/// The asserted floor on the engine speedup. Measured headroom is well
/// above this on an idle host; the floor leaves room for CI noise.
const MIN_SPEEDUP: f64 = 5.0;

/// PR-era semantics: exhaustive audit every event, every serving
/// micro-event through the global loop.
fn baseline(sc: &Scenario) -> Scenario {
    let mut base = sc.clone();
    base.config.audit_every = 1;
    base.config.shard_serving = false;
    base
}

/// One replay of `sc` at `workers` on a copy of the `warm` probe cache.
fn replay(sc: &Scenario, warm: &str, workers: usize) -> ScheduleReport {
    let mut cache = ProbeCache::load_str_for(warm, sc.config.probe_iters, sc.topology.rack());
    run_scenario(sc, workers, &mut cache).expect("pai-magnitude trace drains").reports.remove(0)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts("replay_scale", BenchOpts { warmup_iters: 1, iters: 3 });

    let sc = scenario("pai_magnitude.json");
    let (mix, plan) = sc.materialize();
    assert!(plan.is_empty(), "pai_magnitude is fault-free; wire the plan in if that changes");
    // The workload's event count: one arrival + one finish per training
    // job, plus every generated inference request. Identical for both
    // engine legs by construction, so the events/sec ratio is the
    // wall-clock ratio.
    let requests: usize = mix.services.iter().map(|sp| request_times(sp).len()).sum();
    let trace_events = (mix.jobs.len() * 2 + requests) as u64;
    println!(
        "  -> {trace_events} trace events ({} jobs, {} services, {requests} requests)",
        mix.jobs.len(),
        mix.services.len()
    );

    // Warm the probe cache once (probing is deterministic and identical
    // for both legs; the bench times the replay, not the probes).
    let warm = {
        let mut cache = ProbeCache::new_for(sc.config.probe_iters, sc.topology.rack());
        run_scenario(&sc, 1, &mut cache).expect("warm-up replay drains");
        cache.save_json()
    };

    // Worker-count independence, asserted before any timing: the epoch-
    // sharded serving engine must not let the fan-out change a byte.
    let one = replay(&sc, &warm, 1).to_json_string();
    let four = replay(&sc, &warm, 4).to_json_string();
    assert_eq!(one, four, "sharded replay must be byte-identical at --jobs 1 and --jobs 4");
    println!("  -> --jobs 1 vs --jobs 4: byte-identical");

    let base_sc = baseline(&sc);
    let base = s
        .bench("pai_magnitude_baseline_semantics", || {
            black_box(replay(&base_sc, &warm, 1).n_jobs)
        })
        .clone();
    let opt = s
        .bench("pai_magnitude_optimized", || black_box(replay(&sc, &warm, 1).n_jobs))
        .clone();

    let eps = |median_ns: u128| trace_events as f64 / (median_ns as f64 / 1e9);
    let (base_eps, opt_eps) = (eps(base.median_ns), eps(opt.median_ns));
    let speedup = base.median_ns as f64 / opt.median_ns as f64;
    println!(
        "  -> baseline {base_eps:.0} events/sec, optimized {opt_eps:.0} events/sec ({speedup:.1}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "replay-engine speedup regressed: {speedup:.2}x < {MIN_SPEEDUP}x \
         (baseline median {} ns, optimized median {} ns)",
        base.median_ns,
        opt.median_ns
    );

    // Intra-replay sharding: the same optimized replay with serving
    // epochs fanned across 4 workers. On a single-core host there is no
    // parallelism to measure, so the field is null and the note says why.
    let (shard4, shard_note) = if cores >= 2 {
        let four = s
            .bench("pai_magnitude_optimized_jobs4", || {
                black_box(replay(&sc, &warm, 4).n_jobs)
            })
            .clone();
        let ratio = opt.median_ns as f64 / four.median_ns as f64;
        println!("  -> --jobs 4 epoch sharding: {ratio:.2}x vs --jobs 1");
        (
            testkit::bench::speedup_or_null(cores, ratio),
            format!("epoch sharding at 4 workers on a {cores}-way host"),
        )
    } else {
        (
            testkit::bench::speedup_or_null(cores, 1.0),
            testkit::bench::suppressed_speedup_note("sharding speedup"),
        )
    };

    let fields: Vec<(&str, Value)> = vec![
        ("suite", Value::str("replay-scale")),
        ("host_parallelism", Value::from_u64(cores as u64)),
        ("trace_events", Value::from_u64(trace_events)),
        ("trace_jobs", Value::from_u64(mix.jobs.len() as u64)),
        ("trace_services", Value::from_u64(mix.services.len() as u64)),
        ("trace_requests", Value::from_u64(requests as u64)),
        ("pool_gpus", Value::from_u64(128)),
        ("baseline_median_ns", Value::from_u64(base.median_ns as u64)),
        ("optimized_median_ns", Value::from_u64(opt.median_ns as u64)),
        ("baseline_events_per_sec", Value::Num(base_eps.round())),
        ("optimized_events_per_sec", Value::Num(opt_eps.round())),
        ("speedup", Value::Num((speedup * 100.0).round() / 100.0)),
        ("min_speedup_asserted", Value::Num(MIN_SPEEDUP)),
        ("jobs4_speedup", shard4),
        ("jobs4_note", Value::str(shard_note)),
        (
            "note",
            Value::str(
                "pai-magnitude mixed workload (10k jobs + 60 services, 128 GPUs) replayed \
                 under PR-era semantics (audit every event, unsharded serving) vs the \
                 current engine; >= 5x events/sec and --jobs 1 == --jobs 4 \
                 bytes are asserted, not just recorded",
            ),
        ),
    ];
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay_scale.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_replay_scale.json");
    println!("baseline written to BENCH_replay_scale.json");
}
