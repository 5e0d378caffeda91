//! Preemption/migration bench (testkit harness): the pinned
//! `scenarios/cluster_priority.json` study — a contended two-chassis
//! PAI-style mix where ~20% of jobs arrive at the high tier — replayed
//! against its no-priority baseline: the *same* jobs, arrivals, and
//! sizes with every tier flattened to low and every priority knob off,
//! i.e. plain arrival-order scheduling with no preemption. Both legs run
//! the same policy, so the per-tier mean-JCT ratios (per job id, tiers
//! taken from the real trace) are exactly the cost/benefit of the
//! priority machinery, and the bench **asserts** the tentpole claim:
//! high-tier mean JCT improves by at least [`MIN_HIGH_TIER_GAIN`] while
//! low-tier mean JCT inflates by at most [`MAX_LOW_TIER_INFLATION`] — a
//! pinned property, not a vibe.
//!
//! Also asserted before any timing: the priority-enabled replay is
//! worker-count independent (`--jobs 1` and `--jobs 4` produce
//! byte-identical reports on this exact workload).
//!
//! Results land in `BENCH_migrate.json` at the workspace root: per-tier
//! mean JCTs for both legs, the asserted ratios, and the preemption /
//! migration counters of the enabled leg.

use bench::scenario;
use desim::json::Value;
use scheduler::{run_scenario, ProbeCache, Scenario, ScheduleReport, Trace, TraceSpec};
use testkit::bench::{black_box, BenchOpts, Suite};

/// The asserted floor on the high-tier improvement: preemption must cut
/// high-tier mean JCT by at least this fraction vs the baseline.
const MIN_HIGH_TIER_GAIN: f64 = 0.20;

/// The asserted ceiling on the low-tier cost: preempted low-tier jobs may
/// see mean JCT inflate by at most this factor.
const MAX_LOW_TIER_INFLATION: f64 = 1.5;

fn load_cluster_priority() -> Scenario {
    let sc = scenario("cluster_priority.json");
    assert!(
        sc.config.preempt,
        "cluster_priority is the preemption study; its preempt knob must be on"
    );
    sc
}

/// The no-priority baseline: identical jobs with every tier flattened to
/// low and every priority lever off, so the queue is plain arrival order
/// and nothing can preempt — the pre-tier engine's behavior on this mix.
fn baseline(sc: &Scenario, trace: &Trace) -> Scenario {
    let mut base = sc.clone();
    let jobs = trace
        .jobs
        .iter()
        .cloned()
        .map(|mut j| {
            j.priority = 1;
            j
        })
        .collect();
    base.trace = TraceSpec::Jobs { name: trace.name.clone(), jobs };
    base.config.preempt = false;
    base.config.defrag = false;
    base
}

/// One replay of `sc` at `workers` on a copy of the `warm` probe cache.
fn replay(sc: &Scenario, warm: &str, workers: usize) -> ScheduleReport {
    let mut cache = ProbeCache::load_str_for(warm, sc.config.probe_iters, sc.topology.rack());
    run_scenario(sc, workers, &mut cache).expect("cluster_priority trace drains").reports.remove(0)
}

/// Mean JCT over the jobs the *real* trace puts at `tier`, selected by
/// job id so the flattened baseline leg groups identically.
fn tier_mean_jct_secs(r: &ScheduleReport, trace: &Trace, tier: u8) -> f64 {
    let jcts: Vec<f64> = r
        .jobs
        .iter()
        .filter(|o| trace.jobs.iter().any(|j| j.id == o.id && j.priority == tier))
        .map(|o| o.jct().as_secs_f64())
        .collect();
    assert!(!jcts.is_empty(), "the seeded mix must draw tier-{tier} jobs");
    jcts.iter().sum::<f64>() / jcts.len() as f64
}

fn main() {
    let mut s = Suite::with_opts("migrate", BenchOpts { warmup_iters: 1, iters: 3 });

    let sc = load_cluster_priority();
    let topo = sc.topology.rack();
    let (mix, plan) = sc.materialize();
    assert!(plan.is_empty(), "cluster_priority is fault-free; wire the plan in if that changes");
    let trace = mix.training();
    let policy_name = sc.policies[0].clone();
    let flat = baseline(&sc, &trace);

    // Warm the probe cache once (probing is deterministic and identical
    // for both legs; the bench times the replay, not the probes).
    let warm = {
        let mut cache = ProbeCache::new_for(sc.config.probe_iters, topo);
        run_scenario(&sc, 1, &mut cache).expect("warm-up replay drains");
        cache.save_json()
    };

    // Worker-count independence, asserted before any timing: preemption
    // and migration decisions must not let the fan-out change a byte.
    let tiered = replay(&sc, &warm, 1);
    let four = replay(&sc, &warm, 4);
    assert_eq!(
        tiered.to_json_string(),
        four.to_json_string(),
        "priority replay must be byte-identical at --jobs 1 and --jobs 4"
    );
    println!("  -> --jobs 1 vs --jobs 4: byte-identical");

    let base = replay(&flat, &warm, 1);
    assert!(base.migration.is_none(), "knob-free baseline must not report migration metrics");
    let mig = tiered.migration.as_ref().expect("priority leg reports migration metrics");
    assert!(mig.preemptions > 0, "the pinned study must actually preempt");

    let (base_high, base_low) =
        (tier_mean_jct_secs(&base, &trace, 2), tier_mean_jct_secs(&base, &trace, 1));
    let (high, low) =
        (tier_mean_jct_secs(&tiered, &trace, 2), tier_mean_jct_secs(&tiered, &trace, 1));
    let gain = 1.0 - high / base_high;
    let inflation = low / base_low;
    println!(
        "  -> high-tier mean JCT {base_high:.1}s -> {high:.1}s ({:.1}% better), \
         low-tier {base_low:.1}s -> {low:.1}s ({inflation:.2}x), \
         {} preemptions / {} migrations",
        gain * 100.0,
        mig.preemptions,
        mig.migrations
    );
    assert!(
        gain >= MIN_HIGH_TIER_GAIN,
        "preemption benefit regressed: high-tier mean JCT improved only {:.1}% < {:.0}% \
         (baseline {base_high:.1}s, tiered {high:.1}s)",
        gain * 100.0,
        MIN_HIGH_TIER_GAIN * 100.0
    );
    assert!(
        inflation <= MAX_LOW_TIER_INFLATION,
        "preemption cost regressed: low-tier mean JCT inflated {inflation:.2}x > \
         {MAX_LOW_TIER_INFLATION}x (baseline {base_low:.1}s, tiered {low:.1}s)"
    );

    let base_t = s
        .bench("cluster_priority_baseline", || {
            black_box(replay(&flat, &warm, 1).n_jobs)
        })
        .clone();
    let tier_t = s
        .bench("cluster_priority_preempt", || {
            black_box(replay(&sc, &warm, 1).n_jobs)
        })
        .clone();

    // Intra-replay fan-out on the preempting leg, through the shared
    // suppression convention (null + note) on a 1-core host.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (preempt_jobs4_speedup, fanout_note) = if cores >= 2 {
        let four_t = s
            .bench("cluster_priority_preempt_jobs4", || {
                black_box(replay(&sc, &warm, 4).n_jobs)
            })
            .clone();
        let ratio = tier_t.median_ns as f64 / four_t.median_ns as f64;
        println!("  -> preempt replay --jobs 4: {ratio:.2}x vs --jobs 1");
        (
            testkit::bench::speedup_or_null(cores, ratio),
            format!("preempt replay fanned to 4 workers on a {cores}-way host"),
        )
    } else {
        (
            testkit::bench::speedup_or_null(cores, 1.0),
            testkit::bench::suppressed_speedup_note("preempt_jobs4_speedup"),
        )
    };

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let fields: Vec<(&str, Value)> = vec![
        ("suite", Value::str("migrate")),
        ("trace_jobs", Value::from_u64(trace.jobs.len() as u64)),
        ("pool_gpus", Value::from_u64(topo.total_gpus() as u64)),
        ("policy", Value::str(policy_name)),
        ("baseline_high_tier_mean_jct_s", Value::Num(round2(base_high))),
        ("preempt_high_tier_mean_jct_s", Value::Num(round2(high))),
        ("baseline_low_tier_mean_jct_s", Value::Num(round2(base_low))),
        ("preempt_low_tier_mean_jct_s", Value::Num(round2(low))),
        ("high_tier_gain", Value::Num(round2(gain))),
        ("min_high_tier_gain_asserted", Value::Num(MIN_HIGH_TIER_GAIN)),
        ("low_tier_inflation", Value::Num(round2(inflation))),
        ("max_low_tier_inflation_asserted", Value::Num(MAX_LOW_TIER_INFLATION)),
        ("preemptions", Value::from_u64(u64::from(mig.preemptions))),
        ("migrations", Value::from_u64(u64::from(mig.migrations))),
        ("work_lost_gpu_secs", Value::Num(mig.work_lost_gpu_secs)),
        ("baseline_median_ns", Value::from_u64(base_t.median_ns as u64)),
        ("preempt_median_ns", Value::from_u64(tier_t.median_ns as u64)),
        ("preempt_jobs4_speedup", preempt_jobs4_speedup),
        ("fanout_note", Value::str(fanout_note)),
        (
            "note",
            Value::str(
                "cluster_priority study (48 jobs, 2 chassis / 32 GPUs, ~20% high-tier) \
                 replayed with tiers flattened + priority knobs off (arrival-order, \
                 no-preemption baseline) vs real tiers + checkpoint preemption + \
                 migration defrag on; >= 20% high-tier mean-JCT gain, <= 1.5x low-tier \
                 inflation, and --jobs 1 == --jobs 4 bytes are asserted, not recorded",
            ),
        ),
    ];
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_migrate.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_migrate.json");
    println!("baseline written to BENCH_migrate.json");
}
