//! Rack scale-out benches (testkit harness): the same seeded two-tenant
//! replay at every supported rack scale — 16 GPUs (one Falcon chassis),
//! 32 (2 chassis), 64 (4), and 128 (8, the full envelope) — so the cost
//! of crossing the inter-chassis fabric tier is a tracked number, not a
//! guess. Alongside the timings, a directional assertion: at 32 GPUs the
//! placement policies that price the cross-chassis hop (frag-aware,
//! topology-aware) must beat naive FIFO first-fit on mean JCT.
//!
//! Results land in `BENCH_cluster_scale.json` at the workspace root: raw
//! desim events/sec (the denominator every replay pays per event) plus a
//! median replay wall-clock per scale.

use desim::json::Value;
use desim::{Dur, Sim};
use devices::GpuSpec;
use dlmodels::{paper_model, Benchmark};
use bench::replay_fresh;
use scheduler::{
    cross_chassis_stretch, ProbeCache, RackTopology, Scenario, ScheduleReport, Shape, Topology,
    TraceSpec, POLICY_NAMES,
};
use testkit::bench::{black_box, BenchOpts, Suite};
use training::{max_feasible_batch, JobConfig};

const DESIM_EVENTS: u64 = 100_000;

/// One self-rescheduling event: the leanest trip around the event loop.
fn tick(remaining: &mut u64, sim: &mut Sim<u64>) {
    if *remaining > 0 {
        *remaining -= 1;
        sim.schedule_in(Dur::from_nanos(1), tick);
    }
}

fn desim_event_chain() -> u64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut remaining = DESIM_EVENTS;
    sim.schedule_in(Dur::from_nanos(1), tick);
    sim.run(&mut remaining);
    assert_eq!(remaining, 0);
    sim.events_executed()
}

/// The benched scales: (chassis, jobs in the trace, per-tenant quota).
/// Job count and quota grow with the pool so every scale is contended —
/// an idle 128-GPU rack would time nothing but probe overhead.
const SCALES: [(u8, usize, usize); 4] = [(1, 16, 12), (2, 24, 20), (4, 32, 40), (8, 40, 72)];

fn replay_at(chassis: u8, n_jobs: usize, quota: usize, workers: usize) -> Vec<ScheduleReport> {
    let trace = TraceSpec::Poisson {
        seed: 0xC10D,
        n_jobs,
        tenants: 2,
        mean_interarrival: Dur::from_millis(1500),
        name: None,
    };
    let policies = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    let mut sc = Scenario::new(format!("scale-{chassis}x{n_jobs}"), trace, policies);
    sc.topology = Topology::with_chassis(chassis);
    sc.config.quota_gpus_per_tenant = quota;
    replay_fresh(&sc, workers)
}

/// Probe-derived samples/sec for `bench` on `n` GPUs, using the same
/// per-GPU batch clamp the probe itself applies. Up to 16 GPUs fills one
/// chassis (both drawers); 32 spans two chassis and pays the rack-tier
/// stretch — exactly how the scheduler prices rack-spanning gangs.
fn probe_throughput(bench: Benchmark, n: usize, probes: &mut ProbeCache) -> f64 {
    let per_chassis = n.min(16);
    let shape = Shape::new(per_chassis.min(8) as u8, per_chassis.saturating_sub(8) as u8);
    let mut iter_ns = probes.price(bench, shape).mean_iter.as_nanos() as f64;
    if n > 16 {
        iter_ns *= cross_chassis_stretch(n.div_ceil(16), 100);
    }
    let gpu = GpuSpec::v100_pcie_16gb();
    let cfg = JobConfig::paper_scaled(bench, n, 8);
    let model = paper_model(bench);
    let fit = max_feasible_batch(&model, gpu.memory_bytes, cfg.precision, cfg.strategy, n);
    let batch = cfg.per_gpu_batch.min(fit).max(1);
    (n as u64 * batch) as f64 / (iter_ns / 1e9)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts(
        "cluster_scale",
        BenchOpts {
            warmup_iters: 1,
            iters: 5,
        },
    );

    let desim_stats = s
        .bench("desim_event_loop_100k_events", || {
            black_box(desim_event_chain())
        })
        .clone();
    let events_per_sec = DESIM_EVENTS as f64 / (desim_stats.median_ns as f64 / 1e9);
    println!("  -> {events_per_sec:.0} events/sec (median)");

    // The directional claim, asserted before any timing is reported: at
    // 32 GPUs the cross-chassis stretch makes rack-spanning gangs
    // expensive, so the policies that price it must beat first-fit.
    let reports32 = replay_at(2, 32, 20, 4);
    let jct = |name: &str| {
        reports32
            .iter()
            .find(|r| r.policy == name)
            .expect("policy ran at 32 GPUs")
            .mean_jct
            .as_secs_f64()
    };
    let fifo = jct("fifo-first-fit");
    for smart in ["frag-aware", "topology-aware"] {
        assert!(
            jct(smart) < fifo,
            "{smart} must beat fifo-first-fit on mean JCT at 32 GPUs: \
             {:.2}s vs {fifo:.2}s",
            jct(smart)
        );
    }
    println!(
        "  -> 32-GPU mean JCT: fifo {fifo:.2}s, frag-aware {:.2}s, topology-aware {:.2}s",
        jct("frag-aware"),
        jct("topology-aware")
    );

    // The GigaIO-shaped rows: per-benchmark strong-scaling speedups at
    // 1..32 GPUs derived from the probe oracle, so the report carries
    // the composable *scaling curve*, not just scheduler wall-clock.
    let mut curve_fields: Vec<(String, Value)> = Vec::new();
    let mut probes = ProbeCache::new(3);
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    for bench in Benchmark::all() {
        let base = probe_throughput(bench, 1, &mut probes);
        let mut row = Vec::new();
        for n in [1usize, 2, 4, 8, 16, 32] {
            let speedup = probe_throughput(bench, n, &mut probes) / base;
            row.push(Value::Num(round2(speedup)));
        }
        let at32 = row.last().expect("six points").as_f64().expect("num");
        curve_fields.push((format!("scaling_{}_speedup_1_2_4_8_16_32", bench.label()), Value::Arr(row)));
        curve_fields.push((
            format!("scaling_{}_efficiency_32", bench.label()),
            Value::Num(round2(at32 / 32.0)),
        ));
    }

    let mut scale_fields: Vec<(String, Value)> = Vec::new();
    for (chassis, n_jobs, quota) in SCALES {
        let gpus = RackTopology::with_chassis(chassis).total_gpus();
        let stats = s
            .bench(&format!("rack_replay_{gpus}_gpus_{chassis}_chassis"), || {
                let reports = replay_at(chassis, n_jobs, quota, 4);
                assert!(reports.iter().all(|r| r.pool_gpus as usize == gpus));
                black_box(reports.len())
            })
            .clone();
        scale_fields.push((format!("scale{gpus}_median_ns"), Value::from_u64(stats.median_ns as u64)));
        scale_fields.push((format!("scale{gpus}_chassis"), Value::from_u64(u64::from(chassis))));
        scale_fields.push((format!("scale{gpus}_trace_jobs"), Value::from_u64(n_jobs as u64)));
        if gpus == 32 {
            // Policy fan-out speedup at the asserted scale, through the
            // shared suppression convention for 1-core hosts.
            let jobs1 = s
                .bench("rack_replay_32_gpus_jobs1", || {
                    black_box(replay_at(chassis, n_jobs, quota, 1).len())
                })
                .clone();
            let ratio = jobs1.median_ns as f64 / stats.median_ns as f64;
            println!("  -> 32-GPU policy fan-out: {ratio:.2}x jobs4 vs jobs1");
            scale_fields.push((
                "scale32_fanout_speedup".to_string(),
                testkit::bench::speedup_or_null(cores, ratio),
            ));
        }
    }

    let mut fields: Vec<(&str, Value)> = vec![
        ("suite", Value::str("cluster-scale")),
        ("host_parallelism", Value::from_u64(cores as u64)),
        ("desim_events_per_sec", Value::Num(events_per_sec.round())),
        ("desim_100k_events_median_ns", Value::from_u64(desim_stats.median_ns as u64)),
    ];
    let scale_fields: Vec<(String, Value)> = scale_fields;
    for (k, v) in &scale_fields {
        fields.push((k.as_str(), v.clone()));
    }
    for (k, v) in &curve_fields {
        fields.push((k.as_str(), v.clone()));
    }
    fields.push((
        "note",
        Value::str(
            "one full policy-portfolio replay per scale (4 workers, fresh probe cache); \
             at 32 GPUs frag-aware and topology-aware beating fifo-first-fit on mean JCT \
             is asserted, not just recorded; scaling_* rows are probe-derived per-model \
             strong-scaling speedups at [1,2,4,8,16,32] GPUs (32 spans two chassis and \
             pays the rack-tier stretch)",
        ),
    ));
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster_scale.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_cluster_scale.json");
    println!("baseline written to BENCH_cluster_scale.json");
}
