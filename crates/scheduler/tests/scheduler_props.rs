//! Property tests on the cluster scheduler (testkit):
//!
//! * every admitted job completes — no starvation under any built-in
//!   policy with the strict-order queue (finite traces always drain);
//! * resource conservation — no slot double-booking, the chassis
//!   attachment table matches the scheduler's view, the pool and
//!   per-tenant quotas are never exceeded (checked *inside* the event
//!   loop at every event; a violation panics the replay);
//! * GPU-second accounting is consistent between the utilization,
//!   per-tenant, and fragmentation views;
//! * trace JSON round-trips identically;
//! * equal seeds replay to byte-identical reports.

use desim::{Dur, SimTime};
use dlmodels::Benchmark;
use scheduler::cluster::SchedulerConfig;
use scheduler::trace::{JobSpec, PoissonMix, TenantId, Trace};
use scheduler::{run_scenario, ProbeCache, Scenario, ScheduleReport, Shape, TraceSpec, POLICY_NAMES};
use testkit::{prop_assert, prop_assert_eq, property, tuple2, tuple5, u32_in, u64_in, u8_in, vec_of, Gen};

/// Raw material for one random job: (tenant, benchmark, demand-index,
/// arrival ms, iters). Kept as plain integers so shrinking stays simple.
fn raw_jobs() -> Gen<Vec<(u8, u8, u8, u32, u8)>> {
    vec_of(
        tuple5(u8_in(0..2), u8_in(0..5), u8_in(0..4), u32_in(0..40_000), u8_in(4..28)),
        1..11,
    )
}

fn build_trace(raw: &[(u8, u8, u8, u32, u8)]) -> Trace {
    let jobs = raw
        .iter()
        .enumerate()
        .map(|(id, &(tenant, bench, demand, arrival_ms, iters))| {
            let gpus = [1u8, 2, 4, 8][usize::from(demand)];
            JobSpec {
                id: id as u64,
                tenant: TenantId(u32::from(tenant)),
                benchmark: Benchmark::all()[usize::from(bench)],
                gpus,
                min_gpus: if gpus == 8 { 4 } else { gpus },
                priority: 1 + tenant % 2,
                arrival: SimTime::from_millis(u64::from(arrival_ms)),
                iters: u64::from(iters),
            }
        })
        .collect();
    Trace { name: "prop".into(), jobs }.sorted()
}

/// Replay `trace` under the `pol`-th training policy as a one-policy
/// scenario.
fn replay(trace: Trace, pol: u8, cfg: SchedulerConfig) -> ScheduleReport {
    let jobs = TraceSpec::Jobs { name: trace.name, jobs: trace.jobs };
    let mut sc = Scenario::new("prop", jobs, vec![POLICY_NAMES[usize::from(pol)].to_string()]);
    sc.config = cfg;
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    run_scenario(&sc, 1, &mut cache).expect("replay drains").reports.remove(0)
}

property! {
    /// Every admitted job completes under every policy, with a coherent
    /// lifecycle (arrival <= start < finish) and conserved identity.
    #[cases(12)]
    fn every_admitted_job_completes(input in tuple2(raw_jobs(), u8_in(0..4))) {
        let (raw, pol) = input;
        let trace = build_trace(&raw);
        let n = trace.jobs.len();
        let report = replay(trace, pol, SchedulerConfig::default());
        prop_assert_eq!(report.jobs.len(), n);
        let mut seen: Vec<u64> = report.jobs.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        for o in &report.jobs {
            prop_assert!(o.start >= o.arrival, "started before arrival");
            prop_assert!(o.finish > o.start, "zero-length run");
            if o.shrunk {
                prop_assert!(o.final_gpus < o.gpus && o.final_gpus >= o.gpus / 2);
            } else {
                prop_assert_eq!(o.final_gpus, o.gpus);
            }
        }
    }

    /// GPU-second accounting is conserved across its three views, and no
    /// tenant's integral share can exceed quota x makespan.
    #[cases(10)]
    fn gpu_seconds_are_conserved(raw in raw_jobs()) {
        let trace = build_trace(&raw);
        let cfg = SchedulerConfig::default();
        let report = replay(trace, 0, cfg.clone());
        let span = report.makespan.as_secs_f64();
        let busy = report.gpu_util * report.pool_gpus as f64 * span;
        let by_tenant: f64 = report.tenant_gpu_secs.iter().sum();
        // gpu_util is exported rounded to 4 decimals, so reconstructing
        // busy GPU-seconds from it carries up to 5e-5 x pool x makespan of
        // absolute error (plus the tenant vector's own rounding).
        let slack = 5e-5 * report.pool_gpus as f64 * span + 1e-3;
        prop_assert!((busy - by_tenant).abs() <= slack,
            "util view {busy} != tenant view {by_tenant} (slack {slack})");
        for &t in &report.tenant_gpu_secs {
            prop_assert!(t <= cfg.quota_gpus_per_tenant as f64 * span + 1e-6);
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&report.gpu_util));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&report.frag_share));
    }

    /// Traces survive JSON export/import bit-exactly, including via the
    /// Poisson generator.
    #[cases(64)]
    fn trace_json_round_trips(input in tuple2(u64_in(0..1_000_000), u8_in(1..24))) {
        let (seed, n) = input;
        let trace = PoissonMix {
            seed,
            n_jobs: usize::from(n),
            tenants: 2,
            mean_interarrival: Dur::from_millis(1500),
        }
        .generate("roundtrip");
        let back = Trace::from_json_str(&trace.to_json_string()).expect("parses");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_json_string(), trace.to_json_string());
    }

    /// Equal traces and configs produce byte-identical reports.
    #[cases(4)]
    fn replay_is_byte_deterministic(input in tuple2(raw_jobs(), u8_in(0..4))) {
        let (raw, pol) = input;
        let run = || replay(build_trace(&raw), pol, SchedulerConfig::default()).to_json_string();
        prop_assert_eq!(run(), run());
    }
}

/// Placement shapes reported by outcomes stay inside the two-drawer bed.
#[test]
fn shapes_are_physical() {
    for a in 0..=8u8 {
        for b in 0..=8u8 {
            if a + b == 0 {
                continue;
            }
            let s = Shape::new(a, b);
            assert_eq!(s.n_gpus(), usize::from(a) + usize::from(b));
            assert_eq!(s.canonical_slots().len(), s.n_gpus());
            assert_eq!(Shape::of(&s.canonical_slots()), s);
        }
    }
}
