//! Chaos property tests for failure injection (testkit):
//!
//! * any valid `FaultPlan` — random kinds, targets, times, overlaps —
//!   replayed over a random trace under a random policy drains to
//!   completion with every job terminating (conservation invariants are
//!   asserted *inside* the event loop at every event of every replay; a
//!   violation in any intermediate degraded state panics the case);
//! * fault timelines are monotone: sorted plans have non-decreasing
//!   strike times and every heal lands strictly after its strike;
//! * `FaultPlan` JSON round-trips bit-exactly, seeded generation is
//!   deterministic.
//!
//! Probe prices are pooled across cases through a shared cache (probes
//! are pure, so sharing can only skip simulations, never change a
//! report).

use std::sync::Mutex;

use desim::{Dur, SimTime};
use dlmodels::Benchmark;
use scheduler::cluster::{ClusterSim, SchedulerConfig};
use scheduler::fault::DEGRADE_LEVELS;
use scheduler::policy::all_policies;
use scheduler::trace::{JobSpec, TenantId, Trace};
use scheduler::{
    seeded_fault_plan, seeded_rack_fault_plan, FaultEvent, FaultKind, FaultPlan, ProbeCache,
    RackTopology,
};
use testkit::{
    prop_assert, prop_assert_eq, property, tuple3, tuple5, u32_in, u64_in, u8_in, vec_of, Gen,
};

/// Raw material for one random job: (tenant, benchmark, demand-index,
/// arrival ms, iters). Small jobs keep 64-case chaos replays cheap.
fn raw_jobs() -> Gen<Vec<(u8, u8, u8, u32, u8)>> {
    vec_of(
        tuple5(u8_in(0..2), u8_in(0..5), u8_in(0..4), u32_in(0..30_000), u8_in(4..24)),
        1..9,
    )
}

/// Raw material for one fault event: (kind, drawer, aux, at ms, dur ms).
/// `aux` picks the slot for slot-death and the degrade level for
/// link-degrade. Plain integers so testkit shrinking stays simple.
fn raw_faults() -> Gen<Vec<(u8, u8, u8, u32, u32)>> {
    vec_of(
        tuple5(u8_in(0..4), u8_in(0..2), u8_in(0..8), u32_in(0..45_000), u32_in(1..20_000)),
        0..6,
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
    Trace { name: "fault-prop".into(), jobs }.sorted()
}

fn build_plan(raw: &[(u8, u8, u8, u32, u32)]) -> FaultPlan {
    let events = raw
        .iter()
        .map(|&(kind, drawer, aux, at_ms, dur_ms)| FaultEvent {
            at: SimTime::from_millis(u64::from(at_ms)),
            chassis: 0,
            kind: match kind {
                0 => FaultKind::DrawerOutage { drawer },
                1 => FaultKind::SlotDeath { drawer, slot: aux },
                2 => FaultKind::LinkDegrade {
                    drawer,
                    pct: DEGRADE_LEVELS[usize::from(aux) % DEGRADE_LEVELS.len()],
                },
                _ => FaultKind::ThermalTrip { drawer },
            },
            duration: Dur::from_millis(u64::from(dur_ms)),
        })
        .collect();
    FaultPlan { name: "chaos".into(), events }.sorted()
}

/// One probe cache for the whole suite; split into each case, absorbed
/// back after, so the 64 chaos replays price each (benchmark, shape,
/// link-health) triple at most once.
fn shared_cache() -> &'static Mutex<ProbeCache> {
    static CELL: std::sync::OnceLock<Mutex<ProbeCache>> = std::sync::OnceLock::new();
    CELL.get_or_init(|| Mutex::new(ProbeCache::new(SchedulerConfig::default().probe_iters)))
}

property! {
    /// Chaos: a random fault plan over a random trace under a random
    /// policy always drains; every job terminates exactly once with a
    /// coherent lifecycle, and the recovery block appears iff faults
    /// were injected. Conservation (no double-booking, chassis/scheduler
    /// attachment parity, failed-slot bookkeeping, quotas) is asserted
    /// inside the loop at every event, so a completed replay certifies
    /// every intermediate degraded state.
    #[cases(64)]
    fn chaos_replay_conserves_and_terminates(
        input in tuple3(raw_jobs(), raw_faults(), u8_in(0..4))
    ) {
        let (rjobs, rfaults, pol) = input;
        let trace = build_trace(&rjobs);
        let plan = build_plan(&rfaults);
        let n = trace.jobs.len();
        let n_events = plan.events.len();
        let probes = shared_cache().lock().unwrap().split();
        let sim = ClusterSim::with_probe_cache_on(
            RackTopology::SINGLE,
            trace,
            all_policies().remove(usize::from(pol)),
            SchedulerConfig::default(),
            probes,
        )
        .expect("valid trace")
        .with_faults(plan)
        .expect("valid plan");
        let (report, cache) = sim.run_report().expect("faulty replay drains");
        shared_cache().lock().unwrap().absorb(cache);

        prop_assert_eq!(report.jobs.len(), n, "all jobs terminate");
        let mut seen: Vec<u64> = report.jobs.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        for o in &report.jobs {
            prop_assert!(o.start >= o.arrival, "started before arrival");
            prop_assert!(o.finish > o.start, "zero-length run");
        }
        if n_events == 0 {
            prop_assert!(report.recovery.is_none(), "no recovery block without faults");
        } else {
            let r = report.recovery.as_ref().expect("recovery block present");
            prop_assert_eq!(r.fault_events, n_events as u32, "every strike applied");
            prop_assert!(
                r.evacuations == 0 || !r.mean_recovery.is_zero(),
                "evacuated jobs pay a nonzero recovery time"
            );
            prop_assert!(r.work_lost_gpu_secs >= 0.0);
        }
    }

    /// Rack chaos: seeded chassis-routed fault plans — drawer outages and
    /// thermal trips on either chassis, plus inter-chassis (rack-tier)
    /// link degradation — over a random trace on a 2-chassis rack always
    /// drain. Conservation is asserted inside the loop at every event,
    /// rack-wide *and* per chassis, so a completed replay certifies that
    /// faults on one chassis never corrupt the other's bookkeeping.
    #[cases(64)]
    fn rack_chaos_replay_conserves_and_terminates(
        input in tuple3(raw_jobs(), u64_in(0..1_000_000), u8_in(0..4))
    ) {
        let (rjobs, seed, pol) = input;
        let topo = RackTopology::with_chassis(2);
        let trace = build_trace(&rjobs);
        let plan = seeded_rack_fault_plan(4, Dur::from_secs(45), seed, &topo);
        plan.validate_for(&topo).expect("generated plans stay in the rack envelope");
        let n = trace.jobs.len();
        let n_events = plan.events.len();
        let probes = shared_cache().lock().unwrap().split();
        let sim = ClusterSim::with_probe_cache_on(
            topo,
            trace,
            all_policies().remove(usize::from(pol)),
            SchedulerConfig::default(),
            probes,
        )
        .expect("valid trace")
        .with_faults(plan)
        .expect("valid plan");
        let (report, cache) = sim.run_report().expect("rack replay drains");
        shared_cache().lock().unwrap().absorb(cache);

        prop_assert_eq!(report.pool_gpus, 32, "two chassis worth of pool");
        prop_assert_eq!(report.jobs.len(), n, "all jobs terminate");
        let mut seen: Vec<u64> = report.jobs.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        let r = report.recovery.as_ref().expect("recovery block present");
        prop_assert_eq!(r.fault_events, n_events as u32, "every strike applied");
        prop_assert!(r.work_lost_gpu_secs >= 0.0);
    }

    /// Migration under fire: the same rack chaos with checkpoint
    /// preemption and migration defrag switched on still drains — every
    /// job terminates exactly once, preempted gangs all resume (the
    /// event loop panics at drain otherwise), both the migration and
    /// recovery ledgers are coherent, and the whole replay is a pure
    /// function of its inputs (run twice, byte-identical reports), so
    /// fault timing can never race the preempt/defrag decisions.
    #[cases(64)]
    fn migration_under_faults_conserves_and_terminates(
        input in tuple3(raw_jobs(), u64_in(0..1_000_000), u8_in(0..4))
    ) {
        let (rjobs, seed, pol) = input;
        let topo = RackTopology::with_chassis(2);
        let trace = build_trace(&rjobs);
        let plan = seeded_rack_fault_plan(4, Dur::from_secs(45), seed, &topo);
        let n = trace.jobs.len();
        let cfg = SchedulerConfig { preempt: true, defrag: true, ..SchedulerConfig::default() };
        let run = || {
            let probes = shared_cache().lock().unwrap().split();
            let sim = ClusterSim::with_probe_cache_on(
                topo,
                trace.clone(),
                all_policies().remove(usize::from(pol)),
                cfg.clone(),
                probes,
            )
            .expect("valid trace")
            .with_faults(plan.clone())
            .expect("valid plan");
            let (report, cache) = sim.run_report().expect("migrating replay drains");
            shared_cache().lock().unwrap().absorb(cache);
            report
        };
        let report = run();

        prop_assert_eq!(report.jobs.len(), n, "all jobs terminate");
        let mut seen: Vec<u64> = report.jobs.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
        for o in &report.jobs {
            prop_assert!(o.start >= o.arrival, "started before arrival");
            prop_assert!(o.finish > o.start, "zero-length run");
        }
        let mig = report.migration.as_ref().expect("preempt-enabled replay reports migration");
        prop_assert!(mig.work_lost_gpu_secs >= 0.0);
        let rec = report.recovery.as_ref().expect("recovery block present");
        prop_assert!(rec.work_lost_gpu_secs >= 0.0);
        prop_assert_eq!(
            run().to_json_string(),
            report.to_json_string(),
            "faults and migration decisions replay deterministically"
        );
    }

    /// Monotone event time: a sorted plan's strikes never step backwards
    /// and every heal lands strictly after its strike, for both the
    /// integer-raw generator and the seeded generator.
    #[cases(64)]
    fn fault_timelines_are_monotone(
        input in tuple3(raw_faults(), u64_in(0..1_000_000), u32_in(500..60_000))
    ) {
        let (rfaults, seed, horizon_ms) = input;
        let horizon = Dur::from_millis(u64::from(horizon_ms));
        for plan in [build_plan(&rfaults), seeded_fault_plan(4, horizon, seed)] {
            plan.validate().expect("generated plans stay in the envelope");
            for pair in plan.events.windows(2) {
                prop_assert!(pair[0].at <= pair[1].at, "strike times sorted");
            }
            for ev in &plan.events {
                prop_assert!(ev.heals_at() > ev.at, "heal strictly after strike");
            }
        }
        // Seeded generation is a pure function of its inputs.
        let again = seeded_fault_plan(4, horizon, seed);
        prop_assert_eq!(&seeded_fault_plan(4, horizon, seed), &again);
    }

    /// Fault plans survive JSON export/import bit-exactly.
    #[cases(64)]
    fn fault_plan_json_round_trips(
        input in tuple3(raw_faults(), u64_in(0..1_000_000), u8_in(0..7))
    ) {
        let (rfaults, seed, n_events) = input;
        for plan in [
            build_plan(&rfaults),
            seeded_fault_plan(usize::from(n_events), Dur::from_secs(50), seed),
        ] {
            let back = FaultPlan::from_json_str(&plan.to_json_string()).expect("parses");
            prop_assert_eq!(&back, &plan);
            prop_assert_eq!(back.to_json_string(), plan.to_json_string());
        }
    }
}
