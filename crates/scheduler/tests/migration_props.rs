//! Differential property suite for checkpoint preemption and live
//! migration (testkit):
//!
//! * **preempt ≡ evacuate** — preempting a job at instant `t` loses
//!   exactly the work a fault evacuation of the same slots at the same
//!   `t` loses: the same checkpoint rollback arithmetic runs in both
//!   paths, so the `migration` and `recovery` work-loss ledgers agree to
//!   the bit;
//! * **no stranded gangs** — random tiered traces under preemption (and
//!   random defragmentation) always drain with every job terminating
//!   once and a coherent lifecycle, on one chassis and on a rack
//!   (conservation is asserted inside the loop at every event, and the
//!   loop itself asserts every preempted job resumes);
//! * **priority is monotone** — raising one job's tier on a fixed seed
//!   never worsens that job's JCT;
//! * **cross-chassis costs more** — the rack-tier stretch is exactly 1.0
//!   for single-chassis placements and strictly above it (monotone in
//!   parts, anti-monotone in link health) for spanning ones, and an
//!   end-to-end replay of the same gang placed across chassis runs
//!   strictly longer than packed inside one.

use std::sync::Mutex;

use desim::{Dur, SimTime};
use dlmodels::Benchmark;
use scheduler::cluster::{ClusterSim, SchedulerConfig};
use scheduler::policy::{all_policies, resolve_policy};
use scheduler::trace::{JobSpec, TenantId, Trace};
use scheduler::{
    cross_chassis_stretch, FaultEvent, FaultKind, FaultPlan, ProbeCache, RackTopology,
};
use testkit::{
    prop_assert, prop_assert_eq, property, tuple2, tuple3, tuple4, tuple5, u32_in, u8_in, usize_in,
    vec_of,
};

fn job(id: u64, tenant: u32, bench: Benchmark, gpus: u8, priority: u8, at: SimTime, iters: u64) -> JobSpec {
    JobSpec {
        id,
        tenant: TenantId(tenant),
        benchmark: bench,
        gpus,
        min_gpus: gpus,
        priority,
        arrival: at,
        iters,
    }
}

/// One probe cache for the whole suite; split into each case, absorbed
/// back after, so replays price each (benchmark, shape) at most once.
fn shared_cache() -> &'static Mutex<ProbeCache> {
    static CELL: std::sync::OnceLock<Mutex<ProbeCache>> = std::sync::OnceLock::new();
    CELL.get_or_init(|| Mutex::new(ProbeCache::new(SchedulerConfig::default().probe_iters)))
}

fn replay(topo: RackTopology, trace: Trace, policy: &str, cfg: SchedulerConfig, plan: FaultPlan) -> scheduler::ScheduleReport {
    let probes = shared_cache().lock().unwrap().split();
    let sim = ClusterSim::with_probe_cache_on(
        topo,
        trace,
        resolve_policy(policy).expect("registered policy"),
        cfg,
        probes,
    )
    .expect("valid trace");
    let sim = if plan.is_empty() { sim } else { sim.with_faults(plan).expect("valid plan") };
    let (report, cache) = sim.run_report().expect("replay drains");
    shared_cache().lock().unwrap().absorb(cache);
    report
}

property! {
    /// Differential: preempting the drawer-1 gang at instant `t` (via a
    /// high-tier arrival) rolls back exactly the work a drawer-1 outage
    /// at the same `t` rolls back. Both runs share the byte-identical
    /// prefix — an urgent-tier holder on drawer 0 (too high to ever be a
    /// victim, too long to finish) plus a low-tier gang on drawer 1 — so
    /// the victim's placement, base iteration rate, and progress at `t`
    /// agree, and the `migration` / `recovery` work-loss ledgers must
    /// match to the bit (as must the preemption/evacuation counts).
    #[cases(64)]
    fn preemption_loses_exactly_what_evacuation_loses(
        input in tuple5(u8_in(8..255), u32_in(1_000..8_000), u8_in(8..33), u8_in(0..5), u8_in(0..5))
    ) {
        let (iters_v, t_ms, iters_h, bench_v, bench_h) = input;
        let t = SimTime::from_millis(u64::from(t_ms));
        let cfg = SchedulerConfig {
            quota_gpus_per_tenant: 16,
            elastic: false,
            preempt: true,
            ..SchedulerConfig::default()
        };
        // Tier-ordered first-fit puts the urgent holder (job 0) on drawer
        // 0 and the low-tier victim-to-be (job 1) on drawer 1. The holder
        // is effectively infinite, so drawer 0 never frees mid-case and
        // the only way the preemptor gets slots is through job 1.
        let base = vec![
            job(0, 0, Benchmark::ResNet50, 8, 3, SimTime::ZERO, 10_000),
            job(1, 1, Benchmark::all()[usize::from(bench_v)], 8, 1, SimTime::ZERO, u64::from(iters_v)),
        ];

        // Leg P: a high-tier 8-gang arrives at t. Job 0 (tier 3) is not
        // strictly lower than tier 2, so job 1 is the only legal victim.
        let mut with_high = base.clone();
        with_high.push(job(2, 0, Benchmark::all()[usize::from(bench_h)], 8, 2, t, u64::from(iters_h)));
        let p = replay(
            RackTopology::SINGLE,
            Trace { name: "preempt-leg".into(), jobs: with_high }.sorted(),
            "fifo-first-fit",
            cfg.clone(),
            FaultPlan::none(),
        );

        // Leg F: no preemptor; instead the victim's drawer dies at the
        // same t.
        let outage = FaultPlan {
            name: "outage-at-t".into(),
            events: vec![FaultEvent {
                at: t,
                chassis: 0,
                kind: FaultKind::DrawerOutage { drawer: 1 },
                duration: Dur::from_secs(2),
            }],
        };
        let f = replay(
            RackTopology::SINGLE,
            Trace { name: "evacuate-leg".into(), jobs: base }.sorted(),
            "fifo-first-fit",
            cfg,
            outage,
        );

        prop_assert_eq!(p.jobs.len(), 3, "preempt leg drains every job");
        prop_assert_eq!(f.jobs.len(), 2, "evacuate leg drains every job");
        let mig = p.migration.as_ref().expect("preempt-enabled replay reports migration");
        let rec = f.recovery.as_ref().expect("faulty replay reports recovery");
        // If job 1 outlived t it was preempted in P and evacuated in F;
        // if it finished first, both legs saw nothing to roll back.
        prop_assert_eq!(mig.preemptions, rec.evacuations, "same victim count at the same instant");
        prop_assert_eq!(
            mig.work_lost_gpu_secs,
            rec.work_lost_gpu_secs,
            "preemption and evacuation share the checkpoint rollback arithmetic"
        );
        prop_assert!(mig.work_lost_gpu_secs >= 0.0);
    }

    /// Preemption never strands a gang: random tiered traces with
    /// preemption on (and defragmentation on half the cases) drain on a
    /// random topology under a random policy — every job terminates
    /// exactly once with a coherent lifecycle, and the report carries
    /// the migration ledger. The event loop itself asserts that every
    /// preempted job resumed before the replay may end.
    #[cases(64)]
    fn tiered_chaos_never_strands_a_gang(
        input in tuple5(
            vec_of(tuple5(u8_in(0..2), u8_in(0..5), u8_in(0..4), u32_in(0..30_000), u8_in(4..24)), 1..9),
            vec_of(u8_in(1..4), 8..9),
            u8_in(0..4),
            u8_in(1..3),
            u8_in(0..2),
        )
    ) {
        let (rjobs, tiers, pol, chassis, defrag) = input;
        let jobs = rjobs
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
                    priority: tiers[id % tiers.len()],
                    arrival: SimTime::from_millis(u64::from(arrival_ms)),
                    iters: u64::from(iters),
                }
            })
            .collect::<Vec<_>>();
        let n = jobs.len();
        let cfg = SchedulerConfig {
            preempt: true,
            defrag: defrag == 1,
            ..SchedulerConfig::default()
        };
        let probes = shared_cache().lock().unwrap().split();
        let sim = ClusterSim::with_probe_cache_on(
            RackTopology::with_chassis(chassis),
            Trace { name: "tiered-chaos".into(), jobs }.sorted(),
            all_policies().remove(usize::from(pol)),
            cfg,
            probes,
        )
        .expect("valid trace");
        let (report, cache) = sim.run_report().expect("tiered replay drains");
        shared_cache().lock().unwrap().absorb(cache);

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
        prop_assert!(mig.preemptions == 0 || mig.work_lost_gpu_secs >= 0.0);
    }

    /// Priority is monotone: on a fixed seed of single-GPU jobs (uniform
    /// placement shape, interference off, so queue position and
    /// preemption are the *only* levers a tier moves), raising one job
    /// from the low tier to urgent never worsens that job's JCT.
    #[cases(64)]
    fn raising_a_tier_never_worsens_that_jobs_jct(
        input in tuple2(
            vec_of(tuple3(u32_in(0..20_000), u8_in(4..40), u8_in(0..5)), 3..10),
            usize_in(0..24),
        )
    ) {
        let (rjobs, pick) = input;
        let build = |raised: Option<usize>| {
            let jobs = rjobs
                .iter()
                .enumerate()
                .map(|(id, &(arrival_ms, iters, bench))| {
                    let priority = if raised == Some(id) { 3 } else { 1 };
                    job(
                        id as u64,
                        id as u32 % 2,
                        Benchmark::all()[usize::from(bench)],
                        1,
                        priority,
                        SimTime::from_millis(u64::from(arrival_ms)),
                        u64::from(iters),
                    )
                })
                .collect::<Vec<_>>();
            Trace { name: "monotone".into(), jobs }.sorted()
        };
        let cfg = SchedulerConfig {
            preempt: true,
            interference: 0.0,
            ..SchedulerConfig::default()
        };
        let target = pick % rjobs.len();
        let baseline = replay(
            RackTopology::SINGLE,
            build(None),
            "fifo-first-fit",
            cfg.clone(),
            FaultPlan::none(),
        );
        let raised = replay(
            RackTopology::SINGLE,
            build(Some(target)),
            "fifo-first-fit",
            cfg,
            FaultPlan::none(),
        );
        let jct = |r: &scheduler::ScheduleReport| {
            r.jobs.iter().find(|o| o.id == target as u64).expect("target terminates").jct()
        };
        prop_assert!(
            jct(&raised) <= jct(&baseline),
            "raising a job's tier must not worsen its own JCT"
        );
    }

    /// The rack-tier stretch is exactly 1.0 inside one chassis, strictly
    /// above 1.0 across chassis, monotone in the number of per-chassis
    /// parts, and anti-monotone in rack link health.
    #[cases(64)]
    fn cross_chassis_migration_pays_strictly_more_stretch(
        input in tuple4(usize_in(2..9), u8_in(1..101), u8_in(1..101), u8_in(1..101))
    ) {
        let (parts, h1, h2, h_single) = input;
        prop_assert_eq!(
            cross_chassis_stretch(1, h_single),
            1.0,
            "a single-chassis placement never crosses the rack switch"
        );
        prop_assert!(
            cross_chassis_stretch(parts, h1) > 1.0,
            "spanning chassis pays strictly more than staying inside one"
        );
        prop_assert!(
            cross_chassis_stretch(parts, h1) < cross_chassis_stretch(parts + 1, h1),
            "each extra chassis part costs strictly more"
        );
        let (lo, hi) = (h1.min(h2), h1.max(h2));
        prop_assert!(
            cross_chassis_stretch(parts, hi) <= cross_chassis_stretch(parts, lo),
            "healthier rack links never cost more"
        );
    }
}

/// End-to-end differential for the stretch. The engine prices a
/// multi-chassis gang as its *slowest per-chassis part* times the
/// rack-tier stretch, so the honest comparison holds the worst part
/// shape fixed: a 4-GPU single-drawer run of a benchmark vs an 8-GPU
/// gang of the same benchmark split 4+4 over the rack switch (each part
/// a 4-GPU single-drawer shape). Same per-part price, same iteration
/// count — the stretch is the only difference, and the spanning gang
/// must finish strictly later.
#[test]
fn spanning_two_chassis_runs_strictly_longer_than_one() {
    let cfg = SchedulerConfig {
        quota_gpus_per_tenant: 32,
        elastic: false,
        interference: 0.0,
        ..SchedulerConfig::default()
    };
    let big = 400u64;
    // Within one chassis: a lone 4-GPU run — the same worst part shape
    // the cross leg's gang prices from, with stretch exactly 1.0.
    let intra = vec![job(0, 0, Benchmark::BertLarge, 4, 1, SimTime::ZERO, big)];
    // Across chassis: fillers occupy 12 of chassis 0's 16 slots, so
    // first-fit splits the 8-gang 4+4 over the rack switch (chassis 0
    // drawer 1 tail + chassis 1 drawer 0 head).
    let cross = vec![
        job(0, 0, Benchmark::MobileNetV2, 8, 1, SimTime::ZERO, 4),
        job(1, 0, Benchmark::MobileNetV2, 4, 1, SimTime::ZERO, 4),
        job(2, 1, Benchmark::BertLarge, 8, 1, SimTime::ZERO, big),
    ];
    let topo = RackTopology::with_chassis(2);
    let run = |jobs: Vec<JobSpec>, id: u64, want_spanned: bool| {
        let report = replay(
            topo,
            Trace { name: "stretch".into(), jobs }.sorted(),
            "fifo-first-fit",
            cfg.clone(),
            FaultPlan::none(),
        );
        let o = report.jobs.iter().find(|o| o.id == id).expect("gang terminates").clone();
        assert_eq!(o.spanned, want_spanned, "placement shape is the premise of the comparison");
        o.finish.since(o.start)
    };
    let intra_dur = run(intra, 0, false);
    let cross_dur = run(cross, 2, true);
    assert!(
        cross_dur > intra_dur,
        "crossing the rack tier must cost strictly more: intra {:?} vs cross {:?}",
        intra_dur,
        cross_dur
    );
}
