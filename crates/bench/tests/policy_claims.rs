//! The scheduler's policy claims, checked on the checked-in studies.
//!
//! Each test replays a pinned scenario and asserts the simulated outcome
//! the study exists to show: topology-respecting placement beats FIFO
//! first-fit on mean JCT and on fault recovery, SLO-aware packing holds
//! attainment FIFO gives up, preemption buys the high tier more than it
//! costs the low tier, and the frozen tuned policy beats every preset on
//! a scenario its search never saw. Replays are deterministic, so every
//! bound is a fixed margin against a fixed number, not a timing.

use autotune::objective;
use bench::{replay_fresh, scenario};
use desim::json::{FromJson, Value};
use scheduler::{
    replay, ParamPolicy, PlacePolicy, PolicyParams, ProbeCache, ScheduleReport, Trace, TraceSpec,
    POLICY_NAMES,
};

fn by_policy<'a>(reports: &'a [ScheduleReport], name: &str) -> &'a ScheduleReport {
    reports
        .iter()
        .find(|r| r.policy == name)
        .unwrap_or_else(|| panic!("policy {name} missing from the portfolio"))
}

fn mean_jct_secs(reports: &[ScheduleReport], name: &str) -> f64 {
    by_policy(reports, name).mean_jct.as_secs_f64()
}

/// On the seeded 20-job two-tenant trace, the better of frag-aware and
/// topology-aware beats FIFO first-fit on mean JCT, and first-fit is the
/// only one of the pair that splits jobs across drawers.
#[test]
fn topology_respecting_placement_beats_fifo_on_the_cluster_study() {
    let reports = replay_fresh(&scenario("cluster_policies.json"), parsweep::default_jobs());
    assert_eq!(reports.len(), 4, "the four training policies replayed");
    let fifo = mean_jct_secs(&reports, "fifo-first-fit");
    let smart =
        mean_jct_secs(&reports, "frag-aware").min(mean_jct_secs(&reports, "topology-aware"));
    assert!(
        smart < fifo,
        "topology-respecting placement must beat FIFO first-fit: smart {smart:.2}s vs fifo {fifo:.2}s"
    );
    let share = |name: &str| by_policy(&reports, name).frag_share;
    assert_eq!(
        share("frag-aware"),
        0.0,
        "frag-aware must never split a job"
    );
    assert!(
        share("fifo-first-fit") > 0.0,
        "the seeded trace must fragment under first-fit or the comparison is vacuous"
    );
}

/// Under the pinned 3-event fault plan, the better of frag-aware and
/// topology-aware recovers faster than FIFO first-fit: first-fit's
/// drawer-spanning gangs straddle the struck drawer, so it loses more
/// jobs to the outage and queues longer to re-place them.
#[test]
fn topology_respecting_packing_recovers_faster_from_faults() {
    let reports = replay_fresh(&scenario("faults_policies.json"), parsweep::default_jobs());
    let recovery = |name: &str| {
        by_policy(&reports, name)
            .recovery
            .as_ref()
            .expect("a faulty replay carries recovery metrics")
            .mean_recovery
            .as_secs_f64()
    };
    let fifo = recovery("fifo-first-fit");
    let smart = recovery("frag-aware").min(recovery("topology-aware"));
    assert!(
        smart < fifo,
        "topology-respecting packing must recover faster: smart {smart:.2}s vs fifo {fifo:.2}s"
    );
}

/// At 32 GPUs (two chassis) the cross-chassis stretch makes rack-spanning
/// gangs expensive, so each policy that prices it beats FIFO first-fit on
/// mean JCT.
#[test]
fn policies_that_price_the_rack_tier_beat_fifo_at_32_gpus() {
    let sc = scenario("cluster_scale32.json");
    assert_eq!(
        sc.topology.rack().total_gpus(),
        32,
        "cluster_scale32 is the 32-GPU study"
    );
    let reports = replay_fresh(&sc, parsweep::default_jobs());
    let fifo = mean_jct_secs(&reports, "fifo-first-fit");
    for smart in ["frag-aware", "topology-aware"] {
        let jct = mean_jct_secs(&reports, smart);
        assert!(
            jct < fifo,
            "{smart} must beat fifo-first-fit on mean JCT at 32 GPUs: {jct:.2}s vs {fifo:.2}s"
        );
    }
}

/// On the contended 16-job + 8-service mix, slo-aware-pack holds ≥ 0.95
/// pooled SLO attainment where fifo-first-fit does not, without paying
/// for it in training mean JCT.
#[test]
fn slo_aware_pack_holds_attainment_fifo_gives_up() {
    let reports = replay_fresh(&scenario("serve_policies.json"), parsweep::default_jobs());
    let pack = by_policy(&reports, "slo-aware-pack");
    let fifo = by_policy(&reports, "fifo-first-fit");
    let attainment = |r: &ScheduleReport| r.serve.as_ref().expect("serve block").attainment;
    assert!(
        attainment(pack) >= 0.95,
        "slo-aware-pack attainment {:.4} < 0.95",
        attainment(pack)
    );
    assert!(
        attainment(fifo) < 0.95,
        "fifo-first-fit attainment {:.4} should violate SLOs on the contended mix",
        attainment(fifo)
    );
    assert!(
        pack.mean_jct <= fifo.mean_jct,
        "slo-aware-pack mean JCT {:?} must not exceed fifo's {:?}",
        pack.mean_jct,
        fifo.mean_jct
    );
}

/// Mean JCT over the jobs the *real* trace puts at `tier`, selected by
/// job id so a tier-flattened replay groups identically.
fn tier_mean_jct_secs(r: &ScheduleReport, trace: &Trace, tier: u8) -> f64 {
    let jcts: Vec<f64> = r
        .jobs
        .iter()
        .filter(|o| {
            trace
                .jobs
                .iter()
                .any(|j| j.id == o.id && j.priority == tier)
        })
        .map(|o| o.jct().as_secs_f64())
        .collect();
    assert!(
        !jcts.is_empty(),
        "the seeded mix must draw tier-{tier} jobs"
    );
    jcts.iter().sum::<f64>() / jcts.len() as f64
}

/// The preemption study against its no-priority baseline: the same jobs
/// with every tier flattened to low and preemption and defrag off, i.e.
/// plain arrival-order scheduling. Preemption must cut high-tier mean JCT
/// by ≥ 20% while inflating low-tier mean JCT by ≤ 1.5×.
#[test]
fn preemption_buys_the_high_tier_more_than_it_costs_the_low_tier() {
    let sc = scenario("cluster_priority.json");
    assert!(
        sc.config.preempt,
        "cluster_priority is the preemption study"
    );
    let (mix, plan) = sc.materialize();
    assert!(plan.is_empty(), "cluster_priority is fault-free");
    let trace = mix.training();
    let mut flat = sc.clone();
    let jobs = trace.jobs.iter().cloned().map(|mut j| {
        j.priority = 1;
        j
    });
    flat.trace = TraceSpec::Jobs {
        name: trace.name.clone(),
        jobs: jobs.collect(),
    };
    flat.config.preempt = false;
    flat.config.defrag = false;

    let tiered = replay_fresh(&sc, 1).remove(0);
    let base = replay_fresh(&flat, 1).remove(0);
    assert!(
        base.migration.is_none(),
        "the knob-free baseline must not report migration metrics"
    );
    let mig = tiered
        .migration
        .as_ref()
        .expect("the priority leg reports migration metrics");
    assert!(
        mig.preemptions > 0,
        "the pinned study must actually preempt"
    );

    let (base_high, high) = (
        tier_mean_jct_secs(&base, &trace, 2),
        tier_mean_jct_secs(&tiered, &trace, 2),
    );
    let (base_low, low) = (
        tier_mean_jct_secs(&base, &trace, 1),
        tier_mean_jct_secs(&tiered, &trace, 1),
    );
    let gain = 1.0 - high / base_high;
    let inflation = low / base_low;
    assert!(
        gain >= 0.20,
        "high-tier mean JCT improved only {:.1}% < 20% (baseline {base_high:.1}s, tiered {high:.1}s)",
        gain * 100.0
    );
    assert!(
        inflation <= 1.5,
        "low-tier mean JCT inflated {inflation:.2}x > 1.5x (baseline {base_low:.1}s, tiered {low:.1}s)"
    );
}

/// The frozen tuned params strictly beat all five presets on the held-out
/// `pai_magnitude` objective (10k jobs + 60 services on 128 GPUs). The
/// search never saw this trace: its portfolio holds a 2k-job cut.
#[test]
fn tuned_policy_beats_every_preset_on_held_out_pai_magnitude() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/tuned_default.json");
    let art = Value::parse(&std::fs::read_to_string(golden).expect("tuned_default.json is frozen"))
        .expect("the frozen artifact parses");
    let tuned = PolicyParams::from_json(art.get("params").expect("the artifact has params"))
        .expect("the frozen params parse");

    // The five presets, fifo-first-fit first, then the tuned params: six
    // replays of one admitted workload in one fan-out.
    let sc = scenario("pai_magnitude.json");
    let workload = sc.validate().expect("pai_magnitude validates");
    let params = POLICY_NAMES.map(|name| PolicyParams::preset(name).expect("preset exists"));
    let runs = params
        .iter()
        .chain([&tuned])
        .map(|&p| {
            let policy = ParamPolicy::new(p).expect("params validate");
            (&workload, Box::new(policy) as Box<dyn PlacePolicy>)
        })
        .collect();
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    let reports = replay(runs, parsweep::default_jobs(), &mut cache).expect("pai_magnitude drains");
    // Objectives normalized by FIFO's mean JCT exactly as the search
    // oracle does.
    assert_eq!(POLICY_NAMES[0], "fifo-first-fit");
    let base_jct = reports[0].mean_jct;
    let tuned = objective(&reports[POLICY_NAMES.len()], base_jct);
    for (name, report) in POLICY_NAMES.iter().zip(&reports) {
        let preset = objective(report, base_jct);
        assert!(
            tuned < preset,
            "the tuned policy must strictly beat {name} on held-out pai_magnitude: \
             tuned {tuned:.6} vs {preset:.6}"
        );
    }
}
