//! Property tests for the declarative scenario harness (testkit):
//!
//! * any *valid* random scenario — every trace kind, fault source,
//!   service set, policy subset, config corner — survives JSON
//!   export/import bit-exactly (struct equality AND byte-identical
//!   re-emission) and passes `validate()`;
//! * every malformed mutation of a valid scenario — duplicate job or
//!   service ids, out-of-range MIG slices, fault events beyond the trace
//!   horizon, unknown/duplicate/empty policy lists, unsupported
//!   topologies — is rejected by `validate()` with the matching *typed*
//!   [`ScenarioError`], never a panic or a silently-accepted spec, and an
//!   unknown `config` key is a parse error naming scenario and key.
//!
//! Scenarios are assembled from plain-integer raw material (the
//! `fault_props.rs` idiom) so testkit shrinking stays simple, and fault
//! times are derived from the materialized horizon so the valid cases
//! are valid *by construction*.

use desim::{Dur, SimTime};
use dlmodels::Benchmark;
use scheduler::serve::{ArrivalKind, ServiceSpec};
use scheduler::trace::{JobSpec, TenantId};
use scheduler::{
    seeded_fault_plan, FaultEvent, FaultKind, FaultSpec, MetricLevel, Scenario, ScenarioError,
    SchedulerConfig, Topology, TraceSpec,
};
use testkit::{
    bools, prop_assert, prop_assert_eq, property, tuple3, tuple5, u32_in, u64_in, u8_in, vec_of,
    Gen,
};

const POLICY_NAMES: [&str; 5] =
    ["fifo-first-fit", "best-fit", "frag-aware", "topology-aware", "slo-aware-pack"];

/// Raw material for inline jobs: (tenant, benchmark, demand-index,
/// arrival ms, iters). Ids are assigned by position, so they are unique
/// by construction.
fn raw_jobs() -> Gen<Vec<(u8, u8, u8, u32, u8)>> {
    vec_of(
        tuple5(u8_in(0..2), u8_in(0..5), u8_in(0..4), u32_in(0..30_000), u8_in(4..24)),
        1..8,
    )
}

/// Raw material for explicit services: (tenant, benchmark, slice-index,
/// start ms, duration s). Slice indices map into the valid {1, 2, 4, 7}.
fn raw_services() -> Gen<Vec<(u8, u8, u8, u32, u8)>> {
    vec_of(
        tuple5(u8_in(0..2), u8_in(0..5), u8_in(0..4), u32_in(0..20_000), u8_in(2..12)),
        0..4,
    )
}

/// (quota, elastic, probe_iters, interference-in-hundredths, summary?).
fn raw_config() -> Gen<(u8, bool, u8, u8, bool)> {
    tuple5(u8_in(1..17), bools(), u8_in(1..5), u8_in(0..100), bools())
}

fn build_jobs(raw: &[(u8, u8, u8, u32, u8)]) -> Vec<JobSpec> {
    raw.iter()
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
        .collect()
}

/// Explicit services get ids from 1000 up so they can never collide with
/// trace-provided services (PAI-mix numbers its own from 0).
fn build_services(raw: &[(u8, u8, u8, u32, u8)]) -> Vec<ServiceSpec> {
    raw.iter()
        .enumerate()
        .map(|(i, &(tenant, bench, slice_idx, start_ms, dur_s))| ServiceSpec {
            id: 1000 + i as u64,
            tenant: TenantId(u32::from(tenant)),
            benchmark: Benchmark::all()[usize::from(bench)],
            slice: [1u8, 2, 4, 7][usize::from(slice_idx)],
            slo: Dur::from_millis(120),
            rate_rps: 2.0 + f64::from(tenant),
            arrivals: if dur_s % 2 == 0 { ArrivalKind::Poisson } else { ArrivalKind::Diurnal },
            start: SimTime::from_millis(u64::from(start_ms)),
            duration: Dur::from_secs(u64::from(dur_s)),
            max_batch: 8,
            max_wait: Dur::from_millis(40),
            min_replicas: 1,
            max_replicas: 2,
        })
        .collect()
}

/// The policy subset a 5-bit mask selects (nonzero masks only), in
/// canonical order — unique by construction.
fn policies_from_mask(mask: u8) -> Vec<String> {
    POLICY_NAMES
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, p)| p.to_string())
        .collect()
}

/// Assemble a valid scenario from raw parts. `fault_mode` 0 is
/// fault-free, 1 derives an inline plan from the materialized horizon
/// (events at fractions of it, so they always pass the horizon check),
/// 2 uses the seeded generator bounded by the same horizon.
fn build_scenario(
    kind: u8,
    seed: u64,
    cfg: (u8, bool, u8, u8, bool),
    mask: u8,
    jobs_raw: &[(u8, u8, u8, u32, u8)],
    services_raw: &[(u8, u8, u8, u32, u8)],
    fault_mode: u8,
) -> Scenario {
    let (quota, elastic, probe_iters, interference, summary) = cfg;
    let trace = match kind {
        0 => TraceSpec::Jobs { name: format!("inline-{seed:#x}"), jobs: build_jobs(jobs_raw) },
        1 => TraceSpec::Poisson {
            seed,
            n_jobs: 1 + (seed % 10) as usize,
            tenants: 1 + (seed % 2) as u32,
            mean_interarrival: Dur::from_millis(500 + seed % 2000),
            name: if seed % 2 == 0 { Some(format!("named-{seed:#x}")) } else { None },
        },
        _ => TraceSpec::PaiMix {
            n_jobs: 1 + (seed % 6) as usize,
            n_services: (seed % 4) as usize,
            seed,
        },
    };
    let mut sc = Scenario::new(format!("prop-{seed:#x}"), trace, policies_from_mask(mask));
    sc.services = build_services(services_raw);
    sc.config = SchedulerConfig {
        quota_gpus_per_tenant: usize::from(quota),
        elastic,
        probe_iters: u64::from(probe_iters),
        interference: f64::from(interference) / 100.0,
        // The priority/migration knobs ride the seed so the round-trip
        // property covers every emit-only-when-set combination.
        preempt: seed & 1 != 0,
        defrag: seed & 2 != 0,
        relocate_slo: seed & 4 != 0,
        ..SchedulerConfig::default()
    };
    sc.metrics = if summary { MetricLevel::Summary } else { MetricLevel::Full };
    let (mixed, _) = sc.materialize();
    let horizon = Scenario::horizon(&mixed);
    sc.faults = match fault_mode {
        0 => FaultSpec::None,
        1 => FaultSpec::Inline(
            scheduler::FaultPlan {
                name: "prop-inline".into(),
                events: (0..1 + seed % 3)
                    .map(|k| FaultEvent {
                        at: SimTime::from_nanos(horizon.as_nanos() * k / 4),
                        chassis: 0,
                        kind: if k % 2 == 0 {
                            FaultKind::SlotDeath { drawer: (k % 2) as u8, slot: (seed % 8) as u8 }
                        } else {
                            FaultKind::LinkDegrade { drawer: 0, pct: 50 }
                        },
                        duration: Dur::from_millis(500 + seed % 5000),
                    })
                    .collect(),
            }
            .sorted(),
        ),
        _ => FaultSpec::Seeded {
            n_events: 1 + (seed % 3) as usize,
            horizon: Dur::from_nanos(horizon.as_nanos()),
            seed,
        },
    };
    sc
}

property! {
    /// Any valid random scenario round-trips through JSON bit-exactly:
    /// parse(emit) equals the original struct, re-emission is
    /// byte-identical, and the round-tripped spec still validates.
    #[cases(64)]
    fn valid_scenarios_round_trip_byte_identically(
        shape in tuple3(u8_in(0..3), u64_in(0..1_000_000), u8_in(0..3)),
        cfg in raw_config(),
        mask in u8_in(1..32),
        jobs_raw in raw_jobs(),
        services_raw in raw_services()
    ) {
        let (kind, seed, fault_mode) = shape;
        let mut sc = build_scenario(kind, seed, cfg, mask, &jobs_raw, &services_raw, fault_mode);
        // Sweep the whole runnable envelope: every chassis count 1..=8 is
        // a valid, serializable topology (seeded fault specs switch to the
        // chassis-routed rack generator above one chassis).
        sc.topology = Topology::with_chassis(1 + (seed % 8) as u8);
        sc.validate().expect("constructed scenarios are valid");

        let text = sc.to_json_string();
        let back = Scenario::from_json_str(&text).expect("canonical emission parses");
        prop_assert_eq!(&back, &sc, "struct round-trip");
        prop_assert_eq!(back.to_json_string(), text, "byte round-trip");
        prop_assert!(back.validate().is_ok(), "round-tripped spec still validates");
    }

    /// The seeded parts of a scenario materialize deterministically: the
    /// same spec always expands to the same workload and fault plan.
    #[cases(64)]
    fn materialization_is_pure(
        shape in tuple3(u8_in(0..3), u64_in(0..1_000_000), u8_in(0..3)),
        cfg in raw_config(),
        mask in u8_in(1..32),
        jobs_raw in raw_jobs(),
        services_raw in raw_services()
    ) {
        let (kind, seed, fault_mode) = shape;
        let sc = build_scenario(kind, seed, cfg, mask, &jobs_raw, &services_raw, fault_mode);
        let (mixed_a, plan_a) = sc.materialize();
        let (mixed_b, plan_b) = sc.materialize();
        prop_assert_eq!(&mixed_a, &mixed_b);
        prop_assert_eq!(&plan_a, &plan_b);
        // Everything the spec promises shows up: explicit services are
        // appended to whatever the trace kind provides.
        prop_assert!(mixed_a.services.len() >= services_raw.len());
        prop_assert!(plan_a.validate().is_ok());
    }

    /// Every malformed mutation of a valid scenario is rejected with the
    /// matching typed error — duplicate ids, bad slices, fault events
    /// beyond the horizon, policy-list abuse, unsupported topology.
    #[cases(64)]
    fn validate_rejects_each_malformation(
        mutation in u8_in(0..9),
        seed in u64_in(0..1_000_000),
        cfg in raw_config(),
        jobs_raw in raw_jobs(),
        services_raw in raw_services()
    ) {
        // Base: inline jobs + at least one explicit service, all five
        // policies — so every mutation below has something to corrupt.
        let mut sc = build_scenario(0, seed, cfg, 0b11111, &jobs_raw, &services_raw, 0);
        if sc.services.is_empty() {
            sc.services = build_services(&[(0, 0, 0, 100, 4)]);
        }
        sc.validate().expect("base scenario is valid");

        match mutation {
            0 => {
                let TraceSpec::Jobs { jobs, .. } = &mut sc.trace else { unreachable!() };
                let dup = jobs[0].clone();
                jobs.push(dup);
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::DuplicateJobId { id: 0, .. })),
                    "duplicate job id -> DuplicateJobId, got {:?}", sc.validate()
                );
            }
            1 => {
                let dup = sc.services[0].clone();
                sc.services.push(dup);
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::DuplicateServiceId { .. })),
                    "duplicate service id -> DuplicateServiceId, got {:?}", sc.validate()
                );
            }
            2 => {
                sc.services[0].slice = [0u8, 3, 5, 6, 8, 9][(seed % 6) as usize];
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::BadSlice { .. })),
                    "slice outside {{1,2,4,7}} -> BadSlice, got {:?}", sc.validate()
                );
            }
            3 => {
                let (mixed, _) = sc.materialize();
                let horizon = Scenario::horizon(&mixed);
                sc.faults = FaultSpec::Inline(scheduler::FaultPlan {
                    name: "late".into(),
                    events: vec![FaultEvent {
                        at: horizon + Dur::from_nanos(1 + seed % 1_000_000),
                        chassis: 0,
                        kind: FaultKind::DrawerOutage { drawer: 0 },
                        duration: Dur::from_secs(1),
                    }],
                });
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::FaultBeyondHorizon { event: 0, .. })),
                    "fault after the last arrival -> FaultBeyondHorizon, got {:?}", sc.validate()
                );
            }
            4 => {
                sc.policies.push("round-robin".into());
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::UnknownPolicy { .. })),
                    "unknown policy -> UnknownPolicy, got {:?}", sc.validate()
                );
            }
            5 => {
                let dup = sc.policies[(seed % 5) as usize].clone();
                sc.policies.push(dup);
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::DuplicatePolicy { .. })),
                    "duplicate policy -> DuplicatePolicy, got {:?}", sc.validate()
                );
            }
            6 => {
                // Everything in 1..=8 chassis is runnable now; zero and
                // over-tall racks are the out-of-envelope shapes.
                sc.topology.chassis = if seed % 2 == 0 { 0 } else { 9 + (seed % 8) as u8 };
                prop_assert!(
                    matches!(sc.validate(), Err(ScenarioError::UnsupportedTopology(_))),
                    "out-of-envelope topology -> UnsupportedTopology, got {:?}", sc.validate()
                );
            }
            7 => {
                // A misspelled or unknown config knob is a parse error
                // naming the scenario and the key, never a silent default.
                let key = ["preemt", "audit_evry", "quota"][(seed % 3) as usize];
                let text = sc.to_json_string().replacen(
                    "\"config\": {",
                    &format!("\"config\": {{\n    \"{key}\": true,"),
                    1,
                );
                let err = Scenario::from_json_str(&text).expect_err("unknown config key rejected");
                let msg = err.to_string();
                prop_assert!(
                    msg.contains(&sc.name) && msg.contains(key) && msg.contains("relocate_slo"),
                    "error names the scenario, the key, and the valid keys: {msg}"
                );
            }
            _ => {
                // Priority tiers live in 1..=3; zero and anything above
                // urgent is rejected naming the scenario and the job.
                let bad = if seed % 2 == 0 { 0u8 } else { 4 + (seed % 200) as u8 };
                let TraceSpec::Jobs { jobs, .. } = &mut sc.trace else { unreachable!() };
                jobs[0].priority = bad;
                prop_assert!(
                    matches!(
                        sc.validate(),
                        Err(ScenarioError::BadPriority { job: 0, priority, .. }) if priority == bad
                    ),
                    "tier outside 1..=3 -> BadPriority, got {:?}", sc.validate()
                );
            }
        }
    }

    /// Priority tiers at the scenario schema level: named tiers parse to
    /// their numeric values and re-emit canonically; an unknown tier
    /// label is rejected at parse time with an error naming the bogus
    /// tier; legacy scenarios — no `priority` fields, no
    /// preempt/defrag/relocate knobs — parse to the low tier with every
    /// knob off, and the knob-free canonical emission never mentions the
    /// priority machinery (the bytes predate it).
    #[cases(64)]
    fn priority_schema_accepts_tiers_and_rejects_strangers(
        seed in u64_in(0..1_000_000),
        jobs_raw in raw_jobs()
    ) {
        let mut sc = Scenario::new(
            format!("tiers-{seed:#x}"),
            TraceSpec::Jobs { name: "t".into(), jobs: build_jobs(&jobs_raw) },
            vec!["fifo-first-fit".into()],
        );
        sc.config.preempt = true;
        sc.validate().expect("base scenario is valid");
        let text = sc.to_json_string();
        prop_assert!(text.contains("\"preempt\": true"), "set knobs are emitted");

        // Named tiers are sugar for their numeric values.
        let named = text
            .replace("\"priority\": 1", "\"priority\": \"low\"")
            .replace("\"priority\": 2", "\"priority\": \"high\"");
        let back = Scenario::from_json_str(&named).expect("named tiers parse");
        prop_assert_eq!(&back, &sc, "labels decode to the same numeric tiers");

        // An unknown label is a parse error that names the bogus tier.
        // (Every generated job is tier 1 or 2, so one of these rewrites
        // the first priority field.)
        let bogus = match text.replacen("\"priority\": 1", "\"priority\": \"platinum\"", 1) {
            same if same == text => text.replacen("\"priority\": 2", "\"priority\": \"platinum\"", 1),
            changed => changed,
        };
        let err = Scenario::from_json_str(&bogus).expect_err("unknown tier rejected");
        prop_assert!(
            err.to_string().contains("platinum"),
            "the error names the unknown tier: {err}"
        );

        // Legacy spelling: no priority fields, no knobs. Parses to the
        // defaults (tier 1, knobs off) and its canonical emission stays
        // free of the priority vocabulary. (Knobs are dropped by
        // emitting a knob-free clone; priority lines sit mid-object, so
        // filtering them keeps the JSON well-formed.)
        let mut plain = sc.clone();
        plain.config.preempt = false;
        let legacy: String = plain
            .to_json_string()
            .lines()
            .filter(|l| !l.contains("\"priority\""))
            .collect::<Vec<_>>()
            .join("\n");
        let old = Scenario::from_json_str(&legacy).expect("legacy scenarios parse");
        let TraceSpec::Jobs { jobs, .. } = &old.trace else { unreachable!() };
        prop_assert!(jobs.iter().all(|j| j.priority == 1), "legacy jobs land on the low tier");
        prop_assert!(!old.config.preempt && !old.config.defrag && !old.config.relocate_slo);
        let re = old.to_json_string();
        for knob in ["\"preempt\"", "\"defrag\"", "\"relocate_slo\""] {
            prop_assert!(!re.contains(knob), "default knobs stay un-emitted: {knob}");
        }
    }

    /// Seeded fault specs validate iff their horizon parameter keeps the
    /// drawn strike times inside the trace horizon (the generator draws
    /// uniformly in [0, horizon], so a plan bounded by the trace horizon
    /// always passes and one stretched far beyond it eventually fails).
    #[cases(64)]
    fn seeded_fault_horizon_is_checked_against_the_trace(
        seed in u64_in(0..1_000_000),
        jobs_raw in raw_jobs()
    ) {
        let mut sc = Scenario::new(
            "horizon-check",
            TraceSpec::Jobs { name: "h".into(), jobs: build_jobs(&jobs_raw) },
            vec!["fifo-first-fit".into()],
        );
        let (mixed, _) = sc.materialize();
        let horizon = Scenario::horizon(&mixed);

        sc.faults = FaultSpec::Seeded {
            n_events: 3,
            horizon: Dur::from_nanos(horizon.as_nanos()),
            seed,
        };
        prop_assert!(sc.validate().is_ok(), "in-horizon seeded plan accepted");

        // A plan drawn over a horizon far past the trace must place at
        // least one of its three events beyond it — unless every draw
        // lands inside, which the explicit check below distinguishes.
        let stretched = Dur::from_nanos(horizon.as_nanos().max(1) * 1000);
        let plan = seeded_fault_plan(3, stretched, seed);
        sc.faults = FaultSpec::Seeded { n_events: 3, horizon: stretched, seed };
        let any_late = plan.events.iter().any(|e| e.at > horizon);
        if any_late {
            prop_assert!(
                matches!(sc.validate(), Err(ScenarioError::FaultBeyondHorizon { .. })),
                "late seeded event -> FaultBeyondHorizon, got {:?}", sc.validate()
            );
        } else {
            prop_assert!(sc.validate().is_ok());
        }
    }
}
