//! Property tests for the declarative scenario harness (testkit):
//!
//! * any *valid* random scenario — every trace kind, fault source,
//!   service set, policy subset, config corner — survives JSON
//!   export/import bit-exactly (struct equality AND byte-identical
//!   re-emission) and passes `validate()`;
//! * every malformed mutation of a valid scenario — duplicate job or
//!   service ids, out-of-range MIG slices, fault events beyond the trace
//!   horizon, unknown/duplicate/empty policy lists, unsupported
//!   topologies, oversized generators — is rejected by `validate()` with
//!   the matching *typed* [`ScenarioError`], never a panic or a
//!   silently-accepted spec, and an unknown or repeated key at any object
//!   level is a parse error naming scenario and key;
//! * byte mutations of every checked-in scenario file parse to an error
//!   or to a scenario that re-emits canonically, never a panic.
//!
//! Scenarios are assembled from plain-integer raw material (the
//! `fault_props.rs` idiom) so testkit shrinking stays simple, and fault
//! times are derived from the materialized horizon so the valid cases
//! are valid *by construction*.

use desim::json::{ToJson, Value};
use desim::{Dur, SimTime};
use dlmodels::Benchmark;
use std::path::{Path, PathBuf};
use scheduler::serve::{ArrivalKind, ServiceSpec};
use scheduler::trace::{JobSpec, TenantId};
use scheduler::scenario::{MAX_FAULT_EVENTS, MAX_TRACE_JOBS, MAX_TRACE_SERVICES};
use scheduler::{
    seeded_fault_plan, FaultEvent, FaultKind, FaultSpec, MetricLevel, Scenario, ScenarioError,
    SchedulerConfig, Topology, TraceSpec,
};
use testkit::{
    bools, prop_assert, prop_assert_eq, property, tuple3, tuple5, u32_in, u64_in, u8_in, usize_in,
    vec_of, Gen,
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

/// The object at `path` inside `v`: object keys, or array indices.
fn object_at<'a>(mut v: &'a mut Value, path: &[String]) -> &'a mut Vec<(String, Value)> {
    for step in path {
        v = match v {
            Value::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).expect("key").1,
            Value::Arr(items) => &mut items[step.parse::<usize>().expect("index")],
            other => panic!("path runs through {other:?}"),
        };
    }
    match v {
        Value::Obj(pairs) => pairs,
        other => panic!("path ends at {other:?}"),
    }
}

/// Every checked-in scenario file under `dir`, recursively, in path order.
fn scenario_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("scenarios/ is checked in") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files.extend(scenario_files(&path));
        } else if path.extension().is_some_and(|x| x == "json") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// What a number literal may be swapped for: the JSON number boundaries.
const NUMBER_TOKENS: [&str; 7] =
    ["1e999", "-1e999", "-0", "1e-400", "-1", "9007199254740993", "0.5"];

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
    /// beyond the horizon, policy-list abuse, unsupported topology,
    /// oversized generators.
    #[cases(64)]
    fn validate_rejects_each_malformation(
        mutation in u8_in(0..10),
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
                // A misspelled, unknown or repeated key at any object level
                // is a parse error naming the scenario and the key (and, for
                // a stranger, the level's valid keys), never a silent default.
                let mut sc = build_scenario(0, seed, cfg, 0b11111, &jobs_raw, &services_raw, 1);
                if sc.services.is_empty() {
                    sc.services = build_services(&[(0, 0, 0, 100, 4)]);
                }
                let TraceSpec::Jobs { jobs, .. } = &sc.trace else { unreachable!() };
                let FaultSpec::Inline(plan) = &sc.faults else { unreachable!() };
                let pick = |n: usize| (seed as usize / 16 % n).to_string();
                let path = |steps: &[&str]| steps.iter().map(|s| s.to_string()).collect::<Vec<_>>();
                let (job, event) = (pick(jobs.len()), pick(plan.events.len()));
                let service = pick(sc.services.len());
                let levels = [
                    (path(&[]), "policies"),
                    (path(&["topology"]), "slots_per_drawer"),
                    (path(&["trace"]), "jobs"),
                    (path(&["trace", "jobs", &job]), "min_gpus"),
                    (path(&["faults"]), "events"),
                    (path(&["faults", "events", &event]), "duration_ns"),
                    (path(&["services", &service]), "max_wait_ns"),
                    (path(&["config"]), "defrag"),
                ];
                let (steps, valid) = &levels[(seed % 8) as usize];
                let mut v = sc.to_json();
                let level = object_at(&mut v, steps);
                let repeat = seed / 8 % 2 == 1;
                let key = if repeat {
                    let first = level[0].clone();
                    level.push(first.clone());
                    first.0
                } else {
                    let stray = ["chasis", "nmae", "fault", "preemt", "audit_evry"];
                    let key = stray[(seed / 16 % 5) as usize].to_string();
                    level.push((key.clone(), Value::Bool(true)));
                    key
                };
                let err = Scenario::from_json_str(&v.emit_pretty())
                    .expect_err("stray or repeated key rejected");
                let msg = err.to_string();
                prop_assert!(
                    msg.contains(&sc.name) && msg.contains(&format!("\"{key}\""))
                        && msg.contains(if repeat { "twice" } else { valid }),
                    "error names the scenario, the key at {:?}, and {}: {}",
                    steps, if repeat { "the repeat" } else { "a valid key" }, msg
                );
            }
            8 => {
                // A generator sized past its bound is rejected before
                // anything is materialized (10^12 jobs would exhaust
                // memory), naming the scenario, the field and the bound.
                let huge = if seed % 2 == 0 { 1_000_000_000_000 } else { 1 + seed as usize };
                let (field, max) = match seed / 2 % 3 {
                    0 => {
                        sc.trace = TraceSpec::Poisson {
                            seed,
                            n_jobs: MAX_TRACE_JOBS + huge,
                            tenants: 2,
                            mean_interarrival: Dur::from_millis(500),
                            name: None,
                        };
                        ("trace.n_jobs", MAX_TRACE_JOBS)
                    }
                    1 => {
                        sc.trace = TraceSpec::PaiMix {
                            n_jobs: 4,
                            n_services: MAX_TRACE_SERVICES + huge,
                            seed,
                        };
                        ("trace.n_services", MAX_TRACE_SERVICES)
                    }
                    _ => {
                        sc.faults = FaultSpec::Seeded {
                            n_events: MAX_FAULT_EVENTS + huge,
                            horizon: Dur::from_secs(1),
                            seed,
                        };
                        ("faults.n_events", MAX_FAULT_EVENTS)
                    }
                };
                let err = sc.validate().expect_err("oversized generator rejected");
                let msg = err.to_string();
                prop_assert!(
                    matches!(&err, ScenarioError::TooLarge { field: f, .. } if *f == field)
                        && msg.contains(&sc.name)
                        && msg.contains(&max.to_string()),
                    "{field} past {max} -> TooLarge naming scenario, field and bound, got {msg}"
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
    /// preempt/defrag knobs — parse to the low tier with every
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
        prop_assert!(!old.config.preempt && !old.config.defrag);
        let re = old.to_json_string();
        for knob in ["\"preempt\"", "\"defrag\""] {
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

    /// Byte mutations of every checked-in scenario file (`scenarios/**`):
    /// a number literal swapped for a boundary token, a token spliced at
    /// any offset, a byte deleted, overwritten or doubled, a line repeated.
    /// Each parses to an error or to a scenario whose canonical emission
    /// parses back to it byte for byte — never a panic. Unmutated files
    /// are canonical already.
    #[cases(256)]
    fn mutated_checked_in_scenarios_fail_cleanly_or_round_trip(
        file in usize_in(0..64),
        mutation in u8_in(0..8),
        at in usize_in(0..1_000_000),
        token in usize_in(0..NUMBER_TOKENS.len()),
        byte in u8_in(0x20..0x7f)
    ) {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
        let files = scenario_files(&dir);
        let text = std::fs::read_to_string(&files[file % files.len()]).expect("readable");
        let mut bytes = text.clone().into_bytes();
        let token = NUMBER_TOKENS[token];
        match mutation {
            0 | 1 => {
                // Swap a number literal: mutation 0 draws from the
                // fractional ones, the float fields an overflow could
                // reach, mutation 1 from all. (Canonical files hold no
                // escaped quotes.)
                let (mut numbers, mut i, mut in_string) = (Vec::new(), 0, false);
                while i < bytes.len() {
                    let b = bytes[i];
                    in_string ^= b == b'"';
                    if in_string || !(b == b'-' || b.is_ascii_digit()) {
                        i += 1;
                        continue;
                    }
                    let end = (i + 1..bytes.len())
                        .find(|&j| !matches!(bytes[j], b'0'..=b'9' | b'.' | b'e' | b'-' | b'+'))
                        .unwrap_or(bytes.len());
                    numbers.push(i..end);
                    i = end;
                }
                let fractional: Vec<_> =
                    numbers.iter().filter(|r| bytes[(*r).clone()].contains(&b'.')).cloned().collect();
                let pool = if mutation == 0 && !fractional.is_empty() { fractional } else { numbers };
                let span = pool[at % pool.len()].clone();
                bytes.splice(span, token.bytes());
            }
            2 => {
                let at = at % (bytes.len() + 1);
                bytes.splice(at..at, token.bytes());
            }
            3 => {
                bytes.remove(at % bytes.len());
            }
            4 => {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            5 => {
                let at = at % bytes.len();
                bytes.insert(at, bytes[at]);
            }
            6 => {
                let lines: Vec<&str> = text.lines().collect();
                let k = at % lines.len();
                let mut out = lines[..=k].to_vec();
                out.extend_from_slice(&lines[k..]);
                bytes = out.join("\n").into_bytes();
            }
            _ => {}
        }
        let mutated = String::from_utf8(bytes).expect("ASCII mutations of ASCII files");
        if let Ok(sc) = Scenario::from_json_str(&mutated) {
            let canonical = sc.to_json_string();
            prop_assert_eq!(Scenario::from_json_str(&canonical).ok(), Some(sc.clone()));
            if mutated == text {
                prop_assert_eq!(&canonical, &text, "checked-in files are canonical");
            }
        }
    }
}
