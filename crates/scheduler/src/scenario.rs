//! Declarative scenario harness: one JSON spec composing **topology ×
//! trace × fault plan × services × policies × metric level**, so a new
//! study is a checked-in data file instead of a new `repro` subcommand
//! (the Deep500 "recombinable experiment spec" idea, applied to the
//! composable test bed).
//!
//! A [`Scenario`] names everything a replay needs:
//!
//! * [`Topology`] — the test bed envelope: 1..=8 Falcon 4016 chassis
//!   (each 2 drawers × 8 slots) behind the inter-chassis rack tier (see
//!   [`rack`]). Shapes outside [`rack::supported_envelope`] parse but are
//!   rejected with a typed error instead of silently misread.
//! * [`TraceSpec`] — inline JSON jobs, a seeded Poisson generator, or the
//!   seeded PAI-style mixed generator (which brings its own services).
//! * [`FaultSpec`] — no faults, an inline [`FaultPlan`], or a seeded
//!   random plan.
//! * explicit [`ServiceSpec`]s appended to whatever the trace provides.
//! * a policy list (validated against [`resolve_policy`]).
//! * [`SchedulerConfig`] knobs, each defaulting when omitted.
//! * a [`MetricLevel`] — `full` keeps per-job / per-service arrays,
//!   `summary` strips them for sweep-sized output.
//!
//! [`Scenario::validate`] rejects malformed specs with typed
//! [`ScenarioError`]s (duplicate ids, out-of-range slices, fault events
//! beyond the trace horizon, unknown policies, unsupported topology,
//! generators sized past [`MAX_TRACE_JOBS`] and its sibling bounds).
//! [`run_scenario`] is the repo's one replay path: it and
//! [`run_scenario_with_policy`] build every replay through
//! [`ClusterSim::with_probe_cache_mixed_on`], and [`run_matrix`] fans
//! whole scenario files across parsweep workers — all byte-identical at
//! any worker count. A one-policy, full-metrics scenario's canonical
//! output is the bare [`ScheduleReport`] JSON (the form the pinned
//! goldens hold); anything else wraps its reports in a
//! [`ScenarioReport`] object.

use crate::cluster::{ClusterSim, SchedulerConfig, SchedulerError};
use crate::fault::{seeded_fault_plan, seeded_rack_fault_plan, FaultPlan};
use crate::metrics::ScheduleReport;
use crate::policy::{resolve_policy, PlacePolicy};
use crate::probe::{warm_set_for_trace, ProbeCache};
use crate::serve::{seeded_pai_mix, MixedTrace, ServiceSpec};
use crate::trace::{JobSpec, PoissonMix};
use desim::json::{Fields, FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimTime};
use rack::RackTopology;
use std::fmt;

/// Most jobs a trace generator may draw (`trace.n_jobs`). The bounds on
/// generator sizes are checked before anything is materialized, so an
/// absurd spec fails with [`ScenarioError::TooLarge`] instead of
/// exhausting memory; each sits far above every checked-in spec.
pub const MAX_TRACE_JOBS: usize = 1_000_000;
/// Most services the PAI-mix generator may draw (`trace.n_services`).
pub const MAX_TRACE_SERVICES: usize = 1_000;
/// Most events a seeded fault plan may draw (`faults.n_events`).
pub const MAX_FAULT_EVENTS: usize = 100_000;

/// The test-bed envelope a scenario asks for: 1..=8 advanced-mode Falcon
/// 4016 chassis, each 2 drawers × 8 slots, behind the inter-chassis rack
/// tier. Other shapes parse but fail [`Scenario::validate`] with
/// [`ScenarioError::UnsupportedTopology`]; the runnable gate and the
/// error message both derive from [`rack::supported_envelope`], the
/// single source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub chassis: u8,
    pub drawers: u8,
    pub slots_per_drawer: u8,
}

impl Default for Topology {
    fn default() -> Topology {
        Topology { chassis: 1, drawers: 2, slots_per_drawer: 8 }
    }
}

impl Topology {
    /// A scenario topology asking for `chassis` stock Falcon chassis.
    pub fn with_chassis(chassis: u8) -> Topology {
        Topology { chassis, ..Topology::default() }
    }

    /// The equivalent rack-crate geometry (field-for-field).
    pub fn rack(&self) -> RackTopology {
        RackTopology {
            chassis: self.chassis,
            drawers_per_chassis: self.drawers,
            slots_per_drawer: self.slots_per_drawer,
        }
    }
}

desim::json_record! {
    Topology, defaults: Topology::default();
    chassis: "chassis" (default),
    drawers: "drawers" (default),
    slots_per_drawer: "slots_per_drawer" (default),
}

/// Where a scenario's workload comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// Jobs listed inline in the scenario file.
    Jobs { name: String, jobs: Vec<JobSpec> },
    /// The seeded Poisson/heavy-tail generator ([`PoissonMix`]). `name`
    /// defaults to `poisson-<n_jobs>x<seed:#x>`; the pinned studies set
    /// it explicitly to keep their legacy trace names (and so their
    /// report bytes).
    Poisson {
        seed: u64,
        n_jobs: usize,
        tenants: u32,
        mean_interarrival: Dur,
        name: Option<String>,
    },
    /// The seeded PAI-style mixed generator ([`seeded_pai_mix`]): a
    /// contended training wave plus `n_services` latency-SLO services.
    PaiMix { n_jobs: usize, n_services: usize, seed: u64 },
}

impl ToJson for TraceSpec {
    fn to_json(&self) -> Value {
        match self {
            TraceSpec::Jobs { name, jobs } => Value::obj(vec![
                ("kind", Value::str("jobs")),
                ("name", Value::str(name.clone())),
                ("jobs", jobs.to_json()),
            ]),
            TraceSpec::Poisson { seed, n_jobs, tenants, mean_interarrival, name } => {
                let mut fields = vec![
                    ("kind", Value::str("poisson")),
                    ("seed", Value::from_u64(*seed)),
                    ("n_jobs", Value::from_u64(*n_jobs as u64)),
                    ("tenants", Value::from_u64(u64::from(*tenants))),
                    ("mean_interarrival_ns", mean_interarrival.to_json()),
                ];
                if let Some(n) = name {
                    fields.push(("name", Value::str(n.clone())));
                }
                Value::obj(fields)
            }
            TraceSpec::PaiMix { n_jobs, n_services, seed } => Value::obj(vec![
                ("kind", Value::str("pai-mix")),
                ("n_jobs", Value::from_u64(*n_jobs as u64)),
                ("n_services", Value::from_u64(*n_services as u64)),
                ("seed", Value::from_u64(*seed)),
            ]),
        }
    }
}

impl FromJson for TraceSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut f = Fields::new(v)?;
        let kind: String = f.req("kind")?;
        let spec = match kind.as_str() {
            "jobs" => TraceSpec::Jobs { name: f.req("name")?, jobs: f.req("jobs")? },
            "poisson" => TraceSpec::Poisson {
                seed: f.req("seed")?,
                n_jobs: f.req("n_jobs")?,
                tenants: f.req("tenants")?,
                mean_interarrival: f.req("mean_interarrival_ns")?,
                name: f.opt("name")?,
            },
            "pai-mix" => TraceSpec::PaiMix {
                n_jobs: f.req("n_jobs")?,
                n_services: f.req("n_services")?,
                seed: f.req("seed")?,
            },
            other => return Err(JsonError::decode(format!("unknown trace kind \"{other}\""))),
        };
        f.end()?;
        Ok(spec)
    }
}

/// Where a scenario's fault plan comes from.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultSpec {
    /// Fault-free replay (the default when the field is omitted).
    #[default]
    None,
    /// Events listed inline in the scenario file.
    Inline(FaultPlan),
    /// A seeded random plan ([`seeded_fault_plan`]).
    Seeded { n_events: usize, horizon: Dur, seed: u64 },
}

impl ToJson for FaultSpec {
    fn to_json(&self) -> Value {
        match self {
            FaultSpec::None => Value::obj(vec![("kind", Value::str("none"))]),
            FaultSpec::Inline(plan) => Value::obj(vec![
                ("kind", Value::str("inline")),
                ("name", Value::str(plan.name.clone())),
                ("events", plan.events.to_json()),
            ]),
            FaultSpec::Seeded { n_events, horizon, seed } => Value::obj(vec![
                ("kind", Value::str("seeded")),
                ("n_events", Value::from_u64(*n_events as u64)),
                ("horizon_ns", horizon.to_json()),
                ("seed", Value::from_u64(*seed)),
            ]),
        }
    }
}

impl FromJson for FaultSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut f = Fields::new(v)?;
        let kind: String = f.req("kind")?;
        let spec = match kind.as_str() {
            "none" => FaultSpec::None,
            "inline" => {
                FaultSpec::Inline(FaultPlan { name: f.req("name")?, events: f.req("events")? })
            }
            "seeded" => FaultSpec::Seeded {
                n_events: f.req("n_events")?,
                horizon: f.req("horizon_ns")?,
                seed: f.req("seed")?,
            },
            other => return Err(JsonError::decode(format!("unknown fault kind \"{other}\""))),
        };
        f.end()?;
        Ok(spec)
    }
}

/// How much detail the scenario's reports keep when serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricLevel {
    /// Everything, per-job and per-service arrays included — the level
    /// golden files pin.
    #[default]
    Full,
    /// Cluster- and pool-level numbers only: the per-job `jobs` array and
    /// per-service `services` array are stripped. The right level for
    /// many-scenario sweeps.
    Summary,
}

impl ToJson for MetricLevel {
    fn to_json(&self) -> Value {
        Value::str(match self {
            MetricLevel::Full => "full",
            MetricLevel::Summary => "summary",
        })
    }
}

impl FromJson for MetricLevel {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str()? {
            "full" => Ok(MetricLevel::Full),
            "summary" => Ok(MetricLevel::Summary),
            other => Err(JsonError::decode(format!("unknown metric level \"{other}\""))),
        }
    }
}

/// One declarative experiment: everything a replay needs, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub topology: Topology,
    pub trace: TraceSpec,
    pub faults: FaultSpec,
    /// Explicit services, appended to whatever the trace kind provides
    /// (ids must not collide with trace-provided services).
    pub services: Vec<ServiceSpec>,
    /// Policy names, resolved through [`resolve_policy`]. One replay per
    /// policy; report order is policy order.
    pub policies: Vec<String>,
    pub config: SchedulerConfig,
    pub metrics: MetricLevel,
}

/// Typed scenario-spec failures ([`Scenario::validate`] and the runners).
#[derive(Debug)]
pub enum ScenarioError {
    EmptyName,
    UnsupportedTopology(Topology),
    EmptyTrace { scenario: String },
    NoPolicies { scenario: String },
    UnknownPolicy { scenario: String, source: crate::policy::UnknownPolicy },
    DuplicatePolicy { scenario: String, policy: String },
    DuplicateJobId { scenario: String, id: u64 },
    DuplicateServiceId { scenario: String, id: u64 },
    /// A job's `priority` field is outside the supported tiers (1..=3).
    BadPriority { scenario: String, job: u64, priority: u8 },
    BadSlice { scenario: String, service: u64, slice: u8 },
    BadConfig { scenario: String, msg: String },
    BadFault { scenario: String, msg: String },
    /// A fault strikes after every job has arrived and every service
    /// window has closed — it could only ever hit an empty bed tail.
    FaultBeyondHorizon { scenario: String, event: usize, at: SimTime, horizon: SimTime },
    /// A generator asks for more entities than its bound allows
    /// (`field` is the spec path, e.g. `trace.n_jobs`).
    TooLarge { scenario: String, field: &'static str, value: usize, max: usize },
    Json(JsonError),
    Scheduler(SchedulerError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyName => write!(f, "scenario has no name"),
            ScenarioError::UnsupportedTopology(t) => write!(
                f,
                "topology {}x{}x{} is outside the runnable envelope ({})",
                t.chassis,
                t.drawers,
                t.slots_per_drawer,
                rack::supported_envelope()
            ),
            ScenarioError::EmptyTrace { scenario } => {
                write!(f, "{scenario}: trace has neither jobs nor services")
            }
            ScenarioError::NoPolicies { scenario } => {
                write!(f, "{scenario}: at least one policy is required")
            }
            ScenarioError::UnknownPolicy { scenario, source } => {
                write!(f, "{scenario}: {source}")
            }
            ScenarioError::DuplicatePolicy { scenario, policy } => {
                write!(f, "{scenario}: policy \"{policy}\" listed more than once")
            }
            ScenarioError::DuplicateJobId { scenario, id } => {
                write!(f, "{scenario}: job id {id} appears more than once")
            }
            ScenarioError::DuplicateServiceId { scenario, id } => {
                write!(f, "{scenario}: service id {id} appears more than once")
            }
            ScenarioError::BadPriority { scenario, job, priority } => {
                write!(f, "{scenario}: job {job}: priority tier {priority} outside 1..=3")
            }
            ScenarioError::BadSlice { scenario, service, slice } => {
                write!(f, "{scenario}: service {service} slice {slice}/7 not in {{1,2,4,7}}")
            }
            ScenarioError::BadConfig { scenario, msg } => write!(f, "{scenario}: config: {msg}"),
            ScenarioError::BadFault { scenario, msg } => write!(f, "{scenario}: fault plan: {msg}"),
            ScenarioError::FaultBeyondHorizon { scenario, event, at, horizon } => write!(
                f,
                "{scenario}: fault event {event} strikes at {:.1}s, beyond the trace horizon {:.1}s",
                at.as_secs_f64(),
                horizon.as_secs_f64()
            ),
            ScenarioError::TooLarge { scenario, field, value, max } => {
                write!(f, "{scenario}: {field} {value} exceeds the bound {max}")
            }
            ScenarioError::Json(e) => write!(f, "scenario json: {e}"),
            ScenarioError::Scheduler(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

impl From<SchedulerError> for ScenarioError {
    fn from(e: SchedulerError) -> Self {
        ScenarioError::Scheduler(e)
    }
}

impl Scenario {
    /// A scenario over the default bed, fault-free, full metrics — the
    /// base hand-written files start from.
    pub fn new(name: impl Into<String>, trace: TraceSpec, policies: Vec<String>) -> Scenario {
        Scenario {
            name: name.into(),
            topology: Topology::default(),
            trace,
            faults: FaultSpec::None,
            services: Vec::new(),
            policies,
            config: SchedulerConfig::default(),
            metrics: MetricLevel::Full,
        }
    }

    /// Expand generators: the concrete workload (jobs + services, sorted)
    /// and the concrete fault plan this spec describes.
    pub fn materialize(&self) -> (MixedTrace, FaultPlan) {
        let (name, jobs, mut services) = match &self.trace {
            TraceSpec::Jobs { name, jobs } => (name.clone(), jobs.clone(), Vec::new()),
            TraceSpec::Poisson { seed, n_jobs, tenants, mean_interarrival, name } => {
                let name = name
                    .clone()
                    .unwrap_or_else(|| format!("poisson-{n_jobs}x{seed:#x}"));
                let t = PoissonMix {
                    seed: *seed,
                    n_jobs: *n_jobs,
                    tenants: *tenants,
                    mean_interarrival: *mean_interarrival,
                }
                .generate(name.clone());
                (name, t.jobs, Vec::new())
            }
            TraceSpec::PaiMix { n_jobs, n_services, seed } => {
                let m = seeded_pai_mix(*n_jobs, *n_services, *seed);
                (m.name, m.jobs, m.services)
            }
        };
        services.extend(self.services.iter().cloned());
        let topo = self.topology.rack();
        let plan = match &self.faults {
            FaultSpec::None => FaultPlan::none(),
            FaultSpec::Inline(plan) => plan.clone().sorted(),
            // Single-chassis specs keep the legacy generator (and so their
            // pinned bytes); racks draw chassis-routed plans that can also
            // degrade the inter-chassis tier.
            FaultSpec::Seeded { n_events, horizon, seed } => {
                if topo.chassis > 1 {
                    seeded_rack_fault_plan(*n_events, *horizon, *seed, &topo)
                } else {
                    seeded_fault_plan(*n_events, *horizon, *seed)
                }
            }
        };
        (MixedTrace { name, jobs, services }.sorted(), plan)
    }

    /// The instant after which no new work can appear: the last job
    /// arrival or service-window close. Fault events striking beyond it
    /// are rejected — they could only hit the drained tail of the replay.
    pub fn horizon(mixed: &MixedTrace) -> SimTime {
        let jobs = mixed.jobs.iter().map(|j| j.arrival);
        let svcs = mixed.services.iter().map(ServiceSpec::end);
        jobs.chain(svcs).max().unwrap_or(SimTime::ZERO)
    }

    /// Check the spec against the runnable envelope; every rejection is a
    /// typed [`ScenarioError`]. Cheap enough to call before every run —
    /// the runners do.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::EmptyName);
        }
        if !self.topology.rack().is_supported() {
            return Err(ScenarioError::UnsupportedTopology(self.topology));
        }
        let scenario = || self.name.clone();
        if self.policies.is_empty() {
            return Err(ScenarioError::NoPolicies { scenario: scenario() });
        }
        for (i, p) in self.policies.iter().enumerate() {
            if let Err(source) = resolve_policy(p) {
                return Err(ScenarioError::UnknownPolicy { scenario: scenario(), source });
            }
            if self.policies[..i].contains(p) {
                return Err(ScenarioError::DuplicatePolicy {
                    scenario: scenario(),
                    policy: p.clone(),
                });
            }
        }
        if self.config.probe_iters == 0 {
            return Err(ScenarioError::BadConfig {
                scenario: scenario(),
                msg: "probe_iters must be at least 1".into(),
            });
        }
        if self.config.quota_gpus_per_tenant == 0 {
            return Err(ScenarioError::BadConfig {
                scenario: scenario(),
                msg: "quota_gpus_per_tenant must be at least 1".into(),
            });
        }
        if !(self.config.interference >= 0.0 && self.config.interference.is_finite()) {
            return Err(ScenarioError::BadConfig {
                scenario: scenario(),
                msg: format!("interference {} must be finite and >= 0", self.config.interference),
            });
        }
        if self.config.audit_every == 0 {
            return Err(ScenarioError::BadConfig {
                scenario: scenario(),
                msg: "audit_every must be at least 1".into(),
            });
        }
        let (n_jobs, n_services) = match &self.trace {
            TraceSpec::Jobs { .. } => (0, 0),
            TraceSpec::Poisson { n_jobs, .. } => (*n_jobs, 0),
            TraceSpec::PaiMix { n_jobs, n_services, .. } => (*n_jobs, *n_services),
        };
        let n_events = match &self.faults {
            FaultSpec::Seeded { n_events, .. } => *n_events,
            FaultSpec::None | FaultSpec::Inline(_) => 0,
        };
        for (field, value, max) in [
            ("trace.n_jobs", n_jobs, MAX_TRACE_JOBS),
            ("trace.n_services", n_services, MAX_TRACE_SERVICES),
            ("faults.n_events", n_events, MAX_FAULT_EVENTS),
        ] {
            if value > max {
                return Err(ScenarioError::TooLarge { scenario: scenario(), field, value, max });
            }
        }
        let (mixed, plan) = self.materialize();
        if mixed.jobs.is_empty() && mixed.services.is_empty() {
            return Err(ScenarioError::EmptyTrace { scenario: scenario() });
        }
        let mut ids: Vec<u64> = mixed.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScenarioError::DuplicateJobId { scenario: scenario(), id: w[0] });
        }
        for j in &mixed.jobs {
            if !(1..=3).contains(&j.priority) {
                return Err(ScenarioError::BadPriority {
                    scenario: scenario(),
                    job: j.id,
                    priority: j.priority,
                });
            }
        }
        let mut sids: Vec<u64> = mixed.services.iter().map(|s| s.id).collect();
        sids.sort_unstable();
        if let Some(w) = sids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScenarioError::DuplicateServiceId { scenario: scenario(), id: w[0] });
        }
        for s in &mixed.services {
            if !matches!(s.slice, 1 | 2 | 4 | 7) {
                return Err(ScenarioError::BadSlice {
                    scenario: scenario(),
                    service: s.id,
                    slice: s.slice,
                });
            }
        }
        plan.validate_for(&self.topology.rack())
            .map_err(|msg| ScenarioError::BadFault { scenario: scenario(), msg })?;
        let horizon = Self::horizon(&mixed);
        for (i, e) in plan.events.iter().enumerate() {
            if e.at > horizon {
                return Err(ScenarioError::FaultBeyondHorizon {
                    scenario: scenario(),
                    event: i,
                    at: e.at,
                    horizon,
                });
            }
        }
        Ok(())
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a scenario. A decode error is prefixed with the scenario's
    /// name when the name itself decodes.
    pub fn from_json_str(s: &str) -> Result<Scenario, JsonError> {
        let v = Value::parse(s)?;
        let name = Fields::new(&v).and_then(|mut f| f.req::<String>("name"));
        Scenario::from_json(&v).map_err(|e| match name {
            Ok(name) => e.within(name),
            Err(_) => e,
        })
    }
}

desim::json_record! {
    Scenario;
    name: "name",
    topology: "topology" (default),
    trace: "trace",
    faults: "faults" (default),
    services: "services" (default),
    policies: "policies",
    config: "config" (default),
    metrics: "metrics" (default),
}

/// The canonical result of one scenario: one [`ScheduleReport`] per
/// policy, in policy order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    pub scenario: String,
    pub metrics: MetricLevel,
    pub reports: Vec<ScheduleReport>,
}

/// Strip the bulky per-entity arrays for [`MetricLevel::Summary`]: the
/// report's `jobs` array and, inside any `serve` block, its `services`
/// array.
fn summarize(report: Value) -> Value {
    match report {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "jobs")
                .map(|(k, v)| if k == "serve" { (k, summarize_serve(v)) } else { (k, v) })
                .collect(),
        ),
        other => other,
    }
}

fn summarize_serve(serve: Value) -> Value {
    match serve {
        Value::Obj(pairs) => {
            Value::Obj(pairs.into_iter().filter(|(k, _)| k != "services").collect())
        }
        other => other,
    }
}

impl ScenarioReport {
    fn report_json(&self, r: &ScheduleReport) -> Value {
        match self.metrics {
            MetricLevel::Full => r.to_json(),
            MetricLevel::Summary => summarize(r.to_json()),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("scenario", Value::str(self.scenario.clone())),
            ("metrics", self.metrics.to_json()),
            (
                "reports",
                Value::Arr(self.reports.iter().map(|r| self.report_json(r)).collect()),
            ),
        ])
    }

    /// The canonical serialized form. A one-policy, full-metrics scenario
    /// emits the bare [`ScheduleReport`] — byte-compatible with the
    /// goldens the pre-scenario `repro` subcommands pinned — everything
    /// else emits the wrapping object.
    pub fn canonical_json_string(&self) -> String {
        if self.reports.len() == 1 && self.metrics == MetricLevel::Full {
            self.reports[0].to_json_string()
        } else {
            self.to_json().emit_pretty()
        }
    }
}

/// Replay `scenario` under each of its policies across `jobs` parsweep
/// workers and return the reports in policy order, byte-identical at any
/// worker count.
pub fn run_scenario(
    scenario: &Scenario,
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<ScenarioReport, ScenarioError> {
    scenario.validate()?;
    let policies = scenario
        .policies
        .iter()
        .map(|name| resolve_policy(name).expect("validated above"))
        .collect();
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        metrics: scenario.metrics,
        reports: replay_policies(scenario, policies, jobs, cache)?,
    })
}

/// Replay `scenario` under one externally supplied `policy` instead of
/// the scenario's own policy list — the autotuner's evaluation path,
/// where the candidate under test is a [`crate::policy::ParamPolicy`]
/// that has no name the scenario file could carry. Runs on the calling
/// thread (callers fan out across *candidates*, one parsweep job each)
/// and returns the single [`ScheduleReport`].
pub fn run_scenario_with_policy(
    scenario: &Scenario,
    policy: Box<dyn PlacePolicy>,
    cache: &mut ProbeCache,
) -> Result<ScheduleReport, ScenarioError> {
    scenario.validate()?;
    let mut reports = replay_policies(scenario, vec![policy], 1, cache)?;
    Ok(reports.pop().expect("one policy, one report"))
}

/// The replay path behind both runners. Materializes the (validated)
/// spec, warms `cache` for its training side, then replays it once per
/// policy across `jobs` parsweep workers, each on a
/// [`ProbeCache::split`] of `cache`. Each replay runs whole on one
/// worker; nothing inside a replay fans out. The splits are absorbed back
/// in policy order; probes are pure, so reports and cache are
/// byte-identical at any `jobs`.
fn replay_policies(
    scenario: &Scenario,
    policies: Vec<Box<dyn PlacePolicy>>,
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<Vec<ScheduleReport>, ScenarioError> {
    let topo = scenario.topology.rack();
    let (mixed, plan) = scenario.materialize();
    cache.warm(&warm_set_for_trace(&mixed.training()), jobs);
    let replays: Vec<parsweep::Job<'_, Result<(ScheduleReport, ProbeCache), SchedulerError>>> =
        policies
            .into_iter()
            .map(|policy| {
                let label = format!("scenario {} under {}", scenario.name, policy.name());
                let (split, cfg) = (cache.split(), scenario.config.clone());
                let (mixed, plan) = (mixed.clone(), plan.clone());
                parsweep::Job::new(label, move || {
                    ClusterSim::with_probe_cache_mixed_on(topo, mixed, policy, cfg, split)?
                        .with_faults(plan)?
                        .run_report()
                })
            })
            .collect();
    let mut reports = Vec::new();
    for outcome in parsweep::run(jobs, replays) {
        let (report, probes) = outcome?;
        cache.absorb(probes);
        reports.push(report);
    }
    Ok(reports)
}

/// Run a whole scenario matrix: each scenario is one parsweep job (its
/// policies replay serially inside it), results return **in scenario
/// order**. Splits of the shared probe cache are taken on the caller's
/// thread in submission order and absorbed back in the same order, so
/// the matrix — reports and cache — is byte-identical at any `jobs`.
///
/// A scenario whose `probe_iters` differs from the shared cache's prices
/// from (and discards) a private cache instead — persisted prices are
/// only reusable at the iteration count they were measured with.
pub fn run_matrix(
    scenarios: &[Scenario],
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<Vec<ScenarioReport>, ScenarioError> {
    for sc in scenarios {
        sc.validate()?;
    }
    let shared_iters = cache.probe_iters();
    let runs: Vec<parsweep::Job<'_, Result<(ScenarioReport, Option<ProbeCache>), ScenarioError>>> =
        scenarios
            .iter()
            .map(|sc| {
                let shareable = sc.config.probe_iters == shared_iters;
                let mut local = if shareable {
                    cache.split()
                } else {
                    ProbeCache::new(sc.config.probe_iters)
                };
                parsweep::Job::new(format!("scenario {}", sc.name), move || {
                    let report = run_scenario(sc, 1, &mut local)?;
                    Ok((report, shareable.then_some(local)))
                })
            })
            .collect();
    let mut reports = Vec::new();
    for outcome in parsweep::run(jobs, runs) {
        let (report, probes) = outcome?;
        if let Some(probes) = probes {
            cache.absorb(probes);
        }
        reports.push(report);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::paper_fault_plan;
    use crate::trace::seeded_two_tenant;
    use desim::Dur;

    /// The spec of the pinned `cluster_fifo` study.
    fn fifo_scenario() -> Scenario {
        Scenario::new(
            "cluster_fifo",
            TraceSpec::Poisson {
                seed: 0xC10D,
                n_jobs: 20,
                tenants: 2,
                mean_interarrival: Dur::from_millis(1500),
                name: Some("two-tenant-20x0xc10d".into()),
            },
            vec!["fifo-first-fit".into()],
        )
    }

    #[test]
    fn poisson_spec_materializes_the_legacy_trace() {
        let (mixed, plan) = fifo_scenario().materialize();
        assert!(plan.is_empty());
        assert!(mixed.services.is_empty());
        assert_eq!(mixed.training(), seeded_two_tenant(20, 0xC10D));
    }

    #[test]
    fn scenario_json_round_trips_byte_identically() {
        let mut sc = fifo_scenario();
        sc.faults = FaultSpec::Inline(paper_fault_plan());
        sc.metrics = MetricLevel::Summary;
        let text = sc.to_json_string();
        let back = Scenario::from_json_str(&text).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn defaults_fill_omitted_fields() {
        let minimal = r#"{
            "name": "tiny",
            "trace": {"kind": "poisson", "seed": 7, "n_jobs": 4, "tenants": 2,
                      "mean_interarrival_ns": 1500000000},
            "policies": ["best-fit"]
        }"#;
        let sc = Scenario::from_json_str(minimal).unwrap();
        assert_eq!(sc.topology, Topology::default());
        assert_eq!(sc.faults, FaultSpec::None);
        assert!(sc.services.is_empty());
        assert_eq!(sc.metrics, MetricLevel::Full);
        assert_eq!(sc.config, SchedulerConfig::default());
        assert!(sc.validate().is_ok());
        let (mixed, _) = sc.materialize();
        assert_eq!(mixed.name, "poisson-4x0x7", "derived default trace name");
    }

    #[test]
    fn validate_rejects_unsupported_topology_and_unknown_policy() {
        // Any chassis count in the rack envelope is runnable now...
        let mut sc = fifo_scenario();
        sc.topology.chassis = 4;
        assert!(sc.validate().is_ok());
        // ...but zero chassis, a too-tall rack, and odd drawer shapes are
        // rejected with the envelope named in the message.
        for bad in [Topology::with_chassis(0), Topology::with_chassis(9)] {
            let mut sc = fifo_scenario();
            sc.topology = bad;
            let err = sc.validate().unwrap_err();
            assert!(matches!(err, ScenarioError::UnsupportedTopology(_)));
            assert!(
                err.to_string().contains(&rack::supported_envelope()),
                "message names the envelope: {err}"
            );
        }
        let mut sc = fifo_scenario();
        sc.topology.drawers = 3;
        assert!(matches!(sc.validate(), Err(ScenarioError::UnsupportedTopology(_))));
        let mut sc = fifo_scenario();
        sc.policies = vec!["round-robin".into()];
        assert!(matches!(sc.validate(), Err(ScenarioError::UnknownPolicy { .. })));
        let mut sc = fifo_scenario();
        sc.policies = vec!["fifo-first-fit".into(), "fifo-first-fit".into()];
        assert!(matches!(sc.validate(), Err(ScenarioError::DuplicatePolicy { .. })));
        let mut sc = fifo_scenario();
        sc.policies.clear();
        assert!(matches!(sc.validate(), Err(ScenarioError::NoPolicies { .. })));
    }

    #[test]
    fn validate_rejects_fault_beyond_horizon() {
        let mut sc = fifo_scenario();
        let (mixed, _) = sc.materialize();
        let horizon = Scenario::horizon(&mixed);
        let mut plan = paper_fault_plan();
        plan.events[0].at = horizon + Dur::from_secs(1);
        sc.faults = FaultSpec::Inline(plan);
        assert!(matches!(sc.validate(), Err(ScenarioError::FaultBeyondHorizon { .. })));
        // The pinned plan sits inside the horizon and passes.
        sc.faults = FaultSpec::Inline(paper_fault_plan());
        assert!(sc.validate().is_ok());
    }

    /// The parse error of `cluster_fifo` with `knob: true` added to its
    /// config block.
    fn config_knob_error(knob: &str) -> String {
        let mut v = fifo_scenario().to_json();
        let Value::Obj(fields) = &mut v else { unreachable!("a scenario is an object") };
        let (_, config) = fields.iter_mut().find(|(k, _)| k == "config").expect("config block");
        let Value::Obj(knobs) = config else { unreachable!("config is an object") };
        knobs.push((knob.into(), Value::Bool(true)));
        Scenario::from_json_str(&v.emit_pretty()).expect_err("retired knob rejected").to_string()
    }

    #[test]
    fn retired_relocate_slo_knob_is_an_unknown_key() {
        let msg = config_knob_error("relocate_slo");
        assert!(msg.contains("cluster_fifo") && msg.contains("\"relocate_slo\""), "{msg}");
    }

    #[test]
    fn retired_shard_serving_knob_is_an_unknown_key() {
        let msg = config_knob_error("shard_serving");
        let valid = "(valid: quota_gpus_per_tenant, elastic, probe_iters, interference, \
                     audit_every, preempt, defrag)";
        assert!(
            msg.contains("cluster_fifo")
                && msg.contains("config: unknown key \"shard_serving\"")
                && msg.contains(valid),
            "{msg}"
        );
    }

    #[test]
    fn summary_level_strips_per_entity_arrays() {
        let mut sc = fifo_scenario();
        sc.metrics = MetricLevel::Summary;
        let mut cache = ProbeCache::new(sc.config.probe_iters);
        let rep = run_scenario(&sc, 1, &mut cache).unwrap();
        let text = rep.canonical_json_string();
        assert!(text.contains("\"scenario\""), "summary wraps in the scenario object");
        assert!(!text.contains("\"jobs\""), "per-job array stripped: {text}");
        assert!(text.contains("\"mean_jct_ns\""), "cluster metrics kept");
    }

    #[test]
    fn matrix_preserves_scenario_order_and_shares_the_cache() {
        let mut small = fifo_scenario();
        small.name = "small".into();
        small.trace = TraceSpec::Poisson {
            seed: 0xC10D,
            n_jobs: 6,
            tenants: 2,
            mean_interarrival: Dur::from_millis(1500),
            name: None,
        };
        let mut odd_iters = small.clone();
        odd_iters.name = "odd-iters".into();
        odd_iters.config.probe_iters = 2;
        let scenarios = vec![small.clone(), odd_iters];
        let mut cache = ProbeCache::new(SchedulerConfig::default().probe_iters);
        let reps = run_matrix(&scenarios, 2, &mut cache).unwrap();
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].scenario, "small");
        assert_eq!(reps[1].scenario, "odd-iters");
        assert!(cache.len() > 0, "matching-iters scenario warmed the shared cache");
    }
}
