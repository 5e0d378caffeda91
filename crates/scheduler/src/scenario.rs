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
//! [`ScenarioError`]s that name the scenario: every admission rule the
//! scheduler applies to the materialized workload (ids, tenants, demand
//! against pool and quota, slices, service rates and replica ranges),
//! fault events beyond the trace horizon, unknown policies, unsupported
//! topology, and generators sized past [`MAX_TRACE_JOBS`] and its
//! sibling bounds. What it admits comes back as a [`Workload`], the
//! materialized trace and fault plan that only `validate` can build.
//!
//! [`replay`] is the repo's one replay loop: it fans one parsweep job out
//! per `(workload, policy)` pair, each built through
//! [`ClusterSim::with_probe_cache_mixed_on`], on splits of one shared
//! probe cache warmed once beforehand. [`run_scenario`] (a scenario's own
//! policies), [`run_matrix`] (every policy of every scenario in one
//! fan-out) and the autotuner (candidate policies) are its callers, and
//! all are byte-identical at any worker count. A one-policy,
//! full-metrics scenario's canonical output is the bare
//! [`ScheduleReport`] JSON (the form the pinned goldens hold); anything
//! else wraps its reports in a [`ScenarioReport`] object.

use crate::cluster::{admit, ClusterSim, SchedulerConfig, SchedulerError};
use crate::fault::{seeded_fault_plan, seeded_rack_fault_plan, FaultPlan};
use crate::metrics::ScheduleReport;
use crate::policy::{resolve_policy, PlacePolicy};
use crate::probe::{warm_set_for_trace, ProbeCache};
use crate::serve::{seeded_pai_mix, MixedTrace, ServiceSpec};
use crate::trace::{JobSpec, PoissonMix};
use desim::json::{Fields, FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimTime};
use rack::RackTopology;
use std::collections::BTreeMap;
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
    NoPolicies { scenario: String },
    UnknownPolicy { scenario: String, source: crate::policy::UnknownPolicy },
    DuplicatePolicy { scenario: String, policy: String },
    BadConfig { scenario: String, msg: String },
    BadFault { scenario: String, msg: String },
    /// A fault strikes after every job has arrived and every service
    /// window has closed — it could only ever hit an empty bed tail.
    FaultBeyondHorizon { scenario: String, event: usize, at: SimTime, horizon: SimTime },
    /// A generator asks for more entities than its bound allows
    /// (`field` is the spec path, e.g. `trace.n_jobs`).
    TooLarge { scenario: String, field: &'static str, value: usize, max: usize },
    Json(JsonError),
    /// The scheduler refused the scenario's workload, at admission (which
    /// [`Scenario::validate`] runs) or during a replay.
    Scheduler { scenario: String, source: SchedulerError },
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
            ScenarioError::NoPolicies { scenario } => {
                write!(f, "{scenario}: at least one policy is required")
            }
            ScenarioError::UnknownPolicy { scenario, source } => {
                write!(f, "{scenario}: {source}")
            }
            ScenarioError::DuplicatePolicy { scenario, policy } => {
                write!(f, "{scenario}: policy \"{policy}\" listed more than once")
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
            ScenarioError::Scheduler { scenario, source } => write!(f, "{scenario}: {source}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
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

    /// Check the spec against the runnable envelope and admit its
    /// materialized workload as a replay would; every rejection is a typed
    /// [`ScenarioError`] naming the scenario. The admitted workload is
    /// returned for [`replay`]: a runner validates each scenario once and
    /// replays that one materialization under every policy.
    pub fn validate(&self) -> Result<Workload, ScenarioError> {
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
        let rack = self.topology.rack();
        admit(&rack, &self.config, &mixed.jobs, &mixed.services)
            .map_err(|source| ScenarioError::Scheduler { scenario: scenario(), source })?;
        plan.validate_for(&rack)
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
        Ok(Workload { name: scenario(), rack, config: self.config.clone(), mixed, plan })
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

/// A scenario's workload as [`Scenario::validate`] admitted it: the
/// materialized trace and fault plan on the scenario's rack under its
/// config. Only `validate` builds one, so every `Workload` has passed
/// admission, and [`replay`] runs it under any number of policies without
/// materializing it again.
#[derive(Debug)]
pub struct Workload {
    name: String,
    rack: RackTopology,
    config: SchedulerConfig,
    mixed: MixedTrace,
    plan: FaultPlan,
}

impl Workload {
    /// One replay under `policy` on `probes`, its error naming the scenario.
    fn run(
        &self,
        policy: Box<dyn PlacePolicy>,
        probes: ProbeCache,
    ) -> Result<(ScheduleReport, ProbeCache), ScenarioError> {
        let (mixed, cfg) = (self.mixed.clone(), self.config.clone());
        ClusterSim::with_probe_cache_mixed_on(self.rack, mixed, policy, cfg, probes)
            .and_then(|sim| sim.with_faults(self.plan.clone()))
            .and_then(ClusterSim::run_report)
            .map_err(|source| ScenarioError::Scheduler { scenario: self.name.clone(), source })
    }
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
/// worker count: a one-scenario [`run_matrix`].
pub fn run_scenario(
    scenario: &Scenario,
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<ScenarioReport, ScenarioError> {
    Ok(run_matrix(std::slice::from_ref(scenario), jobs, cache)?.remove(0))
}

/// Run a whole scenario matrix: every scenario is validated first (so an
/// inadmissible one stops the matrix before any replay), then every
/// policy of every scenario replays in one [`replay`] fan-out. Results
/// return **in scenario order**, byte-identical (reports and cache) at
/// any `jobs`.
pub fn run_matrix(
    scenarios: &[Scenario],
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<Vec<ScenarioReport>, ScenarioError> {
    let workloads = scenarios.iter().map(Scenario::validate).collect::<Result<Vec<_>, _>>()?;
    let runs = scenarios
        .iter()
        .zip(&workloads)
        .flat_map(|(sc, w)| {
            sc.policies.iter().map(move |name| (w, resolve_policy(name).expect("validated policy")))
        })
        .collect();
    let mut reports = replay(runs, jobs, cache)?.into_iter();
    Ok(scenarios
        .iter()
        .map(|sc| ScenarioReport {
            scenario: sc.name.clone(),
            metrics: sc.metrics,
            reports: reports.by_ref().take(sc.policies.len()).collect(),
        })
        .collect())
}

/// The one replay loop: replay each `(workload, policy)` pair as one
/// parsweep job across `jobs` workers and return the reports in
/// submission order. The shared `cache` is first warmed once, across
/// `jobs` workers, with the union of the warm sets of every workload at
/// the cache's `probe_iters`; each such replay then runs on a
/// [`ProbeCache::split`] absorbed back in submission order. Workloads at
/// another `probe_iters` share one private cache per count, warmed the
/// same way and then discarded: prices are only reusable at the count
/// they were measured with. Probes are pure, so reports and cache are
/// byte-identical at any `jobs`; the first failing replay in submission
/// order is the error, naming its scenario.
pub fn replay(
    runs: Vec<(&Workload, Box<dyn PlacePolicy>)>,
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<Vec<ScheduleReport>, ScenarioError> {
    let mut warm_sets: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    let mut seen: Vec<&Workload> = Vec::new();
    for &(w, _) in &runs {
        if !seen.iter().any(|&v| std::ptr::eq(v, w)) {
            seen.push(w);
            let keys = warm_set_for_trace(&w.mixed.training());
            warm_sets.entry(w.config.probe_iters).or_default().extend(keys);
        }
    }
    let iters = cache.probe_iters();
    let mut private: BTreeMap<u64, ProbeCache> = BTreeMap::new();
    for (count, keys) in warm_sets {
        let target = if count == iters {
            &mut *cache
        } else {
            private.entry(count).or_insert_with(|| ProbeCache::new(count))
        };
        target.warm(&keys, jobs);
    }
    type Outcome = Result<(ScheduleReport, Option<ProbeCache>), ScenarioError>;
    let replays: Vec<parsweep::Job<'_, Outcome>> = runs
        .into_iter()
        .map(|(w, policy)| {
            let shared = w.config.probe_iters == iters;
            let probes =
                if shared { cache.split() } else { private[&w.config.probe_iters].split() };
            let label = format!("scenario {} under {}", w.name, policy.name());
            parsweep::Job::new(label, move || {
                let (report, probes) = w.run(policy, probes)?;
                Ok((report, shared.then_some(probes)))
            })
        })
        .collect();
    let mut reports = Vec::new();
    for outcome in parsweep::run(jobs, replays) {
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
    use crate::serve::ArrivalKind;
    use crate::trace::{seeded_two_tenant, TenantId};
    use desim::Dur;
    use dlmodels::Benchmark;

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

    /// `cluster_fifo` with its jobs inline plus one service, so every
    /// admission rule has a job and a service to break.
    fn inline_scenario() -> Scenario {
        let mut sc = fifo_scenario();
        let (mixed, _) = sc.materialize();
        sc.trace = TraceSpec::Jobs { name: mixed.name, jobs: mixed.jobs };
        sc.services = vec![ServiceSpec {
            id: 100,
            tenant: TenantId(1),
            benchmark: Benchmark::MobileNetV2,
            slice: 2,
            slo: Dur::from_millis(100),
            rate_rps: 8.0,
            arrivals: ArrivalKind::Poisson,
            start: SimTime::from_secs(1),
            duration: Dur::from_secs(10),
            max_batch: 4,
            max_wait: Dur::from_millis(10),
            min_replicas: 1,
            max_replicas: 2,
        }];
        sc
    }

    /// Break the first job (or service) of [`inline_scenario`] with `f`.
    fn broken(f: impl FnOnce(&mut Vec<JobSpec>, &mut Vec<ServiceSpec>)) -> Scenario {
        let mut sc = inline_scenario();
        let TraceSpec::Jobs { jobs, .. } = &mut sc.trace else { unreachable!("inline trace") };
        f(jobs, &mut sc.services);
        sc
    }

    #[test]
    fn validate_rejects_each_admission_rule_naming_the_scenario() {
        assert!(inline_scenario().validate().is_ok());
        let cases: Vec<(Scenario, &str)> = vec![
            (
                broken(|j, s| {
                    j.clear();
                    s.clear();
                }),
                "trace has neither jobs nor services",
            ),
            (broken(|_, s| s.push(s[0].clone())), "service 100: service id appears more than once"),
            (broken(|_, s| s[0].tenant = TenantId(2)), "service 100: tenant outside"),
            (broken(|_, s| s[0].slice = 3), "service 100: slice must be 1, 2, 4, or 7"),
            (broken(|_, s| s[0].rate_rps = 0.0), "service 100: rate must be positive"),
            (broken(|_, s| s[0].duration = Dur::ZERO), "service 100: zero-length service window"),
            (broken(|_, s| s[0].slo = Dur::ZERO), "service 100: zero SLO"),
            (broken(|_, s| s[0].max_batch = 0), "service 100: max_batch must be at least 1"),
            (broken(|_, s| s[0].min_replicas = 3), "service 100: replica range"),
            (broken(|j, _| j.push(j[0].clone())), "job id 0 appears more than once"),
            (broken(|j, _| j[0].tenant = TenantId(2)), "job 0: tenant 2 exceeds"),
            (broken(|j, _| j[0].gpus = 0), "job 0: demand 0 outside 1..=16 GPUs"),
            (broken(|j, _| j[0].gpus = 17), "job 0: demand 17 outside 1..=16 GPUs"),
            (broken(|j, _| j[0].gpus = 16), "job 0: demand 16 can never fit tenant quota 12"),
            (broken(|j, _| j[0].min_gpus = 0), "job 0: min_gpus 0 outside"),
            (broken(|j, _| j[0].iters = 0), "job 0: zero iterations"),
            (broken(|j, _| j[0].priority = 4), "job 0: priority tier 4 outside 1..=3"),
        ];
        for (sc, words) in cases {
            let err = sc.validate().expect_err(words);
            let msg = err.to_string();
            assert!(matches!(err, ScenarioError::Scheduler { .. }), "{msg}");
            assert!(msg.starts_with("cluster_fifo: ") && msg.contains(words), "{words}: {msg}");
        }
    }

    #[test]
    fn matrix_rejects_an_inadmissible_scenario_before_any_replay() {
        let mut bad = broken(|j, _| j[0].gpus = 16);
        bad.name = "over-quota".into();
        let mut cache = ProbeCache::new(SchedulerConfig::default().probe_iters);
        let err = run_matrix(&[fifo_scenario(), bad], 1, &mut cache).expect_err("over quota");
        assert!(err.to_string().starts_with("over-quota: job 0: demand 16"), "{err}");
        assert_eq!(cache.probes_run(), 0, "no scenario replayed");
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

        // A cold matrix over `cluster_fifo` and a renamed copy warms the
        // union of their warm sets once, before either replays: each
        // warm-set key is probed once, and the copy adds only the lazy
        // misses its own split repeats.
        let fifo = fifo_scenario();
        let mut alone = ProbeCache::new(fifo.config.probe_iters);
        let solo = run_scenario(&fifo, 1, &mut alone).unwrap();
        let warm = warm_set_for_trace(&fifo.materialize().0.training()).len() as u64;
        assert_eq!(alone.probes_run(), alone.len() as u64, "one replay probes each key once");
        let lazy = alone.probes_run() - warm;
        let mut copy = fifo.clone();
        copy.name = "cluster_fifo_copy".into();
        let mut cold = ProbeCache::new(fifo.config.probe_iters);
        let reps = run_matrix(&[fifo, copy], 2, &mut cold).unwrap();
        assert_eq!(cold.save_json(), alone.save_json(), "the same prices");
        assert_eq!(cold.probes_run(), warm + 2 * lazy, "{warm} warm keys, {lazy} lazy misses");
        for rep in &reps {
            assert_eq!(rep.reports, solo.reports, "{} replays cluster_fifo's bytes", rep.scenario);
        }
    }

    /// A replay prices at its own spec's `probe_iters`: on a passed cache
    /// measured at another count it prices on a private cache and leaves
    /// the passed one untouched.
    #[test]
    fn run_scenario_prices_at_the_spec_probe_iters_on_any_cache() {
        let sc = fifo_scenario();
        let mut own = ProbeCache::new(sc.config.probe_iters);
        let want = run_scenario(&sc, 1, &mut own).unwrap().canonical_json_string();
        for iters in [1, 2, 5] {
            let mut other = ProbeCache::new(iters);
            let got = run_scenario(&sc, 2, &mut other).unwrap().canonical_json_string();
            assert!(got == want, "a cache at probe_iters {iters} changed the report bytes");
            assert!(other.is_empty() && other.probes_run() == 0, "probe_iters {iters} cache");
        }
    }
}
