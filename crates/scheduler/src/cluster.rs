//! The cluster event loop: co-simulates concurrent training jobs on a
//! shared composable test bed — one Falcon 4016 chassis, or a rack of up
//! to eight behind an inter-chassis fabric tier (see [`rack`]).
//!
//! Each chassis runs in **advanced mode** — 2 drawers × 8 slots of V100
//! PCIe GPUs — shared by two tenants. Each tenant's host server is cabled
//! into both drawers of every chassis (tenant 0 on ports H1/H2, tenant 1
//! on H3/H4), so every placement decision is a real composition: job start
//! and finish drive MCS-audited `grant`/`attach`/`detach` calls against
//! the owning chassis, and tenant isolation comes from the MCS role model,
//! not scheduler bookkeeping. Gangs that span chassis pay the analytic
//! [`rack::cross_chassis_stretch`] for crossing the rack switch; on one
//! chassis that stretch is exactly 1.0 and replays are byte-identical to
//! the pre-rack code.
//!
//! Time advances by discrete events: job arrivals, job finishes, fault
//! strikes and heals, and the serving instants where the loop acts:
//! service starts and ends, scale-ups, replica reclaims, and every
//! serving instant while a replica placement, a displaced job or defrag
//! waits. Between them each service absorbs its own request arrivals,
//! batch launches and completions in a serving epoch
//! (`ServeState::run_epoch`). Running jobs progress at a rate set by
//! (a) a probe-measured mean iteration time for their placement *shape*
//! — so drawer-spanning placements are genuinely slower for
//! communication-bound models — and (b) a deterministic interference
//! dilation per co-resident job sharing a drawer's switch ASIC. Rates
//! are piecewise constant between events.
//!
//! Every gang decision is one function: `start_job` places, `try_shrink`
//! shrinks, `preempt_for` preempts, `defrag_pass` migrates,
//! `apply_fault` evacuates and `replace_displaced` re-places the
//! evacuated. Each changes a gang's slots only through the
//! `compose`/`release` pair, which drives the MCS and books the ledger;
//! rolls work back to a checkpoint only through `Running::roll_back`;
//! and re-seats a moved job only through `seat`.
//!
//! When the queue head cannot be placed for lack of capacity, the
//! scheduler may *shrink* a running elastic job (e.g. 8 → 4 GPUs) through
//! the same detach path, stretching the victim's remaining iterations so
//! total work in GPU-iterations is conserved.
//!
//! A replay may also carry a [`FaultPlan`] (see [`crate::fault`]): drawer
//! outages, slot deaths, link degradation, and BMC thermal trips strike
//! and heal mid-replay as first-class events. Each strike is an
//! MCS-audited `fail`/`force-detach`; evacuated jobs roll back to their
//! last checkpoint, wait out a re-composition latency, and are re-placed
//! by the same policy — so recovery quality is a measurable property of
//! the placement policy, reported in [`crate::metrics::RecoveryMetrics`].

use crate::fault::{FaultKind, FaultPlan, CHECKPOINT_ITERS, RECOMPOSE_LATENCY};
use crate::metrics::{JobOutcome, MigrationMetrics, RecoveryMetrics, ScheduleReport};
use crate::policy::{FreeView, PlacePolicy, RunningView};
use crate::probe::{degraded_key, ProbeCache};
use crate::serve::{MixedTrace, ServeState, ServiceSpec, SLICES_PER_GPU};
use crate::trace::{JobSpec, Trace};
use desim::{Dur, SimTime};
use devices::gpu::GpuSpec;
use falcon::{
    Bmc, DrawerId, Falcon4016, HostId, HostPort, ManagementCenter, McsError, Mode, Role, Severity,
    SlotAddr, SlotDevice, UserId,
};
use rack::{
    chassis_parts, cross_chassis_stretch, drawer_mask, drawers_spanned, slot_set, slots_in, Rack,
    RackAddr, RackTopology,
};
use std::collections::BTreeMap;
use std::fmt;

/// The chassis has four host ports; two per tenant means two tenants.
pub const MAX_TENANTS: u32 = 2;

pub(crate) const ADMIN: UserId = UserId(0);

pub(crate) fn tenant_user(t: u32) -> UserId {
    UserId(t + 1)
}

fn tenant_host(t: u32) -> HostId {
    HostId(t + 1)
}

/// Does a gang on these drawers (a [`drawer_mask`]) pay a root-complex
/// or rack-tier hop?
fn spans(drawers: u64) -> bool {
    drawers.count_ones() > 1
}

/// Slowdown factor of work sharing a drawer's switch ASIC with
/// `neighbors` co-resident jobs or services — the one interference model
/// training rates and serving batches both use.
pub(crate) fn dilation(interference: f64, neighbors: usize) -> f64 {
    1.0 + interference * neighbors as f64
}

/// Count drawer masks per global drawer: `out[d]` is how many of `masks`
/// hold bit `d`.
fn tally_drawers(masks: impl IntoIterator<Item = u64>, n_drawers: usize, out: &mut Vec<usize>) {
    out.clear();
    out.resize(n_drawers, 0);
    for mut m in masks {
        while m != 0 {
            out[m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
}

/// Interference neighbors of job `j`: the other jobs and the live
/// services that share at least one drawer with it, each counted once.
/// A one-drawer job reads the per-drawer tallies of `job_masks`
/// (`jobs_on`, itself included) and `svc_masks` (`svcs_on`). A
/// drawer-spanning gang scans pairwise, so a neighbor it meets on two
/// drawers still counts once.
fn neighbors(
    j: usize,
    job_masks: &[u64],
    svc_masks: &[u64],
    jobs_on: &[usize],
    svcs_on: &[usize],
) -> usize {
    let mine = job_masks[j];
    if mine.is_power_of_two() {
        let d = mine.trailing_zeros() as usize;
        return jobs_on[d] - 1 + svcs_on[d];
    }
    pairwise_neighbors(j, job_masks, svc_masks)
}

/// The defining scan behind [`neighbors`]: every other job and every
/// service whose mask meets job `j`'s.
fn pairwise_neighbors(j: usize, job_masks: &[u64], svc_masks: &[u64]) -> usize {
    let mine = job_masks[j];
    job_masks.iter().enumerate().filter(|&(k, &m)| k != j && m & mine != 0).count()
        + svc_masks.iter().filter(|&&m| m & mine != 0).count()
}

/// Knobs of the cluster simulation (not of any single policy).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Concurrent GPUs one tenant may hold across its jobs.
    pub quota_gpus_per_tenant: usize,
    /// Shrink elastic jobs when the queue head is capacity-blocked.
    pub elastic: bool,
    /// Iterations per placement-pricing probe.
    pub probe_iters: u64,
    /// Fractional slowdown per co-resident job sharing a drawer.
    pub interference: f64,
    /// Run the full rack-wide + per-chassis conservation audit every N
    /// events; the O(1) ledger check covers the events in between. 1 =
    /// audit every event (the historical behavior).
    pub audit_every: u64,
    /// Let a capacity-blocked queue head preempt the cheapest
    /// strictly-lower-tier running job (chosen by
    /// [`PlacePolicy::choose_victim`]): the victim checkpoints, detaches
    /// through the MCS, and re-queues at its priority position. Off by
    /// default — existing replays never preempt.
    pub preempt: bool,
    /// Periodic migration-based defragmentation: when the queue is empty,
    /// relocate at most one drawer-spanning job per event to a placement
    /// spanning fewer drawers (chosen by [`PlacePolicy::migrate`]),
    /// paying the checkpoint rollback and [`RECOMPOSE_LATENCY`].
    pub defrag: bool,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            quota_gpus_per_tenant: 12,
            elastic: true,
            probe_iters: 3,
            interference: 0.05,
            audit_every: 1,
            preempt: false,
            defrag: false,
        }
    }
}

// A scenario's `config` block. The knobs added after the first scenario
// files are emitted only when set, so those files keep their bytes.
desim::json_record! {
    SchedulerConfig, defaults: SchedulerConfig::default();
    quota_gpus_per_tenant: "quota_gpus_per_tenant" (default),
    elastic: "elastic" (default),
    probe_iters: "probe_iters" (default),
    interference: "interference" (default),
    audit_every: "audit_every" (elide),
    preempt: "preempt" (elide),
    defrag: "defrag" (elide),
}

/// Typed admission and replay failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerError {
    EmptyTrace,
    TooManyTenants { job: u64, tenant: u32 },
    BadDemand { job: u64, gpus: u8, pool: usize },
    QuotaUnsatisfiable { job: u64, gpus: u8, quota: usize },
    BadElasticRange { job: u64, min_gpus: u8, gpus: u8 },
    ZeroLength { job: u64 },
    /// A job's priority is outside the supported tiers (1..=3).
    BadPriority { job: u64, priority: u8 },
    /// Two jobs in one trace share an id; completion accounting would
    /// silently merge them.
    DuplicateJobId { id: u64 },
    /// A service spec in a mixed trace is outside the serving envelope.
    BadService { id: u64, msg: String },
    /// The policy declined the job even on an otherwise idle pool.
    Unplaceable { job: u64, policy: String },
    /// The fault plan failed [`FaultPlan::validate`].
    BadFault { msg: String },
    Mcs(McsError),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::EmptyTrace => write!(f, "trace has neither jobs nor services"),
            SchedulerError::TooManyTenants { job, tenant } => {
                write!(f, "job {job}: tenant {tenant} exceeds the {MAX_TENANTS}-tenant test bed")
            }
            SchedulerError::BadDemand { job, gpus, pool } => {
                write!(f, "job {job}: demand {gpus} outside 1..={pool} GPUs")
            }
            SchedulerError::QuotaUnsatisfiable { job, gpus, quota } => {
                write!(f, "job {job}: demand {gpus} can never fit tenant quota {quota}")
            }
            SchedulerError::BadElasticRange { job, min_gpus, gpus } => {
                write!(f, "job {job}: min_gpus {min_gpus} outside 1..={gpus}")
            }
            SchedulerError::ZeroLength { job } => write!(f, "job {job}: zero iterations"),
            SchedulerError::BadPriority { job, priority } => {
                write!(f, "job {job}: priority tier {priority} outside 1..=3")
            }
            SchedulerError::DuplicateJobId { id } => {
                write!(f, "job id {id} appears more than once in the trace")
            }
            SchedulerError::BadService { id, msg } => write!(f, "service {id}: {msg}"),
            SchedulerError::Unplaceable { job, policy } => {
                write!(f, "policy {policy} never places job {job}; trace cannot drain")
            }
            SchedulerError::BadFault { msg } => write!(f, "fault plan: {msg}"),
            SchedulerError::Mcs(e) => write!(f, "mcs: {e}"),
        }
    }
}

impl std::error::Error for SchedulerError {}

impl From<McsError> for SchedulerError {
    fn from(e: McsError) -> Self {
        SchedulerError::Mcs(e)
    }
}

/// A job holding GPUs — or, while it waits for re-placement after a fault
/// evacuation or a preemption, the job as of its last checkpoint.
struct Running {
    spec: JobSpec,
    slots: Vec<RackAddr>,
    /// The global drawers `slots` touch. `seat` and `try_shrink` are the
    /// only places a running job's slots change, so they keep it; the
    /// full audit checks it against `slots`.
    drawer_mask: u64,
    started: SimTime,
    remaining_iters: f64,
    /// Alone-on-the-bed mean iteration time for the current shape (s).
    base_iter_secs: f64,
    /// Iterations per second including interference dilation.
    rate: f64,
    last_progress: SimTime,
    finish_at: SimTime,
    /// No progress accrues before this instant — the re-composition
    /// latency after a fault evacuation. Equals `started` for initial
    /// placements, so fault-free replays are unaffected.
    resume_at: SimTime,
    /// Iterations completed on the current placement; evacuation rolls
    /// the job back to the last [`CHECKPOINT_ITERS`] multiple of this.
    iters_since_placement: f64,
    ever_spanned: bool,
    shrunk: bool,
}

impl Running {
    /// Iterations run since the last checkpoint on this placement: the
    /// work a rollback throws away.
    fn uncheckpointed_iters(&self) -> f64 {
        self.iters_since_placement % CHECKPOINT_ITERS as f64
    }

    /// Roll back to the last checkpoint before the job leaves its
    /// placement (evacuation, preemption, migration), returning the
    /// GPU-seconds of training it must redo.
    fn roll_back(&mut self) -> f64 {
        let lost = self.uncheckpointed_iters();
        self.remaining_iters += lost;
        lost * self.base_iter_secs * self.slots.len() as f64
    }
}

/// Preemption/migration counters of one replay (reported as
/// [`MigrationMetrics`] when the preempt or defrag knob is on; absent
/// otherwise so legacy reports stay byte-identical).
#[derive(Default)]
struct MigState {
    preemptions: u32,
    migrations: u32,
    work_lost_gpu_secs: f64,
}

/// The one fault-timeline action type: each plan event strikes once and
/// heals once.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Strike(usize),
    Heal(usize),
}

/// Mutable failure-injection state of one replay.
#[derive(Default)]
struct FaultState {
    /// Active-fault refcount per slot: a slot is failed while any active
    /// event covers it, so overlapping outages compose.
    slot_down: BTreeMap<RackAddr, u32>,
    /// Active intra-chassis link degrades, by plan-event index →
    /// (global drawer, percent).
    degrades: BTreeMap<usize, (u8, u8)>,
    /// Active inter-chassis (rack-tier) degrades, by plan-event index →
    /// percent.
    rack_degrades: BTreeMap<usize, u8>,
    /// Slots whose refcount each strike incremented, for its heal.
    touched_by_event: Vec<Vec<RackAddr>>,
    /// Evacuated jobs awaiting re-placement, with their fault times.
    displaced: Vec<(SimTime, Running)>,
    recovery_times: Vec<Dur>,
    evacuations: u32,
    thermal_trips: u32,
    work_lost_gpu_secs: f64,
}

/// Reusable buffers of the replay loop, hoisted out of the per-event path
/// so steady-state events allocate nothing.
#[derive(Default)]
struct LoopScratch {
    finished: Vec<u64>,
    tod: Vec<usize>,
    svc_on: Vec<usize>,
    job_masks: Vec<u64>,
    svc_masks: Vec<u64>,
    reprice_ids: Vec<u64>,
}

impl LoopScratch {
    /// Running training jobs touching each of the rack's `n_drawers`
    /// global drawers — the serving side's interference neighbors.
    fn training_on_drawer(
        &mut self,
        running: &BTreeMap<u64, Running>,
        n_drawers: usize,
    ) -> &[usize] {
        tally_drawers(running.values().map(|r| r.drawer_mask), n_drawers, &mut self.tod);
        &self.tod
    }
}

/// Which running jobs a link-health change can re-price. Skipping the
/// rest is exact, not approximate: a job's price depends only on the
/// drawer healths of the chassis it touches, plus the rack-tier stretch —
/// and [`cross_chassis_stretch`] is exactly 1.0 for single-chassis gangs
/// regardless of rack health.
#[derive(Clone, Copy)]
enum RepriceScope {
    /// Jobs touching this chassis (an intra-chassis link degrade).
    Chassis(u8),
    /// Multi-chassis gangs only (a rack-tier degrade).
    RackTier,
}

/// Where a conservation check ran, named in its breach messages: the
/// number of events replayed so far and the sim-time.
#[derive(Clone, Copy)]
struct AuditPoint {
    event: u64,
    at: SimTime,
}

impl fmt::Display for AuditPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conservation breach at event {} (t = {})", self.event, self.at)
    }
}

/// The slots of a [`slot_set`], named for a breach message.
fn named(set: u128) -> String {
    slots_in(set).map(|s| s.to_string()).collect::<Vec<_>>().join(" ")
}

/// One trace replay under one policy on one fresh test bed.
pub struct ClusterSim {
    rack: Rack,
    topo: RackTopology,
    policy: Box<dyn PlacePolicy>,
    cfg: SchedulerConfig,
    trace: Trace,
    probes: ProbeCache,
    faults: FaultPlan,
    /// One BMC per chassis, indexed like [`Rack::mcs`].
    bmc: Vec<Bmc>,
    fstate: FaultState,
    mig: MigState,
    /// Preempted jobs rolled back to their checkpoint, keyed by job id.
    /// Each keeps its original spec; the pending queue holds a copy
    /// sized to the allocation it held, and `start_job` resumes this
    /// state when the queue re-places it.
    suspended: BTreeMap<u64, Running>,
    serve: ServeState,
    /// O(1) mirror of the running set's slot holdings (total and per
    /// tenant), moved only by `compose` and `release`. The cheap
    /// between-audit conservation check compares it against the rack's
    /// attachment count; the full audit re-derives and cross-checks it.
    ledger_slots: usize,
    ledger_tenant: Vec<usize>,
    /// Events replayed so far — drives the `audit_every` cadence.
    events_seen: u64,
    scratch: LoopScratch,
}

/// Admission: every job and service must fit the bed, the two-tenant
/// model, and the quota before a replay starts — a typed error up front,
/// never a queue that cannot drain. Service-only workloads are legal; one
/// with neither jobs nor services is not. [`crate::Scenario::validate`]
/// runs it on the workload a spec materializes, so a matrix stops before
/// any replay.
pub(crate) fn admit(
    topo: &RackTopology,
    cfg: &SchedulerConfig,
    jobs: &[JobSpec],
    services: &[ServiceSpec],
) -> Result<(), SchedulerError> {
    if jobs.is_empty() && services.is_empty() {
        return Err(SchedulerError::EmptyTrace);
    }
    let mut sids: Vec<u64> = services.iter().map(|s| s.id).collect();
    sids.sort_unstable();
    if let Some(w) = sids.windows(2).find(|w| w[0] == w[1]) {
        return Err(SchedulerError::BadService {
            id: w[0],
            msg: "service id appears more than once".to_string(),
        });
    }
    for s in services {
        let bad = |msg: &str| SchedulerError::BadService { id: s.id, msg: msg.to_string() };
        if s.tenant.0 >= MAX_TENANTS {
            return Err(bad("tenant outside the two-tenant test bed"));
        }
        if !matches!(s.slice, 1 | 2 | 4 | 7) {
            return Err(bad("slice must be 1, 2, 4, or 7 sevenths"));
        }
        debug_assert_eq!(SLICES_PER_GPU, 7);
        if !(s.rate_rps > 0.0 && s.rate_rps.is_finite()) {
            return Err(bad("rate must be positive and finite"));
        }
        if s.duration == Dur::ZERO {
            return Err(bad("zero-length service window"));
        }
        if s.slo == Dur::ZERO {
            return Err(bad("zero SLO"));
        }
        if s.max_batch == 0 {
            return Err(bad("max_batch must be at least 1"));
        }
        if s.min_replicas == 0 || s.min_replicas > s.max_replicas {
            return Err(bad("replica range must satisfy 1 <= min <= max"));
        }
    }
    let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(SchedulerError::DuplicateJobId { id: w[0] });
    }
    for j in jobs {
        if j.tenant.0 >= MAX_TENANTS {
            return Err(SchedulerError::TooManyTenants { job: j.id, tenant: j.tenant.0 });
        }
        if j.gpus == 0 || usize::from(j.gpus) > topo.total_gpus() {
            return Err(SchedulerError::BadDemand {
                job: j.id,
                gpus: j.gpus,
                pool: topo.total_gpus(),
            });
        }
        if usize::from(j.gpus) > cfg.quota_gpus_per_tenant {
            return Err(SchedulerError::QuotaUnsatisfiable {
                job: j.id,
                gpus: j.gpus,
                quota: cfg.quota_gpus_per_tenant,
            });
        }
        if j.min_gpus == 0 || j.min_gpus > j.gpus {
            return Err(SchedulerError::BadElasticRange {
                job: j.id,
                min_gpus: j.min_gpus,
                gpus: j.gpus,
            });
        }
        if j.iters == 0 {
            return Err(SchedulerError::ZeroLength { job: j.id });
        }
        if !(1..=3).contains(&j.priority) {
            return Err(SchedulerError::BadPriority { job: j.id, priority: j.priority });
        }
    }
    Ok(())
}

impl ClusterSim {
    /// Admit a training-only `trace` onto `topo.chassis` Falcon 4016s
    /// behind the inter-chassis fabric tier, pricing placements from
    /// `probes` — a fresh, pre-warmed, or persisted cache. Probes are
    /// deterministic, so seeding the cache can only skip simulations,
    /// never change the report.
    pub fn with_probe_cache_on(
        topo: RackTopology,
        trace: Trace,
        policy: Box<dyn PlacePolicy>,
        cfg: SchedulerConfig,
        probes: ProbeCache,
    ) -> Result<ClusterSim, SchedulerError> {
        Self::with_probe_cache_mixed_on(topo, trace.into(), policy, cfg, probes)
    }

    /// The one builder every replay goes through: admit a mixed workload
    /// — training jobs plus latency-SLO inference services sharing the
    /// bed — onto `topo`, pricing placements from `probes` (see
    /// [`with_probe_cache_on`](Self::with_probe_cache_on)).
    pub fn with_probe_cache_mixed_on(
        topo: RackTopology,
        mixed: MixedTrace,
        policy: Box<dyn PlacePolicy>,
        cfg: SchedulerConfig,
        probes: ProbeCache,
    ) -> Result<ClusterSim, SchedulerError> {
        assert!(
            topo.is_supported(),
            "topology {topo} outside {}",
            rack::supported_envelope()
        );
        let MixedTrace { name, jobs, services } = mixed.sorted();
        admit(&topo, &cfg, &jobs, &services)?;

        // The shared test bed: one advanced-mode chassis per rack
        // position, a V100 in every slot, both tenants' hosts cabled into
        // both drawers of every chassis. Chassis 0 keeps the historical
        // name so single-chassis replays stay byte-identical.
        let mut centers = Vec::with_capacity(usize::from(topo.chassis));
        for c in 0..topo.chassis {
            let name = if c == 0 {
                "cluster-falcon".to_string()
            } else {
                format!("cluster-falcon{c}")
            };
            let mut chassis = Falcon4016::new(name, Mode::Advanced);
            for d in 0..2u8 {
                for s in 0..8u8 {
                    chassis
                        .insert_device(
                            SlotAddr::new(d, s),
                            SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
                        )
                        .expect("fresh chassis slot");
                }
            }
            let cabling = [
                (HostPort::H1, 0u32, 0u8),
                (HostPort::H2, 0, 1),
                (HostPort::H3, 1, 0),
                (HostPort::H4, 1, 1),
            ];
            for (port, tenant, drawer) in cabling {
                chassis
                    .connect_host(port, tenant_host(tenant), DrawerId(drawer))
                    .expect("advanced mode takes two hosts per drawer");
            }
            centers.push(ManagementCenter::new(chassis));
        }
        let rack = Rack::new(centers);
        rack.add_user(ADMIN, Role::Admin);
        for t in 0..MAX_TENANTS {
            rack.add_user(tenant_user(t), Role::User);
        }

        let n_drawers = topo.n_drawers();
        Ok(ClusterSim {
            rack,
            topo,
            policy,
            cfg,
            trace: Trace { name, jobs },
            probes,
            faults: FaultPlan::none(),
            bmc: (0..topo.chassis).map(|_| Bmc::falcon_defaults()).collect(),
            fstate: FaultState::default(),
            mig: MigState::default(),
            suspended: BTreeMap::new(),
            serve: ServeState::new_for(services, n_drawers)?,
            ledger_slots: 0,
            ledger_tenant: vec![0; MAX_TENANTS as usize],
            events_seen: 0,
            scratch: LoopScratch::default(),
        })
    }

    /// A no-op kept for API compatibility: a replay runs on one thread,
    /// and `--jobs` parallelism fans out whole replays instead (see
    /// [`crate::replay`]). Callers should drop the call; it will be
    /// removed once none remain.
    pub fn with_workers(self, _workers: usize) -> ClusterSim {
        self
    }

    /// Inject `plan` into the replay: its events strike and heal as
    /// first-class events of the loop. Rejects plans outside this rack's
    /// envelope with [`SchedulerError::BadFault`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<ClusterSim, SchedulerError> {
        plan.validate_for(&self.topo).map_err(|msg| SchedulerError::BadFault { msg })?;
        self.faults = plan.sorted();
        Ok(self)
    }

    /// Replay the trace to completion, returning the report and the probe
    /// cache so callers can [`ProbeCache::absorb`] it into a shared cache
    /// or persist it. Deterministic: equal traces, policies, and configs
    /// yield byte-identical reports.
    pub fn run_report(mut self) -> Result<(ScheduleReport, ProbeCache), SchedulerError> {
        let jobs = std::mem::take(&mut self.trace.jobs);
        let trace_name = self.trace.name.clone();
        let policy_name = self.policy.name();

        // The fault timeline: every plan event strikes once and heals
        // once, interleaved by (time, plan order) so simultaneous events
        // apply deterministically.
        let mut timeline: Vec<(SimTime, u64, FaultAction)> = Vec::new();
        for (i, e) in self.faults.events.iter().enumerate() {
            timeline.push((e.at, 2 * i as u64, FaultAction::Strike(i)));
            timeline.push((e.heals_at(), 2 * i as u64 + 1, FaultAction::Heal(i)));
        }
        timeline.sort_by_key(|&(t, seq, _)| (t, seq));
        let mut next_fault = 0usize;
        self.fstate.touched_by_event = vec![Vec::new(); self.faults.events.len()];

        let mut next_arrival = 0usize;
        let mut pending: Vec<JobSpec> = Vec::new();
        let mut running: BTreeMap<u64, Running> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut accrued = SimTime::ZERO;
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut busy_gpu_secs = 0.0;
        let mut span_gpu_secs = 0.0;
        let mut tenant_gpu_secs = vec![0.0f64; MAX_TENANTS as usize];
        let mut makespan = SimTime::ZERO;

        loop {
            let next_finish = running.values().map(|r| r.finish_at).min();
            let next_fault_at = timeline.get(next_fault).map(|&(t, _, _)| t);
            let next_arrival_at = jobs.get(next_arrival).map(|j| j.arrival);
            // Heals are event sources too: a queued or displaced job may be
            // placeable only once capacity returns, so the loop must keep
            // advancing through the timeline even with nothing running.
            let serve_next = if self.serve.idle() {
                // No services, or all of them retired: the serving side
                // can never produce another event.
                None
            } else {
                // Training cannot act before `cap`, so serving runs an
                // epoch up to there and surfaces only the instants where
                // the loop acts. A waiting displaced job and armed defrag
                // make the loop act at every instant: `replace_displaced`
                // can succeed on a retry with nothing else changed, and
                // the defrag net-win test moves with remaining work.
                let cap =
                    [next_arrival_at, next_finish, next_fault_at].into_iter().flatten().min();
                let hold = !self.fstate.displaced.is_empty()
                    || (self.cfg.defrag
                        && pending.is_empty()
                        && running.values().any(|r| spans(r.drawer_mask)));
                let tod = self.scratch.training_on_drawer(&running, self.topo.n_drawers());
                self.serve.run_epoch(now, cap, hold, self.cfg.interference, tod)
            };
            let t = [next_arrival_at, next_finish, next_fault_at, serve_next]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = t else { break };
            assert!(t >= now, "event time regressed: {t} < {now}");

            // Advance resource accounting and job progress to t. Held
            // GPUs count as busy even inside the re-composition window —
            // the bed is occupied either way — but training progress only
            // accrues from `resume_at`. The tests' per-instant reference
            // also runs the instants an epoch absorbs as events, and
            // accrues only where the epoch stops, so accrual runs from
            // `accrued` rather than from the previous event.
            #[cfg(test)]
            let accrue = !std::mem::take(&mut self.serve.absorbed);
            #[cfg(not(test))]
            let accrue = true;
            if accrue {
                let dt = t.since(accrued).as_secs_f64();
                if dt > 0.0 {
                    for r in running.values_mut() {
                        let g = r.slots.len() as f64;
                        busy_gpu_secs += g * dt;
                        if spans(r.drawer_mask) {
                            span_gpu_secs += g * dt;
                        }
                        tenant_gpu_secs[r.spec.tenant.0 as usize] += g * dt;
                        let eff = t.since(accrued.max(r.resume_at)).as_secs_f64();
                        if eff > 0.0 {
                            let done = (r.rate * eff).min(r.remaining_iters);
                            r.remaining_iters -= done;
                            r.iters_since_placement += done;
                        }
                        r.last_progress = t;
                    }
                    self.serve.accrue(accrued, t, &mut busy_gpu_secs, &mut tenant_gpu_secs);
                }
                accrued = t;
            }
            now = t;

            while next_arrival < jobs.len() && jobs[next_arrival].arrival == t {
                Self::enqueue(&mut pending, jobs[next_arrival].clone());
                next_arrival += 1;
            }

            let mut finished = std::mem::take(&mut self.scratch.finished);
            finished.clear();
            finished.extend(running.iter().filter(|(_, r)| r.finish_at <= t).map(|(&id, _)| id));
            let mut membership_changed = !finished.is_empty();
            for id in finished.drain(..) {
                let r = running.remove(&id).expect("id from the running set");
                self.release(now, r.spec.tenant.0, &r.slots, false)?;
                makespan = makespan.max(now);
                outcomes.push(JobOutcome {
                    id: r.spec.id,
                    tenant: r.spec.tenant.0,
                    benchmark: r.spec.benchmark.label().to_string(),
                    gpus: r.spec.gpus,
                    final_gpus: r.slots.len() as u8,
                    priority: r.spec.priority,
                    arrival: r.spec.arrival,
                    start: r.started,
                    finish: now,
                    spanned: r.ever_spanned,
                    shrunk: r.shrunk,
                });
            }
            self.scratch.finished = finished;

            while next_fault < timeline.len() && timeline[next_fault].0 <= t {
                let (_, _, action) = timeline[next_fault];
                next_fault += 1;
                let changed = match action {
                    FaultAction::Strike(i) => self.apply_fault(now, i, &mut running)?,
                    FaultAction::Heal(i) => self.heal_fault(now, i, &mut running)?,
                };
                membership_changed |= changed;
            }

            // Once every service has retired (`idle`), the serving step
            // and placement pass are guaranteed no-ops — skip them (and
            // the per-drawer training census they would need).
            if !self.serve.idle() {
                let tod = self.scratch.training_on_drawer(&running, self.topo.n_drawers());
                let stepped = self.serve.step(now, &self.rack, self.cfg.interference, tod)?;
                if stepped {
                    membership_changed = true;
                }
                if self.serve_place_pass(now, &mut running)? {
                    membership_changed = true;
                }
            }
            if self.schedule_pass(now, &mut pending, &mut running)? {
                membership_changed = true;
            }
            // Defragment only when nothing is waiting: queued or displaced
            // jobs have first claim on free capacity, and relocating under
            // them could steal the hole they are about to take.
            if self.cfg.defrag
                && pending.is_empty()
                && self.fstate.displaced.is_empty()
                && self.defrag_pass(now, &mut running)?
            {
                membership_changed = true;
            }
            if membership_changed {
                self.recompute_rates(&mut running);
            }
            // Amortized invariant checking: the full rack-wide and
            // per-chassis audit runs every `audit_every` events (and at
            // terminal states); the O(1) ledger check covers the rest.
            self.events_seen += 1;
            if self.events_seen % self.cfg.audit_every.max(1) == 0 {
                self.assert_conservation(now, &running);
            } else {
                self.check_ledger(now);
            }
        }

        self.assert_conservation(now, &running);
        self.serve.assert_drained();
        makespan = makespan.max(self.serve.last_activity());
        if let Some((_, stuck)) = self.fstate.displaced.first() {
            return Err(SchedulerError::Unplaceable {
                job: stuck.spec.id,
                policy: policy_name.to_string(),
            });
        }
        if let Some(stuck) = pending.first() {
            return Err(SchedulerError::Unplaceable {
                job: stuck.id,
                policy: policy_name.to_string(),
            });
        }
        // Every suspended entry shadows a pending spec, so a drained queue
        // means every preempted job resumed and finished.
        assert!(self.suspended.is_empty(), "preempted job never resumed");
        let recovery = if self.faults.is_empty() {
            None
        } else {
            Some(RecoveryMetrics::assemble(
                self.faults.events.len() as u32,
                self.fstate.evacuations,
                self.fstate.thermal_trips,
                &self.fstate.recovery_times,
                self.fstate.work_lost_gpu_secs,
            ))
        };
        // The migration block reports only when one of its levers was
        // armed: legacy configs keep their reports byte-identical.
        let migration = if self.cfg.preempt || self.cfg.defrag {
            Some(MigrationMetrics::assemble(
                self.mig.preemptions,
                self.mig.migrations,
                self.mig.work_lost_gpu_secs,
            ))
        } else {
            None
        };
        let audit = self.rack.audit_len(ADMIN)? as u64;
        let report = ScheduleReport::assemble(
            policy_name,
            trace_name,
            self.topo.total_gpus() as u32,
            outcomes,
            makespan.since(SimTime::ZERO),
            busy_gpu_secs,
            span_gpu_secs,
            tenant_gpu_secs,
            audit,
            recovery,
            migration,
            self.serve.assemble(),
        );
        Ok((report, self.probes))
    }

    /// Queue discipline: priority (desc), then arrival, then id. The
    /// policy never reorders the queue — it only picks slots.
    fn enqueue(pending: &mut Vec<JobSpec>, job: JobSpec) {
        let key = |j: &JobSpec| (std::cmp::Reverse(j.priority), j.arrival, j.id);
        let pos = pending.partition_point(|j| key(j) <= key(&job));
        pending.insert(pos, job);
    }

    /// The composition query: the rack's GPU slots neither attached nor
    /// failed, read from the slot sets the rack keeps. Callers build it
    /// only once they hold a job that could place.
    fn free_view(&self) -> FreeView {
        FreeView::new(self.rack.free_gpus(), self.topo.n_drawers())
    }

    /// Effective link health per global drawer under the active
    /// intra-chassis degrades (the minimum over overlapping events; 100
    /// when none).
    fn link_health(&self) -> Vec<u8> {
        let mut h = vec![100u8; self.topo.n_drawers()];
        for &(gd, pct) in self.fstate.degrades.values() {
            h[usize::from(gd)] = h[usize::from(gd)].min(pct);
        }
        h
    }

    /// Effective rack-tier link health under the active inter-chassis
    /// degrades (the minimum over overlapping events; 100 when none).
    fn rack_health(&self) -> u8 {
        self.fstate.rack_degrades.values().fold(100u8, |h, &pct| h.min(pct))
    }

    /// Alone-on-bed mean iteration time (s) for a placement under the
    /// current link health. A multi-chassis gang prices as its slowest
    /// per-chassis part stretched by [`cross_chassis_stretch`]: probe
    /// entries stay per-chassis-pure, so single-chassis prices (stretch
    /// exactly 1.0) are bit-identical to the pre-rack code.
    fn price_base(&mut self, benchmark: dlmodels::Benchmark, slots: &[RackAddr]) -> f64 {
        let health = self.link_health();
        let parts = chassis_parts(slots);
        let mut worst = 0.0f64;
        for (c, part) in &parts {
            let d0 = usize::from(*c) * 2;
            let (shape, h) = degraded_key(part, health[d0], health[d0 + 1]);
            let p = self.probes.price_degraded(benchmark, shape, h).mean_iter.as_secs_f64();
            worst = worst.max(p);
        }
        worst * cross_chassis_stretch(parts.len(), self.rack_health())
    }

    /// Re-price the running jobs inside `scope` after a link-health change.
    /// Skipped jobs would have priced to the same bits: prices are pure in
    /// (benchmark, per-chassis shape, that chassis's drawer healths, rack
    /// health), and single-chassis gangs ignore rack health entirely.
    /// Rates are rebuilt by the `recompute_rates` the caller triggers.
    fn reprice_all(&mut self, running: &mut BTreeMap<u64, Running>, scope: RepriceScope) {
        let mut ids = std::mem::take(&mut self.scratch.reprice_ids);
        ids.clear();
        ids.extend(running.keys().copied());
        for id in ids.drain(..) {
            let (benchmark, slots) = {
                let r = &running[&id];
                let affected = match scope {
                    RepriceScope::Chassis(c) => r.slots.iter().any(|s| s.chassis == c),
                    RepriceScope::RackTier => {
                        r.slots.iter().any(|s| s.chassis != r.slots[0].chassis)
                    }
                };
                if !affected {
                    continue;
                }
                (r.spec.benchmark, r.slots.clone())
            };
            let base = self.price_base(benchmark, &slots);
            running.get_mut(&id).expect("listed id").base_iter_secs = base;
        }
        self.scratch.reprice_ids = ids;
    }

    /// Compose `slots` into `tenant`'s host for training — an MCS-audited
    /// grant and attach per slot — and book them in the O(1) ledger.
    fn compose(
        &mut self,
        now: SimTime,
        tenant: u32,
        slots: &[RackAddr],
    ) -> Result<(), SchedulerError> {
        let (user, host) = (tenant_user(tenant), tenant_host(tenant));
        for &slot in slots {
            self.rack.grant(now, ADMIN, slot, user)?;
            self.rack.attach(now, user, slot, host)?;
        }
        self.ledger_slots += slots.len();
        self.ledger_tenant[tenant as usize] += slots.len();
        Ok(())
    }

    /// Detach `tenant`'s training `slots` through the MCS and unbook them
    /// from the ledger. A fault evacuation passes `forced`: the admin
    /// force-detaches slots whose hardware died under the job.
    fn release(
        &mut self,
        now: SimTime,
        tenant: u32,
        slots: &[RackAddr],
        forced: bool,
    ) -> Result<(), SchedulerError> {
        for &slot in slots {
            if forced {
                self.rack.force_detach(now, ADMIN, slot)?;
            } else {
                self.rack.detach(now, tenant_user(tenant), slot)?;
            }
        }
        self.ledger_slots -= slots.len();
        self.ledger_tenant[tenant as usize] -= slots.len();
        Ok(())
    }

    /// Seat `r` on freshly composed `slots`: price the new shape and
    /// restart its per-placement progress accounting at `now`, with no
    /// progress before `resume_at`. Rates are rebuilt by the
    /// `recompute_rates` every seating event triggers.
    fn seat(&mut self, now: SimTime, r: &mut Running, slots: Vec<RackAddr>, resume_at: SimTime) {
        r.base_iter_secs = self.price_base(r.spec.benchmark, &slots);
        r.drawer_mask = drawer_mask(slots.iter().copied());
        r.ever_spanned |= spans(r.drawer_mask);
        r.slots = slots;
        r.resume_at = resume_at;
        r.iters_since_placement = 0.0;
        r.last_progress = now;
    }

    /// GPUs `tenant` holds for training and serving — what its quota
    /// caps. Training comes from the O(1) ledger, serving from its slot
    /// counters; the full audit proves both exact.
    fn tenant_used(&self, tenant: u32) -> usize {
        self.ledger_tenant[tenant as usize] + self.serve.slots_per_tenant()[tenant as usize]
    }

    /// The cheap between-audit conservation check: the training ledger
    /// plus serving's slot count must equal the rack's attachment count
    /// exactly, the pool must not be oversubscribed, and no tenant may
    /// exceed quota. O(chassis count), no allocation.
    fn check_ledger(&self, now: SimTime) {
        let p = AuditPoint { event: self.events_seen, at: now };
        let total = self.ledger_slots + self.serve.n_slots();
        assert_eq!(total, self.rack.n_attachments(), "{p}: ledger diverged from rack attachments");
        assert!(total <= self.topo.total_gpus(), "{p}: pool oversubscribed");
        let serve_used = self.serve.slots_per_tenant();
        for (t, &u) in self.ledger_tenant.iter().enumerate() {
            assert!(
                u + serve_used[t] <= self.cfg.quota_gpus_per_tenant,
                "{p}: tenant {t} over quota: {u} training + {} serving",
                serve_used[t]
            );
        }
    }

    /// Apply plan event `i`: fail hardware, evacuate affected jobs through
    /// the MCS, and roll them back to their last checkpoint. Returns true
    /// if rates must be recomputed.
    fn apply_fault(
        &mut self,
        now: SimTime,
        i: usize,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let (chassis, kind) = {
            let e = &self.faults.events[i];
            (e.chassis, e.kind)
        };
        let fail_slots: Vec<RackAddr> = match kind {
            FaultKind::DrawerOutage { drawer } => {
                (0..8).map(|s| RackAddr::new(chassis, drawer, s)).collect()
            }
            FaultKind::SlotDeath { drawer, slot } => vec![RackAddr::new(chassis, drawer, slot)],
            FaultKind::LinkDegrade { drawer, pct } => {
                self.fstate.degrades.insert(i, (chassis * 2 + drawer, pct));
                self.reprice_all(running, RepriceScope::Chassis(chassis));
                return Ok(true);
            }
            FaultKind::RackLinkDegrade { pct } => {
                self.fstate.rack_degrades.insert(i, pct);
                self.reprice_all(running, RepriceScope::RackTier);
                return Ok(true);
            }
            FaultKind::ThermalTrip { drawer } => {
                // The genuine BMC path: the drawer's fan fails under full
                // load, the thermal model crosses its critical threshold,
                // and the *observed* Critical event drives the evacuation.
                let sensor = format!("drawer{drawer}");
                let bmc = &mut self.bmc[usize::from(chassis)];
                let before = bmc.events_at_least(Severity::Critical).len();
                bmc.set_fan_failed(now, &sensor, true);
                bmc.report_load(now, &sensor, 1.0);
                if bmc.events_at_least(Severity::Critical).len() > before {
                    self.fstate.thermal_trips += 1;
                    (0..8).map(|s| RackAddr::new(chassis, drawer, s)).collect()
                } else {
                    Vec::new()
                }
            }
        };

        for &slot in &fail_slots {
            let count = self.fstate.slot_down.entry(slot).or_insert(0);
            *count += 1;
            if *count == 1 {
                self.rack.fail_slot(now, ADMIN, slot)?;
            }
        }
        self.fstate.touched_by_event[i] = fail_slots;

        // Evacuate every running job touching a failed slot: force-detach
        // its whole gang (the collective is dead without the lost ranks),
        // roll back to the last checkpoint, and queue it for re-placement.
        let failed = self.rack.failed_set();
        // Serving replicas on failed slots fail over: their requests
        // re-queue onto survivors and the placement pass re-composes.
        let serve_evacuated = self.serve.evacuate_failed(now, &self.rack, failed)?;
        let affected: Vec<u64> = running
            .iter()
            .filter(|(_, r)| r.slots.iter().any(|s| s.in_set(failed)))
            .map(|(&id, _)| id)
            .collect();
        let evacuated = !affected.is_empty();
        for id in affected {
            let mut r = running.remove(&id).expect("id from the running set");
            self.release(now, r.spec.tenant.0, &r.slots, true)?;
            self.fstate.work_lost_gpu_secs += r.roll_back();
            self.fstate.evacuations += 1;
            self.fstate.displaced.push((now, r));
        }
        Ok(evacuated || serve_evacuated)
    }

    /// Reverse plan event `i`: repair slots whose last covering fault
    /// ended, restore fans, lift degrades.
    fn heal_fault(
        &mut self,
        now: SimTime,
        i: usize,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let (chassis, kind) = {
            let e = &self.faults.events[i];
            (e.chassis, e.kind)
        };
        if matches!(kind, FaultKind::LinkDegrade { .. } | FaultKind::RackLinkDegrade { .. }) {
            self.fstate.degrades.remove(&i);
            self.fstate.rack_degrades.remove(&i);
            let scope = match kind {
                FaultKind::LinkDegrade { .. } => RepriceScope::Chassis(chassis),
                _ => RepriceScope::RackTier,
            };
            self.reprice_all(running, scope);
            return Ok(true);
        }
        if let FaultKind::ThermalTrip { drawer } = kind {
            let sensor = format!("drawer{drawer}");
            let bmc = &mut self.bmc[usize::from(chassis)];
            bmc.set_fan_failed(now, &sensor, false);
            bmc.report_load(now, &sensor, 0.0);
        }
        for slot in std::mem::take(&mut self.fstate.touched_by_event[i]) {
            let count = self.fstate.slot_down.get_mut(&slot).expect("refcounted slot");
            *count -= 1;
            if *count == 0 {
                self.fstate.slot_down.remove(&slot);
                self.rack.repair_slot(now, ADMIN, slot)?;
            }
        }
        Ok(false)
    }

    /// Place as many queued jobs as the policy allows, in strict queue
    /// order: the first quota-eligible job that cannot be placed blocks
    /// the line (no backfill — that keeps every admitted job free of
    /// starvation), except that quota-blocked jobs are stepped over.
    fn schedule_pass(
        &mut self,
        now: SimTime,
        pending: &mut Vec<JobSpec>,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let mut changed = false;
        if self.replace_displaced(now, running)? {
            changed = true;
        }
        // Displaced jobs were admitted long ago: while any waits, the
        // pending queue stays blocked behind them (no backfill).
        if !self.fstate.displaced.is_empty() {
            return Ok(changed);
        }
        loop {
            let head = pending.iter().enumerate().find(|(_, j)| {
                self.tenant_used(j.tenant.0) + usize::from(j.gpus) <= self.cfg.quota_gpus_per_tenant
            });
            let Some((i, job)) = head else { break };
            let free = self.free_view();
            match self.policy.place(job, &free, &mut self.probes) {
                Some(slots) => {
                    debug_assert_eq!(slots.len(), usize::from(job.gpus));
                    let spec = pending.remove(i);
                    self.start_job(now, spec, slots, running)?;
                    changed = true;
                }
                None => {
                    // Preempt or shrink only on a genuine capacity
                    // shortage; if the policy is holding out for a
                    // better-shaped placement, clawing back a victim's
                    // GPUs would not unblock it.
                    let shortage = free.total() < usize::from(job.gpus);
                    if shortage && self.cfg.preempt {
                        let head = job.clone();
                        if self.preempt_for(now, &head, pending, running)? {
                            changed = true;
                            continue;
                        }
                    }
                    if !self.cfg.elastic || !shortage {
                        break;
                    }
                    if !self.try_shrink(now, running, false)? {
                        break;
                    }
                    changed = true;
                }
            }
        }
        Ok(changed)
    }

    /// Re-place fault-evacuated jobs, in admission order (priority desc,
    /// arrival, id). A re-placed job pays [`RECOMPOSE_LATENCY`] before
    /// progressing; its recovery time runs fault → resume. When capacity
    /// is genuinely gone, a displaced elastic job shrinks itself (then
    /// claws back other elastic jobs) before giving up until the next
    /// event.
    fn replace_displaced(
        &mut self,
        now: SimTime,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let mut changed = false;
        self.fstate
            .displaced
            .sort_by_key(|(_, r)| (std::cmp::Reverse(r.spec.priority), r.spec.arrival, r.spec.id));
        let mut i = 0;
        while i < self.fstate.displaced.len() {
            let (want, tenant, min_gpus, probe_spec) = {
                let (_, r) = &self.fstate.displaced[i];
                (
                    r.slots.len(),
                    r.spec.tenant.0,
                    usize::from(r.spec.min_gpus),
                    JobSpec { gpus: r.slots.len() as u8, ..r.spec.clone() },
                )
            };
            if self.tenant_used(tenant) + want > self.cfg.quota_gpus_per_tenant {
                // Pending jobs of this tenant may have filled the quota
                // while the job was displaced; step over, retry on the
                // next completion.
                i += 1;
                continue;
            }
            let free = self.free_view();
            match self.policy.place(&probe_spec, &free, &mut self.probes) {
                Some(slots) => {
                    debug_assert_eq!(slots.len(), want);
                    let (fault_at, mut r) = self.fstate.displaced.remove(i);
                    self.compose(now, tenant, &slots)?;
                    self.seat(now, &mut r, slots, now + RECOMPOSE_LATENCY);
                    self.fstate.recovery_times.push(r.resume_at.since(fault_at));
                    running.insert(r.spec.id, r);
                    changed = true;
                }
                None => {
                    let shortage = free.total() < want;
                    if self.cfg.elastic && shortage && want > min_gpus {
                        // Surviving capacity cannot hold the old gang:
                        // resume smaller, conserving GPU-iterations.
                        let r = &mut self.fstate.displaced[i].1;
                        let new = min_gpus.max(want / 2);
                        r.remaining_iters *= want as f64 / new as f64;
                        r.slots.truncate(new);
                        r.shrunk = true;
                        continue;
                    }
                    if self.cfg.elastic && shortage && self.try_shrink(now, running, false)? {
                        changed = true;
                        continue;
                    }
                    break;
                }
            }
        }
        Ok(changed)
    }

    /// Checkpoint-preempt the victim [`PlacePolicy::choose_victim`] picks
    /// for the capacity-blocked queue head: roll the victim back to its
    /// last checkpoint, detach its whole gang through the MCS, and
    /// re-queue it at its current allocation. Queue discipline (priority
    /// desc) re-places it behind every higher tier, and a victim's tier is
    /// strictly below the head's, so a preempted job can never preempt its
    /// preemptor — the pass terminates.
    fn preempt_for(
        &mut self,
        now: SimTime,
        head: &JobSpec,
        pending: &mut Vec<JobSpec>,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let views: Vec<RunningView> = running
            .values()
            .map(|r| RunningView {
                id: r.spec.id,
                tenant: r.spec.tenant.0,
                priority: r.spec.priority,
                slots: &r.slots,
            })
            .collect();
        let Some(vid) = self.policy.choose_victim(head, &views) else { return Ok(false) };
        // A policy may only sacrifice strictly lower tiers; anything else
        // could cycle (preemptor and victim trading places forever).
        if !running.get(&vid).is_some_and(|r| r.spec.priority < head.priority) {
            return Ok(false);
        }
        let mut r = running.remove(&vid).expect("victim is running");
        self.release(now, r.spec.tenant.0, &r.slots, false)?;
        self.mig.work_lost_gpu_secs += r.roll_back();
        self.mig.preemptions += 1;
        // Re-queue sized to the held allocation (a prior shrink may have
        // reduced it below the original request).
        let held = r.slots.len() as u8;
        let spec = JobSpec { gpus: held, min_gpus: r.spec.min_gpus.min(held), ..r.spec.clone() };
        Self::enqueue(pending, spec);
        self.suspended.insert(r.spec.id, r);
        Ok(true)
    }

    /// Migration-based defragmentation: live-migrate at most one
    /// drawer-spanning job per event onto the placement
    /// [`PlacePolicy::migrate`] proposes, but only when the move is a net
    /// win — the rolled-back remainder at the new shape, plus the
    /// re-composition latency, beats the remainder at the old shape. The
    /// net-win gate (and the strictly-fewer-drawers requirement) prevents
    /// relocation thrash. The move detaches the slots the job leaves,
    /// composes the ones it gains (slots in both placements stay attached
    /// throughout), rolls the job back to its last checkpoint, and holds
    /// its progress until [`RECOMPOSE_LATENCY`] passes.
    fn defrag_pass(
        &mut self,
        now: SimTime,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        // Built at the first candidate: nothing moves before the one
        // migration this pass makes, so it serves every candidate after.
        let mut free = None;
        for r in running.values_mut() {
            // Mid-recompose jobs are already paying a relocation; spanning
            // is the only fragmentation this pass exists to reduce.
            if r.resume_at > now || !spans(r.drawer_mask) {
                continue;
            }
            let free = free.get_or_insert_with(|| self.free_view());
            let Some(new_slots) = self
                .policy
                .migrate(&r.spec, &r.slots, free, &mut self.probes)
            else {
                continue;
            };
            if new_slots.len() != r.slots.len()
                || drawers_spanned(&new_slots) >= r.drawer_mask.count_ones() as usize
            {
                continue;
            }
            let new_base = self.price_base(r.spec.benchmark, &new_slots);
            let old_secs = r.remaining_iters * r.base_iter_secs;
            let new_secs = (r.remaining_iters + r.uncheckpointed_iters()) * new_base
                + RECOMPOSE_LATENCY.as_secs_f64();
            // Tunable policies can demand a migration clear the bar by a
            // margin; 1.0 (every preset) is the exact legacy gate.
            if new_secs * self.policy.defrag_margin() >= old_secs {
                continue;
            }
            let leaving: Vec<RackAddr> =
                r.slots.iter().copied().filter(|s| !new_slots.contains(s)).collect();
            let joining: Vec<RackAddr> =
                new_slots.iter().copied().filter(|s| !r.slots.contains(s)).collect();
            self.release(now, r.spec.tenant.0, &leaving, false)?;
            self.compose(now, r.spec.tenant.0, &joining)?;
            self.mig.work_lost_gpu_secs += r.roll_back();
            self.seat(now, r, new_slots, now + RECOMPOSE_LATENCY);
            self.mig.migrations += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// Compose replicas for every service below its replica target. The
    /// policy picks a fractional slot from the tenant's partially-used
    /// serving slots plus (under quota) wholly free slots; fresh slots go
    /// through the full MCS grant/attach path. Policies with
    /// [`PlacePolicy::evict_for_slo`] may claw back elastic training
    /// capacity when a pressured service cannot place otherwise.
    fn serve_place_pass(
        &mut self,
        now: SimTime,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<bool, SchedulerError> {
        let mut changed = false;
        loop {
            let wants = self.serve.placement_wants();
            if wants.is_empty() {
                break;
            }
            let mut progressed = false;
            for (i, tenant, slice, start) in wants {
                loop {
                    let free = self.free_view();
                    let mut free_gpus = vec![0usize; self.topo.n_drawers()];
                    for s in free.slots() {
                        free_gpus[s.global_drawer()] += 1;
                    }
                    let at_quota = self.tenant_used(tenant) + 1 > self.cfg.quota_gpus_per_tenant;
                    let view =
                        self.serve.slice_view(tenant, free.slots(), free_gpus, at_quota);
                    match self.policy.place_replica(slice, &view) {
                        Some(slot) => {
                            if !self.serve.uses_slot(slot) {
                                let user = tenant_user(tenant);
                                self.rack.grant(now, ADMIN, slot, user)?;
                                self.rack.attach(now, user, slot, tenant_host(tenant))?;
                            }
                            // The initial composition at the service start
                            // is pre-planned; scale-ups and failovers pay
                            // the re-composition latency.
                            let ready_at = if now == start {
                                now
                            } else {
                                now + RECOMPOSE_LATENCY
                            };
                            self.serve.add_replica(i, slot, ready_at);
                            progressed = true;
                            changed = true;
                            break;
                        }
                        None => {
                            if self.cfg.elastic
                                && self.policy.evict_for_slo()
                                && self.serve.under_pressure(i, now, self.policy.slo_claw_band())
                                && self.try_shrink(now, running, true)?
                            {
                                changed = true;
                                continue;
                            }
                            break;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if changed {
            let tod = self.scratch.training_on_drawer(running, self.topo.n_drawers());
            self.serve.try_launch_all(now, self.cfg.interference, tod);
        }
        Ok(changed)
    }

    /// Place `spec` on `slots`: compose the gang and seat the job. A
    /// preempted job resumes rather than starts: its checkpointed
    /// remainder, original request, and outcome flags carry over, and it
    /// pays the re-composition latency before progressing again.
    fn start_job(
        &mut self,
        now: SimTime,
        spec: JobSpec,
        slots: Vec<RackAddr>,
        running: &mut BTreeMap<u64, Running>,
    ) -> Result<(), SchedulerError> {
        self.compose(now, spec.tenant.0, &slots)?;
        let (mut r, resume_at) = match self.suspended.remove(&spec.id) {
            Some(r) => (r, now + RECOMPOSE_LATENCY),
            None => {
                let fresh = Running {
                    remaining_iters: spec.iters as f64,
                    spec,
                    slots: Vec::new(),
                    drawer_mask: 0,
                    started: now,
                    // `seat` prices the placement; `recompute_rates` sets
                    // the rate and finish time before either is read.
                    base_iter_secs: 0.0,
                    rate: 0.0,
                    finish_at: SimTime::MAX,
                    last_progress: now,
                    resume_at: now,
                    iters_since_placement: 0.0,
                    ever_spanned: false,
                    shrunk: false,
                };
                (fresh, now)
            }
        };
        self.seat(now, &mut r, slots, resume_at);
        running.insert(r.spec.id, r);
        Ok(())
    }

    /// Claw back GPUs from the running elastic job holding the most slots
    /// (ties to the lowest id), releasing whole-drawer remainders first.
    ///
    /// Training-side pressure halves the victim's gang (the displaced job
    /// needs a real allocation); SLO-side pressure (`gentle`) releases a
    /// single slot, since an inference replica only ever needs one GPU.
    fn try_shrink(
        &mut self,
        now: SimTime,
        running: &mut BTreeMap<u64, Running>,
        gentle: bool,
    ) -> Result<bool, SchedulerError> {
        let victim = running
            .values()
            .filter(|r| r.slots.len() > usize::from(r.spec.min_gpus))
            .max_by_key(|r| (r.slots.len(), std::cmp::Reverse(r.spec.id)))
            .map(|r| r.spec.id);
        let Some(id) = victim else { return Ok(false) };
        let r = running.get_mut(&id).expect("victim is running");
        let old = r.slots.len();
        let floor = self.policy.shrink_floor(old, gentle);
        let new = usize::from(r.spec.min_gpus).max(floor);
        debug_assert!(new < old);
        // Keep the global drawer where the job holds the most slots (ties
        // to the lowest drawer); release the rest (highest addresses
        // first) so the freed hole is as whole as possible.
        let mut per = vec![0usize; self.topo.n_drawers()];
        for s in &r.slots {
            per[s.global_drawer()] += 1;
        }
        let major = per
            .iter()
            .enumerate()
            .max_by_key(|&(d, &n)| (n, std::cmp::Reverse(d)))
            .map(|(d, _)| d)
            .expect("victim holds at least one slot");
        r.slots
            .sort_by_key(|s| (s.global_drawer() != major, s.global_drawer(), s.slot.slot));
        let released = r.slots.split_off(new);
        r.drawer_mask = drawer_mask(r.slots.iter().copied());
        self.release(now, r.spec.tenant.0, &released, false)?;
        // Constant total work in GPU-iterations: fewer GPUs, more
        // remaining iterations at the new (cheaper per-iteration) shape.
        r.remaining_iters *= old as f64 / new as f64;
        r.base_iter_secs = self.price_base(r.spec.benchmark, &r.slots);
        r.shrunk = true;
        Ok(true)
    }

    /// Resource-conservation invariants, checked every `audit_every`
    /// events and at drain, as algebra over [slot sets](slot_set): no slot
    /// is double-booked, the rack's attachment tables hold exactly the
    /// training bookings plus the serving slots, the slot sets the rack
    /// keeps match the same tables, no job or replica sits on failed
    /// hardware, the failed slots are exactly the fault refcounts' keys,
    /// the O(1) ledgers and counters match a recount, and no tenant
    /// exceeds its quota. Bits encode the chassis, so each set equality
    /// holds rack-wide and per chassis at once. Allocation-free unless
    /// it fails, so it runs in release builds too; a breach names the
    /// event and sim-time.
    fn assert_conservation(&self, now: SimTime, running: &BTreeMap<u64, Running>) {
        let p = AuditPoint { event: self.events_seen, at: now };
        let mut booked = 0u128;
        let mut used = [0usize; MAX_TENANTS as usize];
        for r in running.values() {
            let set = slot_set(r.slots.iter().copied());
            assert!(
                set.count_ones() as usize == r.slots.len(),
                "{p}: job {} double-booked: it lists a slot twice in {}",
                r.spec.id,
                named(set)
            );
            assert!(
                set & booked == 0,
                "{p}: slot {} double-booked by job {} and an earlier job",
                named(set & booked),
                r.spec.id
            );
            booked |= set;
            used[r.spec.tenant.0 as usize] += r.slots.len();
            assert_eq!(
                r.drawer_mask,
                drawer_mask(r.slots.iter().copied()),
                "{p}: job {} kept drawer mask diverged from its slots",
                r.spec.id
            );
        }
        // Serving slots are disjoint from training slots and count toward
        // the holding tenant's quota (a sliced slot occupies the whole
        // slot as far as composition goes).
        let serving = self.serve.slot_set();
        assert!(
            booked & serving == 0,
            "{p}: slot {} booked by training and serving",
            named(booked & serving)
        );
        let (n_booked, n_serving) = (booked.count_ones() as usize, serving.count_ones() as usize);
        let serve_used = self.serve.slots_per_tenant();
        assert!(n_booked + n_serving <= self.topo.total_gpus(), "{p}: pool oversubscribed");
        for (t, &u) in used.iter().enumerate() {
            assert!(
                u + serve_used[t] <= self.cfg.quota_gpus_per_tenant,
                "{p}: tenant {t} over quota: {u} training + {} serving",
                serve_used[t]
            );
        }
        // The O(1) ledgers the cheap between-audit check leans on must
        // match the ground truth re-derived above.
        assert_eq!(self.ledger_slots, n_booked, "{p}: training slot ledger diverged");
        for (t, &u) in used.iter().enumerate() {
            assert_eq!(self.ledger_tenant[t], u, "{p}: tenant {t} training ledger diverged");
        }
        assert_eq!(
            self.serve.audit_slots_per_tenant(),
            serve_used,
            "{p}: serving tenant-slot counters diverged"
        );
        assert_eq!(n_serving, self.serve.n_slots(), "{p}: serving slot count diverged");
        // The chassis tables, re-derived in one walk, against the kept
        // sets and the bookings.
        let (attached, failed) = self.rack.table_sets();
        assert_eq!(
            self.rack.attached_set(),
            attached,
            "{p}: rack's kept attached set diverged from the chassis tables"
        );
        assert!(
            attached == booked | serving,
            "{p}: scheduler view diverged from rack attachments at {}",
            named(attached ^ (booked | serving))
        );
        // Degraded-state invariants: no job runs on failed hardware, and
        // the rack's failed set matches the fault refcounts exactly.
        assert_eq!(
            self.rack.failed_set(),
            failed,
            "{p}: rack's kept failed set diverged from the chassis tables"
        );
        assert!(failed & booked == 0, "{p}: job occupies failed slot {}", named(failed & booked));
        assert!(
            failed & serving == 0,
            "{p}: replica occupies failed slot {}",
            named(failed & serving)
        );
        let refcounted = slot_set(self.fstate.slot_down.keys().copied());
        assert!(
            failed == refcounted,
            "{p}: rack failed set diverged from fault refcounts at {}",
            named(failed ^ refcounted)
        );
    }

    /// Rates are piecewise constant between events: every membership or
    /// placement change re-prices each running job as its alone-on-bed
    /// iteration rate diluted by co-residents sharing a drawer switch.
    fn recompute_rates(&mut self, running: &mut BTreeMap<u64, Running>) {
        // Kept drawer masks in running-set (id) order, tallied per drawer
        // once per call. Neighbor counts are integers, so the dilation
        // floats come from the same numbers as a pairwise scan.
        let sc = &mut self.scratch;
        sc.job_masks.clear();
        sc.job_masks.extend(running.values().map(|r| r.drawer_mask));
        // Each live service counts once as a neighbor to training jobs
        // sharing its drawer(s) — co-location costs both sides. Empty for
        // training-only replays, leaving their float math bit-identical.
        sc.svc_masks.clear();
        self.serve.live_service_drawer_masks_into(&mut sc.svc_masks);
        let nd = self.topo.n_drawers();
        tally_drawers(sc.job_masks.iter().copied(), nd, &mut sc.tod);
        tally_drawers(sc.svc_masks.iter().copied(), nd, &mut sc.svc_on);
        for (j, r) in running.values_mut().enumerate() {
            let n = neighbors(j, &sc.job_masks, &sc.svc_masks, &sc.tod, &sc.svc_on);
            r.rate = 1.0 / (r.base_iter_secs * dilation(self.cfg.interference, n));
            // Progress resumes only after any re-composition window.
            r.finish_at = r.last_progress.max(r.resume_at)
                + Dur::from_secs_f64(r.remaining_iters / r.rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{paper_fault_plan, FaultEvent};
    use crate::policy::{resolve_policy, POLICY_NAMES};
    use crate::scenario::{FaultSpec, Scenario, Topology, TraceSpec};
    use crate::serve::{seeded_pai_mix, ArrivalKind};
    use crate::trace::{seeded_two_tenant, PoissonMix, TenantId};
    use desim::SimRng;
    use dlmodels::Benchmark;
    use std::sync::Mutex;

    fn tiny_trace() -> Trace {
        seeded_two_tenant(6, 11)
    }

    fn tiny_mix() -> MixedTrace {
        seeded_pai_mix(6, 4, 0x11)
    }

    /// Every test replays through the one builder: `work` under the named
    /// policy on one chassis with a cold probe cache and `plan` injected.
    fn replay(
        work: impl Into<MixedTrace>,
        policy: &str,
        cfg: SchedulerConfig,
        plan: FaultPlan,
    ) -> Result<ScheduleReport, SchedulerError> {
        let probes = ProbeCache::new(cfg.probe_iters);
        let policy = resolve_policy(policy).expect("registered policy");
        ClusterSim::with_probe_cache_mixed_on(RackTopology::SINGLE, work.into(), policy, cfg, probes)?
            .with_faults(plan)?
            .run_report()
            .map(|(report, _)| report)
    }

    #[test]
    fn replay_completes_every_job() {
        let trace = tiny_trace();
        let n = trace.jobs.len() as u32;
        let report =
            replay(trace, "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none()).unwrap();
        assert_eq!(report.n_jobs, n);
        assert!(report.makespan > Dur::ZERO);
        assert!(report.gpu_util > 0.0 && report.gpu_util <= 1.0);
        for o in &report.jobs {
            assert!(o.start >= o.arrival);
            assert!(o.finish > o.start);
        }
        // Every start/finish left an MCS audit trail.
        assert!(report.audit_entries > 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            replay(tiny_trace(), "frag-aware", SchedulerConfig::default(), FaultPlan::none())
                .unwrap()
                .to_json_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_rejects_bad_specs() {
        let admit =
            |t: Trace| replay(t, "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none());
        let mut t = tiny_trace();
        t.jobs[0].gpus = 0;
        assert!(matches!(admit(t), Err(SchedulerError::BadDemand { .. })));

        let mut t = tiny_trace();
        t.jobs[0].tenant = TenantId(5);
        assert!(matches!(admit(t), Err(SchedulerError::TooManyTenants { .. })));

        let mut t = tiny_trace();
        t.jobs[0].gpus = 14;
        t.jobs[0].min_gpus = 14;
        assert!(matches!(admit(t), Err(SchedulerError::QuotaUnsatisfiable { .. })));

        let mut t = tiny_trace();
        t.jobs[1].id = t.jobs[0].id;
        assert!(matches!(admit(t), Err(SchedulerError::DuplicateJobId { .. })));
    }

    #[test]
    fn quota_caps_a_tenant() {
        // One tenant floods the cluster; its concurrent GPUs never exceed
        // the quota, so the queue drains in arrival order under the cap.
        let jobs: Vec<JobSpec> = (0..4)
            .map(|id| JobSpec {
                id,
                tenant: TenantId(0),
                benchmark: Benchmark::MobileNetV2,
                gpus: 4,
                min_gpus: 4,
                priority: 1,
                arrival: SimTime::ZERO,
                iters: 6,
            })
            .collect();
        let trace = Trace { name: "flood".into(), jobs };
        let cfg = SchedulerConfig { quota_gpus_per_tenant: 8, ..SchedulerConfig::default() };
        let report = replay(trace, "fifo-first-fit", cfg, FaultPlan::none()).unwrap();
        assert_eq!(report.n_jobs, 4);
        // With an 8-GPU cap only two 4-GPU jobs run at once: the last two
        // must start strictly after the first two.
        let mut starts: Vec<SimTime> = report.jobs.iter().map(|o| o.start).collect();
        starts.sort();
        assert!(starts[2] > starts[0]);
    }

    #[test]
    fn elastic_shrink_fires_under_pressure() {
        // An 8-GPU elastic job holds the pool busy enough that a burst of
        // arrivals forces a claw-back.
        let mut jobs = vec![JobSpec {
            id: 0,
            tenant: TenantId(0),
            benchmark: Benchmark::ResNet50,
            gpus: 8,
            min_gpus: 4,
            priority: 1,
            arrival: SimTime::ZERO,
            iters: 48,
        }];
        for id in 1..4 {
            jobs.push(JobSpec {
                id,
                tenant: TenantId(1),
                benchmark: Benchmark::MobileNetV2,
                gpus: 4,
                min_gpus: 4,
                priority: 1,
                arrival: SimTime::from_millis(100),
                iters: 6,
            });
        }
        let trace = Trace { name: "pressure".into(), jobs };
        let report =
            replay(trace, "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none()).unwrap();
        let big = report.jobs.iter().find(|o| o.id == 0).unwrap();
        assert!(big.shrunk, "the elastic job should have been clawed back");
        assert_eq!(big.final_gpus, 4);
        assert_eq!(report.shrunk_jobs, 1);
    }

    #[test]
    fn all_policies_drain_the_same_trace() {
        let n = tiny_trace().jobs.len() as u32;
        for name in &POLICY_NAMES[..4] {
            let r = replay(tiny_trace(), name, SchedulerConfig::default(), FaultPlan::none())
                .unwrap();
            assert_eq!(r.n_jobs, n, "{name} lost jobs");
            assert!((0.0..=1.0).contains(&r.fairness));
        }
    }

    #[test]
    fn drawer_outage_evacuates_and_recovers() {
        // One 8-GPU job starts at t=0 (fifo-first-fit fills drawer 0
        // first); drawer 0 dies mid-run and heals later.
        let trace = || Trace {
            name: "one-big".into(),
            jobs: vec![JobSpec {
                id: 0,
                tenant: TenantId(0),
                benchmark: Benchmark::ResNet50,
                gpus: 8,
                min_gpus: 4,
                priority: 1,
                arrival: SimTime::ZERO,
                iters: 64,
            }],
        };
        let plan = FaultPlan {
            name: "outage".into(),
            events: vec![FaultEvent {
                at: SimTime::from_secs(2),
                chassis: 0,
                kind: FaultKind::DrawerOutage { drawer: 0 },
                duration: Dur::from_secs(5),
            }],
        };
        let report = replay(trace(), "fifo-first-fit", SchedulerConfig::default(), plan).unwrap();
        assert_eq!(report.n_jobs, 1, "the job survives the outage");
        let rec = report.recovery.expect("faulty replay reports recovery");
        assert_eq!(rec.fault_events, 1);
        assert_eq!(rec.evacuations, 1);
        // Recovery includes the re-composition latency by construction.
        assert!(rec.mean_recovery >= RECOMPOSE_LATENCY, "{:?}", rec.mean_recovery);
        // The outage struck at 2 s ≈ several iterations in, so some work
        // rolled back to the last checkpoint.
        assert!(rec.work_lost_gpu_secs > 0.0);
        // The faulty JCT strictly exceeds the fault-free one.
        let baseline =
            replay(trace(), "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none())
                .unwrap();
        assert!(report.mean_jct > baseline.mean_jct);
    }

    #[test]
    fn thermal_trip_drives_evacuation_through_the_bmc() {
        let trace = Trace {
            name: "hot".into(),
            jobs: vec![JobSpec {
                id: 0,
                tenant: TenantId(0),
                benchmark: Benchmark::MobileNetV2,
                gpus: 4,
                min_gpus: 4,
                priority: 1,
                arrival: SimTime::ZERO,
                iters: 64,
            }],
        };
        let plan = FaultPlan {
            name: "trip".into(),
            events: vec![FaultEvent {
                at: SimTime::from_secs(1),
                chassis: 0,
                kind: FaultKind::ThermalTrip { drawer: 0 },
                duration: Dur::from_secs(3),
            }],
        };
        let rec = replay(trace, "fifo-first-fit", SchedulerConfig::default(), plan)
            .unwrap()
            .recovery
            .unwrap();
        assert_eq!(rec.thermal_trips, 1, "the BMC critical event must fire");
        assert_eq!(rec.evacuations, 1);
    }

    #[test]
    fn link_degrade_slows_jobs_without_evacuating() {
        let trace = Trace {
            name: "degraded".into(),
            jobs: vec![JobSpec {
                id: 0,
                tenant: TenantId(0),
                benchmark: Benchmark::BertLarge,
                gpus: 4,
                min_gpus: 4,
                priority: 1,
                arrival: SimTime::ZERO,
                iters: 32,
            }],
        };
        let clean =
            replay(trace.clone(), "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none())
                .unwrap();
        let plan = FaultPlan {
            name: "slow-links".into(),
            events: vec![FaultEvent {
                at: SimTime::from_secs(1),
                chassis: 0,
                kind: FaultKind::LinkDegrade { drawer: 0, pct: 50 },
                duration: Dur::from_secs(1_000),
            }],
        };
        let report = replay(trace, "fifo-first-fit", SchedulerConfig::default(), plan).unwrap();
        let rec = report.recovery.as_ref().unwrap();
        assert_eq!(rec.evacuations, 0, "degrade keeps the placement");
        assert_eq!(rec.mean_recovery, Dur::ZERO);
        assert!(
            report.mean_jct > clean.mean_jct,
            "half-bandwidth links must stretch the job: {:?} vs {:?}",
            report.mean_jct,
            clean.mean_jct
        );
    }

    #[test]
    fn faulty_replay_is_deterministic_and_fault_free_report_is_unchanged() {
        let run = |plan: FaultPlan| {
            replay(tiny_trace(), "frag-aware", SchedulerConfig::default(), plan)
                .unwrap()
                .to_json_string()
        };
        assert_eq!(run(paper_fault_plan()), run(paper_fault_plan()));
        // The recovery block only serializes when faults ran.
        assert!(!run(FaultPlan::none()).contains("\"recovery\""));
    }

    #[test]
    fn bad_fault_plans_are_rejected() {
        let plan = FaultPlan {
            name: "bad".into(),
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                chassis: 0,
                kind: FaultKind::DrawerOutage { drawer: 7 },
                duration: Dur::from_secs(1),
            }],
        };
        let r = replay(tiny_trace(), "fifo-first-fit", SchedulerConfig::default(), plan);
        assert!(matches!(r, Err(SchedulerError::BadFault { .. })));
    }

    #[test]
    fn mixed_replay_drains_jobs_and_services() {
        let mix = tiny_mix();
        let n = mix.jobs.len() as u32;
        let n_svcs = mix.services.len() as u32;
        let report =
            replay(mix, "slo-aware-pack", SchedulerConfig::default(), FaultPlan::none()).unwrap();
        assert_eq!(report.n_jobs, n);
        let serve = report.serve.expect("mixed replay reports serving metrics");
        assert_eq!(serve.n_services, n_svcs);
        assert!(serve.generated > 0, "services saw traffic");
        assert_eq!(serve.generated, serve.completed + serve.dropped, "request conservation");
        assert!(serve.p99_latency >= serve.p50_latency);
        assert!((0.0..=1.0).contains(&serve.attainment));
        assert!(serve.replica_secs > 0.0);
        for s in &serve.services {
            assert_eq!(s.generated, s.completed + s.dropped, "service {}", s.id);
        }
    }

    #[test]
    fn mixed_replay_is_deterministic() {
        let run = || {
            replay(tiny_mix(), "slo-aware-pack", SchedulerConfig::default(), FaultPlan::none())
                .unwrap()
                .to_json_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn training_only_replays_never_serialize_a_serve_block() {
        let report =
            replay(tiny_trace(), "fifo-first-fit", SchedulerConfig::default(), FaultPlan::none())
                .unwrap();
        assert!(report.serve.is_none());
        assert!(!report.to_json_string().contains("\"serve\""));
    }

    #[test]
    fn mixed_admission_rejects_bad_specs() {
        let admit = |m: MixedTrace| {
            replay(m, "slo-aware-pack", SchedulerConfig::default(), FaultPlan::none())
        };
        let mut m = tiny_mix();
        m.services[0].slice = 3;
        assert!(matches!(admit(m), Err(SchedulerError::BadService { .. })));

        let mut m = tiny_mix();
        m.services[1].id = m.services[0].id;
        assert!(matches!(admit(m), Err(SchedulerError::BadService { .. })));

        let mut m = tiny_mix();
        m.jobs[1].id = m.jobs[0].id;
        assert!(matches!(admit(m), Err(SchedulerError::DuplicateJobId { .. })));

        let empty = MixedTrace { name: "void".into(), jobs: vec![], services: vec![] };
        assert!(matches!(admit(empty), Err(SchedulerError::EmptyTrace)));
    }

    /// One drawer mask's raw draw: a drawer, whether the mask spans, and
    /// the extra bits a spanning mask adds.
    fn raw_mask() -> testkit::Gen<(u8, bool, u64)> {
        testkit::tuple3(testkit::u8_in(0..16), testkit::bools(), testkit::u64_in(0..u64::MAX))
    }

    /// Drawer masks on `n_drawers` drawers: each holds its drawn drawer,
    /// and a spanning one adds its extra bits inside the rack.
    fn masks(n_drawers: u8, raw: &[(u8, bool, u64)]) -> Vec<u64> {
        let all = (1u64 << n_drawers) - 1;
        raw.iter()
            .map(|&(d, spans, extra)| 1 << (d % n_drawers) | if spans { extra & all } else { 0 })
            .collect()
    }

    testkit::property! {
        /// Tallied neighbors equal the pairwise scan for every job, on
        /// random job and service masks over 1–16 drawers, spanning
        /// gangs and services included.
        #[cases(256)]
        fn tallied_neighbors_match_the_pairwise_scan(
            nd in testkit::u8_in(1..17),
            jobs in testkit::vec_of(raw_mask(), 1..24),
            svcs in testkit::vec_of(raw_mask(), 0..12)
        ) {
            let (job_masks, svc_masks) = (masks(nd, &jobs), masks(nd, &svcs));
            let (mut jobs_on, mut svcs_on) = (Vec::new(), Vec::new());
            tally_drawers(job_masks.iter().copied(), usize::from(nd), &mut jobs_on);
            tally_drawers(svc_masks.iter().copied(), usize::from(nd), &mut svcs_on);
            for j in 0..job_masks.len() {
                testkit::prop_assert_eq!(
                    neighbors(j, &job_masks, &svc_masks, &jobs_on, &svcs_on),
                    pairwise_neighbors(j, &job_masks, &svc_masks),
                    "job {j} of masks {job_masks:?}, services {svc_masks:?}"
                );
            }
        }
    }

    #[test]
    fn drawer_outage_fails_over_serving_replicas() {
        // A service-only mix: one long-lived service starts at t=0.
        // slo-aware-pack packs replicas at the highest address (drawer 1),
        // so that drawer dies mid-window and heals; replicas must fail
        // over to drawer 0.
        let mix = MixedTrace {
            name: "serve-outage".into(),
            jobs: vec![],
            services: vec![ServiceSpec {
                id: 0,
                tenant: TenantId(0),
                benchmark: Benchmark::MobileNetV2,
                slice: 1,
                slo: Dur::from_millis(60),
                rate_rps: 12.0,
                arrivals: crate::serve::ArrivalKind::Poisson,
                start: SimTime::ZERO,
                duration: Dur::from_secs(20),
                max_batch: 8,
                max_wait: Dur::from_millis(20),
                min_replicas: 1,
                max_replicas: 2,
            }],
        };
        let plan = FaultPlan {
            name: "serve-outage".into(),
            events: vec![FaultEvent {
                at: SimTime::from_secs(5),
                chassis: 0,
                kind: FaultKind::DrawerOutage { drawer: 1 },
                duration: Dur::from_secs(4),
            }],
        };
        let report = replay(mix, "slo-aware-pack", SchedulerConfig::default(), plan).unwrap();
        let serve = report.serve.expect("serving metrics present");
        assert_eq!(serve.failovers, 1, "the outage must displace the replica");
        assert_eq!(serve.generated, serve.completed + serve.dropped);
        assert!(serve.completed > 0, "service keeps serving on the other drawer");
    }

    // Breach tests: each builds a valid mid-replay state, proves the
    // conservation audit passes on it, corrupts one thing, and asserts
    // that the audit panics naming the broken invariant. They match the
    // invariant's words, not whole messages, so a rewrite of the audit
    // keeps them only by keeping every check. `scripts/ci.sh` also runs
    // them in release, where replays audit too.

    /// The sim-time the breach states are built and audited at.
    const AT: SimTime = SimTime::from_millis(1_500);

    fn gang(job: u64, tenant: u32) -> JobSpec {
        JobSpec {
            id: job,
            tenant: TenantId(tenant),
            benchmark: Benchmark::MobileNetV2,
            gpus: 2,
            min_gpus: 2,
            priority: 1,
            arrival: SimTime::ZERO,
            iters: 8,
        }
    }

    /// A valid state on one chassis: tenant 0's job 0 on `d0s0, d0s1` and
    /// tenant 1's job 1 on `d0s2, d0s3`, both seated through `start_job`.
    /// With `serving`, tenant 0 also holds a replica on `d1s7`, composed
    /// the way the serving pass composes one.
    fn seated(serving: bool) -> (ClusterSim, BTreeMap<u64, Running>) {
        let jobs = vec![gang(0, 0), gang(1, 1)];
        let services = if serving {
            let mut s = tiny_mix().services.remove(0);
            s.tenant = TenantId(0);
            vec![s]
        } else {
            Vec::new()
        };
        let mix = MixedTrace { name: "breach".into(), jobs: jobs.clone(), services };
        let cfg = SchedulerConfig { probe_iters: 1, ..SchedulerConfig::default() };
        let probes = ProbeCache::new(cfg.probe_iters);
        let policy = resolve_policy("fifo-first-fit").expect("registered policy");
        let mut sim =
            ClusterSim::with_probe_cache_mixed_on(RackTopology::SINGLE, mix, policy, cfg, probes)
                .expect("admitted");
        let mut running = BTreeMap::new();
        for (spec, first) in jobs.into_iter().zip([0u8, 2]) {
            let slots = vec![slot(0, first), slot(0, first + 1)];
            sim.start_job(AT, spec, slots, &mut running).expect("gang composes");
        }
        if serving {
            let replica = slot(1, 7);
            sim.rack.grant(AT, ADMIN, replica, tenant_user(0)).expect("grant");
            sim.rack.attach(AT, tenant_user(0), replica, tenant_host(0)).expect("attach");
            sim.serve.add_replica(0, replica, AT);
        }
        sim.assert_conservation(AT, &running);
        (sim, running)
    }

    /// The message of the panic `check` raises; fails if it does not.
    fn panic_message(check: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check))
            .expect_err("the check must fire on the corrupted state");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().expect("a text payload").to_string(),
        }
    }

    fn assert_breach(sim: &ClusterSim, running: &BTreeMap<u64, Running>, words: &str) {
        let msg = panic_message(|| sim.assert_conservation(AT, running));
        assert!(msg.contains(words), "expected a breach naming {words:?}, got {msg:?}");
    }

    fn slot(drawer: u8, slot: u8) -> RackAddr {
        RackAddr::new(0, drawer, slot)
    }

    #[test]
    fn breach_slot_booked_by_two_jobs() {
        let (sim, mut running) = seated(false);
        running.get_mut(&1).unwrap().slots[0] = slot(0, 0);
        assert_breach(&sim, &running, "double-booked");
    }

    #[test]
    fn breach_slot_listed_twice_in_one_job() {
        let (sim, mut running) = seated(false);
        running.get_mut(&1).unwrap().slots = vec![slot(0, 2), slot(0, 2)];
        assert_breach(&sim, &running, "double-booked");
    }

    #[test]
    fn breach_training_ledger_off_by_one() {
        let (mut sim, running) = seated(false);
        sim.ledger_slots += 1;
        assert_breach(&sim, &running, "ledger diverged");
        let (mut sim, running) = seated(false);
        sim.ledger_tenant[1] -= 1;
        assert_breach(&sim, &running, "ledger diverged");
    }

    #[test]
    fn breach_stale_drawer_mask() {
        let (sim, mut running) = seated(false);
        running.get_mut(&0).unwrap().drawer_mask = 1 << 1;
        assert_breach(&sim, &running, "drawer mask diverged");
    }

    #[test]
    fn breach_slot_detached_behind_the_scheduler() {
        let (sim, running) = seated(true);
        sim.rack.detach(AT, tenant_user(0), slot(0, 1)).unwrap();
        assert_breach(&sim, &running, "diverged from rack attachments");
    }

    #[test]
    fn breach_job_or_replica_on_a_failed_slot() {
        for (s, words) in
            [(slot(0, 1), "job occupies failed slot"), (slot(1, 7), "replica occupies failed slot")]
        {
            let (mut sim, running) = seated(true);
            sim.fstate.slot_down.insert(s, 1);
            sim.rack.fail_slot(AT, ADMIN, s).unwrap();
            assert_breach(&sim, &running, words);
        }
    }

    #[test]
    fn breach_slot_down_entry_the_rack_lacks() {
        let (mut sim, running) = seated(false);
        sim.fstate.slot_down.insert(slot(1, 5), 1);
        assert_breach(&sim, &running, "diverged from fault refcounts");
    }

    #[test]
    fn breach_tenant_over_quota() {
        let (mut sim, running) = seated(true);
        sim.cfg.quota_gpus_per_tenant = 2;
        assert_breach(&sim, &running, "tenant 0 over quota");
    }

    #[test]
    fn breach_training_serving_overlap() {
        let (mut sim, running) = seated(true);
        sim.serve.add_replica(0, slot(0, 3), AT);
        assert_breach(&sim, &running, "booked by training and serving");
    }

    #[test]
    fn breach_messages_name_the_event_and_sim_time() {
        let (mut sim, running) = seated(true);
        sim.events_seen = 41;
        sim.ledger_slots += 1;
        let full = panic_message(|| sim.assert_conservation(AT, &running));
        let cheap = panic_message(|| sim.check_ledger(AT));
        for msg in [full, cheap] {
            assert!(msg.contains("ledger diverged"), "{msg}");
            assert!(msg.contains("event 41 (t = 1.500s)"), "{msg}");
        }
    }

    // Exactness of the serving epoch. The per-instant reference is the
    // same loop with `ServeState::per_instant` on: every instant the epoch
    // would absorb is a global event that runs every pass (serving step,
    // replica placement, schedule pass, defrag, audit), and accrual runs
    // only where the epoch stops, because re-splitting the float accrual
    // moves job timestamps by nanoseconds and decides nothing. An epoch
    // that commits past an instant where some pass would act changes the
    // report; the reference cannot.

    /// One probe cache for the exactness checks; split into each replay,
    /// absorbed back after.
    fn exact_probes() -> &'static Mutex<ProbeCache> {
        static CELL: std::sync::OnceLock<Mutex<ProbeCache>> = std::sync::OnceLock::new();
        CELL.get_or_init(|| Mutex::new(ProbeCache::new(SchedulerConfig::default().probe_iters)))
    }

    /// `sc` replayed under each of its policies, on the serving epoch or
    /// on the per-instant reference: one report (or replay error) each.
    fn exact_replays(sc: &Scenario, per_instant: bool) -> Vec<Result<String, String>> {
        sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        let (mixed, plan) = sc.materialize();
        sc.policies
            .iter()
            .map(|name| {
                let policy = resolve_policy(name).expect("validated policy");
                let probes = exact_probes().lock().unwrap().split();
                let (topo, cfg) = (sc.topology.rack(), sc.config.clone());
                let mut sim =
                    ClusterSim::with_probe_cache_mixed_on(topo, mixed.clone(), policy, cfg, probes)
                        .and_then(|sim| sim.with_faults(plan.clone()))
                        .map_err(|e| e.to_string())?;
                sim.serve.per_instant = per_instant;
                let (report, probes) = sim.run_report().map_err(|e| e.to_string())?;
                exact_probes().lock().unwrap().absorb(probes);
                Ok(report.to_json_string())
            })
            .collect()
    }

    /// Inline services on top of a trace's own: random slices, batch
    /// sizes, replica ranges and windows from the first seconds on. Past
    /// the second, each is a burst: hundreds of requests a second at
    /// `max_batch` 1 under a cap of two or three replicas, so its backlog
    /// passes the scale-up threshold and its target climbs to the cap.
    fn inline_services(n: u8, seed: u64) -> Vec<ServiceSpec> {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x1_5E2E);
        (0..u64::from(n))
            .map(|k| {
                if k >= 2 {
                    return ServiceSpec {
                        id: 1_000 + k,
                        tenant: TenantId(k as u32 % MAX_TENANTS),
                        benchmark: [Benchmark::MobileNetV2, Benchmark::ResNet50][rng.index(2)],
                        slice: [1, 2][rng.index(2)],
                        slo: Dur::from_millis(60 + 40 * rng.index(5) as u64),
                        rate_rps: rng.uniform(300.0, 1_500.0),
                        arrivals: [ArrivalKind::Poisson, ArrivalKind::Diurnal][rng.index(2)],
                        start: SimTime::from_millis(rng.index(8_000) as u64),
                        duration: Dur::from_millis(500 + rng.index(2_500) as u64),
                        max_batch: 1,
                        max_wait: Dur::from_millis(5 + rng.index(40) as u64),
                        min_replicas: 1,
                        max_replicas: 2 + rng.index(2) as u8,
                    };
                }
                let min_replicas = 1 + rng.index(2) as u8;
                ServiceSpec {
                    id: 1_000 + k,
                    tenant: TenantId(k as u32 % MAX_TENANTS),
                    benchmark: [Benchmark::MobileNetV2, Benchmark::ResNet50, Benchmark::BertBase]
                        [rng.index(3)],
                    slice: [1, 2, 4, 7][rng.index(4)],
                    slo: Dur::from_millis(60 + 40 * rng.index(5) as u64),
                    rate_rps: rng.uniform(2.0, 24.0),
                    arrivals: [ArrivalKind::Poisson, ArrivalKind::Diurnal][rng.index(2)],
                    start: SimTime::from_millis(rng.index(8_000) as u64),
                    duration: Dur::from_millis(2_000 + rng.index(16_000) as u64),
                    max_batch: [1, 4, 8][rng.index(3)],
                    max_wait: Dur::from_millis(5 + rng.index(40) as u64),
                    min_replicas,
                    max_replicas: min_replicas + rng.index(3) as u8,
                }
            })
            .collect()
    }

    /// One knob-crossing draw: (trace family, seed), (jobs, PAI-mix
    /// services, inline services), (fault plan, elastic, preempt,
    /// defrag), (interference step, audit cadence, quota), (chassis,
    /// first preset, preset count). Fault plans 1–3 are seeded plans of
    /// that many events; 4–6 kill 2–4 slots of the paper's one chassis
    /// together under quota-8 tenants.
    type KnobDraw =
        ((u8, u64), (u8, u8, u8), (u8, bool, bool, bool), (u8, usize, usize), (u8, usize, usize));

    fn knob_draw() -> testkit::Gen<KnobDraw> {
        use testkit::{bools, tuple2, tuple3, tuple4, tuple5, u64_in, u8_in, usize_in};
        tuple5(
            tuple2(u8_in(0..3), u64_in(0..1_000_000)),
            tuple3(u8_in(2..14), u8_in(0..5), u8_in(0..5)),
            tuple4(u8_in(0..7), bools(), bools(), bools()),
            tuple3(u8_in(0..5), usize_in(0..3), usize_in(0..3)),
            tuple3(u8_in(1..9), usize_in(0..POLICY_NAMES.len()), usize_in(1..POLICY_NAMES.len() + 1)),
        )
    }

    /// The scenario a draw describes: a PAI-mix, Poisson or inline
    /// priority-tiered trace plus inline services, a seeded fault plan
    /// over the trace's horizon, and every `SchedulerConfig` knob.
    fn knob_scenario(d: KnobDraw) -> Scenario {
        let ((family, seed), (n_jobs, n_mix, n_inline), toggles, levels, rack) = d;
        let (n_faults, elastic, preempt, defrag) = toggles;
        let (interference, audit, quota) = levels;
        let (chassis, first, n_policies) = rack;
        let n_jobs = usize::from(n_jobs);
        let trace = match family {
            0 => TraceSpec::PaiMix { n_jobs, n_services: usize::from(n_mix), seed },
            1 => TraceSpec::Poisson {
                seed,
                n_jobs,
                tenants: MAX_TENANTS,
                mean_interarrival: Dur::from_millis(700),
                name: None,
            },
            _ => {
                let name = format!("tiers-{seed:#x}");
                let mix = PoissonMix {
                    seed,
                    n_jobs,
                    tenants: MAX_TENANTS,
                    mean_interarrival: Dur::from_millis(400),
                };
                let mut jobs = mix.generate(name.clone()).jobs;
                for j in &mut jobs {
                    j.priority = 1 + (j.id % 3) as u8;
                }
                TraceSpec::Jobs { name, jobs }
            }
        };
        let policies = (0..n_policies)
            .map(|k| POLICY_NAMES[(first + k) % POLICY_NAMES.len()].to_string())
            .collect();
        let mut sc = Scenario::new(format!("exact-{seed:#x}"), trace, policies);
        sc.topology = Topology::with_chassis(chassis);
        sc.services = inline_services(n_inline, seed);
        sc.config = SchedulerConfig {
            quota_gpus_per_tenant: [8, 12, 24][quota],
            elastic,
            interference: 0.05 * f64::from(interference),
            audit_every: [1, 7, 64][audit],
            preempt,
            defrag,
            ..SchedulerConfig::default()
        };
        if n_faults > 0 {
            let (mixed, _) = sc.materialize();
            sc.faults = if n_faults <= 3 {
                FaultSpec::Seeded {
                    n_events: usize::from(n_faults),
                    horizon: Dur::from_nanos(Scenario::horizon(&mixed).as_nanos()),
                    seed: seed ^ 0xFA17,
                }
            } else {
                sc.topology = Topology::with_chassis(1);
                sc.config.quota_gpus_per_tenant = 8;
                FaultSpec::Inline(slot_death_burst(
                    n_faults - 2,
                    Scenario::horizon(&mixed),
                    seed,
                ))
            };
        }
        sc
    }

    /// `n` distinct slots of chassis 0 dying together at a seeded instant
    /// in the first 9 s, while the first services run (or before the
    /// trace's `horizon`).
    fn slot_death_burst(n: u8, horizon: SimTime, seed: u64) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xDEAD);
        let window = horizon.min(SimTime::from_secs(9)).as_secs_f64();
        let at = SimTime::from_secs_f64(rng.unit() * window);
        let mut deaths: Vec<(u8, u8)> = Vec::new();
        while deaths.len() < usize::from(n) {
            let s = (rng.index(2) as u8, rng.index(8) as u8);
            if !deaths.contains(&s) {
                deaths.push(s);
            }
        }
        slot_death_plan(at, &deaths)
    }

    testkit::property! {
        /// The serving epoch replays every knob-crossing scenario to the
        /// per-instant reference's bytes, under every drawn preset.
        #[cases(64)]
        fn serving_epoch_matches_the_per_instant_reference(d in knob_draw()) {
            let sc = knob_scenario(d);
            testkit::prop_assert_eq!(
                exact_replays(&sc, false),
                exact_replays(&sc, true),
                "the serving epoch diverged from the per-instant reference on {sc:?}"
            );
        }
    }

    /// The (drawer, slot) `deaths` of chassis 0 at `at`, each healing a
    /// minute on.
    fn slot_death_plan(at: SimTime, deaths: &[(u8, u8)]) -> FaultPlan {
        let events = deaths
            .iter()
            .map(|&(drawer, slot)| FaultEvent {
                at,
                chassis: 0,
                kind: FaultKind::SlotDeath { drawer, slot },
                duration: Dur::from_secs(60),
            })
            .collect();
        FaultPlan {
            name: "slot-deaths".into(),
            events,
        }
    }

    /// A one-chassis spec that slot-kills `deaths` (drawer, slot) at
    /// `at_ms` under `fifo-first-fit`.
    fn slot_deaths(name: &str, trace: TraceSpec, at_ms: u64, deaths: &[(u8, u8)]) -> Scenario {
        let mut sc = Scenario::new(name, trace, vec!["fifo-first-fit".into()]);
        sc.faults = FaultSpec::Inline(slot_death_plan(SimTime::from_millis(at_ms), deaths));
        sc
    }

    /// A service of `tenant` with a 100 ms SLO and a 10 ms batching wait.
    #[allow(clippy::too_many_arguments)]
    fn service(
        id: u64,
        tenant: u32,
        benchmark: Benchmark,
        slice: u8,
        rate_rps: f64,
        (start_ms, secs): (u64, u64),
        max_batch: u32,
        (min_replicas, max_replicas): (u8, u8),
    ) -> ServiceSpec {
        ServiceSpec {
            id,
            tenant: TenantId(tenant),
            benchmark,
            slice,
            slo: Dur::from_millis(100),
            rate_rps,
            arrivals: ArrivalKind::Poisson,
            start: SimTime::from_millis(start_ms),
            duration: Dur::from_secs(secs),
            max_batch,
            max_wait: Dur::from_millis(10),
            min_replicas,
            max_replicas,
        }
    }

    /// A displaced job stepped over for quota while a service runs
    /// epochs. Tenant 0's elastic 8-GPU job and 4-GPU job fill its
    /// 12-GPU quota next to tenant 1's 4-GPU job, so tenant 0's service
    /// waits at quota. Slot deaths at 5 s displace both 4-GPU jobs; the
    /// service takes a freed GPU, tenant 0's job is stepped over for
    /// quota, and re-placing tenant 1's job shrinks tenant 0's elastic
    /// job. That frees quota for the stepped-over job, which a retry at
    /// the next instant, a serving one, places.
    fn quota_step_over() -> Scenario {
        let job = |id: u64, tenant: u32, gpus: u8, min_gpus: u8| JobSpec {
            id,
            tenant: TenantId(tenant),
            benchmark: Benchmark::ResNet50,
            gpus,
            min_gpus,
            priority: 1,
            arrival: SimTime::from_millis(id),
            iters: 200,
        };
        let jobs = vec![job(0, 0, 8, 4), job(1, 0, 4, 2), job(2, 1, 4, 4)];
        let trace = TraceSpec::Jobs { name: "quota-step-over".into(), jobs };
        let mut sc = slot_deaths("quota-step-over", trace, 5_000, &[(1, 0), (1, 4), (1, 5), (1, 6)]);
        sc.services =
            vec![service(100, 0, Benchmark::MobileNetV2, 7, 5.0, (3_000, 30), 4, (1, 1))];
        sc
    }

    /// A service over its scale-up threshold at epoch entry. A 3,000 rps
    /// BERT-base service starts with five 2/7 replicas, three on GPU
    /// (0, 1), and its backlog climbs toward the threshold. A slot death
    /// at 1.024 s kills those three with batches in flight; the requests
    /// re-queue on the two survivors, the loop raises the target by one
    /// and places the replacements, and the service enters the next
    /// epoch over its threshold with `max_replicas` headroom. A second,
    /// 2,000 rps service supplies instants before the first's next
    /// arrival.
    fn over_threshold_at_entry() -> Scenario {
        let trace = TraceSpec::Jobs { name: "over-threshold".into(), jobs: Vec::new() };
        let mut sc = slot_deaths("over-threshold", trace, 1_024, &[(0, 1)]);
        sc.services = vec![
            service(200, 1, Benchmark::BertBase, 2, 3_000.0, (1_000, 3), 4, (5, 9)),
            service(201, 0, Benchmark::MobileNetV2, 7, 2_000.0, (500, 4), 8, (1, 1)),
        ];
        sc
    }

    #[test]
    fn serving_epoch_matches_the_per_instant_reference_on_checked_in_specs() {
        let checked_in = [
            include_str!("../../../scenarios/cluster_serve.json"),
            include_str!("../../../scenarios/serve_policies.json"),
            include_str!("../../../scenarios/cluster_crossed.json"),
            include_str!("../../../scenarios/portfolio_default/pf_serve.json"),
            include_str!("../../../scenarios/portfolio_default/pf_pai.json"),
        ]
        .map(|text| Scenario::from_json_str(text).expect("checked-in scenario parses"));
        // Specs that hold the loop across serving instants: a knob draw
        // with defrag armed, a displaced job stepped over for quota, and a
        // service over its scale-up threshold. An epoch that absorbed
        // those instants would diverge from the reference.
        let armed_defrag =
            knob_scenario(((0, 928_975), (4, 0, 2), (1, false, false, true), (0, 0, 1), (2, 0, 1)));
        let held = [armed_defrag, quota_step_over(), over_threshold_at_entry()];
        for sc in checked_in.iter().chain(&held) {
            assert_eq!(
                exact_replays(sc, false),
                exact_replays(sc, true),
                "the serving epoch diverged from the per-instant reference on {}",
                sc.name
            );
        }
    }
}
