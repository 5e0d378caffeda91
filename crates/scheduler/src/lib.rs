//! `scheduler` — cluster-level, trace-driven multi-job scheduling on the
//! composable test bed.
//!
//! The paper studies one tenant composing one host at a time; the natural
//! next question for a composable system is *cluster* behavior: many
//! training jobs, from multiple tenants, arriving over time and competing
//! for the same two drawers of pooled GPUs. This crate answers it with a
//! discrete-event scheduler that replays a workload trace on the Falcon
//! 4016 model, driving every placement through the chassis's real
//! management plane (MCS grant/attach/detach, audited) and pricing every
//! placement *shape* with a short simulated probe run — so the paper's
//! §V-B composition costs (drawer-spanning allreduce) show up directly in
//! scheduler-level metrics.
//!
//! Crate layout:
//! * [`trace`] — job specs, Poisson/heavy-tail synthetic generators, and
//!   JSON import/export.
//! * [`probe`] — cached micro-probes pricing a `(benchmark, shape)` pair.
//! * [`policy`] — placement policies behind one trait: FIFO first-fit,
//!   best-fit packing, fragmentation-aware, topology-aware (probe-scored
//!   with [`composable_core::Objective`]) and serving-aware SLO packing,
//!   all presets of one parametric policy.
//! * [`cluster`] — the event loop: shared-chassis co-simulation,
//!   MCS-audited recomposition, elastic shrink, per-tenant quotas. One
//!   builder ([`ClusterSim::with_probe_cache_mixed_on`]) admits every
//!   workload.
//! * [`scenario`] — declarative studies (topology × trace × faults ×
//!   services × policies × config) and the one replay loop: [`replay`]
//!   runs one parsweep job per `(workload, policy)` pair on splits of one
//!   shared probe cache, [`Scenario::validate`] builds the admitted
//!   [`Workload`]s it runs, and [`run_scenario`] (one study) and
//!   [`run_matrix`] (every policy of many studies in one fan-out) call it.
//! * [`fault`] — failure injection: seeded `FaultPlan`s of drawer/slot
//!   outages, link degradation, and BMC thermal trips replayed mid-trace.
//! * [`serve`] — latency-SLO inference serving: fractional-GPU (MIG-style)
//!   replica sets with dynamic batching and autoscaling, co-scheduled
//!   with training through the same event loop and MCS paths.
//! * the [`rack`] crate underneath — multi-chassis scale-out: global
//!   `chassis × drawer × slot` addressing, the inter-chassis fabric
//!   tier's cost model, and rack-wide conservation views, so the same
//!   loop runs 16-GPU single-chassis studies and 32–128-GPU racks.
//! * [`metrics`] — JCT / queueing / makespan / utilization /
//!   fragmentation / fairness / SLO-attainment / recovery reporting and
//!   the policy-comparison tables.

pub mod cluster;
pub mod fault;
pub mod metrics;
pub mod policy;
pub mod probe;
pub mod scenario;
pub mod serve;
pub mod trace;

pub use cluster::{ClusterSim, SchedulerConfig, SchedulerError};
pub use fault::{
    paper_fault_plan, seeded_fault_plan, seeded_rack_fault_plan, FaultEvent, FaultKind, FaultPlan,
    CHECKPOINT_ITERS, RECOMPOSE_LATENCY,
};
pub use rack::{cross_chassis_stretch, Rack, RackAddr, RackTopology, MAX_CHASSIS};
pub use metrics::{
    comparison_table, recovery_comparison_table, serve_comparison_table, JobOutcome,
    MigrationMetrics, RecoveryMetrics, ScheduleReport, ServeMetrics, ServiceOutcome,
};
pub use policy::{
    all_policies, resolve_policy, FreeView, ParamPolicy, ParamsError, PlacePolicy, PolicyParams,
    RunningView, SliceSlot, SliceView, UnknownPolicy, POLICY_NAMES,
};
pub use probe::{warm_set_for_trace, Probe, ProbeCache, Shape};
pub use scenario::{
    replay, run_matrix, run_scenario, FaultSpec, MetricLevel, Scenario, ScenarioError,
    ScenarioReport, Topology, TraceSpec, Workload,
};
pub use serve::{
    batch_latency, request_times, seeded_pai_mix, ArrivalKind, MixedTrace, ServiceSpec,
    SERVE_COMPUTE_EFF, SLICES_PER_GPU,
};
pub use trace::{
    priority_tier_from_label, seeded_two_tenant, JobSpec, PoissonMix, TenantId, Trace,
    PRIORITY_TIERS,
};
