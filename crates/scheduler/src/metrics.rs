//! Schedule-quality metrics: per-job outcomes and the cluster-level
//! report (JCT, queueing delay, makespan, utilization, fragmentation,
//! per-tenant fairness), with JSON export and a policy-comparison table.

use composable_core::report::table;
use desim::json::{FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimTime};

/// The lifecycle record of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub id: u64,
    pub tenant: u32,
    pub benchmark: String,
    /// GPUs requested at submit.
    pub gpus: u8,
    /// GPUs held at completion (smaller than `gpus` after elastic shrink).
    pub final_gpus: u8,
    pub priority: u8,
    pub arrival: SimTime,
    pub start: SimTime,
    pub finish: SimTime,
    /// Did the placement ever span both drawers?
    pub spanned: bool,
    pub shrunk: bool,
}

impl JobOutcome {
    /// Job completion time: arrival → finish.
    pub fn jct(&self) -> Dur {
        self.finish.since(self.arrival)
    }

    /// Time spent queued before the first GPU was attached.
    pub fn queue_delay(&self) -> Dur {
        self.start.since(self.arrival)
    }
}

desim::json_record! {
    JobOutcome;
    id: "id",
    tenant: "tenant",
    benchmark: "benchmark",
    gpus: "gpus",
    final_gpus: "final_gpus",
    priority: "priority",
    arrival: "arrival_ns",
    start: "start_ns",
    finish: "finish_ns",
    spanned: "spanned",
    shrunk: "shrunk",
}

/// Fault-recovery accounting for a replay under an injected
/// [`crate::fault::FaultPlan`]. Absent (`None` on [`ScheduleReport`]) for
/// fault-free replays, so their serialized reports are byte-identical to
/// pre-fault-model ones.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Fault events applied (strikes, not heals).
    pub fault_events: u32,
    /// Job displacements: each time a running job lost its slots to a
    /// fault and had to be re-placed. One job can count several times.
    pub evacuations: u32,
    /// Drawer evacuations triggered through the BMC thermal path.
    pub thermal_trips: u32,
    /// Mean time from a fault striking a job to that job making progress
    /// again on its replacement placement (including re-composition).
    pub mean_recovery: Dur,
    pub p95_recovery: Dur,
    /// GPU-seconds of training redone because evacuation rolled jobs back
    /// to their last checkpoint.
    pub work_lost_gpu_secs: f64,
    /// Faulty-replay mean JCT over a fault-free baseline's (1.0 = no
    /// slowdown); 0.0 when no baseline was run, which no replay path does
    /// any more. Still serialized because pinned reports carry it.
    pub jct_inflation: f64,
}

impl RecoveryMetrics {
    /// Fold per-evacuation recovery durations into the summary.
    pub fn assemble(
        fault_events: u32,
        evacuations: u32,
        thermal_trips: u32,
        recovery_times: &[Dur],
        work_lost_gpu_secs: f64,
    ) -> RecoveryMetrics {
        RecoveryMetrics {
            fault_events,
            evacuations,
            thermal_trips,
            mean_recovery: mean_dur(recovery_times.iter().copied()),
            p95_recovery: percentile_dur(
                recovery_times.iter().map(|d| d.as_nanos()).collect(),
                0.95,
            ),
            work_lost_gpu_secs: round4(work_lost_gpu_secs),
            jct_inflation: 0.0,
        }
    }
}

desim::json_record! {
    RecoveryMetrics;
    fault_events: "fault_events",
    evacuations: "evacuations",
    thermal_trips: "thermal_trips",
    mean_recovery: "mean_recovery_ns",
    p95_recovery: "p95_recovery_ns",
    work_lost_gpu_secs: "work_lost_gpu_secs",
    jct_inflation: "jct_inflation",
}

/// Preemption/migration accounting for a replay with priority tiers,
/// defragmentation, or SLO relocation enabled. Absent (`None` on
/// [`ScheduleReport`]) when none of those knobs are on, so legacy
/// serialized reports stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationMetrics {
    /// Checkpoint-preempt-resume events: a running low-tier job rolled
    /// back to its checkpoint and re-queued to make room for a
    /// higher-tier arrival.
    pub preemptions: u32,
    /// Live migrations: a running job detached and re-attached at a new
    /// placement (defragmentation passes).
    pub migrations: u32,
    /// SLO-clawback relocations: training moved (not shrunk) to free a
    /// slot for serving.
    pub relocations: u32,
    /// GPU-seconds of training redone because preemption or migration
    /// rolled jobs back to their last checkpoint.
    pub work_lost_gpu_secs: f64,
}

impl MigrationMetrics {
    pub fn assemble(
        preemptions: u32,
        migrations: u32,
        relocations: u32,
        work_lost_gpu_secs: f64,
    ) -> MigrationMetrics {
        MigrationMetrics {
            preemptions,
            migrations,
            relocations,
            work_lost_gpu_secs: round4(work_lost_gpu_secs),
        }
    }
}

desim::json_record! {
    MigrationMetrics;
    preemptions: "preemptions",
    migrations: "migrations",
    relocations: "relocations",
    work_lost_gpu_secs: "work_lost_gpu_secs",
}

/// The lifecycle record of one inference service over its whole window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    pub id: u64,
    pub tenant: u32,
    pub benchmark: String,
    /// MIG-style slice size in sevenths of a GPU.
    pub slice: u8,
    pub generated: u64,
    pub completed: u64,
    pub dropped: u64,
    /// Completed requests that finished within the SLO.
    pub within_slo: u64,
    pub p50_latency: Dur,
    pub p99_latency: Dur,
    pub slo: Dur,
    /// within_slo / generated (1.0 when no requests were generated).
    pub attainment: f64,
    /// Within-SLO completions per second of the service window.
    pub goodput_rps: f64,
    /// Replica-seconds held, weighted by slice fraction (GPU-seconds).
    pub replica_secs: f64,
    pub peak_replicas: u8,
    /// Replicas lost to drawer faults and re-placed.
    pub failovers: u32,
}

desim::json_record! {
    ServiceOutcome;
    id: "id",
    tenant: "tenant",
    benchmark: "benchmark",
    slice: "slice",
    generated: "generated",
    completed: "completed",
    dropped: "dropped",
    within_slo: "within_slo",
    p50_latency: "p50_latency_ns",
    p99_latency: "p99_latency_ns",
    slo: "slo_ns",
    attainment: "attainment",
    goodput_rps: "goodput_rps",
    replica_secs: "replica_secs",
    peak_replicas: "peak_replicas",
    failovers: "failovers",
}

/// Serving-side accounting for a mixed replay. Absent (`None` on
/// [`ScheduleReport`]) for training-only replays, so their serialized
/// reports stay byte-identical to pre-serving ones.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    pub n_services: u32,
    pub generated: u64,
    pub completed: u64,
    pub dropped: u64,
    /// Pooled request-latency percentiles across every service.
    pub p50_latency: Dur,
    pub p99_latency: Dur,
    /// Pooled SLO attainment: Σ within_slo / Σ generated.
    pub attainment: f64,
    /// Pooled goodput: Σ per-service goodput (each over its own window).
    pub goodput_rps: f64,
    /// Slice-weighted GPU-seconds held by replicas.
    pub replica_secs: f64,
    pub failovers: u32,
    pub services: Vec<ServiceOutcome>,
}

impl ServeMetrics {
    /// Fold per-service outcomes and the pooled latency samples into the
    /// summary. `services` may arrive in any order; the report stores
    /// them by id.
    pub fn assemble(mut services: Vec<ServiceOutcome>, all_latencies_ns: Vec<u64>) -> ServeMetrics {
        services.sort_by_key(|s| s.id);
        let generated: u64 = services.iter().map(|s| s.generated).sum();
        let within: u64 = services.iter().map(|s| s.within_slo).sum();
        ServeMetrics {
            n_services: services.len() as u32,
            generated,
            completed: services.iter().map(|s| s.completed).sum(),
            dropped: services.iter().map(|s| s.dropped).sum(),
            p50_latency: percentile_dur(all_latencies_ns.clone(), 0.50),
            p99_latency: percentile_dur(all_latencies_ns, 0.99),
            attainment: round4(if generated > 0 {
                within as f64 / generated as f64
            } else {
                1.0
            }),
            goodput_rps: round4(services.iter().map(|s| s.goodput_rps).sum()),
            replica_secs: round4(services.iter().map(|s| s.replica_secs).sum()),
            failovers: services.iter().map(|s| s.failovers).sum(),
            services,
        }
    }
}

desim::json_record! {
    ServeMetrics;
    n_services: "n_services",
    generated: "generated",
    completed: "completed",
    dropped: "dropped",
    p50_latency: "p50_latency_ns",
    p99_latency: "p99_latency_ns",
    attainment: "attainment",
    goodput_rps: "goodput_rps",
    replica_secs: "replica_secs",
    failovers: "failovers",
    services: "services",
}

/// Jain's fairness index over per-tenant shares: 1.0 when every tenant
/// received the same amount, approaching `1/n` under total capture.
pub fn jain_fairness(shares: &[f64]) -> f64 {
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq <= 0.0 || shares.is_empty() {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sq)
}

/// The cluster-level result of replaying one trace under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    pub policy: String,
    pub trace: String,
    pub pool_gpus: u32,
    pub n_jobs: u32,
    pub makespan: Dur,
    pub mean_jct: Dur,
    pub p95_jct: Dur,
    pub mean_queue_delay: Dur,
    /// Busy GPU-seconds over pool-GPU-seconds of the makespan.
    pub gpu_util: f64,
    /// Share of busy GPU-seconds spent in drawer-spanning placements —
    /// the fragmentation cost made visible.
    pub frag_share: f64,
    /// Jain's index over per-tenant GPU-seconds.
    pub fairness: f64,
    pub shrunk_jobs: u32,
    /// MCS audit-log length: every grant/attach/detach of the replay.
    pub audit_entries: u64,
    pub tenant_gpu_secs: Vec<f64>,
    /// Present only when the replay injected faults.
    pub recovery: Option<RecoveryMetrics>,
    /// Present only when preemption, defrag, or SLO relocation was on.
    pub migration: Option<MigrationMetrics>,
    /// Present only when the trace carried inference services.
    pub serve: Option<ServeMetrics>,
    pub jobs: Vec<JobOutcome>,
}

pub(crate) fn mean_dur(ds: impl Iterator<Item = Dur>) -> Dur {
    let v: Vec<Dur> = ds.collect();
    if v.is_empty() {
        return Dur::ZERO;
    }
    let total: u64 = v.iter().map(|d| d.as_nanos()).sum();
    Dur::from_nanos(total / v.len() as u64)
}

pub(crate) fn percentile_dur(mut ns: Vec<u64>, p: f64) -> Dur {
    if ns.is_empty() {
        return Dur::ZERO;
    }
    ns.sort_unstable();
    let rank = ((p * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    Dur::from_nanos(ns[rank - 1])
}

/// Round a share/ratio to a stable number of decimals so reports (and the
/// golden files built from them) don't encode float noise.
pub(crate) fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

impl ScheduleReport {
    /// Fold completed-job outcomes and the loop's resource accounting into
    /// the summary metrics. `outcomes` may arrive in completion order; the
    /// report stores them by id.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        policy: impl Into<String>,
        trace: impl Into<String>,
        pool_gpus: u32,
        mut outcomes: Vec<JobOutcome>,
        makespan: Dur,
        busy_gpu_secs: f64,
        span_gpu_secs: f64,
        tenant_gpu_secs: Vec<f64>,
        audit_entries: u64,
        recovery: Option<RecoveryMetrics>,
        migration: Option<MigrationMetrics>,
        serve: Option<ServeMetrics>,
    ) -> ScheduleReport {
        outcomes.sort_by_key(|o| o.id);
        let cap = pool_gpus as f64 * makespan.as_secs_f64();
        ScheduleReport {
            policy: policy.into(),
            trace: trace.into(),
            pool_gpus,
            n_jobs: outcomes.len() as u32,
            makespan,
            mean_jct: mean_dur(outcomes.iter().map(|o| o.jct())),
            p95_jct: percentile_dur(outcomes.iter().map(|o| o.jct().as_nanos()).collect(), 0.95),
            mean_queue_delay: mean_dur(outcomes.iter().map(|o| o.queue_delay())),
            gpu_util: round4(if cap > 0.0 { busy_gpu_secs / cap } else { 0.0 }),
            frag_share: round4(if busy_gpu_secs > 0.0 {
                span_gpu_secs / busy_gpu_secs
            } else {
                0.0
            }),
            fairness: round4(jain_fairness(&tenant_gpu_secs)),
            shrunk_jobs: outcomes.iter().filter(|o| o.shrunk).count() as u32,
            audit_entries,
            tenant_gpu_secs: tenant_gpu_secs.into_iter().map(round4).collect(),
            recovery,
            migration,
            serve,
            jobs: outcomes,
        }
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    pub fn from_json_str(s: &str) -> Result<ScheduleReport, JsonError> {
        ScheduleReport::from_json(&Value::parse(s)?)
    }
}

// Optional blocks are emitted only when present, so fault-free, knob-free
// and training-only replays keep the bytes the pinned goldens hold.
desim::json_record! {
    ScheduleReport;
    policy: "policy",
    trace: "trace",
    pool_gpus: "pool_gpus",
    n_jobs: "n_jobs",
    makespan: "makespan_ns",
    mean_jct: "mean_jct_ns",
    p95_jct: "p95_jct_ns",
    mean_queue_delay: "mean_queue_delay_ns",
    gpu_util: "gpu_util",
    frag_share: "frag_share",
    fairness: "fairness",
    shrunk_jobs: "shrunk_jobs",
    audit_entries: "audit_entries",
    tenant_gpu_secs: "tenant_gpu_secs",
    recovery: "recovery" (opt),
    migration: "migration" (opt),
    serve: "serve" (opt),
    jobs: "jobs",
}

/// Render the `repro cluster` policy-comparison table.
pub fn comparison_table(reports: &[ScheduleReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.1}", r.mean_jct.as_secs_f64()),
                format!("{:.1}", r.p95_jct.as_secs_f64()),
                format!("{:.1}", r.mean_queue_delay.as_secs_f64()),
                format!("{:.1}", r.makespan.as_secs_f64()),
                format!("{:.1}", r.gpu_util * 100.0),
                format!("{:.1}", r.frag_share * 100.0),
                format!("{:.3}", r.fairness),
                format!("{}", r.shrunk_jobs),
            ]
        })
        .collect();
    table(
        &[
            "policy",
            "mean JCT (s)",
            "p95 JCT (s)",
            "queue (s)",
            "makespan (s)",
            "GPU util %",
            "split %",
            "fairness",
            "shrunk",
        ],
        &rows,
    )
}

/// Render the `repro serve` policy-comparison table: serving quality on
/// the left, the training-side cost of achieving it on the right.
pub fn serve_comparison_table(reports: &[ScheduleReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let s = r.serve.as_ref();
            vec![
                r.policy.clone(),
                s.map_or_else(|| "-".into(), |s| format!("{:.1}", s.p99_latency.as_secs_f64() * 1e3)),
                s.map_or_else(|| "-".into(), |s| format!("{:.4}", s.attainment)),
                s.map_or_else(|| "-".into(), |s| format!("{:.1}", s.goodput_rps)),
                s.map_or_else(|| "-".into(), |s| format!("{}", s.dropped)),
                s.map_or_else(|| "-".into(), |s| format!("{:.1}", s.replica_secs)),
                format!("{:.1}", r.mean_jct.as_secs_f64()),
                format!("{}", r.shrunk_jobs),
            ]
        })
        .collect();
    table(
        &[
            "policy",
            "p99 (ms)",
            "attainment",
            "goodput (req/s)",
            "drops",
            "replica GPU-s",
            "train mean JCT (s)",
            "shrunk",
        ],
        &rows,
    )
}

/// Render the `repro faults` policy-comparison table: how each policy
/// absorbed the scenario's fault plan. (The fault-free JCTs of the same
/// trace are the `repro cluster` table.)
pub fn recovery_comparison_table(reports: &[ScheduleReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let f = r.recovery.as_ref();
            vec![
                r.policy.clone(),
                format!("{:.1}", r.mean_jct.as_secs_f64()),
                f.map_or_else(|| "-".into(), |f| format!("{}", f.evacuations)),
                f.map_or_else(|| "-".into(), |f| format!("{}", f.thermal_trips)),
                f.map_or_else(|| "-".into(), |f| format!("{:.1}", f.mean_recovery.as_secs_f64())),
                f.map_or_else(|| "-".into(), |f| format!("{:.1}", f.p95_recovery.as_secs_f64())),
                f.map_or_else(|| "-".into(), |f| format!("{:.0}", f.work_lost_gpu_secs)),
            ]
        })
        .collect();
    table(
        &[
            "policy",
            "mean JCT (s)",
            "evacuations",
            "thermal trips",
            "mean recovery (s)",
            "p95 recovery (s)",
            "work lost (GPU-s)",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival_s: u64, start_s: u64, finish_s: u64) -> JobOutcome {
        JobOutcome {
            id,
            tenant: (id % 2) as u32,
            benchmark: "ResNet-50".to_string(),
            gpus: 2,
            final_gpus: 2,
            priority: 1,
            arrival: SimTime::from_secs(arrival_s),
            start: SimTime::from_secs(start_s),
            finish: SimTime::from_secs(finish_s),
            spanned: id == 1,
            shrunk: false,
        }
    }

    #[test]
    fn jct_and_queue_delay() {
        let o = outcome(0, 2, 5, 9);
        assert_eq!(o.jct(), Dur::from_secs(7));
        assert_eq!(o.queue_delay(), Dur::from_secs(3));
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[1.0, 1.0]), 1.0);
        assert!((jain_fairness(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn assemble_and_round_trip() {
        let r = ScheduleReport::assemble(
            "best-fit",
            "t",
            16,
            vec![outcome(1, 0, 0, 4), outcome(0, 0, 1, 3)],
            Dur::from_secs(4),
            24.0,
            8.0,
            vec![12.0, 12.0],
            42,
            None,
            None,
            None,
        );
        assert_eq!(r.jobs[0].id, 0, "stored by id");
        assert_eq!(r.n_jobs, 2);
        assert_eq!(r.mean_jct, Dur::from_nanos(3_500_000_000));
        assert_eq!(r.p95_jct, Dur::from_secs(4));
        assert!((r.gpu_util - 0.375).abs() < 1e-9);
        assert!((r.frag_share - 1.0 / 3.0).abs() < 1e-4);
        assert_eq!(r.fairness, 1.0);
        let back = ScheduleReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn comparison_table_lists_each_policy() {
        let r = ScheduleReport::assemble(
            "fifo-first-fit",
            "t",
            16,
            vec![outcome(0, 0, 1, 3)],
            Dur::from_secs(3),
            4.0,
            0.0,
            vec![4.0, 0.0],
            7,
            None,
            None,
            None,
        );
        let t = comparison_table(&[r]);
        assert!(t.contains("fifo-first-fit"));
        assert!(t.contains("mean JCT (s)"));
    }

    #[test]
    fn recovery_block_round_trips_and_stays_absent_when_fault_free() {
        let base = ScheduleReport::assemble(
            "best-fit",
            "t",
            16,
            vec![outcome(0, 0, 1, 3)],
            Dur::from_secs(3),
            4.0,
            0.0,
            vec![4.0, 0.0],
            7,
            None,
            None,
            None,
        );
        assert!(
            !base.to_json_string().contains("recovery"),
            "fault-free reports must keep their pre-fault-model bytes"
        );
        let mut faulty = base.clone();
        let mut rec = RecoveryMetrics::assemble(
            3,
            2,
            1,
            &[Dur::from_secs(2), Dur::from_secs(6)],
            12.345678,
        );
        rec.jct_inflation = 1.25;
        assert_eq!(rec.mean_recovery, Dur::from_secs(4));
        assert_eq!(rec.p95_recovery, Dur::from_secs(6));
        assert_eq!(rec.work_lost_gpu_secs, 12.3457, "round4 keeps bytes stable");
        faulty.recovery = Some(rec);
        let back = ScheduleReport::from_json_str(&faulty.to_json_string()).unwrap();
        assert_eq!(back, faulty);
        assert_eq!(back.recovery.as_ref().unwrap().evacuations, 2);
        let t = recovery_comparison_table(&[base, faulty]);
        assert!(t.contains("evacuations") && t.contains("12"), "work lost rounds to GPU-s: {t}");
    }

    #[test]
    fn migration_block_round_trips_and_stays_absent_by_default() {
        let base = ScheduleReport::assemble(
            "best-fit",
            "t",
            16,
            vec![outcome(0, 0, 1, 3)],
            Dur::from_secs(3),
            4.0,
            0.0,
            vec![4.0, 0.0],
            7,
            None,
            None,
            None,
        );
        assert!(
            !base.to_json_string().contains("migration"),
            "knob-free reports must keep their pre-priority-model bytes"
        );
        let mig = MigrationMetrics::assemble(3, 2, 1, 9.876543);
        assert_eq!(mig.work_lost_gpu_secs, 9.8765, "round4 keeps bytes stable");
        let mut tiered = base.clone();
        tiered.migration = Some(mig);
        let back = ScheduleReport::from_json_str(&tiered.to_json_string()).unwrap();
        assert_eq!(back, tiered);
        assert_eq!(back.migration.as_ref().unwrap().preemptions, 3);
    }

    fn service(id: u64, generated: u64, within: u64) -> ServiceOutcome {
        ServiceOutcome {
            id,
            tenant: (id % 2) as u32,
            benchmark: "MobileNetV2".to_string(),
            slice: 1,
            generated,
            completed: generated,
            dropped: 0,
            within_slo: within,
            p50_latency: Dur::from_millis(12),
            p99_latency: Dur::from_millis(40),
            slo: Dur::from_millis(60),
            attainment: round4(within as f64 / generated as f64),
            goodput_rps: 10.0,
            replica_secs: 6.0,
            peak_replicas: 2,
            failovers: 0,
        }
    }

    #[test]
    fn serve_block_round_trips_and_stays_absent_when_training_only() {
        let base = ScheduleReport::assemble(
            "slo-aware-pack",
            "t",
            16,
            vec![outcome(0, 0, 1, 3)],
            Dur::from_secs(3),
            4.0,
            0.0,
            vec![4.0, 0.0],
            7,
            None,
            None,
            None,
        );
        assert!(
            !base.to_json_string().contains("serve"),
            "training-only reports must keep their pre-serving bytes"
        );
        let pooled = ServeMetrics::assemble(
            vec![service(3, 100, 90), service(2, 100, 100)],
            vec![5_000_000, 1_000_000, 9_000_000, 2_000_000],
        );
        assert_eq!(pooled.services[0].id, 2, "stored by id");
        assert_eq!(pooled.n_services, 2);
        assert_eq!(pooled.generated, 200);
        assert_eq!(pooled.attainment, 0.95, "pooled, not averaged");
        assert_eq!(pooled.goodput_rps, 20.0);
        assert_eq!(pooled.p50_latency, Dur::from_millis(2));
        assert_eq!(pooled.p99_latency, Dur::from_millis(9));
        let mut mixed = base.clone();
        mixed.serve = Some(pooled);
        let back = ScheduleReport::from_json_str(&mixed.to_json_string()).unwrap();
        assert_eq!(back, mixed);
        let t = serve_comparison_table(&[mixed, base]);
        assert!(t.contains("slo-aware-pack"));
        assert!(t.contains("attainment"));
        assert!(t.contains('-'), "serve-less rows render placeholders");
    }

    #[test]
    fn empty_serve_metrics_are_well_defined() {
        let m = ServeMetrics::assemble(vec![], vec![]);
        assert_eq!(m.attainment, 1.0);
        assert_eq!(m.p99_latency, Dur::ZERO);
        assert_eq!(m.generated, 0);
    }
}
