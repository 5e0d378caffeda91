//! Latency-SLO inference serving co-scheduled with training on the
//! composable test bed.
//!
//! A [`ServiceSpec`] is a long-lived service: a fractional-GPU (MIG-style
//! 1/7, 2/7, 4/7, or full-slot) replica set serving an open-loop seeded
//! arrival stream ([`ArrivalKind::Poisson`] or diurnal) under a p99
//! latency SLO. [`MixedTrace`] interleaves services with the existing
//! training [`JobSpec`]s; the cluster event loop runs both on the rack.
//!
//! The serving data path per request: arrival → per-replica queue →
//! dynamic batch (launch when `max_batch` requests wait or the head has
//! waited `max_wait`, whichever first) → one fwd pass priced by
//! [`batch_latency`] against the V100 roofline scaled to the slice →
//! reply at batch completion. Replicas autoscale between `min_replicas`
//! and `max_replicas`: scale-ups and fault failovers pay
//! [`crate::fault::RECOMPOSE_LATENCY`] through the MCS attach path,
//! idle replicas above the floor are reclaimed after
//! [`SERVE_IDLE_SCALE_DOWN`]. Co-location is symmetric: training jobs
//! dilate serving batches and live services dilate training rates via the
//! same per-drawer interference model.

use crate::cluster::{dilation, tenant_user, SchedulerError, ADMIN, MAX_TENANTS};
use crate::metrics::{percentile_dur, round4, ServeMetrics, ServiceOutcome};
use crate::policy::{SliceSlot, SliceView};
use crate::trace::{JobSpec, PoissonMix, TenantId, Trace};
use desim::json::{FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimRng, SimTime};
use devices::gpu::GpuSpec;
use dlmodels::{Benchmark, InferenceProfile};
use falcon::McsError;
use rack::{drawer_mask, slot_set, Rack, RackAddr};
use std::collections::{BTreeMap, VecDeque};

/// MIG-style slicing granularity of one GPU slot (V100 stands in for the
/// A100's 7 compute slices).
pub const SLICES_PER_GPU: u8 = 7;
/// Achievable fraction of peak tensor throughput for small serving
/// batches (far below training's large-batch efficiency).
pub const SERVE_COMPUTE_EFF: f64 = 0.35;
/// An idle replica above the service's floor is reclaimed after this.
pub const SERVE_IDLE_SCALE_DOWN: Dur = Dur::from_secs(4);
/// Per-replica queue cap, in batches: arrivals beyond it are dropped.
pub const SERVE_QUEUE_CAP_BATCHES: usize = 8;
/// Scale up when the backlog exceeds this many full batches per replica.
pub const SERVE_BACKLOG_SCALE_UP: usize = 2;
/// Most requests one service's stream may hold; a stream with more
/// arrivals in its window is an error, never a silent cut.
const MAX_REQUESTS: usize = 200_000;

/// The open-loop arrival process of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Constant-rate Poisson arrivals.
    Poisson,
    /// Poisson thinned by a one-cycle sinusoid over the service window
    /// (peak 1.6× the mean rate) — a compressed day of traffic.
    Diurnal,
}

impl ToJson for ArrivalKind {
    fn to_json(&self) -> Value {
        Value::str(match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Diurnal => "diurnal",
        })
    }
}

impl FromJson for ArrivalKind {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str()? {
            "poisson" => Ok(ArrivalKind::Poisson),
            "diurnal" => Ok(ArrivalKind::Diurnal),
            other => Err(JsonError::decode(format!("unknown arrivals \"{other}\""))),
        }
    }
}

/// One latency-SLO inference service in a mixed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    pub id: u64,
    pub tenant: TenantId,
    pub benchmark: Benchmark,
    /// Replica size in sevenths of a GPU slot: 1, 2, 4, or 7.
    pub slice: u8,
    /// p99 latency target per request.
    pub slo: Dur,
    /// Mean request rate (req/s) over the service window.
    pub rate_rps: f64,
    pub arrivals: ArrivalKind,
    /// The service goes live here; its first replicas compose at start.
    pub start: SimTime,
    /// Arrivals stop at `start + duration`; queued requests still drain.
    pub duration: Dur,
    /// Dynamic-batching knobs: launch a batch when `max_batch` requests
    /// wait, or when the oldest has waited `max_wait`.
    pub max_batch: u32,
    pub max_wait: Dur,
    pub min_replicas: u8,
    pub max_replicas: u8,
}

impl ServiceSpec {
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

desim::json_record! {
    ServiceSpec;
    id: "id",
    tenant: "tenant",
    benchmark: "benchmark",
    slice: "slice",
    slo: "slo_ns",
    rate_rps: "rate_rps",
    arrivals: "arrivals",
    start: "start_ns",
    duration: "duration_ns",
    max_batch: "max_batch",
    max_wait: "max_wait_ns",
    min_replicas: "min_replicas",
    max_replicas: "max_replicas",
}

/// A workload of training jobs and inference services sharing the bed.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedTrace {
    pub name: String,
    pub jobs: Vec<JobSpec>,
    pub services: Vec<ServiceSpec>,
}

impl MixedTrace {
    /// The training side as a plain [`Trace`] (for probe warming and for
    /// replaying the same jobs without services).
    pub fn training(&self) -> Trace {
        Trace { name: self.name.clone(), jobs: self.jobs.clone() }
    }

    /// Jobs by (arrival, id), services by (start, id).
    pub fn sorted(mut self) -> MixedTrace {
        self.jobs.sort_by_key(|j| (j.arrival, j.id));
        self.services.sort_by_key(|s| (s.start, s.id));
        self
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a mixed trace; duplicate job or service ids are rejected and
    /// both streams arrive sorted regardless of file order.
    pub fn from_json_str(s: &str) -> Result<MixedTrace, JsonError> {
        let t = MixedTrace::from_json(&Value::parse(s)?)?;
        let mut ids: Vec<u64> = t.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(d) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(JsonError::decode(format!("duplicate job id {}", d[0])));
        }
        let mut sids: Vec<u64> = t.services.iter().map(|s| s.id).collect();
        sids.sort_unstable();
        if let Some(d) = sids.windows(2).find(|w| w[0] == w[1]) {
            return Err(JsonError::decode(format!("duplicate service id {}", d[0])));
        }
        Ok(t.sorted())
    }
}

/// A training-only workload: the trace's jobs and no services.
impl From<Trace> for MixedTrace {
    fn from(t: Trace) -> MixedTrace {
        MixedTrace { name: t.name, jobs: t.jobs, services: Vec::new() }
    }
}

desim::json_record! {
    MixedTrace;
    name: "name",
    jobs: "jobs",
    services: "services",
}

/// The seeded PAI-style mixed workload `repro serve` replays: the
/// two-tenant Poisson training mix plus `n_services` services drawn from
/// a per-benchmark serving envelope (small models at high rates on thin
/// slices, BERT-class models at low rates on fat slices).
pub fn seeded_pai_mix(n_jobs: usize, n_services: usize, seed: u64) -> MixedTrace {
    let name = format!("pai-mix-{n_jobs}j{n_services}s-{seed:#x}");
    // A denser arrival process than the training-only traces: the PAI
    // clusters this mix imitates run near saturation, which is exactly
    // the regime where serving and training fight over composition.
    let mut jobs = PoissonMix {
        seed,
        n_jobs,
        tenants: MAX_TENANTS,
        mean_interarrival: Dur::from_millis(500),
    }
    .generate(name.clone())
    .jobs;
    // PAI-style elasticity: every multi-GPU training job tolerates a
    // half-gang shrink, so SLO-triggered eviction has victims to claw.
    for j in &mut jobs {
        if j.gpus >= 4 {
            j.min_gpus = j.gpus / 2;
        }
    }

    // (benchmark, slice, rate lo..hi req/s, slo ms, max_batch, max_wait ms),
    // weighted toward the small vision models like the training mix.
    type Row = (Benchmark, u8, f64, f64, u64, u32, u64);
    const ENVELOPE: [(Row, u32); 5] = [
        ((Benchmark::MobileNetV2, 1, 10.0, 18.0, 60, 8, 20), 3),
        ((Benchmark::ResNet50, 2, 6.0, 12.0, 120, 8, 30), 2),
        ((Benchmark::YoloV5L, 4, 3.0, 6.0, 250, 4, 50), 2),
        ((Benchmark::BertBase, 2, 4.0, 8.0, 200, 8, 40), 2),
        ((Benchmark::BertLarge, 4, 1.5, 3.0, 500, 4, 80), 1),
    ];

    let mut rng = SimRng::seed_from_u64(seed ^ 0x5E2E_C0DE);
    let services = (0..n_services as u64)
        .map(|id| {
            let total: u32 = ENVELOPE.iter().map(|&(_, w)| w).sum();
            let mut pick = rng.index(total as usize) as u32;
            let mut row = ENVELOPE[ENVELOPE.len() - 1].0;
            for &(r, w) in &ENVELOPE {
                if pick < w {
                    row = r;
                    break;
                }
                pick -= w;
            }
            let (benchmark, slice, lo, hi, slo_ms, max_batch, wait_ms) = row;
            let rate_rps = (rng.uniform(lo, hi) * 100.0).round() / 100.0;
            ServiceSpec {
                id,
                tenant: TenantId(id as u32 % MAX_TENANTS),
                benchmark,
                slice,
                slo: Dur::from_millis(slo_ms),
                rate_rps,
                arrivals: if id % 2 == 0 { ArrivalKind::Poisson } else { ArrivalKind::Diurnal },
                // Services go live while the training wave holds the bed
                // (4-14 s in), so every initial composition is contested.
                start: SimTime::from_millis(4_000 + rng.index(10_001) as u64),
                duration: Dur::from_millis(22_000 + rng.index(12_001) as u64),
                max_batch,
                max_wait: Dur::from_millis(wait_ms),
                min_replicas: 1,
                max_replicas: if slice == 1 { 3 } else { 2 },
            }
        })
        .collect();
    MixedTrace { name, jobs, services }.sorted()
}

/// The seeded request arrival stream of one service — a pure function of
/// the spec, so replays are byte-identical at any worker count.
/// [`SchedulerError::BadService`] when the window holds more than the
/// per-service cap of 200,000 requests.
pub fn request_times(spec: &ServiceSpec) -> Result<Vec<SimTime>, SchedulerError> {
    let mut rng = SimRng::seed_from_u64(0x5E27E ^ spec.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let end = spec.end();
    let peak = match spec.arrivals {
        ArrivalKind::Poisson => spec.rate_rps,
        ArrivalKind::Diurnal => spec.rate_rps * 1.6,
    };
    let mut out = Vec::new();
    let mut t = spec.start;
    loop {
        let gap = -(1.0 - rng.unit()).ln() / peak;
        t = t + Dur::from_secs_f64(gap);
        if t >= end {
            break;
        }
        // Diurnal streams thin the peak-rate Poisson process by the
        // instantaneous rate: one sinusoidal cycle across the window.
        let accept = match spec.arrivals {
            ArrivalKind::Poisson => true,
            ArrivalKind::Diurnal => {
                let phase = t.since(spec.start).as_secs_f64() / spec.duration.as_secs_f64();
                let rate = spec.rate_rps * (1.0 + 0.6 * (std::f64::consts::TAU * phase).sin());
                rng.unit() < rate / peak
            }
        };
        if accept {
            if out.len() == MAX_REQUESTS {
                return Err(SchedulerError::BadService {
                    id: spec.id,
                    msg: format!(
                        "request stream passes {MAX_REQUESTS} requests before its window \
                         ends ({} rps over {}); lower rate_rps or duration",
                        spec.rate_rps, spec.duration
                    ),
                });
            }
            out.push(t);
        }
    }
    Ok(out)
}

/// Forward-pass latency of one batch on a `slice`/7 slot share: kernel
/// launches and H2D are fixed costs, the roofline term is the max of
/// compute and HBM time with both throughputs scaled to the slice, and
/// `dilation` applies the per-drawer co-residence interference.
pub fn batch_latency(
    profile: &InferenceProfile,
    gpu: &GpuSpec,
    slice: u8,
    batch: u32,
    dilation: f64,
) -> Dur {
    let frac = f64::from(slice) / f64::from(SLICES_PER_GPU);
    let compute = profile.flops(batch) / (gpu.fp16_flops * SERVE_COMPUTE_EFF * frac);
    let mem = profile.bytes(batch) / (gpu.hbm_bandwidth * gpu.hbm_efficiency * frac);
    let h2d = f64::from(batch) * profile.h2d_bytes_per_sample / gpu.dma_bandwidth;
    let launch = gpu.launch_overhead.as_secs_f64() * f64::from(profile.weighted_layers);
    Dur::from_secs_f64(dilation * (launch + h2d + compute.max(mem)))
}

/// One replica: a `slice`/7 share of one slot with its own request queue.
struct Replica {
    id: u32,
    slot: RackAddr,
    /// Usable from here (scale-ups pay the re-composition latency).
    ready_at: SimTime,
    /// Waiting requests, by arrival time.
    queue: VecDeque<SimTime>,
    /// The in-flight batch's request arrival times.
    batch: Vec<SimTime>,
    busy_until: Option<SimTime>,
    /// Pending idle-reclaim check, cleared by new work.
    idle_check: Option<SimTime>,
}

impl Replica {
    /// No batch in flight and nothing queued.
    fn idle(&self) -> bool {
        self.busy_until.is_none() && self.queue.is_empty()
    }

    fn next_event(&self, svc_ended: bool, max_batch: u32, max_wait: Dur) -> Option<SimTime> {
        if let Some(b) = self.busy_until {
            return Some(b);
        }
        if let Some(&head) = self.queue.front() {
            let due = if svc_ended || self.queue.len() >= max_batch as usize {
                self.ready_at
            } else {
                self.ready_at.max(head + max_wait)
            };
            return Some(due);
        }
        self.idle_check
    }
}

/// Runtime state of one service.
struct SvcState {
    spec: ServiceSpec,
    profile: InferenceProfile,
    arrivals: Vec<SimTime>,
    cursor: usize,
    replicas: Vec<Replica>,
    /// Requests that arrived while the service had zero replicas.
    orphans: VecDeque<SimTime>,
    next_replica_id: u32,
    /// Replica count the placement pass drives toward.
    target: u8,
    started: bool,
    ended: bool,
    latencies_ns: Vec<u64>,
    within_slo: u64,
    generated: u64,
    completed: u64,
    dropped: u64,
    replica_secs: f64,
    failovers: u32,
    peak_replicas: u8,
}

impl SvcState {
    fn new(spec: ServiceSpec) -> Result<SvcState, SchedulerError> {
        let profile = InferenceProfile::for_benchmark(spec.benchmark);
        let arrivals = request_times(&spec)?;
        Ok(SvcState {
            spec,
            profile,
            arrivals,
            cursor: 0,
            replicas: Vec::new(),
            orphans: VecDeque::new(),
            next_replica_id: 0,
            target: 0,
            started: false,
            ended: false,
            latencies_ns: Vec::new(),
            within_slo: 0,
            generated: 0,
            completed: 0,
            dropped: 0,
            replica_secs: 0.0,
            failovers: 0,
            peak_replicas: 0,
        })
    }

    fn queue_cap(&self) -> usize {
        SERVE_QUEUE_CAP_BATCHES * self.spec.max_batch as usize
    }

    /// Route one request to the shortest live queue (ties to the lowest
    /// replica id), to the orphan buffer when no replica exists, or drop
    /// it at the cap.
    fn dispatch(&mut self, arrived: SimTime) {
        let cap = self.queue_cap();
        if let Some(r) = self
            .replicas
            .iter_mut()
            .min_by_key(|r| (r.queue.len() + r.batch.len(), r.id))
        {
            if r.queue.len() >= cap {
                self.dropped += 1;
            } else {
                r.queue.push_back(arrived);
                r.idle_check = None;
            }
        } else if self.orphans.len() >= cap {
            self.dropped += 1;
        } else {
            self.orphans.push_back(arrived);
        }
    }

    /// Record the in-flight batch of replica `ri` completing at `done`.
    fn complete_batch(&mut self, ri: usize, done: SimTime, now: SimTime) {
        let r = &mut self.replicas[ri];
        r.busy_until = None;
        for arrived in r.batch.drain(..) {
            let lat = done.since(arrived);
            self.latencies_ns.push(lat.as_nanos());
            self.completed += 1;
            if lat <= self.spec.slo {
                self.within_slo += 1;
            }
        }
        if r.queue.is_empty() {
            r.idle_check = Some(now + SERVE_IDLE_SCALE_DOWN);
        }
    }

    /// Launch a batch on replica `ri` if it is ready and due.
    fn try_launch(&mut self, ri: usize, now: SimTime, dilation: f64, gpu: &GpuSpec) {
        let ended = self.ended;
        let (max_batch, max_wait, slice) =
            (self.spec.max_batch, self.spec.max_wait, self.spec.slice);
        let r = &mut self.replicas[ri];
        if r.busy_until.is_some() || r.queue.is_empty() || now < r.ready_at {
            return;
        }
        let full = r.queue.len() >= max_batch as usize;
        let head_due = *r.queue.front().expect("nonempty queue") + max_wait <= now;
        if !(full || ended || head_due) {
            return;
        }
        let n = r.queue.len().min(max_batch as usize);
        // `complete_batch` drained the last batch and kept its buffer.
        debug_assert!(r.batch.is_empty(), "launch over an unfinished batch");
        r.batch.extend(r.queue.drain(..n));
        let lat = batch_latency(&self.profile, gpu, slice, n as u32, dilation);
        r.busy_until = Some(now + lat);
        r.idle_check = None;
    }

    /// The last part of instant `t`: launch every due batch, dilated by
    /// `dil(d)` for the replica's global drawer `d`.
    fn launch_due(&mut self, t: SimTime, dil: impl Fn(usize) -> f64, gpu: &GpuSpec) {
        for ri in 0..self.replicas.len() {
            let d = self.replicas[ri].slot.global_drawer();
            self.try_launch(ri, t, dil(d), gpu);
        }
    }

    fn backlog(&self) -> usize {
        self.replicas.iter().map(|r| r.queue.len()).sum::<usize>() + self.orphans.len()
    }

    /// The backlog above which the service wants one more replica: this
    /// many full batches per live replica.
    fn scale_up_threshold(&self) -> usize {
        SERVE_BACKLOG_SCALE_UP * self.replicas.len().max(1) * self.spec.max_batch as usize
    }

    /// Scale up when the backlog exceeds the live replicas' batch
    /// throughput headroom; the placement pass composes the new replica
    /// (paying the re-composition latency).
    fn scale_up_wanted(&self) -> bool {
        self.started
            && !self.ended
            && self.target < self.spec.max_replicas
            && self.backlog() > self.scale_up_threshold()
    }

    /// The first half of instant `t`: complete each batch due by `t`,
    /// then route each request that arrived by `t`. Returns the latest
    /// completion (`SimTime::ZERO` when none). Idempotent at one `t`.
    fn complete_then_arrive(&mut self, t: SimTime) -> SimTime {
        let mut last = SimTime::ZERO;
        for ri in 0..self.replicas.len() {
            if let Some(done) = self.replicas[ri].busy_until {
                if done <= t {
                    self.complete_batch(ri, done, t);
                    last = last.max(done);
                }
            }
        }
        while self.cursor < self.arrivals.len() && self.arrivals[self.cursor] <= t {
            let a = self.arrivals[self.cursor];
            self.cursor += 1;
            self.generated += 1;
            self.dispatch(a);
        }
        last
    }

    /// Instant `t` of this service up to its launches, in the one order
    /// the global step and the epoch share: start the window, complete →
    /// arrive, bump the target when the backlog wants a replica, end the
    /// window, then reclaim each idle replica that may go (every one once
    /// ended, those above the floor whose idle check is due) into
    /// `freed`, or clear its due check. Launches ([`launch_due`]) come
    /// after every service has run this, so their dilation counts every
    /// reclaim at `t`. Returns the latest completion or window end.
    ///
    /// [`launch_due`]: Self::launch_due
    fn instant(&mut self, t: SimTime, freed: &mut Vec<RackAddr>) -> SimTime {
        if !self.started && self.spec.start <= t {
            self.started = true;
            self.target = self.spec.min_replicas;
        }
        let mut last = self.complete_then_arrive(t);
        if self.scale_up_wanted() {
            self.target += 1;
        }
        if self.started && !self.ended && self.spec.end() <= t {
            self.ended = true;
            self.target = 0;
            self.dropped += self.orphans.len() as u64;
            self.orphans.clear();
            last = last.max(t);
        }
        let mut ri = 0;
        while ri < self.replicas.len() {
            let r = &self.replicas[ri];
            let check_due = r.idle_check.is_some_and(|c| c <= t);
            let above_floor = self.replicas.len() > usize::from(self.spec.min_replicas);
            if r.idle() && (self.ended || (check_due && above_floor)) {
                freed.push(self.replicas.remove(ri).slot);
                if !self.ended {
                    self.target = self.target.saturating_sub(1).max(self.spec.min_replicas);
                }
            } else {
                if check_due {
                    self.replicas[ri].idle_check = None;
                }
                ri += 1;
            }
        }
        last
    }

    /// Would [`instant`](Self::instant) at `t` act beyond this service's
    /// own queues — start or end the window, bump the target, or reclaim
    /// a replica? Asked after `complete_then_arrive(t)`. An ended service
    /// always does: its drain tail reclaims.
    fn needs_loop(&self, t: SimTime) -> bool {
        if !self.started {
            return self.spec.start <= t;
        }
        if self.ended || self.spec.end() <= t || self.scale_up_wanted() {
            return true;
        }
        self.replicas.len() > usize::from(self.spec.min_replicas)
            && self.replicas.iter().any(|r| r.idle() && r.idle_check.is_some_and(|c| c <= t))
    }

    /// A lower bound on the first instant after `t0` at which this service
    /// [needs the loop](Self::needs_loop), read off its state without
    /// simulating: its start; its end; once ended, its next micro event;
    /// the arrival that could first push the backlog over the scale-up
    /// threshold (an arrival adds at most one request, and only a global
    /// event changes the replica count); and, above the replica floor,
    /// its pending idle checks and `t0 + SERVE_IDLE_SCALE_DOWN` (a check
    /// set later is set after `t0`). `SimTime::MAX` when it never will.
    ///
    /// `None` while the service holds the loop at every instant: its
    /// backlog already wants a replica (each step bumps the target), or it
    /// is live below its target (each event retries the placement).
    fn loop_bound(&self, t0: SimTime) -> Option<SimTime> {
        if !self.started {
            return Some(self.spec.start);
        }
        if self.ended {
            return Some(self.next_micro().unwrap_or(SimTime::MAX));
        }
        if self.replicas.len() < usize::from(self.target) {
            return None;
        }
        let mut bound = self.spec.end();
        if self.target < self.spec.max_replicas {
            let headroom = self.scale_up_threshold().checked_sub(self.backlog())?;
            if let Some(&a) = self.arrivals.get(self.cursor + headroom) {
                bound = bound.min(a);
            }
        }
        if self.replicas.len() > usize::from(self.spec.min_replicas) {
            bound = bound.min(t0 + SERVE_IDLE_SCALE_DOWN);
            for c in self.replicas.iter().filter_map(|r| r.idle_check) {
                bound = bound.min(c);
            }
        }
        Some(bound)
    }

    /// Earliest pending micro event of this service: an arrival, a batch
    /// completion, a due launch, or an idle check.
    fn next_micro(&self) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut fold = |x: SimTime| t = Some(t.map_or(x, |c: SimTime| c.min(x)));
        if let Some(&a) = self.arrivals.get(self.cursor) {
            fold(a);
        }
        for r in &self.replicas {
            if let Some(e) = r.next_event(self.ended, self.spec.max_batch, self.spec.max_wait) {
                fold(e);
            }
        }
        t
    }

    /// The next instant anything happens to this service: a micro event,
    /// or its start or end.
    fn next_instant(&self) -> Option<SimTime> {
        let edge = if !self.started {
            Some(self.spec.start)
        } else if !self.ended {
            Some(self.spec.end())
        } else {
            None
        };
        [edge, self.next_micro()].into_iter().flatten().min()
    }

    /// Run instant `t` inside an epoch, launching with this service's
    /// frozen dilation row `dil` (one factor per global drawer, current
    /// where its replicas sit). The epoch's bounds guarantee the instant
    /// does not need the loop, so it only moves requests and clears
    /// checks. Returns the latest completion.
    fn absorb(&mut self, t: SimTime, dil: &[f64], gpu: &GpuSpec) -> SimTime {
        let (mut freed, target, ended) = (Vec::new(), self.target, self.ended);
        let last = self.instant(t, &mut freed);
        debug_assert!(
            freed.is_empty() && self.target == target && self.ended == ended,
            "service {} needed the loop at {t}, inside an epoch",
            self.spec.id
        );
        self.launch_due(t, |d| dil[d], gpu);
        last
    }

    /// [Absorb](Self::absorb) every instant of this service strictly
    /// before `until`, starting from its next micro event `next`. Returns
    /// the latest completion.
    fn advance_before(
        &mut self,
        mut next: SimTime,
        until: SimTime,
        dil: &[f64],
        gpu: &GpuSpec,
    ) -> SimTime {
        let mut last = SimTime::ZERO;
        while next < until {
            last = last.max(self.absorb(next, dil, gpu));
            next = self.next_micro().unwrap_or(SimTime::MAX);
        }
        last
    }

    fn outcome(&self) -> ServiceOutcome {
        let dur = self.spec.duration.as_secs_f64();
        ServiceOutcome {
            id: self.spec.id,
            tenant: self.spec.tenant.0,
            benchmark: self.spec.benchmark.label().to_string(),
            slice: self.spec.slice,
            generated: self.generated,
            completed: self.completed,
            dropped: self.dropped,
            within_slo: self.within_slo,
            p50_latency: percentile_dur(self.latencies_ns.clone(), 0.50),
            p99_latency: percentile_dur(self.latencies_ns.clone(), 0.99),
            slo: self.spec.slo,
            attainment: round4(if self.generated == 0 {
                1.0
            } else {
                self.within_slo as f64 / self.generated as f64
            }),
            goodput_rps: round4(if dur > 0.0 { self.within_slo as f64 / dur } else { 0.0 }),
            replica_secs: round4(self.replica_secs),
            peak_replicas: self.peak_replicas,
            failovers: self.failovers,
        }
    }
}

/// Interference dilation of a service's work on global drawer `d`:
/// training jobs there plus the other live services there. `counts` holds
/// live services per drawer and `mine` is this service's drawer mask (the
/// occupancy scratch).
fn service_dilation(
    counts: &[usize],
    mine: u64,
    d: usize,
    interference: f64,
    training_on_drawer: &[usize],
) -> f64 {
    let others = counts[d] - ((mine >> d) & 1) as usize;
    dilation(interference, training_on_drawer[d] + others)
}

/// A slot share held by serving replicas. All sharers are replicas of the
/// owning tenant (the slot is attached to that tenant's host).
struct SlotShare {
    tenant: u32,
    used_sevenths: u8,
}

/// All serving state of one replay, driven by the cluster event loop.
pub(crate) struct ServeState {
    svcs: Vec<SvcState>,
    /// Indices of services that can still do anything — not yet ended,
    /// or ended with replicas left to drain. A retired service (ended,
    /// drained, reclaimed) contributes nothing to any event-loop scan,
    /// so the hot paths iterate this list instead of every service; on
    /// PAI-magnitude traces most of the replay runs long after the
    /// serving window closed.
    active: Vec<usize>,
    slot_use: BTreeMap<RackAddr, SlotShare>,
    /// O(1) mirror of `slot_use`: whole slots held per tenant. The full
    /// conservation audit recounts and cross-checks it.
    tenant_slots: Vec<usize>,
    gpu: GpuSpec,
    n_drawers: usize,
    last_activity: SimTime,
    /// Per-epoch scratch (service-count per drawer, per-service drawer
    /// masks), hoisted out of the event loop.
    epoch_counts: Vec<usize>,
    epoch_masks: Vec<u64>,
    /// One service's frozen dilation row, `n_drawers` wide, current only
    /// where that service's replicas sit (see `freeze_dilation`).
    epoch_dil: Vec<f64>,
    /// Each active service's [loop bound](SvcState::loop_bound) and next
    /// micro event, in `active` order, refilled each epoch.
    epoch_bounds: Vec<(SimTime, SimTime)>,
    /// The per-instant reference of the tests: `run_epoch` surfaces each
    /// instant it would absorb as a global event instead.
    #[cfg(test)]
    pub(crate) per_instant: bool,
    /// Whether the instant the reference's last `run_epoch` returned is
    /// one the epoch absorbs (the loop accrues nothing there).
    #[cfg(test)]
    pub(crate) absorbed: bool,
}

impl ServeState {
    /// Serving state for `specs` on a rack with `n_drawers` drawers. With
    /// no services it is the training-only state: no events, no accrual,
    /// so a replay through it is byte-identical to the pre-serving loop.
    /// Fails naming the first service whose stream passes the request cap.
    pub fn new_for(
        specs: Vec<ServiceSpec>,
        n_drawers: usize,
    ) -> Result<ServeState, SchedulerError> {
        let svcs = specs
            .into_iter()
            .map(SvcState::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeState {
            active: (0..svcs.len()).collect(),
            epoch_dil: vec![1.0; n_drawers],
            svcs,
            slot_use: BTreeMap::new(),
            tenant_slots: vec![0; MAX_TENANTS as usize],
            gpu: GpuSpec::v100_pcie_16gb(),
            n_drawers,
            last_activity: SimTime::ZERO,
            epoch_counts: Vec::new(),
            epoch_masks: Vec::new(),
            epoch_bounds: Vec::new(),
            #[cfg(test)]
            per_instant: false,
            #[cfg(test)]
            absorbed: false,
        })
    }

    /// True once no service can ever act again — every one has ended,
    /// drained its queue, and had all replicas reclaimed — and from the
    /// start of a replay without services. From that point the serving
    /// side of the event loop is a guaranteed no-op.
    pub fn idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Latest serving activity (batch completions and service ends) — the
    /// mixed-replay makespan folds this in.
    pub fn last_activity(&self) -> SimTime {
        self.last_activity
    }

    /// Accrue replica-seconds (as fractional GPU-seconds) over `now → t`
    /// into the loop's busy/tenant accounting. Exact no-op with no
    /// services, so training-only float accounting is bit-identical.
    pub fn accrue(&mut self, now: SimTime, t: SimTime, busy: &mut f64, tenant: &mut [f64]) {
        let dt = t.since(now).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        for &i in &self.active {
            let svc = &mut self.svcs[i];
            let n = svc.replicas.len() as f64;
            if n > 0.0 {
                let add = f64::from(svc.spec.slice) / f64::from(SLICES_PER_GPU) * n * dt;
                svc.replica_secs += add;
                *busy += add;
                tenant[svc.spec.tenant.0 as usize] += add;
            }
        }
    }

    /// Whole slots currently held by serving, per tenant (for quota
    /// accounting: a partially-used slot still occupies the whole slot).
    /// Served from the cached counters — O(1), no allocation.
    pub fn slots_per_tenant(&self) -> &[usize] {
        &self.tenant_slots
    }

    /// Recount per-tenant slots from `slot_use` ground truth; the full
    /// conservation audit asserts this equals the cached counters.
    pub fn audit_slots_per_tenant(&self) -> [usize; MAX_TENANTS as usize] {
        let mut v = [0usize; MAX_TENANTS as usize];
        for share in self.slot_use.values() {
            v[share.tenant as usize] += 1;
        }
        v
    }

    /// Number of slots currently held by serving.
    pub fn n_slots(&self) -> usize {
        self.slot_use.len()
    }

    /// The slots currently held by serving, as a [`slot_set`] — the set
    /// the full conservation audit adds to the training bookings.
    pub fn slot_set(&self) -> u128 {
        slot_set(self.slot_use.keys().copied())
    }

    pub fn uses_slot(&self, slot: RackAddr) -> bool {
        self.slot_use.contains_key(&slot)
    }

    /// Drawer bitmasks of the services with at least one live replica —
    /// each counts once as an interference neighbor to training jobs
    /// sharing a drawer with it.
    pub fn live_service_drawer_masks_into(&self, out: &mut Vec<u64>) {
        for svc in self.active.iter().map(|&i| &self.svcs[i]) {
            let m = drawer_mask(svc.replicas.iter().map(|r| r.slot));
            if m != 0 {
                out.push(m);
            }
        }
    }

    /// Fill the epoch scratch: per-drawer counts of services with a live
    /// replica there, plus each service's drawer bitmask. Retired
    /// services hold no replicas, so restricting the scan to the active
    /// list is exact; scratch buffers make this allocation-free on the
    /// per-event path.
    fn fill_occupancy_scratch(&mut self) {
        self.epoch_counts.clear();
        self.epoch_counts.resize(self.n_drawers, 0);
        self.epoch_masks.clear();
        self.epoch_masks.resize(self.svcs.len(), 0);
        for &i in &self.active {
            let mut m = drawer_mask(self.svcs[i].replicas.iter().map(|r| r.slot));
            self.epoch_masks[i] = m;
            while m != 0 {
                self.epoch_counts[m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
    }

    /// Freeze service `i`'s dilation into the `epoch_dil` row, from the
    /// occupancy scratch: only the drawers its replicas sit on, the only
    /// entries it reads.
    fn freeze_dilation(&mut self, i: usize, interference: f64, training_on_drawer: &[usize]) {
        let mine = self.epoch_masks[i];
        let mut m = mine;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            self.epoch_dil[d] =
                service_dilation(&self.epoch_counts, mine, d, interference, training_on_drawer);
            m &= m - 1;
        }
    }

    /// Services wanting a replica placed: `(svc index, tenant, slice,
    /// start)` for each live service below its target.
    pub fn placement_wants(&self) -> Vec<(usize, u32, u8, SimTime)> {
        self.active
            .iter()
            .map(|&i| (i, &self.svcs[i]))
            .filter(|(_, s)| s.started && !s.ended && s.replicas.len() < usize::from(s.target))
            .map(|(i, s)| (i, s.spec.tenant.0, s.spec.slice, s.spec.start))
            .collect()
    }

    /// Is service `i` at risk of SLO violation right now? True when it has
    /// no replicas while live, or a queued request has already burned
    /// `band` of its SLO waiting (the policy's clawback band; 0.5 — half
    /// the SLO — for every hand-written policy). Drives SLO-triggered
    /// eviction (elastic shrink of training) under policies that opt in.
    pub fn under_pressure(&self, i: usize, now: SimTime, band: f64) -> bool {
        let svc = &self.svcs[i];
        if !svc.started || svc.ended {
            return false;
        }
        if svc.replicas.is_empty() {
            return true;
        }
        // The 0.5 fast path keeps the legacy integer arithmetic so preset
        // replays stay bit-exact; arbitrary bands go through f64.
        let aged = if band == 0.5 {
            Dur::from_nanos(svc.spec.slo.as_nanos() / 2)
        } else {
            Dur::from_nanos((svc.spec.slo.as_nanos() as f64 * band) as u64)
        };
        svc.replicas
            .iter()
            .any(|r| r.queue.front().is_some_and(|&h| now.since(h) > aged))
    }

    /// The fractional-capacity view for placing one replica of `tenant`:
    /// this tenant's partially-used serving slots plus (under quota)
    /// wholly free slots, in global slot order.
    pub fn slice_view(
        &self,
        tenant: u32,
        wholly_free: &[RackAddr],
        free_gpus: Vec<usize>,
        at_quota: bool,
    ) -> SliceView {
        let mut slots: Vec<SliceSlot> = self
            .slot_use
            .iter()
            .filter(|(_, share)| share.tenant == tenant && share.used_sevenths < SLICES_PER_GPU)
            .map(|(&addr, share)| SliceSlot {
                addr,
                free_sevenths: SLICES_PER_GPU - share.used_sevenths,
                shared: true,
            })
            .collect();
        if !at_quota {
            slots.extend(wholly_free.iter().map(|&addr| SliceSlot {
                addr,
                free_sevenths: SLICES_PER_GPU,
                shared: false,
            }));
        }
        slots.sort_by_key(|s| s.addr);
        SliceView { slots, free_gpus }
    }

    /// Register a placed replica on `slot` (the cluster has already
    /// attached the slot if it was fresh) and hand it any orphaned
    /// requests.
    pub fn add_replica(&mut self, i: usize, slot: RackAddr, ready_at: SimTime) {
        let svc = &mut self.svcs[i];
        let tenant = svc.spec.tenant.0;
        let share = self.slot_use.entry(slot).or_insert_with(|| {
            self.tenant_slots[tenant as usize] += 1;
            SlotShare { tenant, used_sevenths: 0 }
        });
        debug_assert_eq!(share.tenant, svc.spec.tenant.0, "slot shared across tenants");
        share.used_sevenths += svc.spec.slice;
        debug_assert!(share.used_sevenths <= SLICES_PER_GPU, "slot oversliced");
        let id = svc.next_replica_id;
        svc.next_replica_id += 1;
        let mut r = Replica {
            id,
            slot,
            ready_at,
            queue: VecDeque::new(),
            batch: Vec::new(),
            busy_until: None,
            idle_check: Some(ready_at + SERVE_IDLE_SCALE_DOWN),
        };
        while let Some(a) = svc.orphans.pop_front() {
            r.queue.push_back(a);
        }
        if !r.queue.is_empty() {
            r.idle_check = None;
        }
        svc.replicas.push(r);
        svc.peak_replicas = svc.peak_replicas.max(svc.replicas.len() as u8);
    }

    /// Release a `slice`/7 share; returns true when the slot emptied (the
    /// caller must detach it).
    fn release_slice(
        slot_use: &mut BTreeMap<RackAddr, SlotShare>,
        tenant_slots: &mut [usize],
        slot: RackAddr,
        slice: u8,
    ) -> bool {
        let share = slot_use.get_mut(&slot).expect("serve slot registered");
        share.used_sevenths -= slice;
        if share.used_sevenths == 0 {
            tenant_slots[share.tenant as usize] -= 1;
            slot_use.remove(&slot);
            true
        } else {
            false
        }
    }

    /// Run instant `now` for every service: each one's
    /// `SvcState::instant` in `active` order, releasing the
    /// slices it reclaims (an emptied slot detaches through the MCS), then
    /// retirement, then every due launch. Returns true when the
    /// replica/slot set changed (training rates must be recomputed).
    pub fn step(
        &mut self,
        now: SimTime,
        rack: &Rack,
        interference: f64,
        training_on_drawer: &[usize],
    ) -> Result<bool, McsError> {
        let mut changed = false;
        let mut last = self.last_activity;
        let mut freed = Vec::new();
        for idx in 0..self.active.len() {
            let svc = &mut self.svcs[self.active[idx]];
            last = last.max(svc.instant(now, &mut freed));
            if freed.is_empty() {
                continue;
            }
            for slot in freed.drain(..) {
                let (tenant, slice) = (svc.spec.tenant.0, svc.spec.slice);
                if Self::release_slice(&mut self.slot_use, &mut self.tenant_slots, slot, slice) {
                    rack.detach(now, tenant_user(tenant), slot)?;
                }
                changed = true;
            }
        }
        // Retire services that can never act again (ended, drained,
        // every replica reclaimed): the hot scans skip them from here on.
        self.active.retain(|&i| {
            let s = &self.svcs[i];
            let retired = s.ended && s.replicas.is_empty();
            if retired {
                debug_assert_eq!(s.cursor, s.arrivals.len(), "retired service left arrivals");
                debug_assert!(s.orphans.is_empty(), "retired service left orphans");
            }
            !retired
        });
        self.last_activity = last;
        self.try_launch_all(now, interference, training_on_drawer);
        Ok(changed)
    }

    /// The serving epoch: advance every service from `now` toward `cap`
    /// (the next training-side event) and return the next instant the
    /// global loop must run. Each service runs its own instants strictly
    /// before the earliest loop bound (`SvcState::loop_bound`) of any
    /// service, launching with dilation frozen at entry (replica and job
    /// membership change only at global events). At that instant every
    /// service completes and arrives first; if one then needs the loop
    /// (`SvcState::needs_loop`) the epoch stops and leaves the rest of
    /// the instant to [`step`](Self::step), otherwise each service
    /// finishes the instant and the epoch goes on. No service ever runs
    /// past an instant where the global loop acts.
    ///
    /// While the loop acts at every instant — `hold` from the training
    /// side (a displaced job waits, or defrag is armed), or a service
    /// without a loop bound (over its scale-up threshold, or below its
    /// target) — the epoch stops at the next instant of any service.
    pub fn run_epoch(
        &mut self,
        now: SimTime,
        cap: Option<SimTime>,
        hold: bool,
        interference: f64,
        training_on_drawer: &[usize],
    ) -> Option<SimTime> {
        // One pass over the services: each one's loop bound and next micro
        // event, or the next instant of any service while the loop acts at
        // every instant.
        let mut bounds = std::mem::take(&mut self.epoch_bounds);
        bounds.clear();
        let mut every_instant = hold;
        for &i in &self.active {
            let svc = &self.svcs[i];
            match svc.loop_bound(now) {
                Some(b) if !every_instant => {
                    bounds.push((b, svc.next_micro().unwrap_or(SimTime::MAX)))
                }
                _ => {
                    every_instant = true;
                    break;
                }
            }
        }
        if every_instant {
            self.epoch_bounds = bounds;
            let next = self.active.iter().filter_map(|&i| self.svcs[i].next_instant()).min();
            return [next, cap].into_iter().flatten().min();
        }
        // Dilation is frozen at entry: replica sets and training membership
        // change only at global events. A service's row is written just
        // before it runs an instant.
        self.fill_occupancy_scratch();
        let mut last = self.last_activity;
        let stop = loop {
            let first_bound = bounds.iter().map(|&(b, _)| b).min().unwrap_or(SimTime::MAX);
            let t = cap.map_or(first_bound, |c| c.min(first_bound));
            if t == SimTime::MAX {
                break None;
            }
            #[cfg(test)]
            if self.per_instant {
                let first = bounds.iter().map(|&(_, m)| m).min().filter(|&m| m < t);
                if first.is_some() {
                    self.absorbed = true;
                    break first;
                }
            }
            for (k, &(_, next)) in bounds.iter().enumerate() {
                if next < t {
                    let i = self.active[k];
                    self.freeze_dilation(i, interference, training_on_drawer);
                    let (dil, gpu) = (&self.epoch_dil, &self.gpu);
                    last = last.max(self.svcs[i].advance_before(next, t, dil, gpu));
                }
            }
            if Some(t) == cap {
                break cap;
            }
            for &i in &self.active {
                last = last.max(self.svcs[i].complete_then_arrive(t));
            }
            let needed = self.active.iter().zip(&bounds);
            if needed.into_iter().any(|(&i, &(b, _))| b == t && self.svcs[i].needs_loop(t)) {
                break Some(t);
            }
            #[cfg(test)]
            if self.per_instant {
                self.absorbed = true;
                break Some(t);
            }
            for (k, bound) in bounds.iter_mut().enumerate() {
                let i = self.active[k];
                self.freeze_dilation(i, interference, training_on_drawer);
                let svc = &mut self.svcs[i];
                last = last.max(svc.absorb(t, &self.epoch_dil, &self.gpu));
                if bound.0 == t {
                    bound.0 = svc.loop_bound(t).expect("no hold begins inside an epoch");
                }
                bound.1 = svc.next_micro().unwrap_or(SimTime::MAX);
            }
        };
        self.epoch_bounds = bounds;
        self.last_activity = last;
        stop
    }

    /// Launch every due batch. Dilation is frozen per batch at launch:
    /// 1 + interference × (training jobs + other live services sharing the
    /// replica's drawer).
    pub fn try_launch_all(
        &mut self,
        now: SimTime,
        interference: f64,
        training_on_drawer: &[usize],
    ) {
        self.fill_occupancy_scratch();
        let counts = &self.epoch_counts;
        for &i in &self.active {
            let mine = self.epoch_masks[i];
            let dil = |d| service_dilation(counts, mine, d, interference, training_on_drawer);
            self.svcs[i].launch_due(now, dil, &self.gpu);
        }
    }

    /// Fail over replicas on the `failed` [slot set](slot_set): force-detach
    /// the serving slots through the MCS, re-queue their waiting and
    /// in-flight requests onto survivors (or the orphan buffer), and let
    /// the placement pass compose replacements.
    pub fn evacuate_failed(
        &mut self,
        now: SimTime,
        rack: &Rack,
        failed: u128,
    ) -> Result<bool, McsError> {
        let dead: Vec<RackAddr> =
            self.slot_use.keys().copied().filter(|s| s.in_set(failed)).collect();
        if dead.is_empty() {
            return Ok(false);
        }
        for &slot in &dead {
            rack.force_detach(now, ADMIN, slot)?;
            if let Some(share) = self.slot_use.remove(&slot) {
                self.tenant_slots[share.tenant as usize] -= 1;
            }
        }
        for svc in &mut self.svcs {
            let (dead_reps, alive): (Vec<Replica>, Vec<Replica>) = svc
                .replicas
                .drain(..)
                .partition(|r| r.slot.in_set(failed));
            svc.replicas = alive;
            for r in dead_reps {
                svc.failovers += 1;
                for a in r.batch.into_iter().chain(r.queue) {
                    if svc.ended {
                        svc.dropped += 1;
                    } else {
                        svc.dispatch(a);
                    }
                }
            }
        }
        Ok(true)
    }

    /// End-of-replay invariants: every service drained (request
    /// conservation) and every serving slot released.
    pub fn assert_drained(&self) {
        for svc in &self.svcs {
            assert_eq!(svc.cursor, svc.arrivals.len(), "service {} left arrivals", svc.spec.id);
            assert!(svc.replicas.is_empty(), "service {} left replicas", svc.spec.id);
            assert!(svc.orphans.is_empty(), "service {} left orphans", svc.spec.id);
            assert_eq!(
                svc.generated,
                svc.completed + svc.dropped,
                "service {} leaked requests",
                svc.spec.id
            );
        }
        assert!(self.slot_use.is_empty(), "serving slots leaked");
    }

    /// Fold per-service accounting into the report block; `None` when the
    /// replay had no services (training-only reports keep their bytes).
    pub fn assemble(&self) -> Option<ServeMetrics> {
        if self.svcs.is_empty() {
            return None;
        }
        let services: Vec<ServiceOutcome> = self.svcs.iter().map(|s| s.outcome()).collect();
        let all: Vec<u64> =
            self.svcs.iter().flat_map(|s| s.latencies_ns.iter().copied()).collect();
        Some(ServeMetrics::assemble(services, all))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, arrivals: ArrivalKind) -> ServiceSpec {
        ServiceSpec {
            id,
            tenant: TenantId(id as u32 % 2),
            benchmark: Benchmark::ResNet50,
            slice: 2,
            slo: Dur::from_millis(120),
            rate_rps: 8.0,
            arrivals,
            start: SimTime::from_secs(1),
            duration: Dur::from_secs(10),
            max_batch: 8,
            max_wait: Dur::from_millis(30),
            min_replicas: 1,
            max_replicas: 2,
        }
    }

    #[test]
    fn arrival_stream_is_deterministic_and_in_window() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Diurnal] {
            let s = spec(3, kind);
            let a = request_times(&s).unwrap();
            let b = request_times(&s).unwrap();
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.windows(2).all(|w| w[0] <= w[1]));
            assert!(a.iter().all(|&t| t >= s.start && t < s.end()));
            // Rate sanity: within a factor of 2 of the nominal mean.
            let n = a.len() as f64;
            assert!(n > 8.0 * 10.0 / 2.0 && n < 8.0 * 10.0 * 2.0, "{n} arrivals");
        }
    }

    #[test]
    fn different_service_ids_get_different_streams() {
        let a = request_times(&spec(1, ArrivalKind::Poisson)).unwrap();
        let b = request_times(&spec(2, ArrivalKind::Poisson)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn a_stream_over_the_request_cap_is_an_error() {
        // 1,000,000 rps over 1 s: five times the cap.
        let mut s = spec(9, ArrivalKind::Poisson);
        s.rate_rps = 1_000_000.0;
        s.duration = Dur::from_secs(1);
        let Err(err) = request_times(&s) else {
            panic!("an over-cap stream was cut silently")
        };
        assert!(
            matches!(err, SchedulerError::BadService { id: 9, .. }),
            "{err}"
        );
        assert!(
            err.to_string()
                .starts_with("service 9: request stream passes 200000"),
            "{err}"
        );
        // The serving constructor names the same service.
        let Err(err) = ServeState::new_for(vec![spec(1, ArrivalKind::Poisson), s], 2) else {
            panic!("the serving constructor accepted an over-cap stream")
        };
        assert!(
            matches!(err, SchedulerError::BadService { id: 9, .. }),
            "{err}"
        );
        // A window that holds the stream is untouched: the cap is a
        // bound, not a cut.
        let mut under = spec(9, ArrivalKind::Diurnal);
        under.rate_rps = 15_000.0;
        assert!(request_times(&under).unwrap().len() > 100_000);
    }

    #[test]
    fn batch_latency_scales_sensibly() {
        let gpu = GpuSpec::v100_pcie_16gb();
        let p = InferenceProfile::for_benchmark(Benchmark::ResNet50);
        let one = batch_latency(&p, &gpu, 7, 1, 1.0);
        let eight = batch_latency(&p, &gpu, 7, 8, 1.0);
        assert!(eight > one, "bigger batches take longer");
        assert!(eight < Dur::from_nanos(8 * one.as_nanos()), "batching amortizes");
        let thin = batch_latency(&p, &gpu, 1, 1, 1.0);
        assert!(thin > one, "a 1/7 slice is slower than a full slot");
        let dilated = batch_latency(&p, &gpu, 7, 1, 1.5);
        let want = one.as_secs_f64() * 1.5;
        assert!((dilated.as_secs_f64() - want).abs() < 2e-9, "{dilated:?} vs {want}");
    }

    #[test]
    fn serving_latencies_sit_under_the_envelope_slos() {
        // Every envelope row must leave generous headroom between its
        // batch latency (max batch, moderate dilation, its slice) and its
        // SLO — otherwise attainment targets are unreachable by design.
        let gpu = GpuSpec::v100_pcie_16gb();
        let mix = seeded_pai_mix(0, 16, 7);
        for s in &mix.services {
            let p = InferenceProfile::for_benchmark(s.benchmark);
            let lat = batch_latency(&p, &gpu, s.slice, s.max_batch, 1.3);
            let budget = s.slo.saturating_sub(s.max_wait);
            assert!(
                Dur::from_nanos(2 * lat.as_nanos()) <= budget,
                "{:?}: batch {:?} vs SLO {:?}",
                s.benchmark,
                lat,
                s.slo
            );
        }
    }

    #[test]
    fn mixed_trace_round_trips_and_rejects_duplicates() {
        let mix = seeded_pai_mix(6, 4, 0xABC);
        let back = MixedTrace::from_json_str(&mix.to_json_string()).unwrap();
        assert_eq!(back, mix);

        let mut dup = mix.clone();
        dup.services[1].id = dup.services[0].id;
        assert!(MixedTrace::from_json_str(&dup.to_json_string()).is_err());
        let mut dupj = mix;
        dupj.jobs[1].id = dupj.jobs[0].id;
        assert!(MixedTrace::from_json_str(&dupj.to_json_string()).is_err());
    }

    #[test]
    fn pai_mix_is_deterministic_and_in_envelope() {
        let a = seeded_pai_mix(16, 8, 0x5E27E);
        let b = seeded_pai_mix(16, 8, 0x5E27E);
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 16);
        assert_eq!(a.services.len(), 8);
        for s in &a.services {
            assert!(matches!(s.slice, 1 | 2 | 4 | 7));
            assert!(s.tenant.0 < MAX_TENANTS);
            assert!(s.rate_rps > 0.0);
            assert!(s.duration >= Dur::from_secs(22));
            assert!(s.start >= SimTime::from_secs(4));
            assert!(s.min_replicas >= 1 && s.min_replicas <= s.max_replicas);
        }
        assert_ne!(a, seeded_pai_mix(16, 8, 0x5E27F));
    }
}
