//! The training-loop engine: a discrete-event state machine that drives a
//! data-parallel job through the full Fig 8 pipeline on a composed system.
//!
//! The data-parallel replicas run in lockstep (identical models, identical
//! batch sizes), so the engine advances one logical iteration state
//! machine and fans out per-GPU flows (H2D copies, ring-collective edges)
//! to the fabric, which prices all contention. GPU busy time follows
//! `nvidia-smi` semantics: compute kernels *and* NCCL communication
//! kernels occupy the SMs — this is why the paper observes slightly
//! *higher* GPU utilization on Falcon configurations (Fig 10) even though
//! they are slower.

use crate::cluster::Cluster;
use crate::config::{dp_dispatch_dilation, JobConfig, Strategy};
use crate::memory::gpu_memory_needed;
use crate::pipeline::{self, PipelineState};
use crate::telemetry::{self, RunReport, Telemetry};
use collectives::{all_gather, plan_ring, reduce_scatter, ring_allreduce, star_broadcast, star_reduce};
use desim::{Dur, Sim, SimRng, SimTime};
use devices::roofline::KernelTime;
use dlmodels::{Benchmark, ModelDesc};
use fabric::{DirLink, FabricState, FlowWorld, NodeId, Topology};
use std::fmt;

/// Training-job failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The per-GPU memory footprint exceeds the device capacity.
    OutOfMemory { needed: f64, capacity: f64 },
    /// The configuration has no GPUs.
    NoGpus,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::OutOfMemory { needed, capacity } => write!(
                f,
                "CUDA out of memory: needs {:.1} GB of {:.1} GB",
                needed / 1e9,
                capacity / 1e9
            ),
            TrainError::NoGpus => write!(f, "no GPUs in the composed system"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Per-iteration phase of the lockstep group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitInput,
    /// Sharded strategies: waiting for the parameter all-gather.
    WaitParams,
    Broadcast,
    Fwd,
    Bwd,
    Reduce,
    Optimizer,
    Checkpoint,
    Done,
}

/// A queued collective operation (one NCCL communicator: serialized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommOp {
    /// Gradient bucket sync (allreduce under DDP, reduce-scatter under
    /// ZeRO).
    Bucket,
    /// ZeRO parameter all-gather after the optimizer step.
    ParamAllGather,
}

/// The evolving state of the job.
pub struct JobState {
    epoch: u32,
    iter_in_epoch: u64,
    pub iters_total: u64,
    iters_per_epoch: u64,
    // Precomputed per-iteration quantities.
    fwd: KernelTime,
    bwd: KernelTime,
    opt_time: Dur,
    ring: Vec<NodeId>,
    bucket_bytes: Vec<f64>,
    grad_sync_bytes: f64,
    param_bytes: f64,
    ckpt_bytes: f64,
    // Transient per-iteration state.
    phase: Phase,
    iter_start: SimTime,
    buckets_outstanding: usize,
    bwd_done: bool,
    bwd_end: SimTime,
    params_ready: bool,
    /// NCCL semantics: collectives on one communicator execute in issue
    /// order, never concurrently. Pending operations queue here.
    comm_queue: std::collections::VecDeque<CommOp>,
    comm_active: bool,
    input_wait_start: SimTime,
    finished_at: SimTime,
}

/// The simulation world of a training run.
pub struct TrainWorld {
    pub fabric: FabricState<TrainWorld>,
    pub cluster: Cluster,
    pub cfg: JobConfig,
    pub model: &'static ModelDesc,
    pub telemetry: Telemetry,
    pub pipeline: PipelineState,
    pub job: JobState,
    pub rng: SimRng,
}

impl FlowWorld for TrainWorld {
    fn fabric(&mut self) -> &mut FabricState<TrainWorld> {
        &mut self.fabric
    }
}

/// Aggregate roofline time of one forward pass of `model` at the job's
/// batch on the slowest GPU of the cluster.
fn forward_time(model: &ModelDesc, cluster: &Cluster, cfg: &JobConfig) -> KernelTime {
    let gpu = cluster
        .gpus
        .iter()
        .min_by(|a, b| {
            a.spec
                .fp16_flops
                .partial_cmp(&b.spec.fp16_flops)
                .expect("finite flops")
        })
        .expect("at least one GPU")
        .spec
        .clone();
    let dev_precision = match cfg.precision {
        dlmodels::Precision::Fp32 => devices::Precision::Fp32,
        dlmodels::Precision::Fp16 => devices::Precision::Fp16,
    };
    let mut acc = KernelTime::ZERO;
    for layer in &model.layers {
        acc.accumulate(gpu.kernel(
            layer.flops(cfg.per_gpu_batch),
            layer.mem_bytes_fwd(cfg.per_gpu_batch, cfg.precision),
            dev_precision,
            layer.kind.compute_efficiency(),
        ));
    }
    acc
}

/// Run a training job on a composed cluster. Consumes the topology (the
/// run needs exclusive fabric state); returns the distilled report.
pub fn run_job(topo: Topology, cluster: Cluster, cfg: JobConfig) -> Result<RunReport, TrainError> {
    let n = cluster.n_gpus();
    if n == 0 {
        return Err(TrainError::NoGpus);
    }
    let model = dlmodels::paper_model(cfg.benchmark);

    // Memory feasibility (the Fig 16 batch-size gate).
    let budget = gpu_memory_needed(model, cfg.per_gpu_batch, cfg.precision, cfg.strategy, n);
    let capacity = cluster
        .gpus
        .iter()
        .map(|g| g.spec.memory_bytes)
        .fold(f64::INFINITY, f64::min);
    if budget.total() > capacity {
        return Err(TrainError::OutOfMemory {
            needed: budget.total(),
            capacity,
        });
    }

    // Iterations per epoch: the dataset is sharded across the replicas.
    let samples_per_gpu = model.dataset.samples / n as u64;
    let full_iters_per_epoch = (samples_per_gpu / cfg.per_gpu_batch).max(1);
    let mut iters_per_epoch = full_iters_per_epoch;
    if let Some(cap) = cfg.max_iters_per_epoch {
        iters_per_epoch = iters_per_epoch.min(cap);
    }
    // Faithful mini-epoch scaling: epoch-scoped costs (checkpoint bytes,
    // cold dataset reads) shrink with the iteration cap so that *relative*
    // quantities match a full-length run at any scale.
    let epoch_scale = iters_per_epoch as f64 / full_iters_per_epoch as f64;

    // Precompute kernel times.
    let mut fwd = forward_time(model, &cluster, &cfg);
    let mut bwd = fwd.scaled(2.0);
    if matches!(cfg.strategy, Strategy::Dp) {
        let d = dp_dispatch_dilation(n);
        fwd = fwd.scaled(d);
        bwd = bwd.scaled(d);
    }
    // Optimizer: Adam reads/writes params, grads and moments (~24 B per
    // parameter at AMP), sharded n-ways under ZeRO.
    let gpu0 = &cluster.gpus[0].spec;
    let opt_bytes = model.param_count() as f64 * 24.0;
    let opt_share = match cfg.strategy {
        Strategy::Sharded { .. } => opt_bytes / n as f64,
        _ => opt_bytes,
    };
    let opt_time =
        Dur::from_secs_f64(opt_share / gpu0.effective_hbm()) + Dur::from_micros(500);

    // Communication plan.
    let grad_bytes = model.gradient_bytes(cfg.precision);
    let (bucket_bytes, grad_sync_bytes) = match cfg.strategy {
        Strategy::Ddp { bucket_bytes } | Strategy::Sharded { bucket_bytes } => {
            let k = (grad_bytes / bucket_bytes).ceil().max(1.0) as usize;
            let per = grad_bytes / k as f64;
            (vec![per; k], grad_bytes)
        }
        Strategy::Dp => (Vec::new(), grad_bytes),
    };

    let mut fabric = FabricState::new(topo);
    let ring = plan_ring(&mut fabric.topo, &cluster.gpu_cores());
    // The report reads port traffic only on the Falcon GUI's monitored
    // links, so only those are counted, from before the first flow.
    let monitored = cluster.monitored_pcie_links(&fabric.topo);
    for &dl in &monitored {
        fabric.ports.watch(dl);
    }

    let dataset_fits = cluster
        .dram
        .fits_in_page_cache(model.dataset.disk_bytes(), 60e9);
    let reads_per_sample = if cfg.benchmark == Benchmark::YoloV5L {
        4.0 // mosaic augmentation touches four images per sample
    } else {
        1.0
    };
    // When the epoch is capped for a scaled simulation, the effective
    // dataset shrinks with it (a faithful mini-epoch: the first epoch is
    // cold, later epochs are page-cache warm, exactly as at full scale).
    let effective_dataset_bytes = model.dataset.disk_bytes().min(
        iters_per_epoch as f64 * n as f64 * cfg.per_gpu_batch as f64
            * model.dataset.disk_bytes_per_sample,
    );
    let pipeline = PipelineState::new(
        n,
        iters_per_epoch,
        effective_dataset_bytes,
        dataset_fits,
        reads_per_sample,
        40e9,
    );

    let mut telemetry = Telemetry::new(n, capacity);
    telemetry.gpu_mem_used = budget.total();

    let job = JobState {
        epoch: 0,
        iter_in_epoch: 0,
        iters_total: 0,
        iters_per_epoch,
        fwd,
        bwd,
        opt_time,
        ring,
        bucket_bytes,
        grad_sync_bytes,
        param_bytes: model.param_bytes(cfg.precision),
        ckpt_bytes: model.checkpoint_bytes() * epoch_scale,
        phase: Phase::WaitInput,
        iter_start: SimTime::ZERO,
        buckets_outstanding: 0,
        bwd_done: false,
        bwd_end: SimTime::ZERO,
        params_ready: true,
        comm_queue: std::collections::VecDeque::new(),
        comm_active: false,
        input_wait_start: SimTime::ZERO,
        finished_at: SimTime::ZERO,
    };

    let rng = SimRng::seed_from_u64(cfg.seed);
    let mut world = TrainWorld {
        fabric,
        cluster,
        cfg,
        model,
        telemetry,
        pipeline,
        job,
        rng,
    };

    let mut sim: Sim<TrainWorld> = Sim::new();
    pipeline::start_epoch(&mut world, &mut sim);
    begin_iteration(&mut world, &mut sim);
    // Generous budget: a runaway loop is a bug, not a workload.
    let total_iters = world.job.iters_per_epoch * world.cfg.epochs as u64;
    let drained = sim.run_with_budget(&mut world, 2_000 * total_iters.max(1) + 100_000);
    assert!(drained, "simulation exceeded its event budget");
    assert_eq!(world.job.phase, Phase::Done, "job did not finish");

    Ok(build_report(&world, &monitored))
}

// ---- state machine ---------------------------------------------------------

fn begin_iteration(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.iter_start = sim.now();
    w.job.phase = Phase::WaitInput;
    w.job.input_wait_start = sim.now();
    try_start_after_input(w, sim);
}

/// Pipeline notification: a batch was enqueued.
pub fn on_batch_ready(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    if w.job.phase == Phase::WaitInput {
        try_start_after_input(w, sim);
    }
}

fn try_start_after_input(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    if !w.pipeline.all_ready() {
        return;
    }
    w.pipeline.consume_all();
    w.telemetry.add_phase(
        telemetry::Phase::DataWait,
        w.job.input_wait_start,
        sim.now(),
    );
    // Refill the queues we just drained. (H2D already happened inside the
    // pipeline's prefetch — batches are device-resident when consumed.)
    for g in 0..w.pipeline.queues.len() {
        pipeline::maybe_produce(w, sim, g);
    }
    match w.cfg.strategy {
        Strategy::Dp => start_dp_broadcast(w, sim),
        _ => {
            if w.job.params_ready {
                start_fwd(w, sim);
            } else {
                // Sharded: the parameter all-gather from the previous step
                // has not landed yet; the GPUs wait (NCCL kernels hold the
                // SMs, so this still reads as "busy" — see module docs).
                w.job.phase = Phase::WaitParams;
                w.job.bwd_end = sim.now(); // reuse as wait start
            }
        }
    }
}

fn start_dp_broadcast(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.phase = Phase::Broadcast;
    let start = sim.now();
    let master = w.job.ring[0];
    let peers: Vec<NodeId> = w.job.ring[1..].to_vec();
    let bytes = w.job.param_bytes;
    star_broadcast(
        w,
        sim,
        master,
        &peers,
        bytes,
        Box::new(move |w: &mut TrainWorld, sim| {
            // The master GPU drives the copies.
            w.telemetry.gpu_busy[0].record(start, sim.now());
            w.telemetry
                .add_phase(telemetry::Phase::ExposedComm, start, sim.now());
            start_fwd(w, sim);
        }),
    );
}

fn start_fwd(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.phase = Phase::Fwd;
    let dur = w.job.fwd.total * w.rng.jitter(w.cfg.jitter_frac);
    w.telemetry
        .add_phase(telemetry::Phase::Forward, sim.now(), sim.now() + dur);
    w.telemetry.all_gpus_busy(sim.now(), sim.now() + dur);
    w.telemetry.kernel_time_sum += w.job.fwd.total;
    w.telemetry.mem_time_sum += w.job.fwd.mem_time;
    sim.schedule_in(dur, start_bwd);
}

fn start_bwd(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.phase = Phase::Bwd;
    let dur = w.job.bwd.total * w.rng.jitter(w.cfg.jitter_frac);
    w.telemetry
        .add_phase(telemetry::Phase::Backward, sim.now(), sim.now() + dur);
    w.telemetry.all_gpus_busy(sim.now(), sim.now() + dur);
    w.telemetry.kernel_time_sum += w.job.bwd.total;
    w.telemetry.mem_time_sum += w.job.bwd.mem_time;
    w.job.bwd_done = false;
    w.job.bwd_end = sim.now() + dur;

    match w.cfg.strategy {
        Strategy::Dp => {
            // No overlap: gradients reduce to the master after backward.
            sim.schedule_in(dur, |w: &mut TrainWorld, sim| {
                w.job.bwd_done = true;
                start_dp_reduce(w, sim);
            });
        }
        Strategy::Ddp { .. } | Strategy::Sharded { .. } => {
            // Bucketed overlap: bucket i becomes ready as backward produces
            // its gradients; its collective launches immediately.
            let k = w.job.bucket_bytes.len();
            w.job.buckets_outstanding = k;
            for i in 0..k {
                let at = dur * ((i + 1) as f64 / k as f64);
                sim.schedule_in(at, move |w: &mut TrainWorld, sim| {
                    enqueue_comm(w, sim, CommOp::Bucket)
                });
            }
            sim.schedule_in(dur, |w: &mut TrainWorld, sim| {
                w.job.bwd_done = true;
                check_sync_done(w, sim);
            });
        }
    }
}

/// Enqueue a collective on the (single) NCCL communicator and start it if
/// the communicator is idle. NCCL serializes operations per communicator,
/// which is what makes total communication time the *sum* of bucket times
/// rather than their max — the behavior behind the paper's BERT-large
/// slowdown on Falcon-attached GPUs.
fn enqueue_comm(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>, op: CommOp) {
    w.job.comm_queue.push_back(op);
    dispatch_comm(w, sim);
}

fn dispatch_comm(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    if w.job.comm_active {
        return;
    }
    let Some(op) = w.job.comm_queue.pop_front() else {
        return;
    };
    w.job.comm_active = true;
    let ring = w.job.ring.clone();
    match op {
        CommOp::Bucket => {
            let bytes = w.job.bucket_bytes[0];
            let done = Box::new(|w: &mut TrainWorld, sim: &mut Sim<TrainWorld>| {
                w.job.comm_active = false;
                w.job.buckets_outstanding -= 1;
                dispatch_comm(w, sim);
                check_sync_done(w, sim);
            });
            match w.cfg.strategy {
                Strategy::Sharded { .. } => reduce_scatter(w, sim, &ring, bytes, done),
                _ => ring_allreduce(w, sim, &ring, bytes, done),
            }
        }
        CommOp::ParamAllGather => {
            let bytes = w.job.param_bytes;
            all_gather(
                w,
                sim,
                &ring,
                bytes,
                Box::new(|w: &mut TrainWorld, sim| {
                    w.job.comm_active = false;
                    dispatch_comm(w, sim);
                    on_params_gathered(w, sim);
                }),
            );
        }
    }
}

fn on_params_gathered(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.params_ready = true;
    if w.job.phase == Phase::WaitParams {
        w.telemetry
            .add_phase(telemetry::Phase::ExposedComm, w.job.bwd_end, sim.now());
        w.telemetry.all_gpus_busy(w.job.bwd_end, sim.now());
        start_fwd(w, sim);
    }
}

fn check_sync_done(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    if !w.job.bwd_done || w.job.buckets_outstanding > 0 {
        return;
    }
    // Communication that outlived backward is exposed; the NCCL kernels
    // keep the SMs occupied during it.
    if sim.now() > w.job.bwd_end {
        w.telemetry
            .add_phase(telemetry::Phase::ExposedComm, w.job.bwd_end, sim.now());
        w.telemetry.all_gpus_busy(w.job.bwd_end, sim.now());
    }
    start_optimizer(w, sim);
}

fn start_dp_reduce(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.phase = Phase::Reduce;
    let start = sim.now();
    let master = w.job.ring[0];
    let peers: Vec<NodeId> = w.job.ring[1..].to_vec();
    let bytes = w.job.grad_sync_bytes;
    star_reduce(
        w,
        sim,
        master,
        &peers,
        bytes,
        Box::new(move |w: &mut TrainWorld, sim| {
            w.telemetry.gpu_busy[0].record(start, sim.now());
            w.telemetry
                .add_phase(telemetry::Phase::ExposedComm, start, sim.now());
            start_optimizer(w, sim);
        }),
    );
}

fn start_optimizer(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.phase = Phase::Optimizer;
    let dur = w.job.opt_time;
    w.telemetry
        .add_phase(telemetry::Phase::Optimizer, sim.now(), sim.now() + dur);
    match w.cfg.strategy {
        // DP: the optimizer runs only on the master replica.
        Strategy::Dp => w.telemetry.gpu_busy[0].record(sim.now(), sim.now() + dur),
        _ => w.telemetry.all_gpus_busy(sim.now(), sim.now() + dur),
    }
    sim.schedule_in(dur, after_optimizer);
}

fn after_optimizer(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    // ZeRO: the updated parameter shards are all-gathered; the next
    // iteration's forward waits on it (usually hidden under data loading
    // and H2D).
    if matches!(w.cfg.strategy, Strategy::Sharded { .. }) {
        w.job.params_ready = false;
        enqueue_comm(w, sim, CommOp::ParamAllGather);
    }

    // Iteration bookkeeping.
    w.telemetry.iter_secs += sim.now().since(w.job.iter_start).as_secs_f64();
    w.telemetry.samples_trained += (w.cfg.per_gpu_batch * w.cluster.n_gpus() as u64) as f64;
    w.job.iters_total += 1;
    w.job.iter_in_epoch += 1;

    if w.job.iter_in_epoch >= w.job.iters_per_epoch {
        end_epoch(w, sim);
    } else {
        begin_iteration(w, sim);
    }
}

fn end_epoch(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    w.job.iter_in_epoch = 0;
    w.job.epoch += 1;

    if w.cfg.checkpoint_each_epoch {
        checkpoint_then(w, sim, next_epoch_or_finish);
    } else {
        next_epoch_or_finish(w, sim);
    }
}

/// Checkpoint: rank 0 copies the model + optimizer state to host memory,
/// then the host writes it to storage. The GPUs sit idle — the periodic
/// utilization dips of the paper's Fig 9.
fn checkpoint_then(
    w: &mut TrainWorld,
    sim: &mut Sim<TrainWorld>,
    cont: fn(&mut TrainWorld, &mut Sim<TrainWorld>),
) {
    w.job.phase = Phase::Checkpoint;
    let src = w.cluster.gpus[0].core;
    let dst = w.cluster.host_mem;
    let bytes = w.job.ckpt_bytes;
    let write_time = w.cluster.storage.write_time(bytes);
    let started = sim.now();
    w.fabric.start_flow(
        sim,
        src,
        dst,
        bytes,
        Box::new(move |w: &mut TrainWorld, sim| {
            w.telemetry.add_phase(
                telemetry::Phase::Checkpoint,
                started,
                sim.now() + write_time,
            );
            sim.schedule_in(write_time, cont);
        }),
    );
}

fn next_epoch_or_finish(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    if w.job.epoch >= w.cfg.epochs {
        w.job.phase = Phase::Done;
        w.job.finished_at = sim.now();
    } else {
        pipeline::start_epoch(w, sim);
        begin_iteration(w, sim);
    }
}

// ---- reporting --------------------------------------------------------------

fn build_report(w: &TrainWorld, monitored: &[DirLink]) -> RunReport {
    let end = w.job.finished_at;
    let total = end.since(SimTime::ZERO);
    let n = w.cluster.n_gpus();
    let trace_bucket = Dur::from_nanos((total.as_nanos() / 60).max(1));

    let gpu_util = (0..n)
        .map(|i| w.telemetry.gpu_busy[i].utilization(SimTime::ZERO, end))
        .sum::<f64>()
        / n as f64;
    let gpu_util_trace = w.telemetry.gpu_busy[0].trace(SimTime::ZERO, end, trace_bucket);

    // Fig 12's quantity is the *steady-state* transfer rate while training
    // iterations run, so normalize total monitored bytes by accumulated
    // iteration time rather than by wall clock (which includes
    // checkpoint/epoch pauses).
    let monitored_bytes: f64 = monitored
        .iter()
        .map(|dl| w.fabric.ports.bytes_within(*dl, SimTime::ZERO, end))
        .sum();
    let mean_iter_secs = if w.job.iters_total == 0 {
        0.0
    } else {
        w.telemetry.iter_secs / w.job.iters_total as f64
    };
    let active_secs = mean_iter_secs * w.job.iters_total as f64;
    let falcon_pcie_rate = if active_secs > 0.0 {
        monitored_bytes / active_secs
    } else {
        0.0
    };
    let falcon_pcie_trace =
        w.fabric
            .ports
            .aggregate_trace(monitored, SimTime::ZERO, end, trace_bucket);

    let exposed_comm = w.telemetry.phase_total(telemetry::Phase::ExposedComm);
    let kernel_total = w.telemetry.kernel_time_sum + exposed_comm;
    let gpu_mem_access_share = if kernel_total.is_zero() {
        0.0
    } else {
        w.telemetry.mem_time_sum.as_secs_f64() / kernel_total.as_secs_f64()
    };

    RunReport {
        label: w.cluster.label.clone(),
        benchmark: w.model.name.clone(),
        total_time: total,
        iterations: w.job.iters_total,
        mean_iter: Dur::from_secs_f64(mean_iter_secs),
        throughput: w.telemetry.samples_trained / total.as_secs_f64().max(1e-9),
        gpu_util,
        gpu_util_trace,
        gpu_mem_util: w.telemetry.gpu_mem_used / w.telemetry.gpu_mem_capacity,
        gpu_mem_access_share,
        cpu_util: w.telemetry.cpu_cores_busy.mean(end) / w.cluster.cpu.cores as f64,
        host_mem_util: w.telemetry.host_mem_used.mean(end) / w.cluster.dram.capacity_bytes,
        falcon_pcie_rate,
        falcon_pcie_trace,
        input_stall_share: w
            .telemetry
            .phase_total(telemetry::Phase::DataWait)
            .as_secs_f64()
            / total.as_secs_f64().max(1e-9),
        exposed_comm_share: exposed_comm.as_secs_f64() / total.as_secs_f64().max(1e-9),
        phase_totals: w.telemetry.phase_totals(),
    }
}
