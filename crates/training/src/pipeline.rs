//! The data-loading pipeline: storage → host memory → CPU preprocessing →
//! per-GPU ready queues (paper Fig 8, left half).
//!
//! Each GPU process owns a prefetching dataloader with
//! `workers_per_gpu` CPU workers. Storage reads are real fabric flows (so
//! a Falcon-attached NVMe pays its switch crossing and concurrent loaders
//! share the device), and the OS page cache is modeled: once the dataset
//! has been read and it fits in host DRAM, later epochs hit memory
//! (ImageNet ≈ 141 GB against 756 GB of DRAM — the reason the paper's
//! storage study, Fig 15, is dominated by first-epoch reads and
//! checkpoint writes).

use crate::engine::{on_batch_ready, TrainWorld};
use desim::{Dur, Sim};
use fabric::FlowTag;

/// Pipeline state for one run.
#[derive(Debug)]
pub struct PipelineState {
    /// Ready (preprocessed, pinned) batches per GPU.
    pub queues: Vec<u32>,
    producing: Vec<bool>,
    batches_left: Vec<u64>,
    pub batches_per_epoch_per_gpu: u64,
    /// Bytes of the dataset not yet resident in the page cache.
    cold_bytes_remaining: f64,
    dataset_bytes: f64,
    dataset_fits_in_cache: bool,
    /// Storage reads per sample (YOLO's mosaic augmentation touches 4
    /// images per training sample).
    reads_per_sample: f64,
    /// Host-memory baseline of the training processes.
    pub process_memory: f64,
}

impl PipelineState {
    pub fn new(
        n_gpus: usize,
        batches_per_epoch_per_gpu: u64,
        dataset_bytes: f64,
        dataset_fits_in_cache: bool,
        reads_per_sample: f64,
        process_memory: f64,
    ) -> PipelineState {
        PipelineState {
            queues: vec![0; n_gpus],
            producing: vec![false; n_gpus],
            batches_left: vec![0; n_gpus],
            batches_per_epoch_per_gpu,
            cold_bytes_remaining: dataset_bytes,
            dataset_bytes,
            dataset_fits_in_cache,
            reads_per_sample,
            process_memory,
        }
    }

    /// All GPUs have a batch ready?
    pub fn all_ready(&self) -> bool {
        self.queues.iter().all(|&q| q > 0)
    }

    /// Consume one batch from every queue (call only when [`all_ready`](Self::all_ready)).
    pub fn consume_all(&mut self) {
        for q in &mut self.queues {
            debug_assert!(*q > 0);
            *q -= 1;
        }
    }

    /// Fraction of the host DRAM used by the page cache + processes.
    pub fn host_mem_in_use(&self) -> f64 {
        self.process_memory + (self.dataset_bytes - self.cold_bytes_remaining)
    }
}

/// Begin an epoch: reset per-GPU batch budgets and kick every loader.
pub fn start_epoch(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>) {
    let n = w.pipeline.queues.len();
    for g in 0..n {
        w.pipeline.batches_left[g] = w.pipeline.batches_per_epoch_per_gpu;
    }
    for g in 0..n {
        maybe_produce(w, sim, g);
    }
}

/// Produce the next batch for GPU `g` if the loader is idle, the prefetch
/// queue has room, and the epoch has batches left.
pub fn maybe_produce(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>, g: usize) {
    let p = &mut w.pipeline;
    if p.producing[g] || p.batches_left[g] == 0 {
        return;
    }
    if p.queues[g] >= w.cfg.prefetch_depth {
        return;
    }
    p.producing[g] = true;
    p.batches_left[g] -= 1;

    // Storage stage: read the compressed samples that are not yet cached.
    let per_batch_bytes = w.cfg.per_gpu_batch as f64
        * w.model.dataset.disk_bytes_per_sample
        * p.reads_per_sample;
    let cold_frac = if p.dataset_bytes > 0.0 {
        (p.cold_bytes_remaining / p.dataset_bytes).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let read_bytes = per_batch_bytes * cold_frac;
    // The primary copy of each sample becomes cache-resident (if it fits).
    if p.dataset_fits_in_cache {
        let primary = w.cfg.per_gpu_batch as f64 * w.model.dataset.disk_bytes_per_sample;
        p.cold_bytes_remaining = (p.cold_bytes_remaining - primary).max(0.0);
    }
    let mem_now = p.host_mem_in_use();
    w.telemetry.host_mem_used.set(sim.now(), mem_now);

    if read_bytes > 1.0 {
        let (src, dst) = (w.cluster.storage_dev, w.cluster.host_mem);
        w.fabric.start_flow(
            sim,
            src,
            dst,
            read_bytes,
            FlowTag::STORAGE,
            Box::new(move |w: &mut TrainWorld, sim| preprocess(w, sim, g)),
        );
    } else {
        preprocess(w, sim, g);
    }
}

/// CPU stage: decode + augment the batch on this loader's workers, with
/// core contention across all loaders.
fn preprocess(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>, g: usize) {
    let n = w.pipeline.queues.len();
    let workers = w.cfg.workers_per_gpu.max(1);
    let total_demand = (workers as usize * n) as f64;
    let cores = w.cluster.cpu.cores as f64;
    let scale = (cores / total_demand).min(1.0);
    let used_cores = workers as f64 * scale;
    let core_seconds =
        w.cfg.per_gpu_batch as f64 * w.model.dataset.cpu_per_sample.as_secs_f64();
    let dur = Dur::from_secs_f64(core_seconds / used_cores);

    w.telemetry.cpu_cores_busy.add(sim.now(), used_cores);
    sim.schedule_in(dur, move |w: &mut TrainWorld, sim| {
        w.telemetry.cpu_cores_busy.add(sim.now(), -used_cores);
        h2d(w, sim, g);
    });
}

/// H2D stage: the preprocessed batch is copied to its GPU by the copy
/// engine, overlapping with whatever the SMs are doing (PyTorch's pinned-
/// memory `non_blocking` prefetch). Only when the copy lands does the
/// batch count as ready.
fn h2d(w: &mut TrainWorld, sim: &mut Sim<TrainWorld>, g: usize) {
    let bytes =
        w.cfg.per_gpu_batch as f64 * w.model.h2d_bytes_per_sample(w.cfg.precision);
    let src = w.cluster.host_mem;
    let dst = w.cluster.gpus[g].core;
    w.fabric.start_flow(
        sim,
        src,
        dst,
        bytes,
        FlowTag::H2D,
        Box::new(move |w: &mut TrainWorld, sim| {
            w.pipeline.queues[g] += 1;
            w.pipeline.producing[g] = false;
            on_batch_ready(w, sim);
            maybe_produce(w, sim, g);
        }),
    );
}
