//! Job configuration: benchmark, batch sizes, epochs, precision, strategy.

use dlmodels::{Benchmark, Precision};

/// Data-parallel training strategy (paper §V-C.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// PyTorch DistributedDataParallel with NCCL: bucketed ring allreduce
    /// overlapped with backward.
    Ddp {
        /// Gradient bucket size in bytes (PyTorch default 25 MiB).
        bucket_bytes: f64,
    },
    /// Single-process DataParallel: master-replica broadcast + reduce, no
    /// overlap, and single-process dispatch dilation.
    Dp,
    /// ZeRO-style sharded data parallel: reduce-scatter gradients
    /// (overlapped), shard optimizer state n-ways, all-gather updated
    /// parameters (overlapped into the next iteration's data phase).
    Sharded {
        bucket_bytes: f64,
    },
}

impl Strategy {
    pub fn ddp() -> Strategy {
        Strategy::Ddp {
            bucket_bytes: 25.0 * 1024.0 * 1024.0,
        }
    }

    pub fn sharded() -> Strategy {
        Strategy::Sharded {
            bucket_bytes: 25.0 * 1024.0 * 1024.0,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Strategy::Ddp { .. } => "DDP",
            Strategy::Dp => "DP",
            Strategy::Sharded { .. } => "DDP+sharded",
        }
    }
}

/// Per-iteration kernel-dispatch dilation of single-process DataParallel:
/// one Python process serially launches work for every replica (GIL +
/// scatter/gather on the master). Calibrated so 8-GPU DP reproduces the
/// paper's ">80 % DDP speedup over DP" for BERT-large on local GPUs.
pub fn dp_dispatch_dilation(n_gpus: usize) -> f64 {
    1.0 + 0.08 * (n_gpus.saturating_sub(1)) as f64
}

/// A training-job configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    pub benchmark: Benchmark,
    /// Per-GPU batch size.
    pub per_gpu_batch: u64,
    pub epochs: u32,
    /// Cap on iterations per epoch (scale a simulation down while keeping
    /// steady-state behavior; `None` runs the full dataset).
    pub max_iters_per_epoch: Option<u64>,
    pub precision: Precision,
    pub strategy: Strategy,
    /// Dataloader workers per GPU process.
    pub workers_per_gpu: u32,
    /// Prefetch depth (batches queued ahead) per GPU.
    pub prefetch_depth: u32,
    /// Write a checkpoint at every epoch boundary.
    pub checkpoint_each_epoch: bool,
    /// RNG seed for the run.
    pub seed: u64,
    /// Relative jitter on kernel durations (straggler effect).
    pub jitter_frac: f64,
}

impl JobConfig {
    /// The paper's configuration for a benchmark (paper §V-C.1), on
    /// `n_gpus` GPUs. Batch-size semantics follow each framework's
    /// convention: the torchvision-style ImageNet scripts take a *per-GPU*
    /// batch (MobileNetV2 64, ResNet-50 128), while Ultralytics YOLOv5 and
    /// HuggingFace SQuAD fine-tuning take a *global* batch split across
    /// GPUs (YOLO 88, BERT 96, BERT-L 48).
    pub fn paper(benchmark: Benchmark, n_gpus: usize) -> JobConfig {
        let (per_gpu_batch, epochs) = paper_batch(benchmark, n_gpus);
        JobConfig {
            benchmark,
            per_gpu_batch,
            epochs,
            max_iters_per_epoch: None,
            precision: Precision::Fp16,
            strategy: Strategy::ddp(),
            workers_per_gpu: 5,
            prefetch_depth: 2,
            checkpoint_each_epoch: true,
            seed: 0xC0FFEE,
            jitter_frac: 0.015,
        }
    }

    /// A scaled-down version of [`JobConfig::paper`] for fast simulation:
    /// same steady-state behavior, fewer iterations.
    pub fn paper_scaled(benchmark: Benchmark, n_gpus: usize, iters_per_epoch: u64) -> JobConfig {
        JobConfig {
            max_iters_per_epoch: Some(iters_per_epoch),
            epochs: 2,
            ..JobConfig::paper(benchmark, n_gpus)
        }
    }
}

/// `(per_gpu_batch, epochs)` as run in the paper (§V-C.1).
pub fn paper_batch(benchmark: Benchmark, n_gpus: usize) -> (u64, u32) {
    let n = n_gpus.max(1) as u64;
    match benchmark {
        Benchmark::MobileNetV2 => (64, 10),
        Benchmark::ResNet50 => (128, 20),
        Benchmark::YoloV5L => ((88 / n).max(1), 20),
        Benchmark::BertBase => ((96 / n).max(1), 2),
        Benchmark::BertLarge => ((48 / n).max(1), 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batches_match_section_v() {
        assert_eq!(paper_batch(Benchmark::MobileNetV2, 8), (64, 10));
        assert_eq!(paper_batch(Benchmark::ResNet50, 8), (128, 20));
        assert_eq!(paper_batch(Benchmark::YoloV5L, 8), (11, 20));
        assert_eq!(paper_batch(Benchmark::BertBase, 8), (12, 2));
        assert_eq!(paper_batch(Benchmark::BertLarge, 8), (6, 2));
    }

    #[test]
    fn paper_config_defaults() {
        let c = JobConfig::paper(Benchmark::BertLarge, 8);
        assert_eq!(c.per_gpu_batch, 6);
        assert_eq!(c.precision, Precision::Fp16);
        assert_eq!(c.strategy.label(), "DDP");
    }

    #[test]
    fn scaled_config_caps_iterations() {
        let c = JobConfig::paper_scaled(Benchmark::ResNet50, 8, 50);
        assert_eq!(c.max_iters_per_epoch, Some(50));
        assert_eq!(c.epochs, 2);
    }

    #[test]
    fn dp_dilation_grows_with_gpus() {
        assert_eq!(dp_dispatch_dilation(1), 1.0);
        assert!((dp_dispatch_dilation(8) - 1.56).abs() < 1e-12);
    }
}
