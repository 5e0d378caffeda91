//! The experiment runner: run paper benchmarks on composed configurations.

use crate::config::HostConfig;
use crate::system::build_config;
use dlmodels::{Benchmark, Precision};
use training::engine::TrainError;
use training::{run_job, JobConfig, RunReport, Strategy};

/// Options controlling an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Cap on iterations per epoch (`None` = full dataset, as the paper).
    pub iters_per_epoch: Option<u64>,
    /// Override epoch count (`None` = the paper's per-benchmark epochs).
    pub epochs: Option<u32>,
    pub strategy: Strategy,
    pub precision: Precision,
    /// Override the per-GPU batch (`None` = the paper's batch).
    pub per_gpu_batch: Option<u64>,
    /// Write epoch-end checkpoints (disable to isolate steady-state
    /// iteration behavior in heavily scaled-down runs).
    pub checkpoint: bool,
    /// Clamp the batch to the largest per-GPU batch that fits in GPU
    /// memory under the chosen strategy/precision (how the Fig 16 study
    /// picks batches for memory-hungry variants).
    pub auto_batch: bool,
    pub seed: u64,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            iters_per_epoch: None,
            epochs: None,
            strategy: Strategy::ddp(),
            precision: Precision::Fp16,
            per_gpu_batch: None,
            checkpoint: true,
            auto_batch: false,
            seed: 0xC0FFEE,
        }
    }
}

impl ExperimentOpts {
    /// A scaled-down run: `iters` iterations per epoch, 2 epochs. The
    /// steady-state per-iteration behavior (and hence every relative
    /// comparison in the paper) is unchanged; only wall-clock shrinks.
    pub fn scaled(iters: u64) -> ExperimentOpts {
        ExperimentOpts {
            iters_per_epoch: Some(iters),
            epochs: Some(2),
            ..ExperimentOpts::default()
        }
    }

    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    pub fn with_batch(mut self, per_gpu_batch: u64) -> Self {
        self.per_gpu_batch = Some(per_gpu_batch);
        self
    }

    pub fn without_checkpoints(mut self) -> Self {
        self.checkpoint = false;
        self
    }

    pub fn with_auto_batch(mut self) -> Self {
        self.auto_batch = true;
        self
    }

    fn job_config(&self, benchmark: Benchmark, n_gpus: usize) -> JobConfig {
        let mut cfg = JobConfig::paper(benchmark, n_gpus);
        if let Some(iters) = self.iters_per_epoch {
            cfg.max_iters_per_epoch = Some(iters);
        }
        if let Some(epochs) = self.epochs {
            cfg.epochs = epochs;
        }
        if let Some(b) = self.per_gpu_batch {
            cfg.per_gpu_batch = b;
        }
        cfg.strategy = self.strategy;
        cfg.precision = self.precision;
        cfg.checkpoint_each_epoch = self.checkpoint;
        cfg.seed = self.seed;
        cfg
    }
}

/// Run one benchmark on one configuration.
pub fn run(
    benchmark: Benchmark,
    config: HostConfig,
    opts: &ExperimentOpts,
) -> Result<RunReport, TrainError> {
    let composed = build_config(config);
    let mut cfg = opts.job_config(benchmark, composed.cluster.n_gpus());
    if opts.auto_batch {
        let capacity = composed
            .cluster
            .gpus
            .iter()
            .map(|g| g.spec.memory_bytes)
            .fold(f64::INFINITY, f64::min);
        let max = training::max_feasible_batch(
            dlmodels::paper_model(benchmark),
            capacity,
            cfg.precision,
            cfg.strategy,
            composed.cluster.n_gpus(),
        );
        cfg.per_gpu_batch = cfg.per_gpu_batch.min(max.max(1));
    }
    run_job(composed.topology, composed.cluster, cfg)
}

/// Run a sweep of `(benchmark, config)` cells on [`parsweep::default_jobs`]
/// workers. Each simulation is single-threaded and deterministic; the
/// sweep is embarrassingly parallel and results come back in cell order,
/// so output is byte-identical to running serially.
pub fn sweep(
    cells: &[(Benchmark, HostConfig)],
    opts: &ExperimentOpts,
) -> Vec<Result<RunReport, TrainError>> {
    sweep_jobs(cells, opts, parsweep::default_jobs())
}

/// [`sweep`] with an explicit worker count (a bounded work-stealing pool,
/// not one thread per cell — a 25-cell paper grid no longer oversubscribes
/// a small machine).
pub fn sweep_jobs(
    cells: &[(Benchmark, HostConfig)],
    opts: &ExperimentOpts,
    jobs: usize,
) -> Vec<Result<RunReport, TrainError>> {
    parsweep::run(
        jobs,
        cells
            .iter()
            .map(|&(benchmark, config)| {
                parsweep::Job::new(format!("{} on {config:?}", benchmark.label()), move || {
                    run(benchmark, config, opts)
                })
            })
            .collect(),
    )
}

/// Convenience: run every benchmark on every GPU configuration (the
/// Fig 10–14 grid).
pub fn gpu_config_grid(opts: &ExperimentOpts) -> Vec<(Benchmark, HostConfig, RunReport)> {
    let cells: Vec<(Benchmark, HostConfig)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| HostConfig::gpu_configs().into_iter().map(move |c| (b, c)))
        .collect();
    sweep(&cells, opts)
        .into_iter()
        .zip(&cells)
        .map(|(r, &(b, c))| (b, c, r.expect("paper grid cells all fit in memory")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_runs_on_local_gpus() {
        let r = run(
            Benchmark::ResNet50,
            HostConfig::LocalGpus,
            &ExperimentOpts::scaled(5),
        )
        .unwrap();
        assert_eq!(r.iterations, 10, "2 epochs x 5 iters");
        assert!(r.total_time.as_secs_f64() > 0.0);
        assert!(r.gpu_util > 0.3, "gpu util {}", r.gpu_util);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn determinism_across_runs() {
        let opts = ExperimentOpts::scaled(4);
        let a = run(Benchmark::BertBase, HostConfig::FalconGpus, &opts).unwrap();
        let b = run(Benchmark::BertBase, HostConfig::FalconGpus, &opts).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.gpu_util_trace, b.gpu_util_trace);
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let opts = ExperimentOpts::scaled(3);
        let cells = [
            (Benchmark::MobileNetV2, HostConfig::LocalGpus),
            (Benchmark::MobileNetV2, HostConfig::FalconGpus),
        ];
        let swept = sweep(&cells, &opts);
        for (res, &(b, c)) in swept.iter().zip(&cells) {
            let solo = run(b, c, &opts).unwrap();
            assert_eq!(res.as_ref().unwrap().total_time, solo.total_time);
        }
    }

    #[test]
    fn oom_is_reported_not_hidden() {
        // BERT-large at an absurd batch cannot fit on a 16 GB V100.
        let opts = ExperimentOpts::scaled(2).with_batch(64);
        let err = run(Benchmark::BertLarge, HostConfig::LocalGpus, &opts).unwrap_err();
        assert!(matches!(err, TrainError::OutOfMemory { .. }));
    }

    #[test]
    fn falcon_pcie_traffic_only_on_falcon_configs() {
        let opts = ExperimentOpts::scaled(3);
        let local = run(Benchmark::ResNet50, HostConfig::LocalGpus, &opts).unwrap();
        let falcon = run(Benchmark::ResNet50, HostConfig::FalconGpus, &opts).unwrap();
        assert_eq!(local.falcon_pcie_rate, 0.0);
        assert!(falcon.falcon_pcie_rate > 1e9, "{}", falcon.falcon_pcie_rate);
    }
}
