//! The experiment implementations, one per table/figure.

use composable_core::runner::{self, ExperimentOpts};
use composable_core::HostConfig;
use devices::GpuSpec;
use dlmodels::{paper_model, Benchmark, Precision};
use fabric::microbench::{p2p_probe, P2pResult};
use scheduler::{cross_chassis_stretch, ProbeCache, SchedulerConfig, Shape};
use training::{max_feasible_batch, JobConfig, RunReport, Strategy};

/// How much to scale the runs down from the paper's full epochs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Iterations per epoch.
    pub iters: u64,
    /// Epochs (`None` = the paper's per-benchmark epoch counts).
    pub epochs: Option<u32>,
    /// Keep epoch-end checkpointing.
    pub checkpoints: bool,
}

impl Scale {
    /// Fast runs for tests and smoke passes (steady-state behavior only).
    pub fn quick() -> Scale {
        Scale {
            iters: 10,
            epochs: Some(2),
            checkpoints: false,
        }
    }

    /// The default for regenerating the figures: enough iterations that
    /// epoch-boundary effects have realistic weight, full epoch counts.
    pub fn standard() -> Scale {
        Scale {
            iters: 60,
            epochs: None,
            checkpoints: true,
        }
    }

    pub fn opts(&self) -> ExperimentOpts {
        let mut o = ExperimentOpts {
            iters_per_epoch: Some(self.iters),
            epochs: self.epochs,
            ..ExperimentOpts::default()
        };
        o.checkpoint = self.checkpoints;
        o
    }
}

/// One cell of the benchmark × GPU-configuration grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    pub benchmark: Benchmark,
    pub config: HostConfig,
    pub report: RunReport,
}

/// Run all five benchmarks on the three GPU configurations (in parallel);
/// the shared input of Figs 10–14.
pub fn grid(scale: Scale) -> Vec<GridCell> {
    runner::gpu_config_grid(&scale.opts())
        .into_iter()
        .map(|(benchmark, config, report)| GridCell {
            benchmark,
            config,
            report,
        })
        .collect()
}

/// Table II (measured): `(label, params, derived depth, reported depth)`.
pub fn table2_measured() -> Vec<(String, u64, u32, u32)> {
    dlmodels::paper_benchmarks()
        .into_iter()
        .map(|m| {
            (
                m.benchmark.label().to_string(),
                m.param_count(),
                m.derived_depth(),
                m.reported_depth,
            )
        })
        .collect()
}

/// Table IV (measured): probe the three GPU-pair classes on the hybrid
/// composition (which contains both local and falcon GPUs).
pub fn table4_measured() -> [(&'static str, P2pResult); 3] {
    let composed = composable_core::build_config(HostConfig::HybridGpus);
    let topo = &composed.topology;
    let g = &composed.cluster.gpus;
    // Local pair 0-3 is a 2-brick NVLink edge (the class the paper probes).
    let ll = p2p_probe(topo, g[0].core, g[3].core, 8e9);
    let fl = p2p_probe(topo, g[4].core, g[0].core, 8e9);
    let ff = p2p_probe(topo, g[4].core, g[5].core, 8e9);
    [("L-L", ll), ("F-L", fl), ("F-F", ff)]
}

/// Fig 9 (measured): GPU-utilization traces over full (scaled) training
/// runs on localGPUs, with epoch checkpointing enabled so the periodic
/// dips appear.
pub fn fig9(scale: Scale) -> Vec<(Benchmark, RunReport)> {
    let mut opts = scale.opts();
    opts.checkpoint = true;
    let cells: Vec<(Benchmark, HostConfig)> = Benchmark::all()
        .into_iter()
        .map(|b| (b, HostConfig::LocalGpus))
        .collect();
    runner::sweep(&cells, &opts)
        .into_iter()
        .zip(cells)
        .map(|(r, (b, _))| (b, r.expect("paper workloads fit")))
        .collect()
}

/// Fig 10 rows from a grid: `(benchmark, config, gpu_util, gpu_mem_util,
/// mem_access_share)`.
pub fn fig10(grid: &[GridCell]) -> Vec<(Benchmark, HostConfig, f64, f64, f64)> {
    grid.iter()
        .map(|c| {
            (
                c.benchmark,
                c.config,
                c.report.gpu_util,
                c.report.gpu_mem_util,
                c.report.gpu_mem_access_share,
            )
        })
        .collect()
}

/// Fig 11 rows from a grid: percent change of per-iteration training time
/// vs localGPUs.
pub fn fig11(grid: &[GridCell]) -> Vec<(Benchmark, HostConfig, f64)> {
    let base = |b: Benchmark| {
        grid.iter()
            .find(|c| c.benchmark == b && c.config == HostConfig::LocalGpus)
            .expect("grid contains the baseline")
            .report
            .mean_iter
            .as_secs_f64()
    };
    grid.iter()
        .filter(|c| c.config != HostConfig::LocalGpus)
        .map(|c| {
            let pct = (c.report.mean_iter.as_secs_f64() / base(c.benchmark) - 1.0) * 100.0;
            (c.benchmark, c.config, pct)
        })
        .collect()
}

/// Fig 12 rows from a grid: aggregate falcon-GPU PCIe traffic (bytes/s).
pub fn fig12(grid: &[GridCell]) -> Vec<(Benchmark, HostConfig, f64)> {
    grid.iter()
        .filter(|c| c.config.has_falcon_gpus())
        .map(|c| (c.benchmark, c.config, c.report.falcon_pcie_rate))
        .collect()
}

/// Fig 13 rows from a grid: mean CPU utilization.
pub fn fig13(grid: &[GridCell]) -> Vec<(Benchmark, HostConfig, f64)> {
    grid.iter()
        .map(|c| (c.benchmark, c.config, c.report.cpu_util))
        .collect()
}

/// Fig 14 rows from a grid: mean host-memory utilization.
pub fn fig14(grid: &[GridCell]) -> Vec<(Benchmark, HostConfig, f64)> {
    grid.iter()
        .map(|c| (c.benchmark, c.config, c.report.host_mem_util))
        .collect()
}

/// Fig 15 (measured): percent change of total training time vs the
/// localGPUs (SATA scratch) baseline for the two NVMe attachments.
/// Checkpoints and cold first-epoch reads stay on — they are what the
/// storage configurations differ on.
pub fn fig15(scale: Scale) -> Vec<(Benchmark, HostConfig, f64)> {
    let mut opts = scale.opts();
    opts.checkpoint = true;
    let cells: Vec<(Benchmark, HostConfig)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| {
            HostConfig::storage_configs()
                .into_iter()
                .map(move |c| (b, c))
        })
        .collect();
    let reports: Vec<RunReport> = runner::sweep(&cells, &opts)
        .into_iter()
        .map(|r| r.expect("storage cells fit"))
        .collect();
    let base = |b: Benchmark| {
        cells
            .iter()
            .zip(&reports)
            .find(|((bb, cc), _)| *bb == b && *cc == HostConfig::LocalGpus)
            .expect("baseline present")
            .1
            .total_time
            .as_secs_f64()
    };
    cells
        .iter()
        .zip(&reports)
        .filter(|((_, c), _)| *c != HostConfig::LocalGpus)
        .map(|((b, c), r)| {
            let pct = (r.total_time.as_secs_f64() / base(*b) - 1.0) * 100.0;
            (*b, *c, pct)
        })
        .collect()
}

/// One Fig 16 variant.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    pub config: HostConfig,
    pub variant: &'static str,
    pub per_gpu_batch: u64,
    pub throughput: f64,
    pub mean_iter_secs: f64,
}

/// Fig 16 (measured): BERT-large under DP-fp32, DDP-fp32, DDP-fp16 and
/// sharded-fp16 (batch 6 → 10) on the three GPU configurations. Batches
/// auto-clamp to what fits each variant (the fp32 variants cannot hold
/// batch 6 on a 16 GB V100).
pub fn fig16(scale: Scale) -> Vec<Fig16Row> {
    let variants: [(&'static str, Strategy, Precision, Option<u64>); 4] = [
        ("DP fp32", Strategy::Dp, Precision::Fp32, None),
        ("DDP fp32", Strategy::ddp(), Precision::Fp32, None),
        ("DDP fp16", Strategy::ddp(), Precision::Fp16, None),
        ("DDP fp16 sharded", Strategy::sharded(), Precision::Fp16, Some(10)),
    ];
    let mut rows = Vec::new();
    for config in HostConfig::gpu_configs() {
        for (variant, strategy, precision, batch) in variants {
            let mut opts = scale
                .opts()
                .with_strategy(strategy)
                .with_precision(precision)
                .with_auto_batch();
            opts.checkpoint = false;
            if let Some(b) = batch {
                opts = opts.with_batch(b);
            }
            let r = composable_core::run(Benchmark::BertLarge, config, &opts)
                .expect("auto-batched variants fit");
            // Recover the batch actually used from throughput × iter time.
            let per_gpu_batch = (r.throughput * r.mean_iter.as_secs_f64() / 8.0).round() as u64;
            rows.push(Fig16Row {
                config,
                variant,
                per_gpu_batch,
                throughput: r.throughput,
                mean_iter_secs: r.mean_iter.as_secs_f64(),
            });
        }
    }
    rows
}

/// The GPU counts of the strong-scaling curve: one GPU up to a full
/// chassis (16), then two chassis (32).
pub const SCALING_GPUS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One benchmark's strong-scaling curve: probe-derived samples/sec at each
/// of [`SCALING_GPUS`], divided by the one-GPU rate.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub benchmark: Benchmark,
    pub speedups: [f64; SCALING_GPUS.len()],
}

impl ScalingRow {
    /// Parallel efficiency at 32 GPUs: the speedup there over 32.
    pub fn efficiency_32(&self) -> f64 {
        self.speedups[SCALING_GPUS.len() - 1] / 32.0
    }
}

/// The probe shape for `n` GPUs: up to 8 fill drawer 0, up to 16 fill
/// both drawers of one chassis. Beyond 16 each chassis holds a full
/// 16-GPU part.
fn scaling_shape(n: usize) -> Shape {
    let per_chassis = n.min(16);
    Shape::new(
        per_chassis.min(8) as u8,
        per_chassis.saturating_sub(8) as u8,
    )
}

/// Probe-derived samples/sec for `bench` on `n` GPUs, using the same
/// per-GPU batch clamp the probe itself applies. Beyond one chassis the
/// iteration pays the rack-tier stretch, exactly as the scheduler prices
/// rack-spanning gangs.
fn probe_throughput(bench: Benchmark, n: usize, probes: &mut ProbeCache) -> f64 {
    let mut iter_ns = probes.price(bench, scaling_shape(n)).mean_iter.as_nanos() as f64;
    if n > 16 {
        iter_ns *= cross_chassis_stretch(n.div_ceil(16), 100);
    }
    let gpu = GpuSpec::v100_pcie_16gb();
    let cfg = JobConfig::paper_scaled(bench, n, 8);
    let model = paper_model(bench);
    let fit = max_feasible_batch(&model, gpu.memory_bytes, cfg.precision, cfg.strategy, n);
    let batch = cfg.per_gpu_batch.min(fit).max(1);
    (n as u64 * batch) as f64 / (iter_ns / 1e9)
}

/// Strong scaling of every benchmark on the composable rack, derived from
/// the scheduler's placement probes (at its default probe length) rather
/// than timed: the composable *scaling curve* behind the cluster studies'
/// pricing. Probes are warmed across the default worker count; the rows
/// do not depend on it.
pub fn strong_scaling() -> Vec<ScalingRow> {
    let mut probes = ProbeCache::new(SchedulerConfig::default().probe_iters);
    let keys: Vec<(Benchmark, Shape)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| SCALING_GPUS.map(|n| (b, scaling_shape(n))))
        .collect();
    probes.warm(&keys, parsweep::default_jobs());
    Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let base = probe_throughput(benchmark, 1, &mut probes);
            let speedups = SCALING_GPUS.map(|n| probe_throughput(benchmark, n, &mut probes) / base);
            ScalingRow {
                benchmark,
                speedups,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_within_tolerance() {
        for ((label, params, _, depth), b) in
            table2_measured().into_iter().zip(Benchmark::all())
        {
            let reference = crate::paper::table2_params(b);
            let measured_m = params as f64 / 1e6;
            let err = (measured_m - reference.value).abs() / reference.value;
            assert!(err < 0.05, "{label}: {measured_m:.2}M vs {}", reference.value);
            assert_eq!(depth, crate::paper::table2_depth(b));
        }
    }

    #[test]
    fn table4_matches_paper_within_tolerance() {
        for ((label, measured), (plabel, bw, lat, _)) in
            table4_measured().into_iter().zip(crate::paper::table4())
        {
            assert_eq!(label, plabel);
            let bw_err = (measured.bidir_bandwidth / 1e9 - bw).abs() / bw;
            assert!(bw_err < 0.08, "{label} bandwidth {bw_err:.3} off");
            let lat_err = (measured.latency.as_micros_f64() - lat).abs() / lat;
            assert!(lat_err < 0.12, "{label} latency {lat_err:.3} off");
        }
    }

    #[test]
    fn fig11_bounds_hold_on_quick_grid() {
        let g = grid(Scale::quick());
        for (b, c, pct) in fig11(&g) {
            if c == HostConfig::FalconGpus {
                let (_claim, lo, hi) = crate::paper::fig11_bound(b);
                assert!(
                    pct >= lo && pct <= hi,
                    "{b:?} on {c}: {pct:.1}% outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn fig16_shapes_hold() {
        let rows = fig16(Scale::quick());
        let get = |cfg: HostConfig, v: &str| {
            rows.iter()
                .find(|r| r.config == cfg && r.variant == v)
                .unwrap()
                .throughput
        };
        for cfg in HostConfig::gpu_configs() {
            assert!(get(cfg, "DDP fp16") > 2.0 * get(cfg, "DDP fp32"));
            assert!(get(cfg, "DDP fp32") > 1.8 * get(cfg, "DP fp32"));
            assert!(get(cfg, "DDP fp16 sharded") > get(cfg, "DDP fp16"));
        }
        // Sharded batch really is 10.
        let sharded = rows
            .iter()
            .find(|r| r.config == HostConfig::LocalGpus && r.variant == "DDP fp16 sharded")
            .unwrap();
        assert_eq!(sharded.per_gpu_batch, 10);
    }
}
