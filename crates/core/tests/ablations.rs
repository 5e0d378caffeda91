//! Ablations of the design choices DESIGN.md calls out: each test runs
//! the variants of one knob and asserts the *direction* of its effect,
//! so the suite documents why the defaults are what they are.
//!
//! * DDP gradient-bucket size (communication/compute overlap granularity)
//! * Ring construction (planned optimal-bottleneck order vs naive order)
//! * Dataloader prefetch depth (pipeline hiding)
//! * Dataloader worker count (CPU-side throughput)

use collectives::{plan_ring, ring_bottleneck};
use composable_core::{build_config, run, ExperimentOpts, HostConfig};
use devices::catalog::wire_cube_mesh;
use devices::gpu::{add_gpu, GpuSpec};
use dlmodels::Benchmark;
use fabric::Topology;
use training::{run_job, JobConfig, Strategy};

/// One giant gradient bucket destroys communication/compute overlap:
/// 400 MiB must be more than 1.15× slower per iteration than PyTorch's
/// 25 MiB default on BERT-large.
#[test]
fn giant_ddp_bucket_is_slower_than_the_default() {
    let iter_secs = |mib: f64| {
        let opts = ExperimentOpts::scaled(4)
            .without_checkpoints()
            .with_strategy(Strategy::Ddp {
                bucket_bytes: mib * 1024.0 * 1024.0,
            });
        run(Benchmark::BertLarge, HostConfig::LocalGpus, &opts)
            .expect("BERT-large fits")
            .mean_iter
            .as_secs_f64()
    };
    let (default, giant) = (iter_secs(25.0), iter_secs(400.0));
    assert!(
        giant > default * 1.15,
        "giant bucket {giant} vs default {default}"
    );
}

/// Total MobileNetV2 training time on `config` with `tweak` applied to
/// the job. MobileNet is the most input-sensitive benchmark.
fn mobilenet_secs(config: HostConfig, tweak: impl FnOnce(&mut JobConfig)) -> f64 {
    let composed = build_config(config);
    let mut cfg = JobConfig::paper_scaled(Benchmark::MobileNetV2, 8, 8);
    cfg.checkpoint_each_epoch = false;
    tweak(&mut cfg);
    run_job(composed.topology, composed.cluster, cfg)
        .expect("MobileNetV2 fits")
        .total_time
        .as_secs_f64()
}

/// Prefetching never hurts: depth 3 is at most 1.02× depth 1.
#[test]
fn deeper_prefetch_never_hurts() {
    let shallow = mobilenet_secs(HostConfig::LocalGpus, |c| c.prefetch_depth = 1);
    let deep = mobilenet_secs(HostConfig::LocalGpus, |c| c.prefetch_depth = 3);
    assert!(
        deep <= shallow * 1.02,
        "prefetch never hurts: {deep} vs {shallow}"
    );
}

/// One dataloader worker per GPU starves MobileNet: more than 1.3× slower
/// than five.
#[test]
fn one_dataloader_worker_starves_mobilenet() {
    let starved = mobilenet_secs(HostConfig::LocalNvme, |c| c.workers_per_gpu = 1);
    let fed = mobilenet_secs(HostConfig::LocalNvme, |c| c.workers_per_gpu = 5);
    assert!(
        starved > fed * 1.3,
        "1 worker must starve MobileNet: {starved} vs {fed}"
    );
}

/// On the 8-GPU NVLink cube mesh the planned ring's bottleneck is at
/// least the naive index-order ring's (today both are 18 GB/s).
/// `ring_props::bottleneck_is_optimal` checks optimality only at sizes
/// small enough for brute force, so this is the one check at eight GPUs.
#[test]
fn planned_ring_is_no_worse_than_naive_on_the_cube_mesh() {
    let mut topo = Topology::new();
    let spec = GpuSpec::v100_sxm2_16gb();
    let gpus: Vec<_> = (0..8)
        .map(|i| add_gpu(&mut topo, &format!("g{i}"), &spec))
        .collect();
    wire_cube_mesh(&mut topo, &gpus);
    let cores: Vec<_> = gpus.iter().map(|g| g.core).collect();
    let planned = plan_ring(&mut topo, &cores);
    let optimal = ring_bottleneck(&mut topo, &planned);
    let naive = ring_bottleneck(&mut topo, &cores);
    assert!(
        optimal >= naive,
        "planned {optimal} must be at least naive {naive}"
    );
}
