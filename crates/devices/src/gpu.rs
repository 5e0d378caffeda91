//! GPU models.
//!
//! The test bed's GPUs are NVIDIA Tesla V100s: SXM2 modules in the host
//! (NVLink hybrid cube mesh) and PCIe cards in the Falcon drawers. Peak
//! numbers are the published ones; the DMA-engine rate and HBM de-rating
//! are calibrated jointly with the fabric so the paper's Table IV
//! microbenchmarks reproduce.

use crate::roofline::{kernel_time, KernelTime, Precision};
use crate::{GB, TFLOP};
use desim::Dur;
use fabric::{LinkClass, LinkSpec, NodeId, NodeKind, Topology};

/// Static description of a GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    pub name: String,
    /// Peak FP32 throughput (FLOP/s).
    pub fp32_flops: f64,
    /// Peak mixed-precision (tensor-core) throughput (FLOP/s).
    pub fp16_flops: f64,
    /// HBM2 capacity in bytes.
    pub memory_bytes: f64,
    /// Peak HBM2 bandwidth (bytes/s).
    pub hbm_bandwidth: f64,
    /// Achievable fraction of peak HBM bandwidth for DL kernels.
    pub hbm_efficiency: f64,
    /// PCIe copy-engine rate (bytes/s per direction); bounds every H2D/D2H
    /// and P2P transfer through the PCIe port.
    pub dma_bandwidth: f64,
    /// NVLink bricks available (0 for PCIe cards).
    pub nvlink_bricks: u8,
    /// Fixed per-kernel launch overhead.
    pub launch_overhead: Dur,
}

impl GpuSpec {
    /// Tesla V100 SXM2 16 GB (the host's local GPUs).
    pub fn v100_sxm2_16gb() -> GpuSpec {
        GpuSpec {
            name: "Tesla V100-SXM2-16GB".to_string(),
            fp32_flops: 15.7 * TFLOP,
            fp16_flops: 125.0 * TFLOP,
            memory_bytes: 16.0 * GB,
            hbm_bandwidth: 900.0 * GB,
            hbm_efficiency: 0.75,
            dma_bandwidth: 13.3 * GB, // PCIe Gen3 x16 effective
            nvlink_bricks: 6,
            launch_overhead: Dur::from_micros(6),
        }
    }

    /// Tesla V100 PCIe 16 GB (the Falcon-attached GPUs). V100 silicon
    /// negotiates PCIe Gen3 even in a Gen4 fabric, so the DMA rate matches
    /// the SXM2 part; it simply has no NVLink. Nameplate boost peaks differ
    /// more (112 vs 125 TFLOPS) than sustained DL clocks do, so the
    /// sustained-equivalent peak sits ~4 % under the SXM2 part.
    pub fn v100_pcie_16gb() -> GpuSpec {
        GpuSpec {
            name: "Tesla V100-PCIE-16GB".to_string(),
            fp32_flops: 15.0 * TFLOP,
            fp16_flops: 120.0 * TFLOP,
            memory_bytes: 16.0 * GB,
            hbm_bandwidth: 900.0 * GB,
            hbm_efficiency: 0.75,
            dma_bandwidth: 13.3 * GB,
            nvlink_bricks: 0,
            launch_overhead: Dur::from_micros(6),
        }
    }

    /// Tesla P100 PCIe 16 GB (also present in the chassis; no tensor cores,
    /// FP16 runs at 2× FP32 on the FP16 pipeline).
    pub fn p100_pcie_16gb() -> GpuSpec {
        GpuSpec {
            name: "Tesla P100-PCIE-16GB".to_string(),
            fp32_flops: 9.3 * TFLOP,
            fp16_flops: 18.7 * TFLOP,
            memory_bytes: 16.0 * GB,
            hbm_bandwidth: 732.0 * GB,
            hbm_efficiency: 0.75,
            dma_bandwidth: 12.0 * GB,
            nvlink_bricks: 0,
            launch_overhead: Dur::from_micros(6),
        }
    }

    /// Peak FLOPs for a precision.
    pub fn peak_flops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Fp32 => self.fp32_flops,
            Precision::Fp16 => self.fp16_flops,
        }
    }

    /// Achievable HBM bandwidth.
    pub fn effective_hbm(&self) -> f64 {
        self.hbm_bandwidth * self.hbm_efficiency
    }

    /// Roofline estimate for one kernel on this GPU.
    pub fn kernel(
        &self,
        flops: f64,
        mem_bytes: f64,
        precision: Precision,
        compute_eff: f64,
    ) -> KernelTime {
        kernel_time(
            flops,
            mem_bytes,
            self.peak_flops(precision),
            compute_eff,
            self.effective_hbm(),
            self.launch_overhead,
        )
    }
}

/// The fabric nodes of an instantiated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuNodes {
    /// The compute/HBM side; NVLink attaches here.
    pub core: NodeId,
    /// The PCIe bus interface; external PCIe links attach here.
    pub port: NodeId,
}

/// Insert a GPU into the topology as a `core —DMA→ port` pair. The caller
/// connects `port` onward (to a switch or root complex) and may connect
/// `core` to peers with NVLink.
pub fn add_gpu(topo: &mut Topology, name: &str, spec: &GpuSpec) -> GpuNodes {
    let core = topo.add_node(format!("{name}.core"), NodeKind::Gpu);
    let port = topo.add_node(format!("{name}.port"), NodeKind::DevicePort);
    topo.add_link(
        core,
        port,
        LinkSpec::of(LinkClass::PcieGen3x16)
            .with_capacity(spec.dma_bandwidth)
            .with_latency(Dur::ZERO),
    );
    GpuNodes { core, port }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_published_peaks() {
        let g = GpuSpec::v100_sxm2_16gb();
        assert!((g.fp32_flops / TFLOP - 15.7).abs() < 0.1);
        assert!((g.fp16_flops / TFLOP - 125.0).abs() < 1.0);
        assert_eq!(g.memory_bytes, 16.0 * GB);
        assert_eq!(g.nvlink_bricks, 6);
        assert_eq!(GpuSpec::v100_pcie_16gb().nvlink_bricks, 0);
    }

    #[test]
    fn fp16_speedup_on_tensor_cores() {
        let g = GpuSpec::v100_sxm2_16gb();
        // A compute-bound GEMM: fp16 should be much faster than fp32.
        let f32t = g.kernel(1e12, 1e6, Precision::Fp32, 0.5).total;
        let f16t = g.kernel(1e12, 1e6, Precision::Fp16, 0.5).total;
        let speedup = f32t.as_secs_f64() / f16t.as_secs_f64();
        assert!(speedup > 4.0, "tensor cores speedup {speedup}");
    }

    #[test]
    fn p100_has_no_tensor_cores() {
        let g = GpuSpec::p100_pcie_16gb();
        assert!(g.fp16_flops / g.fp32_flops < 2.5);
    }

    #[test]
    fn add_gpu_builds_core_port_pair() {
        let mut t = Topology::new();
        let g = add_gpu(&mut t, "gpu0", &GpuSpec::v100_sxm2_16gb());
        assert_eq!(t.node(g.core).kind, NodeKind::Gpu);
        assert_eq!(t.node(g.port).kind, NodeKind::DevicePort);
        let r = t.route(g.core, g.port).unwrap();
        assert_eq!(r.hop_count(), 1);
    }

    #[test]
    fn kernel_uses_launch_overhead() {
        let g = GpuSpec::v100_sxm2_16gb();
        let k = g.kernel(0.0, 0.0, Precision::Fp16, 0.5);
        assert_eq!(k.total, g.launch_overhead);
    }
}
