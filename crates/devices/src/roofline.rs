//! Roofline kernel-time estimation.
//!
//! A GPU kernel is characterized by the FLOPs it performs and the HBM bytes
//! it touches. Its execution time is the max of the compute-limited and
//! memory-limited times, each discounted by an achievable-fraction
//! efficiency. The estimator also reports both components — the memory
//! one, aggregated over a training step, yields the "% of time the model
//! spent accessing GPU memory" metric of the paper's Figure 10.

use desim::Dur;

/// Numeric precision of a kernel (affects peak FLOPs and bytes moved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE single precision on the FP32 pipeline.
    Fp32,
    /// Mixed precision: FP16 storage/compute on tensor cores with an FP32
    /// master copy (NVIDIA AMP, as used for all paper experiments).
    Fp16,
}

impl Precision {
    /// Bytes per element for activations/parameters at this precision.
    pub fn bytes_per_element(self) -> f64 {
        match self {
            Precision::Fp32 => 4.0,
            Precision::Fp16 => 2.0,
        }
    }
}

/// The outcome of a roofline estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Wall-clock kernel duration.
    pub total: Dur,
    /// The compute-limited time component.
    pub compute_time: Dur,
    /// The memory-limited time component.
    pub mem_time: Dur,
}

impl KernelTime {
    pub const ZERO: KernelTime = KernelTime {
        total: Dur::ZERO,
        compute_time: Dur::ZERO,
        mem_time: Dur::ZERO,
    };

    /// Accumulate another kernel (sequential execution).
    pub fn accumulate(&mut self, other: KernelTime) {
        self.total += other.total;
        self.compute_time += other.compute_time;
        self.mem_time += other.mem_time;
    }

    /// Scale all components (e.g. backward ≈ 2× forward).
    pub fn scaled(self, factor: f64) -> KernelTime {
        KernelTime {
            total: self.total * factor,
            compute_time: self.compute_time * factor,
            mem_time: self.mem_time * factor,
        }
    }
}

/// Estimate a kernel's duration.
///
/// * `flops` — floating-point operations performed.
/// * `mem_bytes` — HBM bytes read + written.
/// * `peak_flops` — device peak for the precision in use (FLOP/s).
/// * `compute_eff` — achievable fraction of peak for this kernel class
///   (dense conv ≈ 0.45, depthwise conv ≈ 0.08, GEMM ≈ 0.55, …).
/// * `mem_bw` — achievable HBM bandwidth (bytes/s, already de-rated).
/// * `launch_overhead` — fixed per-kernel cost (driver + launch).
pub fn kernel_time(
    flops: f64,
    mem_bytes: f64,
    peak_flops: f64,
    compute_eff: f64,
    mem_bw: f64,
    launch_overhead: Dur,
) -> KernelTime {
    assert!(flops >= 0.0 && mem_bytes >= 0.0);
    assert!(peak_flops > 0.0 && mem_bw > 0.0);
    assert!(compute_eff > 0.0 && compute_eff <= 1.0);
    let compute_time = Dur::from_secs_f64(flops / (peak_flops * compute_eff));
    let mem_time = Dur::from_secs_f64(mem_bytes / mem_bw);
    KernelTime {
        total: compute_time.max(mem_time) + launch_overhead,
        compute_time,
        mem_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_kernel() {
        // 1 TFLOP at 10 TFLOP/s effective = 100 ms; tiny memory traffic.
        let k = kernel_time(1e12, 1e6, 20e12, 0.5, 800e9, Dur::ZERO);
        assert_eq!(k.total, k.compute_time);
        assert_eq!(k.total, Dur::from_millis(100));
        assert!(k.mem_time.as_secs_f64() < 0.01 * k.total.as_secs_f64());
    }

    #[test]
    fn memory_bound_kernel() {
        // 80 GB of traffic at 800 GB/s = 100 ms; negligible FLOPs.
        let k = kernel_time(1e9, 80e9, 20e12, 0.5, 800e9, Dur::ZERO);
        assert_eq!(k.total, k.mem_time);
        assert_eq!(k.total, Dur::from_millis(100));
        assert!(k.compute_time < k.mem_time);
    }

    #[test]
    fn launch_overhead_is_added() {
        let k = kernel_time(0.0, 0.0, 1e12, 0.5, 1e9, Dur::from_micros(5));
        assert_eq!(k.total, Dur::from_micros(5));
    }

    #[test]
    fn accumulate_sums_components() {
        let mut acc = KernelTime::ZERO;
        let a = kernel_time(1e12, 1e6, 20e12, 0.5, 800e9, Dur::ZERO);
        let b = kernel_time(1e9, 80e9, 20e12, 0.5, 800e9, Dur::ZERO);
        acc.accumulate(a);
        acc.accumulate(b);
        assert_eq!(acc.total, a.total + b.total);
        assert_eq!(acc.mem_time, a.mem_time + b.mem_time);
    }

    #[test]
    fn scaled_multiplies_all() {
        let a = kernel_time(1e12, 1e6, 20e12, 0.5, 800e9, Dur::ZERO);
        let s = a.scaled(2.0);
        assert_eq!(s.total, a.total * 2u64);
        assert_eq!(s.compute_time, a.compute_time * 2u64);
    }

    #[test]
    fn precision_element_sizes() {
        assert_eq!(Precision::Fp32.bytes_per_element(), 4.0);
        assert_eq!(Precision::Fp16.bytes_per_element(), 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_efficiency() {
        let _ = kernel_time(1.0, 1.0, 1e12, 1.5, 1e9, Dur::ZERO);
    }
}
