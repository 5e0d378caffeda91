//! Run telemetry: everything the paper's figures plot.

use desim::json::{FromJson, JsonError, ToJson, Value};
use desim::stats::{BusyTracker, Counter, Histogram, Summary, TimeWeightedGauge};
use desim::trace::SpanRecorder;
use desim::{Dur, SimTime};

/// Live collectors during a run.
#[derive(Debug)]
pub struct Telemetry {
    /// Per-GPU compute busy intervals (Fig 9/10 GPU utilization).
    pub gpu_busy: Vec<BusyTracker>,
    /// Share of GPU kernel time bounded by HBM (Fig 10 "% of time
    /// accessing GPU memory"), aggregated from roofline components.
    pub mem_time_sum: Dur,
    pub kernel_time_sum: Dur,
    /// CPU cores in use by dataloader workers (Fig 13).
    pub cpu_cores_busy: TimeWeightedGauge,
    /// Host memory in use (Fig 14).
    pub host_mem_used: TimeWeightedGauge,
    /// Per-GPU memory in use, bytes (static per run; Fig 10 middle panel).
    pub gpu_mem_used: f64,
    pub gpu_mem_capacity: f64,
    pub iter_times: Histogram,
    pub epoch_marks: Vec<SimTime>,
    pub samples_trained: Counter,
    /// Time spent stalled waiting for input batches (pipeline-bound).
    pub input_stall: Dur,
    /// Time communication was exposed (not overlapped with compute).
    pub exposed_comm: Dur,
    /// Phase spans of the lockstep group (track 0): data wait, forward,
    /// backward, exposed comm, optimizer, checkpoint.
    pub spans: SpanRecorder,
}

impl Telemetry {
    pub fn new(n_gpus: usize, gpu_mem_capacity: f64) -> Telemetry {
        Telemetry {
            gpu_busy: (0..n_gpus).map(|_| BusyTracker::new()).collect(),
            mem_time_sum: Dur::ZERO,
            kernel_time_sum: Dur::ZERO,
            cpu_cores_busy: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            host_mem_used: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            gpu_mem_used: 0.0,
            gpu_mem_capacity,
            iter_times: Histogram::new(),
            epoch_marks: Vec::new(),
            samples_trained: Counter::new(),
            input_stall: Dur::ZERO,
            exposed_comm: Dur::ZERO,
            spans: SpanRecorder::new(),
        }
    }

    /// Mark all GPUs compute-busy on `[from, to)`.
    pub fn all_gpus_busy(&mut self, from: SimTime, to: SimTime) {
        for b in &mut self.gpu_busy {
            b.record(from, to);
        }
    }
}

/// The distilled result of one training run — the row/series material for
/// every figure of the paper.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub label: String,
    pub benchmark: String,
    /// Wall-clock training time.
    pub total_time: Dur,
    pub iterations: u64,
    pub mean_iter: Dur,
    /// Samples per second of training throughput.
    pub throughput: f64,
    /// Mean GPU utilization in [0, 1] (Fig 10 top / Fig 13 companion).
    pub gpu_util: f64,
    /// Bucketed GPU-utilization trace (Fig 9).
    pub gpu_util_trace: Vec<f64>,
    /// GPU memory occupancy fraction (Fig 10 middle).
    pub gpu_mem_util: f64,
    /// Fraction of kernel time bound by HBM (Fig 10 bottom).
    pub gpu_mem_access_share: f64,
    /// Mean CPU utilization in [0, 1] (Fig 13).
    pub cpu_util: f64,
    /// Mean host-memory utilization in [0, 1] (Fig 14).
    pub host_mem_util: f64,
    /// Aggregate Falcon PCIe traffic, bytes/s (Fig 12); 0 when no
    /// falcon-attached GPU exists in the configuration.
    pub falcon_pcie_rate: f64,
    /// Bucketed Falcon PCIe rate trace.
    pub falcon_pcie_trace: Vec<f64>,
    /// Fraction of run time stalled on the input pipeline.
    pub input_stall_share: f64,
    /// Fraction of run time in exposed (unoverlapped) communication.
    pub exposed_comm_share: f64,
    /// Wall-clock per phase label (the Fig 8 data-path breakdown):
    /// forward, backward, exposed-comm, optimizer, checkpoint, data-wait.
    pub phase_totals: Vec<(String, f64)>,
}

impl RunReport {
    /// Percent change of training time versus a baseline run (the Fig 11 /
    /// Fig 15 quantity): positive = slower than baseline.
    pub fn pct_change_vs(&self, baseline: &RunReport) -> f64 {
        (self.total_time.as_secs_f64() / baseline.total_time.as_secs_f64() - 1.0) * 100.0
    }

    /// Speedup of `self` relative to `other` (>1 means self is faster).
    pub fn speedup_vs(&self, other: &RunReport) -> f64 {
        other.total_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    pub fn gpu_util_summary(&self) -> Summary {
        Summary::of(&self.gpu_util_trace)
    }

    /// Compact JSON form (downstream tooling, golden files).
    pub fn to_json_string(&self) -> String {
        self.to_json().emit()
    }

    /// Parse a report emitted by [`RunReport::to_json_string`].
    pub fn from_json_str(s: &str) -> Result<RunReport, JsonError> {
        RunReport::from_json(&Value::parse(s)?)
    }
}

desim::json_record! {
    RunReport;
    label: "label",
    benchmark: "benchmark",
    total_time: "total_time",
    iterations: "iterations",
    mean_iter: "mean_iter",
    throughput: "throughput",
    gpu_util: "gpu_util",
    gpu_util_trace: "gpu_util_trace",
    gpu_mem_util: "gpu_mem_util",
    gpu_mem_access_share: "gpu_mem_access_share",
    cpu_util: "cpu_util",
    host_mem_util: "host_mem_util",
    falcon_pcie_rate: "falcon_pcie_rate",
    falcon_pcie_trace: "falcon_pcie_trace",
    input_stall_share: "input_stall_share",
    exposed_comm_share: "exposed_comm_share",
    phase_totals: "phase_totals",
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(secs: f64) -> RunReport {
        RunReport {
            label: "x".into(),
            benchmark: "b".into(),
            total_time: Dur::from_secs_f64(secs),
            iterations: 10,
            mean_iter: Dur::from_secs_f64(secs / 10.0),
            throughput: 1.0,
            gpu_util: 0.9,
            gpu_util_trace: vec![0.8, 1.0],
            gpu_mem_util: 0.5,
            gpu_mem_access_share: 0.3,
            cpu_util: 0.2,
            host_mem_util: 0.1,
            falcon_pcie_rate: 0.0,
            falcon_pcie_trace: vec![],
            input_stall_share: 0.0,
            exposed_comm_share: 0.0,
            phase_totals: vec![],
        }
    }

    #[test]
    fn pct_change_and_speedup() {
        let base = report(100.0);
        let slow = report(200.0);
        assert!((slow.pct_change_vs(&base) - 100.0).abs() < 1e-9);
        assert!((base.speedup_vs(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.speedup_vs(&base) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn telemetry_gpu_marks() {
        let mut t = Telemetry::new(2, 16e9);
        t.all_gpus_busy(SimTime::ZERO, SimTime::from_secs(1));
        for b in &t.gpu_busy {
            assert!((b.utilization(SimTime::ZERO, SimTime::from_secs(1)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn util_summary() {
        let r = report(10.0);
        let s = r.gpu_util_summary();
        assert_eq!(s.count, 2);
        assert!((s.mean - 0.9).abs() < 1e-9);
    }
}
