//! Run telemetry: everything the paper's figures plot.

use desim::json::{FromJson, JsonError, ToJson, Value};
use desim::stats::{BusyTracker, TimeWeightedGauge};
use desim::{Dur, SimTime};

/// A phase of the lockstep group's iteration — the Fig 8 data-path
/// breakdown [`RunReport::phase_totals`] reports. Declared in label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Backward,
    Checkpoint,
    DataWait,
    ExposedComm,
    Forward,
    Optimizer,
}

impl Phase {
    /// Every phase, in label order.
    pub const ALL: [Phase; 6] = [
        Phase::Backward,
        Phase::Checkpoint,
        Phase::DataWait,
        Phase::ExposedComm,
        Phase::Forward,
        Phase::Optimizer,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Backward => "backward",
            Phase::Checkpoint => "checkpoint",
            Phase::DataWait => "data-wait",
            Phase::ExposedComm => "exposed-comm",
            Phase::Forward => "forward",
            Phase::Optimizer => "optimizer",
        }
    }
}

/// Live collectors during a run: one running sum per reported quantity.
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
    /// Sum of the iterations' wall-clock times, seconds.
    pub iter_secs: f64,
    /// Samples trained, summed over the replicas.
    pub samples_trained: f64,
    /// Wall-clock of the lockstep group per [`Phase`], indexed by it.
    phase_sums: [Dur; Phase::ALL.len()],
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
            iter_secs: 0.0,
            samples_trained: 0.0,
            phase_sums: [Dur::ZERO; Phase::ALL.len()],
        }
    }

    /// Mark all GPUs compute-busy on `[from, to)`.
    pub fn all_gpus_busy(&mut self, from: SimTime, to: SimTime) {
        for b in &mut self.gpu_busy {
            b.record(from, to);
        }
    }

    /// Add the interval `[from, to)` to `phase`'s total (nothing when
    /// `to <= from`).
    pub fn add_phase(&mut self, phase: Phase, from: SimTime, to: SimTime) {
        self.phase_sums[phase as usize] += to.since(from);
    }

    /// Total time recorded in `phase`.
    pub fn phase_total(&self, phase: Phase) -> Dur {
        self.phase_sums[phase as usize]
    }

    /// Seconds per phase label, in label order, phases with no recorded
    /// time left out.
    pub fn phase_totals(&self) -> Vec<(String, f64)> {
        Phase::ALL
            .iter()
            .filter(|&&p| !self.phase_total(p).is_zero())
            .map(|&p| (p.label().to_string(), self.phase_total(p).as_secs_f64()))
            .collect()
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
    /// Wall-clock seconds per phase label (the Fig 8 data-path
    /// breakdown), in label order: backward, checkpoint, data-wait,
    /// exposed-comm, forward, optimizer; a phase with no time is left out.
    pub phase_totals: Vec<(String, f64)>,
}

impl RunReport {
    /// Percent change of training time versus a baseline run (the Fig 11 /
    /// Fig 15 quantity): positive = slower than baseline.
    pub fn pct_change_vs(&self, baseline: &RunReport) -> f64 {
        (self.total_time.as_secs_f64() / baseline.total_time.as_secs_f64() - 1.0) * 100.0
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
    fn pct_change() {
        let base = report(100.0);
        let slow = report(200.0);
        assert!((slow.pct_change_vs(&base) - 100.0).abs() < 1e-9);
        assert!((base.pct_change_vs(&slow) + 50.0).abs() < 1e-9);
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
    fn phase_totals_are_in_label_order_without_empty_phases() {
        let mut t = Telemetry::new(1, 16e9);
        let us = SimTime::from_micros;
        t.add_phase(Phase::Optimizer, us(30), us(40));
        t.add_phase(Phase::Forward, us(0), us(10));
        t.add_phase(Phase::DataWait, us(5), us(5));
        t.add_phase(Phase::Backward, us(10), us(30));
        t.add_phase(Phase::Forward, us(40), us(50));
        t.add_phase(Phase::Checkpoint, us(9), us(3));
        assert_eq!(t.phase_total(Phase::Forward), Dur::from_micros(20));
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted, "Phase::ALL is in label order");
        assert_eq!(
            t.phase_totals(),
            vec![
                ("backward".to_string(), 20e-6),
                ("forward".to_string(), 20e-6),
                ("optimizer".to_string(), 10e-6),
            ]
        );
    }
}
