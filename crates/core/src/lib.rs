//! `composable-core` — the public API of the composable-system study.
//!
//! This crate ties the substrates together into the paper's experiment
//! surface:
//!
//! * [`config::HostConfig`] — the five composed-host configurations of
//!   **Table III** (`localGPUs`, `hybridGPUs`, `falconGPUs`, `localNVMe`,
//!   `falconNVMe`).
//! * [`system`] — builds each configuration into a concrete fabric
//!   topology + cluster: the Supermicro host (2× Xeon 6148, 756 GB DRAM,
//!   8 NVLink-meshed V100 SXM2), the Falcon 4016 chassis with two drawers
//!   of V100 PCIe GPUs and an NVMe drive, CDFP host cabling (paper Fig 6).
//! * [`runner`] — runs DL benchmarks on a configuration and returns
//!   [`training::RunReport`]s; sweeps run configurations in parallel on
//!   host threads (each simulation stays single-threaded-deterministic).
//! * [`report`] — renders the paper's tables and figure series as text.
//! * [`recommend`](mod@recommend) — the paper's stated future work (§VI): given a
//!   workload, simulate candidate compositions and recommend a topology.
//!
//! # Quickstart
//!
//! ```
//! use composable_core::{HostConfig, runner};
//! use dlmodels::Benchmark;
//!
//! let opts = runner::ExperimentOpts::scaled(5); // 5 iterations/epoch demo
//! let report = runner::run(Benchmark::ResNet50, HostConfig::LocalGpus, &opts).unwrap();
//! assert!(report.total_time.as_secs_f64() > 0.0);
//! ```

pub mod analysis;
pub mod config;
pub mod recommend;
pub mod report;
pub mod runner;
pub mod system;

pub use config::HostConfig;
pub use recommend::{recommend, recommend_jobs, Objective, Recommendation};
pub use runner::{run, sweep, sweep_jobs, ExperimentOpts};
pub use system::build_config;
