//! `devices` — performance models of the hardware in the paper's test bed.
//!
//! Each device is described by a *spec* (published peak numbers plus a few
//! calibrated efficiency factors) and, where it attaches to the fabric, a
//! small builder that inserts the device into a [`fabric::Topology`] as a
//! `core —DMA link→ port` pair, so that its copy-engine rate bounds every
//! PCIe transfer in or out of it.
//!
//! Inventory (paper §II-A / §V-A.1):
//! * NVIDIA Tesla **V100 SXM2 16 GB** (local, NVLink hybrid cube mesh) and
//!   **V100 PCIe 16 GB** (Falcon-attached), plus the P100 mentioned as
//!   present in the chassis ([`gpu`]).
//! * 2 × Intel Xeon Gold 6148 per host, 756 GB DRAM ([`cpu`], [`memory`]).
//! * Intel SSDPEDKX040T7 4 TB NVMe and a SATA-class "local storage"
//!   baseline ([`storage`]).
//!
//! The [`roofline`] module converts layer workloads (FLOPs + bytes touched)
//! into kernel times split into compute- and memory-limited components —
//! the source of the paper's Fig 10 "% time accessing GPU memory" metric.

pub mod catalog;
pub mod cpu;
pub mod gpu;
pub mod memory;
pub mod roofline;
pub mod storage;

pub use catalog::Calibration;
pub use cpu::CpuSpec;
pub use gpu::{GpuNodes, GpuSpec};
pub use memory::DramSpec;
pub use roofline::{KernelTime, Precision};
pub use storage::{StorageNodes, StorageSpec};

/// Bytes per second in one GB/s (decimal).
pub const GB: f64 = 1e9;
/// One tera-FLOP.
pub const TFLOP: f64 = 1e12;
