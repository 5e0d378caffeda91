//! `training` — the deep-learning training-loop engine on the simulated
//! composable system.
//!
//! This crate reproduces the data path of the paper's Figure 8: batches
//! are read from **storage** into **host memory**, preprocessed by **CPU**
//! dataloader workers, copied over **PCIe** to each GPU, run through
//! forward/backward **GPU compute** (roofline-timed per layer), gradient-
//! synchronized with **NCCL-style collectives** (bucketed and overlapped
//! with backward under DDP), and finished with the optimizer step —
//! with periodic epoch-end checkpointing back to storage.
//!
//! Everything observable in the paper's evaluation is recorded by
//! [`telemetry::Telemetry`]: GPU utilization traces (Fig 9/10), GPU memory
//! occupancy and memory-access-time share (Fig 10), CPU utilization
//! (Fig 13), host memory (Fig 14), Falcon PCIe port traffic (Fig 12), and
//! training time (Figs 11/15/16).
//!
//! Parallelization strategies (paper §V-C.4, Fig 16):
//! * [`config::Strategy::Ddp`] — PyTorch DistributedDataParallel: one
//!   process per GPU, bucketed ring allreduce overlapped with backward.
//! * [`config::Strategy::Dp`] — single-process DataParallel: per-iteration
//!   parameter broadcast from the master GPU, unoverlapped gradient
//!   reduction to the master, and a kernel-dispatch dilation modeling the
//!   single Python process driving all replicas.
//! * [`config::Strategy::Sharded`] — ZeRO-style optimizer-state sharding:
//!   reduce-scatter + all-gather traffic, 1/n optimizer work, and the
//!   smaller per-GPU memory footprint that lets the batch size grow
//!   (6 → 10 for BERT-large in the paper).

pub mod cluster;
pub mod config;
pub mod engine;
pub mod memory;
pub mod pipeline;
pub mod telemetry;

pub use cluster::{Cluster, GpuHandle};
pub use config::{paper_batch, JobConfig, Strategy};
pub use engine::{run_job, run_timing, Bed, TrainWorld};
pub use memory::{gpu_memory_needed, max_feasible_batch, MemoryBudget};
pub use telemetry::{RunReport, Telemetry};
