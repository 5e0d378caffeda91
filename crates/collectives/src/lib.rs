//! `collectives` — NCCL-style collective communication on the simulated
//! fabric.
//!
//! The paper's benchmarks synchronize gradients with the NCCL **allreduce**
//! (ring algorithm) under PyTorch DDP; the Fig 16 study also exercises the
//! DP master-replica pattern (star broadcast + star reduce) and
//! ZeRO-style sharding (reduce-scatter + all-gather).
//!
//! Execution model: a ring collective over `n` members moving `M` bytes is
//! simulated as `n` *concurrent directed flows*, one per ring edge, each
//! carrying the algorithm's per-edge volume (`2(n-1)/n·M` for allreduce).
//! This matches the pipelined steady state of the real algorithms and —
//! because the flows traverse the real topology — contention on shared
//! links (CDFP host ports, drawer switches, the DMA engines) is priced by
//! the fabric's max-min allocation rather than assumed.
//!
//! [`ring::plan_ring`] chooses the ring order greedily by pairwise path
//! capacity, reproducing NCCL's preference for NVLink edges and producing
//! exactly two slow crossing edges in the paper's hybrid configuration.

pub mod ring;

pub use ring::{
    all_gather, pair_capacity, plan_ring, reduce_scatter, ring_allreduce, ring_bottleneck,
    star_broadcast, star_reduce,
};
