//! `fabric` — flow-level interconnect simulation.
//!
//! This crate models the communication substrate of the composable system:
//! PCIe Gen3/Gen4 links, second-generation NVLink, the 400 Gb/s CDFP host
//! cables that attach a Falcon 4016 chassis to its host servers, and the
//! storage/NIC links — as a graph ([`Topology`]) over which byte flows
//! ([`flow`]) are simulated fluidly.
//!
//! The central abstraction is **max-min fair bandwidth sharing**: every
//! active flow crosses a set of directed links; link capacity is divided by
//! progressive filling, so contention effects (e.g. four allreduce ring
//! edges funneling through one host port) *emerge* from topology rather
//! than being hand-coded. This is what lets the training-time overheads of
//! the paper's Figures 11–16 fall out of protocol + topology alone.
//!
//! Per-directed-link ingress/egress counters ([`ports::PortStats`]) mirror
//! the Falcon management GUI's port-traffic monitoring and reproduce the
//! paper's Figure 12 PCIe-traffic series.

pub mod export;
pub mod flow;
pub mod link;
pub mod microbench;
pub mod ports;
pub mod topology;

pub use export::{to_dot, TopologySpec};
pub use flow::{FabricState, FlowId, FlowTag, FlowWorld};
pub use link::{LinkClass, LinkSpec};
pub use ports::PortStats;
pub use topology::{Dir, DirLink, LinkId, NodeId, NodeKind, Route, Topology};

/// Bytes per second in one gigabyte per second (decimal, as in the paper).
pub const GB: f64 = 1e9;
/// Bytes in one mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;
