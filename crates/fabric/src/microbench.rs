//! Point-to-point fabric microbenchmarks.
//!
//! Reproduces the methodology behind the paper's **Table IV**: for a pair
//! of GPUs, measure the peer-to-peer write latency and the bidirectional
//! bandwidth. The bandwidth probe runs two large opposing flows through the
//! actual flow simulator (so any contention/efficiency effect of the route
//! is captured); the latency probe reports the route's one-way latency plus
//! a fixed software overhead representing the CUDA p2p doorbell/driver
//! path, which is what `p2pBandwidthLatencyTest` actually times.

use crate::flow::{FabricState, FlowWorld};
use crate::topology::{NodeId, Topology};
use desim::{Dur, Sim, SimTime};

/// Software overhead of a p2p write as seen by the CUDA latency test
/// (driver + doorbell + completion polling). Calibrated so that the L-L
/// NVLink path reproduces Table IV's 1.85 µs.
pub const P2P_SOFTWARE_OVERHEAD: Dur = Dur::from_nanos(1150);

/// Result of a point-to-point probe between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pResult {
    /// One-way small-write latency (Table IV "P2P Write Latency").
    pub latency: Dur,
    /// Unidirectional achievable bandwidth, bytes/s.
    pub unidir_bandwidth: f64,
    /// Bidirectional achievable bandwidth (both directions simultaneously),
    /// bytes/s (Table IV "Bidirectional Bandwidth").
    pub bidir_bandwidth: f64,
}

/// A minimal self-contained world for probing a topology.
struct ProbeWorld {
    fabric: FabricState<ProbeWorld>,
    completions: u32,
}

impl FlowWorld for ProbeWorld {
    fn fabric(&mut self) -> &mut FabricState<ProbeWorld> {
        &mut self.fabric
    }
}

fn run_flows(topo: &Topology, transfers: &[(NodeId, NodeId, f64)]) -> Dur {
    let mut world = ProbeWorld {
        fabric: FabricState::new(topo.clone()),
        completions: 0,
    };
    let mut sim: Sim<ProbeWorld> = Sim::new();
    for &(src, dst, bytes) in transfers {
        world.fabric.start_flow(
            &mut sim,
            src,
            dst,
            bytes,
            Box::new(|w: &mut ProbeWorld, _| w.completions += 1),
        );
    }
    sim.run(&mut world);
    assert_eq!(world.completions as usize, transfers.len());
    sim.now() - SimTime::ZERO
}

/// Probe the pair `(a, b)` on `topo`.
///
/// `probe_bytes` is the per-direction transfer size for the bandwidth
/// measurement; large values (≥ 1 GB) amortize the latency phase as the
/// real benchmark does.
pub fn p2p_probe(topo: &Topology, a: NodeId, b: NodeId, probe_bytes: f64) -> P2pResult {
    assert!(probe_bytes > 0.0);
    let mut routing = topo.clone();
    let route = routing
        .route(a, b)
        .unwrap_or_else(|| panic!("no route between probe endpoints"));
    let latency = route.latency + P2P_SOFTWARE_OVERHEAD;

    let uni = run_flows(topo, &[(a, b, probe_bytes)]);
    let unidir_bandwidth = probe_bytes / uni.as_secs_f64();

    let bidi = run_flows(topo, &[(a, b, probe_bytes), (b, a, probe_bytes)]);
    let bidir_bandwidth = 2.0 * probe_bytes / bidi.as_secs_f64();

    P2pResult {
        latency,
        unidir_bandwidth,
        bidir_bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkClass, LinkSpec};
    use crate::topology::NodeKind;
    use crate::GB;

    /// Two GPUs (core+port pairs) on one PCIe switch: the F-F path shape.
    fn ff_topology() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let sw = t.add_node("drawer-sw", NodeKind::PcieSwitch);
        let gpu = |t: &mut Topology, name: &str| {
            let core = t.add_node(format!("{name}.core"), NodeKind::Gpu);
            let port = t.add_node(format!("{name}.port"), NodeKind::DevicePort);
            t.add_link(
                core,
                port,
                LinkSpec::of(LinkClass::PcieGen4x16)
                    .with_capacity(13.3 * GB)
                    .with_latency(Dur::ZERO),
            );
            t.add_link(port, sw, LinkSpec::of(LinkClass::PcieGen4x16));
            core
        };
        let a = gpu(&mut t, "gpu0");
        let b = gpu(&mut t, "gpu1");
        (t, a, b)
    }

    #[test]
    fn ff_pair_bandwidth_near_table_iv() {
        let (t, a, b) = ff_topology();
        let r = p2p_probe(&t, a, b, 4.0 * GB);
        // Table IV: F-F bidirectional 24.47 GB/s. DMA engine 13.3 GB/s ×
        // switch p2p efficiency 0.92 ≈ 12.24 per direction.
        let gbs = r.bidir_bandwidth / GB;
        assert!((gbs - 24.47).abs() < 1.0, "F-F bidir {gbs} GB/s");
        let uni = r.unidir_bandwidth / GB;
        assert!((uni - 12.24).abs() < 0.5, "F-F unidir {uni} GB/s");
    }

    #[test]
    fn ff_latency_near_table_iv() {
        let (t, a, b) = ff_topology();
        let r = p2p_probe(&t, a, b, 1.0 * GB);
        let us = r.latency.as_micros_f64();
        // Table IV: 2.08 us.
        assert!((us - 2.08).abs() < 0.15, "F-F latency {us} us");
    }

    #[test]
    fn nvlink_pair_bandwidth_near_table_iv() {
        let mut t = Topology::new();
        let a = t.add_node("g0", NodeKind::Gpu);
        let b = t.add_node("g1", NodeKind::Gpu);
        t.add_link(a, b, LinkSpec::of(LinkClass::NvLink2 { lanes: 2 }));
        let r = p2p_probe(&t, a, b, 8.0 * GB);
        let gbs = r.bidir_bandwidth / GB;
        // Table IV: L-L bidirectional 72.37 GB/s.
        assert!((gbs - 72.37).abs() < 2.0, "L-L bidir {gbs} GB/s");
        let us = r.latency.as_micros_f64();
        assert!((us - 1.85).abs() < 0.1, "L-L latency {us} us");
    }
}
