//! Network interface card model.
//!
//! Each host carries two Intel X540-AT2 10 GbE controllers (paper §II-A).
//! The DL benchmarks are single-host, so NICs do not shape the paper's
//! measurements — but the composable system inventories and attaches them
//! like any other PCIe device, so the model exists for completeness and
//! for the management plane's resource lists.

use fabric::{LinkClass, LinkSpec, NodeId, NodeKind, Topology};

/// Static description of a NIC.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    pub name: String,
    /// Line rate per port (bytes/s).
    pub line_rate: f64,
    pub ports: u8,
}

impl NicSpec {
    pub fn aggregate_rate(&self) -> f64 {
        self.line_rate * f64::from(self.ports)
    }
}

/// Insert a NIC into the topology; returns its port-side node.
pub fn add_nic(topo: &mut Topology, name: &str, spec: &NicSpec) -> NodeId {
    let dev = topo.add_node(format!("{name}.mac"), NodeKind::Nic);
    let port = topo.add_node(format!("{name}.port"), NodeKind::DevicePort);
    topo.add_link(
        dev,
        port,
        LinkSpec::of(LinkClass::TenGbE).with_capacity(spec.aggregate_rate()),
    );
    port
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    #[test]
    fn add_nic_wires_device_at_its_aggregate_rate() {
        // Intel X540-AT2: two 10 GbE ports.
        let x540 = NicSpec {
            name: "Intel X540-AT2 10GbE".to_string(),
            line_rate: 1.25 * GB,
            ports: 2,
        };
        assert!((x540.aggregate_rate() - 2.5 * GB).abs() < 1e-6);
        let mut t = Topology::new();
        let port = add_nic(&mut t, "nic0", &x540);
        assert_eq!(t.node(port).kind, NodeKind::DevicePort);
        assert_eq!(t.node_count(), 2);
    }
}
