//! Storage device models.
//!
//! Three storage classes appear in the paper's configurations (Table III):
//! a locally attached NVMe drive, a Falcon-attached NVMe drive, and the
//! baseline "local storage" (SATA-class). The model captures sequential
//! bandwidth (what a prefetching dataloader sees), random-access IOPS
//! (small-file reads), and device latency.

use crate::GB;
use desim::Dur;
use fabric::{LinkClass, LinkSpec, NodeId, NodeKind, Topology};

/// Static description of a storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSpec {
    pub name: String,
    pub capacity_bytes: f64,
    /// Sustained sequential read bandwidth (bytes/s).
    pub seq_read: f64,
    /// Sustained sequential write bandwidth (bytes/s).
    pub seq_write: f64,
    /// 4 KiB random read operations per second.
    pub rand_read_iops: f64,
    /// Device access latency.
    pub latency: Dur,
    /// Which link class the device port uses.
    pub link_class: LinkClass,
}

impl StorageSpec {
    /// Intel SSDPEDKX040T7 (DC P4500) 4 TB NVMe — the paper's NVMe drives.
    pub fn intel_p4500_4tb() -> StorageSpec {
        StorageSpec {
            name: "Intel SSDPEDKX040T7 4TB NVMe".to_string(),
            capacity_bytes: 4000.0 * GB,
            seq_read: 3.2 * GB,
            seq_write: 1.9 * GB,
            rand_read_iops: 710_000.0,
            latency: Dur::from_micros(85),
            link_class: LinkClass::PcieGen3x4,
        }
    }

    /// SATA-class SSD — the "local storage" baseline of Table III.
    pub fn sata_ssd() -> StorageSpec {
        StorageSpec {
            name: "SATA SSD (local storage)".to_string(),
            capacity_bytes: 1920.0 * GB,
            seq_read: 0.53 * GB,
            seq_write: 0.49 * GB,
            rand_read_iops: 95_000.0,
            latency: Dur::from_micros(250),
            link_class: LinkClass::Sata3,
        }
    }

    /// Time to write `bytes` sequentially (checkpointing).
    pub fn write_time(&self, bytes: f64) -> Dur {
        self.latency + Dur::for_bytes(bytes, self.seq_write)
    }
}

/// The fabric nodes of an instantiated storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageNodes {
    pub device: NodeId,
    pub port: NodeId,
}

/// Insert a storage device into the topology as a `device —media→ port`
/// pair; the internal link capacity is the device's sequential read rate
/// (the media itself is the bottleneck, not its PCIe/SATA port).
pub fn add_storage(topo: &mut Topology, name: &str, spec: &StorageSpec) -> StorageNodes {
    let device = topo.add_node(format!("{name}.media"), NodeKind::Storage);
    let port = topo.add_node(format!("{name}.port"), NodeKind::DevicePort);
    topo.add_link(
        device,
        port,
        LinkSpec::of(spec.link_class)
            .with_capacity(spec.seq_read)
            .with_latency(spec.latency),
    );
    StorageNodes { device, port }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvme_is_much_faster_than_sata() {
        let nvme = StorageSpec::intel_p4500_4tb();
        let sata = StorageSpec::sata_ssd();
        assert!(nvme.seq_read / sata.seq_read > 5.0);
        assert!(nvme.rand_read_iops / sata.rand_read_iops > 5.0);
        assert!(nvme.latency < sata.latency);
    }

    #[test]
    fn checkpoint_write_time() {
        let nvme = StorageSpec::intel_p4500_4tb();
        // 1.9 GB at 1.9 GB/s = 1 s (+latency).
        let t = nvme.write_time(1.9 * GB);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn add_storage_builds_pair() {
        let mut t = Topology::new();
        let s = add_storage(&mut t, "nvme0", &StorageSpec::intel_p4500_4tb());
        assert_eq!(t.node(s.device).kind, NodeKind::Storage);
        assert_eq!(t.node(s.port).kind, NodeKind::DevicePort);
        assert!(t.route(s.device, s.port).is_some());
    }
}
