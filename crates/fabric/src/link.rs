//! Link classes and their performance envelopes.
//!
//! Raw signalling rates come from the respective specs; the *effective*
//! envelope applies a protocol-efficiency factor calibrated so that the
//! simulated point-to-point microbenchmarks reproduce the paper's
//! **Table IV** (L-L 72.37 GB/s bidirectional over NVLink, F-L 19.64 GB/s
//! and F-F 24.47 GB/s over PCIe 4.0, with p2p write latencies of
//! 1.85/2.66/2.08 µs). Fig 5's communication-requirements table is also
//! rendered from these classes.

use crate::GB;
use desim::Dur;
use std::fmt;

/// The physical class of an interconnect link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// PCI Express Gen3 ×16 (≈ 15.75 GB/s raw per direction).
    PcieGen3x16,
    /// PCI Express Gen4 ×16 (≈ 31.5 GB/s raw per direction) — the Falcon
    /// 4016 fabric and host-adapter links.
    PcieGen4x16,
    /// PCIe Gen3 ×4 — the locally attached NVMe in the Supermicro host.
    PcieGen3x4,
    /// Second-generation NVLink; `lanes` individual 25 GB/s-per-direction
    /// bricks bonded between a GPU pair (the hybrid cube mesh uses 1 or 2).
    NvLink2 { lanes: u8 },
    /// The 400 Gb/s CDFP cable between a Falcon host port and the host
    /// adapter (PCIe Gen4 ×16 semantics at the transaction layer).
    Cdfp400,
    /// Memory channel aggregate between a CPU and its DRAM.
    MemoryBus,
    /// SATA-class storage link (the "local storage" baseline).
    Sata3,
}

impl LinkClass {
    /// Raw (signalling) bandwidth per direction, bytes/s.
    pub fn raw_bandwidth(self) -> f64 {
        match self {
            LinkClass::PcieGen3x16 => 15.75 * GB,
            LinkClass::PcieGen4x16 => 31.5 * GB,
            LinkClass::PcieGen3x4 => 3.94 * GB,
            LinkClass::NvLink2 { lanes } => 25.0 * GB * f64::from(lanes),
            LinkClass::Cdfp400 => 31.5 * GB, // x16 Gen4 host adapter behind 400 Gb/s cable
            LinkClass::MemoryBus => 128.0 * GB,
            LinkClass::Sata3 => 0.6 * GB,
        }
    }

    /// Default protocol efficiency (fraction of raw bandwidth achievable by
    /// large DMA transfers). PCIe loses TLP/DLLP framing overhead; peer-to-
    /// peer through a root complex is notoriously inefficient, which the
    /// `devices` catalog captures with a further path factor.
    pub fn default_efficiency(self) -> f64 {
        match self {
            LinkClass::PcieGen3x16
            | LinkClass::PcieGen4x16
            | LinkClass::PcieGen3x4
            | LinkClass::Cdfp400 => 0.85,
            // Calibrated so a 2-lane pair reproduces Table IV's measured
            // 72.37 GB/s bidirectional (36.2 GB/s per direction of 50 raw).
            LinkClass::NvLink2 { .. } => 0.72,
            LinkClass::MemoryBus => 0.8,
            LinkClass::Sata3 => 0.9,
        }
    }

    /// One-way propagation + serialization latency contribution of a link
    /// of this class (switch/endpoint forwarding latency is modeled on the
    /// node, not here).
    pub fn latency(self) -> Dur {
        match self {
            LinkClass::PcieGen3x16 | LinkClass::PcieGen4x16 | LinkClass::PcieGen3x4 => {
                Dur::from_nanos(250)
            }
            LinkClass::Cdfp400 => Dur::from_nanos(350), // longer cable run
            LinkClass::NvLink2 { .. } => Dur::from_nanos(700),
            LinkClass::MemoryBus => Dur::from_nanos(90),
            LinkClass::Sata3 => Dur::from_micros(80),
        }
    }

    /// Human-readable protocol name (Table IV's "Link Protocol" row).
    pub fn protocol_name(self) -> &'static str {
        match self {
            LinkClass::PcieGen3x16 | LinkClass::PcieGen3x4 => "PCI-e 3.0",
            LinkClass::PcieGen4x16 | LinkClass::Cdfp400 => "PCI-e 4.0",
            LinkClass::NvLink2 { .. } => "NVLink",
            LinkClass::MemoryBus => "DDR4",
            LinkClass::Sata3 => "SATA 3",
        }
    }
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkClass::NvLink2 { lanes } => write!(f, "NVLink2x{lanes}"),
            other => write!(f, "{}", other.protocol_name()),
        }
    }
}

/// A fully resolved link: effective per-direction capacity and latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    pub class: LinkClass,
    /// Effective capacity per direction, bytes/s.
    pub capacity: f64,
    /// One-way latency contribution.
    pub latency: Dur,
}

impl LinkSpec {
    /// A spec with the class's default efficiency and latency.
    pub fn of(class: LinkClass) -> LinkSpec {
        LinkSpec {
            class,
            capacity: class.raw_bandwidth() * class.default_efficiency(),
            latency: class.latency(),
        }
    }

    pub fn with_latency(mut self, latency: Dur) -> LinkSpec {
        self.latency = latency;
        self
    }

    pub fn with_capacity(mut self, capacity: f64) -> LinkSpec {
        assert!(capacity > 0.0);
        self.capacity = capacity;
        self
    }
}

/// One row of the paper's Fig 5 "Communications Requirements" table.
#[derive(Debug, Clone, Copy)]
pub struct CommsRequirement {
    pub path: &'static str,
    pub latency_low: Dur,
    pub latency_high: Dur,
    pub bandwidth_low_gbps: f64,
    pub bandwidth_high_gbps: f64,
    pub link_length: &'static str,
}

/// The survey table the paper reproduces from [Papaioannou et al. 2016]
/// (Fig 5): how latency and bandwidth requirements tier from CPU-CPU to
/// CPU-disk paths.
pub fn comms_requirements() -> Vec<CommsRequirement> {
    vec![
        CommsRequirement {
            path: "CPU - CPU",
            latency_low: Dur::from_nanos(10),
            latency_high: Dur::from_nanos(10),
            bandwidth_low_gbps: 200.0,
            bandwidth_high_gbps: 320.0,
            link_length: "0.1 - 1 m",
        },
        CommsRequirement {
            path: "CPU - Memory",
            latency_low: Dur::from_nanos(10),
            latency_high: Dur::from_nanos(50),
            bandwidth_low_gbps: 300.0,
            bandwidth_high_gbps: 800.0,
            link_length: "1 - 5 m",
        },
        CommsRequirement {
            path: "CPU - Disk",
            latency_low: Dur::from_micros(1),
            latency_high: Dur::from_micros(10),
            bandwidth_low_gbps: 5.0,
            bandwidth_high_gbps: 128.0,
            link_length: "5 m - 1 km",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bandwidths_match_specs() {
        assert!((LinkClass::PcieGen4x16.raw_bandwidth() - 31.5 * GB).abs() < 1e6);
        assert!((LinkClass::PcieGen3x16.raw_bandwidth() - 15.75 * GB).abs() < 1e6);
        assert!(
            (LinkClass::NvLink2 { lanes: 2 }.raw_bandwidth() - 50.0 * GB).abs() < 1e6,
            "two NVLink bricks = 50 GB/s per direction"
        );
    }

    #[test]
    fn effective_capacity_below_raw() {
        for class in [
            LinkClass::PcieGen4x16,
            LinkClass::NvLink2 { lanes: 2 },
            LinkClass::Sata3,
            LinkClass::MemoryBus,
        ] {
            let spec = LinkSpec::of(class);
            assert!(spec.capacity < class.raw_bandwidth());
            assert!(spec.capacity > 0.5 * class.raw_bandwidth());
        }
    }

    #[test]
    fn protocol_names_match_table_iv_vocabulary() {
        assert_eq!(LinkClass::PcieGen4x16.protocol_name(), "PCI-e 4.0");
        assert_eq!(LinkClass::NvLink2 { lanes: 2 }.protocol_name(), "NVLink");
    }

    #[test]
    fn comms_requirements_tier_correctly() {
        let rows = comms_requirements();
        assert_eq!(rows.len(), 3);
        // Latency increases 5x-100x moving from CPU-CPU to CPU-disk (paper §IV).
        assert!(rows[2].latency_low >= rows[0].latency_high * 5);
        // Bandwidth per device decreases.
        assert!(rows[2].bandwidth_low_gbps < rows[0].bandwidth_low_gbps);
    }

    #[test]
    fn storage_links_are_slow_and_laggy() {
        assert!(LinkClass::Sata3.raw_bandwidth() < LinkClass::PcieGen3x4.raw_bandwidth());
        assert!(LinkClass::Sata3.latency() > LinkClass::PcieGen3x4.latency());
    }
}
