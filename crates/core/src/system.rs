//! Building Table III configurations into concrete fabric topologies.
//!
//! The composed system follows the paper's Fig 6: one Supermicro
//! SYS-4029GP-TVRT host (2× Xeon Gold 6148, 756 GB DRAM, 8 Tesla V100
//! SXM2 in the NVLink hybrid cube mesh) cabled into a Falcon 4016 whose
//! drawers each carry four Tesla V100 PCIe GPUs; drawer 1 also carries a
//! 4 TB NVMe drive. A second 4 TB NVMe is attached locally, and a
//! SATA-class scratch disk is the "local storage" baseline.

use crate::config::HostConfig;
use devices::catalog::wire_cube_mesh;
use devices::gpu::{add_gpu, GpuSpec};
use devices::storage::{add_storage, StorageSpec};
use devices::{CpuSpec, DramSpec};
use fabric::{LinkClass, LinkSpec, NodeId, NodeKind, Topology};
use falcon::{DrawerId, Falcon4016, HostId, HostPort, Mode, SlotAddr, SlotDevice};
use std::collections::BTreeMap;
use training::{Cluster, GpuHandle};

/// The materialized test bed for one configuration.
pub struct Composed {
    pub topology: Topology,
    pub cluster: Cluster,
    /// The chassis model (management-plane operations remain available).
    pub chassis: Falcon4016,
}

/// Host-side constants of the paper's test bed.
pub struct HostSpec {
    pub cpu: CpuSpec,
    pub dram: DramSpec,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            cpu: CpuSpec::dual_xeon_6148(),
            dram: DramSpec::host_756gb(),
        }
    }
}

/// Build a Table III configuration into a topology + cluster.
pub fn build_config(config: HostConfig) -> Composed {
    let host = HostSpec::default();
    let mut topo = Topology::new();

    // Host root complex and DRAM.
    let rc = topo.add_node("host0.rc", NodeKind::RootComplex);
    let mem = topo.add_node("host0.dram", NodeKind::Memory);
    topo.add_link(rc, mem, LinkSpec::of(LinkClass::MemoryBus));

    // Eight local SXM2 V100s: PCIe to the root complex, NVLink cube mesh.
    let sxm2 = GpuSpec::v100_sxm2_16gb();
    let local_gpus: Vec<_> = (0..8)
        .map(|i| {
            let g = add_gpu(&mut topo, &format!("host0.gpu{i}"), &sxm2);
            topo.add_link(g.port, rc, LinkSpec::of(LinkClass::PcieGen3x16));
            g
        })
        .collect();
    wire_cube_mesh(&mut topo, &local_gpus);

    // Storage tiers on the host.
    let sata_spec = StorageSpec::sata_ssd();
    let sata = add_storage(&mut topo, "host0.scratch", &sata_spec);
    topo.add_link(sata.port, rc, LinkSpec::of(LinkClass::Sata3));
    let nvme_spec = StorageSpec::intel_p4500_4tb();
    let local_nvme = add_storage(&mut topo, "host0.nvme", &nvme_spec);
    topo.add_link(local_nvme.port, rc, LinkSpec::of(LinkClass::PcieGen3x4));

    // The Falcon 4016 per Fig 6: four V100 PCIe GPUs in each drawer and an
    // NVMe drive in drawer 1; host ports H1/H2 cable the host into both
    // drawers.
    let mut chassis = Falcon4016::new("falcon0", Mode::Standard);
    let host_id = HostId(0);
    chassis
        .connect_host(HostPort::H1, host_id, DrawerId(0))
        .expect("cable drawer 0");
    chassis
        .connect_host(HostPort::H2, host_id, DrawerId(1))
        .expect("cable drawer 1");
    let pcie_v100 = GpuSpec::v100_pcie_16gb();
    for d in 0..2u8 {
        for s in 0..4u8 {
            chassis
                .insert_device(SlotAddr::new(d, s), SlotDevice::Gpu(pcie_v100.clone()))
                .expect("insert falcon GPU");
        }
    }
    chassis
        .insert_device(SlotAddr::new(1, 4), SlotDevice::Nvme(nvme_spec.clone()))
        .expect("insert falcon NVMe");

    // Attach what this configuration uses.
    let falcon_gpu_slots: Vec<SlotAddr> = match config {
        HostConfig::HybridGpus => (0..4).map(|s| SlotAddr::new(0, s)).collect(),
        HostConfig::FalconGpus => (0..2)
            .flat_map(|d| (0..4).map(move |s| SlotAddr::new(d, s)))
            .collect(),
        _ => Vec::new(),
    };
    for &slot in &falcon_gpu_slots {
        chassis.attach(slot, host_id).expect("attach falcon GPU");
    }
    if config == HostConfig::FalconNvme {
        chassis
            .attach(SlotAddr::new(1, 4), host_id)
            .expect("attach falcon NVMe");
    }

    let mut host_nodes = BTreeMap::new();
    host_nodes.insert(host_id, rc);
    chassis
        .materialize(&mut topo, &host_nodes)
        .expect("materialize chassis");

    // Assemble the cluster view.
    let mut gpus: Vec<GpuHandle> = Vec::new();
    let n_local = match config {
        HostConfig::HybridGpus => 4,
        HostConfig::FalconGpus => 0,
        _ => 8,
    };
    for g in local_gpus.iter().take(n_local) {
        gpus.push(GpuHandle {
            core: g.core,
            port: g.port,
            spec: sxm2.clone(),
            falcon_attached: false,
        });
    }
    for &slot in &falcon_gpu_slots {
        let nodes = chassis.slot_nodes(slot).expect("materialized slot");
        gpus.push(GpuHandle {
            core: nodes.endpoint,
            port: nodes.port,
            spec: pcie_v100.clone(),
            falcon_attached: true,
        });
    }

    let (storage_dev, storage_spec, storage_falcon): (NodeId, StorageSpec, bool) = match config {
        HostConfig::LocalNvme => (local_nvme.device, nvme_spec, false),
        HostConfig::FalconNvme => {
            let nodes = chassis
                .slot_nodes(SlotAddr::new(1, 4))
                .expect("falcon NVMe materialized");
            (nodes.endpoint, nvme_spec, true)
        }
        _ => (sata.device, sata_spec, false),
    };

    let cluster = Cluster {
        host_rc: rc,
        host_mem: mem,
        gpus,
        storage_dev,
        storage: storage_spec,
        storage_falcon_attached: storage_falcon,
        cpu: host.cpu,
        dram: host.dram,
        label: config.label().to_string(),
    };

    Composed {
        topology: topo,
        cluster,
        chassis,
    }
}

/// Extension (paper §VI future work: "incorporating other accelerators"):
/// compose a host whose Falcon pool carries `n_gpus` devices of an
/// arbitrary GPU model (e.g. the P100s the chassis also holds), split
/// across the two drawers like the paper's V100 layout. Storage is the
/// local NVMe.
pub fn build_custom_falcon_host(gpu: &GpuSpec, n_gpus: usize) -> Composed {
    assert!((1..=8).contains(&n_gpus), "one chassis: up to 8 pooled GPUs");
    // Fill drawer 0's four slots first, then drawer 1 (Fig 6 layout).
    let slots: Vec<SlotAddr> = (0..n_gpus)
        .map(|i| SlotAddr::new((i / 4) as u8, (i % 4) as u8))
        .collect();
    let label = format!("falcon-{}x{}", n_gpus, gpu.name);
    build_falcon_host(gpu, Mode::Standard, &slots, label)
}

/// Compose a host whose GPUs sit at *exactly* the given chassis slots —
/// the building block the cluster scheduler uses to price a candidate
/// placement. A job kept inside one drawer communicates over that drawer's
/// switch; a job split across drawers pays the cross-domain path through
/// the host root complex, which is what makes placement quality visible
/// in the simulated training time. Storage is the local NVMe.
pub fn build_falcon_slots(gpu: &GpuSpec, slots: &[SlotAddr]) -> Composed {
    assert!(
        !slots.is_empty() && slots.len() <= 16,
        "a placement uses 1..=16 chassis slots"
    );
    let label = format!(
        "falcon-slots[{}]",
        slots
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    // Advanced mode so any slot subset is attachable to the one host.
    build_falcon_host(gpu, Mode::Advanced, slots, label)
}

/// A host with local NVMe storage whose only GPUs are `gpu`s inserted at
/// `slots` of one Falcon chassis in `mode`, cabled into both drawers and
/// all attached to the host.
fn build_falcon_host(gpu: &GpuSpec, mode: Mode, slots: &[SlotAddr], label: String) -> Composed {
    let host = HostSpec::default();
    let mut topo = Topology::new();
    let rc = topo.add_node("host0.rc", NodeKind::RootComplex);
    let mem = topo.add_node("host0.dram", NodeKind::Memory);
    topo.add_link(rc, mem, LinkSpec::of(LinkClass::MemoryBus));
    let nvme_spec = StorageSpec::intel_p4500_4tb();
    let nvme = add_storage(&mut topo, "host0.nvme", &nvme_spec);
    topo.add_link(nvme.port, rc, LinkSpec::of(LinkClass::PcieGen3x4));

    let mut chassis = Falcon4016::new("falcon0", mode);
    let host_id = HostId(0);
    chassis
        .connect_host(HostPort::H1, host_id, DrawerId(0))
        .expect("cable drawer 0");
    chassis
        .connect_host(HostPort::H2, host_id, DrawerId(1))
        .expect("cable drawer 1");
    for &addr in slots {
        chassis
            .insert_device(addr, SlotDevice::Gpu(gpu.clone()))
            .expect("insert GPU");
        chassis.attach(addr, host_id).expect("attach GPU");
    }
    let mut host_nodes = BTreeMap::new();
    host_nodes.insert(host_id, rc);
    chassis
        .materialize(&mut topo, &host_nodes)
        .expect("materialize chassis");

    let gpus = slots
        .iter()
        .map(|&addr| {
            let nodes = chassis.slot_nodes(addr).expect("materialized");
            GpuHandle {
                core: nodes.endpoint,
                port: nodes.port,
                spec: gpu.clone(),
                falcon_attached: true,
            }
        })
        .collect();

    let cluster = Cluster {
        host_rc: rc,
        host_mem: mem,
        gpus,
        storage_dev: nvme.device,
        storage: nvme_spec,
        storage_falcon_attached: false,
        cpu: host.cpu,
        dram: host.dram,
        label,
    };

    Composed {
        topology: topo,
        cluster,
        chassis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_falcon_host_composes_any_count() {
        for n in [1usize, 3, 4, 8] {
            let c = build_custom_falcon_host(&GpuSpec::p100_pcie_16gb(), n);
            assert_eq!(c.cluster.n_gpus(), n);
            assert!(c.cluster.gpus.iter().all(|g| g.falcon_attached));
            let mut topo = c.topology.clone();
            for g in &c.cluster.gpus {
                assert!(topo.route(c.cluster.host_rc, g.core).is_some());
            }
        }
    }

    #[test]
    fn slot_placements_compose_and_split_costs_show() {
        let spec = GpuSpec::v100_pcie_16gb();
        let whole: Vec<SlotAddr> = (0..4).map(|s| SlotAddr::new(0, s)).collect();
        let split: Vec<SlotAddr> = vec![
            SlotAddr::new(0, 0),
            SlotAddr::new(0, 1),
            SlotAddr::new(1, 0),
            SlotAddr::new(1, 1),
        ];
        let mut w = build_falcon_slots(&spec, &whole);
        let mut s = build_falcon_slots(&spec, &split);
        assert_eq!(w.cluster.n_gpus(), 4);
        assert_eq!(s.cluster.n_gpus(), 4);
        // Same-drawer GPU pairs route over one switch; the split placement's
        // cross-drawer pair pays the root-complex crossing.
        let rw = w
            .topology
            .route(w.cluster.gpus[0].core, w.cluster.gpus[3].core)
            .unwrap();
        let rs = s
            .topology
            .route(s.cluster.gpus[0].core, s.cluster.gpus[3].core)
            .unwrap();
        assert!(rs.hop_count() > rw.hop_count());
    }

    #[test]
    fn local_gpus_config_shape() {
        let c = build_config(HostConfig::LocalGpus);
        assert_eq!(c.cluster.n_gpus(), 8);
        assert!(c.cluster.gpus.iter().all(|g| !g.falcon_attached));
        assert_eq!(c.cluster.storage.name, StorageSpec::sata_ssd().name);
        // No falcon PCIe links to monitor.
        assert!(c
            .cluster
            .monitored_pcie_links(&c.topology)
            .is_empty());
    }

    #[test]
    fn falcon_gpus_config_shape() {
        let mut c = build_config(HostConfig::FalconGpus);
        assert_eq!(c.cluster.n_gpus(), 8);
        assert!(c.cluster.gpus.iter().all(|g| g.falcon_attached));
        assert_eq!(c.cluster.monitored_pcie_links(&c.topology).len(), 16);
        // Host can reach every falcon GPU.
        for g in &c.cluster.gpus.clone() {
            assert!(c.topology.route(c.cluster.host_rc, g.core).is_some());
        }
    }

    #[test]
    fn hybrid_is_half_and_half() {
        let c = build_config(HostConfig::HybridGpus);
        let falcon = c.cluster.gpus.iter().filter(|g| g.falcon_attached).count();
        assert_eq!(falcon, 4);
        assert_eq!(c.cluster.n_gpus(), 8);
    }

    #[test]
    fn storage_configs_pick_the_right_device() {
        let l = build_config(HostConfig::LocalNvme);
        assert!(l.cluster.storage.name.contains("NVMe"));
        assert!(!l.cluster.storage_falcon_attached);
        let f = build_config(HostConfig::FalconNvme);
        assert!(f.cluster.storage.name.contains("NVMe"));
        assert!(f.cluster.storage_falcon_attached);
        let base = build_config(HostConfig::LocalGpus);
        assert!(base.cluster.storage.name.contains("SATA"));
    }

    #[test]
    fn falcon_nvme_pays_a_switch_crossing() {
        let mut f = build_config(HostConfig::FalconNvme);
        let mut l = build_config(HostConfig::LocalNvme);
        let rf = f
            .topology
            .route(f.cluster.storage_dev, f.cluster.host_mem)
            .unwrap();
        let rl = l
            .topology
            .route(l.cluster.storage_dev, l.cluster.host_mem)
            .unwrap();
        assert!(rf.hop_count() > rl.hop_count());
        assert!(rf.latency > rl.latency);
    }

    #[test]
    fn cross_drawer_gpu_path_is_the_slow_one() {
        // The falconGPUs config's cross-drawer ring edges pay the
        // cross-domain root-complex penalty.
        let mut c = build_config(HostConfig::FalconGpus);
        let same_drawer = c
            .topology
            .route(c.cluster.gpus[0].core, c.cluster.gpus[1].core)
            .unwrap();
        let cross_drawer = c
            .topology
            .route(c.cluster.gpus[0].core, c.cluster.gpus[4].core)
            .unwrap();
        assert!(cross_drawer.path_efficiency < same_drawer.path_efficiency * 0.7);
    }

    #[test]
    fn management_plane_still_works_after_composition() {
        let c = build_config(HostConfig::FalconGpus);
        let list = falcon::mgmt::resource_list(&c.chassis);
        // 8 GPUs + 1 NVMe inserted in the chassis.
        assert_eq!(list.len(), 9);
        let owned = list.iter().filter(|r| r.owner.is_some()).count();
        assert_eq!(owned, 8, "all falcon GPUs attached, NVMe left detached");
    }
}
