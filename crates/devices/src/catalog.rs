//! Device catalog and fabric-level calibration constants.
//!
//! Everything tunable that was fitted against the paper's own measurements
//! is collected in [`Calibration`] so the provenance of each number is
//! auditable in one place. The catalog also provides the NVLink
//! hybrid-cube-mesh wiring of the host's 8 SXM2 GPUs (paper Fig 7).

use crate::gpu::GpuNodes;
use crate::GB;
use fabric::{LinkClass, LinkId, LinkSpec, Topology};

/// The calibrated constants of the simulation, with their targets.
///
/// | Constant | Value | Fitted against |
/// |---|---|---|
/// | NVLink efficiency | 0.72 | Table IV L-L 72.37 GB/s bidirectional |
/// | GPU DMA engine | 13.3 GB/s | Table IV F-F 24.47 GB/s (× switch p2p eff) |
/// | PCIe switch p2p efficiency | 0.92 | Table IV F-F |
/// | Root-complex p2p efficiency | 0.80 | Table IV F-L 19.64 GB/s |
/// | Root-complex forwarding | 400 ns | Table IV F-L 2.66 µs |
/// | P2P software overhead | 1.15 µs | Table IV L-L 1.85 µs |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub nvlink_efficiency: f64,
    pub gpu_dma_bandwidth: f64,
    pub switch_p2p_efficiency: f64,
    pub root_complex_p2p_efficiency: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            nvlink_efficiency: LinkClass::NvLink2 { lanes: 1 }.default_efficiency(),
            gpu_dma_bandwidth: 13.3 * GB,
            switch_p2p_efficiency: fabric::NodeKind::PcieSwitch.p2p_efficiency(),
            root_complex_p2p_efficiency: fabric::NodeKind::RootComplex.p2p_efficiency(),
        }
    }
}

/// The NVLink hybrid cube mesh of a DGX-1V-style 8-GPU baseboard
/// (paper Fig 7): `(a, b, bricks)` with each GPU using exactly its six
/// NVLink2 bricks.
pub const HYBRID_CUBE_MESH: [(usize, usize, u8); 16] = [
    (0, 1, 1),
    (0, 2, 1),
    (0, 3, 2),
    (0, 4, 2),
    (1, 2, 2),
    (1, 3, 1),
    (1, 5, 2),
    (2, 3, 1),
    (2, 6, 2),
    (3, 7, 2),
    (4, 5, 1),
    (4, 6, 1),
    (4, 7, 2),
    (5, 6, 2),
    (5, 7, 1),
    (6, 7, 1),
];

/// Wire eight GPU cores with the hybrid cube mesh. Returns the created
/// NVLink link ids.
pub fn wire_cube_mesh(topo: &mut Topology, gpus: &[GpuNodes]) -> Vec<LinkId> {
    assert_eq!(gpus.len(), 8, "the cube mesh is an 8-GPU fabric");
    HYBRID_CUBE_MESH
        .iter()
        .map(|&(a, b, lanes)| {
            topo.add_link(
                gpus[a].core,
                gpus[b].core,
                LinkSpec::of(LinkClass::NvLink2 { lanes }),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{add_gpu, GpuSpec};

    /// Does `ring` cross only direct NVLink edges of the cube mesh?
    fn ring_stays_on_nvlink(ring: &[usize]) -> bool {
        ring.iter()
            .zip(ring.iter().cycle().skip(1))
            .take(ring.len())
            .all(|(&a, &b)| {
                HYBRID_CUBE_MESH
                    .iter()
                    .any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b)))
            })
    }

    #[test]
    fn every_gpu_uses_six_bricks() {
        let mut bricks = [0u8; 8];
        for &(a, b, lanes) in &HYBRID_CUBE_MESH {
            bricks[a] += lanes;
            bricks[b] += lanes;
        }
        assert_eq!(bricks, [6; 8]);
    }

    #[test]
    fn canonical_ring_is_all_nvlink() {
        // NCCL's ring order for the cube mesh: every consecutive pair
        // (cyclically) is directly NVLink-connected.
        assert!(ring_stays_on_nvlink(&[0, 1, 2, 3, 7, 6, 5, 4]));
        // A naive 0..7 ring closes on 7-0, which the mesh lacks: verify
        // the checker notices.
        assert!(!ring_stays_on_nvlink(&[0, 1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn cube_mesh_wires_sixteen_links() {
        let mut t = Topology::new();
        let spec = GpuSpec::v100_sxm2_16gb();
        let gpus: Vec<_> = (0..8).map(|i| add_gpu(&mut t, &format!("g{i}"), &spec)).collect();
        let links = wire_cube_mesh(&mut t, &gpus);
        assert_eq!(links.len(), 16);
        // Neighboring cores route directly (1 hop).
        let r = t.route(gpus[0].core, gpus[3].core).unwrap();
        assert_eq!(r.hop_count(), 1);
    }

    #[test]
    fn two_brick_pairs_are_faster() {
        let mut t = Topology::new();
        let spec = GpuSpec::v100_sxm2_16gb();
        let gpus: Vec<_> = (0..8).map(|i| add_gpu(&mut t, &format!("g{i}"), &spec)).collect();
        wire_cube_mesh(&mut t, &gpus);
        // 0-3 has 2 bricks, 0-1 has 1.
        let r03 = t.route(gpus[0].core, gpus[3].core).unwrap();
        let r01 = t.route(gpus[0].core, gpus[1].core).unwrap();
        let c03 = t.capacity(r03.hops[0]);
        let c01 = t.capacity(r01.hops[0]);
        assert!((c03 / c01 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_reflects_fabric_constants() {
        let c = Calibration::default();
        assert!((c.nvlink_efficiency - 0.72).abs() < 1e-12);
        assert!((c.switch_p2p_efficiency - 0.92).abs() < 1e-12);
        assert!((c.root_complex_p2p_efficiency - 0.80).abs() < 1e-12);
    }
}
