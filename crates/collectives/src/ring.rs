//! Ring and star collectives as concurrent fabric flows.

use desim::{Dur, Sim};
use fabric::flow::FlowCallback;
use fabric::{FlowWorld, NodeId, Topology};
use std::cell::RefCell;
use std::rc::Rc;

/// Launch one flow per `(src, dst, bytes)` edge and invoke `on_done` when
/// the last one completes. Zero edges completes immediately.
fn run_edges<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    edges: Vec<(NodeId, NodeId, f64)>,
    on_done: FlowCallback<S>,
) {
    if edges.is_empty() {
        sim.schedule_in(Dur::ZERO, move |s: &mut S, sim| on_done(s, sim));
        return;
    }
    let pending = Rc::new(RefCell::new((edges.len(), Some(on_done))));
    for (src, dst, bytes) in edges {
        let pending = Rc::clone(&pending);
        world.fabric().start_flow(
            sim,
            src,
            dst,
            bytes,
            Box::new(move |s: &mut S, sim| {
                let cb = {
                    let mut p = pending.borrow_mut();
                    p.0 -= 1;
                    if p.0 == 0 {
                        p.1.take()
                    } else {
                        None
                    }
                };
                if let Some(cb) = cb {
                    cb(s, sim);
                }
            }),
        );
    }
}

/// Consecutive (cyclic) edges of a ring.
fn ring_edges(ring: &[NodeId], per_edge_bytes: f64) -> Vec<(NodeId, NodeId, f64)> {
    let n = ring.len();
    (0..n)
        .map(|i| (ring[i], ring[(i + 1) % n], per_edge_bytes))
        .collect()
}

/// NCCL ring **allreduce** of `bytes` over `ring` (already ordered).
/// Each directed ring edge carries `2(n-1)/n · bytes`.
pub fn ring_allreduce<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    ring: &[NodeId],
    bytes: f64,
    on_done: FlowCallback<S>,
) {
    let n = ring.len();
    if n <= 1 {
        sim.schedule_in(Dur::ZERO, move |s: &mut S, sim| on_done(s, sim));
        return;
    }
    let per_edge = 2.0 * (n as f64 - 1.0) / n as f64 * bytes;
    run_edges(world, sim, ring_edges(ring, per_edge), on_done);
}

/// Ring **reduce-scatter**: each edge carries `(n-1)/n · bytes`.
pub fn reduce_scatter<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    ring: &[NodeId],
    bytes: f64,
    on_done: FlowCallback<S>,
) {
    let n = ring.len();
    if n <= 1 {
        sim.schedule_in(Dur::ZERO, move |s: &mut S, sim| on_done(s, sim));
        return;
    }
    let per_edge = (n as f64 - 1.0) / n as f64 * bytes;
    run_edges(world, sim, ring_edges(ring, per_edge), on_done);
}

/// Ring **all-gather**: same per-edge volume as reduce-scatter.
pub fn all_gather<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    ring: &[NodeId],
    bytes: f64,
    on_done: FlowCallback<S>,
) {
    reduce_scatter(world, sim, ring, bytes, on_done);
}

/// PyTorch-DP style **star broadcast**: the master sends the full buffer
/// to every peer simultaneously (no pipelining — this is what makes DP
/// slow for large models, Fig 16).
pub fn star_broadcast<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    master: NodeId,
    peers: &[NodeId],
    bytes: f64,
    on_done: FlowCallback<S>,
) {
    let edges = peers
        .iter()
        .filter(|&&p| p != master)
        .map(|&p| (master, p, bytes))
        .collect();
    run_edges(world, sim, edges, on_done);
}

/// PyTorch-DP style **star reduce**: every peer sends its gradients to the
/// master simultaneously.
pub fn star_reduce<S: FlowWorld>(
    world: &mut S,
    sim: &mut Sim<S>,
    master: NodeId,
    peers: &[NodeId],
    bytes: f64,
    on_done: FlowCallback<S>,
) {
    let edges = peers
        .iter()
        .filter(|&&p| p != master)
        .map(|&p| (p, master, bytes))
        .collect();
    run_edges(world, sim, edges, on_done);
}

/// Per-flow achievable rate between two endpoints: bottleneck capacity ×
/// path efficiency (the quantity NCCL's ring construction maximizes).
pub fn pair_capacity(topo: &mut Topology, a: NodeId, b: NodeId) -> f64 {
    match topo.route(a, b) {
        Some(r) if !r.hops.is_empty() => {
            let bottleneck = r
                .hops
                .iter()
                .map(|dl| topo.capacity(*dl))
                .fold(f64::INFINITY, f64::min);
            bottleneck * r.path_efficiency
        }
        Some(_) => f64::INFINITY, // same node
        None => 0.0,
    }
}

/// Plan a ring order over `members` that **maximizes the bottleneck edge
/// capacity** — what NCCL's ring construction optimizes. For up to 12
/// members this is solved exactly: descend through the distinct pairwise
/// capacities and take the first threshold admitting a Hamiltonian cycle
/// (backtracking; deterministic neighbor order). Larger sets fall back to
/// the greedy nearest-neighbor heuristic.
///
/// On the host's hybrid cube mesh this picks an all-direct-NVLink ring
/// (18 GB/s bottleneck — no two ring edges share a link); in mixed
/// local/Falcon sets it yields exactly two slow host-crossing edges.
pub fn plan_ring(topo: &mut Topology, members: &[NodeId]) -> Vec<NodeId> {
    assert!(!members.is_empty());
    let n = members.len();
    if n <= 2 {
        return members.to_vec();
    }

    // Pairwise per-flow capacities.
    let mut caps = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                caps[i][j] = pair_capacity(topo, members[i], members[j]);
            }
        }
    }

    if n <= 12 {
        // Candidate bottlenecks, descending.
        let mut thresholds: Vec<f64> = caps
            .iter()
            .flatten()
            .copied()
            .filter(|&c| c > 0.0)
            .collect();
        thresholds.sort_by(|a, b| b.partial_cmp(a).expect("finite capacity"));
        thresholds.dedup();
        for theta in thresholds {
            if let Some(order) = hamiltonian_cycle(n, |i, j| caps[i][j] >= theta) {
                return order.into_iter().map(|i| members[i]).collect();
            }
        }
    }

    // Greedy fallback (also used for very large member sets).
    let mut remaining: Vec<usize> = (1..n).collect();
    let mut ring = vec![0usize];
    while !remaining.is_empty() {
        let last = *ring.last().unwrap();
        let (best_pos, _) = remaining
            .iter()
            .enumerate()
            .fold((usize::MAX, f64::NEG_INFINITY), |acc, (pos, &m)| {
                if caps[last][m] > acc.1 {
                    (pos, caps[last][m])
                } else {
                    acc
                }
            });
        ring.push(remaining.remove(best_pos));
    }
    ring.into_iter().map(|i| members[i]).collect()
}

/// Find a Hamiltonian cycle of `0..n` under `adj` by backtracking
/// (deterministic: neighbors tried in index order). Returns the vertex
/// order starting at 0, or `None`.
fn hamiltonian_cycle(n: usize, adj: impl Fn(usize, usize) -> bool) -> Option<Vec<usize>> {
    fn dfs(
        n: usize,
        adj: &impl Fn(usize, usize) -> bool,
        path: &mut Vec<usize>,
        visited: &mut u32,
    ) -> bool {
        if path.len() == n {
            return adj(*path.last().unwrap(), path[0]);
        }
        let last = *path.last().unwrap();
        for next in 0..n {
            if *visited & (1 << next) == 0 && adj(last, next) {
                *visited |= 1 << next;
                path.push(next);
                if dfs(n, adj, path, visited) {
                    return true;
                }
                path.pop();
                *visited &= !(1 << next);
            }
        }
        false
    }
    let mut path = vec![0usize];
    let mut visited = 1u32;
    dfs(n, &adj, &mut path, &mut visited).then_some(path)
}

/// The per-flow capacity of the slowest edge of a ring — the ring's
/// steady-state bandwidth.
pub fn ring_bottleneck(topo: &mut Topology, ring: &[NodeId]) -> f64 {
    let n = ring.len();
    (0..n)
        .map(|i| pair_capacity(topo, ring[i], ring[(i + 1) % n]))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use devices::catalog::wire_cube_mesh;
    use devices::gpu::{add_gpu, GpuSpec};
    use fabric::{FabricState, LinkClass, LinkSpec, NodeKind, GB};

    struct World {
        fabric: FabricState<World>,
        done_at: Vec<SimTime>,
    }

    impl FlowWorld for World {
        fn fabric(&mut self) -> &mut FabricState<World> {
            &mut self.fabric
        }
    }

    fn done() -> FlowCallback<World> {
        Box::new(|w: &mut World, sim| w.done_at.push(sim.now()))
    }

    /// Eight local SXM2 GPUs in the hybrid cube mesh.
    fn local_mesh() -> (World, Vec<NodeId>) {
        let mut topo = Topology::new();
        let spec = GpuSpec::v100_sxm2_16gb();
        let gpus: Vec<_> = (0..8)
            .map(|i| add_gpu(&mut topo, &format!("g{i}"), &spec))
            .collect();
        wire_cube_mesh(&mut topo, &gpus);
        let cores = gpus.iter().map(|g| g.core).collect();
        (
            World {
                fabric: FabricState::new(topo),
                done_at: Vec::new(),
            },
            cores,
        )
    }

    /// Four GPUs on a single PCIe switch (one Falcon drawer).
    fn drawer() -> (World, Vec<NodeId>) {
        let mut topo = Topology::new();
        let sw = topo.add_node("sw", NodeKind::PcieSwitch);
        let spec = GpuSpec::v100_pcie_16gb();
        let cores: Vec<_> = (0..4)
            .map(|i| {
                let g = add_gpu(&mut topo, &format!("f{i}"), &spec);
                topo.add_link(g.port, sw, LinkSpec::of(LinkClass::PcieGen4x16));
                g.core
            })
            .collect();
        (
            World {
                fabric: FabricState::new(topo),
                done_at: Vec::new(),
            },
            cores,
        )
    }

    #[test]
    fn planned_local_ring_stays_on_nvlink() {
        let (mut w, cores) = local_mesh();
        let ring = plan_ring(&mut w.fabric.topo, &cores);
        assert_eq!(ring.len(), 8);
        // Every consecutive pair must be a direct NVLink hop.
        for i in 0..8 {
            let r = w
                .fabric
                .topo
                .route(ring[i], ring[(i + 1) % 8])
                .unwrap();
            assert!(
                r.hop_count() <= 2,
                "edge {i} takes {} hops",
                r.hop_count()
            );
        }
        // Ring bandwidth is bounded by a 1-brick NVLink edge: 18 GB/s.
        let bw = ring_bottleneck(&mut w.fabric.topo, &ring);
        assert!((bw / GB - 18.0).abs() < 1.0, "ring bottleneck {} GB/s", bw / GB);
    }

    #[test]
    fn allreduce_time_matches_ring_model_on_drawer() {
        let (mut w, cores) = drawer();
        let mut sim: Sim<World> = Sim::new();
        let ring = plan_ring(&mut w.fabric.topo, &cores);
        let bytes = 512e6; // 512 MB gradients
        ring_allreduce(&mut w, &mut sim, &ring, bytes, done());
        sim.run(&mut w);
        assert_eq!(w.done_at.len(), 1);
        // Within a drawer, edges are independent (distinct slot links):
        // time = 2(n-1)/n * M / (13.3 GB/s DMA * 0.92 switch eff).
        let expected = 2.0 * 3.0 / 4.0 * bytes / (13.3e9 * 0.92);
        let got = w.done_at[0].as_secs_f64();
        assert!(
            (got - expected).abs() / expected < 0.02,
            "allreduce {got}s vs {expected}s"
        );
    }

    #[test]
    fn allreduce_on_nvlink_is_much_faster() {
        let bytes = 512e6;
        let (mut w, cores) = local_mesh();
        let mut sim: Sim<World> = Sim::new();
        let ring = plan_ring(&mut w.fabric.topo, &cores);
        ring_allreduce(&mut w, &mut sim, &ring, bytes, done());
        sim.run(&mut w);
        let local = w.done_at[0].as_secs_f64();

        let (mut w2, cores2) = drawer();
        let mut sim2: Sim<World> = Sim::new();
        let ring2 = plan_ring(&mut w2.fabric.topo, &cores2);
        ring_allreduce(&mut w2, &mut sim2, &ring2, bytes, done());
        sim2.run(&mut w2);
        let falcon = w2.done_at[0].as_secs_f64();

        // NVLink ring (18 GB/s) ≈ 1.5x the drawer ring (12.2 GB/s), and the
        // 8-member ring moves more per edge than the 4-member one.
        assert!(falcon / local > 1.1, "local {local} falcon {falcon}");
    }

    #[test]
    fn single_member_collectives_complete_immediately() {
        let (mut w, cores) = drawer();
        let mut sim: Sim<World> = Sim::new();
        ring_allreduce(&mut w, &mut sim, &cores[..1], 1e9, done());
        reduce_scatter(&mut w, &mut sim, &cores[..1], 1e9, done());
        sim.run(&mut w);
        assert_eq!(w.done_at.len(), 2);
        assert_eq!(w.done_at[0], SimTime::ZERO);
    }

    #[test]
    fn reduce_scatter_is_half_of_allreduce() {
        let bytes = 512e6;
        let run = |use_rs: bool| {
            let (mut w, cores) = drawer();
            let mut sim: Sim<World> = Sim::new();
            let ring = plan_ring(&mut w.fabric.topo, &cores);
            if use_rs {
                reduce_scatter(&mut w, &mut sim, &ring, bytes, done());
            } else {
                ring_allreduce(&mut w, &mut sim, &ring, bytes, done());
            }
            sim.run(&mut w);
            w.done_at[0].as_secs_f64()
        };
        let ar = run(false);
        let rs = run(true);
        assert!((ar / rs - 2.0).abs() < 0.02, "ar {ar} rs {rs}");
    }

    #[test]
    fn star_broadcast_contends_at_the_master() {
        let (mut w, cores) = drawer();
        let mut sim: Sim<World> = Sim::new();
        let bytes = 1e9;
        star_broadcast(&mut w, &mut sim, cores[0], &cores[1..], bytes, done());
        sim.run(&mut w);
        // Three 1 GB copies share the master's 13.3 GB/s DMA engine:
        // ~3 GB / 13.3 GB/s ≈ 0.2256 s — not 1 GB / 12.2.
        let got = w.done_at[0].as_secs_f64();
        let expected = 3.0 * bytes / 13.3e9;
        assert!((got - expected).abs() / expected < 0.05, "{got} vs {expected}");
    }

    #[test]
    fn star_reduce_matches_broadcast_by_symmetry() {
        let bytes = 1e9;
        let run = |bcast: bool| {
            let (mut w, cores) = drawer();
            let mut sim: Sim<World> = Sim::new();
            if bcast {
                star_broadcast(&mut w, &mut sim, cores[0], &cores[1..], bytes, done());
            } else {
                star_reduce(&mut w, &mut sim, cores[0], &cores[1..], bytes, done());
            }
            sim.run(&mut w);
            w.done_at[0].as_secs_f64()
        };
        let b = run(true);
        let r = run(false);
        assert!((b - r).abs() / b < 1e-6);
    }

    #[test]
    fn pair_capacity_orders_links() {
        let (mut w, cores) = local_mesh();
        // 0-3 is a 2-brick edge, 0-1 a 1-brick edge.
        let fast = pair_capacity(&mut w.fabric.topo, cores[0], cores[3]);
        let slow = pair_capacity(&mut w.fabric.topo, cores[0], cores[1]);
        assert!((fast / slow - 2.0).abs() < 1e-9);
    }
}
