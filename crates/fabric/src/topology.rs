//! The interconnect graph and deterministic routing.
//!
//! Nodes are PCIe endpoints and forwarding elements (CPUs/root complexes,
//! PCIe switches, GPUs, NVMe drives, …); undirected links carry a
//! [`LinkSpec`] per direction. Routing is Dijkstra over link + node
//! forwarding latency with deterministic tie-breaking, cached per
//! `(src, dst)` pair.

use crate::link::LinkSpec;
use desim::Dur;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an undirected link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Direction of travel over an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// From endpoint `a` to endpoint `b`.
    Forward,
    /// From endpoint `b` to endpoint `a`.
    Reverse,
}

/// A directed traversal of a link — the unit of bandwidth contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink {
    pub link: LinkId,
    pub dir: Dir,
}

impl DirLink {
    pub fn forward(link: LinkId) -> DirLink {
        DirLink {
            link,
            dir: Dir::Forward,
        }
    }
    pub fn reverse(link: LinkId) -> DirLink {
        DirLink {
            link,
            dir: Dir::Reverse,
        }
    }
    /// A compact dense index (2·link + dir) for per-direction bookkeeping.
    pub fn dense_index(self) -> usize {
        (self.link.0 as usize) * 2
            + match self.dir {
                Dir::Forward => 0,
                Dir::Reverse => 1,
            }
    }
}

/// What a node *is*, which determines its forwarding latency and how
/// higher layers (devices, falcon) interpret it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A CPU socket / PCIe root complex.
    RootComplex,
    /// A PCIe switch ASIC (one per Falcon drawer).
    PcieSwitch,
    /// A GPU endpoint.
    Gpu,
    /// An NVMe (or SATA) storage endpoint.
    Storage,
    /// A DRAM pool attached to a root complex.
    Memory,
    /// A device's own bus interface (DMA engine). Device models are built
    /// as a `core —internal link→ port` pair so that the copy-engine rate
    /// bounds every PCIe flow in or out of the device.
    DevicePort,
}

/// P2P efficiency of a root complex forwarding between two CDFP cables —
/// i.e. peer DMA crossing *two* PCIe switch domains through the Xeon IIO.
/// Calibrated so that the cross-drawer allreduce ring edges of the
/// `falconGPUs` configuration make BERT-large training ≈ 2× slower than
/// local GPUs while keeping the single-domain Table IV paths intact.
pub const CROSS_DOMAIN_RC_EFFICIENCY: f64 = 0.59;

impl NodeKind {
    /// Forwarding latency added when a path passes *through* this node
    /// (not when the node is the source or destination endpoint).
    ///
    /// Values are calibrated jointly with
    /// [`crate::microbench::P2P_SOFTWARE_OVERHEAD`] so the simulated
    /// latencies reproduce the paper's Table IV (L-L 1.85 µs, F-L 2.66 µs,
    /// F-F 2.08 µs).
    pub fn forwarding_latency(self) -> Dur {
        match self {
            // P2P through a root complex traverses the Xeon IIO.
            NodeKind::RootComplex => Dur::from_nanos(400),
            NodeKind::PcieSwitch => Dur::from_nanos(350),
            NodeKind::DevicePort => Dur::ZERO,
            // Endpoints normally terminate paths; if traversed, charge a
            // conservative store-and-forward cost.
            NodeKind::Gpu | NodeKind::Storage | NodeKind::Memory => Dur::from_nanos(500),
        }
    }

    /// Peer-to-peer DMA efficiency multiplier applied to flows whose route
    /// passes *through* a node of this kind. P2P through a Xeon root
    /// complex or a PCIe switch achieves a fraction of the link's DMA
    /// bandwidth — these factors are what make the paper's Table IV
    /// bandwidths (F-L 19.64 GB/s, F-F 24.47 GB/s bidirectional) come out
    /// of the flow simulation.
    pub fn p2p_efficiency(self) -> f64 {
        match self {
            NodeKind::RootComplex => 0.80,
            NodeKind::PcieSwitch => 0.92,
            NodeKind::DevicePort => 1.0,
            _ => 1.0,
        }
    }
}

/// A node in the fabric.
#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub kind: NodeKind,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    pub spec: LinkSpec,
}

impl Link {
    /// The node this directed traversal arrives at.
    pub fn dst(&self, dir: Dir) -> NodeId {
        match dir {
            Dir::Forward => self.b,
            Dir::Reverse => self.a,
        }
    }
    /// The node this directed traversal departs from.
    pub fn src(&self, dir: Dir) -> NodeId {
        match dir {
            Dir::Forward => self.a,
            Dir::Reverse => self.b,
        }
    }
}

/// A resolved route: the directed links crossed, the one-way message
/// latency, and the bottleneck capacity after P2P efficiency discounts.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    pub src: NodeId,
    pub dst: NodeId,
    pub hops: Vec<DirLink>,
    /// One-way latency: link latencies + forwarding latency of transit nodes.
    pub latency: Dur,
    /// Multiplier (≤ 1) from the p2p efficiency of transit nodes; applied
    /// to the flow's achievable rate on this route.
    pub path_efficiency: f64,
}

impl Route {
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

/// The interconnect graph.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[node] = (link, dir leaving node)
    adjacency: Vec<Vec<DirLink>>,
    route_cache: HashMap<(NodeId, NodeId), Arc<Route>>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            name: name.into(),
            kind,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Connect two distinct nodes. Multiple parallel links are allowed
    /// (they are distinct contention domains).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(a != b, "self-links are not meaningful");
        assert!((a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len());
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link { a, b, spec });
        self.adjacency[a.0 as usize].push(DirLink::forward(id));
        self.adjacency[b.0 as usize].push(DirLink::reverse(id));
        self.route_cache.clear();
        id
    }

    /// Remove a link (dynamic re-composition). Link ids are stable; the
    /// removed id becomes invalid.
    pub fn remove_link(&mut self, id: LinkId) -> Link {
        let link = self.links[id.0 as usize].clone();
        self.adjacency[link.a.0 as usize].retain(|dl| dl.link != id);
        self.adjacency[link.b.0 as usize].retain(|dl| dl.link != id);
        // Tombstone: keep the slot but disconnect it (capacity stays for
        // inspection; routing can no longer reach it).
        self.route_cache.clear();
        link
    }

    /// Scale a link's effective capacity in place (both directions) — the
    /// hook for fault injection's PCIe link degradation. The flow
    /// allocator reads capacities live on every recompute, so in-flight
    /// transfers are re-shared at the next reschedule. Routing is
    /// latency-keyed and unaffected, so the route cache stays valid.
    pub fn scale_link_capacity(&mut self, id: LinkId, factor: f64) {
        assert!(factor > 0.0, "a degraded link keeps some bandwidth");
        self.links[id.0 as usize].spec.capacity *= factor;
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Find a node by exact name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// All links incident to `node` of a given class predicate.
    pub fn links_of(&self, node: NodeId) -> &[DirLink] {
        &self.adjacency[node.0 as usize]
    }

    /// Effective per-direction capacity of a directed link.
    pub fn capacity(&self, dl: DirLink) -> f64 {
        self.links[dl.link.0 as usize].spec.capacity
    }

    /// Route `src → dst` by Dijkstra on latency (deterministic: ties broken
    /// by hop count, then by link id). Results are cached until the
    /// topology changes. Returns `None` when disconnected.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Arc<Route>> {
        if let Some(r) = self.route_cache.get(&(src, dst)) {
            return Some(Arc::clone(r));
        }
        let route = Arc::new(self.compute_route(src, dst)?);
        self.route_cache
            .insert((src, dst), Arc::clone(&route));
        Some(route)
    }

    fn compute_route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if src == dst {
            return Some(Route {
                src,
                dst,
                hops: Vec::new(),
                latency: Dur::ZERO,
                path_efficiency: 1.0,
            });
        }

        let n = self.nodes.len();
        // (latency_ns, hops) lexicographic cost.
        let mut best: Vec<(u64, u32)> = vec![(u64::MAX, u32::MAX); n];
        let mut prev: Vec<Option<DirLink>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best[src.0 as usize] = (0, 0);
        heap.push(Reverse(((0u64, 0u32), src)));

        while let Some(Reverse((cost, node))) = heap.pop() {
            if cost > best[node.0 as usize] {
                continue;
            }
            if node == dst {
                break;
            }
            // Transit penalty: charged for leaving a non-endpoint node we
            // passed through (not the source itself).
            let transit_ns = if node == src {
                0
            } else {
                self.nodes[node.0 as usize].kind.forwarding_latency().as_nanos()
            };
            for &dl in &self.adjacency[node.0 as usize] {
                let link = &self.links[dl.link.0 as usize];
                let next = link.dst(dl.dir);
                let cand = (
                    cost.0 + transit_ns + link.spec.latency.as_nanos(),
                    cost.1 + 1,
                );
                if cand < best[next.0 as usize] {
                    best[next.0 as usize] = cand;
                    prev[next.0 as usize] = Some(dl);
                    heap.push(Reverse((cand, next)));
                }
            }
        }

        if best[dst.0 as usize].0 == u64::MAX {
            return None;
        }

        // Reconstruct.
        let mut hops = Vec::new();
        let mut cursor = dst;
        while cursor != src {
            let dl = prev[cursor.0 as usize].expect("broken predecessor chain");
            hops.push(dl);
            cursor = self.links[dl.link.0 as usize].src(dl.dir);
        }
        hops.reverse();

        // Path efficiency: product over transit nodes. A root complex
        // forwarding between two CDFP host-port cables (device P2P across
        // two PCIe switch domains, e.g. Falcon drawer → host → Falcon
        // drawer) pays the harsher cross-domain penalty: the Xeon IIO must
        // bounce TLPs across separate root ports, which measures far below
        // single-domain P2P on real hardware.
        // Host-initiated DMA (a route terminating at a DRAM pool or the
        // root complex itself) runs at the root port's native rate; only
        // true device peer-to-peer pays the IIO forwarding penalties.
        let host_dma = matches!(
            self.nodes[src.0 as usize].kind,
            NodeKind::Memory | NodeKind::RootComplex
        ) || matches!(
            self.nodes[dst.0 as usize].kind,
            NodeKind::Memory | NodeKind::RootComplex
        );
        let mut path_efficiency = 1.0;
        let mut node = src;
        for (i, &dl) in hops.iter().enumerate() {
            if i > 0 {
                let kind = self.nodes[node.0 as usize].kind;
                let incoming = self.links[hops[i - 1].link.0 as usize].spec.class;
                let outgoing = self.links[dl.link.0 as usize].spec.class;
                let eff = if kind == NodeKind::RootComplex && host_dma {
                    1.0
                } else if kind == NodeKind::RootComplex
                    && incoming == crate::link::LinkClass::Cdfp400
                    && outgoing == crate::link::LinkClass::Cdfp400
                {
                    CROSS_DOMAIN_RC_EFFICIENCY
                } else {
                    kind.p2p_efficiency()
                };
                path_efficiency *= eff;
            }
            node = self.links[dl.link.0 as usize].dst(dl.dir);
        }

        Some(Route {
            src,
            dst,
            hops,
            latency: Dur::from_nanos(best[dst.0 as usize].0),
            path_efficiency,
        })
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "topology: {} nodes, {} links", self.nodes.len(), self.links.len())?;
        for (id, l) in self.links.iter().enumerate() {
            writeln!(
                f,
                "  L{id}: {} <-> {} [{} {:.1} GB/s/dir {}]",
                self.nodes[l.a.0 as usize].name,
                self.nodes[l.b.0 as usize].name,
                l.spec.class,
                l.spec.capacity / crate::GB,
                l.spec.latency,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    fn spec() -> LinkSpec {
        LinkSpec::of(LinkClass::PcieGen4x16)
    }

    /// host — switch — {gpu0, gpu1}
    fn small_tree() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let host = t.add_node("host", NodeKind::RootComplex);
        let sw = t.add_node("sw", NodeKind::PcieSwitch);
        let g0 = t.add_node("gpu0", NodeKind::Gpu);
        let g1 = t.add_node("gpu1", NodeKind::Gpu);
        t.add_link(host, sw, spec());
        t.add_link(sw, g0, spec());
        t.add_link(sw, g1, spec());
        (t, host, sw, g0, g1)
    }

    #[test]
    fn routes_through_switch() {
        let (mut t, host, _sw, g0, g1) = small_tree();
        let r = t.route(g0, g1).unwrap();
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.src, g0);
        assert_eq!(r.dst, g1);
        let r2 = t.route(host, g0).unwrap();
        assert_eq!(r2.hop_count(), 2);
    }

    #[test]
    fn route_latency_includes_transit_forwarding() {
        let (mut t, _h, _sw, g0, g1) = small_tree();
        let r = t.route(g0, g1).unwrap();
        let link_lat = spec().latency * 2u64;
        let fwd = NodeKind::PcieSwitch.forwarding_latency();
        assert_eq!(r.latency, link_lat + fwd);
    }

    #[test]
    fn path_efficiency_penalizes_root_complex_transit() {
        let mut t = Topology::new();
        let g0 = t.add_node("g0", NodeKind::Gpu);
        let host = t.add_node("host", NodeKind::RootComplex);
        let g1 = t.add_node("g1", NodeKind::Gpu);
        t.add_link(g0, host, spec());
        t.add_link(host, g1, spec());
        let r = t.route(g0, g1).unwrap();
        assert!((r.path_efficiency - NodeKind::RootComplex.p2p_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn trivial_route_is_empty() {
        let (mut t, host, ..) = small_tree();
        let r = t.route(host, host).unwrap();
        assert!(r.hops.is_empty());
        assert_eq!(r.latency, Dur::ZERO);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Gpu);
        let b = t.add_node("b", NodeKind::Gpu);
        assert!(t.route(a, b).is_none());
    }

    #[test]
    fn prefers_lower_latency_path() {
        // a - sw - b  (fast, 2 hops) versus a - c - b via slow NVLink? Use
        // two parallel paths with different latency and check choice.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Gpu);
        let b = t.add_node("b", NodeKind::Gpu);
        let sw = t.add_node("sw", NodeKind::PcieSwitch);
        // Direct link, slow class.
        let slow = LinkSpec::of(LinkClass::Sata3); // 80us latency
        t.add_link(a, b, slow);
        t.add_link(a, sw, spec());
        t.add_link(sw, b, spec());
        let r = t.route(a, b).unwrap();
        assert_eq!(r.hop_count(), 2, "two fast hops beat one slow hop");
    }

    #[test]
    fn direct_nvlink_beats_switch_path() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Gpu);
        let b = t.add_node("b", NodeKind::Gpu);
        let sw = t.add_node("sw", NodeKind::PcieSwitch);
        t.add_link(a, sw, spec());
        t.add_link(sw, b, spec());
        let nv = t.add_link(a, b, LinkSpec::of(LinkClass::NvLink2 { lanes: 2 }));
        let r = t.route(a, b).unwrap();
        assert_eq!(r.hops, vec![DirLink::forward(nv)]);
    }

    #[test]
    fn remove_link_invalidates_path() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Gpu);
        let b = t.add_node("b", NodeKind::Gpu);
        let l = t.add_link(a, b, spec());
        assert!(t.route(a, b).is_some());
        t.remove_link(l);
        assert!(t.route(a, b).is_none(), "cache must be invalidated");
    }

    #[test]
    fn route_cache_returns_same_route() {
        let (mut t, _h, _sw, g0, g1) = small_tree();
        let r1 = t.route(g0, g1).unwrap();
        let r2 = t.route(g0, g1).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
    }

    #[test]
    fn find_node_by_name() {
        let (t, _h, _sw, g0, _g1) = small_tree();
        assert_eq!(t.find_node("gpu0"), Some(g0));
        assert_eq!(t.find_node("nope"), None);
    }

    #[test]
    fn dense_index_is_unique_per_direction() {
        let f = DirLink::forward(LinkId(3));
        let r = DirLink::reverse(LinkId(3));
        assert_ne!(f.dense_index(), r.dense_index());
        assert_eq!(f.dense_index(), 6);
        assert_eq!(r.dense_index(), 7);
    }
}
