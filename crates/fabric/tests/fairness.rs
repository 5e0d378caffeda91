//! Property-based tests of the fabric's max-min fair allocation.
//!
//! Random star/dumbbell topologies with random concurrent transfers must
//! always satisfy the fairness invariants (feasibility, progress,
//! bottleneck), conserve bytes in the port counters, and be deterministic.
//!
//! Invariants covered (testkit, 64 cases each):
//! * fairness invariants hold after every simulation event;
//! * identical scenarios produce bit-identical completion schedules;
//! * port counters conserve bytes per directed link;
//! * a watched link's counters do not depend on which other links are
//!   watched;
//! * makespan respects the physical capacity lower bound.

use desim::{Dur, Sim, SimTime};
use fabric::flow::FlowCallback;
use fabric::{
    DirLink, FabricState, FlowWorld, LinkClass, LinkId, LinkSpec, NodeId, NodeKind, Topology, GB,
};
use testkit::{f64_in, prop_assert, prop_assert_eq, property, tuple2, tuple4, u64_in, usize_in, vec_of, Gen};

struct World {
    fabric: FabricState<World>,
    completions: Vec<(usize, SimTime)>,
}

impl FlowWorld for World {
    fn fabric(&mut self) -> &mut FabricState<World> {
        &mut self.fabric
    }
}

fn done(i: usize) -> FlowCallback<World> {
    Box::new(move |w: &mut World, sim| w.completions.push((i, sim.now())))
}

/// A star: `n` GPU endpoints around one switch, per-spoke capacity from
/// `caps` (GB/s).
fn star(caps: &[f64]) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let sw = t.add_node("sw", NodeKind::PcieSwitch);
    let nodes = caps
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let g = t.add_node(format!("g{i}"), NodeKind::Gpu);
            t.add_link(
                g,
                sw,
                LinkSpec::of(LinkClass::PcieGen4x16)
                    .with_capacity(c * GB)
                    .with_latency(Dur::from_nanos(100)),
            );
            g
        })
        .collect();
    (t, nodes)
}

#[derive(Debug, Clone)]
struct Scenario {
    caps: Vec<f64>,
    /// (src index, dst index, gigabytes, start offset in ms)
    transfers: Vec<(usize, usize, f64, u64)>,
}

fn scenario_gen() -> Gen<Scenario> {
    usize_in(3..8)
        .flat_map(|n| {
            let n = *n;
            tuple2(
                vec_of(f64_in(1.0, 40.0), n..n + 1),
                vec_of(
                    tuple4(usize_in(0..n), usize_in(0..n), f64_in(0.1, 8.0), u64_in(0..50)),
                    1..12,
                ),
            )
        })
        .map(|v| Scenario {
            caps: v.0.clone(),
            transfers: v.1.clone(),
        })
}

/// Schedule every transfer of `sc` between distinct endpoints at its start
/// offset; returns how many were scheduled.
fn schedule_transfers(sc: &Scenario, nodes: &[NodeId], sim: &mut Sim<World>) -> usize {
    let mut launched = 0usize;
    for (i, &(s, d, gb, off)) in sc.transfers.iter().enumerate() {
        if s == d {
            continue; // self-transfers are trivially immediate; skip
        }
        let (src, dst) = (nodes[s], nodes[d]);
        let bytes = gb * GB;
        launched += 1;
        sim.schedule_at(SimTime::from_millis(off), move |w: &mut World, sim| {
            w.fabric.start_flow(sim, src, dst, bytes, done(i));
        });
    }
    launched
}

fn run_scenario(sc: &Scenario, check_each_event: bool) -> Vec<(usize, SimTime)> {
    let (topo, nodes) = star(&sc.caps);
    let mut world = World {
        fabric: FabricState::new(topo),
        completions: Vec::new(),
    };
    let mut sim: Sim<World> = Sim::new();
    let launched = schedule_transfers(sc, &nodes, &mut sim);
    while sim.step(&mut world) {
        if check_each_event {
            world.fabric.check_invariants();
        }
    }
    assert_eq!(world.completions.len(), launched, "every flow completes");
    world.completions.clone()
}

property! {
    /// Fairness invariants hold after every simulation event.
    #[cases(64)]
    fn invariants_hold_throughout(sc in scenario_gen()) {
        run_scenario(&sc, true);
    }

    /// The same scenario always yields bit-identical completion schedules.
    #[cases(64)]
    fn simulation_is_deterministic(sc in scenario_gen()) {
        let a = run_scenario(&sc, false);
        let b = run_scenario(&sc, false);
        prop_assert_eq!(a, b);
    }

    /// Port counters conserve bytes: each hop of each completed flow carries
    /// exactly the flow's size.
    #[cases(64)]
    fn port_counters_conserve_bytes(sc in scenario_gen()) {
        let (topo, nodes) = star(&sc.caps);
        let mut world = World { fabric: FabricState::new(topo), completions: Vec::new() };
        let mut sim: Sim<World> = Sim::new();
        // Expected per-directed-link byte totals.
        let mut expected: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        for (i, &(s, d, gb, _)) in sc.transfers.iter().enumerate() {
            if s == d { continue; }
            let bytes = gb * GB;
            let route = world.fabric.topo.route(nodes[s], nodes[d]).unwrap();
            for &dl in &route.hops {
                world.fabric.ports.watch(dl);
                *expected.entry(dl.dense_index()).or_insert(0.0) += bytes;
            }
            let (src, dst) = (nodes[s], nodes[d]);
            world.fabric.start_flow(&mut sim, src, dst, bytes, done(i));
        }
        sim.run(&mut world);
        for (&idx, &exp) in &expected {
            let dl = if idx % 2 == 0 {
                fabric::DirLink::forward(fabric::LinkId((idx / 2) as u32))
            } else {
                fabric::DirLink::reverse(fabric::LinkId((idx / 2) as u32))
            };
            let got = world.fabric.ports.total_bytes(dl);
            prop_assert!((got - exp).abs() < exp * 1e-6 + 1.0,
                "link {} carried {} expected {}", idx, got, exp);
        }
    }

    /// Counting is per watched link: the links picked by `mask` (bit `i`
    /// watches the directed link of dense index `i`) read bit-identical
    /// `bytes_within` and `aggregate_trace` whether or not every other link
    /// is watched too.
    #[cases(64)]
    fn watched_links_read_the_same_whatever_else_is_watched(sc in scenario_gen(),
                                                             mask in u64_in(0..1 << 14)) {
        let read = |watch_all: bool| {
            let (topo, nodes) = star(&sc.caps);
            let all: Vec<DirLink> = (0..topo.link_count() as u32)
                .flat_map(|l| [DirLink::forward(LinkId(l)), DirLink::reverse(LinkId(l))])
                .collect();
            let subset: Vec<DirLink> =
                all.iter().copied().filter(|dl| mask >> dl.dense_index() & 1 == 1).collect();
            let mut world = World { fabric: FabricState::new(topo), completions: Vec::new() };
            for &dl in if watch_all { &all } else { &subset } {
                world.fabric.ports.watch(dl);
            }
            let mut sim: Sim<World> = Sim::new();
            schedule_transfers(&sc, &nodes, &mut sim);
            sim.run(&mut world);
            let (start, end) = (SimTime::ZERO, sim.now());
            let ports = &world.fabric.ports;
            let bytes: Vec<u64> =
                subset.iter().map(|&dl| ports.bytes_within(dl, start, end).to_bits()).collect();
            let bucket = Dur::from_nanos((end.since(start).as_nanos() / 7).max(1));
            let trace: Vec<u64> =
                ports.aggregate_trace(&subset, start, end, bucket).iter().map(|v| v.to_bits()).collect();
            (bytes, trace)
        };
        prop_assert_eq!(read(false), read(true));
    }

    /// Makespan is bounded below by the work on the most-loaded directed
    /// link (no link can move bytes faster than its capacity) and the flows
    /// always finish.
    #[cases(64)]
    fn makespan_lower_bound(sc in scenario_gen()) {
        let completions = run_scenario(&sc, false);
        if completions.is_empty() { return Ok(()); }
        let makespan = completions.iter().map(|c| c.1).max().unwrap();
        // Lower bound: total bytes into the busiest spoke / its capacity.
        let mut ingress = vec![0.0f64; sc.caps.len()];
        let mut egress = vec![0.0f64; sc.caps.len()];
        for &(s, d, gb, _) in &sc.transfers {
            if s == d { continue; }
            egress[s] += gb * GB;
            ingress[d] += gb * GB;
        }
        let bound = sc
            .caps
            .iter()
            .enumerate()
            .map(|(i, &c)| (ingress[i].max(egress[i])) / (c * GB))
            .fold(0.0, f64::max);
        prop_assert!(
            makespan.as_secs_f64() + 1e-6 >= bound,
            "makespan {} < physical bound {}",
            makespan.as_secs_f64(),
            bound
        );
    }
}
