//! Differential property tests of incremental flow repricing.
//!
//! The fabric re-prices only the link-sharing component touched by a flow
//! start/finish/abort (DESIGN §14). These tests drive random multi-island
//! scenarios — two disjoint switch clusters inside one topology, so strict
//! sub-component repricing actually happens — through both engines and
//! require the schedules to agree.
//!
//! Invariants covered (testkit, 64 cases each):
//! * incremental and global recompute complete the same flows at the same
//!   times (within a 1 ppm float-reassociation tolerance);
//! * fairness invariants hold after every event under incremental mode
//!   (and the engine's own debug differential assert runs throughout);
//! * incremental replay is bit-identical run-to-run.

use desim::{Dur, Sim, SimTime};
use fabric::flow::FlowId;
use fabric::{FabricState, FlowWorld, LinkClass, LinkSpec, NodeId, NodeKind, Topology, GB};
use testkit::{f64_in, prop_assert, prop_assert_eq, property, tuple2, tuple4, u64_in, usize_in, vec_of, Gen};

const ISLANDS: usize = 2;
const SPOKES: usize = 4;

struct World {
    fabric: FabricState<World>,
    ids: Vec<Option<FlowId>>,
    completions: Vec<(usize, SimTime)>,
}

impl FlowWorld for World {
    fn fabric(&mut self) -> &mut FabricState<World> {
        &mut self.fabric
    }
}

/// Two disjoint stars in one topology: flows in different islands share no
/// links, so incremental repricing runs its strict-subset path.
fn islands(caps: &[f64]) -> (Topology, Vec<Vec<NodeId>>) {
    let mut t = Topology::new();
    let mut nodes = Vec::new();
    for isl in 0..ISLANDS {
        let sw = t.add_node(format!("sw{isl}"), NodeKind::PcieSwitch);
        let spokes = (0..SPOKES)
            .map(|s| {
                let g = t.add_node(format!("g{isl}_{s}"), NodeKind::Gpu);
                t.add_link(
                    g,
                    sw,
                    LinkSpec::of(LinkClass::PcieGen4x16)
                        .with_capacity(caps[isl * SPOKES + s] * GB)
                        .with_latency(Dur::from_nanos(100)),
                );
                g
            })
            .collect();
        nodes.push(spokes);
    }
    (t, nodes)
}

#[derive(Debug, Clone)]
struct Case {
    caps: Vec<f64>,
    /// (island, src spoke, dst spoke, gigabytes, start ms, abort: Option<ms>)
    xfers: Vec<(usize, usize, usize, f64, u64, Option<u64>)>,
}

fn case_gen() -> Gen<Case> {
    let n_caps = ISLANDS * SPOKES;
    tuple2(
        vec_of(f64_in(1.0, 32.0), n_caps..n_caps + 1),
        vec_of(
            tuple4(
                tuple2(usize_in(0..ISLANDS), tuple2(usize_in(0..SPOKES), usize_in(0..SPOKES))),
                f64_in(0.05, 4.0),
                u64_in(0..40),
                tuple2(usize_in(0..4), u64_in(0..90)),
            ),
            1..14,
        ),
    )
    .map(|v| Case {
        caps: v.0.clone(),
        xfers: v
            .1
            .iter()
            .map(|&((isl, (s, d)), gb, off, (sel, ab))| {
                // ~25% of flows get a scheduled abort.
                (isl, s, d, gb, off, (sel == 0).then_some(ab))
            })
            .collect(),
    })
}

fn run(case: &Case, incremental: bool, check: bool) -> Vec<(usize, SimTime)> {
    let (topo, nodes) = islands(&case.caps);
    let mut world = World {
        fabric: FabricState::new(topo),
        ids: vec![None; case.xfers.len()],
        completions: Vec::new(),
    };
    world.fabric.incremental = incremental;
    let mut sim: Sim<World> = Sim::new();
    for (i, &(isl, s, d, gb, off, abort)) in case.xfers.iter().enumerate() {
        if s == d {
            continue; // self-transfers are trivially immediate; skip
        }
        let (src, dst) = (nodes[isl][s], nodes[isl][d]);
        let bytes = gb * GB;
        sim.schedule_at(SimTime::from_millis(off), move |w: &mut World, sim| {
            let id = w.fabric.start_flow(
                sim,
                src,
                dst,
                bytes,
                Box::new(move |w: &mut World, sim| w.completions.push((i, sim.now()))),
            );
            w.ids[i] = Some(id);
        });
        if let Some(ab) = abort {
            sim.schedule_at(SimTime::from_millis(ab), move |w: &mut World, sim| {
                if let Some(id) = w.ids[i] {
                    w.fabric.abort_flow(sim, id);
                }
            });
        }
    }
    while sim.step(&mut world) {
        if check {
            world.fabric.check_invariants();
        }
    }
    let mut done = world.completions.clone();
    done.sort_by_key(|&(i, _)| i);
    done
}

property! {
    /// Incremental repricing completes the same flows as a full global
    /// recompute at the same times, within 1 ppm + 1 ns: the component-
    /// restricted water level accumulates in a different float order, so
    /// last-ULP equality is not guaranteed, but anything beyond
    /// reassociation noise is a real allocation divergence.
    #[cases(64)]
    fn incremental_matches_global_recompute(case in case_gen()) {
        let inc = run(&case, true, true);
        let full = run(&case, false, false);
        prop_assert_eq!(inc.len(), full.len(), "completion counts diverged");
        for (a, b) in inc.iter().zip(full.iter()) {
            prop_assert_eq!(a.0, b.0, "a different flow set completed");
            let (ta, tb) = (a.1.as_nanos() as i128, b.1.as_nanos() as i128);
            let diff = (ta - tb).abs();
            prop_assert!(
                diff <= 1 + ta.max(tb) / 1_000_000,
                "flow {} completed at {} ns (incremental) vs {} ns (global)",
                a.0, ta, tb
            );
        }
    }

    /// Incremental replay is bit-identical run-to-run.
    #[cases(64)]
    fn incremental_replay_is_bit_identical(case in case_gen()) {
        prop_assert_eq!(run(&case, true, false), run(&case, true, false));
    }
}
