//! Fluid flow simulation with max-min fair bandwidth sharing.
//!
//! A flow (named by a [`FlowId`]) is a byte transfer along a routed path.
//! While active, the set of flows sharing each directed link divides its
//! capacity by **progressive filling** (water-filling): all unfrozen flows
//! rise at the same rate until a link saturates or a flow hits its route
//! ceiling (bottleneck link × peer-to-peer path efficiency); those flows
//! freeze and the rest keep rising. This yields the classic max-min fair
//! allocation.
//!
//! Every flow start/finish/abort *settles* accumulated progress (also
//! attributing bytes on watched links to [`PortStats`]), recomputes the
//! allocation of the flows sharing links with the change, and reschedules
//! their completion events — cancellable handles in [`desim`] make this
//! cheap.
//!
//! Flows begin with a latency phase equal to the route's one-way latency
//! (link propagation + switch/root-complex forwarding), so short transfers
//! are latency-bound and long transfers bandwidth-bound, matching the
//! paper's Table IV microbenchmark behavior.

use crate::ports::PortStats;
use crate::topology::{DirLink, NodeId, Route, Topology};
use desim::queue::EventHandle;
use desim::{Dur, Sim, SimTime};
use std::fmt;
use std::sync::Arc;

/// Handle to a flow; safe against slot reuse via a generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: u32,
    generation: u32,
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}.{}", self.slot, self.generation)
    }
}

/// Completion callback type.
pub type FlowCallback<S> = Box<dyn FnOnce(&mut S, &mut Sim<S>)>;

/// Worlds that embed a [`FabricState`] implement this so that flow events
/// can find it. (Events only know the world type `S`.)
pub trait FlowWorld: Sized + 'static {
    fn fabric(&mut self) -> &mut FabricState<Self>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting out the route latency.
    Latency,
    /// Fluid transfer in progress.
    Active,
}

struct FlowState<S> {
    route: Arc<Route>,
    remaining: f64,
    /// Current allocated rate (bytes/s); 0 while in the latency phase.
    rate: f64,
    phase: Phase,
    event: EventHandle,
    on_complete: Option<FlowCallback<S>>,
    generation: u32,
}

/// The fabric: topology + active flows + port telemetry.
pub struct FabricState<S> {
    pub topo: Topology,
    pub ports: PortStats,
    /// When set (the default), a flow start/finish/abort re-prices only the
    /// connected component of flows sharing links with the change, found
    /// through `FabricState::link_flows`; a flow alone on its links skips
    /// the walk and the fill. Clearing it re-prices every active flow on
    /// every change: the oracle the differential tests in
    /// `tests/incremental_reprice.rs` compare the component path against.
    pub incremental: bool,
    slots: Vec<Option<FlowState<S>>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    last_settle: SimTime,
    active_count: usize,
    /// Reverse index: dense directed-link index → slots of *active* flows
    /// crossing it (in no particular order). Maintained on
    /// activate/complete/abort so that incremental repricing can walk the
    /// link-sharing graph without scanning every flow. Grown to
    /// `2 · topo.link_count()` on demand.
    link_flows: Vec<Vec<u32>>,
    scratch: Scratch,
}

/// Reusable buffers for [`FabricState::reprice_component`] — the
/// allocator runs on every flow start/finish/abort (the inner loop of
/// every probe and replay), so its working vectors are hoisted here
/// instead of reallocated. The per-flow vectors are cleared per call and
/// rebuilt before they are read. The dense per-link arrays (indexed by
/// [`DirLink::dense_index`], grown to `2 · topo.link_count()`) keep
/// their length: `live` is all zero and `link_seen` all false between
/// calls, because each user resets the entries it touched, and
/// `residual` is written on a link's first touch before it is read.
#[derive(Default)]
struct Scratch {
    active: Vec<u32>,
    ceiling: Vec<f64>,
    frozen: Vec<bool>,
    rate: Vec<f64>,
    /// Residual capacity of each touched link.
    residual: Vec<f64>,
    /// Unfrozen flows crossing each link; 0 on untouched links.
    live: Vec<u32>,
    /// The links the filled flows cross, in first-touch order.
    links: Vec<usize>,
    /// Component-walk state for incremental repricing: visited flows by
    /// slot, seen links, and the seen links in discovery order (the
    /// walk's work list).
    visited: Vec<bool>,
    link_seen: Vec<bool>,
    walk: Vec<usize>,
}

impl Scratch {
    fn clear(&mut self) {
        self.active.clear();
        self.ceiling.clear();
        self.frozen.clear();
        self.rate.clear();
        self.links.clear();
        self.visited.clear();
        self.walk.clear();
    }
}

/// Bytes/s below which a water-filling increment is considered zero.
const RATE_EPS: f64 = 1e-3;

impl<S: FlowWorld> FabricState<S> {
    pub fn new(topo: Topology) -> Self {
        FabricState {
            topo,
            ports: PortStats::new(),
            incremental: true,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            last_settle: SimTime::ZERO,
            active_count: 0,
            link_flows: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Start a transfer of `bytes` from `src` to `dst`. `on_complete` fires
    /// (with the world and scheduler) when the last byte arrives.
    ///
    /// # Panics
    /// Panics if no route exists between the endpoints.
    pub fn start_flow(
        &mut self,
        sim: &mut Sim<S>,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        on_complete: FlowCallback<S>,
    ) -> FlowId {
        assert!(bytes >= 0.0 && bytes.is_finite());
        let route = self
            .topo
            .route(src, dst)
            .unwrap_or_else(|| panic!("no route {:?} -> {:?}", src, dst));
        let latency = route.latency;

        let slot = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.slots.len()).expect("flow slot overflow");
                self.slots.push(None);
                self.generations.push(0);
                idx
            }
        };
        let generation = self.generations[slot as usize];
        let id = FlowId { slot, generation };

        self.slots[slot as usize] = Some(FlowState {
            route,
            remaining: bytes,
            rate: 0.0,
            phase: Phase::Latency,
            event: EventHandle::DEAD,
            on_complete: Some(on_complete),
            generation,
        });

        // After the latency phase the flow joins the fluid allocation. A
        // zero-byte (or zero-hop) flow completes right at that point.
        let handle = sim.schedule_in(latency, move |world: &mut S, sim| {
            Self::on_activate(world, sim, id);
        });
        self.slots[slot as usize].as_mut().unwrap().event = handle;
        id
    }

    /// Abort an in-flight flow. Returns `true` if it was still in flight;
    /// its completion callback is dropped unfired.
    pub fn abort_flow(&mut self, sim: &mut Sim<S>, id: FlowId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.settle(sim.now());
        let state = self.slots[id.slot as usize].take().expect("checked live");
        sim.cancel(state.event);
        if state.phase == Phase::Active {
            self.active_count -= 1;
            self.index_remove(id.slot, &state.route);
        }
        self.retire_slot(id.slot);
        self.reprice_component(sim, None, &state.route.hops);
        true
    }

    /// Register an active flow's links in the reverse index.
    fn index_add(&mut self, slot: u32, route: &Route) {
        grow(&mut self.link_flows, 2 * self.topo.link_count());
        for dl in &route.hops {
            self.link_flows[dl.dense_index()].push(slot);
        }
    }

    /// Remove an active flow's links from the reverse index.
    fn index_remove(&mut self, slot: u32, route: &Route) {
        for dl in &route.hops {
            let users = &mut self.link_flows[dl.dense_index()];
            if let Some(pos) = users.iter().position(|&s| s == slot) {
                users.swap_remove(pos);
            }
        }
    }

    fn is_live(&self, id: FlowId) -> bool {
        self.slots
            .get(id.slot as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.generation == id.generation)
    }

    fn retire_slot(&mut self, slot: u32) {
        self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
        self.free.push(slot);
    }

    fn on_activate(world: &mut S, sim: &mut Sim<S>, id: FlowId) {
        let fab = world.fabric();
        if !fab.is_live(id) {
            return;
        }
        fab.settle(sim.now());
        let route = {
            let state = fab.slots[id.slot as usize].as_mut().expect("live");
            debug_assert_eq!(state.phase, Phase::Latency);
            state.phase = Phase::Active;
            fab.active_count += 1;
            state.route.clone()
        };
        fab.index_add(id.slot, &route);
        fab.reprice_component(sim, Some(id.slot), &route.hops);
    }

    fn on_complete(world: &mut S, sim: &mut Sim<S>, id: FlowId) {
        let cb = {
            let fab = world.fabric();
            if !fab.is_live(id) {
                return;
            }
            fab.settle(sim.now());
            let state = fab.slots[id.slot as usize].take().expect("live");
            debug_assert!(
                state.remaining <= 1.0 || state.route.hops.is_empty(),
                "completion fired with {} bytes left",
                state.remaining
            );
            fab.active_count -= 1;
            fab.index_remove(id.slot, &state.route);
            fab.retire_slot(id.slot);
            fab.reprice_component(sim, None, &state.route.hops);
            state.on_complete
        };
        if let Some(cb) = cb {
            cb(world, sim);
        }
    }

    /// Diagnostic: verify the max-min fairness invariants of the current
    /// allocation. Intended for tests and debugging; panics on violation.
    ///
    /// Invariants checked:
    /// 1. *Feasibility* — on every directed link, the sum of allocated flow
    ///    rates does not exceed its capacity (within a small tolerance).
    /// 2. *Progress* — every active flow has a strictly positive rate.
    /// 3. *Bottleneck* — every active flow either runs at its route ceiling
    ///    or crosses at least one saturated link (the defining property of
    ///    a max-min fair allocation).
    pub fn check_invariants(&self) {
        const TOL: f64 = 1.0; // bytes/s
        let mut load = vec![0.0f64; 2 * self.topo.link_count()];
        let active: Vec<&FlowState<S>> = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.phase == Phase::Active)
            .collect();
        for st in &active {
            assert!(
                st.rate > 0.0,
                "active flow has non-positive rate {}",
                st.rate
            );
            if st.rate.is_finite() {
                for &dl in &st.route.hops {
                    load[dl.dense_index()] += st.rate;
                }
            }
        }
        // Feasibility per directed link.
        for (idx, &l) in load.iter().enumerate() {
            let link = crate::topology::LinkId((idx / 2) as u32);
            let cap = self.topo.link(link).spec.capacity;
            assert!(
                l <= cap + TOL,
                "link {idx} oversubscribed: load {l} > capacity {cap}"
            );
        }
        // Bottleneck property.
        for st in &active {
            if st.route.hops.is_empty() {
                continue;
            }
            let bottleneck_cap = st
                .route
                .hops
                .iter()
                .map(|dl| self.topo.capacity(*dl))
                .fold(f64::INFINITY, f64::min);
            let ceiling = bottleneck_cap * st.route.path_efficiency;
            let at_ceiling = st.rate >= ceiling - TOL;
            let crosses_saturated = st
                .route
                .hops
                .iter()
                .any(|&dl| load[dl.dense_index()] >= self.topo.capacity(dl) - TOL);
            assert!(
                at_ceiling || crosses_saturated,
                "flow at {} B/s is neither at its ceiling ({ceiling}) nor bottlenecked",
                st.rate
            );
        }
    }

    /// Advance all active flows to `now` at their current rates, attributing
    /// moved bytes to the counters of the watched links among their hops
    /// (the rest are skipped).
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_settle).as_secs_f64();
        if dt > 0.0 {
            let from = self.last_settle;
            for slot in self.slots.iter_mut().flatten() {
                if slot.phase != Phase::Active || slot.rate == 0.0 {
                    continue;
                }
                let moved = (slot.rate * dt).min(slot.remaining);
                slot.remaining -= moved;
                for &dl in &slot.route.hops {
                    self.ports.record(dl, from, now, moved);
                }
            }
        }
        self.last_settle = now;
    }

    /// Max-min fair allocation by progressive filling, then reschedule every
    /// active flow's completion event: the `incremental = false` oracle.
    fn recompute_and_reschedule(&mut self, sim: &mut Sim<S>) {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.clear();

        // Collect active flow indices deterministically (slot order).
        sc.active.extend(self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .filter(|s| s.phase == Phase::Active)
                .map(|_| i as u32)
        }));
        debug_assert_eq!(sc.active.len(), self.active_count);

        self.fill_rates(&mut sc);
        self.apply_rates(sim, &sc);

        // Hand the buffers back for the next recompute.
        self.scratch = sc;
    }

    /// Re-price only the flows affected by a change touching `seed_hops`
    /// (and `seed_slot`, for a newly activated flow): the connected
    /// component of the link-sharing graph reached from those links. Flows
    /// in other components keep their rates and completion events — their
    /// max-min allocation is independent of the change. A flow alone on
    /// its links is its own component and takes [`alone_rate`] without a
    /// walk or a fill; a departed flow whose links no active flow crosses
    /// re-prices nothing. With `incremental` off, every change runs the
    /// global recompute instead.
    ///
    /// [`alone_rate`]: Self::alone_rate
    fn reprice_component(&mut self, sim: &mut Sim<S>, seed_slot: Option<u32>, seed_hops: &[DirLink]) {
        // With no active flows there is nothing to allocate or reschedule;
        // latency-phase flows carry their own scheduled activation event.
        if self.active_count == 0 {
            return;
        }
        if !self.incremental {
            self.recompute_and_reschedule(sim);
            return;
        }
        // Is the changed flow alone? Its links then carry only the flow
        // itself (activation) or nothing (completion or abort).
        let own = usize::from(seed_slot.is_some());
        if seed_hops
            .iter()
            .all(|dl| self.link_flows.get(dl.dense_index()).map_or(0, Vec::len) == own)
        {
            if let Some(slot) = seed_slot {
                let flow = self.slots[slot as usize].as_ref().expect("activated flow is live");
                let rate = self.alone_rate(&flow.route);
                self.apply_rate(sim, slot, rate);
                #[cfg(debug_assertions)]
                self.debug_assert_matches_full_recompute();
            }
            return;
        }
        let mut sc = std::mem::take(&mut self.scratch);
        sc.clear();
        sc.visited.resize(self.slots.len(), false);
        grow(&mut sc.link_seen, 2 * self.topo.link_count());

        // Breadth-first walk of the link-sharing graph: links seed flows,
        // flows seed their other links. `sc.active` accumulates the
        // component's member slots; `sc.walk` lists every link seen, so
        // the seen flags can be reset afterwards.
        if let Some(slot) = seed_slot {
            sc.visited[slot as usize] = true;
            sc.active.push(slot);
        }
        for dl in seed_hops {
            see(&mut sc.link_seen, &mut sc.walk, dl.dense_index());
        }
        let mut next = 0;
        while let Some(&idx) = sc.walk.get(next) {
            next += 1;
            let Some(users) = self.link_flows.get(idx) else {
                continue;
            };
            for &slot in users {
                if !sc.visited[slot as usize] {
                    sc.visited[slot as usize] = true;
                    sc.active.push(slot);
                    let st = self.slots[slot as usize].as_ref().expect("indexed flow is live");
                    for dl in &st.route.hops {
                        see(&mut sc.link_seen, &mut sc.walk, dl.dense_index());
                    }
                }
            }
        }
        for &idx in &sc.walk {
            sc.link_seen[idx] = false;
        }

        // Water-fill the component alone. Links crossed by the component
        // are, by construction, used by no flow outside it, so starting
        // them at full capacity is exact — not an approximation. Sorted,
        // a component of every active flow is the global recompute's slot
        // order, so it gets the global recompute's rates and events.
        sc.active.sort_unstable();
        self.fill_rates(&mut sc);
        self.apply_rates(sim, &sc);
        self.scratch = sc;

        #[cfg(debug_assertions)]
        self.debug_assert_matches_full_recompute();
    }

    /// Differential guard (debug builds): the rates applied by incremental
    /// repricing must match what a full global recompute would assign.
    /// Compared with a small relative tolerance — component-restricted
    /// filling accumulates the shared water level in a different order, so
    /// last-ULP equality is not guaranteed.
    #[cfg(debug_assertions)]
    fn debug_assert_matches_full_recompute(&self) {
        let mut sc = Scratch::default();
        sc.active.extend(self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .filter(|s| s.phase == Phase::Active)
                .map(|_| i as u32)
        }));
        self.fill_rates(&mut sc);
        for (p, &i) in sc.active.iter().enumerate() {
            let applied = self.slots[i as usize].as_ref().unwrap().rate;
            let full = sc.rate[p];
            let ok = if full.is_infinite() {
                applied.is_infinite()
            } else {
                (applied - full).abs() <= 1e-9 * full.max(1.0)
            };
            assert!(
                ok,
                "incremental reprice diverged from full recompute for slot {i}: \
                 applied {applied} vs full {full}"
            );
        }
    }

    /// Progressive-filling core: compute the max-min fair rate for each
    /// flow in `sc.active` (which must list a union of complete
    /// link-sharing components in ascending slot order) into `sc.rate`.
    ///
    /// Per-link state lives in dense arrays over the links the flows
    /// touch; a link's unfrozen-user count drops as its flows freeze. Every
    /// float operation, and the order of each sum, matches the filling
    /// described in DESIGN §9, so the rates are bit-identical to a filler
    /// that recounts each link's unfrozen users every round.
    fn fill_rates(&self, sc: &mut Scratch) {
        let Scratch {
            active,
            ceiling,
            frozen,
            rate,
            residual,
            live,
            links,
            ..
        } = sc;
        let dense = 2 * self.topo.link_count();
        grow(residual, dense);
        grow(live, dense);

        // Residual capacity and user count per directed link, and the
        // per-flow ceiling: bottleneck capacity × path efficiency. Zero-hop
        // flows (src == dst) are unconstrained by links; give them an
        // effectively infinite rate so they complete immediately.
        for &i in active.iter() {
            let st = self.slots[i as usize].as_ref().unwrap();
            let mut bottleneck = f64::INFINITY;
            for &dl in &st.route.hops {
                let cap = self.topo.capacity(dl);
                bottleneck = bottleneck.min(cap);
                let idx = dl.dense_index();
                if live[idx] == 0 {
                    residual[idx] = cap;
                    links.push(idx);
                }
                live[idx] += 1;
            }
            ceiling.push(if st.route.hops.is_empty() {
                f64::INFINITY
            } else {
                bottleneck * st.route.path_efficiency
            });
        }

        // Progressive filling: all unfrozen flows share one rising level.
        let n = active.len();
        frozen.resize(n, false);
        rate.resize(n, 0.0f64);
        let mut level = 0.0f64;
        let mut unfrozen = n;
        while unfrozen > 0 {
            // Smallest headroom across links and flow ceilings.
            let mut inc = f64::INFINITY;
            for &idx in links.iter() {
                if live[idx] > 0 {
                    inc = inc.min(residual[idx] / f64::from(live[idx]));
                }
            }
            for p in 0..n {
                if !frozen[p] && ceiling[p].is_finite() {
                    inc = inc.min(ceiling[p] - level);
                }
            }
            if !inc.is_finite() {
                // Only zero-hop flows remain; they get "infinite" rate.
                for p in 0..n {
                    if !frozen[p] {
                        rate[p] = f64::INFINITY;
                        frozen[p] = true;
                    }
                }
                break;
            }
            let inc = inc.max(0.0);
            level += inc;
            // Consume capacity.
            for &idx in links.iter() {
                residual[idx] = (residual[idx] - inc * f64::from(live[idx])).max(0.0);
            }
            // Freeze flows at saturated links or at their ceiling.
            let mut changed = false;
            for p in 0..n {
                if frozen[p] {
                    continue;
                }
                let hops = &self.slots[active[p] as usize].as_ref().unwrap().route.hops;
                let at_ceiling = level + RATE_EPS >= ceiling[p];
                let at_saturated_link =
                    hops.iter().any(|dl| residual[dl.dense_index()] <= RATE_EPS);
                if at_ceiling || at_saturated_link {
                    rate[p] = level;
                    frozen[p] = true;
                    unfrozen -= 1;
                    changed = true;
                    for dl in hops {
                        live[dl.dense_index()] -= 1;
                    }
                }
            }
            if !changed && inc <= RATE_EPS {
                // Numerical stall: freeze everything at the current level.
                for p in 0..n {
                    if !frozen[p] {
                        rate[p] = level;
                        frozen[p] = true;
                        unfrozen -= 1;
                    }
                }
            }
        }
        // The early exits above leave counts behind; zero every touched link.
        for &idx in links.iter() {
            live[idx] = 0;
        }
    }

    /// The rate progressive filling gives a flow on `route` that shares no
    /// link, in closed form. The filler's one round on it takes the lower
    /// of the bottleneck capacity `b` (each link's `cap / 1`) and the
    /// headroom to its ceiling, `b · path_efficiency − 0`, clamps it at 0,
    /// raises the level from 0 by it and freezes the flow there: at its
    /// ceiling, or with its bottleneck link's residual at 0. These are the
    /// same float operations, so the rate has the same bits. A zero-hop
    /// flow has `b = +∞`.
    fn alone_rate(&self, route: &Route) -> f64 {
        let b = route
            .hops
            .iter()
            .map(|&dl| self.topo.capacity(dl))
            .fold(f64::INFINITY, f64::min);
        0.0 + b.min(b * route.path_efficiency).max(0.0)
    }

    /// Apply `sc.rate` to the flows in `sc.active` and reschedule their
    /// completion events.
    fn apply_rates(&mut self, sim: &mut Sim<S>, sc: &Scratch) {
        for (&slot, &rate) in sc.active.iter().zip(&sc.rate) {
            self.apply_rate(sim, slot, rate);
        }
    }

    /// Set the rate of the active flow in `slot` and reschedule its
    /// completion event.
    fn apply_rate(&mut self, sim: &mut Sim<S>, slot: u32, rate: f64) {
        let st = self.slots[slot as usize].as_mut().expect("priced flow is live");
        st.rate = rate;
        sim.cancel(st.event);
        let id = FlowId {
            slot,
            generation: st.generation,
        };
        let eta = if st.remaining <= 0.0 || st.rate.is_infinite() {
            Dur::ZERO
        } else {
            Dur::for_bytes(st.remaining, st.rate)
        };
        st.event = sim.schedule_at(sim.now() + eta, move |world: &mut S, sim| {
            Self::on_complete(world, sim, id);
        });
    }
}

/// Grow a dense per-link array to `len` entries (never shrinks).
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// Mark link `idx` seen, queueing it on the walk the first time.
fn see(seen: &mut [bool], walk: &mut Vec<usize>, idx: usize) {
    if !seen[idx] {
        seen[idx] = true;
        walk.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkClass, LinkSpec};
    use crate::topology::NodeKind;
    use crate::GB;

    /// Minimal world: just a fabric plus a completion log.
    struct World {
        fabric: FabricState<World>,
        done: Vec<(&'static str, SimTime)>,
    }

    impl FlowWorld for World {
        fn fabric(&mut self) -> &mut FabricState<World> {
            &mut self.fabric
        }
    }

    fn two_gpu_switch() -> (World, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let sw = topo.add_node("sw", NodeKind::PcieSwitch);
        let a = topo.add_node("a", NodeKind::Gpu);
        let b = topo.add_node("b", NodeKind::Gpu);
        // 10 GB/s per direction, negligible latency for clean math.
        let spec = LinkSpec::of(LinkClass::PcieGen4x16)
            .with_capacity(10.0 * GB)
            .with_latency(Dur::ZERO);
        topo.add_link(sw, a, spec);
        topo.add_link(sw, b, spec);
        let w = World {
            fabric: FabricState::new(topo),
            done: Vec::new(),
        };
        (w, sw, a, b)
    }

    fn log(name: &'static str) -> FlowCallback<World> {
        Box::new(move |w: &mut World, sim| w.done.push((name, sim.now())))
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        // Route a->b crosses two 10 GB/s links through a switch
        // (p2p efficiency 0.92): ceiling 9.2 GB/s.
        let fab = &mut w.fabric;
        fab.start_flow(&mut sim, a, b, 9.2 * GB, log("x"));
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        let t = w.done[0].1;
        // Switch forwarding latency (350ns) + ~1s transfer.
        let secs = t.as_secs_f64();
        assert!((secs - 1.0).abs() < 1e-3, "took {secs}s");
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        // Both flows a->b: share both links; each gets 5 GB/s.
        let fab = &mut w.fabric;
        fab.start_flow(&mut sim, a, b, 5.0 * GB, log("f1"));
        fab.start_flow(&mut sim, a, b, 5.0 * GB, log("f2"));
        sim.run(&mut w);
        assert_eq!(w.done.len(), 2);
        // The shared links cap each flow at 5 GB/s (below the 9.2 GB/s
        // per-flow ceiling), so both finish together after 1 s.
        let t = w.done[1].1.as_secs_f64();
        assert!((t - 1.0).abs() < 1e-3, "two 5GB flows at 5GB/s each: {t}s");
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        let fab = &mut w.fabric;
        fab.start_flow(&mut sim, a, b, 9.2 * GB, log("ab"));
        fab.start_flow(&mut sim, b, a, 9.2 * GB, log("ba"));
        sim.run(&mut w);
        let t = w.done.iter().map(|d| d.1.as_secs_f64()).fold(0.0, f64::max);
        assert!((t - 1.0).abs() < 1e-3, "full duplex: {t}s");
    }

    #[test]
    fn short_flow_is_latency_bound() {
        let mut topo = Topology::new();
        let a = topo.add_node("a", NodeKind::Gpu);
        let b = topo.add_node("b", NodeKind::Gpu);
        let spec = LinkSpec::of(LinkClass::NvLink2 { lanes: 2 }).with_latency(Dur::from_micros(2));
        topo.add_link(a, b, spec);
        let mut w = World {
            fabric: FabricState::new(topo),
            done: Vec::new(),
        };
        let mut sim = Sim::new();
        w.fabric.start_flow(&mut sim, a, b, 8.0, log("tiny"));
        sim.run(&mut w);
        let t = w.done[0].1;
        assert!(t >= SimTime::from_micros(2));
        assert!(t < SimTime::from_micros(3), "8 bytes is latency-dominated");
    }

    #[test]
    fn freed_bandwidth_is_reallocated() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        let fab = &mut w.fabric;
        // Short and long flow share: short finishes, long speeds up.
        fab.start_flow(&mut sim, a, b, 1.0 * GB, log("short"));
        fab.start_flow(&mut sim, a, b, 5.0 * GB, log("long"));
        sim.run(&mut w);
        // Phase 1: both at the 5 GB/s link fair share until short finishes
        // at 0.2 s (1 GB moved each). Long then has 4 GB left and speeds up
        // to its 9.2 GB/s ceiling: 0.2 + 4/9.2 = 0.6348 s.
        let short_t = w.done.iter().find(|d| d.0 == "short").unwrap().1.as_secs_f64();
        let long_t = w.done.iter().find(|d| d.0 == "long").unwrap().1.as_secs_f64();
        assert!((short_t - 0.2).abs() < 1e-3, "{short_t}");
        let expected_long = 0.2 + 4.0 / 9.2;
        assert!((long_t - expected_long).abs() < 1e-3, "{long_t} vs {expected_long}");
    }

    #[test]
    fn abort_cancels_completion_and_frees_bandwidth() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        let id = w
            .fabric
            .start_flow(&mut sim, a, b, 100.0 * GB, log("doomed"));
        w.fabric.start_flow(&mut sim, a, b, 4.6 * GB, log("kept"));
        // Let the flows activate, then abort the big one.
        sim.schedule_at(SimTime::from_millis(500), move |w: &mut World, sim| {
            assert!(w.fabric.abort_flow(sim, id));
        });
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1, "aborted callback must not fire");
        assert_eq!(w.done[0].0, "kept");
        // kept: 0.5s at the 5 GB/s fair share = 2.5 GB moved, then the
        // remaining 2.1 GB at its 9.2 GB/s ceiling = 0.228 s; total 0.728 s.
        let t = w.done[0].1.as_secs_f64();
        assert!((t - 0.728).abs() < 2e-3, "{t}");
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        w.fabric.start_flow(&mut sim, a, b, 0.0, log("zero"));
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        // Latency = 2 link latencies (0) + switch forwarding.
        assert_eq!(w.done[0].1, SimTime::from_nanos(350));
    }

    #[test]
    fn self_flow_completes_immediately() {
        let (mut w, _sw, a, _b) = two_gpu_switch();
        let mut sim = Sim::new();
        w.fabric.start_flow(&mut sim, a, a, 1e12, log("self"));
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        assert_eq!(w.done[0].1, SimTime::ZERO);
    }

    #[test]
    fn port_counters_attribute_all_bytes() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let route = w.fabric.topo.route(a, b).unwrap();
        for &dl in &route.hops {
            w.fabric.ports.watch(dl);
        }
        let mut sim = Sim::new();
        w.fabric.start_flow(&mut sim, a, b, 4.6 * GB, log("f"));
        sim.run(&mut w);
        for &dl in &route.hops {
            let total = w.fabric.ports.total_bytes(dl);
            assert!(
                (total - 4.6 * GB).abs() < 1.0,
                "link should carry all bytes, got {total}"
            );
        }
    }

    /// The hash-map filler the dense `fill_rates` replaced, kept verbatim
    /// as the reference for `dense_fill_matches_hash_map_fill`: per-link
    /// residuals and user lists in hash maps rebuilt per call, each link's
    /// unfrozen users recounted every round.
    fn reference_fill_rates(fab: &FabricState<World>, active: &[u32]) -> Vec<f64> {
        use std::collections::HashMap;
        let mut residual: HashMap<usize, (f64, u32)> = HashMap::new();
        let mut ceiling = Vec::new();
        for &i in active {
            let st = fab.slots[i as usize].as_ref().unwrap();
            let mut bottleneck = f64::INFINITY;
            for &dl in &st.route.hops {
                let cap = fab.topo.capacity(dl);
                bottleneck = bottleneck.min(cap);
                let entry = residual.entry(dl.dense_index()).or_insert((cap, 0));
                entry.1 += 1;
            }
            ceiling.push(if st.route.hops.is_empty() {
                f64::INFINITY
            } else {
                bottleneck * st.route.path_efficiency
            });
        }
        let n = active.len();
        let mut frozen = vec![false; n];
        let mut rate = vec![0.0f64; n];
        let mut level = 0.0f64;
        let mut unfrozen = n;
        let mut users: HashMap<usize, Vec<usize>> = HashMap::new();
        for (pos, &i) in active.iter().enumerate() {
            let st = fab.slots[i as usize].as_ref().unwrap();
            for &dl in &st.route.hops {
                users.entry(dl.dense_index()).or_default().push(pos);
            }
        }
        while unfrozen > 0 {
            let mut inc = f64::INFINITY;
            for (idx, &(res, _)) in residual.iter() {
                let live = users[idx].iter().filter(|&&p| !frozen[p]).count() as f64;
                if live > 0.0 {
                    inc = inc.min(res / live);
                }
            }
            for p in 0..n {
                if !frozen[p] && ceiling[p].is_finite() {
                    inc = inc.min(ceiling[p] - level);
                }
            }
            if !inc.is_finite() {
                for p in 0..n {
                    if !frozen[p] {
                        rate[p] = f64::INFINITY;
                        frozen[p] = true;
                    }
                }
                break;
            }
            let inc = inc.max(0.0);
            level += inc;
            for (idx, entry) in residual.iter_mut() {
                let live = users[idx].iter().filter(|&&p| !frozen[p]).count() as f64;
                entry.0 = (entry.0 - inc * live).max(0.0);
            }
            let mut changed = false;
            for p in 0..n {
                if frozen[p] {
                    continue;
                }
                let st = fab.slots[active[p] as usize].as_ref().unwrap();
                let at_ceiling = level + RATE_EPS >= ceiling[p];
                let at_saturated_link = st.route.hops.iter().any(|dl| {
                    residual
                        .get(&dl.dense_index())
                        .is_some_and(|&(res, _)| res <= RATE_EPS)
                });
                if at_ceiling || at_saturated_link {
                    rate[p] = level;
                    frozen[p] = true;
                    unfrozen -= 1;
                    changed = true;
                }
            }
            if !changed && inc <= RATE_EPS {
                for p in 0..n {
                    if !frozen[p] {
                        rate[p] = level;
                        frozen[p] = true;
                        unfrozen -= 1;
                    }
                }
            }
        }
        rate
    }

    /// A random fabric and flow set for the filler differential: one root
    /// complex, switches hanging off it by one or two parallel uplinks,
    /// GPUs on the switches or on the root, and flows between any two
    /// endpoints (equal endpoints make zero-hop flows).
    #[derive(Debug, Clone)]
    struct FillCase {
        /// Per switch: uplink GB/s, and whether a parallel twin uplink exists.
        switches: Vec<(f64, bool)>,
        /// Per GPU: parent pick (a switch, or the root), link GB/s.
        gpus: Vec<(usize, f64)>,
        /// Per flow: src pick, dst pick, route over the twin uplinks.
        flows: Vec<(usize, usize, bool)>,
        /// Links degraded by `scale_link_capacity`: link pick, factor.
        degraded: Vec<(usize, f64)>,
    }

    fn fill_case() -> testkit::Gen<FillCase> {
        use testkit::{bools, f64_in, one_of, select, tuple2, tuple3, tuple4, usize_in, vec_of};
        // Round capacities make exact ties (links saturating together).
        let gbps = || {
            one_of(vec![
                select(vec![4.0, 8.0, 12.0, 16.0, 31.5]),
                f64_in(1.0, 32.0),
            ])
        };
        tuple4(
            vec_of(tuple2(gbps(), bools()), 1..4),
            vec_of(tuple2(usize_in(0..8), gbps()), 2..9),
            vec_of(tuple3(usize_in(0..16), usize_in(0..16), bools()), 1..24),
            vec_of(tuple2(usize_in(0..64), f64_in(0.05, 1.0)), 0..4),
        )
        .map(|(switches, gpus, flows, degraded)| FillCase {
            switches: switches.clone(),
            gpus: gpus.clone(),
            flows: flows.clone(),
            degraded: degraded.clone(),
        })
    }

    /// Build `case`'s fabric with every flow active (slot order = flow
    /// order). Flows that pick the twin route cross each parallel uplink's
    /// second link instead of the one routing chose.
    fn fill_fabric(case: &FillCase) -> FabricState<World> {
        let mut topo = Topology::new();
        let root = topo.add_node("root", NodeKind::RootComplex);
        let spec = |gbps: f64| LinkSpec::of(LinkClass::PcieGen4x16).with_capacity(gbps * GB);
        let mut twin = std::collections::HashMap::new();
        let mut switches = Vec::new();
        for (s, &(gbps, parallel)) in case.switches.iter().enumerate() {
            let sw = topo.add_node(format!("sw{s}"), NodeKind::PcieSwitch);
            let first = topo.add_link(sw, root, spec(gbps));
            if parallel {
                twin.insert(first, topo.add_link(sw, root, spec(gbps)));
            }
            switches.push(sw);
        }
        let mut endpoints = vec![root];
        for (g, &(pick, gbps)) in case.gpus.iter().enumerate() {
            let gpu = topo.add_node(format!("gpu{g}"), NodeKind::Gpu);
            let parent = switches
                .get(pick % (switches.len() + 1))
                .copied()
                .unwrap_or(root);
            topo.add_link(gpu, parent, spec(gbps));
            endpoints.push(gpu);
        }
        for &(pick, factor) in &case.degraded {
            let link = crate::topology::LinkId((pick % topo.link_count()) as u32);
            topo.scale_link_capacity(link, factor);
        }
        let mut fab = FabricState::new(topo);
        for &(src, dst, use_twin) in &case.flows {
            let (src, dst) = (
                endpoints[src % endpoints.len()],
                endpoints[dst % endpoints.len()],
            );
            let mut route = fab.topo.route(src, dst).unwrap();
            if use_twin {
                let mut r = (*route).clone();
                for hop in &mut r.hops {
                    if let Some(&t) = twin.get(&hop.link) {
                        hop.link = t;
                    }
                }
                route = Arc::new(r);
            }
            fab.slots.push(Some(FlowState {
                route,
                remaining: GB,
                rate: 0.0,
                phase: Phase::Active,
                event: EventHandle::DEAD,
                on_complete: None,
                generation: 0,
            }));
        }
        fab
    }

    testkit::property! {
        /// The dense filler assigns every flow the same rate, bit for bit,
        /// as the hash-map reference. A subset is filled first, so the
        /// full fill runs on per-link scratch another call left behind.
        /// Each flow filled on its own gets `alone_rate`, bit for bit.
        #[cases(96)]
        fn dense_fill_matches_hash_map_fill(case in fill_case()) {
            let fab = fill_fabric(&case);
            let all: Vec<u32> = (0..fab.slots.len() as u32).collect();
            let evens: Vec<u32> = all.iter().copied().step_by(2).collect();
            let mut sc = Scratch::default();
            for &i in &all {
                sc.clear();
                sc.active.push(i);
                fab.fill_rates(&mut sc);
                let alone = fab.alone_rate(&fab.slots[i as usize].as_ref().unwrap().route);
                testkit::prop_assert!(
                    sc.rate[0].to_bits() == alone.to_bits(),
                    "flow {} alone: filled {} vs alone_rate {}",
                    i, sc.rate[0], alone
                );
            }
            for set in [evens, all] {
                sc.clear();
                sc.active.extend(&set);
                fab.fill_rates(&mut sc);
                let want = reference_fill_rates(&fab, &set);
                for (p, (got, want)) in sc.rate.iter().zip(&want).enumerate() {
                    testkit::prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "flow {} of {}: dense {} vs reference {}",
                        p, set.len(), got, want
                    );
                }
                testkit::prop_assert!(sc.live.iter().all(|&c| c == 0), "live counts left behind");
            }
        }
    }

    #[test]
    fn abort_unknown_flow_is_false() {
        let (mut w, _sw, a, b) = two_gpu_switch();
        let mut sim = Sim::new();
        let id = w.fabric.start_flow(&mut sim, a, b, 1.0, log("f"));
        sim.run(&mut w);
        assert!(!w.fabric.abort_flow(&mut sim, id), "already finished");
    }
}
