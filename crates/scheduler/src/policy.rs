//! Placement policies: given a job and the rack's current free slots,
//! choose the slots to compose — or decline and let the job wait.
//!
//! All policies see the same queue in the same order (the cluster loop
//! owns queue discipline); they differ **only** in slot selection:
//!
//! * [`FifoFirstFit`] — the naive baseline: first free slots in global
//!   slot order, splitting across drawers (and chassis) whenever the
//!   front of the free list is fragmented.
//! * [`BestFit`] — classic best-fit packing: the *tightest* drawer
//!   anywhere in the rack that still fits the job, spilling only when no
//!   single drawer fits.
//! * [`FragAware`] — keeps Falcon drawers whole: never splits a job
//!   across drawers, preferring to let it queue until a whole-drawer
//!   placement opens.
//! * [`TopologyAware`] — prices every candidate shape with a cached
//!   micro-probe ([`crate::probe`]) and picks the best
//!   [`composable_core::Objective::TrainingTime`] score, charging
//!   [`rack::cross_chassis_stretch`] when a candidate spans the
//!   inter-chassis tier.
//! * [`SloAwarePack`] — the serving-aware policy: training places like
//!   [`BestFit`], serving replicas pack onto fractional capacity training
//!   cannot use, and SLO pressure may shrink elastic training.
//!
//! [`ParamPolicy`] is the one algorithm behind the registry: each of the
//! five names in [`POLICY_NAMES`] resolves to a [`PolicyParams`] preset
//! that replays its hand-written policy above bit-for-bit, and
//! [`resolve_policy`] also loads tuned params from a `.json` file.
//!
//! Policies are topology-generic: they see [`FreeView`]'s rack-global
//! drawer axis and reduce exactly to their single-chassis behavior when
//! the rack is one chassis, keeping the pre-rack goldens byte-identical.

use crate::probe::{ProbeCache, Shape};
use crate::trace::JobSpec;
use desim::json::{FromJson, JsonError, ToJson, Value};
use rack::{cross_chassis_stretch, drawers_spanned, RackAddr};
use std::cmp::Reverse;

/// Snapshot of the rack's unattached GPU slots, in global (chassis-major)
/// slot order, plus the rack's drawer count so policies can iterate the
/// global drawer axis.
#[derive(Debug, Clone)]
pub struct FreeView {
    free: Vec<RackAddr>,
    n_drawers: usize,
    /// Where each global drawer's run starts in `free`: drawer `d` holds
    /// `free[runs[d]..runs[d + 1]]` (`n_drawers + 1` entries). Sorted
    /// chassis-major order keeps each drawer's slots contiguous.
    runs: Vec<usize>,
}

impl FreeView {
    pub fn new(mut free: Vec<RackAddr>, n_drawers: usize) -> FreeView {
        free.sort_unstable();
        let runs =
            (0..=n_drawers).map(|d| free.partition_point(|s| s.global_drawer() < d)).collect();
        FreeView { free, n_drawers, runs }
    }

    pub fn total(&self) -> usize {
        self.free.len()
    }

    pub fn slots(&self) -> &[RackAddr] {
        &self.free
    }

    /// Global drawers in the rack (2 per chassis).
    pub fn n_drawers(&self) -> usize {
        self.n_drawers
    }

    /// One global drawer's free run, ascending; empty outside the view.
    fn run(&self, drawer: usize) -> &[RackAddr] {
        if drawer >= self.n_drawers {
            return &[];
        }
        &self.free[self.runs[drawer]..self.runs[drawer + 1]]
    }
}

/// One slot a serving replica could land on: a partially-used serving
/// slot of the same tenant (`shared`), or a wholly free slot.
#[derive(Debug, Clone, Copy)]
pub struct SliceSlot {
    pub addr: RackAddr,
    /// Unclaimed sevenths of the slot's compute.
    pub free_sevenths: u8,
    /// Already attached for serving this tenant (placing here costs no
    /// new whole slot).
    pub shared: bool,
}

/// The fractional-capacity view a replica placement chooses from, in
/// global slot order, plus the per-global-drawer wholly-free GPU counts
/// (so packing policies can keep training's contiguous holes whole).
#[derive(Debug, Clone)]
pub struct SliceView {
    pub slots: Vec<SliceSlot>,
    pub free_gpus: Vec<usize>,
}

/// What a policy sees of one running job when choosing a preemption
/// victim: identity, tier, and the slots a preemption would free,
/// borrowed from the job itself.
#[derive(Debug, Clone)]
pub struct RunningView<'a> {
    pub id: u64,
    pub tenant: u32,
    pub priority: u8,
    pub slots: &'a [RackAddr],
}

/// A slot-selection strategy. Returning `None` means "this job cannot (or
/// should not) be placed right now"; the cluster loop decides whether that
/// blocks the queue.
///
/// `Send` because [`crate::scenario::replay`] ships each policy to a
/// parsweep worker for its replay; policies are stateless slot
/// selectors, so the bound costs implementors nothing.
pub trait PlacePolicy: Send {
    fn name(&self) -> &'static str;
    fn place(&self, job: &JobSpec, free: &FreeView, probes: &mut ProbeCache)
        -> Option<Vec<RackAddr>>;

    /// Pick the slot for one serving replica of `slice`/7 of a GPU. The
    /// default mirrors [`FifoFirstFit`]: the first slot that fits, in
    /// global order, blind to fragmentation.
    fn place_replica(&self, slice: u8, view: &SliceView) -> Option<RackAddr> {
        view.slots.iter().find(|s| s.free_sevenths >= slice).map(|s| s.addr)
    }

    /// May the cluster shrink elastic training jobs to compose a replica
    /// for a service at risk of violating its SLO?
    fn evict_for_slo(&self) -> bool {
        false
    }

    /// Pick the running job a capacity-blocked `job` may checkpoint-
    /// preempt, or `None` to let it wait. The contract: the victim's tier
    /// must be **strictly below** `job.priority` (the cluster loop
    /// enforces this; anything else could preempt in cycles). The default
    /// sacrifices the cheapest eligible victim — fewest held slots, ties
    /// to the lowest id — so high tiers displace as little work as
    /// possible.
    fn choose_victim(&self, job: &JobSpec, running: &[RunningView<'_>]) -> Option<u64> {
        running
            .iter()
            .filter(|r| r.priority < job.priority)
            .min_by_key(|r| (r.slots.len(), r.id))
            .map(|r| r.id)
    }

    /// Propose a live-migration target for a running job currently on
    /// `current`, or `None` to leave it in place. The cluster's defrag
    /// pass only accepts same-size placements spanning strictly fewer
    /// global drawers (and only when the move beats its rollback +
    /// re-composition cost). The default relocates a drawer-spanning gang
    /// to the first whole drawer that fits it; single-drawer gangs never
    /// move.
    fn migrate(
        &self,
        job: &JobSpec,
        current: &[RackAddr],
        free: &FreeView,
        probes: &mut ProbeCache,
    ) -> Option<Vec<RackAddr>> {
        let _ = (job, probes);
        if drawers_spanned(current) <= 1 {
            return None;
        }
        let k = current.len();
        let run = (0..free.n_drawers()).map(|d| free.run(d)).find(|run| run.len() >= k)?;
        Some(run[..k].to_vec())
    }

    /// The slot floor an elastic shrink may take a job holding `held`
    /// GPUs down to (the cluster still respects the job's `min_gpus`).
    /// SLO-side pressure (`gentle`) releases one slot; training-side
    /// pressure halves the gang — the legacy behavior every hand-written
    /// policy keeps.
    fn shrink_floor(&self, held: usize, gentle: bool) -> usize {
        if gentle {
            held.saturating_sub(1)
        } else {
            held / 2
        }
    }

    /// The fraction of a service's SLO a queued request may age before
    /// SLO clawback arms (see `ServeState::under_pressure`). The legacy
    /// band is half the SLO.
    fn slo_claw_band(&self) -> f64 {
        0.5
    }

    /// A defrag migration is only taken when its projected cost times
    /// this margin still beats staying put. 1.0 is the legacy
    /// break-even gate; larger values demand a bigger win.
    fn defrag_margin(&self) -> f64 {
        1.0
    }
}

/// The canonical policy names, in the order the comparison tables print
/// them — the single list every "unknown policy" message quotes, so the
/// registry and the scenario validator can never drift.
pub const POLICY_NAMES: [&'static str; 5] =
    ["fifo-first-fit", "best-fit", "frag-aware", "topology-aware", "slo-aware-pack"];

/// A policy name that resolves to nothing, carrying the canonical list of
/// names that would have (and, for `.json` artifact paths, why the
/// artifact did not load).
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownPolicy {
    pub name: String,
    /// `Some` when `name` looked like a `TunedPolicy` artifact path but
    /// the file failed to load, parse, or validate.
    pub detail: Option<String>,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.detail {
            Some(d) => write!(f, "policy artifact \"{}\": {d}", self.name),
            None => write!(
                f,
                "unknown policy \"{}\" (valid: {}, or a tuned-params .json path)",
                self.name,
                POLICY_NAMES.join(", ")
            ),
        }
    }
}

impl std::error::Error for UnknownPolicy {}

/// Every built-in training policy, in the order the comparison tables
/// print them (the first four of [`POLICY_NAMES`]; the fifth is the
/// serving-aware one). Each is the [`ParamPolicy`] preset of that name
/// — the parametric family replays the hand-written policies
/// bit-for-bit (the pinned goldens and the differential tests below
/// hold it to that).
pub fn all_policies() -> Vec<Box<dyn PlacePolicy>> {
    POLICY_NAMES[..4]
        .iter()
        .map(|n| Box::new(ParamPolicy::preset(n).expect("canonical name")) as Box<dyn PlacePolicy>)
        .collect()
}

/// Resolve a policy name: a canonical preset from [`POLICY_NAMES`], or a
/// path ending in `.json` holding tuned [`PolicyParams`] — either a bare
/// params object or a `TunedPolicy` artifact (its `params` field is
/// used), as written by `repro autotune`.
pub fn resolve_policy(name: &str) -> Result<Box<dyn PlacePolicy>, UnknownPolicy> {
    if let Some(p) = ParamPolicy::preset(name) {
        return Ok(Box::new(p));
    }
    if name.ends_with(".json") {
        let artifact = |detail: String| UnknownPolicy { name: name.to_string(), detail: Some(detail) };
        let text = std::fs::read_to_string(name).map_err(|e| artifact(e.to_string()))?;
        let v = Value::parse(&text).map_err(|e| artifact(e.to_string()))?;
        // A tuned artifact carries its knobs under "params"; bare knobs work too.
        let pairs = v.as_obj().unwrap_or_default();
        let params_json = pairs.iter().find(|(k, _)| k == "params").map_or(&v, |(_, p)| p);
        let params = PolicyParams::from_json(params_json).map_err(|e| artifact(e.to_string()))?;
        let p = ParamPolicy::new(params).map_err(|e| artifact(e.to_string()))?;
        return Ok(Box::new(p));
    }
    Err(UnknownPolicy { name: name.to_string(), detail: None })
}

/// Free slots grouped by global drawer — the shared first step of every
/// drawer-shaped selection below. Each group is a slice of the view's
/// own sorted list, found through the run starts `FreeView::new` kept.
fn per_drawer(free: &FreeView) -> Vec<&[RackAddr]> {
    (0..free.n_drawers()).map(|d| free.run(d)).collect()
}

/// The first drawer (lowest global index) whose free run fits `k`.
fn first_fitting_drawer(per: &[&[RackAddr]], k: usize) -> Option<usize> {
    (0..per.len()).find(|&d| per[d].len() >= k)
}

/// The tightest drawer that fits `k` (fewest free slots; ties to the
/// lowest global drawer) — an exact fit is necessarily tightest, so
/// large contiguous holes stay whole for the jobs that need them.
fn tightest_fitting_drawer(per: &[&[RackAddr]], k: usize) -> Option<usize> {
    (0..per.len()).filter(|&d| per[d].len() >= k).min_by_key(|&d| (per[d].len(), d))
}

/// Drain drawers fullest-first (ties toward the lower global drawer),
/// spilling across drawers — and chassis — as the remainder demands.
/// Caller guarantees `free.total() >= k`.
fn drain_fullest_first(per: &[&[RackAddr]], k: usize) -> Vec<RackAddr> {
    let mut order: Vec<usize> = (0..per.len()).collect();
    order.sort_by_key(|&d| (Reverse(per[d].len()), d));
    let mut slots: Vec<RackAddr> = Vec::with_capacity(k);
    for d in order {
        if slots.len() == k {
            break;
        }
        slots.extend(per[d].iter().copied().take(k - slots.len()));
    }
    slots
}

pub struct FifoFirstFit;

impl PlacePolicy for FifoFirstFit {
    fn name(&self) -> &'static str {
        "fifo-first-fit"
    }

    fn place(&self, job: &JobSpec, free: &FreeView, _: &mut ProbeCache) -> Option<Vec<RackAddr>> {
        let k = usize::from(job.gpus);
        if free.total() < k {
            return None;
        }
        Some(free.slots()[..k].to_vec())
    }
}

pub struct BestFit;

impl PlacePolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&self, job: &JobSpec, free: &FreeView, _: &mut ProbeCache) -> Option<Vec<RackAddr>> {
        let k = usize::from(job.gpus);
        if free.total() < k {
            return None;
        }
        let per = per_drawer(free);
        // Tightest single drawer anywhere in the rack that fits.
        if let Some(d) = tightest_fitting_drawer(&per, k) {
            return Some(per[d][..k].to_vec());
        }
        Some(drain_fullest_first(&per, k))
    }
}

pub struct FragAware;

impl PlacePolicy for FragAware {
    fn name(&self) -> &'static str {
        "frag-aware"
    }

    fn place(&self, job: &JobSpec, free: &FreeView, _: &mut ProbeCache) -> Option<Vec<RackAddr>> {
        let k = usize::from(job.gpus);
        // Whole-drawer placements only: a drawer must fit the entire job,
        // or the job waits.
        let per = per_drawer(free);
        tightest_fitting_drawer(&per, k).map(|d| per[d][..k].to_vec())
    }
}

pub struct TopologyAware;

/// Score a placement split into per-chassis parts: each part is priced by
/// its per-chassis probe (entries are chassis-pure) and the slowest part
/// bounds the gang; spanning the rack tier multiplies in the analytic
/// [`cross_chassis_stretch`]. Scores are negative training times, so the
/// stretch makes spanning candidates strictly worse.
fn score_spanning(probes: &mut ProbeCache, job: &JobSpec, parts: &[Shape]) -> f64 {
    let worst = parts
        .iter()
        .map(|&s| probes.price(job.benchmark, s).score)
        .fold(f64::INFINITY, f64::min);
    worst * cross_chassis_stretch(parts.len(), 100)
}

/// The probe-priced spill path (TopologyAware's stages past the whole-
/// drawer check): intra-chassis splits scored by micro-probe, then
/// rack-spanning assemblies charged the cross-chassis stretch. `per` is
/// [`per_drawer`]'s grouping; caller guarantees `free.total() >= k`.
fn priced_spill(
    job: &JobSpec,
    k: usize,
    per: &[&[RackAddr]],
    probes: &mut ProbeCache,
) -> Option<Vec<RackAddr>> {
    let nd = per.len();
    // 2. Intra-chassis splits: within each chassis that can hold the
    // gang, the least-split spill and the balanced split — the probe
    // decides which split shape hurts less. Candidates are
    // (take-from-primary, primary drawer, secondary drawer).
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for c in 0..nd / 2 {
        let (d0, d1) = (2 * c, 2 * c + 1);
        if per[d0].len() + per[d1].len() < k {
            continue;
        }
        let (fuller, other) = if per[d0].len() >= per[d1].len() { (d0, d1) } else { (d1, d0) };
        let spill = per[fuller].len().min(k);
        candidates.push((spill, fuller, other));
        let balanced = k.div_ceil(2);
        if balanced < spill && k - balanced <= per[other].len() {
            candidates.push((balanced, fuller, other));
        }
    }
    if !candidates.is_empty() {
        // Highest probe score wins; ties resolve to fewer drawers
        // spanned, then the lower primary drawer, so the choice is
        // deterministic.
        let (take, pd, sd) = candidates
            .into_iter()
            .map(|(take, pd, sd)| {
                let shape = Shape::new(take as u8, (k - take) as u8);
                (probes.price(job.benchmark, shape).score, take, pd, sd)
            })
            .max_by(|(sa, ta, da, _), (sb, tb, db, _)| {
                sa.partial_cmp(sb)
                    .expect("finite probe scores")
                    .then(ta.cmp(tb))
                    .then(db.cmp(da))
            })
            .map(|(_, take, pd, sd)| (take, pd, sd))?;
        let mut slots: Vec<RackAddr> = per[pd].iter().copied().take(take).collect();
        slots.extend(per[sd].iter().copied().take(k - take));
        debug_assert_eq!(slots.len(), k);
        return Some(slots);
    }
    // 3. No chassis can hold the gang alone: it must span the rack
    // tier. Price the fewest-chassis greedy assembly (freest chassis
    // first, fuller drawer first within each) against a balanced
    // two-chassis split, and take the better — the stretch factor
    // penalizes every extra chassis part.
    let n_chassis = nd / 2;
    let chassis_free = |c: usize| per[2 * c].len() + per[2 * c + 1].len();
    let mut order: Vec<usize> = (0..n_chassis).collect();
    order.sort_by_key(|&c| (Reverse(chassis_free(c)), c));
    let take_in_chassis = |c: usize, want: usize| -> (Vec<RackAddr>, Shape) {
        let (d0, d1) = (2 * c, 2 * c + 1);
        let (fuller, other) = if per[d0].len() >= per[d1].len() { (d0, d1) } else { (d1, d0) };
        let t0 = per[fuller].len().min(want);
        let t1 = per[other].len().min(want - t0);
        let mut v: Vec<RackAddr> = per[fuller].iter().copied().take(t0).collect();
        v.extend(per[other].iter().copied().take(t1));
        (v, Shape::new(t0 as u8, t1 as u8))
    };
    let assemble = |plan: &[(usize, usize)]| -> (Vec<RackAddr>, Vec<Shape>) {
        let mut slots = Vec::with_capacity(k);
        let mut parts = Vec::new();
        for &(c, want) in plan {
            if want == 0 {
                continue;
            }
            let (v, shape) = take_in_chassis(c, want);
            slots.extend(v);
            parts.push(shape);
        }
        (slots, parts)
    };
    // Greedy: drain the freest chassis, then the next, until filled.
    let mut greedy_plan: Vec<(usize, usize)> = Vec::new();
    let mut left = k;
    for &c in &order {
        let take = chassis_free(c).min(left);
        greedy_plan.push((c, take));
        left -= take;
        if left == 0 {
            break;
        }
    }
    if left > 0 {
        return None;
    }
    let (greedy_slots, greedy_parts) = assemble(&greedy_plan);
    let mut best = (
        score_spanning(probes, job, &greedy_parts),
        greedy_parts.len(),
        greedy_slots,
    );
    // Balanced across the two freest chassis, when both halves fit.
    if order.len() >= 2 {
        let hi = k.div_ceil(2);
        if chassis_free(order[0]) >= hi && chassis_free(order[1]) >= k - hi {
            let (slots, parts) = assemble(&[(order[0], hi), (order[1], k - hi)]);
            let score = score_spanning(probes, job, &parts);
            // Strictly better only: ties keep the greedy (fewer-part)
            // assembly.
            if score > best.0 || (score == best.0 && parts.len() < best.1) {
                best = (score, parts.len(), slots);
            }
        }
    }
    debug_assert_eq!(best.2.len(), k);
    Some(best.2)
}

impl PlacePolicy for TopologyAware {
    fn name(&self) -> &'static str {
        "topology-aware"
    }

    fn place(
        &self,
        job: &JobSpec,
        free: &FreeView,
        probes: &mut ProbeCache,
    ) -> Option<Vec<RackAddr>> {
        let k = usize::from(job.gpus);
        if free.total() < k {
            return None;
        }
        let per = per_drawer(free);
        // 1. A whole drawer anywhere in the rack: the unbeatable shape
        // under this cost model (no root-complex hop, no rack hop), so
        // whole-drawer candidates only tie with each other — the lowest
        // global drawer wins, matching the single-chassis tie-break.
        if let Some(d) = first_fitting_drawer(&per, k) {
            probes.price(job.benchmark, Shape::new(k as u8, 0));
            return Some(per[d][..k].to_vec());
        }
        priced_spill(job, k, &per, probes)
    }
}

/// First-fit replica placement: the first slot that fits, in global
/// order, blind to fragmentation (the trait default's behavior).
fn first_fit_replica(slice: u8, view: &SliceView) -> Option<RackAddr> {
    view.slots.iter().find(|s| s.free_sevenths >= slice).map(|s| s.addr)
}

/// Packing replica placement: partially-used serving slots first, then
/// the tightest drawer's highest slot, keeping low-address contiguous
/// runs whole for training gangs.
fn pack_replica(slice: u8, view: &SliceView) -> Option<RackAddr> {
    view.slots
        .iter()
        .filter(|s| s.free_sevenths >= slice)
        .min_by_key(|s| {
            (
                !s.shared,
                view.free_gpus[s.addr.global_drawer()],
                Reverse(s.addr),
            )
        })
        .map(|s| s.addr)
}

/// The serving-aware policy: training places best-fit (tightest drawer),
/// replicas pack onto fragmented fractional capacity training can't use —
/// partially-used serving slots first, then the tightest drawer's highest
/// slot, keeping low-address contiguous runs whole for training gangs —
/// and SLO pressure may evict (elastically shrink) training.
pub struct SloAwarePack;

impl PlacePolicy for SloAwarePack {
    fn name(&self) -> &'static str {
        "slo-aware-pack"
    }

    fn place(&self, job: &JobSpec, free: &FreeView, probes: &mut ProbeCache)
        -> Option<Vec<RackAddr>> {
        BestFit.place(job, free, probes)
    }

    fn place_replica(&self, slice: u8, view: &SliceView) -> Option<RackAddr> {
        pack_replica(slice, view)
    }

    fn evict_for_slo(&self) -> bool {
        true
    }
}

/// How many GPUs of whole-drawer patience full `frag_patience` buys: at
/// 1.0 a job of any schedulable size waits for a whole drawer (the
/// [`FragAware`] behavior); at 0.5 only jobs up to half this span wait.
pub const FRAG_WAIT_SPAN: f64 = 16.0;

/// The knob space the hand-written policies are points in. Every field
/// is bounded (see [`PolicyParams::validate`]); the five presets replay
/// the legacy policies bit-for-bit, which is what lets `crates/autotune`
/// search this space while the pinned goldens stand guard.
///
/// Placement knobs: `whole_drawer` > 0 tries a single fitting drawer
/// first; `tie_tight` >= 0.5 picks the tightest such drawer (else the
/// first); `frag_patience` scales how large a job may be and still wait
/// for a whole drawer instead of spilling ([`FRAG_WAIT_SPAN`]);
/// `probe_bias` > 0 prices spills with micro-probes (the
/// [`TopologyAware`] path); otherwise `spill_pack` >= 0.5 drains drawers
/// fullest-first (the [`BestFit`] spill) and < 0.5 takes global slot
/// order (the [`FifoFirstFit`] spill).
///
/// Serving/elasticity knobs: `replica_pack` >= 0.5 packs replicas like
/// [`SloAwarePack`]; `evict_for_slo` arms SLO clawback; `slo_claw_band`
/// is the SLO fraction a queued request may age before clawback fires;
/// `shrink_aggr` is the gang fraction a training-side shrink releases.
///
/// Priority knobs: `preempt_margin` is the minimum victim size as a
/// fraction of the preemptor's demand; `defrag_margin` scales the
/// cost-benefit gate a migration must beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyParams {
    pub whole_drawer: f64,
    pub tie_tight: f64,
    pub frag_patience: f64,
    pub spill_pack: f64,
    pub probe_bias: f64,
    pub replica_pack: f64,
    pub evict_for_slo: bool,
    pub shrink_aggr: f64,
    pub slo_claw_band: f64,
    pub preempt_margin: f64,
    pub defrag_margin: f64,
}

/// Why a [`PolicyParams`] value was rejected — always naming the field.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    OutOfBounds { field: &'static str, value: f64, lo: f64, hi: f64 },
    /// Malformed JSON, a mistyped knob, or a key that is not a knob.
    Json(JsonError),
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::OutOfBounds { field, value, lo, hi } => {
                write!(f, "params field \"{field}\" = {value} outside [{lo}, {hi}]")
            }
            ParamsError::Json(e) => write!(f, "params: {e}"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl Default for PolicyParams {
    fn default() -> PolicyParams {
        PolicyParams::fifo_first_fit()
    }
}

impl PolicyParams {
    pub const fn fifo_first_fit() -> PolicyParams {
        PolicyParams {
            whole_drawer: 0.0,
            tie_tight: 0.0,
            frag_patience: 0.0,
            spill_pack: 0.0,
            probe_bias: 0.0,
            replica_pack: 0.0,
            evict_for_slo: false,
            shrink_aggr: 0.5,
            slo_claw_band: 0.5,
            preempt_margin: 0.0,
            defrag_margin: 1.0,
        }
    }

    pub const fn best_fit() -> PolicyParams {
        PolicyParams {
            whole_drawer: 1.0,
            tie_tight: 1.0,
            spill_pack: 1.0,
            ..PolicyParams::fifo_first_fit()
        }
    }

    pub const fn frag_aware() -> PolicyParams {
        PolicyParams {
            whole_drawer: 1.0,
            tie_tight: 1.0,
            frag_patience: 1.0,
            ..PolicyParams::fifo_first_fit()
        }
    }

    pub const fn topology_aware() -> PolicyParams {
        PolicyParams {
            whole_drawer: 1.0,
            probe_bias: 1.0,
            ..PolicyParams::fifo_first_fit()
        }
    }

    pub const fn slo_aware_pack() -> PolicyParams {
        PolicyParams {
            replica_pack: 1.0,
            evict_for_slo: true,
            ..PolicyParams::best_fit()
        }
    }

    /// The params behind a canonical preset name, `None` otherwise.
    pub fn preset(name: &str) -> Option<PolicyParams> {
        match name {
            "fifo-first-fit" => Some(PolicyParams::fifo_first_fit()),
            "best-fit" => Some(PolicyParams::best_fit()),
            "frag-aware" => Some(PolicyParams::frag_aware()),
            "topology-aware" => Some(PolicyParams::topology_aware()),
            "slo-aware-pack" => Some(PolicyParams::slo_aware_pack()),
            _ => None,
        }
    }

    /// `(field, value, lo, hi)` for every bounded (f64) knob, in the
    /// canonical emission order.
    fn bounded(&self) -> [(&'static str, f64, f64, f64); 10] {
        [
            ("whole_drawer", self.whole_drawer, 0.0, 1.0),
            ("tie_tight", self.tie_tight, 0.0, 1.0),
            ("frag_patience", self.frag_patience, 0.0, 1.0),
            ("spill_pack", self.spill_pack, 0.0, 1.0),
            ("probe_bias", self.probe_bias, 0.0, 1.0),
            ("replica_pack", self.replica_pack, 0.0, 1.0),
            ("shrink_aggr", self.shrink_aggr, 0.0625, 1.0),
            ("slo_claw_band", self.slo_claw_band, 0.05, 0.95),
            ("preempt_margin", self.preempt_margin, 0.0, 1.0),
            ("defrag_margin", self.defrag_margin, 1.0, 2.0),
        ]
    }

    /// Every knob inside its bounds (and finite), or the first offender
    /// by name.
    pub fn validate(&self) -> Result<(), ParamsError> {
        for (field, value, lo, hi) in self.bounded() {
            if !value.is_finite() || value < lo || value > hi {
                return Err(ParamsError::OutOfBounds { field, value, lo, hi });
            }
        }
        Ok(())
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a params object (see the [`FromJson`] impl below).
    pub fn from_json_str(s: &str) -> Result<PolicyParams, ParamsError> {
        Value::parse(s).and_then(|v| PolicyParams::from_json(&v)).map_err(ParamsError::Json)
    }
}

// Missing knobs keep their `PolicyParams::fifo_first_fit` defaults and
// unknown keys are rejected by name. Bounds are *not* checked here —
// `ParamPolicy::new` (and `PolicyParams::validate`) own that, so parse
// errors and bounds errors stay distinguishable.
desim::json_record! {
    PolicyParams, defaults: PolicyParams::default();
    whole_drawer: "whole_drawer" (default),
    tie_tight: "tie_tight" (default),
    frag_patience: "frag_patience" (default),
    spill_pack: "spill_pack" (default),
    probe_bias: "probe_bias" (default),
    replica_pack: "replica_pack" (default),
    evict_for_slo: "evict_for_slo" (default),
    shrink_aggr: "shrink_aggr" (default),
    slo_claw_band: "slo_claw_band" (default),
    preempt_margin: "preempt_margin" (default),
    defrag_margin: "defrag_margin" (default),
}

/// The parametric policy: one [`place`](PlacePolicy::place) algorithm
/// whose stages are gated and weighted by [`PolicyParams`]. At the five
/// preset points it reproduces the hand-written policies bit-for-bit
/// (same slots, same probe pricing side effects) — the differential
/// tests below and the pinned goldens both hold it to that.
pub struct ParamPolicy {
    name: &'static str,
    params: PolicyParams,
}

impl ParamPolicy {
    /// A tuned (non-preset) point; rejected if any knob is out of
    /// bounds, naming the field.
    pub fn new(params: PolicyParams) -> Result<ParamPolicy, ParamsError> {
        params.validate()?;
        Ok(ParamPolicy { name: "tuned", params })
    }

    /// The preset bearing a canonical name, `None` otherwise.
    pub fn preset(name: &str) -> Option<ParamPolicy> {
        let stat = POLICY_NAMES.iter().copied().find(|&n| n == name)?;
        Some(ParamPolicy { name: stat, params: PolicyParams::preset(stat).expect("canonical") })
    }

    pub fn params(&self) -> &PolicyParams {
        &self.params
    }
}

impl PlacePolicy for ParamPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn place(
        &self,
        job: &JobSpec,
        free: &FreeView,
        probes: &mut ProbeCache,
    ) -> Option<Vec<RackAddr>> {
        let p = &self.params;
        let k = usize::from(job.gpus);
        if free.total() < k {
            return None;
        }
        if p.whole_drawer > 0.0 {
            let per = per_drawer(free);
            let hit = if p.tie_tight >= 0.5 {
                tightest_fitting_drawer(&per, k)
            } else {
                first_fitting_drawer(&per, k)
            };
            if let Some(d) = hit {
                if p.probe_bias > 0.0 {
                    probes.price(job.benchmark, Shape::new(k as u8, 0));
                }
                return Some(per[d][..k].to_vec());
            }
            // No drawer fits whole: patient configurations wait for one
            // rather than spill, up to a job size the patience knob sets.
            if p.frag_patience >= 1.0 || (k as f64) <= p.frag_patience * FRAG_WAIT_SPAN {
                return None;
            }
            if p.probe_bias > 0.0 {
                return priced_spill(job, k, &per, probes);
            }
            if p.spill_pack >= 0.5 {
                return Some(drain_fullest_first(&per, k));
            }
            return Some(free.slots()[..k].to_vec());
        }
        if p.probe_bias > 0.0 {
            let per = per_drawer(free);
            return priced_spill(job, k, &per, probes);
        }
        if p.spill_pack >= 0.5 {
            let per = per_drawer(free);
            return Some(drain_fullest_first(&per, k));
        }
        Some(free.slots()[..k].to_vec())
    }

    fn place_replica(&self, slice: u8, view: &SliceView) -> Option<RackAddr> {
        if self.params.replica_pack >= 0.5 {
            pack_replica(slice, view)
        } else {
            first_fit_replica(slice, view)
        }
    }

    fn evict_for_slo(&self) -> bool {
        self.params.evict_for_slo
    }

    fn choose_victim(&self, job: &JobSpec, running: &[RunningView<'_>]) -> Option<u64> {
        // The default victim choice, plus a size floor: a victim must
        // free at least `preempt_margin` of the preemptor's demand for
        // the rollback to be worth paying. 0.0 is exactly the default.
        let need = (f64::from(job.gpus) * self.params.preempt_margin).ceil() as usize;
        running
            .iter()
            .filter(|r| r.priority < job.priority && r.slots.len() >= need)
            .min_by_key(|r| (r.slots.len(), r.id))
            .map(|r| r.id)
    }

    fn shrink_floor(&self, held: usize, gentle: bool) -> usize {
        if gentle {
            return held.saturating_sub(1);
        }
        let cut = ((held as f64) * self.params.shrink_aggr).round() as usize;
        held.saturating_sub(cut.max(1))
    }

    fn slo_claw_band(&self) -> f64 {
        self.params.slo_claw_band
    }

    fn defrag_margin(&self) -> f64 {
        self.params.defrag_margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TenantId;
    use desim::SimTime;
    use dlmodels::Benchmark;

    fn job(gpus: u8) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: TenantId(0),
            benchmark: Benchmark::ResNet50,
            gpus,
            min_gpus: gpus,
            priority: 1,
            arrival: SimTime::ZERO,
            iters: 8,
        }
    }

    fn ra(drawer: u8, slot: u8) -> RackAddr {
        RackAddr::new(0, drawer, slot)
    }

    fn spans(slots: &[RackAddr]) -> bool {
        rack::drawers_spanned(slots) > 1
    }

    /// d0 has slots {2,3}, d1 has {0,1,2,3} free.
    fn fragmented() -> FreeView {
        FreeView::new(
            vec![ra(0, 2), ra(0, 3), ra(1, 0), ra(1, 1), ra(1, 2), ra(1, 3)],
            2,
        )
    }

    #[test]
    fn first_fit_splits_across_drawers() {
        let got = FifoFirstFit
            .place(&job(4), &fragmented(), &mut ProbeCache::new(2))
            .unwrap();
        assert!(spans(&got), "first-fit fragments: {got:?}");
    }

    #[test]
    fn best_fit_packs_the_tightest_drawer() {
        let mut probes = ProbeCache::new(2);
        let got = BestFit.place(&job(2), &fragmented(), &mut probes).unwrap();
        assert_eq!(got, vec![ra(0, 2), ra(0, 3)]);
        let got4 = BestFit.place(&job(4), &fragmented(), &mut probes).unwrap();
        assert!(!spans(&got4), "d1 fits the 4-GPU job whole");
    }

    #[test]
    fn frag_aware_waits_rather_than_split() {
        let mut probes = ProbeCache::new(2);
        assert!(FragAware.place(&job(8), &fragmented(), &mut probes).is_none());
        let got = FragAware.place(&job(4), &fragmented(), &mut probes).unwrap();
        assert!(!spans(&got));
    }

    #[test]
    fn topology_aware_keeps_comm_bound_jobs_whole() {
        let mut probes = ProbeCache::new(2);
        let mut j = job(4);
        j.benchmark = Benchmark::BertLarge;
        let got = TopologyAware.place(&j, &fragmented(), &mut probes).unwrap();
        assert!(!spans(&got), "probe scoring avoids the split");
        assert!(!probes.is_empty());
    }

    #[test]
    fn topology_aware_prices_competing_splits() {
        // 3 free in each drawer, a 4-GPU job: no whole-drawer fit, so the
        // policy must price the 3+1 spill against the 2+2 balanced split.
        let free = FreeView::new(
            vec![ra(0, 0), ra(0, 1), ra(0, 2), ra(1, 0), ra(1, 1), ra(1, 2)],
            2,
        );
        let mut probes = ProbeCache::new(2);
        let mut j = job(4);
        j.benchmark = Benchmark::BertLarge;
        let got = TopologyAware.place(&j, &free, &mut probes).unwrap();
        assert_eq!(got.len(), 4);
        assert!(spans(&got), "a split is unavoidable here");
        assert!(probes.len() >= 2, "both split shapes were priced");
    }

    #[test]
    fn policies_reach_across_chassis() {
        // A 2-chassis rack, 3 slots free per chassis (all in drawer 0):
        // a 4-GPU job cannot fit any chassis, so placement must span the
        // rack tier.
        let free = FreeView::new(
            vec![
                RackAddr::new(0, 0, 0),
                RackAddr::new(0, 0, 1),
                RackAddr::new(0, 0, 2),
                RackAddr::new(1, 0, 0),
                RackAddr::new(1, 0, 1),
                RackAddr::new(1, 0, 2),
            ],
            4,
        );
        let mut probes = ProbeCache::new(2);
        for p in all_policies() {
            let got = p.place(&job(4), &free, &mut probes).unwrap_or_default();
            if p.name() == "frag-aware" {
                assert!(got.is_empty(), "frag-aware keeps waiting for a whole drawer");
            } else {
                assert_eq!(got.len(), 4, "{} must span chassis", p.name());
                assert!(rack::chassis_parts(&got).len() == 2, "{}: {got:?}", p.name());
            }
        }
    }

    #[test]
    fn topology_aware_prefers_one_chassis_over_the_rack_hop() {
        // Chassis 0 can hold the 4-gang split 2+2; chassis 1 has a whole
        // drawer free. The whole drawer wins (no hop at all). Remove it
        // and the policy stays inside chassis 0 rather than spanning the
        // rack tier.
        let mut slots = vec![
            RackAddr::new(0, 0, 0),
            RackAddr::new(0, 0, 1),
            RackAddr::new(0, 1, 0),
            RackAddr::new(0, 1, 1),
        ];
        let whole: Vec<RackAddr> = (0..4).map(|s| RackAddr::new(1, 0, s)).collect();
        slots.extend(&whole);
        let mut probes = ProbeCache::new(2);
        let got = TopologyAware
            .place(&job(4), &FreeView::new(slots.clone(), 4), &mut probes)
            .unwrap();
        assert_eq!(got, whole, "whole drawer on chassis 1 is unbeatable");
        slots.truncate(4);
        let got = TopologyAware
            .place(&job(4), &FreeView::new(slots, 4), &mut probes)
            .unwrap();
        assert_eq!(
            rack::chassis_parts(&got).len(),
            1,
            "intra-chassis split beats the rack hop: {got:?}"
        );
    }

    #[test]
    fn all_policies_refuse_impossible_demands() {
        let mut probes = ProbeCache::new(2);
        let tiny = FreeView::new(vec![ra(0, 0)], 2);
        for p in all_policies() {
            assert!(p.place(&job(2), &tiny, &mut probes).is_none(), "{}", p.name());
        }
        assert!(resolve_policy("best-fit").is_ok());
        assert!(resolve_policy("slo-aware-pack").is_ok());
        assert!(resolve_policy("nope").is_err());
    }

    fn slice_view() -> SliceView {
        SliceView {
            slots: vec![
                SliceSlot { addr: ra(0, 1), free_sevenths: 7, shared: false },
                SliceSlot { addr: ra(0, 6), free_sevenths: 3, shared: true },
                SliceSlot { addr: ra(1, 2), free_sevenths: 7, shared: false },
            ],
            free_gpus: vec![5, 2],
        }
    }

    #[test]
    fn default_replica_placement_is_first_fit() {
        let got = FifoFirstFit.place_replica(2, &slice_view()).unwrap();
        assert_eq!(got, ra(0, 1), "first slot in global order");
        assert!(!FifoFirstFit.evict_for_slo());
    }

    #[test]
    fn slo_aware_pack_fills_shared_slots_first() {
        let got = SloAwarePack.place_replica(2, &slice_view()).unwrap();
        assert_eq!(got, ra(0, 6), "partial serving slot wins");
        // Too big for the shared slot: falls to the tightest drawer's
        // free slot, not the global first fit.
        let got4 = SloAwarePack.place_replica(4, &slice_view()).unwrap();
        assert_eq!(got4, ra(1, 2), "tightest drawer, high slot");
        assert!(SloAwarePack.evict_for_slo());
        assert!(SloAwarePack
            .place_replica(4, &SliceView { slots: vec![], free_gpus: vec![0, 0] })
            .is_none());
    }

    #[test]
    fn default_victim_is_the_cheapest_strictly_lower_tier() {
        let held: Vec<RackAddr> = (0..4).map(|s| ra(0, s)).collect();
        let rv = |id: u64, priority: u8, n: usize| RunningView {
            id,
            tenant: 0,
            priority,
            slots: &held[..n],
        };
        let running = [rv(3, 1, 4), rv(5, 1, 2), rv(7, 2, 1), rv(9, 1, 2)];
        let mut head = job(8);
        head.priority = 2;
        // Cheapest low-tier victim: 2 slots, lowest id — never the
        // equal-tier job 7 even though it is cheapest overall.
        assert_eq!(FifoFirstFit.choose_victim(&head, &running), Some(5));
        head.priority = 1;
        assert_eq!(FifoFirstFit.choose_victim(&head, &running), None, "no strictly lower tier");
    }

    #[test]
    fn default_migration_compacts_spanning_gangs_only() {
        let mut probes = ProbeCache::new(2);
        // d0 holds {2,3}+d1 holds {0,1,2,3} free; a gang on d0{0,1}+d1{4,5}
        // spans and fits whole into d1.
        let current = vec![ra(0, 0), ra(0, 1), ra(1, 4), ra(1, 5)];
        let got = FifoFirstFit.migrate(&job(4), &current, &fragmented(), &mut probes).unwrap();
        assert_eq!(got.len(), 4);
        assert!(!spans(&got), "default migration lands a whole drawer: {got:?}");
        // A single-drawer gang never moves; nor does one no drawer fits.
        let compact = vec![ra(0, 0), ra(0, 1)];
        assert!(FifoFirstFit.migrate(&job(2), &compact, &fragmented(), &mut probes).is_none());
        let wide = vec![
            ra(0, 0),
            ra(0, 1),
            ra(0, 4),
            ra(0, 5),
            ra(1, 4),
            ra(1, 5),
            ra(1, 6),
            ra(1, 7),
        ];
        assert!(FifoFirstFit.migrate(&job(8), &wide, &fragmented(), &mut probes).is_none());
    }

    #[test]
    fn all_policies_are_the_training_presets() {
        let names: Vec<&str> = all_policies().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["fifo-first-fit", "best-fit", "frag-aware", "topology-aware"]);
        assert_eq!(POLICY_NAMES[4], "slo-aware-pack", "the serving-aware policy comes last");
    }

    /// A seeded random multi-chassis free view: each of `chassis * 2`
    /// drawers keeps a random subset of its 8 slots free.
    fn random_free(rng: &mut desim::SimRng, chassis: u8) -> FreeView {
        let mut free = Vec::new();
        for c in 0..chassis {
            for d in 0..2u8 {
                for s in 0..8u8 {
                    if rng.chance(0.45) {
                        free.push(RackAddr::new(c, d, s));
                    }
                }
            }
        }
        FreeView::new(free, usize::from(chassis) * 2)
    }

    fn random_slice_view(rng: &mut desim::SimRng, chassis: u8) -> SliceView {
        let mut slots = Vec::new();
        let mut free_gpus = vec![0usize; usize::from(chassis) * 2];
        for c in 0..chassis {
            for d in 0..2u8 {
                for s in 0..8u8 {
                    if !rng.chance(0.4) {
                        continue;
                    }
                    let shared = rng.chance(0.3);
                    let sevenths = if shared { 1 + rng.index(6) as u8 } else { 7 };
                    if !shared && sevenths == 7 {
                        free_gpus[usize::from(c) * 2 + usize::from(d)] += 1;
                    }
                    slots.push(SliceSlot {
                        addr: RackAddr::new(c, d, s),
                        free_sevenths: sevenths,
                        shared,
                    });
                }
            }
        }
        SliceView { slots, free_gpus }
    }

    /// Every preset replays its hand-written policy decision-for-decision
    /// on seeded random views: same slots, same probe-cache side effects.
    #[test]
    fn presets_match_concrete_policies() {
        let concrete: [Box<dyn PlacePolicy>; 5] = [
            Box::new(FifoFirstFit),
            Box::new(BestFit),
            Box::new(FragAware),
            Box::new(TopologyAware),
            Box::new(SloAwarePack),
        ];
        for (name, old) in POLICY_NAMES.iter().zip(concrete.iter()) {
            let new = ParamPolicy::preset(name).expect("canonical name");
            assert_eq!(new.name(), *name);
            let mut rng = desim::SimRng::seed_from_u64(0xA11_0_7EE);
            for trial in 0..200 {
                let chassis = 1 + rng.index(4) as u8;
                let free = random_free(&mut rng, chassis);
                let gpus = 1 + rng.index(12) as u8;
                let bench = match rng.index(3) {
                    0 => Benchmark::ResNet50,
                    1 => Benchmark::BertLarge,
                    _ => Benchmark::MobileNetV2,
                };
                let mut j = job(gpus);
                j.benchmark = bench;
                let mut probes_old = ProbeCache::new(2);
                let mut probes_new = ProbeCache::new(2);
                assert_eq!(
                    old.place(&j, &free, &mut probes_old),
                    new.place(&j, &free, &mut probes_new),
                    "{name} trial {trial}: place diverged ({gpus} gpus, {chassis} chassis)"
                );
                assert_eq!(
                    probes_old.save_json(),
                    probes_new.save_json(),
                    "{name} trial {trial}: probe pricing side effects diverged"
                );
                let view = random_slice_view(&mut rng, chassis);
                let slice = 1 + rng.index(7) as u8;
                assert_eq!(
                    old.place_replica(slice, &view),
                    new.place_replica(slice, &view),
                    "{name} trial {trial}: place_replica diverged"
                );
                assert_eq!(old.evict_for_slo(), new.evict_for_slo(), "{name}");
                let held: Vec<(u8, Vec<RackAddr>)> = (0..rng.index(6))
                    .map(|_| {
                        let priority = rng.index(3) as u8;
                        (priority, (0..1 + rng.index(8)).map(|s| ra(0, s as u8)).collect())
                    })
                    .collect();
                let running: Vec<RunningView> = held
                    .iter()
                    .enumerate()
                    .map(|(i, (priority, slots))| RunningView {
                        id: i as u64,
                        tenant: 0,
                        priority: *priority,
                        slots,
                    })
                    .collect();
                let mut pj = job(gpus);
                pj.priority = 2;
                assert_eq!(
                    old.choose_victim(&pj, &running),
                    new.choose_victim(&pj, &running),
                    "{name} trial {trial}: choose_victim diverged"
                );
                for held in 1..=16 {
                    assert_eq!(old.shrink_floor(held, false), new.shrink_floor(held, false));
                    assert_eq!(old.shrink_floor(held, true), new.shrink_floor(held, true));
                }
                assert_eq!(old.slo_claw_band(), new.slo_claw_band());
                assert_eq!(old.defrag_margin(), new.defrag_margin());
            }
        }
    }

    #[test]
    fn params_json_round_trip() {
        for name in POLICY_NAMES {
            let p = PolicyParams::preset(name).unwrap();
            let back = PolicyParams::from_json_str(&p.to_json_string()).unwrap();
            assert_eq!(p, back, "{name} round trip");
        }
    }

    #[test]
    fn params_reject_out_of_bounds_naming_the_field() {
        let mut p = PolicyParams::best_fit();
        p.shrink_aggr = 1.5;
        match p.validate() {
            Err(ParamsError::OutOfBounds { field, .. }) => assert_eq!(field, "shrink_aggr"),
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
        assert!(ParamPolicy::new(p).is_err());
    }

    #[test]
    fn params_reject_unknown_fields() {
        let err = PolicyParams::from_json_str("{\"spill_pack\": 1, \"warp\": 9}").unwrap_err();
        assert!(matches!(&err, ParamsError::Json(e) if e.msg.contains("\"warp\"")), "{err}");
    }

    /// A free list on `chassis` chassis in the order drawn: slot bits
    /// wrap into the rack, so the list is unsorted and may repeat.
    fn free_list(chassis: u8, bits: &[u8]) -> Vec<RackAddr> {
        let span = u16::from(chassis) * 16;
        bits.iter()
            .map(|&b| {
                let b = (u16::from(b) % span) as u8;
                RackAddr::new(b / 16, (b / 8) % 2, b % 8)
            })
            .collect()
    }

    testkit::property! {
        /// The kept run starts find each drawer's slots exactly: on every
        /// drawer of a random 1–8 chassis view built from an unsorted
        /// list, its `run` is `slots()` filtered to that drawer, and the
        /// drawers past the view's last are empty.
        #[cases(256)]
        fn run_is_the_slots_of_that_drawer(
            chassis in testkit::u8_in(1..9),
            bits in testkit::vec_of(testkit::u8_in(0..128), 0..96)
        ) {
            let free = FreeView::new(free_list(chassis, &bits), usize::from(chassis) * 2);
            testkit::prop_assert!(free.slots().windows(2).all(|w| w[0] <= w[1]), "view unsorted");
            for d in 0..free.n_drawers() {
                let want: Vec<RackAddr> =
                    free.slots().iter().copied().filter(|s| s.global_drawer() == d).collect();
                testkit::prop_assert_eq!(free.run(d), want.as_slice(), "drawer {d}");
            }
            for d in free.n_drawers()..free.n_drawers() + 2 {
                testkit::prop_assert!(free.run(d).is_empty(), "drawer {d} outside the view");
            }
        }
    }

    #[test]
    fn resolve_policy_lists_valid_names() {
        let Err(err) = resolve_policy("does-not-exist") else {
            panic!("bogus name resolved")
        };
        let msg = err.to_string();
        for name in POLICY_NAMES {
            assert!(msg.contains(name), "error names the valid policies: {msg}");
        }
    }
}
