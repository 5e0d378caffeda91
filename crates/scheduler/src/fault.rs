//! Failure injection: seeded, JSON-serializable schedules of hardware
//! events applied mid-replay inside [`crate::cluster`]'s event loop.
//!
//! The composable pitch (paper §I, GigaIO's scale-out study) is that the
//! management plane can re-compose resources *around* hardware events;
//! the Alibaba-PAI characterization shows shared GPU clusters spend real
//! time in degraded states. A [`FaultPlan`] makes those states simulable
//! and measurable: drawer outages, single-slot deaths, PCIe link
//! degradation to a fraction of bandwidth, and BMC thermal-threshold
//! trips that force a drawer evacuation. Every fault heals after its
//! `duration`, so any finite plan leaves a finite trace drainable — the
//! chaos property suite leans on that.
//!
//! Recovery semantics (DESIGN §10): each fault is an MCS-audited
//! `fail`/`force-detach` sequence; evacuated jobs are re-placed by the
//! active policy, pay [`RECOMPOSE_LATENCY`], lose the iterations since
//! their last checkpoint ([`CHECKPOINT_ITERS`]), and may be elastically
//! shrunk when the surviving capacity cannot hold their old allocation.

use desim::json::{Fields, FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimRng, SimTime};
use rack::RackTopology;
use std::fmt;

/// Re-composition latency a fault-displaced job pays before it resumes
/// making progress: the attach/rescan/NCCL-re-init cost of composing a
/// replacement placement. Charged only on fault recovery — initial
/// placements model steady-state composition, which the paper's
/// scheduler-level metrics already absorb into queue delay.
pub const RECOMPOSE_LATENCY: Dur = Dur::from_millis(2_000);

/// Jobs checkpoint every this many iterations (counted from their current
/// placement). An evacuation loses the iterations since the last
/// checkpoint; they are re-run on the replacement placement.
pub const CHECKPOINT_ITERS: u64 = 8;

/// The hardware event kinds the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Every slot in the drawer fails at once (power/midplane outage).
    DrawerOutage { drawer: u8 },
    /// One slot dies (GPU falls off the bus).
    SlotDeath { drawer: u8, slot: u8 },
    /// The drawer's PCIe fabric degrades to `pct` percent of its
    /// bandwidth (flaky retimer, lane downtraining). Jobs keep their
    /// slots but run at degraded-fabric iteration rates.
    LinkDegrade { drawer: u8, pct: u8 },
    /// The drawer's cooling fan fails; the BMC trips its critical
    /// threshold under load and the management plane evacuates the
    /// drawer. Same capacity loss as an outage, but *triggered through*
    /// the BMC thermal model rather than asserted directly.
    ThermalTrip { drawer: u8 },
    /// The *rack-tier* FabreX links degrade to `pct` percent: every gang
    /// spanning chassis runs at a stretched iteration rate while
    /// single-chassis placements are untouched. Strikes the rack switch,
    /// not any one chassis, so it carries no drawer.
    RackLinkDegrade { pct: u8 },
}

impl FaultKind {
    /// The drawer the event lands in, `None` for rack-tier events.
    pub fn drawer(&self) -> Option<u8> {
        match *self {
            FaultKind::DrawerOutage { drawer }
            | FaultKind::SlotDeath { drawer, .. }
            | FaultKind::LinkDegrade { drawer, .. }
            | FaultKind::ThermalTrip { drawer } => Some(drawer),
            FaultKind::RackLinkDegrade { .. } => None,
        }
    }

    fn kind_label(&self) -> &'static str {
        match self {
            FaultKind::DrawerOutage { .. } => "drawer-outage",
            FaultKind::SlotDeath { .. } => "slot-death",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::ThermalTrip { .. } => "thermal-trip",
            FaultKind::RackLinkDegrade { .. } => "rack-link-degrade",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::DrawerOutage { drawer } => write!(f, "drawer-outage d{drawer}"),
            FaultKind::SlotDeath { drawer, slot } => write!(f, "slot-death d{drawer}s{slot}"),
            FaultKind::LinkDegrade { drawer, pct } => {
                write!(f, "link-degrade d{drawer} to {pct}%")
            }
            FaultKind::ThermalTrip { drawer } => write!(f, "thermal-trip d{drawer}"),
            FaultKind::RackLinkDegrade { pct } => write!(f, "rack-link-degrade to {pct}%"),
        }
    }
}

/// One injected event: a fault that strikes at `at` and heals (repair,
/// power-back, retimer reseat) at `at + duration`. `chassis` selects
/// which chassis a drawer/slot event lands in (always 0 on the paper's
/// single-chassis test bed; ignored by rack-tier events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub chassis: u8,
    pub kind: FaultKind,
    pub duration: Dur,
}

impl FaultEvent {
    pub fn heals_at(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A named, ordered schedule of injected events. Overlapping events
/// compose: a slot is failed while *any* active fault covers it, and a
/// drawer's link health is the minimum over its active degrades.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub name: String,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan — the fault-free replay.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events in strike order (stable on ties), the order the event loop
    /// consumes them in.
    pub fn sorted(mut self) -> FaultPlan {
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Validate the plan against the paper's single-chassis envelope.
    /// `Err` is the first offending event's description.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_for(&RackTopology::SINGLE)
    }

    /// Validate the plan against a rack topology: chassis indices must
    /// exist, drawer/slot addresses must fit the per-chassis shape, and
    /// rack-tier events need a rack tier (≥ 2 chassis) to strike.
    pub fn validate_for(&self, topo: &RackTopology) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.chassis >= topo.chassis {
                return Err(format!("event {i}: chassis {} outside the rack", e.chassis));
            }
            if let Some(d) = e.kind.drawer() {
                if d >= topo.drawers_per_chassis {
                    return Err(format!("event {i}: drawer {d} outside the chassis"));
                }
            }
            if let FaultKind::SlotDeath { slot, .. } = e.kind {
                if slot >= topo.slots_per_drawer {
                    return Err(format!("event {i}: slot {slot} outside the drawer"));
                }
            }
            if let FaultKind::LinkDegrade { pct, .. } | FaultKind::RackLinkDegrade { pct } = e.kind
            {
                if pct == 0 || pct >= 100 {
                    return Err(format!("event {i}: degrade to {pct}% is not a degrade"));
                }
            }
            if let FaultKind::RackLinkDegrade { .. } = e.kind {
                if topo.chassis < 2 {
                    return Err(format!(
                        "event {i}: rack-link-degrade needs an inter-chassis tier (>= 2 chassis)"
                    ));
                }
            }
            if e.duration.is_zero() {
                return Err(format!("event {i}: zero-duration fault has no effect"));
            }
        }
        Ok(())
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    pub fn from_json_str(s: &str) -> Result<FaultPlan, JsonError> {
        FaultPlan::from_json(&Value::parse(s)?)
    }

    /// Normalize same-target capacity collisions: random draws can land
    /// two strikes of the same `(chassis, kind)` at the same instant, or
    /// so that one's repair coincides exactly with the other's strike —
    /// which would schedule a heal for a slot struck again in the same
    /// tick. Each colliding pair merges into one event spanning both, to
    /// a fixpoint, so no capacity target is ever repaired and re-struck
    /// at one instant. Link degrades are untouched (overlaps compose via
    /// min-health) and collision-free plans pass through bit-identically.
    pub fn dedup_capacity_collisions(mut self) -> FaultPlan {
        fn is_capacity(k: FaultKind) -> bool {
            !matches!(k, FaultKind::LinkDegrade { .. } | FaultKind::RackLinkDegrade { .. })
        }
        'outer: loop {
            for i in 0..self.events.len() {
                for j in (i + 1)..self.events.len() {
                    let (a, b) = (self.events[i], self.events[j]);
                    if a.chassis != b.chassis || a.kind != b.kind || !is_capacity(a.kind) {
                        continue;
                    }
                    if a.at == b.at || a.heals_at() == b.at || b.heals_at() == a.at {
                        let at = a.at.min(b.at);
                        let heal = a.heals_at().max(b.heals_at());
                        self.events[i] =
                            FaultEvent { at, chassis: a.chassis, kind: a.kind, duration: heal.since(at) };
                        self.events.remove(j);
                        continue 'outer;
                    }
                }
            }
            return self.sorted();
        }
    }
}

impl ToJson for FaultEvent {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("at_ns", self.at.to_json()),
            ("kind", Value::str(self.kind.kind_label())),
        ];
        // Chassis 0 is elided so single-chassis plans keep their exact
        // pre-rack byte shape; rack-tier events carry no drawer at all.
        if self.chassis != 0 {
            fields.push(("chassis", Value::from_u64(u64::from(self.chassis))));
        }
        if let Some(d) = self.kind.drawer() {
            fields.push(("drawer", Value::from_u64(u64::from(d))));
        }
        if let FaultKind::SlotDeath { slot, .. } = self.kind {
            fields.push(("slot", Value::from_u64(u64::from(slot))));
        }
        if let FaultKind::LinkDegrade { pct, .. } | FaultKind::RackLinkDegrade { pct } = self.kind
        {
            fields.push(("pct", Value::from_u64(u64::from(pct))));
        }
        fields.push(("duration_ns", self.duration.to_json()));
        Value::obj(fields)
    }
}

impl FromJson for FaultEvent {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut f = Fields::new(v)?;
        let at = f.req("at_ns")?;
        let kind: String = f.req("kind")?;
        let chassis = f.opt("chassis")?.unwrap_or(0);
        let kind = match kind.as_str() {
            "drawer-outage" => FaultKind::DrawerOutage { drawer: f.req("drawer")? },
            "slot-death" => FaultKind::SlotDeath { drawer: f.req("drawer")?, slot: f.req("slot")? },
            "link-degrade" => {
                FaultKind::LinkDegrade { drawer: f.req("drawer")?, pct: f.req("pct")? }
            }
            "thermal-trip" => FaultKind::ThermalTrip { drawer: f.req("drawer")? },
            "rack-link-degrade" => FaultKind::RackLinkDegrade { pct: f.req("pct")? },
            other => return Err(JsonError::decode(format!("unknown fault kind \"{other}\""))),
        };
        let duration = f.req("duration_ns")?;
        f.end()?;
        Ok(FaultEvent { at, chassis, kind, duration })
    }
}

desim::json_record! {
    FaultPlan;
    name: "name",
    events: "events",
}

/// Degrade levels the seeded generator draws from. A small discrete set
/// keeps the probe cache bounded: every (benchmark, shape, health) triple
/// a replay prices comes from these levels.
pub const DEGRADE_LEVELS: [u8; 3] = [25, 50, 75];

/// A seeded random plan of `n_events` faults striking within
/// `horizon` and healing within a quarter of it — the generator the chaos
/// harness and `repro faults` sweeps build on. Pure function of its
/// arguments.
pub fn seeded_fault_plan(n_events: usize, horizon: Dur, seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xFA17);
    let events = (0..n_events)
        .map(|_| {
            let drawer = rng.index(2) as u8;
            let kind = match rng.index(4) {
                0 => FaultKind::DrawerOutage { drawer },
                1 => FaultKind::SlotDeath { drawer, slot: rng.index(8) as u8 },
                2 => FaultKind::LinkDegrade {
                    drawer,
                    pct: DEGRADE_LEVELS[rng.index(DEGRADE_LEVELS.len())],
                },
                _ => FaultKind::ThermalTrip { drawer },
            };
            let at = SimTime::from_secs_f64(rng.unit() * horizon.as_secs_f64());
            let duration =
                Dur::from_secs_f64((0.05 + 0.2 * rng.unit()) * horizon.as_secs_f64());
            FaultEvent { at, chassis: 0, kind, duration }
        })
        .collect();
    FaultPlan { name: format!("seeded-{n_events}x{seed:#x}"), events }
        .sorted()
        .dedup_capacity_collisions()
}

/// A seeded random plan over a whole rack: like [`seeded_fault_plan`] but
/// events land on a random chassis and the kind mix includes rack-tier
/// link degradation when the topology has an inter-chassis tier. A
/// separate RNG stream (and generator) so the single-chassis generator's
/// draw order — which pinned goldens depend on — never changes.
pub fn seeded_rack_fault_plan(
    n_events: usize,
    horizon: Dur,
    seed: u64,
    topo: &RackTopology,
) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x2ACC_FA17);
    let kinds = if topo.chassis >= 2 { 5 } else { 4 };
    let events = (0..n_events)
        .map(|_| {
            let chassis = rng.index(topo.chassis as usize) as u8;
            let drawer = rng.index(topo.drawers_per_chassis as usize) as u8;
            let kind = match rng.index(kinds) {
                0 => FaultKind::DrawerOutage { drawer },
                1 => FaultKind::SlotDeath {
                    drawer,
                    slot: rng.index(topo.slots_per_drawer as usize) as u8,
                },
                2 => FaultKind::LinkDegrade {
                    drawer,
                    pct: DEGRADE_LEVELS[rng.index(DEGRADE_LEVELS.len())],
                },
                3 => FaultKind::ThermalTrip { drawer },
                _ => FaultKind::RackLinkDegrade {
                    pct: DEGRADE_LEVELS[rng.index(DEGRADE_LEVELS.len())],
                },
            };
            let at = SimTime::from_secs_f64(rng.unit() * horizon.as_secs_f64());
            let duration =
                Dur::from_secs_f64((0.05 + 0.2 * rng.unit()) * horizon.as_secs_f64());
            FaultEvent { at, chassis, kind, duration }
        })
        .collect();
    FaultPlan { name: format!("seeded-rack-{n_events}x{seed:#x}"), events }
        .sorted()
        .dedup_capacity_collisions()
}

/// The pinned 3-event plan behind `repro faults`, the `cluster_faults`
/// golden, and the recovery bench replay: a drawer-1 outage mid-trace
/// (fifo-first-fit's drawer-spanning gangs straddle it, so the sloppy
/// packer loses more jobs and queues longer to recover than the
/// single-drawer packers), a half-bandwidth degrade of drawer 0 while the
/// survivors crowd onto it (running jobs slow down but keep their slots),
/// and a thermal trip of drawer 0 late (the BMC path). Times sit inside
/// the active window of both the 8-job quick trace and the 20-job
/// standard trace.
pub fn paper_fault_plan() -> FaultPlan {
    FaultPlan {
        name: "paper-3ev".into(),
        events: vec![
            FaultEvent {
                at: SimTime::from_secs(16),
                chassis: 0,
                kind: FaultKind::DrawerOutage { drawer: 1 },
                duration: Dur::from_secs(10),
            },
            FaultEvent {
                at: SimTime::from_secs(18),
                chassis: 0,
                kind: FaultKind::LinkDegrade { drawer: 0, pct: 50 },
                duration: Dur::from_secs(12),
            },
            FaultEvent {
                at: SimTime::from_secs(28),
                chassis: 0,
                kind: FaultKind::ThermalTrip { drawer: 0 },
                duration: Dur::from_secs(8),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_json_round_trips() {
        let plan = seeded_fault_plan(5, Dur::from_secs(60), 0xABCD);
        let back = FaultPlan::from_json_str(&plan.to_json_string()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json_string(), plan.to_json_string());
    }

    #[test]
    fn generator_is_seeded_and_sorted() {
        let a = seeded_fault_plan(8, Dur::from_secs(40), 1);
        assert_eq!(a, seeded_fault_plan(8, Dur::from_secs(40), 1));
        assert_ne!(a, seeded_fault_plan(8, Dur::from_secs(40), 2));
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_envelope_events() {
        let bad = |kind| FaultPlan {
            name: "bad".into(),
            events: vec![FaultEvent { at: SimTime::ZERO, chassis: 0, kind, duration: Dur::from_secs(1) }],
        };
        assert!(bad(FaultKind::DrawerOutage { drawer: 2 }).validate().is_err());
        assert!(bad(FaultKind::SlotDeath { drawer: 0, slot: 8 }).validate().is_err());
        assert!(bad(FaultKind::LinkDegrade { drawer: 0, pct: 0 }).validate().is_err());
        assert!(bad(FaultKind::LinkDegrade { drawer: 0, pct: 100 }).validate().is_err());
        let zero_dur = FaultPlan {
            name: "z".into(),
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                chassis: 0,
                kind: FaultKind::SlotDeath { drawer: 0, slot: 0 },
                duration: Dur::ZERO,
            }],
        };
        assert!(zero_dur.validate().is_err());
        assert!(paper_fault_plan().validate().is_ok());
    }

    /// No capacity event may heal at the exact instant another event of
    /// the same target strikes, and no target may be struck twice at one
    /// instant — the invariant `dedup_capacity_collisions` establishes.
    fn assert_no_capacity_collisions(plan: &FaultPlan) {
        let caps: Vec<&FaultEvent> = plan
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::LinkDegrade { .. } | FaultKind::RackLinkDegrade { .. }
                )
            })
            .collect();
        for (i, a) in caps.iter().enumerate() {
            for b in &caps[i + 1..] {
                if a.chassis != b.chassis || a.kind != b.kind {
                    continue;
                }
                assert_ne!(a.at, b.at, "duplicate strike of {} at one tick", a.kind);
                assert_ne!(a.heals_at(), b.at, "{} repaired and re-struck at one tick", a.kind);
                assert_ne!(b.heals_at(), a.at, "{} repaired and re-struck at one tick", a.kind);
            }
        }
    }

    #[test]
    fn dedup_merges_same_tick_strike_and_repair_pairs() {
        let ev = |at_s: u64, dur_s: u64| FaultEvent {
            at: SimTime::from_secs(at_s),
            chassis: 0,
            kind: FaultKind::SlotDeath { drawer: 1, slot: 3 },
            duration: Dur::from_secs(dur_s),
        };
        // b strikes exactly when a heals (merge), c duplicates b's strike
        // tick, and d chains off c's heal: the fixpoint leaves two
        // *overlapping* events (which compose fine) with no same-tick
        // repair/strike pair left.
        let plan = FaultPlan {
            name: "collide".into(),
            events: vec![ev(0, 10), ev(10, 5), ev(10, 8), ev(18, 4)],
        }
        .dedup_capacity_collisions();
        assert_eq!(plan.events.len(), 2, "collisions merge to a fixpoint");
        assert_eq!(plan.events[0].at, SimTime::ZERO);
        assert_eq!(plan.events[0].heals_at(), SimTime::from_secs(15));
        assert_eq!(plan.events[1].at, SimTime::from_secs(10));
        assert_eq!(plan.events[1].heals_at(), SimTime::from_secs(22));
        assert_no_capacity_collisions(&plan);
        // A pure strike/heal chain collapses to a single spanning event.
        let chain = FaultPlan { name: "chain".into(), events: vec![ev(0, 10), ev(10, 5), ev(15, 3)] }
            .dedup_capacity_collisions();
        assert_eq!(chain.events.len(), 1);
        assert_eq!(chain.events[0].at, SimTime::ZERO);
        assert_eq!(chain.events[0].heals_at(), SimTime::from_secs(18));
        // Distinct targets at the same tick are NOT merged.
        let other = FaultEvent {
            at: SimTime::from_secs(10),
            chassis: 0,
            kind: FaultKind::SlotDeath { drawer: 0, slot: 3 },
            duration: Dur::from_secs(5),
        };
        let plan = FaultPlan { name: "distinct".into(), events: vec![ev(0, 10), other] }
            .dedup_capacity_collisions();
        assert_eq!(plan.events.len(), 2);
    }

    #[test]
    fn seeded_generators_never_repair_into_a_same_tick_strike() {
        let topo = RackTopology { chassis: 4, drawers_per_chassis: 2, slots_per_drawer: 8 };
        for seed in 0..64 {
            // Dense plans over a short horizon to force collisions.
            assert_no_capacity_collisions(&seeded_fault_plan(24, Dur::from_secs(30), seed));
            assert_no_capacity_collisions(&seeded_rack_fault_plan(
                32,
                Dur::from_secs(30),
                seed,
                &topo,
            ));
        }
    }

    #[test]
    fn unknown_kind_rejected_at_parse() {
        let text = paper_fault_plan().to_json_string().replace("drawer-outage", "meteor-strike");
        assert!(FaultPlan::from_json_str(&text).is_err());
    }
}
