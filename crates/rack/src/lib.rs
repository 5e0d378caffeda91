//! `rack` — multi-chassis scale-out for the composable test bed.
//!
//! The source paper measures one Falcon 4016 chassis (16 GPUs); the GigaIO
//! follow-up ("Scaling to 32 GPUs on a Novel Composable System
//! Architecture", PAPERS.md) composes several chassis behind a FabreX-style
//! rack switch. This crate models that second fabric tier:
//!
//! * [`RackTopology`] — the supported geometry envelope (`chassis ∈ 1..=8`,
//!   each chassis the fixed Falcon 2 drawers × 8 slots), the single source
//!   of truth shared by `Scenario::validate` and error messages.
//! * [`RackAddr`] — global `chassis × drawer × slot` addressing on top of
//!   the per-chassis [`falcon::SlotAddr`].
//! * The inter-chassis tier as the analytic [`cross_chassis_stretch`] a
//!   gang pays for spanning chassis, degraded further when the rack-tier
//!   links are unhealthy. No rack link is simulated.
//! * [`Rack`] — N [`falcon::ManagementCenter`]s routed by chassis index,
//!   with its attached, failed and free GPU slots kept as 128-bit
//!   [`slot_set`]s, so a composition query never walks the chassis
//!   tables, and an allocation-free pass that re-derives the attached and
//!   failed sets from each chassis's slot masks for conservation audits
//!   that span chassis.
//!
//! A placement confined to one chassis never touches the rack tier:
//! [`cross_chassis_stretch`] is exactly `1.0` for a single part, which
//! keeps every single-chassis replay byte-identical to the pre-rack code.

use desim::SimTime;
use falcon::{Falcon4016, HostId, ManagementCenter, McsError, SlotAddr, SlotDevice, UserId};
use std::cell::Cell;
use std::fmt;

/// Largest supported rack: 8 chassis × 16 GPUs = 128 GPUs.
pub const MAX_CHASSIS: u8 = 8;

/// Drawers per Falcon 4016 chassis (fixed by the hardware).
pub const DRAWERS_PER_CHASSIS: u8 = 2;

/// Slots per drawer (fixed by the hardware).
pub const SLOTS_PER_DRAWER: u8 = 8;

/// Bits per chassis in a [`slot_set`]: one per slot.
const SLOTS_PER_CHASSIS: u32 = DRAWERS_PER_CHASSIS as u32 * SLOTS_PER_DRAWER as u32;

/// Fractional iteration-time stretch per *additional* chassis a gang
/// spans. Calibrated to the GigaIO 32-GPU scaling curve: all-reduce over
/// the rack tier costs roughly a third more per extra hop than staying
/// inside one chassis.
pub const CROSS_CHASSIS_STRETCH: f64 = 0.35;

/// Iteration-time multiplier for a placement split into `n_parts`
/// per-chassis parts under rack-tier link health `health_pct` (100 =
/// healthy). A single-part placement returns exactly `1.0` regardless of
/// rack health — it never crosses the rack switch.
pub fn cross_chassis_stretch(n_parts: usize, health_pct: u8) -> f64 {
    if n_parts <= 1 {
        return 1.0;
    }
    let health = health_pct.clamp(1, 100) as f64;
    (1.0 + CROSS_CHASSIS_STRETCH * (n_parts as f64 - 1.0)) * (100.0 / health)
}

/// A rack geometry: how many chassis, and the per-chassis drawer/slot
/// shape. The only *runnable* shapes are `chassis ∈ 1..=MAX_CHASSIS` of
/// stock Falcon 4016 chassis; [`RackTopology::is_supported`] plus
/// [`supported_envelope`] are the single source of truth for that gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackTopology {
    pub chassis: u8,
    pub drawers_per_chassis: u8,
    pub slots_per_drawer: u8,
}

/// Human-readable description of the runnable envelope, shared by
/// `Scenario::validate` error messages so it can never go stale.
pub fn supported_envelope() -> String {
    format!(
        "1..={MAX_CHASSIS} chassis x {DRAWERS_PER_CHASSIS} drawers x {SLOTS_PER_DRAWER} slots"
    )
}

impl RackTopology {
    /// The paper's test bed: one Falcon 4016.
    pub const SINGLE: RackTopology = RackTopology {
        chassis: 1,
        drawers_per_chassis: DRAWERS_PER_CHASSIS,
        slots_per_drawer: SLOTS_PER_DRAWER,
    };

    /// A rack of `chassis` stock Falcon 4016s.
    pub const fn with_chassis(chassis: u8) -> RackTopology {
        RackTopology {
            chassis,
            drawers_per_chassis: DRAWERS_PER_CHASSIS,
            slots_per_drawer: SLOTS_PER_DRAWER,
        }
    }

    /// Whether this geometry is inside the runnable envelope.
    pub fn is_supported(&self) -> bool {
        (1..=MAX_CHASSIS).contains(&self.chassis)
            && self.drawers_per_chassis == DRAWERS_PER_CHASSIS
            && self.slots_per_drawer == SLOTS_PER_DRAWER
    }

    /// Total GPU slots across the rack.
    pub fn total_gpus(&self) -> usize {
        self.chassis as usize * self.drawers_per_chassis as usize * self.slots_per_drawer as usize
    }

    /// Total drawers across the rack (the unit of placement locality).
    pub fn n_drawers(&self) -> usize {
        self.chassis as usize * self.drawers_per_chassis as usize
    }
}

impl Default for RackTopology {
    fn default() -> Self {
        RackTopology::SINGLE
    }
}

impl fmt::Display for RackTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.chassis, self.drawers_per_chassis, self.slots_per_drawer
        )
    }
}

/// A global slot address: which chassis, then the chassis-local
/// [`SlotAddr`]. Ordering is chassis-major, matching the derived field
/// order, so sorted slot lists group by chassis then drawer then slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackAddr {
    pub chassis: u8,
    pub slot: SlotAddr,
}

impl RackAddr {
    pub fn new(chassis: u8, drawer: u8, slot: u8) -> RackAddr {
        RackAddr {
            chassis,
            slot: SlotAddr::new(drawer, slot),
        }
    }

    /// Chassis-local address lifted into chassis 0 — the single-chassis
    /// embedding used everywhere the old 16-GPU code paths survive.
    pub const fn local(slot: SlotAddr) -> RackAddr {
        RackAddr { chassis: 0, slot }
    }

    /// Index of this slot's drawer in rack-global drawer numbering
    /// (`chassis * 2 + drawer`), the axis views and policies reason over.
    pub fn global_drawer(&self) -> usize {
        self.chassis as usize * DRAWERS_PER_CHASSIS as usize + self.slot.drawer.0 as usize
    }

    /// Whether this slot is in `set` (see [`slot_set`]).
    pub fn in_set(&self, set: u128) -> bool {
        set & 1 << self.bit() != 0
    }

    /// This slot's bit in a [`slot_set`].
    fn bit(&self) -> u32 {
        debug_assert!(self.chassis < MAX_CHASSIS, "slot set overflow");
        u32::from(self.chassis) * SLOTS_PER_CHASSIS + self.slot.index() as u32
    }

    /// The slot at bit `bit` of a slot set (inverse of [`bit`](Self::bit)).
    fn from_bit(bit: u32) -> RackAddr {
        let (slots, drawers) = (u32::from(SLOTS_PER_DRAWER), u32::from(DRAWERS_PER_CHASSIS));
        let global_drawer = bit / slots;
        let (chassis, drawer) = (global_drawer / drawers, global_drawer % drawers);
        RackAddr::new(chassis as u8, drawer as u8, (bit % slots) as u8)
    }
}

impl fmt::Display for RackAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}{}", self.chassis, self.slot)
    }
}

/// The global drawers `slots` touch, one bit per drawer (bit `d` is
/// global drawer `d`). A supported rack has at most 16 drawers.
pub fn drawer_mask(slots: impl IntoIterator<Item = RackAddr>) -> u64 {
    slots.into_iter().fold(0, |m, s| {
        debug_assert!(s.global_drawer() < 64, "drawer mask overflow");
        m | 1 << s.global_drawer()
    })
}

/// The slots as a set, one bit per slot at `chassis·16 + drawer·8 +
/// slot`: ascending bits follow `RackAddr` order, and the largest
/// supported rack fills exactly one `u128`.
pub fn slot_set(slots: impl IntoIterator<Item = RackAddr>) -> u128 {
    slots.into_iter().fold(0, |m, s| m | 1 << s.bit())
}

/// The slots of a [`slot_set`], ascending in `RackAddr` order (the
/// inverse of [`slot_set`]).
pub fn slots_in(mut set: u128) -> impl Iterator<Item = RackAddr> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let bit = set.trailing_zeros();
            set &= set - 1;
            RackAddr::from_bit(bit)
        })
    })
}

/// Number of distinct global drawers a slot list touches (1 = the gang
/// peers over one PCIe switch ASIC; more = it pays root-complex or
/// rack-tier hops).
pub fn drawers_spanned(slots: &[RackAddr]) -> usize {
    drawer_mask(slots.iter().copied()).count_ones() as usize
}

/// Split a slot list into its per-chassis parts, chassis-ascending: the
/// unit the probe cache prices (entries are per-chassis-pure) and the
/// part count [`cross_chassis_stretch`] charges for.
pub fn chassis_parts(slots: &[RackAddr]) -> Vec<(u8, Vec<SlotAddr>)> {
    let mut sorted = slots.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u8, Vec<SlotAddr>)> = Vec::new();
    for a in sorted {
        match out.last_mut() {
            Some((c, part)) if *c == a.chassis => part.push(a.slot),
            _ => out.push((a.chassis, vec![a.slot])),
        }
    }
    out
}

/// N managed chassis behind the rack switch. Control-plane operations are
/// routed to the owning chassis's [`ManagementCenter`]; rack-wide views
/// (attached and failed slot sets, attachment count, audit volume)
/// aggregate across chassis so conservation and audit invariants can
/// span the whole rack.
///
/// The rack also keeps three [slot sets](slot_set): the slots holding a
/// GPU (fixed at construction), the attached slots and the failed slots.
/// The five methods that change a slot's attachment or health update
/// them right after the MCS call succeeds, and no other path reaches a
/// chassis mutably, so [`free_gpus`](Self::free_gpus) answers from the
/// sets alone, and [`table_sets`](Self::table_sets) re-derives the
/// attached and failed sets from the chassis tables for audits to
/// compare. A `Rack` is never shared across threads, so `Cell`s suffice.
pub struct Rack {
    chassis: Vec<ManagementCenter>,
    gpus: u128,
    attached: Cell<u128>,
    failed: Cell<u128>,
}

impl Rack {
    /// Compose pre-built managed chassis (chassis index = position). The
    /// slot sets start from the chassis tables as given.
    pub fn new(chassis: Vec<ManagementCenter>) -> Rack {
        assert!(
            !chassis.is_empty() && chassis.len() <= MAX_CHASSIS as usize,
            "rack must hold 1..={MAX_CHASSIS} chassis"
        );
        let mut gpus = 0;
        for (c, mcs) in chassis.iter().enumerate() {
            mcs.with_chassis(|ch| {
                gpus |= slot_set(
                    ch.occupied_slots()
                        .filter(|(_, d)| matches!(d, SlotDevice::Gpu(_)))
                        .map(|(s, _)| RackAddr { chassis: c as u8, slot: s }),
                );
            });
        }
        let rack = Rack {
            chassis,
            gpus,
            attached: Cell::new(0),
            failed: Cell::new(0),
        };
        let (attached, failed) = rack.table_sets();
        rack.attached.set(attached);
        rack.failed.set(failed);
        rack
    }

    pub fn n_chassis(&self) -> usize {
        self.chassis.len()
    }

    /// The management center of one chassis. Private: a mutating call
    /// through it would bypass the slot sets.
    fn mcs(&self, chassis: u8) -> &ManagementCenter {
        &self.chassis[chassis as usize]
    }

    /// Register a user on every chassis's management center.
    pub fn add_user(&self, user: UserId, role: falcon::Role) {
        for mcs in &self.chassis {
            mcs.add_user(user, role);
        }
    }

    pub fn grant(
        &self,
        at: SimTime,
        admin: UserId,
        addr: RackAddr,
        to: UserId,
    ) -> Result<(), McsError> {
        self.mcs(addr.chassis).grant(at, admin, addr.slot, to)
    }

    pub fn attach(
        &self,
        at: SimTime,
        user: UserId,
        addr: RackAddr,
        host: HostId,
    ) -> Result<(), McsError> {
        self.mcs(addr.chassis).attach(at, user, addr.slot, host)?;
        self.attached.update(|m| m | 1 << addr.bit());
        Ok(())
    }

    pub fn detach(&self, at: SimTime, user: UserId, addr: RackAddr) -> Result<HostId, McsError> {
        let host = self.mcs(addr.chassis).detach(at, user, addr.slot)?;
        self.attached.update(|m| m & !(1 << addr.bit()));
        Ok(host)
    }

    pub fn force_detach(
        &self,
        at: SimTime,
        admin: UserId,
        addr: RackAddr,
    ) -> Result<Option<HostId>, McsError> {
        let host = self.mcs(addr.chassis).force_detach(at, admin, addr.slot)?;
        self.attached.update(|m| m & !(1 << addr.bit()));
        Ok(host)
    }

    pub fn fail_slot(&self, at: SimTime, admin: UserId, addr: RackAddr) -> Result<(), McsError> {
        self.mcs(addr.chassis).fail_slot(at, admin, addr.slot)?;
        self.failed.update(|m| m | 1 << addr.bit());
        Ok(())
    }

    pub fn repair_slot(&self, at: SimTime, admin: UserId, addr: RackAddr) -> Result<(), McsError> {
        self.mcs(addr.chassis).repair_slot(at, admin, addr.slot)?;
        self.failed.update(|m| m & !(1 << addr.bit()));
        Ok(())
    }

    /// The GPU slots neither attached nor failed, in `RackAddr` order —
    /// the composition query, answered from the kept slot sets without
    /// touching a chassis.
    pub fn free_gpus(&self) -> Vec<RackAddr> {
        let free = self.gpus & !self.attached.get() & !self.failed.get();
        let mut slots = Vec::with_capacity(free.count_ones() as usize);
        slots.extend(slots_in(free));
        slots
    }

    /// The kept set of attached slots (see [`slot_set`]); audits compare it
    /// with the first of [`table_sets`](Self::table_sets).
    pub fn attached_set(&self) -> u128 {
        self.attached.get()
    }

    /// The kept set of failed slots (see [`slot_set`]); audits compare it
    /// with the second of [`table_sets`](Self::table_sets).
    pub fn failed_set(&self) -> u128 {
        self.failed.get()
    }

    /// The attached and failed slot sets re-derived from every chassis
    /// table, allocating nothing: the ground truth the kept sets mirror,
    /// and what conservation audits compare bookings with. Each chassis's
    /// attached and failed masks, read under its lock, fill its 16 bits.
    pub fn table_sets(&self) -> (u128, u128) {
        let (mut attached, mut failed) = (0, 0);
        for (c, mcs) in self.chassis.iter().enumerate() {
            let shift = c as u32 * SLOTS_PER_CHASSIS;
            mcs.with_chassis(|ch| {
                attached |= u128::from(ch.attached_mask()) << shift;
                failed |= u128::from(ch.failed_mask()) << shift;
            });
        }
        (attached, failed)
    }

    /// Read-only access to one chassis (views, inventory).
    pub fn with_chassis<R>(&self, chassis: u8, f: impl FnOnce(&Falcon4016) -> R) -> R {
        self.mcs(chassis).with_chassis(f)
    }

    /// Total attachments across the rack, read from each chassis table's
    /// count — the cheap side of the scheduler's amortized conservation
    /// check.
    pub fn n_attachments(&self) -> usize {
        self.chassis
            .iter()
            .map(|mcs| mcs.with_chassis(Falcon4016::n_attachments))
            .sum()
    }

    /// Total audit-log entries across every chassis, counted without
    /// copying a log — the rack-wide audit invariant surface (admin-only,
    /// like each per-chassis export).
    pub fn audit_len(&self, admin: UserId) -> Result<usize, McsError> {
        let mut n = 0;
        for mcs in &self.chassis {
            n += mcs.audit_len(admin)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::GpuSpec;
    use falcon::{DrawerId, HostPort, Mode, Role, SlotDevice};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn two_chassis_rack() -> Rack {
        let mut chassis = Vec::new();
        for c in 0..2u8 {
            let mut falcon = Falcon4016::new(format!("falcon{c}"), Mode::Advanced);
            falcon
                .connect_host(HostPort::H1, HostId(1), DrawerId(0))
                .unwrap();
            for s in 0..8 {
                falcon
                    .insert_device(SlotAddr::new(0, s), SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()))
                    .unwrap();
            }
            chassis.push(ManagementCenter::new(falcon));
        }
        let rack = Rack::new(chassis);
        rack.add_user(UserId(0), Role::Admin);
        rack.add_user(UserId(1), Role::User);
        rack
    }

    #[test]
    fn supported_envelope_matches_validate() {
        assert!(RackTopology::SINGLE.is_supported());
        for c in 1..=MAX_CHASSIS {
            assert!(RackTopology::with_chassis(c).is_supported());
        }
        assert!(!RackTopology::with_chassis(0).is_supported());
        assert!(!RackTopology::with_chassis(MAX_CHASSIS + 1).is_supported());
        let mut odd = RackTopology::with_chassis(2);
        odd.drawers_per_chassis = 3;
        assert!(!odd.is_supported());
        // The envelope string is derived from the same constants the gate
        // checks — it names both bounds that gate enforces.
        let env = supported_envelope();
        assert!(env.contains(&format!("1..={MAX_CHASSIS} chassis")));
        assert!(env.contains("2 drawers x 8 slots"));
    }

    #[test]
    fn geometry_arithmetic() {
        assert_eq!(RackTopology::SINGLE.total_gpus(), 16);
        assert_eq!(RackTopology::with_chassis(8).total_gpus(), 128);
        assert_eq!(RackTopology::with_chassis(4).n_drawers(), 8);
        assert_eq!(RackAddr::new(3, 1, 5).global_drawer(), 7);
        assert_eq!(RackAddr::new(3, 1, 5).to_string(), "c3d1s5");
        let gang = [RackAddr::new(0, 1, 0), RackAddr::new(0, 1, 7), RackAddr::new(7, 1, 2)];
        assert_eq!(drawer_mask(gang), 1 << 1 | 1 << 15);
        assert_eq!(drawers_spanned(&gang), 2);
        // Chassis-major ordering groups sorted addresses per chassis.
        let mut v = vec![RackAddr::new(1, 0, 0), RackAddr::new(0, 1, 7)];
        v.sort_unstable();
        assert_eq!(v[0].chassis, 0);
    }

    #[test]
    fn slot_set_bits_follow_rack_addr_order() {
        assert_eq!(RackAddr::new(0, 0, 0).bit(), 0);
        assert_eq!(RackAddr::new(1, 0, 3).bit(), 19);
        assert_eq!(RackAddr::new(7, 1, 7).bit(), 127);
        assert_eq!(RackAddr::from_bit(127), RackAddr::new(7, 1, 7));
        let all: Vec<RackAddr> = (0..128).map(RackAddr::from_bit).collect();
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "ascending bits are ascending addresses"
        );
        assert!(all.iter().enumerate().all(|(i, a)| a.bit() == i as u32));
        assert_eq!(slot_set(all.iter().rev().copied()), u128::MAX);
        assert!(slots_in(u128::MAX).eq(all.iter().copied()));
        let some = [RackAddr::new(0, 1, 2), RackAddr::new(5, 0, 7), RackAddr::new(7, 1, 7)];
        assert!(slots_in(slot_set(some)).eq(some), "slots_in inverts slot_set");
        assert_eq!(slots_in(0).count(), 0);
        assert!(all.iter().all(|a| a.in_set(slot_set(some)) == some.contains(a)));

        // The rack's free list comes out in RackAddr order, chassis-major.
        let rack = two_chassis_rack();
        let mut expect: Vec<RackAddr> = (0..2)
            .flat_map(|c| (0..8).map(move |s| RackAddr::new(c, 0, s)))
            .collect();
        assert_eq!(rack.free_gpus(), expect);
        let (a, b) = (RackAddr::new(1, 0, 2), RackAddr::new(0, 0, 5));
        rack.grant(t(0), UserId(0), a, UserId(1)).unwrap();
        rack.attach(t(0), UserId(1), a, HostId(1)).unwrap();
        rack.fail_slot(t(0), UserId(0), b).unwrap();
        expect.retain(|&s| s != a && s != b);
        assert_eq!(rack.free_gpus(), expect);
        assert_eq!(rack.attached_set(), 1 << a.bit());
        assert_eq!(rack.failed_set(), 1 << b.bit());
        assert_eq!(rack.table_sets(), (1 << a.bit(), 1 << b.bit()));
    }

    #[test]
    fn stretch_is_identity_for_one_part_and_monotone_beyond() {
        assert_eq!(cross_chassis_stretch(0, 100), 1.0);
        assert_eq!(cross_chassis_stretch(1, 100), 1.0);
        // Single-chassis placements ignore rack health entirely.
        assert_eq!(cross_chassis_stretch(1, 25), 1.0);
        let two = cross_chassis_stretch(2, 100);
        let three = cross_chassis_stretch(3, 100);
        assert!(two > 1.0 && three > two);
        // Degraded rack links stretch spanning gangs further.
        assert!(cross_chassis_stretch(2, 50) > two);
    }

    #[test]
    fn routing_and_rack_wide_views() {
        let rack = two_chassis_rack();
        let a0 = RackAddr::new(0, 0, 0);
        let a1 = RackAddr::new(1, 0, 0);
        rack.grant(t(0), UserId(0), a0, UserId(1)).unwrap();
        rack.grant(t(0), UserId(0), a1, UserId(1)).unwrap();
        rack.attach(t(1), UserId(1), a0, HostId(1)).unwrap();
        rack.attach(t(1), UserId(1), a1, HostId(1)).unwrap();
        // Same local SlotAddr, two distinct global attachments.
        assert_eq!(rack.table_sets(), (slot_set([a0, a1]), 0));
        assert_eq!(rack.n_attachments(), 2);
        // Failure on chassis 1 does not leak into chassis 0's view.
        rack.fail_slot(t(2), UserId(0), a1).unwrap();
        assert_eq!(rack.table_sets().1, slot_set([a1]));
        rack.with_chassis(0, |c| assert!(!c.is_failed(a1.slot)));
        rack.repair_slot(t(3), UserId(0), a1).unwrap();
        assert_eq!(rack.table_sets().1, 0);
        // Audit volume aggregates across chassis: grants+attach+fail+repair.
        assert_eq!(rack.audit_len(UserId(0)).unwrap(), 6);
        assert_eq!(rack.detach(t(4), UserId(1), a1).unwrap(), HostId(1));
        assert_eq!(rack.force_detach(t(5), UserId(0), a0).unwrap(), Some(HostId(1)));
        assert_eq!(rack.force_detach(t(5), UserId(0), a0).unwrap(), None);
    }
}
