//! Property tests on the chassis state machine: arbitrary sequences of
//! composition operations can never violate the structural invariants of
//! the Falcon 4016.
//!
//! Invariants covered (testkit, 256 cases each unless noted):
//! * attachments always reference occupied slots with cabled owners;
//! * per-drawer host counts respect the mode; standard mode keeps
//!   drawer halves disjointly owned;
//! * reassignment semantics match the mode exactly;
//! * any reachable allocation exports/imports as a fixpoint;
//! * the chassis's dense per-slot tables and masks behave, call for call,
//!   like a reference that keeps the same state in ordered maps, and the
//!   MCS's grants and audit log like a reference MCS on that model (128
//!   cases).

use desim::SimTime;
use devices::{GpuSpec, StorageSpec};
use falcon::mcs::AuditEntry;
use falcon::{
    ChassisError, DrawerId, Falcon4016, HostId, HostPort, ManagementCenter, McsError, Mode, Role,
    SlotAddr, SlotDevice, UserId,
};
use std::collections::{BTreeMap, BTreeSet};
use testkit::{
    bools, one_of, prop_assert, prop_assert_eq, property, select, tuple2, tuple3, u32_in, u8_in,
    vec_of, Gen,
};

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Remove(u8, u8),
    Connect(u8, u32, u8),
    Attach(u8, u8, u32),
    Detach(u8, u8),
    Reassign(u8, u8, u32),
    Fail(u8, u8),
    Repair(u8, u8),
}

fn ops() -> Gen<(bool, Vec<Op>)> {
    let op = one_of(vec![
        tuple2(u8_in(0..2), u8_in(0..8)).map(|v| Op::Insert(v.0, v.1)),
        tuple2(u8_in(0..2), u8_in(0..8)).map(|v| Op::Remove(v.0, v.1)),
        tuple3(u8_in(0..4), u32_in(1..5), u8_in(0..2)).map(|v| Op::Connect(v.0, v.1, v.2)),
        tuple3(u8_in(0..2), u8_in(0..8), u32_in(1..5)).map(|v| Op::Attach(v.0, v.1, v.2)),
        tuple2(u8_in(0..2), u8_in(0..8)).map(|v| Op::Detach(v.0, v.1)),
        tuple3(u8_in(0..2), u8_in(0..8), u32_in(1..5)).map(|v| Op::Reassign(v.0, v.1, v.2)),
    ]);
    tuple2(bools(), vec_of(op, 1..120))
}

fn port(p: u8) -> HostPort {
    HostPort::all()[p as usize]
}

fn check_invariants(c: &Falcon4016) {
    let mode = c.mode();
    // 1. Every attachment refers to an occupied slot whose host is cabled
    //    into that drawer.
    for (slot, host) in c.attachments() {
        assert!(c.device_at(slot).is_some(), "attached slot must be occupied");
        assert!(
            c.hosts_on_drawer(slot.drawer).contains(&host),
            "owner must be cabled into the drawer"
        );
    }
    // 2. Host count per drawer respects the mode.
    for d in [DrawerId(0), DrawerId(1)] {
        assert!(c.hosts_on_drawer(d).len() <= mode.max_hosts_per_drawer());
    }
    // 3. In standard mode with two hosts, halves are disjointly owned.
    if mode == Mode::Standard {
        for d in [DrawerId(0), DrawerId(1)] {
            let hosts = c.hosts_on_drawer(d);
            if hosts.len() == 2 {
                for (slot, host) in c.attachments().filter(|(s, _)| s.drawer == d) {
                    let expected = hosts[usize::from(slot.slot >= 4)];
                    assert_eq!(host, expected, "half violation at {slot}");
                }
            }
        }
    }
}

property! {
    #[cases(256)]
    fn chassis_invariants_hold(input in ops()) {
        let (advanced, ops) = input;
        let mode = if advanced { Mode::Advanced } else { Mode::Standard };
        let mut c = Falcon4016::new("prop", mode);
        for op in ops {
            // Every operation either succeeds or returns a typed error;
            // invariants hold either way.
            let _result: Result<(), ChassisError> = match op {
                Op::Insert(d, s) => c
                    .insert_device(
                        SlotAddr::new(d, s),
                        SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
                    ),
                Op::Remove(d, s) => c.remove_device(SlotAddr::new(d, s)).map(|_| ()),
                Op::Connect(p, h, d) => c.connect_host(port(p), HostId(h), DrawerId(d)),
                Op::Attach(d, s, h) => c.attach(SlotAddr::new(d, s), HostId(h)),
                Op::Detach(d, s) => c.detach(SlotAddr::new(d, s)).map(|_| ()),
                Op::Reassign(d, s, h) => {
                    c.reassign(SlotAddr::new(d, s), HostId(h)).map(|_| ())
                }
                Op::Fail(d, s) => c.fail_slot(SlotAddr::new(d, s)),
                Op::Repair(d, s) => c.repair_slot(SlotAddr::new(d, s)),
            };
            check_invariants(&c);
        }
    }

    /// Reassignment in standard mode never succeeds; in advanced mode it
    /// succeeds exactly when the slot is attached and the target is cabled.
    #[cases(256)]
    fn reassign_semantics(input in ops()) {
        let (advanced, ops) = input;
        let mode = if advanced { Mode::Advanced } else { Mode::Standard };
        let mut c = Falcon4016::new("prop", mode);
        for op in ops {
            if let Op::Reassign(d, s, h) = op {
                let addr = SlotAddr::new(d, s);
                let was_attached = c.owner_of(addr).is_some();
                let target_cabled = c.hosts_on_drawer(DrawerId(d)).contains(&HostId(h));
                let r = c.reassign(addr, HostId(h));
                if mode == Mode::Standard {
                    prop_assert_eq!(r, Err(ChassisError::RequiresAdvancedMode));
                } else if was_attached && target_cabled {
                    prop_assert!(r.is_ok());
                    prop_assert_eq!(c.owner_of(addr), Some(HostId(h)));
                } else {
                    prop_assert!(r.is_err());
                }
            } else {
                // Drive some state transitions so reassigns have targets.
                match op {
                    Op::Insert(d, s) => {
                        let _ = c.insert_device(
                            SlotAddr::new(d, s),
                            SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
                        );
                    }
                    Op::Connect(p, h, d) => {
                        let _ = c.connect_host(port(p), HostId(h), DrawerId(d));
                    }
                    Op::Attach(d, s, h) => {
                        let _ = c.attach(SlotAddr::new(d, s), HostId(h));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Export/import of any reachable allocation round-trips.
    #[cases(256)]
    fn allocation_roundtrip(input in ops()) {
        let (advanced, ops) = input;
        let mode = if advanced { Mode::Advanced } else { Mode::Standard };
        let mut c = Falcon4016::new("prop", mode);
        for op in ops {
            match op {
                Op::Insert(d, s) => {
                    let _ = c.insert_device(
                        SlotAddr::new(d, s),
                        SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
                    );
                }
                Op::Connect(p, h, d) => {
                    let _ = c.connect_host(port(p), HostId(h), DrawerId(d));
                }
                Op::Attach(d, s, h) => {
                    let _ = c.attach(SlotAddr::new(d, s), HostId(h));
                }
                _ => {}
            }
        }
        let cfg = falcon::mgmt::AllocationConfig::export(&c);
        let parsed = falcon::mgmt::AllocationConfig::from_bytes(&cfg.to_bytes()).unwrap();
        prop_assert_eq!(&parsed, &cfg);
        // Re-importing the exported allocation onto the same chassis is a
        // no-op fixpoint.
        let before: Vec<_> = c.attachments().collect();
        parsed.import(&mut c).unwrap();
        let after: Vec<_> = c.attachments().collect();
        prop_assert_eq!(before, after);
    }
}

// ---- differential: dense tables against ordered maps ----------------------

/// The chassis's per-slot state kept in ordered maps keyed by
/// `SlotAddr`, with the chassis's semantics for every call: the reference
/// the dense tables must match call for call.
struct RefChassis {
    mode: Mode,
    slots: BTreeMap<SlotAddr, SlotDevice>,
    attachments: BTreeMap<SlotAddr, HostId>,
    failed: BTreeSet<SlotAddr>,
    ports: BTreeMap<HostPort, (HostId, DrawerId)>,
}

impl RefChassis {
    fn new(mode: Mode) -> RefChassis {
        RefChassis {
            mode,
            slots: BTreeMap::new(),
            attachments: BTreeMap::new(),
            failed: BTreeSet::new(),
            ports: BTreeMap::new(),
        }
    }

    fn hosts_on_drawer(&self, drawer: DrawerId) -> Vec<HostId> {
        let hosts: BTreeSet<HostId> = self
            .ports
            .values()
            .filter(|(_, d)| *d == drawer)
            .map(|(h, _)| *h)
            .collect();
        hosts.into_iter().collect()
    }

    fn host_connected(&self, host: HostId, drawer: DrawerId) -> bool {
        self.ports.values().any(|&(h, d)| h == host && d == drawer)
    }
}

/// The chassis calls the differential drives, on the chassis and on its
/// reference.
trait ChassisCalls {
    fn insert(&mut self, a: SlotAddr, device: SlotDevice) -> Result<(), ChassisError>;
    fn remove(&mut self, a: SlotAddr) -> Result<SlotDevice, ChassisError>;
    fn connect(&mut self, p: HostPort, h: HostId, d: DrawerId) -> Result<(), ChassisError>;
    fn attach(&mut self, a: SlotAddr, h: HostId) -> Result<(), ChassisError>;
    fn detach(&mut self, a: SlotAddr) -> Result<HostId, ChassisError>;
    fn reassign(&mut self, a: SlotAddr, h: HostId) -> Result<HostId, ChassisError>;
    fn fail(&mut self, a: SlotAddr) -> Result<(), ChassisError>;
    fn repair(&mut self, a: SlotAddr) -> Result<(), ChassisError>;
}

impl ChassisCalls for Falcon4016 {
    fn insert(&mut self, a: SlotAddr, device: SlotDevice) -> Result<(), ChassisError> {
        self.insert_device(a, device)
    }
    fn remove(&mut self, a: SlotAddr) -> Result<SlotDevice, ChassisError> {
        self.remove_device(a)
    }
    fn connect(&mut self, p: HostPort, h: HostId, d: DrawerId) -> Result<(), ChassisError> {
        self.connect_host(p, h, d)
    }
    fn attach(&mut self, a: SlotAddr, h: HostId) -> Result<(), ChassisError> {
        Falcon4016::attach(self, a, h)
    }
    fn detach(&mut self, a: SlotAddr) -> Result<HostId, ChassisError> {
        Falcon4016::detach(self, a)
    }
    fn reassign(&mut self, a: SlotAddr, h: HostId) -> Result<HostId, ChassisError> {
        Falcon4016::reassign(self, a, h)
    }
    fn fail(&mut self, a: SlotAddr) -> Result<(), ChassisError> {
        self.fail_slot(a)
    }
    fn repair(&mut self, a: SlotAddr) -> Result<(), ChassisError> {
        self.repair_slot(a)
    }
}

impl ChassisCalls for RefChassis {
    fn insert(&mut self, a: SlotAddr, device: SlotDevice) -> Result<(), ChassisError> {
        if self.slots.contains_key(&a) {
            return Err(ChassisError::SlotOccupied(a));
        }
        self.slots.insert(a, device);
        Ok(())
    }

    fn remove(&mut self, a: SlotAddr) -> Result<SlotDevice, ChassisError> {
        if let Some(&owner) = self.attachments.get(&a) {
            return Err(ChassisError::AlreadyAttached(a, owner));
        }
        self.slots.remove(&a).ok_or(ChassisError::SlotEmpty(a))
    }

    fn connect(&mut self, p: HostPort, h: HostId, d: DrawerId) -> Result<(), ChassisError> {
        if self.ports.contains_key(&p) {
            return Err(ChassisError::PortInUse(p));
        }
        let hosts = self.hosts_on_drawer(d);
        if !hosts.contains(&h) && hosts.len() >= self.mode.max_hosts_per_drawer() {
            return Err(ChassisError::TooManyHosts {
                drawer: d,
                mode: self.mode,
            });
        }
        if self.mode == Mode::Standard
            && !hosts.is_empty()
            && !hosts.contains(&h)
            && self.attachments.keys().any(|a| a.drawer == d)
        {
            return Err(ChassisError::DrawerBusy(d));
        }
        self.ports.insert(p, (h, d));
        Ok(())
    }

    fn attach(&mut self, a: SlotAddr, h: HostId) -> Result<(), ChassisError> {
        if !self.slots.contains_key(&a) {
            return Err(ChassisError::SlotEmpty(a));
        }
        if let Some(&owner) = self.attachments.get(&a) {
            return Err(ChassisError::AlreadyAttached(a, owner));
        }
        if self.failed.contains(&a) {
            return Err(ChassisError::SlotFailed(a));
        }
        if !self.host_connected(h, a.drawer) {
            return Err(ChassisError::HostNotConnected(h, a.drawer));
        }
        if self.mode == Mode::Standard {
            let hosts = self.hosts_on_drawer(a.drawer);
            if hosts.len() == 2 && h != hosts[usize::from(a.slot >= 4)] {
                return Err(ChassisError::HalfViolation { slot: a, host: h });
            }
        }
        self.attachments.insert(a, h);
        Ok(())
    }

    fn detach(&mut self, a: SlotAddr) -> Result<HostId, ChassisError> {
        self.attachments
            .remove(&a)
            .ok_or(ChassisError::NotAttached(a))
    }

    fn reassign(&mut self, a: SlotAddr, h: HostId) -> Result<HostId, ChassisError> {
        if self.mode != Mode::Advanced {
            return Err(ChassisError::RequiresAdvancedMode);
        }
        if !self.host_connected(h, a.drawer) {
            return Err(ChassisError::HostNotConnected(h, a.drawer));
        }
        let from = self.detach(a)?;
        self.attachments.insert(a, h);
        Ok(from)
    }

    fn fail(&mut self, a: SlotAddr) -> Result<(), ChassisError> {
        self.failed.insert(a);
        Ok(())
    }

    fn repair(&mut self, a: SlotAddr) -> Result<(), ChassisError> {
        self.failed.remove(&a);
        Ok(())
    }
}

/// A slot draw biased toward four hot slots, so that one slot sees
/// several calls in a row.
fn hot_slot() -> Gen<(u8, u8)> {
    one_of(vec![
        tuple2(u8_in(0..2), u8_in(0..2)),
        tuple2(u8_in(0..2), u8_in(0..8)),
    ])
}

/// A mode and a sequence of every chassis call, hosts 1–4 on four ports.
fn chassis_calls() -> Gen<(bool, Vec<Op>)> {
    let op = one_of(vec![
        hot_slot().map(|&(d, s)| Op::Insert(d, s)),
        hot_slot().map(|&(d, s)| Op::Remove(d, s)),
        tuple3(u8_in(0..4), u32_in(1..5), u8_in(0..2)).map(|&(p, h, d)| Op::Connect(p, h, d)),
        tuple2(hot_slot(), u32_in(1..5)).map(|&((d, s), h)| Op::Attach(d, s, h)),
        tuple2(hot_slot(), u32_in(1..5)).map(|&((d, s), h)| Op::Attach(d, s, h)),
        hot_slot().map(|&(d, s)| Op::Detach(d, s)),
        tuple2(hot_slot(), u32_in(1..5)).map(|&((d, s), h)| Op::Reassign(d, s, h)),
        hot_slot().map(|&(d, s)| Op::Fail(d, s)),
        hot_slot().map(|&(d, s)| Op::Repair(d, s)),
    ]);
    tuple2(bools(), vec_of(op, 1..160))
}

/// Every third slot holds an NVMe drive, so removals return either kind.
fn device(d: u8, s: u8) -> SlotDevice {
    if (d * 8 + s).is_multiple_of(3) {
        SlotDevice::Nvme(StorageSpec::intel_p4500_4tb())
    } else {
        SlotDevice::Gpu(GpuSpec::v100_pcie_16gb())
    }
}

/// Apply `op`, returning its result spelled out, errors included.
fn apply(t: &mut impl ChassisCalls, op: &Op) -> String {
    let at = SlotAddr::new;
    match *op {
        Op::Insert(d, s) => format!("{:?}", t.insert(at(d, s), device(d, s))),
        Op::Remove(d, s) => format!("{:?}", t.remove(at(d, s))),
        Op::Connect(p, h, d) => format!("{:?}", t.connect(port(p), HostId(h), DrawerId(d))),
        Op::Attach(d, s, h) => format!("{:?}", t.attach(at(d, s), HostId(h))),
        Op::Detach(d, s) => format!("{:?}", t.detach(at(d, s))),
        Op::Reassign(d, s, h) => format!("{:?}", t.reassign(at(d, s), HostId(h))),
        Op::Fail(d, s) => format!("{:?}", t.fail(at(d, s))),
        Op::Repair(d, s) => format!("{:?}", t.repair(at(d, s))),
    }
}

/// One bit per slot at `drawer·8 + slot`.
fn mask<'a>(slots: impl Iterator<Item = &'a SlotAddr>) -> u16 {
    slots.fold(0, |m, a| m | 1 << (a.drawer.0 * 8 + a.slot))
}

/// Every per-slot observable of the chassis equals the reference's.
fn same_tables(c: &Falcon4016, r: &RefChassis) -> Result<(), String> {
    for i in 0..16u8 {
        let a = SlotAddr::new(i / 8, i % 8);
        prop_assert_eq!(
            c.owner_of(a),
            r.attachments.get(&a).copied(),
            "owner_of({})",
            a
        );
        prop_assert_eq!(c.is_failed(a), r.failed.contains(&a), "is_failed({})", a);
        prop_assert_eq!(c.device_at(a), r.slots.get(&a), "device_at({})", a);
    }
    let attachments: Vec<(SlotAddr, HostId)> =
        r.attachments.iter().map(|(a, h)| (*a, *h)).collect();
    prop_assert_eq!(
        c.attachments().collect::<Vec<_>>(),
        attachments,
        "attachments()"
    );
    prop_assert_eq!(
        c.failed_slots().collect::<Vec<_>>(),
        r.failed.iter().copied().collect::<Vec<_>>(),
        "failed_slots()"
    );
    prop_assert_eq!(
        c.occupied_slots().map(|(a, _)| a).collect::<Vec<_>>(),
        r.slots.keys().copied().collect::<Vec<_>>(),
        "occupied_slots()"
    );
    for h in (1..5).map(HostId) {
        let of_h: Vec<SlotAddr> = attachments
            .iter()
            .filter(|x| x.1 == h)
            .map(|x| x.0)
            .collect();
        prop_assert_eq!(c.slots_of(h), of_h, "slots_of({:?})", h);
    }
    for d in [DrawerId(0), DrawerId(1)] {
        prop_assert_eq!(
            c.hosts_on_drawer(d),
            r.hosts_on_drawer(d),
            "hosts_on_drawer({:?})",
            d
        );
    }
    prop_assert_eq!(c.n_attachments(), r.attachments.len(), "n_attachments()");
    prop_assert_eq!(
        c.attached_mask(),
        mask(r.attachments.keys()),
        "attached_mask()"
    );
    prop_assert_eq!(c.failed_mask(), mask(r.failed.iter()), "failed_mask()");
    Ok(())
}

property! {
    /// Every chassis call, refused ones included, returns what the map
    /// reference returns and leaves every per-slot observable equal to it.
    #[cases(256)]
    fn dense_tables_match_the_map_reference(input in chassis_calls()) {
        let (advanced, ops) = input;
        let mode = if advanced { Mode::Advanced } else { Mode::Standard };
        let (mut c, mut r) = (Falcon4016::new("prop", mode), RefChassis::new(mode));
        for op in &ops {
            let (got, want) = (apply(&mut c, op), apply(&mut r, op));
            prop_assert_eq!(got, want, "result of {:?}", op);
            same_tables(&c, &r).map_err(|e| format!("after {op:?}: {e}"))?;
        }
    }
}

// ---- the MCS leg -----------------------------------------------------------

/// The MCS's grants, role checks and audit log on the map reference, with
/// the log kept as the entries `export_audit` spells out.
struct RefMcs {
    users: BTreeMap<UserId, Role>,
    grants: BTreeMap<SlotAddr, UserId>,
    chassis: RefChassis,
    log: Vec<AuditEntry>,
}

impl RefMcs {
    fn role_of(&self, user: UserId) -> Result<Role, McsError> {
        self.users
            .get(&user)
            .copied()
            .ok_or(McsError::UnknownUser(user))
    }

    fn audit(&mut self, at: SimTime, user: UserId, action: String, allowed: bool) {
        self.log.push(AuditEntry {
            at,
            user,
            action,
            allowed,
        });
    }

    fn slot_access(&self, user: UserId, slot: SlotAddr) -> Result<(), McsError> {
        match self.role_of(user)? {
            Role::Admin => Ok(()),
            Role::User => match self.grants.get(&slot) {
                Some(&owner) if owner == user => Ok(()),
                _ => Err(McsError::NotGranted(slot, user)),
            },
        }
    }

    /// An admin-only call: the role check, its audit record, then `op` on
    /// the chassis.
    fn admin<T>(
        &mut self,
        at: SimTime,
        user: UserId,
        action: String,
        refused: &'static str,
        op: impl FnOnce(&mut RefChassis) -> Result<T, McsError>,
    ) -> Result<T, McsError> {
        let allowed = self.role_of(user)? == Role::Admin;
        self.audit(at, user, action, allowed);
        if !allowed {
            return Err(McsError::PermissionDenied {
                user,
                action: refused,
            });
        }
        op(&mut self.chassis)
    }
}

#[derive(Debug, Clone)]
enum McsOp {
    Grant {
        by: u32,
        slot: (u8, u8),
        to: u32,
    },
    Attach {
        user: u32,
        slot: (u8, u8),
        host: u32,
    },
    Detach {
        user: u32,
        slot: (u8, u8),
    },
    Reassign {
        user: u32,
        slot: (u8, u8),
        host: u32,
    },
    Fail {
        user: u32,
        slot: (u8, u8),
    },
    Repair {
        user: u32,
        slot: (u8, u8),
    },
    ForceDetach {
        user: u32,
        slot: (u8, u8),
    },
}

/// Users 0 (admin), 1 and 2 (tenants) and 3 (unknown); hosts 1 and 2 are
/// cabled into both drawers, host 3 into none.
fn mcs_calls() -> Gen<(bool, u8, Vec<McsOp>)> {
    let admin_heavy = || select(vec![0, 0, 0, 1, 3]);
    let tenant = || select(vec![0, 1, 1, 2, 2, 3]);
    let host = || select(vec![1, 1, 2, 2, 3]);
    let op = one_of(vec![
        tuple3(
            select(vec![0, 0, 0, 2]),
            hot_slot(),
            select(vec![0, 1, 2, 3]),
        )
        .map(|&(by, slot, to)| McsOp::Grant { by, slot, to }),
        tuple3(tenant(), hot_slot(), host()).map(|&(user, slot, host)| McsOp::Attach {
            user,
            slot,
            host,
        }),
        tuple2(tenant(), hot_slot()).map(|&(user, slot)| McsOp::Detach { user, slot }),
        tuple3(tenant(), hot_slot(), host()).map(|&(user, slot, host)| McsOp::Reassign {
            user,
            slot,
            host,
        }),
        tuple2(admin_heavy(), hot_slot()).map(|&(user, slot)| McsOp::Fail { user, slot }),
        tuple2(admin_heavy(), hot_slot()).map(|&(user, slot)| McsOp::Repair { user, slot }),
        tuple2(admin_heavy(), hot_slot()).map(|&(user, slot)| McsOp::ForceDetach { user, slot }),
    ]);
    tuple3(bools(), u8_in(0..16), vec_of(op, 1..120))
}

/// Run `op` at `at` on the MCS and on the reference, returning both
/// results spelled out.
fn apply_mcs(mcs: &ManagementCenter, r: &mut RefMcs, at: SimTime, op: &McsOp) -> (String, String) {
    let slot = |(d, s): (u8, u8)| SlotAddr::new(d, s);
    match *op {
        McsOp::Grant { by, slot: s, to } => {
            let (by, a, to) = (UserId(by), slot(s), UserId(to));
            let got = mcs.grant(at, by, a, to);
            let want = r.admin(
                at,
                by,
                format!("grant {a} to user {}", to.0),
                "grant resources",
                |_| Ok(()),
            );
            let want = want.and_then(|()| r.role_of(to).map(|_| ()));
            if want.is_ok() {
                r.grants.insert(a, to);
            }
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::Attach {
            user,
            slot: s,
            host,
        } => {
            let (u, a, h) = (UserId(user), slot(s), HostId(host));
            let got = mcs.attach(at, u, a, h);
            let access = r.slot_access(u, a);
            r.audit(at, u, format!("attach {a} to host{host}"), access.is_ok());
            let want = access.and_then(|()| Ok(r.chassis.attach(a, h)?));
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::Detach { user, slot: s } => {
            let (u, a) = (UserId(user), slot(s));
            let got = mcs.detach(at, u, a);
            let access = r.slot_access(u, a);
            r.audit(at, u, format!("detach {a}"), access.is_ok());
            let want = access.and_then(|()| Ok(r.chassis.detach(a)?));
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::Reassign {
            user,
            slot: s,
            host,
        } => {
            let (u, a, h) = (UserId(user), slot(s), HostId(host));
            let got = mcs.reassign(at, u, a, h);
            let access = r.slot_access(u, a);
            r.audit(at, u, format!("reassign {a} to host{host}"), access.is_ok());
            let want = access.and_then(|()| Ok(r.chassis.reassign(a, h)?));
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::Fail { user, slot: s } => {
            let (u, a) = (UserId(user), slot(s));
            let got = mcs.fail_slot(at, u, a);
            let want = r.admin(at, u, format!("fail {a}"), "manage slot health", |c| {
                Ok(c.fail(a)?)
            });
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::Repair { user, slot: s } => {
            let (u, a) = (UserId(user), slot(s));
            let got = mcs.repair_slot(at, u, a);
            let want = r.admin(at, u, format!("repair {a}"), "manage slot health", |c| {
                Ok(c.repair(a)?)
            });
            (format!("{got:?}"), format!("{want:?}"))
        }
        McsOp::ForceDetach { user, slot: s } => {
            let (u, a) = (UserId(user), slot(s));
            let got = mcs.force_detach(at, u, a);
            let want = r.admin(
                at,
                u,
                format!("force-detach {a}"),
                "force-detach resources",
                |c| match c.detach(a) {
                    Ok(h) => Ok(Some(h)),
                    Err(ChassisError::NotAttached(_)) => Ok(None),
                    Err(e) => Err(e.into()),
                },
            );
            (format!("{got:?}"), format!("{want:?}"))
        }
    }
}

property! {
    /// Every MCS call returns what the reference MCS returns and leaves the
    /// chassis tables equal to the reference's; afterwards a detach by
    /// each tenant on every slot finds the grants equal, and the exported
    /// audit log equals the reference log entry for entry.
    #[cases(128)]
    fn mcs_grants_and_audit_match_the_reference(input in mcs_calls()) {
        let (advanced, empty, ops) = input;
        let mode = if advanced { Mode::Advanced } else { Mode::Standard };
        let (mut c, mut rc) = (Falcon4016::new("prop", mode), RefChassis::new(mode));
        for (p, h, d) in [(0, 1, 0), (1, 2, 0), (2, 1, 1), (3, 2, 1)] {
            c.connect_host(port(p), HostId(h), DrawerId(d)).unwrap();
            rc.connect(port(p), HostId(h), DrawerId(d)).unwrap();
        }
        for i in (0..16u8).filter(|&i| i != empty) {
            let (d, s) = (i / 8, i % 8);
            c.insert_device(SlotAddr::new(d, s), device(d, s)).unwrap();
            rc.insert(SlotAddr::new(d, s), device(d, s)).unwrap();
        }
        let mcs = ManagementCenter::new(c);
        let mut r = RefMcs {
            users: BTreeMap::new(),
            grants: BTreeMap::new(),
            chassis: rc,
            log: Vec::new(),
        };
        for (user, role) in [(0, Role::Admin), (1, Role::User), (2, Role::User)] {
            mcs.add_user(UserId(user), role);
            r.users.insert(UserId(user), role);
        }
        let mut calls = ops.clone();
        calls.extend((0..16u8).flat_map(|i| {
            [1, 2].map(|user| McsOp::Detach { user, slot: (i / 8, i % 8) })
        }));
        for (n, op) in calls.iter().enumerate() {
            let (got, want) = apply_mcs(&mcs, &mut r, SimTime::from_secs(n as u64), op);
            prop_assert_eq!(got, want, "result of {:?}", op);
            mcs.with_chassis(|c| same_tables(c, &r.chassis))
                .map_err(|e| format!("after {op:?}: {e}"))?;
            prop_assert_eq!(mcs.audit_len(UserId(0)), Ok(r.log.len()), "audit length after {:?}", op);
        }
        prop_assert_eq!(mcs.export_audit(UserId(0)), Ok(r.log.clone()), "exported audit log");
    }
}
