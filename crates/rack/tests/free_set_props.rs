//! Property test on the rack's kept slot sets: after any sequence of
//! grant, attach, detach, force-detach, fail and repair calls — refused
//! ones included — on 1–8 chassis, the free list the rack answers from
//! its sets equals a walk over the chassis tables, and the kept attached
//! and failed sets, like the ones `Rack::table_sets` re-derives for
//! audits, equal a slot-by-slot walk over the tables they mirror.
//!
//! The draws are biased toward a few hot slots so that one slot sees
//! several calls in a row. A coverage tally asserts that the cases
//! reach the corners where a set could drift from its table:
//! fail-while-attached, repair-while-attached, force-detach of a free
//! slot, attach refused on a failed slot, and detach refused for a
//! non-owner.

use desim::SimTime;
use devices::{GpuSpec, StorageSpec};
use falcon::{
    ChassisError, DrawerId, Falcon4016, HostId, HostPort, ManagementCenter, McsError, Mode, Role,
    SlotAddr, SlotDevice, UserId,
};
use rack::{slot_set, Rack, RackAddr};
use std::cell::Cell;
use testkit::{
    bools, just, one_of, prop_assert_eq, select, tuple2, tuple3, tuple4, u8_in, vec_of, Gen,
};

/// Users 1 and 2 are tenants, 0 the admin; 3 is unknown to every MCS.
const USERS: [u32; 4] = [0, 1, 2, 3];

#[derive(Debug, Clone, Copy)]
enum Call {
    Grant { by: u32, to: u32 },
    Attach { user: u32, host: u32 },
    Detach { user: u32 },
    ForceDetach { user: u32 },
    Fail { user: u32 },
    Repair { user: u32 },
}

/// A raw slot draw: chassis (reduced modulo the rack size), drawer, slot.
type Addr = (u8, u8, u8);

fn addr() -> Gen<Addr> {
    tuple3(
        one_of(vec![just(0), u8_in(0..8)]),
        u8_in(0..2),
        one_of(vec![u8_in(0..2), u8_in(0..8)]),
    )
}

fn call() -> Gen<Call> {
    // Mostly the admin for the admin-only calls, mostly tenants for the
    // self-service ones, so both successes and refusals are common.
    let admin_heavy = || select(vec![0, 0, 0, 1, 3]);
    one_of(vec![
        tuple2(select(vec![0, 0, 0, 2]), select(USERS.to_vec()))
            .map(|&(by, to)| Call::Grant { by, to }),
        tuple2(select(vec![0, 1, 1, 2, 2]), select(vec![1, 1, 2, 2, 9]))
            .map(|&(user, host)| Call::Attach { user, host }),
        select(USERS.to_vec()).map(|&user| Call::Detach { user }),
        admin_heavy().map(|&user| Call::ForceDetach { user }),
        admin_heavy().map(|&user| Call::Fail { user }),
        admin_heavy().map(|&user| Call::Repair { user }),
    ])
}

/// Chassis count, layout seed, whether the chassis enter the rack with
/// an attachment and a failed slot, and the calls.
type Case = (u8, u8, bool, Vec<(Addr, Call)>);

fn cases() -> Gen<Case> {
    tuple4(
        u8_in(1..9),
        u8_in(0..16),
        bools(),
        vec_of(tuple2(addr(), call()), 1..160),
    )
}

/// A rack of `n` advanced-mode chassis. Every slot holds a GPU except
/// one NVMe drive and one empty slot placed by `layout`, so the GPU set
/// is not every slot. With `pre`, each chassis enters the rack with an
/// attachment and a failed slot already in its tables.
fn build(n: u8, layout: u8, pre: bool) -> Rack {
    let mut centers = Vec::new();
    for c in 0..n {
        let mut ch = Falcon4016::new(format!("falcon{c}"), Mode::Advanced);
        for (port, host, drawer) in [
            (HostPort::H1, 1, 0),
            (HostPort::H2, 1, 1),
            (HostPort::H3, 2, 0),
            (HostPort::H4, 2, 1),
        ] {
            ch.connect_host(port, HostId(host), DrawerId(drawer))
                .unwrap();
        }
        let nvme = (layout + c) % 16;
        let empty = (layout + c + 5) % 16;
        for i in 0..16u8 {
            let slot = SlotAddr::new(i / 8, i % 8);
            if i == nvme {
                ch.insert_device(slot, SlotDevice::Nvme(StorageSpec::intel_p4500_4tb()))
                    .unwrap();
            } else if i != empty {
                ch.insert_device(slot, SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()))
                    .unwrap();
            }
        }
        if pre {
            let _ = ch.attach(SlotAddr::new(1, 7), HostId(2));
            ch.fail_slot(SlotAddr::new(0, 6)).unwrap();
        }
        centers.push(ManagementCenter::new(ch));
    }
    let rack = Rack::new(centers);
    rack.add_user(UserId(0), Role::Admin);
    rack.add_user(UserId(1), Role::User);
    rack.add_user(UserId(2), Role::User);
    rack
}

/// The free GPU slots re-derived from every chassis table.
fn walk_free(rack: &Rack) -> Vec<RackAddr> {
    let mut free = Vec::new();
    for c in 0..rack.n_chassis() as u8 {
        rack.with_chassis(c, |ch| {
            free.extend(
                ch.occupied_slots()
                    .filter(|&(s, d)| {
                        matches!(d, SlotDevice::Gpu(_))
                            && ch.owner_of(s).is_none()
                            && !ch.is_failed(s)
                    })
                    .map(|(s, _)| RackAddr {
                        chassis: c,
                        slot: s,
                    }),
            );
        });
    }
    free
}

/// The attached and failed slot sets re-derived slot by slot from every
/// chassis table.
fn walk_sets(rack: &Rack) -> (u128, u128) {
    let (mut attached, mut failed) = (0, 0);
    for c in 0..rack.n_chassis() as u8 {
        rack.with_chassis(c, |ch| {
            for i in 0..16u8 {
                let slot = SlotAddr::new(i / 8, i % 8);
                let bit = slot_set([RackAddr { chassis: c, slot }]);
                if ch.owner_of(slot).is_some() {
                    attached |= bit;
                }
                if ch.is_failed(slot) {
                    failed |= bit;
                }
            }
        });
    }
    (attached, failed)
}

fn names(slots: &[RackAddr]) -> Vec<String> {
    slots.iter().map(RackAddr::to_string).collect()
}

fn check(rack: &Rack) -> Result<(), String> {
    prop_assert_eq!(
        names(&rack.free_gpus()),
        names(&walk_free(rack)),
        "free list diverged from the tables"
    );
    let (attached, failed) = walk_sets(rack);
    prop_assert_eq!(rack.attached_set(), attached, "kept attached set diverged");
    prop_assert_eq!(rack.failed_set(), failed, "kept failed set diverged");
    prop_assert_eq!(rack.table_sets(), (attached, failed), "table_sets diverged");
    prop_assert_eq!(rack.n_attachments(), attached.count_ones() as usize);
    Ok(())
}

/// How often the cases reached each corner the sets must survive.
#[derive(Default)]
struct Reached {
    fail_attached: Cell<u32>,
    repair_attached: Cell<u32>,
    force_detach_free: Cell<u32>,
    attach_failed: Cell<u32>,
    detach_non_owner: Cell<u32>,
}

fn bump(c: &Cell<u32>) {
    c.set(c.get() + 1);
}

#[test]
fn kept_free_set_matches_chassis_tables() {
    let reached = Reached::default();
    testkit::run_property("free_set_props::kept_free_set", 128, &cases(), |input| {
        let (n, layout, pre, calls) = input;
        let rack = build(*n, *layout, *pre);
        check(&rack)?;
        let at = SimTime::from_secs(1);
        for &((c, d, s), call) in calls {
            let a = RackAddr::new(c % n, d, s);
            let was_attached = rack.with_chassis(a.chassis, |ch| ch.owner_of(a.slot).is_some());
            match call {
                Call::Grant { by, to } => {
                    let _ = rack.grant(at, UserId(by), a, UserId(to));
                }
                Call::Attach { user, host } => {
                    let r = rack.attach(at, UserId(user), a, HostId(host));
                    if matches!(r, Err(McsError::Chassis(ChassisError::SlotFailed(_)))) {
                        bump(&reached.attach_failed);
                    }
                }
                Call::Detach { user } => {
                    if matches!(
                        rack.detach(at, UserId(user), a),
                        Err(McsError::NotGranted(..))
                    ) {
                        bump(&reached.detach_non_owner);
                    }
                }
                Call::ForceDetach { user } => {
                    if rack.force_detach(at, UserId(user), a) == Ok(None) {
                        bump(&reached.force_detach_free);
                    }
                }
                Call::Fail { user } => {
                    if rack.fail_slot(at, UserId(user), a).is_ok() && was_attached {
                        bump(&reached.fail_attached);
                    }
                }
                Call::Repair { user } => {
                    if rack.repair_slot(at, UserId(user), a).is_ok() && was_attached {
                        bump(&reached.repair_attached);
                    }
                }
            }
            check(&rack).map_err(|e| format!("after {call:?} on {a}: {e}"))?;
        }
        Ok(())
    });
    for (what, n) in [
        ("fail-while-attached", &reached.fail_attached),
        ("repair-while-attached", &reached.repair_attached),
        ("force-detach of a free slot", &reached.force_detach_free),
        ("attach refused on a failed slot", &reached.attach_failed),
        ("detach refused for a non-owner", &reached.detach_non_owner),
    ] {
        assert!(n.get() > 0, "the draws never reached {what}");
    }
}
