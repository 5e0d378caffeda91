//! The Management Center Server (paper §II-D).
//!
//! In production "the best practice is not to allow users of the
//! environment to directly access the low level, physical devices"; the
//! MCS is the higher-level service that "allows users to control their own
//! environment, yet not have any access to other users' resources". The
//! model: users with roles, per-slot grants, permission-checked
//! attach/detach/reassign, and a tamper-evident audit log. It is
//! thread-safe (`std::sync::RwLock`) so concurrent tenant sessions can
//! drive it — exercised by a multi-threaded test.

use crate::chassis::{ChassisError, Falcon4016, HostId, SlotAddr, SLOTS};
use desim::SimTime;
use std::sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;

/// A tenant identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Access level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full control, including other users' resources and log export.
    Admin,
    /// Self-service control of owned resources only.
    User,
}

/// MCS operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McsError {
    UnknownUser(UserId),
    PermissionDenied {
        user: UserId,
        action: &'static str,
    },
    NotGranted(SlotAddr, UserId),
    Chassis(ChassisError),
}

impl fmt::Display for McsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McsError::UnknownUser(u) => write!(f, "unknown user {}", u.0),
            McsError::PermissionDenied { user, action } => {
                write!(f, "user {} may not {action}", user.0)
            }
            McsError::NotGranted(s, u) => write!(f, "slot {s} is not granted to user {}", u.0),
            McsError::Chassis(e) => write!(f, "chassis: {e}"),
        }
    }
}

impl std::error::Error for McsError {}

impl From<ChassisError> for McsError {
    fn from(e: ChassisError) -> Self {
        McsError::Chassis(e)
    }
}

/// One audit-log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    pub at: SimTime,
    pub user: UserId,
    pub action: String,
    pub allowed: bool,
}

/// What one audited call asked for. The log keeps it typed and formats
/// it into [`AuditEntry::action`] only when exported.
#[derive(Clone, Copy)]
enum AuditOp {
    Grant(SlotAddr, UserId),
    Attach(SlotAddr, HostId),
    Detach(SlotAddr),
    ForceDetach(SlotAddr),
    Fail(SlotAddr),
    Repair(SlotAddr),
    Reassign(SlotAddr, HostId),
}

impl fmt::Display for AuditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AuditOp::Grant(slot, to) => write!(f, "grant {slot} to user {}", to.0),
            AuditOp::Attach(slot, host) => write!(f, "attach {slot} to host{}", host.0),
            AuditOp::Detach(slot) => write!(f, "detach {slot}"),
            AuditOp::ForceDetach(slot) => write!(f, "force-detach {slot}"),
            AuditOp::Fail(slot) => write!(f, "fail {slot}"),
            AuditOp::Repair(slot) => write!(f, "repair {slot}"),
            AuditOp::Reassign(slot, to) => write!(f, "reassign {slot} to host{}", to.0),
        }
    }
}

/// One stored audit record: an [`AuditEntry`] before its action is
/// formatted.
struct AuditRecord {
    at: SimTime,
    user: UserId,
    op: AuditOp,
    allowed: bool,
}

struct McsState {
    users: BTreeMap<UserId, Role>,
    /// Which user each slot is granted to (resource ownership), by
    /// [`SlotAddr::index`].
    grants: [Option<UserId>; SLOTS],
    chassis: Falcon4016,
    audit: Vec<AuditRecord>,
}

/// The Management Center Server.
pub struct ManagementCenter {
    state: RwLock<McsState>,
}

impl ManagementCenter {
    pub fn new(chassis: Falcon4016) -> ManagementCenter {
        ManagementCenter {
            state: RwLock::new(McsState {
                users: BTreeMap::new(),
                grants: [None; SLOTS],
                chassis,
                audit: Vec::new(),
            }),
        }
    }

    pub fn add_user(&self, user: UserId, role: Role) {
        self.state.write().unwrap().users.insert(user, role);
    }

    fn role_of(state: &McsState, user: UserId) -> Result<Role, McsError> {
        state
            .users
            .get(&user)
            .copied()
            .ok_or(McsError::UnknownUser(user))
    }

    fn audit(state: &mut McsState, at: SimTime, user: UserId, op: AuditOp, allowed: bool) {
        state.audit.push(AuditRecord {
            at,
            user,
            op,
            allowed,
        });
    }

    /// Admin grants a slot to a user (resource assignment).
    pub fn grant(
        &self,
        at: SimTime,
        admin: UserId,
        slot: SlotAddr,
        to: UserId,
    ) -> Result<(), McsError> {
        let mut st = self.state.write().unwrap();
        let role = Self::role_of(&st, admin)?;
        let allowed = role == Role::Admin;
        Self::audit(&mut st, at, admin, AuditOp::Grant(slot, to), allowed);
        if !allowed {
            return Err(McsError::PermissionDenied {
                user: admin,
                action: "grant resources",
            });
        }
        Self::role_of(&st, to)?;
        st.grants[slot.checked_index()?] = Some(to);
        Ok(())
    }

    fn check_slot_access(
        state: &McsState,
        user: UserId,
        slot: SlotAddr,
    ) -> Result<(), McsError> {
        match Self::role_of(state, user)? {
            Role::Admin => Ok(()),
            Role::User => match state.grants[slot.checked_index()?] {
                Some(owner) if owner == user => Ok(()),
                _ => Err(McsError::NotGranted(slot, user)),
            },
        }
    }

    /// Attach a granted slot to a host, as `user`.
    pub fn attach(
        &self,
        at: SimTime,
        user: UserId,
        slot: SlotAddr,
        host: HostId,
    ) -> Result<(), McsError> {
        let mut st = self.state.write().unwrap();
        let access = Self::check_slot_access(&st, user, slot);
        Self::audit(&mut st, at, user, AuditOp::Attach(slot, host), access.is_ok());
        access?;
        st.chassis.attach(slot, host)?;
        Ok(())
    }

    /// Detach a granted slot, as `user`.
    pub fn detach(&self, at: SimTime, user: UserId, slot: SlotAddr) -> Result<HostId, McsError> {
        let mut st = self.state.write().unwrap();
        let access = Self::check_slot_access(&st, user, slot);
        Self::audit(&mut st, at, user, AuditOp::Detach(slot), access.is_ok());
        access?;
        Ok(st.chassis.detach(slot)?)
    }

    /// Admin-only: mark a slot failed after a hardware event (drawer
    /// outage, slot death, BMC critical trip). Audited; the chassis keeps
    /// any existing attachment so [`force_detach`](Self::force_detach) can
    /// evacuate it.
    pub fn fail_slot(&self, at: SimTime, admin: UserId, slot: SlotAddr) -> Result<(), McsError> {
        self.admin_slot_op(at, admin, slot, AuditOp::Fail, Falcon4016::fail_slot)
    }

    /// Admin-only: clear a slot's failed state (repair / power-back).
    pub fn repair_slot(&self, at: SimTime, admin: UserId, slot: SlotAddr) -> Result<(), McsError> {
        self.admin_slot_op(at, admin, slot, AuditOp::Repair, Falcon4016::repair_slot)
    }

    /// Admin-only forced detach — the evacuation path for failure
    /// recovery, bypassing per-user grants (the admin acts on behalf of
    /// whichever tenant held the slot). Returns the host the slot was
    /// attached to, or `None` if it was already free. Audited as
    /// "force-detach".
    pub fn force_detach(
        &self,
        at: SimTime,
        admin: UserId,
        slot: SlotAddr,
    ) -> Result<Option<HostId>, McsError> {
        let mut st = self.state.write().unwrap();
        let role = Self::role_of(&st, admin)?;
        let allowed = role == Role::Admin;
        Self::audit(&mut st, at, admin, AuditOp::ForceDetach(slot), allowed);
        if !allowed {
            return Err(McsError::PermissionDenied {
                user: admin,
                action: "force-detach resources",
            });
        }
        match st.chassis.detach(slot) {
            Ok(host) => Ok(Some(host)),
            Err(ChassisError::NotAttached(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn admin_slot_op(
        &self,
        at: SimTime,
        admin: UserId,
        slot: SlotAddr,
        audited: fn(SlotAddr) -> AuditOp,
        op: impl FnOnce(&mut Falcon4016, SlotAddr) -> Result<(), ChassisError>,
    ) -> Result<(), McsError> {
        let mut st = self.state.write().unwrap();
        let role = Self::role_of(&st, admin)?;
        let allowed = role == Role::Admin;
        Self::audit(&mut st, at, admin, audited(slot), allowed);
        if !allowed {
            return Err(McsError::PermissionDenied {
                user: admin,
                action: "manage slot health",
            });
        }
        op(&mut st.chassis, slot)?;
        Ok(())
    }

    /// Dynamically reassign a granted slot (advanced mode only).
    pub fn reassign(
        &self,
        at: SimTime,
        user: UserId,
        slot: SlotAddr,
        to: HostId,
    ) -> Result<HostId, McsError> {
        let mut st = self.state.write().unwrap();
        let access = Self::check_slot_access(&st, user, slot);
        Self::audit(&mut st, at, user, AuditOp::Reassign(slot, to), access.is_ok());
        access?;
        Ok(st.chassis.reassign(slot, to)?)
    }

    /// Export the audit log (admin feature, mirroring the GUI's
    /// "define event logs for export"), formatting each record's action.
    pub fn export_audit(&self, user: UserId) -> Result<Vec<AuditEntry>, McsError> {
        let st = self.state.read().unwrap();
        Self::check_export(&st, user)?;
        Ok(st
            .audit
            .iter()
            .map(|r| AuditEntry {
                at: r.at,
                user: r.user,
                action: r.op.to_string(),
                allowed: r.allowed,
            })
            .collect())
    }

    /// How many entries [`export_audit`](Self::export_audit) would
    /// return, counted without copying the log. Admin-only, like the
    /// export.
    pub fn audit_len(&self, user: UserId) -> Result<usize, McsError> {
        let st = self.state.read().unwrap();
        Self::check_export(&st, user)?;
        Ok(st.audit.len())
    }

    fn check_export(state: &McsState, user: UserId) -> Result<(), McsError> {
        if Self::role_of(state, user)? != Role::Admin {
            return Err(McsError::PermissionDenied {
                user,
                action: "export the audit log",
            });
        }
        Ok(())
    }

    /// Run a read-only closure against the chassis (views, inventory).
    pub fn with_chassis<R>(&self, f: impl FnOnce(&Falcon4016) -> R) -> R {
        f(&self.state.read().unwrap().chassis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chassis::{DrawerId, HostPort, Mode, SlotDevice};
    use devices::GpuSpec;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn setup() -> ManagementCenter {
        let mut c = Falcon4016::new("falcon0", Mode::Advanced);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, HostId(2), DrawerId(0)).unwrap();
        for s in 0..8 {
            c.insert_device(
                SlotAddr::new(0, s),
                SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
            )
            .unwrap();
        }
        let mcs = ManagementCenter::new(c);
        mcs.add_user(UserId(0), Role::Admin);
        mcs.add_user(UserId(1), Role::User);
        mcs.add_user(UserId(2), Role::User);
        mcs
    }

    #[test]
    fn users_only_touch_granted_resources() {
        let mcs = setup();
        let slot = SlotAddr::new(0, 0);
        mcs.grant(t(0), UserId(0), slot, UserId(1)).unwrap();
        // User 1 can attach their slot; user 2 cannot.
        mcs.attach(t(1), UserId(1), slot, HostId(1)).unwrap();
        let err = mcs.detach(t(2), UserId(2), slot).unwrap_err();
        assert_eq!(err, McsError::NotGranted(slot, UserId(2)));
        // Owner can detach.
        assert_eq!(mcs.detach(t(3), UserId(1), slot).unwrap(), HostId(1));
    }

    #[test]
    fn only_admin_grants() {
        let mcs = setup();
        let err = mcs
            .grant(t(0), UserId(1), SlotAddr::new(0, 1), UserId(1))
            .unwrap_err();
        assert!(matches!(err, McsError::PermissionDenied { .. }));
    }

    #[test]
    fn grant_to_unknown_user_fails() {
        let mcs = setup();
        let err = mcs
            .grant(t(0), UserId(0), SlotAddr::new(0, 1), UserId(99))
            .unwrap_err();
        assert_eq!(err, McsError::UnknownUser(UserId(99)));
    }

    #[test]
    fn audit_records_denied_attempts() {
        let mcs = setup();
        let _ = mcs.detach(t(1), UserId(2), SlotAddr::new(0, 3));
        let log = mcs.export_audit(UserId(0)).unwrap();
        assert_eq!(log.len(), 1);
        assert!(!log[0].allowed);
        assert_eq!(log[0].user, UserId(2));
    }

    #[test]
    fn audit_export_is_admin_only() {
        let mcs = setup();
        assert!(matches!(
            mcs.export_audit(UserId(1)),
            Err(McsError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn audit_len_counts_the_export_and_is_admin_only() {
        let mcs = setup();
        assert_eq!(mcs.audit_len(UserId(0)).unwrap(), 0);
        let slot = SlotAddr::new(0, 5);
        mcs.grant(t(0), UserId(0), slot, UserId(1)).unwrap();
        mcs.attach(t(1), UserId(1), slot, HostId(1)).unwrap();
        let _ = mcs.detach(t(2), UserId(2), slot);
        let _ = mcs.grant(t(3), UserId(1), slot, UserId(1));
        assert_eq!(
            mcs.audit_len(UserId(0)).unwrap(),
            mcs.export_audit(UserId(0)).unwrap().len()
        );
        assert_eq!(mcs.audit_len(UserId(0)).unwrap(), 4);
        // A non-admin gets the export's own refusal, not a count.
        assert_eq!(
            mcs.audit_len(UserId(1)),
            Err(mcs.export_audit(UserId(1)).unwrap_err())
        );
        assert!(matches!(
            mcs.audit_len(UserId(1)),
            Err(McsError::PermissionDenied {
                user: UserId(1),
                ..
            })
        ));
        assert_eq!(
            mcs.audit_len(UserId(9)),
            Err(McsError::UnknownUser(UserId(9)))
        );
    }

    #[test]
    fn audit_export_spells_out_every_op_allowed_and_denied() {
        let mcs = setup();
        let slot = SlotAddr::new(0, 6);
        // Denied: user 1 is no admin, user 2 holds no grant.
        let _ = mcs.grant(t(0), UserId(1), slot, UserId(2));
        let _ = mcs.attach(t(1), UserId(2), slot, HostId(1));
        let _ = mcs.reassign(t(2), UserId(2), slot, HostId(2));
        let _ = mcs.detach(t(3), UserId(2), slot);
        let _ = mcs.fail_slot(t(4), UserId(1), slot);
        let _ = mcs.force_detach(t(5), UserId(1), slot);
        let _ = mcs.repair_slot(t(6), UserId(1), slot);
        // Allowed.
        mcs.grant(t(7), UserId(0), slot, UserId(1)).unwrap();
        mcs.attach(t(8), UserId(1), slot, HostId(1)).unwrap();
        mcs.reassign(t(9), UserId(1), slot, HostId(2)).unwrap();
        mcs.detach(t(10), UserId(1), slot).unwrap();
        mcs.fail_slot(t(11), UserId(0), slot).unwrap();
        mcs.force_detach(t(12), UserId(0), slot).unwrap();
        mcs.repair_slot(t(13), UserId(0), slot).unwrap();
        let entry = |s: u64, user: u32, action: &str, allowed: bool| AuditEntry {
            at: t(s),
            user: UserId(user),
            action: action.to_string(),
            allowed,
        };
        let want = vec![
            entry(0, 1, "grant d0s6 to user 2", false),
            entry(1, 2, "attach d0s6 to host1", false),
            entry(2, 2, "reassign d0s6 to host2", false),
            entry(3, 2, "detach d0s6", false),
            entry(4, 1, "fail d0s6", false),
            entry(5, 1, "force-detach d0s6", false),
            entry(6, 1, "repair d0s6", false),
            entry(7, 0, "grant d0s6 to user 1", true),
            entry(8, 1, "attach d0s6 to host1", true),
            entry(9, 1, "reassign d0s6 to host2", true),
            entry(10, 1, "detach d0s6", true),
            entry(11, 0, "fail d0s6", true),
            entry(12, 0, "force-detach d0s6", true),
            entry(13, 0, "repair d0s6", true),
        ];
        assert_eq!(mcs.export_audit(UserId(0)).unwrap(), want);
        assert_eq!(mcs.audit_len(UserId(0)).unwrap(), want.len());
    }

    #[test]
    fn out_of_range_slots_are_refused_after_their_audit_record() {
        let mcs = setup();
        let bad = SlotAddr {
            drawer: DrawerId(0),
            slot: 8,
        };
        let invalid = McsError::Chassis(ChassisError::InvalidSlot { drawer: 0, slot: 8 });
        assert_eq!(
            mcs.grant(t(0), UserId(0), bad, UserId(1)),
            Err(invalid.clone())
        );
        assert_eq!(mcs.force_detach(t(1), UserId(0), bad), Err(invalid.clone()));
        assert_eq!(
            mcs.attach(t(2), UserId(0), bad, HostId(1)),
            Err(invalid.clone())
        );
        assert_eq!(
            mcs.attach(t(3), UserId(1), bad, HostId(1)),
            Err(invalid.clone())
        );
        assert_eq!(mcs.fail_slot(t(4), UserId(0), bad), Err(invalid.clone()));
        assert_eq!(mcs.repair_slot(t(5), UserId(0), bad), Err(invalid.clone()));
        assert_eq!(
            mcs.reassign(t(6), UserId(0), bad, HostId(2)),
            Err(invalid.clone())
        );
        assert_eq!(mcs.detach(t(7), UserId(1), bad), Err(invalid));
        // Role checks still come first.
        assert_eq!(
            mcs.grant(t(8), UserId(9), bad, UserId(1)),
            Err(McsError::UnknownUser(UserId(9)))
        );
        assert!(matches!(
            mcs.grant(t(9), UserId(1), bad, UserId(1)),
            Err(McsError::PermissionDenied { .. })
        ));
        // Every call a known user made left its record; the admin's passed
        // the role check, the tenant's could not name a grant.
        let log = mcs.export_audit(UserId(0)).unwrap();
        let allowed: Vec<bool> = log.iter().map(|e| e.allowed).collect();
        assert_eq!(
            allowed,
            [true, true, true, false, true, true, true, false, false]
        );
        assert_eq!(log[0].action, "grant d0s8 to user 1");
        // Nothing landed on d1s0, the slot a d0s8 index would alias.
        mcs.with_chassis(|c| {
            assert_eq!((c.attached_mask(), c.failed_mask()), (0, 0));
        });
    }

    #[test]
    fn chassis_errors_propagate() {
        let mcs = setup();
        let slot = SlotAddr::new(0, 0);
        mcs.grant(t(0), UserId(0), slot, UserId(1)).unwrap();
        // Host 9 is not cabled: chassis-level failure surfaces.
        let err = mcs.attach(t(1), UserId(1), slot, HostId(9)).unwrap_err();
        assert!(matches!(err, McsError::Chassis(ChassisError::HostNotConnected(..))));
    }

    #[test]
    fn dynamic_reassignment_through_mcs() {
        let mcs = setup();
        let slot = SlotAddr::new(0, 2);
        mcs.grant(t(0), UserId(0), slot, UserId(1)).unwrap();
        mcs.attach(t(1), UserId(1), slot, HostId(1)).unwrap();
        assert_eq!(mcs.reassign(t(2), UserId(1), slot, HostId(2)).unwrap(), HostId(1));
        mcs.with_chassis(|c| assert_eq!(c.owner_of(slot), Some(HostId(2))));
    }

    #[test]
    fn failure_recovery_is_admin_only_and_audited() {
        let mcs = setup();
        let slot = SlotAddr::new(0, 4);
        mcs.grant(t(0), UserId(0), slot, UserId(1)).unwrap();
        mcs.attach(t(1), UserId(1), slot, HostId(1)).unwrap();
        // Non-admins may neither fail nor force-detach.
        assert!(matches!(
            mcs.fail_slot(t(2), UserId(1), slot),
            Err(McsError::PermissionDenied { .. })
        ));
        assert!(matches!(
            mcs.force_detach(t(2), UserId(2), slot),
            Err(McsError::PermissionDenied { .. })
        ));
        // Admin fails the slot, evacuates it, and the tenant cannot
        // re-attach until repair.
        mcs.fail_slot(t(3), UserId(0), slot).unwrap();
        assert_eq!(mcs.force_detach(t(3), UserId(0), slot).unwrap(), Some(HostId(1)));
        assert_eq!(mcs.force_detach(t(3), UserId(0), slot).unwrap(), None, "idempotent");
        assert!(matches!(
            mcs.attach(t(4), UserId(1), slot, HostId(1)),
            Err(McsError::Chassis(ChassisError::SlotFailed(_)))
        ));
        mcs.repair_slot(t(5), UserId(0), slot).unwrap();
        mcs.attach(t(6), UserId(1), slot, HostId(1)).unwrap();
        // Every step — allowed and denied — left an audit trail.
        let log = mcs.export_audit(UserId(0)).unwrap();
        let actions: Vec<&str> = log.iter().map(|e| e.action.as_str()).collect();
        assert!(actions.iter().any(|a| a.starts_with("fail ")));
        assert!(actions.iter().any(|a| a.starts_with("repair ")));
        assert_eq!(actions.iter().filter(|a| a.starts_with("force-detach")).count(), 3);
        assert_eq!(log.iter().filter(|e| !e.allowed).count(), 2);
    }

    #[test]
    fn concurrent_tenants_cannot_cross_boundaries() {
        let mcs = std::sync::Arc::new(setup());
        for s in 0..4 {
            mcs.grant(t(0), UserId(0), SlotAddr::new(0, s), UserId(1)).unwrap();
        }
        for s in 4..8 {
            mcs.grant(t(0), UserId(0), SlotAddr::new(0, s), UserId(2)).unwrap();
        }
        std::thread::scope(|scope| {
            for (user, host, lo) in [(UserId(1), HostId(1), 0u8), (UserId(2), HostId(2), 4u8)] {
                let mcs = std::sync::Arc::clone(&mcs);
                scope.spawn(move || {
                    for s in lo..lo + 4 {
                        mcs.attach(t(1), user, SlotAddr::new(0, s), host).unwrap();
                        // Attempt to poach the other tenant's slot: denied.
                        let other = SlotAddr::new(0, (s + 4) % 8);
                        assert!(mcs.detach(t(2), user, other).is_err());
                    }
                });
            }
        });
        mcs.with_chassis(|c| {
            assert_eq!(c.slots_of(HostId(1)).len(), 4);
            assert_eq!(c.slots_of(HostId(2)).len(), 4);
        });
    }
}
