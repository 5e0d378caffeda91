//! The Falcon 4016 chassis: drawers, slots, host ports, operating modes,
//! attach/detach, and materialization into the interconnect fabric.
//!
//! Mode semantics (paper §III-B, Fig 4):
//! * **Standard, one host** — a drawer is wholly owned by one host; the
//!   same host may own both drawers (16 devices).
//! * **Standard, two hosts** — a drawer is split into fixed halves
//!   (slots 0–3 and 4–7), one host per half. A single host may also take
//!   both halves through two separate port connections.
//! * **Advanced / dynamic provisioning** — up to three hosts connect to a
//!   drawer and devices are assigned slot-by-slot, re-assignable on the
//!   fly.

use devices::{GpuSpec, StorageSpec};
use fabric::{LinkClass, LinkSpec, NodeId, NodeKind, Topology};
use std::collections::BTreeMap;
use std::fmt;

/// Slots per chassis: 2 drawers × 8 slots, the length of every per-slot
/// table and the width of every slot mask.
pub(crate) const SLOTS: usize = 16;

/// One of the chassis's two drawers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DrawerId(pub u8);

/// A slot address within the chassis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotAddr {
    pub drawer: DrawerId,
    pub slot: u8,
}

impl SlotAddr {
    pub fn new(drawer: u8, slot: u8) -> SlotAddr {
        Self::try_new(drawer, slot).expect("Falcon 4016 is 2 drawers × 8 slots")
    }

    /// Dense index `drawer·8 + slot` in `0..16`, ascending in `SlotAddr`
    /// order: the slot's entry in the chassis's per-slot tables and its
    /// bit in [`Falcon4016::attached_mask`] and
    /// [`Falcon4016::failed_mask`]. Meaningful only for an address inside
    /// the chassis; every chassis and MCS entry point refuses any other
    /// with [`ChassisError::InvalidSlot`] before it indexes.
    pub fn index(self) -> usize {
        debug_assert!(
            self.drawer.0 < 2 && self.slot < 8,
            "slot {self} outside the chassis"
        );
        usize::from(self.drawer.0) * 8 + usize::from(self.slot)
    }

    /// [`index`](Self::index) of an address checked to lie inside the
    /// chassis. The fields are public, so a literal can name any drawer
    /// and slot.
    pub(crate) fn checked_index(self) -> Result<usize, ChassisError> {
        Self::try_new(self.drawer.0, self.slot).map(Self::index)
    }

    /// The address at dense index `i` (the inverse of [`index`](Self::index)).
    fn from_index(i: usize) -> SlotAddr {
        debug_assert!(i < SLOTS, "slot index {i} outside the chassis");
        SlotAddr {
            drawer: DrawerId((i / 8) as u8),
            slot: (i % 8) as u8,
        }
    }

    /// Fallible construction for addresses arriving from outside the
    /// program (trace files, management imports): out-of-range addresses
    /// become a typed error instead of a panic.
    pub fn try_new(drawer: u8, slot: u8) -> Result<SlotAddr, ChassisError> {
        if drawer >= 2 || slot >= 8 {
            return Err(ChassisError::InvalidSlot { drawer, slot });
        }
        Ok(SlotAddr {
            drawer: DrawerId(drawer),
            slot,
        })
    }
}

impl fmt::Display for SlotAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}s{}", self.drawer.0, self.slot)
    }
}

/// One of the four host ports (H1–H4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostPort {
    H1,
    H2,
    H3,
    H4,
}

impl HostPort {
    pub fn all() -> [HostPort; 4] {
        [HostPort::H1, HostPort::H2, HostPort::H3, HostPort::H4]
    }
}

/// Identifier of a host server known to the chassis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Operating mode of a drawer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Static composition; at most two hosts per drawer in fixed halves.
    Standard,
    /// Dynamic provisioning; up to three hosts per drawer, arbitrary
    /// slot-level assignment, reassignable at run time.
    Advanced,
}

impl Mode {
    pub fn max_hosts_per_drawer(self) -> usize {
        match self {
            Mode::Standard => 2,
            Mode::Advanced => 3,
        }
    }
}

/// What occupies a slot.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotDevice {
    Gpu(GpuSpec),
    Nvme(StorageSpec),
}

impl SlotDevice {
    pub fn kind_name(&self) -> &'static str {
        match self {
            SlotDevice::Gpu(_) => "GPU",
            SlotDevice::Nvme(_) => "NVMe",
        }
    }

    pub fn model_name(&self) -> &str {
        match self {
            SlotDevice::Gpu(g) => &g.name,
            SlotDevice::Nvme(s) => &s.name,
        }
    }
}

/// Errors from chassis operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChassisError {
    SlotEmpty(SlotAddr),
    SlotOccupied(SlotAddr),
    HostNotConnected(HostId, DrawerId),
    PortInUse(HostPort),
    TooManyHosts {
        drawer: DrawerId,
        mode: Mode,
    },
    /// In standard two-host mode a host may only own slots in its half.
    HalfViolation {
        slot: SlotAddr,
        host: HostId,
    },
    AlreadyAttached(SlotAddr, HostId),
    NotAttached(SlotAddr),
    /// Dynamic (post-materialization) reassignment requires advanced mode.
    RequiresAdvancedMode,
    /// Standard mode: cabling another host into a drawer requires the
    /// drawer's devices to be detached first (re-composition quiesce).
    DrawerBusy(DrawerId),
    /// A slot address outside the 2-drawer × 8-slot envelope.
    InvalidSlot { drawer: u8, slot: u8 },
    /// A drawer outside the chassis's two.
    InvalidDrawer(DrawerId),
    /// The slot is marked failed (outage); it cannot be attached until
    /// repaired. Detach of an already-attached failed slot still works —
    /// that is the evacuation path.
    SlotFailed(SlotAddr),
    /// The chassis was already built into a fabric.
    AlreadyMaterialized,
    /// Materialization found a cabled host with no fabric node.
    NoFabricNode(HostId),
}

impl fmt::Display for ChassisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChassisError::SlotEmpty(s) => write!(f, "slot {s} is empty"),
            ChassisError::SlotOccupied(s) => write!(f, "slot {s} is occupied"),
            ChassisError::HostNotConnected(h, d) => {
                write!(f, "host {} has no port into drawer {}", h.0, d.0)
            }
            ChassisError::PortInUse(p) => write!(f, "host port {p:?} already cabled"),
            ChassisError::TooManyHosts { drawer, mode } => write!(
                f,
                "drawer {} supports at most {} hosts in {:?} mode",
                drawer.0,
                mode.max_hosts_per_drawer(),
                mode
            ),
            ChassisError::HalfViolation { slot, host } => write!(
                f,
                "standard mode: host {} may not own slot {slot} outside its half",
                host.0
            ),
            ChassisError::AlreadyAttached(s, h) => {
                write!(f, "slot {s} already attached to host {}", h.0)
            }
            ChassisError::NotAttached(s) => write!(f, "slot {s} is not attached"),
            ChassisError::RequiresAdvancedMode => {
                write!(f, "dynamic reassignment requires advanced mode")
            }
            ChassisError::DrawerBusy(d) => write!(
                f,
                "drawer {} has attached devices; detach before re-cabling in standard mode",
                d.0
            ),
            ChassisError::InvalidSlot { drawer, slot } => write!(
                f,
                "slot d{drawer}s{slot} is outside the 2-drawer x 8-slot chassis"
            ),
            ChassisError::InvalidDrawer(d) => {
                write!(f, "drawer {} is outside the 2-drawer chassis", d.0)
            }
            ChassisError::SlotFailed(s) => write!(f, "slot {s} is failed; repair before attach"),
            ChassisError::AlreadyMaterialized => write!(f, "chassis already materialized"),
            ChassisError::NoFabricNode(h) => {
                write!(f, "no fabric node for cabled host {}", h.0)
            }
        }
    }
}

impl std::error::Error for ChassisError {}

/// Fabric nodes materialized for one occupied slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotNodes {
    /// Device-internal endpoint (GPU core / NVMe media / NIC mac).
    pub endpoint: NodeId,
    /// PCIe-facing port node, linked to the drawer switch.
    pub port: NodeId,
}

/// The Falcon 4016 chassis model.
///
/// Per-slot state lives in 16-entry tables indexed by
/// [`SlotAddr::index`], and the attached and failed slots are 16-bit
/// masks over the same indices, so a control-plane call reads and writes
/// one entry instead of searching a map.
#[derive(Debug, Clone)]
pub struct Falcon4016 {
    pub name: String,
    mode: Mode,
    /// The device in each slot.
    slots: [Option<SlotDevice>; SLOTS],
    /// Which host each occupied slot is attached to (if any).
    owners: [Option<HostId>; SLOTS],
    /// The slots `owners` names a host for, one bit per slot index.
    attached: u16,
    /// Slots in a failed state (drawer outage, slot death), one bit per
    /// slot index. A failed slot refuses new attaches but keeps an
    /// existing attachment visible so the management plane can evacuate
    /// (detach) it.
    failed: u16,
    /// Cabling: host port -> (host, drawer it lands in).
    ports: BTreeMap<HostPort, (HostId, DrawerId)>,
    /// Materialized fabric nodes.
    switch_nodes: BTreeMap<DrawerId, NodeId>,
    slot_nodes: [Option<SlotNodes>; SLOTS],
    host_nodes: BTreeMap<HostId, NodeId>,
    materialized: bool,
}

impl Falcon4016 {
    pub fn new(name: impl Into<String>, mode: Mode) -> Falcon4016 {
        Falcon4016 {
            name: name.into(),
            mode,
            slots: Default::default(),
            owners: [None; SLOTS],
            attached: 0,
            failed: 0,
            ports: BTreeMap::new(),
            switch_nodes: BTreeMap::new(),
            slot_nodes: [None; SLOTS],
            host_nodes: BTreeMap::new(),
            materialized: false,
        }
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Populate a slot with a device (physical insertion).
    pub fn insert_device(&mut self, addr: SlotAddr, device: SlotDevice) -> Result<(), ChassisError> {
        let slot = &mut self.slots[addr.checked_index()?];
        if slot.is_some() {
            return Err(ChassisError::SlotOccupied(addr));
        }
        *slot = Some(device);
        Ok(())
    }

    /// Physically remove a device (must be detached first).
    pub fn remove_device(&mut self, addr: SlotAddr) -> Result<SlotDevice, ChassisError> {
        let i = addr.checked_index()?;
        if let Some(owner) = self.owners[i] {
            return Err(ChassisError::AlreadyAttached(addr, owner));
        }
        self.slots[i].take().ok_or(ChassisError::SlotEmpty(addr))
    }

    pub fn device_at(&self, addr: SlotAddr) -> Option<&SlotDevice> {
        self.slots[addr.checked_index().ok()?].as_ref()
    }

    /// Occupied slots and their devices, sorted.
    pub fn occupied_slots(&self) -> impl Iterator<Item = (SlotAddr, &SlotDevice)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, d)| Some((SlotAddr::from_index(i), d.as_ref()?)))
    }

    /// Cable a host into a drawer through a host port.
    pub fn connect_host(
        &mut self,
        port: HostPort,
        host: HostId,
        drawer: DrawerId,
    ) -> Result<(), ChassisError> {
        if drawer.0 >= 2 {
            return Err(ChassisError::InvalidDrawer(drawer));
        }
        if self.ports.contains_key(&port) {
            return Err(ChassisError::PortInUse(port));
        }
        let hosts = self.hosts_on_drawer(drawer);
        if !hosts.contains(&host) && hosts.len() >= self.mode.max_hosts_per_drawer() {
            return Err(ChassisError::TooManyHosts {
                drawer,
                mode: self.mode,
            });
        }
        // Standard mode's fixed-half ownership is assigned when the second
        // host arrives; devices attached under the one-host rule could end
        // up in the wrong half, so re-cabling requires a quiesced drawer.
        if self.mode == Mode::Standard
            && !hosts.is_empty()
            && !hosts.contains(&host)
            && self.attached >> (8 * drawer.0) & 0xff != 0
        {
            return Err(ChassisError::DrawerBusy(drawer));
        }
        self.ports.insert(port, (host, drawer));
        Ok(())
    }

    /// Hosts with at least one port into `drawer`.
    pub fn hosts_on_drawer(&self, drawer: DrawerId) -> Vec<HostId> {
        let mut v: Vec<HostId> = self
            .ports
            .values()
            .filter(|(_, d)| *d == drawer)
            .map(|(h, _)| *h)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn host_connected(&self, host: HostId, drawer: DrawerId) -> bool {
        self.ports.values().any(|&(h, d)| h == host && d == drawer)
    }

    /// Attach the device in `addr` to `host`, enforcing the mode rules.
    pub fn attach(&mut self, addr: SlotAddr, host: HostId) -> Result<(), ChassisError> {
        let i = addr.checked_index()?;
        if self.slots[i].is_none() {
            return Err(ChassisError::SlotEmpty(addr));
        }
        if let Some(owner) = self.owners[i] {
            return Err(ChassisError::AlreadyAttached(addr, owner));
        }
        if self.failed & 1 << i != 0 {
            return Err(ChassisError::SlotFailed(addr));
        }
        if !self.host_connected(host, addr.drawer) {
            return Err(ChassisError::HostNotConnected(host, addr.drawer));
        }
        if self.mode == Mode::Standard {
            let hosts = self.hosts_on_drawer(addr.drawer);
            if hosts.len() == 2 {
                // Fixed halves: the lexically first host owns slots 0-3.
                let half = usize::from(addr.slot >= 4);
                let expected = hosts[half.min(hosts.len() - 1)];
                if host != expected {
                    return Err(ChassisError::HalfViolation { slot: addr, host });
                }
            }
        }
        self.owners[i] = Some(host);
        self.attached |= 1 << i;
        Ok(())
    }

    /// Detach the device in `addr` from its host.
    pub fn detach(&mut self, addr: SlotAddr) -> Result<HostId, ChassisError> {
        let i = addr.checked_index()?;
        let host = self.owners[i]
            .take()
            .ok_or(ChassisError::NotAttached(addr))?;
        self.attached &= !(1 << i);
        Ok(host)
    }

    /// Re-assign a device to another host *while running* — the advanced
    /// mode's dynamic provisioning. Standard mode refuses.
    pub fn reassign(&mut self, addr: SlotAddr, to: HostId) -> Result<HostId, ChassisError> {
        let i = addr.checked_index()?;
        if self.mode != Mode::Advanced {
            return Err(ChassisError::RequiresAdvancedMode);
        }
        if !self.host_connected(to, addr.drawer) {
            return Err(ChassisError::HostNotConnected(to, addr.drawer));
        }
        let owner = self.owners[i]
            .as_mut()
            .ok_or(ChassisError::NotAttached(addr))?;
        Ok(std::mem::replace(owner, to))
    }

    /// Mark a slot failed (outage). Idempotent; an attached slot stays
    /// attached until the management plane evacuates it.
    pub fn fail_slot(&mut self, addr: SlotAddr) -> Result<(), ChassisError> {
        self.failed |= 1 << addr.checked_index()?;
        Ok(())
    }

    /// Clear a slot's failed state (repair / drawer power-back).
    pub fn repair_slot(&mut self, addr: SlotAddr) -> Result<(), ChassisError> {
        self.failed &= !(1 << addr.checked_index()?);
        Ok(())
    }

    pub fn is_failed(&self, addr: SlotAddr) -> bool {
        addr.checked_index()
            .is_ok_and(|i| self.failed & 1 << i != 0)
    }

    /// Failed slots, sorted.
    pub fn failed_slots(&self) -> impl Iterator<Item = SlotAddr> + '_ {
        (0..SLOTS)
            .filter(|&i| self.failed & 1 << i != 0)
            .map(SlotAddr::from_index)
    }

    pub fn owner_of(&self, addr: SlotAddr) -> Option<HostId> {
        self.owners[addr.checked_index().ok()?]
    }

    /// Slots attached to `host`, sorted.
    pub fn slots_of(&self, host: HostId) -> Vec<SlotAddr> {
        self.attachments()
            .filter(|&(_, h)| h == host)
            .map(|(a, _)| a)
            .collect()
    }

    // ---- materialization ---------------------------------------------------

    /// Build the chassis into `topo`: per-drawer switch nodes, CDFP links
    /// from each cabled host's root-complex node, and device node pairs for
    /// every occupied slot. `host_nodes` maps hosts to their root-complex
    /// nodes (created by the caller).
    pub fn materialize(
        &mut self,
        topo: &mut Topology,
        host_nodes: &BTreeMap<HostId, NodeId>,
    ) -> Result<(), ChassisError> {
        if self.materialized {
            return Err(ChassisError::AlreadyMaterialized);
        }
        for &(host, _) in self.ports.values() {
            if !host_nodes.contains_key(&host) {
                return Err(ChassisError::NoFabricNode(host));
            }
        }
        self.host_nodes = host_nodes.clone();

        // Drawer switches.
        for d in [DrawerId(0), DrawerId(1)] {
            let sw = topo.add_node(format!("{}.drawer{}.switch", self.name, d.0), NodeKind::PcieSwitch);
            self.switch_nodes.insert(d, sw);
        }

        // Host ports (CDFP cables); hosts were checked above.
        for (&port, &(host, drawer)) in &self.ports {
            let host_node = host_nodes[&host];
            let sw = self.switch_nodes[&drawer];
            topo.add_link(host_node, sw, LinkSpec::of(LinkClass::Cdfp400));
            let _ = port;
        }

        // Devices.
        for (i, device) in self.slots.iter().enumerate() {
            let Some(device) = device else { continue };
            let addr = SlotAddr::from_index(i);
            let sw = self.switch_nodes[&addr.drawer];
            let label = format!("{}.{}", self.name, addr);
            let nodes = match device {
                SlotDevice::Gpu(spec) => {
                    let g = devices::gpu::add_gpu(topo, &label, spec);
                    SlotNodes {
                        endpoint: g.core,
                        port: g.port,
                    }
                }
                SlotDevice::Nvme(spec) => {
                    let s = devices::storage::add_storage(topo, &label, spec);
                    SlotNodes {
                        endpoint: s.device,
                        port: s.port,
                    }
                }
            };
            // Slot link into the drawer switch: PCIe Gen4 x16.
            topo.add_link(nodes.port, sw, LinkSpec::of(LinkClass::PcieGen4x16));
            self.slot_nodes[i] = Some(nodes);
        }

        self.materialized = true;
        Ok(())
    }

    pub fn slot_nodes(&self, addr: SlotAddr) -> Option<SlotNodes> {
        self.slot_nodes[addr.checked_index().ok()?]
    }

    /// All (addr, owner) attachments, sorted.
    pub fn attachments(&self) -> impl Iterator<Item = (SlotAddr, HostId)> + '_ {
        self.owners
            .iter()
            .enumerate()
            .filter_map(|(i, h)| Some((SlotAddr::from_index(i), (*h)?)))
    }

    /// How many slots are attached, without walking the table.
    pub fn n_attachments(&self) -> usize {
        self.attached.count_ones() as usize
    }

    /// The attached slots, bit [`SlotAddr::index`] set for each.
    pub fn attached_mask(&self) -> u16 {
        self.attached
    }

    /// The failed slots, bit [`SlotAddr::index`] set for each.
    pub fn failed_mask(&self) -> u16 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> SlotDevice {
        SlotDevice::Gpu(GpuSpec::v100_pcie_16gb())
    }

    fn chassis(mode: Mode) -> Falcon4016 {
        Falcon4016::new("falcon0", mode)
    }

    #[test]
    fn insert_and_remove_devices() {
        let mut c = chassis(Mode::Standard);
        let a = SlotAddr::new(0, 0);
        c.insert_device(a, gpu()).unwrap();
        assert_eq!(c.insert_device(a, gpu()), Err(ChassisError::SlotOccupied(a)));
        assert_eq!(c.device_at(a).unwrap().kind_name(), "GPU");
        c.remove_device(a).unwrap();
        assert_eq!(c.remove_device(a), Err(ChassisError::SlotEmpty(a)));
    }

    #[test]
    #[should_panic(expected = "2 drawers")]
    fn slot_addr_bounds() {
        let _ = SlotAddr::new(2, 0);
    }

    #[test]
    fn try_new_reports_invalid_slots() {
        assert_eq!(
            SlotAddr::try_new(2, 0),
            Err(ChassisError::InvalidSlot { drawer: 2, slot: 0 })
        );
        assert_eq!(
            SlotAddr::try_new(0, 8),
            Err(ChassisError::InvalidSlot { drawer: 0, slot: 8 })
        );
        assert_eq!(SlotAddr::try_new(1, 7), Ok(SlotAddr::new(1, 7)));
    }

    #[test]
    fn out_of_range_literals_are_typed_errors() {
        // The fields are public, so a literal can name a slot outside the
        // chassis. Every entry point refuses it before it indexes a table;
        // d0s8 must not alias d1s0.
        let mut c = chassis(Mode::Advanced);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        for (drawer, slot) in [(2, 0), (0, 8), (255, 255)] {
            let bad = SlotAddr {
                drawer: DrawerId(drawer),
                slot,
            };
            let err = ChassisError::InvalidSlot { drawer, slot };
            assert_eq!(c.insert_device(bad, gpu()), Err(err.clone()));
            assert_eq!(c.remove_device(bad), Err(err.clone()));
            assert_eq!(c.attach(bad, HostId(1)), Err(err.clone()));
            assert_eq!(c.detach(bad), Err(err.clone()));
            assert_eq!(c.reassign(bad, HostId(1)), Err(err.clone()));
            assert_eq!(c.fail_slot(bad), Err(err.clone()));
            assert_eq!(c.repair_slot(bad), Err(err));
            assert_eq!(c.device_at(bad), None);
            assert_eq!(c.owner_of(bad), None);
            assert!(!c.is_failed(bad));
            assert_eq!(c.slot_nodes(bad), None);
        }
        assert_eq!(
            c.connect_host(HostPort::H2, HostId(1), DrawerId(2)),
            Err(ChassisError::InvalidDrawer(DrawerId(2)))
        );
        assert_eq!(c.occupied_slots().count(), 0);
        assert_eq!((c.attached_mask(), c.failed_mask()), (0, 0));
        // Nothing half-recorded: the chassis still materializes.
        let mut topo = Topology::new();
        let rc = topo.add_node("host1.rc", NodeKind::RootComplex);
        c.materialize(&mut topo, &BTreeMap::from([(HostId(1), rc)]))
            .unwrap();
    }

    #[test]
    fn materialize_failures_are_typed() {
        let mut topo = Topology::new();
        let mut c = chassis(Mode::Standard);
        c.connect_host(HostPort::H1, HostId(0), DrawerId(0)).unwrap();
        // Cabled host with no fabric node: typed error, chassis untouched
        // (so the proper materialize below succeeds).
        let empty = BTreeMap::new();
        assert_eq!(
            c.materialize(&mut topo, &empty),
            Err(ChassisError::NoFabricNode(HostId(0)))
        );
        // Now materialize properly, then again: typed error.
        let rc = topo.add_node("host0.rc", NodeKind::RootComplex);
        let mut hosts = BTreeMap::new();
        hosts.insert(HostId(0), rc);
        c.materialize(&mut topo, &hosts).unwrap();
        assert_eq!(
            c.materialize(&mut topo, &hosts),
            Err(ChassisError::AlreadyMaterialized)
        );
    }

    #[test]
    fn attach_requires_cabled_host() {
        let mut c = chassis(Mode::Standard);
        let a = SlotAddr::new(0, 0);
        c.insert_device(a, gpu()).unwrap();
        let h = HostId(1);
        assert_eq!(
            c.attach(a, h),
            Err(ChassisError::HostNotConnected(h, DrawerId(0)))
        );
        c.connect_host(HostPort::H1, h, DrawerId(0)).unwrap();
        c.attach(a, h).unwrap();
        assert_eq!(c.owner_of(a), Some(h));
    }

    #[test]
    fn standard_mode_allows_at_most_two_hosts_per_drawer() {
        let mut c = chassis(Mode::Standard);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, HostId(2), DrawerId(0)).unwrap();
        let err = c.connect_host(HostPort::H3, HostId(3), DrawerId(0));
        assert!(matches!(err, Err(ChassisError::TooManyHosts { .. })));
    }

    #[test]
    fn advanced_mode_allows_three_hosts() {
        let mut c = chassis(Mode::Advanced);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, HostId(2), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H3, HostId(3), DrawerId(0)).unwrap();
        let err = c.connect_host(HostPort::H4, HostId(4), DrawerId(0));
        assert!(matches!(err, Err(ChassisError::TooManyHosts { .. })));
    }

    #[test]
    fn one_host_may_take_two_connections_to_one_drawer() {
        // Paper §III-B2: one host can have two connections to the same
        // drawer, each giving access to four devices.
        let mut c = chassis(Mode::Standard);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, HostId(1), DrawerId(0)).unwrap();
        assert_eq!(c.hosts_on_drawer(DrawerId(0)), vec![HostId(1)]);
    }

    #[test]
    fn standard_two_host_halves_are_enforced() {
        let mut c = chassis(Mode::Standard);
        let (h1, h2) = (HostId(1), HostId(2));
        c.connect_host(HostPort::H1, h1, DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, h2, DrawerId(0)).unwrap();
        for s in 0..8 {
            c.insert_device(SlotAddr::new(0, s), gpu()).unwrap();
        }
        // h1 owns the low half, h2 the high half.
        c.attach(SlotAddr::new(0, 0), h1).unwrap();
        c.attach(SlotAddr::new(0, 7), h2).unwrap();
        assert!(matches!(
            c.attach(SlotAddr::new(0, 1), h2),
            Err(ChassisError::HalfViolation { .. })
        ));
        assert!(matches!(
            c.attach(SlotAddr::new(0, 5), h1),
            Err(ChassisError::HalfViolation { .. })
        ));
    }

    #[test]
    fn single_host_standard_mode_takes_all_sixteen() {
        let mut c = chassis(Mode::Standard);
        let h = HostId(1);
        c.connect_host(HostPort::H1, h, DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, h, DrawerId(1)).unwrap();
        for d in 0..2 {
            for s in 0..8 {
                let a = SlotAddr::new(d, s);
                c.insert_device(a, gpu()).unwrap();
                c.attach(a, h).unwrap();
            }
        }
        assert_eq!(c.slots_of(h).len(), 16);
    }

    #[test]
    fn detach_then_remove() {
        let mut c = chassis(Mode::Standard);
        let a = SlotAddr::new(1, 3);
        let h = HostId(1);
        c.connect_host(HostPort::H1, h, DrawerId(1)).unwrap();
        c.insert_device(a, gpu()).unwrap();
        c.attach(a, h).unwrap();
        assert!(matches!(c.remove_device(a), Err(ChassisError::AlreadyAttached(..))));
        assert_eq!(c.detach(a), Ok(h));
        assert_eq!(c.detach(a), Err(ChassisError::NotAttached(a)));
        c.remove_device(a).unwrap();
    }

    #[test]
    fn failed_slot_refuses_attach_but_allows_evacuation() {
        let mut c = chassis(Mode::Advanced);
        let h = HostId(1);
        c.connect_host(HostPort::H1, h, DrawerId(0)).unwrap();
        let (a, b) = (SlotAddr::new(0, 0), SlotAddr::new(0, 1));
        c.insert_device(a, gpu()).unwrap();
        c.insert_device(b, gpu()).unwrap();
        c.attach(a, h).unwrap();
        // Outage hits both slots: the attached one stays visible so it can
        // be evacuated; the free one refuses composition until repair.
        c.fail_slot(a).unwrap();
        c.fail_slot(b).unwrap();
        assert!(c.is_failed(a));
        assert_eq!(c.attach(b, h), Err(ChassisError::SlotFailed(b)));
        assert_eq!(c.detach(a), Ok(h), "evacuation must still detach");
        assert_eq!(c.attach(a, h), Err(ChassisError::SlotFailed(a)));
        c.repair_slot(a).unwrap();
        c.repair_slot(b).unwrap();
        assert_eq!(c.failed_slots().count(), 0);
        c.attach(a, h).unwrap();
        c.attach(b, h).unwrap();
    }

    #[test]
    fn n_attachments_counts_the_table() {
        let mut c = chassis(Mode::Advanced);
        let h = HostId(1);
        c.connect_host(HostPort::H1, h, DrawerId(0)).unwrap();
        for s in 0..3 {
            c.insert_device(SlotAddr::new(0, s), gpu()).unwrap();
        }
        assert_eq!(c.n_attachments(), 0);
        c.attach(SlotAddr::new(0, 0), h).unwrap();
        c.attach(SlotAddr::new(0, 2), h).unwrap();
        // A refused attach and a failed slot leave the count alone.
        assert!(c.attach(SlotAddr::new(0, 2), h).is_err());
        c.fail_slot(SlotAddr::new(0, 0)).unwrap();
        assert_eq!(c.n_attachments(), 2);
        assert_eq!(c.n_attachments(), c.attachments().count());
        c.detach(SlotAddr::new(0, 0)).unwrap();
        assert_eq!(c.n_attachments(), 1);
        assert_eq!(c.n_attachments(), c.attachments().count());
    }

    #[test]
    fn reassign_only_in_advanced_mode() {
        let mut std_c = chassis(Mode::Standard);
        let a = SlotAddr::new(0, 0);
        let (h1, h2) = (HostId(1), HostId(2));
        std_c.connect_host(HostPort::H1, h1, DrawerId(0)).unwrap();
        std_c.connect_host(HostPort::H2, h2, DrawerId(0)).unwrap();
        std_c.insert_device(a, gpu()).unwrap();
        std_c.attach(a, h1).unwrap();
        assert_eq!(std_c.reassign(a, h2), Err(ChassisError::RequiresAdvancedMode));

        let mut adv = chassis(Mode::Advanced);
        adv.connect_host(HostPort::H1, h1, DrawerId(0)).unwrap();
        adv.connect_host(HostPort::H2, h2, DrawerId(0)).unwrap();
        adv.insert_device(a, gpu()).unwrap();
        adv.attach(a, h1).unwrap();
        assert_eq!(adv.reassign(a, h2), Ok(h1));
        assert_eq!(adv.owner_of(a), Some(h2));
    }

    #[test]
    fn materialize_builds_routable_fabric() {
        let mut topo = Topology::new();
        let host_rc = topo.add_node("host0.rc", NodeKind::RootComplex);
        let mut hosts = BTreeMap::new();
        hosts.insert(HostId(0), host_rc);

        let mut c = chassis(Mode::Standard);
        c.connect_host(HostPort::H1, HostId(0), DrawerId(0)).unwrap();
        for s in 0..4 {
            let a = SlotAddr::new(0, s);
            c.insert_device(a, gpu()).unwrap();
            c.attach(a, HostId(0)).unwrap();
        }
        c.insert_device(SlotAddr::new(1, 0), SlotDevice::Nvme(StorageSpec::intel_p4500_4tb()))
            .unwrap();
        c.materialize(&mut topo, &hosts).unwrap();

        // Host can reach each attached GPU core through the switch.
        for s in 0..4 {
            let nodes = c.slot_nodes(SlotAddr::new(0, s)).unwrap();
            let r = topo.route(host_rc, nodes.endpoint).unwrap();
            assert!(r.hop_count() >= 3, "host -> CDFP -> switch -> slot -> core");
        }
        // GPU-to-GPU inside a drawer stays on the switch (4 hops:
        // dma, slot link, slot link, dma).
        let a = c.slot_nodes(SlotAddr::new(0, 0)).unwrap();
        let b = c.slot_nodes(SlotAddr::new(0, 1)).unwrap();
        let r = topo.route(a.endpoint, b.endpoint).unwrap();
        assert_eq!(r.hop_count(), 4);
        // The un-cabled drawer 1 NVMe is not reachable from the host.
        let nv = c.slot_nodes(SlotAddr::new(1, 0)).unwrap();
        assert!(topo.route(host_rc, nv.endpoint).is_none());
    }
}
