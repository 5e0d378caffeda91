//! The Falcon management interface's functional surface (paper §II-B):
//! resource inventory, port configuration, list/topology views, and
//! **import/export of the resource allocation as a configuration file**.

use crate::chassis::{DrawerId, Falcon4016, HostId, SlotAddr, SlotDevice};
use desim::json::{Fields, FromJson, JsonError, ToJson, Value};
use std::fmt;
use std::sync::Arc;

/// One row of the management GUI's resource list: device model, link
/// speed, vendor/device id, owner.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRecord {
    pub slot: SlotAddr,
    pub kind: String,
    pub model: String,
    pub vendor_id: u16,
    pub device_id: u16,
    pub link_speed: String,
    pub owner: Option<HostId>,
}

/// Port configuration the resource owner can change (paper §II-B: "port
/// type and lanes of specific ports").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortConfig {
    pub lanes: u8,
    pub max_gen: u8,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            lanes: 16,
            max_gen: 4,
        }
    }
}

impl PortConfig {
    pub fn validate(&self) -> Result<(), String> {
        if ![1, 2, 4, 8, 16].contains(&self.lanes) {
            return Err(format!("invalid lane count {}", self.lanes));
        }
        if !(1..=4).contains(&self.max_gen) {
            return Err(format!("invalid PCIe generation {}", self.max_gen));
        }
        Ok(())
    }
}

/// A serializable snapshot of the chassis's resource allocation — the
/// management GUI's "import or export resource allocation as a
/// configuration file".
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationConfig {
    pub chassis: String,
    pub assignments: Vec<Assignment>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub slot: SlotAddr,
    pub host: HostId,
}

impl AllocationConfig {
    /// Snapshot the current attachments of a chassis.
    pub fn export(chassis: &Falcon4016) -> AllocationConfig {
        AllocationConfig {
            chassis: chassis.name.clone(),
            assignments: chassis
                .attachments()
                .map(|(slot, host)| Assignment { slot, host })
                .collect(),
        }
    }

    /// Serialize to the on-disk JSON form. The cheaply clonable `Arc`
    /// mirrors how the management plane hands the same exported file to
    /// several consumers.
    pub fn to_bytes(&self) -> Arc<[u8]> {
        Arc::from(self.to_json().emit_pretty().into_bytes())
    }

    /// Parse an exported configuration file.
    pub fn from_bytes(bytes: &[u8]) -> Result<AllocationConfig, String> {
        let v = Value::parse_bytes(bytes).map_err(|e| format!("bad allocation config: {e}"))?;
        AllocationConfig::from_json(&v).map_err(|e| format!("bad allocation config: {e}"))
    }

    /// Apply this allocation to a chassis: detach everything, then attach
    /// per the file. Fails (leaving the chassis detached) if an assignment
    /// violates the chassis mode rules.
    pub fn import(&self, chassis: &mut Falcon4016) -> Result<(), String> {
        let existing: Vec<SlotAddr> = chassis.attachments().map(|(a, _)| a).collect();
        for a in existing {
            chassis.detach(a).map_err(|e| e.to_string())?;
        }
        for asg in &self.assignments {
            chassis
                .attach(asg.slot, asg.host)
                .map_err(|e| format!("applying {}: {e}", asg.slot))?;
        }
        Ok(())
    }
}

impl ToJson for SlotAddr {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("drawer", Value::from_u64(u64::from(self.drawer.0))),
            ("slot", Value::from_u64(u64::from(self.slot))),
        ])
    }
}

impl FromJson for SlotAddr {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut f = Fields::new(v)?;
        let drawer: u8 = f.req("drawer")?;
        let slot: u8 = f.req("slot")?;
        f.end()?;
        if drawer >= 2 || slot >= 8 {
            return Err(JsonError::decode(format!(
                "slot address d{drawer}s{slot} outside the 2x8 chassis"
            )));
        }
        Ok(SlotAddr {
            drawer: DrawerId(drawer),
            slot,
        })
    }
}

impl ToJson for HostId {
    fn to_json(&self) -> Value {
        Value::from_u64(u64::from(self.0))
    }
}

impl FromJson for HostId {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        u32::from_json(v).map(HostId)
    }
}

desim::json_record! {
    Assignment;
    slot: "slot",
    host: "host",
}

desim::json_record! {
    AllocationConfig;
    chassis: "chassis",
    assignments: "assignments",
}

/// PCI vendor ids used in inventory rows.
fn vendor_of(device: &SlotDevice) -> (u16, u16) {
    match device {
        SlotDevice::Gpu(g) => {
            let dev = if g.name.contains("V100") { 0x1db5 } else { 0x15f8 };
            (0x10de, dev) // NVIDIA
        }
        SlotDevice::Nvme(_) => (0x8086, 0x0a54), // Intel
        SlotDevice::Nic(_) => (0x8086, 0x1528),  // Intel X540
    }
}

/// Produce the GUI's resource list.
pub fn resource_list(chassis: &Falcon4016) -> Vec<ResourceRecord> {
    chassis
        .occupied_slots()
        .map(|(slot, device)| {
            let (vendor_id, device_id) = vendor_of(device);
            ResourceRecord {
                slot,
                kind: device.kind_name().to_string(),
                model: device.model_name().to_string(),
                vendor_id,
                device_id,
                link_speed: "PCIe 4.0 x16".to_string(),
                owner: chassis.owner_of(slot),
            }
        })
        .collect()
}

/// The GUI's "list view": one line per resource.
pub fn list_view(chassis: &Falcon4016) -> String {
    let mut out = format!("Resources of {}\n", chassis.name);
    for r in resource_list(chassis) {
        let owner = r
            .owner
            .map_or("unassigned".to_string(), |h| format!("host{}", h.0));
        out.push_str(&format!(
            "  {} {:4} {:28} {:04x}:{:04x} {} -> {}\n",
            r.slot, r.kind, r.model, r.vendor_id, r.device_id, r.link_speed, owner
        ));
    }
    out
}

/// The GUI's "topology view": drawers with their hosts and slots.
pub fn topology_view(chassis: &Falcon4016) -> String {
    let mut out = format!("{} topology\n", chassis.name);
    for d in 0..2u8 {
        let drawer = crate::chassis::DrawerId(d);
        let hosts = chassis.hosts_on_drawer(drawer);
        let host_list = if hosts.is_empty() {
            "no hosts".to_string()
        } else {
            hosts
                .iter()
                .map(|h| format!("host{}", h.0))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!("  drawer {d} [{host_list}]\n"));
        for s in 0..8u8 {
            let addr = SlotAddr::new(d, s);
            match chassis.device_at(addr) {
                Some(dev) => {
                    let owner = chassis
                        .owner_of(addr)
                        .map_or("-".to_string(), |h| format!("host{}", h.0));
                    out.push_str(&format!("    s{s}: {} ({owner})\n", dev.model_name()));
                }
                None => out.push_str(&format!("    s{s}: empty\n")),
            }
        }
    }
    out
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.slot, self.kind, self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chassis::{DrawerId, HostPort, Mode};
    use devices::{GpuSpec, StorageSpec};

    fn sample_chassis() -> Falcon4016 {
        let mut c = Falcon4016::new("falcon0", Mode::Advanced);
        c.connect_host(HostPort::H1, HostId(1), DrawerId(0)).unwrap();
        c.connect_host(HostPort::H2, HostId(2), DrawerId(0)).unwrap();
        for s in 0..4 {
            c.insert_device(
                SlotAddr::new(0, s),
                SlotDevice::Gpu(GpuSpec::v100_pcie_16gb()),
            )
            .unwrap();
        }
        c.insert_device(
            SlotAddr::new(0, 4),
            SlotDevice::Nvme(StorageSpec::intel_p4500_4tb()),
        )
        .unwrap();
        c.attach(SlotAddr::new(0, 0), HostId(1)).unwrap();
        c.attach(SlotAddr::new(0, 1), HostId(2)).unwrap();
        c
    }

    #[test]
    fn resource_list_reports_all_devices() {
        let c = sample_chassis();
        let list = resource_list(&c);
        assert_eq!(list.len(), 5);
        let gpus = list.iter().filter(|r| r.kind == "GPU").count();
        assert_eq!(gpus, 4);
        assert_eq!(list[0].owner, Some(HostId(1)));
        assert_eq!(list[2].owner, None);
        assert_eq!(list[0].vendor_id, 0x10de, "NVIDIA vendor id");
    }

    #[test]
    fn views_render() {
        let c = sample_chassis();
        let lv = list_view(&c);
        assert!(lv.contains("V100"));
        assert!(lv.contains("host1"));
        let tv = topology_view(&c);
        assert!(tv.contains("drawer 0 [host1, host2]"));
        assert!(tv.contains("s7: empty"));
    }

    #[test]
    fn allocation_roundtrip_through_json() {
        let c = sample_chassis();
        let cfg = AllocationConfig::export(&c);
        let bytes = cfg.to_bytes();
        let parsed = AllocationConfig::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, cfg);
        assert_eq!(parsed.assignments.len(), 2);
    }

    #[test]
    fn import_reapplies_allocation() {
        let mut c = sample_chassis();
        let cfg = AllocationConfig::export(&c);
        // Scramble: detach all.
        c.detach(SlotAddr::new(0, 0)).unwrap();
        c.detach(SlotAddr::new(0, 1)).unwrap();
        cfg.import(&mut c).unwrap();
        assert_eq!(c.owner_of(SlotAddr::new(0, 0)), Some(HostId(1)));
        assert_eq!(c.owner_of(SlotAddr::new(0, 1)), Some(HostId(2)));
    }

    #[test]
    fn import_rejects_invalid_assignment() {
        let mut c = sample_chassis();
        let mut cfg = AllocationConfig::export(&c);
        // Host 9 is not cabled into the drawer.
        cfg.assignments.push(Assignment {
            slot: SlotAddr::new(0, 2),
            host: HostId(9),
        });
        let err = cfg.import(&mut c).unwrap_err();
        assert!(err.contains("d0s2"), "{err}");
    }

    #[test]
    fn bad_config_bytes_rejected() {
        assert!(AllocationConfig::from_bytes(b"not json").is_err());
    }

    #[test]
    fn port_config_validation() {
        assert!(PortConfig::default().validate().is_ok());
        assert!(PortConfig { lanes: 3, max_gen: 4 }.validate().is_err());
        assert!(PortConfig { lanes: 8, max_gen: 5 }.validate().is_err());
        assert!(PortConfig { lanes: 8, max_gen: 3 }.validate().is_ok());
    }
}
