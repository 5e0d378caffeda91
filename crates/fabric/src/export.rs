//! Topology export: Graphviz DOT for humans, JSON round-trip for tools.
//!
//! The Falcon management GUI offers list and topology views plus
//! configuration import/export (paper §II-B); this module gives the
//! simulated fabric the same affordances, so a composed system can be
//! inspected (`dot -Tsvg`) or archived and rebuilt exactly. The JSON
//! shapes match what the earlier serde derives produced (unit enum
//! variants as strings, data variants externally tagged), so archived
//! snapshots remain readable.

use crate::link::{LinkClass, LinkSpec};
use crate::topology::{NodeKind, Topology};
use crate::GB;
use desim::json::{Fields, FromJson, JsonError, ToJson, Value};

/// A serializable snapshot of a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    pub nodes: Vec<NodeSpec>,
    pub links: Vec<LinkRow>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub name: String,
    pub kind: NodeKind,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LinkRow {
    pub a: u32,
    pub b: u32,
    pub spec: LinkSpec,
}

impl TopologySpec {
    /// Snapshot `topo`.
    pub fn capture(topo: &Topology) -> TopologySpec {
        TopologySpec {
            nodes: topo
                .nodes()
                .map(|(_, n)| NodeSpec {
                    name: n.name.clone(),
                    kind: n.kind,
                })
                .collect(),
            links: topo
                .links()
                .map(|(_, l)| LinkRow {
                    a: l.a.0,
                    b: l.b.0,
                    spec: l.spec,
                })
                .collect(),
        }
    }

    /// Rebuild a topology from the snapshot. Node and link ids are
    /// preserved (insertion order).
    pub fn rebuild(&self) -> Topology {
        let mut t = Topology::new();
        let ids: Vec<_> = self
            .nodes
            .iter()
            .map(|n| t.add_node(n.name.clone(), n.kind))
            .collect();
        for l in &self.links {
            t.add_link(ids[l.a as usize], ids[l.b as usize], l.spec);
        }
        t
    }
}

impl TopologySpec {
    /// Emit the snapshot as pretty JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a snapshot previously produced by [`TopologySpec::to_json_string`].
    pub fn from_json_str(s: &str) -> Result<TopologySpec, JsonError> {
        TopologySpec::from_json(&Value::parse(s)?)
    }
}

impl ToJson for NodeKind {
    fn to_json(&self) -> Value {
        Value::str(match self {
            NodeKind::RootComplex => "RootComplex",
            NodeKind::PcieSwitch => "PcieSwitch",
            NodeKind::Gpu => "Gpu",
            NodeKind::Storage => "Storage",
            NodeKind::Memory => "Memory",
            NodeKind::DevicePort => "DevicePort",
        })
    }
}

impl FromJson for NodeKind {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_str()? {
            "RootComplex" => Ok(NodeKind::RootComplex),
            "PcieSwitch" => Ok(NodeKind::PcieSwitch),
            "Gpu" => Ok(NodeKind::Gpu),
            "Storage" => Ok(NodeKind::Storage),
            "Memory" => Ok(NodeKind::Memory),
            "DevicePort" => Ok(NodeKind::DevicePort),
            other => Err(JsonError::decode(format!("unknown NodeKind \"{other}\""))),
        }
    }
}

impl ToJson for LinkClass {
    fn to_json(&self) -> Value {
        match self {
            LinkClass::NvLink2 { lanes } => {
                Value::obj(vec![("NvLink2", NvLink2 { lanes: *lanes }.to_json())])
            }
            LinkClass::PcieGen3x16 => Value::str("PcieGen3x16"),
            LinkClass::PcieGen4x16 => Value::str("PcieGen4x16"),
            LinkClass::PcieGen3x4 => Value::str("PcieGen3x4"),
            LinkClass::Cdfp400 => Value::str("Cdfp400"),
            LinkClass::MemoryBus => Value::str("MemoryBus"),
            LinkClass::Sata3 => Value::str("Sata3"),
        }
    }
}

impl FromJson for LinkClass {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Ok(tag) = v.as_str() {
            return match tag {
                "PcieGen3x16" => Ok(LinkClass::PcieGen3x16),
                "PcieGen4x16" => Ok(LinkClass::PcieGen4x16),
                "PcieGen3x4" => Ok(LinkClass::PcieGen3x4),
                "Cdfp400" => Ok(LinkClass::Cdfp400),
                "MemoryBus" => Ok(LinkClass::MemoryBus),
                "Sata3" => Ok(LinkClass::Sata3),
                other => Err(JsonError::decode(format!("unknown LinkClass \"{other}\""))),
            };
        }
        let mut f = Fields::new(v)?;
        let NvLink2 { lanes } = f.req("NvLink2")?;
        f.end()?;
        Ok(LinkClass::NvLink2 { lanes })
    }
}

/// The body of the one data-carrying [`LinkClass`] variant.
struct NvLink2 {
    lanes: u8,
}

desim::json_record! {
    NvLink2;
    lanes: "lanes",
}

desim::json_record! {
    LinkSpec;
    class: "class",
    capacity: "capacity",
    latency: "latency",
}

desim::json_record! {
    NodeSpec;
    name: "name",
    kind: "kind",
}

desim::json_record! {
    LinkRow;
    a: "a",
    b: "b",
    spec: "spec",
}

desim::json_record! {
    TopologySpec;
    nodes: "nodes",
    links: "links",
}

fn shape(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::RootComplex => "doubleoctagon",
        NodeKind::PcieSwitch => "diamond",
        NodeKind::Gpu => "box3d",
        NodeKind::Storage => "cylinder",
        NodeKind::Memory => "folder",
        NodeKind::DevicePort => "point",
    }
}

/// Render the topology as a Graphviz `graph` (undirected), with link
/// labels carrying class and effective capacity.
pub fn to_dot(topo: &Topology) -> String {
    let mut out = String::from("graph fabric {\n  rankdir=LR;\n  node [fontsize=9];\n");
    for (id, n) in topo.nodes() {
        out.push_str(&format!(
            "  n{} [label=\"{}\", shape={}];\n",
            id.0,
            n.name,
            shape(n.kind)
        ));
    }
    for (_, l) in topo.links() {
        out.push_str(&format!(
            "  n{} -- n{} [label=\"{} {:.1}G\"];\n",
            l.a.0,
            l.b.0,
            l.spec.class,
            l.spec.capacity / GB
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use crate::topology::NodeKind;

    fn sample() -> Topology {
        let mut t = Topology::new();
        let rc = t.add_node("rc", NodeKind::RootComplex);
        let sw = t.add_node("sw", NodeKind::PcieSwitch);
        let gpu = t.add_node("gpu0", NodeKind::Gpu);
        t.add_link(rc, sw, LinkSpec::of(LinkClass::Cdfp400));
        t.add_link(sw, gpu, LinkSpec::of(LinkClass::PcieGen4x16));
        t
    }

    #[test]
    fn capture_rebuild_round_trips() {
        let t = sample();
        let spec = TopologySpec::capture(&t);
        let json = spec.to_json_string();
        let parsed = TopologySpec::from_json_str(&json).unwrap();
        assert_eq!(parsed, spec);
        let mut rebuilt = parsed.rebuild();
        assert_eq!(rebuilt.node_count(), t.node_count());
        assert_eq!(rebuilt.link_count(), t.link_count());
        // Routing behaves the same in the rebuilt fabric.
        let mut orig = t.clone();
        let a = orig.find_node("rc").unwrap();
        let b = orig.find_node("gpu0").unwrap();
        let ra = orig.route(a, b).unwrap();
        let a2 = rebuilt.find_node("rc").unwrap();
        let b2 = rebuilt.find_node("gpu0").unwrap();
        let rb = rebuilt.route(a2, b2).unwrap();
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(ra.hops.len(), rb.hops.len());
    }

    #[test]
    fn dot_contains_every_node_and_link() {
        let t = sample();
        let dot = to_dot(&t);
        assert!(dot.starts_with("graph fabric {"));
        assert!(dot.contains("label=\"rc\""));
        assert!(dot.contains("label=\"gpu0\""));
        assert_eq!(dot.matches(" -- ").count(), 2);
        assert!(dot.contains("PCI-e 4.0"));
    }
}
