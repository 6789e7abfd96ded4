//! Typed accessors for the Table 1 global states.
//!
//! | state | path |
//! |---|---|
//! | logical topology | `/typhoon/topologies/<name>/logical` |
//! | physical topology | `/typhoon/topologies/<name>/physical` |
//! | worker agents | `/typhoon/agents/<hostname>` (ephemeral) |
//!
//! The writers/readers discipline of Table 1 is enforced socially, not
//! mechanically (as with real ZooKeeper): the streaming manager writes
//! topologies, worker agents write their own registration, and everyone
//! reads via watches.

use crate::store::{Coordinator, CreateMode};
use crate::wire::{Reader, Writer};
use crate::{CoordError, Result, SessionId};
use typhoon_model::{
    AppId, EdgeSpec, Grouping, HostId, HostInfo, LogicalTopology, NodeKind, NodeSpec,
    PhysicalTopology, ReconfigOp, ReconfigRequest, TaskAssignment,
};
use typhoon_tuple::tuple::TaskId;
use typhoon_tuple::{Fields, StreamId};

/// Root of all Typhoon coordination state.
pub const ROOT: &str = "/typhoon";
/// Parent of per-topology state.
pub const TOPOLOGIES: &str = "/typhoon/topologies";
/// Parent of worker-agent registrations.
pub const AGENTS: &str = "/typhoon/agents";

/// Path of a topology's logical znode.
pub fn logical_path(name: &str) -> String {
    format!("{TOPOLOGIES}/{name}/logical")
}

/// Path of a topology's physical znode.
pub fn physical_path(name: &str) -> String {
    format!("{TOPOLOGIES}/{name}/physical")
}

/// Path of a worker agent's registration znode.
pub fn agent_path(host: &str) -> String {
    format!("{AGENTS}/{host}")
}

// ---------------------------------------------------------------- codecs

fn encode_grouping(w: &mut Writer, g: &Grouping) {
    match g {
        Grouping::Shuffle => w.u8(0),
        Grouping::Fields(keys) => {
            w.u8(1);
            w.u16(keys.len() as u16);
            for k in keys {
                w.str(k);
            }
        }
        Grouping::Global => w.u8(2),
        Grouping::All => w.u8(3),
        Grouping::SdnOffloaded => w.u8(4),
    }
}

fn decode_grouping(r: &mut Reader<'_>) -> Result<Grouping> {
    Ok(match r.u8()? {
        0 => Grouping::Shuffle,
        1 => {
            let n = r.u16()? as usize;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.str()?);
            }
            Grouping::Fields(keys)
        }
        2 => Grouping::Global,
        3 => Grouping::All,
        4 => Grouping::SdnOffloaded,
        _ => return Err(CoordError::Corrupt("grouping tag")),
    })
}

/// Encodes a logical topology to bytes (the stored representation).
pub fn encode_logical(t: &LogicalTopology) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&t.name);
    w.u16(t.nodes.len() as u16);
    for n in &t.nodes {
        w.str(&n.name);
        w.u8(match n.kind {
            NodeKind::Spout => 0,
            NodeKind::Bolt => 1,
        });
        w.str(&n.component);
        w.u32(n.parallelism as u32);
        w.u16(n.output_fields.len() as u16);
        for f in n.output_fields.iter() {
            w.str(f);
        }
        w.u8(n.stateful as u8);
    }
    w.u16(t.edges.len() as u16);
    for e in &t.edges {
        w.str(&e.from);
        w.str(&e.to);
        w.u16(e.stream.0);
        encode_grouping(&mut w, &e.grouping);
    }
    w.buf
}

/// Decodes a logical topology from bytes.
pub fn decode_logical(bytes: &[u8]) -> Result<LogicalTopology> {
    let mut r = Reader::new(bytes, "logical topology");
    let name = r.str()?;
    let nnodes = r.u16()? as usize;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        let node_name = r.str()?;
        let kind = match r.u8()? {
            0 => NodeKind::Spout,
            1 => NodeKind::Bolt,
            _ => return Err(CoordError::Corrupt("node kind")),
        };
        let component = r.str()?;
        let parallelism = r.u32()? as usize;
        let nfields = r.u16()? as usize;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            fields.push(r.str()?);
        }
        let stateful = r.u8()? != 0;
        nodes.push(NodeSpec {
            name: node_name,
            kind,
            component,
            parallelism,
            output_fields: Fields::new(fields),
            stateful,
        });
    }
    let nedges = r.u16()? as usize;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let from = r.str()?;
        let to = r.str()?;
        let stream = StreamId(r.u16()?);
        let grouping = decode_grouping(&mut r)?;
        edges.push(EdgeSpec {
            from,
            to,
            stream,
            grouping,
        });
    }
    r.finish()?;
    Ok(LogicalTopology { name, nodes, edges })
}

/// Encodes a physical topology to bytes.
pub fn encode_physical(t: &PhysicalTopology) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(t.app.0);
    w.str(&t.name);
    w.u64(t.version);
    w.u32(t.task_watermark);
    w.u32(t.assignments.len() as u32);
    for a in &t.assignments {
        w.u32(a.task.0);
        w.str(&a.node);
        w.str(&a.component);
        w.u32(a.host.0);
        w.u32(a.switch_port);
    }
    w.buf
}

/// Decodes a physical topology from bytes.
pub fn decode_physical(bytes: &[u8]) -> Result<PhysicalTopology> {
    let mut r = Reader::new(bytes, "physical topology");
    let app = AppId(r.u16()?);
    let name = r.str()?;
    let version = r.u64()?;
    let task_watermark = r.u32()?;
    let n = r.u32()? as usize;
    let mut assignments = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        assignments.push(TaskAssignment {
            task: TaskId(r.u32()?),
            node: r.str()?,
            component: r.str()?,
            host: HostId(r.u32()?),
            switch_port: r.u32()?,
        });
    }
    r.finish()?;
    Ok(PhysicalTopology {
        app,
        name,
        version,
        task_watermark,
        assignments,
    })
}

/// Encodes a worker-agent registration.
pub fn encode_agent(h: &HostInfo) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(h.id.0);
    w.str(&h.name);
    w.u32(h.slots as u32);
    w.buf
}

/// Decodes a worker-agent registration.
pub fn decode_agent(bytes: &[u8]) -> Result<HostInfo> {
    let mut r = Reader::new(bytes, "agent registration");
    let id = HostId(r.u32()?);
    let name = r.str()?;
    let slots = r.u32()? as usize;
    r.finish()?;
    Ok(HostInfo { id, name, slots })
}

// ------------------------------------------------------- typed accessors

/// Typed facade over a [`Coordinator`] for the Table 1 global states.
#[derive(Debug, Clone)]
pub struct GlobalState {
    coord: Coordinator,
}

impl GlobalState {
    /// Wraps a coordinator, creating the standard paths.
    pub fn new(coord: Coordinator) -> Self {
        coord.ensure_path(TOPOLOGIES).expect("root paths");
        coord.ensure_path(AGENTS).expect("root paths");
        GlobalState { coord }
    }

    /// Access to the raw store (for framework-internal paths).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Writes (or replaces) a topology's logical state.
    pub fn set_logical(&self, t: &LogicalTopology) -> Result<()> {
        self.coord
            .ensure_path(&format!("{TOPOLOGIES}/{}", t.name))?;
        self.coord.put(&logical_path(&t.name), encode_logical(t))?;
        Ok(())
    }

    /// Reads a topology's logical state.
    pub fn get_logical(&self, name: &str) -> Result<LogicalTopology> {
        let (bytes, _) = self.coord.get(&logical_path(name))?;
        decode_logical(&bytes)
    }

    /// Writes (or replaces) a topology's physical state.
    pub fn set_physical(&self, t: &PhysicalTopology) -> Result<()> {
        self.coord
            .ensure_path(&format!("{TOPOLOGIES}/{}", t.name))?;
        self.coord
            .put(&physical_path(&t.name), encode_physical(t))?;
        Ok(())
    }

    /// Reads a topology's physical state.
    pub fn get_physical(&self, name: &str) -> Result<PhysicalTopology> {
        let (bytes, _) = self.coord.get(&physical_path(name))?;
        decode_physical(&bytes)
    }

    /// Names of all registered topologies.
    pub fn list_topologies(&self) -> Result<Vec<String>> {
        self.coord.children(TOPOLOGIES)
    }

    /// Removes every znode of a topology (on kill).
    pub fn remove_topology(&self, name: &str) -> Result<()> {
        self.coord.delete_recursive(&format!("{TOPOLOGIES}/{name}"))
    }

    /// Registers a worker agent under an ephemeral node tied to `session`.
    pub fn register_agent(&self, info: &HostInfo, session: SessionId) -> Result<()> {
        self.coord.create(
            &agent_path(&info.name),
            encode_agent(info),
            CreateMode::Ephemeral(session),
        )
    }

    /// All currently registered worker agents.
    pub fn list_agents(&self) -> Result<Vec<HostInfo>> {
        let mut out = Vec::new();
        for child in self.coord.children(AGENTS)? {
            let (bytes, _) = self.coord.get(&agent_path(&child))?;
            out.push(decode_agent(&bytes)?);
        }
        Ok(out)
    }

    /// Submits a reconfiguration request for the streaming manager to pick
    /// up. This is how SDN control-plane applications (e.g. the auto-scaler,
    /// §4) trigger topology changes without talking to the manager directly:
    /// everything goes through the coordinator, per Table 1's discipline.
    /// The request is named by the directory's sequence counter, so
    /// concurrent submitters never collide and [`GlobalState::take_reconfigs`]
    /// returns requests in submission order.
    pub fn submit_reconfig(&self, req: &ReconfigRequest) -> Result<()> {
        let dir = format!("{RECONFIG}/{}", req.topology);
        self.coord.ensure_path(&dir)?;
        self.coord
            .create_sequential(&dir, "req-", encode_reconfig(req))
            .map(drop)
    }

    /// Removes and returns every pending reconfiguration request for
    /// `topology`, oldest first (the manager drains this on its watch).
    pub fn take_reconfigs(&self, topology: &str) -> Result<Vec<ReconfigRequest>> {
        let dir = format!("{RECONFIG}/{topology}");
        if !self.coord.exists(&dir) {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for child in self.coord.children(&dir)? {
            let path = format!("{dir}/{child}");
            let (bytes, _) = self.coord.get(&path)?;
            out.push(decode_reconfig(&bytes)?);
            self.coord.delete(&path)?;
        }
        Ok(out)
    }
}

/// Parent of pending reconfiguration requests.
pub const RECONFIG: &str = "/typhoon/reconfig";

/// Encodes a reconfiguration request.
pub fn encode_reconfig(req: &ReconfigRequest) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&req.topology);
    w.u16(req.ops.len() as u16);
    for op in &req.ops {
        match op {
            ReconfigOp::SetParallelism { node, parallelism } => {
                w.u8(0);
                w.str(node);
                w.u32(*parallelism as u32);
            }
            ReconfigOp::SwapLogic { node, component } => {
                w.u8(1);
                w.str(node);
                w.str(component);
            }
            ReconfigOp::SetGrouping { from, to, grouping } => {
                w.u8(2);
                w.str(from);
                w.str(to);
                encode_grouping(&mut w, grouping);
            }
            ReconfigOp::Relocate { task, target } => {
                w.u8(3);
                w.u32(task.0);
                w.u32(target.0);
            }
        }
    }
    w.buf
}

/// Decodes a reconfiguration request.
pub fn decode_reconfig(bytes: &[u8]) -> Result<ReconfigRequest> {
    let mut r = Reader::new(bytes, "reconfig request");
    let topology = r.str()?;
    let n = r.u16()? as usize;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match r.u8()? {
            0 => ReconfigOp::SetParallelism {
                node: r.str()?,
                parallelism: r.u32()? as usize,
            },
            1 => ReconfigOp::SwapLogic {
                node: r.str()?,
                component: r.str()?,
            },
            2 => ReconfigOp::SetGrouping {
                from: r.str()?,
                to: r.str()?,
                grouping: decode_grouping(&mut r)?,
            },
            3 => ReconfigOp::Relocate {
                task: TaskId(r.u32()?),
                target: HostId(r.u32()?),
            },
            _ => return Err(CoordError::Corrupt("reconfig op tag")),
        });
    }
    r.finish()?;
    Ok(ReconfigRequest { topology, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WatchKind;
    use typhoon_model::logical::word_count_example;
    use typhoon_model::{AppId, RoundRobinScheduler, Scheduler};

    fn hosts() -> Vec<HostInfo> {
        vec![HostInfo::new(0, "h0", 4), HostInfo::new(1, "h1", 4)]
    }

    #[test]
    fn logical_topology_roundtrips_through_bytes() {
        let t = word_count_example();
        let decoded = decode_logical(&encode_logical(&t)).unwrap();
        assert_eq!(decoded.name, t.name);
        assert_eq!(decoded.nodes.len(), t.nodes.len());
        assert_eq!(decoded.edges.len(), t.edges.len());
        assert_eq!(
            decoded.node("count").unwrap().stateful,
            t.node("count").unwrap().stateful
        );
        assert_eq!(
            decoded.edges[1].grouping,
            Grouping::Fields(vec!["word".into()])
        );
        decoded.validate().unwrap();
    }

    #[test]
    fn physical_topology_roundtrips_through_bytes() {
        let logical = word_count_example();
        let phys = RoundRobinScheduler
            .schedule(AppId(7), &logical, &hosts())
            .unwrap();
        let decoded = decode_physical(&encode_physical(&phys)).unwrap();
        assert_eq!(decoded.app, AppId(7));
        assert_eq!(decoded.assignments, phys.assignments);
        assert_eq!(decoded.version, phys.version);
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let t = word_count_example();
        let mut bytes = encode_logical(&t);
        bytes.truncate(bytes.len() / 2);
        assert!(decode_logical(&bytes).is_err());
        assert!(decode_physical(&[1, 2, 3]).is_err());
        assert!(decode_agent(&[]).is_err());
    }

    #[test]
    fn global_state_stores_and_lists_topologies() {
        let g = GlobalState::new(Coordinator::new());
        let t = word_count_example();
        g.set_logical(&t).unwrap();
        let phys = RoundRobinScheduler
            .schedule(AppId(1), &t, &hosts())
            .unwrap();
        g.set_physical(&phys).unwrap();
        assert_eq!(g.list_topologies().unwrap(), vec!["word-count"]);
        assert_eq!(g.get_logical("word-count").unwrap().name, "word-count");
        assert_eq!(g.get_physical("word-count").unwrap().assignments.len(), 6);
        g.remove_topology("word-count").unwrap();
        assert!(g.list_topologies().unwrap().is_empty());
    }

    #[test]
    fn agents_register_ephemerally() {
        let g = GlobalState::new(Coordinator::new());
        let sid = g.coordinator().create_session();
        g.register_agent(&HostInfo::new(0, "h0", 8), sid).unwrap();
        assert_eq!(g.list_agents().unwrap().len(), 1);
        g.coordinator().close_session(sid);
        assert!(g.list_agents().unwrap().is_empty(), "ephemeral cleanup");
    }

    #[test]
    fn topology_watch_sees_submission_and_reconfiguration() {
        let g = GlobalState::new(Coordinator::new());
        let (sink, rx) = crate::watch::testutil::events();
        g.coordinator().watch(&[TOPOLOGIES], sink);
        let mut t = word_count_example();
        g.set_logical(&t).unwrap();
        t.node_mut("split").unwrap().parallelism = 3;
        g.set_logical(&t).unwrap(); // reconfiguration rewrites the znode
        let events: Vec<_> = rx.try_iter().collect();
        let changed = events
            .iter()
            .filter(|e| e.kind == WatchKind::DataChanged && e.path == logical_path("word-count"))
            .count();
        assert_eq!(changed, 1, "second write is a data change");
    }
}

#[cfg(test)]
mod reconfig_tests {
    use super::*;
    use crate::store::Coordinator;
    use typhoon_model::{ReconfigOp, ReconfigRequest};

    fn sample() -> ReconfigRequest {
        ReconfigRequest {
            topology: "wc".into(),
            ops: vec![
                ReconfigOp::SetParallelism {
                    node: "split".into(),
                    parallelism: 3,
                },
                ReconfigOp::SwapLogic {
                    node: "filter".into(),
                    component: "filter-v2".into(),
                },
                ReconfigOp::SetGrouping {
                    from: "a".into(),
                    to: "b".into(),
                    grouping: Grouping::Fields(vec!["k".into()]),
                },
            ],
        }
    }

    #[test]
    fn reconfig_roundtrips_through_bytes() {
        let req = sample();
        assert_eq!(decode_reconfig(&encode_reconfig(&req)).unwrap(), req);
    }

    #[test]
    fn submit_take_preserves_order_and_drains() {
        let g = GlobalState::new(Coordinator::new());
        let mut second = sample();
        second.ops.truncate(1);
        g.submit_reconfig(&sample()).unwrap();
        g.submit_reconfig(&second).unwrap();
        let got = g.take_reconfigs("wc").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], sample());
        assert_eq!(got[1], second);
        assert!(g.take_reconfigs("wc").unwrap().is_empty(), "drained");
        assert!(g.take_reconfigs("unknown").unwrap().is_empty());
    }

    #[test]
    fn reconfig_watch_fires_on_submit() {
        let g = GlobalState::new(Coordinator::new());
        let (sink, rx) = crate::watch::testutil::events();
        g.coordinator().watch(&[AGENTS, RECONFIG], sink);
        g.submit_reconfig(&sample()).unwrap();
        assert!(rx.try_iter().count() >= 1);
    }

    #[test]
    fn corrupt_reconfig_rejected() {
        assert!(decode_reconfig(&[9, 9]).is_err());
    }
}
