//! The Typhoon framework layer (§3.3.2, Fig. 4).
//!
//! Owns the worker's routing state (Listing 1), performs tuple
//! de/serialization, classifies incoming tuples (data vs Table 2 control
//! streams), and applies SDN-driven reconfigurations: `ROUTING` updates
//! rewrite `nextHops`/policy in place, `INPUT_RATE`/`ACTIVATE`/`DEACTIVATE`
//! gate the spout, `BATCH_SIZE` retunes the I/O layer.
//!
//! The crucial difference from the Storm executor:
//! [`FrameworkLayer::route_each`] hands out one emission per copy that must
//! be serialized — **one**, even for one-to-many delivery: a broadcast is
//! one tuple addressed to `ff:ff:ff:ff:ff:ff`, replicated by the switch.

use bytes::Bytes;
use std::sync::Arc;
use typhoon_controller::ControlTuple;
use typhoon_metrics::Registry;
use typhoon_model::{AppId, Grouping, RouteDecision, RoutingState, TaskId};
use typhoon_net::MacAddr;
use typhoon_trace::{Hop, TraceCtx};
use typhoon_tuple::ser::{encode_tuple_vec, BatchEncoder, SerStats};
use typhoon_tuple::{MessageId, StreamId, Tuple};

/// One outgoing edge of this worker's node.
pub struct Route {
    /// Stream this edge subscribes to.
    pub stream: StreamId,
    /// Downstream logical node.
    pub downstream: String,
    /// Live routing state, reconfigurable via `ROUTING` control tuples.
    pub state: RoutingState,
}

/// A serialized, addressed emission ready for the I/O layer.
#[derive(Debug, Clone)]
pub struct Addressed {
    /// Destination worker (or broadcast) address.
    pub dst: MacAddr,
    /// The serialized tuple.
    pub blob: Bytes,
    /// The anchor XOR contribution of this emission (acking).
    pub anchor_xor: u64,
    /// End-to-end trace id carried by the tuple (0 = untraced).
    pub trace: u64,
}

/// The framework layer.
pub struct FrameworkLayer {
    app: AppId,
    task: TaskId,
    routes: Vec<Route>,
    ser: Arc<SerStats>,
    registry: Registry,
    rng_state: u64,
    trace: TraceCtx,
    /// Scratch for the broadcast hops of one `route_each` call, kept for
    /// its capacity.
    broadcast_hops: Vec<TaskId>,
    // Emission-position scope for anchor stamping: `emission_seq` counts
    // anchors handed out while routing tuples of `seq_root`, and resets
    // when the root changes (= a new input is being processed).
    seq_root: u64,
    emission_seq: u16,
}

impl FrameworkLayer {
    /// Builds the layer for one worker.
    pub fn new(
        app: AppId,
        task: TaskId,
        routes: Vec<Route>,
        ser: Arc<SerStats>,
        registry: Registry,
    ) -> Self {
        FrameworkLayer {
            app,
            task,
            routes,
            ser,
            registry,
            rng_state: (task.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            trace: TraceCtx::disabled(),
            broadcast_hops: Vec::new(),
            seq_root: 0,
            emission_seq: 0,
        }
    }

    /// Installs this worker's tracing context (records `Serialize` spans).
    pub fn set_trace(&mut self, trace: TraceCtx) {
        self.trace = trace;
    }

    /// This worker's address on the SDN fabric.
    pub fn mac(&self) -> MacAddr {
        MacAddr::worker(self.app.0, self.task)
    }

    fn next_anchor(&mut self) -> u64 {
        // xorshift64*: deterministic per task, cheap, never zero.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1
    }

    /// An anchor whose low 16 bits carry the *emission position* within
    /// the current input's processing (crash recovery, see
    /// [`MessageId::ANCHOR_POSITION_MASK`]): for a deterministic bolt the
    /// n-th emission of a replayed input is the same logical tuple, so
    /// `(base_root, position)` is a replay-stable dedup key downstream.
    /// The high 48 bits stay random so XOR-lineage tracking is unaffected.
    fn scoped_anchor(&mut self, root: u64) -> u64 {
        if root != self.seq_root {
            self.seq_root = root;
            self.emission_seq = 0;
        }
        let pos = self.emission_seq as u64;
        self.emission_seq = self.emission_seq.wrapping_add(1);
        loop {
            let high = self.next_anchor() & !MessageId::ANCHOR_POSITION_MASK;
            if high != 0 {
                return high | pos;
            }
        }
    }

    /// Stamps the next emission of `root` with its anchor (0 unanchored).
    fn stamp(&mut self, tuple: &mut Tuple, anchored: bool, root: u64) -> u64 {
        if !anchored {
            return 0;
        }
        let anchor = self.scoped_anchor(root);
        tuple.meta.message_id = MessageId { root, anchor };
        anchor
    }

    /// Routes one outgoing tuple, calling `emit(dst, anchor, &tuple)` once
    /// per copy that must be serialized — the caller encodes each exactly
    /// once, wherever it likes (the worker: into the destination's frame).
    ///
    /// * Unicast decision → one emission, stamped with its anchor.
    /// * Broadcast decision → **one emission** addressed to broadcast; the
    ///   SDN data plane replicates it (§3.3.1). When the tuple is anchored
    ///   (acking), broadcast falls back to one emission per destination
    ///   because each copy needs a distinct anchor — the paper never
    ///   combines broadcast and guaranteed processing.
    ///
    /// Unicasts are emitted in route order, broadcast copies after them.
    /// A call allocates nothing once the broadcast scratch list has grown.
    pub fn route_each(
        &mut self,
        mut tuple: Tuple,
        acking: bool,
        mut emit: impl FnMut(MacAddr, u64, &Tuple),
    ) {
        let anchored = acking && tuple.meta.message_id.root != 0;
        let root = tuple.meta.message_id.root;
        self.trace.record(tuple.meta.trace, Hop::Serialize);
        let app = self.app.0;
        let mut hops = std::mem::take(&mut self.broadcast_hops);
        for i in 0..self.routes.len() {
            let route = &mut self.routes[i];
            if route.stream != tuple.meta.stream {
                continue;
            }
            match route.state.route(&tuple) {
                RouteDecision::One(dst) => {
                    let anchor = self.stamp(&mut tuple, anchored, root);
                    emit(MacAddr::worker(app, dst), anchor, &tuple);
                }
                RouteDecision::Broadcast => hops.extend_from_slice(route.state.next_hops()),
                RouteDecision::Drop => self.registry.counter("tuples.unroutable").inc(),
            }
        }
        if anchored {
            // Per-destination anchors require per-destination copies.
            for &dst in &hops {
                let anchor = self.stamp(&mut tuple, anchored, root);
                emit(MacAddr::worker(app, dst), anchor, &tuple);
            }
        } else if !hops.is_empty() {
            // The Typhoon fast path: serialize once, broadcast address,
            // network-layer replication.
            tuple.meta.message_id = MessageId::NONE;
            emit(MacAddr::BROADCAST, 0, &tuple);
        }
        hops.clear();
        self.broadcast_hops = hops;
    }

    /// [`FrameworkLayer::route_each`] into serialized, addressed blobs.
    /// Every emission of the call encodes into one shared buffer; the blobs
    /// are refcounted slices of it, so a multi-destination emission costs
    /// one allocation.
    pub fn route(&mut self, tuple: Tuple, acking: bool) -> Vec<Addressed> {
        let trace = tuple.meta.trace;
        let ser = Arc::clone(&self.ser);
        let mut enc = BatchEncoder::new();
        let mut addressed = Vec::new();
        self.route_each(tuple, acking, |dst, anchor_xor, tuple| {
            addressed.push((dst, anchor_xor));
            enc.push(tuple, &ser);
        });
        addressed
            .into_iter()
            .zip(enc.finish())
            .map(|((dst, anchor_xor), blob)| Addressed {
                dst,
                blob,
                anchor_xor,
                trace,
            })
            .collect()
    }

    /// Serializes a tuple addressed to one explicit task (framework
    /// messages: acks, metric responses).
    pub fn direct(&mut self, tuple: &Tuple, dst: TaskId) -> Addressed {
        Addressed {
            dst: MacAddr::worker(self.app.0, dst),
            blob: Bytes::from(encode_tuple_vec(tuple, &self.ser)),
            anchor_xor: 0,
            trace: 0,
        }
    }

    /// Serializes a tuple addressed to the SDN controller (`METRIC_RESP`).
    pub fn to_controller(&mut self, tuple: &Tuple) -> Addressed {
        Addressed {
            dst: MacAddr::CONTROLLER,
            blob: Bytes::from(encode_tuple_vec(tuple, &self.ser)),
            anchor_xor: 0,
            trace: 0,
        }
    }

    /// Applies a `ROUTING` control tuple: replace `nextHops` and/or the
    /// routing policy for the edge toward `downstream` (§3.3.2).
    pub fn apply_routing(
        &mut self,
        downstream: &str,
        next_hops: Option<Vec<TaskId>>,
        policy: Option<(Grouping, Vec<usize>)>,
    ) -> bool {
        let mut applied = false;
        for route in self
            .routes
            .iter_mut()
            .filter(|r| r.downstream == downstream)
        {
            if let Some(hops) = &next_hops {
                route.state.set_next_hops(hops.clone());
                applied = true;
            }
            if let Some((grouping, key_indices)) = &policy {
                route
                    .state
                    .set_policy(grouping.clone(), key_indices.clone());
                applied = true;
            }
        }
        if applied {
            self.registry.counter("control.routing_applied").inc();
        }
        applied
    }

    /// Classifies an incoming decoded tuple.
    pub fn classify(&self, tuple: &Tuple) -> Classified {
        if let Some(ct) = ControlTuple::from_tuple(tuple) {
            Classified::Control(ct)
        } else if tuple.meta.stream == StreamId::ACK {
            Classified::Ack
        } else if tuple.meta.stream == StreamId::ACK_RESULT {
            Classified::AckResult
        } else {
            Classified::Data
        }
    }

    /// Read access to the routes (tests, drain checks).
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

/// The framework layer's tuple classification (Fig. 4's tuple classifier).
#[derive(Debug)]
pub enum Classified {
    /// Deliver to the application computation layer.
    Data,
    /// A Table 2 control tuple, consumed by the framework layer (or, for
    /// `SIGNAL`, forwarded to a stateful bolt's flush hook).
    Control(ControlTuple),
    /// Acker bookkeeping input.
    Ack,
    /// Acker verdict for a spout.
    AckResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_tuple::Value;

    fn layer(grouping: Grouping, hops: Vec<u32>) -> FrameworkLayer {
        FrameworkLayer::new(
            AppId(1),
            TaskId(7),
            vec![Route {
                stream: StreamId::DEFAULT,
                downstream: "sink".into(),
                state: RoutingState::new(grouping, hops.into_iter().map(TaskId).collect(), vec![]),
            }],
            SerStats::shared(),
            Registry::new(),
        )
    }

    fn data_tuple() -> Tuple {
        Tuple::new(TaskId(7), vec![Value::Int(1)])
    }

    #[test]
    fn broadcast_serializes_exactly_once() {
        let mut fw = layer(Grouping::All, vec![1, 2, 3, 4, 5, 6]);
        let out = fw.route(data_tuple(), false);
        assert_eq!(out.len(), 1, "one blob regardless of fanout");
        assert_eq!(out[0].dst, MacAddr::BROADCAST);
        assert_eq!(
            fw.ser.counts().0,
            1,
            "single serialization — the Fig. 9 win"
        );
    }

    #[test]
    fn unicast_serializes_once_per_tuple() {
        let mut fw = layer(Grouping::Shuffle, vec![1, 2, 3]);
        for _ in 0..6 {
            let out = fw.route(data_tuple(), false);
            assert_eq!(out.len(), 1);
            assert_ne!(out[0].dst, MacAddr::BROADCAST);
        }
        assert_eq!(fw.ser.counts().0, 6);
    }

    #[test]
    fn anchored_broadcast_falls_back_to_per_destination() {
        let mut fw = layer(Grouping::All, vec![1, 2, 3]);
        let t = data_tuple().with_message_id(MessageId { root: 9, anchor: 0 });
        let out = fw.route(t, true);
        assert_eq!(out.len(), 3);
        let xor = out.iter().fold(0u64, |acc, a| acc ^ a.anchor_xor);
        assert_ne!(xor, 0);
        let anchors: std::collections::HashSet<u64> = out.iter().map(|a| a.anchor_xor).collect();
        assert_eq!(anchors.len(), 3, "distinct anchors per copy");
    }

    #[test]
    fn anchored_broadcast_blobs_share_one_allocation() {
        let mut fw = layer(Grouping::All, vec![1, 2, 3]);
        let t = data_tuple().with_message_id(MessageId { root: 9, anchor: 0 });
        let out = fw.route(t, true);
        assert_eq!(out.len(), 3);
        // The three per-destination blobs are contiguous slices of the same
        // encode buffer — batched zero-copy, not three allocations.
        for pair in out.windows(2) {
            // SAFETY: one-past-the-end pointer of a live slice, compared
            // (never dereferenced) against the next slice's start.
            let end = unsafe { pair[0].blob.as_ptr().add(pair[0].blob.len()) };
            assert_eq!(end, pair[1].blob.as_ptr(), "adjacent slices of one buffer");
        }
    }

    #[test]
    fn routing_control_updates_next_hops_in_place() {
        let mut fw = layer(Grouping::Shuffle, vec![1, 2]);
        assert!(fw.apply_routing("sink", Some(vec![TaskId(1), TaskId(2), TaskId(3)]), None));
        let seen: std::collections::HashSet<MacAddr> = (0..3)
            .map(|_| fw.route(data_tuple(), false)[0].dst)
            .collect();
        assert_eq!(seen.len(), 3, "new hop is in rotation");
    }

    #[test]
    fn routing_control_updates_policy_type() {
        let mut fw = layer(Grouping::Fields(vec!["k".into()]), vec![1, 2]);
        assert!(fw.apply_routing("sink", None, Some((Grouping::Shuffle, vec![]))));
        let a = fw.route(data_tuple(), false)[0].dst;
        let b = fw.route(data_tuple(), false)[0].dst;
        assert_ne!(a, b, "shuffle alternates identical keys");
    }

    #[test]
    fn routing_update_for_unknown_downstream_is_a_noop() {
        let mut fw = layer(Grouping::Shuffle, vec![1]);
        assert!(!fw.apply_routing("ghost", Some(vec![]), None));
    }

    #[test]
    fn classify_separates_control_ack_and_data() {
        let fw = layer(Grouping::Shuffle, vec![1]);
        assert!(matches!(fw.classify(&data_tuple()), Classified::Data));
        let ct = ControlTuple::Signal.to_tuple(TaskId(0));
        assert!(matches!(
            fw.classify(&ct),
            Classified::Control(ControlTuple::Signal)
        ));
        let ack = Tuple::on_stream(TaskId(0), StreamId::ACK, vec![]);
        assert!(matches!(fw.classify(&ack), Classified::Ack));
        let res = Tuple::on_stream(TaskId(0), StreamId::ACK_RESULT, vec![]);
        assert!(matches!(fw.classify(&res), Classified::AckResult));
    }

    #[test]
    fn empty_broadcast_hops_produce_nothing() {
        let mut fw = layer(Grouping::All, vec![]);
        assert!(fw.route(data_tuple(), false).is_empty());
    }

    #[test]
    fn anchor_positions_count_per_input_and_reset_on_new_root() {
        let mut fw = layer(Grouping::Shuffle, vec![1, 2]);
        // Three emissions while processing root A: positions 0, 1, 2.
        for expect in 0..3u16 {
            let t = data_tuple().with_message_id(MessageId {
                root: 0xA00,
                anchor: 0,
            });
            let out = fw.route(t, true);
            assert_eq!(MessageId::anchor_position(out[0].anchor_xor), expect);
        }
        // A new input (root B) restarts the position sequence.
        let t = data_tuple().with_message_id(MessageId {
            root: 0xB00,
            anchor: 0,
        });
        let out = fw.route(t, true);
        assert_eq!(MessageId::anchor_position(out[0].anchor_xor), 0);
        // A replay round of root A shares its base: positions restart so
        // dedup keys line up with round 0.
        let replayed = MessageId::next_round(0xA00);
        let t = data_tuple().with_message_id(MessageId {
            root: replayed,
            anchor: 0,
        });
        let out = fw.route(t, true);
        assert_eq!(MessageId::anchor_position(out[0].anchor_xor), 0);
        assert_ne!(out[0].anchor_xor, 0, "anchors stay nonzero");
    }
}
