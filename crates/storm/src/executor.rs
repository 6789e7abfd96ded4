//! Executors: the worker threads running spouts, bolts and ackers.
//!
//! This is where the baseline pays its application-level routing costs:
//! the executor's send path serializes the tuple **once per destination**
//! — so an `All`-grouped (one-to-many) emission performs N serializations
//! and N sends, "multiple serialization computations for each data tuple"
//! (§1). Enabling the app-level debugger adds one more serialization+send
//! per tuple (Fig. 12's Storm curve).

use crate::acker::{AckOutcome, AckerLedger};
use crate::transport::{Inbox, Outbound};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::{RateMeter, Registry};
use typhoon_model::{Bolt, Emitter, RouteDecision, RoutingState, Spout, TaskId, VecEmitter};
use typhoon_trace::{Hop, TraceCtx};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::{MessageId, StreamId, Tuple, Value};

/// The component an executor runs.
pub enum Component {
    /// A data source.
    Spout(Box<dyn Spout>),
    /// A processing node.
    Bolt(Box<dyn Bolt>),
    /// The system acker (guaranteed-processing bookkeeping).
    Acker,
}

/// One outgoing edge of this executor's node.
pub struct Route {
    /// The stream the edge subscribes to.
    pub stream: StreamId,
    /// Downstream node name (for `ROUTING`-style updates in tests).
    pub downstream: String,
    /// The live routing state (Listing 1).
    pub state: RoutingState,
}

/// Everything an executor thread needs.
pub struct ExecutorCtx {
    /// This executor's task ID.
    pub task: TaskId,
    /// The logical node it instantiates.
    pub node: String,
    /// Outgoing edges.
    pub routes: Vec<Route>,
    /// Connection cache to other tasks.
    pub outbound: Outbound,
    /// This task's inbox (owned: its listener lives as long as we do).
    pub inbox: Inbox,
    /// Cluster-wide serialization meter.
    pub ser: Arc<SerStats>,
    /// Liveness: updated every loop iteration, watched by Nimbus.
    pub heartbeats: Arc<Mutex<HashMap<TaskId, Instant>>>,
    /// Per-task received/emitted meter (experiment timelines).
    pub meter: RateMeter,
    /// Per-task metrics.
    pub registry: Registry,
    /// The topology's acker task (None = acking disabled).
    pub acker: Option<TaskId>,
    /// Max in-flight spout roots (only with acking).
    pub max_pending: usize,
    /// Ack timeout for replay.
    pub ack_timeout: Duration,
    /// Spout emission rate cap (tuples/sec; None = unlimited).
    pub input_rate: Arc<Mutex<Option<u32>>>,
    /// App-level debug mirror destination (Fig. 12's Storm mode).
    pub mirror_to: Arc<Mutex<Option<TaskId>>>,
    /// Crash the executor ("OutOfMemoryError") when the inbox exceeds this
    /// many queued tuples (Fig. 11's overload failure mode).
    pub mem_cap_items: Option<usize>,
    /// Cooperative shutdown flag.
    pub shutdown: Arc<AtomicBool>,
    /// End-to-end tracing context (disabled by default; hops recorded here
    /// mirror the Typhoon side so the baselines are comparable).
    pub trace: TraceCtx,

    // ---- internal scratch ----
    pub(crate) rng: SmallRng,
    pub(crate) pending: HashMap<u64, (Instant, u64)>,
    pub(crate) current_root: u64,
    pub(crate) current_trace: u64,
    pub(crate) accum_xor: u64,
    pub(crate) rate_window_start: Instant,
    pub(crate) rate_window_count: u32,
    /// Per-destination transfer buffers, modelling Storm's disruptor-backed
    /// transfer queues: sends batch up and flush on size or on the 1 ms
    /// flush tick, exactly like the JVM implementation's flush tuple. Each
    /// blob carries its trace id (0 = untraced).
    pub(crate) transfer: HashMap<TaskId, Vec<(Bytes, u64)>>,
    pub(crate) last_transfer_flush: Instant,
}

/// Storm's transfer-queue flush tick (1 ms in the JVM implementation).
const TRANSFER_FLUSH_TICK: Duration = Duration::from_millis(1);
/// Storm's transfer batch size.
const TRANSFER_BATCH: usize = 100;

impl ExecutorCtx {
    fn heartbeat(&self) {
        self.heartbeats.lock().insert(self.task, Instant::now());
    }

    /// True when the current 100 ms window still has emission budget.
    fn rate_allows(&mut self) -> bool {
        let cap = match *self.input_rate.lock() {
            Some(cap) => cap,
            None => return true,
        };
        let now = Instant::now();
        if now.duration_since(self.rate_window_start) >= Duration::from_millis(100) {
            self.rate_window_start = now;
            self.rate_window_count = 0;
        }
        self.rate_window_count < cap.div_ceil(10)
    }

    /// Debits actual emissions from the window budget.
    fn rate_consume(&mut self, n: u32) {
        self.rate_window_count += n;
    }

    /// Serializes and sends one copy of `tuple` to `dst`, assigning a fresh
    /// anchor when the emission is anchored. **This is the per-destination
    /// serialization** the paper attributes the baseline's one-to-many
    /// collapse to.
    fn send_one(&mut self, dst: TaskId, tuple: &mut Tuple) {
        if self.acker.is_some() && self.current_root != 0 {
            let anchor = self.rng.gen::<u64>() | 1;
            tuple.meta.message_id = MessageId {
                root: self.current_root,
                anchor,
            };
            self.accum_xor ^= anchor;
        }
        tuple.meta.trace = self.current_trace;
        let blob = Bytes::from(encode_tuple_vec(tuple, &self.ser));
        self.trace.record(self.current_trace, Hop::Serialize);
        self.transfer
            .entry(dst)
            .or_default()
            .push((blob, self.current_trace));
        self.trace.record(self.current_trace, Hop::QueueOut);
        self.registry.counter("tuples.emitted").inc();
        if self.transfer.get(&dst).map_or(0, Vec::len) >= TRANSFER_BATCH {
            self.flush_destination(dst);
        }
    }

    fn flush_destination(&mut self, dst: TaskId) {
        if let Some(blobs) = self.transfer.remove(&dst) {
            for (blob, trace) in blobs {
                self.trace.record(trace, Hop::NetHop);
                if !self.outbound.send(dst, &blob) {
                    self.registry.counter("tuples.dropped").inc();
                }
            }
        }
    }

    /// Flushes every transfer buffer whose flush tick elapsed (or all, when
    /// `force`). Mirrors Storm's periodic flush tuple.
    pub(crate) fn flush_transfers(&mut self, force: bool) {
        if !force && self.last_transfer_flush.elapsed() < TRANSFER_FLUSH_TICK {
            return;
        }
        self.last_transfer_flush = Instant::now();
        let dsts: Vec<TaskId> = self.transfer.keys().copied().collect();
        for dst in dsts {
            self.flush_destination(dst);
        }
    }

    fn emit_tuple(&mut self, stream: StreamId, values: Vec<Value>) {
        let mut tuple = Tuple::on_stream(self.task, stream, values);
        let mut targets: Vec<TaskId> = Vec::new();
        for route in &mut self.routes {
            if route.stream != stream {
                continue;
            }
            match route.state.route(&tuple) {
                RouteDecision::One(dst) => targets.push(dst),
                RouteDecision::Broadcast => targets.extend_from_slice(route.state.next_hops()),
                RouteDecision::Drop => {
                    self.registry.counter("tuples.unroutable").inc();
                }
            }
        }
        for dst in targets {
            self.send_one(dst, &mut tuple);
        }
        // App-level debug mirroring: one more serialization + send.
        let mirror = *self.mirror_to.lock();
        if let Some(dbg) = mirror {
            let mut copy = tuple.clone();
            copy.meta.stream = StreamId::DEBUG_MIRROR;
            copy.meta.message_id = MessageId::NONE;
            let saved_root = self.current_root;
            let saved_trace = self.current_trace;
            self.current_root = 0; // mirrors are never anchored (nor traced)
            self.current_trace = 0;
            self.send_one(dbg, &mut copy);
            self.current_root = saved_root;
            self.current_trace = saved_trace;
        }
    }

    fn send_acker(&mut self, root: u64, xor: u64, spout: Option<TaskId>) {
        let acker = match self.acker {
            Some(a) => a,
            None => return,
        };
        let msg = Tuple::on_stream(
            self.task,
            StreamId::ACK,
            vec![
                Value::Int(root as i64),
                Value::Int(xor as i64),
                match spout {
                    Some(s) => Value::Int(s.0 as i64),
                    None => Value::Nil,
                },
            ],
        );
        let blob = Bytes::from(encode_tuple_vec(&msg, &self.ser));
        self.transfer.entry(acker).or_default().push((blob, 0));
        if self.transfer.get(&acker).map_or(0, Vec::len) >= TRANSFER_BATCH {
            self.flush_destination(acker);
        }
    }
}

impl Emitter for ExecutorCtx {
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>) {
        self.emit_tuple(stream, values);
    }
}

/// Drives one executor until shutdown. Run on a dedicated thread;
/// component panics kill the thread, which Nimbus notices via the missing
/// heartbeat (the baseline's only failure signal).
pub fn run(mut ctx: ExecutorCtx, component: Component) {
    match component {
        Component::Spout(mut spout) => {
            spout.open();
            run_loop(&mut ctx, SpoutRole(spout));
        }
        Component::Bolt(mut bolt) => {
            bolt.prepare();
            run_loop(&mut ctx, BoltRole(bolt));
        }
        Component::Acker => {
            let role = AckerRole {
                ledger: AckerLedger::new(),
                last_expire: Instant::now(),
            };
            run_loop(&mut ctx, role);
        }
    }
}

const DRAIN_BATCH: usize = 256;

/// How long an idle bolt or acker executor blocks on its inbox before it
/// looks at its timers and the shutdown flag again: the baseline's own
/// poll, part of what Fig. 8/9 measure.
const INBOX_POLL: Duration = Duration::from_millis(1);

/// What a component contributes to the one executor loop ([`run_loop`]).
trait ExecutorRole {
    /// True for the component whose work does not arrive on the inbox: an
    /// idle spout is polled, everything else blocks on the inbox.
    const POLLS: bool = false;
    /// Start of every round: timers and (for the spout) production.
    /// Returns `true` when it did work.
    fn on_tick(&mut self, ctx: &mut ExecutorCtx) -> bool;
    /// One decoded inbox tuple.
    fn on_tuple(&mut self, ctx: &mut ExecutorCtx, tuple: Tuple);
}

/// The executor loop every component shares: heartbeat, the role's tick,
/// inbox drain, transfer flush, idle wait.
fn run_loop<R: ExecutorRole>(ctx: &mut ExecutorCtx, mut role: R) {
    fn deliver(ctx: &mut ExecutorCtx, role: &mut impl ExecutorRole, blob: Bytes) {
        if let Ok((tuple, _)) = decode_tuple(&blob, &ctx.ser) {
            role.on_tuple(ctx, tuple);
        }
    }
    while !ctx.shutdown.load(Ordering::Acquire) {
        ctx.heartbeat();
        let mut busy = role.on_tick(ctx);
        for _ in 0..DRAIN_BATCH {
            let Some(blob) = ctx.inbox.try_recv() else {
                break;
            };
            busy = true;
            deliver(ctx, &mut role, blob);
        }
        ctx.flush_transfers(false);
        if !busy {
            ctx.flush_transfers(true);
            ctx.outbound.flush_all();
            if R::POLLS {
                std::thread::sleep(Duration::from_micros(20)); // LINT: allow-sleep(idle backoff of the spout executor, whose next_batch cannot wake it)
            } else if let Some(blob) = ctx.inbox.recv_timeout(INBOX_POLL) {
                // Like real Storm's blocking disruptor wait strategy: block
                // until input arrives. Everything buffered was just flushed,
                // so the only other deadlines are the 100 ms timers and the
                // shutdown flag, which this poll covers.
                deliver(ctx, &mut role, blob);
            }
        }
    }
}

struct SpoutRole(Box<dyn Spout>);

impl ExecutorRole for SpoutRole {
    const POLLS: bool = true;

    fn on_tick(&mut self, ctx: &mut ExecutorCtx) -> bool {
        let throttled = ctx.acker.is_some() && ctx.pending.len() >= ctx.max_pending;
        !throttled && ctx.rate_allows() && next_batch_rooted(ctx, self.0.as_mut())
    }

    /// Ack results from the acker.
    fn on_tuple(&mut self, ctx: &mut ExecutorCtx, tuple: Tuple) {
        if tuple.meta.stream != StreamId::ACK_RESULT {
            return;
        }
        let root = tuple.get(0).and_then(Value::as_int).unwrap_or(0) as u64;
        let ok = tuple.get(1).and_then(Value::as_bool).unwrap_or(false);
        if let Some((born, trace)) = ctx.pending.remove(&root) {
            if ok {
                ctx.registry.counter("acks.completed").inc();
                ctx.registry
                    .histogram("latency")
                    .record_duration(born.elapsed());
                ctx.trace.record(trace, Hop::Ack);
                self.0.ack(root);
            } else {
                ctx.registry.counter("acks.failed").inc();
                self.0.fail(root);
            }
        }
    }
}

/// Calls the spout once; each top-level emission becomes its own root tree
/// when acking is on.
fn next_batch_rooted(ctx: &mut ExecutorCtx, spout: &mut dyn Spout) -> bool {
    // Collect emissions first so each can get its own root.
    let mut collect = VecEmitter::default();
    let produced = spout.next_batch(&mut collect);
    let had_emissions = !collect.emitted.is_empty();
    ctx.rate_consume(collect.emitted.len() as u32);
    for (index, (stream, values)) in collect.emitted.into_iter().enumerate() {
        let trace = ctx.trace.sample();
        ctx.current_trace = trace;
        ctx.trace.record(trace, Hop::SpoutEmit);
        if ctx.acker.is_some() {
            let root = ctx.rng.gen::<u64>() | 1;
            ctx.current_root = root;
            ctx.accum_xor = 0;
            ctx.emit_tuple(stream, values);
            let xor = ctx.accum_xor;
            let task = ctx.task;
            ctx.send_acker(root, xor, Some(task));
            ctx.pending.insert(root, (Instant::now(), trace));
            ctx.current_root = 0;
            spout.emitted(index, root);
        } else {
            ctx.current_root = 0;
            ctx.emit_tuple(stream, values);
        }
        ctx.current_trace = 0;
        ctx.meter.mark(1);
    }
    produced || had_emissions
}

struct BoltRole(Box<dyn Bolt>);

impl ExecutorRole for BoltRole {
    fn on_tick(&mut self, ctx: &mut ExecutorCtx) -> bool {
        let depth = ctx.inbox.depth();
        ctx.registry.gauge("queue.depth").set(depth as i64);
        if let Some(cap) = ctx.mem_cap_items {
            if depth > cap {
                // Model of the JVM worker's OutOfMemoryError under
                // overload (Fig. 11): drop the queue and die; Nimbus will
                // restart the worker after the heartbeat timeout.
                while ctx.inbox.try_recv().is_some() {}
                ctx.registry.counter("oom.crashes").inc();
                panic!("simulated OutOfMemoryError in {}", ctx.node);
            }
        }
        false
    }

    fn on_tuple(&mut self, ctx: &mut ExecutorCtx, tuple: Tuple) {
        if tuple.meta.stream == StreamId::CTRL_SIGNAL {
            ctx.current_root = 0;
            self.0.on_signal(ctx);
            return;
        }
        ctx.registry.counter("tuples.received").inc();
        ctx.meter.mark(1);
        let input_id = tuple.meta.message_id;
        let input_trace = tuple.meta.trace;
        ctx.trace.record(input_trace, Hop::Deserialize);
        ctx.current_root = input_id.root;
        ctx.current_trace = input_trace;
        ctx.accum_xor = 0;
        self.0.execute(tuple, ctx);
        ctx.trace.record(input_trace, Hop::BoltExecute);
        // Auto-ack (Storm's BasicBolt discipline): input anchor XOR
        // the anchors of everything emitted during execute.
        if input_id.is_anchored() {
            let xor = input_id.anchor ^ ctx.accum_xor;
            ctx.send_acker(input_id.root, xor, None);
        }
        ctx.current_root = 0;
        ctx.current_trace = 0;
    }
}

struct AckerRole {
    ledger: AckerLedger,
    last_expire: Instant,
}

impl ExecutorRole for AckerRole {
    fn on_tick(&mut self, ctx: &mut ExecutorCtx) -> bool {
        if self.last_expire.elapsed() >= Duration::from_millis(100) {
            self.last_expire = Instant::now();
            for (root, owner, outcome) in self.ledger.expire(ctx.ack_timeout, Instant::now()) {
                notify_spout(ctx, owner, root, outcome);
            }
        }
        ctx.registry
            .gauge("acker.pending")
            .set(self.ledger.pending() as i64);
        false
    }

    fn on_tuple(&mut self, ctx: &mut ExecutorCtx, tuple: Tuple) {
        if tuple.meta.stream != StreamId::ACK {
            return;
        }
        let root = tuple.get(0).and_then(Value::as_int).unwrap_or(0) as u64;
        let xor = tuple.get(1).and_then(Value::as_int).unwrap_or(0) as u64;
        let spout = tuple
            .get(2)
            .and_then(Value::as_int)
            .map(|s| TaskId(s as u32));
        if let Some((owner, outcome)) = self.ledger.apply(root, xor, spout, Instant::now()) {
            notify_spout(ctx, owner, root, outcome);
        }
    }
}

fn notify_spout(ctx: &mut ExecutorCtx, spout: TaskId, root: u64, outcome: AckOutcome) {
    let msg = Tuple::on_stream(
        ctx.task,
        StreamId::ACK_RESULT,
        vec![
            Value::Int(root as i64),
            Value::Bool(outcome == AckOutcome::Complete),
        ],
    );
    let blob = Bytes::from(encode_tuple_vec(&msg, &ctx.ser));
    ctx.transfer.entry(spout).or_default().push((blob, 0));
}

/// Builds a default-scratch executor context (shared by Nimbus and tests).
#[allow(clippy::too_many_arguments)]
pub fn make_ctx(
    task: TaskId,
    node: &str,
    routes: Vec<Route>,
    outbound: Outbound,
    inbox: Inbox,
    ser: Arc<SerStats>,
    heartbeats: Arc<Mutex<HashMap<TaskId, Instant>>>,
    meter: RateMeter,
    registry: Registry,
    acker: Option<TaskId>,
    max_pending: usize,
    ack_timeout: Duration,
    shutdown: Arc<AtomicBool>,
) -> ExecutorCtx {
    ExecutorCtx {
        task,
        node: node.to_owned(),
        routes,
        outbound,
        inbox,
        ser,
        heartbeats,
        meter,
        registry,
        acker,
        max_pending,
        ack_timeout,
        input_rate: Arc::new(Mutex::with_rank(
            rank::EXEC_RATE_CELL,
            "storm.executor.input_rate",
            None,
        )),
        mirror_to: Arc::new(Mutex::with_rank(
            rank::EXEC_MIRROR_CELL,
            "storm.executor.mirror_to",
            None,
        )),
        mem_cap_items: None,
        shutdown,
        trace: TraceCtx::disabled(),
        rng: SmallRng::seed_from_u64(task.0 as u64 ^ 0x5eed),
        pending: HashMap::new(),
        current_root: 0,
        current_trace: 0,
        accum_xor: 0,
        rate_window_start: Instant::now(),
        rate_window_count: 0,
        transfer: HashMap::new(),
        last_transfer_flush: Instant::now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Directory;
    use typhoon_model::Grouping;

    fn harness(grouping: Grouping, hops: Vec<TaskId>) -> (ExecutorCtx, Vec<Inbox>, Arc<SerStats>) {
        let dir = Directory::new();
        let mut inboxes = Vec::new();
        for &h in &hops {
            let ib = Inbox::local();
            dir.register(h, ib.addr.clone());
            inboxes.push(ib);
        }
        let my_inbox = Inbox::local();
        let ser = SerStats::shared();
        let ctx = make_ctx(
            TaskId(100),
            "src",
            vec![Route {
                stream: StreamId::DEFAULT,
                downstream: "sink".into(),
                state: RoutingState::new(grouping, hops, vec![]),
            }],
            Outbound::new(dir),
            my_inbox,
            ser.clone(),
            Arc::new(Mutex::new(HashMap::new())),
            RateMeter::per_second(),
            Registry::new(),
            None,
            1024,
            Duration::from_secs(30),
            Arc::new(AtomicBool::new(false)),
        );
        (ctx, inboxes, ser)
    }

    #[test]
    fn one_to_many_serializes_once_per_destination() {
        let hops: Vec<TaskId> = (0..4).map(TaskId).collect();
        let (mut ctx, inboxes, ser) = harness(Grouping::All, hops);
        ctx.emit_tuple(StreamId::DEFAULT, vec![Value::Int(7)]);
        ctx.flush_transfers(true);
        // The headline baseline cost: 4 destinations = 4 serializations.
        assert_eq!(ser.counts().0, 4);
        for ib in &inboxes {
            assert!(ib.try_recv().is_some(), "every sink got a copy");
        }
    }

    #[test]
    fn shuffle_serializes_once_per_tuple() {
        let hops: Vec<TaskId> = (0..4).map(TaskId).collect();
        let (mut ctx, _inboxes, ser) = harness(Grouping::Shuffle, hops);
        for _ in 0..8 {
            ctx.emit_tuple(StreamId::DEFAULT, vec![Value::Int(7)]);
        }
        assert_eq!(ser.counts().0, 8);
    }

    #[test]
    fn debug_mirror_adds_a_serialization() {
        let hops = vec![TaskId(0)];
        let (mut ctx, _inboxes, ser) = harness(Grouping::Global, hops);
        let dbg_inbox = Inbox::local();
        // Register the debug worker and flip the mirror on.
        ctx.outbound = {
            let dir = Directory::new();
            dir.register(TaskId(0), Inbox::local().addr.clone());
            dir.register(TaskId(999), dbg_inbox.addr.clone());
            Outbound::new(dir)
        };
        *ctx.mirror_to.lock() = Some(TaskId(999));
        ctx.emit_tuple(StreamId::DEFAULT, vec![Value::Int(1)]);
        ctx.flush_transfers(true);
        assert_eq!(ser.counts().0, 2, "base send + mirror send");
        let mirrored = dbg_inbox.try_recv().unwrap();
        let (t, _) = decode_tuple(&mirrored, &ser).unwrap();
        assert_eq!(t.meta.stream, StreamId::DEBUG_MIRROR);
    }

    #[test]
    fn anchored_emissions_accumulate_xor() {
        let hops: Vec<TaskId> = (0..3).map(TaskId).collect();
        let (mut ctx, inboxes, ser) = harness(Grouping::All, hops);
        ctx.acker = Some(TaskId(500));
        ctx.current_root = 42;
        ctx.accum_xor = 0;
        ctx.emit_tuple(StreamId::DEFAULT, vec![Value::Int(1)]);
        ctx.flush_transfers(true);
        // Each of the three sends got a distinct anchor; XOR of the three
        // anchors on the wire equals the accumulated value.
        let mut wire_xor = 0u64;
        for ib in &inboxes {
            let blob = ib.try_recv().unwrap();
            let (t, _) = decode_tuple(&blob, &ser).unwrap();
            assert_eq!(t.meta.message_id.root, 42);
            wire_xor ^= t.meta.message_id.anchor;
        }
        assert_eq!(wire_xor, ctx.accum_xor);
        assert_ne!(ctx.accum_xor, 0);
    }

    /// Fig. 11's overload model, on the inbox's own depth count: a bolt
    /// whose backlog passes `mem_cap_items` reports the depth, counts one
    /// crash, drops the backlog and dies.
    #[test]
    fn a_bolt_over_its_memory_cap_reports_the_depth_and_dies() {
        struct Idle;
        impl Bolt for Idle {
            fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
        }
        let (mut ctx, _inboxes, _ser) = harness(Grouping::Shuffle, vec![]);
        ctx.mem_cap_items = Some(3);
        let (task, registry) = (ctx.task, ctx.registry.clone());
        let to_self = Directory::new();
        to_self.register(task, ctx.inbox.addr.clone());
        let backlog = Outbound::new(to_self);
        for _ in 0..5 {
            assert!(backlog.send(task, &Bytes::from_static(b"blob")));
        }
        assert_eq!(ctx.inbox.depth(), 5);
        let executor = std::thread::spawn(move || run(ctx, Component::Bolt(Box::new(Idle))));
        assert!(executor.join().is_err(), "the executor thread died");
        let seen = registry.snapshot();
        assert_eq!(seen.gauge("queue.depth"), 5);
        assert_eq!(seen.counter("oom.crashes"), 1);
        assert!(
            !backlog.send(task, &Bytes::from_static(b"late")),
            "the inbox went with the executor"
        );
    }

    #[test]
    fn unroutable_tuples_are_counted() {
        let (mut ctx, _inboxes, _ser) = harness(Grouping::Shuffle, vec![]);
        ctx.emit_tuple(StreamId::DEFAULT, vec![]);
        assert_eq!(ctx.registry.snapshot().counter("tuples.unroutable"), 1);
    }
}
