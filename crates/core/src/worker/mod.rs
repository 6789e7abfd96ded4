//! The Typhoon worker: computation ∘ framework ∘ I/O (Fig. 4).
//!
//! A worker is one OS thread attached to its host switch through a
//! dedicated port. The loop polls the I/O layer for frames, lets the
//! framework layer classify and deserialize them, hands data tuples to the
//! unchanged application computation layer, and routes emissions back down
//! through framework serialization and I/O batching. Table 2 control
//! tuples — injected by the SDN controller — reconfigure all of this at
//! runtime without stopping the loop.
//!
//! One tuple is alive at a time. A round's frames are walked record by
//! record in place ([`Ingress::walk`]); each record is decoded, classified
//! and executed before the next is read, and its emissions are encoded into
//! their destinations' frames as they are made. A spout's emissions are
//! routed likewise while `next_batch` runs, each rooted as it goes (a replay
//! through [`Emitter::emit_replay`] keeps its failed root's base). So a
//! tuple's allocations are freed before the next tuple's are made.
//!
//! A round is a step over `(ingress, now)`, the clock read once at its head.
//! Every timer is a deadline held in state (the spout's poll and sweep, the
//! `InputRate` window, the acker's expiry, the next checkpoint); the role's
//! `next_due` is the earliest one armed. A round that found nothing to do
//! flushes everything it buffered — waiting buys no more batching once the
//! input ran dry — and parks on the port's doorbell (rung by the switch)
//! until `next_due`; only a busy worker holds a batch for `batch_size` or
//! `batch_delay`. A ring before the deadline runs a round in which nothing
//! that is not due runs (a spout's `next_batch` included): the port is
//! served as frames arrive while the source keeps its own clock. Guaranteed
//! processing rides the same loop as packed records ([`acks`]): one `ACK`
//! message per worker per round, one `ACK_RESULT` per spout per acker round.

pub mod acks;
pub mod framework;
pub mod io;

pub use framework::{Addressed, Classified, FrameworkLayer, Route};
pub use io::{Ingress, IoConfig, IoLayer};

use crate::checkpoint::{CheckpointStore, DedupLedger};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_controller::ControlTuple;
use typhoon_metrics::{Counter, Gauge, Histogram, RateMeter, Registry};
use typhoon_model::{AppId, Bolt, Emitter, Spout, TaskId};
use typhoon_net::Doorbell;
use typhoon_storm::acker::{AckOutcome, AckerLedger};
use typhoon_switch::WorkerPort;
use typhoon_trace::{Hop, TraceCtx};
use typhoon_tuple::ser::{decode_tuple, encode_tuple, SerStats};
use typhoon_tuple::{MessageId, StreamId, Tuple, Value};

/// What the worker computes.
pub enum Role {
    /// A data source.
    Spout(Box<dyn Spout>),
    /// A processing node.
    Bolt(Box<dyn Bolt>),
    /// The system acker (guaranteed processing; Typhoon reuses the Storm
    /// acker design and "supports Storm's guaranteed processing by
    /// installing SDN flow rules for ackers", §6.1).
    Acker,
}

/// Per-worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Owning application.
    pub app: AppId,
    /// This worker's task.
    pub task: TaskId,
    /// Logical node name.
    pub node: String,
    /// Registered component implementing the computation.
    pub component: String,
    /// I/O layer tunables.
    pub io: IoConfig,
    /// Guaranteed-processing mode.
    pub acking: bool,
    /// The topology's acker task (required when `acking`).
    pub acker: Option<TaskId>,
    /// Replay timeout.
    pub ack_timeout: Duration,
    /// Max in-flight spout roots.
    pub max_pending: usize,
    /// Whether the spout starts active (`ACTIVATE`/`DEACTIVATE` toggle it).
    pub start_active: bool,
    /// Epoch checkpointing of stateful bolt state (crash recovery); `None`
    /// disables checkpointing for this worker.
    pub checkpoint: Option<CheckpointSpec>,
    /// Whether this worker is a crash-recovery replacement and must
    /// restore the latest checkpoint of its `(topology, node, task)`
    /// before processing.
    pub restore: bool,
}

/// Where and how often a stateful bolt checkpoints (crash recovery).
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Snapshot storage (kv blobs + coordinator epoch index).
    pub store: Arc<CheckpointStore>,
    /// The owning topology's name (part of the storage key).
    pub topology: String,
    /// Time between epoch snapshots. Must be well below the ack timeout:
    /// acks of folded tuples are withheld until the fold is durable.
    pub interval: Duration,
}

/// Shared handles the agent (and experiments) keep for a running worker.
#[derive(Clone)]
pub struct WorkerShared {
    /// Set by the worker once it is attached and processing.
    pub ready: Arc<AtomicBool>,
    /// Rung after `ready` is set and at every exit of the worker: what `wait_ready` parks on.
    pub(crate) ready_bell: Doorbell,
    /// Graceful stop: drain egress, then exit.
    pub shutdown: Arc<AtomicBool>,
    /// Abrupt stop: exit immediately, dropping the switch port — the
    /// switch reports an unexpected `PortStatus` delete (fault injection).
    pub crash: Arc<AtomicBool>,
    /// Data-tuple meter (spout: emitted; bolt: received).
    pub meter: RateMeter,
    /// Worker metrics.
    pub registry: Registry,
}

impl WorkerShared {
    /// Fresh handles.
    pub fn new() -> Self {
        WorkerShared {
            ready: Arc::new(AtomicBool::new(false)),
            ready_bell: Doorbell::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            crash: Arc::new(AtomicBool::new(false)),
            meter: RateMeter::per_second(),
            registry: Registry::new(),
        }
    }
}

impl Default for WorkerShared {
    fn default() -> Self {
        Self::new()
    }
}

struct WorkerCtx {
    config: WorkerConfig,
    fw: FrameworkLayer,
    io: IoLayer,
    shared: WorkerShared,
    ser: Arc<SerStats>,
    active: bool,
    input_rate: Option<u32>,
    /// When the current `InputRate` window ends and its budget refills.
    rate_window_end: Instant,
    rate_window_count: u32,
    // acking scratch
    current_root: u64,
    accum_xor: u64,
    pending: HashMap<u64, (Instant, u64)>,
    root_seed: u64,
    /// Ack records bound for the acker; [`WorkerCtx::flush_acks`] decides
    /// when they leave.
    acks: acks::AckBuffer,
    /// Whether those records are a spout's inits (else a bolt's acks).
    acks_init: bool,
    /// `IoLayer::frames_sent` as of the last `flush_acks`: a difference
    /// means a batch left since.
    acks_frames_mark: u64,
    /// Set by anything that must not linger in a batch (metric responses,
    /// state re-emissions); the loop flushes everything at the end of the
    /// round, however busy, instead of waiting out the delay timer.
    flush_now: bool,
    /// `tuples.emitted`, resolved once: every emission counts.
    emitted: Counter,
    // tracing
    trace: TraceCtx,
    current_trace: u64,
}

/// Every exit rings: a worker that dies before it is ready must end its launcher's wait.
impl Drop for WorkerCtx {
    fn drop(&mut self) {
        self.shared.ready_bell.ring();
    }
}

impl WorkerCtx {
    /// The framework and I/O layers over `port`, every timer counted from `now`.
    fn new(
        config: WorkerConfig,
        port: WorkerPort,
        routes: Vec<Route>,
        ser: Arc<SerStats>,
        shared: WorkerShared,
        trace: TraceCtx,
        now: Instant,
    ) -> Self {
        let mut fw = FrameworkLayer::new(
            config.app,
            config.task,
            routes,
            ser.clone(),
            shared.registry.clone(),
        );
        fw.set_trace(trace.clone());
        let mut io = IoLayer::new(fw.mac(), port, &config.io, shared.registry.clone());
        io.set_trace(trace.clone());
        WorkerCtx {
            root_seed: (config.task.0 as u64).wrapping_mul(0xa076_1d64_78bd_642f) | 1,
            active: config.start_active,
            input_rate: None,
            rate_window_end: now + TIMER_PERIOD,
            rate_window_count: 0,
            current_root: 0,
            accum_xor: 0,
            pending: HashMap::new(),
            acks: acks::AckBuffer::default(),
            acks_init: false,
            acks_frames_mark: 0,
            flush_now: false,
            emitted: shared.registry.counter("tuples.emitted"),
            trace,
            current_trace: 0,
            config,
            fw,
            io,
            shared,
            ser,
        }
    }

    fn next_root(&mut self) -> u64 {
        // Fresh roots keep their low byte (the replay-round counter, see
        // `MessageId::ROOT_ROUND_MASK`) zeroed; replays of the same
        // logical tuple bump it, keeping `base_root` stable for dedup.
        loop {
            let mut x = self.root_seed;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.root_seed = x;
            let root = x.wrapping_mul(0x2545_f491_4f6c_dd1d) & !MessageId::ROOT_ROUND_MASK;
            if root != 0 {
                return root;
            }
        }
    }

    /// True when the current 100 ms window still has emission budget; a
    /// window that ended by `now` rolls over first.
    fn rate_allows(&mut self, now: Instant) -> bool {
        if self.input_rate.is_some() && now >= self.rate_window_end {
            self.rate_window_end = now + TIMER_PERIOD;
            self.rate_window_count = 0;
        }
        self.rate_spent_until().is_none()
    }

    /// While the window's budget is spent, the window's end: nothing may be
    /// emitted before it.
    fn rate_spent_until(&self) -> Option<Instant> {
        let cap = self.input_rate?;
        (self.rate_window_count >= cap.div_ceil(10)).then_some(self.rate_window_end)
    }

    /// Routes one tuple, encoding every copy straight into its
    /// destination's frame, and folds the copies' anchors into `accum_xor`.
    fn emit(&mut self, tuple: Tuple, acking: bool) {
        let (fw, io, ser) = (&mut self.fw, &mut self.io, &self.ser);
        let accum_xor = &mut self.accum_xor;
        fw.route_each(tuple, acking, |dst, anchor, tuple| {
            *accum_xor ^= anchor;
            io.enqueue_with(dst, tuple.meta.trace, |buf| {
                encode_tuple(tuple, buf, ser);
            });
        });
    }

    /// Routes what a bolt emits outside `execute` (signal flush, checkpoint
    /// restore, restate) down the ordinary path, unanchored.
    fn emit_unanchored(&mut self, emit: impl FnOnce(&mut dyn Emitter)) {
        emit(&mut UnanchoredEmitter { ctx: self });
        self.flush_now = true;
    }

    fn send_ack(&mut self, root: u64, xor: u64) {
        if self.config.acker.is_some() {
            self.acks.push(root, xor);
        }
    }

    /// Sends the buffered ack records as one `ACK` message, once they are
    /// due. A bolt's are due at the end of the round that produced them:
    /// the drained round is the batch. A spout's inits leave with the idle
    /// round that flushes their data (`force`, as on the graceful stop);
    /// while the spout stays busy they follow the batcher's rules
    /// (`batch_size` records, or `batch_delay` after the oldest) and are
    /// never later than the data they root: they also leave when any batch
    /// left since the last call.
    fn flush_acks(&mut self, force: bool, now: Instant) {
        let batch_left = self.io.frames_sent() != self.acks_frames_mark;
        if let (Some(oldest), Some(acker)) = (self.acks.oldest(now), self.config.acker) {
            if force
                || !self.acks_init
                || batch_left
                || self.acks.len() >= self.io.batch_size()
                || now >= oldest + self.io.batch_delay()
            {
                let records = self.acks.take();
                let msg = acks::ack_message(self.config.task, self.acks_init, records);
                let a = self.fw.direct(&msg, acker);
                self.io.send_now(a.dst, a.blob);
            }
        }
        self.acks_frames_mark = self.io.frames_sent();
    }

    fn handle_control(&mut self, ct: ControlTuple, bolt: Option<&mut Box<dyn Bolt>>) {
        self.shared.registry.counter("control.received").inc();
        match ct {
            ControlTuple::Routing {
                downstream,
                next_hops,
                policy,
            } => {
                self.fw.apply_routing(&downstream, next_hops, policy);
            }
            ControlTuple::Signal => {
                if let Some(bolt) = bolt {
                    // The stateful flush of Listing 2 / Fig. 6(b): emitted
                    // tuples take the ordinary routed path.
                    self.emit_unanchored(|out| bolt.on_signal(out));
                }
            }
            ControlTuple::MetricReq { request_id } => {
                let snap = self.shared.registry.snapshot();
                let mut metrics: Vec<(String, i64)> = vec![
                    ("queue.depth".into(), self.io.queue_depth() as i64),
                    (
                        "tuples.emitted".into(),
                        snap.counter("tuples.emitted") as i64,
                    ),
                    (
                        "tuples.received".into(),
                        snap.counter("tuples.received") as i64,
                    ),
                ];
                metrics.sort();
                let resp = ControlTuple::MetricResp {
                    request_id,
                    task: self.config.task,
                    metrics,
                }
                .to_tuple(self.config.task);
                let a = self.fw.to_controller(&resp);
                self.io.enqueue(a.dst, a.blob, 0);
                self.flush_now = true;
            }
            ControlTuple::InputRate { tuples_per_sec } => {
                self.input_rate = (tuples_per_sec > 0).then_some(tuples_per_sec);
            }
            ControlTuple::Activate => self.active = true,
            ControlTuple::Deactivate => self.active = false,
            ControlTuple::BatchSize { size } => self.io.set_batch_size(size as usize),
            ControlTuple::MetricResp { .. } => { /* controller-bound only */ }
            ControlTuple::Replay => { /* spout-only; handled by SpoutRole */ }
            ControlTuple::Restate => {
                // Crash recovery: emissions this bolt made toward a task
                // that died were lost, and the dedup ledger refuses to
                // re-fold the replays that would regenerate them. Round-trip
                // the snapshot through restore(), whose re-emissions take
                // the ordinary routed path (unanchored, like a fresh
                // restore) so latest-wins consumers re-converge.
                if let Some(bolt) = bolt {
                    if bolt.is_stateful() {
                        if let Some(state) = bolt.checkpoint() {
                            self.shared.registry.counter("recovery.restated").inc();
                            self.emit_unanchored(|out| bolt.restore(state, out));
                        }
                    }
                }
            }
        }
    }
}

/// An emitter that routes through the framework + I/O layers, anchored to
/// the tuple in hand (`current_root`).
struct RoutedEmitter<'a> {
    ctx: &'a mut WorkerCtx,
}

impl Emitter for RoutedEmitter<'_> {
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>) {
        let mut tuple = Tuple::on_stream(self.ctx.config.task, stream, values);
        tuple.meta.trace = self.ctx.current_trace;
        if self.ctx.config.acking && self.ctx.current_root != 0 {
            tuple.meta.message_id = MessageId {
                root: self.ctx.current_root,
                anchor: 0,
            };
        }
        let acking = self.ctx.config.acking;
        self.ctx.emit(tuple, acking);
        self.ctx.emitted.inc();
    }
}

/// [`WorkerCtx::emit_unanchored`]'s emitter: each emission takes the
/// ordinary routed path, untraced and unanchored, as it is made.
struct UnanchoredEmitter<'a> {
    ctx: &'a mut WorkerCtx,
}

impl Emitter for UnanchoredEmitter<'_> {
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>) {
        let tuple = Tuple::on_stream(self.ctx.config.task, stream, values);
        self.ctx.emit(tuple, false);
    }
}

/// A spout's emitter: routes each emission while `next_batch` is making
/// them. With acking, each becomes the root of its own tree as it leaves: a
/// fresh root, or for a replay the failed root's base with the round byte
/// bumped (the acker sees a fresh tree, so a half-acked tree from the failed
/// round can never wedge this one, while downstream dedup keys stay stable
/// across rounds). Its init record is buffered, the root is pending from
/// `now`, and `roots` keeps it for [`Spout::emitted`].
struct SpoutEmitter<'a> {
    ctx: &'a mut WorkerCtx,
    roots: &'a mut Vec<u64>,
    now: Instant,
    count: u32,
}

impl SpoutEmitter<'_> {
    fn emit_rooted(&mut self, stream: StreamId, values: Vec<Value>, failed_root: Option<u64>) {
        let ctx = &mut *self.ctx;
        self.count += 1;
        let trace = ctx.trace.sample();
        ctx.current_trace = trace;
        ctx.trace.record(trace, Hop::SpoutEmit);
        if ctx.config.acking {
            let root = match failed_root {
                Some(prev) => MessageId::next_round(prev),
                None => ctx.next_root(),
            };
            ctx.current_root = root;
            ctx.accum_xor = 0;
            RoutedEmitter { ctx }.emit_on(stream, values);
            ctx.send_ack(root, ctx.accum_xor);
            ctx.pending.insert(root, (self.now, trace));
            ctx.current_root = 0;
            self.roots.push(root);
        } else {
            RoutedEmitter { ctx }.emit_on(stream, values);
        }
        ctx.current_trace = 0;
    }
}

impl Emitter for SpoutEmitter<'_> {
    fn emit_on(&mut self, stream: StreamId, values: Vec<Value>) {
        self.emit_rooted(stream, values, None);
    }

    fn emit_replay(&mut self, values: Vec<Value>, failed_root: u64) {
        self.emit_rooted(StreamId::DEFAULT, values, Some(failed_root));
    }
}

/// Runs a Typhoon worker until shutdown/crash. Call on a dedicated thread.
pub fn run_worker(
    config: WorkerConfig,
    role: Role,
    port: WorkerPort,
    routes: Vec<Route>,
    ser: Arc<SerStats>,
    shared: WorkerShared,
    trace: TraceCtx,
) {
    let now = Instant::now();
    let mut ctx = WorkerCtx::new(config, port, routes, ser, shared, trace, now);
    match role {
        Role::Spout(spout) => run_loop(SpoutRole::new(spout, &mut ctx, now), &mut ctx),
        Role::Bolt(bolt) => run_loop(BoltRole::new(bolt, &mut ctx, now), &mut ctx),
        Role::Acker => run_loop(AckerRole::new(&ctx, now), &mut ctx),
    }
}

const INGRESS_BUDGET: usize = 256;

/// The period of the roles' housekeeping timers: the spout's sweep of roots
/// the acker never answered, the acker's expiry, and the `InputRate` window.
const TIMER_PERIOD: Duration = Duration::from_millis(100);

/// Past any park: a worker with nothing due parks until rung, or for `MAX_PARK`.
const UNDUE: Duration = Duration::from_secs(1);

/// The poll period of an active spout with nothing due: how long after an
/// empty `next_batch` the worker asks again. It waits the period out on its
/// bell, not in a sleep, and a ring in between serves the port without
/// moving the poll instant (see [`SpoutRole::next_poll`]). Nothing is
/// buffered while it waits (an idle round flushes), so this is the flush
/// period of a paced source: half of it (+ timer slack) is the mean wait
/// of a paced tuple, and 1/period is the wake-up rate of the source *and of
/// every thread its flush wakes downstream*. 250 µs is the shortest
/// measured period at which every `BENCHMARK.json` workload's CPU per tuple
/// stays within +10 % of what a 20 µs poll feeding a 2 ms timer cost
/// (CHANGES.md, PR 19); not configurable.
const SPOUT_IDLE_POLL: Duration = Duration::from_micros(250);

/// Decodes one ingress record, classifies it and hands it to the role:
/// the tuple is done with before the walk reads the next record. `true`
/// when the record was a tuple.
fn receive(ctx: &mut WorkerCtx, role: &mut impl RoleLoop, record: &[u8], now: Instant) -> bool {
    let Ok((tuple, _)) = decode_tuple(record, &ctx.ser) else {
        ctx.shared.registry.counter("tuples.undecodable").inc();
        return false;
    };
    ctx.trace.record(tuple.meta.trace, Hop::Deserialize);
    let class = ctx.fw.classify(&tuple);
    role.on_tuple(ctx, class, tuple, now);
    true
}

/// What a role contributes to the one worker loop ([`run_loop`]); every step
/// takes the round's `now`.
trait RoleLoop {
    /// One decoded ingress tuple, already classified.
    fn on_tuple(&mut self, ctx: &mut WorkerCtx, class: Classified, tuple: Tuple, now: Instant);
    /// End of every round, after ingress is drained: the deadlines `now`
    /// reached and (for the spout) production. `true` when it did work.
    fn on_tick(&mut self, ctx: &mut WorkerCtx, now: Instant) -> bool;
    /// When an idle worker must run a round even if nobody rings its bell:
    /// the role's earliest armed deadline, if any. Everything else that can
    /// give a worker work ends in a frame on its port (data, control tuples,
    /// ack results) or a flag set by the agent, and both ring.
    fn next_due(&self, ctx: &WorkerCtx) -> Option<Instant>;
    /// Graceful stop, before the final egress flush.
    fn on_shutdown(&mut self, _ctx: &mut WorkerCtx) {}
}

/// The worker loop every role shares: exit checks, ingress, the role's
/// work, egress flush, dead-port fail-fast, queue gauge, idle wait.
fn run_loop(mut role: impl RoleLoop, ctx: &mut WorkerCtx) {
    let queue_depth = ctx.shared.registry.gauge("queue.depth");
    let rounds = ctx.shared.registry.counter("loop.rounds");
    let parks = ctx.shared.registry.counter("loop.parks");
    let rung = ctx.shared.registry.counter("loop.rung");
    let bell = ctx.io.bell().clone();
    let mut rx = Ingress::new(&ctx.shared.registry);
    ctx.shared.ready.store(true, Ordering::Release);
    ctx.shared.ready_bell.ring();
    loop {
        rounds.inc();
        let now = Instant::now();
        if ctx.shared.crash.load(Ordering::Acquire) {
            return; // abrupt: port drops, PortStatus delete fires
        }
        if ctx.shared.shutdown.load(Ordering::Acquire) {
            role.on_shutdown(ctx);
            ctx.flush_acks(true, now);
            ctx.io.flush_all();
            return;
        }
        if ctx.io.poll(&mut rx, INGRESS_BUDGET).is_err() {
            return; // the port was detached, i.e. the worker was killed
        }
        let mut busy = false;
        rx.walk(|_src, record| busy |= receive(ctx, &mut role, record, now));
        busy |= role.on_tick(ctx, now);
        // While input keeps coming, batches fill or leave at `batch_delay`;
        // the round that finds none sends everything, data before the acks
        // that root it.
        if std::mem::take(&mut ctx.flush_now) || !busy {
            ctx.io.flush_all();
        } else {
            ctx.io.flush_due(now);
        }
        ctx.flush_acks(!busy, now);
        if ctx.io.egress_dead() {
            return; // the switch side of the port is gone; fail fast
        }
        queue_depth.set(ctx.io.queue_depth() as i64);
        if busy {
            continue;
        }
        // Nothing is buffered, so park until a ring or the role's deadline.
        let deadline = role.next_due(ctx).unwrap_or(now + UNDUE);
        let (io, shared) = (&ctx.io, &ctx.shared);
        let woken = bell.wait(deadline, || {
            let idle = io.ingress_idle()
                && !shared.crash.load(Ordering::Acquire)
                && !shared.shutdown.load(Ordering::Acquire);
            if idle {
                parks.inc();
            }
            idle
        });
        if woken {
            rung.inc();
        }
    }
}

struct SpoutRole {
    spout: Box<dyn Spout>,
    /// The roots of the current `next_batch`'s emissions, in order, for
    /// [`Spout::emitted`]; kept across rounds for its capacity.
    roots: Vec<u64>,
    /// The poll instant: `next_batch` is not asked before it. An empty call
    /// moves it [`SPOUT_IDLE_POLL`] past its return (read then, not at the
    /// round's head) and nothing else does — a ring's early round leaves it
    /// be, so the source is clocked by its own period, never by what arrives
    /// on its port. Past (ask at once) while the spout produces.
    next_poll: Instant,
    /// When `pending` is next swept for roots the acker never answered.
    next_sweep: Instant,
    /// `acks.completed` / `latency`, resolved once: every ack updates them.
    completed: Counter,
    latency: Histogram,
}

impl SpoutRole {
    /// Opens the spout; its ack records are inits.
    fn new(mut spout: Box<dyn Spout>, ctx: &mut WorkerCtx, now: Instant) -> Self {
        spout.open();
        ctx.acks_init = true;
        SpoutRole {
            spout,
            roots: Vec::new(),
            next_poll: now,
            next_sweep: now + TIMER_PERIOD,
            completed: ctx.shared.registry.counter("acks.completed"),
            latency: ctx.shared.registry.histogram("latency"),
        }
    }

    /// One `next_batch`, each emission routed as it is made; then the roots
    /// go back to the spout in emission order. `true` when it produced.
    fn next_batch(&mut self, ctx: &mut WorkerCtx, now: Instant) -> bool {
        let mut out = SpoutEmitter {
            ctx,
            roots: &mut self.roots,
            now,
            count: 0,
        };
        let produced = self.spout.next_batch(&mut out);
        let emitted = out.count;
        ctx.rate_window_count += emitted;
        for (index, root) in self.roots.drain(..).enumerate() {
            self.spout.emitted(index, root);
        }
        if emitted > 0 {
            ctx.shared.meter.mark(emitted as u64);
        }
        produced || emitted > 0
    }
}

impl RoleLoop for SpoutRole {
    fn on_tuple(&mut self, ctx: &mut WorkerCtx, class: Classified, tuple: Tuple, now: Instant) {
        match class {
            Classified::Control(ControlTuple::Replay) => {
                // Crash recovery: fail every pending root *now* so the
                // spout replays into the recovered task without waiting
                // out the ack timeout (§4 — replay is part of the
                // recovery critical path, not the slow path).
                for (root, _) in ctx.pending.drain() {
                    ctx.shared.registry.counter("recovery.replayed_roots").inc();
                    self.spout.fail(root);
                }
            }
            Classified::Control(ct) => ctx.handle_control(ct, None),
            Classified::AckResult => {
                let Some(verdicts) = acks::parse_verdict_message(&tuple) else {
                    ctx.shared.registry.counter("acks.malformed").inc();
                    return;
                };
                for (root, ok) in verdicts {
                    let Some((born, trace)) = ctx.pending.remove(&root) else {
                        continue;
                    };
                    if ok {
                        ctx.trace.record(trace, Hop::Ack);
                        self.completed.inc();
                        self.latency.record_duration(now - born);
                        self.spout.ack(root);
                    } else {
                        ctx.shared.registry.counter("acks.failed").inc();
                        self.spout.fail(root);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut WorkerCtx, now: Instant) -> bool {
        // The acker notifies completion/failure exactly once; if that
        // notification frame is lost (a faulty tunnel), the root would
        // otherwise sit in `pending` forever, leaking throttle budget and
        // silently dropping the tuple. Sweep with a margin past the ack
        // timeout so the acker's own expiry path wins when it is healthy.
        if now >= self.next_sweep {
            self.next_sweep = now + TIMER_PERIOD;
            let give_up = ctx.config.ack_timeout + ctx.config.ack_timeout / 2;
            let expired = ctx
                .pending
                .extract_if(|_, (born, _)| *born + give_up <= now);
            for (root, _) in expired {
                ctx.shared.registry.counter("acks.spout_timeout").inc();
                self.spout.fail(root);
            }
        }
        if !ctx.active || spout_throttled(ctx) || now < self.next_poll || !ctx.rate_allows(now) {
            return false;
        }
        let produced = self.next_batch(ctx, now);
        if !produced {
            self.next_poll = Instant::now() + SPOUT_IDLE_POLL;
        }
        produced
    }

    /// A spout that may produce is due at its poll instant, or at the end of
    /// the `InputRate` window once the window's budget is spent. Deactivated,
    /// or throttled by `max_pending`, it waits like a bolt: both states end
    /// with an ingress frame (`Activate`, an ack result). The sweep is armed
    /// while a root is pending.
    fn next_due(&self, ctx: &WorkerCtx) -> Option<Instant> {
        let poll = self
            .next_poll
            .max(ctx.rate_spent_until().unwrap_or(self.next_poll));
        let poll = (ctx.active && !spout_throttled(ctx)).then_some(poll);
        let sweep = (!ctx.pending.is_empty()).then_some(self.next_sweep);
        poll.into_iter().chain(sweep).min()
    }
}

/// True while acking back-pressure (`max_pending`) holds the spout.
fn spout_throttled(ctx: &WorkerCtx) -> bool {
    ctx.config.acking && ctx.pending.len() >= ctx.config.max_pending
}

/// Per-worker epoch checkpointing + replay dedup for a stateful bolt.
///
/// The exactness contract: a tuple's ack is **withheld until the fold is
/// durable** (included in a saved checkpoint). Crash before the save →
/// the ack never went out → the acker times the root out → the spout
/// replays it → the restored ledger (snapshotted atomically with the
/// state) does not contain it → the replay folds into the restored
/// state. Crash after the save → the replay (if any partial tree
/// branches still fail) hits the ledger and is skipped. Either way every
/// tuple is folded exactly once.
struct BoltCheckpointer {
    spec: CheckpointSpec,
    ledger: DedupLedger,
    epoch: u64,
    deferred_acks: Vec<(u64, u64)>,
    /// When the next snapshot is due, armed while `dirty`.
    next_save: Instant,
    dirty: bool,
}

impl BoltCheckpointer {
    /// Arms checkpointing for a capable stateful bolt (one that reports
    /// state via [`Bolt::checkpoint`]); restores the latest snapshot when
    /// this worker is a crash-recovery replacement.
    fn init(ctx: &mut WorkerCtx, bolt: &mut dyn Bolt, now: Instant) -> Option<BoltCheckpointer> {
        let spec = ctx.config.checkpoint.clone()?;
        // Checkpoint-exact recovery needs all three legs: a stateful bolt
        // that can snapshot itself, and acking (the replay half).
        if !ctx.config.acking || !bolt.is_stateful() || bolt.checkpoint().is_none() {
            return None;
        }
        let mut ledger = DedupLedger::default();
        let mut epoch = 0;
        if ctx.config.restore {
            let restore_started = Instant::now();
            if let Some(ckpt) =
                spec.store
                    .load_latest(&spec.topology, &ctx.config.node, ctx.config.task)
            {
                // Reinstall state, then flush it downstream *unanchored*:
                // the dead task's post-checkpoint in-flight emissions are
                // lost, so latest-value consumers must reconverge.
                ctx.emit_unanchored(|out| bolt.restore(ckpt.state, out));
                ledger = ckpt.ledger;
                epoch = ckpt.epoch;
                let registry = &ctx.shared.registry;
                registry.counter("recovery.restored").inc();
                registry.gauge("recovery.restore_epoch").set(epoch as i64);
                let restore_ms = (Instant::now() - restore_started).as_millis() as u64;
                registry.histogram("recovery.restore_ms").record(restore_ms);
                // Mirrored as a gauge so the recovery manager can read the
                // phase latency back out of a snapshot for its report.
                registry.gauge("recovery.restore_ms").set(restore_ms as i64);
            }
        }
        Some(BoltCheckpointer {
            next_save: now + spec.interval,
            spec,
            ledger,
            epoch,
            deferred_acks: Vec::new(),
            dirty: false,
        })
    }

    /// True when the anchored input was already folded into checkpointed
    /// state (a crash-replay or reroute duplicate) and must be skipped.
    fn is_duplicate(&mut self, id: MessageId) -> bool {
        let fresh = self.ledger.observe(
            MessageId::base_root(id.root),
            MessageId::anchor_position(id.anchor),
        );
        self.dirty = true;
        !fresh
    }

    /// Withholds a folded tuple's ack until the next checkpoint makes the
    /// fold durable.
    fn defer_ack(&mut self, root: u64, xor: u64) {
        self.deferred_acks.push((root, xor));
        self.dirty = true;
    }

    /// Snapshots state + ledger, then releases the withheld acks. Callers
    /// save only a dirty checkpointer.
    fn save_now(&mut self, ctx: &mut WorkerCtx, bolt: &dyn Bolt) {
        let state = match bolt.checkpoint() {
            Some(s) => s,
            None => return,
        };
        self.epoch += 1;
        self.spec.store.save(
            &self.spec.topology,
            &ctx.config.node,
            ctx.config.task,
            self.epoch,
            &state,
            &self.ledger,
        );
        self.dirty = false;
        ctx.shared.registry.counter("recovery.checkpoints").inc();
        for (root, xor) in std::mem::take(&mut self.deferred_acks) {
            ctx.send_ack(root, xor);
        }
    }
}

struct BoltRole {
    bolt: Box<dyn Bolt>,
    ckpt: Option<BoltCheckpointer>,
    /// `tuples.received`, resolved once: every input counts.
    received: Counter,
    /// Data tuples this round, marked on the meter once when it ends.
    unmarked: u64,
}

impl BoltRole {
    /// Prepares the bolt and arms its checkpointing (restoring, on a replacement).
    fn new(mut bolt: Box<dyn Bolt>, ctx: &mut WorkerCtx, now: Instant) -> Self {
        bolt.prepare();
        BoltRole {
            ckpt: BoltCheckpointer::init(ctx, bolt.as_mut(), now),
            received: ctx.shared.registry.counter("tuples.received"),
            bolt,
            unmarked: 0,
        }
    }
}

impl RoleLoop for BoltRole {
    fn on_tuple(&mut self, ctx: &mut WorkerCtx, class: Classified, tuple: Tuple, _now: Instant) {
        match class {
            Classified::Control(ct) => ctx.handle_control(ct, Some(&mut self.bolt)),
            Classified::Data => {
                self.received.inc();
                self.unmarked += 1;
                let input_id = tuple.meta.message_id;
                let input_trace = tuple.meta.trace;
                let anchored = ctx.config.acking && input_id.is_anchored();
                if anchored {
                    if let Some(c) = self.ckpt.as_mut() {
                        if c.is_duplicate(input_id) {
                            // Already folded into (checkpointed) state:
                            // skip execution, complete this branch of
                            // the ack tree immediately.
                            ctx.shared.registry.counter("recovery.deduped").inc();
                            ctx.send_ack(input_id.root, input_id.anchor);
                            return;
                        }
                    }
                }
                ctx.current_root = input_id.root;
                ctx.current_trace = input_trace;
                ctx.accum_xor = 0;
                self.bolt.execute(tuple, &mut RoutedEmitter { ctx });
                ctx.trace.record(input_trace, Hop::BoltExecute);
                if anchored {
                    let xor = input_id.anchor ^ ctx.accum_xor;
                    match self.ckpt.as_mut() {
                        Some(c) => c.defer_ack(input_id.root, xor),
                        None => ctx.send_ack(input_id.root, xor),
                    }
                }
                ctx.current_root = 0;
                ctx.current_trace = 0;
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut WorkerCtx, now: Instant) -> bool {
        if self.unmarked > 0 {
            ctx.shared.meter.mark(std::mem::take(&mut self.unmarked));
        }
        // Checkpoint when the save is due and anything changed.
        if let Some(c) = self.ckpt.as_mut().filter(|c| c.dirty && now >= c.next_save) {
            c.next_save = now + c.spec.interval;
            c.save_now(ctx, self.bolt.as_ref());
        }
        false
    }

    /// Only a pending checkpoint is a deadline: every input rings.
    fn next_due(&self, _ctx: &WorkerCtx) -> Option<Instant> {
        self.ckpt.as_ref().filter(|c| c.dirty).map(|c| c.next_save)
    }

    /// Makes the final folds durable and releases their acks so a planned
    /// kill never forces replays.
    fn on_shutdown(&mut self, ctx: &mut WorkerCtx) {
        if let Some(c) = self.ckpt.as_mut().filter(|c| c.dirty) {
            c.save_now(ctx, self.bolt.as_ref());
        }
    }
}

struct AckerRole {
    ledger: AckerLedger,
    /// The next sweep for trees past the ack timeout, armed while one is pending.
    next_expire: Instant,
    /// This round's verdict records per owning spout (completions and
    /// expiries alike); each leaves as one `ACK_RESULT` message when the
    /// round ends.
    verdicts: HashMap<TaskId, Vec<u8>>,
    /// `acker.pending`: trees in flight, published once per round.
    pending: Gauge,
}

impl AckerRole {
    fn new(ctx: &WorkerCtx, now: Instant) -> Self {
        AckerRole {
            ledger: AckerLedger::new(),
            next_expire: now + TIMER_PERIOD,
            verdicts: HashMap::new(),
            pending: ctx.shared.registry.gauge("acker.pending"),
        }
    }

    fn notify(&mut self, owner: TaskId, root: u64, outcome: AckOutcome) {
        let records = self.verdicts.entry(owner).or_default();
        acks::push_verdict(records, root, outcome == AckOutcome::Complete);
    }
}

impl RoleLoop for AckerRole {
    fn on_tuple(&mut self, ctx: &mut WorkerCtx, class: Classified, tuple: Tuple, now: Instant) {
        if !matches!(class, Classified::Ack) {
            return;
        }
        let Some((init_owner, records)) = acks::parse_ack_message(&tuple) else {
            ctx.shared.registry.counter("acks.malformed").inc();
            return;
        };
        for (root, xor) in records {
            if let Some((owner, outcome)) = self.ledger.apply(root, xor, init_owner, now) {
                self.notify(owner, root, outcome);
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut WorkerCtx, now: Instant) -> bool {
        if now >= self.next_expire {
            self.next_expire = now + TIMER_PERIOD;
            for (root, owner, outcome) in self.ledger.expire(ctx.config.ack_timeout, now) {
                self.notify(owner, root, outcome);
            }
        }
        for (owner, records) in self.verdicts.drain() {
            let msg = acks::verdict_message(ctx.config.task, records);
            let a = ctx.fw.direct(&msg, owner);
            ctx.io.send_now(a.dst, a.blob);
        }
        self.pending.set(self.ledger.pending() as i64);
        false
    }

    fn next_due(&self, _ctx: &WorkerCtx) -> Option<Instant> {
        (self.ledger.pending() > 0).then_some(self.next_expire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_net::MacAddr;
    use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo};
    use typhoon_switch::{Switch, SwitchConfig};

    /// The task whose roots the acker tracks: verdicts are addressed to it.
    const SPOUT: TaskId = TaskId(7);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A worker context over a real port (1) of a switch that forwards
    /// everything to port 2, whose I/O layer the test reads; every timer is
    /// counted from the returned instant. Acking, 100 ms ack timeout, two
    /// roots in flight at most.
    fn ctx_on_switch(
        customize: impl FnOnce(&mut WorkerConfig),
    ) -> (WorkerCtx, Switch, IoLayer, Instant) {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let rule = FlowMod::add(50, FlowMatch::any(), vec![Action::Output(PortNo(2))]);
        ch.send(wire::encode(&OfMessage::FlowMod(rule))).unwrap();
        sw.process_round();
        let mut config = WorkerConfig {
            app: AppId(1),
            task: TaskId(1),
            node: "n".into(),
            component: "c".into(),
            io: IoConfig::default(),
            acking: true,
            acker: Some(TaskId(2)),
            ack_timeout: ms(100),
            max_pending: 2,
            start_active: true,
            checkpoint: None,
            restore: false,
        };
        customize(&mut config);
        let t0 = Instant::now();
        let ctx = WorkerCtx::new(
            config,
            sw.attach_worker(PortNo(1)),
            Vec::new(),
            SerStats::shared(),
            WorkerShared::new(),
            TraceCtx::disabled(),
            t0,
        );
        let registry = Registry::new();
        let port2 = sw.attach_worker(PortNo(2));
        let out = IoLayer::new(
            MacAddr::worker(1, SPOUT),
            port2,
            &IoConfig::default(),
            registry,
        );
        (ctx, sw, out, t0)
    }

    /// The verdicts that reached port 2.
    fn verdicts(sw: &Switch, out: &mut IoLayer) -> Vec<(u64, bool)> {
        sw.process_round();
        let mut blobs = Vec::new();
        out.poll_ingress(&mut blobs, 64).unwrap();
        let ser = SerStats::shared();
        blobs
            .iter()
            .flat_map(|(_, blob)| {
                let (tuple, _) = decode_tuple(blob, &ser).expect("a tuple");
                acks::parse_verdict_message(&tuple)
                    .expect("verdicts")
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn counter(ctx: &WorkerCtx, name: &str) -> u64 {
        ctx.shared.registry.snapshot().counter(name)
    }

    /// A source with nothing to give.
    struct Dry;

    impl Spout for Dry {
        fn next_batch(&mut self, _out: &mut dyn Emitter) -> bool {
            false
        }
    }

    struct Sink;

    impl Bolt for Sink {
        fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
    }

    #[test]
    fn acker_expires_a_tree_at_its_sweep_and_not_a_nanosecond_before() {
        let (mut ctx, sw, mut out, t0) = ctx_on_switch(|_| {});
        let mut acker = AckerRole::new(&ctx, t0);
        assert_eq!(acker.next_due(&ctx), None, "no tree: nothing armed");
        let mut records = Vec::new();
        acks::push_ack(&mut records, 0x100, 0xa);
        let init = acks::ack_message(SPOUT, true, records);
        acker.on_tuple(&mut ctx, Classified::Ack, init, t0);
        assert_eq!(acker.next_due(&ctx), Some(t0 + ms(100)));
        acker.on_tick(&mut ctx, t0 + ms(100) - Duration::from_nanos(1));
        assert_eq!(verdicts(&sw, &mut out), [], "before the sweep");
        assert_eq!(acker.ledger.pending(), 1);
        acker.on_tick(&mut ctx, t0 + ms(100));
        assert_eq!(verdicts(&sw, &mut out), [(0x100, false)], "timed out");
        assert_eq!(acker.next_due(&ctx), None, "the ledger emptied");
        assert_eq!(acker.next_expire, t0 + ms(200));
    }

    #[test]
    fn spout_sweep_fails_a_root_at_one_and_a_half_ack_timeouts() {
        // Give up at 300 ms; sweeps at 100, 200 and 300 ms.
        let (mut ctx, _sw, _out, t0) = ctx_on_switch(|c| c.ack_timeout = ms(200));
        ctx.active = false;
        let mut spout = SpoutRole::new(Box::new(Dry), &mut ctx, t0);
        ctx.pending.insert(1, (t0, 0));
        ctx.pending.insert(2, (t0 + Duration::from_nanos(1), 0));
        for step in [100, 200, 250] {
            spout.on_tick(&mut ctx, t0 + ms(step));
        }
        assert_eq!(counter(&ctx, "acks.spout_timeout"), 0);
        assert_eq!(spout.next_due(&ctx), Some(t0 + ms(300)));
        spout.on_tick(&mut ctx, t0 + ms(300));
        assert_eq!(counter(&ctx, "acks.spout_timeout"), 1);
        assert_eq!(ctx.pending.keys().collect::<Vec<_>>(), [&2], "1 ns short");
        assert_eq!(spout.next_due(&ctx), Some(t0 + ms(400)));
        spout.on_tick(&mut ctx, t0 + ms(400));
        assert_eq!(counter(&ctx, "acks.spout_timeout"), 2);
        assert_eq!(spout.next_due(&ctx), None, "deactivated, nothing pending");
    }

    #[test]
    fn each_spout_state_is_due_at_its_own_deadline() {
        let (mut ctx, _sw, _out, t0) = ctx_on_switch(|_| {});
        let spout = SpoutRole::new(Box::new(Dry), &mut ctx, t0);
        let sweep = t0 + TIMER_PERIOD;
        assert_eq!(spout.next_due(&ctx), Some(t0), "active: the poll instant");
        ctx.active = false;
        assert_eq!(spout.next_due(&ctx), None, "deactivated: `Activate` rings");
        ctx.pending.insert(1, (t0, 0));
        assert_eq!(
            spout.next_due(&ctx),
            Some(sweep),
            "a root pending: the sweep"
        );
        ctx.active = true;
        assert_eq!(
            spout.next_due(&ctx),
            Some(t0),
            "the earlier of poll and sweep"
        );
        ctx.pending.insert(2, (t0, 0));
        assert_eq!(
            spout.next_due(&ctx),
            Some(sweep),
            "throttled: an ack result rings"
        );
        ctx.pending.clear();
        ctx.input_rate = Some(5);
        assert!(ctx.rate_allows(t0));
        ctx.rate_window_count += 1;
        assert_eq!(
            spout.next_due(&ctx),
            Some(t0 + TIMER_PERIOD),
            "budget spent: the window's end"
        );
        assert!(ctx.rate_allows(t0 + TIMER_PERIOD), "the window rolled over");
        assert_eq!(spout.next_due(&ctx), Some(t0));
    }

    /// Emits one fresh tuple and one replay of `FAILED`, and reports the
    /// roots it is given.
    struct Replayer(std::sync::mpsc::Sender<(usize, u64)>);

    const FAILED: u64 = 0x5a5a_0000_0000_0a03;

    impl Spout for Replayer {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            out.emit(vec![Value::Int(1)]);
            out.emit_replay(vec![Value::Int(2)], FAILED);
            true
        }

        fn emitted(&mut self, index: usize, root: u64) {
            self.0.send((index, root)).unwrap();
        }
    }

    #[test]
    fn a_replay_keeps_its_failed_roots_base_and_bumps_the_round() {
        let (mut ctx, _sw, _out, t0) = ctx_on_switch(|_| {});
        let (tx, rx) = std::sync::mpsc::channel();
        let mut spout = SpoutRole::new(Box::new(Replayer(tx)), &mut ctx, t0);
        assert!(spout.on_tick(&mut ctx, t0));
        let roots: Vec<(usize, u64)> = rx.try_iter().collect();
        let [(0, fresh), (1, replay)] = roots[..] else {
            panic!("roots reported in emission order: {roots:?}");
        };
        assert_eq!(
            fresh & MessageId::ROOT_ROUND_MASK,
            0,
            "a fresh root is round 0"
        );
        assert_eq!(replay, MessageId::next_round(FAILED));
        assert_eq!(MessageId::base_root(replay), MessageId::base_root(FAILED));
        assert!(ctx.pending.contains_key(&fresh) && ctx.pending.contains_key(&replay));
        assert_eq!(ctx.acks.len(), 2, "one init record per root");
    }

    #[test]
    fn a_bolt_without_a_checkpoint_is_never_due() {
        let (mut ctx, _sw, _out, t0) = ctx_on_switch(|_| {});
        let bolt = BoltRole::new(Box::new(Sink), &mut ctx, t0);
        assert_eq!(bolt.next_due(&ctx), None);
    }
}
