//! Focused tests of the three-layer Typhoon worker against a hand-driven
//! switch: data path, control classification, graceful-vs-crash exits, and
//! the framework↔I/O seams that integration tests only exercise indirectly.

use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_controller::control::{ControlTuple, CONTROLLER_TASK};
use typhoon_core::worker::{self, acks, IoConfig, Role, Route, WorkerConfig, WorkerShared};
use typhoon_model::{AppId, Bolt, Emitter, Grouping, RoutingState, Spout, TaskId};
use typhoon_net::{Depacketizer, MacAddr, Packetizer};
use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo};
use typhoon_switch::{ControlChannel, Switch, SwitchConfig};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::{MessageId, StreamId, Tuple, Value};

struct Echo;

impl Bolt for Echo {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
    ch.send(wire::encode(&msg)).unwrap();
}

/// A spout that gives `burst` tuples in its first `next_batch` and nothing
/// after, and counts what its worker asks of it (clones share the counts).
#[derive(Clone, Default)]
struct Asked {
    burst: usize,
    /// When the last call came back empty.
    last_empty: Option<Instant>,
    calls: Arc<AtomicU64>,
    /// Calls sooner than [`IDLE_POLL`] after an empty one.
    early: Arc<AtomicU64>,
    acked: Arc<AtomicU64>,
}

impl Asked {
    fn emitting(burst: usize) -> Self {
        Asked {
            burst,
            ..Asked::default()
        }
    }

    /// `next_batch` calls so far.
    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Spout for Asked {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.last_empty.is_some_and(|t| t.elapsed() < IDLE_POLL) {
            self.early.fetch_add(1, Ordering::Relaxed);
        }
        let burst = std::mem::take(&mut self.burst);
        for _ in 0..burst {
            out.emit(vec![Value::Int(7)]);
        }
        self.last_empty = (burst == 0).then(Instant::now);
        burst > 0
    }

    fn ack(&mut self, _root: u64) {
        self.acked.fetch_add(1, Ordering::Relaxed);
    }
}

/// A spout that is never idle: `next_batch` always reports work, so its
/// worker never takes the idle branch of the loop. It emits one tuple per
/// call until `budget` is out, and blocks for `pause` in every call — a
/// source that waits inside `next_batch` keeps its worker busy without
/// taking a core from the timing tests beside it.
struct Busy {
    budget: u64,
    pause: Duration,
}

/// A trickle: ≈ 3 000 calls per second.
const TRICKLE: Duration = Duration::from_micros(250);

impl Spout for Busy {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        if self.budget > 0 {
            self.budget -= 1;
            out.emit(vec![Value::Int(self.budget as i64)]);
        }
        std::thread::sleep(self.pause);
        true
    }
}

/// `core::worker`'s `SPOUT_IDLE_POLL` (private there): how long after an
/// empty `next_batch` an active spout is asked again.
const IDLE_POLL: Duration = Duration::from_micros(250);

/// How many times an idle spout can have been asked in `elapsed`, give or
/// take the call at either edge.
fn polls_in(elapsed: Duration) -> u64 {
    (elapsed.as_micros() / IDLE_POLL.as_micros()) as u64
}

type Spawned = (
    Switch,
    ControlChannel,
    WorkerShared,
    std::thread::JoinHandle<()>,
    typhoon_switch::WorkerPort, // the "downstream" endpoint (port 2)
    typhoon_switch::WorkerPort, // the "upstream" endpoint (port 3); the acker's, when acking
);

/// The task behind port 3: upstream of the worker, and its acker when a
/// test turns acking on.
const UPSTREAM: TaskId = TaskId(3);

/// A batch delay only an explicit flush beats.
const NEVER: Duration = Duration::from_secs(60);

fn io(batch_size: usize, batch_delay: Duration) -> IoConfig {
    IoConfig {
        batch_size,
        batch_delay,
        mtu: 1500,
    }
}

/// An Echo bolt that flushes every tuple at once.
fn spawn_echo_worker() -> Spawned {
    spawn_worker(Role::Bolt(Box::new(Echo)), io(1, Duration::from_millis(1)))
}

/// Spawns an active worker (task 1) wired: port1 ← test, port2 → test.
/// Returns the switch, control channel, shared handles and the thread.
fn spawn_worker(role: Role, io: IoConfig) -> Spawned {
    spawn_worker_with(role, io, true)
}

fn spawn_worker_with(role: Role, io: IoConfig, start_active: bool) -> Spawned {
    spawn_custom(role, io, |config, _| config.start_active = start_active)
}

/// A worker in guaranteed-processing mode whose acker is [`UPSTREAM`], with
/// `routes` copies of its one edge (each emission then sends that many
/// tuples downstream).
fn spawn_acking_worker(role: Role, io: IoConfig, routes: usize) -> Spawned {
    spawn_custom(role, io, |config, r| {
        config.acking = true;
        config.acker = Some(UPSTREAM);
        r.resize_with(routes, route_down);
    })
}

fn spawn_custom(
    role: Role,
    io: IoConfig,
    customize: impl FnOnce(&mut WorkerConfig, &mut Vec<Route>),
) -> Spawned {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let worker_port = sw.attach_worker(PortNo(1));
    let downstream = sw.attach_worker(PortNo(2));
    let upstream = sw.attach_worker(PortNo(3));
    // Rules: one port per task (worker 1, downstream 2, upstream 3);
    // worker → controller.
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, TaskId(1))),
            vec![Action::Output(PortNo(1))],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, TaskId(2))),
            vec![Action::Output(PortNo(2))],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, UPSTREAM)),
            vec![Action::Output(PortNo(3))],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            100,
            FlowMatch::any().dl_dst(MacAddr::CONTROLLER),
            vec![Action::ToController],
        )),
    );
    sw.process_round();

    let shared = WorkerShared::new();
    let shared2 = shared.clone();
    let mut config = WorkerConfig {
        app: AppId(1),
        task: TaskId(1),
        node: "echo".into(),
        component: "echo".into(),
        io,
        acking: false,
        acker: None,
        ack_timeout: Duration::from_secs(30),
        max_pending: 64,
        start_active: true,
        checkpoint: None,
        restore: false,
    };
    let mut routes = vec![route_down()];
    customize(&mut config, &mut routes);
    let ser = SerStats::shared();
    let thread = std::thread::spawn(move || {
        worker::run_worker(
            config,
            role,
            worker_port,
            routes,
            ser,
            shared2,
            typhoon_trace::TraceCtx::disabled(),
        );
    });
    (sw, ch, shared, thread, downstream, upstream)
}

/// The worker's one edge: everything to task 2.
fn route_down() -> Route {
    Route {
        stream: StreamId::DEFAULT,
        downstream: "down".into(),
        state: RoutingState::new(Grouping::Global, vec![TaskId(2)], vec![]),
    }
}

/// Sends one tuple into the worker as if from task 3.
fn inject(upstream: &typhoon_switch::WorkerPort, values: Vec<Value>, stream: StreamId) {
    inject_all(upstream, vec![Tuple::on_stream(UPSTREAM, stream, values)]);
}

/// Sends tuples into the worker through task 3's port, muxed into as few
/// (jumbo) frames as possible and handed over with one `push_batch` (one
/// ring). Returns the frame count: a single frame reaches the worker in
/// one poll whatever the timing.
fn inject_all(upstream: &typhoon_switch::WorkerPort, tuples: Vec<Tuple>) -> usize {
    let ser = SerStats::default();
    let blobs: Vec<Bytes> = tuples
        .iter()
        .map(|tuple| Bytes::from(encode_tuple_vec(tuple, &ser)))
        .collect();
    let mut frames = Packetizer::new(9000).pack(
        MacAddr::worker(1, UPSTREAM),
        MacAddr::worker(1, TaskId(1)),
        &blobs,
    );
    let pushed = upstream.tx.push_batch(&mut frames);
    assert!(!pushed.disconnected && pushed.dropped == 0);
    pushed.enqueued
}

/// Delivers a control tuple to the worker via `PacketOut`, as the
/// controller would.
fn send_control_tuple(ch: &ControlChannel, ct: ControlTuple) {
    let ser = SerStats::default();
    let blob = Bytes::from(encode_tuple_vec(&ct.to_tuple(CONTROLLER_TASK), &ser));
    for f in Packetizer::new(1500).pack(
        MacAddr::CONTROLLER,
        MacAddr::worker(1, TaskId(1)),
        std::slice::from_ref(&blob),
    ) {
        send_ctrl(
            ch,
            OfMessage::PacketOut {
                in_port: PortNo::CONTROLLER,
                frame: f.encode(),
            },
        );
    }
}

fn recv_tuple(port: &typhoon_switch::WorkerPort, deadline: Duration) -> Option<Tuple> {
    recv_tuples(port, 1, deadline).into_iter().next()
}

/// Receives until `want` tuples arrived or `deadline` passed.
fn recv_tuples(port: &typhoon_switch::WorkerPort, want: usize, deadline: Duration) -> Vec<Tuple> {
    let ser = SerStats::default();
    let mut d = Depacketizer::new();
    let mut got = Vec::new();
    let end = Instant::now() + deadline;
    while got.len() < want && Instant::now() < end {
        match port.rx.pop() {
            Ok(Some(frame)) => {
                for (_, blob) in d.push(&frame).unwrap_or_default() {
                    got.extend(decode_tuple(&blob, &ser).ok().map(|(t, _)| t));
                }
            }
            _ => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    got
}

/// An `ACK` message of `records` from `src`.
fn ack_message(src: u32, init: bool, records: impl IntoIterator<Item = (u64, u64)>) -> Tuple {
    let mut blob = Vec::new();
    for (root, xor) in records {
        acks::push_ack(&mut blob, root, xor);
    }
    acks::ack_message(TaskId(src), init, blob)
}

/// The inits of `roots` from the spout on task `owner`, each with no
/// anchors to wait for: the acker completes them on sight.
fn complete_inits(owner: u32, roots: impl IntoIterator<Item = u64>) -> Tuple {
    ack_message(owner, true, roots.into_iter().map(|root| (root, 0)))
}

/// The records of an `ACK` message as the acker reads them.
fn ack_records(msg: &Tuple) -> (Option<TaskId>, Vec<(u64, u64)>) {
    assert_eq!(msg.meta.stream, StreamId::ACK);
    let (owner, records) = acks::parse_ack_message(msg).expect("a well-formed ack message");
    (owner, records.collect())
}

/// The records of an `ACK_RESULT` message as a spout reads them.
fn verdicts(msg: &Tuple) -> Vec<(u64, bool)> {
    assert_eq!(msg.meta.stream, StreamId::ACK_RESULT);
    acks::parse_verdict_message(msg)
        .expect("a well-formed verdict message")
        .collect()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn bolt_worker_echoes_through_all_three_layers() {
    let (sw, _ch, shared, thread, downstream, upstream) = spawn_echo_worker();
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    inject(
        &upstream,
        vec![Value::Int(5), Value::Str("x".into())],
        StreamId::DEFAULT,
    );
    let out = recv_tuple(&downstream, Duration::from_secs(5)).expect("echoed");
    assert_eq!(out.meta.src_task, TaskId(1), "re-emitted by the worker");
    assert_eq!(out.get(0), Some(&Value::Int(5)));
    assert_eq!(shared.registry.snapshot().counter("tuples.received"), 1);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

#[test]
fn routing_control_tuple_rewires_a_live_worker() {
    // Task 3's own port stands in as the sink of the rewired flow.
    let (sw, ch, shared, thread, downstream, upstream) = spawn_echo_worker();
    let handle = sw.spawn();
    std::thread::sleep(Duration::from_millis(100));
    send_control_tuple(
        &ch,
        ControlTuple::Routing {
            downstream: "down".into(),
            next_hops: Some(vec![TaskId(3)]),
            policy: None,
        },
    );
    // The controller→worker rule: dl_dst=worker(1) output port1.
    // (Installed in spawn_echo_worker.)
    wait_until("ROUTING applied", || {
        shared
            .registry
            .snapshot()
            .counter("control.routing_applied")
            > 0
    });
    // Now the echo goes to task 3 instead of task 2.
    inject(&upstream, vec![Value::Int(9)], StreamId::DEFAULT);
    let rerouted = recv_tuple(&upstream, Duration::from_secs(5)).expect("rerouted");
    assert_eq!(rerouted.get(0), Some(&Value::Int(9)));
    assert!(
        recv_tuple(&downstream, Duration::from_millis(300)).is_none(),
        "old destination still receiving"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

#[test]
fn every_role_leaves_the_one_loop_on_crash_shutdown_and_detach() {
    for name in ["spout", "bolt", "acker"] {
        for exit in ["crash", "shutdown", "detach"] {
            let case = format!("{name}/{exit}");
            let role = match name {
                "spout" => Role::Spout(Box::new(Busy {
                    budget: 1,
                    pause: TRICKLE,
                })),
                "bolt" => Role::Bolt(Box::new(Echo)),
                _ => Role::Acker,
            };
            let (sw, _ch, shared, thread, downstream, upstream) =
                spawn_worker(role, io(1000, NEVER));
            let handle = sw.spawn();
            // One tuple of egress per role. The spout is never idle, so its
            // only emission stays in a batch neither fill nor timer will
            // ever send; the bolt's echo left when its input ran dry, the
            // acker's verdict message at the end of its round.
            match name {
                "bolt" => inject(&upstream, vec![Value::Int(1)], StreamId::DEFAULT),
                "acker" => drop(inject_all(&upstream, vec![complete_inits(2, [9])])),
                _ => {}
            }
            let counters = || shared.registry.snapshot();
            let flushed_before_exit = u64::from(name != "spout");
            wait_until(&case, || {
                counters().counter("tuples.emitted") == u64::from(name != "acker")
                    && counters().counter("io.frames_tx") == flushed_before_exit
            });
            match exit {
                "crash" => shared.crash.store(true, Ordering::Release),
                "shutdown" => shared.shutdown.store(true, Ordering::Release),
                _ => sw.detach_worker(PortNo(1)),
            }
            wait_until(&case, || thread.is_finished());
            thread.join().unwrap();
            // Only a graceful stop flushes what a busy worker still holds;
            // crash and detach drop it.
            let flushed = flushed_before_exit.max(u64::from(exit == "shutdown"));
            assert_eq!(counters().counter("io.frames_tx"), flushed, "{case}");
            if exit == "shutdown" && name != "acker" {
                assert!(recv_tuple(&downstream, Duration::from_secs(5)).is_some());
            }
            handle.stop();
        }
    }
}

#[test]
fn acker_answers_a_round_with_one_message_per_owner() {
    const N: u64 = 20;
    let (sw, _ch, shared, thread, spout_port, upstream) = spawn_worker(Role::Acker, io(8, NEVER));
    let handle = sw.spawn();
    // One frame carries both spouts' inits, so one drained round completes
    // 2 N roots whether the acker was parked or mid-round when it arrived.
    let frames_in = inject_all(
        &upstream,
        vec![complete_inits(2, 1..=N), complete_inits(3, 101..=100 + N)],
    );
    assert_eq!(frames_in, 1, "premise: the acks arrive in one poll");
    for (port, first) in [(&spout_port, 1), (&upstream, 101)] {
        let results = recv_tuples(port, 2, Duration::from_millis(500));
        assert_eq!(results.len(), 1, "N completions, one ACK_RESULT tuple");
        let want: Vec<_> = (first..first + N).map(|root| (root, true)).collect();
        assert_eq!(verdicts(&results[0]), want);
    }
    let snap = shared.registry.snapshot();
    assert_eq!(snap.counter("io.frames_tx"), 2, "one frame per owner");
    assert_eq!(snap.gauge("acker.pending"), 0);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// The owner of a tree is whoever sent its init (`meta.src_task`): a
/// bolt's records never name one, however complete they look.
#[test]
fn acker_takes_the_owner_from_the_init_sender_not_from_a_record() {
    let (sw, _ch, shared, thread, spout_port, upstream) = spawn_worker(Role::Acker, io(8, NEVER));
    let handle = sw.spawn();
    let anchors = [(1, 0xa1), (2, 0xa2), (3, 0xa3)];
    let frames_in = inject_all(
        &upstream,
        vec![
            // Roots 7 and 8 were never initialised: a zero XOR alone must
            // not complete them.
            ack_message(3, false, [(1, 0xa1), (7, 0), (2, 0xa2)]),
            ack_message(2, true, anchors),
            ack_message(3, false, [(8, 0), (3, 0xa3)]),
        ],
    );
    assert_eq!(frames_in, 1, "premise: one round");
    let results = recv_tuples(&spout_port, 2, Duration::from_millis(500));
    assert_eq!(results.len(), 1);
    let mut done = verdicts(&results[0]);
    done.sort();
    assert_eq!(done, vec![(1, true), (2, true), (3, true)]);
    assert!(recv_tuple(&upstream, Duration::from_millis(100)).is_none());
    // The ledger depth is published once the round ends.
    wait_until("acker.pending", || {
        shared.registry.snapshot().gauge("acker.pending") == 2
    });
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// Every record goes straight to the ledger: a round of 20 000 distinct
/// roots is 20 000 hash-map applies, not a quadratic per-round fold.
#[test]
fn acker_completes_a_round_of_20_000_distinct_roots() {
    const ROOTS: u64 = 20_000;
    let wide = IoConfig {
        mtu: 9000,
        ..io(8, NEVER)
    };
    let (sw, _ch, shared, thread, spout_port, upstream) = spawn_worker(Role::Acker, wide);
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    // 200 ack messages of 100 roots each, in one ring push.
    let messages = (0..ROOTS / 100)
        .map(|m| complete_inits(2, (1..=100).map(|i| m * 100 + i)))
        .collect();
    let sent = Instant::now();
    assert!(inject_all(&upstream, messages) <= 256, "one ingress budget");
    let mut done = 0;
    while done < ROOTS as usize {
        let msg = recv_tuple(&spout_port, Duration::from_secs(5)).expect("verdicts stopped");
        let records = verdicts(&msg);
        assert!(records.iter().all(|&(_, ok)| ok));
        done += records.len();
    }
    let took = sent.elapsed();
    assert_eq!(done, ROOTS as usize);
    assert!(took < Duration::from_secs(2), "{ROOTS} roots took {took:?}");
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A corrupted frame can hand either side a blob that is not a whole
/// number of records (or not an ack message at all): the message is
/// dropped and counted, and the next one is processed as usual.
#[test]
fn malformed_ack_blob_is_counted_not_fatal() {
    let ragged = |stream, mut values: Vec<Value>| {
        values.push(Value::Blob(vec![0xff; 17]));
        Tuple::on_stream(UPSTREAM, stream, values)
    };
    let malformed = |shared: &WorkerShared| shared.registry.snapshot().counter("acks.malformed");

    let (sw, _ch, shared, thread, spout_port, upstream) = spawn_worker(Role::Acker, io(8, NEVER));
    let handle = sw.spawn();
    inject_all(
        &upstream,
        vec![
            ragged(StreamId::ACK, vec![Value::Bool(true)]),
            // Ints where the flag and the blob belong.
            Tuple::on_stream(
                TaskId(2),
                StreamId::ACK,
                vec![Value::Int(5), Value::Int(0), Value::Int(2)],
            ),
            complete_inits(2, [5]),
        ],
    );
    let result = recv_tuple(&spout_port, Duration::from_secs(5)).expect("acker survived");
    assert_eq!(verdicts(&result), vec![(5, true)]);
    assert_eq!(malformed(&shared), 2);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();

    let (sw, _ch, shared, thread, _downstream, acker_port) =
        spawn_acking_worker(Role::Spout(Box::new(Asked::emitting(1))), io(1, NEVER), 1);
    let handle = sw.spawn();
    let init = recv_tuple(&acker_port, Duration::from_secs(5)).expect("init");
    let root = ack_records(&init).1[0].0;
    let mut good = Vec::new();
    acks::push_verdict(&mut good, root, true);
    inject_all(
        &acker_port,
        vec![
            ragged(StreamId::ACK_RESULT, vec![]),
            acks::verdict_message(UPSTREAM, good),
        ],
    );
    wait_until("the well-formed verdict completes the root", || {
        shared.registry.snapshot().counter("acks.completed") == 1
    });
    assert_eq!(malformed(&shared), 1);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// The drained round is a bolt's ack batch and, once its input ran dry,
/// its data batch: no timer, one ack message, one flush.
#[test]
fn bolt_acks_leave_with_their_round() {
    let (sw, _ch, shared, thread, downstream, acker_port) =
        spawn_acking_worker(Role::Bolt(Box::new(Echo)), io(1000, NEVER), 1);
    let handle = sw.spawn();
    let anchored = |root: u64| {
        Tuple::new(UPSTREAM, vec![Value::Int(root as i64)]).with_message_id(MessageId {
            root,
            anchor: 0x10_0000 + root,
        })
    };
    // One anchored input: its ack is on the acker port and its echo
    // downstream although neither fill nor timer will ever flush.
    inject_all(&acker_port, vec![anchored(0x100)]);
    let ack = recv_tuple(&acker_port, Duration::from_secs(5)).expect("ack left with its round");
    let (owner, records) = ack_records(&ack);
    assert_eq!(
        (owner, records.len()),
        (None, 1),
        "a bolt's ack names no owner"
    );
    assert_eq!(records[0].0, 0x100);
    assert_ne!(
        records[0].1, 0x10_0100,
        "the echo's new anchor is folded in"
    );
    // A 50-tuple frame is one round: one ACK tuple of 50 records.
    let frames_in = inject_all(&acker_port, (1..=50).map(|i| anchored(i << 8)).collect());
    assert_eq!(frames_in, 1, "premise: one round");
    let acks = recv_tuples(&acker_port, 2, Duration::from_millis(500));
    assert_eq!(acks.len(), 1, "50 acks, one ACK tuple");
    let roots: Vec<u64> = ack_records(&acks[0]).1.iter().map(|r| r.0).collect();
    assert_eq!(roots, (1..=50).map(|i| i << 8).collect::<Vec<u64>>());
    // The echoes left with that round too: the lone one, then all 50.
    let echoed = recv_tuples(&downstream, 51, Duration::from_secs(5));
    let values: Vec<_> = echoed.iter().map(|t| t.get(0).cloned()).collect();
    let sent = std::iter::once(0x100).chain((1..=50).map(|i| i << 8));
    assert_eq!(
        values,
        sent.map(|v| Some(Value::Int(v))).collect::<Vec<_>>()
    );
    let snap = shared.registry.snapshot();
    assert_eq!(
        snap.counter("io.flush.idle"),
        2,
        "one flush per drained round"
    );
    assert_eq!(
        snap.counter("io.flush.fill") + snap.counter("io.flush.delay"),
        0
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// Whatever makes a spout's data leave makes its inits leave in the same
/// round, data first. The acker here is the downstream task, so one port
/// sees both in the order they were sent.
#[test]
fn spout_inits_are_never_later_than_their_data() {
    // (a) the spout runs dry: the idle round flushes the lone data tuple,
    // then forces the init out.
    // (b) every root puts two tuples into a batch of two, so the data
    // leaves on fill while the init buffer holds one record and no timer
    // will ever fire: only the data's departure can send it.
    for (case, io, routes) in [("idle", io(1000, NEVER), 1), ("fill", io(2, NEVER), 2)] {
        let (sw, _ch, shared, thread, downstream, _upstream) = spawn_custom(
            Role::Spout(Box::new(Asked::emitting(1))),
            io,
            |config, r| {
                config.acking = true;
                config.acker = Some(TaskId(2));
                r.resize_with(routes, route_down);
            },
        );
        let handle = sw.spawn();
        let mut data = recv_tuples(&downstream, routes + 1, Duration::from_secs(5));
        assert_eq!(data.len(), routes + 1, "{case}: the init stayed behind");
        let init = data.pop().expect("counted above");
        let (owner, records) = ack_records(&init);
        assert_eq!(owner, Some(TaskId(1)), "{case}");
        assert!(data.iter().all(|t| t.meta.stream == StreamId::DEFAULT));
        let root = data[0].meta.message_id.root;
        let xor = data.iter().fold(0, |x, t| x ^ t.meta.message_id.anchor);
        assert_eq!(records, vec![(root, xor)], "{case}");
        let snap = shared.registry.snapshot();
        assert_eq!(snap.counter(&format!("io.flush.{case}")), 1, "{case}");
        assert_eq!(snap.histograms["io.batch_occupancy"].0, 1, "{case}");
        shared.shutdown.store(true, Ordering::Release);
        thread.join().unwrap();
        handle.stop();
    }
}

/// "Is a thread spinning or asleep?" An idle bolt parks on its bell: about
/// one round per `MAX_PARK`, where a 20 µs sleep-and-poll ran ≈ 2 800 in the
/// same 200 ms.
#[test]
fn idle_bolt_parks_instead_of_polling() {
    let (sw, _ch, shared, thread, _downstream, _upstream) = spawn_echo_worker();
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    let counters = || shared.registry.snapshot();
    let (rounds0, parks0) = (
        counters().counter("loop.rounds"),
        counters().counter("loop.parks"),
    );
    let datapath_rounds = || sw.registry().snapshot().counter("switch.rounds");
    let switch_rounds0 = datapath_rounds();
    std::thread::sleep(Duration::from_millis(200));
    let rounds = counters().counter("loop.rounds") - rounds0;
    let parks = counters().counter("loop.parks") - parks0;
    assert!(
        rounds <= 400,
        "{rounds} rounds in 200 ms: the bolt is polling"
    );
    assert!(
        parks >= rounds.saturating_sub(1),
        "{parks} parks / {rounds}"
    );
    let switch_rounds = datapath_rounds() - switch_rounds0;
    assert!(
        switch_rounds <= 2 * 400,
        "{switch_rounds} switch rounds in 200 ms: the datapath is polling"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A worker never sleeps on buffered output: a lone tuple through an
/// otherwise idle bolt leaves with the round that found the ring empty —
/// the delay timer (30 ms here) never sees it.
#[test]
fn lone_tuple_leaves_with_its_round() {
    let (sw, _ch, shared, thread, downstream, upstream) = spawn_worker(
        Role::Bolt(Box::new(Echo)),
        io(1000, Duration::from_millis(30)),
    );
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    inject(&upstream, vec![Value::Int(3)], StreamId::DEFAULT);
    let out = recv_tuple(&downstream, Duration::from_secs(5));
    assert!(out.is_some(), "never flushed");
    let snap = shared.registry.snapshot();
    assert_eq!(snap.counter("io.flush.idle"), 1);
    assert_eq!(snap.counter("io.flush.delay"), 0, "it waited out the timer");
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// The throughput path is untouched: a spout that is never idle fills every
/// batch to `batch_size`; only the graceful stop sends a partial one.
#[test]
fn a_spout_that_is_never_idle_fills_its_batches() {
    const TUPLES: u64 = 10_050;
    let (sw, _ch, shared, thread, downstream, _upstream) = spawn_worker(
        Role::Spout(Box::new(Busy {
            budget: TUPLES,
            pause: Duration::ZERO,
        })),
        IoConfig {
            mtu: 9000,
            ..io(100, NEVER)
        },
    );
    let handle = sw.spawn();
    let full = recv_tuples(&downstream, 10_000, Duration::from_secs(10));
    assert_eq!(full.len(), 10_000);
    let count = |name: &str| shared.registry.snapshot().counter(name);
    wait_until("the last 50", || count("tuples.emitted") == TUPLES);
    assert_eq!(count("io.flush.fill"), 100);
    assert_eq!(count("io.flush.idle") + count("io.flush.delay"), 0);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    assert_eq!(
        recv_tuples(&downstream, 50, Duration::from_secs(5)).len(),
        50
    );
    assert_eq!(count("io.flush.fill"), 100, "every full batch left on fill");
    assert_eq!(count("io.flush.idle"), 1, "the stop sent the last 50");
    let (samples, mean, ..) = shared.registry.snapshot().histograms["io.batch_occupancy"];
    assert_eq!((samples, mean), (101, TUPLES as f64 / 101.0));
    handle.stop();
}

/// `batch_delay` still paces a worker that stays busy: a never-idle spout
/// whose batch cannot fill flushes once per delay, and every flush is the
/// timer's.
#[test]
fn a_busy_round_still_honours_batch_delay() {
    const DELAY: Duration = Duration::from_millis(5);
    let (sw, _ch, shared, thread, _downstream, _upstream) = spawn_worker(
        Role::Spout(Box::new(Busy {
            budget: u64::MAX,
            pause: TRICKLE,
        })),
        IoConfig {
            mtu: 9000,
            ..io(usize::MAX, DELAY)
        },
    );
    let handle = sw.spawn();
    let count = |name: &str| shared.registry.snapshot().counter(name);
    wait_until("first timer flush", || count("io.flush.delay") > 0);
    let (started, first) = (Instant::now(), count("io.flush.delay"));
    std::thread::sleep(20 * DELAY);
    let timed = count("io.flush.delay") - first;
    let most = (started.elapsed().as_micros() / DELAY.as_micros()) as u64 + 1;
    assert!(
        (2..=most).contains(&timed),
        "{timed} timer flushes in {:?} at a {DELAY:?} delay",
        started.elapsed()
    );
    assert_eq!(count("io.flush.fill") + count("io.flush.idle"), 0);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// An active spout with nothing due is asked again `SPOUT_IDLE_POLL` after
/// each empty `next_batch`: ≈ 650 calls in 200 ms with timer slack, at most
/// 800 — the 20 µs poll it replaces ran ≈ 2 900. It waits the period out on
/// its bell, so every round ends in a park; nothing arrives on its port, so
/// nothing rings it.
#[test]
fn an_idle_spout_polls_at_the_idle_period() {
    const WINDOW: Duration = Duration::from_millis(200);
    let spout = Asked::default();
    let (sw, _ch, shared, thread, _downstream, _upstream) =
        spawn_worker(Role::Spout(Box::new(spout.clone())), io(1, NEVER));
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    let count = |name: &str| shared.registry.snapshot().counter(name);
    let started = Instant::now();
    let (calls0, rounds0, parks0) = (spout.calls(), count("loop.rounds"), count("loop.parks"));
    std::thread::sleep(WINDOW);
    let (calls, rounds) = (spout.calls() - calls0, count("loop.rounds") - rounds0);
    let (parks, rung) = (count("loop.parks") - parks0, count("loop.rung"));
    let ideal = polls_in(started.elapsed());
    assert!(
        (ideal / 4..=ideal + 2).contains(&calls),
        "{calls} polls in {:?} at a {IDLE_POLL:?} idle poll",
        started.elapsed()
    );
    assert!(
        rounds <= calls + 2 && parks + 2 >= rounds,
        "{rounds} rounds, {parks} parks, {calls} polls: every round polls, then parks"
    );
    assert_eq!(rung, 0, "nobody rings an unacked spout");
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// `InputRate` below 10 t/s still leaves a budget of one tuple per 100 ms
/// window (it rounded down to none, silencing the spout for good).
#[test]
fn input_rate_below_ten_per_second_still_emits() {
    let (sw, ch, shared, thread, downstream, _upstream) = spawn_worker_with(
        Role::Spout(Box::new(Busy {
            budget: u64::MAX,
            pause: Duration::ZERO,
        })),
        io(1, NEVER),
        false,
    );
    let handle = sw.spawn();
    send_control_tuple(&ch, ControlTuple::InputRate { tuples_per_sec: 5 });
    wait_until("INPUT_RATE applied", || {
        shared.registry.snapshot().counter("control.received") == 1
    });
    let activated = Instant::now();
    send_control_tuple(&ch, ControlTuple::Activate);
    let got = recv_tuples(&downstream, 3, Duration::from_secs(5));
    assert_eq!(got.len(), 3, "the throttle silenced the spout");
    // ceil(5 / 10) = 1 per window, and the windows are not aligned with
    // the activation: n tuples take the tail of one window and n - 2 whole.
    let emitted = shared.registry.snapshot().counter("tuples.emitted");
    let windows = activated.elapsed().as_millis() as u64 / 100;
    assert!(
        emitted <= windows + 2,
        "{emitted} tuples in {windows} windows"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A spout whose `InputRate` budget is spent is due when the 100 ms window
/// ends, not at its next poll period: it parks the window out (one round per
/// `MAX_PARK`, ≈ 75 per tuple at 5 t/s) instead of waking every
/// `SPOUT_IDLE_POLL` to find the budget still spent (≈ 260 per tuple).
#[test]
fn a_spent_input_rate_budget_parks_until_its_window_ends() {
    let (sw, ch, shared, thread, downstream, _upstream) = spawn_worker_with(
        Role::Spout(Box::new(Busy {
            budget: u64::MAX,
            pause: Duration::ZERO,
        })),
        io(1, NEVER),
        false,
    );
    let handle = sw.spawn();
    send_control_tuple(&ch, ControlTuple::InputRate { tuples_per_sec: 5 });
    wait_until("INPUT_RATE applied", || {
        shared.registry.snapshot().counter("control.received") == 1
    });
    let count = |name: &str| shared.registry.snapshot().counter(name);
    let rounds0 = count("loop.rounds");
    send_control_tuple(&ch, ControlTuple::Activate);
    let got = recv_tuples(&downstream, 6, Duration::from_secs(5));
    assert_eq!(got.len(), 6, "the throttle silenced the spout");
    let (rounds, emitted) = (count("loop.rounds") - rounds0, count("tuples.emitted"));
    let per_tuple = rounds / emitted;
    println!("{rounds} rounds for {emitted} tuples: {per_tuple} rounds per tuple");
    assert!(
        per_tuple <= 150,
        "{rounds} rounds for {emitted} tuples: the spent budget is polled"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A deactivated spout has nothing to poll for: it parks like a bolt and
/// is asked nothing, and the `Activate` frame's ring resumes it.
#[test]
fn deactivated_spout_parks_and_resumes_on_activate() {
    let spout = Asked::emitting(1);
    let (sw, ch, shared, thread, downstream, _upstream) = spawn_worker_with(
        Role::Spout(Box::new(spout.clone())),
        io(1, Duration::from_millis(1)),
        false,
    );
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    let count = |name: &str| shared.registry.snapshot().counter(name);
    let before = count("loop.rounds");
    std::thread::sleep(Duration::from_millis(100));
    let idle_rounds = count("loop.rounds") - before;
    assert!(
        idle_rounds <= 200,
        "{idle_rounds} rounds in 100 ms: polling"
    );
    assert_eq!(spout.calls(), 0, "a deactivated spout was asked for tuples");
    send_control_tuple(&ch, ControlTuple::Activate);
    let out = recv_tuple(&downstream, Duration::from_secs(5)).expect("resumed");
    assert_eq!(out.get(0), Some(&Value::Int(7)));
    // Active again, it is asked once per IDLE_POLL: 100 ms / IDLE_POLL calls
    // at best, a quarter of that on a loaded box.
    let started = Instant::now();
    let before = spout.calls();
    std::thread::sleep(Duration::from_millis(100));
    let polled = spout.calls() - before;
    let ideal = polls_in(started.elapsed());
    assert!(
        (ideal / 4..=ideal + 2).contains(&polled),
        "{polled} polls in {:?}",
        started.elapsed()
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// An `ACK_RESULT` message as the acker on [`UPSTREAM`] sends it: every
/// root completed.
fn completions(roots: impl IntoIterator<Item = u64>) -> Tuple {
    let mut blob = Vec::new();
    for root in roots {
        acks::push_verdict(&mut blob, root, true);
    }
    acks::verdict_message(UPSTREAM, blob)
}

/// The latency the paper plots is spout emit → ack callback: an ack result
/// is served by the ring that announces it, not by the spout's next poll.
/// Verdicts arrive one per ≈ 1 ms at a spout with nothing to emit; all reach
/// `Spout::ack`, and most of them by ending its park.
#[test]
fn ack_results_reach_an_idle_spout_between_polls() {
    const N: usize = 24;
    let spout = Asked::emitting(N);
    let (sw, _ch, shared, thread, _downstream, acker_port) =
        spawn_acking_worker(Role::Spout(Box::new(spout.clone())), io(1000, NEVER), 1);
    let handle = sw.spawn();
    // The burst's inits name the roots to answer.
    let inits = recv_tuple(&acker_port, Duration::from_secs(5)).expect("inits left when idle");
    let roots: Vec<u64> = ack_records(&inits).1.iter().map(|r| r.0).collect();
    assert_eq!(roots.len(), N);
    let rung = || shared.registry.snapshot().counter("loop.rung");
    let rung0 = rung();
    for root in roots {
        std::thread::sleep(Duration::from_millis(1)); // the spout is parked again
        inject_all(&acker_port, vec![completions([root])]);
    }
    wait_until("every verdict acked", || {
        spout.acked.load(Ordering::Relaxed) == N as u64
    });
    let by_ring = rung() - rung0;
    assert!(
        by_ring > N as u64 / 2,
        "{by_ring} of {N} ack results ended a park: the rest waited for a poll"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A ring before the poll instant runs a round without `next_batch` and
/// leaves the instant where it was: under a flood of frames the spout is
/// never asked sooner than `SPOUT_IDLE_POLL` after an empty `next_batch`
/// (no re-clock), and still asked (the flood cannot starve the poll).
#[test]
fn an_early_ring_does_not_reclock_next_batch() {
    let spout = Asked::default();
    let (sw, _ch, shared, thread, _downstream, acker_port) =
        spawn_acking_worker(Role::Spout(Box::new(spout.clone())), io(1000, NEVER), 1);
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    let rung = || shared.registry.snapshot().counter("loop.rung");
    let started = Instant::now();
    let (calls0, rung0) = (spout.calls(), rung());
    // A 20 µs sleep is ≈ 75 µs with timer slack: 2–3 rings per IDLE_POLL
    // on a quiet box, about one on a loaded one.
    while started.elapsed() < Duration::from_millis(200) {
        inject_all(&acker_port, vec![completions([1])]);
        std::thread::sleep(Duration::from_micros(20));
    }
    let (calls, by_ring) = (spout.calls() - calls0, rung() - rung0);
    let ideal = polls_in(started.elapsed());
    assert!(
        by_ring > ideal / 4,
        "premise: {by_ring} early rings in {ideal} poll periods"
    );
    let early = spout.early.load(Ordering::Relaxed);
    assert_eq!(
        early, 0,
        "{early} of {calls} polls came early ({ideal} poll periods, {by_ring} rings)"
    );
    assert!(
        calls >= ideal / 4,
        "{calls} polls in {ideal} poll periods under {by_ring} rings"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// A control tuple is served by its ring too. `Deactivate` ends the park of
/// an active idle spout (most tries: one can find it mid-round), and once
/// it is counted the spout is asked nothing more.
#[test]
fn control_tuple_reaches_an_idle_active_spout_at_once() {
    const TRIES: u64 = 11;
    let spout = Asked::default();
    let (sw, ch, shared, thread, _downstream, _upstream) =
        spawn_worker(Role::Spout(Box::new(spout.clone())), io(1, NEVER));
    let handle = sw.spawn();
    wait_until("worker ready", || shared.ready.load(Ordering::Acquire));
    let count = |name: &str| shared.registry.snapshot().counter(name);
    let mut by_ring = 0;
    for try_ in 0..TRIES {
        let polling = spout.calls();
        wait_until("active: polled", || spout.calls() > polling + 2);
        let rung0 = count("loop.rung");
        send_control_tuple(&ch, ControlTuple::Deactivate);
        wait_until("DEACTIVATE applied", || {
            count("control.received") == 2 * try_ + 1
        });
        let asked = spout.calls();
        by_ring += count("loop.rung") - rung0;
        std::thread::sleep(8 * IDLE_POLL);
        assert_eq!(spout.calls(), asked, "asked after DEACTIVATE was counted");
        send_control_tuple(&ch, ControlTuple::Activate);
        wait_until("ACTIVATE applied", || {
            count("control.received") == 2 * try_ + 2
        });
    }
    assert!(
        by_ring > TRIES / 2,
        "{by_ring} of {TRIES} DEACTIVATEs ended a park: the rest waited for a poll"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

/// One agent on a spawned switch, with `bolts` registered beside the idle
/// `Echo` bolt / `Asked` spout (both named "idle").
fn test_agent(
    bolts: impl FnOnce(&mut typhoon_model::ComponentRegistry),
) -> (
    Arc<typhoon_core::agent::WorkerAgent>,
    typhoon_switch::SwitchHandle,
) {
    use typhoon_coordinator::global::GlobalState;
    use typhoon_coordinator::Coordinator;
    use typhoon_model::{ComponentRegistry, HostInfo};

    let mut components = ComponentRegistry::new();
    components.register_bolt("idle", || Echo);
    components.register_spout("idle", Asked::default);
    bolts(&mut components);
    let components = Arc::new(typhoon_diag::DiagRwLock::new(components));
    let global = GlobalState::new(Coordinator::new());
    let (sw, _ch) = Switch::new(SwitchConfig::new(1));
    let handle = sw.spawn();
    let agent = typhoon_core::agent::WorkerAgent::new(
        HostInfo::new(0, "h0", 64),
        sw,
        components,
        SerStats::shared(),
        &global,
        None,
    )
    .unwrap();
    (agent, handle)
}

/// The config of a worker of `component` that nothing ever talks to.
fn lone_worker(task: u32, component: &str) -> WorkerConfig {
    WorkerConfig {
        app: AppId(1),
        task: TaskId(task),
        node: component.into(),
        component: component.into(),
        io: io(1000, NEVER),
        acking: false,
        acker: None,
        ack_timeout: Duration::from_secs(30),
        max_pending: 64,
        start_active: true,
        checkpoint: None,
        restore: false,
    }
}

/// Launches an idle worker of `kind` on an agent, lets it park, and kills
/// it, 21 times over. Returns the median `WorkerAgent::kill` (flag, ring,
/// join, detach) — one try can lose the CPU on a shared box — and how many
/// of the kills ended the worker's park by their ring.
fn kill_idle_workers(kind: typhoon_model::NodeKind) -> (Duration, u64) {
    let (agent, handle) = test_agent(|_| {});
    let (mut kills, mut by_ring) = (Vec::new(), 0);
    for task in 1..=21 {
        let port = agent.alloc_port();
        let config = lone_worker(task, "idle");
        let shared = agent.launch(kind, false, port, config, Vec::new()).unwrap();
        agent
            .wait_ready(AppId(1), TaskId(task), Duration::from_secs(5))
            .unwrap();
        std::thread::sleep(Duration::from_millis(3)); // let it park
        let rung = shared.registry.snapshot().counter("loop.rung");
        let t = Instant::now();
        agent.kill(AppId(1), TaskId(task));
        kills.push(t.elapsed());
        by_ring += shared.registry.snapshot().counter("loop.rung") - rung;
    }
    handle.stop();
    kills.sort();
    (kills[kills.len() / 2], by_ring)
}

/// `WorkerAgent::kill` rings the worker's bell after setting the flag: a
/// parked bolt is gone in far less than a park period.
#[test]
fn parked_bolt_exits_promptly_on_agent_kill() {
    let (median, by_ring) = kill_idle_workers(typhoon_model::NodeKind::Bolt);
    assert!(median < Duration::from_millis(5), "median kill {median:?}");
    assert!(
        median < typhoon_net::Doorbell::MAX_PARK / 2,
        "median kill {median:?}: the worker waited out its park"
    );
    assert!(by_ring > 10, "{by_ring} of 21 kills ended a park");
}

/// An active spout with nothing due waits on the same bell: the kill's ring
/// ends its park, it does not wait for its next poll.
#[test]
fn idle_active_spout_exits_promptly_on_agent_kill() {
    let (median, by_ring) = kill_idle_workers(typhoon_model::NodeKind::Spout);
    assert!(
        median < typhoon_net::Doorbell::MAX_PARK / 2,
        "median kill {median:?}"
    );
    assert!(
        by_ring > 10,
        "{by_ring} of 21 kills ended a park: the rest waited for a poll"
    );
}

/// A bolt whose worker-side construction takes a moment (so the launcher is
/// parked when `ready` comes) or panics.
struct SlowToPrepare {
    panics: bool,
}

impl Bolt for SlowToPrepare {
    fn prepare(&mut self) {
        std::thread::sleep(Duration::from_millis(2));
        assert!(!self.panics, "this bolt cannot be constructed");
    }

    fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
}

/// `wait_ready` parks on the worker's ready bell: over 21 launches the
/// worker's ring — not a timed re-check, and never the deadline — ends the
/// wait. By count: `ready.rung` says which waits the ring ended.
#[test]
fn wait_ready_is_ended_by_the_workers_ring() {
    let (agent, handle) =
        test_agent(|c| c.register_bolt("slow", || SlowToPrepare { panics: false }));
    let mut by_ring = 0;
    for task in 1..=21 {
        let config = lone_worker(task, "slow");
        let kind = typhoon_model::NodeKind::Bolt;
        let shared = agent
            .launch(kind, false, agent.alloc_port(), config, Vec::new())
            .unwrap();
        // None by the deadline …
        agent
            .wait_ready(AppId(1), TaskId(task), Duration::from_secs(10))
            .unwrap();
        assert!(shared.ready.load(Ordering::Acquire));
        // … and the last wait of most by the ring (`MAX_PARK` caps a park,
        // so a 2 ms construction is two or three waits).
        by_ring += shared.registry.snapshot().counter("ready.rung").min(1);
        agent.kill(AppId(1), TaskId(task));
    }
    handle.stop();
    assert!(by_ring > 10, "{by_ring} of 21 waits were ended by the ring");
}

/// A worker that dies before it is ready fails the launch when it dies, by
/// a typed error that names it — not after `READY_TIMEOUT`. The bound is
/// the 10 s timeout itself: three orders of magnitude above the 2 ms the
/// construction takes.
#[test]
fn a_worker_that_dies_before_it_is_ready_fails_the_launch_at_once() {
    let (agent, handle) =
        test_agent(|c| c.register_bolt("doomed", || SlowToPrepare { panics: true }));
    let timeout = Duration::from_secs(10);
    let kind = typhoon_model::NodeKind::Bolt;
    let shared = agent
        .launch(
            kind,
            false,
            agent.alloc_port(),
            lone_worker(7, "doomed"),
            Vec::new(),
        )
        .unwrap();
    let t = Instant::now();
    let err = agent.wait_ready(AppId(1), TaskId(7), timeout).unwrap_err();
    assert!(
        matches!(
            err,
            typhoon_core::CoreError::WorkerExited(AppId(1), TaskId(7))
        ),
        "{err}"
    );
    assert!(err.to_string().contains("t7"), "{err}");
    assert!(t.elapsed() < timeout / 10, "waited {:?}", t.elapsed());
    assert!(!shared.ready.load(Ordering::Acquire));
    assert_eq!(shared.registry.snapshot().counter("recovery.panics"), 1);
    // The dead worker is the heartbeat scan's to find, and reapable.
    assert_eq!(agent.dead_workers(), vec![(AppId(1), TaskId(7))]);
    agent.reap(AppId(1), TaskId(7));
    // A worker nobody launched is "gone" too, at once.
    assert!(matches!(
        agent.wait_ready(AppId(1), TaskId(8), timeout),
        Err(typhoon_core::CoreError::WorkerExited(_, TaskId(8)))
    ));
    handle.stop();
}
