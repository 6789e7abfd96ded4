//! The worker's emit path — `FrameworkLayer::route_each` handing each copy
//! to `IoLayer::enqueue_with`, which encodes it into its destination's frame
//! under construction — and its receive path — `Ingress::walk` handing each
//! record in place to decode and execute — priced in allocations and in how
//! many are alive at once, and pinned against the wire format they keep.
//!
//! * `routed_emissions_allocate_per_frame_not_per_tuple`: 1 000 unicast
//!   tuples through a real switch port cost the frames' buffers and nothing
//!   per tuple; the same tuples through `route()` + `enqueue()` are printed
//!   beside them as the before.
//! * `ingress_tuples_are_executed_one_at_a_time`: 1 000 received tuples cost
//!   their decoded values and a few allocations per frame, and only a
//!   handful are alive at once; collecting the round first (frames, blobs,
//!   then tuples, the way the worker received before its walk) is printed as
//!   the before.
//! * `a_spout_batch_is_routed_as_it_is_made`: a 1 000-tuple `next_batch` on
//!   a running worker, acked and unacked, likewise; collecting the batch
//!   before routing it is the before.
//! * `batches_frame_like_the_packetizer`: random tuple sizes (0 to 3 × MTU),
//!   destinations, batch sizes and flush points; what the switch delivers
//!   to a sink port depacketizes to what was enqueued, per destination and
//!   in order, in frames ≤ MTU, split only where a tuple is larger than a
//!   frame.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use typhoon_core::worker::{
    run_worker, FrameworkLayer, Ingress, IoConfig, IoLayer, Role, Route, WorkerConfig, WorkerShared,
};
use typhoon_metrics::Registry;
use typhoon_model::{AppId, Emitter, Grouping, RoutingState, Spout, TaskId, VecEmitter};
use typhoon_net::frame::HEADER_LEN;
use typhoon_net::{ring, Depacketizer, Frame, MacAddr, Packetizer};
use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo};
use typhoon_switch::{Switch, SwitchConfig, WorkerPort};
use typhoon_trace::TraceCtx;
use typhoon_tuple::ser::{decode_tuple, encode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::{StreamId, Tuple, Value};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread: tests run on threads of their own, so each reads only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated less those it freed (a `realloc` moves
    /// one), and the most that figure reached since [`Window::open`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn live_add(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// const-initialised thread-local `Cell`, which never allocates, so it cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc` is passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        live_add(1);
        // SAFETY: as above — same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract for `dealloc` is passed on to `System`,
    // which made every block this allocator hands out.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-1);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's contract for `realloc` is passed on to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// This thread's allocations from one point on: how many were made, and
/// the most alive at once beyond those alive at the start (blocks made
/// before it and freed inside count against it, so the figure is what the
/// code under test added, at its worst).
#[derive(Clone, Copy)]
struct Window {
    allocations: u64,
    live: i64,
}

impl Window {
    fn open() -> Window {
        let live = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(live));
        Window {
            allocations: allocations(),
            live,
        }
    }

    /// (allocations made, peak alive) since `open`.
    fn close(self) -> (u64, i64) {
        (
            allocations() - self.allocations,
            PEAK.with(Cell::get) - self.live,
        )
    }
}

fn mac(task: u32) -> MacAddr {
    MacAddr::worker(1, TaskId(task))
}

const TUPLES: usize = 1_000;

/// A framework layer routing everything to task 2, and `TUPLES` word-count
/// sized tuples, built before anything is counted.
fn unicast_fixture(ser: &std::sync::Arc<SerStats>) -> (FrameworkLayer, Vec<Tuple>) {
    let fw = FrameworkLayer::new(
        AppId(1),
        TaskId(1),
        vec![Route {
            stream: StreamId::DEFAULT,
            downstream: "sink".into(),
            state: RoutingState::new(Grouping::Shuffle, vec![TaskId(2)], vec![]),
        }],
        ser.clone(),
        Registry::new(),
    );
    let tuples = (0..TUPLES as i64)
        .map(|i| Tuple::new(TaskId(1), vec![Value::Int(i), Value::Str("typhoon".into())]))
        .collect();
    (fw, tuples)
}

#[test]
fn routed_emissions_allocate_per_frame_not_per_tuple() {
    let (sw, _control) = Switch::new(SwitchConfig::new(1));
    let port = sw.attach_worker(PortNo(1));
    let mut io = IoLayer::new(mac(1), port, &IoConfig::default(), Registry::new());
    let ser = SerStats::shared();

    let (mut fw, tuples) = unicast_fixture(&ser);
    let before = allocations();
    for tuple in tuples {
        fw.route_each(tuple, false, |dst, _anchor, tuple| {
            io.enqueue_with(dst, tuple.meta.trace, |buf| {
                encode_tuple(tuple, buf, &ser);
            });
        });
    }
    io.flush_all();
    let emitted = allocations() - before;
    let frames = io.frames_sent();

    let (mut fw, tuples) = unicast_fixture(&ser);
    let before = allocations();
    for tuple in tuples {
        for a in fw.route(tuple, false) {
            io.enqueue(a.dst, a.blob, a.trace);
        }
    }
    io.flush_all();
    let routed = allocations() - before;

    println!(
        "{TUPLES} tuples, {frames} frames: route_each + enqueue_with {emitted} allocations, \
         route + enqueue {routed}"
    );
    assert!(frames > 0 && frames < TUPLES as u64 / 50, "{frames} frames");
    // A frame costs two: its payload buffer and the `Bytes` refcount box
    // it is frozen into. Anything left over is per-destination set-up.
    assert!(
        emitted <= 2 * frames + 4,
        "{emitted} allocations for {TUPLES} tuples in {frames} frames"
    );
    assert!(
        routed >= 3 * TUPLES as u64,
        "the blob path allocates per tuple: {routed}"
    );
}

/// The tuple lengths of the records in one frame payload that carry part of
/// their tuple rather than all of it. The layout is
/// `typhoon_net::packetize`'s: `total:u32 offset:u32 chunk:u32 bytes`.
fn segments(mut payload: &[u8]) -> Vec<usize> {
    let mut split = Vec::new();
    while !payload.is_empty() {
        let field =
            |at: usize| u32::from_be_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let (total, offset, chunk) = (field(0), field(4), field(8));
        if offset != 0 || chunk != total {
            split.push(total);
        }
        payload = &payload[12 + chunk..];
    }
    split
}

proptest! {
    #[test]
    fn batches_frame_like_the_packetizer(
        mtu in 40usize..400,
        destinations in 1usize..5,
        batch_size in 1usize..10,
        // (destination, length in thousandths of the MTU, flush after it)
        tuples in proptest::collection::vec((0usize..4, 0usize..3000, any::<bool>()), 0..60),
    ) {
        let (port, _feed, far, _sw) = fed_port(1 << 14);
        let registry = Registry::new();
        let config = IoConfig { mtu, batch_size, batch_delay: Duration::from_secs(60) };
        let mut io = IoLayer::new(mac(1), port, &config, registry.clone());
        let mut sent = vec![Vec::new(); destinations];
        for (k, &(d, thousandths, flush)) in tuples.iter().enumerate() {
            let d = d % destinations;
            let blob: Vec<u8> = (0..thousandths * mtu / 1000).map(|j| (k * 31 + j) as u8).collect();
            io.enqueue_with(mac(10 + d as u32), 0, |buf| buf.extend_from_slice(&blob));
            sent[d].push(blob);
            if flush {
                io.flush_all();
            }
        }
        io.flush_all();

        let mut frames = Vec::new();
        far.rx.pop_batch(&mut frames, usize::MAX).unwrap();
        let mut got = vec![Vec::new(); destinations];
        let mut depacketizers: Vec<Depacketizer> = (0..destinations).map(|_| Depacketizer::new()).collect();
        for frame in &frames {
            prop_assert!(frame.wire_len() <= mtu, "{} > {mtu}", frame.wire_len());
            for total in segments(&frame.payload) {
                prop_assert!(12 + total > mtu - HEADER_LEN, "a {total} B tuple fits a frame but was split");
            }
            let d = (frame.dst.task().0 - 10) as usize;
            for (_, blob) in depacketizers[d].push(frame).unwrap() {
                got[d].push(blob.to_vec());
            }
        }
        prop_assert_eq!(got, sent);
        let snap = registry.snapshot();
        let (samples, mean, ..) = snap.histograms["io.batch_occupancy"];
        prop_assert_eq!((samples as f64 * mean).round() as usize, tuples.len());
        prop_assert_eq!(snap.counter("io.frames_tx"), frames.len() as u64);
    }
}

/// `TUPLES` word-count sized tuples (an int and a string: two allocations
/// each once decoded) from task 1 to task 2, packed at a 1 500 B MTU.
fn received_frames(ser: &SerStats) -> Vec<Frame> {
    let blobs: Vec<bytes::Bytes> = (0..TUPLES as i64)
        .map(|i| {
            let tuple = Tuple::new(TaskId(1), vec![Value::Int(i), Value::Str("typhoon".into())]);
            encode_tuple_vec(&tuple, ser).into()
        })
        .collect();
    Packetizer::new(1500).pack(mac(1), mac(2), &blobs)
}

/// A worker's port on a switch that feeds it whatever a feed port sends
/// and delivers everything it sends to a sink port the test drains, with
/// `capacity`-frame rings: `(worker, feed, sink, switch)`.
fn fed_port(capacity: usize) -> (WorkerPort, WorkerPort, WorkerPort, Switch) {
    let mut config = SwitchConfig::new(1);
    config.ring_capacity = capacity;
    let (sw, control) = Switch::new(config);
    let [worker, feed, sink] = [1, 2, 3].map(|p| sw.attach_worker(PortNo(p)));
    for (from, to) in [(2, 1), (1, 3)] {
        let rule = FlowMod::add(
            1,
            FlowMatch::any().in_port(PortNo(from)),
            vec![Action::Output(PortNo(to))],
        );
        control
            .send(wire::encode(&OfMessage::FlowMod(rule)))
            .unwrap();
    }
    sw.process_round();
    (worker, feed, sink, sw)
}

#[test]
fn ingress_tuples_are_executed_one_at_a_time() {
    let ser = SerStats::shared();
    let (port, feed, _sink, _sw) = fed_port(1 << 10);
    let registry = Registry::new();
    let mut io = IoLayer::new(mac(2), port, &IoConfig::default(), registry.clone());
    let mut rx = Ingress::new(&registry);
    let frames = received_frames(&ser);
    let m = frames.len() as u64;
    for frame in frames {
        feed.tx.push(frame).unwrap();
    }
    let window = Window::open();
    io.poll(&mut rx, 256).unwrap();
    let mut executed = 0;
    rx.walk(|_src, record| {
        let (tuple, _) = decode_tuple(record, &ser).expect("a tuple");
        executed += 1;
        drop(tuple); // a sink's execute
    });
    let (walked, walked_live) = window.close();

    // The before: the round collected first, as the worker once received —
    // every frame, then every frame's blobs, then every decoded tuple.
    let (feed, before_rx) = ring(1 << 10);
    for frame in received_frames(&ser) {
        feed.push(frame).unwrap();
    }
    let mut depacketizer = Depacketizer::new();
    let window = Window::open();
    let mut frames = Vec::new();
    before_rx.pop_batch(&mut frames, 256).unwrap();
    let mut blobs = Vec::new();
    for frame in &frames {
        blobs.extend(depacketizer.push(frame).unwrap());
    }
    let mut tuples = Vec::with_capacity(blobs.len());
    for (_, blob) in blobs {
        tuples.push(decode_tuple(&blob, &ser).expect("a tuple").0);
    }
    drop(frames);
    let collected = tuples.len();
    for tuple in tuples {
        drop(tuple);
    }
    let (before, before_live) = window.close();

    println!(
        "{TUPLES} tuples in {m} frames: the walk {walked} allocations, {walked_live} alive at most; \
         collected first {before} allocations, {before_live} alive at most"
    );
    assert_eq!((executed, collected), (TUPLES, TUPLES));
    // The floor: one `Vec<Value>` and one `String` per tuple, since
    // `Bolt::execute` takes the tuple by value; the rest is the frame buffer.
    assert!(
        walked <= 2 * TUPLES as u64 + 2 * m,
        "{walked} allocations for {TUPLES} tuples in {m} frames"
    );
    assert!(walked_live <= 4, "{walked_live} allocations alive at once");
    assert!(
        before_live >= 2 * TUPLES as i64,
        "the collector holds the round: {before_live}"
    );
}

/// A spout whose `next_batch` calls clock the test: the first emits a
/// warm-up batch, the second the measured one, and the third reads what
/// the worker's thread allocated since the second began, then stops the
/// worker.
struct Measured {
    calls: u32,
    window: Option<Window>,
    allocations: Arc<AtomicI64>,
    live: Arc<AtomicI64>,
    worker: WorkerShared,
}

impl Spout for Measured {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.calls += 1;
        match self.calls {
            1 | 2 => {
                if self.calls == 2 {
                    self.window = Some(Window::open());
                }
                for i in 0..TUPLES as i64 {
                    out.emit(vec![Value::Int(i)]);
                }
                true
            }
            3 => {
                let (made, live) = self.window.take().expect("opened").close();
                self.allocations.store(made as i64, Ordering::Release);
                self.live.store(live, Ordering::Release);
                self.worker.request_crash();
                false
            }
            _ => false,
        }
    }
}

/// Runs [`Measured`] on a worker routing to task 2 (acked through acker
/// task 3 when `acking`): `(allocations, most alive at once, frames sent)`
/// for the measured batch.
fn spout_batch(acking: bool) -> (i64, i64, u64) {
    let (port, _feed, egress, _sw) = fed_port(1 << 10);
    let shared = WorkerShared::new();
    let (allocations, live) = (Arc::new(AtomicI64::new(-1)), Arc::new(AtomicI64::new(-1)));
    let spout = Measured {
        calls: 0,
        window: None,
        allocations: allocations.clone(),
        live: live.clone(),
        worker: shared.clone(),
    };
    let config = WorkerConfig {
        app: AppId(1),
        task: TaskId(1),
        node: "source".into(),
        component: "measured".into(),
        io: IoConfig::default(),
        acking,
        acker: acking.then_some(TaskId(3)),
        ack_timeout: Duration::from_secs(60),
        max_pending: 10 * TUPLES,
        start_active: true,
        checkpoint: None,
        restore: false,
    };
    let routes = vec![Route {
        stream: StreamId::DEFAULT,
        downstream: "sink".into(),
        state: RoutingState::new(Grouping::Shuffle, vec![TaskId(2)], vec![]),
    }];
    let registry = shared.registry.clone();
    // On this thread, so the spout reads this thread's allocator counts.
    run_worker(
        config,
        Role::Spout(Box::new(spout)),
        port,
        routes,
        SerStats::shared(),
        shared,
        TraceCtx::disabled(),
    );
    assert_eq!(
        registry.snapshot().counter("tuples.emitted"),
        2 * TUPLES as u64
    );
    let mut frames = Vec::new();
    egress.rx.pop_batch(&mut frames, usize::MAX).unwrap();
    (
        allocations.load(Ordering::Acquire),
        live.load(Ordering::Acquire),
        frames.len() as u64,
    )
}

#[test]
fn a_spout_batch_is_routed_as_it_is_made() {
    // The before: the batch collected, then routed (as the worker once did).
    let (sw, _control) = Switch::new(SwitchConfig::new(1));
    let mut io = IoLayer::new(
        mac(1),
        sw.attach_worker(PortNo(1)),
        &IoConfig::default(),
        Registry::new(),
    );
    let ser = SerStats::shared();
    let (mut fw, _) = unicast_fixture(&ser);
    let window = Window::open();
    let mut collect = VecEmitter::default();
    for i in 0..TUPLES as i64 {
        collect.emit(vec![Value::Int(i)]);
    }
    for (stream, values) in collect.emitted {
        let tuple = Tuple::on_stream(TaskId(1), stream, values);
        fw.route_each(tuple, false, |dst, _anchor, tuple| {
            io.enqueue_with(dst, tuple.meta.trace, |buf| {
                encode_tuple(tuple, buf, &ser);
            });
        });
    }
    io.flush_all();
    let (before, before_live) = window.close();
    println!("collected first: {before} allocations, {before_live} alive at most");
    assert!(
        before_live >= TUPLES as i64,
        "the collector holds the batch: {before_live}"
    );

    for acking in [false, true] {
        let (made, live, frames) = spout_batch(acking);
        // Both batches' frames left; the measured one's are half of them.
        let m = frames / 2;
        println!("acking {acking}: {made} allocations, {live} alive at most, {m} frames");
        assert!(m > 0 && m < TUPLES as u64 / 50, "{m} frames");
        // One `Vec<Value>` per tuple; two per frame; with acking, the
        // growth of the init-record buffer (taken by each `ACK` message)
        // and of `pending`, and the `ACK` message itself.
        let slack = if acking { 48 } else { 8 };
        assert!(
            made <= (TUPLES as u64 + 2 * m + slack) as i64,
            "acking {acking}: {made} allocations for {TUPLES} tuples in {m} frames"
        );
        // What stays alive is the frames sent, in a sink ring nobody
        // drains here.
        assert!(
            live <= (2 * m + 8) as i64,
            "acking {acking}: {live} alive at once"
        );
    }
}
