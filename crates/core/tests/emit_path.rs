//! The worker's emit path — `FrameworkLayer::route_each` handing each copy
//! to `IoLayer::enqueue_with`, which encodes it into its destination's frame
//! under construction — priced in allocations and pinned against the wire
//! format it must keep.
//!
//! * `routed_emissions_allocate_per_frame_not_per_tuple`: 1 000 unicast
//!   tuples through a real switch port cost the frames' buffers and nothing
//!   per tuple; the same tuples through `route()` + `enqueue()` are printed
//!   beside them as the before.
//! * `batches_frame_like_the_packetizer`: random tuple sizes (0 to 3 × MTU),
//!   destinations, batch sizes and flush points; what the far end of the
//!   ring depacketizes is what was enqueued, per destination and in order,
//!   in frames ≤ MTU, split only where a tuple is larger than a frame.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use typhoon_core::worker::{FrameworkLayer, IoConfig, IoLayer, Route};
use typhoon_metrics::Registry;
use typhoon_model::{AppId, Grouping, RoutingState, TaskId};
use typhoon_net::frame::HEADER_LEN;
use typhoon_net::{ring, Depacketizer, MacAddr};
use typhoon_openflow::PortNo;
use typhoon_switch::{Switch, SwitchConfig, WorkerPort};
use typhoon_tuple::ser::{encode_tuple, SerStats};
use typhoon_tuple::{StreamId, Tuple, Value};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread: tests run on threads of their own, so each reads only its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// const-initialised thread-local `Cell`, which never allocates, so it cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc` is passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above — same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract for `dealloc` is passed on to `System`,
    // which made every block this allocator hands out.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
        let (tx, far) = ring(1 << 14);
        let (_switch_side, rx) = ring(1);
        let port = WorkerPort { port: PortNo(1), tx, rx };
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
        far.pop_batch(&mut frames, usize::MAX).unwrap();
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
