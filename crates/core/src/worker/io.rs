//! The Typhoon I/O layer (§3.3.1, Fig. 7).
//!
//! Interposes between the framework layer and the host's software SDN
//! switch: tuples are batched per destination (the northbound library's
//! "configurable batching") and encoded straight into that destination's
//! frame under construction — records multiplexed into MTU-bounded custom
//! Ethernet frames, only a tuple larger than a frame segmented (the
//! southbound library) — then pushed into the worker's switch port, which
//! forwards them on the worker's own thread.
//! Ingress reverses the path, in place: [`IoLayer::poll`] takes a round's
//! frames into the worker's [`Ingress`], whose walk hands each record to the
//! worker as a slice of its frame. The batch size is runtime-tunable — the
//! `BATCH_SIZE` control tuple's hook — trading latency for throughput
//! (Figs. 8(c)/(d)).

use bytes::Bytes;
use std::time::{Duration, Instant};
use typhoon_metrics::{Counter, Histogram, Registry};
use typhoon_net::{Depacketizer, Doorbell, Frame, MacAddr, NetError, Packetizer};
use typhoon_switch::WorkerPort;
use typhoon_trace::{Hop, TraceCtx};

/// I/O layer tunables.
#[derive(Debug, Clone)]
pub struct IoConfig {
    /// Frame MTU (jumbo by default, matching DPDK OVS).
    pub mtu: usize,
    /// Tuples buffered per destination before a flush.
    pub batch_size: usize,
    /// How long a batch may wait for company **while the worker stays
    /// busy**: the oldest-tuple age forcing a flush regardless of fill. A
    /// worker whose input runs dry flushes at once and never waits this out.
    pub batch_delay: Duration,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            mtu: 9000,
            batch_size: 100,
            batch_delay: Duration::from_millis(2),
        }
    }
}

/// Why a batch left (`io.flush.*`, one count per batch flush). A forced
/// flush (`flush_all`, a `BATCH_SIZE` retune) counts as `Idle`: it too left
/// before the timer because waiting bought nothing.
#[derive(Clone, Copy)]
enum Flush {
    Fill,
    Delay,
    Idle,
}

/// One destination's batch: the frames it has encoded so far.
#[derive(Default)]
struct DstBatch {
    /// Payload of the frame under construction ([`Packetizer::push_record`]).
    open: Vec<u8>,
    /// Frames the batch filled before it left; they precede `open`. Kept
    /// across flushes for its capacity.
    full: Vec<Frame>,
    /// Tuples in the batch (`io.batch_occupancy` at flush).
    tuples: usize,
    /// Age stamp: the `now` of the first [`IoLayer::flush_due`] that saw it
    /// open, never later than its first tuple; `None` until then.
    opened: Option<Instant>,
    /// First nonzero trace id among batched tuples; stamped on the frames
    /// carrying this batch so the switch can record its span.
    trace: u64,
}

/// The worker's I/O layer: one per worker, owning its switch port.
pub struct IoLayer {
    /// The source MAC stamped on egress frames.
    pub(crate) src_mac: MacAddr,
    port: WorkerPort,
    packetizer: Packetizer,
    /// The receive side [`IoLayer::poll_ingress`] walks, made on its first
    /// call: a worker walks its own.
    collector: Option<Ingress>,
    /// Open batches by destination: a worker has a handful, so a scan
    /// beats hashing the address for every tuple.
    batches: Vec<(MacAddr, DstBatch)>,
    batch_size: usize,
    batch_delay: Duration,
    registry: Registry,
    /// `io.frames_tx` / `io.frames_rx` / `io.batch_occupancy` /
    /// `io.flush.{fill,delay,idle}` (indexed by [`Flush`]), resolved once:
    /// every flush or productive poll updates them.
    frames_tx: Counter,
    frames_rx: Counter,
    batch_occupancy: Histogram,
    flushes: [Counter; 3],
    trace: TraceCtx,
    egress_dead: bool,
}

impl IoLayer {
    /// Wraps a switch port for the worker addressed `src_mac`.
    pub fn new(src_mac: MacAddr, port: WorkerPort, config: &IoConfig, registry: Registry) -> Self {
        IoLayer {
            src_mac,
            port,
            packetizer: Packetizer::new(config.mtu),
            collector: None,
            batches: Vec::new(),
            batch_size: config.batch_size.max(1),
            batch_delay: config.batch_delay,
            frames_tx: registry.counter("io.frames_tx"),
            frames_rx: registry.counter("io.frames_rx"),
            batch_occupancy: registry.histogram("io.batch_occupancy"),
            flushes: ["io.flush.fill", "io.flush.delay", "io.flush.idle"]
                .map(|name| registry.counter(name)),
            registry,
            trace: TraceCtx::disabled(),
            egress_dead: false,
        }
    }

    /// True once an egress push found this worker's port detached (or
    /// given to another worker) or its switch gone. Every later send would
    /// be silently lost, so the worker loop uses this to exit instead of
    /// spinning on a dead port.
    pub fn egress_dead(&self) -> bool {
        self.egress_dead
    }

    /// Installs this worker's tracing context (records `QueueOut` and
    /// `NetHop` spans).
    pub fn set_trace(&mut self, trace: TraceCtx) {
        self.trace = trace;
    }

    /// Currently configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The oldest-tuple age that forces a busy worker's flush.
    pub fn batch_delay(&self) -> Duration {
        self.batch_delay
    }

    /// Frames this layer has handed to the switch so far (`io.frames_tx`).
    pub fn frames_sent(&self) -> u64 {
        self.frames_tx.get()
    }

    /// Retunes the batch size (the `BATCH_SIZE` control tuple). Lowering
    /// the knob flushes every batch already at or above the new threshold
    /// immediately — without this, buffered tuples would sit until the next
    /// push or the delay timer.
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.max(1);
        self.registry
            .gauge("io.batch_size")
            .set(self.batch_size as i64);
        let threshold = self.batch_size;
        self.flush_where(Flush::Idle, |b| b.tuples >= threshold);
    }

    /// Frames waiting in the receive ring (the worker's queue depth, the
    /// metric the auto-scaler and load balancer poll).
    pub fn queue_depth(&self) -> usize {
        self.port.rx.len()
    }

    /// The bell the switch rings after pushing into this worker's receive
    /// ring (and on detach): what the worker loop waits on when idle.
    pub fn bell(&self) -> &Doorbell {
        self.port.rx.bell()
    }

    /// True while the receive ring is empty and still attached — the
    /// ingress half of the worker loop's re-check before it parks. A
    /// detached ring is not idle: the loop must see it and exit.
    pub fn ingress_idle(&self) -> bool {
        self.port.rx.is_empty() && !self.port.rx.is_closed()
    }

    /// Queues one tuple for `dst`, `encode` writing its serialized bytes
    /// straight into the batch's frame; flushes if the batch fills.
    /// `trace` is the tuple's trace id (0 = untraced).
    pub fn enqueue_with(&mut self, dst: MacAddr, trace: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        self.trace.record(trace, Hop::QueueOut);
        let i = match self.batches.iter().position(|(d, _)| *d == dst) {
            Some(i) => i,
            None => {
                self.batches.push((dst, DstBatch::default()));
                self.batches.len() - 1
            }
        };
        let batch = &mut self.batches[i].1;
        if batch.trace == 0 {
            batch.trace = trace;
        }
        self.packetizer
            .push_record(self.src_mac, dst, &mut batch.open, &mut batch.full, encode);
        batch.tuples += 1;
        if batch.tuples >= self.batch_size {
            self.send_batch(i, Flush::Fill);
        }
    }

    /// Queues one already-serialized tuple for `dst`: [`IoLayer::enqueue_with`]
    /// copying `blob` into the frame.
    pub fn enqueue(&mut self, dst: MacAddr, blob: Bytes, trace: u64) {
        self.enqueue_with(dst, trace, |buf| buf.extend_from_slice(&blob));
    }

    /// Flushes batches whose age reached the delay bound by `now`, stamping
    /// the ones it sees for the first time: the end of a round that did work.
    pub fn flush_due(&mut self, now: Instant) {
        let delay = self.batch_delay;
        self.flush_where(Flush::Delay, |b| {
            now.saturating_duration_since(*b.opened.get_or_insert(now)) >= delay
        });
    }

    /// Flushes everything: the end of a round that found no input (waiting
    /// buys no more batching), and graceful shutdown ("once the worker
    /// finishes emitting any ongoing tuples, it is removed", §3.5).
    pub fn flush_all(&mut self) {
        self.flush_where(Flush::Idle, |_| true);
    }

    /// Sends every non-empty batch `due` selects.
    fn flush_where(&mut self, why: Flush, mut due: impl FnMut(&mut DstBatch) -> bool) {
        for i in 0..self.batches.len() {
            let batch = &mut self.batches[i].1;
            if batch.tuples > 0 && due(batch) {
                self.send_batch(i, why);
            }
        }
    }

    /// Sends one message that is already a batch (packed ack records) to
    /// `dst` at once, past the per-destination batcher. It is not a batch
    /// of tuples, so `io.batch_occupancy` does not see it.
    pub fn send_now(&mut self, dst: MacAddr, blob: Bytes) {
        let mut frames = self.packetizer.pack(self.src_mac, dst, &[blob]);
        self.transmit(&mut frames, 0);
    }

    fn send_batch(&mut self, i: usize, why: Flush) {
        let (dst, batch) = &mut self.batches[i];
        // Batch occupancy at flush time, and why it left: all `fill` is
        // throughput mode (the size knob binds), all `idle` is latency mode
        // (the input ran dry first), `delay` is a busy worker trickling to
        // this destination.
        self.batch_occupancy.record(batch.tuples as u64);
        self.flushes[why as usize].inc();
        batch.tuples = 0;
        batch.opened = None;
        Packetizer::close(self.src_mac, *dst, &mut batch.open, &mut batch.full);
        let trace = std::mem::take(&mut batch.trace);
        let mut frames = std::mem::take(&mut batch.full);
        self.transmit(&mut frames, trace);
        frames.clear(); // what a dead port refused
        self.batches[i].1.full = frames;
    }

    /// Forwards `frames` through the switch port, stamped with `trace`. The
    /// switch takes every frame of an attached port; what it cannot
    /// deliver (§8's switch-level loss: a full output ring) it counts at
    /// the output port.
    fn transmit(&mut self, frames: &mut Vec<Frame>, trace: u64) {
        self.trace.record(trace, Hop::NetHop);
        for frame in frames.iter_mut() {
            frame.trace = trace;
        }
        let pushed = self.port.tx.push_batch(frames);
        if pushed.enqueued > 0 {
            self.frames_tx.add(pushed.enqueued as u64);
        }
        if pushed.disconnected {
            // The port is gone for good — flag it so the worker loop can
            // exit instead of feeding a dead port. `frames` still holds
            // the batch push_batch refused.
            self.egress_dead = true;
            self.registry
                .counter("io.tx_disconnected")
                .add(frames.len().max(1) as u64);
        }
    }

    /// Takes up to `max_frames` frames from the switch into `rx`, for its
    /// [`Ingress::walk`]. `Err(Disconnected)` means the switch detached this
    /// port.
    pub fn poll(&mut self, rx: &mut Ingress, max_frames: usize) -> Result<usize, NetError> {
        let n = self.port.rx.pop_batch(&mut rx.frames, max_frames)?;
        if n > 0 {
            self.frames_rx.add(n as u64);
        }
        Ok(n)
    }

    /// [`IoLayer::poll`] and [`Ingress::walk`] collected into `out` as
    /// `(source, blob)` pairs, each blob a copy of its record: for callers
    /// that hold no worker loop.
    pub fn poll_ingress(
        &mut self,
        out: &mut Vec<(MacAddr, Bytes)>,
        max_frames: usize,
    ) -> Result<usize, NetError> {
        let mut rx = self
            .collector
            .take()
            .unwrap_or_else(|| Ingress::new(&self.registry));
        let polled = self.poll(&mut rx, max_frames);
        rx.walk(|src, record| out.push((src, Bytes::from(record.to_vec()))));
        self.collector = Some(rx);
        polled
    }
}

/// The receive side of a worker port: the frames a poll took, kept across
/// polls for the buffer's capacity, and the reassembler of tuples split
/// across frames.
pub struct Ingress {
    frames: Vec<Frame>,
    depacketizer: Depacketizer,
    /// `io.rx_malformed`: frames whose walk a malformed record ended.
    malformed: Counter,
}

impl Ingress {
    /// An empty receive side counting into `registry`.
    pub fn new(registry: &Registry) -> Self {
        Ingress {
            frames: Vec::new(),
            depacketizer: Depacketizer::new(),
            malformed: registry.counter("io.rx_malformed"),
        }
    }

    /// Hands every tuple record of the polled frames to `each` with its
    /// source, in arrival order, as a slice of its frame (or of its
    /// reassembly buffer); a frame is dropped once its records are done. A
    /// malformed record ends its frame after the records before it, and the
    /// frame counts once in `io.rx_malformed`.
    pub fn walk(&mut self, mut each: impl FnMut(MacAddr, &[u8])) {
        for frame in self.frames.drain(..) {
            let walked = self
                .depacketizer
                .push_each(&frame, |record| each(frame.src, record));
            if walked.is_err() {
                self.malformed.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo};
    use typhoon_switch::{Switch, SwitchConfig};
    use typhoon_tuple::tuple::TaskId;

    fn io_on_switch(batch: usize) -> (IoLayer, Switch) {
        let (sw, _ch) = Switch::new(SwitchConfig::new(1));
        let port = sw.attach_worker(PortNo(1));
        let io = IoLayer::new(
            MacAddr::worker(1, TaskId(1)),
            port,
            &IoConfig {
                batch_size: batch,
                ..IoConfig::default()
            },
            Registry::new(),
        );
        (io, sw)
    }

    #[test]
    fn batch_flushes_on_fill() {
        let (mut io, _sw) = io_on_switch(3);
        let dst = MacAddr::worker(1, TaskId(2));
        io.enqueue(dst, Bytes::from_static(b"a"), 0);
        io.enqueue(dst, Bytes::from_static(b"b"), 0);
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 0);
        io.enqueue(dst, Bytes::from_static(b"c"), 0);
        assert_eq!(
            io.registry.snapshot().counter("io.frames_tx"),
            1,
            "3 tuples mux into 1 frame"
        );
        assert_eq!(io.registry.snapshot().counter("io.flush.fill"), 1);
    }

    #[test]
    fn flush_due_honours_deadline() {
        let (mut io, _sw) = io_on_switch(1000);
        let delay = Duration::from_millis(1);
        io.batch_delay = delay;
        let dst = MacAddr::worker(1, TaskId(2));
        io.enqueue(dst, Bytes::from_static(b"x"), 0);
        // The first flush_due stamps the batch's age; it is not due yet.
        let t0 = Instant::now();
        io.flush_due(t0);
        io.flush_due(t0 + delay - Duration::from_nanos(1));
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 0);
        io.flush_due(t0 + delay);
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 1);
        assert_eq!(io.registry.snapshot().counter("io.flush.delay"), 1);
        // A batch opened after the flush carries a fresh stamp.
        io.enqueue(dst, Bytes::from_static(b"y"), 0);
        io.flush_due(t0 + 2 * delay - Duration::from_nanos(1));
        io.flush_due(t0 + 3 * delay - Duration::from_nanos(2));
        assert_eq!(io.registry.snapshot().counter("io.flush.delay"), 1);
        io.flush_due(t0 + 3 * delay);
        assert_eq!(io.registry.snapshot().counter("io.flush.delay"), 2);
    }

    #[test]
    fn set_batch_size_applies_immediately() {
        let (mut io, _sw) = io_on_switch(1000);
        io.set_batch_size(2);
        let dst = MacAddr::worker(1, TaskId(2));
        io.enqueue(dst, Bytes::from_static(b"a"), 0);
        io.enqueue(dst, Bytes::from_static(b"b"), 0);
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 1);
        assert_eq!(io.batch_size(), 2);
    }

    #[test]
    fn per_destination_batches_are_independent() {
        let (mut io, _sw) = io_on_switch(2);
        let d1 = MacAddr::worker(1, TaskId(2));
        let d2 = MacAddr::worker(1, TaskId(3));
        io.enqueue(d1, Bytes::from_static(b"a"), 0);
        io.enqueue(d2, Bytes::from_static(b"b"), 0);
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 0);
        io.enqueue(d1, Bytes::from_static(b"c"), 0);
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 1);
    }

    #[test]
    fn lowering_batch_size_flushes_waiting_batches() {
        let (mut io, _sw) = io_on_switch(1000);
        let dst = MacAddr::worker(1, TaskId(2));
        for i in 0..5u8 {
            io.enqueue(dst, Bytes::from(vec![i]), 0);
        }
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 0);
        // Retuning below the buffered count must flush immediately, not
        // leave the tuples waiting for the delay timer.
        io.set_batch_size(3);
        let snap = io.registry.snapshot();
        assert_eq!(snap.counter("io.frames_tx"), 1);
        let (samples, mean, _, _) = snap.histograms["io.batch_occupancy"];
        assert_eq!(samples, 1, "flush recorded one batch occupancy sample");
        assert_eq!(mean, 5.0, "all five buffered tuples left in one batch");
        assert_eq!(snap.counter("io.flush.idle"), 1, "a forced flush");
    }

    /// An I/O layer on port 1 of a switch that forwards whatever port 2
    /// sends to port 1, and port 2: the test feeds the worker through it.
    fn fed_io(dst: MacAddr) -> (IoLayer, WorkerPort, Switch) {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let port = sw.attach_worker(PortNo(1));
        let feed = sw.attach_worker(PortNo(2));
        let to_port_1 = FlowMod::add(
            1,
            FlowMatch::any().in_port(PortNo(2)),
            vec![Action::Output(PortNo(1))],
        );
        ch.send(wire::encode(&OfMessage::FlowMod(to_port_1)))
            .unwrap();
        sw.process_round();
        let io = IoLayer::new(dst, port, &IoConfig::default(), Registry::new());
        (io, feed, sw)
    }

    #[test]
    fn ingress_counts_frames_in_one_add() {
        let dst = MacAddr::worker(1, TaskId(1));
        let (mut io, feed, _sw) = fed_io(dst);
        let src = MacAddr::worker(1, TaskId(9));
        let packetizer = Packetizer::new(9000);
        for frame in packetizer.pack(
            src,
            dst,
            &[Bytes::from_static(b"hi"), Bytes::from_static(b"ho")],
        ) {
            feed.tx.push(frame).unwrap();
        }
        let mut out = Vec::new();
        let n = io.poll_ingress(&mut out, 64).unwrap();
        assert_eq!(n, 1, "two tuples mux into one frame");
        assert_eq!(io.registry.snapshot().counter("io.frames_rx"), 1);
        assert_eq!(out.len(), 2);
        assert_eq!(&out[0].1[..], b"hi");
        assert_eq!(&out[1].1[..], b"ho");
    }

    #[test]
    fn a_malformed_record_keeps_the_records_before_it() {
        let dst = MacAddr::worker(1, TaskId(1));
        let (mut io, feed, _sw) = fed_io(dst);
        let src = MacAddr::worker(1, TaskId(9));
        let good = [Bytes::from_static(b"hi"), Bytes::from_static(b"ho")];
        let frame = Packetizer::new(9000).pack(src, dst, &good).remove(0);
        let mut payload = frame.payload.to_vec();
        payload.extend_from_slice(&[0, 0, 0, 9, 0, 0]); // a truncated third header
        feed.tx
            .push(Frame::typhoon(src, dst, payload.into()))
            .unwrap();
        feed.tx.push(frame).unwrap();
        let mut out = Vec::new();
        assert_eq!(io.poll_ingress(&mut out, 64).unwrap(), 2);
        let blobs: Vec<&[u8]> = out.iter().map(|(_, b)| &b[..]).collect();
        assert_eq!(blobs, [b"hi", b"ho", b"hi", b"ho"], "nothing good was lost");
        let snap = io.registry.snapshot();
        assert_eq!(
            snap.counter("io.rx_malformed"),
            1,
            "one frame, counted once"
        );
    }

    #[test]
    fn flush_all_drains_everything() {
        let (mut io, _sw) = io_on_switch(1000);
        io.enqueue(MacAddr::worker(1, TaskId(2)), Bytes::from_static(b"a"), 0);
        io.enqueue(MacAddr::worker(1, TaskId(3)), Bytes::from_static(b"b"), 0);
        io.flush_all();
        assert_eq!(io.registry.snapshot().counter("io.frames_tx"), 2);
        assert_eq!(io.registry.snapshot().counter("io.flush.idle"), 2);
    }
}
