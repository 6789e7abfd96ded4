//! DPDK-style bounded ring ports.
//!
//! Workers attach to their host's software switch through shared-memory
//! ring buffers in the prototype (Fig. 7: "DPDK Ring Port"); here a ring is
//! a bounded lock-free queue with explicit overflow accounting. When the
//! consumer side (the switch, or a slow worker) falls behind, pushes fail
//! and the drop counter grows — the "temporary TX/RX queue overflow" of §8
//! becomes an observable, testable number instead of silent loss.

use crate::doorbell::Doorbell;
use crate::frame::Frame;
use crate::{NetError, Result};
use crossbeam::queue::ArrayQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared by both ends of a ring.
#[derive(Debug, Default)]
pub struct RingStats {
    /// Frames successfully enqueued.
    pub enqueued: AtomicU64,
    /// Frames successfully dequeued.
    pub dequeued: AtomicU64,
    /// Frames dropped because the ring was full.
    pub dropped: AtomicU64,
}

impl RingStats {
    /// (enqueued, dequeued, dropped) snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.dequeued.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

struct Shared {
    queue: ArrayQueue<Frame>,
    stats: RingStats,
    closed: AtomicBool,
    /// Rung after every hand-over (once per batch) and on close, so the
    /// consumer can park instead of polling.
    bell: Doorbell,
}

impl Shared {
    /// Closes the ring; the first close rings, so a parked consumer sees
    /// [`NetError::Disconnected`] now rather than at its next deadline.
    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            self.bell.ring();
        }
    }
}

/// Producer half of a ring.
pub struct RingProducer {
    shared: Arc<Shared>,
}

/// Consumer half of a ring.
pub struct RingConsumer {
    shared: Arc<Shared>,
}

/// Creates a bounded ring of `capacity` frames with a bell of its own
/// ([`RingConsumer::bell`]).
pub fn ring(capacity: usize) -> (RingProducer, RingConsumer) {
    ring_with_bell(capacity, Doorbell::new())
}

/// Creates a bounded ring whose producer rings `bell` — how several rings
/// wake one consumer thread (every worker → switch ring shares the
/// switch's bell).
pub fn ring_with_bell(capacity: usize, bell: Doorbell) -> (RingProducer, RingConsumer) {
    let shared = Arc::new(Shared {
        queue: ArrayQueue::new(capacity),
        stats: RingStats::default(),
        closed: AtomicBool::new(false),
        bell,
    });
    (
        RingProducer {
            shared: shared.clone(),
        },
        RingConsumer { shared },
    )
}

/// Outcome of a [`RingProducer::push_batch`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchPush {
    /// Frames successfully enqueued.
    pub enqueued: usize,
    /// Wire bytes of the enqueued frames (the port TX byte counter).
    pub enqueued_bytes: u64,
    /// Frames dropped on overflow (counted in ring stats), like `push`.
    pub dropped: usize,
    /// True when the ring was observed closed mid-batch; the frames not
    /// yet attempted remain in the caller's vector.
    pub disconnected: bool,
}

impl RingProducer {
    /// Enqueues a frame. On overflow the frame is dropped (and counted),
    /// mirroring a full hardware TX queue.
    pub fn push(&self, frame: Frame) -> Result<()> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(NetError::Disconnected);
        }
        match self.shared.queue.push(frame) {
            Ok(()) => {
                self.shared.stats.enqueued.fetch_add(1, Ordering::Relaxed);
                self.shared.bell.ring();
                Ok(())
            }
            Err(_) => {
                self.shared.stats.dropped.fetch_add(1, Ordering::Relaxed);
                Err(NetError::RingFull)
            }
        }
    }

    /// Enqueues `batch` in order, pairing [`RingConsumer::pop_batch`]. The
    /// `closed` flag is checked before every frame (exactly like `push`),
    /// but its cost and the per-call bookkeeping are amortized over the
    /// batch. Overflowed frames are dropped and counted like `push`; when
    /// the ring is observed closed mid-batch, the remaining frames are
    /// **left in `batch`** so the caller knows precisely which frames were
    /// never attempted — no frame is silently dropped from a half-consumed
    /// batch. The consumer's bell is rung once, after the last frame.
    pub fn push_batch(&self, batch: &mut Vec<Frame>) -> BatchPush {
        let mut result = BatchPush::default();
        let mut iter = std::mem::take(batch).into_iter();
        loop {
            if self.shared.closed.load(Ordering::Acquire) {
                result.disconnected = true;
                *batch = iter.collect();
                break;
            }
            let frame = match iter.next() {
                Some(f) => f,
                None => break,
            };
            let len = frame.wire_len() as u64;
            match self.shared.queue.push(frame) {
                Ok(()) => {
                    result.enqueued += 1;
                    result.enqueued_bytes += len;
                }
                Err(_) => result.dropped += 1,
            }
        }
        if result.enqueued > 0 {
            self.shared
                .stats
                .enqueued
                .fetch_add(result.enqueued as u64, Ordering::Relaxed);
            self.shared.bell.ring();
        }
        if result.dropped > 0 {
            self.shared
                .stats
                .dropped
                .fetch_add(result.dropped as u64, Ordering::Relaxed);
        }
        result
    }

    /// Shared statistics.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.shared.stats.snapshot()
    }

    /// Marks the ring closed; the consumer drains what remains then sees
    /// [`NetError::Disconnected`].
    pub fn close(&self) {
        self.shared.close();
    }

    /// True once either side closed the ring.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

impl Drop for RingProducer {
    fn drop(&mut self) {
        self.close();
    }
}

impl RingConsumer {
    /// Dequeues one frame if available. `Ok(None)` means "empty right now";
    /// [`NetError::Disconnected`] means closed *and* drained.
    pub fn pop(&self) -> Result<Option<Frame>> {
        match self.shared.queue.pop() {
            Some(f) => {
                self.shared.stats.dequeued.fetch_add(1, Ordering::Relaxed);
                Ok(Some(f))
            }
            None => {
                if self.shared.closed.load(Ordering::Acquire) {
                    // The producer may have pushed and then closed between
                    // our empty pop above and the `closed` load; a frame
                    // enqueued before the close must still be delivered, so
                    // re-check the queue after observing `closed`.
                    match self.shared.queue.pop() {
                        Some(f) => {
                            self.shared.stats.dequeued.fetch_add(1, Ordering::Relaxed);
                            Ok(Some(f))
                        }
                        None => Err(NetError::Disconnected),
                    }
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Dequeues up to `max` frames into `out` (batch-amortized polling, as
    /// the southbound library "polls for incoming packets in shared memory
    /// RX ring buffers"). Returns the number appended.
    ///
    /// When the ring disconnects mid-drain, frames already appended are
    /// **kept** and `Ok(n)` is returned — `Disconnected` only surfaces on a
    /// call that drained nothing. (An earlier version propagated the error
    /// after a partial drain, and callers holding the output vector in a
    /// local dropped the final batch of a closing worker on the floor.)
    pub fn pop_batch(&self, out: &mut Vec<Frame>, max: usize) -> Result<usize> {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Ok(Some(f)) => {
                    out.push(f);
                    n += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    if n == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(n)
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.len()
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.shared.queue.is_empty()
    }

    /// Shared statistics.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.shared.stats.snapshot()
    }

    /// Marks the ring closed from the consumer side; subsequent pushes fail.
    pub fn close(&self) {
        self.shared.close();
    }

    /// True once either side closed the ring (frames may still be queued).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The bell this ring's producer rings: what the consuming thread
    /// waits on when it has nothing to do.
    pub fn bell(&self) -> &Doorbell {
        &self.shared.bell
    }
}

impl Drop for RingConsumer {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for RingProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (e, d, x) = self.stats();
        write!(f, "RingProducer(enq={e}, deq={d}, drop={x})")
    }
}

impl std::fmt::Debug for RingConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (e, d, x) = self.stats();
        write!(f, "RingConsumer(enq={e}, deq={d}, drop={x})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MacAddr;
    use bytes::Bytes;
    use typhoon_tuple::tuple::TaskId;

    fn frame(n: u8) -> Frame {
        Frame::typhoon(
            MacAddr::worker(0, TaskId(0)),
            MacAddr::worker(0, TaskId(1)),
            Bytes::from(vec![n]),
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = ring(8);
        for i in 0..5 {
            tx.push(frame(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.pop().unwrap().unwrap().payload[0], i);
        }
        assert!(rx.pop().unwrap().is_none());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let (tx, rx) = ring(2);
        tx.push(frame(0)).unwrap();
        tx.push(frame(1)).unwrap();
        assert_eq!(tx.push(frame(2)).unwrap_err(), NetError::RingFull);
        let (enq, _, dropped) = rx.stats();
        assert_eq!((enq, dropped), (2, 1));
    }

    #[test]
    fn pop_batch_respects_max() {
        let (tx, rx) = ring(16);
        for i in 0..10 {
            tx.push(frame(i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4).unwrap(), 4);
        assert_eq!(rx.pop_batch(&mut out, 100).unwrap(), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn push_batch_enqueues_in_order() {
        let (tx, rx) = ring(16);
        let mut batch: Vec<Frame> = (0..5).map(frame).collect();
        let res = tx.push_batch(&mut batch);
        assert_eq!(
            res,
            BatchPush {
                enqueued: 5,
                enqueued_bytes: 5 * frame(0).wire_len() as u64,
                dropped: 0,
                disconnected: false
            }
        );
        assert!(batch.is_empty());
        for i in 0..5 {
            assert_eq!(rx.pop().unwrap().unwrap().payload[0], i);
        }
    }

    #[test]
    fn push_batch_overflow_drops_and_counts_like_push() {
        let (tx, rx) = ring(3);
        let mut batch: Vec<Frame> = (0..5).map(frame).collect();
        let res = tx.push_batch(&mut batch);
        assert_eq!(res.enqueued, 3);
        assert_eq!(res.dropped, 2);
        assert!(!res.disconnected);
        let (enq, _, dropped) = rx.stats();
        assert_eq!((enq, dropped), (3, 2));
    }

    #[test]
    fn push_batch_on_closed_ring_leaves_frames_with_caller() {
        let (tx, rx) = ring(8);
        drop(rx);
        let mut batch: Vec<Frame> = (0..4).map(frame).collect();
        let res = tx.push_batch(&mut batch);
        assert!(res.disconnected);
        assert_eq!(res.enqueued, 0);
        assert_eq!(batch.len(), 4, "nothing silently dropped");
        assert_eq!(batch[0].payload[0], 0, "order preserved");
    }

    /// The PR-3 drain contract extended to batches: frames pushed via
    /// `push_batch` before a close are all delivered via `pop_batch`, and
    /// the consumer sees `Disconnected` only once the queue is empty.
    #[test]
    fn pop_batch_keeps_partial_drain_on_disconnect() {
        let (tx, rx) = ring(8);
        let mut batch: Vec<Frame> = (0..5).map(frame).collect();
        assert_eq!(tx.push_batch(&mut batch).enqueued, 5);
        tx.close();
        let mut out = Vec::new();
        // One call drains the 5 buffered frames and hits the close; the
        // drained frames must be kept, not traded for the error.
        assert_eq!(rx.pop_batch(&mut out, 100).unwrap(), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(
            rx.pop_batch(&mut out, 100).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn close_drains_then_disconnects() {
        let (tx, rx) = ring(4);
        tx.push(frame(1)).unwrap();
        tx.close();
        assert!(tx.push(frame(2)).is_err());
        assert!(rx.pop().unwrap().is_some(), "drain survives close");
        assert_eq!(rx.pop().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn dropping_consumer_closes_ring() {
        let (tx, rx) = ring(4);
        drop(rx);
        assert_eq!(tx.push(frame(0)).unwrap_err(), NetError::Disconnected);
    }

    /// Regression: a push racing a close must never lose the frame. The
    /// producer pushes one frame and immediately closes while the consumer
    /// spins on `pop`; before the close/drain re-check in `pop`, the
    /// consumer could observe `Disconnected` with the frame still queued.
    /// Many short rounds make the tiny race window trip reliably.
    #[test]
    fn close_pop_race_never_loses_the_last_frame() {
        for round in 0..2000 {
            let (tx, rx) = ring(4);
            let producer = std::thread::spawn(move || {
                tx.push(frame(7)).unwrap();
                // tx drops here, closing the ring right after the push.
            });
            let mut got = 0;
            loop {
                match rx.pop() {
                    Ok(Some(_)) => got += 1,
                    Ok(None) => std::hint::spin_loop(),
                    Err(NetError::Disconnected) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            producer.join().unwrap();
            assert_eq!(got, 1, "round {round}: frame lost to the close race");
        }
    }

    /// Who rings: every hand-over and the first close, once each — a batch
    /// is one ring, and a batch that enqueued nothing is none.
    #[test]
    fn push_batch_and_close_ring_exactly_once() {
        let bell = Doorbell::new();
        let (tx, rx) = ring_with_bell(2, bell.clone());
        tx.push(frame(0)).unwrap();
        assert_eq!(bell.rings(), 1, "push");
        let mut batch: Vec<Frame> = (1..4).map(frame).collect();
        assert_eq!(tx.push_batch(&mut batch).enqueued, 1);
        assert_eq!(bell.rings(), 2, "a non-empty push_batch rings once");
        assert!(tx.push(frame(4)).is_err());
        let mut batch: Vec<Frame> = (5..8).map(frame).collect();
        assert_eq!(tx.push_batch(&mut batch).dropped, 3);
        tx.push_batch(&mut Vec::new());
        assert_eq!(bell.rings(), 2, "nothing enqueued, nobody rung");
        tx.close();
        assert_eq!(bell.rings(), 3, "close");
        tx.close();
        drop(tx);
        drop(rx);
        assert_eq!(bell.rings(), 3, "only the first close rings");

        // The consumer half's close (a dying worker's rx) rings too, and
        // `ring()` gives the ring a private bell.
        let (tx, rx) = ring(2);
        let bell = rx.bell().clone();
        drop(rx);
        assert_eq!(bell.rings(), 1);
        assert!(tx.is_closed());
    }

    /// The consumer side of the protocol: a parked consumer is woken by a
    /// push, and by the producer going away.
    #[test]
    fn parked_consumer_wakes_on_push_and_on_close() {
        let (tx, rx) = ring(4);
        let far = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let rung = rx.bell().wait(far, || {
            tx.push(frame(1)).unwrap(); // lands after arming
            rx.is_empty() // the re-check sees it: no park at all
        });
        assert!(rung);
        assert_eq!(rx.len(), 1);
        let rung = rx.bell().wait(far, || {
            drop(tx);
            true
        });
        assert!(rung, "close rings");
        assert!(rx.is_closed());
    }

    #[test]
    fn cross_thread_transfer() {
        let (tx, rx) = ring(1024);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                loop {
                    match tx.push(frame((i % 251) as u8)) {
                        Ok(()) => break,
                        Err(NetError::RingFull) => std::thread::yield_now(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        });
        let mut received = 0u32;
        while received < 10_000 {
            match rx.pop() {
                Ok(Some(_)) => received += 1,
                Ok(None) => std::thread::yield_now(),
                Err(_) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(received, 10_000);
    }
}
