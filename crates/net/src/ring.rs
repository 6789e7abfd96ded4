//! DPDK-style bounded ring ports.
//!
//! Workers attach to their host's software switch through shared-memory
//! ring buffers in the prototype (Fig. 7: "DPDK Ring Port"); here a ring
//! carries the switch → worker direction (the worker → switch direction is
//! a call that forwards on the worker's thread) and the control channel. A
//! ring is a bounded `VecDeque` under **one ranked lock** (`net.ring`,
//! [`rank::TUNNEL`]) taken once per `push_batch`/`pop_batch`, with overflow
//! accounting: when the consumer (a slow worker, or a switch behind on
//! control messages) falls behind, pushes fail and the drop counter grows — the "temporary TX/RX
//! queue overflow" of §8 as a testable number instead of silent loss.
//!
//! The ring is generic over what it carries: [`Frame`]s on the worker
//! ports (the default), encoded OpenFlow [`Bytes`] on the switch ↔
//! controller channel — one queue mechanism, one close, one checked
//! protocol for every hand-off whose consumer is a doorbell-driven loop.
//!
//! `closed` is only ever *written* while the queue lock is held, so "empty
//! and closed" seen under that lock is final and a batch is attempted whole
//! or returned whole. It is an `AtomicBool` only so that `is_closed` (every
//! worker loop round) is a lock-free load. The lock is a leaf: never held
//! across `bell.ring()`, another ring or a tunnel write (see
//! `docs/CONCURRENCY.md`).
//!
//! The lock and `closed` come from `crate::sync`, so under the `model`
//! feature this file runs on the model checker's primitives and
//! `tests/model.rs` explores its close/pop and batch/close interleavings as
//! shipped. The [`RingStats`] counters steer nothing and stay plain `std`.

use crate::doorbell::Doorbell;
use crate::frame::Frame;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::DiagMutex;
use crate::{NetError, Result};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use typhoon_diag::rank;

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

/// What a ring can carry: anything with a size on the wire (the port TX
/// byte counter, [`BatchPush::enqueued_bytes`]).
pub trait RingItem {
    /// Bytes this item occupies on the wire.
    fn wire_len(&self) -> usize;
}

impl RingItem for Frame {
    fn wire_len(&self) -> usize {
        Frame::wire_len(self)
    }
}

impl RingItem for Bytes {
    fn wire_len(&self) -> usize {
        self.len()
    }
}

struct Shared<T> {
    queue: DiagMutex<VecDeque<T>>,
    capacity: usize,
    stats: RingStats,
    /// Written only under `queue`'s lock; loaded without it by `is_closed`.
    closed: AtomicBool,
    /// Rung after every hand-over (once per batch) and on close, so the
    /// consumer can park instead of polling.
    bell: Doorbell,
}

impl<T: RingItem> Shared<T> {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the ring; the first close rings, so a parked consumer sees
    /// [`NetError::Disconnected`] now rather than at its next deadline.
    fn close(&self) {
        let first = {
            let _queue = self.queue.lock();
            !self.closed.swap(true, Ordering::AcqRel)
        };
        if first {
            self.bell.ring();
        }
    }

    /// The producer protocol, shared by `push` and `push_batch`: one lock
    /// acquisition, `closed` checked once under it, the bell rung once
    /// after the guard drops. `frames` is only called on an open ring, so a
    /// closed one leaves every frame with the caller.
    fn enqueue<I: Iterator<Item = T>>(&self, frames: impl FnOnce() -> I) -> BatchPush {
        let result = {
            let mut queue = self.queue.lock();
            if self.is_closed() {
                return BatchPush {
                    disconnected: true,
                    ..BatchPush::default()
                };
            }
            let len = queue.len();
            let mut frames = frames();
            let mut enqueued_bytes = 0;
            queue.extend(
                frames
                    .by_ref()
                    .take(self.capacity - len)
                    .inspect(|frame| enqueued_bytes += frame.wire_len() as u64),
            );
            BatchPush {
                enqueued: queue.len() - len,
                enqueued_bytes,
                // Whatever did not fit is dropped here, and counted.
                dropped: frames.count(),
                disconnected: false,
            }
        };
        if result.enqueued > 0 {
            self.stats
                .enqueued
                .fetch_add(result.enqueued as u64, Ordering::Relaxed);
            self.bell.ring();
        }
        if result.dropped > 0 {
            self.stats
                .dropped
                .fetch_add(result.dropped as u64, Ordering::Relaxed);
        }
        result
    }
}

/// Producer half of a ring.
pub struct RingProducer<T: RingItem = Frame> {
    shared: Arc<Shared<T>>,
}

/// Consumer half of a ring.
pub struct RingConsumer<T: RingItem = Frame> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded ring of `capacity` frames with a bell of its own
/// ([`RingConsumer::bell`]).
pub fn ring<T: RingItem>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    ring_with_bell(capacity, Doorbell::new())
}

/// Creates a bounded ring whose producer rings `bell` — how several rings
/// wake one consumer thread (the controller → switch ring rings the
/// switch's bell, which other sources ring too).
pub fn ring_with_bell<T: RingItem>(
    capacity: usize,
    bell: Doorbell,
) -> (RingProducer<T>, RingConsumer<T>) {
    assert!(capacity > 0, "capacity must be non-zero");
    let shared = Arc::new(Shared {
        queue: DiagMutex::with_rank(rank::TUNNEL, "net.ring", VecDeque::with_capacity(capacity)),
        capacity,
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

/// Outcome of a [`RingProducer::push_batch`] call: the whole batch was
/// attempted (`enqueued + dropped` = frames offered, the vector emptied) or
/// the ring was closed (`disconnected`, the vector untouched) — never a mix.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchPush {
    /// Frames successfully enqueued.
    pub enqueued: usize,
    /// Wire bytes of the enqueued frames (the port TX byte counter).
    pub enqueued_bytes: u64,
    /// Frames dropped on overflow (counted in ring stats), like `push`.
    pub dropped: usize,
    /// The ring was closed; every frame is still in the caller's vector.
    pub disconnected: bool,
}

impl<T: RingItem> RingProducer<T> {
    /// Enqueues a frame. On overflow the frame is dropped (and counted),
    /// mirroring a full hardware TX queue.
    pub fn push(&self, frame: T) -> Result<()> {
        let pushed = self.shared.enqueue(|| std::iter::once(frame));
        if pushed.disconnected {
            Err(NetError::Disconnected)
        } else if pushed.dropped > 0 {
            Err(NetError::RingFull)
        } else {
            Ok(())
        }
    }

    /// Enqueues `batch` in order under one lock acquisition, pairing
    /// [`RingConsumer::pop_batch`]. Overflowed frames are dropped and
    /// counted like `push`; on a closed ring the frames are **left in
    /// `batch`**, so the caller knows none was attempted. The consumer's
    /// bell is rung once, after the hand-over.
    pub fn push_batch(&self, batch: &mut Vec<T>) -> BatchPush {
        self.shared.enqueue(|| batch.drain(..))
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
        self.shared.is_closed()
    }
}

impl<T: RingItem> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T: RingItem> RingConsumer<T> {
    /// Dequeues one frame if available. `Ok(None)` means "empty right now";
    /// [`NetError::Disconnected`] means closed *and* drained.
    pub fn pop(&self) -> Result<Option<T>> {
        let mut queue = self.shared.queue.lock();
        let item = queue.pop_front();
        if item.is_none() && self.shared.is_closed() {
            return Err(NetError::Disconnected);
        }
        drop(queue);
        if item.is_some() {
            self.shared.stats.dequeued.fetch_add(1, Ordering::Relaxed);
        }
        Ok(item)
    }

    /// Dequeues up to `max` frames into `out` under one lock acquisition
    /// (batch-amortized polling, as the southbound library "polls for
    /// incoming packets in shared memory RX ring buffers"). Returns the
    /// number appended.
    ///
    /// Frames queued before a close are still delivered: `Disconnected`
    /// only surfaces on a call that found the ring closed **and** empty,
    /// never in place of frames it could have drained.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> Result<usize> {
        let mut queue = self.shared.queue.lock();
        let n = queue.len().min(max);
        if n == 0 && max > 0 && self.shared.is_closed() {
            return Err(NetError::Disconnected);
        }
        out.extend(queue.drain(..n));
        drop(queue);
        if n > 0 {
            self.shared
                .stats
                .dequeued
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.shared.is_closed()
    }

    /// The bell this ring's producer rings: what the consuming thread
    /// waits on when it has nothing to do.
    pub fn bell(&self) -> &Doorbell {
        &self.shared.bell
    }
}

impl<T: RingItem> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T: RingItem> std::fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (e, d, x) = self.stats();
        write!(f, "RingProducer(enq={e}, deq={d}, drop={x})")
    }
}

impl<T: RingItem> std::fmt::Debug for RingConsumer<T> {
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

    /// The batch twin of the race above: the producer hands over one batch
    /// of `k` frames and drops; the consumer `pop_batch`es until
    /// `Disconnected`. Exactly `k` arrive, in order — the close can land
    /// before, between or after the consumer's polls, never inside one.
    #[test]
    fn close_pop_batch_race_never_loses_part_of_a_batch() {
        for round in 0..2000usize {
            let k = 1 + round % 4;
            let (tx, rx) = ring(4);
            let producer = std::thread::spawn(move || {
                let mut batch: Vec<Frame> = (0..k as u8).map(frame).collect();
                assert_eq!(tx.push_batch(&mut batch).enqueued, k);
                // tx drops here, closing the ring right after the batch.
            });
            let mut got = Vec::new();
            loop {
                match rx.pop_batch(&mut got, 3) {
                    Ok(0) => std::hint::spin_loop(),
                    Ok(_) => {}
                    Err(NetError::Disconnected) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            producer.join().unwrap();
            let tags: Vec<u8> = got.iter().map(|f| f.payload[0]).collect();
            let sent: Vec<u8> = (0..k as u8).collect();
            assert_eq!(tags, sent, "round {round}: batch torn by the close race");
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
        let (tx, rx) = ring::<Frame>(2);
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
        let far = Some(std::time::Instant::now() + std::time::Duration::from_secs(10));
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
