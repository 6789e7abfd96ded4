//! Kernel: batched ring transfer vs. concurrent close (`push_batch` /
//! `pop_batch` in `crates/net/src/ring.rs`).
//!
//! Batching amortizes the per-frame bookkeeping, but a per-frame protocol
//! lets the peer's close land *inside* a half-consumed batch. Two
//! historical hazards are pinned here as the `!fixed` flavours:
//!
//! * **Producer side** — `push_batch` checked `closed` before every frame
//!   and, on observing it mid-batch, broke out of the loop and dropped the
//!   unattempted remainder on the floor.
//!
//! * **Consumer side** — `pop_batch` drained part of a batch and then hit
//!   `Disconnected` on the emptied queue; it returned the error, so the
//!   caller treated the poll as dead and discarded the frames already
//!   drained.
//!
//! The shipped (`fixed`) protocol takes the queue lock **once per batch**
//! and `closed` is only written under that lock. A push checks it once: the
//! batch is enqueued whole or handed back whole, never split. A pop drains
//! what is there and reports `Disconnected` only when it found the queue
//! empty *and* closed under the same lock — PR 3's "no lost tuple"
//! invariant extended to batches.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Mutex, Notify};
use std::collections::VecDeque;
use std::sync::Arc;

/// What one `push_batch` reported to its caller.
#[derive(Debug, Default)]
pub struct PushOutcome {
    /// Frames enqueued.
    pub enqueued: usize,
    /// True when the ring was observed closed (shipped: before the batch;
    /// naive: possibly in the middle of it).
    pub disconnected: bool,
}

/// What one blocking `pop_batch` observed.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchPop {
    /// A non-empty drained batch (frame tags).
    Frames(Vec<u32>),
    /// Closed and drained.
    Disconnected,
}

/// The ring reduced to the cells the batch protocols race on: the frame
/// queue and the closed flag.
pub struct BatchRing {
    queue: Mutex<VecDeque<u32>>,
    closed: AtomicBool,
    notify: Notify,
}

impl BatchRing {
    /// An open, empty ring.
    pub fn new() -> Self {
        BatchRing {
            queue: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            notify: Notify::new(),
        }
    }

    /// Producer: enqueue one frame (the spine of the seed-state `push`).
    pub fn push(&self, frame: u32) {
        self.queue.lock().push_back(frame);
        self.notify.notify_all();
    }

    /// Either peer: close the ring. `fixed` flips the flag under the queue
    /// lock, as shipped; `!fixed` is the historical free-standing store.
    pub fn close(&self, fixed: bool) {
        let held = fixed.then(|| self.queue.lock());
        self.closed.store(true, Ordering::Release);
        drop(held);
        self.notify.notify_all();
    }

    /// Producer: enqueue a whole batch. `fixed` selects the shipped
    /// protocol (one lock, one `closed` check, all or nothing); `!fixed`
    /// is the naive per-frame protocol that observes the close mid-batch,
    /// breaks out and silently drops the remainder.
    pub fn push_batch(&self, batch: &mut Vec<u32>, fixed: bool) -> PushOutcome {
        let mut outcome = PushOutcome::default();
        if fixed {
            let mut queue = self.queue.lock();
            if self.closed.load(Ordering::Acquire) {
                outcome.disconnected = true;
                return outcome;
            }
            outcome.enqueued = batch.len();
            queue.extend(batch.drain(..));
            drop(queue);
            self.notify.notify_all();
        } else {
            for frame in std::mem::take(batch) {
                if self.closed.load(Ordering::Acquire) {
                    outcome.disconnected = true;
                    break;
                }
                self.queue.lock().push_back(frame);
                outcome.enqueued += 1;
                self.notify.notify_all();
            }
        }
        outcome
    }

    /// Consumer: blocking batched pop. `fixed` selects the shipped
    /// protocol; `!fixed` the naive one that loses a partial drain.
    pub fn pop_batch_wait(&self, max: usize, fixed: bool) -> BatchPop {
        loop {
            let seen = self.notify.epoch();
            let polled = if fixed {
                self.pop_batch_shipped(max)
            } else {
                self.pop_batch_naive(max)
            };
            if let Some(result) = polled {
                return result;
            }
            self.notify.wait_from(seen);
        }
    }

    /// One lock: drain what is there; `Disconnected` only for a queue
    /// found empty and closed under that same lock.
    fn pop_batch_shipped(&self, max: usize) -> Option<BatchPop> {
        let mut queue = self.queue.lock();
        let n = queue.len().min(max);
        if n > 0 {
            return Some(BatchPop::Frames(queue.drain(..n).collect()));
        }
        self.closed
            .load(Ordering::Acquire)
            .then_some(BatchPop::Disconnected)
    }

    /// Drain, drop the lock, *then* look at `closed`: a close seen after a
    /// partial drain outranks it, the whole poll reports `Disconnected`
    /// and the caller never sees the frames already drained.
    fn pop_batch_naive(&self, max: usize) -> Option<BatchPop> {
        let drained: Vec<u32> = {
            let mut queue = self.queue.lock();
            let n = queue.len().min(max);
            queue.drain(..n).collect()
        };
        if drained.len() == max {
            // A full batch never even looks at `closed`.
            return Some(BatchPop::Frames(drained));
        }
        if self.closed.load(Ordering::Acquire) {
            return Some(BatchPop::Disconnected);
        }
        (!drained.is_empty()).then_some(BatchPop::Frames(drained))
    }
}

impl Default for BatchRing {
    fn default() -> Self {
        BatchRing::new()
    }
}

/// Producer scenario: a 3-frame `push_batch` races a peer closing the
/// ring. Every frame must be accounted for — enqueued or handed back.
pub fn push_batch_close_scenario(fixed: bool) {
    let ring = Arc::new(BatchRing::new());
    let closer_ring = Arc::clone(&ring);
    let closer = thread::spawn(move || {
        closer_ring.close(fixed);
    });
    let mut batch = vec![1, 2, 3];
    let outcome = ring.push_batch(&mut batch, fixed);
    closer.join();
    assert_eq!(
        outcome.enqueued + batch.len(),
        3,
        "batch accounting: a frame was neither enqueued nor returned to the caller"
    );
    if !outcome.disconnected {
        assert_eq!(
            outcome.enqueued, 3,
            "no close observed, all frames enqueued"
        );
    } else if fixed {
        // One `closed` check per batch: a close can no longer be observed
        // mid-batch, so a refused batch comes back whole and in order.
        assert_eq!(
            (outcome.enqueued, batch.as_slice()),
            (0, &[1, 2, 3][..]),
            "batch accounting: a refused batch was split"
        );
    }
}

/// Consumer scenario: the producer pushes three frames and closes; the
/// consumer drains with `pop_batch(max = 2)` until `Disconnected`. All
/// three frames must arrive — none lost from a half-consumed batch.
pub fn pop_batch_close_scenario(fixed: bool) {
    let ring = Arc::new(BatchRing::new());
    let producer_ring = Arc::clone(&ring);
    let producer = thread::spawn(move || {
        producer_ring.push(1);
        producer_ring.push(2);
        producer_ring.push(3);
        producer_ring.close(fixed);
    });
    let mut got = 0usize;
    while let BatchPop::Frames(frames) = ring.pop_batch_wait(2, fixed) {
        got += frames.len();
    }
    producer.join();
    assert_eq!(
        got, 3,
        "half-consumed batch: Disconnected discarded frames already drained"
    );
}
