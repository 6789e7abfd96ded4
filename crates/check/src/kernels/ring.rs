//! Kernel: ring close vs. pop (the PR-3 `typhoon-net` race).
//!
//! `crates/net/src/ring.rs` lets a producer push one last frame and then
//! close (producer drop closes implicitly). Historically the consumer's
//! `pop` observed the queue and the `closed` flag in two separate steps: a
//! pop could see the queue empty, lose the CPU to the push-then-close, and
//! then observe `closed == true` — reporting `Disconnected` with the final
//! frame still queued. The shipped ring has one cell, not two: `closed` is
//! written only while the queue lock is held and read under that same lock
//! after finding the queue empty, so "empty and closed" is final.
//!
//! Invariant: **no lost tuple** — every frame pushed before the close is
//! delivered before `Disconnected`.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Mutex, Notify};
use std::collections::VecDeque;
use std::sync::Arc;

/// What a blocking pop observed.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop {
    /// A frame (its payload tag).
    Frame(u32),
    /// Closed and (believed) drained.
    Disconnected,
}

/// The ring's shared state, reduced to what the race runs on: the frame
/// queue and the closed flag.
pub struct RingKernel {
    queue: Mutex<VecDeque<u32>>,
    closed: AtomicBool,
    notify: Notify,
}

impl RingKernel {
    /// An open, empty ring.
    pub fn new() -> Self {
        RingKernel {
            queue: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            notify: Notify::new(),
        }
    }

    /// Producer: enqueue one frame.
    pub fn push(&self, frame: u32) {
        self.queue.lock().push_back(frame);
        self.notify.notify_all();
    }

    /// Producer: close the ring (the `Drop` half of the real producer).
    /// `fixed` flips the flag under the queue lock, as shipped; `!fixed`
    /// is the historical free-standing store.
    pub fn close(&self, fixed: bool) {
        let held = fixed.then(|| self.queue.lock());
        self.closed.store(true, Ordering::Release);
        drop(held);
        self.notify.notify_all();
    }

    /// Consumer: blocking pop. `fixed` selects the shipped protocol
    /// (`closed` read while the empty queue is still locked); `!fixed` is
    /// the seed-state logic that reads it after the guard is gone and
    /// loses the close/pop race.
    pub fn pop_wait(&self, fixed: bool) -> Pop {
        loop {
            let seen = self.notify.epoch();
            let mut queue = self.queue.lock();
            if let Some(frame) = queue.pop_front() {
                return Pop::Frame(frame);
            }
            // Shipped: `closed` is read while the empty queue is still
            // locked. Historical: the guard goes first, and a
            // push-then-close fits in between.
            let held = fixed.then_some(queue);
            let closed = self.closed.load(Ordering::Acquire);
            drop(held);
            if closed {
                return Pop::Disconnected;
            }
            self.notify.wait_from(seen);
        }
    }
}

impl Default for RingKernel {
    fn default() -> Self {
        RingKernel::new()
    }
}

/// The PR-3 scenario: one producer pushes a single frame and immediately
/// closes; the consumer drains until `Disconnected`. The frame must
/// arrive.
pub fn close_pop_scenario(fixed: bool) {
    let ring = Arc::new(RingKernel::new());
    let producer_ring = Arc::clone(&ring);
    let producer = thread::spawn(move || {
        producer_ring.push(7);
        producer_ring.close(fixed);
    });
    let mut got = 0u32;
    while let Pop::Frame(_) = ring.pop_wait(fixed) {
        got += 1;
    }
    producer.join();
    assert_eq!(
        got, 1,
        "close/pop race: Disconnected reported with the final frame still queued"
    );
}
