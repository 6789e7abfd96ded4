//! Kernel: the doorbell's arm → re-check → park protocol
//! (`crates/net/src/doorbell.rs`, waited on by the worker, switch and
//! controller loops).
//!
//! A consumer that found nothing to do parks; a producer rings after
//! handing work over, and rings for real only when it finds the bell
//! *armed*. The hazard is the classic lost wake-up: the **prefix** flavour
//! checks its sources, *then* arms and parks without looking again — a
//! push that lands between the check and the arming finds the bell
//! disarmed, rings nobody, and the consumer sleeps on a non-empty queue
//! forever (in the real code: until `MAX_PARK`). The **shipped** flavour
//! arms first and re-checks every source before parking, which is the only
//! order `Doorbell::wait` lets a caller write.
//!
//! `std::thread`'s park token is modelled with [`Notify`]: the waiter reads
//! the epoch on entry, `unpark` is `notify_all`, and `park` is
//! `wait_from(entry epoch)` — an unpark that lands between the re-check and
//! the park makes the park return at once, exactly like the token. The model
//! has no timeouts, so a lost wake-up is a deadlock the checker reports.
//!
//! The model scheduler explores sequentially consistent interleavings; the
//! `SeqCst` fences of the real `ring`/`wait` are what make the hardware
//! honour that for the (queue, `armed`) pair. Here the queue is a mutex, so
//! critical-section order does the same job under `--no-default-features`.
//!
//! Invariant: **no lost wake-up** — every frame pushed before the close is
//! delivered and the consumer terminates.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Mutex, Notify};
use std::collections::VecDeque;
use std::sync::Arc;

/// A ring and its consumer's bell, reduced to the cells the protocol runs
/// on: the frame queue, the closed flag, the `armed` flag and the park
/// token.
pub struct BellRing {
    queue: Mutex<VecDeque<u32>>,
    closed: AtomicBool,
    armed: AtomicBool,
    park: Notify,
}

impl BellRing {
    /// An open, empty ring with a disarmed bell.
    pub fn new() -> Self {
        BellRing {
            queue: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            armed: AtomicBool::new(false),
            park: Notify::new(),
        }
    }

    /// `Doorbell::ring`: a cheap look while the consumer is awake; the
    /// ringer that takes an armed bell owes the one `unpark`.
    fn ring(&self) {
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            self.park.notify_all();
        }
    }

    /// Producer: hand one frame over, then ring.
    pub fn push(&self, frame: u32) {
        self.queue.lock().push_back(frame);
        self.ring();
    }

    /// Producer: close the ring, then ring (a parked consumer must see
    /// `Disconnected`).
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ring();
    }

    /// The consumer's re-check of all its sources.
    fn idle(&self) -> bool {
        self.queue.lock().is_empty() && !self.closed.load(Ordering::SeqCst)
    }

    /// Consumer: drain until the ring is closed and empty, parking on the
    /// bell whenever a poll found nothing. Returns the frames received.
    /// `fixed` selects the shipped protocol (arm → re-check → park);
    /// `!fixed` parks right after arming, trusting the poll it just did.
    pub fn drain(&self, fixed: bool) -> Vec<u32> {
        let mut got = Vec::new();
        loop {
            let polled = self.queue.lock().pop_front();
            if let Some(frame) = polled {
                got.push(frame);
                continue;
            }
            if self.closed.load(Ordering::SeqCst) {
                // Push-then-close: re-check after observing `closed` (the
                // `ring` kernel's PR-3 fix, not under test here).
                while let Some(frame) = self.queue.lock().pop_front() {
                    got.push(frame);
                }
                return got;
            }
            // Nothing to do: `Doorbell::wait`.
            let token = self.park.epoch();
            self.armed.store(true, Ordering::SeqCst);
            if !fixed || self.idle() {
                self.park.wait_from(token);
            }
            self.armed.store(false, Ordering::SeqCst);
        }
    }
}

impl Default for BellRing {
    fn default() -> Self {
        BellRing::new()
    }
}

/// Two producers push one frame each; whichever finishes last closes the
/// ring. The consumer must receive both frames and terminate — under the
/// prefix protocol a push (or the close) that slips between the consumer's
/// poll and its arming is never announced, and the run deadlocks.
pub fn two_producers_and_close_scenario(fixed: bool) {
    let ring = Arc::new(BellRing::new());
    let pushed = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = [1u32, 2]
        .into_iter()
        .map(|frame| {
            let (ring, pushed) = (Arc::clone(&ring), Arc::clone(&pushed));
            thread::spawn(move || {
                ring.push(frame);
                if pushed.fetch_add(1, Ordering::SeqCst) == 1 {
                    ring.close();
                }
            })
        })
        .collect();
    let mut got = ring.drain(fixed);
    for producer in producers {
        producer.join();
    }
    got.sort_unstable();
    assert_eq!(
        got,
        vec![1, 2],
        "lost wake-up: the consumer closed out without every pushed frame"
    );
}
