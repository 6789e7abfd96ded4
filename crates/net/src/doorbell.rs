//! Doorbells: event-driven wake-ups for the poll loops.
//!
//! The paper dedicates a core to polling the DPDK ring ports (§3.3.1,
//! Fig. 7). On shared CPUs a loop that finds nothing to do must give the
//! CPU back, and a timed sleep makes every hop wait out half a sleep
//! period. A [`Doorbell`] is the virtio/vhost "kick with notification
//! suppression" pattern instead: one waiter, any number of ringers.
//!
//! * The consumer, having found nothing to do, **arms** the bell,
//!   **re-checks** every source it drains, and **parks** until it is rung
//!   or its own next deadline, if it has one. [`Doorbell::wait`] takes the
//!   re-check as a closure, so arm → re-check → park is the only order a
//!   caller can write.
//! * A producer rings **after** it has handed work over. While the
//!   consumer is awake that costs one fence and one relaxed load; when it
//!   is parked, one `unpark`.
//!
//! Nothing else ends a park: a source that can give the consumer work
//! without ringing, or a consumer that forgets a deadline, is a hang, not
//! a delay.
//!
//! Why no wake-up is lost: the consumer stores `armed` and then loads its
//! sources; the producer stores into a source and then loads `armed`. A
//! `SeqCst` fence sits between the store and the load on both sides, so at
//! least one side sees the other's store — either the re-check finds the
//! work, or the ringer finds the bell armed and unparks. A ring that lands
//! between the re-check and the park leaves `std::thread`'s park token set,
//! and the park returns at once. This file is what `typhoon-check` explores:
//! `armed`, the fences and the park token come from `crate::sync`, and
//! `tests/model.rs` runs the scenarios (see `docs/CONCURRENCY.md`).

use crate::sync::atomic::{fence, AtomicBool, Ordering};
use crate::sync::thread::{self, Thread};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    /// Set while the waiter is (about to be) parked; a ringer that finds it
    /// set clears it and owes the waiter one `unpark`.
    armed: AtomicBool,
    /// The one thread that waits on this bell. Written once, lock-free to
    /// read: ringers run under datapath locks and inside `Drop`.
    waiter: OnceLock<Thread>,
    #[cfg(test)]
    rings: std::sync::atomic::AtomicU64,
}

/// One waiter, any number of ringers. Cheap to clone; clones ring (and
/// wait on) the same bell.
#[derive(Clone, Debug, Default)]
pub struct Doorbell {
    inner: Arc<Inner>,
}

impl Doorbell {
    /// A bell nobody waits on yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes the waiter if it is parked (or about to park). Call **after**
    /// the work is visible to the waiter's re-check.
    pub fn ring(&self) {
        #[cfg(test)]
        self.inner.rings.fetch_add(1, Ordering::Relaxed);
        // Pairs with the fence in `wait`: our hand-over is ordered before
        // this load, the waiter's arming before its re-check.
        fence(Ordering::SeqCst);
        if self.inner.armed.load(Ordering::Relaxed)
            && self.inner.armed.swap(false, Ordering::SeqCst)
        {
            if let Some(waiter) = self.inner.waiter.get() {
                waiter.unpark();
            }
        }
    }

    /// Parks the calling thread until the bell is rung or `deadline`
    /// passes (`None`: until rung) — but only if `still_idle()`, the
    /// caller's re-check of *all* its sources run after arming, returns
    /// `true`. Returns whether a ringer woke us; `false` is a deadline, a
    /// failed re-check, or (rarely) a spurious return of the park.
    ///
    /// Every bell has exactly one waiting thread for its lifetime.
    pub fn wait(&self, deadline: Option<Instant>, still_idle: impl FnOnce() -> bool) -> bool {
        let waiter = self.inner.waiter.get_or_init(thread::current);
        debug_assert_eq!(
            waiter.id(),
            thread::current().id(),
            "a doorbell has one waiting thread for its lifetime"
        );
        self.inner.armed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if still_idle() {
            let timeout = deadline.map(|t| t.saturating_duration_since(Instant::now()));
            if timeout != Some(Duration::ZERO) {
                // LINT: allow-sleep(the doorbell's park: the one blocking wait of the poll loops, ended by `ring` or the caller's deadline)
                timeout.map_or_else(thread::park, thread::park_timeout);
            }
        }
        // Disarm on every exit; finding the bell already disarmed means a
        // ringer took it (and its unpark is what woke us, or is pending as
        // a token that makes the next park return at once — harmless).
        !self.inner.armed.swap(false, Ordering::SeqCst)
    }

    /// `ring` calls so far (unit tests assert "once per batch").
    #[cfg(test)]
    pub(crate) fn rings(&self) -> u64 {
        self.inner.rings.load(Ordering::Relaxed)
    }
}

/// A place for a consumer to leave its bell after the fact: a tunnel
/// endpoint or a control channel exists before whoever will poll it does.
/// Set once by the poller, rung by whoever delivers; ringing an empty slot
/// rings nobody, so `set` rings the bell it registers.
#[derive(Debug, Default)]
pub struct BellSlot(OnceLock<Doorbell>);

impl BellSlot {
    /// Registers the poller's bell and rings it, for whatever was delivered
    /// while the slot was empty. The poller's re-check must already see the
    /// source: register it there first, then set its slot. A second
    /// registration is ignored.
    pub fn set(&self, bell: Doorbell) {
        if self.0.set(bell).is_ok() {
            self.ring();
        }
    }

    /// Rings the registered bell, if any.
    pub fn ring(&self) {
        if let Some(bell) = self.0.get() {
            bell.ring();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Option<Instant> {
        Some(Instant::now() + Duration::from_secs(10))
    }

    #[test]
    fn ring_before_wait_returns_at_once() {
        // The ring lands after arming (inside the re-check): its unpark
        // token is pending when the park starts, so a park with no deadline
        // returns (`tests/model.rs` checks it on every schedule).
        let bell = Doorbell::new();
        let rung = bell.wait(None, || {
            bell.ring();
            true
        });
        assert!(rung);
        assert!(!bell.inner.armed.load(Ordering::Relaxed), "taken");
    }

    #[test]
    fn ring_while_parked_wakes_well_before_the_deadline() {
        const TRIES: usize = 21;
        let bell = Doorbell::new();
        let ringer = bell.clone();
        let (parking_tx, parking_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            // One ring per try, each after the waiter armed and re-checked.
            while parking_rx.recv().is_ok() {
                ringer.ring();
            }
        });
        // By count, not by stopwatch: `wait` says whether the ring ended
        // it. With no deadline only a ring can, bar a spurious return of
        // the park, which ends one try early and unrung; a majority.
        let by_ring = (0..TRIES)
            .filter(|_| {
                bell.wait(None, || {
                    parking_tx.send(()).unwrap();
                    true
                })
            })
            .count();
        drop(parking_tx);
        thread.join().unwrap();
        assert!(by_ring > TRIES / 2, "{by_ring} of {TRIES} waits woken");
    }

    #[test]
    fn no_ring_returns_at_the_deadline() {
        let bell = Doorbell::new();
        // A near deadline is honoured …
        let t = Instant::now();
        let rung = bell.wait(Some(t + Duration::from_micros(200)), || true);
        assert!(!rung);
        assert!(t.elapsed() >= Duration::from_micros(200));
        // … and one already past returns at once (taken for "no deadline",
        // it would hang here).
        for _ in 0..100 {
            assert!(!bell.wait(Some(Instant::now()), || true));
        }
    }

    #[test]
    fn a_failed_recheck_never_parks() {
        // "Never parks" itself is a `tests/model.rs` scenario (a park there
        // is a deadlock); here: nobody rang, and the bell is left disarmed.
        let bell = Doorbell::new();
        for _ in 0..100 {
            assert!(!bell.wait(far(), || false));
        }
        // And the bell is disarmed again: a ring is the cheap path.
        bell.ring();
        assert!(!bell.inner.armed.load(Ordering::Relaxed));
    }

    #[test]
    fn only_the_first_ringer_of_an_armed_bell_unparks() {
        let bell = Doorbell::new();
        let rung = bell.wait(far(), || {
            bell.ring();
            assert!(!bell.inner.armed.load(Ordering::Relaxed), "taken");
            bell.ring(); // suppressed: fence + load only
            true
        });
        assert!(rung);
        assert_eq!(bell.rings(), 2);
    }
}
