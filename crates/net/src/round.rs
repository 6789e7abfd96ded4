//! One round runner for every long-lived loop.
//!
//! Every long-lived thread of the runtime has the same shape: one round,
//! then one wait until an event or a deadline. The worker, the switch
//! datapath, the SDN controller's pump, the HA monitor, the streaming
//! manager and the chaos killer each implement [`Round`]; [`run`] is the one
//! loop around them.
//!
//! * It reads the clock once per round and hands that `now` to the round,
//!   so a round holds its timers as deadlines and never reads a clock.
//! * A round says what comes next ([`Next`]): run again at once, park until
//!   a deadline, park until rung, or the loop is over.
//! * It parks on the round's [`Doorbell`] in the one order that loses no
//!   wake-up: arm → re-check ([`Round::idle`], and the stop flag) → park.
//! * It owns the stop flag ([`Stop`]): a stop ends the park it interrupts,
//!   and the loop runs the round's graceful end before it returns.
//! * It counts `loop.rounds`, `loop.parks` (rounds that ended parked) and
//!   `loop.rung` (parks a ringer ended) in the registry its owner hands it.
//!
//! [`crate::Runner`] puts a loop on a thread of its own. This file is what
//! `typhoon-check` explores with the doorbell: the stop flag comes from
//! `crate::sync`, and `tests/model.rs` runs the runner's scenarios.

use crate::doorbell::{BellSlot, Doorbell};
use crate::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use typhoon_metrics::{Counter, Registry};

/// What a round asks for next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run the next round at once: this one found work.
    Again,
    /// Park until rung or until this instant.
    At(Instant),
    /// Park until rung.
    Woken,
    /// The loop is over (its source went away, or it did its one job).
    Done,
}

impl Next {
    /// Park until rung or until `deadline`, if there is one.
    pub fn until(deadline: Option<Instant>) -> Next {
        deadline.map_or(Next::Woken, Next::At)
    }
}

/// The body of one long-lived loop.
pub trait Round {
    /// The bell the loop parks on. Whatever hands the loop work rings it
    /// after the work is visible to [`Round::idle`].
    fn bell(&self) -> &Doorbell;

    /// One round at `now`, the instant the runner read at its head.
    fn round(&mut self, now: Instant) -> Next;

    /// The re-check, run after the bell is armed and before the park:
    /// `true` while nothing the last round waited for has arrived.
    fn idle(&mut self) -> bool;

    /// The graceful end, when the loop is stopped ([`Stop::stop`]); not
    /// run when a round returned [`Next::Done`] or the loop was aborted.
    fn on_stop(&mut self, _now: Instant) {}
}

#[derive(Debug, Default)]
struct Flags {
    stopped: AtomicBool,
    aborted: AtomicBool,
    /// The loop's bell, once the loop runs.
    bell: BellSlot,
}

/// A loop's stop flag: set, then ring the loop's bell. Clones stop the same
/// loop; a stop set before the loop runs is seen by its first round.
#[derive(Clone, Debug, Default)]
pub struct Stop(Arc<Flags>);

impl Stop {
    /// A flag nobody has set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Graceful stop: the loop finishes the round it is in, runs
    /// [`Round::on_stop`] and returns.
    pub fn stop(&self) {
        self.set(&self.0.stopped);
    }

    /// Abrupt stop: the loop returns after the round it is in, without its
    /// graceful end (a crash, for fault injection).
    pub fn abort(&self) {
        self.set(&self.0.aborted);
    }

    fn set(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        self.0.bell.ring();
    }

    fn get(flag: &AtomicBool) -> bool {
        flag.load(Ordering::SeqCst)
    }
}

/// A bell with a flag — an inbox of one bit — for a loop whose sources
/// cannot ring a bell of their own (a coordinator watch, another thread's
/// call). [`Signal::raise`] sets the flag, then rings; the loop takes the
/// flag at the head of a round, before it reads its sources, and its
/// re-check looks at it before it parks, so no raise is lost between the
/// read and the park. Clones raise the same signal.
#[derive(Clone, Debug, Default)]
pub struct Signal(Arc<Raised>);

#[derive(Debug, Default)]
struct Raised {
    flag: AtomicBool,
    bell: Doorbell,
}

impl Signal {
    /// A signal nobody has raised.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the flag, then rings the loop's bell.
    pub fn raise(&self) {
        self.0.flag.store(true, Ordering::SeqCst);
        self.0.bell.ring();
    }

    /// A raiser that holds the signal weakly: it returns `false`, raising
    /// nothing, once every clone is gone (a subscription's cue to end).
    pub fn raiser(&self) -> impl Fn() -> bool + Send + Sync + 'static {
        let raised = Arc::downgrade(&self.0);
        move || raised.upgrade().map(|r| Signal(r).raise()).is_some()
    }

    /// The round that runs `body` at once, then whenever the signal is
    /// raised or the deadline `body` returned passes.
    pub fn on_raise(self, body: impl FnMut(Instant) -> Next + 'static) -> Box<dyn Round> {
        Box::new(OnRaise { signal: self, body })
    }
}

struct OnRaise<F> {
    signal: Signal,
    body: F,
}

impl<F: FnMut(Instant) -> Next> Round for OnRaise<F> {
    fn bell(&self) -> &Doorbell {
        &self.signal.0.bell
    }

    fn round(&mut self, now: Instant) -> Next {
        self.signal.0.flag.store(false, Ordering::SeqCst);
        (self.body)(now)
    }

    fn idle(&mut self) -> bool {
        !self.signal.0.flag.load(Ordering::SeqCst)
    }
}

/// `loop.rounds`, `loop.parks` and `loop.rung`, resolved in `registry`.
pub(crate) fn counters(registry: &Registry) -> [Counter; 3] {
    ["loop.rounds", "loop.parks", "loop.rung"].map(|name| registry.counter(name))
}

/// Runs a loop on the calling thread until `stop` is set or a round returns
/// [`Next::Done`]. `build` makes the round on this thread, given the set-up
/// instant every timer counts from; the counters go to `registry`.
pub fn run(stop: &Stop, registry: &Registry, build: impl FnOnce(Instant) -> Box<dyn Round>) {
    run_counted(stop, &counters(registry), build);
}

pub(crate) fn run_counted(
    stop: &Stop,
    [rounds, parks, rung]: &[Counter; 3],
    build: impl FnOnce(Instant) -> Box<dyn Round>,
) {
    let mut round = build(Instant::now());
    let bell = round.bell().clone();
    stop.0.bell.set(bell.clone());
    let flags = &*stop.0;
    while !Stop::get(&flags.aborted) {
        let now = Instant::now();
        if Stop::get(&flags.stopped) {
            return round.on_stop(now);
        }
        rounds.inc();
        let deadline = match round.round(now) {
            Next::Again => continue,
            Next::Done => return,
            Next::At(deadline) => Some(deadline),
            Next::Woken => None,
        };
        let woken = bell.wait(deadline, || {
            let idle = !Stop::get(&flags.stopped) && !Stop::get(&flags.aborted) && round.idle();
            parks.add(u64::from(idle));
            idle
        });
        rung.add(u64::from(woken));
    }
}
