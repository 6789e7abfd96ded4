//! The schedule-exploring engine.
//!
//! One *execution* runs the test body with every model thread mapped onto
//! a real OS thread, but only **one** thread is ever runnable: at each
//! schedule point the running thread hands control to the scheduler,
//! which picks the next thread according to the active [`Ctrl`] strategy.
//! Because every visible effect (shim lock, atomic, channel op) sits
//! behind a schedule point, the set of interleavings the engine can
//! produce is exactly the set of choice sequences — which makes
//! exploration deterministic and failures replayable.
//!
//! Exploration runs in two phases:
//!
//! 1. **Exhaustive DFS** over the choice tree, restricted by a preemption
//!    bound (a switch away from a still-runnable thread costs one
//!    preemption; beyond the bound the running thread keeps running).
//!    Most real concurrency bugs need very few preemptions, so a small
//!    bound covers a huge fraction of the buggy interleavings at a tiny
//!    fraction of the tree.
//! 2. **Seeded random fallback** (PCT-style thread priorities with
//!    random priority-change points) when the bounded tree is larger
//!    than the schedule budget. Every random run derives from
//!    `base_seed + run index`, and a failing run prints its exact seed:
//!    `CHECK_SEED=<seed>` replays only that schedule.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Panic payload used to tear down the remaining threads of a failed
/// execution. Never observed outside the engine.
struct AbortToken;

thread_local! {
    /// The execution the current OS thread belongs to, plus its model
    /// thread id. `None` on threads not managed by the checker.
    static CONTEXT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// Returns the current execution context; panics when called from code
/// that is not running under [`Checker::check`].
pub(crate) fn context() -> (Arc<Execution>, usize) {
    CONTEXT.with(|c| {
        c.borrow()
            .clone()
            .expect("typhoon-check model primitive used outside Checker::check")
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(u64),
    Finished,
}

/// One scheduling decision: the enabled set it chose from (after the
/// preemption-bound filter) and the index chosen. DFS rewinds by bumping
/// the deepest index with untried alternatives.
#[derive(Clone, Debug)]
struct ChoicePoint {
    enabled: Vec<usize>,
    chosen: usize,
}

enum Ctrl {
    /// Replay `prefix` by choice index, then first-untried beyond it.
    Dfs { prefix: Vec<usize> },
    /// PCT-style: highest random priority runs; each decision point may
    /// (seeded) demote the running thread below every other priority.
    Random { rng: SmallRng },
}

pub(crate) struct ExecState {
    statuses: Vec<Status>,
    current: usize,
    ctrl: Ctrl,
    choices: Vec<ChoicePoint>,
    preemptions: usize,
    max_preemptions: usize,
    steps: usize,
    max_steps: usize,
    next_resource: u64,
    priorities: Vec<u64>,
    /// Per model thread: stack of (rank, name) for held ranked locks.
    held_ranks: Vec<Vec<(u16, &'static str)>>,
    /// Per model thread: `std::thread`'s park token.
    park_tokens: Vec<bool>,
    failure: Option<String>,
    abort: bool,
    trace: VecDeque<String>,
    trace_cap: usize,
    spawn_bodies: Vec<Option<Box<dyn FnOnce() + Send>>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
}

impl Execution {
    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates a fresh resource id (used by shim objects to name the
    /// thing a thread blocks on).
    pub(crate) fn new_resource(&self) -> u64 {
        let mut st = self.lock();
        st.next_resource += 1;
        st.next_resource
    }

    /// Records a failure and aborts the execution: every thread parked at
    /// a schedule point is woken and unwinds with an [`AbortToken`].
    pub(crate) fn fail(&self, tid: usize, message: String) -> ! {
        {
            let mut st = self.lock();
            if st.failure.is_none() {
                st.failure = Some(message);
            }
            st.abort = true;
            let _ = tid;
            self.cv.notify_all();
        }
        panic::panic_any(AbortToken);
    }

    /// True when the calling thread is already unwinding — its assertion
    /// failed, or an abort is tearing it down — and has reached a model
    /// primitive from a destructor (a real type's `Drop` takes a lock and
    /// rings). A second panic there would kill the process and a hand-over
    /// would park a thread that must finish, so the execution is aborted
    /// here and every thread runs its destructors freely from now on.
    fn unwinding(&self, st: &mut ExecState) -> bool {
        let unwinding = std::thread::panicking();
        if unwinding {
            st.abort = true;
            self.cv.notify_all();
        }
        unwinding
    }

    /// The heart of the engine: a schedule point. Marks the calling
    /// thread runnable, lets the strategy pick the next thread, and
    /// blocks until this thread is chosen again.
    pub(crate) fn schedule_point(&self, tid: usize, label: &str) {
        let mut st = self.lock();
        if self.unwinding(&mut st) {
            return;
        }
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let msg = format!(
                "step budget ({}) exceeded at `{label}` — unbounded spin loop in the scenario? \
                 checked code must block (channel, park) instead of spinning",
                st.max_steps
            );
            drop(st);
            self.fail(tid, msg);
        }
        let cap = st.trace_cap;
        if st.trace.len() == cap {
            st.trace.pop_front();
        }
        st.trace.push_back(format!("t{tid}: {label}"));
        self.pick_next(&mut st, tid);
        self.wait_for_turn(st, tid);
    }

    /// Blocks the calling thread on `resource` until some other thread
    /// calls [`Execution::unblock`] on it.
    pub(crate) fn block_on(&self, tid: usize, resource: u64, label: &str) {
        let mut st = self.lock();
        if self.unwinding(&mut st) {
            // Whoever holds what the destructor wants is unwinding too.
            drop(st);
            std::thread::yield_now();
            return;
        }
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        let cap = st.trace_cap;
        if st.trace.len() == cap {
            st.trace.pop_front();
        }
        st.trace.push_back(format!("t{tid}: blocked on {label}"));
        st.statuses[tid] = Status::Blocked(resource);
        self.pick_next(&mut st, tid);
        self.wait_for_turn(st, tid);
    }

    /// Marks every thread blocked on `resource` runnable again. The
    /// release itself happened under the caller's exclusivity; the woken
    /// threads only actually run once the scheduler picks them.
    pub(crate) fn unblock(&self, resource: u64) {
        let mut st = self.lock();
        for s in st.statuses.iter_mut() {
            if *s == Status::Blocked(resource) {
                *s = Status::Runnable;
            }
        }
    }

    /// Registers a new model thread and returns its id. The OS thread is
    /// spawned lazily by the scheduler loop of the *orchestrator*? No —
    /// spawned here, parked until first chosen.
    pub(crate) fn spawn_thread(self: &Arc<Self>, body: Box<dyn FnOnce() + Send>) -> usize {
        let tid = {
            let mut st = self.lock();
            let tid = st.statuses.len();
            st.statuses.push(Status::Runnable);
            st.held_ranks.push(Vec::new());
            st.park_tokens.push(false);
            st.spawn_bodies.push(Some(body));
            let pri = match &mut st.ctrl {
                Ctrl::Random { rng } => rng.next_u64(),
                Ctrl::Dfs { .. } => 0,
            };
            st.priorities.push(pri);
            tid
        };
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("typhoon-check-t{tid}"))
            .spawn(move || {
                let body = {
                    let mut st = exec.lock();
                    st.spawn_bodies[tid].take()
                };
                if let Some(body) = body {
                    run_model_thread(&exec, tid, body);
                }
            })
            .expect("spawn model thread");
        self.lock().os_handles.push(handle);
        tid
    }

    /// Rank-discipline bookkeeping mirrored from `typhoon-diag`: acquiring
    /// a ranked lock while holding one of equal or higher rank is reported
    /// as a failure (instead of a debug-build panic).
    pub(crate) fn push_rank(&self, tid: usize, rank: u16, name: &'static str) {
        let violation = {
            let mut st = self.lock();
            let v = if rank != 0 {
                st.held_ranks[tid]
                    .iter()
                    .filter(|(r, _)| *r != 0)
                    .max_by_key(|(r, _)| *r)
                    .filter(|(r, _)| *r >= rank)
                    .map(|(r, n)| {
                        format!(
                            "lock-order inversion: acquiring `{name}` (rank {rank}) while \
                         holding `{n}` (rank {r})"
                        )
                    })
            } else {
                None
            };
            st.held_ranks[tid].push((rank, name));
            v
        };
        if let Some(msg) = violation {
            self.fail(tid, msg);
        }
    }

    pub(crate) fn pop_rank(&self, tid: usize, name: &'static str) {
        let mut st = self.lock();
        if let Some(idx) = st.held_ranks[tid].iter().rposition(|(_, n)| *n == name) {
            st.held_ranks[tid].remove(idx);
        }
    }

    /// Sets `target`'s park token and makes it runnable if it is parked.
    pub(crate) fn unpark(&self, target: usize) {
        self.lock().park_tokens[target] = true;
        self.unblock(thread_park_resource(target));
    }

    /// Takes the caller's park token; `false` means it must block.
    pub(crate) fn take_park_token(&self, tid: usize) -> bool {
        std::mem::take(&mut self.lock().park_tokens[tid])
    }

    /// True once model thread `tid` has finished (used by `join`).
    pub(crate) fn thread_finished(&self, tid: usize) -> bool {
        self.lock().statuses[tid] == Status::Finished
    }

    /// Picks the next thread to run. Must be called with the state lock
    /// held by `st`; updates `st.current`.
    fn pick_next(&self, st: &mut ExecState, tid: usize) {
        if st.abort {
            // Threads finish in OS order from here on: recording their
            // hand-overs would make the replay trace differ run to run.
            self.cv.notify_all();
            return;
        }
        let enabled: Vec<usize> = st
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            let all_finished = st.statuses.iter().all(|s| *s == Status::Finished);
            if !all_finished && st.failure.is_none() {
                let blocked: Vec<String> = st
                    .statuses
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Status::Blocked(_)))
                    .map(|(i, _)| format!("t{i}"))
                    .collect();
                st.failure = Some(format!(
                    "deadlock: every live thread is blocked ({})",
                    blocked.join(", ")
                ));
                st.abort = true;
            }
            // Nothing to run: wake everyone (blocked threads observe the
            // abort, the orchestrator observes completion).
            self.cv.notify_all();
            return;
        }
        let prev = st.current;
        // Preemption bound: once the budget is spent, a still-runnable
        // previous thread keeps running.
        let mut enabled = if st.preemptions >= st.max_preemptions && enabled.contains(&prev) {
            vec![prev]
        } else {
            enabled
        };
        // The running thread goes first, so that index 0 is "no preemption"
        // and the DFS, which only ever advances an index, still reaches
        // every other thread (also those with a lower id).
        if let Some(at) = enabled.iter().position(|&t| t == prev) {
            enabled[..=at].rotate_right(1);
        }
        let depth = st.choices.len();
        let chosen_idx = match &mut st.ctrl {
            Ctrl::Dfs { prefix } => {
                if depth < prefix.len() {
                    let idx = prefix[depth];
                    assert!(
                        idx < enabled.len(),
                        "typhoon-check internal: non-deterministic replay \
                         (depth {depth}, idx {idx}, enabled {enabled:?})"
                    );
                    idx
                } else {
                    // Continue the previous thread (fewest preemptions
                    // explored first).
                    0
                }
            }
            Ctrl::Random { rng } => {
                // PCT-lite: run the highest-priority enabled thread; with
                // probability 1/8 this decision is a priority-change
                // point that demotes the chosen thread afterwards.
                let chosen = enabled
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| st.priorities[t])
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if rng.gen_range(0..8u32) == 0 {
                    let min = st.priorities.iter().min().copied().unwrap_or(0);
                    st.priorities[enabled[chosen]] = min.saturating_sub(1);
                }
                chosen
            }
        };
        let chosen = enabled[chosen_idx];
        st.choices.push(ChoicePoint {
            enabled: enabled.clone(),
            chosen: chosen_idx,
        });
        if chosen != prev && enabled.contains(&prev) {
            st.preemptions += 1;
        }
        st.current = chosen;
        let _ = tid;
        self.cv.notify_all();
    }

    /// Parks the calling thread until it is the current runnable thread
    /// (or the execution aborts).
    fn wait_for_turn(&self, mut st: std::sync::MutexGuard<'_, ExecState>, tid: usize) {
        loop {
            if st.abort {
                drop(st);
                panic::panic_any(AbortToken);
            }
            if st.current == tid && st.statuses[tid] == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Thread exit: mark finished, surface panics, hand control onward.
    fn finish(&self, tid: usize, outcome: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock();
        st.statuses[tid] = Status::Finished;
        match outcome {
            Ok(()) => {}
            Err(payload) => {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let message = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_owned()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "<non-string panic payload>".to_owned()
                    };
                    if st.failure.is_none() {
                        st.failure = Some(format!("t{tid} panicked: {message}"));
                    }
                    st.abort = true;
                }
            }
        }
        // Wake joiners of this thread.
        let res = thread_exit_resource(tid);
        for s in st.statuses.iter_mut() {
            if *s == Status::Blocked(res) {
                *s = Status::Runnable;
            }
        }
        self.pick_next(&mut st, tid);
    }
}

/// Resource id a `JoinHandle` blocks on (distinct from shim-allocated ids,
/// which start at 1 and grow; exit resources live in the top half).
pub(crate) fn thread_exit_resource(tid: usize) -> u64 {
    (1u64 << 48) + tid as u64
}

/// Resource id a parked thread blocks on, beside the exit resources.
pub(crate) fn thread_park_resource(tid: usize) -> u64 {
    (1u64 << 49) + tid as u64
}

fn run_model_thread(exec: &Arc<Execution>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    CONTEXT.with(|c| *c.borrow_mut() = Some((Arc::clone(exec), tid)));
    // An abort before the first turn unwinds through here too, so the
    // body's captures are dropped while the context is still set.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        exec.wait_for_turn(exec.lock(), tid);
        body()
    }));
    // An abort unwind is not a new failure; pass it through as clean.
    let outcome = match outcome {
        Err(p) if p.downcast_ref::<AbortToken>().is_some() => Ok(()),
        other => other,
    };
    exec.finish(tid, outcome);
    CONTEXT.with(|c| *c.borrow_mut() = None);
}

// ------------------------------------------------------------------ checker

/// How a failing schedule can be reproduced.
#[derive(Debug, Clone)]
pub enum Replay {
    /// Deterministic DFS choice sequence (indices into the enabled set at
    /// each schedule point).
    Trace(Vec<usize>),
    /// Seed of a randomized schedule: `CHECK_SEED=<seed>` replays it.
    Seed(u64),
}

/// A schedule that violated an invariant (assertion, deadlock, rank
/// inversion, …).
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong (panic message / deadlock description).
    pub message: String,
    /// The last schedule-point labels before the failure, oldest first.
    pub trace: Vec<String>,
    /// How to reproduce this exact schedule.
    pub replay: Replay,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        writeln!(f, "schedule tail:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        match &self.replay {
            Replay::Trace(t) => write!(
                f,
                "replay: CHECK_TRACE={} (deterministic DFS schedule)",
                t.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            Replay::Seed(s) => write!(f, "replay: CHECK_SEED={s}"),
        }
    }
}

/// Outcome of exploring one kernel.
#[derive(Debug)]
pub struct CheckReport {
    /// Kernel name as passed to [`Checker::check`].
    pub name: String,
    /// Number of schedules executed (DFS + random).
    pub schedules: usize,
    /// True when the bounded DFS visited the *entire* choice tree.
    pub exhausted: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
}

impl CheckReport {
    /// Panics with a replayable report when a failure was found.
    pub fn assert_ok(&self) {
        if let Some(failure) = &self.failure {
            panic!(
                "typhoon-check: kernel `{}` failed after {} schedule(s):\n{failure}",
                self.name, self.schedules
            );
        }
    }

    /// Returns the failure, panicking when the kernel unexpectedly passed
    /// (used by the regression tests that pin known-bad pre-fix logic).
    pub fn expect_failure(self) -> Failure {
        match self.failure {
            Some(f) => f,
            None => panic!(
                "typhoon-check: kernel `{}` passed {} schedule(s) but a failure was \
                 expected (pre-fix logic should violate its invariant)",
                self.name, self.schedules
            ),
        }
    }
}

/// Configuration for exploring one kernel. The defaults suit the small
/// extracted kernels in [`crate::kernels`]: exhaustive up to 2 preemptions,
/// then a seeded random phase.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Preemption bound for the exhaustive DFS phase.
    pub max_preemptions: usize,
    /// Schedule budget for the DFS phase; when the bounded tree is bigger
    /// than this, exploration falls back to the random phase.
    pub max_schedules: usize,
    /// Number of seeded random schedules in the fallback phase.
    pub random_schedules: usize,
    /// Per-execution schedule-point budget (livelock guard).
    pub max_steps: usize,
    /// Base seed for the random phase; run `i` uses `base_seed + i`.
    /// Overridable via `CHECK_BASE_SEED`.
    pub base_seed: u64,
    /// Schedule-point labels retained for failure reports.
    pub trace_tail: usize,
}

impl Default for Checker {
    fn default() -> Self {
        let base_seed = std::env::var("CHECK_BASE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        Checker {
            max_preemptions: 2,
            max_schedules: 20_000,
            random_schedules: 2_000,
            max_steps: 20_000,
            base_seed,
            trace_tail: 32,
        }
    }
}

impl Checker {
    /// A checker with the given preemption bound and default budgets.
    pub fn with_preemption_bound(bound: usize) -> Self {
        Checker {
            max_preemptions: bound,
            ..Checker::default()
        }
    }

    fn run_once(&self, ctrl: Ctrl, body: &Arc<dyn Fn() + Send + Sync>) -> ExecOutcome {
        let exec = Arc::new(Execution {
            state: Mutex::new(ExecState {
                statuses: Vec::new(),
                current: 0,
                ctrl,
                choices: Vec::new(),
                preemptions: 0,
                max_preemptions: self.max_preemptions,
                steps: 0,
                max_steps: self.max_steps,
                next_resource: 0,
                priorities: Vec::new(),
                held_ranks: Vec::new(),
                park_tokens: Vec::new(),
                failure: None,
                abort: false,
                trace: VecDeque::new(),
                trace_cap: self.trace_tail,
                spawn_bodies: Vec::new(),
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        let body = Arc::clone(body);
        exec.spawn_thread(Box::new(move || body()));
        // Wait until every model thread finished.
        {
            let mut st = exec.lock();
            while !st.statuses.iter().all(|s| *s == Status::Finished) {
                st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Join the OS threads so nothing outlives the execution.
        let handles = std::mem::take(&mut exec.lock().os_handles);
        for h in handles {
            let _ = h.join();
        }
        let st = exec.lock();
        ExecOutcome {
            failure: st.failure.clone(),
            trace: st.trace.iter().cloned().collect(),
            choices: st.choices.clone(),
        }
    }

    /// Explores `body` and returns a report. `body` is run once per
    /// schedule; it must create its shared state fresh each run and spawn
    /// its threads through [`crate::sync::thread::spawn`].
    pub fn check<F>(&self, name: &str, body: F) -> CheckReport
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);

        // Replay modes trump exploration: CHECK_SEED / CHECK_TRACE run
        // exactly one schedule.
        if let Ok(seed) = std::env::var("CHECK_SEED") {
            if let Ok(seed) = seed.parse::<u64>() {
                let out = self.run_once(
                    Ctrl::Random {
                        rng: SmallRng::seed_from_u64(seed),
                    },
                    &body,
                );
                return report(name, 1, false, out, || Replay::Seed(seed));
            }
        }
        if let Ok(trace) = std::env::var("CHECK_TRACE") {
            let prefix: Vec<usize> = trace.split(',').filter_map(|c| c.parse().ok()).collect();
            let shown = prefix.clone();
            let out = self.run_once(Ctrl::Dfs { prefix }, &body);
            return report(name, 1, false, out, move || Replay::Trace(shown.clone()));
        }

        // Phase 1: bounded exhaustive DFS.
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        let mut exhausted = false;
        loop {
            if schedules >= self.max_schedules {
                break;
            }
            let out = self.run_once(
                Ctrl::Dfs {
                    prefix: prefix.clone(),
                },
                &body,
            );
            schedules += 1;
            if out.failure.is_some() {
                let choices: Vec<usize> = out.choices.iter().map(|c| c.chosen).collect();
                return report(name, schedules, false, out, move || {
                    Replay::Trace(choices.clone())
                });
            }
            // Advance to the next unexplored branch: bump the deepest
            // choice with untried alternatives, drop everything after it.
            match next_prefix(&out.choices) {
                Some(next) => prefix = next,
                None => {
                    exhausted = true;
                    break;
                }
            }
        }

        // Phase 2: seeded random fallback when the tree was too big.
        if !exhausted {
            for i in 0..self.random_schedules {
                let seed = self.base_seed.wrapping_add(i as u64);
                let out = self.run_once(
                    Ctrl::Random {
                        rng: SmallRng::seed_from_u64(seed),
                    },
                    &body,
                );
                schedules += 1;
                if out.failure.is_some() {
                    return report(name, schedules, false, out, move || Replay::Seed(seed));
                }
            }
        }

        CheckReport {
            name: name.to_owned(),
            schedules,
            exhausted,
            failure: None,
        }
    }
}

struct ExecOutcome {
    failure: Option<String>,
    trace: Vec<String>,
    choices: Vec<ChoicePoint>,
}

fn report(
    name: &str,
    schedules: usize,
    exhausted: bool,
    out: ExecOutcome,
    replay: impl Fn() -> Replay,
) -> CheckReport {
    CheckReport {
        name: name.to_owned(),
        schedules,
        exhausted,
        failure: out.failure.map(|message| Failure {
            message,
            trace: out.trace,
            replay: replay(),
        }),
    }
}

/// Computes the DFS successor of a completed schedule: the deepest choice
/// point with an untried alternative, advanced by one. `None` when the
/// whole bounded tree has been visited.
fn next_prefix(choices: &[ChoicePoint]) -> Option<Vec<usize>> {
    for depth in (0..choices.len()).rev() {
        let cp = &choices[depth];
        if cp.chosen + 1 < cp.enabled.len() {
            let mut prefix: Vec<usize> = choices[..depth].iter().map(|c| c.chosen).collect();
            prefix.push(cp.chosen + 1);
            return Some(prefix);
        }
    }
    None
}
