//! # typhoon-diag — deadlock and race instrumentation for Typhoon's locks
//!
//! Typhoon's dataplane is concurrency-heavy: shared rings, refcounted
//! broadcast payloads, ZooKeeper-style watches, and a controller that
//! reconfigures running workers. A single mis-ordered lock acquisition can
//! deadlock the whole pipeline, and a lock held across tunnel I/O silently
//! destroys the tail latencies the paper's Figs. 8–14 measure.
//!
//! This crate provides drop-in lock wrappers that enforce the workspace's
//! lock discipline **in debug builds** and compile to zero-overhead
//! pass-throughs in release builds:
//!
//! * [`DiagMutex`] / [`DiagRwLock`] — non-poisoning wrappers over
//!   `std::sync` locks. A panic while holding a lock never wedges other
//!   threads (the poison flag is cleared on the next acquisition).
//! * **Lock ranks** ([`LockRank`], [`rank`]) — each major lock carries a
//!   documented rank; acquiring a ranked lock while holding one of equal
//!   or higher rank panics with *both* acquisition sites. Rank-ordered
//!   acquisition makes cycles (⇒ deadlocks) impossible among ranked locks.
//! * **Re-entrancy detection** — re-acquiring a lock the current thread
//!   already holds (a guaranteed self-deadlock for `std::sync::Mutex`)
//!   panics immediately with both sites instead of hanging.
//! * **Held-too-long watchdog** — guards time their critical section; a
//!   hold longer than [`hold_threshold`] is counted in the shared
//!   [`typhoon_metrics::Registry`] returned by [`registry`] (counter
//!   `diag.lock.held_too_long`, histogram `diag.lock.hold_ns`) and logged
//!   to stderr, naming the lock and the acquisition site.
//!
//! The rank hierarchy adopted by the workspace is documented in
//! `docs/CONCURRENCY.md` and encoded in [`rank`]. Rule of thumb: **outer
//! layers rank low, inner layers rank high**, and a thread may only
//! acquire locks in strictly increasing rank order.
//!
//! In release builds (`cfg(not(debug_assertions))`) the wrappers contain
//! exactly a `std::sync` lock — no registration, no thread-local
//! bookkeeping, no timing — so the hot paths measured by `benches/micro.rs`
//! are unaffected.

#![warn(missing_docs)]

use std::sync::{Mutex, OnceLock};
use typhoon_metrics::Registry;

mod mutex;
mod rwlock;

pub use mutex::{DiagMutex, DiagMutexGuard};
pub use rwlock::{DiagRwLock, DiagRwLockReadGuard, DiagRwLockWriteGuard};

/// A panic captured from a supervised thread (see [`spawn_supervised`]).
#[derive(Debug, Clone)]
pub struct PanicEvent {
    /// The thread's name as passed to [`spawn_supervised`].
    pub thread: String,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// anything else as an opaque marker).
    pub message: String,
}

fn panic_log() -> &'static Mutex<Vec<PanicEvent>> {
    static LOG: OnceLock<Mutex<Vec<PanicEvent>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// All panics captured by [`spawn_supervised`] so far, oldest first.
pub fn panic_events() -> Vec<PanicEvent> {
    panic_log().lock().map(|l| l.clone()).unwrap_or_default()
}

/// Spawns a named thread whose panics are *captured*, never silently
/// swallowed: a panic is stringified, appended to the process-wide panic
/// log ([`panic_events`]), counted in [`registry`] under
/// `diag.thread.panics` (plus a per-thread counter), and handed to
/// `on_panic` so the embedder can surface it as a fault event.
///
/// This is the workspace-mandated replacement for raw `thread::spawn` in
/// the long-running layers (`typhoon-core`, `typhoon-switch`) — enforced
/// by `typhoon-lint` rule TL006. A worker thread that panics must become
/// a *detectable* fault (dead switch port → `PortStatus` delete →
/// recovery), not a silent dead thread.
pub fn spawn_supervised<F, H>(name: &str, on_panic: H, body: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
    H: FnOnce(&PanicEvent) + Send + 'static,
{
    let thread_name = name.to_owned();
    std::thread::Builder::new()
        .name(thread_name.clone())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            if let Err(payload) = result {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "<non-string panic payload>".to_owned()
                };
                let event = PanicEvent {
                    thread: thread_name.clone(),
                    message,
                };
                registry().counter("diag.thread.panics").inc();
                registry()
                    .counter(&format!("diag.thread.panics.{thread_name}"))
                    .inc();
                eprintln!(
                    "typhoon-diag: supervised thread `{}` panicked: {}",
                    event.thread, event.message
                );
                if let Ok(mut log) = panic_log().lock() {
                    log.push(event.clone());
                }
                on_panic(&event);
            }
        })
        .expect("spawn supervised thread")
}

/// Acquisition-order rank of a lock. Threads must acquire ranked locks in
/// strictly increasing rank order; rank `0` (`LockRank::UNRANKED`) opts a
/// lock out of order checking (re-entrancy and watchdog checks still
/// apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank(pub u16);

impl LockRank {
    /// Excluded from rank-order checking.
    pub const UNRANKED: LockRank = LockRank(0);
}

/// The workspace lock-rank hierarchy (documented in `docs/CONCURRENCY.md`).
///
/// Outer control-plane layers rank low; inner data-plane layers rank
/// high. A thread holding `CLUSTER` may take `COORD_STORE`, never the
/// reverse.
pub mod rank {
    use super::LockRank;

    /// `typhoon-core` `cluster.rs` — outermost supervisor state.
    pub const CLUSTER: LockRank = LockRank(100);
    /// `typhoon-core` `cluster.rs` — manager-loop join handle.
    pub const CLUSTER_MANAGER: LockRank = LockRank(110);
    /// `typhoon-core` `manager.rs` — application-id allocator.
    pub const CORE_APP_IDS: LockRank = LockRank(120);
    /// `typhoon-core` `manager.rs` — failure-detector suspect map; held
    /// across coordinator calls, so it must stay below `COORD_GLOBAL`.
    pub const CORE_SUSPECTS: LockRank = LockRank(130);
    /// `typhoon-core` `manager.rs` — recovery report log.
    pub const CORE_REPORTS: LockRank = LockRank(140);
    /// `typhoon-core` `agent.rs` — per-host worker table.
    pub const AGENT_WORKERS: LockRank = LockRank(150);
    /// `typhoon-storm` `nimbus.rs` — topology master state.
    pub const NIMBUS: LockRank = LockRank(200);
    /// `typhoon-storm` `nimbus.rs` — application-id allocator.
    pub const NIMBUS_APP_IDS: LockRank = LockRank(210);
    /// `typhoon-storm` `nimbus.rs` — task-id range allocator.
    pub const NIMBUS_TASK_IDS: LockRank = LockRank(215);
    /// `typhoon-storm` `nimbus.rs` — monitor-thread join handle.
    pub const NIMBUS_MONITOR: LockRank = LockRank(220);
    /// `typhoon-storm` `nimbus.rs` — per-topology shutdown flags; held
    /// while pruning heartbeats in `kill`, so it stays below
    /// `NIMBUS_HEARTBEATS`.
    pub const TOPO_SHUTDOWNS: LockRank = LockRank(230);
    /// `typhoon-storm` `nimbus.rs` — per-topology restart counters.
    pub const TOPO_RESTARTS: LockRank = LockRank(235);
    /// `typhoon-storm` `nimbus.rs` — per-topology rate meters.
    pub const TOPO_METERS: LockRank = LockRank(240);
    /// `typhoon-storm` `nimbus.rs` — per-topology metric registries.
    pub const TOPO_REGISTRIES: LockRank = LockRank(245);
    /// `typhoon-storm` `nimbus.rs` — input-rate cell map; held while
    /// locking the inner cell, so it stays below `EXEC_RATE_CELL`.
    pub const TOPO_INPUT_RATES: LockRank = LockRank(250);
    /// `typhoon-storm` `nimbus.rs` — debug-mirror cell map; held while
    /// locking the inner cell, so it stays below `EXEC_MIRROR_CELL`.
    pub const TOPO_MIRRORS: LockRank = LockRank(255);
    /// `typhoon-storm` — worker heartbeat map (nimbus + executors).
    pub const NIMBUS_HEARTBEATS: LockRank = LockRank(260);
    /// `typhoon-storm` `executor.rs` — per-executor input-rate cell.
    pub const EXEC_RATE_CELL: LockRank = LockRank(270);
    /// `typhoon-storm` `executor.rs` — per-executor debug-mirror cell.
    pub const EXEC_MIRROR_CELL: LockRank = LockRank(275);
    /// `typhoon-storm` `transport.rs` — outbound TCP connection cache.
    pub const TRANSPORT_CONNS: LockRank = LockRank(290);
    /// `typhoon-controller` `controller.rs` — registered app list; held
    /// across app callbacks that re-enter the controller and write
    /// coordination state, so it stays below `COORD_GLOBAL`.
    pub const CTRL_APPS: LockRank = LockRank(295);
    /// `typhoon-coordinator` `global.rs` — coordination service façade.
    pub const COORD_GLOBAL: LockRank = LockRank(300);
    /// `typhoon-controller` `ha.rs` — replicated-control-plane state
    /// (current leader, replica roster, switch handles). Ranked below
    /// `COORD_STORE` so leadership bookkeeping may consult the
    /// coordinator while held.
    pub const CTRL_HA: LockRank = LockRank(380);
    /// `typhoon-controller` `ha.rs` — the write-through rule ledger.
    /// Ranked below `COORD_STORE` so a ledger flush may write the
    /// persisted blob to the coordinator while held.
    pub const CTRL_LEDGER: LockRank = LockRank(390);
    /// `typhoon-coordinator` `store.rs` — znode tree + watches.
    pub const COORD_STORE: LockRank = LockRank(400);
    /// `typhoon-controller` `controller.rs` — port-stats cache.
    pub const CTRL_PORT_STATS: LockRank = LockRank(470);
    /// `typhoon-controller` `controller.rs` — flow-stats cache.
    pub const CTRL_FLOW_STATS: LockRank = LockRank(475);
    /// `typhoon-controller` `controller.rs` — per-switch depacketizers.
    pub const CTRL_DEPACKETIZERS: LockRank = LockRank(480);
    /// `typhoon-controller` `controller.rs` — barrier reply waiters.
    pub const CTRL_BARRIER_WAITERS: LockRank = LockRank(490);
    /// `typhoon-controller` `controller.rs` — SDN controller state.
    pub const CONTROLLER: LockRank = LockRank(500);
    /// `typhoon-net` `tunnel.rs` — an endpoint's inbox, the frames that
    /// arrived before it was given an ingress. Held while `set_ingress`
    /// hands them over, so it sits below `CHAOS_INGRESS` and every
    /// datapath lock.
    pub const TUNNEL_INBOX: LockRank = LockRank(580);
    /// `typhoon-net` `fault.rs` — a fault injector's ingress. Held while
    /// the frames it orders are forwarded, so it sits below every datapath
    /// lock. A frame that arrived over a tunnel is never forwarded into
    /// one (split horizon, `typhoon-switch` `forward.rs`), so forwarding
    /// under it never hands over into another injector and it never nests
    /// under itself.
    pub const CHAOS_INGRESS: LockRank = LockRank(590);
    /// `typhoon-switch` flow table (all `DP_*` locks live in `datapath.rs`'s
    /// `Inner`; taken by `forward.rs` lookups and `link.rs` FlowMods).
    pub const DATAPATH: LockRank = LockRank(600);
    /// `typhoon-switch` `port.rs` — the port registry. A port's output is
    /// cloned out of it and pushed with it released.
    pub const DP_PORTS: LockRank = LockRank(610);
    /// `typhoon-switch` `forward.rs` — group table.
    pub const DP_GROUPS: LockRank = LockRank(620);
    /// `typhoon-switch` `forward.rs` — tuple-trace recorder.
    pub const DP_TRACE: LockRank = LockRank(630);
    /// `typhoon-switch` `datapath.rs` — flow-expiry clock.
    pub const DP_EXPIRE: LockRank = LockRank(640);
    /// `typhoon-switch` `datapath.rs` — tunnel map. Tunnels are cloned out
    /// of it and used with it released; only `next_due` reads a tunnel's
    /// held-frame deadline under it, so it stays below `CHAOS_STATE`.
    pub const DP_TUNNELS: LockRank = LockRank(650);
    /// `typhoon-switch` `link.rs` — the controller link (channel
    /// endpoints, fencing term, headless event queue). A leaf among the
    /// datapath locks: every other `DP_*` lock may be held when a frame
    /// or event reaches the link, and the link never takes them back.
    pub const DP_CTRL: LockRank = LockRank(655);
    /// `typhoon-net` `fault.rs` — fault-injector state; held across
    /// inner tunnel sends, so it sits between `DP_TUNNELS` and `TUNNEL`.
    pub const CHAOS_STATE: LockRank = LockRank(660);
    /// `typhoon-net` — tunnels and rings (innermost, leaf I/O).
    pub const TUNNEL: LockRank = LockRank(700);
}

/// Shared diagnostics metric registry. The held-too-long watchdog reports
/// here; embedders can merge it into their own metric collection.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(debug_assertions)]
pub(crate) mod debug_state {
    //! Debug-build bookkeeping: lock identities, per-thread held stacks,
    //! and the watchdog threshold.

    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Monotonic lock-instance id source (0 = unassigned).
    static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

    /// Watchdog threshold in nanoseconds.
    static HOLD_THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(100_000_000);

    pub fn hold_threshold_nanos() -> u64 {
        HOLD_THRESHOLD_NANOS.load(Ordering::Relaxed)
    }

    pub fn set_hold_threshold_nanos(nanos: u64) {
        HOLD_THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
    }

    pub fn assign_lock_id(slot: &AtomicU64) -> u64 {
        let existing = slot.load(Ordering::Relaxed);
        if existing != 0 {
            return existing;
        }
        let fresh = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
        match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }

    /// One lock currently held by this thread.
    #[derive(Clone, Copy)]
    pub struct Held {
        pub lock_id: u64,
        pub rank: u16,
        pub name: &'static str,
        pub acquired_at: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks discipline for an acquisition and records it on the
    /// thread's held stack. Panics on re-entrancy or rank inversion.
    #[track_caller]
    pub fn check_and_push(lock_id: u64, rank: u16, name: &'static str, exclusive: bool) {
        let at = Location::caller();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for h in held.iter() {
                if h.lock_id == lock_id {
                    // Re-entrant read acquisitions of a RwLock are only a
                    // deadlock risk against a queued writer, but they are a
                    // discipline violation either way; flag them all.
                    let _ = exclusive;
                    panic!(
                        "typhoon-diag: re-entrant acquisition of lock `{}` at {at}; \
                         already held by this thread since {}",
                        name, h.acquired_at
                    );
                }
            }
            if rank != 0 {
                if let Some(h) = held.iter().filter(|h| h.rank != 0).max_by_key(|h| h.rank) {
                    if h.rank >= rank {
                        panic!(
                            "typhoon-diag: lock-order inversion (potential deadlock): \
                             acquiring `{}` (rank {}) at {at} while holding `{}` (rank {}) \
                             acquired at {}; ranked locks must be taken in strictly \
                             increasing rank order (see docs/CONCURRENCY.md)",
                            name, rank, h.name, h.rank, h.acquired_at
                        );
                    }
                }
            }
            held.push(Held {
                lock_id,
                rank,
                name,
                acquired_at: at,
            });
        });
    }

    /// Removes a released lock from the thread's held stack.
    pub fn pop(lock_id: u64) {
        // `try_with`: guards may drop during thread TLS teardown.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(idx) = held.iter().rposition(|h| h.lock_id == lock_id) {
                held.remove(idx);
            }
        });
    }

    /// Watchdog hook: called by guards on drop with the measured hold time.
    pub fn observe_hold(name: &'static str, acquired_at: &'static Location<'static>, nanos: u64) {
        // Cached handle: this runs on every guard drop, so skip the
        // registry name lookup on the hot path.
        static HOLD_HIST: std::sync::OnceLock<typhoon_metrics::Histogram> =
            std::sync::OnceLock::new();
        HOLD_HIST
            .get_or_init(|| crate::registry().histogram("diag.lock.hold_ns"))
            .record(nanos);
        if nanos > hold_threshold_nanos() {
            crate::registry().counter("diag.lock.held_too_long").inc();
            crate::registry()
                .counter(&format!("diag.lock.held_too_long.{name}"))
                .inc();
            eprintln!(
                "typhoon-diag: lock `{name}` held for {:.3}ms (threshold {:.3}ms), \
                 acquired at {acquired_at}",
                nanos as f64 / 1e6,
                hold_threshold_nanos() as f64 / 1e6,
            );
        }
    }
}

/// Sets the held-too-long watchdog threshold (debug builds only; a no-op
/// in release builds). Locks held longer than this are counted in
/// [`registry`] under `diag.lock.held_too_long` and logged to stderr.
pub fn set_hold_threshold(threshold: std::time::Duration) {
    #[cfg(debug_assertions)]
    debug_state::set_hold_threshold_nanos(threshold.as_nanos().min(u64::MAX as u128) as u64);
    #[cfg(not(debug_assertions))]
    let _ = threshold;
}

/// Current held-too-long watchdog threshold (debug builds; release builds
/// report `None` because the watchdog is compiled out).
pub fn hold_threshold() -> Option<std::time::Duration> {
    #[cfg(debug_assertions)]
    {
        Some(std::time::Duration::from_nanos(
            debug_state::hold_threshold_nanos(),
        ))
    }
    #[cfg(not(debug_assertions))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_shared() {
        registry().counter("diag.test.shared").inc();
        assert!(registry().snapshot().counter("diag.test.shared") >= 1);
    }

    #[test]
    fn supervised_spawn_captures_panics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let notified = Arc::new(AtomicBool::new(false));
        let notified2 = notified.clone();
        let handle = spawn_supervised(
            "diag-test-panicker",
            move |event| {
                assert_eq!(event.thread, "diag-test-panicker");
                assert!(event.message.contains("boom"));
                notified2.store(true, Ordering::Release);
            },
            || panic!("boom in supervised thread"),
        );
        // The panic is contained: join succeeds instead of propagating.
        assert!(handle.join().is_ok());
        assert!(notified.load(Ordering::Acquire));
        assert!(panic_events()
            .iter()
            .any(|e| e.thread == "diag-test-panicker"));
        assert!(registry().snapshot().counter("diag.thread.panics") >= 1);
    }

    #[test]
    fn supervised_spawn_runs_body_normally() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = ran.clone();
        let handle = spawn_supervised(
            "diag-test-clean",
            |_| panic!("on_panic must not fire for a clean exit"),
            move || ran2.store(true, Ordering::Release),
        );
        assert!(handle.join().is_ok());
        assert!(ran.load(Ordering::Acquire));
    }

    // Compile-time/profile guarantee: in release builds the wrappers are
    // transparent newtypes over std locks; in debug builds they carry
    // instrumentation metadata.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_wrappers_are_pass_through() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<DiagMutex<u64>>(),
            size_of::<std::sync::Mutex<u64>>()
        );
        assert_eq!(
            size_of::<DiagRwLock<u64>>(),
            size_of::<std::sync::RwLock<u64>>()
        );
        assert!(hold_threshold().is_none());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_wrappers_carry_instrumentation() {
        use std::mem::size_of;
        assert!(size_of::<DiagMutex<u64>>() > size_of::<std::sync::Mutex<u64>>());
        assert!(hold_threshold().is_some());
    }
}
