//! Model primitives: API-compatible stand-ins for the `typhoon-diag`
//! wrappers and the workspace's channel/thread idioms, with a schedule
//! point in front of every visible effect.
//!
//! The engine guarantees mutual exclusion (only the chosen thread runs),
//! so each primitive's own state can be plain interior mutability: the
//! std lock/atomic inside is never contended, it only exists to satisfy
//! `Send`/`Sync` without `unsafe`.

use crate::sched::{context, Execution};
use crate::sync::Closed;
use std::collections::VecDeque;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::{Arc, OnceLock, PoisonError};
use typhoon_diag::LockRank;

fn resource(slot: &OnceLock<u64>, exec: &Execution) -> u64 {
    *slot.get_or_init(|| exec.new_resource())
}

// ------------------------------------------------------------------- mutex

/// Model mutex, API-compatible with `typhoon_diag::DiagMutex`. Rank
/// discipline is checked by the engine and reported as a schedule failure
/// instead of a panic-with-backtrace.
pub struct Mutex<T> {
    rank: u16,
    name: &'static str,
    res: OnceLock<u64>,
    locked: std::sync::atomic::AtomicBool,
    data: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// An unranked, anonymous model lock.
    pub fn new(value: T) -> Self {
        Self::with_rank(LockRank::UNRANKED, "<anon>", value)
    }

    /// A named lock participating in the rank hierarchy.
    pub fn with_rank(rank: LockRank, name: &'static str, value: T) -> Self {
        Mutex {
            rank: rank.0,
            name,
            res: OnceLock::new(),
            locked: std::sync::atomic::AtomicBool::new(false),
            data: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock; a schedule point, and blocks the model thread
    /// while another model thread holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (exec, tid) = context();
        let res = resource(&self.res, &exec);
        loop {
            exec.schedule_point(tid, self.name);
            if !self.locked.swap(true, StdOrdering::SeqCst) {
                break;
            }
            exec.block_on(tid, res, self.name);
        }
        exec.push_rank(tid, self.rank, self.name);
        let guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            guard: Some(guard),
            lock: self,
            exec,
            tid,
        }
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let (exec, tid) = context();
        exec.schedule_point(tid, self.name);
        if self.locked.swap(true, StdOrdering::SeqCst) {
            return None;
        }
        exec.push_rank(tid, self.rank, self.name);
        let guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        Some(MutexGuard {
            guard: Some(guard),
            lock: self,
            exec,
            tid,
        })
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
    exec: Arc<Execution>,
    tid: usize,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.guard.take();
        self.lock.locked.store(false, StdOrdering::SeqCst);
        self.exec.pop_rank(self.tid, self.lock.name);
        self.exec.unblock(resource(&self.lock.res, &self.exec));
        // The release is itself a schedule point (one that never panics
        // in a thread that is already unwinding — see the engine).
        self.exec.schedule_point(self.tid, "unlock");
    }
}

// ------------------------------------------------------------------ rwlock

/// Model reader-writer lock, API-compatible with
/// `typhoon_diag::DiagRwLock`.
pub struct RwLock<T> {
    rank: u16,
    name: &'static str,
    res: OnceLock<u64>,
    readers: std::sync::atomic::AtomicUsize,
    writer: std::sync::atomic::AtomicBool,
    data: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// An unranked, anonymous model lock.
    pub fn new(value: T) -> Self {
        Self::with_rank(LockRank::UNRANKED, "<anon>", value)
    }

    /// A named lock participating in the rank hierarchy.
    pub fn with_rank(rank: LockRank, name: &'static str, value: T) -> Self {
        RwLock {
            rank: rank.0,
            name,
            res: OnceLock::new(),
            readers: std::sync::atomic::AtomicUsize::new(0),
            writer: std::sync::atomic::AtomicBool::new(false),
            data: std::sync::RwLock::new(value),
        }
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let (exec, tid) = context();
        let res = resource(&self.res, &exec);
        loop {
            exec.schedule_point(tid, self.name);
            if !self.writer.load(StdOrdering::SeqCst) {
                self.readers.fetch_add(1, StdOrdering::SeqCst);
                break;
            }
            exec.block_on(tid, res, self.name);
        }
        exec.push_rank(tid, self.rank, self.name);
        let guard = self.data.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            guard: Some(guard),
            lock: self,
            exec,
            tid,
        }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let (exec, tid) = context();
        let res = resource(&self.res, &exec);
        loop {
            exec.schedule_point(tid, self.name);
            if !self.writer.load(StdOrdering::SeqCst) && self.readers.load(StdOrdering::SeqCst) == 0
            {
                self.writer.store(true, StdOrdering::SeqCst);
                break;
            }
            exec.block_on(tid, res, self.name);
        }
        exec.push_rank(tid, self.rank, self.name);
        let guard = self.data.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            guard: Some(guard),
            lock: self,
            exec,
            tid,
        }
    }
}

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    guard: Option<std::sync::RwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
    exec: Arc<Execution>,
    tid: usize,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.guard.take();
        self.lock.readers.fetch_sub(1, StdOrdering::SeqCst);
        self.exec.pop_rank(self.tid, self.lock.name);
        self.exec.unblock(resource(&self.lock.res, &self.exec));
        self.exec.schedule_point(self.tid, "read-unlock");
    }
}

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    guard: Option<std::sync::RwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
    exec: Arc<Execution>,
    tid: usize,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.guard.take();
        self.lock.writer.store(false, StdOrdering::SeqCst);
        self.exec.pop_rank(self.tid, self.lock.name);
        self.exec.unblock(resource(&self.lock.res, &self.exec));
        self.exec.schedule_point(self.tid, "write-unlock");
    }
}

// ----------------------------------------------------------------- atomics

/// Model atomics: std signatures, with a schedule point per operation so
/// the checker can interleave between any two accesses.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::context;
    use std::sync::atomic::Ordering as StdOrdering;

    /// Model `fence`: nothing to do. Every model atomic is `SeqCst` and
    /// every interleaving of them is explored, which is the order a fence
    /// makes the hardware honour.
    pub fn fence(_order: Ordering) {}

    /// Model `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// A new flag with the given initial value.
        pub fn new(v: bool) -> Self {
            AtomicBool(std::sync::atomic::AtomicBool::new(v))
        }

        /// Atomic load (schedule point).
        pub fn load(&self, _order: Ordering) -> bool {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.load");
            self.0.load(StdOrdering::SeqCst)
        }

        /// Atomic store (schedule point).
        pub fn store(&self, v: bool, _order: Ordering) {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.store");
            self.0.store(v, StdOrdering::SeqCst);
        }

        /// Atomic swap (schedule point).
        pub fn swap(&self, v: bool, _order: Ordering) -> bool {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.swap");
            self.0.swap(v, StdOrdering::SeqCst)
        }

        /// Atomic compare-exchange (schedule point).
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.cas");
            self.0
                .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
        }
    }

    /// Model `AtomicU64`.
    #[derive(Debug, Default)]
    pub struct AtomicU64(std::sync::atomic::AtomicU64);

    impl AtomicU64 {
        /// A new counter with the given initial value.
        pub fn new(v: u64) -> Self {
            AtomicU64(std::sync::atomic::AtomicU64::new(v))
        }

        /// Atomic load (schedule point).
        pub fn load(&self, _order: Ordering) -> u64 {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.load");
            self.0.load(StdOrdering::SeqCst)
        }

        /// Atomic store (schedule point).
        pub fn store(&self, v: u64, _order: Ordering) {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.store");
            self.0.store(v, StdOrdering::SeqCst);
        }

        /// Atomic fetch-add (schedule point).
        pub fn fetch_add(&self, v: u64, _order: Ordering) -> u64 {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.fetch_add");
            self.0.fetch_add(v, StdOrdering::SeqCst)
        }

        /// Atomic compare-exchange (schedule point).
        pub fn compare_exchange(
            &self,
            current: u64,
            new: u64,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<u64, u64> {
            let (exec, tid) = context();
            exec.schedule_point(tid, "atomic.cas");
            self.0
                .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
        }
    }
}

// ----------------------------------------------------------------- channel

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Chan<T> {
    state: std::sync::Mutex<ChanState<T>>,
    cap: usize,
    res: OnceLock<u64>,
}

/// Creates a bounded model channel. `send` blocks when full, `recv`
/// blocks when empty; both fail with [`Closed`] after `close`.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: std::sync::Mutex::new(ChanState {
            queue: VecDeque::new(),
            closed: false,
        }),
        cap: cap.max(1),
        res: OnceLock::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Sending half of a bounded model channel.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Sender<T> {
    /// Blocking send; `Err` returns the value when the channel is closed.
    pub fn send(&self, value: T) -> Result<(), T> {
        let (exec, tid) = context();
        let res = resource(&self.chan.res, &exec);
        let mut slot = Some(value);
        loop {
            exec.schedule_point(tid, "chan.send");
            {
                let mut st = self
                    .chan
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if st.closed {
                    return Err(slot.take().expect("value present"));
                }
                if st.queue.len() < self.chan.cap {
                    st.queue.push_back(slot.take().expect("value present"));
                    drop(st);
                    exec.unblock(res);
                    return Ok(());
                }
            }
            exec.block_on(tid, res, "chan.full");
        }
    }

    /// Non-blocking send.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let (exec, tid) = context();
        exec.schedule_point(tid, "chan.try_send");
        let mut st = self
            .chan
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if st.closed || st.queue.len() >= self.chan.cap {
            return Err(value);
        }
        st.queue.push_back(value);
        drop(st);
        exec.unblock(resource(&self.chan.res, &exec));
        Ok(())
    }

    /// Closes the channel; blocked peers wake with [`Closed`].
    pub fn close(&self) {
        let (exec, tid) = context();
        exec.schedule_point(tid, "chan.close");
        self.chan
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        exec.unblock(resource(&self.chan.res, &exec));
    }
}

/// Receiving half of a bounded model channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive; [`Closed`] once the channel is closed *and*
    /// drained.
    pub fn recv(&self) -> Result<T, Closed> {
        let (exec, tid) = context();
        let res = resource(&self.chan.res, &exec);
        loop {
            exec.schedule_point(tid, "chan.recv");
            {
                let mut st = self
                    .chan
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    exec.unblock(res);
                    return Ok(v);
                }
                if st.closed {
                    return Err(Closed);
                }
            }
            exec.block_on(tid, res, "chan.empty");
        }
    }

    /// Non-blocking receive; `Ok(None)` when empty but open.
    pub fn try_recv(&self) -> Result<Option<T>, Closed> {
        let (exec, tid) = context();
        exec.schedule_point(tid, "chan.try_recv");
        let mut st = self
            .chan
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match st.queue.pop_front() {
            Some(v) => {
                drop(st);
                exec.unblock(resource(&self.chan.res, &exec));
                Ok(Some(v))
            }
            None if st.closed => Err(Closed),
            None => Ok(None),
        }
    }

    /// Closes the channel from the receiving side.
    pub fn close(&self) {
        let (exec, tid) = context();
        exec.schedule_point(tid, "chan.close");
        self.chan
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        exec.unblock(resource(&self.chan.res, &exec));
    }
}

// ------------------------------------------------------------------ thread

/// Model threads.
pub mod thread {
    use super::context;
    use crate::sched::{thread_exit_resource, thread_park_resource};
    use std::time::Duration;

    /// Handle to a model thread.
    pub struct JoinHandle {
        tid: usize,
    }

    impl JoinHandle {
        /// Blocks until the thread finishes. A child panic aborts the
        /// whole execution and is reported by the checker, so `join`
        /// itself never returns an error.
        pub fn join(self) {
            let (exec, tid) = context();
            let res = thread_exit_resource(self.tid);
            loop {
                exec.schedule_point(tid, "join");
                if exec.thread_finished(self.tid) {
                    return;
                }
                exec.block_on(tid, res, "join");
            }
        }
    }

    /// Spawns a model thread under the current execution.
    pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
        let (exec, tid) = context();
        exec.schedule_point(tid, "spawn");
        let child = exec.spawn_thread(Box::new(f));
        JoinHandle { tid: child }
    }

    /// A model thread as others see it: the `std::thread::Thread` stand-in.
    #[derive(Debug, Clone)]
    pub struct Thread {
        tid: usize,
    }

    impl Thread {
        /// The model thread id.
        pub fn id(&self) -> usize {
            self.tid
        }

        /// Sets the thread's park token (schedule point): its current or
        /// next park returns.
        pub fn unpark(&self) {
            let (exec, tid) = context();
            exec.schedule_point(tid, "unpark");
            exec.unpark(self.tid);
        }
    }

    /// The calling model thread.
    pub fn current() -> Thread {
        Thread { tid: context().1 }
    }

    /// Blocks until the caller's park token is set, and takes it. The
    /// model has no clock, so the timeout never fires: a park nobody ends
    /// is a deadlock, and the checker reports the schedule that led to it.
    pub fn park_timeout(_timeout: Duration) {
        park();
    }

    /// Blocks until the caller's park token is set, and takes it.
    pub fn park() {
        let (exec, tid) = context();
        loop {
            exec.schedule_point(tid, "park");
            if exec.take_park_token(tid) {
                return;
            }
            exec.block_on(tid, thread_park_resource(tid), "park");
        }
    }

    /// Voluntary yield: a bare schedule point.
    pub fn yield_now() {
        let (exec, tid) = context();
        exec.schedule_point(tid, "yield");
    }
}
