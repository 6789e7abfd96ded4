//! The primitives a checked scenario runs on: the checker's controlled
//! stand-ins for the `typhoon-diag` locks, std atomics and std threads,
//! each with a schedule point in front of every visible effect. Code
//! that names them can only run inside [`crate::Checker::check`].
//!
//! API surface (mirrors the `typhoon-diag` wrappers, `std::sync::atomic`,
//! `std::thread` and the workspace's channel idiom):
//!
//! * [`Mutex`] / [`RwLock`] — `with_rank(LockRank, name, value)`, `new`,
//!   `lock` / `read` / `write`.
//! * [`atomic`] — `AtomicBool`, `AtomicU64`, `fence` with std signatures.
//! * [`bounded`] — blocking bounded channel with explicit `close`.
//! * [`thread`] — `spawn` / `JoinHandle::join` / `yield_now`, and the park
//!   token: `current` / `Thread::unpark` / `park` / `park_timeout`. The
//!   model has no clock, so a park nobody ends is a reported deadlock.

/// Error returned by channel operations after `close`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

pub use crate::shim::{
    atomic, bounded, thread, Mutex, MutexGuard, Receiver, RwLock, RwLockReadGuard,
    RwLockWriteGuard, Sender,
};
