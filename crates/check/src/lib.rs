//! `typhoon-check`: a schedule-exploring model checker for the
//! workspace's concurrency protocols.
//!
//! Chaos tests (`typhoon-net`'s fault layer) shake races out by luck;
//! this crate finds them by *search*. A scenario is an ordinary closure
//! over threads and locks whose primitives are the ones in [`sync`]:
//! they hand every visible effect to a deterministic scheduler, and
//! [`Checker::check`] explores interleavings:
//!
//! 1. **Exhaustive DFS** over the schedule tree up to a preemption
//!    bound (default 2) — small bounds find almost all real bugs and
//!    keep the tree tractable.
//! 2. **Randomized PCT-style fallback** when the bounded tree is larger
//!    than the schedule budget: seeded priority schedules, each fully
//!    reproducible from the printed seed.
//!
//! Every failure report carries a replay recipe (`CHECK_TRACE=…` for
//! DFS traces, `CHECK_SEED=…` for random schedules) that re-runs the
//! exact interleaving under a debugger.
//!
//! Two kinds of code run under it:
//!
//! * **The shipped files.** `typhoon-net`'s `ring.rs` and `doorbell.rs`
//!   take their lock, atomics, fence and park/unpark from a private
//!   `sync` module that resolves to [`sync`] under that crate's `model`
//!   feature, so `crates/net/tests/model.rs` explores the real
//!   `ring::<Frame>` / `ring::<Bytes>` and `Doorbell::wait` — there is
//!   no second implementation to keep equal by hand.
//! * **Extracted kernels** ([`kernels`]) for protocols whose crates are
//!   not on that seam yet — tunnel send/teardown, checkpoint
//!   snapshot/fold, recovery re-steer/ack, the election claim — each in
//!   pre-fix and fixed flavours, so the checker doubles as a regression
//!   pin on historical races.

pub mod kernels;
mod sched;
pub(crate) mod shim;
pub mod sync;

pub use sched::{CheckReport, Checker, Failure, Replay};
