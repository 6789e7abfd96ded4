//! `typhoon-check`: a schedule-exploring model checker for the
//! workspace's concurrency kernels.
//!
//! Chaos tests (`typhoon-net`'s fault layer) shake races out by luck;
//! this crate finds them by *search*. A scenario is an ordinary closure
//! over threads and locks, written against the [`sync`] facade. Under
//! the `model` feature (the default) those primitives hand every
//! visible effect to a deterministic scheduler, and [`Checker::check`]
//! explores interleavings:
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
//! The [`kernels`] module holds faithful extractions of the
//! workspace's real protocols — ring close/pop, tunnel send/teardown,
//! checkpoint snapshot/fold, recovery re-steer/ack, the doorbell's
//! arm/re-check/park — each in pre-fix
//! and fixed flavours, so the checker doubles as a regression pin on
//! historical races. Compile with `--no-default-features` and the same
//! kernels run against real primitives as stress tests.

pub mod kernels;
pub mod sync;

#[cfg(feature = "model")]
mod sched;
#[cfg(feature = "model")]
pub(crate) mod shim;

#[cfg(feature = "model")]
pub use sched::{CheckReport, Checker, Failure, Replay};
