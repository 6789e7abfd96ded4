//! Extracted concurrency kernels.
//!
//! A *kernel* is the smallest faithful restatement of a concurrency
//! protocol whose own crate cannot run under the checker yet, written
//! against [`crate::sync`]. A protocol that *can* — `typhoon-net`'s ring
//! and doorbell — has no kernel: it is checked as shipped, by the
//! scenarios in `crates/net/tests/model.rs`.
//!
//! Each kernel ships **both** the current (fixed) protocol and the
//! pre-fix protocol of the race it guards against, selected by a
//! `fixed: bool` parameter. The checker test suite asserts the pre-fix
//! variant fails (the checker *finds* the historical race, with a
//! replayable schedule) and the fixed variant passes — so a regression
//! that reintroduces the race flips a deterministic test, not a chaos
//! run.
//!
//! Extraction ground rules (see `docs/CONCURRENCY.md` for the workflow):
//!
//! * Keep only the shared state and the statements that touch it; drop
//!   I/O, metrics and error plumbing.
//! * Replace spin loops with a blocking primitive (a channel, a park) —
//!   the model scheduler explores *choices*, and an unbounded spin is an
//!   unbounded choice tree.
//! * State every invariant as an `assert!` inside the scenario; the
//!   checker reports the schedule that broke it.

pub mod checkpoint;
pub mod election;
pub mod recovery;
pub mod tunnel;
