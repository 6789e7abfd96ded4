//! Extracted concurrency kernels.
//!
//! A *kernel* is the smallest faithful restatement of one of the
//! workspace's concurrency protocols, written against the
//! [`crate::sync`] facade so the same source runs under the model
//! checker (`model` feature, the default) or real primitives
//! (`--no-default-features`).
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
//! * Replace spin loops with [`crate::sync::Notify`] — the model
//!   scheduler explores *choices*, and an unbounded spin is an
//!   unbounded choice tree.
//! * State every invariant as an `assert!` inside the scenario; the
//!   checker reports the schedule that broke it.

pub mod batch;
pub mod checkpoint;
pub mod doorbell;
pub mod election;
pub mod recovery;
pub mod ring;
pub mod tunnel;
