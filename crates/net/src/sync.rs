//! The primitives the ring and doorbell protocols run on, from one place:
//! the workspace's ranked lock and `std` in every ordinary build, the
//! model checker's schedule-controlled stand-ins under the `model` feature
//! (turned on by `tests/model.rs` alone), so what `typhoon-check` explores
//! is `ring.rs` and `doorbell.rs` themselves. A lock, atomic, fence, park
//! or unpark those two files take from anywhere else is one the model
//! scheduler cannot see (`lint_self.rs` checks that none is).

#[cfg(not(feature = "model"))]
pub(crate) use {std::sync::atomic, std::thread, typhoon_diag::DiagMutex};

#[cfg(feature = "model")]
pub(crate) use typhoon_check::sync::{atomic, thread, Mutex as DiagMutex};
