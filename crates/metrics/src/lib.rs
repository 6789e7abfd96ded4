//! # typhoon-metrics — counters, rate timelines and latency histograms
//!
//! Instrumentation shared by every layer of the reproduction:
//!
//! * [`Counter`] / [`Gauge`] — lock-free scalar metrics (worker tuple counts,
//!   queue depths, switch port packet/byte counters).
//! * [`RateMeter`] — per-second throughput timelines. The evaluation figures
//!   of the paper (Figs. 10–12, 14) are *time series of tuples/sec*; a
//!   `RateMeter` records exactly that series so experiment binaries can print
//!   the same rows the paper plots.
//! * [`Histogram`] — log-bucketed latency histogram with quantiles and CDF
//!   export (Figs. 8(c) and 8(d) are latency CDFs).
//! * [`Registry`] — a named snapshotting registry; the SDN controller's
//!   metric collection (`METRIC_REQ`/`METRIC_RESP` control tuples, Table 2)
//!   serializes these snapshots.

#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod meter;
pub mod registry;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSummary};
pub use meter::RateMeter;
pub use registry::{MetricSnapshot, Registry};

/// Takes the guard out of a `std::sync` lock result whether or not a holder
/// panicked: every update here leaves the instrument valid at each step, so
/// a poisoned lock must not wedge the registry for every other thread.
/// (`typhoon-diag`'s non-poisoning wrappers depend on this crate, so it
/// cannot use them.)
pub(crate) fn recover<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
