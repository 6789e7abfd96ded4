//! One monotonic clock for generator stamps and arrival stamps.
//!
//! Every time in the suite is nanoseconds since a process-wide epoch, so a
//! due time stamped into a tuple by the generator thread and the arrival
//! time read by a sink thread subtract directly.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (fixed by the first call; never 0
/// afterwards, so 0 can mean "unset" in atomics).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Seconds between two `now_ns` readings.
pub fn secs_between(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}
