//! A [`Round`] loop on a supervised thread of its own, owned by a handle
//! that stops and joins it on drop.

use crate::round::{counters, run_counted, Round, Stop};
use std::thread::JoinHandle;
use std::time::Instant;
use typhoon_metrics::Registry;

/// The handle of one running loop. Dropping it (or [`Runner::stop`]) sets
/// the loop's [`Stop`], rings its bell and joins the thread — except on the
/// loop's own thread, which cannot join itself and returns at its next
/// round.
#[derive(Debug)]
pub struct Runner {
    stop: Stop,
    thread: Option<JoinHandle<()>>,
}

impl Runner {
    /// Spawns the thread `name` supervised (TL006) and runs on it the round
    /// `build` makes there, until `stop` is set or a round returns
    /// [`crate::Next::Done`]. The loop's counters are in `registry` before
    /// this returns.
    pub fn spawn(
        name: &str,
        stop: Stop,
        registry: &Registry,
        build: impl FnOnce(Instant) -> Box<dyn Round> + Send + 'static,
    ) -> Runner {
        let (counters, stop2) = (counters(registry), stop.clone());
        // A panic is logged and counted by the supervisor.
        let body = move || run_counted(&stop2, &counters, build);
        let thread = typhoon_diag::spawn_supervised(name, |_event| {}, body);
        Runner {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the loop and joins its thread (what dropping the handle does).
    pub fn stop(self) {}
}

impl Drop for Runner {
    fn drop(&mut self) {
        self.stop.stop();
        let thread = self.thread.take().expect("joined once");
        if thread.thread().id() != std::thread::current().id() {
            let _ = thread.join();
        }
    }
}
