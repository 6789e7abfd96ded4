//! Named metric registry and snapshots.
//!
//! Workers expose their internal statistics (queue depth, emitted tuples,
//! processing latency) through a [`Registry`]. The Typhoon SDN controller
//! pulls a [`MetricSnapshot`] via `METRIC_REQ`/`METRIC_RESP` control tuples
//! and feeds it to control-plane applications (auto-scaler, load balancer).

use crate::recover;
use crate::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::RwLock;

/// A point-in-time view of one registry, ready to serialize into a
/// `METRIC_RESP` control tuple payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name: (count, mean, p50, p99), nanoseconds.
    pub histograms: BTreeMap<String, (u64, f64, u64, u64)>,
}

impl MetricSnapshot {
    /// Fetches a counter value, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fetches a gauge value, defaulting to zero.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The counter totals of every snapshot in `sources` whose label
    /// starts with `prefix`: what one family of registries (every switch,
    /// every chaos edge) counted together. Gauges and histograms are
    /// readings of one source and are not summed.
    pub fn total(sources: &BTreeMap<String, MetricSnapshot>, prefix: &str) -> MetricSnapshot {
        let mut total = MetricSnapshot::default();
        for (_, snap) in sources
            .iter()
            .filter(|(label, _)| label.starts_with(prefix))
        {
            for (name, v) in &snap.counters {
                *total.counters.entry(name.clone()).or_default() += v;
            }
        }
        total
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. Clones share the same underlying maps.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    inner: Arc<RwLock<Inner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = recover(self.inner.read()).counters.get(name) {
            return c.clone();
        }
        recover(self.inner.write())
            .counters
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = recover(self.inner.read()).gauges.get(name) {
            return g.clone();
        }
        recover(self.inner.write())
            .gauges
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = recover(self.inner.read()).histograms.get(name) {
            return h.clone();
        }
        recover(self.inner.write())
            .histograms
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Captures a consistent-enough snapshot of every metric.
    pub fn snapshot(&self) -> MetricSnapshot {
        let inner = recover(self.inner.read());
        MetricSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        (
                            h.count(),
                            h.mean(),
                            h.quantile(0.5).unwrap_or(0),
                            h.quantile(0.99).unwrap_or(0),
                        ),
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_counter() {
        let r = Registry::new();
        r.counter("tuples.emitted").add(5);
        r.counter("tuples.emitted").add(2);
        assert_eq!(r.snapshot().counter("tuples.emitted"), 7);
    }

    #[test]
    fn a_panicked_holder_does_not_wedge_the_registry() {
        let r = Registry::new();
        let r2 = r.clone();
        let _ = std::thread::spawn(move || {
            let _guard = r2.inner.write();
            panic!("poison attempt");
        })
        .join();
        r.counter("after").inc();
        assert_eq!(r.snapshot().counter("after"), 1);
    }

    #[test]
    fn snapshot_contains_all_kinds() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(-4);
        r.histogram("h").record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(snap.gauge("g"), -4);
        let (count, mean, _, _) = snap.histograms["h"];
        assert_eq!(count, 1);
        assert!(mean > 0.0);
    }

    #[test]
    fn missing_metrics_default_to_zero_in_snapshot() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.counter("nope"), 0);
        assert_eq!(snap.gauge("nope"), 0);
    }

    #[test]
    fn total_sums_the_counters_of_one_family() {
        let (a, b, other) = (Registry::new(), Registry::new(), Registry::new());
        a.counter("hits").add(2);
        b.counter("hits").add(3);
        b.gauge("depth").set(9);
        other.counter("hits").add(100);
        let sources: BTreeMap<String, MetricSnapshot> = [
            ("switch/0".to_owned(), a.snapshot()),
            ("switch/1".to_owned(), b.snapshot()),
            ("worker/0".to_owned(), other.snapshot()),
        ]
        .into();
        let total = MetricSnapshot::total(&sources, "switch/");
        assert_eq!(total.counter("hits"), 5);
        assert!(total.gauges.is_empty(), "gauges are not summed");
    }

    #[test]
    fn registry_clones_share_metrics() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.counter("x").inc();
        assert_eq!(r.snapshot().counter("x"), 1);
    }
}
