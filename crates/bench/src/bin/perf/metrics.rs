//! The metric tables: every name this suite reports, with unit and
//! direction. `BENCHMARK.json` repeats them for the driver; a unit test
//! keeps the two in step. README.md is the glossary.

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_tps",
        unit: "1/s",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "delivered_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        // ISSUE 11 asks for 0.10; two sets an hour apart drifted by 8 %.
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_tuple",
        unit: "us",
        better: "lower",
        // ISSUE 11 asks for 0.10; this box's CPU speed drifts by more than
        // that between runs (README.md, "Steadiness").
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`. Never gated.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Hops of the existing tracer reported as `trace.hop.<label>.{p50,p99}_us`.
pub const TRACE_HOPS: [&str; 7] = [
    "serialize",
    "queue_out",
    "net_hop",
    "switch_match",
    "deserialize",
    "bolt_execute",
    "ack",
];

/// Per-layer metrics measured on the live cluster during the traced pass.
pub const TRACED: [PerLayer; 25] = [
    ("proc.cpu_us.total", "us", "lower"),
    ("proc.cpu_us.source", "us", "lower"),
    ("proc.cpu_us.operators", "us", "lower"),
    ("proc.cpu_us.acker", "us", "lower"),
    ("proc.cpu_us.switch", "us", "lower"),
    ("proc.cpu_us.tunnel", "us", "lower"),
    ("proc.cpu_us.control", "us", "lower"),
    ("proc.cpu_us.bench", "us", "lower"),
    ("core.idle_cpu_cores", "cores", "lower"),
    ("tuple.ser_per_tuple", "count", "lower"),
    ("core.io.batch_occupancy_mean", "count", "higher"),
    ("core.io.frames_per_tuple", "count", "lower"),
    ("core.io.tx_dropped", "count", "lower"),
    ("switch.port_tx_dropped", "count", "lower"),
    ("switch.cache_hit_ratio", "ratio", "higher"),
    ("switch.cache_probes_per_tuple", "count", "lower"),
    ("switch.miss_count", "count", "lower"),
    ("core.queue_depth_max", "count", "lower"),
    ("bench.backlog_end", "count", "lower"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
    ("proc.rss_mb", "MiB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("span.due_to_sink.p50_ms", "ms", "lower"),
    ("span.sink_to_ack.p50_ms", "ms", "lower"),
    ("controller.flowmod_barrier_us", "us", "lower"),
];

/// Layer probes: the bench times one public call, single-threaded.
pub const PROBES: [PerLayer; 25] = [
    ("tuple.encode_ns", "ns", "lower"),
    ("tuple.decode_ns", "ns", "lower"),
    ("tuple.batch_encode_ns", "ns", "lower"),
    ("tuple.encode_ns.big", "ns", "lower"),
    ("tuple.decode_ns.big", "ns", "lower"),
    ("model.route_ns.shuffle", "ns", "lower"),
    ("model.route_ns.fields", "ns", "lower"),
    ("core.framework.route_ns", "ns", "lower"),
    ("core.io.enqueue_ns", "ns", "lower"),
    ("core.io.poll_ingress_ns", "ns", "lower"),
    ("net.pack_ns", "ns", "lower"),
    ("net.depack_ns", "ns", "lower"),
    ("net.ring.push_pop_ns", "ns", "lower"),
    ("net.tunnel.tcp_frame_ns", "ns", "lower"),
    ("net.tunnel.mem_frame_ns", "ns", "lower"),
    ("switch.round_ns.unicast", "ns", "lower"),
    ("switch.round_ns.group4", "ns", "lower"),
    ("switch.round_ns.miss", "ns", "lower"),
    ("switch.cache.probe_ns", "ns", "lower"),
    ("switch.table.lookup_ns", "ns", "lower"),
    ("core.acker.apply_ns", "ns", "lower"),
    ("metrics.histogram_record_ns", "ns", "lower"),
    ("metrics.counter_add_ns", "ns", "lower"),
    ("openflow.flowmod_encode_ns", "ns", "lower"),
    ("openflow.flowmod_decode_ns", "ns", "lower"),
];

/// The reconciliation of probes against the traced pass.
pub const BUDGET: [PerLayer; 2] = [
    ("budget.explained_us", "us", "higher"),
    ("budget.unexplained_ratio", "ratio", "lower"),
];

/// Every per-layer metric in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let own = |t: &[PerLayer]| -> Vec<(String, &'static str, &'static str)> {
        t.iter().map(|&(n, u, b)| (n.to_owned(), u, b)).collect()
    };
    let mut all = own(&TRACED);
    for hop in TRACE_HOPS {
        for q in ["p50_us", "p99_us"] {
            all.push((format!("trace.hop.{hop}.{q}"), "us", "lower"));
        }
    }
    all.extend(own(&PROBES));
    all.extend(own(&BUDGET));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, valid_metric_name, Json};
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in &END_TO_END {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name.to_owned()), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (name, unit, better) in &layers {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name}");
            assert!(unit.len() <= 16 && ["higher", "lower"].contains(better));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == "lower"
            && m.bound == 0.25));
    }

    /// `BENCHMARK.json` sits at the repository root, five levels above this
    /// directory. Outside a checkout there is nothing to compare against.
    #[test]
    fn benchmark_json_matches_these_tables() {
        // From this package's manifest, or from `typhoon-bench`'s.
        let candidates = [
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json"),
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"),
        ];
        let Some(text) = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
        else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        for (m, j) in END_TO_END.iter().zip(
            doc.get("end_to_end")
                .and_then(Json::as_array)
                .expect("end_to_end"),
        ) {
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let want_layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), want_layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let want: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(workloads, want);
    }
}
