//! The per-tuple cost budget: layer probes × traced-pass multiplicities,
//! reconciled against the measured CPU per tuple.
//!
//! `budget.explained_us` is what single-threaded per-call costs account
//! for; `budget.unexplained_ratio` is the share of `cpu_us_per_tuple` they
//! do not: polling, wake-ups, lock hand-offs, cache misses between threads,
//! syscalls beyond the tunnel probe, and the bench's own operators. ROADMAP
//! item 1(a) wants that remainder written down; this is where.

use crate::run::Multiplicity;
use crate::workloads::{Shape, Workload};
use std::collections::BTreeMap;

/// One line of the budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// What is being charged.
    pub what: &'static str,
    /// The probe that prices it.
    pub probe: &'static str,
    /// Probe cost, ns per call.
    pub ns_per_call: f64,
    /// Calls per final-operator execution.
    pub calls_per_tuple: f64,
}

impl Line {
    /// Microseconds per final-operator execution.
    pub fn us(&self) -> f64 {
        self.ns_per_call * self.calls_per_tuple / 1e3
    }
}

/// The budget of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// The priced lines.
    pub lines: Vec<Line>,
    /// Measured process CPU per final-operator execution, µs.
    pub cpu_us_per_tuple: f64,
    /// CPU the deployed topology burns with the generator silent, spread
    /// over the traced pass's deliveries, µs per tuple (context, not part
    /// of `explained_us`: no probe prices a sleep).
    pub idle_us_per_tuple: f64,
}

impl Budget {
    /// Σ probe cost × multiplicity, µs per tuple.
    pub fn explained_us(&self) -> f64 {
        self.lines.iter().map(Line::us).sum()
    }

    /// 1 − explained ÷ measured.
    pub fn unexplained_ratio(&self) -> f64 {
        1.0 - self.explained_us() / self.cpu_us_per_tuple
    }
}

/// Prices the traced pass's multiplicities with the probes.
pub fn reconcile(
    spec: &Workload,
    probes: &BTreeMap<&'static str, f64>,
    m: &Multiplicity,
    cpu_us_per_tuple: f64,
    idle_cpu_cores: f64,
    goodput_tps: f64,
) -> Budget {
    let big = spec.payload_len >= 1024;
    let pick = |small: &'static str, large: &'static str| if big { large } else { small };
    let mut lines = Vec::new();
    let mut line = |what, probe: &'static str, calls_per_tuple: f64| {
        lines.push(Line {
            what,
            probe,
            ns_per_call: probes.get(probe).copied().unwrap_or(0.0),
            calls_per_tuple,
        });
    };
    // Emissions routed by a framework layer: one `route`, which encodes.
    line("route + encode", "core.framework.route_ns", m.routed);
    // Serializations `route` did not do: ack and ack-result messages.
    let acks = (m.ser - m.routed).max(0.0);
    line(
        "encode (ack frames)",
        pick("tuple.encode_ns", "tuple.encode_ns.big"),
        acks,
    );
    // Every serialized blob is enqueued once (batcher, packetize, ring).
    line("enqueue + pack + ring", "core.io.enqueue_ns", m.ser);
    line("ring + depacketize", "core.io.poll_ingress_ns", m.deser);
    line(
        "decode",
        pick("tuple.decode_ns", "tuple.decode_ns.big"),
        m.deser,
    );
    // A frame is switched on its sender's host and again on each host it
    // reaches through a tunnel.
    let switched = m.frames + m.tunnel_frames;
    line(
        "switch round (hit)",
        if spec.shape == Shape::Fanout {
            "switch.round_ns.group4"
        } else {
            "switch.round_ns.unicast"
        },
        switched * (1.0 - m.miss_share),
    );
    line(
        "switch round (miss)",
        "switch.round_ns.miss",
        switched * m.miss_share,
    );
    if spec.tcp {
        line("tcp tunnel", "net.tunnel.tcp_frame_ns", m.tunnel_frames);
    }
    if spec.acked {
        line("acker ledger", "core.acker.apply_ns", acks);
        line("latency histogram", "metrics.histogram_record_ns", 1.0);
    }
    // tuples.emitted per route, tuples.received per decoded data tuple.
    line("counters", "metrics.counter_add_ns", m.routed + m.deser);
    Budget {
        lines,
        cpu_us_per_tuple,
        idle_us_per_tuple: idle_cpu_cores * 1e6 / goodput_tps.max(1.0),
    }
}

/// Prints the budget as a table.
pub fn print(spec: &Workload, b: &Budget) {
    println!(
        "# {}: budget                 probe                         ns/call  calls/tuple   us/tuple",
        spec.name
    );
    for l in &b.lines {
        println!(
            "# {} {:<22} {:<28} {:>9.1} {:>12.4} {:>10.4}",
            spec.name,
            l.what,
            l.probe,
            l.ns_per_call,
            l.calls_per_tuple,
            l.us()
        );
    }
    println!(
        "# {}: explained {:.4} us of {:.4} us/tuple measured -> unexplained {:.1} % \
         (idle polling alone would be {:.4} us/tuple)",
        spec.name,
        b.explained_us(),
        b.cpu_us_per_tuple,
        b.unexplained_ratio() * 100.0,
        b.idle_us_per_tuple,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explained_is_the_sum_of_probe_times_multiplicity() {
        let spec = Workload::by_name("ack_remote").unwrap();
        let probes: BTreeMap<&'static str, f64> = crate::metrics::PROBES
            .iter()
            .map(|&(n, _, _)| (n, 100.0))
            .collect();
        let m = Multiplicity {
            ser: 4.0,
            deser: 4.0,
            routed: 1.0,
            frames: 0.1,
            tunnel_frames: 0.1,
            miss_share: 0.5,
        };
        let b = reconcile(spec, &probes, &m, 10.0, 0.5, 100_000.0);
        // route 1 + ack encodes 3 + enqueue 4 + poll 4 + decode 4
        // + switch 0.2 + tunnel 0.1 + acker 3 + histogram 1 + counters 5,
        // each at 100 ns.
        let calls: f64 = b.lines.iter().map(|l| l.calls_per_tuple).sum();
        assert!((calls - 25.3).abs() < 1e-9, "{calls}");
        assert!((b.explained_us() - 2.53).abs() < 1e-9);
        assert!((b.unexplained_ratio() - 0.747).abs() < 1e-9);
        assert!((b.idle_us_per_tuple - 5.0).abs() < 1e-9);
    }

    #[test]
    fn local_unacked_workloads_skip_tunnel_and_acker_lines() {
        let spec = Workload::by_name("fwd_tput").unwrap();
        let b = reconcile(
            spec,
            &BTreeMap::new(),
            &Multiplicity::default(),
            1.0,
            0.0,
            1.0,
        );
        assert!(b
            .lines
            .iter()
            .all(|l| !l.probe.contains("tunnel") && !l.probe.contains("acker")));
    }
}
