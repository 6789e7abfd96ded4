//! The five workloads, and the rig that deploys one on a `TyphoonCluster`.
//!
//! Rates are fixed and sized for two cores: each workload keeps about one
//! core busy and none is saturated (README.md, "Sizing"). Everything is
//! driven through the cluster's public API.

use crate::clock::now_ns;
use crate::gen::{GenShared, PacedSpout, Payload, Schedule, SAMPLE_EVERY, WORDS_PER_SENTENCE};
use crate::sinks::{CountSink, SeqSink, SinkBoard, SplitBolt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use typhoon_core::{TyphoonCluster, TyphoonConfig, TyphoonTopologyHandle};
use typhoon_model::{ComponentRegistry, Fields, Grouping, HostId, LogicalTopology, TaskId};
use typhoon_net::MacAddr;
use typhoon_openflow::{Action, FlowMatch, FlowMod, PortNo};

/// The shape of a workload's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// source → `sinks` sink tasks; one copy to one sink (`Global`).
    Forward,
    /// source → `sinks` sink tasks; a copy to every sink (`All`).
    Fanout,
    /// sentence source → split×2 (shuffle) → count×`sinks` (fields on word).
    WordCount,
}

/// One workload: a fixed offered load on a fixed topology.
#[derive(Debug)]
pub struct Workload {
    /// Name (final; `BENCHMARK.json` lists the same five).
    pub name: &'static str,
    /// Why it is in the suite, in one line.
    pub why: &'static str,
    /// Topology shape.
    pub shape: Shape,
    /// Generator rate, tuples per second.
    pub rate: u64,
    /// Payload bytes per tuple (ignored by `WordCount`: six-word sentences).
    pub payload_len: usize,
    /// Final-operator tasks.
    pub sinks: usize,
    /// Simulated hosts.
    pub hosts: usize,
    /// Worker slots per host (what spreads the tasks over the hosts).
    pub slots_per_host: usize,
    /// Loopback `TcpTunnel`s between hosts instead of in-memory pipes.
    pub tcp: bool,
    /// Guaranteed processing: latency ends at the spout's `ack` callback.
    pub acked: bool,
    /// FlowMods per second per host toggling an unrelated rule.
    pub churn_hz: u64,
}

impl Workload {
    /// Executions at the final operators per generated tuple.
    pub fn fanout(&self) -> u64 {
        match self.shape {
            Shape::Forward => 1,
            Shape::Fanout => self.sinks as u64,
            Shape::WordCount => WORDS_PER_SENTENCE as u64,
        }
    }

    /// The node whose tasks are the final operators.
    pub fn final_node(&self) -> &'static str {
        match self.shape {
            Shape::WordCount => "count",
            _ => "sink",
        }
    }

    /// The simulated hosts.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.hosts as u32).map(HostId)
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// The suite. Names and rates are part of the benchmark's definition.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fwd_lat",
        why: "20 k t/s on one host: batches never fill, so timers, idle sleeps and wake-ups set latency and CPU",
        shape: Shape::Forward,
        rate: 20_000,
        payload_len: 100,
        sinks: 1,
        hosts: 1,
        slots_per_host: 16,
        tcp: false,
        acked: false,
        churn_hz: 0,
    },
    Workload {
        name: "fwd_tput",
        why: "100 k t/s, same topology: batches fill, one cached flow; ser, batcher, ring and switch fast path do all the work",
        shape: Shape::Forward,
        rate: 100_000,
        payload_len: 100,
        sinks: 1,
        hosts: 1,
        slots_per_host: 16,
        tcp: false,
        acked: false,
        churn_hz: 0,
    },
    Workload {
        name: "ack_remote",
        why: "40 k t/s acked across hosts over TCP: the only workload where the acker, ack frames and tunnel syscalls matter",
        shape: Shape::Forward,
        rate: 40_000,
        payload_len: 100,
        sinks: 1,
        hosts: 3,
        slots_per_host: 1,
        tcp: true,
        acked: true,
        churn_hz: 0,
    },
    Workload {
        name: "fanout_big",
        why: "20 k t/s of 1 KiB to 4 sinks on 3 hosts: one serialization, switch replication, bytes-bound tunnel and decode x4",
        shape: Shape::Fanout,
        rate: 20_000,
        payload_len: 1024,
        sinks: 4,
        hosts: 3,
        slots_per_host: 2,
        tcp: true,
        acked: false,
        churn_hz: 0,
    },
    Workload {
        name: "wc_churn",
        why: "word count at 120 k words/s under 50 FlowMods/s/host: tiny tuples, many flows, small batches, table writes beside reads",
        shape: Shape::WordCount,
        rate: 20_000,
        payload_len: 0,
        sinks: 2,
        hosts: 2,
        slots_per_host: 3,
        tcp: true,
        acked: false,
        churn_hz: 50,
    },
];

/// `max_pending` on acked workloads: far above rate × latency, so the spout
/// is never throttled and the loop stays open.
const OPEN_LOOP_MAX_PENDING: usize = 1 << 20;
/// `ack_timeout` on acked workloads: long enough that no root times out.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

fn topology(w: &Workload) -> LogicalTopology {
    let b = LogicalTopology::builder(w.name);
    let built = match w.shape {
        Shape::Forward | Shape::Fanout => b
            .spout("source", "paced", 1, Fields::new(["due", "seq", "payload"]))
            .bolt("sink", "seq-sink", w.sinks, Fields::new(["due"]))
            .edge(
                "source",
                "sink",
                if w.shape == Shape::Fanout {
                    Grouping::All
                } else {
                    Grouping::Global
                },
            ),
        Shape::WordCount => b
            .spout(
                "source",
                "paced",
                1,
                Fields::new(["due", "seq", "sentence"]),
            )
            .bolt("split", "split", 2, Fields::new(["due", "seq", "word"]))
            .bolt("count", "count-sink", w.sinks, Fields::new(["word"]))
            .edge("source", "split", Grouping::Shuffle)
            .edge("split", "count", Grouping::Fields(vec!["word".into()])),
    };
    built.build().expect("the suite's topologies are valid")
}

/// A deployed workload: cluster up, topology submitted, generator held.
pub struct Rig {
    /// The workload.
    pub spec: &'static Workload,
    /// The cluster under test.
    pub cluster: TyphoonCluster,
    /// The submitted topology.
    pub handle: TyphoonTopologyHandle,
    /// Generator state.
    pub gen: Arc<GenShared>,
    /// Final-operator states.
    pub board: SinkBoard,
    /// Tuples the generator will emit.
    pub limit: u64,
    /// When `deploy` started, ns since the process epoch.
    pub deploy_started_ns: u64,
    churn: Option<(Arc<AtomicBool>, JoinHandle<u64>)>,
}

impl Rig {
    /// Builds the cluster and submits the topology; returns once every
    /// worker is ready. The generator emits `limit` tuples after
    /// [`Rig::release`]. `trace_sample` > 0 turns the tuple tracer on.
    pub fn deploy(spec: &'static Workload, seed: u64, limit: u64, trace_sample: u32) -> Rig {
        let deploy_started_ns = now_ns();
        // Sample logs are sized up front: a reallocation inside a timed
        // `execute` would be charged to the system as latency.
        let timed = (limit / SAMPLE_EVERY) as usize + 64;
        let per_sink = timed * spec.fanout() as usize / spec.sinks;
        let gen = Arc::new(GenShared::with_reserve(timed, spec.acked));
        let board = SinkBoard::with_reserve(match spec.shape {
            // Words hash unevenly over the count tasks.
            Shape::WordCount => per_sink * 3 / 2,
            _ => per_sink,
        });
        let mut reg = ComponentRegistry::new();
        let schedule = Schedule::new(seed, spec.rate);
        let payload = match spec.shape {
            Shape::WordCount => Payload::Sentence(seed),
            _ => Payload::fixed(seed, spec.payload_len),
        };
        let g = gen.clone();
        reg.register_spout("paced", move || {
            PacedSpout::new(schedule, payload.clone(), limit, g.clone())
        });
        let b = board.clone();
        reg.register_bolt("seq-sink", move || SeqSink::new(&b));
        let b = board.clone();
        reg.register_bolt("count-sink", move || CountSink::new(&b));
        reg.register_bolt("split", || SplitBolt);

        let mut config = TyphoonConfig::new(spec.hosts).with_trace(trace_sample);
        config.slots_per_host = spec.slots_per_host;
        if spec.tcp {
            config = config.with_tcp_tunnels();
        }
        if spec.acked {
            config = config.with_acking(ACK_TIMEOUT, OPEN_LOOP_MAX_PENDING);
        }
        let cluster = TyphoonCluster::new(config, reg).expect("cluster boots");
        let handle = cluster.submit(topology(spec)).expect("topology deploys");
        Rig {
            spec,
            cluster,
            handle,
            gen,
            board,
            limit,
            deploy_started_ns,
            churn: None,
        }
    }

    /// Releases the generator (and starts the rule churn, if the workload
    /// has any). Returns `t0`.
    pub fn release(&mut self) -> u64 {
        if self.spec.churn_hz > 0 {
            self.churn = Some(spawn_churn(&self.cluster, self.spec));
        }
        self.gen.open()
    }

    /// Executions the final operators owe once everything is delivered.
    pub fn expected(&self) -> u64 {
        self.limit * self.spec.fanout()
    }

    /// Blocks until the final operators executed `n` tuples or `timeout`
    /// passed; returns the time it saw them, ns since the process epoch.
    pub fn wait_delivered(&self, n: u64, timeout: Duration) -> Option<u64> {
        let deadline = now_ns() + timeout.as_nanos() as u64;
        loop {
            let now = now_ns();
            if self.board.delivered() >= n {
                return Some(now);
            }
            if now > deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200)); // LINT: allow-sleep(harness poll on the main thread, bounded by the deadline above)
        }
    }

    /// Tasks of every node plus the acker, as `(node, task, host)`.
    pub fn placement(&self) -> Vec<(String, TaskId, HostId)> {
        self.handle
            .physical()
            .map(|p| {
                p.assignments
                    .iter()
                    .map(|a| (a.node.clone(), a.task, a.host))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Stops the churn thread, returning the FlowMods it sent.
    pub fn stop_churn(&mut self) -> u64 {
        match self.churn.take() {
            Some((stop, thread)) => {
                stop.store(true, Ordering::Release);
                thread.join().expect("churn thread panicked")
            }
            None => 0,
        }
    }

    /// Stops everything and joins every thread the rig started.
    pub fn shutdown(mut self) {
        self.stop_churn();
        self.cluster.shutdown();
    }
}

/// A priority-1 rule matching a MAC no worker has (`tag` picks the MAC),
/// and the `FlowMod` that deletes it again. Installing or removing it
/// changes no forwarding decision but bumps the megaflow generation.
pub fn unrelated_rule(tag: u16) -> (FlowMod, FlowMod) {
    let add = FlowMod::add(
        1,
        FlowMatch::any()
            .dl_src(MacAddr::worker(tag, TaskId(u32::from(tag))))
            .ether_type(typhoon_net::TYPHOON_ETHERTYPE),
        vec![Action::Output(PortNo(u32::from(tag)))],
    );
    let mut del = FlowMod::delete(add.matcher);
    del.priority = add.priority;
    (add, del)
}

/// Toggles [`unrelated_rule`] on every host at `churn_hz` FlowMods per second
/// per host until stopped. Every FlowMod bumps the megaflow generation, so
/// the datapath re-validates its cached flows beside live traffic.
fn spawn_churn(
    cluster: &TyphoonCluster,
    spec: &'static Workload,
) -> (Arc<AtomicBool>, JoinHandle<u64>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let controller = cluster.controller();
    let hosts: Vec<HostId> = spec.host_ids().collect();
    let period_ns = 1_000_000_000 / spec.churn_hz;
    let thread = std::thread::Builder::new()
        .name("perf-churn".into())
        .spawn(move || {
            let (add, del) = unrelated_rule(0x7fff);
            let started = now_ns();
            let mut sent = 0u64;
            let mut round = 0u64;
            while !stop2.load(Ordering::Acquire) {
                let due = started + round * period_ns;
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos((due - now).min(5_000_000))); // LINT: allow-sleep(paces the rule churn on the bench's own thread)
                    continue;
                }
                let fm = if round.is_multiple_of(2) { &add } else { &del };
                for &host in &hosts {
                    sent += u64::from(controller.send_flow_mod(host, fm.clone()));
                }
                round += 1;
            }
            sent
        })
        .expect("spawn churn thread");
    (stop, thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_topologies_validate() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::json::valid_metric_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            topology(w).validate().expect(w.name);
            assert_eq!(Workload::by_name(w.name).map(|x| x.rate), Some(w.rate));
            let tasks = match w.shape {
                Shape::WordCount => 3 + w.sinks,
                _ => 1 + w.sinks,
            };
            assert!(tasks <= w.hosts * w.slots_per_host, "{} fits", w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn unrelated_rule_matches_no_worker_traffic() {
        let (rule, del) = unrelated_rule(0x7fff);
        assert_eq!((rule.priority, del.priority), (1, 1));
        assert_eq!(del.matcher, rule.matcher);
        let meta = typhoon_openflow::FrameMeta {
            in_port: PortNo(1),
            dl_src: MacAddr::worker(1, TaskId(0)),
            dl_dst: MacAddr::worker(1, TaskId(1)),
            ether_type: typhoon_net::TYPHOON_ETHERTYPE,
        };
        assert!(!rule.matcher.matches(&meta));
    }
}
