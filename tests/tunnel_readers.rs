//! A TCP tunnel's reader thread hands what it decodes to its switch, yet
//! must not keep that switch alive: the switch owns the endpoint whose
//! drop ends the reader. So shutting a cluster down and dropping it ends
//! every `tcp-tunnel-reader` it started, counted from `/proc/self/task/*/comm`
//! (cut at 15 bytes: `tcp-tunnel-read`). And a cluster stops when its last
//! handle is dropped, with no `shutdown()`: every thread it started, of
//! every name, is gone within a second, in both tunnel modes and when the
//! drop is a panic's unwind. Its own binary, so no other test's threads
//! share the process; the tests here take turns.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use typhoon::net::{FaultPlan, KillSpec};
use typhoon::prelude::*;

const CLUSTERS: usize = 20;

/// One test at a time: each counts every cluster thread in the process.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The kernel's name of every thread in this process.
fn comms() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .collect()
}

fn readers() -> Vec<String> {
    let mut readers = comms();
    readers.retain(|c| c == "tcp-tunnel-read");
    readers
}

/// What a cluster names its threads: `datapath-<host>`, `sdn-controller`,
/// `ctl-ha-monitor`, `typhoon-manager`, `typhoon-chaos-k(iller)`, the
/// workers' `typhoon-<node>-<task>` and `tcp-tunnel-read`.
const CLUSTER_THREADS: [&str; 5] = [
    "datapath-",
    "sdn-controller",
    "ctl-",
    "typhoon-",
    "tcp-tunnel-read",
];

fn cluster_threads() -> Vec<String> {
    let mut names: Vec<String> = comms()
        .into_iter()
        .filter(|c| CLUSTER_THREADS.iter().any(|p| c.starts_with(p)))
        .collect();
    names.sort();
    names
}

/// Waits up to `limit` for every thread `threads` lists to end; what is
/// left then.
fn left_after(limit: Duration, threads: impl Fn() -> Vec<String>) -> Vec<String> {
    let deadline = Instant::now() + limit;
    loop {
        let left = threads();
        if left.is_empty() || Instant::now() >= deadline {
            return left;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn dropping_a_cluster_ends_its_tunnel_readers() {
    let _serial = serial();
    assert_eq!(readers().len(), 0);
    for i in 0..CLUSTERS {
        let config = TyphoonConfig::new(3).with_tcp_tunnels();
        let cluster = TyphoonCluster::new(config, ComponentRegistry::new()).unwrap();
        // Three hosts, a full mesh: three links, a reader at each end.
        let started = readers().len();
        assert_eq!(started, 6, "cluster {i} started one reader per endpoint");
        cluster.shutdown();
        drop(cluster);
        let left = left_after(Duration::from_secs(10), readers);
        assert!(
            left.is_empty(),
            "cluster {i} left {} reader(s) running",
            left.len()
        );
    }
}

/// A spout with nothing to emit, polled until it stops.
struct Quiet;

impl Spout for Quiet {
    fn next_batch(&mut self, _out: &mut dyn Emitter) -> bool {
        false
    }
}

struct Sink;

impl Bolt for Sink {
    fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
}

/// A running two-host cluster with every kind of thread it can start: a
/// topology's workers on both hosts and a chaos killer waiting out a kill
/// armed an hour away.
fn busy_cluster(tcp: bool) -> (TyphoonCluster, TyphoonTopologyHandle) {
    let mut components = ComponentRegistry::new();
    components.register_spout("quiet", || Quiet);
    components.register_bolt("sink", || Sink);
    let plan = FaultPlan::clean(7).with_kill(KillSpec::worker(Duration::from_secs(3600)));
    let mut config = TyphoonConfig::new(2).with_chaos(plan);
    config.slots_per_host = 2;
    if tcp {
        config = config.with_tcp_tunnels();
    }
    let cluster = TyphoonCluster::new(config, components).unwrap();
    let topology = LogicalTopology::builder("quiet")
        .spout("src", "quiet", 1, Fields::new(["n"]))
        .bolt("out", "sink", 2, Fields::new(["n"]))
        .edge("src", "out", Grouping::Shuffle)
        .build()
        .unwrap();
    let handle = cluster.submit(topology).unwrap();
    let names = cluster_threads();
    let mut expected = vec![
        "datapath-0",
        "datapath-1",
        "sdn-controller",
        "ctl-ha-monitor",
        "typhoon-manager",
        "typhoon-chaos-k",
        "typhoon-src-t",
        "typhoon-out-t",
    ];
    if tcp {
        expected.push("tcp-tunnel-read");
    }
    for name in expected {
        assert!(
            names.iter().any(|n| n.starts_with(name)),
            "no {name} thread in {names:?}"
        );
    }
    (cluster, handle)
}

fn bare_drop_leaves_no_thread(tcp: bool) {
    let _serial = serial();
    assert_eq!(cluster_threads(), Vec::<String>::new());
    let (cluster, handle) = busy_cluster(tcp);
    // The topology handle is a handle on the cluster too.
    drop(handle);
    drop(cluster);
    let left = left_after(Duration::from_secs(1), cluster_threads);
    assert!(left.is_empty(), "a second after the drop: {left:?}");
}

#[test]
fn a_dropped_cluster_leaves_no_thread_with_in_memory_tunnels() {
    bare_drop_leaves_no_thread(false);
}

#[test]
fn a_dropped_cluster_leaves_no_thread_with_tcp_tunnels() {
    bare_drop_leaves_no_thread(true);
}

/// A test that panics before its `shutdown()` drops its cluster during the
/// unwind: the drop must neither hang nor leave a thread behind.
#[test]
fn a_cluster_dropped_by_a_panic_stops_too() {
    let _serial = serial();
    assert_eq!(cluster_threads(), Vec::<String>::new());
    let panicked = std::thread::spawn(|| {
        let (_cluster, _handle) = busy_cluster(true);
        panic!("a failing assertion, before any shutdown()");
    })
    .join();
    assert!(panicked.is_err());
    let left = left_after(Duration::from_secs(1), cluster_threads);
    assert!(left.is_empty(), "a second after the unwind: {left:?}");
}
