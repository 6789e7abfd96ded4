//! What an idle deployed cluster costs. Two in-process hosts run two
//! spouts and four sinks with acking on; once the spouts are deactivated
//! and the last tuples are acked, nothing has work. Every thread must then
//! park until a ring or a deadline of its own (a role timer, the switch's
//! rule-expiry sweep, the controller's app tick), so each wakes at most a
//! few times a second and the process as a whole uses almost no CPU.
//!
//! And what traffic costs the switches' datapath threads: none of it. A
//! tunnel hands each arrival to its switch on the thread that delivers it,
//! so with 10 k tuples/s crossing hosts each `datapath-<n>` still wakes
//! only for control, expiry and teardown, in both tunnel modes.
//!
//! Measured from `/proc/self/task/*/{comm,status}` (voluntary context
//! switches per thread) and `/proc/self/stat` (process `utime + stime`)
//! over a 2 s window. Its own binary, so no other test's threads share the
//! process; the cases take turns.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon::controller::ControlTuple;
use typhoon::core::SchedulerKind;
use typhoon::prelude::*;

/// Tuples each spout emits before it runs dry.
const PER_SPOUT: u64 = 2_000;
/// The measured window.
const WINDOW: Duration = Duration::from_secs(2);
/// Voluntary context switches per second allowed to any one thread.
const MAX_WAKEUPS_PER_S: f64 = 20.0;
/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;
/// Each paced spout's rate under traffic.
const SPOUT_RATE: u32 = 5_000;

/// One case at a time: each measured window has the process to itself.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Finite {
    left: u64,
}

impl Spout for Finite {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        out.emit(vec![Value::Int(self.left as i64)]);
        true
    }
}

/// Emits `SPOUT_RATE` tuples a second, evenly: each call emits what fell
/// due since the last, so every poll of the spout flushes a few tuples.
#[derive(Default)]
struct Paced {
    start: Option<Instant>,
    sent: u64,
}

impl Spout for Paced {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        let start = *self.start.get_or_insert_with(Instant::now);
        let due = (start.elapsed().as_secs_f64() * SPOUT_RATE as f64) as u64;
        if self.sent >= due {
            return false;
        }
        for n in self.sent..due {
            out.emit(vec![Value::Int(n as i64)]);
        }
        self.sent = due;
        true
    }
}

struct CountSink {
    seen: Arc<AtomicU64>,
}

impl Bolt for CountSink {
    fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// `(comm, voluntary context switches)` of every live thread, by tid.
fn threads() -> BTreeMap<String, (String, u64)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = entry.expect("task entry").path();
        let tid = dir
            .file_name()
            .expect("a tid")
            .to_string_lossy()
            .into_owned();
        // A thread that exits between the listing and the read is skipped.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches");
        out.insert(tid, (comm.trim().to_owned(), voluntary));
    }
    out
}

/// The process's `utime + stime`, in ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the `)` that closes the comm: state is the first, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("comm") + 2..];
    let ticks = |field: &str| field.parse::<u64>().expect("a tick count");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    ticks(fields[11]) + ticks(fields[12])
}

/// Polls `done` every 10 ms until it holds; panics with `what` after 30 s.
fn wait_for(what: impl Fn() -> String, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "{}", what());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Voluntary context switches per second of every thread over `WINDOW`,
/// busiest first, labelled `comm (tid)`.
fn wakeups_over_window() -> Vec<(f64, String)> {
    let (before, t0) = (threads(), Instant::now());
    std::thread::sleep(WINDOW);
    let (after, secs) = (threads(), t0.elapsed().as_secs_f64());
    let mut rates: Vec<(f64, String)> = after
        .iter()
        .map(|(tid, (comm, n))| {
            let start = before.get(tid).map_or(0, |(_, m)| *m);
            ((n - start) as f64 / secs, format!("{comm} ({tid})"))
        })
        .collect();
    rates.sort_by(|a, b| b.0.total_cmp(&a.0));
    rates
}

#[test]
fn an_idle_cluster_parks_every_thread() {
    let _serial = serial();
    let seen = Arc::new(AtomicU64::new(0));
    let mut reg = ComponentRegistry::new();
    reg.register_spout("finite", || Finite { left: PER_SPOUT });
    let s = seen.clone();
    reg.register_bolt("sink", move || CountSink { seen: s.clone() });
    let topo = LogicalTopology::builder("idle")
        .spout("src", "finite", 2, Fields::new(["n"]))
        .bolt("out", "sink", 4, Fields::new(["n"]))
        .edge("src", "out", Grouping::Shuffle)
        .build()
        .unwrap();
    let config = TyphoonConfig::new(2).with_acking(Duration::from_secs(5), 1_000);
    let cluster = TyphoonCluster::new(config, reg).unwrap();
    let handle = cluster.submit(topo).unwrap();

    // Run dry, then deactivate: the spouts stop asking `next_batch`.
    wait_for(
        || format!("only {seen:?} tuples arrived"),
        || seen.load(Ordering::Relaxed) >= 2 * PER_SPOUT,
    );
    for spout in handle.tasks_of("src") {
        assert!(cluster
            .controller()
            .send_control(handle.app(), spout, &ControlTuple::Deactivate));
    }
    // Every root acked: the spouts' and the acker's sweeps disarm.
    let metrics = |task| handle.worker(task).unwrap().registry.snapshot();
    let acked = || {
        let spouts = handle.tasks_of("src").into_iter();
        spouts
            .map(|t| metrics(t).counter("acks.completed"))
            .sum::<u64>()
    };
    wait_for(
        || format!("only {} roots acked", acked()),
        || acked() >= 2 * PER_SPOUT,
    );
    std::thread::sleep(Duration::from_millis(500));

    let (cpu_before, t0) = (cpu_ticks(), Instant::now());
    let rates = wakeups_over_window();
    let (cpu_after, secs) = (cpu_ticks(), t0.elapsed().as_secs_f64());
    let cpu = (cpu_after - cpu_before) as f64 / TICKS_PER_S / secs;
    println!("process CPU: {:.2} % of one vCPU", cpu * 100.0);
    for (rate, thread) in &rates {
        println!("{rate:>8.1} wake-ups/s  {thread}");
    }
    let busy: Vec<_> = rates
        .iter()
        .filter(|(rate, _)| *rate > MAX_WAKEUPS_PER_S)
        .collect();
    assert!(
        busy.is_empty(),
        "threads waking > {MAX_WAKEUPS_PER_S}/s: {busy:?}"
    );
    assert!(
        cpu < 0.01,
        "idle process used {:.2} % of a vCPU",
        cpu * 100.0
    );
    cluster.shutdown();
}

/// Two hosts, round-robin placement, two spouts paced at 5 k tuples/s each
/// shuffling to four sinks: about half the tuples cross hosts. Over a
/// 2 s window while they flow, each host's `datapath-<n>` thread wakes at
/// most `MAX_WAKEUPS_PER_S` times a second.
fn traffic_does_not_wake_the_datapath(config: TyphoonConfig) {
    let _serial = serial();
    let seen = Arc::new(AtomicU64::new(0));
    let mut reg = ComponentRegistry::new();
    reg.register_spout("paced", Paced::default);
    let s = seen.clone();
    reg.register_bolt("sink", move || CountSink { seen: s.clone() });
    let topo = LogicalTopology::builder("paced")
        .spout("src", "paced", 2, Fields::new(["n"]))
        .bolt("out", "sink", 4, Fields::new(["n"]))
        .edge("src", "out", Grouping::Shuffle)
        .build()
        .unwrap();
    let mut config = config;
    config.scheduler = SchedulerKind::RoundRobin;
    let cluster = TyphoonCluster::new(config, reg).unwrap();
    cluster.submit(topo).unwrap();
    // Past set-up: a second's worth of tuples.
    wait_for(
        || format!("only {seen:?} tuples arrived"),
        || seen.load(Ordering::Relaxed) >= 2 * SPOUT_RATE as u64,
    );

    let (seen_before, t0) = (seen.load(Ordering::Relaxed), Instant::now());
    let rates = wakeups_over_window();
    let secs = t0.elapsed().as_secs_f64();
    let rate = (seen.load(Ordering::Relaxed) - seen_before) as f64 / secs;
    for (wakeups, thread) in &rates {
        println!("{wakeups:>8.1} wake-ups/s  {thread}");
    }
    println!("{rate:.0} tuples/s delivered");
    assert!(
        rate >= SPOUT_RATE as f64,
        "paced traffic did not flow: {rate:.0} tuples/s"
    );
    let datapaths: Vec<_> = rates
        .iter()
        .filter(|(_, thread)| thread.starts_with("datapath-"))
        .collect();
    assert_eq!(datapaths.len(), 2, "one datapath thread per host");
    let busy: Vec<_> = datapaths
        .iter()
        .filter(|(wakeups, _)| *wakeups > MAX_WAKEUPS_PER_S)
        .collect();
    assert!(
        busy.is_empty(),
        "datapath threads waking > {MAX_WAKEUPS_PER_S}/s under traffic: {busy:?}"
    );
    cluster.shutdown();
}

#[test]
fn traffic_does_not_wake_the_datapath_over_in_memory_tunnels() {
    traffic_does_not_wake_the_datapath(TyphoonConfig::new(2));
}

#[test]
fn traffic_does_not_wake_the_datapath_over_tcp_tunnels() {
    traffic_does_not_wake_the_datapath(TyphoonConfig::new(2).with_tcp_tunnels());
}
