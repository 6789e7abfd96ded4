//! What an idle deployed cluster costs. Two in-process hosts run two
//! spouts and four sinks with acking on; once the spouts are deactivated
//! and the last tuples are acked, nothing has work. Every thread must then
//! park until a ring or a deadline of its own (a role timer, the switch's
//! rule-expiry sweep, the controller's app tick), so each wakes at most a
//! few times a second and the process as a whole uses almost no CPU.
//!
//! Measured from `/proc/self/task/*/{comm,status}` (voluntary context
//! switches per thread) and `/proc/self/stat` (process `utime + stime`)
//! over a 2 s window. Its own binary, so no other test's threads share the
//! process.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon::controller::ControlTuple;
use typhoon::prelude::*;

/// Tuples each spout emits before it runs dry.
const PER_SPOUT: u64 = 2_000;
/// The measured window.
const WINDOW: Duration = Duration::from_secs(2);
/// Voluntary context switches per second allowed to any one thread.
const MAX_WAKEUPS_PER_S: f64 = 20.0;
/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;

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

#[test]
fn an_idle_cluster_parks_every_thread() {
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
    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.load(Ordering::Relaxed) < 2 * PER_SPOUT {
        assert!(Instant::now() < deadline, "only {seen:?} tuples arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
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
    while acked() < 2 * PER_SPOUT {
        assert!(Instant::now() < deadline, "only {} roots acked", acked());
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(500));

    let (before, cpu_before, t0) = (threads(), cpu_ticks(), Instant::now());
    std::thread::sleep(WINDOW);
    let (after, cpu_after, secs) = (threads(), cpu_ticks(), t0.elapsed().as_secs_f64());

    let mut rates: Vec<(f64, String)> = after
        .iter()
        .map(|(tid, (comm, n))| {
            let start = before.get(tid).map_or(0, |(_, m)| *m);
            ((n - start) as f64 / secs, format!("{comm} ({tid})"))
        })
        .collect();
    rates.sort_by(|a, b| b.0.total_cmp(&a.0));
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
