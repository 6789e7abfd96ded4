//! Live debugging with switch-level packet mirroring (§4's live-debugger
//! control-plane application).
//!
//! A pipeline runs at full speed; a debug worker is attached to the
//! running topology and the switch mirrors the source's tuples to it —
//! without touching the application layer or its throughput. The debug
//! worker pretty-prints a sample of what it sees, then the mirror is torn
//! down with a strict-priority rule delete.
//!
//! ```sh
//! cargo run --release --example sdn_debugging
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use typhoon::controller::apps::LiveDebugger;
use typhoon::openflow::PortNo;
use typhoon::prelude::*;

struct Events {
    n: i64,
}

impl Spout for Events {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for _ in 0..8 {
            let kind = ["login", "click", "logout"][(self.n % 3) as usize];
            out.emit(vec![Value::Int(self.n), Value::Str(kind.into())]);
            self.n += 1;
        }
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

/// The debug worker: custom display format, samples 1 in 10_000.
struct DebugProbe {
    captured: Arc<Mutex<Vec<String>>>,
    n: u64,
}

impl Bolt for DebugProbe {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        self.n += 1;
        if self.n % 10_000 == 1 {
            self.captured.lock().unwrap().push(format!(
                "[probe] tuple #{}: seq={} kind={}",
                self.n,
                input.get(0).and_then(Value::as_int).unwrap_or(-1),
                input.get(1).and_then(Value::as_str).unwrap_or("?"),
            ));
        }
    }
}

fn main() {
    let seen = Arc::new(AtomicU64::new(0));
    let captured: Arc<Mutex<Vec<String>>> = Arc::default();
    let mut components = ComponentRegistry::new();
    components.register_spout("events", || Events { n: 0 });
    let s = seen.clone();
    components.register_bolt("sink", move || CountSink { seen: s.clone() });
    let c = captured.clone();
    components.register_bolt("probe", move || DebugProbe {
        captured: c.clone(),
        n: 0,
    });

    let topology = LogicalTopology::builder("debuggable")
        .spout("source", "events", 1, Fields::new(["seq", "kind"]))
        .bolt("sink", "sink", 1, Fields::new(["seq"]))
        .bolt("probe", "probe", 1, Fields::new(["seq"]))
        .edge("source", "sink", Grouping::Global)
        .build()
        .unwrap();

    let cluster =
        TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(100), components).unwrap();
    let handle = cluster.submit(topology).unwrap();
    let physical = handle.physical().unwrap();
    let src = handle.tasks_of("source")[0];
    let sink = handle.tasks_of("sink")[0];
    let probe = handle.tasks_of("probe")[0];
    let port_of = |t: TaskId| PortNo(physical.assignment(t).unwrap().switch_port);

    std::thread::sleep(Duration::from_secs(2));
    let before = seen.load(Ordering::Relaxed);
    println!("pipeline running: {before} tuples delivered in 2s");

    println!("\nattaching switch-level mirror source→probe (no app changes)…");
    let mut debugger = LiveDebugger::new();
    debugger.mirror_task(
        &cluster.controller(),
        handle.app(),
        physical.assignment(src).unwrap().host,
        src,
        port_of(src),
        &[(sink, port_of(sink))],
        port_of(probe),
    );
    std::thread::sleep(Duration::from_secs(2));
    println!("probe captured while mirroring:");
    for line in captured.lock().unwrap().iter() {
        println!("  {line}");
    }

    debugger.unmirror(&cluster.controller());
    // Let in-flight mirrored frames drain, then confirm the tap is silent.
    std::thread::sleep(Duration::from_millis(500));
    let snapshot = captured.lock().unwrap().len();
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(
        snapshot,
        captured.lock().unwrap().len(),
        "mirror fully detached"
    );
    println!("\nmirror detached; pipeline was never interrupted:");
    println!(
        "  {} tuples delivered in total",
        seen.load(Ordering::Relaxed)
    );
    cluster.shutdown();
    println!("done.");
}
