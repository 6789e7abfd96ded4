//! The §8 extension: pause-and-resume worker relocation.
//!
//! "In case of relocating a stateful worker from one host to another,
//! Typhoon can simply 'pause-and-resume' the worker via control tuples
//! (e.g., SIGNAL and (DE)ACTIVATE tuples), while its state remains in an
//! external storage." The relocated worker's replacement lands on the
//! target host, predecessors are rerouted, no tuple is lost, and
//! externally-stored state survives the move.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon::kv::KvStore;
use typhoon::model::HostId;
use typhoon::prelude::*;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

struct Seq {
    next: i64,
    limit: i64,
}

impl Spout for Seq {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for _ in 0..4 {
            if self.next >= self.limit {
                return false;
            }
            out.emit(vec![Value::Int(self.next)]);
            self.next += 1;
        }
        true
    }
}

/// A stateful counter whose durable state lives in the external store
/// (`typhoon-kv` plays Redis, exactly the §8 deployment the paper
/// envisions). The in-memory batch is flushed to the store on SIGNAL.
struct DurableCounter {
    kv: Arc<KvStore>,
    pending: i64,
}

impl Bolt for DurableCounter {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if input.get(0).and_then(Value::as_int).is_some() {
            self.pending += 1;
            // Write through frequently; keep a small in-memory batch.
            if self.pending >= 100 {
                self.kv.hincr("relocation-counter", "n", self.pending);
                self.pending = 0;
            }
            out.emit(input.values);
        }
    }

    fn on_signal(&mut self, _out: &mut dyn Emitter) {
        // Pause-and-resume: flush the in-memory remainder to the store.
        if self.pending > 0 {
            self.kv.hincr("relocation-counter", "n", self.pending);
            self.pending = 0;
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

#[derive(Clone, Default)]
struct Seen {
    seqs: Arc<Mutex<Vec<i64>>>,
}

struct Collect {
    seen: Seen,
}

impl Bolt for Collect {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(n) = input.get(0).and_then(Value::as_int) {
            self.seen.seqs.lock().unwrap().push(n);
        }
    }
}

const LIMIT: i64 = 100_000;

#[test]
fn relocation_moves_the_worker_without_losing_tuples_or_state() {
    let kv = Arc::new(KvStore::new());
    let seen = Seen::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Seq {
        next: 0,
        limit: LIMIT,
    });
    let kv2 = kv.clone();
    reg.register_bolt("durable", move || DurableCounter {
        kv: kv2.clone(),
        pending: 0,
    });
    let s = seen.clone();
    reg.register_bolt("collect", move || Collect { seen: s.clone() });

    let topo = LogicalTopology::builder("reloc")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt_with_state("mid", "durable", 1, Fields::new(["n"]), true)
        .bolt("out", "collect", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Global)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();

    let mut config = TyphoonConfig::new(2).with_batch_size(10);
    config.slots_per_host = 8;
    let cluster = TyphoonCluster::new(config, reg).unwrap();
    let handle = cluster.submit(topo).unwrap();

    // Everything packs on host 0 under the locality scheduler.
    let before = handle.physical().unwrap();
    let mid_task = handle.tasks_of("mid")[0];
    assert_eq!(before.assignment(mid_task).unwrap().host, HostId(0));
    assert!(wait_until(Duration::from_secs(10), || !seen
        .seqs
        .lock()
        .unwrap()
        .is_empty()));

    // Relocate mid to host 1, mid-stream.
    handle
        .reconfigure(ReconfigRequest::single(
            "reloc",
            ReconfigOp::Relocate {
                task: mid_task,
                target: HostId(1),
            },
        ))
        .unwrap();

    // Placement moved: a fresh task ID on the target host.
    let after = handle.physical().unwrap();
    let new_mid = handle.tasks_of("mid")[0];
    assert_ne!(new_mid, mid_task, "task IDs are never reused");
    assert_eq!(after.assignment(new_mid).unwrap().host, HostId(1));

    // The stream completes without losing a single tuple.
    assert!(
        wait_until(Duration::from_secs(30), || seen.seqs.lock().unwrap().len()
            >= LIMIT as usize),
        "only {} of {LIMIT} arrived",
        seen.seqs.lock().unwrap().len()
    );
    let mut seqs = seen.seqs.lock().unwrap().clone();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), LIMIT as usize, "tuples lost across relocation");

    // Externally-stored state survived the move: the SIGNAL flush plus the
    // replacement's write-throughs account for every tuple processed.
    assert!(
        wait_until(Duration::from_secs(10), || {
            kv.hget("relocation-counter", "n").unwrap_or(0) >= LIMIT - 100
        }),
        "durable count {} too low",
        kv.hget("relocation-counter", "n").unwrap_or(0)
    );
    cluster.shutdown();
}

#[test]
fn relocation_via_the_command_api() {
    use std::io::{BufRead, BufReader, Write};
    let kv = Arc::new(KvStore::new());
    let seen = Seen::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Seq {
        next: 0,
        limit: i64::MAX,
    });
    let kv2 = kv.clone();
    reg.register_bolt("durable", move || DurableCounter {
        kv: kv2.clone(),
        pending: 0,
    });
    let s = seen.clone();
    reg.register_bolt("collect", move || Collect { seen: s.clone() });
    let topo = LogicalTopology::builder("reloc2")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt_with_state("mid", "durable", 1, Fields::new(["n"]), true)
        .bolt("out", "collect", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Global)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();
    let mut config = TyphoonConfig::new(2).with_batch_size(10);
    config.slots_per_host = 8;
    let cluster = TyphoonCluster::new(config, reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    let mid_task = handle.tasks_of("mid")[0];

    let server =
        typhoon::controller::rest::CommandServer::start(cluster.global().clone(), 0).unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("RECONFIG reloc2 RELOCATE {} 1\n", mid_task.0).as_bytes())
        .unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert_eq!(resp.trim(), "OK submitted");
    assert!(
        wait_until(Duration::from_secs(10), || {
            handle
                .physical()
                .map(|p| {
                    p.tasks_of("mid")
                        .first()
                        .and_then(|&t| p.assignment(t).map(|a| a.host == HostId(1)))
                        .unwrap_or(false)
                })
                .unwrap_or(false)
        }),
        "relocation never applied via command API"
    );
    cluster.shutdown();
}
