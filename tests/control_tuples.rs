//! Table 2 control tuples end to end: the controller injects
//! `BATCH_SIZE`, `INPUT_RATE`, `DEACTIVATE`/`ACTIVATE` and `METRIC_REQ`
//! into running workers over the data plane, and observes the effects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon::controller::ControlTuple;
use typhoon::prelude::*;

struct FastSpout;

impl Spout for FastSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for i in 0..8 {
            out.emit(vec![Value::Int(i)]);
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

fn setup() -> (TyphoonCluster, TyphoonTopologyHandle, Arc<AtomicU64>) {
    let seen = Arc::new(AtomicU64::new(0));
    let mut reg = ComponentRegistry::new();
    reg.register_spout("fast", || FastSpout);
    let s = seen.clone();
    reg.register_bolt("sink", move || CountSink { seen: s.clone() });
    let topo = LogicalTopology::builder("knobs")
        .spout("src", "fast", 1, Fields::new(["n"]))
        .bolt("out", "sink", 1, Fields::new(["n"]))
        .edge("src", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(100), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    (cluster, handle, seen)
}

fn rate_over(seen: &AtomicU64, window: Duration) -> f64 {
    let n0 = seen.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(window);
    (seen.load(Ordering::Relaxed) - n0) as f64 / t0.elapsed().as_secs_f64()
}

#[test]
fn input_rate_control_tuple_caps_the_spout() {
    let (cluster, handle, seen) = setup();
    let spout = handle.tasks_of("src")[0];
    let unlimited = rate_over(&seen, Duration::from_secs(2));
    assert!(unlimited > 50_000.0, "baseline too slow: {unlimited}");
    assert!(cluster.controller().send_control(
        handle.app(),
        spout,
        &ControlTuple::InputRate {
            tuples_per_sec: 10_000
        },
    ));
    std::thread::sleep(Duration::from_millis(300)); // tuple in flight
    let capped = rate_over(&seen, Duration::from_secs(2));
    assert!(
        (8_000.0..13_000.0).contains(&capped),
        "cap not applied: {capped} t/s"
    );
    // Lifting the cap (0 = unlimited) restores full speed.
    cluster.controller().send_control(
        handle.app(),
        spout,
        &ControlTuple::InputRate { tuples_per_sec: 0 },
    );
    std::thread::sleep(Duration::from_millis(300));
    let restored = rate_over(&seen, Duration::from_secs(2));
    assert!(restored > capped * 3.0, "cap never lifted: {restored}");
    cluster.shutdown();
}

#[test]
fn deactivate_pauses_and_activate_resumes() {
    let (cluster, handle, seen) = setup();
    let spout = handle.tasks_of("src")[0];
    assert!(rate_over(&seen, Duration::from_secs(1)) > 0.0);
    cluster
        .controller()
        .send_control(handle.app(), spout, &ControlTuple::Deactivate);
    std::thread::sleep(Duration::from_millis(500)); // drain in-flight
    let paused = rate_over(&seen, Duration::from_secs(1));
    assert_eq!(paused, 0.0, "DEACTIVATE did not pause the topology");
    cluster
        .controller()
        .send_control(handle.app(), spout, &ControlTuple::Activate);
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        rate_over(&seen, Duration::from_secs(1)) > 10_000.0,
        "ACTIVATE did not resume"
    );
    cluster.shutdown();
}

#[test]
fn batch_size_control_tuple_retunes_the_io_layer() {
    let (cluster, handle, _seen) = setup();
    let sink = handle.tasks_of("out")[0];
    let worker = handle.worker(sink).unwrap();
    assert!(cluster.controller().send_control(
        handle.app(),
        sink,
        &ControlTuple::BatchSize { size: 7 },
    ));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if worker.registry.snapshot().gauge("io.batch_size") == 7 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "BATCH_SIZE never applied: gauge={}",
            worker.registry.snapshot().gauge("io.batch_size")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

#[test]
fn metric_req_round_trips_through_packet_in() {
    use std::sync::Mutex;
    use typhoon::controller::{ControlPlaneApp, Controller};
    use typhoon::model::{AppId, TaskId};

    /// Shared log of `(app, task, metrics)` triples seen by the capture app.
    type MetricResponses = Arc<Mutex<Vec<(AppId, TaskId, Vec<(String, i64)>)>>>;

    #[derive(Default)]
    struct Capture {
        responses: MetricResponses,
    }
    impl ControlPlaneApp for Capture {
        fn name(&self) -> &'static str {
            "capture"
        }
        fn on_metric_resp(
            &mut self,
            _ctl: &Controller,
            app: AppId,
            task: TaskId,
            _request_id: u64,
            metrics: &[(String, i64)],
        ) {
            self.responses
                .lock()
                .unwrap()
                .push((app, task, metrics.to_vec()));
        }
    }

    let (cluster, handle, _seen) = setup();
    let captured: MetricResponses = Arc::default();
    cluster.controller().add_app(Box::new(Capture {
        responses: captured.clone(),
    }));
    let sink = handle.tasks_of("out")[0];
    cluster.controller().send_control(
        handle.app(),
        sink,
        &ControlTuple::MetricReq { request_id: 42 },
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        {
            let got = captured.lock().unwrap();
            if let Some((app, task, metrics)) = got.first() {
                assert_eq!(*app, handle.app());
                assert_eq!(*task, sink);
                assert!(metrics.iter().any(|(k, _)| k == "queue.depth"));
                assert!(metrics.iter().any(|(k, _)| k == "tuples.received"));
                break;
            }
        }
        assert!(Instant::now() < deadline, "METRIC_RESP never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}
