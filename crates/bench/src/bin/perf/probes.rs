//! Layer probes: the bench times one public call of one layer,
//! single-threaded, and reports nanoseconds per tuple or per frame.
//!
//! Each probe warms up, then times at least 30 batches and reports the
//! median batch. Probes are workload-independent; the budget multiplies
//! them by what the traced pass counted. The 100 B shape is the
//! `(due, seq, payload)` tuple of the forwarding workloads, `.big` the
//! 1 KiB one of `fanout_big`.

use crate::gen::Payload;
use crate::stats::window_median;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use typhoon_core::worker::{FrameworkLayer, IoConfig, IoLayer, Route};
use typhoon_metrics::Registry;
use typhoon_model::{AppId, Grouping, RoutingState, TaskId};
use typhoon_net::{
    Depacketizer, Frame, InMemoryTunnel, MacAddr, Packetizer, TcpTunnel, Tunnel, TYPHOON_ETHERTYPE,
};
use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, FrameMeta, OfMessage, PortNo};
use typhoon_storm::acker::AckerLedger;
use typhoon_switch::{ControlChannel, FlowCache, FlowTable, Switch, SwitchConfig, WorkerPort};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, BatchEncoder, SerStats};
use typhoon_tuple::{StreamId, Tuple, Value};

/// Untimed batches before the timed ones.
const WARMUP_BATCHES: usize = 5;
/// Timed batches; the median is reported.
const BATCHES: usize = 31;
/// Operations per batch for calls in the tens of nanoseconds.
const SMALL_OPS: usize = 1000;
/// Tuples per I/O batch (the default `batch_size`).
const IO_BATCH: usize = 100;
/// Frames per switch round and per ring batch.
const FRAMES: usize = 64;

/// Median over batches of nanoseconds per operation; `batch` returns the
/// time it spent in the measured call for `ops` operations.
fn probe(ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    for _ in 0..WARMUP_BATCHES {
        batch();
    }
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / ops as f64)
        .collect();
    window_median(&per_op).unwrap_or(0.0)
}

/// Nanoseconds per call of `call`, timed `SMALL_OPS` calls to a batch.
fn probe_call<R>(mut call: impl FnMut() -> R) -> f64 {
    probe(SMALL_OPS, || {
        timed(|| {
            for _ in 0..SMALL_OPS {
                black_box(call());
            }
        })
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// A `(due, seq, payload)` tuple with a `len`-byte payload.
fn shaped_tuple(len: usize) -> Tuple {
    let Payload::Fixed(payload) = Payload::fixed(1, len) else {
        unreachable!("fixed payload")
    };
    Tuple::new(
        TaskId(7),
        vec![
            Value::Int(1_234_567_890_123),
            Value::Int(424_242),
            Value::Str(payload),
        ],
    )
}

fn mac(task: u32) -> MacAddr {
    MacAddr::worker(1, TaskId(task))
}

fn ser_probes(out: &mut BTreeMap<&'static str, f64>) {
    let stats = SerStats::default();
    for (len, enc, dec) in [
        (100, "tuple.encode_ns", "tuple.decode_ns"),
        (1024, "tuple.encode_ns.big", "tuple.decode_ns.big"),
    ] {
        let tuple = shaped_tuple(len);
        let encoded = encode_tuple_vec(&tuple, &stats);
        out.insert(
            enc,
            probe_call(|| encode_tuple_vec(black_box(&tuple), &stats)),
        );
        out.insert(
            dec,
            probe_call(|| decode_tuple(black_box(&encoded), &stats).expect("decodes")),
        );
    }
    let tuple = shaped_tuple(100);
    out.insert(
        "tuple.batch_encode_ns",
        probe(IO_BATCH, || {
            timed(|| {
                let mut enc = BatchEncoder::new();
                for _ in 0..IO_BATCH {
                    enc.push(black_box(&tuple), &stats);
                }
                enc.finish()
            })
        }),
    );
}

fn routing_probes(out: &mut BTreeMap<&'static str, f64>) {
    let hops: Vec<TaskId> = (0..2).map(TaskId).collect();
    let tuple = shaped_tuple(100);
    let mut shuffle = RoutingState::new(Grouping::Shuffle, hops.clone(), vec![]);
    out.insert(
        "model.route_ns.shuffle",
        probe_call(|| shuffle.route(black_box(&tuple))),
    );
    // The word-count key: a short string in field 2.
    let word = Tuple::new(
        TaskId(7),
        vec![Value::Int(1), Value::Int(2), Value::Str("typhoon".into())],
    );
    let mut fields = RoutingState::new(Grouping::Fields(vec!["word".into()]), hops, vec![2]);
    out.insert(
        "model.route_ns.fields",
        probe_call(|| fields.route(black_box(&word))),
    );
    let mut fw = FrameworkLayer::new(
        AppId(1),
        TaskId(7),
        vec![Route {
            stream: StreamId::DEFAULT,
            downstream: "sink".into(),
            state: RoutingState::new(Grouping::Global, vec![TaskId(8)], vec![]),
        }],
        SerStats::shared(),
        Registry::new(),
    );
    out.insert(
        "core.framework.route_ns",
        probe(SMALL_OPS, || {
            // `route` consumes the tuple: build the inputs off the clock.
            let inputs: Vec<Tuple> = (0..SMALL_OPS).map(|_| tuple.clone()).collect();
            timed(|| {
                for t in inputs {
                    black_box(fw.route(t, false));
                }
            })
        }),
    );
}

/// A standalone switch with a live (term 1) controller channel.
struct ProbeSwitch {
    switch: Switch,
    // Held so the switch keeps a connected controller and never goes
    // headless while probed.
    _channel: ControlChannel,
}

impl ProbeSwitch {
    fn new(rules: Vec<FlowMod>) -> Self {
        let (switch, _boot) = Switch::new(SwitchConfig::new(1));
        let channel = switch
            .connect_controller(1)
            .expect("term 1 is newer than the boot term");
        for fm in rules {
            channel
                .to_switch
                .send(wire::encode(&OfMessage::FlowMod(fm)))
                .expect("control channel open");
        }
        switch.process_round();
        ProbeSwitch {
            switch,
            _channel: channel,
        }
    }
}

fn unicast_rule(in_port: u32, src: u32, dst: u32, out_port: u32) -> FlowMod {
    FlowMod::add(
        50,
        FlowMatch::any()
            .in_port(PortNo(in_port))
            .dl_src(mac(src))
            .dl_dst(mac(dst))
            .ether_type(TYPHOON_ETHERTYPE),
        vec![Action::Output(PortNo(out_port))],
    )
}

fn blobs(n: usize, len: usize) -> Vec<Bytes> {
    let stats = SerStats::default();
    let encoded = Bytes::from(encode_tuple_vec(&shaped_tuple(len), &stats));
    (0..n).map(|_| encoded.clone()).collect()
}

fn drain(port: &WorkerPort) -> usize {
    let mut sink = Vec::new();
    while port.rx.pop_batch(&mut sink, 1024).unwrap_or(0) > 0 {}
    sink.len()
}

fn io_probes(out: &mut BTreeMap<&'static str, f64>) {
    // Worker 1 (port 1) → switch → worker 2 (port 2).
    let sw = ProbeSwitch::new(vec![unicast_rule(1, 1, 2, 2)]);
    let mut tx = IoLayer::new(
        mac(1),
        sw.switch.attach_worker(PortNo(1)),
        &IoConfig::default(),
        Registry::new(),
    );
    let mut rx = IoLayer::new(
        mac(2),
        sw.switch.attach_worker(PortNo(2)),
        &IoConfig::default(),
        Registry::new(),
    );
    let batch = blobs(IO_BATCH, 100);
    let mut enqueue = Vec::new();
    let mut poll = Vec::new();
    for round in 0..WARMUP_BATCHES + BATCHES {
        let input = batch.clone();
        // One full batch: 100 enqueues, the last of which packetizes and
        // pushes the frames into the port ring.
        let e = timed(|| {
            for blob in input {
                tx.enqueue(mac(2), blob, 0);
            }
        });
        sw.switch.process_round();
        let mut got = Vec::with_capacity(IO_BATCH);
        let p = timed(|| rx.poll_ingress(&mut got, 256));
        assert_eq!(got.len(), IO_BATCH, "the probe batch crosses the switch");
        if round >= WARMUP_BATCHES {
            enqueue.push(e.as_nanos() as f64 / IO_BATCH as f64);
            poll.push(p.as_nanos() as f64 / IO_BATCH as f64);
        }
    }
    out.insert("core.io.enqueue_ns", window_median(&enqueue).unwrap_or(0.0));
    out.insert(
        "core.io.poll_ingress_ns",
        window_median(&poll).unwrap_or(0.0),
    );
}

/// Frames as a full batch produces them: `IO_BATCH` 100 B tuples packed
/// at the default MTU.
fn batch_frames(src: MacAddr, dst: MacAddr) -> Vec<Frame> {
    Packetizer::default().pack(src, dst, &blobs(IO_BATCH, 100))
}

fn net_probes(out: &mut BTreeMap<&'static str, f64>) {
    let batch = blobs(IO_BATCH, 100);
    let packer = Packetizer::default();
    out.insert(
        "net.pack_ns",
        probe(IO_BATCH, || timed(|| packer.pack(mac(1), mac(2), &batch))),
    );
    let frames = packer.pack(mac(1), mac(2), &batch);
    out.insert(
        "net.depack_ns",
        probe(IO_BATCH, || {
            timed(|| {
                let mut d = Depacketizer::new();
                let mut n = 0;
                for f in &frames {
                    n += d.push(f).expect("well-formed frame").len();
                }
                n
            })
        }),
    );
    let (ring_tx, ring_rx) = typhoon_net::ring(1024);
    let frame = frames[0].clone();
    let mut popped = Vec::with_capacity(FRAMES);
    out.insert(
        "net.ring.push_pop_ns",
        probe(FRAMES, || {
            let mut batch: Vec<Frame> = (0..FRAMES).map(|_| frame.clone()).collect();
            popped.clear();
            timed(|| {
                ring_tx.push_batch(&mut batch);
                ring_rx.pop_batch(&mut popped, FRAMES)
            })
        }),
    );
    let (mem_a, mem_b) = InMemoryTunnel::pair();
    out.insert(
        "net.tunnel.mem_frame_ns",
        tunnel_probe(&mem_a, &mem_b, &frame),
    );
    let (tcp_a, tcp_b) = TcpTunnel::pair().expect("loopback tunnel");
    out.insert(
        "net.tunnel.tcp_frame_ns",
        tunnel_probe(&tcp_a, &tcp_b, &frame),
    );
}

/// Sends `FRAMES` frames one way and waits until the peer has them all.
fn tunnel_probe(a: &dyn Tunnel, b: &dyn Tunnel, frame: &Frame) -> f64 {
    let mut got = Vec::with_capacity(FRAMES);
    probe(FRAMES, || {
        got.clear();
        timed(|| {
            for _ in 0..FRAMES {
                a.send(frame).expect("tunnel up");
            }
            while got.len() < FRAMES {
                b.recv_batch(&mut got, FRAMES).expect("tunnel up");
            }
        })
    })
}

fn switch_round_probe(sw: &ProbeSwitch, outs: &[WorkerPort], dst: MacAddr, miss: bool) -> f64 {
    let src = sw.switch.attach_worker(PortNo(1));
    let frame = batch_frames(mac(1), dst).remove(0);
    probe(FRAMES, || {
        let mut batch: Vec<Frame> = (0..FRAMES).map(|_| frame.clone()).collect();
        src.tx.push_batch(&mut batch);
        if miss {
            // Registering a tunnel invalidates the megaflow cache, so the
            // round resolves its run through the flow table again.
            sw.switch.add_tunnel(9, Box::new(InMemoryTunnel::pair().0));
        }
        let t = timed(|| sw.switch.process_round());
        let delivered: usize = outs.iter().map(drain).sum();
        assert_eq!(delivered, FRAMES * outs.len(), "every frame is forwarded");
        t
    })
}

fn switch_probes(out: &mut BTreeMap<&'static str, f64>) {
    for (name, miss) in [
        ("switch.round_ns.unicast", false),
        ("switch.round_ns.miss", true),
    ] {
        let sw = ProbeSwitch::new(vec![unicast_rule(1, 1, 2, 2)]);
        let outs = [sw.switch.attach_worker(PortNo(2))];
        out.insert(name, switch_round_probe(&sw, &outs, mac(2), miss));
    }
    // The one-to-many rule of Table 3: one broadcast match, an output per
    // destination port; the switch replicates by refcount clone.
    let sw = ProbeSwitch::new(vec![FlowMod::add(
        40,
        FlowMatch::any()
            .in_port(PortNo(1))
            .dl_dst(MacAddr::BROADCAST)
            .ether_type(TYPHOON_ETHERTYPE),
        (2..=5).map(|p| Action::Output(PortNo(p))).collect(),
    )]);
    let outs: Vec<WorkerPort> = (2..=5)
        .map(|p| sw.switch.attach_worker(PortNo(p)))
        .collect();
    out.insert(
        "switch.round_ns.group4",
        switch_round_probe(&sw, &outs, MacAddr::BROADCAST, false),
    );

    let now = Instant::now();
    let meta = |task: u32| FrameMeta {
        in_port: PortNo(task % 8),
        dl_src: mac(task),
        dl_dst: mac(task + 100),
        ether_type: TYPHOON_ETHERTYPE,
    };
    let cache = FlowCache::new();
    cache.insert(
        &meta(3),
        &[Action::Output(PortNo(4))],
        Duration::from_secs(30),
        None,
        now,
    );
    out.insert(
        "switch.cache.probe_ns",
        probe_call(|| cache.probe(black_box(&meta(3)), 1, 64, now)),
    );
    let mut table = FlowTable::new();
    for i in 0..100 {
        let m = meta(i);
        table.apply(
            &FlowMod::add(
                50,
                FlowMatch::any()
                    .in_port(m.in_port)
                    .dl_src(m.dl_src)
                    .dl_dst(m.dl_dst)
                    .ether_type(m.ether_type),
                vec![Action::Output(PortNo(i % 8 + 1))],
            ),
            now,
        );
    }
    // Rule 50 of 100: the mean position of a linear scan.
    out.insert(
        "switch.table.lookup_ns",
        probe_call(|| table.lookup(black_box(&meta(50)), 64, now)),
    );
}

fn misc_probes(out: &mut BTreeMap<&'static str, f64>) {
    let mut ledger = AckerLedger::new();
    let now = Instant::now();
    let mut root = 0u64;
    out.insert(
        "core.acker.apply_ns",
        // One tree per two applies: the spout's init, then the ack that
        // completes and removes it.
        probe(SMALL_OPS, || {
            timed(|| {
                for _ in 0..SMALL_OPS / 2 {
                    root += 1;
                    black_box(ledger.apply(root, 0x5a5a, Some(TaskId(1)), now));
                    black_box(ledger.apply(root, 0x5a5a, None, now));
                }
            })
        }),
    );
    let registry = Registry::new();
    let histogram = registry.histogram("probe");
    out.insert(
        "metrics.histogram_record_ns",
        probe(SMALL_OPS, || {
            timed(|| {
                for i in 0..SMALL_OPS as u64 {
                    histogram.record(black_box(1_000_000 + i * 997));
                }
            })
        }),
    );
    let counter = registry.counter("probe");
    out.insert(
        "metrics.counter_add_ns",
        probe_call(|| counter.add(black_box(1))),
    );
    let msg =
        OfMessage::FlowMod(unicast_rule(1, 1, 2, 2).with_idle_timeout(Duration::from_secs(30)));
    let encoded = wire::encode(&msg);
    out.insert(
        "openflow.flowmod_encode_ns",
        probe_call(|| wire::encode(black_box(&msg))),
    );
    out.insert(
        "openflow.flowmod_decode_ns",
        probe(SMALL_OPS, || {
            let inputs: Vec<Bytes> = (0..SMALL_OPS).map(|_| encoded.clone()).collect();
            timed(|| {
                for b in inputs {
                    black_box(wire::decode(b).expect("decodes"));
                }
            })
        }),
    );
}

/// Runs every layer probe; name → nanoseconds.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    ser_probes(&mut out);
    routing_probes(&mut out);
    io_probes(&mut out);
    net_probes(&mut out);
    switch_probes(&mut out);
    misc_probes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_in_the_metric_table_is_measured() {
        let got = run_all();
        for (name, _, _) in crate::metrics::PROBES {
            let v = got.get(name).copied().unwrap_or(-1.0);
            assert!(v > 0.0, "{name} = {v}");
        }
        assert_eq!(got.len(), crate::metrics::PROBES.len());
    }
}
