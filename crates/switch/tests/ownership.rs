//! Who forwards a frame: the thread that holds it. A worker's port end runs
//! the match-action path on the worker's thread, so these pin what the
//! datapath thread used to guarantee by being the only forwarder:
//!
//! * a crashed worker's port is reported once, as a `PortStatus` delete,
//!   and a detached or re-attached port forwards nothing from its old
//!   attachment;
//! * two workers forwarding at once into one sink, while FlowMods churn,
//!   are each delivered in order, and once a barrier returns every frame
//!   follows the new rule.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_net::{Frame, MacAddr, NetError};
use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo, PortStatusReason};
use typhoon_switch::{ControlChannel, Switch, SwitchConfig, WorkerPort};
use typhoon_tuple::tuple::TaskId;

fn w(task: u32) -> MacAddr {
    MacAddr::worker(1, TaskId(task))
}

fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
    ch.send(wire::encode(&msg)).unwrap();
}

fn events(ch: &ControlChannel) -> Vec<OfMessage> {
    std::iter::from_fn(|| ch.try_recv())
        .map(|b| wire::decode(b).unwrap().0)
        .collect()
}

fn deletes(events: &[OfMessage], port: PortNo) -> usize {
    let delete = OfMessage::PortStatus {
        reason: PortStatusReason::Delete,
        port,
    };
    events.iter().filter(|e| **e == delete).count()
}

fn to_port(priority: u16, in_port: u32, out: u32) -> OfMessage {
    OfMessage::FlowMod(FlowMod::add(
        priority,
        FlowMatch::any().in_port(PortNo(in_port)),
        vec![Action::Output(PortNo(out))],
    ))
}

/// Sends a barrier and waits for its reply: every message before it has
/// been applied. What a controller's `sync_switches` waits on.
fn fence(ch: &ControlChannel, xid: u32) {
    send_ctrl(ch, OfMessage::Barrier { xid });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !events(ch).contains(&OfMessage::BarrierReply { xid }) {
        assert!(Instant::now() < deadline, "barrier {xid} never answered");
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn drain(port: &WorkerPort) -> Vec<Frame> {
    std::iter::from_fn(|| port.rx.pop().unwrap()).collect()
}

#[test]
fn a_crash_is_reported_once_and_a_stale_attachment_forwards_nothing() {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let sink = sw.attach_worker(PortNo(9));
    send_ctrl(&ch, to_port(10, 1, 9));
    sw.process_round();
    let _ = events(&ch);

    // Crash: the worker's end drops; one round reaps it, once.
    let crashed = sw.attach_worker(PortNo(1));
    drop(crashed);
    sw.process_round();
    sw.process_round();
    assert_eq!(deletes(&events(&ch), PortNo(1)), 1, "one delete per crash");

    // Re-attach: the old attachment is refused, forwards nothing, and its
    // worker sees its receive ring closed; the new one forwards.
    let old = sw.attach_worker(PortNo(1));
    let new = sw.attach_worker(PortNo(1));
    let frame = |n| Frame::typhoon(w(1), w(9), Bytes::from(vec![n; 8]));
    let mut batch = vec![frame(1), frame(2)];
    assert!(old.tx.push_batch(&mut batch).disconnected);
    assert_eq!(batch.len(), 2, "nothing taken from a stale attachment");
    assert_eq!(old.rx.pop().unwrap_err(), NetError::Disconnected);
    new.tx.push(frame(3)).unwrap();
    let got: Vec<u8> = drain(&sink).iter().map(|f| f.payload[0]).collect();
    assert_eq!(got, [3], "only the live attachment forwarded");
    // The stale end's drop is no crash of the live port.
    drop(old);
    sw.process_round();
    assert_eq!(deletes(&events(&ch), PortNo(1)), 0);

    // Detach: reported by the detach itself; the worker's later drop adds
    // nothing, and its end forwards nothing meanwhile.
    sw.detach_worker(PortNo(1));
    assert_eq!(new.tx.push(frame(4)), Err(NetError::Disconnected));
    assert_eq!(new.rx.pop().unwrap_err(), NetError::Disconnected);
    drop(new);
    sw.process_round();
    assert_eq!(
        deletes(&events(&ch), PortNo(1)),
        1,
        "the detach's own delete"
    );
    assert!(drain(&sink).is_empty());
    let stats = sw.registry().snapshot();
    assert_eq!(
        stats.counter("switch.misses"),
        0,
        "nothing reached the table"
    );
}

/// A spawned datapath reaps a crashed worker without a round being driven:
/// the end's drop rings it.
#[test]
fn a_crash_wakes_a_parked_datapath() {
    let mut config = SwitchConfig::new(1);
    config.expire_interval = Duration::from_secs(3600);
    let (sw, ch) = Switch::new(config);
    let handle = sw.spawn();
    for i in 0..20 {
        let port = PortNo(1 + i);
        drop(sw.attach_worker(port));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seen = Vec::new();
        while deletes(&seen, port) == 0 {
            assert!(Instant::now() < deadline, "crash {i} never reported");
            std::thread::sleep(Duration::from_micros(100));
            seen.extend(events(&ch));
        }
        std::thread::sleep(Duration::from_millis(1));
        seen.extend(events(&ch));
        assert_eq!(deletes(&seen, port), 1, "crash {i}");
    }
    handle.stop();
}

#[test]
fn concurrent_sources_stay_in_order_and_follow_a_fenced_rule() {
    // Frames a source pushes before it sees the fence (at most), and after.
    const BEFORE: u32 = 12_000;
    const AFTER: u32 = 1_000;
    let mut config = SwitchConfig::new(1);
    config.ring_capacity = 1 << 15; // holds both sources' frames undrained
    let (sw, ch) = Switch::new(config);
    let sources = [sw.attach_worker(PortNo(1)), sw.attach_worker(PortNo(2))];
    let old_sink = sw.attach_worker(PortNo(3));
    let new_sink = sw.attach_worker(PortNo(4));
    send_ctrl(&ch, to_port(10, 1, 3));
    send_ctrl(&ch, to_port(10, 2, 3));
    let handle = sw.spawn();
    fence(&ch, 1);

    // Each source stamps its sequence number and whether it had seen the
    // fence return before it pushed, and pushes until it has sent AFTER
    // frames past the fence.
    let fenced = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = sources
        .into_iter()
        .enumerate()
        .map(|(i, port)| {
            let fenced = fenced.clone();
            std::thread::spawn(move || {
                let (mut seq, mut after) = (0u32, 0u32);
                while after < AFTER {
                    let seen = fenced.load(Ordering::Acquire);
                    if !seen && seq == BEFORE {
                        std::thread::yield_now();
                        continue;
                    }
                    let mut payload = seq.to_be_bytes().to_vec();
                    payload.push(seen as u8);
                    let frame = Frame::typhoon(w(i as u32 + 1), w(99), Bytes::from(payload));
                    port.tx.push(frame).unwrap();
                    seq += 1;
                    after += seen as u32;
                    if seq % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                (w(i as u32 + 1), seq, port)
            })
        })
        .collect();

    // Churn: rules for flows nobody sends, each one a cache invalidation
    // under the sources' feet; then the re-steer, fenced.
    for i in 0..200 {
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                5,
                FlowMatch::any().dl_dst(w(1000 + i)),
                vec![Action::Output(PortNo(3))],
            )),
        );
        if i % 20 == 0 {
            std::thread::yield_now();
        }
        if i == 100 {
            send_ctrl(&ch, to_port(20, 1, 4));
            send_ctrl(&ch, to_port(20, 2, 4));
            fence(&ch, 2);
            fenced.store(true, Ordering::Release);
        }
    }
    let sent: Vec<(MacAddr, u32, WorkerPort)> =
        workers.into_iter().map(|t| t.join().unwrap()).collect();
    handle.stop();

    let mut delivered: HashMap<MacAddr, u32> = HashMap::new();
    let mut after_fence_on_old = 0;
    for (sink, is_new) in [(&old_sink, false), (&new_sink, true)] {
        let mut last: HashMap<MacAddr, u32> = HashMap::new();
        for f in drain(sink) {
            let seq = u32::from_be_bytes(f.payload[..4].try_into().unwrap());
            if let Some(&prev) = last.get(&f.src) {
                assert!(seq > prev, "{} out of order: {seq} after {prev}", f.src);
            }
            last.insert(f.src, seq);
            if f.payload[4] == 1 && !is_new {
                after_fence_on_old += 1;
            }
            *delivered.entry(f.src).or_default() += 1;
        }
    }
    assert_eq!(
        after_fence_on_old, 0,
        "a frame pushed after the fence took the old rule"
    );
    for (src, n, _) in &sent {
        assert_eq!(delivered.get(src), Some(n), "{src}: every frame, once");
    }
}
