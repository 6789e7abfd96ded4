//! Switch behaviour under churn and hostile conditions: rule timeouts in a
//! live datapath, strict deletes, flood semantics, group recursion guards
//! and corrupt control traffic.

use bytes::Bytes;
use std::time::{Duration, Instant};
use typhoon_net::{Frame, MacAddr, TYPHOON_ETHERTYPE};
use typhoon_openflow::{
    wire, Action, Bucket, FlowMatch, FlowMod, GroupId, GroupMod, OfMessage, PortNo,
};
use typhoon_switch::{ControlChannel, Switch, SwitchConfig};
use typhoon_tuple::tuple::TaskId;

fn w(task: u32) -> MacAddr {
    MacAddr::worker(1, TaskId(task))
}

fn frame(src: u32, dst: MacAddr, n: u8) -> Frame {
    Frame::typhoon(w(src), dst, Bytes::from(vec![n; 16]))
}

/// `switch.rules`, as a scrape of the switch's registry reads it.
fn rules(sw: &Switch) -> i64 {
    sw.registry().snapshot().gauge("switch.rules")
}

fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
    ch.send(wire::encode(&msg)).unwrap();
}

#[test]
fn idle_rules_expire_in_a_live_datapath() {
    let mut config = SwitchConfig::new(1);
    config.expire_interval = Duration::from_millis(20);
    let (sw, ch) = Switch::new(config);
    let src = sw.attach_worker(PortNo(1));
    let dst = sw.attach_worker(PortNo(2));
    send_ctrl(
        &ch,
        OfMessage::FlowMod(
            FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo(1)),
                vec![Action::Output(PortNo(2))],
            )
            .with_idle_timeout(Duration::from_millis(100)),
        ),
    );
    let handle = sw.spawn();
    // Traffic keeps the rule alive…
    for _ in 0..5 {
        src.tx.push(frame(10, w(20), 1)).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    assert_eq!(rules(&sw), 1, "hits refresh the idle clock");
    // …silence kills it.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(rules(&sw), 0, "idle timeout evicted the rule");
    // Drain the keep-alive deliveries, then confirm new traffic misses.
    while dst.rx.pop().unwrap().is_some() {}
    let misses_before = sw.miss_count();
    src.tx.push(frame(10, w(20), 2)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while sw.miss_count() == misses_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sw.miss_count() > misses_before);
    assert!(dst.rx.pop().unwrap().is_none());
    handle.stop();
}

#[test]
fn strict_delete_leaves_same_match_other_priority_untouched() {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let matcher = FlowMatch::any()
        .in_port(PortNo(1))
        .ether_type(TYPHOON_ETHERTYPE);
    send_ctrl(&ch, OfMessage::FlowMod(FlowMod::add(50, matcher, vec![])));
    send_ctrl(&ch, OfMessage::FlowMod(FlowMod::add(60, matcher, vec![])));
    sw.process_round();
    assert_eq!(rules(&sw), 2);
    // Strict delete at priority 60 only.
    let mut del = FlowMod::delete(matcher);
    del.priority = 60;
    send_ctrl(&ch, OfMessage::FlowMod(del));
    sw.process_round();
    assert_eq!(rules(&sw), 1, "only the priority-60 twin died");
    // Wildcard (priority 0) delete removes the rest.
    send_ctrl(&ch, OfMessage::FlowMod(FlowMod::delete(FlowMatch::any())));
    sw.process_round();
    assert_eq!(rules(&sw), 0);
}

#[test]
fn flood_action_excludes_the_ingress_port() {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let a = sw.attach_worker(PortNo(1));
    let b = sw.attach_worker(PortNo(2));
    let c = sw.attach_worker(PortNo(3));
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            5,
            FlowMatch::any(),
            vec![Action::Output(PortNo::ALL)],
        )),
    );
    sw.process_round();
    a.tx.push(frame(1, MacAddr::BROADCAST, 9)).unwrap();
    sw.process_round();
    assert!(a.rx.pop().unwrap().is_none(), "no echo to the sender");
    assert!(b.rx.pop().unwrap().is_some());
    assert!(c.rx.pop().unwrap().is_some());
}

#[test]
fn group_chains_are_depth_limited() {
    // A group whose bucket points back at itself must not recurse forever.
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let src = sw.attach_worker(PortNo(1));
    send_ctrl(
        &ch,
        OfMessage::GroupMod(GroupMod::add(
            GroupId(1),
            vec![Bucket {
                weight: 1,
                actions: vec![Action::Group(GroupId(1))],
            }],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            5,
            FlowMatch::any(),
            vec![Action::Group(GroupId(1))],
        )),
    );
    sw.process_round();
    src.tx.push(frame(1, w(2), 1)).unwrap();
    sw.process_round(); // must return (the depth guard breaks the cycle)
}

#[test]
fn corrupt_control_bytes_are_dropped_not_fatal() {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let a = sw.attach_worker(PortNo(1));
    let b = sw.attach_worker(PortNo(2));
    // Garbage on the control channel…
    ch.to_switch.send(Bytes::from_static(&[0xff; 40])).unwrap();
    ch.to_switch.send(Bytes::from_static(&[0x00])).unwrap();
    // …followed by a legitimate rule.
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            5,
            FlowMatch::any().in_port(PortNo(1)),
            vec![Action::Output(PortNo(2))],
        )),
    );
    sw.process_round();
    sw.process_round();
    a.tx.push(frame(1, w(2), 7)).unwrap();
    sw.process_round();
    assert!(b.rx.pop().unwrap().is_some(), "switch survived the garbage");
}

#[test]
fn reattaching_a_port_replaces_the_dead_entry() {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let old = sw.attach_worker(PortNo(1));
    drop(old); // worker dies
    sw.process_round(); // dead port collected (PortStatus delete)
    let fresh = sw.attach_worker(PortNo(1));
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            5,
            FlowMatch::any(),
            vec![Action::Output(PortNo(1))],
        )),
    );
    sw.process_round();
    // Loop a frame through any port back to port 1's new occupant.
    let probe = sw.attach_worker(PortNo(2));
    probe.tx.push(frame(5, w(1), 3)).unwrap();
    sw.process_round();
    assert!(fresh.rx.pop().unwrap().is_some(), "replacement is wired in");
}

#[test]
fn hard_timeout_expires_despite_constant_traffic() {
    let mut config = SwitchConfig::new(1);
    config.expire_interval = Duration::from_millis(10);
    let (sw, ch) = Switch::new(config);
    let src = sw.attach_worker(PortNo(1));
    let dst = sw.attach_worker(PortNo(2));
    send_ctrl(
        &ch,
        OfMessage::FlowMod(
            FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo(1)),
                vec![Action::Output(PortNo(2))],
            )
            .with_hard_timeout(Duration::from_millis(150)),
        ),
    );
    let handle = sw.spawn();
    let deadline = Instant::now() + Duration::from_secs(3);
    // Hammer it with traffic the whole time; the rule must still die.
    while rules(&sw) > 0 && Instant::now() < deadline {
        let _ = src.tx.push(frame(1, w(2), 0));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(rules(&sw), 0, "hard timeout ignores traffic");
    handle.stop();
    let _ = dst;
}
