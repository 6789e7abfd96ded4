//! Controller ↔ multiple switches: rule fan-out, barrier fencing under a
//! concurrently spawned pump loop (regression for the barrier-waiter race),
//! and cross-host control-tuple delivery.

use std::time::Duration;
use typhoon_controller::{ControlTuple, Controller};
use typhoon_coordinator::global::GlobalState;
use typhoon_coordinator::Coordinator;
use typhoon_model::logical::word_count_example;
use typhoon_model::{AppId, HostId, HostInfo, RoundRobinScheduler, Scheduler};
use typhoon_openflow::PortNo;
use typhoon_switch::{Switch, SwitchConfig};

fn three_host_setup() -> (Controller, Vec<Switch>, GlobalState) {
    let global = GlobalState::new(Coordinator::new());
    let ctl = Controller::new(global.clone());
    let switches: Vec<Switch> = (0..3)
        .map(|h| {
            let (sw, ch) = Switch::new(SwitchConfig::new(h));
            ctl.register_switch(HostId(h as u32), sw.dpid(), ch);
            sw
        })
        .collect();
    (ctl, switches, global)
}

#[test]
fn rules_fan_out_to_every_host_and_barriers_fence_with_live_pump() {
    let (ctl, switches, global) = three_host_setup();
    let hosts: Vec<HostInfo> = (0..3)
        .map(|i| HostInfo::new(i, &format!("h{i}"), 4))
        .collect();
    let logical = word_count_example();
    let phys = RoundRobinScheduler
        .schedule(AppId(1), &logical, &hosts)
        .unwrap();
    global.set_logical(&logical).unwrap();
    global.set_physical(&phys).unwrap();
    for a in &phys.assignments {
        let sw = &switches[a.host.0 as usize];
        std::mem::forget(sw.attach_worker(PortNo(a.switch_port)));
    }
    // Spawn everything: datapaths AND the controller pump loop. The
    // barrier replies must still reach install_topology's fences (the
    // barrier-waiter registry regression).
    let handles: Vec<_> = switches.iter().map(|sw| sw.spawn()).collect();
    let ctl_handle = ctl.spawn(Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    ctl.install_topology(&logical, &phys);
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "barrier fencing stalled: {:?} (lost replies to the pump loop?)",
        t0.elapsed()
    );
    // Every host got its share of rules (control + data).
    for (h, sw) in switches.iter().enumerate() {
        let rules = sw.registry().snapshot().gauge("switch.rules");
        assert!(rules > 2, "host {h} got only {rules} rules");
    }
    // Cross-host unicast rules exist: round robin guarantees remote edges.
    let remote = phys.remote_edge_pairs(&logical);
    assert!(remote > 0, "expected cross-host edges under round robin");
    ctl_handle.stop();
    for h in handles {
        h.stop();
    }
}

#[test]
fn control_tuples_reach_workers_on_any_host() {
    let (ctl, switches, global) = three_host_setup();
    let hosts: Vec<HostInfo> = (0..3)
        .map(|i| HostInfo::new(i, &format!("h{i}"), 4))
        .collect();
    let logical = word_count_example();
    let phys = RoundRobinScheduler
        .schedule(AppId(1), &logical, &hosts)
        .unwrap();
    global.set_logical(&logical).unwrap();
    global.set_physical(&phys).unwrap();
    // Keep the worker ports so we can observe deliveries.
    let mut ports = std::collections::HashMap::new();
    for a in &phys.assignments {
        let sw = &switches[a.host.0 as usize];
        ports.insert(a.task, sw.attach_worker(PortNo(a.switch_port)));
    }
    let handles: Vec<_> = switches.iter().map(|sw| sw.spawn()).collect();
    let ctl_handle = ctl.spawn(Duration::from_millis(50));
    ctl.install_topology(&logical, &phys);
    // Send a Signal to every task; each must land on its own host's port.
    for a in &phys.assignments {
        assert!(
            ctl.send_control(AppId(1), a.task, &ControlTuple::Signal),
            "send to {} failed",
            a.task
        );
    }
    for (task, port) in &ports {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(Some(_frame)) = port.rx.pop() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "control tuple never reached {task}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // No misses: every PacketOut matched a controller→worker rule.
    for sw in &switches {
        assert_eq!(sw.miss_count(), 0, "control tuple missed the rule table");
    }
    ctl_handle.stop();
    for h in handles {
        h.stop();
    }
}
