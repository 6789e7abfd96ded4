//! The controller core: switch sessions, event pump, app dispatch.
//!
//! Per §3.4 the controller is *stateless* about deployments: everything it
//! needs (logical/physical topologies, agent registry) is read from the
//! central coordinator, and flow rules are regenerated from that state.
//! What it does keep is operational plumbing: the per-switch control
//! channels, latest stats snapshots, and the registered control-plane apps.

use crate::apps::ControlPlaneApp;
use crate::control::{ControlTuple, CONTROLLER_TASK};
use crate::rules::build_rules;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_coordinator::global::GlobalState;
use typhoon_diag::{rank, DiagMutex as Mutex, DiagRwLock as RwLock};
use typhoon_metrics::Registry;
use typhoon_model::{AppId, HostId, LogicalTopology, PhysicalTopology, TaskId};
use typhoon_net::{Depacketizer, Doorbell, Frame, MacAddr, Next, Packetizer, Round, Runner, Stop};
use typhoon_openflow::{
    wire, DatapathId, FlowMod, FlowStats, OfMessage, PortNo, PortStats, PortStatusReason,
};
use typhoon_switch::ControlChannel;
use typhoon_tuple::ser::{encode_tuple_vec, SerStats};
use typhoon_tuple::Tuple;

/// One connected switch: its host, datapath ID and control channel.
#[derive(Debug, Clone)]
pub struct SwitchBinding {
    /// The compute host the switch runs on.
    pub host: HostId,
    /// The switch's datapath ID.
    pub dpid: DatapathId,
    /// The control channel (encoded OpenFlow both ways).
    pub channel: ControlChannel,
}

struct CtlInner {
    global: GlobalState,
    switches: RwLock<BTreeMap<HostId, SwitchBinding>>,
    apps: Mutex<Vec<Box<dyn ControlPlaneApp>>>,
    port_stats: Mutex<HashMap<HostId, Vec<PortStats>>>,
    flow_stats: Mutex<HashMap<HostId, Vec<FlowStats>>>,
    depacketizers: Mutex<HashMap<HostId, Depacketizer>>,
    /// Barriers sent and not yet answered: xid → the waiter's bell.
    barrier_waiters: Mutex<HashMap<u32, Doorbell>>,
    ser: Arc<SerStats>,
    packetizer: Packetizer,
    next_xid: AtomicU32,
    /// What the spawned pump loop waits on; every registered switch rings
    /// it after an event or reply.
    bell: Doorbell,
    /// The pump loop's `loop.*`.
    registry: Registry,
    /// HA write-through: successful rule sends are recorded here so a
    /// successor leader can re-install them (None outside an HA plane).
    ledger: Option<Arc<crate::ha::RuleLedger>>,
}

/// The Typhoon SDN controller.
#[derive(Clone)]
pub struct Controller {
    inner: Arc<CtlInner>,
}

impl Controller {
    /// Creates a controller bound to the cluster's coordinator state.
    pub fn new(global: GlobalState) -> Self {
        Self::build(global, None)
    }

    /// Creates a controller that write-through-records every rule it
    /// successfully installs into `ledger` — the HA replica constructor
    /// (a deposed leader's sends fail, so it records nothing).
    pub fn with_ledger(global: GlobalState, ledger: Arc<crate::ha::RuleLedger>) -> Self {
        Self::build(global, Some(ledger))
    }

    fn build(global: GlobalState, ledger: Option<Arc<crate::ha::RuleLedger>>) -> Self {
        Controller {
            inner: Arc::new(CtlInner {
                global,
                switches: RwLock::with_rank(
                    rank::CONTROLLER,
                    "controller.switches",
                    BTreeMap::new(),
                ),
                apps: Mutex::with_rank(rank::CTRL_APPS, "controller.apps", Vec::new()),
                port_stats: Mutex::with_rank(
                    rank::CTRL_PORT_STATS,
                    "controller.port_stats",
                    HashMap::new(),
                ),
                flow_stats: Mutex::with_rank(
                    rank::CTRL_FLOW_STATS,
                    "controller.flow_stats",
                    HashMap::new(),
                ),
                depacketizers: Mutex::with_rank(
                    rank::CTRL_DEPACKETIZERS,
                    "controller.depacketizers",
                    HashMap::new(),
                ),
                barrier_waiters: Mutex::with_rank(
                    rank::CTRL_BARRIER_WAITERS,
                    "controller.barrier_waiters",
                    HashMap::new(),
                ),
                ser: SerStats::shared(),
                packetizer: Packetizer::default(),
                next_xid: AtomicU32::new(1),
                bell: Doorbell::new(),
                registry: Registry::new(),
                ledger,
            }),
        }
    }

    /// The coordinator-backed global state (Table 1).
    pub fn global(&self) -> &GlobalState {
        &self.inner.global
    }

    /// The pump loop's `loop.rounds`, `loop.parks` and `loop.rung`.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Serialization meter for controller-generated control tuples.
    pub fn ser_stats(&self) -> &Arc<SerStats> {
        &self.inner.ser
    }

    /// Registers a switch session (the OpenFlow handshake of a real
    /// deployment, collapsed to channel registration here). From now on
    /// the switch wakes this controller's pump loop.
    pub fn register_switch(&self, host: HostId, dpid: DatapathId, channel: ControlChannel) {
        let binding = SwitchBinding {
            host,
            dpid,
            channel: channel.clone(),
        };
        self.inner.switches.write().insert(host, binding);
        // Pumped from now on, so the bell (rung as it is set) finds what
        // the switch queued before.
        channel.set_doorbell(self.inner.bell.clone());
    }

    /// Registers a control-plane application (§4).
    pub fn add_app(&self, app: Box<dyn ControlPlaneApp>) {
        self.inner.apps.lock().push(app);
    }

    /// Hosts with a registered switch.
    pub fn hosts(&self) -> Vec<HostId> {
        self.inner.switches.read().keys().copied().collect()
    }

    /// Drops every switch binding — the crash path of an HA replica. The
    /// control channels close with the bindings; switches that have seen
    /// a real leader degrade to headless forwarding until the next one
    /// connects.
    pub fn unregister_all(&self) {
        self.inner.switches.write().clear();
    }

    fn send_to_switch(&self, host: HostId, msg: &OfMessage) -> bool {
        // Clone the channel and release the switches lock before the
        // send (TL008); a switch with a full inbox fails it, never blocks.
        let channel = {
            let switches = self.inner.switches.read();
            match switches.get(&host) {
                Some(b) => b.channel.clone(),
                None => return false,
            }
        };
        let ok = channel.send(wire::encode(msg)).is_ok();
        if ok {
            if let Some(ledger) = &self.inner.ledger {
                ledger.record(host, msg);
            }
        }
        ok
    }

    /// Installs the full Table 3 rule plan for a scheduled topology
    /// (§3.2 step (iii), "Network setup"), then fences each switch with a
    /// barrier so callers know the rules are active. Returns `false` when
    /// any send or barrier fails — the leader may have died mid-install;
    /// the caller should retry against the next leader.
    pub fn install_topology(&self, logical: &LogicalTopology, physical: &PhysicalTopology) -> bool {
        let plan = build_rules(logical, physical);
        let mut ok = true;
        for (host, groups) in &plan.groups {
            for gm in groups {
                ok &= self.send_to_switch(*host, &OfMessage::GroupMod(gm.clone()));
            }
        }
        for (host, flows) in &plan.flows {
            for fm in flows {
                ok &= self.send_to_switch(*host, &OfMessage::FlowMod(fm.clone()));
            }
        }
        let hosts: Vec<HostId> = plan.flows.keys().copied().collect();
        ok & self.sync_switches(&hosts, Duration::from_secs(5))
    }

    /// Removes every rule of a topology by sending per-rule strict deletes.
    pub fn uninstall_topology(&self, logical: &LogicalTopology, physical: &PhysicalTopology) {
        let plan = build_rules(logical, physical);
        for (host, flows) in &plan.flows {
            for fm in flows {
                let mut del = FlowMod::delete(fm.matcher);
                del.priority = fm.priority;
                self.send_to_switch(*host, &OfMessage::FlowMod(del));
            }
        }
    }

    /// Sends one raw `FlowMod` to a host's switch (used by apps).
    pub fn send_flow_mod(&self, host: HostId, fm: FlowMod) -> bool {
        self.send_to_switch(host, &OfMessage::FlowMod(fm))
    }

    /// Sends one raw `GroupMod` to a host's switch (used by apps).
    pub fn send_group_mod(&self, host: HostId, gm: typhoon_openflow::GroupMod) -> bool {
        self.send_to_switch(host, &OfMessage::GroupMod(gm))
    }

    /// Fences a switch: sends a barrier and waits for its reply (or the
    /// timeout). The reply is consumed by the pumping thread (the spawned
    /// controller loop, [`Controller::spawn`]), which strikes the xid from
    /// the waiter registry and rings the waiter; a struck xid is the
    /// answer. Without a pump, every fence times out.
    pub fn sync_switch(&self, host: HostId, timeout: Duration) -> bool {
        self.sync_switches(&[host], timeout)
    }

    /// Fences several switches in one round trip: every barrier is sent
    /// before the first reply is awaited. `false` when any send or reply
    /// failed.
    pub fn sync_switches(&self, hosts: &[HostId], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (pending, bell) = (&self.inner.barrier_waiters, Doorbell::new());
        let barriers: Vec<(u32, bool)> = hosts
            .iter()
            .map(|&host| {
                let xid = self.inner.next_xid.fetch_add(1, Ordering::Relaxed);
                pending.lock().insert(xid, bell.clone());
                let sent = self.send_to_switch(host, &OfMessage::Barrier { xid });
                (xid, sent)
            })
            .collect();
        let mut ok = true;
        for (xid, sent) in barriers {
            let unanswered = || pending.lock().contains_key(&xid);
            while sent && unanswered() && Instant::now() <= deadline {
                bell.wait(Some(deadline), unanswered);
            }
            // Still ours to remove means no reply; already gone means it
            // was answered (perhaps racing the deadline, and winning).
            ok &= pending.lock().remove(&xid).is_none();
        }
        ok
    }

    /// Injects a control tuple to one worker via `PacketOut` (§3.4).
    pub fn send_control(&self, app: AppId, task: TaskId, ct: &ControlTuple) -> bool {
        let physical = match self.find_physical_for_task(app, task) {
            Some(p) => p,
            None => return false,
        };
        let assignment = match physical.assignment(task) {
            Some(a) => a.clone(),
            None => return false,
        };
        let tuple = ct.to_tuple(CONTROLLER_TASK);
        let blob = Bytes::from(encode_tuple_vec(&tuple, &self.inner.ser));
        let dst = MacAddr::worker(app.0, task);
        let frames =
            self.inner
                .packetizer
                .pack(MacAddr::CONTROLLER, dst, std::slice::from_ref(&blob));
        for frame in frames {
            let ok = self.send_to_switch(
                assignment.host,
                &OfMessage::PacketOut {
                    in_port: PortNo::CONTROLLER,
                    frame: frame.encode(),
                },
            );
            if !ok {
                return false;
            }
        }
        true
    }

    /// Injects a control tuple to many workers.
    pub fn send_control_many(&self, app: AppId, tasks: &[TaskId], ct: &ControlTuple) -> usize {
        tasks
            .iter()
            .filter(|&&t| self.send_control(app, t, ct))
            .count()
    }

    fn find_physical_for_task(&self, app: AppId, task: TaskId) -> Option<PhysicalTopology> {
        for name in self.inner.global.list_topologies().ok()? {
            if let Ok(p) = self.inner.global.get_physical(&name) {
                if p.app == app && p.assignment(task).is_some() {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Fires async stats requests at one switch (answers land in the
    /// caches read by [`Controller::port_stats`]/[`Controller::flow_stats`]).
    pub fn request_stats(&self, host: HostId) {
        self.send_to_switch(host, &OfMessage::PortStatsRequest);
        self.send_to_switch(host, &OfMessage::FlowStatsRequest);
    }

    /// Latest port stats received from `host`.
    pub fn port_stats(&self, host: HostId) -> Vec<PortStats> {
        self.inner
            .port_stats
            .lock()
            .get(&host)
            .cloned()
            .unwrap_or_default()
    }

    /// Latest flow stats received from `host`.
    pub fn flow_stats(&self, host: HostId) -> Vec<FlowStats> {
        self.inner
            .flow_stats
            .lock()
            .get(&host)
            .cloned()
            .unwrap_or_default()
    }

    /// Drains pending switch events, dispatching to apps. Returns the
    /// number of messages handled.
    pub fn pump(&self) -> usize {
        let hosts = self.hosts();
        let mut handled = 0;
        for host in hosts {
            while self.pump_once(host) {
                handled += 1;
            }
        }
        handled
    }

    /// Handles at most one pending message from `host`; returns whether
    /// one was handled.
    fn pump_once(&self, host: HostId) -> bool {
        let raw: Option<Bytes> = {
            let switches = self.inner.switches.read();
            match switches.get(&host) {
                Some(b) => b.channel.try_recv(),
                None => None,
            }
        };
        let raw = match raw {
            Some(r) => r,
            None => return false,
        };
        let msg = match wire::decode(raw) {
            Ok((m, _)) => m,
            Err(_) => return true,
        };
        match &msg {
            OfMessage::BarrierReply { xid } => {
                // Ring after the registry guard drops (TL008).
                let waiter = self.inner.barrier_waiters.lock().remove(xid);
                if let Some(bell) = waiter {
                    bell.ring();
                }
            }
            OfMessage::PortStatsReply(stats) => {
                self.inner.port_stats.lock().insert(host, stats.clone());
            }
            OfMessage::FlowStatsReply(stats) => {
                self.inner.flow_stats.lock().insert(host, stats.clone());
            }
            OfMessage::PortStatus { reason, port } => {
                self.dispatch_port_status(host, *reason, *port);
            }
            OfMessage::PacketIn { frame, .. } => {
                if let Ok(f) = Frame::decode(frame.clone()) {
                    self.dispatch_packet_in(host, f);
                }
            }
            _ => {}
        }
        true
    }

    fn dispatch_port_status(&self, host: HostId, reason: PortStatusReason, port: PortNo) {
        let mut apps = self.inner.apps.lock();
        for app in apps.iter_mut() {
            app.on_port_status(self, host, reason, port);
        }
    }

    fn dispatch_packet_in(&self, host: HostId, frame: Frame) {
        // Reassemble tuples (control responses are packetized like data).
        let blobs = {
            let mut depkts = self.inner.depacketizers.lock();
            match depkts.entry(host).or_default().push(&frame) {
                Ok(b) => b,
                Err(_) => return,
            }
        };
        for (src, blob) in blobs {
            let tuple: Tuple = match typhoon_tuple::ser::decode_tuple(&blob, &self.inner.ser) {
                Ok((t, _)) => t,
                Err(_) => continue,
            };
            if let Some(ControlTuple::MetricResp {
                request_id,
                task,
                metrics,
            }) = ControlTuple::from_tuple(&tuple)
            {
                // The worker's MAC prefix identifies its application.
                let app_id = AppId(src.app());
                let mut apps = self.inner.apps.lock();
                for app in apps.iter_mut() {
                    app.on_metric_resp(self, app_id, task, request_id, &metrics);
                }
            }
        }
        let mut apps = self.inner.apps.lock();
        for app in apps.iter_mut() {
            app.on_packet_in(self, host, &frame);
        }
    }

    /// Spawns the controller loop on the round runner: pump events while
    /// there are any, tick apps every `tick_interval`, and park on the bell
    /// (rung by the switches) until the next tick in between. Dropping the
    /// returned handle stops and joins it.
    pub fn spawn(&self, tick_interval: Duration) -> Runner {
        let ctl = self.clone();
        Runner::spawn("sdn-controller", Stop::new(), self.registry(), move |now| {
            Box::new(PumpRound {
                ctl,
                tick_interval,
                next_tick: now + tick_interval,
            })
        })
    }
}

/// The controller loop's round.
struct PumpRound {
    ctl: Controller,
    tick_interval: Duration,
    next_tick: Instant,
}

impl Round for PumpRound {
    fn bell(&self) -> &Doorbell {
        &self.ctl.inner.bell
    }

    fn round(&mut self, now: Instant) -> Next {
        let handled = self.ctl.pump();
        if now >= self.next_tick {
            self.next_tick = now + self.tick_interval;
            let ctl = &self.ctl;
            ctl.inner
                .apps
                .lock()
                .iter_mut()
                .for_each(|app| app.on_tick(ctl, now));
        }
        match handled {
            0 => Next::At(self.next_tick),
            _ => Next::Again,
        }
    }

    fn idle(&mut self) -> bool {
        self.ctl.pump() == 0
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Controller({} switches)",
            self.inner.switches.read().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use typhoon_coordinator::Coordinator;
    use typhoon_model::logical::word_count_example;
    use typhoon_model::{HostInfo, LocalityScheduler, Scheduler};
    use typhoon_switch::{Switch, SwitchConfig};

    fn setup_one_host() -> (Controller, Switch, GlobalState) {
        let global = GlobalState::new(Coordinator::new());
        let ctl = Controller::new(global.clone());
        let (sw, ch) = Switch::new(SwitchConfig::new(0));
        ctl.register_switch(HostId(0), sw.dpid(), ch);
        (ctl, sw, global)
    }

    fn deploy_word_count(ctl: &Controller, sw: &Switch, global: &GlobalState) -> PhysicalTopology {
        let logical = word_count_example();
        let phys = LocalityScheduler
            .schedule(AppId(1), &logical, &[HostInfo::new(0, "h0", 8)])
            .unwrap();
        global.set_logical(&logical).unwrap();
        global.set_physical(&phys).unwrap();
        // Pre-attach the workers' ports so rules have endpoints.
        for a in &phys.assignments {
            let _wp = sw.attach_worker(PortNo(a.switch_port));
            std::mem::forget(_wp); // keep rings alive for the test
        }
        // The install waits on its barrier: the switch answers on its own
        // datapath thread, and the controller's pump strikes the reply.
        let (pump, datapath) = (ctl.spawn(Duration::from_secs(3600)), sw.spawn());
        assert!(ctl.install_topology(&word_count_example(), &phys));
        pump.stop();
        datapath.stop();
        phys
    }

    /// `switch.rules`, as a scrape of the switch's registry reads it.
    fn rules(sw: &Switch) -> i64 {
        sw.registry().snapshot().gauge("switch.rules")
    }

    #[test]
    fn install_topology_programs_rules_and_fences() {
        let (ctl, sw, global) = setup_one_host();
        deploy_word_count(&ctl, &sw, &global);
        assert!(rules(&sw) > 6, "data + control rules installed");
    }

    #[test]
    fn uninstall_topology_removes_rules() {
        let (ctl, sw, global) = setup_one_host();
        let phys = deploy_word_count(&ctl, &sw, &global);
        let before = rules(&sw);
        ctl.uninstall_topology(&word_count_example(), &phys);
        for _ in 0..10 {
            sw.process_round();
        }
        assert!(rules(&sw) < before);
        assert_eq!(rules(&sw), 0, "strict deletes cover the whole plan");
    }

    #[test]
    fn stats_round_trip_into_cache() {
        let (ctl, sw, global) = setup_one_host();
        deploy_word_count(&ctl, &sw, &global);
        ctl.request_stats(HostId(0));
        sw.process_round();
        ctl.pump();
        assert!(!ctl.port_stats(HostId(0)).is_empty());
        assert!(!ctl.flow_stats(HostId(0)).is_empty());
    }

    #[test]
    fn send_control_reaches_worker_port() {
        let global = GlobalState::new(Coordinator::new());
        let ctl = Controller::new(global.clone());
        let (sw, ch) = Switch::new(SwitchConfig::new(0));
        ctl.register_switch(HostId(0), sw.dpid(), ch);
        let logical = word_count_example();
        let phys = LocalityScheduler
            .schedule(AppId(1), &logical, &[HostInfo::new(0, "h0", 8)])
            .unwrap();
        global.set_logical(&logical).unwrap();
        global.set_physical(&phys).unwrap();
        // Attach only the target worker's port and keep its endpoints.
        let target = phys.tasks_of("split")[0];
        let port = PortNo(phys.assignment(target).unwrap().switch_port);
        let wp = sw.attach_worker(port);
        // Install the whole plan (the switch runs its own datapath thread
        // for the barrier and the PacketOut, the controller its pump).
        let (_pump, _datapath) = (ctl.spawn(Duration::from_secs(3600)), sw.spawn());
        assert!(ctl.install_topology(&logical, &phys));
        assert!(ctl.send_control(AppId(1), target, &ControlTuple::BatchSize { size: 250 }));
        // Wait for the frame on the worker port's own bell.
        let deadline = Instant::now() + Duration::from_secs(5);
        let frame = loop {
            if let Ok(Some(f)) = wp.rx.pop() {
                break f;
            }
            assert!(Instant::now() < deadline, "control tuple never arrived");
            wp.rx.bell().wait(Some(deadline), || wp.rx.is_empty());
        };
        // Depacketize and decode it back into the control tuple.
        let mut d = Depacketizer::new();
        let blobs = d.push(&frame).unwrap();
        assert_eq!(blobs.len(), 1);
        let stats = SerStats::default();
        let (tuple, _) = typhoon_tuple::ser::decode_tuple(&blobs[0].1, &stats).unwrap();
        assert_eq!(
            ControlTuple::from_tuple(&tuple),
            Some(ControlTuple::BatchSize { size: 250 })
        );
    }

    #[test]
    fn send_control_to_unknown_task_fails_cleanly() {
        let (ctl, _sw, _global) = setup_one_host();
        assert!(!ctl.send_control(AppId(9), TaskId(1), &ControlTuple::Signal));
    }

    #[test]
    fn a_thousand_barriers_from_two_threads_all_answered_and_none_left() {
        // The deployed shape: a spawned switch and a spawned controller.
        let (ctl, sw, _global) = setup_one_host();
        let (pump, datapath) = (ctl.spawn(Duration::from_millis(100)), sw.spawn());
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let ctl = ctl.clone();
                std::thread::spawn(move || {
                    (0..500)
                        .filter(|_| ctl.sync_switch(HostId(0), Duration::from_secs(10)))
                        .count()
                })
            })
            .collect();
        let answered: usize = callers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(answered, 1000);
        assert!(ctl.inner.barrier_waiters.lock().is_empty());
        pump.stop();
        datapath.stop();
        // The spawned loop pumped every reply off the ring.
        let (pushed, popped, shed) = ctl.inner.switches.read()[&HostId(0)].channel.stats();
        assert!(pushed >= 1000, "{pushed}");
        assert_eq!((popped, shed), (pushed, 0));
    }

    #[test]
    fn a_switch_that_never_answers_fails_the_fence_at_the_timeout_and_leaves_no_xid() {
        // Nobody drives the switch: the barrier is never processed.
        let (ctl, _sw, _global) = setup_one_host();
        let t = Instant::now();
        assert!(!ctl.sync_switch(HostId(0), Duration::from_millis(20)));
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert!(ctl.inner.barrier_waiters.lock().is_empty());
        // A host with no switch fails at once, and leaves nothing either.
        assert!(!ctl.sync_switches(&[HostId(0), HostId(9)], Duration::from_millis(5)));
        assert!(ctl.inner.barrier_waiters.lock().is_empty());
    }

    /// The lost-wake-up race of the barrier bell, on the real primitives:
    /// another thread pumps the reply (strike, then ring) while the caller
    /// is anywhere between "registered" and "parked". A strike that lands
    /// before the caller arms finds the bell unarmed and wakes nobody, so
    /// the re-check must see it; a missed one parks the caller until its
    /// deadline. Counted: no park waits its deadline out, and in all but a
    /// few rounds the ring ends the last park (an unpark token left by the
    /// round before ends a park unrung, at once, and the next one is rung).
    #[test]
    fn a_reply_pumped_before_the_waiter_arms_is_seen_by_the_recheck() {
        const ROUNDS: u32 = 10_000;
        let (ctl, sw, _global) = setup_one_host();
        let stop = Arc::new(AtomicBool::new(false));
        // The "other" pumping thread: drives the switch and strikes xids
        // as fast as it can, so strikes land at every point of the wait.
        let pumper = {
            let (ctl, stop) = (ctl.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    sw.process_round();
                    ctl.pump();
                    std::thread::yield_now();
                }
            })
        };
        let pending = &ctl.inner.barrier_waiters;
        let (mut parked, mut unrung_last, mut expired) = (0u32, 0u32, 0u32);
        for round in 0..ROUNDS {
            // `sync_switches` by hand, so the wait's outcome is visible.
            let (xid, bell) = (
                ctl.inner.next_xid.fetch_add(1, Ordering::Relaxed),
                Doorbell::new(),
            );
            pending.lock().insert(xid, bell.clone());
            assert!(ctl.send_to_switch(HostId(0), &OfMessage::Barrier { xid }));
            // A varying head start for the striker: from "strikes while we
            // park" to "struck before we look".
            for _ in 0..(round % 64) * 50 {
                std::hint::spin_loop();
            }
            let (deadline, mut last_park) = (Instant::now() + Duration::from_secs(10), None);
            while pending.lock().contains_key(&xid) {
                let mut did_park = false;
                let rung = bell.wait(Some(deadline), || {
                    did_park = pending.lock().contains_key(&xid);
                    did_park
                });
                if did_park {
                    (parked, last_park) = (parked + 1, Some(rung));
                }
                expired += u32::from(Instant::now() >= deadline);
            }
            unrung_last += u32::from(last_park == Some(false));
        }
        stop.store(true, Ordering::Release);
        pumper.join().unwrap();
        assert!(pending.lock().is_empty());
        assert_eq!(expired, 0, "a strike rang nobody: {parked} parks");
        assert!(
            unrung_last <= ROUNDS / 20,
            "{unrung_last} of {ROUNDS} rounds answered without the ring ({parked} parks)"
        );
    }
}
