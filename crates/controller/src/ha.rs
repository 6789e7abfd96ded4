//! Controller high availability: replicated controllers, leader election,
//! and failover rule re-sync.
//!
//! §3.4 makes the controller *stateless* about deployments — everything it
//! needs is in the central coordinator — which is exactly what makes it
//! replicable: run 2–3 [`Controller`] replicas, elect one leader through
//! the coordinator ([`typhoon_coordinator::LeaderElection`]: ephemeral
//! session + watch), and on failover the successor regenerates its
//! operational state from two coordinator-backed sources:
//!
//! * the Table 1 global state (topologies, agents) it shares with the
//!   streaming manager, and
//! * the [`RuleLedger`] — the authoritative record of every flow/group
//!   rule the last leader installed, persisted under
//!   `/typhoon/ctlstate/host-<h>` as concatenated wire-encoded OpenFlow
//!   messages. Steering deltas applied *after* the initial Table 3 plan
//!   (ack rules, load-balancer group retunes, recovery re-steers) live
//!   only here, so replaying the ledger — not re-running the rule
//!   compiler — is what makes the new leader's view exact.
//!
//! The election term doubles as a fencing token: a switch accepts a
//! reconnect only at a term ≥ the highest it has seen
//! ([`typhoon_switch::Switch::connect_controller`]), so a deposed leader
//! that believes it still reigns is rejected at the datapath. Between
//! leaders the switches run *headless* — forwarding continues on installed
//! rules and the megaflow cache while controller-bound events queue for
//! replay (see `typhoon_switch::link`).
//!
//! Observability: `controller.ha.*` metrics (role, term, failover_ms,
//! resync_rules, headless_s) and the monitor loop's `loop.*` on the plane's
//! [`Registry`]; naming is documented in docs/OBSERVABILITY.md.

use crate::apps::ControlPlaneApp;
use crate::controller::Controller;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_coordinator::global::GlobalState;
use typhoon_coordinator::{Coordinator, LeaderElection, SessionId};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::Registry;
use typhoon_model::HostId;
use typhoon_net::{Doorbell, Next, Runner, Signal, Stop};
use typhoon_openflow::{wire, FlowMod, FlowModCommand, GroupMod, GroupModCommand, OfMessage};
use typhoon_switch::Switch;

/// Coordinator prefix under which per-host rule state is persisted.
pub const CTLSTATE_PREFIX: &str = "/typhoon/ctlstate";

/// The mirrored rule/group state of one switch.
#[derive(Debug, Default, Clone)]
struct HostRules {
    /// Installed flow rules, in install order (replays as `Add`s).
    flows: Vec<FlowMod>,
    /// Installed groups by raw group ID (groups replay before flows,
    /// because flow actions reference them).
    groups: BTreeMap<u32, GroupMod>,
}

/// The authoritative record of installed rules, persisted in the
/// coordinator store so a successor leader can re-install them.
///
/// Every successful `FlowMod`/`GroupMod` send write-through-records here
/// (see [`Controller::with_ledger`]); the in-memory mirror applies the
/// same add/modify/delete subsumption semantics as the switch flow table,
/// so the ledger holds the *net* state, not the message history. A
/// deposed leader cannot corrupt the ledger: its channels are gone, its
/// sends fail, and only successful sends are recorded.
pub struct RuleLedger {
    coord: Coordinator,
    prefix: String,
    hosts: Mutex<BTreeMap<HostId, HostRules>>,
}

impl RuleLedger {
    /// A ledger persisting under [`CTLSTATE_PREFIX`].
    pub fn new(coord: Coordinator) -> Self {
        Self::with_prefix(coord, CTLSTATE_PREFIX)
    }

    /// A ledger persisting under a custom prefix (tests).
    pub fn with_prefix(coord: Coordinator, prefix: &str) -> Self {
        RuleLedger {
            coord,
            prefix: prefix.to_owned(),
            hosts: Mutex::with_rank(rank::CTRL_LEDGER, "controller.ha.ledger", BTreeMap::new()),
        }
    }

    fn host_path(&self, host: HostId) -> String {
        format!("{}/host-{}", self.prefix, host.0)
    }

    /// Records one control message against `host` and persists the updated
    /// net state. Non-rule messages (barriers, packet-outs, stats) are
    /// ignored — they are not state.
    pub fn record(&self, host: HostId, msg: &OfMessage) {
        // Mutate-and-persist under one lock so concurrent senders cannot
        // interleave a stale snapshot into the store. Ledger → store is
        // rank-increasing (CTRL_LEDGER < COORD_STORE).
        let mut hosts = self.hosts.lock();
        let rules = hosts.entry(host).or_default();
        match msg {
            OfMessage::FlowMod(fm) => apply_flow(&mut rules.flows, fm),
            OfMessage::GroupMod(gm) => apply_group(&mut rules.groups, gm),
            _ => return,
        }
        let encoded = encode_host(rules);
        let _ = self.coord.ensure_path(&self.prefix);
        let _ = self.coord.put(&self.host_path(host), encoded);
    }

    /// Rules currently mirrored for `host` (flows + groups).
    pub fn rule_count(&self, host: HostId) -> usize {
        self.hosts
            .lock()
            .get(&host)
            .map(|r| r.flows.len() + r.groups.len())
            .unwrap_or(0)
    }

    /// Decodes the persisted net state for `host` back into installable
    /// messages: groups first, then flows, in install order. Reads the
    /// *store*, not the in-memory mirror — this is the failover path, and
    /// the successor may be a different process in a real deployment.
    pub fn replay_messages(&self, host: HostId) -> Vec<OfMessage> {
        let Ok((data, _)) = self.coord.get(&self.host_path(host)) else {
            return Vec::new();
        };
        let mut bytes = Bytes::from(data);
        let mut out = Vec::new();
        while !bytes.is_empty() {
            match wire::decode(bytes.clone()) {
                Ok((msg, consumed)) => {
                    out.push(msg);
                    bytes = bytes.slice(consumed..);
                }
                Err(_) => break,
            }
        }
        out
    }
}

/// Mirror of `FlowTable::apply` add/modify/delete subsumption semantics.
fn apply_flow(flows: &mut Vec<FlowMod>, fm: &FlowMod) {
    match fm.command {
        FlowModCommand::Add => {
            let mut add = fm.clone();
            if let Some(e) = flows
                .iter_mut()
                .find(|e| e.matcher == fm.matcher && e.priority == fm.priority)
            {
                *e = add;
            } else {
                add.command = FlowModCommand::Add;
                flows.push(add);
            }
        }
        FlowModCommand::Modify => {
            for e in flows.iter_mut() {
                if fm.matcher.subsumes(&e.matcher) {
                    e.actions = fm.actions.clone();
                }
            }
        }
        FlowModCommand::Delete => {
            flows.retain(|e| {
                !(fm.matcher.subsumes(&e.matcher)
                    && (fm.priority == 0 || fm.priority == e.priority))
            });
        }
    }
}

fn apply_group(groups: &mut BTreeMap<u32, GroupMod>, gm: &GroupMod) {
    match gm.command {
        GroupModCommand::Add | GroupModCommand::Modify => {
            groups.insert(gm.group.0, GroupMod::add(gm.group, gm.buckets.clone()));
        }
        GroupModCommand::Delete => {
            groups.remove(&gm.group.0);
        }
    }
}

fn encode_host(rules: &HostRules) -> Vec<u8> {
    let mut out = Vec::new();
    for gm in rules.groups.values() {
        out.extend_from_slice(&wire::encode(&OfMessage::GroupMod(gm.clone())));
    }
    for fm in &rules.flows {
        let mut add = fm.clone();
        add.command = FlowModCommand::Add;
        out.extend_from_slice(&wire::encode(&OfMessage::FlowMod(add)));
    }
    out
}

/// How long a new leader waits for its switches' barrier replies before it
/// publishes itself anyway (and counts `controller.ha.resync_fence_giveup`).
const FENCE_TIMEOUT: Duration = Duration::from_secs(5);

struct ReplicaSlot {
    name: String,
    controller: Controller,
    session: SessionId,
    alive: bool,
    /// When the monitor closes this crashed replica's session: its death
    /// plus the session timeout. `None` while alive and once closed.
    session_deadline: Option<Instant>,
    /// The replica's pump loop while it runs.
    pump: Option<Runner>,
}

/// Dropped in field order: the monitor stops before the pumps it may be
/// fencing through.
struct PlaneState {
    monitor: Option<Runner>,
    replicas: Vec<ReplicaSlot>,
    switches: BTreeMap<HostId, Switch>,
    leader: Option<usize>,
    /// One bell per thread parked in [`ControlPlane::wait_leader`], rung
    /// when a leader is published.
    leader_bells: Vec<Arc<Doorbell>>,
}

struct PlaneInner {
    election: LeaderElection,
    ledger: Arc<RuleLedger>,
    session_timeout: Duration,
    registry: Registry,
    /// Raised by every change of the leader znode and by a crash: what the
    /// monitor loop parks on.
    monitor_signal: Signal,
    state: Mutex<PlaneState>,
}

/// A replicated control plane: N controller replicas, one elected leader.
///
/// The leader owns every switch's control channel; followers idle with no
/// switches bound. A monitor loop parks until the leader znode changes. It
/// closes a crashed replica's session once the session timeout has passed
/// since the crash (only its *own* replicas' sessions: worker agents hold
/// theirs until they close them), and campaigns whenever the leader znode
/// is vacant. The monitor holds the plane weakly: dropping the last handle
/// stops and joins the monitor and every replica's pump.
#[derive(Clone)]
pub struct ControlPlane {
    inner: Arc<PlaneInner>,
}

impl ControlPlane {
    /// Builds `replicas` controller replicas over `global`'s coordinator. A
    /// crashed replica's session is closed `session_timeout` after the
    /// crash, which bounds the leaderless window from below. Nothing is
    /// elected until [`ControlPlane::start`].
    pub fn new(global: GlobalState, replicas: usize, session_timeout: Duration) -> Self {
        let coord = global.coordinator().clone();
        let ledger = Arc::new(RuleLedger::new(coord.clone()));
        let election = LeaderElection::new(coord.clone());
        let slots = (0..replicas.max(1))
            .map(|i| ReplicaSlot {
                name: format!("controller-{i}"),
                controller: Controller::with_ledger(global.clone(), Arc::clone(&ledger)),
                session: coord.create_session(),
                alive: true,
                session_deadline: None,
                pump: None,
            })
            .collect();
        ControlPlane {
            inner: Arc::new(PlaneInner {
                election,
                ledger,
                session_timeout,
                registry: Registry::new(),
                monitor_signal: Signal::new(),
                state: Mutex::with_rank(
                    rank::CTRL_HA,
                    "controller.ha.plane",
                    PlaneState {
                        monitor: None,
                        replicas: slots,
                        switches: BTreeMap::new(),
                        leader: None,
                        leader_bells: Vec::new(),
                    },
                ),
            }),
        }
    }

    /// Puts a switch under this plane's management: whoever leads connects
    /// to it (with its term as the fencing token) and re-installs its
    /// ledgered rules.
    pub fn manage_switch(&self, host: HostId, switch: Switch) {
        self.inner.state.lock().switches.insert(host, switch);
    }

    /// Registers a control-plane app on *every* replica via `factory`.
    /// Apps must exist on whichever replica wins — registering on just the
    /// current leader would lose them at failover.
    pub fn add_app_factory(&self, factory: impl Fn() -> Box<dyn ControlPlaneApp>) {
        let controllers: Vec<Controller> = {
            let state = self.inner.state.lock();
            state
                .replicas
                .iter()
                .map(|s| s.controller.clone())
                .collect()
        };
        for c in controllers {
            c.add_app(factory());
        }
    }

    /// Spawns every replica's event pump, elects the initial leader
    /// synchronously, then starts the monitor loop.
    pub fn start(&self, tick: Duration) {
        {
            let mut state = self.inner.state.lock();
            for slot in &mut state.replicas {
                if slot.pump.is_none() {
                    slot.pump = Some(slot.controller.spawn(tick));
                }
            }
        }
        self.elect_if_needed();
        // Subscribed before the first round reads the state, so a crash is
        // either seen by that read or raises the signal.
        let election = &self.inner.election;
        let signal = self.inner.monitor_signal.clone();
        let raise = signal.raiser();
        let coord = election.coordinator();
        coord.watch(&[&election.leader_path()], move |_| raise());
        let plane = Arc::downgrade(&self.inner);
        let round = move |now| match plane.upgrade() {
            Some(inner) => Next::until(ControlPlane { inner }.monitor_round(now)),
            None => Next::Done,
        };
        let monitor = Runner::spawn("ctl-ha-monitor", Stop::new(), &self.inner.registry, {
            move |_now| signal.on_raise(round)
        });
        self.inner.state.lock().monitor = Some(monitor);
    }

    /// One monitor round at `now`; returns the next session deadline.
    fn monitor_round(&self, now: Instant) -> Option<Instant> {
        // 1. Close the sessions of crashed replicas whose deadline has
        //    passed, vacating the leader znode if one of them held it.
        let (expired, next_deadline) = {
            let mut state = self.inner.state.lock();
            let mut expired = Vec::new();
            for slot in &mut state.replicas {
                if slot.session_deadline.is_some_and(|t| t <= now) {
                    slot.session_deadline = None;
                    expired.push(slot.session);
                }
            }
            let next = state
                .replicas
                .iter()
                .filter_map(|s| s.session_deadline)
                .min();
            (expired, next)
        };
        for sid in expired {
            self.inner.election.coordinator().close_session(sid);
        }
        // 2. Campaign when the leader znode is vacant.
        self.elect_if_needed();
        next_deadline
    }

    /// Campaigns with the lowest-index live replica when no leader holds
    /// the znode. At-most-one-leader-per-term is the election's invariant
    /// (verified by the `election` model-checker kernel).
    fn elect_if_needed(&self) {
        if self.inner.election.leader().is_some() {
            return;
        }
        let candidate = {
            let state = self.inner.state.lock();
            state
                .replicas
                .iter()
                .enumerate()
                .find(|(_, s)| s.alive)
                .map(|(i, s)| (i, s.name.clone(), s.session))
        };
        let Some((idx, name, session)) = candidate else {
            return;
        };
        if let Ok(Some(term)) = self.inner.election.try_acquire(session, &name) {
            self.become_leader(idx, term);
        }
    }

    /// Binds every managed switch to the new term, replays the rule ledger
    /// and fences each switch, then publishes the replica as leader.
    fn become_leader(&self, idx: usize, term: u64) {
        let t0 = Instant::now();
        let reg = &self.inner.registry;
        let (controller, switches) = {
            let state = self.inner.state.lock();
            (
                state.replicas[idx].controller.clone(),
                state.switches.clone(),
            )
        };
        // Reconnect: `connect_controller` is the fencing point. A
        // `StaleLeader` rejection means a newer term already owns the
        // datapath — resign and let the monitor re-campaign.
        for (host, switch) in &switches {
            match switch.connect_controller(term) {
                Ok(channel) => controller.register_switch(*host, switch.dpid(), channel),
                Err(_stale) => {
                    reg.counter("controller.ha.stale_rejected").inc();
                    self.inner.election.resign();
                    return;
                }
            }
        }
        // Re-install the authoritative net state from the coordinator
        // store (groups before flows — flow actions reference groups).
        let mut resync = 0u64;
        for host in switches.keys() {
            for msg in self.inner.ledger.replay_messages(*host) {
                let ok = match msg {
                    OfMessage::GroupMod(gm) => controller.send_group_mod(*host, gm),
                    OfMessage::FlowMod(fm) => controller.send_flow_mod(*host, fm),
                    _ => false,
                };
                if ok {
                    resync += 1;
                }
            }
        }
        // Fence every switch (one round trip for all of them) so the
        // re-sync is *active* before we publish leadership. A barrier waits
        // for its own reply, so there is nothing to retry.
        let hosts: Vec<HostId> = switches.keys().copied().collect();
        if !controller.sync_switches(&hosts, FENCE_TIMEOUT) {
            reg.counter("controller.ha.resync_fence_giveup").inc();
        }
        // The window each switch's `connect_controller` above just closed.
        let headless_ms = switches.values().fold(0, |ms, s| {
            ms.max(s.registry().gauge("switch.headless_last_ms").get())
        });
        let failover_ms = t0.elapsed().as_millis() as u64;
        reg.counter("controller.ha.elections").inc();
        if term > 1 {
            reg.counter("controller.ha.failovers").inc();
            reg.gauge("controller.ha.failover_ms")
                .set(failover_ms as i64);
            reg.histogram("controller.ha.failover_ms")
                .record(failover_ms);
        }
        reg.gauge("controller.ha.term").set(term as i64);
        reg.gauge("controller.ha.resync_rules").set(resync as i64);
        reg.gauge("controller.ha.headless_ms").set(headless_ms);
        reg.gauge("controller.ha.headless_s")
            .set(headless_ms / 1000);
        let mut state = self.inner.state.lock();
        state.leader = Some(idx);
        for (i, slot) in state.replicas.iter().enumerate() {
            reg.gauge(&format!("controller.ha.role.{}", slot.name))
                .set(i64::from(i == idx));
        }
        for bell in &state.leader_bells {
            bell.ring();
        }
    }

    /// The current leader's controller, if one is published.
    pub fn leader_controller(&self) -> Option<Controller> {
        let state = self.inner.state.lock();
        state.leader.map(|i| state.replicas[i].controller.clone())
    }

    /// The current leader's replica name.
    pub fn leader_name(&self) -> Option<String> {
        let state = self.inner.state.lock();
        state.leader.map(|i| state.replicas[i].name.clone())
    }

    /// Blocks until a leader is published or `timeout` passes. The caller
    /// parks on a bell of its own, which the next leader rings.
    pub fn wait_leader(&self, timeout: Duration) -> Option<Controller> {
        let deadline = Instant::now() + timeout;
        let bell = Arc::new(Doorbell::new());
        self.inner.state.lock().leader_bells.push(Arc::clone(&bell));
        let mut leader = self.leader_controller();
        while leader.is_none() && Instant::now() < deadline {
            bell.wait(Some(deadline), || self.inner.state.lock().leader.is_none());
            leader = self.leader_controller();
        }
        let mut state = self.inner.state.lock();
        state.leader_bells.retain(|b| !Arc::ptr_eq(b, &bell));
        leader
    }

    /// The highest term reserved so far.
    pub fn term(&self) -> u64 {
        self.inner.election.current_term()
    }

    /// The HA metrics registry (`controller.ha.*`, and the monitor loop's
    /// `loop.*`).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Each replica's pump-loop registry (`loop.*`), in replica order.
    pub fn replica_registries(&self) -> Vec<Registry> {
        let state = self.inner.state.lock();
        let replicas = state.replicas.iter();
        replicas.map(|s| s.controller.registry().clone()).collect()
    }

    /// The shared rule ledger.
    pub fn ledger(&self) -> &Arc<RuleLedger> {
        &self.inner.ledger
    }

    /// Kills the current leader the way a crash would: its pump stops,
    /// its switch bindings drop (switches degrade to headless), and its
    /// session is left to *lapse* — the monitor closes it only once the
    /// plane's session timeout has passed, so the leaderless window is
    /// observable exactly as with a real crashed process. Returns the
    /// dead replica's name.
    pub fn crash_leader(&self) -> Option<String> {
        let (name, controller, pump) = {
            let mut state = self.inner.state.lock();
            let idx = state.leader.take()?;
            let slot = &mut state.replicas[idx];
            slot.alive = false;
            slot.session_deadline = Some(Instant::now() + self.inner.session_timeout);
            self.inner
                .registry
                .gauge(&format!("controller.ha.role.{}", slot.name))
                .set(0);
            (slot.name.clone(), slot.controller.clone(), slot.pump.take())
        };
        // The monitor arms the new deadline.
        self.inner.monitor_signal.raise();
        drop(pump);
        controller.unregister_all();
        Some(name)
    }

    /// Stops and joins the monitor, then every replica's pump (what
    /// dropping the last handle does).
    pub fn shutdown(&self) {
        let (monitor, pumps) = {
            let mut state = self.inner.state.lock();
            let pumps: Vec<Option<Runner>> =
                state.replicas.iter_mut().map(|s| s.pump.take()).collect();
            (state.monitor.take(), pumps)
        };
        drop(monitor);
        drop(pumps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_openflow::{Action, FlowMatch, GroupId, PortNo};
    use typhoon_switch::SwitchConfig;

    fn gauge(sw: &Switch, name: &str) -> i64 {
        sw.registry().snapshot().gauge(name)
    }

    fn rule(port_in: u32, port_out: u32, priority: u16) -> FlowMod {
        FlowMod::add(
            priority,
            FlowMatch::any().in_port(PortNo(port_in)),
            vec![Action::Output(PortNo(port_out))],
        )
    }

    #[test]
    fn ledger_mirrors_table_semantics_and_replays_from_the_store() {
        let coord = Coordinator::new();
        let ledger = RuleLedger::new(coord.clone());
        let h = HostId(0);
        ledger.record(
            h,
            &OfMessage::GroupMod(GroupMod::add(GroupId(7), Vec::new())),
        );
        ledger.record(h, &OfMessage::FlowMod(rule(1, 2, 10)));
        // Identical match+priority replaces, as in the flow table.
        ledger.record(h, &OfMessage::FlowMod(rule(1, 3, 10)));
        ledger.record(h, &OfMessage::FlowMod(rule(4, 5, 5)));
        // Strict delete removes only the matching-priority rule.
        let mut del = FlowMod::delete(FlowMatch::any().in_port(PortNo(4)));
        del.priority = 5;
        ledger.record(h, &OfMessage::FlowMod(del));
        assert_eq!(ledger.rule_count(h), 2); // group + one flow

        // A fresh ledger on the same coordinator replays from the store
        // alone — the persistence round-trip a successor leader relies on.
        let successor = RuleLedger::new(coord);
        let msgs = successor.replay_messages(h);
        assert_eq!(msgs.len(), 2);
        match &msgs[0] {
            OfMessage::GroupMod(gm) => assert_eq!(gm.group, GroupId(7)),
            other => panic!("expected the group first, got {other:?}"),
        }
        match &msgs[1] {
            OfMessage::FlowMod(fm) => {
                assert_eq!(fm.actions, vec![Action::Output(PortNo(3))]);
                assert_eq!(fm.command, FlowModCommand::Add);
            }
            other => panic!("expected the surviving flow, got {other:?}"),
        }
    }

    #[test]
    fn leader_failover_resyncs_rules_while_the_switch_runs_headless() {
        let global = GlobalState::new(Coordinator::new());
        let plane = ControlPlane::new(global, 2, Duration::from_millis(100));
        let (sw, _boot) = Switch::new(SwitchConfig::new(1));
        plane.manage_switch(HostId(0), sw.clone());

        let datapath = sw.spawn();

        plane.start(Duration::from_millis(1));
        let leader = plane
            .wait_leader(Duration::from_secs(5))
            .expect("initial leader");
        assert_eq!(plane.term(), 1);
        assert_eq!(gauge(&sw, "switch.term"), 1);
        let first = plane.leader_name().expect("leader name");

        assert!(leader.send_flow_mod(HostId(0), rule(1, 2, 10)));
        assert!(leader.sync_switch(HostId(0), Duration::from_secs(5)));
        assert_eq!(gauge(&sw, "switch.rules"), 1);

        let dead = plane.crash_leader().expect("a leader to kill");
        assert_eq!(dead, first);
        let next = plane
            .wait_leader(Duration::from_secs(10))
            .expect("failover");
        assert_ne!(plane.leader_name().as_deref(), Some(dead.as_str()));
        assert_eq!(plane.term(), 2, "failover bumps the term");
        assert_eq!(
            gauge(&sw, "switch.term"),
            2,
            "switch fenced to the new term"
        );
        assert_eq!(
            gauge(&sw, "switch.rules"),
            1,
            "ledger re-sync reinstalled the rule"
        );
        let headless_ms = sw.registry().snapshot().counter("switch.headless_ms");
        assert!(headless_ms > 0, "switch observed a leaderless window");
        assert!(next.sync_switch(HostId(0), Duration::from_secs(5)));

        let snap = plane.registry().snapshot();
        assert_eq!(snap.counter("controller.ha.elections"), 2);
        assert_eq!(snap.counter("controller.ha.failovers"), 1);
        assert!(snap.gauge("controller.ha.resync_rules") >= 1);
        assert_eq!(snap.gauge("controller.ha.term"), 2);

        plane.shutdown();
        datapath.stop();
    }

    /// `controller.ha.headless_ms` is the window the last failover closed,
    /// not the switch's lifetime total: after a second leader kill it
    /// reads the second window alone.
    #[test]
    fn headless_gauge_reads_the_last_window_not_the_total() {
        let global = GlobalState::new(Coordinator::new());
        let plane = ControlPlane::new(global, 3, Duration::from_millis(100));
        let (sw, _boot) = Switch::new(SwitchConfig::new(1));
        plane.manage_switch(HostId(0), sw.clone());
        let datapath = sw.spawn();
        plane.start(Duration::from_millis(1));
        plane.wait_leader(Duration::from_secs(5)).expect("leader");
        let total = || sw.registry().snapshot().counter("switch.headless_ms");
        let mut windows = Vec::new();
        for term in [2, 3] {
            let before = total();
            plane.crash_leader().expect("a leader to kill");
            // Published only once the gauges are set.
            plane
                .wait_leader(Duration::from_secs(10))
                .expect("failover");
            assert_eq!(plane.term(), term);
            windows.push(total() - before);
        }
        assert!(windows.iter().all(|&w| w > 0), "windows {windows:?}");
        let gauge = plane
            .registry()
            .snapshot()
            .gauge("controller.ha.headless_ms");
        assert_eq!(gauge, windows[1] as i64, "windows {windows:?}");
        assert!(gauge < total() as i64, "the total {} holds both", total());
        plane.shutdown();
        datapath.stop();
    }

    #[test]
    fn stale_ex_leader_cannot_send_after_failover() {
        let global = GlobalState::new(Coordinator::new());
        let plane = ControlPlane::new(global, 2, Duration::from_millis(50));
        let (sw, _boot) = Switch::new(SwitchConfig::new(1));
        plane.manage_switch(HostId(0), sw.clone());
        let datapath = sw.spawn();
        plane.start(Duration::from_millis(1));
        let old = plane.wait_leader(Duration::from_secs(5)).expect("leader");
        plane.crash_leader();
        plane
            .wait_leader(Duration::from_secs(10))
            .expect("failover");
        // The deposed leader's bindings are gone: its sends fail, so it
        // cannot write through to the ledger either.
        assert!(!old.send_flow_mod(HostId(0), rule(1, 2, 10)));
        assert_eq!(plane.ledger().rule_count(HostId(0)), 0);
        plane.shutdown();
        datapath.stop();
    }

    fn sweeps(plane: &ControlPlane) -> u64 {
        plane.registry().snapshot().counter("loop.rounds")
    }

    /// A started plane with its leader elected.
    fn started(replicas: usize, session_timeout: Duration) -> ControlPlane {
        let plane = ControlPlane::new(
            GlobalState::new(Coordinator::new()),
            replicas,
            session_timeout,
        );
        plane.start(Duration::from_millis(1));
        plane.wait_leader(Duration::from_secs(5)).expect("leader");
        plane
    }

    /// Blocks until the monitor has made `n` rounds.
    fn await_sweeps(plane: &ControlPlane, n: u64) {
        let t0 = Instant::now();
        while sweeps(plane) < n {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "round {n} never ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The monitor has no clock of its own: once it has made its first
    /// round, nothing happening means no rounds at all.
    #[test]
    fn idle_monitor_makes_no_rounds() {
        let plane = started(2, Duration::from_millis(100));
        await_sweeps(&plane, 1);
        let before = sweeps(&plane);
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(sweeps(&plane), before, "an idle half second");
        // Joins the monitor: a park its stop did not end hangs here.
        plane.shutdown();
    }

    /// A caller parked in `wait_leader` across the leaderless window is
    /// handed the successor, and takes its bell with it when it returns.
    #[test]
    fn parked_wait_leader_returns_the_successor() {
        let plane = started(2, Duration::from_millis(200));
        let dead = plane.crash_leader().expect("a leader to kill");
        let waiter = {
            let plane = plane.clone();
            std::thread::spawn(move || plane.wait_leader(Duration::from_secs(60)).is_some())
        };
        let t0 = Instant::now();
        while plane.inner.state.lock().leader_bells.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(10), "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(waiter.join().unwrap(), "the waiter got no leader");
        let successor = plane.leader_name().expect("a successor");
        assert_ne!(successor, dead);
        assert!(plane.inner.state.lock().leader_bells.is_empty());
        plane.shutdown();
    }

    /// `shutdown` ends the monitor's wait even when that wait is armed for
    /// a session deadline a minute away.
    #[test]
    fn shutdown_does_not_wait_out_the_session_timeout() {
        let plane = started(2, Duration::from_secs(60));
        await_sweeps(&plane, 1);
        plane.crash_leader().expect("a leader to kill");
        // The crash raises the monitor's signal: its round arms the 60 s deadline.
        await_sweeps(&plane, 2);
        let t0 = Instant::now();
        plane.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
    }
}
