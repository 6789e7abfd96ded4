//! The switch itself: configuration, shared state and the poll loop.
//!
//! Frames are forwarded on the thread that holds them ([`crate::forward`]):
//! a worker's egress and every tunnel's arrivals never wait for the
//! datapath thread, which receives no frame. That thread — one per host —
//! runs [`Switch::process_round`] for the rest: controller messages
//! ([`crate::link`]), reaping ports whose worker died, tunnel teardown and
//! frames a fault injector held back, then the rule-expiry sweep. It runs
//! on the workspace's one round runner ([`typhoon_net::Runner`]): rounds
//! repeat while they find work, and the runner parks on the switch's
//! [`Doorbell`] when one does not. [`ControlChannel::send`], a worker end
//! dropping and every registered tunnel's teardown ring it, and the park
//! ends at the next sweep or held tunnel frame ([`Switch::next_due`]).

use crate::cache::{CacheStats, FlowCache};
use crate::group_table::GroupTable;
use crate::link::{ControlChannel, ControllerLink};
use crate::port::{Ports, WorkerPort};
use crate::table::FlowTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::{Counter, Gauge, Registry};
use typhoon_net::{Doorbell, Frame, Next, Round, Runner, Stop, Tunnel};
use typhoon_openflow::{DatapathId, OfMessage, PortNo, PortStatusReason};
use typhoon_trace::TraceCtx;

/// Max frames (or control messages) drained per source per poll round.
pub(crate) const POLL_BUDGET: usize = 256;

/// Tunable parameters of one switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// This switch's datapath ID.
    pub dpid: DatapathId,
    /// Capacity of each port ring (frames).
    pub ring_capacity: usize,
    /// How often expired rules are swept.
    pub expire_interval: Duration,
}

impl SwitchConfig {
    /// Reasonable defaults for a host switch.
    pub fn new(dpid: u64) -> Self {
        SwitchConfig {
            dpid: DatapathId(dpid),
            ring_capacity: 8192,
            expire_interval: Duration::from_millis(100),
        }
    }
}

pub(crate) struct Inner {
    config: SwitchConfig,
    pub(crate) ports: Mutex<Ports>,
    pub(crate) table: Mutex<FlowTable>,
    pub(crate) cache: FlowCache,
    pub(crate) groups: Mutex<GroupTable>,
    pub(crate) tunnels: Mutex<HashMap<u32, Arc<dyn Tunnel>>>,
    pub(crate) link: Mutex<ControllerLink>,
    /// Mirror of the link's headless state so the expiry path never takes
    /// the link lock.
    pub(crate) headless: AtomicBool,
    /// What the datapath thread waits on when a round moved nothing.
    pub(crate) bell: Doorbell,
    last_expire: Mutex<Instant>,
    pub(crate) trace: Mutex<TraceCtx>,
    /// The `switch.*` and `switch.cache.*` metrics, and the datapath
    /// loop's `loop.*`; the instruments below are resolved from it once, so
    /// no path looks a name up.
    registry: Registry,
    /// Per-frame table-miss total (`switch.misses`), counted on the match
    /// path so scrapes never contend with the datapath on the table lock.
    pub(crate) misses: Counter,
    /// Installed-rule count (`switch.rules`), refreshed after every table
    /// mutation.
    pub(crate) rules: Gauge,
    /// Tunnels torn down (`switch.tunnel_downs`).
    pub(crate) tunnel_downs: Counter,
    /// Frames that arrived over a tunnel and matched a tunnel output
    /// (`switch.split_horizon_drops`).
    pub(crate) split_horizon_drops: Counter,
    /// Milliseconds spent headless over completed windows
    /// (`switch.headless_ms`), and the window the last leader connect
    /// closed (`switch.headless_last_ms`; 0 when the switch was not
    /// headless).
    pub(crate) headless_ms: Counter,
    pub(crate) headless_last_ms: Gauge,
    /// Events replayed to reconnecting leaders (`switch.replayed_events`).
    pub(crate) replayed: Counter,
    /// The election term of the leader the switch is bound to
    /// (`switch.term`; 0 until a real leader has connected).
    pub(crate) term: Gauge,
}

/// A host's software SDN switch. Clone-able handle. Frames are forwarded
/// by the threads that hold them; the datapath loop runs on the thread
/// started by [`Switch::spawn`] (or is driven manually with
/// [`Switch::process_round`] in deterministic tests).
#[derive(Clone)]
pub struct Switch {
    pub(crate) inner: Arc<Inner>,
}

impl Switch {
    /// Creates a switch and the controller-side endpoints of its first
    /// controller connection (term 0). Dropping that channel is losing the
    /// controller: the switch queues its events and freezes expiry until
    /// [`Switch::connect_controller`] binds a leader.
    pub fn new(config: SwitchConfig) -> (Switch, ControlChannel) {
        let bell = Doorbell::new();
        let (link, channel) = ControllerLink::connect(0, &bell);
        let registry = Registry::new();
        let switch = Switch {
            inner: Arc::new(Inner {
                ports: Mutex::with_rank(
                    rank::DP_PORTS,
                    "switch.datapath.ports",
                    Ports::new(config.ring_capacity),
                ),
                table: Mutex::with_rank(rank::DATAPATH, "switch.datapath.table", FlowTable::new()),
                cache: FlowCache::with_registry(&registry),
                groups: Mutex::with_rank(
                    rank::DP_GROUPS,
                    "switch.datapath.groups",
                    GroupTable::new(),
                ),
                tunnels: Mutex::with_rank(
                    rank::DP_TUNNELS,
                    "switch.datapath.tunnels",
                    HashMap::new(),
                ),
                link: Mutex::with_rank(rank::DP_CTRL, "switch.datapath.link", link),
                headless: AtomicBool::new(false),
                bell,
                last_expire: Mutex::with_rank(
                    rank::DP_EXPIRE,
                    "switch.datapath.last_expire",
                    Instant::now(),
                ),
                trace: Mutex::with_rank(
                    rank::DP_TRACE,
                    "switch.datapath.trace",
                    TraceCtx::disabled(),
                ),
                config,
                misses: registry.counter("switch.misses"),
                rules: registry.gauge("switch.rules"),
                tunnel_downs: registry.counter("switch.tunnel_downs"),
                split_horizon_drops: registry.counter("switch.split_horizon_drops"),
                headless_ms: registry.counter("switch.headless_ms"),
                headless_last_ms: registry.gauge("switch.headless_last_ms"),
                replayed: registry.counter("switch.replayed_events"),
                term: registry.gauge("switch.term"),
                registry,
            }),
        };
        (switch, channel)
    }

    /// This switch's datapath ID.
    pub fn dpid(&self) -> DatapathId {
        self.inner.config.dpid
    }

    /// Attaches a worker to `port` and notifies the controller with a
    /// `PortStatus` add event (§3.2 step (iv)).
    pub fn attach_worker(&self, port: PortNo) -> WorkerPort {
        let wp = self
            .inner
            .ports
            .lock()
            .attach(port, Arc::downgrade(&self.inner));
        self.send_event(OfMessage::PortStatus {
            reason: PortStatusReason::Add,
            port,
        });
        wp
    }

    /// Detaches a worker (deliberate kill) and notifies the controller.
    pub fn detach_worker(&self, port: PortNo) {
        if self.inner.ports.lock().detach(port) {
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port,
            });
        }
    }

    /// Registers the tunnel used to reach peer host `host`. The endpoint
    /// hands its arrivals to this switch's match-action path on the thread
    /// that delivers them — what it queued before, on this one — and its
    /// teardown rings the datapath thread from now on.
    pub fn add_tunnel(&self, host: u32, tunnel: Box<dyn Tunnel + Send>) {
        let tunnel: Arc<dyn Tunnel> = Arc::<dyn Tunnel + Send>::from(tunnel);
        // Weak: the endpoint's thread must not keep its switch alive — the
        // switch owns the endpoint, whose drop is what ends that thread.
        let switch = Arc::downgrade(&self.inner);
        tunnel.set_ingress(
            Arc::new(move |frames: &mut Vec<Frame>| match switch.upgrade() {
                Some(inner) => Switch { inner }.process_frames(PortNo::TUNNEL, frames),
                None => frames.clear(),
            }),
            self.inner.bell.clone(),
        );
        self.inner.tunnels.lock().insert(host, tunnel);
        // Topology changed: cached tunnel-output decisions may now be
        // reachable again (e.g. recovery re-registering a torn-down link).
        self.inner.cache.invalidate_all();
        // Rung after the insert, so the round it starts finds the endpoint:
        // one torn down before it was registered is reported then.
        self.inner.bell.ring();
    }

    /// Installs the tracing context used to record `SwitchMatch` spans for
    /// traced frames (frames whose reserved header field is nonzero).
    pub fn set_trace(&self, ctx: TraceCtx) {
        *self.inner.trace.lock() = ctx;
    }

    /// This switch's `switch.*` and `switch.cache.*` metrics (see
    /// docs/OBSERVABILITY.md).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// `switch.misses`: frames that matched no rule.
    pub fn miss_count(&self) -> u64 {
        self.inner.misses.get()
    }

    /// The `switch.cache.*` counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::from(&self.inner.registry.snapshot())
    }

    /// Runs one datapath round now: control messages, port reaping,
    /// tunnels, expiry. Returns `true` when a control message was handled
    /// (idle detection). For driving a switch by hand; the spawned loop
    /// runs the same round at the runner's instant.
    pub fn process_round(&self) -> bool {
        self.round_at(Instant::now())
    }

    fn round_at(&self, now: Instant) -> bool {
        let busy = self.handle_control();
        self.reap_ports();
        self.tend_tunnels();
        self.maybe_expire(now);
        busy
    }

    fn maybe_expire(&self, now: Instant) {
        // Headless: nobody exists to re-install a rule whose flow happens
        // to go quiet during the failover window, so an expiry sweep here
        // would silently break forwarding with no controller to repair it.
        // Expiry is suppressed until a leader reconnects (§3.5).
        if self.inner.headless.load(Ordering::Relaxed) {
            return;
        }
        let mut last = self.inner.last_expire.lock();
        if now.saturating_duration_since(*last) >= self.inner.config.expire_interval {
            *last = now;
            drop(last);
            let evicted = {
                let mut table = self.inner.table.lock();
                // Credit cached hits before the sweep: they refresh the idle
                // clocks of rules whose traffic never reached the table.
                self.inner
                    .cache
                    .drain_pending(|hits| table.credit(hits, now));
                let evicted = table.expire(now);
                self.inner.rules.set(table.len() as i64);
                evicted
            };
            if evicted > 0 {
                // An eviction can change which (lower-priority) rule a key
                // resolves to; revalidate everything.
                self.inner.cache.invalidate_all();
            }
        }
    }

    /// When an idle datapath must run a round even if nobody rings: the
    /// next expiry sweep while it holds rules and is not headless, or the
    /// earliest frame a tunnel holds back.
    fn next_due(&self) -> Option<Instant> {
        let sweep = (!self.inner.headless.load(Ordering::Relaxed) && self.inner.rules.get() > 0)
            .then(|| *self.inner.last_expire.lock() + self.inner.config.expire_interval);
        let tunnels = self.inner.tunnels.lock();
        let held = tunnels.values().filter_map(|t| t.next_due());
        sweep.into_iter().chain(held).min()
    }

    /// Spawns the datapath loop on the round runner, counting `loop.*`
    /// in this switch's registry. Dropping the returned handle stops and
    /// joins it.
    pub fn spawn(&self) -> Runner {
        let switch = self.clone();
        Runner::spawn(
            &thread_name(self.dpid()),
            Stop::new(),
            self.registry(),
            move |now| {
                Box::new(DatapathRound {
                    switch,
                    now,
                    due: None,
                })
            },
        )
    }
}

/// The datapath thread's round: repeat while rounds find work, park until
/// [`Switch::next_due`] when one does not.
struct DatapathRound {
    switch: Switch,
    /// The last round's instant and the deadline it left: the re-check is
    /// one more round at that instant, which must also leave the deadline
    /// where it was.
    now: Instant,
    due: Option<Instant>,
}

impl Round for DatapathRound {
    fn bell(&self) -> &Doorbell {
        &self.switch.inner.bell
    }

    fn round(&mut self, now: Instant) -> Next {
        if self.switch.round_at(now) {
            return Next::Again;
        }
        (self.now, self.due) = (now, self.switch.next_due());
        Next::until(self.due)
    }

    fn idle(&mut self) -> bool {
        !self.switch.round_at(self.now) && self.switch.next_due() == self.due
    }
}

/// The datapath thread's name: `datapath-<n>`, which the kernel keeps
/// whole (15 bytes) for every dpid below a million, so per-thread tools
/// tell one host's switch from another's.
fn thread_name(dpid: DatapathId) -> String {
    format!("datapath-{}", dpid.0)
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Switch({}, rules={}, misses={})",
            self.dpid(),
            self.inner.rules.get(),
            self.miss_count()
        )
    }
}

/// Frame, rule and channel helpers shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::{ControlChannel, Switch};
    use bytes::Bytes;
    use typhoon_net::{Frame, MacAddr, TYPHOON_ETHERTYPE};
    use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo, PortStatusReason};
    use typhoon_tuple::tuple::TaskId;

    /// A `switch.*` counter, as a scrape of the switch's registry reads it.
    pub(crate) fn counter(sw: &Switch, name: &str) -> u64 {
        sw.registry().snapshot().counter(name)
    }

    /// A `switch.*` gauge, as a scrape reads it.
    pub(crate) fn gauge(sw: &Switch, name: &str) -> i64 {
        sw.registry().snapshot().gauge(name)
    }

    /// True while the switch forwards without a live controller.
    pub(crate) fn headless(sw: &Switch) -> bool {
        sw.inner.headless.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn w(task: u32) -> MacAddr {
        MacAddr::worker(1, TaskId(task))
    }

    pub(crate) fn data_frame(src: u32, dst: MacAddr, n: u8) -> Frame {
        Frame::typhoon(w(src), dst, Bytes::from(vec![n; 32]))
    }

    pub(crate) fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
        ch.send(wire::encode(&msg)).unwrap();
    }

    /// The event that reports `port` gone to the controller.
    pub(crate) fn port_delete(port: PortNo) -> OfMessage {
        OfMessage::PortStatus {
            reason: PortStatusReason::Delete,
            port,
        }
    }

    /// True when the switch reported `port` gone to the controller.
    pub(crate) fn port_deleted(ch: &ControlChannel, port: PortNo) -> bool {
        drain_events(ch).contains(&port_delete(port))
    }

    pub(crate) fn drain_events(ch: &ControlChannel) -> Vec<OfMessage> {
        std::iter::from_fn(|| ch.try_recv())
            .map(|b| wire::decode(b).unwrap().0)
            .collect()
    }

    /// Installs the Table 3 "local transfer" rule.
    pub(crate) fn local_rule(src: u32, src_port: u32, dst: u32, dst_port: u32) -> OfMessage {
        OfMessage::FlowMod(FlowMod::add(
            10,
            FlowMatch::any()
                .in_port(PortNo(src_port))
                .dl_src(w(src))
                .dl_dst(w(dst))
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::Output(PortNo(dst_port))],
        ))
    }

    /// Installs the Table 3 remote-transfer rule on the sender switch.
    pub(crate) fn remote_rule(src: u32, dst: u32, peer_host: u32) -> OfMessage {
        OfMessage::FlowMod(FlowMod::add(
            10,
            FlowMatch::any()
                .in_port(PortNo(1))
                .dl_src(w(src))
                .dl_dst(w(dst))
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::SetTunDst(peer_host), Action::Output(PortNo::TUNNEL)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use typhoon_openflow::{wire, Action, FlowMatch, FlowMod};

    #[test]
    fn dead_worker_triggers_port_status_delete() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(4));
        let _ = drain_events(&ch);
        drop(wp); // worker dies
        sw.process_round();
        assert!(port_deleted(&ch, PortNo(4)));
    }

    #[test]
    fn headless_suppresses_rule_expiry_until_reconnect() {
        let mut cfg = SwitchConfig::new(1);
        cfg.expire_interval = Duration::from_millis(0); // sweep every round
        let (sw, ch) = Switch::new(cfg);
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(
                FlowMod::add(
                    10,
                    FlowMatch::any().in_port(PortNo(1)).dl_dst(w(20)),
                    vec![Action::Output(PortNo(2))],
                )
                .with_idle_timeout(Duration::from_millis(1)),
            ),
        );
        sw.process_round();
        assert_eq!(gauge(&sw, "switch.rules"), 1);
        drop(ch); // leader dies
        sw.attach_worker(PortNo(9)); // discover the dead link
        assert!(headless(&sw));
        std::thread::sleep(Duration::from_millis(5));
        sw.process_round(); // would expire the idle rule if not headless
        assert_eq!(
            gauge(&sw, "switch.rules"),
            1,
            "expiry suppressed while headless"
        );
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some(), "idle rule still forwards");
        // A new leader connects: expiry resumes and reaps the idle rule.
        let _ch2 = sw.connect_controller(2).unwrap();
        assert!(!headless(&sw));
        std::thread::sleep(Duration::from_millis(5));
        sw.process_round();
        assert_eq!(
            gauge(&sw, "switch.rules"),
            0,
            "expiry resumed after reconnect"
        );
    }

    /// A parked datapath is woken by each of its three sources — a worker
    /// end dropping, a tunnel's teardown, the control channel. Its one
    /// deadline, the expiry sweep, is an hour away, so every delivery is a
    /// park a ring ended: a missing ring hangs its try into the 5 s
    /// assertion. Frames need no wake-up: a worker end and a tunnel each
    /// forward on the thread that sends.
    #[test]
    fn parked_datapath_is_woken_by_ports_tunnels_and_control() {
        const TRIES: usize = 50;
        let mut config = SwitchConfig::new(1);
        config.expire_interval = Duration::from_secs(3600);
        let (sw, ch) = Switch::new(config);
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        let (near, far) = typhoon_net::InMemoryTunnel::pair();
        sw.add_tunnel(2, Box::new(near));
        let peers: Vec<u32> = (100..100 + TRIES as u32).collect();
        let fars: Vec<_> = peers
            .iter()
            .map(|&host| {
                let (near, far) = typhoon_net::InMemoryTunnel::pair();
                sw.add_tunnel(host, Box::new(near));
                std::cell::Cell::new(Some(far))
            })
            .collect();
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo::TUNNEL).dl_dst(w(20)),
                vec![Action::Output(PortNo(2))],
            )),
        );
        let handle = sw.spawn();
        let _ = drain_events(&ch);

        // Runs `kick` against a datapath that had time to park, and counts
        // the tries after which `done` came to hold.
        let woken = |kick: &dyn Fn(usize), done: &dyn Fn() -> bool| -> usize {
            (0..TRIES)
                .filter(|&i| {
                    std::thread::sleep(Duration::from_micros(300));
                    let t = Instant::now();
                    kick(i);
                    loop {
                        if done() {
                            return true;
                        }
                        if t.elapsed() > Duration::from_secs(5) {
                            return false;
                        }
                        std::thread::yield_now();
                    }
                })
                .count()
        };
        let delivered = || wp2.rx.pop().unwrap().is_some();

        let port = woken(&|i| drop(sw.attach_worker(PortNo(100 + i as u32))), &|| {
            drain_events(&ch).iter().any(|e| {
                matches!(
                    e,
                    OfMessage::PortStatus {
                        reason: PortStatusReason::Delete,
                        ..
                    }
                )
            })
        });
        assert_eq!(port, TRIES, "worker end dropped");

        let teardown = woken(&|i| drop(fars[i].take()), &|| {
            let events = drain_events(&ch);
            peers
                .iter()
                .any(|&host| events.contains(&port_delete(PortNo::tunnel_peer(host))))
        });
        assert_eq!(teardown, TRIES, "tunnel teardown");

        // A tunnel and a worker end forward on the sending thread.
        use typhoon_net::Tunnel as _;
        far.send(&data_frame(30, w(20), 0)).unwrap();
        assert!(delivered(), "forwarded before send returned");
        wp1.tx.push(data_frame(10, w(20), 0)).unwrap();
        assert!(delivered(), "forwarded before push returned");

        let control = woken(
            &|i| {
                ch.send(wire::encode(&local_rule(40 + i as u32, 1, 20, 2)))
                    .unwrap();
                ch.send(wire::encode(&OfMessage::Barrier { xid: i as u32 }))
                    .unwrap();
            },
            &|| {
                std::iter::from_fn(|| ch.try_recv())
                    .any(|b| matches!(wire::decode(b), Ok((OfMessage::BarrierReply { .. }, _))))
            },
        );
        assert_eq!(control, TRIES, "FlowMod + Barrier");
        assert_eq!(gauge(&sw, "switch.rules"), 2 + TRIES as i64);
        handle.stop();
    }

    /// A frame an injector holds back on its way in is released by the
    /// parked datapath at its deadline: the hold rings the switch, whose
    /// park then ends at the frame's due instant instead of the expiry
    /// sweep an hour away.
    #[test]
    fn a_parked_datapath_releases_a_delayed_arrival_at_its_deadline() {
        use typhoon_net::{FaultInjector, FaultPlan, FaultSpec, Tunnel as _};
        let delay = Duration::from_millis(20);
        let mut config = SwitchConfig::new(1);
        config.expire_interval = Duration::from_secs(3600);
        let (sw, ch) = Switch::new(config);
        let wp2 = sw.attach_worker(PortNo(2));
        let (near, far) = typhoon_net::InMemoryTunnel::pair();
        let plan = FaultPlan::rx_only(1, FaultSpec::CLEAN.delaying(delay));
        let (inj, _handle) = FaultInjector::wrap(Box::new(near), plan);
        sw.add_tunnel(2, Box::new(inj));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo::TUNNEL).dl_dst(w(20)),
                vec![Action::Output(PortNo(2))],
            )),
        );
        sw.process_round();
        let handle = sw.spawn();
        for n in 0..5 {
            std::thread::sleep(Duration::from_micros(300));
            let sent = Instant::now();
            far.send(&data_frame(30, w(20), n)).unwrap();
            let got = loop {
                if let Some(f) = wp2.rx.pop().unwrap() {
                    break f;
                }
                assert!(sent.elapsed() < Duration::from_secs(5), "never released");
                std::thread::yield_now();
            };
            assert_eq!(got.payload[0], n);
            assert!(sent.elapsed() >= delay, "released early");
        }
        handle.stop();
    }

    #[test]
    fn the_thread_name_fits_the_kernels_comm() {
        assert_eq!(thread_name(DatapathId(0)), "datapath-0");
        assert_eq!(thread_name(DatapathId(7)), "datapath-7");
        assert!(thread_name(DatapathId(999_999)).len() <= 15);
    }

    #[test]
    fn spawned_datapath_forwards_in_background() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        send_ctrl(&ch, OfMessage::Barrier { xid: 1 });
        let handle = sw.spawn();
        // The datapath thread applies the rule in the background; the
        // worker end then forwards by it on the pushing thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !drain_events(&ch).contains(&OfMessage::BarrierReply { xid: 1 }) {
            assert!(Instant::now() < deadline, "rule never applied");
            std::thread::sleep(Duration::from_micros(100));
        }
        wp1.tx.push(data_frame(10, w(20), 0x55)).unwrap();
        let got = wp2.rx.pop().unwrap().expect("delivered");
        assert_eq!(got.payload[0], 0x55);
        handle.stop();
    }
}
