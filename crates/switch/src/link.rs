//! The controller link: the switch's side of the OpenFlow control channel.
//!
//! Every connection carries the fencing term of the controller that opened
//! it. Losing the connected controller — whatever its term — flips the
//! switch into *headless mode*: forwarding continues on installed rules and
//! the megaflow cache, rule expiry is suppressed, and controller-bound
//! events queue here until the next leader reconnects and replays them.

use crate::datapath::{Switch, POLL_BUDGET};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_net::{
    ring, ring_with_bell, BellSlot, Doorbell, Frame, NetError, RingConsumer, RingProducer,
};
use typhoon_openflow::{wire, OfMessage};

/// Messages queued per direction of one control channel before the ring
/// sheds (and counts) the overflow.
const CONTROL_RING_CAP: usize = 65536;

/// The controller's ends of one switch's control channel: two rings of
/// encoded OpenFlow bytes, one per direction. Clones share the ends; the
/// channel closes — and the switch goes headless — when the last clone
/// drops.
///
/// Both directions have a bell: [`ControlChannel::send`] rings the
/// datapath thread, and the switch rings whatever the controller
/// registered with [`ControlChannel::set_doorbell`] after each event or
/// reply.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    /// Controller → switch. Transitional: public only for the `perf`
    /// probe, which predates [`ControlChannel::send`]; goes private when a
    /// benchmark PR moves the probe.
    pub to_switch: ToSwitch,
    /// Switch → controller (replies and async events).
    from_switch: Arc<RingConsumer<Bytes>>,
    controller_bell: Arc<BellSlot>,
}

/// The controller → switch producer; its `send` *is*
/// [`ControlChannel::send`].
#[derive(Debug, Clone)]
pub struct ToSwitch(Arc<RingProducer<Bytes>>);

impl ToSwitch {
    /// See [`ControlChannel::send`].
    pub fn send(&self, msg: Bytes) -> Result<(), NetError> {
        self.0.push(msg)
    }
}

impl ControlChannel {
    /// Sends one encoded message to the switch and wakes its datapath
    /// thread if it is parked. Never blocks: a full switch inbox fails the
    /// send with [`NetError::RingFull`] (counted in the ring's drop
    /// counter), a switch that replaced or lost this link with
    /// [`NetError::Disconnected`].
    pub fn send(&self, msg: Bytes) -> Result<(), NetError> {
        self.to_switch.send(msg)
    }

    /// The next reply or event from the switch, if one is queued.
    pub fn try_recv(&self) -> Option<Bytes> {
        self.from_switch.pop().ok().flatten()
    }

    /// `(enqueued, dequeued, dropped)` of the switch → controller ring;
    /// `dropped` is what the switch shed because nobody drained this side.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.from_switch.stats()
    }

    /// Registers the bell of the thread that drains the channel, and
    /// rings it for whatever the switch queued before (a reconnect replays
    /// the headless backlog into the fresh channel).
    pub fn set_doorbell(&self, bell: Doorbell) {
        self.controller_bell.set(bell);
    }
}

/// A reconnect attempt carried a fencing term older than the one already
/// connected — the reconnecting controller is a stale leader and must not
/// be allowed to reprogram the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleLeader {
    /// Term offered by the reconnecting controller.
    pub offered: u64,
    /// Term of the leader the switch is (or was last) bound to.
    pub current: u64,
}

impl std::fmt::Display for StaleLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale leader rejected: offered term {} < current term {}",
            self.offered, self.current
        )
    }
}

impl std::error::Error for StaleLeader {}

/// Bound on controller-bound events buffered while headless; oldest
/// events are shed first (a newer `PortStatus`/`PacketIn` supersedes an
/// older one for every consumer we have).
const HEADLESS_QUEUE_CAP: usize = 4096;

/// The switch's side of the controller connection, swappable on failover.
/// `term` is the fencing token from the controller election; the channel
/// handed out by [`Switch::new`] is simply the first connection, term 0.
pub(crate) struct ControllerLink {
    term: u64,
    tx: RingProducer<Bytes>,
    rx: RingConsumer<Bytes>,
    /// The connected controller's bell, once it registered one; rung
    /// after every hand-over on `tx`.
    controller_bell: Arc<BellSlot>,
    headless_since: Option<Instant>,
    queued: VecDeque<Bytes>,
    dropped: u64,
}

impl ControllerLink {
    /// A connected link at `term` plus the controller's ends of it, whose
    /// pushes (and close) ring `switch_bell`.
    pub(crate) fn connect(term: u64, switch_bell: &Doorbell) -> (ControllerLink, ControlChannel) {
        let (to_switch, rx) = ring_with_bell(CONTROL_RING_CAP, switch_bell.clone());
        let (tx, from_switch) = ring(CONTROL_RING_CAP);
        let controller_bell = Arc::<BellSlot>::default();
        (
            ControllerLink {
                term,
                tx,
                rx,
                controller_bell: controller_bell.clone(),
                headless_since: None,
                queued: VecDeque::new(),
                dropped: 0,
            },
            ControlChannel {
                to_switch: ToSwitch(Arc::new(to_switch)),
                from_switch: Arc::new(from_switch),
                controller_bell,
            },
        )
    }

    /// Queues an encoded event for replay, shedding the oldest on overflow.
    fn queue(&mut self, bytes: Bytes) {
        if self.queued.len() >= HEADLESS_QUEUE_CAP {
            self.queued.pop_front();
            self.dropped += 1;
        }
        self.queued.push_back(bytes);
    }
}

impl Switch {
    pub(crate) fn send_event(&self, msg: OfMessage) {
        let bytes = wire::encode(&msg);
        let mut link = self.inner.link.lock();
        if link.headless_since.is_some() {
            link.queue(bytes);
            return;
        }
        match link.tx.push(bytes.clone()) {
            Ok(()) => link.controller_bell.ring(),
            Err(NetError::Disconnected) => {
                self.enter_headless(&mut link);
                link.queue(bytes);
            }
            // A congested controller must never stall the data plane;
            // events are best-effort like real OpenFlow async messages,
            // and the ring counted the one it shed.
            Err(_) => {}
        }
    }

    /// Sends a reply to a controller *request*. Unlike async events,
    /// replies are never queued for replay: the requester is gone, and a
    /// new leader re-syncs state rather than consuming stale replies.
    fn send_reply(&self, msg: OfMessage) {
        let link = self.inner.link.lock();
        if link.headless_since.is_some() {
            return;
        }
        if link.tx.push(wire::encode(&msg)).is_ok() {
            link.controller_bell.ring();
        }
    }

    /// Marks the link headless (caller holds the link lock). Forwarding
    /// continues on installed rules and the flow cache; rule expiry is
    /// suppressed and events queue until the next leader connects.
    fn enter_headless(&self, link: &mut ControllerLink) {
        if link.headless_since.is_none() {
            link.headless_since = Some(Instant::now());
            self.inner.headless.store(true, Ordering::Relaxed);
        }
    }

    /// Reconnect handshake from a (new) controller leader carrying its
    /// election `term` as a fencing token. A term older than the one this
    /// switch is already bound to means the caller is a *stale leader* —
    /// deposed, but unaware — and is rejected so it can never reprogram
    /// the datapath behind the real leader's back. Equal terms are
    /// accepted (same leader, fresh channel).
    ///
    /// On success the switch leaves headless mode, accounts the headless
    /// window, and replays every queued event to the new leader in
    /// arrival order.
    pub fn connect_controller(&self, term: u64) -> Result<ControlChannel, StaleLeader> {
        // Table before link: rank(DATAPATH) < rank(DP_CTRL).
        let mut table = self.inner.table.lock();
        let mut link = self.inner.link.lock();
        if term < link.term {
            return Err(StaleLeader {
                offered: term,
                current: link.term,
            });
        }
        let window = link
            .headless_since
            .map_or(Duration::ZERO, |since| since.elapsed());
        // The leaderless window must not count against any rule timeout
        // (expiry was suspended): shift every expiry clock forward by its
        // duration before time resumes.
        table.shift_clocks(window);
        drop(table);
        let window_ms = window.as_millis() as u64;
        self.inner.headless_ms.add(window_ms);
        self.inner.headless_last_ms.set(window_ms as i64);
        let (mut fresh, channel) = ControllerLink::connect(term, &self.inner.bell);
        fresh.dropped = link.dropped;
        let mut queued: Vec<Bytes> = std::mem::take(&mut link.queued).into();
        let replayed = fresh.tx.push_batch(&mut queued);
        fresh.dropped += replayed.dropped as u64;
        self.inner.replayed.add(replayed.enqueued as u64);
        self.inner.term.set(term as i64);
        *link = fresh;
        self.inner.headless.store(false, Ordering::Relaxed);
        // Expiry resumes: a parked datapath learns its next sweep.
        self.inner.bell.ring();
        Ok(channel)
    }

    /// The instant expiry decisions are made against. While headless, time
    /// is frozen at the moment the leader was lost: a rule (or cache
    /// entry) that was alive when the controller died keeps forwarding for
    /// the whole leaderless window, however long failover takes — nobody
    /// exists to re-install it if its flow goes momentarily quiet.
    pub(crate) fn now_for_expiry(&self) -> Instant {
        if self.inner.headless.load(Ordering::Relaxed) {
            if let Some(since) = self.inner.link.lock().headless_since {
                return since;
            }
        }
        Instant::now()
    }

    pub(crate) fn handle_control(&self) -> bool {
        // Drain raw messages under the link lock, then apply them with the
        // lock released: applying takes the table/group/port locks, and a
        // PacketOut can re-enter `send_event`.
        let mut raws = Vec::new();
        {
            let mut link = self.inner.link.lock();
            if link.rx.pop_batch(&mut raws, POLL_BUDGET).is_err() {
                // Closed and drained: the last controller clone is gone.
                self.enter_headless(&mut link);
            }
        }
        let busy = !raws.is_empty();
        for raw in raws {
            let msg = match wire::decode(raw) {
                Ok((m, _)) => m,
                Err(_) => continue, // corrupt control message: drop
            };
            if let Some(reply) = self.apply_control(msg) {
                self.send_reply(reply);
            }
        }
        busy
    }

    fn apply_control(&self, msg: OfMessage) -> Option<OfMessage> {
        match msg {
            OfMessage::Hello => Some(OfMessage::Hello),
            OfMessage::EchoRequest(v) => Some(OfMessage::EchoReply(v)),
            OfMessage::FeaturesRequest => Some(OfMessage::FeaturesReply {
                dpid: self.dpid(),
                ports: self.inner.ports.lock().port_numbers(),
            }),
            OfMessage::FlowMod(fm) => {
                let now = Instant::now();
                let changed = {
                    let mut table = self.inner.table.lock();
                    if table.would_change(&fm, now) {
                        // Finalize cached hit counters against the pre-change
                        // rules (a Modify/Delete must not lose or misroute them).
                        self.inner
                            .cache
                            .drain_pending(|hits| table.credit(hits, now));
                        table.apply(&fm, now);
                        self.inner.rules.set(table.len() as i64);
                        true
                    } else {
                        // A failover re-sync replays the full rule set;
                        // byte-identical re-installs must not flush the
                        // megaflow cache's hot entries.
                        false
                    }
                };
                if changed {
                    self.inner.cache.invalidate_all();
                }
                None
            }
            OfMessage::GroupMod(gm) => {
                self.inner.groups.lock().apply(&gm);
                None
            }
            OfMessage::PacketOut { in_port, frame } => {
                if let Ok(f) = Frame::decode(frame) {
                    self.process_frames(in_port, &mut vec![f]);
                }
                None
            }
            OfMessage::FlowStatsRequest => {
                let now = Instant::now();
                let mut table = self.inner.table.lock();
                // Flush cache-accumulated hits first so the reply is exact.
                self.inner
                    .cache
                    .drain_pending(|hits| table.credit(hits, now));
                Some(OfMessage::FlowStatsReply(table.stats()))
            }
            OfMessage::PortStatsRequest => {
                Some(OfMessage::PortStatsReply(self.inner.ports.lock().stats()))
            }
            OfMessage::Barrier { xid } => Some(OfMessage::BarrierReply { xid }),
            // Replies/events never arrive on the controller→switch direction.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::testutil::*;
    use crate::SwitchConfig;
    use std::time::Duration;
    use typhoon_net::{MacAddr, TYPHOON_ETHERTYPE};
    use typhoon_openflow::{Action, DatapathId, FlowMatch, FlowMod, PortNo, PortStatusReason};

    /// Events queued for replay to the next leader.
    fn queued(sw: &Switch) -> usize {
        sw.inner.link.lock().queued.len()
    }

    #[test]
    fn packet_out_delivers_control_tuple_to_workers() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(3));
        // Table 3: controller→workers rule.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any()
                    .in_port(PortNo::CONTROLLER)
                    .dl_dst(MacAddr::BROADCAST)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(PortNo(3))],
            )),
        );
        let ctrl_frame = Frame::typhoon(
            MacAddr::CONTROLLER,
            MacAddr::BROADCAST,
            Bytes::from_static(b"routing-update"),
        );
        send_ctrl(
            &ch,
            OfMessage::PacketOut {
                in_port: PortNo::CONTROLLER,
                frame: ctrl_frame.encode(),
            },
        );
        sw.process_round();
        let got = wp.rx.pop().unwrap().expect("control tuple delivered");
        assert_eq!(&got.payload[..], b"routing-update");
    }

    #[test]
    fn echo_features_and_barrier_replies() {
        let (sw, ch) = Switch::new(SwitchConfig::new(0x42));
        sw.attach_worker(PortNo(1));
        let _ = drain_events(&ch);
        send_ctrl(&ch, OfMessage::EchoRequest(5));
        send_ctrl(&ch, OfMessage::FeaturesRequest);
        send_ctrl(&ch, OfMessage::Barrier { xid: 9 });
        sw.process_round();
        let replies = drain_events(&ch);
        assert_eq!(replies[0], OfMessage::EchoReply(5));
        match &replies[1] {
            OfMessage::FeaturesReply { dpid, ports } => {
                assert_eq!(*dpid, DatapathId(0x42));
                assert_eq!(ports, &vec![PortNo(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(replies[2], OfMessage::BarrierReply { xid: 9 });
    }

    #[test]
    fn stats_requests_report_traffic() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        for i in 0..5u8 {
            wp1.tx.push(data_frame(10, w(20), i)).unwrap();
        }
        sw.process_round();
        send_ctrl(&ch, OfMessage::FlowStatsRequest);
        send_ctrl(&ch, OfMessage::PortStatsRequest);
        sw.process_round();
        let replies = drain_events(&ch);
        match &replies[0] {
            OfMessage::FlowStatsReply(stats) => {
                assert_eq!(stats.len(), 1);
                assert_eq!(stats[0].packets, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &replies[1] {
            OfMessage::PortStatsReply(stats) => {
                let p1 = stats.iter().find(|s| s.port == PortNo(1)).unwrap();
                assert_eq!(p1.rx_packets, 5);
                let p2 = stats.iter().find(|s| s.port == PortNo(2)).unwrap();
                assert_eq!(p2.tx_packets, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = wp2;
    }

    /// One rule whatever the term: the boot channel (term 0) and an
    /// elected leader's channel (term 1) are lost the same way.
    #[test]
    fn losing_the_boot_channel_enters_headless_and_replays_to_the_first_leader() {
        for lost_term in [0, 1] {
            let (sw, mut ch) = Switch::new(SwitchConfig::new(1));
            if lost_term > 0 {
                ch = sw.connect_controller(lost_term).unwrap();
            }
            drop(ch);
            sw.attach_worker(PortNo(1)); // event finds the dead channel
            sw.attach_worker(PortNo(2));
            assert!(headless(&sw), "term {lost_term}");
            assert_eq!(gauge(&sw, "switch.term"), lost_term as i64);
            assert_eq!(queued(&sw), 2, "events queued, not dropped");
            std::thread::sleep(Duration::from_millis(2));
            let next = sw.connect_controller(lost_term + 1).unwrap();
            assert!(!headless(&sw));
            assert_eq!(counter(&sw, "switch.replayed_events"), 2);
            assert_eq!(queued(&sw), 0);
            let window = counter(&sw, "switch.headless_ms");
            assert!((1..60_000).contains(&window), "window accounted and closed");
            let add = |port| OfMessage::PortStatus {
                reason: PortStatusReason::Add,
                port,
            };
            let replayed = [add(PortNo(1)), add(PortNo(2))];
            assert_eq!(drain_events(&next), replayed, "arrival order");
        }
    }

    #[test]
    fn losing_an_elected_leader_enters_headless_and_keeps_forwarding() {
        let (sw, boot) = Switch::new(SwitchConfig::new(1));
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        drop(ch); // the leader dies
        let _wp3 = sw.attach_worker(PortNo(3)); // next event finds the dead link
        assert!(headless(&sw));
        assert_eq!(gauge(&sw, "switch.term"), 1);
        // Forwarding continues on the installed rule the whole window.
        wp1.tx.push(data_frame(10, w(20), 7)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some(), "headless forwarding works");
        assert!(queued(&sw) >= 1, "event queued for replay");
    }

    /// Only the last clone's drop closes the channel (the controller sends
    /// on a clone it drops right after): the switch stays connected until
    /// then, and is headless one round later.
    #[test]
    fn the_channel_closes_with_its_last_clone_and_not_before() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        drop(ch.clone());
        let other = ch.clone();
        drop(ch);
        sw.process_round();
        assert!(!headless(&sw), "a surviving clone keeps the link up");
        send_ctrl(&other, OfMessage::Barrier { xid: 3 });
        sw.process_round();
        assert_eq!(drain_events(&other), [OfMessage::BarrierReply { xid: 3 }]);
        drop(other);
        sw.process_round();
        assert!(headless(&sw), "the last drop is seen within one round");
    }

    /// A controller that stopped draining: the switch sheds what does not
    /// fit and the ring counts it — `process_round` keeps returning and
    /// the installed rule keeps forwarding.
    #[test]
    fn an_undrained_controller_costs_counted_events_and_no_forwarding() {
        const OVERFLOW: usize = 100;
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        // OpenFlow's table-miss entry: what nothing else matches goes up.
        let table_miss = FlowMod::add(0, FlowMatch::any(), vec![Action::ToController]);
        send_ctrl(&ch, OfMessage::FlowMod(table_miss));
        sw.process_round();
        // The two `PortStatus` adds are queued already.
        let mut misses = CONTROL_RING_CAP - 2 + OVERFLOW;
        while misses > 0 {
            let n = misses.min(POLL_BUDGET);
            for i in 0..n {
                wp1.tx.push(data_frame(11, w(20), i as u8)).unwrap();
            }
            sw.process_round();
            misses -= n;
        }
        let (queued, _, shed) = ch.stats();
        assert_eq!((queued, shed), (CONTROL_RING_CAP as u64, OVERFLOW as u64));
        assert!(!headless(&sw), "full is not disconnected");
        wp1.tx.push(data_frame(10, w(20), 7)).unwrap();
        sw.process_round();
        assert_eq!(wp2.rx.pop().unwrap().unwrap().payload[0], 7);
        // The other direction: a switch that stopped draining fails the
        // controller's send instead of blocking it.
        let barrier = wire::encode(&OfMessage::Barrier { xid: 0 });
        let sent = (0..=CONTROL_RING_CAP)
            .take_while(|_| ch.send(barrier.clone()).is_ok())
            .count();
        assert_eq!(sent, CONTROL_RING_CAP);
        assert_eq!(ch.send(barrier).unwrap_err(), NetError::RingFull);
    }

    #[test]
    fn stale_leader_reconnect_is_rejected() {
        let (sw, _boot) = Switch::new(SwitchConfig::new(1));
        let _ch5 = sw.connect_controller(5).unwrap();
        let err = sw.connect_controller(3).unwrap_err();
        assert_eq!(
            err,
            StaleLeader {
                offered: 3,
                current: 5
            }
        );
        assert_eq!(gauge(&sw, "switch.term"), 5, "stale term did not bind");
        // Equal term is a legitimate reconnect (same leader, new channel).
        assert!(sw.connect_controller(5).is_ok());
    }

    /// Satellite regression: a failover re-sync re-installs byte-identical
    /// rules; the megaflow cache must keep its hot entries — the hit
    /// ratio survives the failover — instead of being flushed by no-ops.
    #[test]
    fn identical_rule_reinstall_keeps_the_cache_warm() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        // Warm the cache: round one is the cold miss, round two hits.
        for round in 0..2u8 {
            wp1.tx.push(data_frame(10, w(20), round)).unwrap();
            sw.process_round();
        }
        let before = sw.cache_stats();
        assert_eq!(before.hits, 1);
        // The leader dies; the new leader re-syncs the identical rule set.
        drop(ch);
        sw.attach_worker(PortNo(9)); // discover the dead link → headless
        let ch2 = sw.connect_controller(2).unwrap();
        send_ctrl(&ch2, local_rule(10, 1, 20, 2));
        sw.process_round();
        let after = sw.cache_stats();
        assert_eq!(
            after.invalidations, before.invalidations,
            "no-op re-install must not flush the cache"
        );
        // The warm entry keeps hitting across the failover.
        wp1.tx.push(data_frame(10, w(20), 9)).unwrap();
        sw.process_round();
        assert_eq!(sw.cache_stats().hits, before.hits + 1);
        assert!(sw.cache_stats().hit_ratio() > 0.5);
        while let Ok(Some(_)) = wp2.rx.pop() {}
    }

    #[test]
    fn headless_queue_is_bounded_and_sheds_oldest() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        drop(ch);
        sw.attach_worker(PortNo(1)); // → headless
        assert!(headless(&sw));
        for i in 0..(HEADLESS_QUEUE_CAP as u32 + 10) {
            sw.send_event(OfMessage::EchoRequest(u64::from(i)));
        }
        assert_eq!(queued(&sw), HEADLESS_QUEUE_CAP);
        assert!(sw.inner.link.lock().dropped >= 10, "oldest events shed");
    }
}
