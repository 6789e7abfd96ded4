//! The frame path: resolve each *batch run* of same-headed frames once
//! against the [`FlowCache`](crate::FlowCache) (falling back to the flow
//! table on a miss) and execute the matched action list. It runs on the
//! thread that holds the frames — a worker pushing its batch
//! ([`PortTx`](crate::port::PortTx)), a TCP tunnel's reader handing over
//! what it decoded, the peer host's sending thread for an in-memory
//! tunnel, the datapath thread for `PacketOut`s and frames a fault
//! injector held back — and under no datapath lock: each lock it takes is
//! taken for one step and released. A frame that arrived over a tunnel is
//! never sent into one (split horizon), so a hand-off on a sender's thread
//! runs one switch deep. Broadcast and mirror replication clone the frame,
//! whose payload is [`bytes::Bytes`] — a refcount bump, "negligible packet
//! copy overhead in OVS" (§6.1).

use crate::cache::{CachedActions, Displaced, Probe};
use crate::datapath::Switch;
use crate::table::FlowTable;
use std::sync::Arc;
use std::time::Instant;
use typhoon_net::{Frame, MacAddr, NetError, Tunnel};
use typhoon_openflow::{Action, FrameMeta, OfMessage, PacketInReason, PortNo, PortStatusReason};
use typhoon_trace::Hop;

/// True when a tunnel error is unrecoverable (the link is gone or the
/// stream is poisoned) rather than transient backpressure.
fn tunnel_error_is_fatal(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Disconnected | NetError::Broken(_) | NetError::Io(_)
    )
}

/// A run's resolved actions: inline from the cache, or the table's list.
enum Resolved {
    Cached(CachedActions),
    Table(Vec<Action>),
}

impl std::ops::Deref for Resolved {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        match self {
            Resolved::Cached(actions) => actions,
            Resolved::Table(actions) => actions,
        }
    }
}

/// The header a batch run shares.
fn run_key(f: &Frame) -> (MacAddr, MacAddr, u16) {
    (f.src, f.dst, f.ethertype)
}

impl Switch {
    /// Reaps the ports whose worker end dropped and reports each to the
    /// controller — the fault detector's trigger: an unexpected port
    /// removal.
    pub(crate) fn reap_ports(&self) {
        let dead = self.inner.ports.lock().reap();
        for port in dead {
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port,
            });
        }
    }

    /// Visits every tunnel with the map lock released. Each hands its
    /// arrivals over, so `try_recv` yields no frame here: it releases
    /// what an injector held back, through the ingress, and reports a
    /// teardown.
    pub(crate) fn tend_tunnels(&self) {
        let tunnels: Vec<(u32, Arc<dyn Tunnel>)> = self
            .inner
            .tunnels
            .lock()
            .iter()
            .map(|(&host, t)| (host, t.clone()))
            .collect();
        for (host, tunnel) in tunnels {
            match tunnel.try_recv() {
                Ok(frame) => debug_assert!(frame.is_none(), "a registered tunnel queued a frame"),
                Err(e) if tunnel_error_is_fatal(&e) => self.tunnel_down(host, &tunnel),
                Err(_) => {}
            }
        }
    }

    /// Tears down `tunnel`, the link to `host`, if it is still the
    /// registered one, and reports it to the controller as a `PortStatus`
    /// delete on the tunnel-peer pseudo-port, so a lost host link reaches
    /// the fault detector through the exact same channel as a dead worker
    /// port (Fig. 10). A tunnel registered in its place stays.
    fn tunnel_down(&self, host: u32, tunnel: &Arc<dyn Tunnel>) {
        let removed = {
            let mut tunnels = self.inner.tunnels.lock();
            let current = tunnels
                .get(&host)
                .is_some_and(|t| std::ptr::addr_eq(Arc::as_ptr(t), Arc::as_ptr(tunnel)));
            current.then(|| tunnels.remove(&host)).flatten()
        };
        if removed.is_some() {
            self.inner.tunnel_downs.inc();
            self.inner.cache.invalidate_all();
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port: PortNo::tunnel_peer(host),
            });
        }
    }

    /// Sends `frames` to peer `host`, tearing the tunnel down on the first
    /// fatal error. The tunnel is cloned out of the map and written with
    /// the map lock released, so threads forwarding to different hosts — or
    /// to one — never queue on it; the tunnel's own writer lock orders its
    /// stream. Frames cross one by one so the fault injector keeps its
    /// per-frame semantics (mid-batch drop/corrupt/partition stays
    /// reachable).
    ///
    /// Split horizon, as in OVS full-mesh overlays: frames that came in
    /// over a tunnel are dropped and counted instead. In a full mesh no
    /// host relays, and the rule keeps a hand-off on the sender's thread
    /// one switch deep, so a misconfigured transit rule cannot recurse.
    fn send_to_tunnel(&self, in_port: PortNo, host: u32, frames: &[Frame]) {
        if in_port == PortNo::TUNNEL {
            self.inner.split_horizon_drops.add(frames.len() as u64);
            return;
        }
        let Some(tunnel) = self.inner.tunnels.lock().get(&host).cloned() else {
            return;
        };
        let fatal = frames
            .iter()
            .any(|frame| tunnel.send(frame).is_err_and(|e| tunnel_error_is_fatal(&e)));
        if fatal {
            self.tunnel_down(host, &tunnel);
        }
    }

    /// Runs the frames that arrived on `in_port` through the datapath, in
    /// order, emptying `frames`. Consecutive frames with identical headers
    /// form a *run* that is resolved once — one cache probe (or one table
    /// lookup on miss), one trace-lock visit, one port-lock visit — instead
    /// of paying every cost per tuple.
    pub fn process_frames(&self, in_port: PortNo, frames: &mut Vec<Frame>) {
        while let Some(first) = frames.first() {
            let key = run_key(first);
            match frames.iter().position(|f| run_key(f) != key) {
                // The common batch is one run: forwarded in place.
                None => self.process_run(in_port, frames),
                Some(len) => self.process_run(in_port, &mut frames.drain(..len).collect()),
            }
        }
    }

    /// Resolves and forwards one same-headed run, emptying `run`.
    fn process_run(&self, in_port: PortNo, run: &mut Vec<Frame>) {
        self.forward_run(in_port, run);
        run.clear(); // a miss, or what a dead port refused
    }

    fn forward_run(&self, in_port: PortNo, run: &mut Vec<Frame>) {
        let frames = &run[..];
        // Untraced frames (the overwhelming majority) pay one u64 compare;
        // traced ones share a single trace-lock acquisition per run.
        if frames.iter().any(|f| f.trace != 0) {
            let trace = self.inner.trace.lock();
            for f in frames.iter().filter(|f| f.trace != 0) {
                trace.record(f.trace, Hop::SwitchMatch);
            }
        }
        let meta = FrameMeta {
            in_port,
            dl_src: frames[0].src,
            dl_dst: frames[0].dst,
            ether_type: frames[0].ethertype,
        };
        let bytes: u64 = frames.iter().map(|f| f.wire_len() as u64).sum();
        let actions = match self.resolve(&meta, frames.len() as u64, bytes) {
            Some(a) => a,
            None => return, // table miss: drop the whole run (counted)
        };
        // Fast paths for the two Table 3 staples, paying one lock per run.
        // Everything else (broadcast, groups, controller) falls back to the
        // general per-frame executor.
        match actions[..] {
            [Action::Output(p)] if p.is_physical() && p != PortNo::TUNNEL => {
                let out = self.inner.ports.lock().output(p);
                if let Some(out) = out {
                    out.transmit(run);
                }
            }
            [Action::SetTunDst(host), Action::Output(PortNo::TUNNEL)] => {
                self.send_to_tunnel(in_port, host, frames);
            }
            _ => {
                for frame in run.drain(..) {
                    self.execute(&actions, in_port, frame, 0);
                }
            }
        }
    }

    /// Resolves a run's actions: flow cache first, table on a miss (which
    /// also installs the result — positive or negative — for the next run).
    fn resolve(&self, meta: &FrameMeta, packets: u64, bytes: u64) -> Option<Resolved> {
        let now = self.now_for_expiry();
        match self.inner.cache.probe(meta, packets, bytes, now) {
            Probe::Hit(actions) => Some(Resolved::Cached(actions)),
            Probe::NegativeHit => {
                self.inner.misses.add(packets);
                None
            }
            Probe::Miss => {
                let mut table = self.inner.table.lock();
                match table.lookup_credit(meta, packets, bytes, now) {
                    Some(cf) => {
                        let displaced = self.inner.cache.insert(
                            meta,
                            &cf.actions,
                            cf.idle_timeout,
                            cf.hard_remaining,
                            now,
                        );
                        Self::credit_displaced(&mut table, displaced, now);
                        Some(Resolved::Table(cf.actions))
                    }
                    None => {
                        self.inner.misses.add(packets);
                        let displaced = self.inner.cache.insert_negative(meta, now);
                        Self::credit_displaced(&mut table, displaced, now);
                        None
                    }
                }
            }
        }
    }

    /// Credits pending hits displaced from an overwritten cache slot back
    /// to the table (whose lock the caller already holds).
    fn credit_displaced(table: &mut FlowTable, displaced: Option<Displaced>, now: Instant) {
        if let Some(d) = displaced {
            table.credit(&d, now);
        }
    }

    fn execute(&self, actions: &[Action], in_port: PortNo, mut frame: Frame, depth: u8) {
        if depth > 4 {
            return; // group recursion guard
        }
        let mut tun_dst: Option<u32> = None;
        for action in actions {
            match *action {
                Action::SetDlDst(mac) => {
                    frame.dst = mac;
                }
                Action::SetTunDst(host) => {
                    tun_dst = Some(host);
                }
                Action::Output(PortNo::TUNNEL) => {
                    if let Some(host) = tun_dst {
                        self.send_to_tunnel(in_port, host, std::slice::from_ref(&frame));
                    }
                }
                Action::Output(PortNo::CONTROLLER) | Action::ToController => {
                    self.send_event(OfMessage::PacketIn {
                        in_port,
                        reason: PacketInReason::Action,
                        frame: frame.encode(),
                    });
                }
                Action::Output(PortNo::ALL) => {
                    let outputs = self.inner.ports.lock().outputs();
                    for (p, out) in outputs {
                        if p != in_port {
                            // Payload is shared Bytes: this clone is O(1).
                            out.transmit(&mut vec![frame.clone()]);
                        }
                    }
                }
                Action::Output(p) => {
                    let out = self.inner.ports.lock().output(p);
                    if let Some(out) = out {
                        out.transmit(&mut vec![frame.clone()]);
                    }
                }
                Action::Group(g) => {
                    // Bind first: an `if let` on the lock temporary would
                    // hold the group-table guard across the recursive call
                    // and deadlock on self-referential groups.
                    let bucket_actions = self.inner.groups.lock().select(g);
                    if let Some(bucket_actions) = bucket_actions {
                        self.execute(&bucket_actions, in_port, frame.clone(), depth + 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::datapath::testutil::*;
    use crate::{Switch, SwitchConfig, WorkerPort};
    use bytes::Bytes;
    use typhoon_net::{Frame, InMemoryTunnel, MacAddr, TYPHOON_ETHERTYPE};
    use typhoon_openflow::{Action, FlowMatch, FlowMod, OfMessage, PacketInReason, PortNo};

    /// True while the tunnel to `host` is registered (not torn down).
    fn tunnel_alive(sw: &Switch, host: u32) -> bool {
        sw.inner.tunnels.lock().contains_key(&host)
    }

    #[test]
    fn local_transfer_follows_table3_rule() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round(); // control
        wp1.tx.push(data_frame(10, w(20), 0xaa)).unwrap();
        sw.process_round(); // forward
        let got = wp2.rx.pop().unwrap().expect("delivered");
        assert_eq!(got.payload[0], 0xaa);
        assert_eq!(got.dst, w(20));
        assert_eq!(sw.miss_count(), 0);
    }

    #[test]
    fn table_miss_drops_and_counts() {
        let (sw, _ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_none());
        assert_eq!(sw.miss_count(), 1);
    }

    #[test]
    fn broadcast_replicates_without_copying_payload() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let src = sw.attach_worker(PortNo(1));
        let sinks: Vec<WorkerPort> = (2..=5).map(|p| sw.attach_worker(PortNo(p))).collect();
        // Table 3 one-to-many rule: broadcast dst → all sink ports.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any()
                    .in_port(PortNo(1))
                    .dl_dst(MacAddr::BROADCAST)
                    .ether_type(TYPHOON_ETHERTYPE),
                (2..=5).map(|p| Action::Output(PortNo(p))).collect(),
            )),
        );
        sw.process_round();
        let frame = data_frame(10, MacAddr::BROADCAST, 0xbb);
        let payload_ptr = frame.payload.as_ptr();
        src.tx.push(frame).unwrap();
        sw.process_round();
        for sink in &sinks {
            let got = sink.rx.pop().unwrap().expect("replica delivered");
            assert_eq!(got.payload.as_ptr(), payload_ptr, "shared payload");
        }
    }

    #[test]
    fn remote_transfer_via_tunnel_pair() {
        // Two hosts: sender switch 1, receiver switch 2, joined by a tunnel.
        let (sw1, ch1) = Switch::new(SwitchConfig::new(1));
        let (sw2, ch2) = Switch::new(SwitchConfig::new(2));
        let (t1, t2) = InMemoryTunnel::pair();
        sw1.add_tunnel(2, Box::new(t1));
        sw2.add_tunnel(1, Box::new(t2));
        let src = sw1.attach_worker(PortNo(1));
        let dst = sw2.attach_worker(PortNo(1));
        send_ctrl(&ch1, remote_rule(10, 20, 2)); // Table 3 remote transfer (sender)
                                                 // Table 3 remote transfer (receiver).
        send_ctrl(
            &ch2,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(w(10))
                    .dl_dst(w(20)),
                vec![Action::Output(PortNo(1))],
            )),
        );
        sw1.process_round();
        sw2.process_round();
        // The push forwards on this thread through both switches: neither
        // datapath round runs.
        src.tx.push(data_frame(10, w(20), 0xcc)).unwrap();
        let got = dst.rx.pop().unwrap().expect("crossed hosts");
        assert_eq!(got.payload[0], 0xcc);
        assert_eq!(counter(&sw2, "switch.split_horizon_drops"), 0);
    }

    /// A frame that arrived over a tunnel never leaves over one: a transit
    /// rule's frames are dropped and counted, by the fast path and by the
    /// general executor alike, while a local worker's frames take the same
    /// rules out.
    #[test]
    fn split_horizon_drops_tunnel_to_tunnel_frames_and_counts_them() {
        use typhoon_net::Tunnel;
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let (near2, far2) = InMemoryTunnel::pair();
        let (near3, far3) = InMemoryTunnel::pair();
        sw.add_tunnel(2, Box::new(near2));
        sw.add_tunnel(3, Box::new(near3));
        let src = sw.attach_worker(PortNo(1));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().dl_dst(w(20)),
                vec![Action::SetTunDst(3), Action::Output(PortNo::TUNNEL)],
            )),
        );
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().dl_dst(w(30)),
                vec![
                    Action::SetDlDst(w(31)),
                    Action::SetTunDst(3),
                    Action::Output(PortNo::TUNNEL),
                ],
            )),
        );
        sw.process_round();
        for (dst, n) in [(w(20), 1), (w(30), 2), (w(20), 3)] {
            far2.send(&data_frame(10, dst, n)).unwrap();
        }
        assert_eq!(counter(&sw, "switch.split_horizon_drops"), 3);
        assert_eq!(far3.try_recv().unwrap(), None, "nothing relayed");
        src.tx.push(data_frame(10, w(20), 4)).unwrap();
        src.tx.push(data_frame(10, w(30), 5)).unwrap();
        let out: Vec<u8> = std::iter::from_fn(|| far3.try_recv().unwrap())
            .map(|f| f.payload[0])
            .collect();
        assert_eq!(out, [4, 5], "a local worker's frames leave");
        assert_eq!(counter(&sw, "switch.split_horizon_drops"), 3);
        sw.process_round();
        assert!(tunnel_alive(&sw, 2) && tunnel_alive(&sw, 3));
    }

    #[test]
    fn to_controller_action_produces_packet_in() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(1));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any().dl_dst(MacAddr::CONTROLLER),
                vec![Action::ToController],
            )),
        );
        sw.process_round();
        let _ = drain_events(&ch); // discard the PortStatus add
        wp.tx
            .push(data_frame(10, MacAddr::CONTROLLER, 0xdd))
            .unwrap();
        sw.process_round();
        let events = drain_events(&ch);
        match &events[..] {
            [OfMessage::PacketIn {
                in_port,
                reason,
                frame,
            }] => {
                assert_eq!(*in_port, PortNo(1));
                assert_eq!(*reason, PacketInReason::Action);
                let decoded = Frame::decode(frame.clone()).unwrap();
                assert_eq!(decoded.payload[0], 0xdd);
            }
            other => panic!("expected one PacketIn, got {other:?}"),
        }
    }

    #[test]
    fn dead_tunnel_on_send_reports_tunnel_peer_delete() {
        use typhoon_net::{FaultInjector, FaultPlan, FaultSpec};
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let (t1, _t2) = InMemoryTunnel::pair();
        // TX-only partition: receive stays clean, so only the send path in
        // `execute` can observe the fault.
        let (inj, _handle) = FaultInjector::wrap(
            Box::new(t1),
            FaultPlan::tx_only(1, FaultSpec::CLEAN.partitioned()),
        );
        sw.add_tunnel(2, Box::new(inj));
        let src = sw.attach_worker(PortNo(1));
        send_ctrl(&ch, remote_rule(10, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        assert!(tunnel_alive(&sw, 2));
        src.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(!tunnel_alive(&sw, 2), "dead tunnel removed");
        assert_eq!(counter(&sw, "switch.tunnel_downs"), 1);
        assert!(port_deleted(&ch, PortNo::tunnel_peer(2)));
    }

    #[test]
    fn partitioned_tunnel_on_recv_reports_tunnel_peer_delete() {
        use typhoon_net::{FaultInjector, FaultPlan, FaultSpec};
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let (t1, _t2) = InMemoryTunnel::pair();
        let (inj, handle) = FaultInjector::wrap(Box::new(t1), FaultPlan::clean(1));
        sw.add_tunnel(2, Box::new(inj));
        let _ = drain_events(&ch);
        sw.process_round();
        assert!(tunnel_alive(&sw, 2), "healthy tunnel stays up");
        handle.set_rx(FaultSpec::CLEAN.partitioned());
        sw.process_round();
        assert!(!tunnel_alive(&sw, 2), "partitioned tunnel torn down");
        assert!(port_deleted(&ch, PortNo::tunnel_peer(2)));
    }

    #[test]
    fn group_action_rewrites_destination_with_wrr() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let src = sw.attach_worker(PortNo(1));
        let s1 = sw.attach_worker(PortNo(2));
        let s2 = sw.attach_worker(PortNo(3));
        use typhoon_openflow::{Bucket, GroupId, GroupMod};
        send_ctrl(
            &ch,
            OfMessage::GroupMod(GroupMod::add(
                GroupId(1),
                vec![
                    Bucket {
                        weight: 1,
                        actions: vec![Action::SetDlDst(w(21)), Action::Output(PortNo(2))],
                    },
                    Bucket {
                        weight: 1,
                        actions: vec![Action::SetDlDst(w(22)), Action::Output(PortNo(3))],
                    },
                ],
            )),
        );
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo(1)),
                vec![Action::Group(GroupId(1))],
            )),
        );
        sw.process_round();
        for i in 0..4u8 {
            src.tx.push(data_frame(10, w(99), i)).unwrap();
        }
        sw.process_round();
        let mut to1 = Vec::new();
        let mut to2 = Vec::new();
        while let Ok(Some(f)) = s1.rx.pop() {
            assert_eq!(f.dst, w(21), "group rewrote destination");
            to1.push(f);
        }
        while let Ok(Some(f)) = s2.rx.pop() {
            assert_eq!(f.dst, w(22));
            to2.push(f);
        }
        assert_eq!(to1.len(), 2);
        assert_eq!(to2.len(), 2);
    }

    #[test]
    fn flow_cache_hits_after_first_run_and_keeps_stats_exact() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        // Round 1: cold cache — the run resolves via the table and is
        // installed. Round 2: the run must hit the cache.
        for round in 0..2u8 {
            let mut run: Vec<Frame> = (0..5u8)
                .map(|i| data_frame(10, w(20), round * 10 + i))
                .collect();
            assert_eq!(wp1.tx.push_batch(&mut run).enqueued, 5);
            sw.process_round();
        }
        let stats = sw.cache_stats();
        assert_eq!(stats.hits, 5, "second run hit the cache");
        assert_eq!(stats.misses, 5, "first run was the cold miss");
        // FlowStats must still be exact: the cached hits are flushed into
        // the table before the reply is built.
        send_ctrl(&ch, OfMessage::FlowStatsRequest);
        sw.process_round();
        let replies = drain_events(&ch);
        match &replies[0] {
            OfMessage::FlowStatsReply(stats) => assert_eq!(stats[0].packets, 10),
            other => panic!("unexpected {other:?}"),
        }
        for _ in 0..10 {
            assert!(wp2.rx.pop().unwrap().is_some(), "all frames forwarded");
        }
    }

    #[test]
    fn flow_mod_invalidates_the_cache() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        let wp3 = sw.attach_worker(PortNo(3));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        // Warm the cache toward port 2.
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some());
        // Re-steer the flow to port 3 at higher priority; the cached
        // decision must not survive the rule change.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any().in_port(PortNo(1)).dl_dst(w(20)),
                vec![Action::Output(PortNo(3))],
            )),
        );
        sw.process_round();
        wp1.tx.push(data_frame(10, w(20), 2)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_none(), "old path no longer used");
        assert!(wp3.rx.pop().unwrap().is_some(), "new rule took effect");
        assert!(sw.cache_stats().invalidations >= 1);
    }

    #[test]
    fn negative_cache_still_counts_per_frame_misses() {
        let (sw, _ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        // Two separate runs of the same unmatched flow: the second run
        // hits the negative entry yet must still count 3 misses.
        for round in 0..2u8 {
            let mut run: Vec<Frame> = (0..3u8)
                .map(|i| data_frame(10, w(20), round * 3 + i))
                .collect();
            wp1.tx.push_batch(&mut run);
            sw.process_round();
        }
        assert_eq!(sw.miss_count(), 6);
        assert_eq!(sw.cache_stats().negative_hits, 3);
    }

    #[test]
    fn mixed_batch_splits_into_runs() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        let wp3 = sw.attach_worker(PortNo(3));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        send_ctrl(&ch, local_rule(11, 1, 30, 3));
        sw.process_round();
        // Interleave two flows in one port batch: A A B B A.
        let mut batch: Vec<Frame> = [
            (10, 20, 0),
            (10, 20, 1),
            (11, 30, 2),
            (11, 30, 3),
            (10, 20, 4),
        ]
        .into_iter()
        .map(|(src, dst, n)| Frame::typhoon(w(src), w(dst), Bytes::from(vec![n; 8])))
        .collect();
        wp1.tx.push_batch(&mut batch);
        assert!(batch.is_empty());
        let drain = |port: &WorkerPort| {
            std::iter::from_fn(|| port.rx.pop().unwrap())
                .map(|f| f.payload[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(&wp2), [0, 1, 4], "three runs, each in order");
        assert_eq!(drain(&wp3), [2, 3]);
        let stats = sw.cache_stats();
        // A A and B B each resolve through the table; the last A hits.
        assert_eq!((stats.misses, stats.hits, stats.insertions), (4, 1, 2));
    }
}
