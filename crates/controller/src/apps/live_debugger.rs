//! The live-debugger app (§4, evaluated in Fig. 12 / Table 5).
//!
//! "The Typhoon SDN controller can easily support highly flexible and
//! efficient live debugging capability by dynamically adding a debug worker
//! anywhere in a running topology and inserting packet-mirroring rules for
//! selected tuples."
//!
//! The mirror is pure data plane: a higher-priority copy of the matched
//! rule whose action list additionally outputs to the debug worker's port.
//! The extra output clones a `Bytes` payload — no application-level
//! serialization, which is exactly why Fig. 12 shows no throughput drop
//! for Typhoon while Storm's app-level mirroring halves throughput.

use crate::apps::ControlPlaneApp;
use crate::controller::Controller;
use crate::rules::DATA_IDLE_TIMEOUT;
use typhoon_model::{AppId, HostId, TaskId};
use typhoon_net::{MacAddr, TYPHOON_ETHERTYPE};
use typhoon_openflow::{Action, FlowMatch, FlowMod, PortNo};

/// Mirror rules sit above the data rules so they win the lookup.
pub const MIRROR_PRIORITY: u16 = 60;

/// One active mirror session.
#[derive(Debug, Clone)]
struct Mirror {
    host: HostId,
    matchers: Vec<FlowMatch>,
}

/// The live debugger. Unlike the other apps it is imperative: experiments
/// and the REST API call [`LiveDebugger::mirror_task`] /
/// [`LiveDebugger::unmirror`] directly on a shared handle.
#[derive(Debug, Default)]
pub struct LiveDebugger {
    sessions: Vec<Mirror>,
}

impl LiveDebugger {
    /// A debugger with no active sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirrors every tuple emitted by `src_task` to `debug_port` on the
    /// same host. For each live unicast destination the base plan serves,
    /// a higher-priority rule replays the base action plus the mirror
    /// output; the broadcast rule gets the same treatment.
    ///
    /// `dst_tasks` are the current next hops of `src_task` with their
    /// ports (the caller reads them from the physical topology).
    // The argument list mirrors the OpenFlow rule tuple one-to-one;
    // bundling them into a struct would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    pub fn mirror_task(
        &mut self,
        ctl: &Controller,
        app: AppId,
        host: HostId,
        src_task: TaskId,
        src_port: PortNo,
        dst_tasks: &[(TaskId, PortNo)],
        debug_port: PortNo,
    ) {
        let src_mac = MacAddr::worker(app.0, src_task);
        let mut matchers = Vec::new();
        for &(dst_task, dst_port) in dst_tasks {
            let matcher = FlowMatch::any()
                .in_port(src_port)
                .dl_src(src_mac)
                .dl_dst(MacAddr::worker(app.0, dst_task))
                .ether_type(TYPHOON_ETHERTYPE);
            ctl.send_flow_mod(
                host,
                FlowMod::add(
                    MIRROR_PRIORITY,
                    matcher,
                    vec![Action::Output(dst_port), Action::Output(debug_port)],
                )
                .with_idle_timeout(DATA_IDLE_TIMEOUT),
            );
            matchers.push(matcher);
        }
        self.sessions.push(Mirror { host, matchers });
    }

    /// Tears down every mirror session installed through this handle.
    /// Strict deletes (priority-matched) leave the base rules untouched.
    pub fn unmirror(&mut self, ctl: &Controller) {
        for session in self.sessions.drain(..) {
            for matcher in session.matchers {
                let mut del = FlowMod::delete(matcher);
                del.priority = MIRROR_PRIORITY;
                ctl.send_flow_mod(session.host, del);
            }
        }
    }

    /// Number of active mirror sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }
}

impl ControlPlaneApp for LiveDebugger {
    fn name(&self) -> &'static str {
        "live-debugger"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use typhoon_coordinator::global::GlobalState;
    use typhoon_coordinator::Coordinator;
    use typhoon_net::Frame;
    use typhoon_switch::{Switch, SwitchConfig};
    use typhoon_tuple::tuple::TaskId;

    #[test]
    fn mirror_duplicates_traffic_then_strict_delete_restores() {
        let global = GlobalState::new(Coordinator::new());
        let ctl = Controller::new(global);
        let (sw, ch) = Switch::new(SwitchConfig::new(0));
        ctl.register_switch(HostId(0), sw.dpid(), ch);

        let src = sw.attach_worker(PortNo(1));
        let dst = sw.attach_worker(PortNo(2));
        let dbg = sw.attach_worker(PortNo(3));

        // Base unicast rule (what install_topology would have placed).
        let src_mac = MacAddr::worker(1, TaskId(10));
        let dst_mac = MacAddr::worker(1, TaskId(20));
        ctl.send_flow_mod(
            HostId(0),
            FlowMod::add(
                crate::rules::DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo(1))
                    .dl_src(src_mac)
                    .dl_dst(dst_mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(PortNo(2))],
            ),
        );
        sw.process_round();

        let mut debugger = LiveDebugger::new();
        debugger.mirror_task(
            &ctl,
            AppId(1),
            HostId(0),
            TaskId(10),
            PortNo(1),
            &[(TaskId(20), PortNo(2))],
            PortNo(3),
        );
        sw.process_round();
        assert_eq!(debugger.active_sessions(), 1);

        // Traffic now reaches both the real destination and the debugger.
        let frame = Frame::typhoon(src_mac, dst_mac, Bytes::from_static(b"tuple"));
        let payload_ptr = frame.payload.as_ptr();
        src.tx.push(frame).unwrap();
        sw.process_round();
        let at_dst = dst.rx.pop().unwrap().expect("destination still served");
        let at_dbg = dbg.rx.pop().unwrap().expect("debugger got a copy");
        assert_eq!(at_dst.payload.as_ptr(), payload_ptr, "shared payload");
        assert_eq!(at_dbg.payload.as_ptr(), payload_ptr, "no serialization");

        // Unmirror: strict delete removes only the mirror rule.
        debugger.unmirror(&ctl);
        sw.process_round();
        assert_eq!(debugger.active_sessions(), 0);
        let frame = Frame::typhoon(src_mac, dst_mac, Bytes::from_static(b"tuple2"));
        src.tx.push(frame).unwrap();
        sw.process_round();
        assert!(dst.rx.pop().unwrap().is_some(), "base rule survives");
        assert!(dbg.rx.pop().unwrap().is_none(), "mirroring stopped");
    }
}
