//! The SDN load-balancer app (§4).
//!
//! "A worker populates destination IDs for outgoing tuples randomly,
//! instead of applying any routing, and the SDN switch rewrites their
//! destination IDs in a weighted round robin fashion … the weight
//! associated with each destination can be dynamically adjusted by the SDN
//! controller based on application-level (e.g., node's CPU load) and
//! network-level (e.g., port statistics) information."
//!
//! The data-plane side (select group + destination rewrite) is installed by
//! [`crate::rules::build_rules`] for [`typhoon_model::Grouping::SdnOffloaded`]
//! edges. This app closes the loop: each tick it polls the downstream
//! workers' queue depths via `METRIC_REQ` control tuples and retunes the
//! bucket weights inversely to queue depth, so stragglers receive less.

use crate::apps::ControlPlaneApp;
use crate::control::ControlTuple;
use crate::controller::Controller;
use crate::rules::group_id_for;
use std::collections::HashMap;
use std::time::Instant;
use typhoon_model::{AppId, TaskId};
use typhoon_net::MacAddr;
use typhoon_openflow::{Action, Bucket, GroupMod, PortNo};

/// Configuration of one balanced edge.
#[derive(Debug, Clone)]
pub struct LoadBalancerConfig {
    /// Topology name.
    pub topology: String,
    /// Upstream node (whose tasks own the select groups).
    pub from: String,
    /// Downstream node (whose tasks are the buckets).
    pub to: String,
    /// Metric polled from downstream workers (typically `"queue.depth"`).
    pub metric: String,
}

/// The load balancer.
pub struct LoadBalancer {
    config: LoadBalancerConfig,
    watched_app: Option<AppId>,
    /// Latest reported metric per downstream task.
    depths: HashMap<TaskId, i64>,
    next_request: u64,
    /// Weight updates issued (observability for tests).
    pub retunes: u64,
}

impl LoadBalancer {
    /// A balancer for one edge.
    pub fn new(config: LoadBalancerConfig) -> Self {
        LoadBalancer {
            config,
            watched_app: None,
            depths: HashMap::new(),
            next_request: 1,
            retunes: 0,
        }
    }

    /// Weight for a reported queue depth: deeper queue → lighter weight.
    /// Weights stay ≥ 1 so no worker is starved entirely (a starved
    /// stateful worker could otherwise never drain).
    fn weight_for(depth: i64) -> u32 {
        const MAX_WEIGHT: i64 = 100;
        (MAX_WEIGHT - depth.clamp(0, MAX_WEIGHT - 1)).max(1) as u32
    }
}

impl ControlPlaneApp for LoadBalancer {
    fn name(&self) -> &'static str {
        "load-balancer"
    }

    fn on_metric_resp(
        &mut self,
        _ctl: &Controller,
        app: AppId,
        task: TaskId,
        _request_id: u64,
        metrics: &[(String, i64)],
    ) {
        if self.watched_app.is_some() && self.watched_app != Some(app) {
            return;
        }
        if let Some((_, v)) = metrics.iter().find(|(k, _)| *k == self.config.metric) {
            self.depths.insert(task, *v);
        }
    }

    fn on_tick(&mut self, ctl: &Controller, _now: Instant) {
        let global = ctl.global().clone();
        let (logical, physical) = match (
            global.get_logical(&self.config.topology),
            global.get_physical(&self.config.topology),
        ) {
            (Ok(l), Ok(p)) => (l, p),
            _ => return,
        };
        let _ = logical;
        self.watched_app = Some(physical.app);
        let dst_tasks = physical.tasks_of(&self.config.to);
        // Poll downstream queue depths for the next round.
        let req = ControlTuple::MetricReq {
            request_id: self.next_request,
        };
        self.next_request += 1;
        ctl.send_control_many(physical.app, &dst_tasks, &req);

        // Retune weights from what we know so far.
        if self.depths.is_empty() {
            return;
        }
        for src in physical.tasks_of(&self.config.from) {
            let src_host = match physical.assignment(src) {
                Some(a) => a.host,
                None => continue,
            };
            let buckets: Vec<Bucket> = dst_tasks
                .iter()
                .filter_map(|&dst| {
                    let a = physical.assignment(dst)?;
                    let mut actions = vec![Action::SetDlDst(MacAddr::worker(physical.app.0, dst))];
                    if a.host == src_host {
                        actions.push(Action::Output(PortNo(a.switch_port)));
                    } else {
                        actions.push(Action::SetTunDst(a.host.0));
                        actions.push(Action::Output(PortNo::TUNNEL));
                    }
                    let depth = self.depths.get(&dst).copied().unwrap_or(0);
                    Some(Bucket {
                        weight: Self::weight_for(depth),
                        actions,
                    })
                })
                .collect();
            ctl.send_group_mod(
                src_host,
                GroupMod::modify(group_id_for(physical.app.0, src), buckets),
            );
            self.retunes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_inverse_to_depth_and_never_zero() {
        assert_eq!(LoadBalancer::weight_for(0), 100);
        assert!(LoadBalancer::weight_for(10) < LoadBalancer::weight_for(1));
        assert_eq!(LoadBalancer::weight_for(1_000_000), 1);
        assert_eq!(LoadBalancer::weight_for(-5), 100, "negative clamps");
    }

    /// The balancer by counts, with no window: scripted queue depths in,
    /// the weights of the `GroupMod`s it sends out, read back from the rule
    /// ledger that records every send the switch accepted. The straggler's
    /// weight falls with its depth, never below 1, and comes back when it
    /// drains; the instants only move forward.
    #[test]
    fn the_straggler_weight_falls_with_its_depth_and_never_below_one() {
        use crate::ha::RuleLedger;
        use std::sync::Arc;
        use std::time::Duration;
        use typhoon_coordinator::global::GlobalState;
        use typhoon_coordinator::Coordinator;
        use typhoon_model::{
            Fields, Grouping, HostId, HostInfo, LocalityScheduler, LogicalTopology, Scheduler,
        };
        use typhoon_openflow::OfMessage;
        use typhoon_switch::{Switch, SwitchConfig};

        let global = GlobalState::new(Coordinator::new());
        let logical = LogicalTopology::builder("t")
            .spout("a", "src", 1, Fields::new(["n"]))
            .bolt("b", "sink", 2, Fields::new(["n"]))
            .edge("a", "b", Grouping::SdnOffloaded)
            .build()
            .unwrap();
        let physical = LocalityScheduler
            .schedule(AppId(1), &logical, &[HostInfo::new(0, "h0", 8)])
            .unwrap();
        global.set_logical(&logical).unwrap();
        global.set_physical(&physical).unwrap();
        let ledger = Arc::new(RuleLedger::with_prefix(global.coordinator().clone(), "/lb"));
        let ctl = Controller::with_ledger(global, Arc::clone(&ledger));
        let (sw, ch) = Switch::new(SwitchConfig::new(0));
        ctl.register_switch(HostId(0), sw.dpid(), ch);
        let mut lb = LoadBalancer::new(LoadBalancerConfig {
            topology: "t".into(),
            from: "a".into(),
            to: "b".into(),
            metric: "queue.depth".into(),
        });
        let (fast, slow) = match physical.tasks_of("b")[..] {
            [fast, slow] => (fast, slow),
            ref other => panic!("two sinks, got {other:?}"),
        };
        // The weights of the select group's buckets, in `tasks_of("b")`
        // order, as last sent.
        let weights = || -> Vec<u32> {
            let groups: Vec<_> = ledger
                .replay_messages(HostId(0))
                .into_iter()
                .filter_map(|m| match m {
                    OfMessage::GroupMod(gm) => Some(gm),
                    _ => None,
                })
                .collect();
            assert_eq!(groups.len(), 1, "one group per upstream task");
            groups[0].buckets.iter().map(|b| b.weight).collect()
        };
        let t0 = std::time::Instant::now();
        let tick = |lb: &mut LoadBalancer, step: u32, depths: [i64; 2]| {
            for (task, depth) in [fast, slow].into_iter().zip(depths) {
                let metrics = [("queue.depth".to_owned(), depth)];
                lb.on_metric_resp(&ctl, physical.app, task, u64::from(step), &metrics);
            }
            lb.on_tick(&ctl, t0 + Duration::from_millis(100) * step);
            weights()
        };
        assert_eq!(tick(&mut lb, 1, [0, 0]), [100, 100], "even while even");
        let w = tick(&mut lb, 2, [0, 40]);
        assert_eq!(w, [100, 60], "the straggler's weight falls");
        let w = tick(&mut lb, 3, [0, 90]);
        assert!(w[1] < 60 && w[1] >= 1, "{w:?}");
        assert_eq!(tick(&mut lb, 4, [5, 1_000_000]), [95, 1], "never below 1");
        assert_eq!(tick(&mut lb, 5, [0, 0]), [100, 100], "drained: even again");
        assert_eq!(lb.retunes, 5);
    }

    #[test]
    fn metric_responses_update_depths() {
        let mut lb = LoadBalancer::new(LoadBalancerConfig {
            topology: "t".into(),
            from: "a".into(),
            to: "b".into(),
            metric: "queue.depth".into(),
        });
        let global =
            typhoon_coordinator::global::GlobalState::new(typhoon_coordinator::Coordinator::new());
        let ctl = Controller::new(global);
        lb.on_metric_resp(
            &ctl,
            AppId(1),
            TaskId(3),
            1,
            &[("queue.depth".into(), 42), ("other".into(), 7)],
        );
        assert_eq!(lb.depths[&TaskId(3)], 42);
        lb.on_metric_resp(&ctl, AppId(1), TaskId(4), 1, &[("other".into(), 7)]);
        assert!(!lb.depths.contains_key(&TaskId(4)), "wrong metric ignored");
    }
}
