//! Table 3 rule generation.
//!
//! A pure function from (logical topology, physical topology) to the exact
//! per-host rule set of Table 3 in the paper:
//!
//! | tuple type | communication | rule |
//! |---|---|---|
//! | data | local transfer | `match in_port, dl_src, dl_dst, 0xffff → output dst port` |
//! | data | remote (sender) | `match in_port, dl_src, dl_dst, 0xffff → set_tun_dst, output TUNNEL` |
//! | data | remote (receiver) | `match in_port=TUNNEL, dl_src, dl_dst → output dst port` |
//! | data | one-to-many | `match in_port, dl_dst=BROADCAST, 0xffff → output all dst ports (+tunnels)` |
//! | control | controller→worker | `match in_port=CONTROLLER, dl_dst=worker → output worker port` |
//! | control | worker→controller | `match dl_dst=CONTROLLER, 0xffff → output CONTROLLER` |
//!
//! Keeping this a pure function is what lets the controller stay stateless
//! (§3.4): whenever the coordinator's global state changes, the controller
//! just regenerates and diffs.

use std::collections::BTreeMap;
use std::time::Duration;
use typhoon_model::{Grouping, HostId, LogicalTopology, PhysicalTopology, TaskId};
use typhoon_net::{MacAddr, TYPHOON_ETHERTYPE};
use typhoon_openflow::{Action, Bucket, FlowMatch, FlowMod, GroupId, GroupMod, PortNo};

/// Priority of control-plane rules (Table 3 control rows).
pub const CONTROL_PRIORITY: u16 = 100;
/// Priority of unicast data rules.
pub const DATA_PRIORITY: u16 = 50;
/// Priority of broadcast data rules.
pub const BROADCAST_PRIORITY: u16 = 40;

/// Idle timeout applied to data rules so that rules to removed workers age
/// out on their own (§3.5 stateless removal).
pub const DATA_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The complete rule set for one topology, keyed by host.
#[derive(Debug, Default, Clone)]
pub struct RulePlan {
    /// Flow rules per host switch.
    pub flows: BTreeMap<HostId, Vec<FlowMod>>,
    /// Group entries per host switch (SDN-offloaded load balancing).
    pub groups: BTreeMap<HostId, Vec<GroupMod>>,
}

struct TaskView {
    task: TaskId,
    host: HostId,
    port: PortNo,
    mac: MacAddr,
}

/// Builds the Table 3 rule plan for a scheduled topology.
pub fn build_rules(logical: &LogicalTopology, physical: &PhysicalTopology) -> RulePlan {
    let app = physical.app.0;
    let mut plan = RulePlan::default();
    let view = |task: TaskId| -> TaskView {
        let a = physical.assignment(task).expect("task in physical");
        TaskView {
            task,
            host: a.host,
            port: PortNo(a.switch_port),
            mac: MacAddr::worker(app, task),
        }
    };

    // Hosts that carry at least one task get the control rules.
    for (&host, tasks) in &physical.by_host() {
        let flows = plan.flows.entry(host).or_default();
        // Worker → controller (METRIC_RESP and friends).
        flows.push(FlowMod::add(
            CONTROL_PRIORITY,
            FlowMatch::any()
                .dl_dst(MacAddr::CONTROLLER)
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::ToController],
        ));
        // Controller → each worker (control-tuple delivery).
        for &task in tasks {
            let tv = view(task);
            flows.push(FlowMod::add(
                CONTROL_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo::CONTROLLER)
                    .dl_dst(tv.mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(tv.port)],
            ));
        }
    }

    for edge in &logical.edges {
        let srcs: Vec<TaskView> = physical
            .tasks_of(&edge.from)
            .into_iter()
            .map(view)
            .collect();
        let dsts: Vec<TaskView> = physical.tasks_of(&edge.to).into_iter().map(view).collect();
        match &edge.grouping {
            Grouping::All => {
                for src in &srcs {
                    build_broadcast(&mut plan, src, &dsts);
                }
            }
            Grouping::SdnOffloaded => {
                for src in &srcs {
                    build_sdn_offloaded(&mut plan, app, src, &dsts);
                }
            }
            _ => {
                for src in &srcs {
                    for dst in &dsts {
                        build_unicast(&mut plan, src, dst);
                    }
                }
            }
        }
    }
    plan
}

fn build_unicast(plan: &mut RulePlan, src: &TaskView, dst: &TaskView) {
    if src.host == dst.host {
        // Table 3: local transfer.
        plan.flows.entry(src.host).or_default().push(
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(src.port)
                    .dl_src(src.mac)
                    .dl_dst(dst.mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(dst.port)],
            )
            .with_idle_timeout(DATA_IDLE_TIMEOUT),
        );
    } else {
        // Table 3: remote transfer (sender).
        plan.flows.entry(src.host).or_default().push(
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(src.port)
                    .dl_src(src.mac)
                    .dl_dst(dst.mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![
                    Action::SetTunDst(dst.host.0),
                    Action::Output(PortNo::TUNNEL),
                ],
            )
            .with_idle_timeout(DATA_IDLE_TIMEOUT),
        );
        // Table 3: remote transfer (receiver).
        plan.flows.entry(dst.host).or_default().push(
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(src.mac)
                    .dl_dst(dst.mac),
                vec![Action::Output(dst.port)],
            )
            .with_idle_timeout(DATA_IDLE_TIMEOUT),
        );
    }
}

fn build_broadcast(plan: &mut RulePlan, src: &TaskView, dsts: &[TaskView]) {
    // Sender-side rule: local replicas + one tunnel send per remote host.
    let mut actions = Vec::new();
    let mut remote_hosts: Vec<HostId> = Vec::new();
    for dst in dsts {
        if dst.host == src.host {
            actions.push(Action::Output(dst.port));
        } else if !remote_hosts.contains(&dst.host) {
            remote_hosts.push(dst.host);
        }
    }
    for host in &remote_hosts {
        actions.push(Action::SetTunDst(host.0));
        actions.push(Action::Output(PortNo::TUNNEL));
    }
    plan.flows.entry(src.host).or_default().push(
        FlowMod::add(
            BROADCAST_PRIORITY,
            FlowMatch::any()
                .in_port(src.port)
                .dl_src(src.mac)
                .dl_dst(MacAddr::BROADCAST)
                .ether_type(TYPHOON_ETHERTYPE),
            actions,
        )
        .with_idle_timeout(DATA_IDLE_TIMEOUT),
    );
    // Receiver-side rule per remote host: deliver to that host's members.
    for host in remote_hosts {
        let local_outputs: Vec<Action> = dsts
            .iter()
            .filter(|d| d.host == host)
            .map(|d| Action::Output(d.port))
            .collect();
        plan.flows.entry(host).or_default().push(
            FlowMod::add(
                BROADCAST_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(src.mac)
                    .dl_dst(MacAddr::BROADCAST),
                local_outputs,
            )
            .with_idle_timeout(DATA_IDLE_TIMEOUT),
        );
    }
}

/// Deterministic group ID for one source task's offloaded edge.
pub fn group_id_for(app: u16, src: TaskId) -> GroupId {
    GroupId(((app as u32) << 20) | (src.0 & 0xf_ffff))
}

fn build_sdn_offloaded(plan: &mut RulePlan, app: u16, src: &TaskView, dsts: &[TaskView]) {
    // One select group per source task; buckets rewrite the destination and
    // deliver locally or via tunnel. Receiver-side unicast rules cover the
    // tunnel leg.
    let gid = group_id_for(app, src.task);
    let buckets: Vec<Bucket> = dsts
        .iter()
        .map(|dst| {
            let mut actions = vec![Action::SetDlDst(dst.mac)];
            if dst.host == src.host {
                actions.push(Action::Output(dst.port));
            } else {
                actions.push(Action::SetTunDst(dst.host.0));
                actions.push(Action::Output(PortNo::TUNNEL));
            }
            Bucket { weight: 1, actions }
        })
        .collect();
    plan.groups
        .entry(src.host)
        .or_default()
        .push(GroupMod::add(gid, buckets));
    plan.flows.entry(src.host).or_default().push(
        FlowMod::add(
            DATA_PRIORITY,
            FlowMatch::any()
                .in_port(src.port)
                .dl_src(src.mac)
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::Group(gid)],
        )
        .with_idle_timeout(DATA_IDLE_TIMEOUT),
    );
    for dst in dsts.iter().filter(|d| d.host != src.host) {
        plan.flows.entry(dst.host).or_default().push(
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(src.mac)
                    .dl_dst(dst.mac),
                vec![Action::Output(dst.port)],
            )
            .with_idle_timeout(DATA_IDLE_TIMEOUT),
        );
    }
}

/// Builds the Table 3 unicast rules for one explicit `src → dst` task pair
/// (used for edges that exist outside the logical DAG, e.g. worker↔acker
/// ack channels, §6.1). Returns `(host, rule)` pairs to install.
pub fn unicast_rules(
    physical: &PhysicalTopology,
    src: TaskId,
    dst: TaskId,
) -> Vec<(HostId, FlowMod)> {
    let app = physical.app.0;
    let (sa, da) = match (physical.assignment(src), physical.assignment(dst)) {
        (Some(s), Some(d)) => (s.clone(), d.clone()),
        _ => return Vec::new(),
    };
    let src_mac = MacAddr::worker(app, src);
    let dst_mac = MacAddr::worker(app, dst);
    let mut out = Vec::new();
    if sa.host == da.host {
        out.push((
            sa.host,
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo(sa.switch_port))
                    .dl_src(src_mac)
                    .dl_dst(dst_mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(PortNo(da.switch_port))],
            ),
        ));
    } else {
        out.push((
            sa.host,
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo(sa.switch_port))
                    .dl_src(src_mac)
                    .dl_dst(dst_mac)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::SetTunDst(da.host.0), Action::Output(PortNo::TUNNEL)],
            ),
        ));
        out.push((
            da.host,
            FlowMod::add(
                DATA_PRIORITY,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(src_mac)
                    .dl_dst(dst_mac),
                vec![Action::Output(PortNo(da.switch_port))],
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::logical::word_count_example;
    use typhoon_model::{AppId, HostInfo, LocalityScheduler, RoundRobinScheduler, Scheduler};
    use typhoon_tuple::Fields;
    use typhoon_tuple::StreamId;

    fn hosts(n: u32) -> Vec<HostInfo> {
        (0..n)
            .map(|i| HostInfo::new(i, &format!("h{i}"), 8))
            .collect()
    }

    #[test]
    fn local_transfer_rule_matches_table3_shape() {
        let logical = word_count_example();
        // Locality scheduler with one big host: everything is local.
        let phys = LocalityScheduler
            .schedule(AppId(1), &logical, &hosts(1))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        assert_eq!(plan.flows.len(), 1);
        let rules = &plan.flows[&HostId(0)];
        // Find the rule for input task → some split task.
        let input_task = phys.tasks_of("input")[0];
        let split_task = phys.tasks_of("split")[0];
        let src_mac = MacAddr::worker(1, input_task);
        let dst_mac = MacAddr::worker(1, split_task);
        let rule = rules
            .iter()
            .find(|r| r.matcher.dl_src == Some(src_mac) && r.matcher.dl_dst == Some(dst_mac))
            .expect("local transfer rule exists");
        // Exact Table 3 shape: in_port + dl_src + dl_dst + ether_type.
        assert!(rule.matcher.in_port.is_some());
        assert_eq!(rule.matcher.ether_type, Some(TYPHOON_ETHERTYPE));
        let dst_port = PortNo(phys.assignment(split_task).unwrap().switch_port);
        assert_eq!(rule.actions, vec![Action::Output(dst_port)]);
        assert_eq!(rule.priority, DATA_PRIORITY);
    }

    #[test]
    fn remote_transfer_generates_sender_and_receiver_rules() {
        let logical = word_count_example();
        // Round robin over 2 hosts guarantees cross-host edges.
        let phys = RoundRobinScheduler
            .schedule(AppId(1), &logical, &hosts(2))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        let sender_rules: Vec<&FlowMod> = plan
            .flows
            .values()
            .flatten()
            .filter(|r| r.actions.iter().any(|a| matches!(a, Action::SetTunDst(_))))
            .collect();
        assert!(!sender_rules.is_empty(), "cross-host edges exist");
        for rule in &sender_rules {
            // Table 3 sender shape: set_tun_dst then output=TUNNEL.
            let i = rule
                .actions
                .iter()
                .position(|a| matches!(a, Action::SetTunDst(_)))
                .unwrap();
            assert_eq!(rule.actions[i + 1], Action::Output(PortNo::TUNNEL));
        }
        // Every sender rule has a matching receiver rule on the peer host.
        for rule in &sender_rules {
            let dst = rule.matcher.dl_dst.unwrap();
            if dst == MacAddr::BROADCAST {
                continue;
            }
            let peer = match rule.actions.iter().find_map(|a| match a {
                Action::SetTunDst(h) => Some(HostId(*h)),
                _ => None,
            }) {
                Some(h) => h,
                None => continue,
            };
            let receiver = plan.flows[&peer].iter().find(|r| {
                r.matcher.in_port == Some(PortNo::TUNNEL) && r.matcher.dl_dst == Some(dst)
            });
            assert!(receiver.is_some(), "receiver rule for {dst:?} on {peer:?}");
        }
    }

    #[test]
    fn control_rules_present_on_every_host() {
        let logical = word_count_example();
        let phys = RoundRobinScheduler
            .schedule(AppId(1), &logical, &hosts(3))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        for (host, rules) in &plan.flows {
            // Worker → controller rule.
            assert!(
                rules
                    .iter()
                    .any(|r| r.matcher.dl_dst == Some(MacAddr::CONTROLLER)
                        && r.actions == vec![Action::ToController]),
                "{host:?} missing worker→controller rule"
            );
            // Controller → worker rule per local task.
            let local_tasks = phys.by_host()[host].len();
            let ctrl_rules = rules
                .iter()
                .filter(|r| r.matcher.in_port == Some(PortNo::CONTROLLER))
                .count();
            assert_eq!(ctrl_rules, local_tasks);
        }
    }

    fn broadcast_topology() -> LogicalTopology {
        LogicalTopology::builder("bcast")
            .spout("src", "s", 1, Fields::new(["x"]))
            .bolt("sink", "b", 4, Fields::new(["x"]))
            .edge_on("src", "sink", StreamId::DEFAULT, Grouping::All)
            .build()
            .unwrap()
    }

    #[test]
    fn broadcast_rule_lists_all_destination_ports() {
        let logical = broadcast_topology();
        let phys = LocalityScheduler
            .schedule(AppId(2), &logical, &hosts(1))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        let rules = &plan.flows[&HostId(0)];
        let bcast = rules
            .iter()
            .find(|r| r.matcher.dl_dst == Some(MacAddr::BROADCAST))
            .expect("broadcast rule");
        assert_eq!(bcast.priority, BROADCAST_PRIORITY);
        assert_eq!(bcast.actions.len(), 4, "one output per sink worker");
    }

    #[test]
    fn broadcast_across_hosts_tunnels_once_per_host() {
        let logical = broadcast_topology();
        let phys = RoundRobinScheduler
            .schedule(AppId(2), &logical, &hosts(2))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        let src_host = phys.assignment(phys.tasks_of("src")[0]).unwrap().host;
        let bcast = plan.flows[&src_host]
            .iter()
            .find(|r| {
                r.matcher.dl_dst == Some(MacAddr::BROADCAST)
                    && r.matcher.in_port != Some(PortNo::TUNNEL)
            })
            .unwrap();
        let tunnel_sends = bcast
            .actions
            .iter()
            .filter(|a| **a == Action::Output(PortNo::TUNNEL))
            .count();
        assert_eq!(tunnel_sends, 1, "the frame crosses the wire once per host");
        // The remote host delivers to its local sinks.
        let other = HostId(1 - src_host.0);
        let recv = plan.flows[&other]
            .iter()
            .find(|r| {
                r.matcher.in_port == Some(PortNo::TUNNEL)
                    && r.matcher.dl_dst == Some(MacAddr::BROADCAST)
            })
            .expect("broadcast receiver rule");
        assert!(!recv.actions.is_empty());
    }

    #[test]
    fn sdn_offloaded_edge_builds_group_and_indirection() {
        let logical = LogicalTopology::builder("lb")
            .spout("src", "s", 1, Fields::new(["x"]))
            .bolt("sink", "b", 3, Fields::new(["x"]))
            .edge("src", "sink", Grouping::SdnOffloaded)
            .build()
            .unwrap();
        let phys = LocalityScheduler
            .schedule(AppId(3), &logical, &hosts(1))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        let groups = &plan.groups[&HostId(0)];
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].buckets.len(), 3);
        for b in &groups[0].buckets {
            assert!(matches!(b.actions[0], Action::SetDlDst(_)));
        }
        let flows = &plan.flows[&HostId(0)];
        assert!(flows
            .iter()
            .any(|r| r.actions.iter().any(|a| matches!(a, Action::Group(_)))));
    }

    #[test]
    fn data_rules_carry_idle_timeouts() {
        let logical = word_count_example();
        let phys = LocalityScheduler
            .schedule(AppId(1), &logical, &hosts(1))
            .unwrap();
        let plan = build_rules(&logical, &phys);
        for rule in plan.flows.values().flatten() {
            if rule.priority == DATA_PRIORITY || rule.priority == BROADCAST_PRIORITY {
                assert_eq!(rule.idle_timeout, DATA_IDLE_TIMEOUT);
            } else {
                assert_eq!(rule.idle_timeout, Duration::ZERO, "control rules persist");
            }
        }
    }

    #[test]
    fn group_ids_are_unique_per_app_and_task() {
        assert_ne!(group_id_for(1, TaskId(1)), group_id_for(1, TaskId(2)));
        assert_ne!(group_id_for(1, TaskId(1)), group_id_for(2, TaskId(1)));
    }
}
