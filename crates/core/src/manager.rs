//! The streaming manager (Nimbus's Typhoon counterpart, §5) and the
//! dynamic topology manager (§3.2).
//!
//! Submission executes the five-step deployment workflow of §3.2:
//! (i) build + schedule (locality-aware), (ii) notification (coordinator
//! writes), (iii) network setup (controller installs Table 3 rules),
//! (iv) application setup (agents launch workers attached to switches),
//! (v) data flows.
//!
//! Reconfiguration executes the four-step workflow: request → topology
//! reschedule → notification → network/application reconfiguration, using
//! the §3.5 stable-update ordering computed by [`crate::update`].

use crate::agent::WorkerAgent;
use crate::checkpoint::CheckpointStore;
use crate::update::{plan_update, UpdatePlan};
use crate::worker::{CheckpointSpec, IoConfig, Route};
use crate::{CoreError, Result, ACKER_NODE};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_controller::apps::FAULTS;
use typhoon_controller::{rules, ControlPlane, ControlTuple, Controller};
use typhoon_coordinator::global::GlobalState;
use typhoon_coordinator::CreateMode;
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::Registry;
use typhoon_model::{
    AppId, Grouping, HostId, LocalityScheduler, LogicalTopology, NodeKind, PhysicalTopology,
    ReconfigRequest, RoundRobinScheduler, RoutingState, Scheduler, TaskAssignment, TaskId,
};
use typhoon_net::MacAddr;
use typhoon_openflow::{FlowMatch, FlowMod};

/// Which placement strategy the manager schedules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Typhoon's locality scheduler (§5): co-locate topological neighbours.
    #[default]
    Locality,
    /// Storm's default round-robin spread (the ablation baseline).
    RoundRobin,
}

impl SchedulerKind {
    fn as_scheduler(self) -> &'static dyn Scheduler {
        match self {
            SchedulerKind::Locality => &LocalityScheduler,
            SchedulerKind::RoundRobin => &RoundRobinScheduler,
        }
    }
}

/// Manager-level configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Default I/O layer settings for launched workers.
    pub io: IoConfig,
    /// Guaranteed-processing mode for submitted topologies.
    pub acking: bool,
    /// Ack replay timeout.
    pub ack_timeout: Duration,
    /// Max in-flight spout roots.
    pub max_pending: usize,
    /// Placement strategy (ablation hook; Typhoon defaults to locality).
    pub scheduler: SchedulerKind,
    /// Checkpoint store for stateful-bolt snapshots; `None` disables
    /// checkpointing (and therefore checkpoint-based crash recovery).
    pub checkpoint_store: Option<Arc<CheckpointStore>>,
    /// Epoch interval between stateful-bolt checkpoints. Must be well
    /// below `ack_timeout`: a checkpointing bolt withholds acks until the
    /// fold is durable, so an interval near the ack timeout would make the
    /// spout replay tuples that are merely awaiting their next checkpoint.
    pub checkpoint_interval: Duration,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            io: IoConfig::default(),
            acking: false,
            ack_timeout: Duration::from_secs(30),
            max_pending: 1024,
            scheduler: SchedulerKind::default(),
            checkpoint_store: None,
            checkpoint_interval: Duration::from_millis(200),
        }
    }
}

/// How long the manager waits for a control-plane leader before a call
/// fails with a typed timeout. Comfortably longer than a failover window
/// (session timeout + re-sync), far shorter than any test bound.
const LEADER_WAIT: Duration = Duration::from_secs(5);

/// Wait for launched workers to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// Settling time after `SIGNAL` flushes before routing updates.
const SIGNAL_WAIT: Duration = Duration::from_millis(50);
/// Drain time between rerouting and killing removed workers.
const DRAIN_WAIT: Duration = Duration::from_millis(100);

/// The streaming manager.
pub struct StreamingManager {
    global: GlobalState,
    plane: ControlPlane,
    agents: BTreeMap<HostId, std::sync::Arc<WorkerAgent>>,
    config: ManagerConfig,
    next_app: Mutex<u16>,
    registry: Registry,
}

impl StreamingManager {
    /// Creates a manager over the cluster's agents. The manager talks to
    /// whichever controller replica currently leads `plane`.
    pub fn new(
        global: GlobalState,
        plane: ControlPlane,
        agents: BTreeMap<HostId, std::sync::Arc<WorkerAgent>>,
        config: ManagerConfig,
    ) -> Self {
        StreamingManager {
            global,
            plane,
            agents,
            config,
            next_app: Mutex::with_rank(rank::CORE_APP_IDS, "core.manager.next_app", 1),
            registry: Registry::new(),
        }
    }

    /// Manager metrics: `manager.submit_us.{rules,launch,activate}` per
    /// `submit`, and the `typhoon-manager` loop's `loop.*`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The cluster's global state handle.
    pub fn global(&self) -> &GlobalState {
        &self.global
    }

    /// The current control-plane leader. Blocks across a failover window
    /// until the successor is published; surfaces a typed timeout when no
    /// leader emerges — callers leave their work records in place and
    /// retry later.
    fn ctl(&self) -> Result<Controller> {
        self.plane
            .wait_leader(LEADER_WAIT)
            .ok_or(CoreError::Timeout("control-plane leader"))
    }

    fn agent(&self, host: HostId) -> Result<&std::sync::Arc<WorkerAgent>> {
        self.agents
            .get(&host)
            .ok_or(CoreError::Timeout("agent for host"))
    }

    /// Builds the outgoing routes for one node from topology state.
    fn build_routes(
        logical: &LogicalTopology,
        physical: &PhysicalTopology,
        node: &str,
    ) -> Vec<Route> {
        let mut routes = Vec::new();
        for edge in logical.edges_from(node) {
            let hops = physical.tasks_of(&edge.to);
            let key_indices = match &edge.grouping {
                Grouping::Fields(keys) => logical
                    .node(node)
                    .and_then(|n| n.output_fields.resolve(keys).ok())
                    .unwrap_or_default(),
                _ => Vec::new(),
            };
            routes.push(Route {
                stream: edge.stream,
                downstream: edge.to.clone(),
                state: RoutingState::new(edge.grouping.clone(), hops, key_indices),
            });
        }
        routes
    }

    fn launch_assignment(
        &self,
        logical: &LogicalTopology,
        physical: &PhysicalTopology,
        assignment: &TaskAssignment,
        acker: Option<TaskId>,
        restore: bool,
    ) -> Result<()> {
        let agent = self.agent(assignment.host)?;
        let is_acker = assignment.node == ACKER_NODE;
        let kind = if is_acker {
            NodeKind::Bolt
        } else {
            logical
                .node(&assignment.node)
                .map(|n| n.kind)
                .ok_or_else(|| CoreError::UnknownTopology(assignment.node.clone()))?
        };
        let routes = if is_acker {
            Vec::new()
        } else {
            Self::build_routes(logical, physical, &assignment.node)
        };
        let config = crate::worker::WorkerConfig {
            app: physical.app,
            task: assignment.task,
            node: assignment.node.clone(),
            component: assignment.component.clone(),
            io: self.config.io.clone(),
            acking: self.config.acking,
            acker: acker.filter(|&a| a != assignment.task),
            ack_timeout: self.config.ack_timeout,
            max_pending: self.config.max_pending,
            // Spouts start deactivated; the manager sends ACTIVATE once the
            // whole topology is deployed (Table 2, step (v) of §3.2).
            start_active: false,
            checkpoint: self
                .config
                .checkpoint_store
                .as_ref()
                .map(|store| CheckpointSpec {
                    store: store.clone(),
                    topology: logical.name.clone(),
                    interval: self.config.checkpoint_interval,
                }),
            restore,
        };
        agent.launch(
            kind,
            is_acker,
            typhoon_openflow::PortNo(assignment.switch_port),
            config,
            routes,
        )?;
        agent.wait_ready(physical.app, assignment.task, READY_TIMEOUT)?;
        Ok(())
    }

    /// Submits a topology (the §3.2 deployment workflow). Returns the
    /// assigned application ID.
    pub fn submit(&self, logical: LogicalTopology) -> Result<AppId> {
        logical.validate()?;
        let app = {
            let mut next = self.next_app.lock();
            let id = AppId(*next);
            *next += 1;
            id
        };
        // (i) Schedule with the Typhoon locality scheduler over the
        // currently registered agents, then let each agent assign the
        // actual switch ports it owns.
        let host_infos: Vec<typhoon_model::HostInfo> = self
            .agents
            .values()
            .map(|a| {
                let mut info = a.info().clone();
                info.slots = info.slots.saturating_sub(a.used_slots());
                info
            })
            .collect();
        let mut physical =
            self.config
                .scheduler
                .as_scheduler()
                .schedule(app, &logical, &host_infos)?;
        for a in &mut physical.assignments {
            a.switch_port = self.agent(a.host)?.alloc_port().0;
        }
        // Guaranteed processing: append the system acker.
        let acker = if self.config.acking {
            let host = physical.assignments[0].host;
            let task = physical.alloc_task_id();
            let port = self.agent(host)?.alloc_port().0;
            physical.assignments.push(TaskAssignment {
                task,
                node: ACKER_NODE.into(),
                component: ACKER_NODE.into(),
                host,
                switch_port: port,
            });
            Some(task)
        } else {
            None
        };
        // (ii) Notification: write the global states.
        self.global.set_logical(&logical)?;
        self.global.set_physical(&physical)?;
        // (iii) Network setup: Table 3 rules (+ acker channels).
        let mut mark = Instant::now();
        let mut phase = |name: &str| {
            let name = format!("manager.submit_us.{name}");
            let us = mark.elapsed().as_micros() as u64;
            self.registry.histogram(&name).record(us);
            mark = Instant::now();
        };
        if !self.ctl()?.install_topology(&logical, &physical) {
            return Err(CoreError::Timeout("topology install barrier"));
        }
        if let Some(acker) = acker {
            self.install_ack_rules(&physical, acker);
        }
        phase("rules");
        // (iv) Application setup: launch workers.
        for assignment in &physical.assignments {
            self.launch_assignment(&logical, &physical, assignment, acker, false)?;
        }
        phase("launch");
        // (v) Activate the topology: unthrottle the first workers.
        self.activate_spouts(app, &logical, &physical);
        phase("activate");
        Ok(app)
    }

    fn activate_spouts(&self, app: AppId, logical: &LogicalTopology, physical: &PhysicalTopology) {
        let Ok(ctl) = self.ctl() else { return };
        for node in logical.nodes.iter().filter(|n| n.kind == NodeKind::Spout) {
            for task in physical.tasks_of(&node.name) {
                ctl.send_control(app, task, &ControlTuple::Activate);
            }
        }
    }

    /// Pauses the topology by throttling its first workers (`DEACTIVATE`,
    /// Table 2) — the "pause" half of the §8 pause-and-resume relocation.
    fn deactivate_spouts(
        &self,
        app: AppId,
        logical: &LogicalTopology,
        physical: &PhysicalTopology,
    ) {
        let Ok(ctl) = self.ctl() else { return };
        for node in logical.nodes.iter().filter(|n| n.kind == NodeKind::Spout) {
            for task in physical.tasks_of(&node.name) {
                ctl.send_control(app, task, &ControlTuple::Deactivate);
            }
        }
    }

    /// Returns `false` when any send or barrier fails (e.g. the leader
    /// died mid-install) — callers on retried paths propagate the failure.
    fn install_ack_rules(&self, physical: &PhysicalTopology, acker: TaskId) -> bool {
        let Ok(ctl) = self.ctl() else { return false };
        let mut ok = true;
        for a in &physical.assignments {
            if a.task == acker {
                continue;
            }
            for (host, fm) in rules::unicast_rules(physical, a.task, acker) {
                ok &= ctl.send_flow_mod(host, fm);
            }
            for (host, fm) in rules::unicast_rules(physical, acker, a.task) {
                ok &= ctl.send_flow_mod(host, fm);
            }
        }
        ok & ctl.sync_switches(&ctl.hosts(), Duration::from_secs(5))
    }

    /// Incremental reschedule: preserve every surviving task's placement,
    /// add tasks for grown/ re-logic'd nodes, drop tasks for shrunk nodes.
    fn reschedule(
        &self,
        old_physical: &PhysicalTopology,
        new_logical: &LogicalTopology,
    ) -> Result<PhysicalTopology> {
        let mut physical = old_physical.clone();
        physical.version += 1;
        for node in &new_logical.nodes {
            let existing: Vec<TaskAssignment> = physical
                .assignments
                .iter()
                .filter(|a| a.node == node.name)
                .cloned()
                .collect();
            let logic_changed = existing.iter().any(|a| a.component != node.component);
            let keep: Vec<TaskAssignment> = if logic_changed {
                // §6.2: deploy new-logic workers, kill old ones.
                physical.assignments.retain(|a| a.node != node.name);
                Vec::new()
            } else if existing.len() > node.parallelism {
                // Shrink: retire the highest task IDs.
                let mut sorted = existing.clone();
                sorted.sort_by_key(|a| a.task);
                let keep: Vec<TaskAssignment> = sorted[..node.parallelism].to_vec();
                let keep_ids: Vec<TaskId> = keep.iter().map(|a| a.task).collect();
                physical
                    .assignments
                    .retain(|a| a.node != node.name || keep_ids.contains(&a.task));
                keep
            } else {
                existing
            };
            // Grow to the target parallelism.
            let mut need = node.parallelism.saturating_sub(keep.len());
            while need > 0 {
                let host = self.pick_host(&physical)?;
                let task = physical.alloc_task_id();
                let port = self.agent(host)?.alloc_port().0;
                physical.assignments.push(TaskAssignment {
                    task,
                    node: node.name.clone(),
                    component: node.component.clone(),
                    host,
                    switch_port: port,
                });
                need -= 1;
            }
        }
        Ok(physical)
    }

    /// The host with the most free slots (greedy), skipping dead hosts.
    fn pick_host(&self, physical: &PhysicalTopology) -> Result<HostId> {
        let by_host = physical.by_host();
        self.agents
            .values()
            .filter(|agent| agent.is_alive())
            .map(|agent| {
                let planned = by_host.get(&agent.info().id).map_or(0, Vec::len);
                let used = agent.used_slots().max(planned);
                (agent.info().id, agent.info().slots.saturating_sub(used))
            })
            .max_by_key(|&(_, free)| free)
            .filter(|&(_, free)| free > 0)
            .map(|(h, _)| h)
            .ok_or(CoreError::Timeout("free worker slot"))
    }

    /// Executes one reconfiguration request — the dynamic topology manager
    /// (§3.2 reconfiguration workflow + §3.5 stable update).
    pub fn reconfigure(&self, req: &ReconfigRequest) -> Result<()> {
        let name = &req.topology;
        let old_logical = self.global.get_logical(name)?;
        let old_physical = self.global.get_physical(name)?;
        let app = old_physical.app;
        let acker = old_physical
            .assignments
            .iter()
            .find(|a| a.node == ACKER_NODE)
            .map(|a| a.task);

        let mut new_logical = old_logical.clone();
        req.apply(&mut new_logical)?;
        let mut new_physical = self.reschedule(&old_physical, &new_logical)?;
        // §8 relocations: placement-only moves. The relocated worker gets a
        // fresh task ID on the target host (IDs are never reused); the
        // normal stable-update plan then launches/reroutes/retires it, with
        // SIGNAL flushes for stateful nodes.
        let relocating = req
            .ops
            .iter()
            .any(|op| matches!(op, typhoon_model::ReconfigOp::Relocate { .. }));
        for op in &req.ops {
            if let typhoon_model::ReconfigOp::Relocate { task, target } = op {
                let old = new_physical
                    .assignment(*task)
                    .cloned()
                    .ok_or_else(|| CoreError::UnknownTopology(format!("task {task}")))?;
                new_physical.assignments.retain(|a| a.task != *task);
                let new_task = new_physical.alloc_task_id();
                let port = self.agent(*target)?.alloc_port().0;
                new_physical.assignments.push(TaskAssignment {
                    task: new_task,
                    node: old.node,
                    component: old.component,
                    host: *target,
                    switch_port: port,
                });
                new_physical.version += 1;
            }
        }
        let plan = plan_update(&old_logical, &new_logical, &old_physical, &new_physical);

        // 0. Pause the stream for relocations (pause-and-resume, §8).
        if relocating {
            self.deactivate_spouts(app, &old_logical, &old_physical);
            std::thread::sleep(SIGNAL_WAIT); // LINT: allow-sleep(reconfiguration quiesce wait from the live-migration protocol)
        }
        // 1. Launch the new workers first (Fig. 6(a) step 1) — they are
        //    born with the *new* routing table.
        for assignment in &plan.launches {
            self.launch_assignment(&new_logical, &new_physical, assignment, acker, false)?;
        }
        // 2. Notification + network setup for the new shape.
        self.global.set_logical(&new_logical)?;
        self.global.set_physical(&new_physical)?;
        if !self.ctl()?.install_topology(&new_logical, &new_physical) {
            return Err(CoreError::Timeout("reconfiguration install barrier"));
        }
        if let Some(acker) = acker {
            self.install_ack_rules(&new_physical, acker);
        }
        self.execute_plan(app, &plan)?;
        // Newly launched spout tasks (spout scale-up) need activation.
        self.activate_spouts(app, &new_logical, &new_physical);
        Ok(())
    }

    /// Applies the control-tuple + removal phases of a stable update.
    fn execute_plan(&self, app: AppId, plan: &UpdatePlan) -> Result<()> {
        let ctl = self.ctl()?;
        // 3a. SIGNAL stateful workers so caches flush under old routing.
        for &task in &plan.signals {
            ctl.send_control(app, task, &ControlTuple::Signal);
        }
        if !plan.signals.is_empty() {
            std::thread::sleep(SIGNAL_WAIT); // LINT: allow-sleep(reconfiguration quiesce wait from the live-migration protocol)
        }
        // 3b/3c. Re-route the predecessors via ROUTING control tuples.
        for (task, downstream, hops) in &plan.routing_updates {
            ctl.send_control(
                app,
                *task,
                &ControlTuple::Routing {
                    downstream: downstream.clone(),
                    next_hops: Some(hops.clone()),
                    policy: None,
                },
            );
        }
        for (task, downstream, grouping, keys) in &plan.policy_updates {
            ctl.send_control(
                app,
                *task,
                &ControlTuple::Routing {
                    downstream: downstream.clone(),
                    next_hops: None,
                    policy: Some((grouping.clone(), keys.clone())),
                },
            );
        }
        // 4. Drain, then retire removed workers and their rules.
        if !plan.removals.is_empty() {
            std::thread::sleep(DRAIN_WAIT); // LINT: allow-sleep(drain wait before retiring removed workers)
            for assignment in &plan.removals {
                if let Ok(agent) = self.agent(assignment.host) {
                    agent.kill(app, assignment.task);
                }
                let mac = MacAddr::worker(app.0, assignment.task);
                for host in ctl.hosts() {
                    ctl.send_flow_mod(host, FlowMod::delete(FlowMatch::any().dl_dst(mac)));
                    ctl.send_flow_mod(host, FlowMod::delete(FlowMatch::any().dl_src(mac)));
                }
            }
        }
        Ok(())
    }

    /// Drains and executes every pending reconfiguration request (the
    /// coordinator is the hand-off point from the REST API and the
    /// auto-scaler app). Returns how many were executed.
    pub fn process_pending(&self) -> usize {
        let mut executed = 0;
        let topologies = match self.global.list_topologies() {
            Ok(t) => t,
            Err(_) => return 0,
        };
        for name in topologies {
            if let Ok(requests) = self.global.take_reconfigs(&name) {
                for req in requests {
                    match self.reconfigure(&req) {
                        Ok(()) => executed += 1,
                        Err(e) => {
                            // Failed requests are reported, not retried: the
                            // user resubmits after fixing the cause (e.g.
                            // freeing capacity).
                            eprintln!("typhoon: reconfiguration of {name:?} failed: {e}");
                        }
                    }
                }
            }
        }
        executed
    }

    /// Kills a topology: stop workers, remove rules and global state.
    pub fn kill(&self, name: &str) -> Result<()> {
        let logical = self.global.get_logical(name)?;
        let physical = self.global.get_physical(name)?;
        for assignment in &physical.assignments {
            if let Ok(agent) = self.agent(assignment.host) {
                agent.kill(physical.app, assignment.task);
            }
        }
        self.ctl()?.uninstall_topology(&logical, &physical);
        self.global.remove_topology(name)?;
        Ok(())
    }
}

impl std::fmt::Debug for StreamingManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StreamingManager({} agents)", self.agents.len())
    }
}

/// Phase-by-phase latency breakdown of one completed task recovery
/// (detection is measured by the caller: SDN port-status detection fires
/// in milliseconds, the heartbeat fallback only after the timeout —
/// Fig. 10's comparison).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Topology the recovered task belongs to.
    pub topology: String,
    /// Logical node of the recovered task.
    pub node: String,
    /// The recovered task (the dead task's ID is *reused*: same ID means
    /// same worker MAC, so upstream routing state stays valid and only
    /// the steering flow rules move).
    pub task: TaskId,
    /// The surviving host the task was re-scheduled onto.
    pub host: HostId,
    /// Re-scheduling: pick a surviving slot, bump the physical topology.
    pub reschedule: Duration,
    /// Restart: relaunch the worker and wait for readiness (includes the
    /// checkpoint restore, which runs before the worker signals ready).
    pub restart: Duration,
    /// Checkpoint restore alone, as measured inside the worker.
    pub restore: Duration,
    /// Replay kick-off: un-shrink predecessors + `REPLAY` to the spouts.
    pub replay: Duration,
    /// End-to-end recovery latency (from fault-record consumption).
    pub total: Duration,
}

/// The recovery manager (§4): consumes `/typhoon/faults` records — written
/// in milliseconds by the SDN fault detector, or after a timeout by this
/// manager's own heartbeat fallback — and brings the dead task back:
///
/// 1. **Re-schedule**: reap the dead worker's slot, pick a surviving host
///    with free capacity, re-assign the *same* task ID there.
/// 2. **Network setup**: re-install steering flow rules for the new
///    placement via the controller.
/// 3. **Restart + restore**: relaunch the worker with `restore = true` so
///    it loads its latest checkpoint before signalling ready.
/// 4. **Un-shrink**: predecessors of a stateless dead node had their
///    `nextHops` shrunk by the fault detector; restore the full hop set.
/// 5. **Replay**: tell every spout to fail-and-replay its pending roots
///    now instead of waiting out the ack timeout; the restored dedup
///    ledger drops replays that were already folded into the snapshot.
pub struct RecoveryManager {
    manager: Arc<StreamingManager>,
    registry: Registry,
    heartbeat_timeout: Duration,
    suspects: Mutex<HashMap<(String, TaskId), Instant>>,
    reports: Mutex<Vec<RecoveryReport>>,
}

impl RecoveryManager {
    /// Creates a recovery manager over `manager`'s cluster. The heartbeat
    /// timeout gates the fallback detection path only; SDN port-status
    /// detection (when the fault-detector app is installed) writes fault
    /// records long before it fires.
    pub fn new(manager: Arc<StreamingManager>, heartbeat_timeout: Duration) -> Self {
        RecoveryManager {
            manager,
            registry: Registry::new(),
            heartbeat_timeout,
            suspects: Mutex::with_rank(
                rank::CORE_SUSPECTS,
                "core.manager.suspects",
                HashMap::new(),
            ),
            reports: Mutex::with_rank(rank::CORE_REPORTS, "core.manager.reports", Vec::new()),
        }
    }

    /// Recovery metrics: `recovery.detected`, `recovery.heartbeat_detected`,
    /// `recovery.recovered`, `recovery.failed` and the phase histograms.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Reports of every recovery completed so far.
    pub fn reports(&self) -> Vec<RecoveryReport> {
        self.reports.lock().clone()
    }

    /// One recovery sweep at `now`: run heartbeat fallback detection, then
    /// drain and act on recorded faults. Returns how many tasks were
    /// recovered.
    pub fn poll(&self, now: Instant) -> usize {
        self.heartbeat_scan(now);
        self.drain_faults()
    }

    /// The heartbeat fallback (the Fig. 10 baseline): workers whose
    /// threads died — or whose whole host died — while their bookkeeping
    /// entry is still registered are suspects; a suspect that stays dead
    /// past the heartbeat timeout gets a fault record synthesized exactly
    /// as the SDN fault detector would have written it.
    fn heartbeat_scan(&self, now: Instant) {
        let m = &*self.manager;
        let topologies = match m.global.list_topologies() {
            Ok(t) => t,
            Err(_) => return,
        };
        let dead_by_host: HashMap<HostId, (bool, HashSet<(AppId, TaskId)>)> = m
            .agents
            .iter()
            .map(|(&host, agent)| {
                let dead_set = agent.dead_workers().into_iter().collect();
                (host, (agent.is_alive(), dead_set))
            })
            .collect();
        let mut suspects = self.suspects.lock();
        let mut currently_dead: HashSet<(String, TaskId)> = HashSet::new();
        for name in topologies {
            let physical = match m.global.get_physical(&name) {
                Ok(p) => p,
                Err(_) => continue,
            };
            for a in &physical.assignments {
                let dead = dead_by_host
                    .get(&a.host)
                    .map(|(alive, dead_set)| !alive || dead_set.contains(&(physical.app, a.task)))
                    .unwrap_or(false);
                if !dead {
                    continue;
                }
                let key = (name.clone(), a.task);
                currently_dead.insert(key.clone());
                let first_seen = *suspects.entry(key).or_insert(now);
                if now.duration_since(first_seen) < self.heartbeat_timeout {
                    continue;
                }
                let coord = m.global.coordinator();
                let path = format!("{FAULTS}/{name}/task-{}", a.task.0);
                if !coord.exists(&path) {
                    let _ = coord.ensure_path(&format!("{FAULTS}/{name}"));
                    if coord
                        .create(&path, a.node.clone().into_bytes(), CreateMode::Persistent)
                        .is_ok()
                    {
                        self.registry.counter("recovery.heartbeat_detected").inc();
                    }
                }
            }
        }
        // Forget suspects that came back (recovered or never really dead).
        suspects.retain(|key, _| currently_dead.contains(key));
    }

    /// Consumes every recorded worker fault, recovering each dead task.
    fn drain_faults(&self) -> usize {
        let m = &*self.manager;
        let coord = m.global.coordinator();
        let mut recovered = 0;
        for topo in coord.children(FAULTS).unwrap_or_default() {
            if topo == "tunnels" {
                continue; // link faults are the tunnel manager's problem
            }
            let base = format!("{FAULTS}/{topo}");
            for child in coord.children(&base).unwrap_or_default() {
                let task = match child
                    .strip_prefix("task-")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    Some(id) => TaskId(id),
                    None => continue,
                };
                let path = format!("{base}/{child}");
                match self.recover_task(&topo, task) {
                    Ok(report) => {
                        // Counted where the record is consumed: a fault that
                        // cannot be placed yet is one detection however many
                        // sweeps retry it (those are `recovery.failed`).
                        self.registry.counter("recovery.detected").inc();
                        let _ = coord.delete(&path);
                        if let Some(report) = report {
                            recovered += 1;
                            self.registry.counter("recovery.recovered").inc();
                            let h = |n: &str, d: Duration| {
                                self.registry.histogram(n).record(d.as_millis() as u64)
                            };
                            h("recovery.reschedule_ms", report.reschedule);
                            h("recovery.restart_ms", report.restart);
                            h("recovery.restore_ms", report.restore);
                            h("recovery.replay_ms", report.replay);
                            h("recovery.total_ms", report.total);
                            self.reports.lock().push(report);
                        }
                    }
                    Err(e) => {
                        // Leave the fault record in place: the next sweep
                        // retries (capacity may have freed up meanwhile).
                        self.registry.counter("recovery.failed").inc();
                        eprintln!("typhoon: recovery of {topo:?}/task-{} failed: {e}", task.0);
                    }
                }
            }
        }
        recovered
    }

    /// Recovers one dead task. Returns `Ok(None)` for stale fault records
    /// (the task is no longer assigned — e.g. its topology was killed).
    fn recover_task(&self, topo: &str, task: TaskId) -> Result<Option<RecoveryReport>> {
        let m = &*self.manager;
        let t0 = Instant::now();
        let logical = m.global.get_logical(topo)?;
        let mut physical = m.global.get_physical(topo)?;
        let dead = match physical.assignment(task).cloned() {
            Some(d) => d,
            None => return Ok(None),
        };
        let app = physical.app;
        let acker = physical
            .assignments
            .iter()
            .find(|a| a.node == ACKER_NODE)
            .map(|a| a.task);
        // (1) Re-schedule onto a surviving slot, reusing the task ID.
        if let Ok(agent) = m.agent(dead.host) {
            agent.reap(app, task);
        }
        physical.assignments.retain(|a| a.task != task);
        let target = m.pick_host(&physical)?;
        let port = m.agent(target)?.alloc_port().0;
        let replacement = TaskAssignment {
            task,
            node: dead.node.clone(),
            component: dead.component.clone(),
            host: target,
            switch_port: port,
        };
        physical.assignments.push(replacement.clone());
        physical.version += 1;
        m.global.set_physical(&physical)?;
        let reschedule = t0.elapsed();
        // (2) Network setup: steer the dead task's MAC to its new port.
        // A failed install (the leader died mid-re-steer) propagates as an
        // error, leaving the fault record in place: the next sweep retries
        // against the successor leader, which has already re-synced the
        // previously installed rules from the ledger.
        let ctl = m.ctl()?;
        if !ctl.install_topology(&logical, &physical) {
            return Err(CoreError::Timeout("recovery re-steer barrier"));
        }
        if let Some(acker) = acker {
            if !m.install_ack_rules(&physical, acker) {
                return Err(CoreError::Timeout("recovery ack-rule barrier"));
            }
        }
        // (3) Restart with restore: the worker loads its latest checkpoint
        // during init, before signalling ready.
        let t1 = Instant::now();
        m.launch_assignment(&logical, &physical, &replacement, acker, true)?;
        let restart = t1.elapsed();
        let restore = m
            .agent(target)
            .ok()
            .and_then(|a| a.worker(app, task))
            .map(|shared| {
                let ms = shared.registry.snapshot().gauge("recovery.restore_ms");
                Duration::from_millis(ms.max(0) as u64)
            })
            .unwrap_or_default();
        let t2 = Instant::now();
        let is_spout = logical
            .node(&dead.node)
            .map(|n| n.kind == NodeKind::Spout)
            .unwrap_or(false);
        if is_spout {
            ctl.send_control(app, task, &ControlTuple::Activate);
        }
        // (4) Un-shrink predecessors back to the full hop set. (The fault
        // detector only shrank stateless nodes' predecessors; re-sending
        // the full set is idempotent for the rest.) From here on, failed
        // control sends mean the leader died mid-re-steer: propagate an
        // error so the fault record stays and the successor retries —
        // every step below is idempotent under replay dedup.
        let mut sends_ok = true;
        let hops = physical.tasks_of(&dead.node);
        for pred in logical.predecessors(&dead.node) {
            for pt in physical.tasks_of(pred) {
                sends_ok &= ctl.send_control(
                    app,
                    pt,
                    &ControlTuple::Routing {
                        downstream: dead.node.clone(),
                        next_hops: Some(hops.clone()),
                        policy: None,
                    },
                );
            }
        }
        // (4b) Surviving stateful tasks re-emit their snapshots: emissions
        // they routed toward the dead task were lost with it, and their
        // dedup ledgers (correctly) refuse to re-fold the replays that
        // would have regenerated them. The unanchored snapshot re-emission
        // re-converges latest-wins consumers downstream.
        for node in logical.nodes.iter().filter(|n| n.stateful) {
            for st in physical.tasks_of(&node.name) {
                if st != task {
                    sends_ok &= ctl.send_control(app, st, &ControlTuple::Restate);
                }
            }
        }
        // (5) Replay: fail-and-replay pending roots immediately. Replays
        // already folded into the restored snapshot are deduped by the
        // ledger; the rest re-fold — counts come out exact.
        for node in logical.nodes.iter().filter(|n| n.kind == NodeKind::Spout) {
            for st in physical.tasks_of(&node.name) {
                sends_ok &= ctl.send_control(app, st, &ControlTuple::Replay);
            }
        }
        if !sends_ok {
            return Err(CoreError::Timeout("recovery re-steer control channel"));
        }
        let replay = t2.elapsed();
        Ok(Some(RecoveryReport {
            topology: topo.to_string(),
            node: dead.node,
            task,
            host: target,
            reschedule,
            restart,
            restore,
            replay,
            total: t0.elapsed(),
        }))
    }
}

impl std::fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecoveryManager(timeout {:?})", self.heartbeat_timeout)
    }
}
