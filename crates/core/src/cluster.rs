//! `TyphoonCluster` — the whole system, assembled.
//!
//! Builds the operating environment of Fig. 3: per-host software SDN
//! switches joined by host-level tunnels, the SDN controller with its
//! control channels, the central coordinator, per-host worker agents, and
//! the streaming manager. The submission API mirrors the Storm baseline's
//! so every experiment runs the same application code on both systems.

use crate::agent::WorkerAgent;
use crate::checkpoint::CheckpointStore;
use crate::manager::{ManagerConfig, RecoveryManager, SchedulerKind, StreamingManager};
use crate::worker::{IoConfig, WorkerShared};
use crate::{CoreError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_controller::apps::FAULTS;
use typhoon_controller::{ControlPlane, Controller};
use typhoon_coordinator::global::{GlobalState, RECONFIG, TOPOLOGIES};
use typhoon_coordinator::Coordinator;
use typhoon_diag::{rank, DiagMutex, DiagRwLock as RwLock};
use typhoon_kv::KvStore;
use typhoon_metrics::{MetricSnapshot, Registry};
use typhoon_model::{
    AppId, ComponentRegistry, HostId, HostInfo, LogicalTopology, NodeKind, PhysicalTopology,
    ReconfigRequest, TaskId,
};
use typhoon_net::{
    ChaosHandle, FaultInjector, FaultPlan, InMemoryTunnel, KillClass, KillSpec, Next, Runner,
    Signal, Stop, TcpTunnel, Tunnel,
};
use typhoon_switch::{CacheStats, Switch, SwitchConfig};
use typhoon_trace::Tracer;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct TyphoonConfig {
    /// Number of simulated compute hosts (one switch + one agent each).
    pub hosts: usize,
    /// Worker slots per host.
    pub slots_per_host: usize,
    /// Use real loopback-TCP host tunnels (the paper's REMOTE setting)
    /// instead of in-memory pipes.
    pub remote_tcp: bool,
    /// Worker I/O defaults (batch size etc.).
    pub io: IoConfig,
    /// Guaranteed processing.
    pub acking: bool,
    /// Ack replay timeout.
    pub ack_timeout: Duration,
    /// Max in-flight spout roots when acking.
    pub max_pending: usize,
    /// Controller app tick interval.
    pub controller_tick: Duration,
    /// Controller replicas (≥ 1). With more than one, a leader is elected
    /// through the coordinator and the rest stand by; killing the leader
    /// (chaos `KillSpec::controller`) triggers a failover during which
    /// switches keep forwarding headless on their installed rules.
    pub controller_replicas: usize,
    /// Session timeout for controller replica liveness: a crashed leader's
    /// session is closed, deposing it, this long after the crash (the
    /// failover detection bound).
    pub controller_session_timeout: Duration,
    /// Switch port ring capacity (frames). §8 of the paper recommends
    /// large TX/RX queues to avoid switch-level drops under bursts.
    pub ring_capacity: usize,
    /// Placement strategy (ablation hook: Typhoon ships locality).
    pub scheduler: SchedulerKind,
    /// End-to-end trace sampling: 1 in `trace_sample` spout emissions is
    /// traced across every hop (0 = tracing off, the default — the hot
    /// path then pays a single integer compare per tuple).
    pub trace_sample: u32,
    /// Chaos: wrap every inter-host tunnel in a
    /// [`FaultInjector`] seeded from this plan. Each directed edge gets a
    /// seed derived from `plan.seed` and the host pair, so one cluster
    /// seed reproduces the whole fault sequence. Control it at runtime via
    /// [`TyphoonCluster::chaos_handle`].
    pub chaos: Option<FaultPlan>,
    /// Epoch interval between stateful-bolt checkpoints; `None` disables
    /// checkpointing. Keep it well below `ack_timeout` (checkpointing
    /// bolts withhold acks until the fold is durable).
    pub checkpoint_interval: Option<Duration>,
    /// Heartbeat timeout for the recovery manager's fallback detection;
    /// `None` disables automatic crash recovery entirely. With the
    /// fault-detector app installed, SDN port-status detection writes
    /// fault records in milliseconds and this timeout never gates
    /// recovery (the Fig. 10 comparison).
    pub recovery_heartbeat: Option<Duration>,
}

impl TyphoonConfig {
    /// Sensible defaults for `hosts` hosts with in-memory tunnels.
    pub fn new(hosts: usize) -> Self {
        TyphoonConfig {
            hosts,
            slots_per_host: 16,
            remote_tcp: false,
            io: IoConfig::default(),
            acking: false,
            ack_timeout: Duration::from_secs(30),
            max_pending: 1024,
            controller_tick: Duration::from_millis(100),
            controller_replicas: 1,
            controller_session_timeout: Duration::from_millis(400),
            ring_capacity: 8192,
            scheduler: SchedulerKind::Locality,
            trace_sample: 0,
            chaos: None,
            checkpoint_interval: None,
            recovery_heartbeat: None,
        }
    }

    /// Builder: checkpoint stateful bolts every `interval`.
    pub fn with_checkpoints(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Builder: enable automatic crash recovery with the given heartbeat
    /// timeout for fallback detection.
    pub fn with_recovery(mut self, heartbeat: Duration) -> Self {
        self.recovery_heartbeat = Some(heartbeat);
        self
    }

    /// Builder: inject faults on every inter-host tunnel per `plan`.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Builder: run `n` controller replicas with leader election.
    pub fn with_controller_replicas(mut self, n: usize) -> Self {
        self.controller_replicas = n.max(1);
        self
    }

    /// Builder: real TCP tunnels between hosts.
    pub fn with_tcp_tunnels(mut self) -> Self {
        self.remote_tcp = true;
        self
    }

    /// Builder: set the I/O batch size (the Fig. 8 sweep parameter).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.io.batch_size = n;
        self
    }

    /// Builder: enable guaranteed processing.
    pub fn with_acking(mut self, timeout: Duration, max_pending: usize) -> Self {
        self.acking = true;
        self.ack_timeout = timeout;
        self.max_pending = max_pending;
        self
    }

    /// Builder: enable end-to-end tuple tracing, sampling 1 in `rate`
    /// spout emissions (pass [`Tracer::DEFAULT_SAMPLE`] for the default
    /// 1/1024).
    pub fn with_trace(mut self, rate: u32) -> Self {
        self.trace_sample = rate;
        self
    }
}

/// How often the manager thread runs the heartbeat fallback scan (and
/// retries a failed recovery) when no event wakes it sooner.
const HEARTBEAT_SCAN: Duration = Duration::from_millis(20);

struct HostRuntime {
    switch: Switch,
    agent: Arc<WorkerAgent>,
}

struct ClusterInner {
    ser: Arc<typhoon_tuple::ser::SerStats>,
    global: GlobalState,
    plane: ControlPlane,
    hosts: BTreeMap<HostId, HostRuntime>,
    components: Arc<RwLock<ComponentRegistry>>,
    manager: Arc<StreamingManager>,
    recovery: Option<Arc<RecoveryManager>>,
    /// The cluster's own loops, in start order: one datapath per host, then
    /// the manager, then the chaos killer (if armed). [`ClusterInner::stop`]
    /// takes them.
    runners: DiagMutex<Vec<Runner>>,
    tracer: Option<Arc<Tracer>>,
    /// The `net.tunnel.*` registry of each TCP tunnel endpoint, keyed
    /// `(host, peer)`; empty unless built with
    /// [`TyphoonConfig::with_tcp_tunnels`].
    tunnels: BTreeMap<(HostId, HostId), Registry>,
    /// Per-directed-edge chaos controls, keyed `(from, to)`; empty unless
    /// the cluster was built with [`TyphoonConfig::with_chaos`].
    chaos: BTreeMap<(HostId, HostId), ChaosHandle>,
    /// Cluster-level chaos control (process-kill faults + counters);
    /// `None` unless built with [`TyphoonConfig::with_chaos`].
    cluster_chaos: Option<ChaosHandle>,
}

impl ClusterInner {
    /// Stops every thread the cluster started, in reverse start order: the
    /// chaos killer, the manager, the workers it launched, the control
    /// plane, then each host's datapath. Each is joined before the next
    /// stops. A second call finds nothing left to stop.
    fn stop(&self) {
        let mut loops = std::mem::take(&mut *self.runners.lock());
        let datapaths: Vec<Runner> = loops.drain(..loops.len().min(self.hosts.len())).collect();
        loops.into_iter().rev().for_each(Runner::stop);
        for rt in self.hosts.values() {
            rt.agent.kill_all();
        }
        self.plane.shutdown();
        datapaths.into_iter().rev().for_each(Runner::stop);
    }
}

/// Dropping the last handle is [`TyphoonCluster::shutdown`]: no thread the
/// cluster started outlives it (a TCP tunnel's reader ends with its switch,
/// which the datapath loop no longer holds).
impl Drop for ClusterInner {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A complete, running Typhoon deployment. Cheap to clone; the cluster
/// stops when its last handle is dropped. Its threads hold what they need
/// of it (switches, agents, the manager), never the cluster itself.
#[derive(Clone)]
pub struct TyphoonCluster {
    inner: Arc<ClusterInner>,
}

impl TyphoonCluster {
    /// Boots coordinator, switches, tunnels, controller, agents, manager.
    pub fn new(config: TyphoonConfig, components: ComponentRegistry) -> Result<TyphoonCluster> {
        let coordinator = Coordinator::new();
        let global = GlobalState::new(coordinator);
        // The control plane: N controller replicas sharing one rule
        // ledger; replica 0 wins the first election when the plane starts.
        let plane = ControlPlane::new(
            global.clone(),
            config.controller_replicas,
            config.controller_session_timeout,
        );
        let components = Arc::new(RwLock::with_rank(
            rank::CLUSTER,
            "core.cluster.components",
            components,
        ));
        let ser = typhoon_tuple::ser::SerStats::shared();
        let tracer = (config.trace_sample > 0).then(|| Tracer::new(config.trace_sample));

        // Hosts: one switch each, put under control-plane management. The
        // first (term 0) channel is dropped, so each switch queues its
        // `PortStatus` events headless until the elected leader connects
        // with its term as the fencing token when the plane starts.
        let mut switches = Vec::new();
        for h in 0..config.hosts {
            let mut sw_config = SwitchConfig::new(h as u64);
            sw_config.ring_capacity = config.ring_capacity;
            let (switch, _boot_channel) = Switch::new(sw_config);
            if let Some(t) = &tracer {
                switch.set_trace(t.ctx());
            }
            plane.manage_switch(HostId(h as u32), switch.clone());
            switches.push(switch);
        }
        // Full-mesh host tunnels (Fig. 3's inter-host fabric), optionally
        // wrapped in fault injectors (one per directed edge, each with a
        // seed derived from the cluster seed and the host pair so a single
        // seed reproduces the whole run).
        let mut tunnels = BTreeMap::new();
        let mut chaos_handles = BTreeMap::new();
        for i in 0..config.hosts {
            for j in (i + 1)..config.hosts {
                let (hi, hj) = (HostId(i as u32), HostId(j as u32));
                let (mut a, mut b): (Box<dyn Tunnel + Send>, Box<dyn Tunnel + Send>) =
                    if config.remote_tcp {
                        let (a, b) = TcpTunnel::pair()?;
                        tunnels.insert((hi, hj), a.registry().clone());
                        tunnels.insert((hj, hi), b.registry().clone());
                        (Box::new(a), Box::new(b))
                    } else {
                        let (a, b) = InMemoryTunnel::pair();
                        (Box::new(a), Box::new(b))
                    };
                if let Some(plan) = config.chaos {
                    let edge_plan = |from: usize, to: usize| FaultPlan {
                        seed: plan
                            .seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(((from as u64) << 32) | to as u64),
                        ..plan
                    };
                    let (ia, ha) = FaultInjector::wrap(a, edge_plan(i, j));
                    let (ib, hb) = FaultInjector::wrap(b, edge_plan(j, i));
                    a = Box::new(ia);
                    b = Box::new(ib);
                    chaos_handles.insert((hi, hj), ha);
                    chaos_handles.insert((hj, hi), hb);
                }
                switches[i].add_tunnel(j as u32, a);
                switches[j].add_tunnel(i as u32, b);
            }
        }
        // Agents + datapath threads.
        let mut hosts = BTreeMap::new();
        let mut runners = Vec::new();
        for (h, switch) in switches.into_iter().enumerate() {
            let host = HostId(h as u32);
            let info = HostInfo::new(h as u32, &format!("host{h}"), config.slots_per_host);
            let agent = WorkerAgent::new(
                info,
                switch.clone(),
                components.clone(),
                ser.clone(),
                &global,
                tracer.clone(),
            )?;
            runners.push(switch.spawn());
            hosts.insert(host, HostRuntime { switch, agent });
        }
        let agents: BTreeMap<HostId, Arc<WorkerAgent>> =
            hosts.iter().map(|(&h, rt)| (h, rt.agent.clone())).collect();
        /// Checkpoint epochs retained per task.
        const CHECKPOINT_RETENTION: u64 = 3;
        let checkpoint_store = config.checkpoint_interval.map(|_| {
            Arc::new(CheckpointStore::new(
                Arc::new(KvStore::new()),
                global.coordinator().clone(),
                ser.clone(),
                CHECKPOINT_RETENTION,
            ))
        });
        let manager = Arc::new(StreamingManager::new(
            global.clone(),
            plane.clone(),
            agents.clone(),
            ManagerConfig {
                io: config.io.clone(),
                acking: config.acking,
                ack_timeout: config.ack_timeout,
                max_pending: config.max_pending,
                scheduler: config.scheduler,
                checkpoint_store,
                checkpoint_interval: config
                    .checkpoint_interval
                    .unwrap_or(ManagerConfig::default().checkpoint_interval),
            },
        ));
        let recovery = config
            .recovery_heartbeat
            .map(|hb| Arc::new(RecoveryManager::new(manager.clone(), hb)));
        // Switch threads are running: start the plane (spawns each
        // replica's pump, elects the initial leader, connects + fences
        // every switch at term 1, starts the liveness monitor).
        plane.start(config.controller_tick);

        // The dynamic-topology-manager loop: drain reconfiguration
        // requests submitted via the coordinator (REST API, auto-scaler)
        // and run recovery sweeps. It parks until a write under either
        // starts the next round; only the heartbeat fallback, which watches
        // nothing, needs a deadline.
        let manager_signal = Signal::new();
        let raise = manager_signal.raiser();
        global
            .coordinator()
            .watch(&[FAULTS, RECONFIG], move |_| raise());
        let (manager2, recovery2) = (manager.clone(), recovery.clone());
        let sweep = move |now| {
            manager2.process_pending();
            match &recovery2 {
                Some(recovery) => {
                    recovery.poll(now);
                    Next::At(now + HEARTBEAT_SCAN)
                }
                None => Next::Woken,
            }
        };
        runners.push(Runner::spawn(
            "typhoon-manager",
            Stop::new(),
            manager.registry(),
            move |_now| manager_signal.on_raise(sweep),
        ));

        // Process-kill chaos: a seeded killer loop executes the plan's
        // one-shot kill once a topology has run for the armed delay.
        let cluster_chaos = config.chaos.map(ChaosHandle::standalone);
        if let Some(handle) = cluster_chaos.clone().filter(|h| h.kill_spec().is_some()) {
            let signal = Signal::new();
            let raise = signal.raiser();
            global.coordinator().watch(&[TOPOLOGIES], move |_| raise());
            let (global2, agents2, plane2) = (global.clone(), agents.clone(), plane.clone());
            let registry = handle.registry().clone();
            // The first running topology (sorted by name) and the kill's due
            // instant, counted from the round that saw it.
            let mut armed: Option<(String, Instant)> = None;
            let killer = move |now| {
                let Some(spec) = handle.kill_spec() else {
                    return Next::Done;
                };
                if armed.is_none() {
                    let mut topologies = global2.list_topologies().unwrap_or_default();
                    topologies.sort();
                    armed = topologies.into_iter().next().map(|t| (t, now + spec.after));
                }
                match &armed {
                    None => Next::Woken,
                    Some((_, due)) if now < *due => Next::At(*due),
                    Some((topo, _)) => {
                        chaos_kill(&global2, &agents2, &plane2, &handle, topo, spec);
                        Next::Done
                    }
                }
            };
            runners.push(Runner::spawn(
                "typhoon-chaos-killer",
                Stop::new(),
                &registry,
                move |_now| signal.on_raise(killer),
            ));
        }

        Ok(TyphoonCluster {
            inner: Arc::new(ClusterInner {
                ser,
                global,
                plane,
                hosts,
                components,
                manager,
                recovery,
                runners: DiagMutex::with_rank(
                    rank::CLUSTER_MANAGER,
                    "core.cluster.runners",
                    runners,
                ),
                tracer,
                tunnels,
                chaos: chaos_handles,
                cluster_chaos,
            }),
        })
    }

    /// The end-to-end tuple tracer (`None` unless the cluster was built
    /// with [`TyphoonConfig::with_trace`]).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer.as_ref()
    }

    /// Cluster-wide worker serialization counters (the Fig. 9 evidence).
    pub fn ser_stats(&self) -> &Arc<typhoon_tuple::ser::SerStats> {
        &self.inner.ser
    }

    /// The SDN controller — the *current leader* of the (possibly
    /// replicated) control plane. An app registered on the returned
    /// handle lives on that replica only; in replicated setups use
    /// [`TyphoonCluster::add_control_app`] so the app survives failover.
    ///
    /// # Panics
    /// When no leader emerges within the failover bound (the control
    /// plane is wedged — nothing sensible can proceed).
    pub fn controller(&self) -> Controller {
        self.inner
            .plane
            .wait_leader(Duration::from_secs(5))
            .expect("control-plane leader")
    }

    /// The replicated control plane: HA metrics (`controller.ha.*`),
    /// leader identity, and the chaos `crash_leader` hook.
    pub fn control_plane(&self) -> &ControlPlane {
        &self.inner.plane
    }

    /// Registers a control-plane app on *every* controller replica (one
    /// instance each, built by `factory`), so whichever replica leads
    /// after a failover still runs it.
    pub fn add_control_app(
        &self,
        factory: impl Fn() -> Box<dyn typhoon_controller::ControlPlaneApp>,
    ) {
        self.inner.plane.add_app_factory(factory);
    }

    /// The coordinator-backed global state.
    pub fn global(&self) -> &GlobalState {
        &self.inner.global
    }

    /// The streaming manager (direct reconfiguration calls).
    pub fn manager(&self) -> &StreamingManager {
        &self.inner.manager
    }

    /// A host's switch (experiments inspect rule/mis counters).
    pub fn switch(&self, host: HostId) -> Option<&Switch> {
        self.inner.hosts.get(&host).map(|rt| &rt.switch)
    }

    /// A host's agent.
    pub fn agent(&self, host: HostId) -> Option<&Arc<WorkerAgent>> {
        self.inner.hosts.get(&host).map(|rt| &rt.agent)
    }

    /// Cluster-wide flow-cache counters, summed across every host's
    /// switch — the megaflow fast-path evidence (steady state should
    /// resolve ≥ 90% of frames without touching the flow-table lock).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::from(&MetricSnapshot::total(&self.snapshot(), "switch/"))
    }

    /// One snapshot of every registry in the cluster, keyed by source:
    /// `switch/<host>`, `tunnel/<host>-<peer>` (TCP tunnel endpoints),
    /// `chaos/<from>-<to>`, `chaos/cluster`, `control_plane`,
    /// `controller/<replica>`, `manager`,
    /// `recovery`, `tracer`, `diag` and `worker/<app>/<task>` (see
    /// docs/OBSERVABILITY.md). A source the cluster was not built with is
    /// absent. [`MetricSnapshot::total`] sums one family of sources.
    pub fn snapshot(&self) -> BTreeMap<String, MetricSnapshot> {
        let inner = &self.inner;
        let mut out = BTreeMap::new();
        let mut add = |label: String, registry: &Registry| {
            out.insert(label, registry.snapshot());
        };
        add("control_plane".into(), inner.plane.registry());
        for (i, registry) in inner.plane.replica_registries().iter().enumerate() {
            add(format!("controller/{i}"), registry);
        }
        add("manager".into(), inner.manager.registry());
        add("diag".into(), typhoon_diag::registry());
        if let Some(recovery) = &inner.recovery {
            add("recovery".into(), recovery.registry());
        }
        if let Some(tracer) = &inner.tracer {
            add("tracer".into(), tracer.registry());
        }
        if let Some(handle) = &inner.cluster_chaos {
            add("chaos/cluster".into(), handle.registry());
        }
        for (&(from, to), handle) in &inner.chaos {
            add(format!("chaos/{}-{}", from.0, to.0), handle.registry());
        }
        for (&(host, peer), registry) in &inner.tunnels {
            add(format!("tunnel/{}-{}", host.0, peer.0), registry);
        }
        for (host, rt) in &inner.hosts {
            add(format!("switch/{}", host.0), rt.switch.registry());
            for (app, task, registry) in rt.agent.worker_registries() {
                add(format!("worker/{app}/{task}"), &registry);
            }
        }
        out
    }

    /// The chaos control for the directed tunnel edge `from → to`
    /// (`None` unless built with [`TyphoonConfig::with_chaos`]). The
    /// handle switches fault specs at runtime and exposes `chaos.*`
    /// counters.
    pub fn chaos_handle(&self, from: HostId, to: HostId) -> Option<&ChaosHandle> {
        self.inner.chaos.get(&(from, to))
    }

    /// The cluster-level chaos control: process-kill spec + the
    /// `chaos.killed_*` counters (`None` unless built with
    /// [`TyphoonConfig::with_chaos`]).
    pub fn cluster_chaos(&self) -> Option<&ChaosHandle> {
        self.inner.cluster_chaos.as_ref()
    }

    /// The recovery manager (`None` unless built with
    /// [`TyphoonConfig::with_recovery`]).
    pub fn recovery(&self) -> Option<&Arc<RecoveryManager>> {
        self.inner.recovery.as_ref()
    }

    /// Kills a whole simulated host: every worker on it crashes and the
    /// host is marked dead for placement. Its switch keeps running as SDN
    /// substrate, so port-status detection still fires (Fig. 10); the
    /// recovery manager re-schedules the dead tasks onto surviving hosts.
    pub fn kill_host(&self, host: HostId) {
        if let Some(rt) = self.inner.hosts.get(&host) {
            rt.agent.mark_dead();
            rt.agent.crash_all_detached();
        }
    }

    /// Registers (or replaces) a bolt component at runtime — the
    /// prerequisite for the §6.2 computation-logic swap.
    pub fn register_bolt<F, B>(&self, name: &str, f: F)
    where
        F: Fn() -> B + Send + Sync + 'static,
        B: typhoon_model::Bolt + 'static,
    {
        self.inner.components.write().register_bolt(name, f);
    }

    /// Registers (or replaces) a spout component at runtime.
    pub fn register_spout<F, S>(&self, name: &str, f: F)
    where
        F: Fn() -> S + Send + Sync + 'static,
        S: typhoon_model::Spout + 'static,
    {
        self.inner.components.write().register_spout(name, f);
    }

    /// Submits a topology; returns a handle for experiments.
    pub fn submit(&self, logical: LogicalTopology) -> Result<TyphoonTopologyHandle> {
        let name = logical.name.clone();
        let app = self.inner.manager.submit(logical)?;
        Ok(TyphoonTopologyHandle {
            cluster: self.clone(),
            name,
            app,
        })
    }

    fn find_worker(&self, app: AppId, task: TaskId) -> Option<(HostId, WorkerShared)> {
        for (&host, rt) in &self.inner.hosts {
            if let Some(shared) = rt.agent.worker(app, task) {
                return Some((host, shared));
            }
        }
        None
    }

    /// Stops and joins every thread the cluster started: what dropping
    /// the last handle does, made early. The cluster can still be read
    /// (snapshots, switches) afterwards.
    pub fn shutdown(&self) {
        self.inner.stop();
    }
}

impl std::fmt::Debug for TyphoonCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TyphoonCluster({} hosts)", self.inner.hosts.len())
    }
}

/// The seeded chaos kill, once `topo` has run for the armed delay. The
/// victim derives from the plan seed over a sorted candidate list, so a
/// fixed `CHAOS_SEED` reproduces the exact same kill. Spouts and the acker
/// are never direct victims (killing the source of truth for replay is a
/// different experiment); stateful bolts are preferred — they exercise the
/// checkpoint/restore path, which is what the chaos kill classes exist to
/// stress.
fn chaos_kill(
    global: &GlobalState,
    agents: &BTreeMap<HostId, Arc<WorkerAgent>>,
    plane: &ControlPlane,
    handle: &ChaosHandle,
    topo: &str,
    spec: KillSpec,
) {
    let seed = handle.plan().seed;
    // Controller kills need no worker victim: the target is whichever
    // replica currently leads. The armed delay above still counts from
    // the first running topology, so the kill lands mid-deployment-or-
    // recovery exactly as the seed dictates.
    if spec.class == KillClass::Controller {
        if let Some(name) = plane.crash_leader() {
            eprintln!("typhoon-chaos: killing controller leader {name} (seed {seed:#x})");
            handle.record_kill(KillClass::Controller);
        }
        return;
    }
    let (logical, physical) = match (global.get_logical(topo), global.get_physical(topo)) {
        (Ok(l), Ok(p)) => (l, p),
        _ => return,
    };
    // Candidates: bolt tasks only, stateful ones preferred.
    let mut bolts: Vec<_> = physical
        .assignments
        .iter()
        .filter(|a| {
            logical
                .node(&a.node)
                .map(|n| n.kind == NodeKind::Bolt)
                .unwrap_or(false)
        })
        .collect();
    bolts.sort_by_key(|a| a.task);
    let stateful: Vec<_> = bolts
        .iter()
        .copied()
        .filter(|a| logical.node(&a.node).map(|n| n.stateful).unwrap_or(false))
        .collect();
    let pool = if stateful.is_empty() {
        &bolts
    } else {
        &stateful
    };
    let victim = match pool.get(seed as usize % pool.len().max(1)) {
        Some(v) => (*v).clone(),
        None => return,
    };
    match spec.class {
        KillClass::Worker => {
            if let Some(agent) = agents.get(&victim.host) {
                eprintln!(
                    "typhoon-chaos: killing worker task-{} ({}) on host {} (seed {seed:#x})",
                    victim.task.0, victim.node, victim.host.0
                );
                agent.crash_detached(physical.app, victim.task);
                handle.record_kill(KillClass::Worker);
            }
        }
        KillClass::Host => {
            // Prefer a host holding a candidate but no spout/acker: hosts
            // that keep the source of truth stay up.
            let hosts_spout: std::collections::BTreeSet<HostId> = physical
                .assignments
                .iter()
                .filter(|a| {
                    logical
                        .node(&a.node)
                        .map(|n| n.kind == NodeKind::Spout)
                        .unwrap_or(a.node == crate::ACKER_NODE)
                })
                .map(|a| a.host)
                .collect();
            let mut candidate_hosts: Vec<HostId> = pool
                .iter()
                .map(|a| a.host)
                .filter(|h| !hosts_spout.contains(h))
                .collect();
            candidate_hosts.sort_unstable();
            candidate_hosts.dedup();
            let host = candidate_hosts
                .get(seed as usize % candidate_hosts.len().max(1))
                .copied()
                .unwrap_or(victim.host);
            if let Some(agent) = agents.get(&host) {
                eprintln!("typhoon-chaos: killing host {} (seed {seed:#x})", host.0);
                agent.mark_dead();
                agent.crash_all_detached();
                handle.record_kill(KillClass::Host);
            }
        }
        KillClass::Controller => {
            // Handled above, before victim selection.
        }
    }
}

/// Handle to one running Typhoon topology.
#[derive(Clone)]
pub struct TyphoonTopologyHandle {
    cluster: TyphoonCluster,
    name: String,
    app: AppId,
}

impl TyphoonTopologyHandle {
    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Application ID.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The latest physical topology from the coordinator.
    pub fn physical(&self) -> Result<PhysicalTopology> {
        Ok(self.cluster.inner.global.get_physical(&self.name)?)
    }

    /// Current tasks of one node.
    pub fn tasks_of(&self, node: &str) -> Vec<TaskId> {
        self.physical()
            .map(|p| p.tasks_of(node))
            .unwrap_or_default()
    }

    /// The shared handles (meter, registry) of one worker.
    pub fn worker(&self, task: TaskId) -> Option<WorkerShared> {
        self.cluster.find_worker(self.app, task).map(|(_, w)| w)
    }

    /// Reconfigures the topology synchronously.
    pub fn reconfigure(&self, req: ReconfigRequest) -> Result<()> {
        self.cluster.inner.manager.reconfigure(&req)
    }

    /// Submits a reconfiguration asynchronously through the coordinator
    /// (the REST-API path; the manager loop picks it up).
    pub fn reconfigure_async(&self, req: ReconfigRequest) -> Result<()> {
        Ok(self.cluster.inner.global.submit_reconfig(&req)?)
    }

    /// Crashes one worker abruptly (fault injection for Fig. 10): the
    /// switch discovers the dead port and the fault-detector app reacts.
    pub fn crash_task(&self, task: TaskId) -> Result<()> {
        let (host, _) = self
            .cluster
            .find_worker(self.app, task)
            .ok_or(CoreError::Timeout("worker to crash"))?;
        self.cluster
            .agent(host)
            .ok_or(CoreError::Timeout("agent"))?
            .crash(self.app, task);
        Ok(())
    }

    /// Kills the topology.
    pub fn kill(&self) -> Result<()> {
        self.cluster.inner.manager.kill(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use typhoon_model::{Bolt, Emitter, Fields, Grouping, ReconfigOp, Spout};
    use typhoon_tuple::{Tuple, Value};

    struct NumberSpout {
        next: i64,
        limit: i64,
    }

    impl Spout for NumberSpout {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            if self.next >= self.limit {
                return false;
            }
            out.emit(vec![Value::Int(self.next)]);
            self.next += 1;
            true
        }
    }

    struct DoubleBolt;

    impl Bolt for DoubleBolt {
        fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
            let v = input.get(0).and_then(Value::as_int).unwrap_or(0);
            out.emit(vec![Value::Int(v * 2)]);
        }
    }

    #[derive(Clone, Default)]
    struct SinkState {
        seen: Arc<DiagMutex<Vec<i64>>>,
    }

    struct SinkBolt {
        state: SinkState,
    }

    impl Bolt for SinkBolt {
        fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
            if let Some(v) = input.get(0).and_then(Value::as_int) {
                self.state.seen.lock().push(v);
            }
        }
    }

    fn registry(limit: i64) -> (ComponentRegistry, SinkState) {
        let mut reg = ComponentRegistry::new();
        let sink = SinkState::default();
        reg.register_spout("numbers", move || NumberSpout { next: 0, limit });
        reg.register_bolt("double", || DoubleBolt);
        let s = sink.clone();
        reg.register_bolt("sink", move || SinkBolt { state: s.clone() });
        (reg, sink)
    }

    fn pipeline() -> LogicalTopology {
        LogicalTopology::builder("pipeline")
            .spout("src", "numbers", 1, Fields::new(["n"]))
            .bolt("mid", "double", 2, Fields::new(["n2"]))
            .bolt("out", "sink", 1, Fields::new(["n2"]))
            .edge("src", "mid", Grouping::Shuffle)
            .edge("mid", "out", Grouping::Global)
            .build()
            .unwrap()
    }

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + timeout;
        while Instant::now() < end {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn pipeline_processes_all_tuples_one_host() {
        let (reg, sink) = registry(400);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(10), reg).unwrap();
        let _h = cluster.submit(pipeline()).unwrap();
        assert!(
            wait_until(Duration::from_secs(15), || sink.seen.lock().len() == 400),
            "saw {} of 400",
            sink.seen.lock().len()
        );
        let mut seen = sink.seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..400).map(|n| n * 2).collect::<Vec<_>>());
        cluster.shutdown();
    }

    #[test]
    fn pipeline_spans_hosts_via_tunnels() {
        let (reg, sink) = registry(300);
        // 3 hosts with 2 slots each force cross-host edges even under the
        // locality scheduler.
        let mut config = TyphoonConfig::new(3).with_batch_size(10);
        config.slots_per_host = 2;
        let cluster = TyphoonCluster::new(config, reg).unwrap();
        let _h = cluster.submit(pipeline()).unwrap();
        assert!(
            wait_until(Duration::from_secs(15), || sink.seen.lock().len() == 300),
            "saw {} of 300",
            sink.seen.lock().len()
        );
        cluster.shutdown();
    }

    #[test]
    fn acking_completes_roots_end_to_end() {
        let (reg, sink) = registry(200);
        let cluster = TyphoonCluster::new(
            TyphoonConfig::new(1)
                .with_batch_size(5)
                .with_acking(Duration::from_secs(10), 64),
            reg,
        )
        .unwrap();
        let h = cluster.submit(pipeline()).unwrap();
        let spout = h.tasks_of("src")[0];
        assert!(
            wait_until(Duration::from_secs(20), || {
                h.worker(spout)
                    .map(|w| w.registry.snapshot().counter("acks.completed"))
                    .unwrap_or(0)
                    == 200
            }),
            "completed {:?} of 200",
            h.worker(spout)
                .map(|w| w.registry.snapshot().counter("acks.completed"))
        );
        assert_eq!(sink.seen.lock().len(), 200);
        cluster.shutdown();
    }

    #[test]
    fn scale_up_reconfigures_live_topology() {
        let (reg, sink) = registry(i64::MAX);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(10), reg).unwrap();
        let h = cluster.submit(pipeline()).unwrap();
        assert!(wait_until(Duration::from_secs(10), || !sink
            .seen
            .lock()
            .is_empty()));
        assert_eq!(h.tasks_of("mid").len(), 2);
        h.reconfigure(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 3,
            },
        ))
        .unwrap();
        assert_eq!(h.tasks_of("mid").len(), 3);
        // The new worker actually receives traffic.
        let new_task = *h.tasks_of("mid").last().unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || {
                h.worker(new_task)
                    .map(|w| w.registry.snapshot().counter("tuples.received") > 0)
                    .unwrap_or(false)
            }),
            "scaled-up worker never received tuples"
        );
        cluster.shutdown();
    }

    #[test]
    fn logic_swap_changes_output_at_runtime() {
        let (reg, sink) = registry(i64::MAX);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(10), reg).unwrap();
        let h = cluster.submit(pipeline()).unwrap();
        assert!(wait_until(Duration::from_secs(10), || sink
            .seen
            .lock()
            .len()
            > 100));
        // Register new logic and swap it in: now values are negated, not
        // doubled.
        struct NegateBolt;
        impl Bolt for NegateBolt {
            fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
                let v = input.get(0).and_then(Value::as_int).unwrap_or(0);
                out.emit(vec![Value::Int(-v)]);
            }
        }
        cluster.register_bolt("negate", || NegateBolt);
        h.reconfigure(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SwapLogic {
                node: "mid".into(),
                component: "negate".into(),
            },
        ))
        .unwrap();
        // Negative values start appearing; doubled values stop.
        assert!(
            wait_until(Duration::from_secs(10), || sink
                .seen
                .lock()
                .iter()
                .any(|&v| v < 0)),
            "new logic never took effect"
        );
        cluster.shutdown();
    }

    #[test]
    fn sequential_reconfigs_then_logic_swap() {
        let (reg, sink) = registry(i64::MAX);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
        struct TimesTen;
        impl Bolt for TimesTen {
            fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
                let v = input.get(0).and_then(Value::as_int).unwrap_or(0);
                out.emit(vec![Value::Int(v * 10)]);
            }
        }
        cluster.register_bolt("times-ten", || TimesTen);
        let h = cluster.submit(pipeline()).unwrap();
        assert!(wait_until(Duration::from_secs(10), || !sink
            .seen
            .lock()
            .is_empty()));
        h.reconfigure_async(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 3,
            },
        ))
        .expect("parallelism");
        std::thread::sleep(Duration::from_secs(2));
        h.reconfigure_async(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SetGrouping {
                from: "src".into(),
                to: "mid".into(),
                grouping: Grouping::Fields(vec!["n".into()]),
            },
        ))
        .expect("grouping");
        std::thread::sleep(Duration::from_secs(2));
        h.reconfigure_async(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SwapLogic {
                node: "mid".into(),
                component: "times-ten".into(),
            },
        ))
        .expect("logic swap");
        assert!(
            wait_until(Duration::from_secs(10), || {
                sink.seen
                    .lock()
                    .iter()
                    .rev()
                    .take(50)
                    .any(|&v| v != 0 && v % 10 == 0)
            }),
            "x10 logic never took effect"
        );
        cluster.shutdown();
    }

    #[test]
    fn async_reconfigure_via_coordinator_path() {
        let (reg, sink) = registry(i64::MAX);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(10), reg).unwrap();
        let h = cluster.submit(pipeline()).unwrap();
        assert!(wait_until(Duration::from_secs(10), || !sink
            .seen
            .lock()
            .is_empty()));
        h.reconfigure_async(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 4,
            },
        ))
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || h.tasks_of("mid").len() == 4),
            "manager loop never applied the request"
        );
        cluster.shutdown();
    }

    fn manager_counts(cluster: &TyphoonCluster) -> (u64, u64) {
        let snap = cluster.manager().registry().snapshot();
        (snap.counter("loop.rounds"), snap.counter("loop.rung"))
    }

    /// Without a heartbeat fallback the manager thread has no clock at all:
    /// it sweeps when a request is written, not on a tick, and `shutdown`
    /// ends a wait that would otherwise never end.
    #[test]
    fn manager_thread_sleeps_until_a_request_is_written() {
        let (reg, _sink) = registry(0);
        let cluster = TyphoonCluster::new(TyphoonConfig::new(1), reg).unwrap();
        let h = cluster.submit(pipeline()).unwrap();
        let (sweeps, rung) = manager_counts(&cluster);
        std::thread::sleep(Duration::from_secs(1));
        assert_eq!(manager_counts(&cluster), (sweeps, rung), "an idle second");
        h.reconfigure_async(ReconfigRequest::single(
            "pipeline",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 3,
            },
        ))
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || h.tasks_of("mid").len() == 3),
            "the request never woke the manager thread"
        );
        assert!(manager_counts(&cluster).1 > rung);
        // Joins the manager thread: a park its stop did not end hangs here.
        cluster.shutdown();
    }

    /// With the fallback configured the thread keeps its 50 Hz scan and no
    /// more, and a fault record is consumed by the sweep its write starts.
    #[test]
    fn manager_thread_reacts_to_a_fault_record_and_scans_at_50_hz() {
        let (reg, _sink) = registry(0);
        let config = TyphoonConfig::new(1).with_recovery(Duration::from_secs(30));
        let cluster = TyphoonCluster::new(config, reg).unwrap();
        let _h = cluster.submit(pipeline()).unwrap();
        let (sweeps, rung) = manager_counts(&cluster);
        std::thread::sleep(Duration::from_secs(1));
        let idle = manager_counts(&cluster);
        assert!(
            idle.0 - sweeps <= 60,
            "{} sweeps in a second",
            idle.0 - sweeps
        );
        assert_eq!(idle.1, rung, "nothing was written");
        // A stale record (no such task): consumed and deleted, no recovery.
        let coord = cluster.global().coordinator();
        let record = format!("{FAULTS}/pipeline/task-99");
        coord.ensure_path(&format!("{FAULTS}/pipeline")).unwrap();
        coord
            .create(
                &record,
                b"mid".to_vec(),
                typhoon_coordinator::CreateMode::Persistent,
            )
            .unwrap();
        assert!(wait_until(Duration::from_secs(10), || !coord.exists(&record)));
        assert!(manager_counts(&cluster).1 > rung, "the write ended a wait");
        let detected = cluster.recovery().unwrap().registry().snapshot();
        assert_eq!(detected.counter("recovery.detected"), 1);
        cluster.shutdown();
    }

    /// `recovery.detected` is "fault records consumed": a fault that cannot
    /// be placed stays on record and is retried by every sweep, and those
    /// retries are `recovery.failed`, not new detections.
    #[test]
    fn a_fault_nobody_can_place_is_detected_once_however_often_it_is_retried() {
        let (reg, _sink) = registry(0);
        // Two hosts, one slot each, two tasks: whichever host dies, the
        // survivor is full.
        let mut config = TyphoonConfig::new(2).with_recovery(Duration::from_millis(200));
        config.slots_per_host = 1;
        let cluster = TyphoonCluster::new(config, reg).unwrap();
        let two_tasks = LogicalTopology::builder("pipeline")
            .spout("src", "numbers", 1, Fields::new(["n"]))
            .bolt("out", "sink", 1, Fields::new(["n"]))
            .edge("src", "out", Grouping::Global)
            .build()
            .unwrap();
        let h = cluster.submit(two_tasks).unwrap();
        let physical = cluster.global().get_physical("pipeline").unwrap();
        let victim = physical.assignment(h.tasks_of("out")[0]).unwrap().host;
        cluster.kill_host(victim);
        let counts = || {
            let snap = cluster.recovery().unwrap().registry().snapshot();
            (
                snap.counter("recovery.failed"),
                snap.counter("recovery.detected"),
            )
        };
        assert!(
            wait_until(Duration::from_secs(10), || counts().0 >= 2),
            "the unplaceable fault was never retried: {:?}",
            counts()
        );
        let (failed, detected) = counts();
        assert!(
            detected <= 1,
            "one fault, {failed} failed sweeps, {detected} detections"
        );
        cluster.shutdown();
    }
}
