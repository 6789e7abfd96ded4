//! Nimbus: topology submission, scheduling, supervision.
//!
//! The baseline's control plane (§2): builds and schedules topologies,
//! launches executors, and detects worker failure **only** through missing
//! heartbeats — after `heartbeat_timeout` a dead worker is restarted from
//! its blueprint. Compare the Typhoon fault detector, which reacts to a
//! switch `PortStatus` event immediately (Fig. 10).

use crate::executor::{self, Component, Route};
use crate::transport::{Directory, Inbox, Outbound};
use crate::{Result, StormError};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::{RateMeter, Registry};
use typhoon_model::{
    AppId, ComponentRegistry, Grouping, LogicalTopology, NodeKind, PhysicalTopology,
    RoundRobinScheduler, RoutingState, Scheduler, TaskId,
};
use typhoon_trace::Tracer;
use typhoon_tuple::ser::SerStats;

/// How executors exchange tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// In-process channels (the paper's LOCAL placement).
    Local,
    /// Real TCP over loopback (the paper's REMOTE placement).
    Tcp,
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Number of (simulated) compute hosts.
    pub hosts: usize,
    /// Worker slots per host.
    pub slots_per_host: usize,
    /// Transport between workers.
    pub mode: TransportMode,
    /// Enable guaranteed processing (spawns one acker per topology).
    pub acking: bool,
    /// Replay timeout for incomplete tuple trees.
    pub ack_timeout: Duration,
    /// Max in-flight spout roots when acking.
    pub max_pending: usize,
    /// Heartbeat staleness before a worker is declared dead. Storm's
    /// default is 30 s; experiments compress it.
    pub heartbeat_timeout: Duration,
    /// How often the monitor sweeps heartbeats.
    pub monitor_interval: Duration,
    /// Restart dead workers (Storm supervisors always do; disable to
    /// observe raw failure).
    pub restart_failed: bool,
    /// Per-node inbox caps modelling bounded worker memory: exceeding the
    /// cap crashes the worker with a simulated `OutOfMemoryError`
    /// (Fig. 11's overload failure).
    pub mem_caps: HashMap<String, usize>,
    /// End-to-end trace sampling: 1 in `trace_sample` spout emissions is
    /// traced across every hop (0 = off, the default).
    pub trace_sample: u32,
}

impl StormConfig {
    /// A local-transport cluster with `hosts` hosts.
    pub fn local(hosts: usize) -> Self {
        StormConfig {
            hosts,
            slots_per_host: 16,
            mode: TransportMode::Local,
            acking: false,
            ack_timeout: Duration::from_secs(30),
            max_pending: 1024,
            heartbeat_timeout: Duration::from_secs(30),
            monitor_interval: Duration::from_millis(100),
            restart_failed: true,
            mem_caps: HashMap::new(),
            trace_sample: 0,
        }
    }

    /// A TCP-transport cluster with `hosts` hosts.
    pub fn tcp(hosts: usize) -> Self {
        StormConfig {
            mode: TransportMode::Tcp,
            ..Self::local(hosts)
        }
    }

    /// Builder: enable acking.
    pub fn with_acking(mut self, timeout: Duration, max_pending: usize) -> Self {
        self.acking = true;
        self.ack_timeout = timeout;
        self.max_pending = max_pending;
        self
    }

    /// Builder: set the heartbeat timeout (fault-detection latency).
    pub fn with_heartbeat_timeout(mut self, t: Duration) -> Self {
        self.heartbeat_timeout = t;
        self
    }

    /// Builder: cap a node's inbox (simulated worker memory bound).
    pub fn with_mem_cap(mut self, node: &str, items: usize) -> Self {
        self.mem_caps.insert(node.to_owned(), items);
        self
    }

    /// Builder: enable end-to-end tuple tracing, sampling 1 in `rate`
    /// spout emissions.
    pub fn with_trace(mut self, rate: u32) -> Self {
        self.trace_sample = rate;
        self
    }
}

struct Blueprint {
    node: String,
    component: String,
    kind: NodeKind,
}

struct TopoInner {
    app: AppId,
    logical: LogicalTopology,
    physical: PhysicalTopology,
    blueprints: HashMap<TaskId, Blueprint>,
    acker_task: Option<TaskId>,
    shutdowns: Mutex<HashMap<TaskId, Arc<AtomicBool>>>,
    meters: Mutex<HashMap<TaskId, RateMeter>>,
    registries: Mutex<HashMap<TaskId, Registry>>,
    input_rates: Mutex<HashMap<TaskId, Arc<Mutex<Option<u32>>>>>,
    mirrors: Mutex<HashMap<TaskId, Arc<Mutex<Option<TaskId>>>>>,
    restarts: Mutex<HashMap<TaskId, u32>>,
    stopped: AtomicBool,
}

/// A running topology.
#[derive(Clone)]
pub struct TopologyHandle {
    cluster: StormCluster,
    inner: Arc<TopoInner>,
}

struct ClusterInner {
    config: StormConfig,
    components: ComponentRegistry,
    directory: Directory,
    ser: Arc<SerStats>,
    heartbeats: Arc<Mutex<HashMap<TaskId, Instant>>>,
    topologies: Mutex<Vec<Arc<TopoInner>>>,
    next_app: Mutex<u16>,
    /// Cluster-global task-ID allocator: topologies share the transport
    /// directory, so task IDs must be unique across applications.
    next_task_base: Mutex<u32>,
    monitor_shutdown: Arc<AtomicBool>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
    tracer: Option<Arc<Tracer>>,
}

/// The Storm-like cluster: Nimbus + supervisors collapsed into one object
/// (they share a process here; the division of labour is preserved in the
/// monitor/spawn split).
#[derive(Clone)]
pub struct StormCluster {
    inner: Arc<ClusterInner>,
}

impl StormCluster {
    /// Boots a cluster with the given component registry.
    pub fn new(config: StormConfig, components: ComponentRegistry) -> Self {
        let tracer = (config.trace_sample > 0).then(|| Tracer::new(config.trace_sample));
        let cluster = StormCluster {
            inner: Arc::new(ClusterInner {
                config,
                components,
                directory: Directory::new(),
                ser: SerStats::shared(),
                heartbeats: Arc::new(Mutex::with_rank(
                    rank::NIMBUS_HEARTBEATS,
                    "storm.nimbus.heartbeats",
                    HashMap::new(),
                )),
                topologies: Mutex::with_rank(rank::NIMBUS, "storm.nimbus.topologies", Vec::new()),
                next_app: Mutex::with_rank(rank::NIMBUS_APP_IDS, "storm.nimbus.next_app", 1),
                next_task_base: Mutex::with_rank(
                    rank::NIMBUS_TASK_IDS,
                    "storm.nimbus.next_task_base",
                    0,
                ),
                monitor_shutdown: Arc::new(AtomicBool::new(false)),
                monitor: Mutex::with_rank(rank::NIMBUS_MONITOR, "storm.nimbus.monitor", None),
                tracer,
            }),
        };
        cluster.start_monitor();
        cluster
    }

    /// Cluster-wide serialization counters (the Fig. 9 evidence).
    pub fn ser_stats(&self) -> &Arc<SerStats> {
        &self.inner.ser
    }

    /// The end-to-end tuple tracer (`None` unless the cluster was built
    /// with [`StormConfig::with_trace`]).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer.as_ref()
    }

    fn make_inbox(&self) -> Result<Inbox> {
        Ok(match self.inner.config.mode {
            TransportMode::Local => Inbox::local(),
            TransportMode::Tcp => Inbox::tcp()?,
        })
    }

    /// Submits a topology: build → schedule (round-robin, Storm's default)
    /// → launch workers → start processing.
    pub fn submit(&self, logical: LogicalTopology) -> Result<TopologyHandle> {
        logical.validate()?;
        let app = {
            let mut next = self.inner.next_app.lock();
            let id = AppId(*next);
            *next += 1;
            id
        };
        let hosts: Vec<typhoon_model::HostInfo> = (0..self.inner.config.hosts)
            .map(|i| {
                typhoon_model::HostInfo::new(
                    i as u32,
                    &format!("h{i}"),
                    self.inner.config.slots_per_host,
                )
            })
            .collect();
        let mut physical = RoundRobinScheduler.schedule(app, &logical, &hosts)?;
        // Rebase task IDs into a cluster-global range (the directory is
        // shared across topologies).
        let base = {
            let mut next = self.inner.next_task_base.lock();
            let b = *next;
            *next = b + physical.assignments.len() as u32 + 1; // +1 for acker
            b
        };
        for a in &mut physical.assignments {
            a.task = TaskId(a.task.0 + base);
        }
        physical.task_watermark += base;

        let mut blueprints = HashMap::new();
        for a in &physical.assignments {
            let node = logical.node(&a.node).expect("scheduled node exists");
            blueprints.insert(
                a.task,
                Blueprint {
                    node: a.node.clone(),
                    component: a.component.clone(),
                    kind: node.kind,
                },
            );
        }
        let acker_task = self.inner.config.acking.then(|| physical.next_task_id());
        if let Some(acker) = acker_task {
            blueprints.insert(
                acker,
                Blueprint {
                    node: "__acker".into(),
                    component: "__acker".into(),
                    kind: NodeKind::Bolt,
                },
            );
        }

        let inner = Arc::new(TopoInner {
            app,
            logical,
            physical,
            blueprints,
            acker_task,
            shutdowns: Mutex::with_rank(
                rank::TOPO_SHUTDOWNS,
                "storm.topo.shutdowns",
                HashMap::new(),
            ),
            meters: Mutex::with_rank(rank::TOPO_METERS, "storm.topo.meters", HashMap::new()),
            registries: Mutex::with_rank(
                rank::TOPO_REGISTRIES,
                "storm.topo.registries",
                HashMap::new(),
            ),
            input_rates: Mutex::with_rank(
                rank::TOPO_INPUT_RATES,
                "storm.topo.input_rates",
                HashMap::new(),
            ),
            mirrors: Mutex::with_rank(rank::TOPO_MIRRORS, "storm.topo.mirrors", HashMap::new()),
            restarts: Mutex::with_rank(rank::TOPO_RESTARTS, "storm.topo.restarts", HashMap::new()),
            stopped: AtomicBool::new(false),
        });
        let handle = TopologyHandle {
            cluster: self.clone(),
            inner: inner.clone(),
        };

        // Create and publish every inbox first so no early emission is
        // lost, then spawn executors.
        let tasks: Vec<TaskId> = inner.blueprints.keys().copied().collect();
        let mut inboxes: HashMap<TaskId, Inbox> = HashMap::new();
        for &task in &tasks {
            let inbox = self.make_inbox()?;
            self.inner.directory.register(task, inbox.addr.clone());
            inboxes.insert(task, inbox);
        }
        for (task, inbox) in inboxes {
            self.spawn_executor(&inner, task, inbox)?;
        }
        self.inner.topologies.lock().push(inner);
        Ok(handle)
    }

    fn spawn_executor(&self, topo: &Arc<TopoInner>, task: TaskId, inbox: Inbox) -> Result<()> {
        let bp = topo
            .blueprints
            .get(&task)
            .ok_or_else(|| StormError::UnknownTopology(format!("task {task}")))?;
        let routes = self.build_routes(topo, &bp.node);
        let shutdown = Arc::new(AtomicBool::new(false));
        let meter = topo
            .meters
            .lock()
            .entry(task)
            .or_insert_with(RateMeter::per_second)
            .clone();
        let registry = topo.registries.lock().entry(task).or_default().clone();
        let mut ctx = executor::make_ctx(
            task,
            &bp.node,
            routes,
            Outbound::new(self.inner.directory.clone()),
            inbox,
            self.inner.ser.clone(),
            self.inner.heartbeats.clone(),
            meter,
            registry,
            topo.acker_task.filter(|&a| a != task),
            self.inner.config.max_pending,
            self.inner.config.ack_timeout,
            shutdown.clone(),
        );
        ctx.input_rate = topo
            .input_rates
            .lock()
            .entry(task)
            .or_insert_with(|| {
                Arc::new(Mutex::with_rank(
                    rank::EXEC_RATE_CELL,
                    "storm.executor.input_rate",
                    None,
                ))
            })
            .clone();
        ctx.mirror_to = topo
            .mirrors
            .lock()
            .entry(task)
            .or_insert_with(|| {
                Arc::new(Mutex::with_rank(
                    rank::EXEC_MIRROR_CELL,
                    "storm.executor.mirror_to",
                    None,
                ))
            })
            .clone();
        ctx.mem_cap_items = self.inner.config.mem_caps.get(&bp.node).copied();
        if let Some(t) = &self.inner.tracer {
            ctx.trace = t.ctx();
        }

        let component = if Some(task) == topo.acker_task {
            Component::Acker
        } else {
            match bp.kind {
                NodeKind::Spout => {
                    Component::Spout(self.inner.components.make_spout(&bp.component)?)
                }
                NodeKind::Bolt => Component::Bolt(self.inner.components.make_bolt(&bp.component)?),
            }
        };
        topo.shutdowns.lock().insert(task, shutdown);
        std::thread::Builder::new()
            .name(format!("storm-{}-{}", bp.node, task))
            .spawn(move || {
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    executor::run(ctx, component);
                }));
            })
            .expect("spawn executor");
        Ok(())
    }

    fn build_routes(&self, topo: &Arc<TopoInner>, node: &str) -> Vec<Route> {
        let mut routes = Vec::new();
        for edge in topo.logical.edges_from(node) {
            let hops = topo.physical.tasks_of(&edge.to);
            let key_indices = match &edge.grouping {
                Grouping::Fields(keys) => topo
                    .logical
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

    fn start_monitor(&self) {
        let cluster = self.clone();
        let shutdown = self.inner.monitor_shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("storm-nimbus-monitor".into())
            .spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    cluster.sweep_heartbeats();
                    std::thread::sleep(cluster.inner.config.monitor_interval); // LINT: allow-sleep(heartbeat monitor tick on a dedicated thread)
                }
            })
            .expect("spawn monitor");
        *self.inner.monitor.lock() = Some(handle);
    }

    fn sweep_heartbeats(&self) {
        let timeout = self.inner.config.heartbeat_timeout;
        let now = Instant::now();
        let dead: Vec<TaskId> = {
            let hb = self.inner.heartbeats.lock();
            hb.iter()
                .filter(|(_, &t)| now.saturating_duration_since(t) > timeout)
                .map(|(&t, _)| t)
                .collect()
        };
        if dead.is_empty() {
            return;
        }
        let topologies: Vec<Arc<TopoInner>> = self.inner.topologies.lock().clone();
        for task in dead {
            self.inner.heartbeats.lock().remove(&task);
            if !self.inner.config.restart_failed {
                continue;
            }
            for topo in &topologies {
                if topo.stopped.load(Ordering::Acquire) || !topo.blueprints.contains_key(&task) {
                    continue;
                }
                // Storm supervisor behaviour: restart the worker in place
                // with a fresh component instance and a fresh inbox.
                *topo.restarts.lock().entry(task).or_insert(0) += 1;
                if let Ok(inbox) = self.make_inbox() {
                    self.inner.directory.register(task, inbox.addr.clone());
                    let _ = self.spawn_executor(topo, task, inbox);
                }
                break;
            }
        }
    }

    /// Stops the monitor and every running topology.
    pub fn shutdown(&self) {
        self.inner.monitor_shutdown.store(true, Ordering::Release);
        if let Some(t) = self.inner.monitor.lock().take() {
            let _ = t.join();
        }
        let topologies: Vec<Arc<TopoInner>> = self.inner.topologies.lock().clone();
        for topo in topologies {
            topo.stopped.store(true, Ordering::Release);
            for (_, flag) in topo.shutdowns.lock().iter() {
                flag.store(true, Ordering::Release);
            }
        }
    }
}

impl TopologyHandle {
    /// The application ID assigned at submission.
    pub fn app(&self) -> AppId {
        self.inner.app
    }

    /// The scheduled physical topology.
    pub fn physical(&self) -> &PhysicalTopology {
        &self.inner.physical
    }

    /// Tasks instantiating `node`.
    pub fn tasks_of(&self, node: &str) -> Vec<TaskId> {
        self.inner.physical.tasks_of(node)
    }

    /// The received/emitted-tuples meter of one task.
    pub fn meter(&self, task: TaskId) -> Option<RateMeter> {
        self.inner.meters.lock().get(&task).cloned()
    }

    /// The metrics registry of one task.
    pub fn registry(&self, task: TaskId) -> Option<Registry> {
        self.inner.registries.lock().get(&task).cloned()
    }

    /// Times each task has been restarted by the monitor.
    pub fn restarts(&self, task: TaskId) -> u32 {
        self.inner.restarts.lock().get(&task).copied().unwrap_or(0)
    }

    /// Caps (or uncaps) a spout task's emission rate.
    pub fn set_input_rate(&self, task: TaskId, rate: Option<u32>) {
        if let Some(cell) = self.inner.input_rates.lock().get(&task) {
            *cell.lock() = rate;
        }
    }

    /// Enables app-level debug mirroring from `src` to `debug` — the
    /// Storm-style live debugger with its extra serialization (Fig. 12).
    pub fn enable_debug(&self, src: TaskId, debug: TaskId) {
        if let Some(cell) = self.inner.mirrors.lock().get(&src) {
            *cell.lock() = Some(debug);
        }
    }

    /// Disables app-level debug mirroring from `src`.
    pub fn disable_debug(&self, src: TaskId) {
        if let Some(cell) = self.inner.mirrors.lock().get(&src) {
            *cell.lock() = None;
        }
    }

    /// Simulates a worker crash: the executor thread exits without
    /// deregistering, exactly like a process kill — detection is left to
    /// the heartbeat monitor.
    pub fn crash_task(&self, task: TaskId) {
        if let Some(flag) = self.inner.shutdowns.lock().get(&task) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Gracefully stops the topology.
    pub fn kill(&self) {
        self.inner.stopped.store(true, Ordering::Release);
        for (task, flag) in self.inner.shutdowns.lock().iter() {
            flag.store(true, Ordering::Release);
            self.cluster.inner.directory.unregister(*task);
            self.cluster.inner.heartbeats.lock().remove(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as SArc;
    use typhoon_model::{Bolt, Emitter, Fields, Spout};
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
        seen: SArc<Mutex<Vec<i64>>>,
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

    fn registry_with_sink(limit: i64) -> (ComponentRegistry, SinkState) {
        let mut reg = ComponentRegistry::new();
        let sink_state = SinkState::default();
        reg.register_spout("numbers", move || NumberSpout { next: 0, limit });
        reg.register_bolt("double", || DoubleBolt);
        let s = sink_state.clone();
        reg.register_bolt("sink", move || SinkBolt { state: s.clone() });
        (reg, sink_state)
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

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn pipeline_processes_all_tuples_local() {
        let (reg, sink) = registry_with_sink(500);
        let cluster = StormCluster::new(StormConfig::local(2), reg);
        let _handle = cluster.submit(pipeline()).unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || sink.seen.lock().len() == 500),
            "saw {} of 500",
            sink.seen.lock().len()
        );
        let mut seen = sink.seen.lock().clone();
        seen.sort_unstable();
        let expected: Vec<i64> = (0..500).map(|n| n * 2).collect();
        assert_eq!(seen, expected, "every tuple doubled exactly once");
        cluster.shutdown();
    }

    #[test]
    fn pipeline_processes_all_tuples_tcp() {
        let (reg, sink) = registry_with_sink(200);
        let cluster = StormCluster::new(StormConfig::tcp(2), reg);
        let _handle = cluster.submit(pipeline()).unwrap();
        assert!(
            wait_until(Duration::from_secs(10), || sink.seen.lock().len() == 200),
            "saw {} of 200",
            sink.seen.lock().len()
        );
        cluster.shutdown();
    }

    #[test]
    fn acking_completes_every_root() {
        let (reg, sink) = registry_with_sink(300);
        let config = StormConfig::local(1).with_acking(Duration::from_secs(10), 64);
        let cluster = StormCluster::new(config, reg);
        let handle = cluster.submit(pipeline()).unwrap();
        let spout_task = handle.tasks_of("src")[0];
        assert!(
            wait_until(Duration::from_secs(15), || {
                handle
                    .registry(spout_task)
                    .map(|r| r.snapshot().counter("acks.completed"))
                    .unwrap_or(0)
                    == 300
            }),
            "completed {} of 300 roots",
            handle
                .registry(spout_task)
                .map(|r| r.snapshot().counter("acks.completed"))
                .unwrap_or(0)
        );
        assert_eq!(sink.seen.lock().len(), 300);
        // Latency histogram populated by the ack path.
        let snap = handle.registry(spout_task).unwrap().snapshot();
        let (count, _, p50, _) = snap.histograms["latency"];
        assert_eq!(count, 300);
        assert!(p50 > 0);
        cluster.shutdown();
    }

    #[test]
    fn heartbeat_monitor_restarts_crashed_worker() {
        let (reg, sink) = registry_with_sink(i64::MAX); // endless spout
        let config = StormConfig {
            heartbeat_timeout: Duration::from_millis(300),
            monitor_interval: Duration::from_millis(50),
            ..StormConfig::local(1)
        };
        let cluster = StormCluster::new(config, reg);
        let handle = cluster.submit(pipeline()).unwrap();
        let victim = handle.tasks_of("mid")[0];
        assert!(wait_until(Duration::from_secs(5), || !sink
            .seen
            .lock()
            .is_empty()));
        handle.crash_task(victim);
        assert!(
            wait_until(Duration::from_secs(10), || handle.restarts(victim) >= 1),
            "monitor never restarted the victim"
        );
        // The pipeline keeps flowing after the restart.
        let before = sink.seen.lock().len();
        assert!(wait_until(Duration::from_secs(10), || sink
            .seen
            .lock()
            .len()
            > before + 100));
        cluster.shutdown();
    }

    #[test]
    fn fields_grouping_keeps_keys_sticky_across_tasks() {
        // With a fields grouping over 3 tasks, every occurrence of a key
        // must land on the same physical task.
        #[derive(Clone, Default)]
        struct KeySink {
            per_key: SArc<Mutex<HashMap<String, Vec<u32>>>>,
        }
        struct KeyBolt {
            id: u32,
            sink: KeySink,
        }
        impl Bolt for KeyBolt {
            fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
                let key = input.get(0).and_then(Value::as_str).unwrap().to_owned();
                self.sink
                    .per_key
                    .lock()
                    .entry(key)
                    .or_default()
                    .push(self.id);
            }
        }
        struct WordSpout {
            i: usize,
        }
        impl Spout for WordSpout {
            fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
                if self.i >= 400 {
                    return false;
                }
                let word = ["apple", "pear", "plum", "fig"][self.i % 4];
                out.emit(vec![Value::Str(word.into())]);
                self.i += 1;
                true
            }
        }
        let sink = KeySink::default();
        let instance_counter = SArc::new(Mutex::new(0u32));
        let mut reg = ComponentRegistry::new();
        reg.register_spout("words", || WordSpout { i: 0 });
        let s2 = sink.clone();
        let c2 = instance_counter.clone();
        reg.register_bolt("keyed", move || {
            let mut c = c2.lock();
            *c += 1;
            KeyBolt {
                id: *c,
                sink: s2.clone(),
            }
        });
        let topo = LogicalTopology::builder("keys")
            .spout("src", "words", 1, Fields::new(["word"]))
            .bolt("count", "keyed", 3, Fields::new(["word"]))
            .edge("src", "count", Grouping::Fields(vec!["word".into()]))
            .build()
            .unwrap();
        let cluster = StormCluster::new(StormConfig::local(1), reg);
        let _h = cluster.submit(topo).unwrap();
        assert!(wait_until(Duration::from_secs(10), || {
            sink.per_key.lock().values().map(Vec::len).sum::<usize>() == 400
        }));
        for (key, tasks) in sink.per_key.lock().iter() {
            let first = tasks[0];
            assert!(
                tasks.iter().all(|&t| t == first),
                "key {key:?} visited multiple tasks: {tasks:?}"
            );
        }
        cluster.shutdown();
    }
}
