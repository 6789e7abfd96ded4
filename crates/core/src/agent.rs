//! Per-host worker agents.
//!
//! The agent is the Typhoon counterpart of Storm's supervisor (§2, §3.2
//! step (iv)): it registers its host with the coordinator (ephemeral
//! session), "fetches application binaries" (resolves component factories
//! from the shared registry), launches scheduled workers attached to the
//! host's software SDN switch, and kills them on reconfiguration. It also
//! owns the host's switch-port allocation so that concurrent topologies
//! never collide on ports.

use crate::worker::{self, Role, Route, WorkerConfig, WorkerShared};
use crate::{CoreError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_coordinator::global::GlobalState;
use typhoon_diag::{rank, DiagMutex as Mutex, DiagRwLock as RwLock};
use typhoon_metrics::Registry;
use typhoon_model::{AppId, ComponentRegistry, HostInfo, NodeKind, TaskId};
use typhoon_net::Doorbell;
use typhoon_openflow::PortNo;
use typhoon_switch::Switch;
use typhoon_trace::{TraceCtx, Tracer};
use typhoon_tuple::ser::SerStats;

/// A running worker's bookkeeping.
pub struct WorkerEntry {
    /// Control handles shared with the worker thread.
    pub shared: WorkerShared,
    /// The switch port the worker occupies.
    pub port: PortNo,
    /// The worker loop's bell (its port's `rx.bell()`), rung after setting
    /// a stop flag so a parked worker reacts now, not at its next deadline.
    bell: Doorbell,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerEntry {
    /// Graceful stop: the worker drains its egress, then exits.
    fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.bell.ring();
    }

    /// Abrupt stop: the worker exits at once, dropping its port.
    fn request_crash(&self) {
        self.shared.crash.store(true, Ordering::Release);
        self.bell.ring();
    }
}

/// The per-host worker agent.
pub struct WorkerAgent {
    info: HostInfo,
    switch: Switch,
    components: Arc<RwLock<ComponentRegistry>>,
    ser: Arc<SerStats>,
    workers: Mutex<HashMap<(AppId, TaskId), WorkerEntry>>,
    next_port: AtomicU32,
    tracer: Option<Arc<Tracer>>,
    alive: AtomicBool,
}

impl WorkerAgent {
    /// Creates an agent for `info`'s host, registering it with the
    /// coordinator under an ephemeral session.
    pub fn new(
        info: HostInfo,
        switch: Switch,
        components: Arc<RwLock<ComponentRegistry>>,
        ser: Arc<SerStats>,
        global: &GlobalState,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Arc<WorkerAgent>> {
        let session = global.coordinator().create_session();
        global.register_agent(&info, session)?;
        Ok(Arc::new(WorkerAgent {
            info,
            switch,
            components,
            ser,
            workers: Mutex::with_rank(rank::AGENT_WORKERS, "core.agent.workers", HashMap::new()),
            next_port: AtomicU32::new(1),
            tracer,
            alive: AtomicBool::new(true),
        }))
    }

    /// Whether this agent's host is still alive. A dead host (chaos
    /// host-kill) keeps its switch running as SDN substrate — that is what
    /// lets port-status detection outrun heartbeats (§4, Fig. 10) — but
    /// accepts no new workers and is skipped by placement.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the host dead (see [`WorkerAgent::is_alive`]).
    pub fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// This agent's host description.
    pub fn info(&self) -> &HostInfo {
        &self.info
    }

    /// The host's switch.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Allocates the next free switch port on this host (port 0 is the
    /// tunnel port, per Table 3).
    pub fn alloc_port(&self) -> PortNo {
        PortNo(self.next_port.fetch_add(1, Ordering::Relaxed))
    }

    /// Number of workers currently running.
    pub fn used_slots(&self) -> usize {
        self.workers.lock().len()
    }

    /// Launches a worker: resolve the component, attach to the switch,
    /// spawn the worker thread. The `PortStatus` add event this generates
    /// is the controller's cue that the port is live.
    pub fn launch(
        &self,
        kind: NodeKind,
        is_acker: bool,
        port: PortNo,
        config: WorkerConfig,
        routes: Vec<Route>,
    ) -> Result<WorkerShared> {
        let role = if is_acker {
            Role::Acker
        } else {
            let components = self.components.read();
            match kind {
                NodeKind::Spout => Role::Spout(components.make_spout(&config.component)?),
                NodeKind::Bolt => Role::Bolt(components.make_bolt(&config.component)?),
            }
        };
        if !self.is_alive() {
            return Err(CoreError::Timeout("agent on a live host"));
        }
        let worker_port = self.switch.attach_worker(port);
        let bell = worker_port.rx.bell().clone();
        let shared = WorkerShared::new();
        let shared2 = shared.clone();
        let panic_registry = shared.registry.clone();
        let ser = self.ser.clone();
        let trace = self
            .tracer
            .as_ref()
            .map(|t| t.ctx())
            .unwrap_or_else(TraceCtx::disabled);
        let key = (config.app, config.task);
        // Supervised spawn (TL006): a panicking worker is recorded and
        // counted, then its thread exits — dropping the port so the switch
        // datapath reports the PortStatus delete that drives recovery.
        let thread = typhoon_diag::spawn_supervised(
            &format!("typhoon-{}-{}", config.node, config.task),
            move |_event| {
                panic_registry.counter("recovery.panics").inc();
            },
            move || {
                worker::run_worker(config, role, worker_port, routes, ser, shared2, trace);
            },
        );
        self.workers.lock().insert(
            key,
            WorkerEntry {
                shared: shared.clone(),
                port,
                bell,
                thread: Some(thread),
            },
        );
        Ok(shared)
    }

    /// Waits for a launched worker to signal readiness, parked on its ready
    /// bell until that rings (the worker's `ready.rung`), its thread ends or
    /// `timeout` passes. One thread waits for a worker: the one that launched it.
    pub fn wait_ready(&self, app: AppId, task: TaskId, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let gone = CoreError::WorkerExited(app, task);
        let late = CoreError::Timeout("worker readiness");
        let Some(shared) = self.worker(app, task) else {
            return Err(gone);
        };
        let (bell, rung) = (shared.ready_bell, shared.registry.counter("ready.rung"));
        // (ready, thread ended); a reaped entry counts as ended.
        let state = || {
            let workers = self.workers.lock();
            workers.get(&(app, task)).map_or((false, true), |e| {
                let ended = e.thread.as_ref().is_none_or(|t| t.is_finished());
                (e.shared.ready.load(Ordering::Acquire), ended)
            })
        };
        loop {
            match state() {
                (true, _) => return Ok(()),
                (false, true) => return Err(gone),
                _ if Instant::now() > deadline => return Err(late),
                _ => {}
            }
            rung.add(u64::from(bell.wait(deadline, || state() == (false, false))));
        }
    }

    /// Access to a worker's shared handles.
    pub fn worker(&self, app: AppId, task: TaskId) -> Option<WorkerShared> {
        self.workers
            .lock()
            .get(&(app, task))
            .map(|e| e.shared.clone())
    }

    /// The metrics registry of every live worker on this host.
    pub fn worker_registries(&self) -> Vec<(AppId, TaskId, Registry)> {
        self.workers
            .lock()
            .iter()
            .filter(|(_, e)| e.thread.as_ref().is_some_and(|t| !t.is_finished()))
            .map(|(&(app, task), e)| (app, task, e.shared.registry.clone()))
            .collect()
    }

    /// The switch port of a worker.
    pub fn worker_port(&self, app: AppId, task: TaskId) -> Option<PortNo> {
        self.workers.lock().get(&(app, task)).map(|e| e.port)
    }

    /// Gracefully stops a worker: flag it, join the thread (it flushes
    /// in-flight batches first), then detach the port (a *deliberate*
    /// `PortStatus` delete).
    pub fn kill(&self, app: AppId, task: TaskId) {
        let entry = self.workers.lock().remove(&(app, task));
        if let Some(mut e) = entry {
            e.request_shutdown();
            if let Some(t) = e.thread.take() {
                let _ = t.join();
            }
            self.switch.detach_worker(e.port);
        }
    }

    /// Simulates a worker crash: the thread exits immediately, dropping
    /// its ring endpoints; the switch datapath discovers the dead port and
    /// emits the *unexpected* `PortStatus` delete the fault detector keys
    /// on (§4, Fig. 10).
    pub fn crash(&self, app: AppId, task: TaskId) {
        let entry = self.workers.lock().remove(&(app, task));
        if let Some(mut e) = entry {
            e.request_crash();
            if let Some(t) = e.thread.take() {
                let _ = t.join();
            }
            // No detach_worker: the datapath must discover it.
        }
    }

    /// Crashes a worker *without* removing its bookkeeping entry and
    /// without joining the thread. The dead entry is what heartbeat-based
    /// detection keys on ([`WorkerAgent::dead_workers`]); the switch
    /// datapath independently discovers the dead port. This is the chaos
    /// worker-kill primitive: the killer returns immediately, like a real
    /// `kill -9` would.
    pub fn crash_detached(&self, app: AppId, task: TaskId) {
        let workers = self.workers.lock();
        if let Some(e) = workers.get(&(app, task)) {
            e.request_crash();
        }
    }

    /// Crashes every worker on this host without reaping entries — the
    /// chaos host-kill primitive. Pair with [`WorkerAgent::mark_dead`].
    pub fn crash_all_detached(&self) {
        let workers = self.workers.lock();
        for e in workers.values() {
            e.request_crash();
        }
    }

    /// Workers whose threads have exited while their entry is still
    /// registered. Gracefully killed workers are removed from the map
    /// first, so anything listed here died unexpectedly (panic, crash
    /// flag, fail-fast exit). This is the heartbeat fallback's view of
    /// the world when SDN port-status detection is disabled (Fig. 10
    /// baseline).
    pub fn dead_workers(&self) -> Vec<(AppId, TaskId)> {
        let workers = self.workers.lock();
        workers
            .iter()
            .filter(|(_, e)| e.thread.as_ref().map(|t| t.is_finished()).unwrap_or(true))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Removes a dead worker's entry (joining its finished thread),
    /// freeing the slot for the replacement. No port detach: the datapath
    /// already discovered — or will discover — the dead port.
    pub fn reap(&self, app: AppId, task: TaskId) {
        let entry = self.workers.lock().remove(&(app, task));
        if let Some(mut e) = entry {
            if let Some(t) = e.thread.take() {
                let _ = t.join();
            }
        }
    }

    /// Stops every worker on this host.
    pub fn kill_all(&self) {
        let keys: Vec<(AppId, TaskId)> = self.workers.lock().keys().copied().collect();
        for (app, task) in keys {
            self.kill(app, task);
        }
    }
}

impl std::fmt::Debug for WorkerAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerAgent({}, {} workers)",
            self.info.name,
            self.used_slots()
        )
    }
}
