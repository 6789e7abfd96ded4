//! Deterministic fault injection for tunnels — the chaos layer.
//!
//! The paper's headline robustness claim (Fig. 10: recovery within ~1 s of
//! a worker fault) is only credible if the transport underneath survives
//! *induced* faults, not just the one scripted crash. Karimov et al.
//! (*Benchmarking Distributed Stream Data Processing Systems*) make the
//! same point for throughput: sustainable numbers require measurement
//! under backpressure and failure. [`FaultInjector`] wraps any
//! [`Tunnel`] and perturbs traffic according to a seeded, deterministic
//! [`FaultPlan`]: per-direction drop / delay / duplicate / corrupt-bytes /
//! stall / hard-partition, switchable at runtime through a [`ChaosHandle`]
//! so faults can start and stop mid-run.
//!
//! Injected faults are counted under the `chaos.*` namespace (see
//! docs/OBSERVABILITY.md) and the same seed always produces the same
//! fault sequence for a given call sequence, so failing chaos runs replay
//! deterministically.

use crate::doorbell::{BellSlot, Doorbell};
use crate::frame::Frame;
use crate::tunnel::Tunnel;
use crate::{NetError, Result, TeardownCause};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::{Counter, Registry};

/// One direction's fault configuration. All probabilities are in `0..=1`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's payload bytes are corrupted in flight.
    pub corrupt: f64,
    /// Added per-frame latency (applies to every frame when set).
    pub delay: Option<Duration>,
    /// Hold every frame back (neither delivered nor dropped) until the
    /// spec is switched off — a live-lock style stall.
    pub stall: bool,
    /// Hard partition: every operation fails fast with
    /// [`NetError::Broken`]`(`[`TeardownCause::Partitioned`]`)`.
    pub partition: bool,
}

impl FaultSpec {
    /// No faults.
    pub const CLEAN: FaultSpec = FaultSpec {
        drop: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
        delay: None,
        stall: false,
        partition: false,
    };

    /// Builder: drop frames with probability `p`.
    pub fn dropping(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Builder: duplicate frames with probability `p`.
    pub fn duplicating(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Builder: corrupt frame payloads with probability `p`.
    pub fn corrupting(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Builder: delay every frame by `d`.
    pub fn delaying(mut self, d: Duration) -> Self {
        self.delay = Some(d);
        self
    }

    /// Builder: stall (hold back) every frame.
    pub fn stalled(mut self) -> Self {
        self.stall = true;
        self
    }

    /// Builder: hard-partition the direction.
    pub fn partitioned(mut self) -> Self {
        self.partition = true;
        self
    }
}

/// What a process-level kill fault takes down (§4's crash experiments):
/// one worker thread, or a whole simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillClass {
    /// Kill one worker thread (`kill -9` on a single worker process).
    Worker,
    /// Kill every worker on one host and mark the host dead for
    /// placement. The host's switch stays up as SDN substrate — that is
    /// what lets port-status detection outrun heartbeats (Fig. 10).
    Host,
    /// Kill one controller replica (the leader when one exists). The
    /// data plane must keep forwarding headless on installed rules while
    /// the surviving replicas elect a new leader and re-sync.
    Controller,
}

/// A seeded, one-shot process-kill fault. Unlike the per-frame tunnel
/// faults, kills are executed by the cluster runtime (which owns the
/// agents); the chaos layer carries the spec so one seed reproduces the
/// whole fault sequence, kills included. Victim selection derives from
/// the plan seed, so a fixed `CHAOS_SEED` replays the same kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// What dies.
    pub class: KillClass,
    /// How long after topology submission the kill fires.
    pub after: Duration,
}

impl KillSpec {
    /// Kill one seeded-choice worker `after` the topology starts.
    pub fn worker(after: Duration) -> Self {
        KillSpec {
            class: KillClass::Worker,
            after,
        }
    }

    /// Kill one seeded-choice host `after` the topology starts.
    pub fn host(after: Duration) -> Self {
        KillSpec {
            class: KillClass::Host,
            after,
        }
    }

    /// Kill one controller replica `after` the topology starts (the
    /// leader when one exists; otherwise a seeded choice of replica).
    pub fn controller(after: Duration) -> Self {
        KillSpec {
            class: KillClass::Controller,
            after,
        }
    }
}

/// A seeded, per-direction fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// PRNG seed: identical seeds + identical call sequences reproduce
    /// identical fault sequences.
    pub seed: u64,
    /// Faults applied to outbound frames (`send`).
    pub tx: FaultSpec,
    /// Faults applied to inbound frames (`try_recv`).
    pub rx: FaultSpec,
    /// Optional one-shot process kill (executed by the cluster runtime).
    pub kill: Option<KillSpec>,
}

impl FaultPlan {
    /// A fault-free plan (useful as a baseline that can be switched to a
    /// faulty spec mid-run).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            tx: FaultSpec::CLEAN,
            rx: FaultSpec::CLEAN,
            kill: None,
        }
    }

    /// The same spec in both directions.
    pub fn symmetric(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            tx: spec,
            rx: spec,
            kill: None,
        }
    }

    /// Faults on the send direction only.
    pub fn tx_only(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            tx: spec,
            rx: FaultSpec::CLEAN,
            kill: None,
        }
    }

    /// Faults on the receive direction only.
    pub fn rx_only(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            tx: FaultSpec::CLEAN,
            rx: spec,
            kill: None,
        }
    }

    /// Builder: arm a one-shot process kill.
    pub fn with_kill(mut self, kill: KillSpec) -> Self {
        self.kill = Some(kill);
        self
    }
}

/// A frame held back by a delay or stall. `due == None` means "until the
/// stall is switched off".
struct HeldFrame {
    due: Option<Instant>,
    frame: Frame,
}

struct ChaosState {
    plan: FaultPlan,
    rng: SmallRng,
    tx_held: VecDeque<HeldFrame>,
    rx_held: VecDeque<HeldFrame>,
}

struct ChaosShared {
    state: Mutex<ChaosState>,
    /// The poller's bell: a plan change can release held frames.
    bell: BellSlot,
    /// The `chaos.*` counters: what the injector actually did.
    registry: Registry,
    counters: ChaosCounters,
}

impl ChaosShared {
    fn new(plan: FaultPlan) -> Arc<ChaosShared> {
        let registry = Registry::new();
        Arc::new(ChaosShared {
            state: Mutex::with_rank(
                rank::CHAOS_STATE,
                "net.fault.state",
                ChaosState {
                    rng: SmallRng::seed_from_u64(plan.seed),
                    plan,
                    tx_held: VecDeque::new(),
                    rx_held: VecDeque::new(),
                },
            ),
            bell: BellSlot::default(),
            counters: ChaosCounters::resolve(&registry),
            registry,
        })
    }
}

/// The `chaos.*` counters, resolved once from the injector's registry.
struct ChaosCounters {
    forwarded: Counter,
    dropped: Counter,
    duplicated: Counter,
    corrupted: Counter,
    delayed: Counter,
    stalled: Counter,
    partitioned: Counter,
    killed_workers: Counter,
    killed_hosts: Counter,
    killed_controllers: Counter,
}

impl ChaosCounters {
    fn resolve(registry: &Registry) -> Self {
        ChaosCounters {
            forwarded: registry.counter("chaos.forwarded"),
            dropped: registry.counter("chaos.dropped"),
            duplicated: registry.counter("chaos.duplicated"),
            corrupted: registry.counter("chaos.corrupted"),
            delayed: registry.counter("chaos.delayed"),
            stalled: registry.counter("chaos.stalled"),
            partitioned: registry.counter("chaos.partitioned"),
            killed_workers: registry.counter("chaos.killed_workers"),
            killed_hosts: registry.counter("chaos.killed_hosts"),
            killed_controllers: registry.counter("chaos.killed_controllers"),
        }
    }
}

/// Runtime control over a [`FaultInjector`]: switch the plan, heal the
/// link, read the injected-fault counters. Cheap to clone.
#[derive(Clone)]
pub struct ChaosHandle {
    shared: Arc<ChaosShared>,
}

impl ChaosHandle {
    /// A handle not backed by any tunnel injector: the cluster runtime
    /// uses one as its process-kill control and `chaos.killed_*` counter
    /// surface, so kill faults are driven through the same `ChaosHandle`
    /// API as link faults.
    pub fn standalone(plan: FaultPlan) -> ChaosHandle {
        ChaosHandle {
            shared: ChaosShared::new(plan),
        }
    }

    /// The current plan.
    pub fn plan(&self) -> FaultPlan {
        self.shared.state.lock().plan
    }

    /// The armed process-kill spec, if any.
    pub fn kill_spec(&self) -> Option<KillSpec> {
        self.shared.state.lock().plan.kill
    }

    /// Arms (or disarms, with `None`) the process-kill spec.
    pub fn set_kill(&self, kill: Option<KillSpec>) {
        self.shared.state.lock().plan.kill = kill;
    }

    /// Replaces the whole plan (reseeding the PRNG from `plan.seed`).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.update(|st| {
            st.rng = SmallRng::seed_from_u64(plan.seed);
            st.plan = plan;
        });
    }

    /// Replaces the outbound spec only (seed and PRNG state are kept, so
    /// mid-run switches stay deterministic).
    pub fn set_tx(&self, spec: FaultSpec) {
        self.update(|st| st.plan.tx = spec);
    }

    /// Replaces the inbound spec only.
    pub fn set_rx(&self, spec: FaultSpec) {
        self.update(|st| st.plan.rx = spec);
    }

    /// Clears both directions to [`FaultSpec::CLEAN`]; stalled frames are
    /// released by the poll this rings.
    pub fn heal(&self) {
        self.update(|st| {
            st.plan.tx = FaultSpec::CLEAN;
            st.plan.rx = FaultSpec::CLEAN;
        });
    }

    /// Changes the link's faults, then rings the poller: a stall switched
    /// off releases its frames now.
    fn update(&self, change: impl FnOnce(&mut ChaosState)) {
        change(&mut self.shared.state.lock());
        self.shared.bell.ring();
    }

    /// The injector's `chaos.*` counters.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Records a kill the cluster runtime executed under the matching
    /// `chaos.killed_*` counter.
    pub fn record_kill(&self, class: KillClass) {
        let c = &self.shared.counters;
        match class {
            KillClass::Worker => &c.killed_workers,
            KillClass::Host => &c.killed_hosts,
            KillClass::Controller => &c.killed_controllers,
        }
        .inc();
    }
}

impl std::fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChaosHandle({:?})", self.plan())
    }
}

/// A [`Tunnel`] wrapper that injects faults per its [`FaultPlan`].
///
/// Delayed and stalled frames are released by later `send`/`try_recv`
/// calls: an idle poller wakes for them at [`Tunnel::next_due`] (a delay)
/// or at the ring of the [`ChaosHandle`] change that ends a stall.
pub struct FaultInjector {
    inner: Box<dyn Tunnel + Send>,
    shared: Arc<ChaosShared>,
}

impl FaultInjector {
    /// Wraps `inner`, returning the injector and its control handle.
    pub fn wrap(inner: Box<dyn Tunnel + Send>, plan: FaultPlan) -> (FaultInjector, ChaosHandle) {
        let shared = ChaosShared::new(plan);
        let handle = ChaosHandle {
            shared: shared.clone(),
        };
        (FaultInjector { inner, shared }, handle)
    }

    /// A control handle for this injector.
    pub fn handle(&self) -> ChaosHandle {
        ChaosHandle {
            shared: self.shared.clone(),
        }
    }

    fn counters(&self) -> &ChaosCounters {
        &self.shared.counters
    }

    /// Flips two payload bytes — enough to break tuple deserialization
    /// downstream without touching the frame header (the switch still
    /// routes it, like real in-flight corruption below the checksum).
    fn corrupt_frame(frame: &Frame) -> Frame {
        let mut corrupted = frame.clone();
        let mut payload = corrupted.payload.to_vec();
        if payload.is_empty() {
            payload.push(0xa5);
        } else {
            let mid = payload.len() / 2;
            payload[0] ^= 0xa5;
            payload[mid] ^= 0x5a;
        }
        corrupted.payload = bytes::Bytes::from(payload);
        corrupted
    }

    /// Releases outbound frames whose hold expired. Caller must NOT hold
    /// the state lock.
    fn flush_tx_held(&self) -> Result<()> {
        while let Some(frame) = self.pop_released(true) {
            self.inner.send(&frame)?;
            self.counters().forwarded.inc();
        }
        Ok(())
    }

    /// Pops the front held frame of one direction if its hold expired
    /// (delay elapsed, or the stall was switched off).
    fn pop_released(&self, outbound: bool) -> Option<Frame> {
        let mut st = self.shared.state.lock();
        let st = &mut *st;
        let (held, spec) = match outbound {
            true => (&mut st.tx_held, st.plan.tx),
            false => (&mut st.rx_held, st.plan.rx),
        };
        let released = held
            .front()?
            .due
            .map_or(!spec.stall, |due| due <= Instant::now());
        released.then(|| held.pop_front())?.map(|h| h.frame)
    }
}

impl Tunnel for FaultInjector {
    /// Arrivals and teardown of the wrapped tunnel ring, and so does every
    /// [`ChaosHandle`] change; frames held back by a delay fall due at
    /// [`Tunnel::next_due`].
    fn set_doorbell(&self, bell: Doorbell) {
        self.inner.set_doorbell(bell.clone());
        self.shared.bell.set(bell);
    }

    /// Each held queue releases from its front, so the earlier of the two
    /// fronts' deadlines; a stalled front has none.
    fn next_due(&self) -> Option<Instant> {
        let st = self.shared.state.lock();
        [&st.tx_held, &st.rx_held]
            .into_iter()
            .filter_map(|held| held.front()?.due)
            .min()
    }

    fn send(&self, frame: &Frame) -> Result<()> {
        let (spec, drop, dup, corrupt) = {
            let mut st = self.shared.state.lock();
            let spec = st.plan.tx;
            let drop = spec.drop > 0.0 && st.rng.gen_bool(spec.drop);
            let dup = spec.duplicate > 0.0 && st.rng.gen_bool(spec.duplicate);
            let corrupt = spec.corrupt > 0.0 && st.rng.gen_bool(spec.corrupt);
            (spec, drop, dup, corrupt)
        };
        if spec.partition {
            self.counters().partitioned.inc();
            return Err(NetError::Broken(TeardownCause::Partitioned));
        }
        self.flush_tx_held()?;
        if drop {
            self.counters().dropped.inc();
            return Ok(());
        }
        let frame = if corrupt {
            self.counters().corrupted.inc();
            Self::corrupt_frame(frame)
        } else {
            frame.clone()
        };
        if spec.stall {
            self.counters().stalled.inc();
            self.shared
                .state
                .lock()
                .tx_held
                .push_back(HeldFrame { due: None, frame });
            return Ok(());
        }
        if let Some(d) = spec.delay {
            self.counters().delayed.inc();
            self.shared.state.lock().tx_held.push_back(HeldFrame {
                due: Some(Instant::now() + d),
                frame,
            });
            return Ok(());
        }
        self.inner.send(&frame)?;
        self.counters().forwarded.inc();
        if dup {
            self.inner.send(&frame)?;
            self.counters().duplicated.inc();
        }
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        let rx_spec = {
            let st = self.shared.state.lock();
            st.plan.rx
        };
        if rx_spec.partition {
            self.counters().partitioned.inc();
            return Err(NetError::Broken(TeardownCause::Partitioned));
        }
        // Keep the outbound side moving even when the local worker only
        // polls: release due delayed/stalled TX frames opportunistically.
        self.flush_tx_held()?;
        if let Some(frame) = self.pop_released(false) {
            return Ok(Some(frame));
        }
        loop {
            let frame = match self.inner.try_recv()? {
                Some(f) => f,
                None => return Ok(None),
            };
            let (drop, dup, corrupt) = {
                let mut st = self.shared.state.lock();
                let spec = st.plan.rx;
                (
                    spec.drop > 0.0 && st.rng.gen_bool(spec.drop),
                    spec.duplicate > 0.0 && st.rng.gen_bool(spec.duplicate),
                    spec.corrupt > 0.0 && st.rng.gen_bool(spec.corrupt),
                )
            };
            if drop {
                self.counters().dropped.inc();
                continue;
            }
            let frame = if corrupt {
                self.counters().corrupted.inc();
                Self::corrupt_frame(&frame)
            } else {
                frame
            };
            if rx_spec.stall {
                self.counters().stalled.inc();
                self.shared
                    .state
                    .lock()
                    .rx_held
                    .push_back(HeldFrame { due: None, frame });
                continue;
            }
            if let Some(d) = rx_spec.delay {
                self.counters().delayed.inc();
                self.shared.state.lock().rx_held.push_back(HeldFrame {
                    due: Some(Instant::now() + d),
                    frame,
                });
                continue;
            }
            if dup {
                self.shared.state.lock().rx_held.push_back(HeldFrame {
                    due: Some(Instant::now()),
                    frame: frame.clone(),
                });
                self.counters().duplicated.inc();
            }
            self.counters().forwarded.inc();
            return Ok(Some(frame));
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        write!(
            f,
            "FaultInjector(plan={:?}, tx_held={}, rx_held={})",
            st.plan,
            st.tx_held.len(),
            st.rx_held.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MacAddr;
    use crate::tunnel::InMemoryTunnel;
    use bytes::Bytes;
    use typhoon_tuple::tuple::TaskId;

    fn frame(n: u8) -> Frame {
        Frame::typhoon(
            MacAddr::worker(1, TaskId(n as u32)),
            MacAddr::worker(1, TaskId(100)),
            Bytes::from(vec![n; 16]),
        )
    }

    fn wrapped(plan: FaultPlan) -> (FaultInjector, ChaosHandle, InMemoryTunnel) {
        let (a, b) = InMemoryTunnel::pair();
        let (inj, handle) = FaultInjector::wrap(Box::new(a), plan);
        (inj, handle, b)
    }

    fn count(handle: &ChaosHandle, name: &str) -> u64 {
        handle.registry().snapshot().counter(name)
    }

    fn drain(t: &dyn Tunnel) -> Vec<Frame> {
        let mut out = Vec::new();
        while let Ok(Some(f)) = t.try_recv() {
            out.push(f);
        }
        out
    }

    #[test]
    fn clean_plan_is_transparent() {
        let (inj, handle, peer) = wrapped(FaultPlan::clean(1));
        for i in 0..10 {
            inj.send(&frame(i)).unwrap();
        }
        assert_eq!(drain(&peer).len(), 10);
        assert_eq!(count(&handle, "chaos.forwarded"), 10);
        assert_eq!(count(&handle, "chaos.dropped"), 0);
    }

    #[test]
    fn drop_ratio_is_deterministic_for_a_seed() {
        let survivors = |seed: u64| {
            let (inj, _h, peer) = wrapped(FaultPlan::tx_only(seed, FaultSpec::CLEAN.dropping(0.5)));
            for i in 0..100 {
                inj.send(&frame(i)).unwrap();
            }
            drain(&peer)
                .iter()
                .map(|f| f.payload[0])
                .collect::<Vec<_>>()
        };
        let a = survivors(7);
        let b = survivors(7);
        assert_eq!(a, b, "same seed, same drop pattern");
        assert!(a.len() < 100 && !a.is_empty(), "some but not all dropped");
        assert_ne!(a, survivors(8), "different seed, different pattern");
    }

    #[test]
    fn duplicate_delivers_extra_copies() {
        let (inj, h, peer) = wrapped(FaultPlan::tx_only(3, FaultSpec::CLEAN.duplicating(1.0)));
        for i in 0..5 {
            inj.send(&frame(i)).unwrap();
        }
        assert_eq!(drain(&peer).len(), 10);
        assert_eq!(count(&h, "chaos.duplicated"), 5);
    }

    #[test]
    fn corrupt_mangles_payload_but_not_headers() {
        let (inj, h, peer) = wrapped(FaultPlan::tx_only(3, FaultSpec::CLEAN.corrupting(1.0)));
        let original = frame(9);
        inj.send(&original).unwrap();
        let got = drain(&peer).pop().expect("delivered");
        assert_eq!(got.src, original.src);
        assert_eq!(got.dst, original.dst);
        assert_ne!(got.payload, original.payload);
        assert_eq!(count(&h, "chaos.corrupted"), 1);
    }

    #[test]
    fn delay_holds_then_releases_frames() {
        let (inj, _h, peer) = wrapped(FaultPlan::tx_only(
            3,
            FaultSpec::CLEAN.delaying(Duration::from_millis(30)),
        ));
        inj.send(&frame(1)).unwrap();
        assert!(drain(&peer).is_empty(), "withheld during the delay");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            // Release happens lazily on the next tunnel operation.
            let _ = inj.try_recv();
            if !drain(&peer).is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "delayed frame never released");
            std::thread::yield_now();
        }
    }

    #[test]
    fn stall_holds_until_healed_losing_nothing() {
        let (inj, handle, peer) = wrapped(FaultPlan::tx_only(3, FaultSpec::CLEAN.stalled()));
        for i in 0..20 {
            inj.send(&frame(i)).unwrap();
        }
        assert!(drain(&peer).is_empty(), "stall holds everything");
        assert_eq!(count(&handle, "chaos.stalled"), 20);
        handle.heal();
        let _ = inj.try_recv(); // release hook
        let released = drain(&peer);
        assert_eq!(released.len(), 20, "heal releases all held frames");
        let order: Vec<u8> = released.iter().map(|f| f.payload[0]).collect();
        assert_eq!(order, (0..20).collect::<Vec<u8>>(), "FIFO preserved");
    }

    #[test]
    fn a_held_frame_is_due_at_its_release_and_a_plan_change_rings() {
        let delay = Duration::from_millis(30);
        let (inj, handle, peer) =
            wrapped(FaultPlan::symmetric(3, FaultSpec::CLEAN.delaying(delay)));
        assert_eq!(inj.next_due(), None, "nothing held");
        let t = Instant::now();
        inj.send(&frame(1)).unwrap();
        let tx_due = inj.next_due().expect("a delayed send");
        assert!(tx_due >= t + delay);
        // An inbound frame held later falls due later: the earlier front wins.
        peer.send(&frame(2)).unwrap();
        assert!(inj.try_recv().unwrap().is_none());
        assert_eq!(inj.next_due(), Some(tx_due));
        // Every plan change rings the poller: one may lift a stall, whose
        // frames have no deadline.
        let bell = Doorbell::new();
        inj.set_doorbell(bell.clone());
        let registered = bell.rings();
        handle.set_plan(FaultPlan::tx_only(3, FaultSpec::CLEAN.stalled()));
        handle.set_tx(FaultSpec::CLEAN.stalled());
        handle.set_rx(FaultSpec::CLEAN);
        handle.heal();
        assert_eq!(bell.rings(), registered + 4, "one ring per change");
    }

    #[test]
    fn partition_fails_fast_with_typed_error_both_directions() {
        let (inj, handle, peer) = wrapped(FaultPlan::symmetric(3, FaultSpec::CLEAN.partitioned()));
        assert_eq!(
            inj.send(&frame(0)).unwrap_err(),
            NetError::Broken(TeardownCause::Partitioned)
        );
        peer.send(&frame(1)).unwrap();
        assert_eq!(
            inj.try_recv().unwrap_err(),
            NetError::Broken(TeardownCause::Partitioned)
        );
        assert!(count(&handle, "chaos.partitioned") >= 2);
        // Heal: the link works again (the frame sent during the partition
        // by the peer is still buffered in the underlying tunnel).
        handle.heal();
        inj.send(&frame(2)).unwrap();
        assert_eq!(drain(&peer).pop().unwrap().payload[0], 2);
        assert_eq!(inj.try_recv().unwrap().unwrap().payload[0], 1);
    }

    #[test]
    fn rx_faults_apply_to_inbound_frames() {
        let (inj, h, peer) = wrapped(FaultPlan::rx_only(11, FaultSpec::CLEAN.dropping(1.0)));
        for i in 0..5 {
            peer.send(&frame(i)).unwrap();
        }
        assert!(inj.try_recv().unwrap().is_none(), "all inbound dropped");
        assert_eq!(count(&h, "chaos.dropped"), 5);
    }

    #[test]
    fn plan_switch_mid_run_takes_effect() {
        let (inj, handle, peer) = wrapped(FaultPlan::clean(5));
        inj.send(&frame(0)).unwrap();
        handle.set_tx(FaultSpec::CLEAN.dropping(1.0));
        inj.send(&frame(1)).unwrap();
        handle.set_tx(FaultSpec::CLEAN);
        inj.send(&frame(2)).unwrap();
        let got: Vec<u8> = drain(&peer).iter().map(|f| f.payload[0]).collect();
        assert_eq!(got, vec![0, 2], "only the frame sent under drop=1 lost");
    }

    #[test]
    fn kill_spec_rides_the_plan_and_counts_executions() {
        let plan = FaultPlan::clean(9).with_kill(KillSpec::worker(Duration::from_millis(250)));
        let handle = ChaosHandle::standalone(plan);
        assert_eq!(
            handle.kill_spec(),
            Some(KillSpec {
                class: KillClass::Worker,
                after: Duration::from_millis(250),
            })
        );
        handle.record_kill(KillClass::Worker);
        handle.record_kill(KillClass::Host);
        assert_eq!(count(&handle, "chaos.killed_workers"), 1);
        assert_eq!(count(&handle, "chaos.killed_hosts"), 1);
        handle.set_kill(None);
        assert_eq!(handle.kill_spec(), None, "disarmed");
        // A kill spec never perturbs the per-frame fault path.
        let (inj, _h, peer) = wrapped(plan);
        inj.send(&frame(1)).unwrap();
        assert_eq!(drain(&peer).len(), 1);
    }

    #[test]
    fn disconnect_propagates_through_the_injector() {
        let (inj, _h, peer) = wrapped(FaultPlan::clean(5));
        drop(peer);
        assert_eq!(inj.send(&frame(0)).unwrap_err(), NetError::Disconnected);
        assert_eq!(inj.try_recv().unwrap_err(), NetError::Disconnected);
    }
}
