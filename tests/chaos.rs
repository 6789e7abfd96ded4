//! Chaos suite: the Fig. 2 word-count shape on 2 hosts, with every
//! inter-host tunnel wrapped in a seeded [`FaultInjector`], one fault
//! class per test: drop, delay, duplicate, corrupt-bytes, stall and
//! hard-partition.
//!
//! Contract under test (the Fig. 10 robustness claim, generalized): for
//! the recoverable classes the topology must *fully* recover — every
//! spout root acked complete, every sequence delivered at least once
//! (at-least-once semantics: replays may duplicate, never lose) — and for
//! a hard partition the failure must surface as a *typed* signal (tunnel
//! teardown + `PortStatus` delete + a coordinator fault record) within
//! the heartbeat timeout. Nothing may hang: every wait is
//! deadline-bounded.
//!
//! All randomness derives from one seed so a failing run replays exactly:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --test chaos
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};
use typhoon::controller::apps::{FaultDetector, TUNNEL_FAULTS};
use typhoon::core::SchedulerKind;
use typhoon::metrics::MetricSnapshot;
use typhoon::net::{FaultPlan, FaultSpec, KillSpec};
use typhoon::prelude::*;
use typhoon_bench::workloads::{
    expected_word_counts, recovery_word_count_topology, register_replay_spout, register_standard,
    SinkCounter,
};
use typhoon_model::{ComponentRegistry, Fields, HostId};

/// Heartbeat timeout bound (matches `exp_fig10`): a fault must surface as
/// a typed signal well within this.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

/// Spout roots per run. Small enough to keep the suite quick, large
/// enough that per-frame fault probabilities bite hundreds of times.
const ROOTS: i64 = 120;

fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xc4a0_5eed);
    // Captured output is shown on failure: this is the replay handle.
    println!("CHAOS_SEED={seed}");
    seed
}

/// The Fig. 2 word-count shape — 1 source, 2 shuffle-grouped middle
/// workers, field-grouped sinks — built from components whose delivery is
/// exactly checkable: the source is the replaying `SeqSpout` (fails →
/// replays, the at-least-once contract), the sinks count every sequence.
fn word_count_shape() -> LogicalTopology {
    LogicalTopology::builder("chaos-word-count")
        .spout("input", "seq-spout", 1, Fields::new(["seq", "payload"]))
        .bolt("split", "relay", 2, Fields::new(["seq", "payload"]))
        .bolt("count", "seq-sink", 2, Fields::new(["seq"]))
        .edge("input", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["seq".into()]))
        .build()
        .expect("valid topology")
}

struct ChaosRun {
    cluster: TyphoonCluster,
    handle: TyphoonTopologyHandle,
    sink: SinkCounter,
}

/// Boots a 2-host acking cluster with `plan` on every tunnel edge and
/// submits the word-count shape. Few slots per host force cross-host
/// edges, so tuples and acks genuinely cross the faulty tunnels.
fn launch(plan: FaultPlan) -> ChaosRun {
    launch_over(plan, false)
}

/// [`launch`], over TCP tunnels when `tcp`.
fn launch_over(plan: FaultPlan, tcp: bool) -> ChaosRun {
    let mut reg = ComponentRegistry::new();
    let (sink, _agg) = register_standard(&mut reg, 16, 4);
    let mut config = TyphoonConfig::new(2)
        .with_batch_size(4)
        .with_acking(Duration::from_secs(2), 64)
        .with_chaos(plan);
    if tcp {
        config = config.with_tcp_tunnels();
    }
    config.slots_per_host = 3;
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    cluster.controller().add_app(Box::new(FaultDetector::new()));
    // Cap the sequence: the run is done when every root completes.
    cluster.register_spout("seq-spout", || {
        typhoon_bench::workloads::SeqSpout::new(16, 4).with_limit(ROOTS)
    });
    let handle = cluster.submit(word_count_shape()).expect("submit");
    ChaosRun {
        cluster,
        handle,
        sink,
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + timeout;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn completed_roots(run: &ChaosRun) -> u64 {
    run.handle
        .tasks_of("input")
        .first()
        .and_then(|&t| run.handle.worker(t))
        .map(|w| w.registry.snapshot().counter("acks.completed"))
        .unwrap_or(0)
}

/// Asserts full recovery: all roots complete, no sequence silently lost.
fn assert_recovers(run: &ChaosRun, what: &str) {
    assert!(
        wait_until(Duration::from_secs(90), || completed_roots(run)
            == ROOTS as u64),
        "[{what}] only {}/{ROOTS} roots completed",
        completed_roots(run)
    );
    // At-least-once: replays may duplicate, but every sequence arrived.
    assert!(
        run.sink.count() >= ROOTS as u64,
        "[{what}] sink saw {} < {ROOTS} — an acked tuple was lost",
        run.sink.count()
    );
    run.cluster.shutdown();
}

#[test]
fn clean_baseline_completes() {
    let run = launch(FaultPlan::clean(chaos_seed()));
    assert_recovers(&run, "baseline");
}

#[test]
fn recovers_from_frame_drops() {
    let run = launch(FaultPlan::symmetric(
        chaos_seed(),
        FaultSpec::CLEAN.dropping(0.05),
    ));
    assert_recovers(&run, "drop");
}

#[test]
fn recovers_from_added_delay() {
    let run = launch(FaultPlan::symmetric(
        chaos_seed(),
        FaultSpec::CLEAN.delaying(Duration::from_millis(25)),
    ));
    assert_recovers(&run, "delay");
}

#[test]
fn recovers_from_duplication() {
    let run = launch(FaultPlan::symmetric(
        chaos_seed(),
        FaultSpec::CLEAN.duplicating(0.10),
    ));
    assert_recovers(&run, "duplicate");
}

#[test]
fn recovers_from_corrupt_bytes() {
    let run = launch(FaultPlan::symmetric(
        chaos_seed(),
        FaultSpec::CLEAN.corrupting(0.05),
    ));
    assert_recovers(&run, "corrupt");
}

/// Over TCP each endpoint's reader thread hands what it decodes to its
/// switch, and the injector applies the inbound faults on that hand-off
/// path; its held frames are released by the datapath thread.
#[test]
fn recovers_over_tcp_from_drops_and_delay_on_the_hand_off_path() {
    let spec = FaultSpec::CLEAN
        .dropping(0.05)
        .delaying(Duration::from_millis(5));
    let run = launch_over(FaultPlan::symmetric(chaos_seed(), spec), true);
    assert_recovers(&run, "tcp drop+delay");
}

#[test]
fn recovers_after_a_stall_heals() {
    // Start stalled in both directions: cross-host traffic is withheld
    // (not dropped, not failed — the nastiest case for liveness).
    let seed = chaos_seed();
    let run = launch(FaultPlan::symmetric(seed, FaultSpec::CLEAN.stalled()));
    // Let the system run into the stall, then heal every edge at runtime.
    std::thread::sleep(Duration::from_secs(2));
    assert!(
        completed_roots(&run) < ROOTS as u64,
        "stall had no effect — the topology never crossed hosts"
    );
    for from in 0..2u32 {
        for to in 0..2u32 {
            if from != to {
                run.cluster
                    .chaos_handle(HostId(from), HostId(to))
                    .expect("chaos handle")
                    .heal();
            }
        }
    }
    assert_recovers(&run, "stall-heal");
}

/// Sentences for the failover run: enough that both the armed controller
/// kill and the worker crash land mid-stream.
const FAILOVER_ROOTS: i64 = 600;

/// The PR-10 acceptance run: a 2-replica control plane loses its leader
/// (seeded `KillSpec::controller` through `with_chaos`) while a worker
/// crash has a recovery re-steer in flight. Required outcome:
///
/// * the switches keep forwarding *headless* for the whole leaderless
///   window (nonzero throughput with no leader),
/// * a new leader is elected (term bump) and re-installs the rule ledger,
/// * the in-flight recovery completes against the successor, and the
///   word counts converge to the exact recomputed ground truth,
/// * detect → elect → resync stays under the heartbeat timeout,
/// * all of it deterministic under the printed `CHAOS_SEED`.
#[test]
fn controller_failover_resyncs_rules_and_completes_inflight_recovery() {
    let seed = chaos_seed();
    let expected = expected_word_counts(seed, FAILOVER_ROOTS);
    let mut reg = ComponentRegistry::new();
    let (_sink, agg) = register_standard(&mut reg, 16, 4);
    register_replay_spout(&mut reg, seed, 4, FAILOVER_ROOTS);
    // The leader kill is armed through the ordinary chaos plan, so the
    // victim timing derives from the seed like every other kill class.
    let plan = FaultPlan::clean(seed).with_kill(KillSpec::controller(Duration::from_millis(600)));
    let mut config = TyphoonConfig::new(2)
        .with_batch_size(4)
        .with_acking(Duration::from_secs(2), 64)
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery(HEARTBEAT_TIMEOUT)
        .with_chaos(plan)
        .with_controller_replicas(2);
    // Widen the leaderless window so headless forwarding is observable.
    config.controller_session_timeout = Duration::from_millis(900);
    config.slots_per_host = 8;
    config.scheduler = SchedulerKind::RoundRobin;
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    // Registered on *every* replica: the successor must detect too.
    cluster.add_control_app(|| Box::new(FaultDetector::new()));
    let handle = cluster
        .submit(recovery_word_count_topology(2, 2))
        .expect("submit");
    let plane = cluster.control_plane().clone();
    let roots = || {
        handle
            .tasks_of("input")
            .first()
            .and_then(|&t| handle.worker(t))
            .map(|w| w.registry.snapshot().counter("acks.completed"))
            .unwrap_or(0)
    };
    let killed_controllers =
        || cluster.snapshot()["chaos/cluster"].counter("chaos.killed_controllers");
    // Frames actually looked up by the datapaths — the direct measure of
    // forwarding (root completions can stall while a bolt is down, frame
    // processing must not).
    let frames = || {
        let c = MetricSnapshot::total(&cluster.snapshot(), "switch/");
        c.counter("switch.cache.hits")
            + c.counter("switch.cache.negative_hits")
            + c.counter("switch.cache.misses")
    };

    assert_eq!(plane.term(), 1, "boot election did not settle at term 1");
    assert!(
        wait_until(Duration::from_secs(90), || killed_controllers() == 1),
        "the armed controller kill never executed"
    );
    let killed_at = Instant::now();
    let before_kill = frames();

    // Leaderless window opens. Crash a stateful bolt NOW, so the recovery
    // re-steer is in flight across the failover. The victim derivation
    // matches the worker kill class: sorted stateful tasks, seed-indexed.
    let mut stateful = handle.tasks_of("count");
    stateful.sort_unstable();
    let victim = stateful[seed as usize % stateful.len()];
    handle.crash_task(victim).expect("crash worker");

    // Wait out the failover, sampling throughput while no leader exists:
    // the switches must keep forwarding on their installed rules.
    let mut headless_frames = before_kill;
    assert!(
        wait_until(Duration::from_secs(90), || {
            if plane.leader_name().is_none() {
                headless_frames = frames();
            }
            // The term is reserved before re-sync; the leader is only
            // *published* once the ledger is re-installed and fenced.
            plane.term() >= 2 && plane.leader_name().is_some()
        }),
        "no successor leader was ever elected"
    );
    let failover_wall = killed_at.elapsed();
    assert!(
        headless_frames > before_kill,
        "no frame was forwarded during the leaderless window ({before_kill} before, \
         {headless_frames} while headless) — the switches did not run headless"
    );
    assert!(
        failover_wall < HEARTBEAT_TIMEOUT,
        "failover (detect -> elect -> resync) took {failover_wall:?}, \
         longer than the heartbeat timeout"
    );

    // The successor re-installed the persisted ledger, not an empty table.
    let snap = plane.registry().snapshot();
    assert_eq!(snap.counter("controller.ha.failovers"), 1);
    assert_eq!(snap.counter("controller.ha.elections"), 2);
    assert!(
        snap.gauge("controller.ha.resync_rules") >= 1,
        "successor re-synced no rules"
    );
    assert!(
        snap.gauge("controller.ha.failover_ms") < HEARTBEAT_TIMEOUT.as_millis() as i64,
        "failover_ms over budget: {}",
        snap.gauge("controller.ha.failover_ms")
    );
    assert!(
        snap.gauge("controller.ha.headless_ms") > 0,
        "switches never reported a headless window"
    );

    // The in-flight recovery must complete against the successor leader
    // and the counts must converge to the exact recomputed ground truth.
    assert!(
        wait_until(Duration::from_secs(90), || {
            cluster
                .recovery()
                .map(|r| r.registry().snapshot().counter("recovery.recovered"))
                .unwrap_or(0)
                >= 1
        }),
        "the in-flight recovery never completed after failover"
    );
    let exact = wait_until(Duration::from_secs(90), || {
        roots() >= FAILOVER_ROOTS as u64 && *agg.counts.lock() == expected
    });
    if !exact {
        let got: HashMap<String, i64> = agg.counts.lock().clone();
        let mut diff: Vec<String> = expected
            .iter()
            .filter(|(w, want)| got.get(*w).copied().unwrap_or(0) != **want)
            .map(|(w, want)| format!("{w}: got {}, want {want}", got.get(w).copied().unwrap_or(0)))
            .collect();
        diff.sort();
        panic!(
            "[controller-failover] counts never converged ({}/{FAILOVER_ROOTS} roots): {}",
            roots(),
            diff.join("; ")
        );
    }
    cluster.shutdown();
}

#[test]
fn partition_surfaces_as_typed_fault_within_heartbeat_timeout() {
    // Healthy start, then a hard partition of the host link mid-run.
    let run = launch(FaultPlan::clean(chaos_seed()));
    assert!(
        wait_until(Duration::from_secs(30), || run.sink.count() > 0),
        "no traffic before the partition"
    );
    let partitioned = Instant::now();
    for from in 0..2u32 {
        for to in 0..2u32 {
            if from != to {
                run.cluster
                    .chaos_handle(HostId(from), HostId(to))
                    .expect("chaos handle")
                    .set_plan(FaultPlan::symmetric(1, FaultSpec::CLEAN.partitioned()));
            }
        }
    }
    // The typed failure path: each switch tears its tunnel down, reports a
    // tunnel-peer PortStatus delete, and the fault detector records the
    // link fault in the coordinator — all inside the heartbeat timeout.
    assert!(
        wait_until(HEARTBEAT_TIMEOUT, || {
            let snap = run.cluster.snapshot();
            (0..2u32).all(|h| snap[&format!("switch/{h}")].counter("switch.tunnel_downs") >= 1)
        }),
        "switches never tore the partitioned tunnels down"
    );
    assert!(
        wait_until(HEARTBEAT_TIMEOUT, || {
            let coord = run.cluster.global().coordinator();
            coord.exists(&format!("{TUNNEL_FAULTS}/host-0-to-1"))
                || coord.exists(&format!("{TUNNEL_FAULTS}/host-1-to-0"))
        }),
        "fault detector never recorded the link fault"
    );
    assert!(
        partitioned.elapsed() < HEARTBEAT_TIMEOUT * 2,
        "typed failure took longer than the heartbeat budget"
    );
    // Shutdown must stay clean — no hang with the fabric partitioned.
    run.cluster.shutdown();
}
