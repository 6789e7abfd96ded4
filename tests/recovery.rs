//! Crash-recovery suite: the §4 claim end-to-end. A seeded chaos kill
//! takes out a stateful bolt's worker (or its whole host) mid-run on a
//! 2-host word-count topology; the cluster must bring the task back by
//! itself — fault record → re-schedule onto a surviving slot → flow-rule
//! re-steer → restart + checkpoint restore → replay — and the final word
//! counts must *exactly* match a no-fault run of the same seed.
//!
//! Exactness is checkable because the workload source is pure: sentence
//! `i` is a function of `(seed, i)` only, so the expected counts can be
//! recomputed directly and compared against both the no-fault baseline
//! and the post-recovery aggregator state.
//!
//! All randomness (including the kill victim) derives from one seed, so a
//! failing run replays exactly:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --test recovery
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};
use typhoon::controller::apps::FaultDetector;
use typhoon::core::SchedulerKind;
use typhoon::net::{FaultPlan, KillSpec};
use typhoon::prelude::*;
use typhoon_bench::workloads::{
    expected_word_counts, recovery_word_count_topology, register_replay_spout, register_standard,
    AggState,
};
use typhoon_model::ComponentRegistry;

/// Heartbeat timeout. With SDN port-status detection enabled the whole
/// recovery (detect → re-steer → restart → restore → replay kick-off)
/// must finish well inside it — the Fig. 10 claim.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

/// Sentences per run: large enough that the armed kill lands mid-stream.
const ROOTS: i64 = 600;

/// Spout batch size.
const BATCH: usize = 4;

/// Outer bound on any wait: nothing may hang.
const BOUND: Duration = Duration::from_secs(90);

fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xc4a0_5eed);
    // Captured output is shown on failure: this is the replay handle.
    println!("CHAOS_SEED={seed}");
    seed
}

/// Ground truth, recomputed from the pure sentence function: the exact
/// word counts any run — faulty or not — must converge to.
fn expected_counts(seed: u64) -> HashMap<String, i64> {
    expected_word_counts(seed, ROOTS)
}

struct RecoveryRun {
    cluster: TyphoonCluster,
    handle: TyphoonTopologyHandle,
    agg: AggState,
}

/// Boots a 2-host cluster with checkpointing, the recovery manager and an
/// optionally armed seeded kill, then submits the replayable word-count
/// topology. Round-robin placement spreads the pipeline across both hosts
/// (so the kill and the recovery genuinely cross hosts) and leaves the
/// spout's host with spare slots for re-scheduling.
fn launch(
    seed: u64,
    kill: Option<KillSpec>,
    sdn_detection: bool,
    heartbeat: Duration,
) -> RecoveryRun {
    let mut reg = ComponentRegistry::new();
    let (_sink, agg) = register_standard(&mut reg, 16, BATCH);
    register_replay_spout(&mut reg, seed, BATCH, ROOTS);
    let mut plan = FaultPlan::clean(seed);
    if let Some(kill) = kill {
        plan = plan.with_kill(kill);
    }
    let mut config = TyphoonConfig::new(2)
        .with_batch_size(BATCH)
        .with_acking(Duration::from_secs(2), 64)
        .with_checkpoints(Duration::from_millis(100))
        .with_recovery(heartbeat)
        .with_chaos(plan);
    config.slots_per_host = 8;
    config.scheduler = SchedulerKind::RoundRobin;
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    if sdn_detection {
        cluster.controller().add_app(Box::new(FaultDetector::new()));
    }
    let handle = cluster
        .submit(recovery_word_count_topology(2, 2))
        .expect("submit");
    RecoveryRun {
        cluster,
        handle,
        agg,
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

fn completed_roots(run: &RecoveryRun) -> u64 {
    run.handle
        .tasks_of("input")
        .first()
        .and_then(|&t| run.handle.worker(t))
        .map(|w| w.registry.snapshot().counter("acks.completed"))
        .unwrap_or(0)
}

fn chaos_stat(run: &RecoveryRun, name: &str) -> u64 {
    let snap = run.cluster.snapshot();
    snap.get("chaos/cluster").map_or(0, |s| s.counter(name))
}

fn recovery_stat(run: &RecoveryRun, name: &str) -> u64 {
    run.cluster
        .recovery()
        .map(|r| r.registry().snapshot().counter(name))
        .unwrap_or(0)
}

fn counts(run: &RecoveryRun) -> HashMap<String, i64> {
    run.agg.counts.lock().clone()
}

/// Asserts the aggregator converged to exactly `expected`, with a useful
/// diff on failure.
fn assert_exact(run: &RecoveryRun, expected: &HashMap<String, i64>, what: &str) {
    let converged = wait_until(BOUND, || {
        completed_roots(run) >= ROOTS as u64 && counts(run) == *expected
    });
    if !converged {
        let got = counts(run);
        let mut diff: Vec<String> = Vec::new();
        for (word, want) in expected {
            let have = got.get(word).copied().unwrap_or(0);
            if have != *want {
                diff.push(format!("{word}: got {have}, want {want}"));
            }
        }
        for word in got.keys() {
            if !expected.contains_key(word) {
                diff.push(format!("{word}: unexpected word"));
            }
        }
        diff.sort();
        panic!(
            "[{what}] counts never converged ({}/{ROOTS} roots complete); {} words off: {}",
            completed_roots(run),
            diff.len(),
            diff.join("; ")
        );
    }
}

#[test]
fn no_fault_baseline_matches_recomputed_counts() {
    // The harness itself: with no kill armed, the topology must converge
    // to the recomputed ground truth (proves the exactness yardstick the
    // fault runs are judged against).
    let seed = chaos_seed();
    let expected = expected_counts(seed);
    let run = launch(seed, None, true, HEARTBEAT_TIMEOUT);
    assert_exact(&run, &expected, "baseline");
    assert_eq!(chaos_stat(&run, "chaos.killed_workers"), 0);
    assert!(run
        .cluster
        .recovery()
        .expect("recovery manager")
        .reports()
        .is_empty());
    run.cluster.shutdown();
}

#[test]
fn worker_kill_recovers_to_exact_counts_within_heartbeat() {
    let seed = chaos_seed();
    let expected = expected_counts(seed);
    let run = launch(
        seed,
        Some(KillSpec::worker(Duration::from_millis(300))),
        true,
        HEARTBEAT_TIMEOUT,
    );
    // The armed kill executes exactly once.
    assert!(
        wait_until(BOUND, || chaos_stat(&run, "chaos.killed_workers") == 1),
        "the armed worker kill never executed"
    );
    // With SDN port-status detection installed, the whole recovery —
    // detection, re-scheduling, restart, checkpoint restore, replay
    // kick-off — completes inside the heartbeat timeout the fallback
    // path would still be sleeping through.
    assert!(
        wait_until(HEARTBEAT_TIMEOUT, || recovery_stat(
            &run,
            "recovery.recovered"
        ) >= 1),
        "recovery did not complete within the heartbeat timeout"
    );
    assert_exact(&run, &expected, "worker-kill");

    // The victim is seed-derived: stateful bolt tasks, sorted, seed-indexed
    // — so a fixed CHAOS_SEED reproduces the identical kill and the report
    // names it.
    let mut stateful = run.handle.tasks_of("count");
    stateful.sort_unstable();
    let victim = stateful[seed as usize % stateful.len()];
    let reports = run.cluster.recovery().expect("recovery manager").reports();
    assert!(!reports.is_empty(), "no recovery report recorded");
    assert_eq!(reports[0].task, victim, "kill victim was not seed-derived");
    assert_eq!(reports[0].node, "count");
    assert!(
        reports[0].total < HEARTBEAT_TIMEOUT,
        "recovery took {:?}, longer than the heartbeat timeout",
        reports[0].total
    );
    run.cluster.shutdown();
}

#[test]
fn host_kill_recovers_to_exact_counts() {
    // The big hammer: the whole SimHost dies — every worker thread on it
    // crashes at once, only the switch substrate stays up. All its tasks
    // (a split, a count partition and the aggregator) must come back on
    // the surviving host and the counts must still be exact.
    let seed = chaos_seed();
    let expected = expected_counts(seed);
    let run = launch(
        seed,
        Some(KillSpec::host(Duration::from_millis(300))),
        true,
        HEARTBEAT_TIMEOUT,
    );
    assert!(
        wait_until(BOUND, || chaos_stat(&run, "chaos.killed_hosts") == 1),
        "the armed host kill never executed"
    );
    assert!(
        wait_until(BOUND, || recovery_stat(&run, "recovery.recovered") >= 1),
        "no task was ever recovered"
    );
    assert_exact(&run, &expected, "host-kill");
    let reports = run.cluster.recovery().expect("recovery manager").reports();
    assert!(
        !reports.is_empty(),
        "host kill produced no recovery reports"
    );
    // Every recovered task landed on a live host.
    for r in &reports {
        let agent = run.cluster.agent(r.host).expect("agent");
        assert!(agent.is_alive(), "task recovered onto the dead host");
    }
    run.cluster.shutdown();
}

#[test]
fn heartbeat_fallback_recovers_without_sdn_detection() {
    // Fig. 10's baseline: no fault-detector app, so the dead worker is
    // only found by the recovery manager's heartbeat scan — detection
    // waits out the full timeout instead of reacting to the port event,
    // but recovery (and exactness) must still hold.
    let seed = chaos_seed();
    let expected = expected_counts(seed);
    let heartbeat = Duration::from_secs(2);
    let run = launch(
        seed,
        Some(KillSpec::worker(Duration::from_millis(300))),
        false,
        heartbeat,
    );
    assert!(
        wait_until(BOUND, || chaos_stat(&run, "chaos.killed_workers") == 1),
        "the armed worker kill never executed"
    );
    let killed_at = Instant::now();
    assert!(
        wait_until(BOUND, || recovery_stat(&run, "recovery.recovered") >= 1),
        "heartbeat fallback never recovered the task"
    );
    let detection = killed_at.elapsed();
    assert!(
        recovery_stat(&run, "recovery.heartbeat_detected") >= 1,
        "recovery did not come from the heartbeat path"
    );
    // The fallback is necessarily slower: it cannot act before the
    // heartbeat timeout expires (the SDN path acts in milliseconds).
    assert!(
        detection >= heartbeat / 2,
        "heartbeat recovery after only {detection:?} — suspiciously fast for a {heartbeat:?} timeout"
    );
    assert_exact(&run, &expected, "heartbeat-fallback");
    run.cluster.shutdown();
}
