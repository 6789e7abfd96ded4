//! Model-checker regression suite: every extracted kernel is explored in
//! both flavours. The `fixed` variants (the code the workspace ships
//! today) must survive every schedule; the `prefix` (pre-fix) variants
//! must fail — each pins a historical race so a regression that
//! reintroduces it flips a deterministic test.
//!
//! Failing runs print their replay recipe (`CHECK_TRACE=…` /
//! `CHECK_SEED=…`); run with `--nocapture` to capture it from CI logs.

#![cfg(feature = "model")]

use std::sync::Arc;
use typhoon_check::kernels::{batch, checkpoint, doorbell, election, recovery, ring, tunnel};
use typhoon_check::sync::{thread, Mutex};
use typhoon_check::{Checker, Replay};

// ------------------------------------------------------------ ring (PR 3)

#[test]
fn ring_close_pop_race_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("ring-close-pop/prefix", || ring::close_pop_scenario(false))
        .expect_failure();
    println!("found the PR-3 ring race:\n{failure}");
    assert!(
        failure.message.contains("close/pop race"),
        "unexpected failure: {}",
        failure.message
    );
    assert!(
        matches!(&failure.replay, Replay::Trace(t) if !t.is_empty()),
        "DFS phase should find this race deterministically"
    );
}

#[test]
fn ring_close_pop_race_reproduces_deterministically() {
    // Same kernel, same checker config → byte-identical replay trace.
    let first = Checker::default()
        .check("ring-close-pop/prefix", || ring::close_pop_scenario(false))
        .expect_failure();
    let second = Checker::default()
        .check("ring-close-pop/prefix", || ring::close_pop_scenario(false))
        .expect_failure();
    let (Replay::Trace(a), Replay::Trace(b)) = (&first.replay, &second.replay) else {
        panic!("expected DFS traces from both runs");
    };
    assert_eq!(a, b, "the checker must be schedule-deterministic");
}

#[test]
fn ring_close_pop_fixed_logic_passes() {
    let report =
        Checker::default().check("ring-close-pop/fixed", || ring::close_pop_scenario(true));
    println!(
        "ring-close-pop/fixed: {} schedule(s), exhausted={}",
        report.schedules, report.exhausted
    );
    report.assert_ok();
}

// ------------------------------------------------- batched rings (this PR)

#[test]
fn push_batch_remainder_drop_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("batch-push-close/prefix", || {
            batch::push_batch_close_scenario(false)
        })
        .expect_failure();
    println!("found the push_batch remainder drop:\n{failure}");
    assert!(
        failure.message.contains("batch accounting"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn push_batch_close_fixed_logic_passes() {
    Checker::default()
        .check("batch-push-close/fixed", || {
            batch::push_batch_close_scenario(true)
        })
        .assert_ok();
}

#[test]
fn pop_batch_partial_drain_loss_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("batch-pop-close/prefix", || {
            batch::pop_batch_close_scenario(false)
        })
        .expect_failure();
    println!("found the pop_batch partial-drain loss:\n{failure}");
    assert!(
        failure.message.contains("half-consumed batch"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn pop_batch_close_fixed_logic_passes() {
    Checker::default()
        .check("batch-pop-close/fixed", || {
            batch::pop_batch_close_scenario(true)
        })
        .assert_ok();
}

// ------------------------------------------------------ doorbell (PR 14)

#[test]
fn doorbell_lost_wakeup_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("doorbell-two-producers-close/prefix", || {
            doorbell::two_producers_and_close_scenario(false)
        })
        .expect_failure();
    println!("found the doorbell lost wake-up:\n{failure}");
    // The model has no park timeout: a consumer parked on a non-empty (or
    // closed) ring with nobody left to ring is a deadlock.
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
    // Replayable: the same schedule fails the same way.
    let again = Checker::default()
        .check("doorbell-two-producers-close/prefix", || {
            doorbell::two_producers_and_close_scenario(false)
        })
        .expect_failure();
    assert_eq!(
        format!("{:?}", failure.replay),
        format!("{:?}", again.replay)
    );
}

#[test]
fn doorbell_arm_recheck_park_passes_exhaustively() {
    let report = Checker::default().check("doorbell-two-producers-close/fixed", || {
        doorbell::two_producers_and_close_scenario(true)
    });
    println!(
        "doorbell-two-producers-close/fixed: {} schedule(s), exhausted={}",
        report.schedules, report.exhausted
    );
    report.assert_ok();
    assert!(
        report.exhausted,
        "the bounded schedule tree must be covered"
    );
}

// ---------------------------------------------------------- tunnel (PR 3)

#[test]
fn tunnel_torn_frame_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("tunnel-send-teardown/prefix", || {
            tunnel::send_send_teardown_scenario(false)
        })
        .expect_failure();
    println!("found the torn-frame race:\n{failure}");
    assert!(
        failure.message.contains("torn frame") || failure.message.contains("exactly once"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn tunnel_send_teardown_fixed_logic_passes() {
    Checker::default()
        .check("tunnel-send-teardown/fixed", || {
            tunnel::send_send_teardown_scenario(true)
        })
        .assert_ok();
}

#[test]
fn tunnel_first_cause_overwrite_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("tunnel-first-cause/prefix", || {
            tunnel::first_cause_scenario(false)
        })
        .expect_failure();
    println!("found the cause-overwrite race:\n{failure}");
    assert!(
        failure.message.contains("first-cause"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn tunnel_first_cause_fixed_logic_passes() {
    Checker::default()
        .check("tunnel-first-cause/fixed", || {
            tunnel::first_cause_scenario(true)
        })
        .assert_ok();
}

// ------------------------------------------------------ checkpoint (PR 4)

#[test]
fn checkpoint_split_snapshot_race_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("checkpoint-snapshot/prefix", || {
            checkpoint::snapshot_fold_scenario(false)
        })
        .expect_failure();
    println!("found the split-snapshot race:\n{failure}");
    assert!(
        failure.message.contains("replay-exact"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn checkpoint_atomic_snapshot_fixed_logic_passes() {
    Checker::default()
        .check("checkpoint-snapshot/fixed", || {
            checkpoint::snapshot_fold_scenario(true)
        })
        .assert_ok();
}

// -------------------------------------------------------- recovery (PR 4)

#[test]
fn recovery_stale_ack_race_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("recovery-resteer/prefix", || {
            recovery::resteer_ack_scenario(false)
        })
        .expect_failure();
    println!("found the stale-ack race:\n{failure}");
    assert!(
        failure.message.contains("double ack") || failure.message.contains("retire"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn recovery_round_tagged_acks_fixed_logic_passes() {
    Checker::default()
        .check("recovery-resteer/fixed", || {
            recovery::resteer_ack_scenario(true)
        })
        .assert_ok();
}

// ------------------------------------------------------- election (PR 10)

#[test]
fn election_double_claim_is_found_on_prefix_logic() {
    let failure = Checker::default()
        .check("election-two-candidates/prefix", || {
            election::two_candidate_scenario(false)
        })
        .expect_failure();
    println!("found the double-claimed-term race:\n{failure}");
    assert!(
        failure.message.contains("one leader per term"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn election_two_candidates_fixed_logic_passes() {
    Checker::default()
        .check("election-two-candidates/fixed", || {
            election::two_candidate_scenario(true)
        })
        .assert_ok();
}

// ------------------------------------------------------- engine self-tests

#[test]
fn sequential_body_explores_exactly_one_schedule() {
    let report = Checker::default().check("self/sequential", || {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    });
    report.assert_ok();
    assert!(report.exhausted, "a single-thread body has one schedule");
}

#[test]
fn abba_deadlock_is_detected() {
    let failure = Checker::default()
        .check("self/abba-deadlock", || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let child = thread::spawn(move || {
                let _a = a2.lock();
                let _b = b2.lock();
            });
            let _b = b.lock();
            let _a = a.lock();
            drop((_a, _b));
            child.join();
        })
        .expect_failure();
    println!("found the AB-BA deadlock:\n{failure}");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn rank_inversion_is_reported_as_a_failure() {
    use typhoon_diag::rank;
    let failure = Checker::default()
        .check("self/rank-inversion", || {
            let outer = Mutex::with_rank(rank::TUNNEL, "model.tunnel", ());
            let inner = Mutex::with_rank(rank::CLUSTER, "model.cluster", ());
            let _o = outer.lock();
            let _i = inner.lock();
        })
        .expect_failure();
    assert!(
        failure.message.contains("lock-order inversion"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn spin_loops_hit_the_step_budget_not_a_hang() {
    use typhoon_check::sync::atomic::{AtomicBool, Ordering};
    let checker = Checker {
        max_steps: 200,
        max_schedules: 4,
        random_schedules: 0,
        ..Checker::default()
    };
    let failure = checker
        .check("self/spin", || {
            let flag = Arc::new(AtomicBool::new(false));
            let flag2 = Arc::clone(&flag);
            let child = thread::spawn(move || {
                // Never-satisfied spin: the budget must cut it off.
                while !flag2.load(Ordering::Acquire) {}
            });
            child.join();
            flag.store(true, Ordering::Release);
        })
        .expect_failure();
    assert!(
        failure.message.contains("step budget"),
        "unexpected failure: {}",
        failure.message
    );
}
