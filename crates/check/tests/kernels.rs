//! Model-checker regression suite: every extracted kernel is explored in
//! both flavours. The `fixed` variants (the code the workspace ships
//! today) must survive every schedule; the `prefix` (pre-fix) variants
//! must fail — each pins a historical race so a regression that
//! reintroduces it flips a deterministic test. The ring and the doorbell
//! have no kernel: `crates/net/tests/model.rs` checks the shipped files.
//!
//! Failing runs print their replay recipe (`CHECK_TRACE=…` /
//! `CHECK_SEED=…`); run with `--nocapture` to capture it from CI logs.

use std::sync::Arc;
use typhoon_check::kernels::{checkpoint, election, recovery, tunnel};
use typhoon_check::sync::{thread, Mutex};
use typhoon_check::Checker;

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

/// The DFS must reach every thread at every choice point, also one with a
/// lower id than the thread that is running: here the parent has to take
/// the CPU back from its child between the child's two stores.
#[test]
fn a_lower_id_thread_can_preempt_a_higher_one() {
    use typhoon_check::sync::atomic::{AtomicU64, Ordering};
    let failure = Checker::default()
        .check("self/preempt-the-child", || {
            let cell = Arc::new(AtomicU64::new(0));
            let childs = Arc::clone(&cell);
            let child = thread::spawn(move || {
                childs.store(1, Ordering::SeqCst);
                childs.store(2, Ordering::SeqCst);
            });
            let seen = cell.load(Ordering::SeqCst);
            child.join();
            assert_ne!(seen, 1, "seen between the stores");
        })
        .expect_failure();
    assert!(
        failure.message.contains("seen between the stores"),
        "unexpected failure: {}",
        failure.message
    );
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

#[test]
fn an_unpark_before_the_park_is_kept_and_a_park_nobody_ends_is_a_deadlock() {
    use std::time::Duration;
    let far = Duration::from_secs(3600);
    Checker::default()
        .check("self/park-token", move || {
            let parent = thread::current();
            let child = thread::spawn(move || parent.unpark());
            thread::park_timeout(far);
            child.join();
        })
        .assert_ok();
    let failure = Checker::default()
        .check("self/park-forever", move || thread::park_timeout(far))
        .expect_failure();
    assert!(
        failure.message.contains("deadlock"),
        "the model has no clock: {}",
        failure.message
    );
}

/// What a shipped type's `Drop` does (`RingProducer`: lock, flip, ring):
/// a schedule point reached from a destructor of a thread that is already
/// unwinding — torn down by an abort, or by its own failed assertion —
/// must not panic again, which would kill the process.
#[test]
fn destructors_that_lock_survive_an_aborted_execution() {
    struct LocksOnDrop(Arc<Mutex<u32>>);
    impl Drop for LocksOnDrop {
        fn drop(&mut self) {
            *self.0.lock() += 1;
        }
    }
    for _ in 0..100 {
        let failure = Checker::default()
            .check("self/drop-under-abort", || {
                let cell = Arc::new(Mutex::new(0));
                let held = LocksOnDrop(Arc::clone(&cell));
                let child = thread::spawn(move || {
                    let _held = held;
                    thread::park_timeout(std::time::Duration::MAX);
                });
                let _mine = LocksOnDrop(cell);
                child.join();
            })
            .expect_failure();
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        let failure = Checker::default()
            .check("self/drop-under-panic", || {
                let cell = Arc::new(Mutex::new(0));
                let _mine = LocksOnDrop(Arc::clone(&cell));
                let guard = cell.lock();
                assert_eq!(*guard, 1, "nobody dropped yet");
            })
            .expect_failure();
        assert!(
            failure.message.contains("nobody dropped yet"),
            "{}",
            failure.message
        );
    }
}
