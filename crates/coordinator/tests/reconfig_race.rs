//! Concurrent reconfiguration submits against a draining reader.
//!
//! Control-plane apps (the auto-scaler, the REST server) submit requests
//! while the streaming manager drains them. A request's name must be chosen
//! in the same store operation that creates it: naming it from a separate
//! read of the directory lets two submitters pick the same name, or pick a
//! name the drain has just freed, and one of them fails with `NodeExists`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use typhoon_coordinator::global::GlobalState;
use typhoon_coordinator::Coordinator;
use typhoon_model::{ReconfigOp, ReconfigRequest};

const TOPOLOGY: &str = "race";
const SUBMITTERS: usize = 2;
const PER_SUBMITTER: usize = 2_000;

#[test]
fn concurrent_submits_are_each_taken_once_in_submission_order() {
    let global = GlobalState::new(Coordinator::new());
    let done = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let (global, done) = (global.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut failed = 0;
                for i in 0..PER_SUBMITTER {
                    let op = ReconfigOp::SetParallelism {
                        node: format!("submitter-{s}"),
                        parallelism: i,
                    };
                    failed += usize::from(
                        global
                            .submit_reconfig(&ReconfigRequest::single(TOPOLOGY, op))
                            .is_err(),
                    );
                }
                done.fetch_add(1, Ordering::Release);
                failed
            })
        })
        .collect();
    // Drain until both submitters have finished, then once more: a take
    // that starts after the last submit returned sees every request.
    let mut taken = Vec::new();
    loop {
        let finished = done.load(Ordering::Acquire) == SUBMITTERS;
        taken.extend(global.take_reconfigs(TOPOLOGY).expect("take"));
        if finished {
            break;
        }
    }
    let failed: usize = submitters.into_iter().map(|t| t.join().unwrap()).sum();

    assert_eq!(
        failed,
        0,
        "{failed} of {} submits failed",
        SUBMITTERS * PER_SUBMITTER
    );
    assert_eq!(taken.len(), SUBMITTERS * PER_SUBMITTER);
    for s in 0..SUBMITTERS {
        let node = format!("submitter-{s}");
        let seen: Vec<usize> = taken
            .iter()
            .filter_map(|req| match &req.ops[..] {
                [ReconfigOp::SetParallelism {
                    node: n,
                    parallelism,
                }] if *n == node => Some(*parallelism),
                _ => None,
            })
            .collect();
        assert!(
            seen.iter().copied().eq(0..PER_SUBMITTER),
            "{node}: taken {} requests, not each once in submission order",
            seen.len()
        );
    }
}
