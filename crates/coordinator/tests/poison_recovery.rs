//! Regression test for the lock-poisoning failure mode the DiagMutex
//! migration removes: a session thread that panics while talking to the
//! store must not wedge every other client of the shared tree.

use std::sync::Arc;
use std::time::Duration;
use typhoon_coordinator::{Coordinator, CreateMode};

#[test]
fn panicked_session_thread_does_not_block_store() {
    let coord = Coordinator::new();
    coord.ensure_path("/jobs").expect("setup");

    // A worker thread panics mid-interaction with the store. With a
    // poisoning mutex this would leave the tree unusable for everyone.
    let c = coord.clone();
    let crashed = std::thread::spawn(move || {
        c.create("/jobs/doomed", b"x".to_vec(), CreateMode::Persistent)
            .expect("create");
        panic!("worker dies after touching the store");
    })
    .join();
    assert!(crashed.is_err(), "worker thread must have panicked");

    // Every store operation still works from other threads.
    assert!(coord.exists("/jobs/doomed"));
    coord
        .create("/jobs/alive", b"y".to_vec(), CreateMode::Persistent)
        .expect("store must accept writes after a client panic");
    assert_eq!(coord.get("/jobs/alive").expect("get").0, b"y");
    coord.delete("/jobs/doomed").expect("delete");

    // Sessions and watches keep functioning too.
    let (tx, rx) = std::sync::mpsc::channel();
    coord.watch(&["/jobs"], move |event| tx.send(event.clone()).is_ok());
    let sid = coord.create_session();
    coord
        .create("/jobs/eph", vec![], CreateMode::Ephemeral(sid))
        .expect("ephemeral create");
    coord.close_session(sid);
    assert!(!coord.exists("/jobs/eph"));
    let events: Vec<_> = rx.try_iter().collect();
    assert!(
        events.len() >= 2,
        "watches must still deliver after a client panic: {events:?}"
    );

    // And a panic *inside* many concurrent clients leaves the tree sound.
    let coord = Arc::new(coord);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let c = Arc::clone(&coord);
            std::thread::spawn(move || {
                for n in 0..50 {
                    let path = format!("/jobs/t{i}-{n}");
                    c.create(&path, vec![], CreateMode::Persistent).unwrap();
                    if n == 25 && i == 0 {
                        panic!("one client dies halfway");
                    }
                }
            })
        })
        .collect();
    let panics: usize = handles
        .into_iter()
        .map(|h| usize::from(h.join().is_err()))
        .sum();
    assert_eq!(panics, 1, "exactly the injected panic");
    assert!(
        coord.exists("/jobs/t1-49"),
        "other clients ran to completion"
    );
    assert_eq!(coord.session_count(), 0);
    // The store still answers within a bounded time (no deadlock).
    let c = Arc::clone(&coord);
    let probe = std::thread::spawn(move || c.children("/jobs").map(|v| v.len()));
    std::thread::sleep(Duration::from_millis(200)); // LINT: allow-sleep(test gives the probe thread time to complete)
    assert!(probe.is_finished(), "store answered promptly after panics");
    assert!(probe.join().expect("probe thread").expect("children") >= 150);
}
