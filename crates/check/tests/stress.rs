//! Real-primitive stress runs (`--no-default-features`): the same kernel
//! sources, compiled against `typhoon-diag` locks and std threads, run
//! many times under genuine OS scheduling. Only the *fixed* flavours run
//! here — pre-fix flavours are probabilistic under real scheduling and
//! belong to the model suite, which fails them deterministically.

#![cfg(not(feature = "model"))]

use typhoon_check::kernels::{batch, checkpoint, doorbell, election, recovery, ring, tunnel};

const RUNS: usize = 200;

#[test]
fn ring_close_pop_fixed_stress() {
    for _ in 0..RUNS {
        ring::close_pop_scenario(true);
    }
}

#[test]
fn batch_push_close_fixed_stress() {
    for _ in 0..RUNS {
        batch::push_batch_close_scenario(true);
    }
}

#[test]
fn batch_pop_close_fixed_stress() {
    for _ in 0..RUNS {
        batch::pop_batch_close_scenario(true);
    }
}

#[test]
fn doorbell_two_producers_close_fixed_stress() {
    for _ in 0..RUNS {
        doorbell::two_producers_and_close_scenario(true);
    }
}

#[test]
fn tunnel_send_teardown_fixed_stress() {
    for _ in 0..RUNS {
        tunnel::send_send_teardown_scenario(true);
    }
}

#[test]
fn tunnel_first_cause_fixed_stress() {
    for _ in 0..RUNS {
        tunnel::first_cause_scenario(true);
    }
}

#[test]
fn checkpoint_snapshot_fixed_stress() {
    for _ in 0..RUNS {
        checkpoint::snapshot_fold_scenario(true);
    }
}

#[test]
fn election_two_candidates_fixed_stress() {
    for _ in 0..RUNS {
        election::two_candidate_scenario(true);
    }
}

#[test]
fn recovery_resteer_fixed_stress() {
    for _ in 0..RUNS {
        recovery::resteer_ack_scenario(true);
    }
}
