//! Property test for the ring: random sequences of `push` / `push_batch` /
//! `pop` / `pop_batch` / close-from-either-half / drop against a `VecDeque`
//! model. Pins, after every step: FIFO order; `enqueued == dequeued + len`;
//! a `push_batch` is attempted whole (`enqueued + dropped == offered`) or
//! refused whole (`disconnected`, the batch handed back intact), never a
//! mixture; `Disconnected` iff closed and empty; and the bell rings for
//! every hand-over that enqueued a frame and for the first close, and for
//! nothing else. (That each of those is *one* ring is pinned by the unit
//! test `push_batch_and_close_ring_exactly_once`, which can read the
//! crate-private ring counter.) Each case runs on one of the ring's two
//! instantiations: `Frame`s (worker ports) or `Bytes` (the control channel).

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::time::Instant;
use typhoon_net::ring::RingItem;
use typhoon_net::{ring_with_bell, Doorbell, Frame, MacAddr, NetError};
use typhoon_tuple::tuple::TaskId;

#[derive(Debug, Clone)]
enum Op {
    Push,
    PushBatch(usize),
    Pop,
    PopBatch(usize),
    CloseTx,
    CloseRx,
    DropTx,
    DropRx,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Closes are rare so most of a sequence runs on an open ring.
    proptest::collection::vec(
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            (0usize..7).prop_map(Op::PushBatch),
            (0usize..7).prop_map(Op::PushBatch),
            Just(Op::Pop),
            (0usize..7).prop_map(Op::PopBatch),
            (0usize..7).prop_map(Op::PopBatch),
            (0usize..16).prop_map(|n| match n {
                0 => Op::CloseTx,
                1 => Op::CloseRx,
                2 => Op::DropTx,
                3 => Op::DropRx,
                _ => Op::Pop,
            }),
        ],
        0..80,
    )
}

fn frame(seq: u16) -> Frame {
    Frame::typhoon(
        MacAddr::worker(0, TaskId(0)),
        MacAddr::worker(0, TaskId(1)),
        bytes(seq),
    )
}

fn frame_seq(f: &Frame) -> u16 {
    bytes_seq(&f.payload)
}

fn bytes(seq: u16) -> Bytes {
    Bytes::from(seq.to_be_bytes().to_vec())
}

fn bytes_seq(b: &Bytes) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

/// Runs `op` and reports whether it rang `bell`: with the deadline already
/// past, `wait` arms, runs the closure as its re-check, never parks, and
/// returns whether a ringer disarmed it in between.
fn rang<T>(bell: &Doorbell, op: impl FnOnce() -> T) -> (bool, T) {
    let mut result = None;
    let rung = bell.wait(Some(Instant::now()), || {
        result = Some(op());
        true
    });
    (rung, result.expect("wait runs its re-check"))
}

proptest! {
    #[test]
    fn random_op_sequences_match_a_vecdeque_model(
        ops in arb_ops(),
        capacity in 1usize..6,
        control in any::<bool>(),
    ) {
        if control {
            check_against_model(ops, capacity, bytes, bytes_seq);
        } else {
            check_against_model(ops, capacity, frame, frame_seq);
        }
    }
}

fn check_against_model<T: RingItem + std::fmt::Debug + PartialEq>(
    ops: Vec<Op>,
    capacity: usize,
    item: fn(u16) -> T,
    seq_of: fn(&T) -> u16,
) {
    let bell = Doorbell::new();
    let (tx, rx) = ring_with_bell(capacity, bell.clone());
    let (mut tx, mut rx) = (Some(tx), Some(rx));
    let mut model: VecDeque<u16> = VecDeque::new();
    let mut closed = false;
    let (mut enqueued, mut dequeued, mut dropped) = (0u64, 0u64, 0u64);
    let mut next_seq = 0u16;
    let wire_len = item(0).wire_len() as u64;

    for op in ops {
        match op {
            Op::Push => {
                let Some(tx) = &tx else { continue };
                let (rung, result) = rang(&bell, || tx.push(item(next_seq)));
                if closed {
                    prop_assert_eq!(result, Err(NetError::Disconnected));
                    prop_assert!(!rung);
                } else if model.len() == capacity {
                    prop_assert_eq!(result, Err(NetError::RingFull));
                    prop_assert!(!rung, "a dropped frame wakes nobody");
                    dropped += 1;
                } else {
                    prop_assert_eq!(result, Ok(()));
                    prop_assert!(rung, "a hand-over rings");
                    model.push_back(next_seq);
                    enqueued += 1;
                }
                next_seq += 1;
            }
            Op::PushBatch(n) => {
                let Some(tx) = &tx else { continue };
                let offered: Vec<u16> = (next_seq..next_seq + n as u16).collect();
                next_seq += n as u16;
                let mut batch: Vec<T> = offered.iter().copied().map(item).collect();
                let (rung, res) = rang(&bell, || tx.push_batch(&mut batch));
                if closed {
                    prop_assert!(res.disconnected);
                    prop_assert_eq!((res.enqueued, res.enqueued_bytes, res.dropped), (0, 0, 0));
                    let back: Vec<u16> = batch.iter().map(seq_of).collect();
                    prop_assert_eq!(back, offered, "a refused batch comes back intact");
                    prop_assert!(!rung);
                } else {
                    let fits = n.min(capacity - model.len());
                    prop_assert!(!res.disconnected);
                    prop_assert_eq!((res.enqueued, res.dropped), (fits, n - fits));
                    prop_assert_eq!(res.enqueued_bytes, fits as u64 * wire_len);
                    prop_assert!(batch.is_empty(), "an attempted batch is consumed whole");
                    prop_assert_eq!(rung, fits > 0, "one ring per batch that enqueued");
                    model.extend(&offered[..fits]);
                    enqueued += fits as u64;
                    dropped += (n - fits) as u64;
                }
            }
            Op::Pop => {
                let Some(rx) = &rx else { continue };
                let got = rx.pop();
                match model.pop_front() {
                    Some(seq) => {
                        prop_assert_eq!(got.map(|f| f.map(|f| seq_of(&f))), Ok(Some(seq)));
                        dequeued += 1;
                    }
                    None if closed => prop_assert_eq!(got, Err(NetError::Disconnected)),
                    None => prop_assert_eq!(got, Ok(None)),
                }
            }
            Op::PopBatch(max) => {
                let Some(rx) = &rx else { continue };
                let mut out = Vec::new();
                let got = rx.pop_batch(&mut out, max);
                let n = max.min(model.len());
                if n == 0 && max > 0 && closed {
                    prop_assert_eq!(got, Err(NetError::Disconnected));
                    prop_assert!(out.is_empty());
                } else {
                    prop_assert_eq!(got, Ok(n));
                    let want: Vec<u16> = model.drain(..n).collect();
                    let seqs: Vec<u16> = out.iter().map(seq_of).collect();
                    prop_assert_eq!(seqs, want, "FIFO");
                    dequeued += n as u64;
                }
            }
            Op::CloseTx | Op::CloseRx | Op::DropTx | Op::DropRx => {
                // A half that was already dropped cannot close again.
                let present = match op {
                    Op::CloseTx | Op::DropTx => tx.is_some(),
                    _ => rx.is_some(),
                };
                let (rung, ()) = rang(&bell, || match op {
                    Op::CloseTx => tx.iter().for_each(|tx| tx.close()),
                    Op::CloseRx => rx.iter().for_each(|rx| rx.close()),
                    Op::DropTx => tx = None,
                    _ => rx = None,
                });
                prop_assert_eq!(rung, present && !closed, "only the first close rings");
                closed |= present;
            }
        }

        let stats = match (&tx, &rx) {
            (Some(tx), _) => tx.stats(),
            (None, Some(rx)) => rx.stats(),
            (None, None) => break,
        };
        prop_assert_eq!(stats, (enqueued, dequeued, dropped));
        prop_assert_eq!(enqueued, dequeued + model.len() as u64);
        if let Some(tx) = &tx {
            prop_assert_eq!(tx.is_closed(), closed);
        }
        if let Some(rx) = &rx {
            prop_assert_eq!(rx.is_closed(), closed);
            prop_assert_eq!((rx.len(), rx.is_empty()), (model.len(), model.is_empty()));
        }
    }
}
