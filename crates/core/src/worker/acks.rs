//! Ack records: the packed wire format of the two acker streams.
//!
//! An ack is a 16-byte `(root, xor)` record, not a tuple. A worker appends
//! the records a round produces to one buffer, which leaves as one
//! `StreamId::ACK` tuple, `[Bool(init), Blob(n × (root:u64, xor:u64) LE)]`;
//! when `init` (a spout's roots) the owner of every record is the sender,
//! `meta.src_task`. The acker answers with one `StreamId::ACK_RESULT` tuple
//! per (spout, round), `[Blob(n × (root:u64 LE, ok:u8))]`.
//!
//! Both messages are ordinary tuples, so the packetizer segments one that
//! outgrows the MTU and the fault injector can corrupt one. A blob that is
//! not a whole number of records is rejected whole: no decoder here yields
//! a partial record or panics.

use std::time::Instant;
use typhoon_tuple::tuple::TaskId;
use typhoon_tuple::{StreamId, Tuple, Value};

/// Wire size of one `(root, xor)` ack record.
pub const ACK_RECORD_LEN: usize = 16;
/// Wire size of one `(root, ok)` verdict record.
pub const VERDICT_RECORD_LEN: usize = 9;

fn u64_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("an 8-byte slice"))
}

/// Appends one `(root, xor)` record to an ack blob.
pub fn push_ack(blob: &mut Vec<u8>, root: u64, xor: u64) {
    blob.extend_from_slice(&root.to_le_bytes());
    blob.extend_from_slice(&xor.to_le_bytes());
}

/// Appends one `(root, ok)` record to a verdict blob.
pub fn push_verdict(blob: &mut Vec<u8>, root: u64, ok: bool) {
    blob.extend_from_slice(&root.to_le_bytes());
    blob.push(u8::from(ok));
}

/// The `(root, xor)` records of an ack blob; `None` when its length is not
/// a whole number of records.
pub fn ack_records(blob: &[u8]) -> Option<impl Iterator<Item = (u64, u64)> + '_> {
    blob.len().is_multiple_of(ACK_RECORD_LEN).then(|| {
        blob.chunks_exact(ACK_RECORD_LEN)
            .map(|r| (u64_at(r), u64_at(&r[8..])))
    })
}

/// The `(root, ok)` records of a verdict blob; `None` when its length is
/// not a whole number of records.
pub fn verdict_records(blob: &[u8]) -> Option<impl Iterator<Item = (u64, bool)> + '_> {
    blob.len().is_multiple_of(VERDICT_RECORD_LEN).then(|| {
        blob.chunks_exact(VERDICT_RECORD_LEN)
            .map(|r| (u64_at(r), r[8] != 0))
    })
}

/// The `ACK` tuple carrying `records` from `src`; `init` marks them as
/// `src`'s own new roots.
pub fn ack_message(src: TaskId, init: bool, records: Vec<u8>) -> Tuple {
    let values = vec![Value::Bool(init), Value::Blob(records)];
    Tuple::on_stream(src, StreamId::ACK, values)
}

/// Reads an `ACK` tuple: the owner its records name (the sender, when
/// `init`) and the records. `None` when the tuple is not a well-formed ack
/// message.
pub fn parse_ack_message(
    tuple: &Tuple,
) -> Option<(Option<TaskId>, impl Iterator<Item = (u64, u64)> + '_)> {
    let init = tuple.get(0)?.as_bool()?;
    let records = ack_records(tuple.get(1)?.as_blob()?)?;
    Some((init.then_some(tuple.meta.src_task), records))
}

/// The `ACK_RESULT` tuple carrying the acker `src`'s verdict `records`.
pub fn verdict_message(src: TaskId, records: Vec<u8>) -> Tuple {
    Tuple::on_stream(src, StreamId::ACK_RESULT, vec![Value::Blob(records)])
}

/// Reads an `ACK_RESULT` tuple; `None` when it is not a well-formed
/// verdict message.
pub fn parse_verdict_message(tuple: &Tuple) -> Option<impl Iterator<Item = (u64, bool)> + '_> {
    verdict_records(tuple.get(0)?.as_blob()?)
}

/// The ack records a worker has produced and not yet sent.
#[derive(Default)]
pub(crate) struct AckBuffer {
    blob: Vec<u8>,
    /// Age stamp, set by the first [`AckBuffer::oldest`] since it emptied.
    stamp: Option<Instant>,
}

impl AckBuffer {
    pub(crate) fn push(&mut self, root: u64, xor: u64) {
        push_ack(&mut self.blob, root, xor);
    }

    /// Buffered records.
    pub(crate) fn len(&self) -> usize {
        self.blob.len() / ACK_RECORD_LEN
    }

    /// The records' age stamp: the `now` of the first call that found them,
    /// the head of the round that pushed the oldest. `None` when empty.
    pub(crate) fn oldest(&mut self, now: Instant) -> Option<Instant> {
        (!self.blob.is_empty()).then(|| *self.stamp.get_or_insert(now))
    }

    /// Empties the buffer, returning its records as an ack blob.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.stamp = None;
        std::mem::take(&mut self.blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_ragged_blobs_are_rejected() {
        let mut acks = Vec::new();
        push_ack(&mut acks, 1, u64::MAX);
        push_ack(&mut acks, 0xdead_beef_0000_0100, 7);
        let got: Vec<_> = ack_records(&acks).expect("whole records").collect();
        assert_eq!(got, vec![(1, u64::MAX), (0xdead_beef_0000_0100, 7)]);
        assert!(ack_records(&acks[..ACK_RECORD_LEN + 3]).is_none());

        let mut verdicts = Vec::new();
        push_verdict(&mut verdicts, 9, true);
        push_verdict(&mut verdicts, 10, false);
        let got: Vec<_> = verdict_records(&verdicts).expect("whole records").collect();
        assert_eq!(got, vec![(9, true), (10, false)]);
        assert!(verdict_records(&verdicts[..VERDICT_RECORD_LEN - 1]).is_none());
    }

    #[test]
    fn only_an_init_names_its_sender_as_owner() {
        let mut blob = Vec::new();
        push_ack(&mut blob, 5, 6);
        let init = ack_message(TaskId(4), true, blob.clone());
        let (owner, records) = parse_ack_message(&init).expect("well-formed");
        assert_eq!((owner, records.count()), (Some(TaskId(4)), 1));
        let ack = ack_message(TaskId(4), false, blob);
        assert_eq!(parse_ack_message(&ack).expect("well-formed").0, None);
        // Ints where the flag and the blob belong: not an ack message.
        let old = Tuple::on_stream(TaskId(4), StreamId::ACK, vec![Value::Int(5), Value::Int(6)]);
        assert!(parse_ack_message(&old).is_none());
    }

    #[test]
    fn buffer_tracks_its_oldest_record() {
        let t0 = Instant::now();
        let later = t0 + std::time::Duration::from_millis(5);
        let mut buf = AckBuffer::default();
        assert_eq!((buf.len(), buf.oldest(t0)), (0, None));
        buf.push(1, 2);
        assert_eq!(buf.oldest(t0), Some(t0), "stamped by the first look");
        buf.push(3, 4);
        assert_eq!(buf.oldest(later), Some(t0), "a later record keeps it");
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.take().len(), 2 * ACK_RECORD_LEN);
        assert_eq!((buf.len(), buf.oldest(later)), (0, None));
        buf.push(5, 6);
        assert_eq!(buf.oldest(later), Some(later), "emptied: a fresh stamp");
    }
}
