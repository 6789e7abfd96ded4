//! Property tests on the ack record codec (`worker::acks`): arbitrary
//! record lists survive the whole wire path — tuple encode, segmentation
//! across frames, reassembly, decode — and a damaged blob or message
//! either decodes to whole records or is rejected; nothing panics and no
//! partial record is ever produced.

use bytes::Bytes;
use proptest::prelude::*;
use typhoon_core::worker::acks::{self, ACK_RECORD_LEN, VERDICT_RECORD_LEN};
use typhoon_net::{Depacketizer, MacAddr, Packetizer};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::tuple::TaskId;
use typhoon_tuple::Tuple;

/// More records than one 9000-byte jumbo frame holds (562 acks).
const MAX_RECORDS: usize = 1200;

/// One tuple through encode → 1500-byte frames → reassembly → decode.
fn over_the_wire(msg: &Tuple) -> Tuple {
    let ser = SerStats::default();
    let blob = Bytes::from(encode_tuple_vec(msg, &ser));
    let (src, dst) = (MacAddr::worker(1, TaskId(1)), MacAddr::worker(1, TaskId(2)));
    let mut depack = Depacketizer::new();
    let mut out = Vec::new();
    for frame in Packetizer::new(1500).pack(src, dst, std::slice::from_ref(&blob)) {
        out.extend(depack.push(&frame).expect("frames of one pack call"));
    }
    assert_eq!(out.len(), 1, "one message in, one message out");
    decode_tuple(&out[0].1, &ser).expect("undamaged").0
}

fn ack_blob(records: &[(u64, u64)]) -> Vec<u8> {
    let mut blob = Vec::new();
    for &(root, xor) in records {
        acks::push_ack(&mut blob, root, xor);
    }
    blob
}

fn verdict_blob(records: &[(u64, bool)]) -> Vec<u8> {
    let mut blob = Vec::new();
    for &(root, ok) in records {
        acks::push_verdict(&mut blob, root, ok);
    }
    blob
}

/// Cuts `blob` to `keep` bytes (modulo its length) and XORs `flip` into
/// the byte at `at` (likewise), when one is left.
fn damage(mut blob: Vec<u8>, keep: usize, at: usize, flip: u8) -> Vec<u8> {
    blob.truncate(keep % (blob.len() + 1));
    if !blob.is_empty() {
        let at = at % blob.len();
        blob[at] ^= flip;
    }
    blob
}

proptest! {
    #[test]
    fn ack_messages_round_trip(
        records in prop::collection::vec((any::<u64>(), any::<u64>()), 0..MAX_RECORDS),
        src in any::<u32>(),
        init in any::<bool>(),
    ) {
        let sent = acks::ack_message(TaskId(src), init, ack_blob(&records));
        let got = over_the_wire(&sent);
        let (owner, decoded) = acks::parse_ack_message(&got).expect("well-formed");
        prop_assert_eq!(owner, init.then_some(TaskId(src)));
        prop_assert_eq!(decoded.collect::<Vec<_>>(), records);
    }

    #[test]
    fn verdict_messages_round_trip(
        records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..MAX_RECORDS),
    ) {
        let sent = acks::verdict_message(TaskId(9), verdict_blob(&records));
        let got = over_the_wire(&sent);
        let decoded = acks::parse_verdict_message(&got).expect("well-formed");
        prop_assert_eq!(decoded.collect::<Vec<_>>(), records);
    }

    #[test]
    fn damaged_ack_blobs_are_whole_records_or_rejected(
        records in prop::collection::vec((any::<u64>(), any::<u64>()), 0..40),
        keep in any::<usize>(),
        at in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let blob = damage(ack_blob(&records), keep, at, flip);
        match acks::ack_records(&blob) {
            None => prop_assert_ne!(blob.len() % ACK_RECORD_LEN, 0),
            // Whole records only: re-encoding them gives the blob back.
            Some(decoded) => prop_assert_eq!(&ack_blob(&decoded.collect::<Vec<_>>()), &blob),
        };
    }

    #[test]
    fn damaged_verdict_blobs_are_whole_records_or_rejected(
        records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..40),
        keep in any::<usize>(),
        at in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let blob = damage(verdict_blob(&records), keep, at, flip);
        match acks::verdict_records(&blob) {
            None => prop_assert_ne!(blob.len() % VERDICT_RECORD_LEN, 0),
            Some(decoded) => {
                let decoded: Vec<_> = decoded.collect();
                prop_assert_eq!(decoded.len() * VERDICT_RECORD_LEN, blob.len());
                for (record, bytes) in decoded.iter().zip(blob.chunks(VERDICT_RECORD_LEN)) {
                    prop_assert_eq!(&record.0.to_le_bytes()[..], &bytes[..8]);
                    prop_assert_eq!(record.1, bytes[8] != 0);
                }
            }
        };
    }

    /// What the fault injector does: damage the serialized message. If it
    /// still decodes as a tuple, the ack parsers accept it whole or not at
    /// all.
    #[test]
    fn damaged_messages_never_yield_partial_records(
        records in prop::collection::vec((any::<u64>(), any::<u64>()), 0..40),
        keep in any::<usize>(),
        at in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let ser = SerStats::default();
        let sent = acks::ack_message(TaskId(3), true, ack_blob(&records));
        let wire = damage(encode_tuple_vec(&sent, &ser), keep, at, flip);
        if let Ok((tuple, _)) = decode_tuple(&wire, &ser) {
            let blob_len = tuple.get(1).and_then(|v| v.as_blob()).map(<[u8]>::len);
            if let Some((_, decoded)) = acks::parse_ack_message(&tuple) {
                prop_assert_eq!(Some(decoded.count() * ACK_RECORD_LEN), blob_len);
            }
            // Read as a verdict message, its first value is no blob.
            prop_assert!(
                acks::parse_verdict_message(&tuple).is_none()
                    || tuple.get(0).and_then(|v| v.as_blob()).is_some()
            );
        }
    }
}
