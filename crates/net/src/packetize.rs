//! Packetization: tuples ↔ packet payloads.
//!
//! Implements the southbound transport library's payload handling (§5,
//! "egress/ingress workflow"): *multiplexing* — "multiple small tuples with
//! the same source/destination IDs are packed into one packet" — and
//! *segmentation* — "one large tuple is segmented into multiple packets".
//!
//! ## Payload record format
//!
//! A packet payload is a sequence of records, each a chunk of one encoded
//! tuple:
//!
//! ```text
//! record := total_len:u32 offset:u32 chunk_len:u32 chunk_bytes
//! ```
//!
//! `offset == 0 && chunk_len == total_len` is the common unsegmented case:
//! the worker's emit path writes it in place ([`Packetizer::push_record`]),
//! so only a tuple larger than a frame is segmented ([`Packetizer::pack`]).
//! Reassembly relies on in-order delivery per source, which both rings and
//! TCP tunnels guarantee.

use crate::frame::{Frame, MacAddr, HEADER_LEN};
use crate::{NetError, Result};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::ops::Range;

/// Per-record header length.
const RECORD_HEADER: usize = 12;

/// Packs encoded tuples into MTU-bounded frames.
#[derive(Debug, Clone)]
pub struct Packetizer {
    mtu: usize,
}

impl Packetizer {
    /// Creates a packetizer for a given MTU (total frame length bound).
    ///
    /// # Panics
    /// Panics when the MTU cannot hold the Ethernet header plus one record
    /// header plus at least one payload byte.
    pub fn new(mtu: usize) -> Self {
        assert!(
            mtu > HEADER_LEN + RECORD_HEADER,
            "mtu {mtu} cannot carry any payload"
        );
        Packetizer { mtu }
    }

    /// The configured MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Packs `tuples` (already-serialized tuple byte blobs) addressed
    /// `src → dst` into as few frames as possible.
    pub fn pack(&self, src: MacAddr, dst: MacAddr, tuples: &[Bytes]) -> Vec<Frame> {
        let capacity = self.mtu - HEADER_LEN;
        let mut frames = Vec::new();
        let mut payload = BytesMut::with_capacity(capacity.min(4096));

        let flush = |payload: &mut BytesMut, frames: &mut Vec<Frame>| {
            if !payload.is_empty() {
                frames.push(Frame::typhoon(src, dst, payload.split().freeze()));
            }
        };

        for tuple in tuples {
            let total = tuple.len();
            let mut offset = 0usize;
            loop {
                let room = capacity - payload.len();
                if room <= RECORD_HEADER {
                    flush(&mut payload, &mut frames);
                    continue;
                }
                let chunk = (total - offset).min(room - RECORD_HEADER);
                payload.put_u32(total as u32);
                payload.put_u32(offset as u32);
                payload.put_u32(chunk as u32);
                payload.put_slice(&tuple[offset..offset + chunk]);
                offset += chunk;
                if offset == total {
                    break;
                }
                // Tuple continues in the next frame.
                flush(&mut payload, &mut frames);
            }
        }
        flush(&mut payload, &mut frames);
        frames
    }

    /// Appends one tuple to `open`, the payload of the frame under
    /// construction `src → dst`, as one whole record whose bytes `encode`
    /// writes in place. A record that does not fit behind the ones already
    /// there closes `open` into `full` and starts the next frame; a tuple
    /// larger than a frame is segmented into `full` by [`Packetizer::pack`].
    /// Frames in `full` go on the wire before `open`.
    pub fn push_record(
        &self,
        src: MacAddr,
        dst: MacAddr,
        open: &mut Vec<u8>,
        full: &mut Vec<Frame>,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let room = self.mtu - HEADER_LEN;
        if open.capacity() == 0 {
            open.reserve_exact(room);
        }
        let start = open.len();
        open.extend_from_slice(&[0; RECORD_HEADER]);
        encode(open);
        let len = open.len() - start - RECORD_HEADER;
        // total_len = chunk_len, offset 0: an unsegmented record.
        open[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
        open[start + 8..start + RECORD_HEADER].copy_from_slice(&(len as u32).to_be_bytes());
        if open.len() <= room {
            return;
        }
        if RECORD_HEADER + len > room {
            let tuple = Bytes::from(open[start + RECORD_HEADER..].to_vec());
            open.truncate(start);
            Self::close(src, dst, open, full);
            full.extend(self.pack(src, dst, &[tuple]));
            return;
        }
        let mut next = Vec::with_capacity(room);
        next.extend_from_slice(&open[start..]);
        open.truncate(start);
        let filled = std::mem::replace(open, next);
        full.push(Frame::typhoon(src, dst, Bytes::from(filled)));
    }

    /// Closes the frame under construction into `full`, if it holds a
    /// record; `open` restarts empty.
    pub fn close(src: MacAddr, dst: MacAddr, open: &mut Vec<u8>, full: &mut Vec<Frame>) {
        if !open.is_empty() {
            full.push(Frame::typhoon(src, dst, Bytes::from(std::mem::take(open))));
        }
    }
}

impl Default for Packetizer {
    /// Jumbo-frame MTU, matching the DPDK OVS deployment of the prototype.
    fn default() -> Self {
        Packetizer::new(9000)
    }
}

/// A record the walk completed: a range of the frame's payload, or a tuple
/// reassembled from segments.
enum Record {
    InFrame(Range<usize>),
    Reassembled(BytesMut),
}

#[derive(Debug, Default)]
struct Partial {
    total: usize,
    buf: BytesMut,
}

/// Reassembles tuple byte blobs from packet payloads.
///
/// Keeps one partial-tuple buffer per source worker; interleaved sources
/// are fine, interleaved tuples from *one* source are a protocol violation
/// (the packetizer never produces them).
#[derive(Debug, Default)]
pub struct Depacketizer {
    partial: HashMap<MacAddr, Partial>,
}

impl Depacketizer {
    /// A fresh reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks one frame's records in place, handing `each` every tuple it
    /// completes, in order; all of them come from `frame.src`. An
    /// unsegmented record is a slice of the frame; a segmented one is
    /// reassembled per source and handed over from that buffer. A malformed
    /// record ends the walk with `Err` after the records before it were
    /// handed over.
    pub fn push_each(&mut self, frame: &Frame, mut each: impl FnMut(&[u8])) -> Result<()> {
        self.walk(frame, |record| match record {
            Record::InFrame(range) => each(&frame.payload[range]),
            Record::Reassembled(buf) => each(&buf),
        })
    }

    /// [`Depacketizer::push_each`] collected: every tuple blob the frame
    /// completed, tagged with the source address; an unsegmented one is a
    /// zero-copy slice of the frame. `Err` on a malformed record, which
    /// drops the records before it: a caller that must keep them walks.
    pub fn push(&mut self, frame: &Frame) -> Result<Vec<(MacAddr, Bytes)>> {
        let mut out = Vec::new();
        self.walk(frame, |record| {
            out.push((
                frame.src,
                match record {
                    Record::InFrame(range) => frame.payload.slice(range),
                    Record::Reassembled(buf) => buf.freeze(),
                },
            ))
        })?;
        Ok(out)
    }

    /// The one record walk behind [`Depacketizer::push_each`] and
    /// [`Depacketizer::push`].
    fn walk(&mut self, frame: &Frame, mut each: impl FnMut(Record)) -> Result<()> {
        let payload = &frame.payload[..];
        let mut at = 0;
        while at < payload.len() {
            let Some(header) = payload.get(at..at + RECORD_HEADER) else {
                return Err(NetError::Malformed("record header truncated"));
            };
            let field = |i: usize| u32::from_be_bytes(header[i..i + 4].try_into().unwrap());
            let (total, offset, chunk_len) =
                (field(0) as usize, field(4) as usize, field(8) as usize);
            at += RECORD_HEADER;
            if chunk_len > payload.len() - at {
                return Err(NetError::Malformed("record chunk exceeds payload"));
            }
            if offset + chunk_len > total {
                return Err(NetError::Malformed("record chunk exceeds tuple length"));
            }
            let chunk = at..at + chunk_len;
            at = chunk.end;
            if offset == 0 && chunk_len == total {
                // Fast path: an unsegmented tuple, in place.
                each(Record::InFrame(chunk));
                continue;
            }
            let partial = self.partial.entry(frame.src).or_default();
            if offset == 0 {
                partial.total = total;
                partial.buf.clear();
            } else if partial.total != total || partial.buf.len() != offset {
                self.partial.remove(&frame.src);
                return Err(NetError::Malformed("out-of-order segment"));
            }
            partial.buf.extend_from_slice(&payload[chunk]);
            if partial.buf.len() == total {
                let complete = self.partial.remove(&frame.src).expect("present").buf;
                each(Record::Reassembled(complete));
            }
        }
        Ok(())
    }

    /// Number of sources with an incomplete tuple (observability hook).
    pub fn pending_sources(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_tuple::tuple::TaskId;

    fn src() -> MacAddr {
        MacAddr::worker(1, TaskId(10))
    }

    fn dst() -> MacAddr {
        MacAddr::worker(1, TaskId(20))
    }

    fn roundtrip(mtu: usize, tuples: Vec<Bytes>) -> Vec<Bytes> {
        let p = Packetizer::new(mtu);
        let frames = p.pack(src(), dst(), &tuples);
        for f in &frames {
            assert!(f.wire_len() <= mtu, "frame exceeds MTU");
            assert_eq!(f.src, src());
            assert_eq!(f.dst, dst());
        }
        let mut d = Depacketizer::new();
        let mut out = Vec::new();
        for f in &frames {
            for (from, blob) in d.push(f).unwrap() {
                assert_eq!(from, src());
                out.push(blob);
            }
        }
        assert_eq!(d.pending_sources(), 0, "nothing left half-assembled");
        out
    }

    #[test]
    fn small_tuples_multiplex_into_one_frame() {
        let tuples: Vec<Bytes> = (0..10).map(|i| Bytes::from(vec![i as u8; 20])).collect();
        let p = Packetizer::new(1500);
        let frames = p.pack(src(), dst(), &tuples);
        assert_eq!(frames.len(), 1, "10×32B fits one 1500B frame");
        assert_eq!(roundtrip(1500, tuples.clone()), tuples);
    }

    #[test]
    fn large_tuple_segments_across_frames() {
        let big = Bytes::from(vec![0xabu8; 5000]);
        let p = Packetizer::new(1500);
        let frames = p.pack(src(), dst(), std::slice::from_ref(&big));
        assert!(frames.len() >= 4, "5000B over 1500B MTU needs ≥4 frames");
        assert_eq!(roundtrip(1500, vec![big.clone()]), vec![big]);
    }

    #[test]
    fn mixed_sizes_roundtrip_in_order() {
        let tuples = vec![
            Bytes::from(vec![1u8; 10]),
            Bytes::from(vec![2u8; 3000]),
            Bytes::from(vec![3u8; 1]),
            Bytes::from(vec![4u8; 1486]), // exactly fills a 1500 frame less headers
            Bytes::new(),
        ];
        assert_eq!(roundtrip(1500, tuples.clone()), tuples);
    }

    #[test]
    fn interleaved_sources_reassemble_independently() {
        let p = Packetizer::new(100);
        let a = Bytes::from(vec![0xaau8; 200]);
        let b = Bytes::from(vec![0xbbu8; 200]);
        let src_a = MacAddr::worker(1, TaskId(1));
        let src_b = MacAddr::worker(1, TaskId(2));
        let frames_a = p.pack(src_a, dst(), std::slice::from_ref(&a));
        let frames_b = p.pack(src_b, dst(), std::slice::from_ref(&b));
        let mut d = Depacketizer::new();
        let mut done = Vec::new();
        // Interleave the two segment streams.
        for (fa, fb) in frames_a.iter().zip(frames_b.iter()) {
            done.extend(d.push(fa).unwrap());
            done.extend(d.push(fb).unwrap());
        }
        for f in frames_a.iter().skip(frames_b.len()) {
            done.extend(d.push(f).unwrap());
        }
        for f in frames_b.iter().skip(frames_a.len()) {
            done.extend(d.push(f).unwrap());
        }
        assert_eq!(done.len(), 2);
        let got_a = done.iter().find(|(s, _)| *s == src_a).unwrap();
        assert_eq!(got_a.1, a);
        let got_b = done.iter().find(|(s, _)| *s == src_b).unwrap();
        assert_eq!(got_b.1, b);
    }

    #[test]
    fn out_of_order_segment_is_rejected_and_state_cleared() {
        let p = Packetizer::new(100);
        let big = Bytes::from(vec![7u8; 300]);
        let frames = p.pack(src(), dst(), std::slice::from_ref(&big));
        assert!(frames.len() >= 3);
        let mut d = Depacketizer::new();
        d.push(&frames[0]).unwrap();
        // Skip frame 1 → frame 2's offset won't match the partial buffer.
        let err = d.push(&frames[2]).unwrap_err();
        assert_eq!(err, NetError::Malformed("out-of-order segment"));
        assert_eq!(d.pending_sources(), 0);
    }

    #[test]
    fn corrupt_record_headers_are_rejected() {
        let mut d = Depacketizer::new();
        // Truncated header.
        let f = Frame::typhoon(src(), dst(), Bytes::from_static(&[0, 0, 1]));
        assert!(d.push(&f).is_err());
        // Declared chunk bigger than payload.
        let mut payload = BytesMut::new();
        payload.put_u32(100);
        payload.put_u32(0);
        payload.put_u32(100);
        payload.put_slice(&[0u8; 10]);
        let f = Frame::typhoon(src(), dst(), payload.freeze());
        assert!(d.push(&f).is_err());
        // chunk beyond declared total.
        let mut payload = BytesMut::new();
        payload.put_u32(4);
        payload.put_u32(2);
        payload.put_u32(8);
        payload.put_slice(&[0u8; 8]);
        let f = Frame::typhoon(src(), dst(), payload.freeze());
        assert!(d.push(&f).is_err());
    }

    #[test]
    fn a_malformed_record_keeps_the_records_before_it() {
        let good = [Bytes::from_static(b"one"), Bytes::from_static(b"two")];
        let frame = &Packetizer::default().pack(src(), dst(), &good)[0];
        let mut payload = BytesMut::new();
        payload.extend_from_slice(&frame.payload);
        payload.extend_from_slice(&[0, 0, 1]); // a truncated third header
        let f = Frame::typhoon(src(), dst(), payload.freeze());
        let mut d = Depacketizer::new();
        let mut walked = Vec::new();
        let err = d.push_each(&f, |record| walked.push(record.to_vec()));
        assert_eq!(err, Err(NetError::Malformed("record header truncated")));
        assert_eq!(walked, [b"one".to_vec(), b"two".to_vec()]);
        assert!(d.push(&f).is_err(), "the collector still reports it");
    }

    #[test]
    #[should_panic(expected = "cannot carry any payload")]
    fn tiny_mtu_rejected() {
        let _ = Packetizer::new(20);
    }

    #[test]
    fn unsegmented_fast_path_is_zero_copy() {
        let tuple = Bytes::from(vec![9u8; 64]);
        let p = Packetizer::default();
        let frames = p.pack(src(), dst(), std::slice::from_ref(&tuple));
        let mut d = Depacketizer::new();
        let out = d.push(&frames[0]).unwrap();
        // The output blob points into the frame payload's buffer.
        let payload_range = frames[0].payload.as_ptr() as usize
            ..frames[0].payload.as_ptr() as usize + frames[0].payload.len();
        assert!(payload_range.contains(&(out[0].1.as_ptr() as usize)));
    }
}
