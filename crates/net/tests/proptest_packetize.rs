//! Property tests for the packetization layer: arbitrary tuple blobs over
//! arbitrary MTUs always round-trip in order and within the MTU bound, the
//! reassembler never panics on hostile frames, and its in-place walk
//! (`push_each`) hands over exactly what its collector (`push`) returns.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::VecDeque;
use typhoon_net::{Depacketizer, Frame, MacAddr, Packetizer};
use typhoon_tuple::tuple::TaskId;

fn src() -> MacAddr {
    MacAddr::worker(3, TaskId(1))
}

fn dst() -> MacAddr {
    MacAddr::worker(3, TaskId(2))
}

proptest! {
    #[test]
    fn pack_unpack_roundtrips_any_blobs(
        blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..4096),
            0..32
        ),
        mtu in 64usize..4096,
    ) {
        let blobs: Vec<Bytes> = blobs.into_iter().map(Bytes::from).collect();
        let p = Packetizer::new(mtu);
        let frames = p.pack(src(), dst(), &blobs);
        for f in &frames {
            prop_assert!(f.wire_len() <= mtu, "frame {} > mtu {mtu}", f.wire_len());
        }
        let mut d = Depacketizer::new();
        let mut out = Vec::new();
        for f in &frames {
            out.extend(d.push(f).expect("well-formed frames reassemble"));
        }
        prop_assert_eq!(d.pending_sources(), 0);
        prop_assert_eq!(out.len(), blobs.len());
        for ((from, got), want) in out.iter().zip(blobs.iter()) {
            prop_assert_eq!(*from, src());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn depacketizer_never_panics_on_garbage(
        payload in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let frame = Frame::typhoon(src(), dst(), Bytes::from(payload));
        let mut d = Depacketizer::new();
        let _ = d.push(&frame); // Err is fine; panic is not
    }

    #[test]
    fn frame_codec_roundtrips(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        src_mac in any::<[u8; 6]>(),
        dst_mac in any::<[u8; 6]>(),
        ethertype in any::<u16>(),
        trace in any::<u64>(),
    ) {
        let f = Frame {
            src: MacAddr(src_mac),
            dst: MacAddr(dst_mac),
            ethertype,
            trace,
            payload: Bytes::from(payload),
        };
        let decoded = Frame::decode(f.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, f);
    }

    #[test]
    fn interleaving_many_sources_reassembles_each(
        a in proptest::collection::vec(any::<u8>(), 200..900),
        b in proptest::collection::vec(any::<u8>(), 200..900),
        c in proptest::collection::vec(any::<u8>(), 200..900),
    ) {
        let p = Packetizer::new(128);
        let sources = [
            (MacAddr::worker(1, TaskId(1)), Bytes::from(a)),
            (MacAddr::worker(1, TaskId(2)), Bytes::from(b)),
            (MacAddr::worker(1, TaskId(3)), Bytes::from(c)),
        ];
        let mut streams: Vec<Vec<Frame>> = sources
            .iter()
            .map(|(mac, blob)| p.pack(*mac, dst(), std::slice::from_ref(blob)))
            .collect();
        // Round-robin interleave the three segment streams.
        let mut d = Depacketizer::new();
        let mut done: Vec<(MacAddr, Bytes)> = Vec::new();
        loop {
            let mut any = false;
            for s in streams.iter_mut() {
                if !s.is_empty() {
                    any = true;
                    done.extend(d.push(&s.remove(0)).expect("segments"));
                }
            }
            if !any {
                break;
            }
        }
        prop_assert_eq!(done.len(), 3);
        for (mac, blob) in &sources {
            let got = done.iter().find(|(m, _)| m == mac).expect("source present");
            prop_assert_eq!(&got.1, blob);
        }
    }

    #[test]
    fn push_each_walks_what_push_collects(
        // (source, length) of each tuple, in emission order
        tuples in proptest::collection::vec((0usize..3, 0usize..700), 0..24),
        mtu in 40usize..300,
        // which source's next frame goes on the wire, turn by turn
        picks in proptest::collection::vec(0usize..3, 0..64),
        // (frame, byte, new value) overwrites and (frame, new length) cuts
        overwrites in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<u8>()), 0..3),
        cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..2),
    ) {
        let p = Packetizer::new(mtu);
        let sources: Vec<MacAddr> = (1..=3).map(|t| MacAddr::worker(1, TaskId(t))).collect();
        let mut sent: Vec<Vec<Bytes>> = vec![Vec::new(); 3];
        for (k, &(s, len)) in tuples.iter().enumerate() {
            sent[s].push((0..len).map(|j| (k * 7 + j) as u8).collect::<Vec<u8>>().into());
        }
        let mut streams: Vec<VecDeque<Frame>> = (0..3)
            .map(|s| p.pack(sources[s], dst(), &sent[s]).into())
            .collect();
        let mut frames = Vec::new();
        for turn in 0.. {
            let want = picks.get(turn).copied().unwrap_or(turn);
            let Some(s) = (0..3).map(|j| (want + j) % 3).find(|&s| !streams[s].is_empty()) else {
                break;
            };
            frames.extend(streams[s].pop_front());
        }
        let clean = overwrites.is_empty() && cuts.is_empty();
        if !frames.is_empty() {
            let n = frames.len();
            for &(f, at, byte) in &overwrites {
                let mut payload = frames[f % n].payload.to_vec();
                if !payload.is_empty() {
                    let at = at % payload.len();
                    payload[at] = byte;
                }
                frames[f % n] = Frame::typhoon(frames[f % n].src, dst(), payload.into());
            }
            for &(f, len) in &cuts {
                let mut payload = frames[f % n].payload.to_vec();
                payload.truncate(len % (payload.len() + 1));
                frames[f % n] = Frame::typhoon(frames[f % n].src, dst(), payload.into());
            }
        }

        let (mut collector, mut walker) = (Depacketizer::new(), Depacketizer::new());
        let mut got: Vec<Vec<Bytes>> = vec![Vec::new(); 3];
        for frame in &frames {
            let mut walked = Vec::new();
            let result = walker.push_each(frame, |record| {
                walked.push((frame.src, Bytes::from(record.to_vec())));
            });
            match collector.push(frame) {
                Ok(records) => {
                    prop_assert_eq!(result, Ok(()));
                    prop_assert_eq!(&walked, &records);
                }
                Err(e) => prop_assert_eq!(result, Err(e)),
            }
            prop_assert_eq!(walker.pending_sources(), collector.pending_sources());
            for (src, record) in walked {
                let s = sources.iter().position(|m| *m == src).expect("a known source");
                got[s].push(record);
            }
        }
        if clean {
            prop_assert_eq!(got, sent);
            prop_assert_eq!(walker.pending_sources(), 0);
        }
    }
}
