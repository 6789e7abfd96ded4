//! The Typhoon transport packet: an Ethernet frame with worker-ID MACs.
//!
//! Fig. 5 of the paper: `| dst worker ID | src worker ID | EtherType |
//! payload |`. Worker IDs are "filled with source/destination worker IDs
//! combined with application ID as an address prefix", and the EtherType is
//! a custom value (`0xffff`) "so that any unnecessary wildcards for unused
//! IPv4 header can be avoided in rule processing of SDN switches" (§3.4).

use crate::{NetError, Result};
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use typhoon_tuple::tuple::TaskId;

/// The custom EtherType carried by every Typhoon transport packet.
pub const TYPHOON_ETHERTYPE: u16 = 0xffff;

/// Header length: two MACs + EtherType + reserved trace-id field.
///
/// The extra 8 bytes after the EtherType carry the `typhoon-trace` trace id
/// (0 = untraced) so switches and receiving workers can record spans
/// without parsing the tuple payload — the same "reserved header field"
/// trick the paper uses for the application-ID address prefix.
pub const HEADER_LEN: usize = 22;

/// A 48-bit Ethernet-style address encoding `app_id:task_id`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff` — one-to-many delivery.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The SDN controller's logical address (for worker→controller
    /// PacketIn traffic such as `METRIC_RESP` control tuples).
    pub const CONTROLLER: MacAddr = MacAddr([0xfe, 0xff, 0xff, 0xff, 0xff, 0xff]);

    /// Builds a worker address: the application ID is the 2-byte prefix and
    /// the task ID the 4-byte suffix (Fig. 5).
    pub fn worker(app: u16, task: TaskId) -> Self {
        let mut b = [0u8; 6];
        b[..2].copy_from_slice(&app.to_be_bytes());
        b[2..].copy_from_slice(&task.0.to_be_bytes());
        MacAddr(b)
    }

    /// The application-ID prefix.
    pub fn app(self) -> u16 {
        u16::from_be_bytes([self.0[0], self.0[1]])
    }

    /// The task-ID suffix (meaningless for broadcast/controller addresses).
    pub fn task(self) -> TaskId {
        TaskId(u32::from_be_bytes([
            self.0[2], self.0[3], self.0[4], self.0[5],
        ]))
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// True for the controller address.
    pub fn is_controller(self) -> bool {
        self == Self::CONTROLLER
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            return write!(f, "BROADCAST");
        }
        if self.is_controller() {
            return write!(f, "CONTROLLER");
        }
        write!(f, "{}:{}", self.app(), self.task())
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// One transport packet. The payload is [`Bytes`], so cloning a frame for
/// broadcast replication shares the buffer instead of copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination worker address (or broadcast/controller).
    pub dst: MacAddr,
    /// Source worker address.
    pub src: MacAddr,
    /// EtherType; always [`TYPHOON_ETHERTYPE`] for tuple traffic.
    pub ethertype: u16,
    /// End-to-end trace id riding in the reserved header field (0 =
    /// untraced; see `typhoon-trace`).
    pub trace: u64,
    /// Packet payload (packetized tuples; see [`crate::packetize`]).
    pub payload: Bytes,
}

impl Frame {
    /// A Typhoon-EtherType frame (untraced).
    pub fn typhoon(src: MacAddr, dst: MacAddr, payload: Bytes) -> Self {
        Frame {
            dst,
            src,
            ethertype: TYPHOON_ETHERTYPE,
            trace: 0,
            payload,
        }
    }

    /// Sets the trace id carried in the reserved header field (builder
    /// style).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }

    /// Total on-wire length.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Serializes the frame to contiguous bytes (for tunnels).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the frame's [`Frame::wire_len`] wire bytes to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
        buf.put_u64(self.trace);
        buf.put_slice(&self.payload);
    }

    /// Parses a frame from contiguous bytes. The payload is a zero-copy
    /// slice of the input.
    pub fn decode(mut bytes: Bytes) -> Result<Frame> {
        if bytes.len() < HEADER_LEN {
            return Err(NetError::Malformed("frame shorter than header"));
        }
        let header = bytes.split_to(HEADER_LEN);
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&header[0..6]);
        src.copy_from_slice(&header[6..12]);
        let ethertype = u16::from_be_bytes([header[12], header[13]]);
        let trace = u64::from_be_bytes(header[14..22].try_into().expect("8-byte slice"));
        Ok(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            trace,
            payload: bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_address_roundtrips_app_and_task() {
        let mac = MacAddr::worker(7, TaskId(123_456));
        assert_eq!(mac.app(), 7);
        assert_eq!(mac.task(), TaskId(123_456));
        assert!(!mac.is_broadcast());
    }

    #[test]
    fn broadcast_and_controller_are_distinct_and_recognized() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::CONTROLLER.is_controller());
        assert_ne!(MacAddr::BROADCAST, MacAddr::CONTROLLER);
    }

    #[test]
    fn frame_encode_decode_roundtrip() {
        let f = Frame::typhoon(
            MacAddr::worker(1, TaskId(2)),
            MacAddr::worker(1, TaskId(3)),
            Bytes::from_static(b"payload-bytes"),
        );
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.ethertype, TYPHOON_ETHERTYPE);
    }

    #[test]
    fn trace_id_roundtrips_through_the_header() {
        let f = Frame::typhoon(
            MacAddr::worker(1, TaskId(2)),
            MacAddr::worker(1, TaskId(3)),
            Bytes::from_static(b"x"),
        )
        .with_trace(0xdead_beef_cafe_f00d);
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded.trace, 0xdead_beef_cafe_f00d);
        assert_eq!(decoded, f);
        // Untraced frames carry a zero field.
        let plain = Frame::typhoon(MacAddr::BROADCAST, MacAddr::BROADCAST, Bytes::new());
        assert_eq!(Frame::decode(plain.encode()).unwrap().trace, 0);
    }

    #[test]
    fn short_frame_is_malformed() {
        assert_eq!(
            Frame::decode(Bytes::from_static(b"short")).unwrap_err(),
            NetError::Malformed("frame shorter than header")
        );
    }

    #[test]
    fn empty_payload_is_legal() {
        let f = Frame::typhoon(
            MacAddr::worker(0, TaskId(0)),
            MacAddr::BROADCAST,
            Bytes::new(),
        );
        let decoded = Frame::decode(f.encode()).unwrap();
        assert!(decoded.payload.is_empty());
        assert_eq!(decoded.wire_len(), HEADER_LEN);
    }

    #[test]
    fn clone_shares_payload_storage() {
        let payload = Bytes::from(vec![0u8; 1024]);
        let f = Frame::typhoon(MacAddr::BROADCAST, MacAddr::BROADCAST, payload.clone());
        let g = f.clone();
        // Same backing buffer pointer — replication without copy.
        assert_eq!(f.payload.as_ptr(), g.payload.as_ptr());
        assert_eq!(payload.as_ptr(), g.payload.as_ptr());
    }

    #[test]
    fn display_formats_as_hex() {
        let mac = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
        assert_eq!(format!("{:?}", MacAddr::BROADCAST), "BROADCAST");
    }
}
