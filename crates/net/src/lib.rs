//! # typhoon-net — frames, packetization, rings and host tunnels
//!
//! The network substrate under the Typhoon data plane (Fig. 5 and Fig. 7 of
//! the paper):
//!
//! * [`frame`] — the custom Ethernet-format transport packet: worker IDs
//!   (application ID prefix + task ID) as MAC addresses, a custom EtherType
//!   `0xffff`, and a [`bytes::Bytes`] payload so that switch-level
//!   replication is a reference-count bump rather than a copy — the
//!   mechanism behind serialization-free one-to-many delivery.
//! * [`packetize`] — the southbound transport library's payload format:
//!   multiplexing several small tuples into one packet, segmenting large
//!   tuples across packets, and the matching reassembler.
//! * [`mod@ring`] — DPDK-style bounded ring ports carrying frames from
//!   their host's software switch to its workers. Overflow drops are counted, not hidden,
//!   modelling the TX/RX overflow discussion of §8.
//! * [`doorbell`] — the wake-up primitive of every poll loop: a consumer
//!   that found nothing to do arms its [`Doorbell`], re-checks its sources
//!   and parks; producers ring after handing work over. Rings and tunnels
//!   ring it, so an idle hop costs a wake-up, not a timer period.
//! * [`round`] — the one loop every long-lived thread runs: a [`Round`]
//!   says what comes next, [`round::run`] reads the clock, parks on the
//!   round's doorbell and counts `loop.*`; a [`Runner`] owns it on a thread
//!   of its own and stops and joins it on drop.
//! * [`tunnel`] — host-level tunnels that carry frames between compute
//!   hosts: a real TCP implementation (loopback in experiments), whose
//!   reader thread can hand each decoded batch straight to its switch, and
//!   an in-memory implementation behind one trait.
//! * [`fault`] — the chaos layer: a [`FaultInjector`] tunnel wrapper with
//!   a seeded, deterministic, runtime-switchable [`FaultPlan`] (drop /
//!   delay / duplicate / corrupt / stall / hard-partition per direction)
//!   used to prove the Fig. 10 recovery path under induced faults.

#![warn(missing_docs)]

pub mod doorbell;
pub mod fault;
pub mod frame;
pub mod packetize;
pub mod ring;
pub mod round;
mod runner;
mod sync;
pub mod tunnel;

pub use doorbell::{BellSlot, Doorbell};
pub use fault::{ChaosHandle, FaultInjector, FaultPlan, FaultSpec, KillClass, KillSpec};
pub use frame::{Frame, MacAddr, TYPHOON_ETHERTYPE};
pub use packetize::{Depacketizer, Packetizer};
pub use ring::{ring, ring_with_bell, RingConsumer, RingProducer, RingStats};
pub use round::{Next, Round, Signal, Stop};
pub use runner::Runner;
pub use tunnel::{InMemoryTunnel, TcpTunnel, Tunnel, TunnelConfig, TunnelIngress};

/// Why a tunnel entered its broken (fail-fast) state.
///
/// Recorded once, by whichever side of the tunnel first observed the
/// fault; every later `send`/`try_recv` echoes it back so operators can
/// distinguish a clean peer close from stream corruption or a stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeardownCause {
    /// The peer closed the connection (EOF on the reader).
    PeerClosed,
    /// A length prefix exceeded the frame bound — the stream is misframed
    /// or corrupt.
    CorruptLength,
    /// A frame body failed to decode — the stream is misframed or corrupt.
    DecodeError,
    /// A socket read/write error (including a partial write that left the
    /// stream misframed).
    Io,
    /// A write did not complete within the configured write timeout (a
    /// stalled peer must not block `send` forever).
    WriteTimeout,
    /// An injected hard partition ([`fault::FaultInjector`]).
    Partitioned,
}

impl TeardownCause {
    /// Stable metric-name suffix: `net.tunnel.teardown.<label>`.
    pub fn label(self) -> &'static str {
        match self {
            TeardownCause::PeerClosed => "peer_closed",
            TeardownCause::CorruptLength => "corrupt_len",
            TeardownCause::DecodeError => "decode_error",
            TeardownCause::Io => "io_error",
            TeardownCause::WriteTimeout => "write_timeout",
            TeardownCause::Partitioned => "partitioned",
        }
    }
}

impl std::fmt::Display for TeardownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from the network substrate.
#[derive(Debug)]
pub enum NetError {
    /// A frame was shorter than the Ethernet header or declared lengths
    /// exceeded the payload.
    Malformed(&'static str),
    /// A ring was full and the frame was dropped.
    RingFull,
    /// The peer end of a tunnel or ring is gone.
    Disconnected,
    /// The tunnel is poisoned: an earlier fault made its stream unusable
    /// and every operation now fails fast instead of misframing or
    /// hanging.
    Broken(TeardownCause),
    /// Underlying socket error (TCP tunnels).
    Io(std::io::Error),
}

impl PartialEq for NetError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (NetError::Broken(a), NetError::Broken(b)) => a == b,
            _ => matches!(
                (self, other),
                (NetError::Malformed(_), NetError::Malformed(_))
                    | (NetError::RingFull, NetError::RingFull)
                    | (NetError::Disconnected, NetError::Disconnected)
                    | (NetError::Io(_), NetError::Io(_))
            ),
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Malformed(what) => write!(f, "malformed frame: {what}"),
            NetError::RingFull => write!(f, "ring full, frame dropped"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Broken(cause) => write!(f, "tunnel broken: {cause}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NetError>;
