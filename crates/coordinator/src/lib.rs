//! # typhoon-coordinator — the central coordination service
//!
//! A from-scratch, in-process reimplementation of the ZooKeeper role the
//! paper's prototype delegates to Apache ZooKeeper (§5 "Central
//! coordinator"): a hierarchical store of versioned *znodes* with watches,
//! sessions and ephemeral nodes.
//!
//! Every Typhoon component is coordinated through this service exactly as in
//! Table 1 of the paper:
//!
//! | state | writers | readers |
//! |---|---|---|
//! | logical topology | streaming manager, SDN controller | streaming manager, SDN controller |
//! | physical topology | streaming manager | SDN controller, worker agents, workers |
//! | worker agents | worker agents | streaming manager, SDN controller |
//!
//! * [`store`] — the znode tree: create/get/set/delete/children with
//!   per-node versions and optimistic compare-and-set.
//! * [`watch`] — prefix watches delivering [`WatchEvent`]s over channels;
//!   this is the "notification" step of the deployment and reconfiguration
//!   workflows (§3.2 steps (ii)/(iii)).
//! * [`session`] — client sessions; ephemeral znodes vanish when their
//!   session is closed (how a crashed controller replica gives up the
//!   leader znode).
//! * [`global`] — typed wrappers storing the Table 1 global states (logical
//!   and physical topologies, worker-agent registrations) with hand-rolled
//!   binary codecs (the paper uses language-agnostic Thrift objects; we use
//!   an explicit wire format for the same reason).

#![warn(missing_docs)]

pub mod election;
pub mod global;
pub mod session;
pub mod store;
pub mod watch;
mod wire;

pub use election::{LeaderElection, LeaderInfo};
pub use session::SessionId;
pub use store::{Coordinator, CreateMode, NodeStat};
pub use watch::{WatchEvent, WatchKind};

/// Errors returned by coordinator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// Create failed: the node already exists.
    NodeExists(String),
    /// The node does not exist.
    NoNode(String),
    /// Compare-and-set failed.
    BadVersion {
        /// Version the caller expected.
        expected: u64,
        /// Version actually stored.
        actual: u64,
    },
    /// The session is unknown or already closed.
    NoSession(SessionId),
    /// A parent path is missing (paths must be created top-down).
    NoParent(String),
    /// Stored bytes failed to decode as the expected typed state.
    Corrupt(&'static str),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::NodeExists(p) => write!(f, "node already exists: {p}"),
            CoordError::NoNode(p) => write!(f, "no such node: {p}"),
            CoordError::BadVersion { expected, actual } => {
                write!(f, "bad version: expected {expected}, found {actual}")
            }
            CoordError::NoSession(s) => write!(f, "no such session: {s}"),
            CoordError::NoParent(p) => write!(f, "missing parent for: {p}"),
            CoordError::Corrupt(what) => write!(f, "corrupt stored state: {what}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoordError>;
