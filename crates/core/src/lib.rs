//! # typhoon-core — the SDN-enhanced streaming framework
//!
//! The paper's primary contribution (§3): a real-time stream framework
//! whose data routing and worker control are offloaded to an SDN fabric.
//!
//! * [`worker`] — the three-layer Typhoon worker (Fig. 4): the application
//!   computation layer (unchanged `Spout`/`Bolt` code), the framework layer
//!   (routing state, de/serialization, Table 2 control-tuple handling), and
//!   the I/O layer (tuples ↔ custom Ethernet packets over DPDK-style
//!   rings, with configurable batching — Fig. 7's northbound/southbound
//!   transport split).
//! * [`manager`] — the streaming manager: topology build + locality-aware
//!   scheduling + the **dynamic topology manager** that executes runtime
//!   reconfigurations (parallelism, computation logic, routing policy).
//! * [`agent`] — per-host worker agents: launch/kill workers, attach them
//!   to the host's software switch, register with the coordinator.
//! * [`update`] — the §3.5 stable-update procedures (Fig. 6): add/remove
//!   stateless workers without tuple loss; SIGNAL-flushed updates for
//!   stateful workers.
//! * [`cluster`] — [`TyphoonCluster`]: wires coordinator, controller,
//!   switches, tunnels, agents and manager into one runnable system with
//!   the same submission API as the Storm baseline, so experiments are
//!   apples-to-apples.

#![warn(missing_docs)]

pub mod agent;
pub mod checkpoint;
pub mod cluster;
pub mod manager;
pub mod update;
pub mod worker;

pub use agent::WorkerAgent;
pub use cluster::{TyphoonCluster, TyphoonConfig, TyphoonTopologyHandle};
pub use manager::{RecoveryManager, RecoveryReport, SchedulerKind, StreamingManager};

/// Errors raised by the Typhoon framework.
#[derive(Debug)]
pub enum CoreError {
    /// Topology/scheduling error.
    Model(typhoon_model::ModelError),
    /// Coordinator failure.
    Coord(typhoon_coordinator::CoordError),
    /// Network substrate failure.
    Net(typhoon_net::NetError),
    /// The referenced topology is not running.
    UnknownTopology(String),
    /// A deployment step timed out (e.g. a worker never became ready).
    Timeout(&'static str),
    /// A launched worker's thread ended (panicked) before it became ready.
    WorkerExited(typhoon_model::AppId, typhoon_model::TaskId),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Coord(e) => write!(f, "coordinator error: {e}"),
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::UnknownTopology(t) => write!(f, "unknown topology {t:?}"),
            CoreError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            CoreError::WorkerExited(a, t) => write!(f, "worker {t} of {a} exited before ready"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<typhoon_model::ModelError> for CoreError {
    fn from(e: typhoon_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<typhoon_coordinator::CoordError> for CoreError {
    fn from(e: typhoon_coordinator::CoordError) -> Self {
        CoreError::Coord(e)
    }
}

impl From<typhoon_net::NetError> for CoreError {
    fn from(e: typhoon_net::NetError) -> Self {
        CoreError::Net(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The reserved logical-node name of the system acker.
pub const ACKER_NODE: &str = "__acker";
