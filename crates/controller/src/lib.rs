//! # typhoon-controller — the Typhoon SDN control plane
//!
//! Reimplements the role Floodlight plays in the paper's prototype (§3.4,
//! §4): a unified management layer that programs the per-host software
//! switches over the OpenFlow subset, injects control tuples into workers
//! via `PacketOut`, harvests cross-layer statistics, and hosts control-plane
//! applications.
//!
//! * [`control`] — the Table 2 control tuples (`ROUTING`, `SIGNAL`,
//!   `METRIC_REQ/RESP`, `INPUT_RATE`, `ACTIVATE`/`DEACTIVATE`,
//!   `BATCH_SIZE`), encoded in the ordinary tuple format so the data plane
//!   cannot tell them apart from data (§3.3.2).
//! * [`rules`] — pure Table 3 rule generation: (logical, physical) → the
//!   exact per-host `FlowMod`/`GroupMod` set. Being a pure function keeps
//!   the controller *stateless*, as §3.4 requires: rules are derived from
//!   coordinator state on demand.
//! * [`controller`] — the event pump: per-switch control channels, app
//!   dispatch, stats caching, control-tuple injection.
//! * [`apps`] — the §4 control-plane applications: fault detector, live
//!   debugger, SDN load balancer, auto-scaler.
//! * [`rest`] — the user-facing command API ("REST" in the prototype): a
//!   line-oriented TCP service for topology reconfiguration and debugging
//!   requests.
//! * [`ha`] — controller replication: leader election through the
//!   coordinator, a persisted rule ledger, and failover re-sync against
//!   headless switches.

#![warn(missing_docs)]

pub mod apps;
pub mod control;
pub mod controller;
pub mod ha;
pub mod rest;
pub mod rules;

pub use apps::{AppCtx, ControlPlaneApp};
pub use control::ControlTuple;
pub use controller::{Controller, ControllerHandle, SwitchBinding};
pub use ha::{ControlPlane, RuleLedger};
pub use rules::{build_rules, unicast_rules, RulePlan, CONTROL_PRIORITY, DATA_PRIORITY};
