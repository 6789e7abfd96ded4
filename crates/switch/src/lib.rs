//! # typhoon-switch — the host-based software SDN switch
//!
//! A from-scratch reimplementation of the role DPDK-accelerated Open vSwitch
//! plays in the paper's prototype (§3.2, §5): every compute host runs one
//! software switch; workers attach to dedicated switch ports over
//! shared-memory rings; SDN flow rules installed by the controller steer
//! data tuples between ports, across host-level tunnels, and to/from the
//! controller.
//!
//! * [`cache`] — a megaflow-style exact-match cache in front of the flow
//!   table, so steady-state traffic resolves once per batch run without
//!   the table lock (the OVS kernel-datapath split the prototype relied
//!   on).
//! * [`table`] — the flow table: priority + specificity ordered matching,
//!   idle/hard timeouts, per-rule packet/byte counters, add/modify/delete
//!   with wildcard subsumption.
//! * [`group_table`] — select-type groups with smooth weighted round robin
//!   (the SDN load balancer's mechanism, §4).
//! * [`port`] — the port registry: worker ports (a ring toward the
//!   worker, a forwarding call from it), attach/detach with `PortStatus`
//!   events (the fault detector's signal).
//! * [`datapath`] — the switch itself: configuration, shared state, the
//!   datapath round (control, port reaping, tunnels, expiry) and its
//!   thread.
//! * [`link`] — the controller link: term-fenced connect, headless mode
//!   with a bounded replay queue, and OpenFlow message handling.
//! * [`forward`] — the frame path, run on whichever thread holds the
//!   frames: batch runs resolved once against the cache, action
//!   execution, tunnel teardown; broadcast replicates by
//!   cloning [`bytes::Bytes`] payloads (a refcount bump, not a copy — the
//!   serialization-free one-to-many mechanism of §3.3.1).
//!
//! The controller channel carries *encoded* OpenFlow messages
//! ([`typhoon_openflow::wire`]), so the protocol codec is exercised on every
//! interaction exactly as in a real Floodlight↔OVS deployment.

#![warn(missing_docs)]

pub mod cache;
pub mod datapath;
pub mod forward;
pub mod group_table;
pub mod link;
pub mod port;
pub mod table;

pub use cache::{CacheStats, FlowCache};
pub use datapath::{Switch, SwitchConfig};
pub use group_table::GroupTable;
pub use link::{ControlChannel, StaleLeader, ToSwitch};
pub use port::{PortTx, WorkerPort};
pub use table::{FlowEntry, FlowTable};
