//! SDN control-plane applications (§4 of the paper).
//!
//! "The Typhoon SDN controller exposes cross-layer information, from both
//! the application and the network, to SDN control plane applications to
//! extend the framework's functionality." Apps receive network events
//! (`PortStatus`, `PacketIn`), application metrics (`METRIC_RESP` control
//! tuples) and a periodic tick; they act through the [`Controller`]
//! (installing rules, injecting control tuples) and through the coordinator
//! (submitting reconfiguration requests the streaming manager executes).

mod auto_scaler;
mod fault_detector;
mod live_debugger;
mod load_balancer;

pub use auto_scaler::{AutoScaler, AutoScalerConfig};
pub use fault_detector::{FaultDetector, FAULTS, TUNNEL_FAULTS};
pub use live_debugger::{LiveDebugger, MIRROR_PRIORITY};
pub use load_balancer::{LoadBalancer, LoadBalancerConfig};

use crate::controller::Controller;
use std::time::Instant;
use typhoon_model::{AppId, HostId, TaskId};
use typhoon_net::Frame;
use typhoon_openflow::{PortNo, PortStatusReason};

/// Convenience alias: apps receive the controller itself as their context.
pub type AppCtx = Controller;

/// A control-plane application hosted by the controller.
///
/// All hooks default to no-ops so apps implement only what they need.
/// Hooks run on the controller's pump thread; they must not call
/// [`Controller::pump`] (re-entrancy) and should stay short.
pub trait ControlPlaneApp: Send {
    /// Application name (logs, diagnostics).
    fn name(&self) -> &'static str;

    /// A switch port appeared, vanished or changed.
    fn on_port_status(
        &mut self,
        _ctl: &Controller,
        _host: HostId,
        _reason: PortStatusReason,
        _port: PortNo,
    ) {
    }

    /// A worker answered a `METRIC_REQ` control tuple. `app` is recovered
    /// from the responding worker's MAC prefix (Fig. 5), so apps watching
    /// one topology can ignore other applications' workers even when task
    /// numbers coincide.
    fn on_metric_resp(
        &mut self,
        _ctl: &Controller,
        _app: AppId,
        _task: TaskId,
        _request_id: u64,
        _metrics: &[(String, i64)],
    ) {
    }

    /// A raw frame was punted to the controller.
    fn on_packet_in(&mut self, _ctl: &Controller, _host: HostId, _frame: &Frame) {}

    /// Periodic tick (stats polls, scaling decisions) at `now`, the
    /// controller round's instant: an app keeps its timers as deadlines
    /// compared against it and reads no clock of its own.
    fn on_tick(&mut self, _ctl: &Controller, _now: Instant) {}
}
