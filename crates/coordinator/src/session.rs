//! Client sessions.
//!
//! Worker agents and controller replicas each hold a session with the
//! coordinator. Ephemeral znodes are bound to a session and are deleted when
//! it is closed ([`Coordinator::close_session`](crate::Coordinator::close_session)),
//! which fires `Deleted` on their watches: how a crashed controller replica
//! vacates the leader znode. Sessions are not heartbeated and do not expire
//! on their own; worker failures are detected by the fault-detector app's
//! SDN port events (§4), and the Storm baseline keeps its own heartbeat
//! timeout (§2) so Fig. 10 can compare the two.

use std::fmt;

/// Identifies one coordinator session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}
