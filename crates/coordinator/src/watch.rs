//! Watch events and subscriptions.
//!
//! Watches are how the coordinator "notifies the worker agents of any new
//! worker assignment by the scheduler" (§2) and how the SDN controller and
//! agents learn about reconfigurations (§3.2 step (iii)). Unlike classic
//! ZooKeeper one-shot watches, subscriptions here are persistent prefix
//! watches — simpler for subscribers and strictly more informative.

use std::sync::mpsc::{channel, Receiver, Sender};

/// What happened to a znode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchKind {
    /// The node was created.
    Created,
    /// The node's data changed.
    DataChanged,
    /// The node was deleted (explicitly, or by closing the session of an
    /// ephemeral).
    Deleted,
}

/// A change notification for one znode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Full path of the affected node.
    pub path: String,
    /// What happened.
    pub kind: WatchKind,
    /// The node's version after the change (0 for deletions).
    pub version: u64,
}

/// One registered subscription: every event whose path starts with `prefix`
/// is cloned into `tx`. Dead receivers are garbage-collected on delivery.
#[derive(Debug)]
pub(crate) struct Subscription {
    pub(crate) prefix: String,
    pub(crate) tx: Sender<WatchEvent>,
}

/// The subscription table shared by the store.
#[derive(Debug, Default)]
pub(crate) struct WatchTable {
    subs: Vec<Subscription>,
}

impl WatchTable {
    /// Registers one watch per prefix, all feeding the returned receiver.
    pub(crate) fn subscribe(&mut self, prefixes: &[&str]) -> Receiver<WatchEvent> {
        let (tx, rx) = channel(); // LINT: allow-unbounded(watch events are low-rate control-plane traffic; dropping notifications would break session semantics)
        self.subs.extend(prefixes.iter().map(|prefix| Subscription {
            prefix: (*prefix).to_owned(),
            tx: tx.clone(),
        }));
        rx
    }

    /// Delivers `event` to every live subscriber whose prefix matches.
    pub(crate) fn deliver(&mut self, event: &WatchEvent) {
        self.subs
            .retain(|s| !event.path.starts_with(&s.prefix) || s.tx.send(event.clone()).is_ok());
    }

    /// Number of live subscriptions (test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(path: &str, kind: WatchKind) -> WatchEvent {
        WatchEvent {
            path: path.to_owned(),
            kind,
            version: 1,
        }
    }

    #[test]
    fn prefix_matching_delivers_only_matching_paths() {
        let mut table = WatchTable::default();
        let rx = table.subscribe(&["/topologies/"]);
        table.deliver(&ev("/topologies/wc/logical", WatchKind::Created));
        table.deliver(&ev("/agents/h0", WatchKind::Created));
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, "/topologies/wc/logical");
    }

    #[test]
    fn dropped_receivers_are_garbage_collected() {
        let mut table = WatchTable::default();
        let rx = table.subscribe(&["/a"]);
        drop(rx);
        table.deliver(&ev("/a/x", WatchKind::Deleted));
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let mut table = WatchTable::default();
        let rx1 = table.subscribe(&["/"]);
        let rx2 = table.subscribe(&["/"]);
        table.deliver(&ev("/x", WatchKind::DataChanged));
        assert_eq!(rx1.try_iter().count(), 1);
        assert_eq!(rx2.try_iter().count(), 1);
    }

    #[test]
    fn non_matching_subscriber_survives_delivery() {
        let mut table = WatchTable::default();
        let _rx = table.subscribe(&["/b"]);
        table.deliver(&ev("/a", WatchKind::Created));
        assert_eq!(table.len(), 1);
    }
}
