//! Watch events and subscriptions.
//!
//! Watches are how the coordinator "notifies the worker agents of any new
//! worker assignment by the scheduler" (§2) and how the SDN controller and
//! agents learn about reconfigurations (§3.2 step (iii)). Unlike classic
//! ZooKeeper one-shot watches, subscriptions here are persistent prefix
//! watches — simpler for subscribers and strictly more informative.

use std::sync::Arc;

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

/// Where a subscription's events go; `false` once its subscriber is gone.
type Sink = Arc<dyn Fn(&WatchEvent) -> bool + Send + Sync>;

/// One registered subscription: every event whose path starts with `prefix`
/// goes to `sink`. Dead subscribers are garbage-collected on delivery.
pub(crate) struct Subscription {
    prefix: String,
    sink: Sink,
}

/// The subscription table shared by the store.
#[derive(Default)]
pub(crate) struct WatchTable {
    subs: Vec<Subscription>,
}

impl std::fmt::Debug for WatchTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WatchTable({} subscriptions)", self.subs.len())
    }
}

impl WatchTable {
    /// Registers one watch per prefix, all handing their events to `sink`.
    pub(crate) fn subscribe(
        &mut self,
        prefixes: &[&str],
        sink: impl Fn(&WatchEvent) -> bool + Send + Sync + 'static,
    ) {
        let sink: Sink = Arc::new(sink);
        self.subs.extend(prefixes.iter().map(|prefix| Subscription {
            prefix: (*prefix).to_owned(),
            sink: Arc::clone(&sink),
        }));
    }

    /// Delivers `event` to every live subscriber whose prefix matches.
    pub(crate) fn deliver(&mut self, event: &WatchEvent) {
        self.subs
            .retain(|s| !event.path.starts_with(&s.prefix) || (s.sink)(event));
    }

    /// Number of live subscriptions (test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }
}

/// What the crate's tests read a watch through.
#[cfg(test)]
pub(crate) mod testutil {
    use super::WatchEvent;
    use std::sync::mpsc::{channel, Receiver};

    /// A sink that forwards every event into the returned channel, until
    /// the receiver is dropped.
    pub(crate) fn events() -> (
        impl Fn(&WatchEvent) -> bool + Send + Sync + 'static,
        Receiver<WatchEvent>,
    ) {
        let (tx, rx) = channel();
        (move |event: &WatchEvent| tx.send(event.clone()).is_ok(), rx)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::events;
    use super::*;
    use std::sync::mpsc::Receiver;

    fn subscribed(table: &mut WatchTable, prefixes: &[&str]) -> Receiver<WatchEvent> {
        let (sink, rx) = events();
        table.subscribe(prefixes, sink);
        rx
    }

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
        let rx = subscribed(&mut table, &["/topologies/"]);
        table.deliver(&ev("/topologies/wc/logical", WatchKind::Created));
        table.deliver(&ev("/agents/h0", WatchKind::Created));
        let got: Vec<_> = rx.try_iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, "/topologies/wc/logical");
    }

    #[test]
    fn dropped_receivers_are_garbage_collected() {
        let mut table = WatchTable::default();
        let rx = subscribed(&mut table, &["/a"]);
        drop(rx);
        table.deliver(&ev("/a/x", WatchKind::Deleted));
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let mut table = WatchTable::default();
        let rx1 = subscribed(&mut table, &["/"]);
        let rx2 = subscribed(&mut table, &["/"]);
        table.deliver(&ev("/x", WatchKind::DataChanged));
        assert_eq!(rx1.try_iter().count(), 1);
        assert_eq!(rx2.try_iter().count(), 1);
    }

    #[test]
    fn a_sink_that_says_it_is_gone_is_dropped() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut table = WatchTable::default();
        let woken = Arc::new(AtomicU32::new(0));
        let w = Arc::clone(&woken);
        table.subscribe(&["/a", "/b"], move |_| w.fetch_add(1, Ordering::SeqCst) < 1);
        table.deliver(&ev("/c", WatchKind::Created));
        assert_eq!(woken.load(Ordering::SeqCst), 0);
        table.deliver(&ev("/b/x", WatchKind::Created));
        assert_eq!(table.len(), 2, "still wanted");
        table.deliver(&ev("/a", WatchKind::Deleted));
        assert_eq!(woken.load(Ordering::SeqCst), 2);
        assert_eq!(table.len(), 1, "gone: the matching watch is dropped");
        table.deliver(&ev("/b", WatchKind::Created));
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn non_matching_subscriber_survives_delivery() {
        let mut table = WatchTable::default();
        let _rx = subscribed(&mut table, &["/b"]);
        table.deliver(&ev("/a", WatchKind::Created));
        assert_eq!(table.len(), 1);
    }
}
