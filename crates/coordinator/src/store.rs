//! The znode store: a hierarchical, versioned, watched key-value tree.

use crate::session::SessionId;
use crate::watch::{WatchEvent, WatchKind, WatchTable};
use crate::{CoordError, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use typhoon_diag::{rank, DiagMutex};

/// Whether a created node outlives its creator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// The node persists until explicitly deleted.
    Persistent,
    /// The node is deleted automatically when the owning session closes.
    Ephemeral(SessionId),
}

/// Metadata returned alongside node data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    /// Data version, starting at 1 and bumped by every set.
    pub version: u64,
    /// Owning session for ephemerals.
    pub ephemeral_owner: Option<SessionId>,
}

#[derive(Debug)]
struct Node {
    data: Vec<u8>,
    version: u64,
    ephemeral_owner: Option<SessionId>,
    /// The number [`Coordinator::create_sequential`] gives this node's next
    /// sequential child; it never goes back down.
    next_child: u64,
}

impl Node {
    fn new(data: Vec<u8>, ephemeral_owner: Option<SessionId>) -> Self {
        Node {
            data,
            version: 1,
            ephemeral_owner,
            next_child: 0,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    nodes: BTreeMap<String, Node>,
    watches: WatchTable,
    /// Live sessions, each with the paths of the ephemerals it owns.
    sessions: HashMap<SessionId, Vec<String>>,
    next_session: u64,
}

/// The coordination service. Clones share the same tree; it is safe to hand
/// a clone to every thread in the cluster (the paper's components all talk
/// to one ZooKeeper ensemble).
///
/// The tree lock is a [`DiagMutex`]: a session thread that panics while
/// holding it can no longer wedge every other client (non-poisoning), and
/// debug builds enforce the `COORD_STORE` rank from `docs/CONCURRENCY.md`.
#[derive(Debug, Clone)]
pub struct Coordinator {
    state: Arc<DiagMutex<State>>,
}

impl Default for Coordinator {
    fn default() -> Self {
        Coordinator {
            state: Arc::new(DiagMutex::with_rank(
                rank::COORD_STORE,
                "coordinator.store",
                State::default(),
            )),
        }
    }
}

fn validate_path(path: &str) -> &str {
    assert!(
        path.starts_with('/') && (path.len() == 1 || !path.ends_with('/')),
        "znode paths are absolute and have no trailing slash: {path:?}"
    );
    path
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

impl Coordinator {
    /// A fresh, empty coordinator with a root node.
    pub fn new() -> Self {
        let coord = Coordinator::default();
        coord
            .state
            .lock()
            .nodes
            .insert("/".to_owned(), Node::new(Vec::new(), None));
        coord
    }

    /// Creates a node. The parent must exist; intermediate nodes are *not*
    /// auto-created (use [`Coordinator::ensure_path`]).
    pub fn create(&self, path: &str, data: Vec<u8>, mode: CreateMode) -> Result<()> {
        validate_path(path);
        Self::insert(&mut self.state.lock(), path, data, mode)
    }

    /// Creates a persistent child of `dir` named `prefix` followed by
    /// `dir`'s next sequence number (ZooKeeper's `PERSISTENT_SEQUENTIAL`),
    /// and returns its path. The number is taken under the same lock as the
    /// create and never goes back down, so concurrent callers never collide;
    /// it is zero-padded to a `u64`'s 20 digits, so
    /// [`Coordinator::children`] lists the children in creation order.
    pub fn create_sequential(&self, dir: &str, prefix: &str, data: Vec<u8>) -> Result<String> {
        validate_path(dir);
        let mut st = self.state.lock();
        let parent = st
            .nodes
            .get_mut(dir)
            .ok_or_else(|| CoordError::NoNode(dir.to_owned()))?;
        let seq = parent.next_child;
        parent.next_child += 1;
        let path = format!("{}/{prefix}{seq:020}", dir.trim_end_matches('/'));
        Self::insert(&mut st, validate_path(&path), data, CreateMode::Persistent)?;
        Ok(path)
    }

    fn insert(st: &mut State, path: &str, data: Vec<u8>, mode: CreateMode) -> Result<()> {
        if st.nodes.contains_key(path) {
            return Err(CoordError::NodeExists(path.to_owned()));
        }
        let parent = parent_of(path).ok_or_else(|| CoordError::NoParent(path.to_owned()))?;
        if !st.nodes.contains_key(parent) {
            return Err(CoordError::NoParent(path.to_owned()));
        }
        let ephemeral_owner = match mode {
            CreateMode::Persistent => None,
            CreateMode::Ephemeral(sid) => {
                let ephemerals = st
                    .sessions
                    .get_mut(&sid)
                    .ok_or(CoordError::NoSession(sid))?;
                ephemerals.push(path.to_owned());
                Some(sid)
            }
        };
        st.nodes
            .insert(path.to_owned(), Node::new(data, ephemeral_owner));
        let event = WatchEvent {
            path: path.to_owned(),
            kind: WatchKind::Created,
            version: 1,
        };
        st.watches.deliver(&event);
        Ok(())
    }

    /// Creates every missing ancestor of `path` (and `path` itself) as an
    /// empty persistent node. Existing nodes are left untouched.
    pub fn ensure_path(&self, path: &str) -> Result<()> {
        validate_path(path);
        let mut prefix = String::new();
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            prefix.push('/');
            prefix.push_str(seg);
            match self.create(&prefix, Vec::new(), CreateMode::Persistent) {
                Ok(()) | Err(CoordError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads a node's data and stat.
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, NodeStat)> {
        let st = self.state.lock();
        let node = st
            .nodes
            .get(validate_path(path))
            .ok_or_else(|| CoordError::NoNode(path.to_owned()))?;
        Ok((
            node.data.clone(),
            NodeStat {
                version: node.version,
                ephemeral_owner: node.ephemeral_owner,
            },
        ))
    }

    /// True when the node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().nodes.contains_key(validate_path(path))
    }

    /// Overwrites a node's data, bumping its version. With
    /// `expected_version = Some(v)` the write is a compare-and-set.
    /// Returns the new version.
    pub fn set(&self, path: &str, data: Vec<u8>, expected_version: Option<u64>) -> Result<u64> {
        let mut st = self.state.lock();
        let node = st
            .nodes
            .get_mut(validate_path(path))
            .ok_or_else(|| CoordError::NoNode(path.to_owned()))?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(CoordError::BadVersion {
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data;
        node.version += 1;
        let event = WatchEvent {
            path: path.to_owned(),
            kind: WatchKind::DataChanged,
            version: node.version,
        };
        st.watches.deliver(&event);
        Ok(event.version)
    }

    /// Creates the node if absent, otherwise overwrites it (persistent only).
    pub fn put(&self, path: &str, data: Vec<u8>) -> Result<u64> {
        match self.create(path, data.clone(), CreateMode::Persistent) {
            Ok(()) => Ok(1),
            Err(CoordError::NodeExists(_)) => self.set(path, data, None),
            Err(e) => Err(e),
        }
    }

    /// Deletes a node. Children must be deleted first.
    pub fn delete(&self, path: &str) -> Result<()> {
        validate_path(path);
        let mut st = self.state.lock();
        if !st.nodes.contains_key(path) {
            return Err(CoordError::NoNode(path.to_owned()));
        }
        let child_prefix = format!("{path}/");
        if st.nodes.keys().any(|k| k.starts_with(&child_prefix)) {
            // Mirror ZooKeeper's NotEmpty by refusing; callers use
            // delete_recursive when they mean it.
            return Err(CoordError::NodeExists(format!("{path}/* (children)")));
        }
        let node = st.nodes.remove(path).expect("checked above");
        if let Some(sid) = node.ephemeral_owner {
            if let Some(ephemerals) = st.sessions.get_mut(&sid) {
                ephemerals.retain(|p| p != path);
            }
        }
        let event = WatchEvent {
            path: path.to_owned(),
            kind: WatchKind::Deleted,
            version: 0,
        };
        st.watches.deliver(&event);
        Ok(())
    }

    /// Deletes a node and everything under it.
    pub fn delete_recursive(&self, path: &str) -> Result<()> {
        validate_path(path);
        let victims: Vec<String> = {
            let st = self.state.lock();
            let child_prefix = format!("{path}/");
            let mut v: Vec<String> = st
                .nodes
                .keys()
                .filter(|k| k.as_str() == path || k.starts_with(&child_prefix))
                .cloned()
                .collect();
            // Depth-first: longest paths first so children go before parents.
            v.sort_by_key(|p| std::cmp::Reverse(p.len()));
            v
        };
        if victims.is_empty() {
            return Err(CoordError::NoNode(path.to_owned()));
        }
        for p in victims {
            self.delete(&p)?;
        }
        Ok(())
    }

    /// Names of the direct children of `path`, sorted.
    pub fn children(&self, path: &str) -> Result<Vec<String>> {
        validate_path(path);
        let st = self.state.lock();
        if !st.nodes.contains_key(path) {
            return Err(CoordError::NoNode(path.to_owned()));
        }
        let prefix = if path == "/" {
            "/".to_owned()
        } else {
            format!("{path}/")
        };
        Ok(st
            .nodes
            .keys()
            .filter(|k| k.starts_with(&prefix) && *k != path)
            .filter_map(|k| {
                let rest = &k[prefix.len()..];
                (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_owned())
            })
            .collect())
    }

    /// Hands `sink` every change under any of `prefixes` (persistent
    /// prefix watches), until it returns `false`. A loop that parks on a
    /// bell watches the store with a `typhoon_net::Signal`'s raiser.
    pub fn watch(
        &self,
        prefixes: &[&str],
        sink: impl Fn(&WatchEvent) -> bool + Send + Sync + 'static,
    ) {
        self.state.lock().watches.subscribe(prefixes, sink);
    }

    /// Opens a new session. It lives until [`Coordinator::close_session`].
    pub fn create_session(&self) -> SessionId {
        let mut st = self.state.lock();
        st.next_session += 1;
        let sid = SessionId(st.next_session);
        st.sessions.insert(sid, Vec::new());
        sid
    }

    /// Closes a session immediately, deleting its ephemerals.
    pub fn close_session(&self, sid: SessionId) {
        let Some(ephemerals) = self.state.lock().sessions.remove(&sid) else {
            return;
        };
        for path in ephemerals {
            // The session is gone, so delete bypasses ephemeral bookkeeping.
            let _ = self.delete(&path);
        }
    }

    /// Number of live sessions (observability hook).
    pub fn session_count(&self) -> usize {
        self.state.lock().sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord() -> Coordinator {
        Coordinator::new()
    }

    #[test]
    fn create_get_set_delete_lifecycle() {
        let c = coord();
        c.create("/a", b"one".to_vec(), CreateMode::Persistent)
            .unwrap();
        let (data, stat) = c.get("/a").unwrap();
        assert_eq!(data, b"one");
        assert_eq!(stat.version, 1);
        let v = c.set("/a", b"two".to_vec(), None).unwrap();
        assert_eq!(v, 2);
        c.delete("/a").unwrap();
        assert!(matches!(c.get("/a"), Err(CoordError::NoNode(_))));
    }

    #[test]
    fn create_requires_parent() {
        let c = coord();
        assert!(matches!(
            c.create("/a/b", vec![], CreateMode::Persistent),
            Err(CoordError::NoParent(_))
        ));
        c.ensure_path("/a/b/c").unwrap();
        assert!(c.exists("/a/b/c"));
    }

    #[test]
    fn duplicate_create_rejected() {
        let c = coord();
        c.create("/a", vec![], CreateMode::Persistent).unwrap();
        assert!(matches!(
            c.create("/a", vec![], CreateMode::Persistent),
            Err(CoordError::NodeExists(_))
        ));
    }

    #[test]
    fn compare_and_set_enforces_version() {
        let c = coord();
        c.create("/a", vec![], CreateMode::Persistent).unwrap();
        c.set("/a", b"x".to_vec(), Some(1)).unwrap();
        let err = c.set("/a", b"y".to_vec(), Some(1)).unwrap_err();
        assert_eq!(
            err,
            CoordError::BadVersion {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn put_upserts() {
        let c = coord();
        assert_eq!(c.put("/a", b"1".to_vec()).unwrap(), 1);
        assert_eq!(c.put("/a", b"2".to_vec()).unwrap(), 2);
        assert_eq!(c.get("/a").unwrap().0, b"2");
    }

    #[test]
    fn children_lists_direct_descendants_only() {
        let c = coord();
        c.ensure_path("/t/wc/logical").unwrap();
        c.ensure_path("/t/wc/physical").unwrap();
        c.ensure_path("/t/other").unwrap();
        assert_eq!(c.children("/t").unwrap(), vec!["other", "wc"]);
        assert_eq!(c.children("/t/wc").unwrap(), vec!["logical", "physical"]);
    }

    #[test]
    fn delete_refuses_non_empty_then_recursive_works() {
        let c = coord();
        c.ensure_path("/t/a/b").unwrap();
        assert!(c.delete("/t").is_err());
        c.delete_recursive("/t").unwrap();
        assert!(!c.exists("/t"));
        assert!(c.exists("/"), "root survives");
    }

    #[test]
    fn watches_fire_for_create_set_delete_under_prefix() {
        let c = coord();
        let (sink, rx) = crate::watch::testutil::events();
        c.watch(&["/jobs"], sink);
        c.ensure_path("/jobs").unwrap();
        c.create("/jobs/wc", b"v1".to_vec(), CreateMode::Persistent)
            .unwrap();
        c.set("/jobs/wc", b"v2".to_vec(), None).unwrap();
        c.delete("/jobs/wc").unwrap();
        let kinds: Vec<WatchKind> = rx.try_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                WatchKind::Created,     // /jobs
                WatchKind::Created,     // /jobs/wc
                WatchKind::DataChanged, // /jobs/wc v2
                WatchKind::Deleted,     // /jobs/wc
            ]
        );
    }

    #[test]
    fn ephemerals_vanish_on_session_close() {
        let c = coord();
        c.ensure_path("/agents").unwrap();
        let sid = c.create_session();
        c.create("/agents/h0", vec![], CreateMode::Ephemeral(sid))
            .unwrap();
        let (sink, rx) = crate::watch::testutil::events();
        c.watch(&["/agents/h0"], sink);
        c.close_session(sid);
        assert!(!c.exists("/agents/h0"));
        assert_eq!(rx.try_iter().next().unwrap().kind, WatchKind::Deleted);
    }

    #[test]
    fn ephemeral_requires_live_session() {
        let c = coord();
        assert!(matches!(
            c.create("/x", vec![], CreateMode::Ephemeral(SessionId(99))),
            Err(CoordError::NoSession(_))
        ));
    }

    #[test]
    fn sequential_names_never_repeat_and_sort_in_creation_order() {
        let c = coord();
        c.ensure_path("/q").unwrap();
        let first = c.create_sequential("/q", "req-", b"a".to_vec()).unwrap();
        assert_eq!(first, "/q/req-00000000000000000000");
        c.delete(&first).unwrap();
        // A drained directory does not hand the freed number out again.
        let names: Vec<String> = (0..11)
            .map(|_| c.create_sequential("/q", "req-", vec![]).unwrap())
            .collect();
        assert_eq!(names[0], "/q/req-00000000000000000001");
        let children: Vec<String> = names.iter().map(|p| p[3..].to_owned()).collect();
        assert_eq!(c.children("/q").unwrap(), children, "sorted = created");
        assert!(matches!(
            c.create_sequential("/missing", "req-", vec![]),
            Err(CoordError::NoNode(_))
        ));
    }

    #[test]
    fn explicit_delete_of_ephemeral_unregisters_it() {
        let c = coord();
        c.ensure_path("/e").unwrap();
        let sid = c.create_session();
        c.create("/e/x", vec![], CreateMode::Ephemeral(sid))
            .unwrap();
        c.delete("/e/x").unwrap();
        // Closing the session must not panic or double-delete.
        c.close_session(sid);
        assert!(!c.exists("/e/x"));
    }

    #[test]
    #[should_panic(expected = "absolute")]
    fn relative_paths_are_rejected() {
        let c = coord();
        let _ = c.exists("no-slash");
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let c = coord();
        c.create("/ctr", b"0".to_vec(), CreateMode::Persistent)
            .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        loop {
                            let (data, stat) = c.get("/ctr").unwrap();
                            let n: u64 = String::from_utf8(data).unwrap().parse().unwrap();
                            let next = (n + 1).to_string().into_bytes();
                            if c.set("/ctr", next, Some(stat.version)).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (data, _) = c.get("/ctr").unwrap();
        assert_eq!(String::from_utf8(data).unwrap(), "400");
    }
}
