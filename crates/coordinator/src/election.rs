//! Leader election for the replicated SDN controller.
//!
//! The ZooKeeper-style recipe: a candidate CAS-increments a persistent
//! *term* counter to reserve a unique term, then races to create one
//! ephemeral *leader* znode carrying `(candidate, term)`. Exactly one
//! create wins; everyone else watches the leader node and re-campaigns
//! when its `Deleted` event arrives (closing the session removes the
//! ephemeral). Because a term is reserved by a compare-and-set before the
//! leader node is created, **at most one leader ever exists per term** —
//! the invariant the `typhoon-check` election kernel explores schedules
//! against — and a term read from the store is a fencing token: a switch
//! can reject a reconnect from a stale leader by comparing terms.
//!
//! Watches in this coordinator are *persistent prefix* watches
//! (registered in the coordinator's watch table, independent of any
//! session), so a watch armed before the watching replica's own session
//! hiccup keeps firing afterwards; the tests below pin that down.

use crate::store::{Coordinator, CreateMode};
use crate::wire::{Reader, Writer};
use crate::{CoordError, Result, SessionId};

/// Default election prefix under the coordinator root.
pub const ELECTION_PREFIX: &str = "/typhoon/election";

/// The elected leader as recorded in the leader znode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderInfo {
    /// Candidate name (e.g. `controller-1`).
    pub candidate: String,
    /// The term this leader reserved; strictly increasing across
    /// successive leaders.
    pub term: u64,
}

/// Watch-based leader election over a coordinator prefix.
#[derive(Clone)]
pub struct LeaderElection {
    coord: Coordinator,
    prefix: String,
}

impl LeaderElection {
    /// An election at the default prefix ([`ELECTION_PREFIX`]).
    pub fn new(coord: Coordinator) -> Self {
        Self::with_prefix(coord, ELECTION_PREFIX)
    }

    /// An election at a custom prefix (tests, multiple domains).
    pub fn with_prefix(coord: Coordinator, prefix: &str) -> Self {
        LeaderElection {
            coord,
            prefix: prefix.to_owned(),
        }
    }

    /// The leader znode's path: what followers watch.
    pub fn leader_path(&self) -> String {
        format!("{}/leader", self.prefix)
    }

    fn term_path(&self) -> String {
        format!("{}/term", self.prefix)
    }

    /// Campaigns once: reserves a fresh term via compare-and-set, then
    /// tries to create the ephemeral leader node. Returns `Ok(Some(term))`
    /// if this candidate became leader, `Ok(None)` if another candidate
    /// holds (or won) the leadership.
    pub fn try_acquire(&self, session: SessionId, candidate: &str) -> Result<Option<u64>> {
        self.coord.ensure_path(&self.prefix)?;
        if self.coord.exists(&self.leader_path()) {
            return Ok(None);
        }
        let term = self.reserve_term()?;
        let mut w = Writer::new();
        w.str(candidate);
        w.u64(term);
        match self
            .coord
            .create(&self.leader_path(), w.buf, CreateMode::Ephemeral(session))
        {
            Ok(()) => Ok(Some(term)),
            // Another candidate created the node between our existence
            // check and our create: we lost; the reserved term is burnt
            // (terms are unique, not dense).
            Err(CoordError::NodeExists(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reserves the next term with a CAS loop on the term counter. This
    /// read-version/CAS-write dance (instead of read-then-blind-write) is
    /// exactly what makes terms unique under concurrent campaigns — the
    /// pre-fix variant in `typhoon-check`'s election kernel shows the
    /// lost-update race a blind write reintroduces.
    fn reserve_term(&self) -> Result<u64> {
        loop {
            let path = self.term_path();
            if !self.coord.exists(&path) {
                let mut w = Writer::new();
                w.u64(0);
                match self.coord.create(&path, w.buf, CreateMode::Persistent) {
                    Ok(()) | Err(CoordError::NodeExists(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            let (data, stat) = self.coord.get(&path)?;
            let mut r = Reader::new(&data, "election term");
            let current = r.u64()?;
            r.finish()?;
            let next = current + 1;
            let mut w = Writer::new();
            w.u64(next);
            match self.coord.set(&path, w.buf, Some(stat.version)) {
                Ok(_) => return Ok(next),
                Err(CoordError::BadVersion { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The current leader, if any.
    pub fn leader(&self) -> Option<LeaderInfo> {
        let (data, _) = self.coord.get(&self.leader_path()).ok()?;
        let mut r = Reader::new(&data, "election leader");
        let candidate = r.str().ok()?;
        let term = r.u64().ok()?;
        Some(LeaderInfo { candidate, term })
    }

    /// The highest term reserved so far (0 before any campaign).
    pub fn current_term(&self) -> u64 {
        self.coord
            .get(&self.term_path())
            .ok()
            .and_then(|(data, _)| {
                let mut r = Reader::new(&data, "election term");
                r.u64().ok()
            })
            .unwrap_or(0)
    }

    /// Voluntarily gives up leadership by deleting the leader node (the
    /// watch delivers `Deleted` to every follower). No-op if the node is
    /// already gone.
    pub fn resign(&self) {
        let _ = self.coord.delete(&self.leader_path());
    }

    /// The underlying coordinator (e.g. for session management).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WatchEvent;
    use std::sync::mpsc::Receiver;

    /// The leader node's events: `Created` when a leader wins, `Deleted`
    /// when leadership is vacated (resign or session close).
    fn leader_events(election: &LeaderElection) -> Receiver<WatchEvent> {
        let (sink, rx) = crate::watch::testutil::events();
        election
            .coordinator()
            .watch(&[&election.leader_path()], sink);
        rx
    }
    use crate::WatchKind;
    use std::time::Duration;

    fn setup() -> (Coordinator, LeaderElection) {
        let coord = Coordinator::new();
        let election = LeaderElection::with_prefix(coord.clone(), "/typhoon/test-election");
        (coord, election)
    }

    #[test]
    fn first_candidate_wins_term_one() {
        let (coord, election) = setup();
        let sid = coord.create_session();
        let term = election.try_acquire(sid, "ctl-0").unwrap();
        assert_eq!(term, Some(1));
        let info = election.leader().unwrap();
        assert_eq!(info.candidate, "ctl-0");
        assert_eq!(info.term, 1);
    }

    #[test]
    fn second_candidate_loses_while_leader_holds() {
        let (coord, election) = setup();
        let sid0 = coord.create_session();
        let sid1 = coord.create_session();
        assert_eq!(election.try_acquire(sid0, "ctl-0").unwrap(), Some(1));
        assert_eq!(election.try_acquire(sid1, "ctl-1").unwrap(), None);
        // The loser's campaign burnt no term (it bailed on the existence
        // check before reserving).
        assert_eq!(election.current_term(), 1);
    }

    #[test]
    fn session_close_vacates_leadership_and_next_term_is_higher() {
        let (coord, election) = setup();
        let sid0 = coord.create_session();
        let sid1 = coord.create_session();
        assert_eq!(election.try_acquire(sid0, "ctl-0").unwrap(), Some(1));
        coord.close_session(sid0);
        assert!(election.leader().is_none());
        let term = election.try_acquire(sid1, "ctl-1").unwrap();
        assert_eq!(term, Some(2));
        assert_eq!(election.leader().unwrap().candidate, "ctl-1");
    }

    #[test]
    fn watch_fires_created_then_deleted_across_leader_change() {
        let (coord, election) = setup();
        let watch = leader_events(&election);
        let sid0 = coord.create_session();
        assert_eq!(election.try_acquire(sid0, "ctl-0").unwrap(), Some(1));
        let ev = watch.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.kind, WatchKind::Created);
        coord.close_session(sid0);
        let ev = watch.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.kind, WatchKind::Deleted);
    }

    /// Satellite coverage: a watch armed *before* the watching replica's
    /// session drops keeps firing afterwards — coordinator watches are
    /// persistent prefix registrations, not session-scoped one-shots, so
    /// a reconnecting replica does not miss the leadership change that
    /// happened while its own session was being replaced.
    #[test]
    fn watch_survives_watcher_session_drop_and_reconnect() {
        let (coord, election) = setup();
        // Replica B arms its watch, then loses its session.
        let sid_b = coord.create_session();
        let watch_b = leader_events(&election);
        coord.close_session(sid_b);
        let _sid_b2 = coord.create_session(); // reconnect

        // Replica A wins and then dies; B's pre-drop watch must deliver
        // both transitions.
        let sid_a = coord.create_session();
        assert_eq!(election.try_acquire(sid_a, "ctl-a").unwrap(), Some(1));
        let ev = watch_b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.kind, WatchKind::Created);
        coord.close_session(sid_a);
        let ev = watch_b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.kind, WatchKind::Deleted);
    }

    /// Satellite coverage: a freshly re-armed watch after reconnect sees
    /// subsequent leadership changes (the re-registration path a real
    /// ZooKeeper client would take).
    #[test]
    fn rearmed_watch_after_reconnect_sees_next_election() {
        let (coord, election) = setup();
        let sid_b = coord.create_session();
        let watch_old = leader_events(&election);
        coord.close_session(sid_b);
        drop(watch_old); // client discards the old registration
        let _sid_b2 = coord.create_session();
        let watch_new = leader_events(&election); // re-armed after reconnect

        let sid_a = coord.create_session();
        assert_eq!(election.try_acquire(sid_a, "ctl-a").unwrap(), Some(1));
        let ev = watch_new.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.kind, WatchKind::Created);
        assert_eq!(ev.path, "/typhoon/test-election/leader");
    }

    #[test]
    fn concurrent_campaigns_yield_unique_terms() {
        // Hammer the CAS loop from many threads across repeated
        // vacancies: every successful acquisition must carry a distinct
        // term (the at-most-one-leader-per-term invariant).
        let (coord, election) = setup();
        let mut claimed = Vec::new();
        for _round in 0..8 {
            let mut handles = Vec::new();
            for t in 0..4 {
                let coord = coord.clone();
                let election = election.clone();
                handles.push(std::thread::spawn(move || {
                    let sid = coord.create_session();
                    election.try_acquire(sid, &format!("ctl-{t}")).unwrap()
                }));
            }
            let winners: Vec<u64> = handles
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .collect();
            assert!(winners.len() <= 1, "two leaders in one round: {winners:?}");
            claimed.extend(winners);
            election.resign();
        }
        let mut dedup = claimed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), claimed.len(), "terms not unique: {claimed:?}");
    }

    #[test]
    fn resign_allows_recampaign() {
        let (coord, election) = setup();
        let sid = coord.create_session();
        assert_eq!(election.try_acquire(sid, "ctl-0").unwrap(), Some(1));
        election.resign();
        assert_eq!(election.try_acquire(sid, "ctl-0").unwrap(), Some(2));
    }
}
