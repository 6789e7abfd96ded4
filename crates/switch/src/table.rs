//! The flow table.

use crate::cache::Displaced;
use std::time::{Duration, Instant};
use typhoon_openflow::{Action, FlowMatch, FlowMod, FlowModCommand, FlowStats, FrameMeta};

/// One installed rule plus its counters and timeout bookkeeping.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// Rule priority (higher wins).
    pub priority: u16,
    /// The match.
    pub matcher: FlowMatch,
    /// Actions applied on hit.
    pub actions: Vec<Action>,
    /// Evict after this long without a hit (ZERO = never).
    pub idle_timeout: Duration,
    /// Evict after this long since installation (ZERO = never).
    pub hard_timeout: Duration,
    /// Controller-chosen correlation value.
    pub cookie: u64,
    /// Frames that hit this rule.
    pub packets: u64,
    /// Bytes that hit this rule.
    pub bytes: u64,
    installed: Instant,
    last_hit: Instant,
}

impl FlowEntry {
    fn from_mod(fm: &FlowMod, now: Instant) -> Self {
        FlowEntry {
            priority: fm.priority,
            matcher: fm.matcher,
            actions: fm.actions.clone(),
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            cookie: fm.cookie,
            packets: 0,
            bytes: 0,
            installed: now,
            last_hit: now,
        }
    }

    fn is_expired(&self, now: Instant) -> bool {
        (!self.idle_timeout.is_zero()
            && now.saturating_duration_since(self.last_hit) >= self.idle_timeout)
            || (!self.hard_timeout.is_zero()
                && now.saturating_duration_since(self.installed) >= self.hard_timeout)
    }
}

/// A matched rule's actions plus what the flow cache needs to mirror the
/// rule's expiry behaviour (see [`crate::cache::FlowCache`]).
#[derive(Debug)]
pub struct CacheableFlow {
    /// The matched actions.
    pub actions: Vec<Action>,
    /// The rule's idle timeout (ZERO = never idle-expires).
    pub idle_timeout: Duration,
    /// Time left until the hard timeout fires, or `None` when there is none.
    pub hard_remaining: Option<Duration>,
}

/// A priority-ordered flow table.
#[derive(Debug, Default, Clone)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Frames that matched no rule (dropped), for observability. With the
    /// flow cache in front, this counts only misses that reached the table;
    /// [`crate::Switch::miss_count`] is the per-frame total.
    pub misses: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when applying `fm` would actually change table behaviour.
    ///
    /// The failover re-sync path re-installs every rule a new leader
    /// recovered from the coordinator; most are byte-identical to what the
    /// switch already holds, and flushing the megaflow cache for each
    /// would destroy the hot-path hit ratio for nothing. A `FlowMod` is a
    /// no-op when:
    ///
    /// * `Add` — an unexpired entry with the identical match, priority,
    ///   actions, cookie and (both zero) timeouts already exists. Rules
    ///   with nonzero timeouts are never no-ops: a re-add legitimately
    ///   refreshes their idle/hard clocks.
    /// * `Modify` — every subsumed entry already carries the new actions.
    /// * `Delete` — nothing is subsumed (respecting strict-priority).
    pub fn would_change(&self, fm: &FlowMod, now: Instant) -> bool {
        match fm.command {
            FlowModCommand::Add => {
                let identical = self.entries.iter().any(|e| {
                    !e.is_expired(now)
                        && e.matcher == fm.matcher
                        && e.priority == fm.priority
                        && e.actions == fm.actions
                        && e.cookie == fm.cookie
                        && e.idle_timeout.is_zero()
                        && e.hard_timeout.is_zero()
                        && fm.idle_timeout.is_zero()
                        && fm.hard_timeout.is_zero()
                });
                !identical
            }
            FlowModCommand::Modify => self
                .entries
                .iter()
                .any(|e| fm.matcher.subsumes(&e.matcher) && e.actions != fm.actions),
            FlowModCommand::Delete => self.entries.iter().any(|e| {
                fm.matcher.subsumes(&e.matcher) && (fm.priority == 0 || fm.priority == e.priority)
            }),
        }
    }

    /// Applies a `FlowMod` (§3.4). `Add` replaces a rule with an identical
    /// match and priority; `Modify` rewrites actions of every rule the match
    /// subsumes; `Delete` removes every rule the match subsumes.
    pub fn apply(&mut self, fm: &FlowMod, now: Instant) {
        match fm.command {
            FlowModCommand::Add => {
                if let Some(existing) = self
                    .entries
                    .iter_mut()
                    .find(|e| e.matcher == fm.matcher && e.priority == fm.priority)
                {
                    *existing = FlowEntry::from_mod(fm, now);
                } else {
                    self.entries.push(FlowEntry::from_mod(fm, now));
                    // Keep highest (priority, specificity) first so lookup
                    // is a linear scan with first-hit-wins.
                    self.entries.sort_by(|a, b| {
                        (b.priority, b.matcher.specificity())
                            .cmp(&(a.priority, a.matcher.specificity()))
                    });
                }
            }
            FlowModCommand::Modify => {
                for e in self
                    .entries
                    .iter_mut()
                    .filter(|e| fm.matcher.subsumes(&e.matcher))
                {
                    e.actions = fm.actions.clone();
                }
            }
            FlowModCommand::Delete => {
                // Priority 0 deletes by subsumption alone; a non-zero
                // priority makes the delete strict (OFPFC_DELETE_STRICT),
                // which lets the live debugger remove its mirror rules
                // without touching the identically-matched base rules.
                self.entries.retain(|e| {
                    !(fm.matcher.subsumes(&e.matcher)
                        && (fm.priority == 0 || fm.priority == e.priority))
                });
            }
        }
    }

    /// Looks up the best rule for a frame, updating hit counters. Returns
    /// a clone of the matched actions, or `None` (a table miss: the frame
    /// is dropped and counted, OVS's default behaviour with no table-miss
    /// rule installed).
    pub fn lookup(
        &mut self,
        meta: &FrameMeta,
        frame_len: usize,
        now: Instant,
    ) -> Option<Vec<Action>> {
        match self
            .entries
            .iter_mut()
            .find(|e| !e.is_expired(now) && e.matcher.matches(meta))
        {
            Some(e) => {
                e.packets += 1;
                e.bytes += frame_len as u64;
                e.last_hit = now;
                Some(e.actions.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`FlowTable::lookup`] for a whole same-key batch run: credits
    /// `packets`/`bytes` in one step and returns the matched actions along
    /// with the timeout data the flow cache mirrors. A miss counts every
    /// frame of the run, preserving per-frame miss accounting.
    pub fn lookup_credit(
        &mut self,
        meta: &FrameMeta,
        packets: u64,
        bytes: u64,
        now: Instant,
    ) -> Option<CacheableFlow> {
        match self
            .entries
            .iter_mut()
            .find(|e| !e.is_expired(now) && e.matcher.matches(meta))
        {
            Some(e) => {
                e.packets += packets;
                e.bytes += bytes;
                e.last_hit = now;
                Some(CacheableFlow {
                    actions: e.actions.clone(),
                    idle_timeout: e.idle_timeout,
                    hard_remaining: if e.hard_timeout.is_zero() {
                        None
                    } else {
                        Some(
                            e.hard_timeout
                                .saturating_sub(now.saturating_duration_since(e.installed)),
                        )
                    },
                })
            }
            None => {
                self.misses += packets;
                None
            }
        }
    }

    /// Credits hit statistics accumulated in the flow cache back to the
    /// rule they were forwarded by: the first rule matching the key that
    /// was live when the cache slot was filled — an idle-expired rule the
    /// sweep has not removed yet was passed over then, and is passed over
    /// here. The hits are proof of traffic, so this also refreshes that
    /// rule's idle clock — without it, a rule whose frames all hit the
    /// cache would idle-expire under constant load.
    pub fn credit(&mut self, hits: &Displaced, now: Instant) {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| !e.is_expired(hits.filled) && e.matcher.matches(&hits.meta))
        {
            e.packets += hits.packets;
            e.bytes += hits.bytes;
            e.last_hit = now;
        }
    }

    /// Shifts every entry's expiry clocks forward by `delta`, so a window
    /// during which expiry was suspended (the switch ran headless between
    /// controller leaders) does not count against idle or hard timeouts.
    pub fn shift_clocks(&mut self, delta: Duration) {
        for e in &mut self.entries {
            e.installed += delta;
            e.last_hit += delta;
        }
    }

    /// Removes expired rules, returning how many were evicted. The §3.5
    /// stateless-removal procedure relies on this: "the SDN flow rules
    /// interconnecting the worker and its predecessors are automatically
    /// removed due to idle timeout of the rule entries".
    pub fn expire(&mut self, now: Instant) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.is_expired(now));
        before - self.entries.len()
    }

    /// Per-rule statistics (the `FlowStatsReply` payload).
    pub fn stats(&self) -> Vec<FlowStats> {
        self.entries
            .iter()
            .map(|e| FlowStats {
                matcher: e.matcher,
                priority: e.priority,
                cookie: e.cookie,
                packets: e.packets,
                bytes: e.bytes,
            })
            .collect()
    }

    /// Read-only view of the entries (rule dumps, tests).
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{FlowCache, Probe};
    use typhoon_net::{MacAddr, TYPHOON_ETHERTYPE};
    use typhoon_openflow::PortNo;
    use typhoon_tuple::tuple::TaskId;

    fn meta(in_port: u32, dst: MacAddr) -> FrameMeta {
        FrameMeta {
            in_port: PortNo(in_port),
            dl_src: MacAddr::worker(1, TaskId(1)),
            dl_dst: dst,
            ether_type: TYPHOON_ETHERTYPE,
        }
    }

    fn w(task: u32) -> MacAddr {
        MacAddr::worker(1, TaskId(task))
    }

    #[test]
    fn exact_rule_beats_wildcard_of_lower_priority() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        t.apply(
            &FlowMod::add(1, FlowMatch::any(), vec![Action::Output(PortNo(99))]),
            now,
        );
        t.apply(
            &FlowMod::add(
                10,
                FlowMatch::any().dl_dst(w(2)),
                vec![Action::Output(PortNo(2))],
            ),
            now,
        );
        let actions = t.lookup(&meta(1, w(2)), 64, now).unwrap();
        assert_eq!(actions, vec![Action::Output(PortNo(2))]);
        let actions = t.lookup(&meta(1, w(3)), 64, now).unwrap();
        assert_eq!(actions, vec![Action::Output(PortNo(99))]);
    }

    #[test]
    fn equal_priority_tie_breaks_on_specificity() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any().ether_type(TYPHOON_ETHERTYPE), vec![]),
            now,
        );
        t.apply(
            &FlowMod::add(
                5,
                FlowMatch::any()
                    .ether_type(TYPHOON_ETHERTYPE)
                    .dl_dst(w(7))
                    .in_port(PortNo(1)),
                vec![Action::Output(PortNo(7))],
            ),
            now,
        );
        let actions = t.lookup(&meta(1, w(7)), 10, now).unwrap();
        assert_eq!(actions, vec![Action::Output(PortNo(7))]);
    }

    #[test]
    fn miss_counts_and_drops() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        assert!(t.lookup(&meta(1, w(1)), 10, now).is_none());
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn add_with_same_match_and_priority_replaces() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        let m = FlowMatch::any().dl_dst(w(1));
        t.apply(&FlowMod::add(5, m, vec![Action::Output(PortNo(1))]), now);
        t.apply(&FlowMod::add(5, m, vec![Action::Output(PortNo(2))]), now);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&meta(0, w(1)), 1, now).unwrap(),
            vec![Action::Output(PortNo(2))]
        );
    }

    #[test]
    fn delete_subsumes_wildcards() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any().in_port(PortNo(1)).dl_dst(w(1)), vec![]),
            now,
        );
        t.apply(
            &FlowMod::add(5, FlowMatch::any().in_port(PortNo(1)).dl_dst(w(2)), vec![]),
            now,
        );
        t.apply(
            &FlowMod::add(5, FlowMatch::any().in_port(PortNo(2)), vec![]),
            now,
        );
        // Delete everything arriving on port 1.
        t.apply(&FlowMod::delete(FlowMatch::any().in_port(PortNo(1))), now);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].matcher.in_port, Some(PortNo(2)));
    }

    #[test]
    fn modify_rewrites_actions_preserving_counters() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        let m = FlowMatch::any().dl_dst(w(4));
        t.apply(&FlowMod::add(5, m, vec![Action::Output(PortNo(1))]), now);
        t.lookup(&meta(0, w(4)), 100, now).unwrap();
        let mut modify = FlowMod::add(5, m, vec![Action::Output(PortNo(9))]);
        modify.command = FlowModCommand::Modify;
        t.apply(&modify, now);
        assert_eq!(t.entries()[0].packets, 1, "counters survive modify");
        assert_eq!(
            t.lookup(&meta(0, w(4)), 1, now).unwrap(),
            vec![Action::Output(PortNo(9))]
        );
    }

    #[test]
    fn idle_timeout_expires_unused_rules() {
        let mut t = FlowTable::new();
        let t0 = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any().dl_dst(w(1)), vec![])
                .with_idle_timeout(Duration::from_secs(2)),
            t0,
        );
        // A hit at t0+1 refreshes the idle clock.
        assert!(t
            .lookup(&meta(0, w(1)), 1, t0 + Duration::from_secs(1))
            .is_some());
        assert_eq!(t.expire(t0 + Duration::from_millis(2500)), 0);
        assert_eq!(t.expire(t0 + Duration::from_millis(3100)), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_timeout_expires_regardless_of_traffic() {
        let mut t = FlowTable::new();
        let t0 = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any(), vec![]).with_hard_timeout(Duration::from_secs(2)),
            t0,
        );
        for i in 0..3 {
            let _ = t.lookup(&meta(0, w(1)), 1, t0 + Duration::from_millis(600 * i));
        }
        assert_eq!(t.expire(t0 + Duration::from_secs(2)), 1);
    }

    #[test]
    fn expired_rule_is_skipped_by_lookup_before_eviction() {
        let mut t = FlowTable::new();
        let t0 = Instant::now();
        t.apply(
            &FlowMod::add(9, FlowMatch::any(), vec![Action::Output(PortNo(1))])
                .with_idle_timeout(Duration::from_millis(10)),
            t0,
        );
        // Not yet swept, but logically expired: lookup must miss.
        assert!(t
            .lookup(&meta(0, w(1)), 1, t0 + Duration::from_secs(1))
            .is_none());
    }

    #[test]
    fn lookup_credit_charges_a_whole_run_and_mirrors_timeouts() {
        let mut t = FlowTable::new();
        let t0 = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any(), vec![Action::Output(PortNo(1))])
                .with_idle_timeout(Duration::from_secs(3))
                .with_hard_timeout(Duration::from_secs(10)),
            t0,
        );
        let cf = t
            .lookup_credit(&meta(1, w(2)), 8, 800, t0 + Duration::from_secs(2))
            .expect("match");
        assert_eq!(cf.actions, vec![Action::Output(PortNo(1))]);
        assert_eq!(cf.idle_timeout, Duration::from_secs(3));
        assert_eq!(cf.hard_remaining, Some(Duration::from_secs(8)));
        assert_eq!(t.entries()[0].packets, 8);
        assert_eq!(t.entries()[0].bytes, 800);
    }

    #[test]
    fn lookup_credit_miss_counts_every_frame_of_the_run() {
        let mut t = FlowTable::new();
        assert!(t
            .lookup_credit(&meta(1, w(2)), 5, 500, Instant::now())
            .is_none());
        assert_eq!(t.misses, 5);
    }

    #[test]
    fn credit_adds_counters_and_refreshes_idle_clock() {
        let mut t = FlowTable::new();
        let t0 = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any(), vec![]).with_idle_timeout(Duration::from_secs(2)),
            t0,
        );
        // All traffic hit the cache; the credit at t0+1.9s proves the flow
        // is alive and must reset the idle clock.
        let hits = Displaced {
            meta: meta(1, w(2)),
            packets: 100,
            bytes: 1000,
            filled: t0,
        };
        t.credit(&hits, t0 + Duration::from_millis(1900));
        assert_eq!(t.entries()[0].packets, 100);
        assert_eq!(t.expire(t0 + Duration::from_millis(2100)), 0);
        assert_eq!(t.expire(t0 + Duration::from_millis(4000)), 1);
    }

    /// A higher-priority rule that idle-expired but was not swept yet is
    /// passed over by the lookup that fills the cache slot; the hits the
    /// slot then gathers are the lower rule's, and must not revive the
    /// expired one.
    #[test]
    fn cached_hits_go_to_the_rule_live_when_the_slot_was_filled() {
        let mut t = FlowTable::new();
        let cache = FlowCache::new();
        let t0 = Instant::now();
        let key = meta(1, w(2));
        let high = FlowMod::add(
            9,
            FlowMatch::any().dl_dst(w(2)),
            vec![Action::Output(PortNo(9))],
        );
        t.apply(&high.with_idle_timeout(Duration::from_secs(1)), t0);
        t.apply(
            &FlowMod::add(1, FlowMatch::any(), vec![Action::Output(PortNo(1))]),
            t0,
        );
        let filled = t0 + Duration::from_secs(2);
        let cf = t.lookup_credit(&key, 1, 100, filled).expect("low rule");
        assert_eq!(cf.actions, vec![Action::Output(PortNo(1))]);
        cache.insert(
            &key,
            &cf.actions,
            cf.idle_timeout,
            cf.hard_remaining,
            filled,
        );
        assert!(matches!(cache.probe(&key, 4, 400, filled), Probe::Hit(_)));
        let drained = filled + Duration::from_millis(500);
        cache.drain_pending(|hits| t.credit(hits, drained));
        let packets: Vec<(u16, u64)> = t
            .entries()
            .iter()
            .map(|e| (e.priority, e.packets))
            .collect();
        assert_eq!(packets, [(9, 0), (1, 5)]);
        assert_eq!(t.expire(drained), 1, "the expired rule stays expired");
    }

    #[test]
    fn identical_readd_is_a_noop_but_any_difference_is_not() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        let rule = FlowMod::add(
            10,
            FlowMatch::any().in_port(PortNo(1)).dl_dst(w(2)),
            vec![Action::Output(PortNo(2))],
        );
        assert!(
            t.would_change(&rule, now),
            "first install changes the table"
        );
        t.apply(&rule, now);
        assert!(
            !t.would_change(&rule, now),
            "byte-identical re-add is a no-op"
        );
        // Any divergence — actions, priority, cookie, a timeout — changes it.
        let mut other = rule.clone();
        other.actions = vec![Action::Output(PortNo(3))];
        assert!(t.would_change(&other, now));
        let mut other = rule.clone();
        other.priority = 11;
        assert!(t.would_change(&other, now));
        let mut other = rule.clone();
        other.cookie = 7;
        assert!(t.would_change(&other, now));
        let timed = rule.clone().with_idle_timeout(Duration::from_secs(1));
        assert!(
            t.would_change(&timed, now),
            "a timed re-add refreshes clocks and is never a no-op"
        );
    }

    #[test]
    fn noop_check_covers_modify_and_delete() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        let rule = FlowMod::add(
            10,
            FlowMatch::any().in_port(PortNo(1)),
            vec![Action::Output(PortNo(2))],
        );
        t.apply(&rule, now);
        // Modify to the same actions: no-op. To different actions: change.
        let mut same = rule.clone();
        same.command = FlowModCommand::Modify;
        assert!(!t.would_change(&same, now));
        let mut diff = same.clone();
        diff.actions = vec![Action::Output(PortNo(4))];
        assert!(t.would_change(&diff, now));
        // Delete of something subsumed: change. Of nothing: no-op.
        assert!(t.would_change(&FlowMod::delete(FlowMatch::any()), now));
        assert!(!t.would_change(&FlowMod::delete(FlowMatch::any().in_port(PortNo(9))), now));
    }

    #[test]
    fn stats_reflect_hits() {
        let mut t = FlowTable::new();
        let now = Instant::now();
        t.apply(
            &FlowMod::add(5, FlowMatch::any(), vec![]).with_cookie(77),
            now,
        );
        t.lookup(&meta(0, w(1)), 100, now);
        t.lookup(&meta(0, w(2)), 50, now);
        let stats = t.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].packets, 2);
        assert_eq!(stats[0].bytes, 150);
        assert_eq!(stats[0].cookie, 77);
    }
}
