//! Property test for the megaflow cache: random interleavings of `FlowMod`
//! add / modify / delete (including the `would_change`-gated identical
//! re-install that must *not* flush the cache), expiry sweeps, tunnel
//! changes (`invalidate_all`) and lookups of random `FrameMeta`, with the
//! cache and the table driven exactly the way the datapath drives them
//! (`forward.rs::resolve`, the `FlowMod` arm of `link.rs`,
//! `datapath.rs::maybe_expire`). Pins:
//!
//! * after every step, what the cache path answers — hit, negative hit, or
//!   miss → table — is what `FlowTable::lookup` answers on the current
//!   table;
//! * wherever the datapath drains the cache's pending hits before an
//!   observer looks (a `FlowMod` that changes the table, a sweep, a stats
//!   request), every rule's packet / byte counters equal what direct
//!   `lookup_credit` calls would have credited it.
//!
//! The clock moves in sweeps and in statistics requests, which drain the
//! cache without expiring anything — so lookups also run while a rule has
//! idle-expired but is not swept yet, and a drain then credits hits the
//! cache gathered for the rule the key fell through to. Every clock move
//! drains: between drains the cache's idle clock is, by design, finer than
//! the table's (cached hits reach the table at the next drain), so
//! exactness is claimed — and checked — at the granularity of the drains.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use typhoon_net::{MacAddr, TYPHOON_ETHERTYPE};
use typhoon_openflow::{Action, FlowMatch, FlowMod, FlowModCommand, FrameMeta, GroupId, PortNo};
use typhoon_switch::cache::Probe;
use typhoon_switch::{FlowCache, FlowTable};
use typhoon_tuple::tuple::TaskId;

#[derive(Debug, Clone)]
enum Op {
    /// Any `FlowMod`.
    Mod(FlowMod),
    /// Re-sends the `n`-th `Add` sent so far: the failover re-sync.
    Reinstall(usize),
    /// Advances the clock and runs the expiry sweep.
    Sweep(Duration),
    /// Advances the clock and answers a `FlowStatsRequest`: a drain, no
    /// sweep.
    Stats(Duration),
    /// A tunnel came or went.
    TunnelChange,
    /// One same-key run of `packets` frames.
    Lookup(FrameMeta, u64),
}

fn mac(n: u32) -> MacAddr {
    MacAddr::worker(0, TaskId(n))
}

/// Keys: three hot ones (so entries are hit again between two rule
/// changes) inside a space wider than the cache's 1024 slots (so slots are
/// also overwritten while they hold pending hits).
fn arb_meta() -> impl Strategy<Value = FrameMeta> {
    (0u32..3, 1u32..4, 0u32..4, 0u32..512, any::<bool>()).prop_map(
        |(pick, port, src, dst, typhoon)| {
            let hot = pick < 2;
            FrameMeta {
                in_port: PortNo(if hot { 1 } else { port }),
                dl_src: mac(if hot { 0 } else { src }),
                dl_dst: mac(if hot { dst % 3 } else { dst }),
                ether_type: if hot || typhoon {
                    TYPHOON_ETHERTYPE
                } else {
                    0x0800
                },
            }
        },
    )
}

/// Matches from "everything" to one exact key, overlapping on purpose.
fn arb_match() -> impl Strategy<Value = FlowMatch> {
    // Each field is a wildcard two times in three, so most rules are wide
    // enough to cover the hot keys and each other.
    fn field(values: std::ops::Range<u32>) -> impl Strategy<Value = Option<u32>> {
        prop_oneof![Just(None), Just(None), values.prop_map(Some)]
    }
    (field(1..4), field(0..2), field(0..4), field(0..2)).prop_map(|(port, src, dst, ty)| {
        FlowMatch {
            in_port: port.map(PortNo),
            dl_src: src.map(mac),
            dl_dst: dst.map(mac),
            ether_type: ty.map(|t| if t == 0 { TYPHOON_ETHERTYPE } else { 0x0800 }),
        }
    })
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u32..5).prop_map(|p| Action::Output(PortNo(p))),
        (0u32..3).prop_map(Action::SetTunDst),
        (0u32..4).prop_map(|d| Action::SetDlDst(mac(d))),
        (0u32..3).prop_map(|g| Action::Group(GroupId(g))),
        Just(Action::ToController),
    ]
}

/// Action lists, now and then longer than a cache slot holds (9 > 8).
fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop_oneof![
        proptest::collection::vec(arb_action(), 0..4),
        proptest::collection::vec(arb_action(), 0..4),
        proptest::collection::vec(arb_action(), 0..4),
        proptest::collection::vec(arb_action(), 9..10),
    ]
}

fn arb_timeout() -> impl Strategy<Value = Duration> {
    prop_oneof![
        Just(Duration::ZERO),
        Just(Duration::ZERO),
        (1u64..6).prop_map(Duration::from_secs),
    ]
}

fn arb_flow_mod() -> impl Strategy<Value = FlowMod> {
    // Timeout-free adds are the only ones a re-install can be a no-op for.
    let plain_add = (1u16..4, arb_match(), arb_actions())
        .prop_map(|(priority, matcher, actions)| FlowMod::add(priority, matcher, actions));
    let timed_add = (
        1u16..4,
        arb_match(),
        arb_actions(),
        arb_timeout(),
        arb_timeout(),
        0u64..2,
    )
        .prop_map(|(priority, matcher, actions, idle, hard, cookie)| {
            FlowMod::add(priority, matcher, actions)
                .with_idle_timeout(idle)
                .with_hard_timeout(hard)
                .with_cookie(cookie)
        });
    let modify = (arb_match(), arb_actions()).prop_map(|(matcher, actions)| FlowMod {
        command: FlowModCommand::Modify,
        ..FlowMod::add(0, matcher, actions)
    });
    // Priority 0 deletes by subsumption, anything else strictly.
    let delete = (arb_match(), 0u16..4).prop_map(|(matcher, priority)| FlowMod {
        priority,
        ..FlowMod::delete(matcher)
    });
    prop_oneof![plain_add, timed_add, modify, delete]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Two steps in three are lookups; one in eighteen is a tunnel change.
    let lookup = || (arb_meta(), 1u64..6).prop_map(|(m, p)| Op::Lookup(m, p));
    proptest::collection::vec(
        prop_oneof![
            arb_flow_mod().prop_map(Op::Mod),
            (0usize..8).prop_map(Op::Reinstall),
            (0u64..3000).prop_map(|ms| Op::Sweep(Duration::from_millis(ms))),
            (0u64..3000).prop_map(|ms| Op::Stats(Duration::from_millis(ms))),
            lookup(),
            lookup(),
            lookup(),
            lookup(),
            lookup(),
            (0u32..3).prop_map(|n| match n {
                0 => Op::TunnelChange,
                _ => Op::Sweep(Duration::ZERO),
            }),
        ],
        0..160,
    )
}

const FRAME_LEN: u64 = 100;

/// The cache and the table, wired the way `typhoon-switch` wires them, plus
/// the ledger of what direct `lookup_credit` calls would have credited:
/// `(match, priority)` — a rule's identity in the table — to packets, bytes.
struct Datapath {
    cache: FlowCache,
    table: FlowTable,
    now: Instant,
    ledger: Vec<(FlowMatch, u16, u64, u64)>,
}

impl Datapath {
    /// `forward.rs::resolve`.
    fn resolve(&mut self, meta: &FrameMeta, packets: u64, bytes: u64) -> Option<Vec<Action>> {
        let now = self.now;
        match self.cache.probe(meta, packets, bytes, now) {
            Probe::Hit(actions) => Some(actions.to_vec()),
            Probe::NegativeHit => None,
            Probe::Miss => {
                let found = self.table.lookup_credit(meta, packets, bytes, now);
                let displaced = match &found {
                    Some(cf) => self.cache.insert(
                        meta,
                        &cf.actions,
                        cf.idle_timeout,
                        cf.hard_remaining,
                        now,
                    ),
                    None => self.cache.insert_negative(meta, now),
                };
                if let Some(d) = displaced {
                    self.table.credit(&d, now);
                }
                found.map(|cf| cf.actions)
            }
        }
    }

    /// What every statistics observer does first.
    fn drain(&mut self) {
        let (table, now) = (&mut self.table, self.now);
        self.cache.drain_pending(|hits| table.credit(hits, now));
        for e in self.table.entries() {
            let credited = self
                .ledger
                .iter()
                .find(|(m, p, ..)| (*m, *p) == (e.matcher, e.priority))
                .map_or((0, 0), |&(.., packets, bytes)| (packets, bytes));
            assert_eq!(
                (e.packets, e.bytes),
                credited,
                "rule {:?}/{} after a drain",
                e.matcher,
                e.priority
            );
        }
    }

    /// Forgets the ledger rows of rules that are gone.
    fn prune_ledger(&mut self) {
        let entries = self.table.entries();
        self.ledger
            .retain(|(m, p, ..)| entries.iter().any(|e| (e.matcher, e.priority) == (*m, *p)));
    }

    /// The `FlowMod` arm of `link.rs`.
    fn flow_mod(&mut self, fm: &FlowMod) {
        if !self.table.would_change(fm, self.now) {
            return; // and the cache keeps its entries
        }
        self.drain();
        self.table.apply(fm, self.now);
        self.cache.invalidate_all();
        if fm.command == FlowModCommand::Add {
            // An add starts (or restarts) its rule's counters.
            self.ledger
                .retain(|(m, p, ..)| (*m, *p) != (fm.matcher, fm.priority));
        }
        self.prune_ledger();
    }

    /// `datapath.rs::maybe_expire`, once the clock has moved by `dt`.
    fn sweep(&mut self, dt: Duration) {
        self.now += dt;
        self.drain();
        if self.table.expire(self.now) > 0 {
            self.cache.invalidate_all();
        }
        self.prune_ledger();
    }

    /// One run: the cache path must answer what the table answers, and the
    /// ledger learns which rule a direct `lookup_credit` credits.
    fn lookup(&mut self, meta: &FrameMeta, packets: u64) {
        let bytes = packets * FRAME_LEN;
        let mut direct = self.table.clone();
        let expected = direct
            .lookup_credit(meta, packets, bytes, self.now)
            .map(|cf| cf.actions);
        assert_eq!(
            expected,
            self.table
                .clone()
                .lookup(meta, FRAME_LEN as usize, self.now),
            "lookup_credit and lookup disagree"
        );
        let hit = direct
            .entries()
            .iter()
            .zip(self.table.entries())
            .find(|(after, before)| after.packets != before.packets)
            .map(|(e, _)| (e.matcher, e.priority));
        if let Some((matcher, priority)) = hit {
            match self
                .ledger
                .iter_mut()
                .find(|(m, p, ..)| (*m, *p) == (matcher, priority))
            {
                Some(row) => {
                    row.2 += packets;
                    row.3 += bytes;
                }
                None => self.ledger.push((matcher, priority, packets, bytes)),
            }
        }
        assert_eq!(
            self.resolve(meta, packets, bytes),
            expected,
            "cache path vs. table for {meta:?}"
        );
    }
}

proptest! {
    #[test]
    fn cache_path_resolves_like_the_table_and_credits_like_direct_lookups(ops in arb_ops()) {
        let mut dp = Datapath {
            cache: FlowCache::new(),
            table: FlowTable::new(),
            now: Instant::now(),
            ledger: Vec::new(),
        };
        let mut adds: Vec<FlowMod> = Vec::new();
        for op in ops {
            match op {
                Op::Mod(fm) => {
                    if fm.command == FlowModCommand::Add {
                        adds.push(fm.clone());
                    }
                    dp.flow_mod(&fm);
                }
                Op::Reinstall(n) => {
                    if !adds.is_empty() {
                        dp.flow_mod(&adds[n % adds.len()]);
                    }
                }
                Op::Sweep(dt) => dp.sweep(dt),
                Op::Stats(dt) => {
                    dp.now += dt;
                    dp.drain();
                }
                Op::TunnelChange => dp.cache.invalidate_all(),
                Op::Lookup(meta, packets) => dp.lookup(&meta, packets),
            }
        }
        // A `FlowStatsRequest` at the end of the run.
        dp.drain();
    }
}
