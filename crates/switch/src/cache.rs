//! A megaflow-style flow cache for the datapath hot loop.
//!
//! The paper's prototype ran on an OVS kernel datapath, where the first
//! packet of a flow consults the full (priority-ordered, wildcarded) flow
//! table and the result is installed in an exact-match cache that every
//! subsequent packet hits without touching the table (§6.1, "negligible …
//! overhead in OVS"). This module reproduces that split: the datapath
//! resolves one `(in_port, dl_src, dl_dst, ether_type)` key per *batch run*
//! against a fixed-size, lock-free cache, and only a cache miss takes the
//! `table` mutex.
//!
//! ## Concurrency
//!
//! Slots are seqlock-protected sets of `AtomicU64`s, so the structure is
//! lock-free and safe (no `unsafe` anywhere) even though in steady state a
//! single datapath thread is both the only writer and the dominant reader.
//! The seqlock keeps concurrent manual `process_frames` callers (tests,
//! `PacketOut`) from ever observing a torn entry: a reader validates the
//! slot sequence number before and after reading, and retries as a miss on
//! mismatch.
//!
//! ## Invalidation
//!
//! A global generation counter is stamped into each slot at insert time.
//! Any table change that can alter match results — `FlowMod` add, modify or
//! delete, a rule eviction by timeout, tunnel registration or teardown —
//! bumps the generation, which logically empties the whole cache at the
//! cost of one atomic increment (the OVS "revalidate everything" big
//! hammer, which is the right trade at Typhoon's rule-change rates).
//!
//! ## Statistics exactness
//!
//! Per-rule packet/byte counters must stay exact (`FlowStatsReply` feeds
//! tests and the debugger), so cache hits accumulate into per-slot pending
//! counters that are flushed into the [`FlowTable`](crate::table::FlowTable)
//! under its lock before any observer can look: on `FlowStatsRequest`, on
//! `FlowMod` application, on the periodic expiry sweep, and when an insert
//! overwrites an occupied slot. A slot remembers when it was filled, and
//! the flush credits the rule that was live then — the one its key
//! resolved to — never a higher-priority rule that had already expired,
//! unswept, when the key was resolved.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use typhoon_metrics::{Counter, MetricSnapshot, Registry};
use typhoon_net::MacAddr;
use typhoon_openflow::{Action, FrameMeta, GroupId, PortNo};

/// Slot count; power of two so indexing is a mask.
const SLOTS: usize = 1024;
/// Longest action list a slot can hold; longer lists are simply not cached.
const MAX_ACTIONS: usize = 8;
/// `nact` sentinel for a negative (known-miss) entry.
const NEGATIVE: u64 = u64::MAX;
/// "No timeout" sentinel for the packed nanosecond fields.
const NO_DEADLINE: u64 = u64::MAX;

const TAG_OUTPUT: u64 = 0;
const TAG_SET_TUN_DST: u64 = 1;
const TAG_SET_DL_DST: u64 = 2;
const TAG_GROUP: u64 = 3;
const TAG_TO_CONTROLLER: u64 = 4;

fn pack_mac(m: MacAddr) -> u64 {
    let b = m.0;
    (b[0] as u64) << 40
        | (b[1] as u64) << 32
        | (b[2] as u64) << 24
        | (b[3] as u64) << 16
        | (b[4] as u64) << 8
        | b[5] as u64
}

fn unpack_mac(v: u64) -> MacAddr {
    MacAddr([
        (v >> 40) as u8,
        (v >> 32) as u8,
        (v >> 24) as u8,
        (v >> 16) as u8,
        (v >> 8) as u8,
        v as u8,
    ])
}

/// Packs one action into `tag << 56 | operand`. MACs are 48-bit and port,
/// group and host ids are 32-bit, so every operand fits the low 56 bits.
fn pack_action(a: &Action) -> u64 {
    match *a {
        Action::Output(p) => TAG_OUTPUT << 56 | p.0 as u64,
        Action::SetTunDst(host) => TAG_SET_TUN_DST << 56 | host as u64,
        Action::SetDlDst(mac) => TAG_SET_DL_DST << 56 | pack_mac(mac),
        Action::Group(g) => TAG_GROUP << 56 | g.0 as u64,
        Action::ToController => TAG_TO_CONTROLLER << 56,
    }
}

fn unpack_action(v: u64) -> Action {
    let operand = v & ((1 << 56) - 1);
    match v >> 56 {
        TAG_OUTPUT => Action::Output(PortNo(operand as u32)),
        TAG_SET_TUN_DST => Action::SetTunDst(operand as u32),
        TAG_SET_DL_DST => Action::SetDlDst(unpack_mac(operand)),
        TAG_GROUP => Action::Group(GroupId(operand as u32)),
        _ => Action::ToController,
    }
}

fn key_of(meta: &FrameMeta) -> (u64, u64, u64) {
    (
        (meta.in_port.0 as u64) << 16 | meta.ether_type as u64,
        pack_mac(meta.dl_src),
        pack_mac(meta.dl_dst),
    )
}

fn meta_of(k0: u64, k1: u64, k2: u64) -> FrameMeta {
    FrameMeta {
        in_port: PortNo((k0 >> 16) as u32),
        ether_type: k0 as u16,
        dl_src: unpack_mac(k1),
        dl_dst: unpack_mac(k2),
    }
}

fn slot_index(k0: u64, k1: u64, k2: u64) -> usize {
    // splitmix64-style finalizer over the folded key.
    let mut h = k0 ^ k1.rotate_left(21) ^ k2.rotate_left(42);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h as usize & (SLOTS - 1)
}

/// One direct-mapped cache slot. `seq` is the seqlock word: 0 = never
/// written, odd = write in progress, even ≥ 2 = valid. The pending hit
/// counters and `last_hit` sit outside the seqlock on purpose — they are
/// monotonic accumulators whose worst-case failure under a (cross-thread)
/// overwrite race is a slightly misattributed statistic, never a torn read.
struct Slot {
    seq: AtomicU64,
    k0: AtomicU64,
    k1: AtomicU64,
    k2: AtomicU64,
    generation: AtomicU64,
    /// Action count, or [`NEGATIVE`] for a cached table miss.
    nact: AtomicU64,
    actions: [AtomicU64; MAX_ACTIONS],
    /// Idle timeout in nanos ([`NO_DEADLINE`] = none).
    idle_nanos: AtomicU64,
    /// Absolute hard deadline in nanos since the cache epoch.
    hard_deadline: AtomicU64,
    /// Last hit, nanos since the cache epoch (refreshed on every hit).
    last_hit: AtomicU64,
    /// When the slot was written, nanos since the cache epoch: the instant
    /// at which its key resolved to the rule its hits belong to.
    filled: AtomicU64,
    pending_packets: AtomicU64,
    pending_bytes: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            k0: AtomicU64::new(0),
            k1: AtomicU64::new(0),
            k2: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            nact: AtomicU64::new(0),
            actions: Default::default(),
            idle_nanos: AtomicU64::new(0),
            hard_deadline: AtomicU64::new(0),
            last_hit: AtomicU64::new(0),
            filled: AtomicU64::new(0),
            pending_packets: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
        }
    }
}

/// A cached action list, held inline: a hit allocates nothing, so the
/// worker thread that forwards its own batch pays no allocator call for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedActions {
    len: usize,
    actions: [Action; MAX_ACTIONS],
}

impl std::ops::Deref for CachedActions {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        &self.actions[..self.len]
    }
}

/// The outcome of a cache probe.
#[derive(Debug, PartialEq, Eq)]
pub enum Probe {
    /// Valid entry: execute these actions.
    Hit(CachedActions),
    /// Valid negative entry: the table is known to miss this key.
    NegativeHit,
    /// No usable entry; consult the flow table.
    Miss,
}

/// Pending statistics displaced from a slot (by an overwrite or a drain)
/// that must be credited back to the flow table.
#[derive(Debug)]
pub struct Displaced {
    /// The flow key the hits belong to.
    pub meta: FrameMeta,
    /// Hit packets not yet reflected in the table.
    pub packets: u64,
    /// Hit bytes not yet reflected in the table.
    pub bytes: u64,
    /// When the slot was filled: the hits belong to the rule that was live
    /// then (see [`FlowTable::credit`](crate::table::FlowTable::credit)).
    pub filled: Instant,
}

/// Monotonic cache counters (observability: `switch.cache.*`), resolved
/// once from the registry the cache counts into.
#[derive(Debug)]
struct Counters {
    hits: Counter,
    negative_hits: Counter,
    misses: Counter,
    insertions: Counter,
    invalidations: Counter,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frames resolved by a positive cache entry.
    pub hits: u64,
    /// Frames resolved by a negative (known-miss) entry.
    pub negative_hits: u64,
    /// Frames that had to consult the flow table.
    pub misses: u64,
    /// Entries written (positive or negative).
    pub insertions: u64,
    /// Generation bumps (whole-cache invalidations).
    pub invalidations: u64,
}

/// The `switch.cache.*` counters of a snapshot: one switch's registry, or
/// the total over several.
impl From<&MetricSnapshot> for CacheStats {
    fn from(snap: &MetricSnapshot) -> Self {
        CacheStats {
            hits: snap.counter("switch.cache.hits"),
            negative_hits: snap.counter("switch.cache.negative_hits"),
            misses: snap.counter("switch.cache.misses"),
            insertions: snap.counter("switch.cache.insertions"),
            invalidations: snap.counter("switch.cache.invalidations"),
        }
    }
}

impl CacheStats {
    /// Fraction of frames resolved without the table lock (positive and
    /// negative hits both avoid it). 1.0 on an idle cache.
    pub fn hit_ratio(&self) -> f64 {
        let resolved = self.hits + self.negative_hits;
        let total = resolved + self.misses;
        if total == 0 {
            1.0
        } else {
            resolved as f64 / total as f64
        }
    }
}

/// The lock-free megaflow cache. See the module docs for the protocol.
pub struct FlowCache {
    slots: Box<[Slot]>,
    generation: AtomicU64,
    epoch: Instant,
    counters: Counters,
}

impl FlowCache {
    /// An empty cache whose expiry clock starts now, counting into a
    /// registry of its own.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// An empty cache counting its `switch.cache.*` counters into
    /// `registry` (its switch's).
    pub fn with_registry(registry: &Registry) -> Self {
        FlowCache {
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            // Start at 1 so a zeroed slot generation never matches.
            generation: AtomicU64::new(1),
            epoch: Instant::now(),
            counters: Counters {
                hits: registry.counter("switch.cache.hits"),
                negative_hits: registry.counter("switch.cache.negative_hits"),
                misses: registry.counter("switch.cache.misses"),
                insertions: registry.counter("switch.cache.insertions"),
                invalidations: registry.counter("switch.cache.invalidations"),
            },
        }
    }

    fn nanos(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Logically empties the cache (rule or topology change).
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::Release);
        self.counters.invalidations.inc();
    }

    /// Looks up `meta` for a run of `packets` frames totalling `bytes`.
    /// A positive hit credits the slot's pending counters (flushed to the
    /// table later); a negative hit and a miss leave statistics to the
    /// caller. Expired and stale-generation entries read as misses.
    pub fn probe(&self, meta: &FrameMeta, packets: u64, bytes: u64, now: Instant) -> Probe {
        let (k0, k1, k2) = key_of(meta);
        let slot = &self.slots[slot_index(k0, k1, k2)];
        let now_n = self.nanos(now);

        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 != 0 {
            return self.miss(packets);
        }
        let sk0 = slot.k0.load(Ordering::Relaxed);
        let sk1 = slot.k1.load(Ordering::Relaxed);
        let sk2 = slot.k2.load(Ordering::Relaxed);
        let generation = slot.generation.load(Ordering::Relaxed);
        let nact = slot.nact.load(Ordering::Relaxed);
        let idle = slot.idle_nanos.load(Ordering::Relaxed);
        let hard = slot.hard_deadline.load(Ordering::Relaxed);
        let mut packed = [0u64; MAX_ACTIONS];
        for (i, a) in slot.actions.iter().enumerate() {
            packed[i] = a.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return self.miss(packets);
        }

        if (sk0, sk1, sk2) != (k0, k1, k2) || generation != self.generation.load(Ordering::Acquire)
        {
            return self.miss(packets);
        }
        if nact == NEGATIVE {
            self.counters.negative_hits.add(packets);
            return Probe::NegativeHit;
        }
        // Expiry mirrors `FlowEntry::is_expired`: the idle clock restarts on
        // every hit, the hard deadline never moves.
        let last = slot.last_hit.load(Ordering::Relaxed);
        if now_n >= hard || (idle != NO_DEADLINE && now_n.saturating_sub(last) >= idle) {
            return self.miss(packets);
        }
        slot.last_hit.store(now_n, Ordering::Relaxed);
        slot.pending_packets.fetch_add(packets, Ordering::Relaxed);
        slot.pending_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.counters.hits.add(packets);
        let mut hit = CachedActions {
            len: nact as usize,
            actions: [Action::ToController; MAX_ACTIONS],
        };
        for (action, &v) in hit.actions.iter_mut().zip(&packed[..hit.len]) {
            *action = unpack_action(v);
        }
        Probe::Hit(hit)
    }

    fn miss(&self, packets: u64) -> Probe {
        self.counters.misses.add(packets);
        Probe::Miss
    }

    /// Installs a positive entry. Returns pending statistics displaced from
    /// the slot, which the caller must credit to the flow table (it already
    /// holds the table lock on this path). Uncacheably long action lists
    /// are ignored.
    pub fn insert(
        &self,
        meta: &FrameMeta,
        actions: &[Action],
        idle_timeout: Duration,
        hard_remaining: Option<Duration>,
        now: Instant,
    ) -> Option<Displaced> {
        if actions.len() > MAX_ACTIONS {
            return None;
        }
        let now_n = self.nanos(now);
        let idle = if idle_timeout.is_zero() {
            NO_DEADLINE
        } else {
            idle_timeout.as_nanos() as u64
        };
        let hard = match hard_remaining {
            Some(d) => now_n.saturating_add(d.as_nanos() as u64),
            None => NO_DEADLINE,
        };
        self.write_slot(meta, now_n, |slot| {
            slot.nact.store(actions.len() as u64, Ordering::Relaxed);
            for (a, cell) in actions.iter().zip(slot.actions.iter()) {
                cell.store(pack_action(a), Ordering::Relaxed);
            }
            slot.idle_nanos.store(idle, Ordering::Relaxed);
            slot.hard_deadline.store(hard, Ordering::Relaxed);
        })
    }

    /// Installs a negative entry: the table currently misses this key, and
    /// will keep missing it until a rule change bumps the generation.
    pub fn insert_negative(&self, meta: &FrameMeta, now: Instant) -> Option<Displaced> {
        let now_n = self.nanos(now);
        self.write_slot(meta, now_n, |slot| {
            slot.nact.store(NEGATIVE, Ordering::Relaxed);
            slot.idle_nanos.store(NO_DEADLINE, Ordering::Relaxed);
            slot.hard_deadline.store(NO_DEADLINE, Ordering::Relaxed);
        })
    }

    /// Seqlock write protocol shared by both insert flavours: drain the
    /// displaced occupant's pending hits, mark the slot as mid-write, store
    /// the new key/payload, then publish with an even sequence.
    fn write_slot(
        &self,
        meta: &FrameMeta,
        now_n: u64,
        fill: impl FnOnce(&Slot),
    ) -> Option<Displaced> {
        let (k0, k1, k2) = key_of(meta);
        let slot = &self.slots[slot_index(k0, k1, k2)];
        let displaced = self.take_pending(slot);
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s.wrapping_add(1) | 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.k0.store(k0, Ordering::Relaxed);
        slot.k1.store(k1, Ordering::Relaxed);
        slot.k2.store(k2, Ordering::Relaxed);
        slot.generation
            .store(self.generation.load(Ordering::Acquire), Ordering::Relaxed);
        slot.last_hit.store(now_n, Ordering::Relaxed);
        slot.filled.store(now_n, Ordering::Relaxed);
        fill(slot);
        slot.seq
            .store((s.wrapping_add(1) | 1).wrapping_add(1), Ordering::Release);
        self.counters.insertions.inc();
        displaced
    }

    /// Swaps out a slot's pending hit counters, if any.
    fn take_pending(&self, slot: &Slot) -> Option<Displaced> {
        if slot.pending_packets.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let packets = slot.pending_packets.swap(0, Ordering::Relaxed);
        let bytes = slot.pending_bytes.swap(0, Ordering::Relaxed);
        if packets == 0 {
            return None;
        }
        Some(Displaced {
            meta: meta_of(
                slot.k0.load(Ordering::Relaxed),
                slot.k1.load(Ordering::Relaxed),
                slot.k2.load(Ordering::Relaxed),
            ),
            packets,
            bytes,
            filled: self.epoch + Duration::from_nanos(slot.filled.load(Ordering::Relaxed)),
        })
    }

    /// Flushes every slot's pending hit counters through `credit`. Called
    /// with the table lock held before any statistics observer runs, so
    /// per-rule packet/byte counts stay exact despite the cache.
    pub fn drain_pending(&self, mut credit: impl FnMut(&Displaced)) {
        for slot in self.slots.iter() {
            if let Some(d) = self.take_pending(slot) {
                credit(&d);
            }
        }
    }
}

impl Default for FlowCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlowCache(generation={})",
            self.generation.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_net::TYPHOON_ETHERTYPE;
    use typhoon_tuple::tuple::TaskId;

    fn meta(src: u32, dst: u32) -> FrameMeta {
        FrameMeta {
            in_port: PortNo(1),
            dl_src: MacAddr::worker(1, TaskId(src)),
            dl_dst: MacAddr::worker(1, TaskId(dst)),
            ether_type: TYPHOON_ETHERTYPE,
        }
    }

    #[test]
    fn action_packing_roundtrips() {
        let actions = [
            Action::Output(PortNo(7)),
            Action::Output(PortNo::TUNNEL),
            Action::Output(PortNo::CONTROLLER),
            Action::SetTunDst(0xdead_beef),
            Action::SetDlDst(MacAddr([1, 2, 3, 4, 5, 6])),
            Action::Group(GroupId(42)),
            Action::ToController,
        ];
        for a in &actions {
            assert_eq!(unpack_action(pack_action(a)), *a);
        }
    }

    #[test]
    fn meta_packing_roundtrips() {
        let m = FrameMeta {
            in_port: PortNo(0xffff),
            dl_src: MacAddr([0xaa; 6]),
            dl_dst: MacAddr([0x55; 6]),
            ether_type: 0x88b5,
        };
        let (k0, k1, k2) = key_of(&m);
        assert_eq!(meta_of(k0, k1, k2), m);
    }

    /// A cache and the registry it counts into.
    fn counted() -> (FlowCache, Registry) {
        let registry = Registry::new();
        (FlowCache::with_registry(&registry), registry)
    }

    fn stats(registry: &Registry) -> CacheStats {
        CacheStats::from(&registry.snapshot())
    }

    #[test]
    fn miss_insert_hit_cycle() {
        let (c, registry) = counted();
        let m = meta(1, 2);
        let now = Instant::now();
        assert_eq!(c.probe(&m, 1, 64, now), Probe::Miss);
        c.insert(&m, &[Action::Output(PortNo(2))], Duration::ZERO, None, now);
        match c.probe(&m, 3, 192, now) {
            Probe::Hit(a) => assert_eq!(*a, [Action::Output(PortNo(2))]),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = stats(&registry);
        assert_eq!((stats.hits, stats.misses, stats.insertions), (3, 1, 1));
        assert!(stats.hit_ratio() > 0.74 && stats.hit_ratio() < 0.76);
    }

    #[test]
    fn negative_entry_caches_a_table_miss() {
        let (c, registry) = counted();
        let m = meta(3, 4);
        let now = Instant::now();
        c.insert_negative(&m, now);
        assert_eq!(c.probe(&m, 2, 10, now), Probe::NegativeHit);
        assert_eq!(stats(&registry).negative_hits, 2);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let (c, registry) = counted();
        let m = meta(1, 2);
        let now = Instant::now();
        c.insert(&m, &[Action::ToController], Duration::ZERO, None, now);
        assert!(matches!(c.probe(&m, 1, 1, now), Probe::Hit(_)));
        c.invalidate_all();
        assert_eq!(c.probe(&m, 1, 1, now), Probe::Miss);
        assert_eq!(stats(&registry).invalidations, 1);
    }

    #[test]
    fn idle_timeout_expires_without_traffic_and_refreshes_with_it() {
        let c = FlowCache::new();
        let m = meta(5, 6);
        let t0 = Instant::now();
        c.insert(&m, &[], Duration::from_millis(100), None, t0);
        // Hits every 60ms keep it alive past the 100ms idle window…
        for i in 1..=3 {
            assert!(matches!(
                c.probe(&m, 1, 1, t0 + Duration::from_millis(60 * i)),
                Probe::Hit(_)
            ));
        }
        // …then 100ms of silence kills it.
        assert_eq!(
            c.probe(&m, 1, 1, t0 + Duration::from_millis(180 + 105)),
            Probe::Miss
        );
    }

    #[test]
    fn hard_deadline_ignores_traffic() {
        let c = FlowCache::new();
        let m = meta(7, 8);
        let t0 = Instant::now();
        c.insert(&m, &[], Duration::ZERO, Some(Duration::from_millis(50)), t0);
        assert!(matches!(
            c.probe(&m, 1, 1, t0 + Duration::from_millis(49)),
            Probe::Hit(_)
        ));
        assert_eq!(
            c.probe(&m, 1, 1, t0 + Duration::from_millis(51)),
            Probe::Miss
        );
    }

    #[test]
    fn drain_pending_credits_accumulated_hits() {
        let c = FlowCache::new();
        let m = meta(9, 10);
        let now = Instant::now();
        c.insert(&m, &[Action::Output(PortNo(2))], Duration::ZERO, None, now);
        c.probe(&m, 4, 400, now);
        c.probe(&m, 1, 100, now);
        let mut drained = Vec::new();
        c.drain_pending(|d| drained.push((d.meta, d.packets, d.bytes, d.filled)));
        assert_eq!(drained, vec![(m, 5, 500, now)]);
        // A second drain finds nothing.
        c.drain_pending(|_| panic!("already drained"));
    }

    #[test]
    fn overwrite_returns_displaced_pending_stats() {
        let c = FlowCache::new();
        let m = meta(11, 12);
        let now = Instant::now();
        c.insert(&m, &[Action::Output(PortNo(2))], Duration::ZERO, None, now);
        c.probe(&m, 7, 70, now);
        // Re-inserting the same key (e.g. after a generation bump) must not
        // lose the hits accumulated against the old incarnation.
        let displaced = c
            .insert(&m, &[Action::Output(PortNo(3))], Duration::ZERO, None, now)
            .expect("pending stats displaced");
        assert_eq!(displaced.meta, m);
        assert_eq!((displaced.packets, displaced.bytes), (7, 70));
    }

    #[test]
    fn oversized_action_lists_are_not_cached() {
        let c = FlowCache::new();
        let m = meta(13, 14);
        let now = Instant::now();
        let many: Vec<Action> = (0..9).map(|p| Action::Output(PortNo(p))).collect();
        c.insert(&m, &many, Duration::ZERO, None, now);
        assert_eq!(c.probe(&m, 1, 1, now), Probe::Miss);
    }
}
