//! # typhoon-kv — a Redis-like in-memory key-value store
//!
//! The Yahoo streaming benchmark (§6.2, Fig. 13) uses Redis twice: as the
//! lookup table joining ad IDs to campaign IDs, and as the sink for
//! windowed campaign counts. This crate provides that slice of Redis,
//! built from scratch: sharded string keys, hash maps with atomic
//! field increments, and windowed counters keyed by `(name, window)` —
//! enough for join, aggregation and verification, all thread-safe.

#![warn(missing_docs)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use typhoon_diag::DiagRwLock as RwLock;

const SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    strings: HashMap<String, String>,
    hashes: HashMap<String, BTreeMap<String, i64>>,
    blobs: HashMap<String, Vec<u8>>,
}

/// The store. Clone-free sharing via `Arc` at call sites.
pub struct KvStore {
    shards: Vec<RwLock<Shard>>,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % SHARDS as u64) as usize]
    }

    /// `SET key value`.
    pub fn set(&self, key: &str, value: &str) {
        self.shard(key)
            .write()
            .strings
            .insert(key.to_owned(), value.to_owned());
    }

    /// `GET key`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.shard(key).read().strings.get(key).cloned()
    }

    /// `DEL key` (string, hash and blob namespaces). Returns whether
    /// anything was removed.
    pub fn del(&self, key: &str) -> bool {
        let mut shard = self.shard(key).write();
        let a = shard.strings.remove(key).is_some();
        let b = shard.hashes.remove(key).is_some();
        let c = shard.blobs.remove(key).is_some();
        a || b || c
    }

    /// `SET key bytes` on the binary namespace — checkpoint snapshots are
    /// opaque `typhoon-tuple`-encoded blobs, not UTF-8 strings.
    pub fn bset(&self, key: &str, value: Vec<u8>) {
        self.shard(key).write().blobs.insert(key.to_owned(), value);
    }

    /// `GET key` on the binary namespace.
    pub fn bget(&self, key: &str) -> Option<Vec<u8>> {
        self.shard(key).read().blobs.get(key).cloned()
    }

    /// `DEL key` on the binary namespace only. Returns whether a blob was
    /// removed.
    pub fn bdel(&self, key: &str) -> bool {
        self.shard(key).write().blobs.remove(key).is_some()
    }

    /// `HINCRBY key field by` — atomic per-field increment; returns the
    /// new value. This is the aggregation primitive of the Yahoo
    /// benchmark's "aggregation & store" stage.
    pub fn hincr(&self, key: &str, field: &str, by: i64) -> i64 {
        let mut shard = self.shard(key).write();
        let entry = shard
            .hashes
            .entry(key.to_owned())
            .or_default()
            .entry(field.to_owned())
            .or_insert(0);
        *entry += by;
        *entry
    }

    /// `HSET key field value` (numeric fields).
    pub fn hset(&self, key: &str, field: &str, value: i64) {
        self.shard(key)
            .write()
            .hashes
            .entry(key.to_owned())
            .or_default()
            .insert(field.to_owned(), value);
    }

    /// `HGET key field`.
    pub fn hget(&self, key: &str, field: &str) -> Option<i64> {
        self.shard(key)
            .read()
            .hashes
            .get(key)
            .and_then(|h| h.get(field))
            .copied()
    }

    /// `HGETALL key` — fields in sorted order.
    pub fn hgetall(&self, key: &str) -> Vec<(String, i64)> {
        self.shard(key)
            .read()
            .hashes
            .get(key)
            .map(|h| h.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Windowed counter increment: `wincr(name, window, by)` bumps the
    /// counter of `name` in time-window `window` (e.g. a 10-second epoch
    /// index). Returns the new value.
    pub fn wincr(&self, name: &str, window: u64, by: i64) -> i64 {
        self.hincr(name, &format!("w{window:020}"), by)
    }

    /// Reads a windowed counter.
    pub fn wget(&self, name: &str, window: u64) -> i64 {
        self.hget(name, &format!("w{window:020}")).unwrap_or(0)
    }

    /// All windows of a counter in ascending window order.
    pub fn windows(&self, name: &str) -> Vec<(u64, i64)> {
        self.hgetall(name)
            .into_iter()
            .filter_map(|(field, v)| {
                field
                    .strip_prefix('w')
                    .and_then(|w| w.parse::<u64>().ok())
                    .map(|w| (w, v))
            })
            .collect()
    }

    /// Total number of keys across namespaces (diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.read();
                s.strings.len() + s.hashes.len() + s.blobs.len()
            })
            .sum()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KvStore({} keys)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn string_set_get_del() {
        let kv = KvStore::new();
        kv.set("ad:1", "campaign:9");
        assert_eq!(kv.get("ad:1").as_deref(), Some("campaign:9"));
        assert!(kv.del("ad:1"));
        assert_eq!(kv.get("ad:1"), None);
        assert!(!kv.del("ad:1"));
    }

    #[test]
    fn hash_ops() {
        let kv = KvStore::new();
        assert_eq!(kv.hincr("c:1", "views", 3), 3);
        assert_eq!(kv.hincr("c:1", "views", 2), 5);
        kv.hset("c:1", "clicks", 7);
        assert_eq!(kv.hget("c:1", "clicks"), Some(7));
        assert_eq!(
            kv.hgetall("c:1"),
            vec![("clicks".into(), 7), ("views".into(), 5)]
        );
        assert_eq!(kv.hget("c:1", "ghost"), None);
    }

    #[test]
    fn windowed_counters_sort_by_window() {
        let kv = KvStore::new();
        kv.wincr("campaign:1", 12, 5);
        kv.wincr("campaign:1", 3, 2);
        kv.wincr("campaign:1", 12, 1);
        assert_eq!(kv.wget("campaign:1", 12), 6);
        assert_eq!(kv.windows("campaign:1"), vec![(3, 2), (12, 6)]);
        assert_eq!(kv.wget("campaign:1", 99), 0);
    }

    #[test]
    fn blob_set_get_del() {
        let kv = KvStore::new();
        let snapshot = vec![0u8, 159, 146, 150, 255];
        kv.bset("ckpt:wc:count:3", snapshot.clone());
        assert_eq!(kv.bget("ckpt:wc:count:3"), Some(snapshot));
        assert!(kv.bdel("ckpt:wc:count:3"));
        assert_eq!(kv.bget("ckpt:wc:count:3"), None);
        assert!(!kv.bdel("ckpt:wc:count:3"));
    }

    #[test]
    fn del_clears_blob_namespace_too() {
        let kv = KvStore::new();
        kv.bset("k", vec![1, 2, 3]);
        assert!(kv.del("k"));
        assert_eq!(kv.bget("k"), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn string_and_hash_namespaces_coexist_per_key() {
        let kv = KvStore::new();
        kv.set("k", "str");
        kv.hincr("k", "f", 1);
        assert_eq!(kv.get("k").as_deref(), Some("str"));
        assert_eq!(kv.hget("k", "f"), Some(1));
        assert!(kv.del("k"));
        assert!(kv.is_empty());
    }

    #[test]
    fn concurrent_hincr_is_atomic() {
        let kv = Arc::new(KvStore::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        kv.hincr("counter", "n", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(kv.hget("counter", "n"), Some(4000));
    }

    #[test]
    fn many_keys_spread_over_shards() {
        let kv = KvStore::new();
        for i in 0..1000 {
            kv.set(&format!("key-{i}"), "v");
        }
        assert_eq!(kv.len(), 1000);
        for i in 0..1000 {
            assert!(kv.get(&format!("key-{i}")).is_some());
        }
    }
}
