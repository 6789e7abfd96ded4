//! # typhoon-mq — a Kafka-like partitioned message log
//!
//! The Yahoo streaming benchmark (§6.2, Fig. 13) reads advertisement
//! events from Apache Kafka. This crate provides the slice of Kafka the
//! benchmark needs, built from scratch: named topics split into ordered,
//! append-only partitions; producers that partition by key hash (or round
//! robin); offset-based fetches; and consumer-group offset tracking so a
//! group of Kafka-client spouts can split partitions among themselves and
//! resume after restarts.
//!
//! Everything is in-memory and thread-safe; ordering is guaranteed within
//! a partition, exactly like the real system.

#![warn(missing_docs)]

use bytes::Bytes;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use typhoon_diag::{DiagMutex as Mutex, DiagRwLock as RwLock};

/// Errors from queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqError {
    /// The topic does not exist.
    UnknownTopic(String),
    /// The partition index is out of range for the topic.
    BadPartition {
        /// Requested partition.
        partition: usize,
        /// Partitions the topic actually has.
        available: usize,
    },
}

impl std::fmt::Display for MqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MqError::UnknownTopic(t) => write!(f, "unknown topic {t:?}"),
            MqError::BadPartition {
                partition,
                available,
            } => write!(
                f,
                "partition {partition} out of range (topic has {available})"
            ),
        }
    }
}

impl std::error::Error for MqError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MqError>;

struct Partition {
    records: Mutex<Vec<Bytes>>,
}

struct Topic {
    partitions: Vec<Partition>,
    round_robin: AtomicU64,
}

/// The broker: topics, partitions, consumer-group offsets.
#[derive(Default)]
pub struct MessageQueue {
    topics: RwLock<HashMap<String, Topic>>,
    group_offsets: Mutex<HashMap<(String, String, usize), u64>>,
}

impl MessageQueue {
    /// An empty broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a topic with `partitions` partitions (idempotent; an
    /// existing topic keeps its data and partition count).
    pub fn create_topic(&self, name: &str, partitions: usize) {
        assert!(partitions > 0, "a topic needs at least one partition");
        let mut topics = self.topics.write();
        topics.entry(name.to_owned()).or_insert_with(|| Topic {
            partitions: (0..partitions)
                .map(|_| Partition {
                    records: Mutex::new(Vec::new()),
                })
                .collect(),
            round_robin: AtomicU64::new(0),
        });
    }

    /// Number of partitions of a topic.
    pub fn partitions(&self, topic: &str) -> Result<usize> {
        let topics = self.topics.read();
        match topics.get(topic) {
            Some(t) => Ok(t.partitions.len()),
            None => Err(MqError::UnknownTopic(topic.to_owned())),
        }
    }

    /// Appends a record. With a key, the partition is the key's hash (so
    /// per-key order is preserved); without, round robin. Returns
    /// `(partition, offset)`.
    pub fn produce(&self, topic: &str, key: Option<&str>, payload: Bytes) -> Result<(usize, u64)> {
        let topics = self.topics.read();
        let t = topics
            .get(topic)
            .ok_or_else(|| MqError::UnknownTopic(topic.to_owned()))?;
        let partition = match key {
            Some(k) => {
                let mut h = DefaultHasher::new();
                k.hash(&mut h);
                (h.finish() % t.partitions.len() as u64) as usize
            }
            None => {
                (t.round_robin.fetch_add(1, Ordering::Relaxed) % t.partitions.len() as u64) as usize
            }
        };
        let mut records = t.partitions[partition].records.lock();
        records.push(payload);
        Ok((partition, records.len() as u64 - 1))
    }

    /// Fetches up to `max` records starting at `offset`.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Bytes>> {
        let topics = self.topics.read();
        let t = topics
            .get(topic)
            .ok_or_else(|| MqError::UnknownTopic(topic.to_owned()))?;
        let p = t.partitions.get(partition).ok_or(MqError::BadPartition {
            partition,
            available: t.partitions.len(),
        })?;
        let records = p.records.lock();
        let start = (offset as usize).min(records.len());
        let end = (start + max).min(records.len());
        Ok(records[start..end].to_vec())
    }

    /// One past the last offset of a partition.
    pub fn latest_offset(&self, topic: &str, partition: usize) -> Result<u64> {
        let topics = self.topics.read();
        let t = topics
            .get(topic)
            .ok_or_else(|| MqError::UnknownTopic(topic.to_owned()))?;
        let p = t.partitions.get(partition).ok_or(MqError::BadPartition {
            partition,
            available: t.partitions.len(),
        })?;
        let len = p.records.lock().len() as u64;
        Ok(len)
    }

    /// A consumer group's committed offset (0 when never committed).
    pub fn committed(&self, group: &str, topic: &str, partition: usize) -> u64 {
        self.group_offsets
            .lock()
            .get(&(group.to_owned(), topic.to_owned(), partition))
            .copied()
            .unwrap_or(0)
    }

    /// Commits a consumer group's offset.
    pub fn commit(&self, group: &str, topic: &str, partition: usize, offset: u64) {
        self.group_offsets
            .lock()
            .insert((group.to_owned(), topic.to_owned(), partition), offset);
    }

    /// Convenience: fetch from the group's committed offset and advance it.
    /// Returns the records (possibly empty).
    pub fn poll(
        &self,
        group: &str,
        topic: &str,
        partition: usize,
        max: usize,
    ) -> Result<Vec<Bytes>> {
        let offset = self.committed(group, topic, partition);
        let records = self.fetch(topic, partition, offset, max)?;
        if !records.is_empty() {
            self.commit(group, topic, partition, offset + records.len() as u64);
        }
        Ok(records)
    }
}

impl std::fmt::Debug for MessageQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MessageQueue({} topics)", self.topics.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Bytes {
        Bytes::from(s.to_owned())
    }

    #[test]
    fn produce_fetch_in_partition_order() {
        let mq = MessageQueue::new();
        mq.create_topic("ads", 1);
        for i in 0..5 {
            mq.produce("ads", None, payload(&format!("e{i}"))).unwrap();
        }
        let got = mq.fetch("ads", 0, 0, 100).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(&got[0][..], b"e0");
        assert_eq!(&got[4][..], b"e4");
        assert_eq!(mq.latest_offset("ads", 0).unwrap(), 5);
    }

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let mq = MessageQueue::new();
        mq.create_topic("ads", 4);
        let mut partitions = std::collections::HashSet::new();
        for _ in 0..10 {
            let (p, _) = mq.produce("ads", Some("campaign-1"), payload("x")).unwrap();
            partitions.insert(p);
        }
        assert_eq!(partitions.len(), 1, "key → stable partition");
    }

    #[test]
    fn unkeyed_records_round_robin() {
        let mq = MessageQueue::new();
        mq.create_topic("ads", 4);
        let mut counts = vec![0usize; 4];
        for _ in 0..40 {
            let (p, _) = mq.produce("ads", None, payload("x")).unwrap();
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn fetch_respects_offset_and_max() {
        let mq = MessageQueue::new();
        mq.create_topic("t", 1);
        for i in 0..10 {
            mq.produce("t", None, payload(&i.to_string())).unwrap();
        }
        let got = mq.fetch("t", 0, 4, 3).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(&got[0][..], b"4");
        assert!(mq.fetch("t", 0, 100, 5).unwrap().is_empty(), "past the end");
    }

    #[test]
    fn consumer_group_poll_advances_offsets() {
        let mq = MessageQueue::new();
        mq.create_topic("t", 1);
        for i in 0..6 {
            mq.produce("t", None, payload(&i.to_string())).unwrap();
        }
        assert_eq!(mq.poll("g1", "t", 0, 4).unwrap().len(), 4);
        assert_eq!(mq.poll("g1", "t", 0, 4).unwrap().len(), 2);
        assert!(mq.poll("g1", "t", 0, 4).unwrap().is_empty());
        // A different group reads from the start.
        assert_eq!(mq.poll("g2", "t", 0, 100).unwrap().len(), 6);
        assert_eq!(mq.committed("g1", "t", 0), 6);
    }

    #[test]
    fn errors_for_unknown_topic_and_partition() {
        let mq = MessageQueue::new();
        assert!(matches!(
            mq.produce("ghost", None, payload("x")),
            Err(MqError::UnknownTopic(_))
        ));
        mq.create_topic("t", 2);
        assert!(matches!(
            mq.fetch("t", 5, 0, 1),
            Err(MqError::BadPartition { .. })
        ));
    }

    #[test]
    fn create_topic_is_idempotent() {
        let mq = MessageQueue::new();
        mq.create_topic("t", 2);
        mq.produce("t", None, payload("keep")).unwrap();
        mq.create_topic("t", 8); // ignored: keeps 2 partitions + data
        assert_eq!(mq.partitions("t").unwrap(), 2);
        let total: usize = (0..2)
            .map(|p| mq.fetch("t", p, 0, 100).unwrap().len())
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let mq = std::sync::Arc::new(MessageQueue::new());
        mq.create_topic("t", 4);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mq = mq.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        mq.produce("t", None, payload(&i.to_string())).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = (0..4).map(|p| mq.latest_offset("t", p).unwrap()).sum();
        assert_eq!(total, 1000);
    }
}
