//! The port registry: worker ports backed by DPDK-style rings.
//!
//! Launching a worker "attaches it to the SDN switch" (§3.2 step (iv)) by
//! creating a pair of rings; killing a worker (or the worker dying) closes
//! the rings, which the datapath notices and reports as a `PortStatus`
//! delete — the "unexpected port removal event" the fault detector uses.

use std::collections::BTreeMap;
use typhoon_net::{ring, ring_with_bell, Doorbell, Frame, RingConsumer, RingProducer};
use typhoon_openflow::{PortNo, PortStats};

/// The worker-side endpoints of an attached port.
#[derive(Debug)]
pub struct WorkerPort {
    /// The port number the scheduler assigned.
    pub port: PortNo,
    /// Worker → switch ring.
    pub tx: RingProducer,
    /// Switch → worker ring.
    pub rx: RingConsumer,
}

/// The switch-side state of one attached port.
pub(crate) struct PortEntry {
    /// Switch → worker ring (we produce).
    pub(crate) to_worker: RingProducer,
    /// Worker → switch ring (we consume).
    pub(crate) from_worker: RingConsumer,
    pub(crate) stats: PortStats,
}

/// The registry of attached ports.
pub(crate) struct Ports {
    pub(crate) entries: BTreeMap<PortNo, PortEntry>,
    ring_capacity: usize,
    /// The datapath thread's bell: every worker → switch ring rings it.
    bell: Doorbell,
}

impl Ports {
    pub(crate) fn new(ring_capacity: usize, bell: Doorbell) -> Self {
        Ports {
            entries: BTreeMap::new(),
            ring_capacity,
            bell,
        }
    }

    /// Attaches a worker to `port`, returning the worker-side endpoints.
    /// Re-attaching an occupied port replaces the old (dead) entry. The
    /// switch → worker ring gets a bell of its own, which the worker waits
    /// on (`rx.bell()`); the worker → switch ring rings the switch's.
    pub(crate) fn attach(&mut self, port: PortNo) -> WorkerPort {
        assert!(port.is_physical(), "cannot attach to reserved port {port}");
        let (to_worker_tx, to_worker_rx) = ring(self.ring_capacity);
        let (from_worker_tx, from_worker_rx) =
            ring_with_bell(self.ring_capacity, self.bell.clone());
        self.entries.insert(
            port,
            PortEntry {
                to_worker: to_worker_tx,
                from_worker: from_worker_rx,
                stats: PortStats {
                    port,
                    ..PortStats::default()
                },
            },
        );
        WorkerPort {
            port,
            tx: from_worker_tx,
            rx: to_worker_rx,
        }
    }

    /// Detaches a port (worker kill), closing its rings.
    pub(crate) fn detach(&mut self, port: PortNo) -> bool {
        self.entries.remove(&port).is_some()
    }

    /// Sends `frames` out `port` with one registry lookup and one
    /// `push_batch` — the worker is rung once per run — updating TX stats
    /// per frame. Overflow counts as a TX drop (§8's switch-level loss); a
    /// missing port or closed ring drops silently — the worker died, and
    /// the next `poll` reaps the dead port and reports it.
    pub(crate) fn transmit(&mut self, port: PortNo, frames: impl IntoIterator<Item = Frame>) {
        let Some(entry) = self.entries.get_mut(&port) else {
            return;
        };
        let pushed = entry.to_worker.push_batch(&mut Vec::from_iter(frames));
        entry.stats.tx_packets += pushed.enqueued as u64;
        entry.stats.tx_bytes += pushed.enqueued_bytes;
        entry.stats.tx_dropped += pushed.dropped as u64;
    }

    /// Polls every port for received frames (up to `per_port` each),
    /// collecting one batch per non-idle port via `pop_batch`. Ports whose
    /// worker died are returned separately for `PortStatus` reporting.
    pub(crate) fn poll(
        &mut self,
        per_port: usize,
        out: &mut Vec<(PortNo, Vec<Frame>)>,
    ) -> Vec<PortNo> {
        let mut dead = Vec::new();
        for (&port, entry) in self.entries.iter_mut() {
            let mut batch = Vec::new();
            match entry.from_worker.pop_batch(&mut batch, per_port) {
                Ok(_) => {}
                // pop_batch keeps a partial drain on disconnect, so frames
                // pushed before the worker died are still forwarded.
                Err(_) => dead.push(port),
            }
            if !batch.is_empty() {
                for frame in &batch {
                    entry.stats.rx_packets += 1;
                    entry.stats.rx_bytes += frame.wire_len() as u64;
                }
                out.push((port, batch));
            }
        }
        for &port in &dead {
            self.entries.remove(&port);
        }
        dead
    }

    /// Current port statistics.
    pub(crate) fn stats(&self) -> Vec<PortStats> {
        self.entries.values().map(|e| e.stats).collect()
    }

    /// Attached port numbers.
    pub(crate) fn port_numbers(&self) -> Vec<PortNo> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use typhoon_net::MacAddr;
    use typhoon_tuple::tuple::TaskId;

    fn frame(n: u8) -> Frame {
        Frame::typhoon(
            MacAddr::worker(0, TaskId(0)),
            MacAddr::worker(0, TaskId(1)),
            Bytes::from(vec![n; 4]),
        )
    }

    #[test]
    fn attach_transmit_receive() {
        let mut ports = Ports::new(16, Doorbell::new());
        let wp = ports.attach(PortNo(1));
        ports.transmit(PortNo(1), [frame(7)]);
        let got = wp.rx.pop().unwrap().unwrap();
        assert_eq!(got.payload[0], 7);
        let stats = ports.stats();
        assert_eq!(stats[0].tx_packets, 1);
    }

    #[test]
    fn worker_to_switch_direction_polls() {
        let mut ports = Ports::new(16, Doorbell::new());
        let wp = ports.attach(PortNo(2));
        wp.tx.push(frame(9)).unwrap();
        let mut out = Vec::new();
        let dead = ports.poll(8, &mut out);
        assert!(dead.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortNo(2));
        assert_eq!(out[0].1.len(), 1);
        assert_eq!(ports.stats()[0].rx_packets, 1);
    }

    #[test]
    fn dead_worker_detected_on_poll() {
        let mut ports = Ports::new(16, Doorbell::new());
        let wp = ports.attach(PortNo(3));
        drop(wp); // the worker dies, dropping its ring endpoints
        let mut out = Vec::new();
        let dead = ports.poll(8, &mut out);
        assert_eq!(dead, vec![PortNo(3)]);
        assert!(ports.entries.is_empty(), "dead port removed");
    }

    #[test]
    #[should_panic(expected = "reserved port")]
    fn reserved_ports_cannot_be_attached() {
        let mut ports = Ports::new(4, Doorbell::new());
        let _ = ports.attach(PortNo::CONTROLLER);
    }

    #[test]
    fn per_port_poll_limit_is_respected() {
        let mut ports = Ports::new(64, Doorbell::new());
        let wp = ports.attach(PortNo(1));
        for i in 0..10 {
            wp.tx.push(frame(i)).unwrap();
        }
        let mut out = Vec::new();
        ports.poll(4, &mut out);
        let drained: usize = out.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(drained, 4, "budget caps one poll round");
    }

    #[test]
    fn transmit_accounts_per_frame_for_batches_and_single_frames() {
        let mut ports = Ports::new(2, Doorbell::new());
        let wp = ports.attach(PortNo(1));
        ports.transmit(PortNo(1), (0..4).map(frame));
        let stats = ports.stats();
        assert_eq!(stats[0].tx_packets, 2);
        assert_eq!(stats[0].tx_bytes, 2 * frame(0).wire_len() as u64);
        assert_eq!(stats[0].tx_dropped, 2, "overflow counted per frame");
        assert_eq!(wp.rx.pop().unwrap().unwrap().payload[0], 0);
        // Single frames (`execute`) take the same path: ring-full counts.
        ports.transmit(PortNo(1), std::iter::once(frame(4)));
        ports.transmit(PortNo(1), std::iter::once(frame(5)));
        let stats = ports.stats();
        assert_eq!((stats[0].tx_packets, stats[0].tx_dropped), (3, 3));
        // A dead worker's ring is not a TX drop; the next poll reaps it.
        drop(wp);
        ports.transmit(PortNo(1), [frame(6)]);
        let stats = ports.stats();
        assert_eq!((stats[0].tx_packets, stats[0].tx_dropped), (3, 3));
        let mut out = Vec::new();
        assert_eq!(ports.poll(8, &mut out), vec![PortNo(1)]);
        // A detached (missing) port is a silent no-op.
        ports.transmit(PortNo(1), [frame(7)]);
        ports.transmit(PortNo(9), [frame(8)]);
        assert!(ports.stats().is_empty());
    }
}
