//! The port registry: worker ports backed by DPDK-style rings.
//!
//! Launching a worker "attaches it to the SDN switch" (§3.2 step (iv)):
//! the switch → worker direction is a ring the worker drains; the worker →
//! switch direction is a call, [`PortTx`], that runs the switch's
//! match-action path on the worker's own thread, as a DPDK poll-mode
//! thread runs its received batch to the output port (Fig. 7). A worker
//! dying drops its end, which rings the datapath thread; the next round
//! reaps the port and reports it as a `PortStatus` delete — the
//! "unexpected port removal event" the fault detector uses.

use crate::datapath::{Inner, Switch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use typhoon_net::ring::BatchPush;
use typhoon_net::{ring, Frame, NetError, RingConsumer, RingProducer};
use typhoon_openflow::{PortNo, PortStats};

/// The worker-side endpoints of an attached port.
#[derive(Debug)]
pub struct WorkerPort {
    /// The port number the scheduler assigned.
    pub port: PortNo,
    /// Worker → switch: forwards on the calling thread.
    pub tx: PortTx,
    /// Switch → worker ring.
    pub rx: RingConsumer,
}

/// One attachment, shared by the worker's end, the registry and every
/// thread forwarding to the port: the switch → worker ring and the port's
/// counters. Forwarding threads clone it out of the registry and push with
/// the registry lock released, so a push — and the worker wake-up it may
/// cost — never holds up another thread's lookup.
#[derive(Debug)]
pub(crate) struct Attachment {
    /// Cleared when the switch detaches the port or gives it to another
    /// worker: the worker's end forwards nothing more.
    attached: AtomicBool,
    /// Set when the worker's end drops; the datapath reaps the port.
    gone: AtomicBool,
    /// Switch → worker ring; closed when the attachment ends.
    to_worker: RingProducer,
    rx_packets: AtomicU64,
    rx_bytes: AtomicU64,
    tx_packets: AtomicU64,
    tx_bytes: AtomicU64,
    tx_dropped: AtomicU64,
}

impl Attachment {
    /// Sends `frames` toward the worker with one `push_batch` — the worker
    /// is rung once per run — counting TX per frame. Overflow counts as a
    /// TX drop (§8's switch-level loss); a closed ring leaves the frames in
    /// `frames` for the caller to drop silently — the worker died or was
    /// detached, and the port is (or will be) gone from the registry.
    pub(crate) fn transmit(&self, frames: &mut Vec<Frame>) {
        let pushed = self.to_worker.push_batch(frames);
        self.tx_packets
            .fetch_add(pushed.enqueued as u64, Ordering::Relaxed);
        self.tx_bytes
            .fetch_add(pushed.enqueued_bytes, Ordering::Relaxed);
        self.tx_dropped
            .fetch_add(pushed.dropped as u64, Ordering::Relaxed);
    }
}

/// The worker → switch direction of a port. Each batch is resolved and
/// forwarded — to an output ring, a tunnel, a group or the controller — on
/// the calling thread before the call returns, so one worker's frames are
/// forwarded in the order it pushed them. Holds its switch weakly: a
/// worker does not keep a stopped switch alive.
pub struct PortTx {
    port: PortNo,
    switch: Weak<Inner>,
    attachment: Arc<Attachment>,
}

impl PortTx {
    /// Forwards one frame. Fails with [`NetError::Disconnected`] once the
    /// port was detached (or re-attached) or the switch is gone; a frame
    /// the switch could not deliver is counted where it was lost (a table
    /// miss, a full output ring), not here.
    pub fn push(&self, frame: Frame) -> Result<(), NetError> {
        match self.push_batch(&mut vec![frame]).disconnected {
            true => Err(NetError::Disconnected),
            false => Ok(()),
        }
    }

    /// Forwards `batch` in order, emptying it; every frame is `enqueued`
    /// (taken by the switch) and none `dropped`. On a detached port or a
    /// gone switch the frames are left in `batch` and the result is
    /// `disconnected`. A batch that found the port attached completes even
    /// if a detach lands meanwhile, as if it had been forwarded just before.
    pub fn push_batch(&self, batch: &mut Vec<Frame>) -> BatchPush {
        let switch = match self.switch.upgrade() {
            Some(inner) if self.attachment.attached.load(Ordering::Acquire) => Switch { inner },
            _ => {
                return BatchPush {
                    disconnected: true,
                    ..BatchPush::default()
                }
            }
        };
        let enqueued = batch.len();
        let enqueued_bytes = batch.iter().map(|f| f.wire_len() as u64).sum();
        let a = &self.attachment;
        a.rx_packets.fetch_add(enqueued as u64, Ordering::Relaxed);
        a.rx_bytes.fetch_add(enqueued_bytes, Ordering::Relaxed);
        switch.process_frames(self.port, batch);
        BatchPush {
            enqueued,
            enqueued_bytes,
            ..BatchPush::default()
        }
    }
}

impl Drop for PortTx {
    /// A worker's end dropping — a crash or an exit — is what the datapath
    /// reaps: flag it, then ring the datapath thread.
    fn drop(&mut self) {
        self.attachment.gone.store(true, Ordering::Release);
        if let Some(inner) = self.switch.upgrade() {
            inner.bell.ring();
        }
    }
}

impl std::fmt::Debug for PortTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PortTx({})", self.port)
    }
}

/// The registry's hold on one attachment.
struct PortEntry(Arc<Attachment>);

impl Drop for PortEntry {
    /// Leaving the registry (detach, re-attach, reap) ends the
    /// attachment: the worker's end forwards nothing more, and its receive
    /// ring closes.
    fn drop(&mut self) {
        self.0.attached.store(false, Ordering::Release);
        self.0.to_worker.close();
    }
}

/// The registry of attached ports.
pub(crate) struct Ports {
    entries: BTreeMap<PortNo, PortEntry>,
    ring_capacity: usize,
}

impl Ports {
    pub(crate) fn new(ring_capacity: usize) -> Self {
        Ports {
            entries: BTreeMap::new(),
            ring_capacity,
        }
    }

    /// Attaches a worker to `port` on `switch`, returning the worker-side
    /// endpoints. Re-attaching an occupied port replaces the old entry,
    /// whose worker end then forwards nothing. The switch → worker ring
    /// has a bell of its own, which the worker waits on (`rx.bell()`).
    pub(crate) fn attach(&mut self, port: PortNo, switch: Weak<Inner>) -> WorkerPort {
        assert!(port.is_physical(), "cannot attach to reserved port {port}");
        let (to_worker, rx) = ring(self.ring_capacity);
        let attachment = Arc::new(Attachment {
            attached: AtomicBool::new(true),
            gone: AtomicBool::new(false),
            to_worker,
            rx_packets: AtomicU64::new(0),
            rx_bytes: AtomicU64::new(0),
            tx_packets: AtomicU64::new(0),
            tx_bytes: AtomicU64::new(0),
            tx_dropped: AtomicU64::new(0),
        });
        self.entries.insert(port, PortEntry(attachment.clone()));
        WorkerPort {
            port,
            tx: PortTx {
                port,
                switch,
                attachment,
            },
            rx,
        }
    }

    /// Detaches a port (worker kill), closing its receive ring.
    pub(crate) fn detach(&mut self, port: PortNo) -> bool {
        self.entries.remove(&port).is_some()
    }

    /// Removes the ports whose worker end dropped, returning their numbers
    /// for `PortStatus` reporting. A port leaves the registry once, so it
    /// is reported once.
    pub(crate) fn reap(&mut self) -> Vec<PortNo> {
        let mut dead = Vec::new();
        self.entries.retain(|&port, entry| {
            let gone = entry.0.gone.load(Ordering::Acquire);
            if gone {
                dead.push(port);
            }
            !gone
        });
        dead
    }

    /// The attachment frames for `port` go to, if it is attached.
    pub(crate) fn output(&self, port: PortNo) -> Option<Arc<Attachment>> {
        self.entries.get(&port).map(|e| e.0.clone())
    }

    /// Every attached port's output (a flood).
    pub(crate) fn outputs(&self) -> Vec<(PortNo, Arc<Attachment>)> {
        self.entries
            .iter()
            .map(|(&p, e)| (p, e.0.clone()))
            .collect()
    }

    /// Current port statistics.
    pub(crate) fn stats(&self) -> Vec<PortStats> {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        self.entries
            .iter()
            .map(|(&port, PortEntry(a))| PortStats {
                port,
                rx_packets: read(&a.rx_packets),
                tx_packets: read(&a.tx_packets),
                rx_bytes: read(&a.rx_bytes),
                tx_bytes: read(&a.tx_bytes),
                tx_dropped: read(&a.tx_dropped),
            })
            .collect()
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

    /// A port of no switch: the registry alone, as the datapath drives it.
    fn attach(ports: &mut Ports, port: u32) -> WorkerPort {
        ports.attach(PortNo(port), Weak::new())
    }

    /// What a forwarding thread does for an output to `port`.
    fn transmit(ports: &Ports, port: u32, frames: impl IntoIterator<Item = Frame>) {
        if let Some(out) = ports.output(PortNo(port)) {
            out.transmit(&mut frames.into_iter().collect());
        }
    }

    #[test]
    fn attach_transmit_receive() {
        let mut ports = Ports::new(16);
        let wp = attach(&mut ports, 1);
        transmit(&ports, 1, [frame(7)]);
        let got = wp.rx.pop().unwrap().unwrap();
        assert_eq!(got.payload[0], 7);
        let stats = ports.stats();
        assert_eq!(stats[0].tx_packets, 1);
    }

    #[test]
    fn dead_worker_detected_on_reap() {
        let mut ports = Ports::new(16);
        let wp = attach(&mut ports, 3);
        let other = attach(&mut ports, 4);
        assert!(ports.reap().is_empty(), "both workers alive");
        drop(wp); // the worker dies, dropping its port end
        assert_eq!(ports.reap(), vec![PortNo(3)]);
        assert!(ports.reap().is_empty(), "reaped once");
        assert_eq!(ports.port_numbers(), vec![PortNo(4)], "dead port removed");
        drop(other);
    }

    /// Detach and re-attach end the old attachment: its end forwards
    /// nothing, its receive ring closes, and its later drop reaps nothing.
    #[test]
    fn a_replaced_attachment_is_disconnected_and_never_reaped() {
        let mut ports = Ports::new(16);
        let old = attach(&mut ports, 1);
        let new = attach(&mut ports, 1);
        assert!(!old.tx.attachment.attached.load(Ordering::Acquire));
        assert!(new.tx.attachment.attached.load(Ordering::Acquire));
        assert_eq!(old.rx.pop().unwrap_err(), NetError::Disconnected);
        let mut batch = vec![frame(1)];
        assert!(old.tx.push_batch(&mut batch).disconnected);
        assert_eq!(batch.len(), 1, "a refused batch stays with the caller");
        drop(old);
        assert!(ports.reap().is_empty(), "the live worker's port stays");
        assert!(ports.detach(PortNo(1)));
        assert_eq!(new.tx.push(frame(2)), Err(NetError::Disconnected));
        drop(new);
        assert!(ports.reap().is_empty(), "a detached port is not reaped");
    }

    #[test]
    #[should_panic(expected = "reserved port")]
    fn reserved_ports_cannot_be_attached() {
        let mut ports = Ports::new(4);
        let _ = attach(&mut ports, PortNo::CONTROLLER.0);
    }

    #[test]
    fn transmit_accounts_per_frame_for_batches_and_single_frames() {
        let mut ports = Ports::new(2);
        let wp = attach(&mut ports, 1);
        transmit(&ports, 1, (0..4).map(frame));
        let stats = ports.stats();
        assert_eq!(stats[0].tx_packets, 2);
        assert_eq!(stats[0].tx_bytes, 2 * frame(0).wire_len() as u64);
        assert_eq!(stats[0].tx_dropped, 2, "overflow counted per frame");
        assert_eq!(wp.rx.pop().unwrap().unwrap().payload[0], 0);
        // Single frames (`execute`) take the same path: ring-full counts.
        transmit(&ports, 1, [frame(4)]);
        transmit(&ports, 1, [frame(5)]);
        let stats = ports.stats();
        assert_eq!((stats[0].tx_packets, stats[0].tx_dropped), (3, 3));
        // A dead worker's ring is not a TX drop; the next reap removes it.
        drop(wp);
        transmit(&ports, 1, [frame(6)]);
        let stats = ports.stats();
        assert_eq!((stats[0].tx_packets, stats[0].tx_dropped), (3, 3));
        assert_eq!(ports.reap(), vec![PortNo(1)]);
        // A detached (missing) port is a silent no-op.
        transmit(&ports, 1, [frame(7)]);
        transmit(&ports, 9, [frame(8)]);
        assert!(ports.stats().is_empty());
    }
}
