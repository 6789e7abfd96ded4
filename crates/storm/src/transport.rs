//! Worker-to-worker transport: per-destination connections.
//!
//! Storm workers exchange serialized tuples over dedicated channels — Netty
//! TCP connections in the real system. Two modes reproduce the paper's
//! LOCAL/REMOTE split (Fig. 8): in-process channels, and real TCP over
//! loopback with 4-byte length-prefixed framing. Either way, the unit of
//! transfer is one serialized tuple blob, and a sender owns one connection
//! per destination task — so broadcasting means one send (and one
//! serialization, see [`crate::executor`]) per destination.

use bytes::Bytes;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex, DiagRwLock as RwLock};
use typhoon_model::TaskId;

/// Cap on one transported blob (guards against corrupt length prefixes).
const MAX_BLOB: usize = 64 * 1024 * 1024;

/// Where a task's inbox can be reached.
#[derive(Debug, Clone)]
pub enum InboxAddr {
    /// Same-process channel.
    Local(InboxSender),
    /// TCP endpoint (the worker's listener).
    Tcp(SocketAddr),
}

/// The cluster-wide task directory: task → inbox address.
///
/// Nimbus updates it on (re)assignment; executors resolve destinations
/// lazily and cache TCP connections.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    entries: Arc<RwLock<HashMap<TaskId, InboxAddr>>>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a task's inbox address.
    pub fn register(&self, task: TaskId, addr: InboxAddr) {
        self.entries.write().insert(task, addr);
    }

    /// Removes a task (on kill).
    pub fn unregister(&self, task: TaskId) {
        self.entries.write().remove(&task);
    }

    /// Resolves a task's address.
    pub fn lookup(&self, task: TaskId) -> Option<InboxAddr> {
        self.entries.read().get(&task).cloned()
    }
}

/// The send end of an inbox. It counts what it queues, because an `mpsc`
/// channel cannot report its depth and the executor's `queue.depth` gauge
/// and overload model (Fig. 11) need it.
#[derive(Debug, Clone)]
pub struct InboxSender {
    tx: Sender<Bytes>,
    depth: Arc<AtomicUsize>,
}

impl InboxSender {
    /// Queues one blob; `false` when the inbox (and with it the only
    /// reader of `depth`) is gone.
    fn send(&self, blob: Bytes) -> bool {
        // Counted before the hand-over, so the receiver's decrement never
        // runs ahead of it.
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx.send(blob).is_ok()
    }
}

/// A worker's receiving side: a channel plus, in TCP mode, a listener
/// thread feeding it. The executor owns it, so the listener lives exactly
/// as long as the executor does.
pub struct Inbox {
    rx: Receiver<Bytes>,
    depth: Arc<AtomicUsize>,
    /// The address to publish in the [`Directory`].
    pub addr: InboxAddr,
    _listener: Option<ListenerGuard>,
}

struct ListenerGuard {
    shutdown: Arc<std::sync::atomic::AtomicBool>,
}

impl Drop for ListenerGuard {
    fn drop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

impl Inbox {
    /// A purely local inbox.
    pub fn local() -> Inbox {
        let (tx, rx) = channel(); // LINT: allow-unbounded(inbox mirrors socket buffering; acker windows bound in-flight tuples)
        let depth = Arc::<AtomicUsize>::default();
        Inbox {
            rx,
            depth: depth.clone(),
            addr: InboxAddr::Local(InboxSender { tx, depth }),
            _listener: None,
        }
    }

    /// The next queued blob, if any.
    pub fn try_recv(&self) -> Option<Bytes> {
        self.took(self.rx.try_recv().ok())
    }

    /// Blocks up to `timeout` for the next blob.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Bytes> {
        self.took(self.rx.recv_timeout(timeout).ok())
    }

    /// Blobs queued and not yet received.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    fn took(&self, got: Option<Bytes>) -> Option<Bytes> {
        got.inspect(|_| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// A TCP inbox listening on an ephemeral loopback port. Accepts any
    /// number of peer connections; each gets a reader thread that decodes
    /// length-prefixed blobs into the channel.
    pub fn tcp() -> std::io::Result<Inbox> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = channel(); // LINT: allow-unbounded(inbox mirrors socket buffering; acker windows bound in-flight tuples)
        let depth = Arc::<AtomicUsize>::default();
        let tx = InboxSender {
            tx,
            depth: depth.clone(),
        };
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let shutdown2 = shutdown.clone();
        std::thread::Builder::new()
            .name("storm-inbox-accept".into())
            .spawn(move || {
                while !shutdown2.load(std::sync::atomic::Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let tx = tx.clone();
                            std::thread::spawn(move || {
                                let _ = stream.set_nonblocking(false);
                                let _ = stream.set_nodelay(true);
                                reader_loop(stream, tx);
                            });
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // LINT: allow-sleep(nonblocking accept retry backoff on the transport listener thread)
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn inbox acceptor");
        Ok(Inbox {
            rx,
            depth,
            addr: InboxAddr::Tcp(addr),
            _listener: Some(ListenerGuard { shutdown }),
        })
    }
}

fn reader_loop(mut stream: TcpStream, tx: InboxSender) {
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_BLOB {
            return;
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        if !tx.send(Bytes::from(body)) {
            return;
        }
    }
}

/// How long written tuples may linger in the send buffer before a flush
/// (mirrors Netty's flush cadence in real Storm).
const FLUSH_INTERVAL: Duration = Duration::from_millis(1);

struct Conn {
    writer: BufWriter<TcpStream>,
    last_flush: Instant,
}

/// A sender's connection cache: one outbound path per destination task.
pub struct Outbound {
    directory: Directory,
    tcp_conns: Mutex<HashMap<TaskId, Conn>>,
}

impl Outbound {
    /// A fresh cache over the shared directory.
    pub fn new(directory: Directory) -> Self {
        Outbound {
            directory,
            tcp_conns: Mutex::with_rank(
                rank::TRANSPORT_CONNS,
                "storm.transport.tcp_conns",
                HashMap::new(),
            ),
        }
    }

    /// Sends one serialized tuple blob to `task`. Returns `false` when the
    /// destination is unknown or unreachable (Storm drops such tuples; the
    /// acker-driven replay recovers them in guaranteed mode).
    pub fn send(&self, task: TaskId, blob: &Bytes) -> bool {
        match self.directory.lookup(task) {
            Some(InboxAddr::Local(tx)) => tx.send(blob.clone()),
            Some(InboxAddr::Tcp(addr)) => self.send_tcp(task, addr, blob),
            None => false,
        }
    }

    fn send_tcp(&self, task: TaskId, addr: SocketAddr, blob: &Bytes) -> bool {
        let mut conns = self.tcp_conns.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = conns.entry(task) {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    slot.insert(Conn {
                        writer: BufWriter::with_capacity(64 * 1024, s),
                        // In the past, so a first lone send flushes
                        // immediately (low-rate paths stay low-latency).
                        last_flush: Instant::now() - FLUSH_INTERVAL,
                    });
                }
                Err(_) => return false,
            }
        }
        let conn = conns.get_mut(&task).expect("just inserted");
        let mut ok = conn
            .writer
            .write_all(&(blob.len() as u32).to_be_bytes())
            .and_then(|_| conn.writer.write_all(blob))
            .is_ok();
        // Netty-style cadence: let the buffer amortize syscalls, but never
        // hold tuples longer than the flush interval.
        if ok && conn.last_flush.elapsed() >= FLUSH_INTERVAL {
            ok = conn.writer.flush().is_ok();
            conn.last_flush = Instant::now();
        }
        if !ok {
            conns.remove(&task); // reconnect on next send
        }
        ok
    }

    /// Flushes every buffered connection (executors call this when idle so
    /// the last tuples of a burst never linger in a send buffer).
    pub fn flush_all(&self) {
        let mut conns = self.tcp_conns.lock();
        for conn in conns.values_mut() {
            let _ = conn.writer.flush();
            conn.last_flush = Instant::now();
        }
    }

    /// Drops the cached connection to `task` (after re-assignment).
    pub fn invalidate(&self, task: TaskId) {
        self.tcp_conns.lock().remove(&task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn recv_timeout(inbox: &Inbox) -> Bytes {
        inbox.recv_timeout(Duration::from_secs(5)).expect("blob")
    }

    #[test]
    fn local_send_receives_in_order() {
        let dir = Directory::new();
        let inbox = Inbox::local();
        dir.register(TaskId(1), inbox.addr.clone());
        let out = Outbound::new(dir);
        for i in 0..10u8 {
            assert!(out.send(TaskId(1), &Bytes::from(vec![i])));
        }
        for i in 0..10u8 {
            assert_eq!(recv_timeout(&inbox)[0], i);
        }
    }

    #[test]
    fn tcp_send_round_trips() {
        let dir = Directory::new();
        let inbox = Inbox::tcp().unwrap();
        dir.register(TaskId(2), inbox.addr.clone());
        let out = Outbound::new(dir);
        assert!(out.send(TaskId(2), &Bytes::from(vec![42u8; 1000])));
        let got = recv_timeout(&inbox);
        assert_eq!(got.len(), 1000);
        assert_eq!(got[0], 42);
    }

    #[test]
    fn unknown_destination_reports_failure() {
        let out = Outbound::new(Directory::new());
        assert!(!out.send(TaskId(9), &Bytes::from_static(b"x")));
    }

    #[test]
    fn multiple_senders_one_tcp_inbox() {
        let dir = Directory::new();
        let inbox = Inbox::tcp().unwrap();
        dir.register(TaskId(3), inbox.addr.clone());
        let threads: Vec<_> = (0..4u8)
            .map(|n| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let out = Outbound::new(dir);
                    for _ in 0..100 {
                        assert!(out.send(TaskId(3), &Bytes::from(vec![n])));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut count = 0;
        while count < 400 && Instant::now() < deadline {
            if inbox.try_recv().is_some() {
                count += 1;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        assert_eq!(count, 400);
    }

    #[test]
    fn reregistration_repoints_destination() {
        // Nimbus re-assigns a task: new inbox, same task id.
        let dir = Directory::new();
        let old = Inbox::local();
        dir.register(TaskId(4), old.addr.clone());
        let out = Outbound::new(dir.clone());
        out.send(TaskId(4), &Bytes::from_static(b"old"));
        let new = Inbox::local();
        dir.register(TaskId(4), new.addr.clone());
        out.send(TaskId(4), &Bytes::from_static(b"new"));
        assert_eq!(&recv_timeout(&old)[..], b"old");
        assert_eq!(&recv_timeout(&new)[..], b"new");
    }
}
