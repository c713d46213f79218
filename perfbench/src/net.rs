//! The loopback TCP mesh for `lm-ps-tcp`, and the timing [`Transport`]
//! wrapper that measures the `net.*` layer from outside.
//!
//! The mesh is connected once per set-up and outlives every training
//! chunk: each chunk builds fresh [`parallax_comm::Endpoint`]s over
//! [`TimedTransport`]s that share the mesh's sockets. Dropping an
//! endpoint therefore must not close the links, so the wrapper's
//! `shutdown` is a no-op; the links close when the [`Mesh`] drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parallax_comm::{Envelope, Payload, PeerHealth, RecvError, Transport};
use parallax_net::{free_local_ports, TcpConfig, TcpTransport};

/// Outside timers and counts for one rank's socket traffic.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Nanoseconds spent inside `TcpTransport::send` (framing + write).
    pub send_ns: AtomicU64,
    /// Nanoseconds spent blocked in `TcpTransport::recv`.
    pub recv_wait_ns: AtomicU64,
    /// Frames written to sockets (self-sends use a loopback channel and
    /// are not counted).
    pub frames: AtomicU64,
    /// Bytes of those frames, headers included.
    pub frame_bytes: AtomicU64,
}

/// Totals over every rank of a mesh.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetTotals {
    /// See [`NetStats::send_ns`].
    pub send_ns: u64,
    /// See [`NetStats::recv_wait_ns`].
    pub recv_wait_ns: u64,
    /// See [`NetStats::frames`].
    pub frames: u64,
    /// See [`NetStats::frame_bytes`].
    pub frame_bytes: u64,
}

impl NetTotals {
    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &NetTotals) -> NetTotals {
        NetTotals {
            send_ns: self.send_ns - earlier.send_ns,
            recv_wait_ns: self.recv_wait_ns - earlier.recv_wait_ns,
            frames: self.frames - earlier.frames,
            frame_bytes: self.frame_bytes - earlier.frame_bytes,
        }
    }
}

/// A fully connected loopback mesh, one [`TcpTransport`] per rank.
pub struct Mesh {
    links: Vec<Arc<Mutex<TcpTransport>>>,
    stats: Vec<Arc<NetStats>>,
}

impl Mesh {
    /// Connects `ranks` transports on free loopback ports, one thread
    /// per rank (every rank must be dialing or accepting at once).
    pub fn connect(ranks: usize) -> Result<Mesh, String> {
        let ports = free_local_ports(ranks).map_err(|e| format!("free ports: {e}"))?;
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let links = std::thread::scope(|s| {
            let handles: Vec<_> = (0..ranks)
                .map(|rank| {
                    let cfg = TcpConfig::new(rank, addrs.clone());
                    s.spawn(move || {
                        TcpTransport::connect_mesh(&cfg, Arc::new(PeerHealth::default()))
                            .map_err(|e| format!("rank {rank}: {e}"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mesh connect thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok(Mesh {
            links: links.into_iter().map(|t| Arc::new(Mutex::new(t))).collect(),
            stats: (0..ranks).map(|_| Arc::new(NetStats::default())).collect(),
        })
    }

    /// A transport for `rank` over this mesh's socket.
    pub fn link(&self, rank: usize) -> TimedTransport {
        TimedTransport {
            rank,
            inner: Arc::clone(&self.links[rank]),
            stats: Arc::clone(&self.stats[rank]),
        }
    }

    /// Sums every rank's counters.
    pub fn totals(&self) -> NetTotals {
        let mut t = NetTotals::default();
        for s in &self.stats {
            t.send_ns += s.send_ns.load(Ordering::Relaxed);
            t.recv_wait_ns += s.recv_wait_ns.load(Ordering::Relaxed);
            t.frames += s.frames.load(Ordering::Relaxed);
            t.frame_bytes += s.frame_bytes.load(Ordering::Relaxed);
        }
        t
    }

    /// Receives and discards whatever is still queued on any link,
    /// returning how many messages that was. After a completed run the
    /// protocol has consumed every message, so anything left over would
    /// leak into the next run's tag matching.
    pub fn drain_leftovers(&self) -> usize {
        let mut n = 0;
        for link in &self.links {
            let mut t = link.lock().expect("mesh link lock poisoned");
            while t.recv(Duration::ZERO).is_ok() {
                n += 1;
            }
        }
        n
    }
}

/// One rank's view of a [`Mesh`], timing every send and receive.
pub struct TimedTransport {
    rank: usize,
    inner: Arc<Mutex<TcpTransport>>,
    stats: Arc<NetStats>,
}

impl Transport for TimedTransport {
    fn send(&self, to: usize, tag: u64, payload: Payload) -> parallax_comm::Result<()> {
        let framed = (to != self.rank).then(|| frame_len(&payload));
        let t = Instant::now();
        let result = self
            .inner
            .lock()
            .expect("mesh link lock poisoned")
            .send(to, tag, payload);
        self.stats
            .send_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(bytes) = framed {
            self.stats.frames.fetch_add(1, Ordering::Relaxed);
            self.stats.frame_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        result
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvError> {
        let t = Instant::now();
        let result = self
            .inner
            .lock()
            .expect("mesh link lock poisoned")
            .recv(timeout);
        self.stats
            .recv_wait_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    // The mesh outlives the endpoint built over this link.
    fn shutdown(&mut self) {}
}

/// Encoded size of a message frame carrying `payload`, computed from the
/// layout documented in `parallax_net::frame` without encoding it:
/// `u32 len + u32 crc + u8 kind + u64 tag` then the payload.
pub fn frame_len(payload: &Payload) -> u64 {
    4 + 4 + 1 + 8 + payload_len(payload)
}

fn tensor_len(t: &parallax_tensor::Tensor) -> u64 {
    4 + 4 * t.shape().dims().len() as u64 + 4 * t.data().len() as u64
}

fn payload_len(p: &Payload) -> u64 {
    1 + match p {
        Payload::Tensor(t) => tensor_len(t),
        Payload::Slices(s) => 8 + 4 + 8 * s.indices().len() as u64 + tensor_len(s.values()),
        Payload::Floats(f) => 4 + 4 * f.len() as u64,
        Payload::Words(w) => 4 + 2 * w.len() as u64,
        Payload::Packed(p) => 8 + 4 + 4 + p.index_bytes().len() as u64 + tensor_len(p.values()),
        Payload::Ids(ids) => 4 + 8 * ids.len() as u64,
        Payload::Control(_) => 8,
        Payload::Packet { body, .. } => 8 + payload_len(body),
    }
}
