//! In-process message transport between worker threads.
//!
//! A [`Router`] creates one [`Endpoint`] per worker rank. Endpoints send
//! typed payloads to peers; every send is charged to the shared
//! [`TrafficStats`] according to whether source and destination share a
//! machine. Receives match on `(from, tag)` with internal buffering so
//! concurrent protocols (collectives, PS pulls, chief notifications) can
//! interleave safely on one channel.
//!
//! Failure semantics: receives (and, over sockets, sends) are
//! deadline-bounded ([`Endpoint::set_recv_deadline`]) and surface typed
//! [`CommError::PeerTimeout`] / [`CommError::PeerDead`] errors instead of
//! blocking forever. Peer death is tracked by a shared [`PeerHealth`]
//! registry (every endpoint marks itself dead on drop, so a crashed
//! worker thread is observable by everyone still waiting on it). A
//! [`FaultInjector`] can be installed at build time
//! ([`Router::build_with`]) to deterministically drop, delay, or
//! duplicate messages; dropped and duplicated messages are charged to
//! *both* byte ledgers (traffic accountant and tracer) once per physical
//! transmission, so the span-vs-network crosscheck stays exact under
//! fault injection.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parallax_fault::{FaultInjector, Verdict};
use parallax_tensor::{IndexedSlices, Tensor};

use crate::topology::Topology;
use crate::traffic::TrafficStats;
use crate::{CommError, Result};

/// Default receive deadline: generous enough that no healthy protocol
/// exchange (including injected straggler sleeps) comes near it, small
/// enough that a dead peer is detected rather than hanging CI.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Shared liveness registry: which ranks are known dead. Endpoints mark
/// themselves dead when dropped (normal exit or thread panic/unwind both
/// run `Drop`), and the runner marks ranks whose threads failed. Receive
/// timeouts consult the registry to distinguish a slow peer
/// ([`CommError::PeerTimeout`]) from a detected failure
/// ([`CommError::PeerDead`]).
#[derive(Debug, Default)]
pub struct PeerHealth {
    dead: Mutex<HashSet<usize>>,
}

impl PeerHealth {
    fn dead(&self) -> MutexGuard<'_, HashSet<usize>> {
        self.dead.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks `rank` as dead.
    pub fn mark_dead(&self, rank: usize) {
        self.dead().insert(rank);
    }

    /// True when `rank` has been marked dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead().contains(&rank)
    }

    /// The lowest dead rank, if any.
    pub fn first_dead(&self) -> Option<usize> {
        self.dead().iter().min().copied()
    }
}

/// A typed message payload.
///
/// Bulk variants carry their data behind an [`Arc`] so the in-process
/// router moves payloads by reference count instead of deep copy: a
/// sender that hands over ownership pays `Arc::new` (one allocation, no
/// element copy) and a broadcast to `k` peers shares one buffer.
/// [`Payload::byte_size`] reads *through* the `Arc`, so traffic
/// accounting is identical to the by-value representation.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A dense tensor.
    Tensor(Arc<Tensor>),
    /// A sparse slice set.
    Slices(Arc<IndexedSlices>),
    /// A raw float buffer (collective chunks).
    Floats(Arc<Vec<f32>>),
    /// A compressed scalar buffer: f16/bf16 wire words of a collective
    /// chunk ([`crate::wire::WireFormat`]).
    Words(Arc<Vec<u16>>),
    /// A sparse slice set with varint-packed indices
    /// ([`crate::wire::PackedSlices`]).
    Packed(Arc<crate::wire::PackedSlices>),
    /// An index list (sparse pull requests).
    Ids(Vec<usize>),
    /// A small control message (barrier tokens, chief notifications).
    Control(u64),
    /// A header-tagged message: protocol layers (e.g. the Parameter
    /// Server) multiplex typed requests over one tag by packing request
    /// kind and target into `header`.
    Packet {
        /// Protocol-defined header word.
        header: u64,
        /// The payload body.
        body: Box<Payload>,
    },
}

impl Payload {
    /// Bytes this payload occupies on the wire.
    pub fn byte_size(&self) -> u64 {
        match self {
            Payload::Tensor(t) => t.byte_size(),
            Payload::Slices(s) => s.byte_size(),
            Payload::Floats(f) => (f.len() * 4) as u64,
            Payload::Words(w) => (w.len() * 2) as u64,
            Payload::Packed(p) => p.byte_size(),
            Payload::Ids(ids) => (ids.len() * 8) as u64,
            Payload::Control(_) => 8,
            Payload::Packet { body, .. } => 8 + body.byte_size(),
        }
    }

    /// Unwraps a packet into `(header, body)`.
    pub fn into_packet(self) -> Result<(u64, Payload)> {
        match self {
            Payload::Packet { header, body } => Ok((header, *body)),
            _ => Err(CommError::PayloadKind { expected: "packet" }),
        }
    }

    /// Unwraps a float buffer. Copies only if the buffer is still shared
    /// with another holder (e.g. a broadcast sender).
    pub fn into_floats(self) -> Result<Vec<f32>> {
        match self {
            Payload::Floats(f) => Ok(unwrap_shared(f)),
            Payload::Tensor(t) => Ok(unwrap_shared(t).into_data()),
            _ => Err(CommError::PayloadKind { expected: "floats" }),
        }
    }

    /// Unwraps a tensor (copy-free when this is the last reference).
    pub fn into_tensor(self) -> Result<Tensor> {
        match self {
            Payload::Tensor(t) => Ok(unwrap_shared(t)),
            _ => Err(CommError::PayloadKind { expected: "tensor" }),
        }
    }

    /// Unwraps a float buffer without materializing an owned copy.
    pub fn into_shared_floats(self) -> Result<Arc<Vec<f32>>> {
        match self {
            Payload::Floats(f) => Ok(f),
            _ => Err(CommError::PayloadKind { expected: "floats" }),
        }
    }

    /// Unwraps a compressed scalar buffer without copying.
    pub fn into_shared_words(self) -> Result<Arc<Vec<u16>>> {
        match self {
            Payload::Words(w) => Ok(w),
            _ => Err(CommError::PayloadKind { expected: "words" }),
        }
    }

    /// Unwraps a packed slice set without copying.
    pub fn into_shared_packed(self) -> Result<Arc<crate::wire::PackedSlices>> {
        match self {
            Payload::Packed(p) => Ok(p),
            _ => Err(CommError::PayloadKind { expected: "packed" }),
        }
    }

    /// Unwraps a slice set (copy-free when this is the last reference).
    pub fn into_slices(self) -> Result<IndexedSlices> {
        match self {
            Payload::Slices(s) => Ok(unwrap_shared(s)),
            _ => Err(CommError::PayloadKind { expected: "slices" }),
        }
    }

    /// Unwraps a slice set without materializing an owned copy.
    pub fn into_shared_slices(self) -> Result<Arc<IndexedSlices>> {
        match self {
            Payload::Slices(s) => Ok(s),
            _ => Err(CommError::PayloadKind { expected: "slices" }),
        }
    }

    /// Unwraps an id list.
    pub fn into_ids(self) -> Result<Vec<usize>> {
        match self {
            Payload::Ids(ids) => Ok(ids),
            _ => Err(CommError::PayloadKind { expected: "ids" }),
        }
    }

    /// Unwraps a control token.
    pub fn into_control(self) -> Result<u64> {
        match self {
            Payload::Control(c) => Ok(c),
            _ => Err(CommError::PayloadKind {
                expected: "control",
            }),
        }
    }
}

/// Takes the value out of an `Arc`, cloning only when still shared.
pub(crate) fn unwrap_shared<T: Clone>(a: Arc<T>) -> T {
    Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())
}

/// A routed message as the transport layer sees it: sender rank, tag,
/// payload. Public so alternative [`Transport`] implementations (the
/// socket mesh in `parallax-net`) can produce them.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub from: usize,
    /// Message tag (protocol-defined).
    pub tag: u64,
    /// The payload.
    pub payload: Payload,
}

/// Why a blocking [`Transport::recv`] returned without a message.
///
/// `peer == usize::MAX` in [`RecvError::Disconnected`] means the
/// transport cannot attribute the disconnect to a specific rank (the
/// in-process channel, for example, only observes that every sender is
/// gone); the [`Endpoint`] substitutes the rank it was waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The timeout expired with no message available.
    Timeout,
    /// The underlying link is gone; no further messages can arrive.
    Disconnected {
        /// The rank the disconnect is attributed to, or `usize::MAX`.
        peer: usize,
    },
}

/// The byte-moving half of an [`Endpoint`]: deliver a payload to a rank,
/// surface the next arrival within a deadline. Everything above this
/// seam — tag matching, traffic accounting, fault injection, protocol
/// validation, failure classification — lives in [`Endpoint`] and is
/// identical for every implementation, which is what makes the
/// in-process and multi-process modes byte-for-byte equivalent.
///
/// Implementations: [`ChannelTransport`] (crossbeam channels, one
/// process) and `parallax_net::TcpTransport` (length-prefixed frames
/// over TCP, one process per rank).
pub trait Transport: Send {
    /// Delivers `payload` to rank `to` under `tag`. Errors are typed
    /// [`CommError`]s; [`CommError::Disconnected`] marks the peer dead
    /// in the caller's health registry.
    fn send(&self, to: usize, tag: u64, payload: Payload) -> Result<()>;

    /// Blocks up to `timeout` for the next arrival, in delivery order.
    fn recv(&mut self, timeout: Duration) -> std::result::Result<Envelope, RecvError>;

    /// Bounds how long one `send` may wait for a peer to make room (the
    /// TCP transport returns [`CommError::PeerTimeout`] at the deadline).
    /// [`Endpoint`] forwards its deadline here, so one deadline covers
    /// both directions. The default is a no-op: the channel transport's
    /// sends never block.
    fn set_deadline(&mut self, _deadline: Duration) {}

    /// Releases transport resources gracefully (the TCP transport sends
    /// FIN frames; the channel transport has nothing to do). Called from
    /// [`Endpoint`]'s `Drop`; must be idempotent.
    fn shutdown(&mut self) {}
}

/// The in-process transport: one unbounded crossbeam channel per rank,
/// sends move `Arc`-backed payloads by reference count.
pub struct ChannelTransport {
    rank: usize,
    senders: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
}

impl Transport for ChannelTransport {
    fn send(&self, to: usize, tag: u64, payload: Payload) -> Result<()> {
        let tx = self.senders.get(to).ok_or(CommError::UnknownRank(to))?;
        tx.send(Envelope {
            from: self.rank,
            tag,
            payload,
        })
        .map_err(|_| CommError::Disconnected { peer: to })
    }

    fn recv(&mut self, timeout: Duration) -> std::result::Result<Envelope, RecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(env),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                Err(RecvError::Disconnected { peer: usize::MAX })
            }
        }
    }
}

/// Builds the in-process mesh of endpoints for a topology.
#[derive(Debug)]
pub struct Router;

impl Router {
    /// Creates all endpoints for `topology`.
    ///
    /// Returns one endpoint per worker rank (move each into its worker
    /// thread) and the shared traffic accumulator.
    pub fn build(topology: Topology) -> (Vec<Endpoint>, Arc<TrafficStats>) {
        Self::build_with(topology, None)
    }

    /// Like [`Router::build`], with an optional fault injector installed
    /// on every endpoint's send path. Backed by [`ChannelTransport`]s;
    /// all ranks share one traffic accumulator and one health registry
    /// (multi-process ranks instead build single endpoints with
    /// [`Endpoint::from_transport`]).
    pub fn build_with(
        topology: Topology,
        faults: Option<Arc<FaultInjector>>,
    ) -> (Vec<Endpoint>, Arc<TrafficStats>) {
        let n = topology.num_workers();
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Envelope>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let traffic = TrafficStats::new(topology.num_machines());
        let health = Arc::new(PeerHealth::default());
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Endpoint {
                rank,
                topology: topology.clone(),
                transport: Box::new(ChannelTransport {
                    rank,
                    senders: senders.clone(),
                    rx,
                }),
                pending: HashMap::new(),
                traffic: Arc::clone(&traffic),
                health: Arc::clone(&health),
                faults: faults.clone(),
                validator: None,
                deadline: DEFAULT_RECV_DEADLINE,
            })
            .collect();
        (endpoints, traffic)
    }
}

/// One worker's connection to the mesh.
pub struct Endpoint {
    rank: usize,
    topology: Topology,
    transport: Box<dyn Transport>,
    pending: HashMap<(usize, u64), VecDeque<Payload>>,
    traffic: Arc<TrafficStats>,
    health: Arc<PeerHealth>,
    faults: Option<Arc<FaultInjector>>,
    validator: Option<Arc<crate::protocheck::SessionValidator>>,
    deadline: Duration,
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Drop runs on normal exit *and* on panic unwind, so a crashed
        // worker thread is always observable in the health registry.
        self.health.mark_dead(self.rank);
        self.transport.shutdown();
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .finish()
    }
}

impl Endpoint {
    /// Builds a single endpoint over an external [`Transport`] — the
    /// multi-process entry point, where each OS process owns exactly one
    /// rank. The caller supplies the health registry because the
    /// transport shares it (a socket EOF marks the peer dead there, and
    /// this endpoint's deadline classification observes it here).
    /// Traffic accounting is sender-side only, so each process's
    /// accumulator covers exactly its own rank's sends and per-process
    /// snapshots merge disjointly. The endpoint's deadline
    /// ([`DEFAULT_RECV_DEADLINE`] until [`Endpoint::set_recv_deadline`])
    /// is forwarded to the transport, so it bounds sends as well as
    /// receives.
    pub fn from_transport(
        topology: Topology,
        rank: usize,
        mut transport: Box<dyn Transport>,
        traffic: Arc<TrafficStats>,
        health: Arc<PeerHealth>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Endpoint> {
        if rank >= topology.num_workers() {
            return Err(CommError::UnknownRank(rank));
        }
        transport.set_deadline(DEFAULT_RECV_DEADLINE);
        Ok(Endpoint {
            rank,
            topology,
            transport,
            pending: HashMap::new(),
            traffic,
            health,
            faults,
            validator: None,
            deadline: DEFAULT_RECV_DEADLINE,
        })
    }

    /// This endpoint's worker rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The machine hosting this endpoint, or a typed error if the
    /// topology does not know this rank (a mis-built mesh — previously a
    /// panic site).
    pub fn machine(&self) -> Result<usize> {
        self.topology.machine_of(self.rank)
    }

    /// The topology this endpoint belongs to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared traffic accumulator.
    pub fn traffic(&self) -> &Arc<TrafficStats> {
        &self.traffic
    }

    /// The shared liveness registry.
    pub fn health(&self) -> &Arc<PeerHealth> {
        &self.health
    }

    /// Bounds how long [`Endpoint::recv`] / [`Endpoint::recv_any`] block
    /// before returning [`CommError::PeerTimeout`] /
    /// [`CommError::PeerDead`]. This is the failure-detection deadline.
    /// It is forwarded to the transport ([`Transport::set_deadline`]),
    /// so it also bounds a send blocked on a peer that stopped reading.
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
        self.transport.set_deadline(deadline);
    }

    /// Installs a session-machine validator on the send path: every
    /// subsequent [`Endpoint::send`] must be accepted by the machine or
    /// it fails with [`CommError::Protocol`] *before* anything is
    /// enqueued or charged. The validator is stateless (membership +
    /// boundary gate only), so fault-injected duplicates and
    /// recovery-replayed iterations are never false positives.
    pub fn set_validator(&mut self, validator: Arc<crate::protocheck::SessionValidator>) {
        self.validator = Some(validator);
    }

    /// Sends `payload` to worker `to` under `tag`, charging traffic.
    ///
    /// When a fault injector is installed, the message may be dropped,
    /// delayed, or duplicated. Both byte ledgers (traffic accountant and
    /// tracer) are charged once per *physical transmission*: a dropped
    /// message is charged once (it went onto the wire, the receiver
    /// never saw it), a duplicated message twice.
    pub fn send(&self, to: usize, tag: u64, payload: Payload) -> Result<()> {
        if to >= self.topology.num_workers() {
            return Err(CommError::UnknownRank(to));
        }
        if let Some(v) = &self.validator {
            let header = match &payload {
                Payload::Packet { header, .. } => Some(*header),
                _ => None,
            };
            v.check(self.rank, to, tag, header)?;
        }
        let src = self.machine()?;
        let dst = self.topology.machine_of(to)?;
        let verdict = match &self.faults {
            Some(inj) => inj.on_message(self.rank, to),
            None => Verdict::Deliver,
        };
        match verdict {
            Verdict::Deliver => {
                self.charge(src, dst, tag, payload.byte_size());
                self.enqueue(to, tag, payload)
            }
            Verdict::Drop => {
                // Transmitted but lost: charged, never enqueued.
                self.charge(src, dst, tag, payload.byte_size());
                Ok(())
            }
            Verdict::Delay(d) => {
                self.charge(src, dst, tag, payload.byte_size());
                std::thread::sleep(d);
                self.enqueue(to, tag, payload)
            }
            Verdict::Duplicate => {
                let bytes = payload.byte_size();
                self.charge(src, dst, tag, bytes);
                self.enqueue(to, tag, payload.clone())?;
                self.charge(src, dst, tag, bytes);
                self.enqueue(to, tag, payload)
            }
        }
    }

    /// Charges one physical transmission to both byte ledgers.
    fn charge(&self, src: usize, dst: usize, tag: u64, bytes: u64) {
        self.traffic
            .record_class(src, dst, bytes, crate::traffic::TrafficClass::from_tag(tag));
        // Mirror the accountant's inter-machine branch into the tracer,
        // so span byte totals cross-check against `total_network_bytes()`.
        if src != dst {
            parallax_trace::on_net_bytes(bytes);
        }
    }

    fn enqueue(&self, to: usize, tag: u64, payload: Payload) -> Result<()> {
        self.transport.send(to, tag, payload).inspect_err(|e| {
            if let CommError::Disconnected { peer } = e {
                self.health.mark_dead(*peer);
            }
        })
    }

    /// Classifies an expired receive deadline: a peer registered dead is
    /// a detected failure, otherwise it is (so far) just slowness.
    fn timeout_error(&self, peer: usize) -> CommError {
        let dead = if peer == usize::MAX {
            self.health.first_dead().filter(|&d| d != self.rank)
        } else {
            self.health.is_dead(peer).then_some(peer)
        };
        match dead {
            Some(peer) => CommError::PeerDead { peer },
            None => CommError::PeerTimeout {
                peer,
                waited_ms: self.deadline.as_millis() as u64,
            },
        }
    }

    /// Receives the next payload from `from` with `tag`, blocking at
    /// most the configured receive deadline.
    ///
    /// Messages for other `(from, tag)` pairs that arrive first are
    /// buffered for later receives. An expired deadline yields
    /// [`CommError::PeerDead`] when `from` is registered dead,
    /// [`CommError::PeerTimeout`] otherwise.
    pub fn recv(&mut self, from: usize, tag: u64) -> Result<Payload> {
        if let Some(queue) = self.pending.get_mut(&(from, tag)) {
            if let Some(p) = queue.pop_front() {
                return Ok(p);
            }
        }
        let deadline = Instant::now() + self.deadline;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let env = match self.transport.recv(remaining) {
                Ok(env) => env,
                Err(RecvError::Timeout) => return Err(self.timeout_error(from)),
                Err(RecvError::Disconnected { peer }) => {
                    let peer = if peer == usize::MAX { from } else { peer };
                    return Err(CommError::Disconnected { peer });
                }
            };
            if env.from == from && env.tag == tag {
                return Ok(env.payload);
            }
            self.pending
                .entry((env.from, env.tag))
                .or_default()
                .push_back(env.payload);
        }
    }

    /// Receives the next payload with `tag` from *any* rank, returning
    /// `(from, payload)`. Used by server loops. Blocks at most the
    /// configured receive deadline; on expiry yields
    /// [`CommError::PeerDead`] when any rank is registered dead,
    /// [`CommError::PeerTimeout`] (with `peer == usize::MAX`) otherwise.
    pub fn recv_any(&mut self, tag: u64) -> Result<(usize, Payload)> {
        // Check buffered messages first, lowest rank first for determinism.
        let mut keys: Vec<usize> = self
            .pending
            .iter()
            .filter(|((_, t), q)| *t == tag && !q.is_empty())
            .map(|((f, _), _)| *f)
            .collect();
        keys.sort_unstable();
        if let Some(&from) = keys.first() {
            // The filter above guarantees a payload; if the map was
            // mutated out from under us, fall through to the channel
            // loop instead of panicking.
            if let Some(p) = self
                .pending
                .get_mut(&(from, tag))
                .and_then(|q| q.pop_front())
            {
                return Ok((from, p));
            }
        }
        let deadline = Instant::now() + self.deadline;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let env = match self.transport.recv(remaining) {
                Ok(env) => env,
                Err(RecvError::Timeout) => return Err(self.timeout_error(usize::MAX)),
                Err(RecvError::Disconnected { peer }) => {
                    return Err(CommError::Disconnected { peer })
                }
            };
            if env.tag == tag {
                return Ok((env.from, env.payload));
            }
            self.pending
                .entry((env.from, env.tag))
                .or_default()
                .push_back(env.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip_and_accounting() {
        let topo = Topology::uniform(2, 1).unwrap();
        let (mut eps, traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                e0.send(1, 7, Payload::Floats(Arc::new(vec![1.0, 2.0, 3.0])))
                    .unwrap();
            });
            let got = e1.recv(0, 7).unwrap().into_floats().unwrap();
            assert_eq!(got, vec![1.0, 2.0, 3.0]);
        });
        let s = traffic.snapshot();
        assert_eq!(s.out_bytes[0], 12);
        assert_eq!(s.in_bytes[1], 12);
    }

    #[test]
    fn intra_machine_traffic_not_charged_to_network() {
        let topo = Topology::uniform(1, 2).unwrap();
        let (mut eps, traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send(1, 0, Payload::Control(42)).unwrap();
        assert_eq!(e1.recv(0, 0).unwrap().into_control().unwrap(), 42);
        let s = traffic.snapshot();
        assert_eq!(s.total_network_bytes(), 0);
        assert_eq!(s.intra_bytes(), 8);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let topo = Topology::uniform(2, 1).unwrap();
        let (mut eps, _traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send(1, 1, Payload::Control(1)).unwrap();
        e0.send(1, 2, Payload::Control(2)).unwrap();
        // Receive tag 2 first even though tag 1 arrived first.
        assert_eq!(e1.recv(0, 2).unwrap().into_control().unwrap(), 2);
        assert_eq!(e1.recv(0, 1).unwrap().into_control().unwrap(), 1);
    }

    #[test]
    fn recv_any_prefers_buffered_lowest_rank() {
        let topo = Topology::uniform(3, 1).unwrap();
        let (mut eps, _traffic) = Router::build(topo);
        let mut e2 = eps.pop().unwrap();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e1.send(2, 5, Payload::Control(11)).unwrap();
        e0.send(2, 5, Payload::Control(10)).unwrap();
        // Force both into the buffer by receiving an unrelated tag first.
        e0.send(2, 6, Payload::Control(99)).unwrap();
        assert_eq!(e2.recv(0, 6).unwrap().into_control().unwrap(), 99);
        let (from, p) = e2.recv_any(5).unwrap();
        assert_eq!((from, p.into_control().unwrap()), (0, 10));
        let (from, p) = e2.recv_any(5).unwrap();
        assert_eq!((from, p.into_control().unwrap()), (1, 11));
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let topo = Topology::uniform(2, 1).unwrap();
        let (mut eps, _traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        e1.set_recv_deadline(Duration::from_millis(30));
        let start = Instant::now();
        match e1.recv(0, 7) {
            Err(CommError::PeerTimeout { peer: 0, .. }) => {}
            other => panic!("expected PeerTimeout, got {other:?}"),
        }
        assert!(start.elapsed() >= Duration::from_millis(30));
        match e1.recv_any(7) {
            Err(CommError::PeerTimeout { peer, .. }) => assert_eq!(peer, usize::MAX),
            other => panic!("expected PeerTimeout, got {other:?}"),
        }
    }

    #[test]
    fn recv_from_dropped_peer_errors_instead_of_hanging() {
        let topo = Topology::uniform(2, 1).unwrap();
        let (mut eps, _traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e1.set_recv_deadline(Duration::from_millis(30));
        // Endpoint 0's thread "crashes": its Drop marks it dead.
        drop(e0);
        assert!(matches!(
            e1.recv(0, 7),
            Err(CommError::PeerDead { peer: 0 })
        ));
        assert!(matches!(
            e1.recv_any(7),
            Err(CommError::PeerDead { peer: 0 })
        ));
    }

    #[test]
    fn dead_mark_does_not_preempt_delivered_messages() {
        let topo = Topology::uniform(2, 1).unwrap();
        let (mut eps, _traffic) = Router::build(topo);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e1.set_recv_deadline(Duration::from_millis(30));
        e0.send(1, 3, Payload::Control(5)).unwrap();
        drop(e0);
        // The message sent before death is still delivered; only the
        // *next* (never-arriving) one reports death.
        assert_eq!(e1.recv(0, 3).unwrap().into_control().unwrap(), 5);
        assert!(matches!(
            e1.recv(0, 3),
            Err(CommError::PeerDead { peer: 0 })
        ));
    }

    #[test]
    fn drop_fault_charges_both_ledgers_but_never_delivers() {
        use parallax_fault::{FaultInjector, FaultPlan};
        let topo = Topology::uniform(2, 1).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().drop_message(0, 1, 0)));
        let (mut eps, traffic) = Router::build_with(topo, Some(Arc::clone(&inj)));
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e1.set_recv_deadline(Duration::from_millis(30));
        e0.send(1, 7, Payload::Floats(Arc::new(vec![0.0; 4])))
            .unwrap();
        assert!(matches!(
            e1.recv(0, 7),
            Err(CommError::PeerTimeout { peer: 0, .. })
        ));
        // Charged exactly once despite never being delivered.
        assert_eq!(traffic.snapshot().out_bytes[0], 16);
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn duplicate_fault_delivers_and_charges_twice() {
        use parallax_fault::{FaultInjector, FaultPlan};
        let topo = Topology::uniform(2, 1).unwrap();
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new().duplicate_message(0, 1, 0),
        ));
        let (mut eps, traffic) = Router::build_with(topo, Some(inj));
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send(1, 7, Payload::Control(9)).unwrap();
        assert_eq!(e1.recv(0, 7).unwrap().into_control().unwrap(), 9);
        assert_eq!(e1.recv(0, 7).unwrap().into_control().unwrap(), 9);
        assert_eq!(traffic.snapshot().out_bytes[0], 16);
        assert_eq!(traffic.snapshot().inter_messages, 2);
    }

    #[test]
    fn delay_fault_still_delivers_in_order() {
        use parallax_fault::{FaultInjector, FaultPlan};
        let topo = Topology::uniform(2, 1).unwrap();
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new().delay_message(0, 1, 0, 20),
        ));
        let (mut eps, traffic) = Router::build_with(topo, Some(inj));
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let start = Instant::now();
        e0.send(1, 7, Payload::Control(1)).unwrap();
        e0.send(1, 7, Payload::Control(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(e1.recv(0, 7).unwrap().into_control().unwrap(), 1);
        assert_eq!(e1.recv(0, 7).unwrap().into_control().unwrap(), 2);
        assert_eq!(traffic.snapshot().out_bytes[0], 16);
    }

    #[test]
    fn unknown_rank_rejected() {
        let topo = Topology::uniform(1, 1).unwrap();
        let (eps, _traffic) = Router::build(topo);
        assert!(matches!(
            eps[0].send(5, 0, Payload::Control(0)),
            Err(CommError::UnknownRank(5))
        ));
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Floats(Arc::new(vec![0.0; 10])).byte_size(), 40);
        assert_eq!(Payload::Ids(vec![0; 3]).byte_size(), 24);
        assert_eq!(Payload::Control(0).byte_size(), 8);
        assert_eq!(
            Payload::Tensor(Arc::new(Tensor::zeros([4]))).byte_size(),
            16
        );
        // Compressed payloads report their *encoded* size, which is what
        // keeps the measured ledger equal to the wire-aware prediction.
        assert_eq!(Payload::Words(Arc::new(vec![0u16; 10])).byte_size(), 20);
        let slices = IndexedSlices::new(vec![1, 2], Tensor::zeros([2, 3]), 8).unwrap();
        let packed = crate::wire::PackedSlices::pack(&slices);
        assert_eq!(
            Payload::Packed(Arc::new(packed)).byte_size(),
            crate::wire::packed_byte_size(&slices)
        );
    }

    #[test]
    fn payload_kind_errors() {
        assert!(Payload::Control(0).into_floats().is_err());
        assert!(Payload::Floats(Arc::new(vec![])).into_ids().is_err());
        assert!(Payload::Ids(vec![]).into_tensor().is_err());
    }

    #[test]
    fn shared_payload_unwraps_without_copy_when_unique() {
        let t = Arc::new(Tensor::zeros([8]));
        let addr = t.data().as_ptr();
        let out = Payload::Tensor(t).into_tensor().unwrap();
        // Sole owner: the same allocation comes back.
        assert!(std::ptr::eq(out.data().as_ptr(), addr));
    }
}
