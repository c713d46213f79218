//! The socket mesh: one full-duplex TCP connection per rank pair,
//! implementing [`parallax_comm::Transport`].
//!
//! Connection establishment is deterministic and deadlock-free: every
//! rank binds its listener *first*, then dials every lower rank
//! (bounded retry with exponential backoff, so process start order
//! does not matter), then accepts from every higher rank. Each link is
//! verified by a magic/rank handshake in both directions before any
//! frame moves.
//!
//! No thread reads on the transport's behalf: the rank thread that owns
//! it does all of its socket I/O, and every link is nonblocking.
//! `recv` pops the next envelope from a local inbox; when the inbox is
//! empty it `poll(2)`s every open link, reads each readable one into
//! that link's buffer, and decodes whole frames in place
//! (`frame::FrameBuf`). Per-link delivery order is the
//! socket's byte order — the same semantics the in-process
//! `ChannelTransport` provides — and the kernel's socket buffers are
//! the inbound queue. Self-sends go straight to the inbox.
//!
//! `send` writes nonblocking. While the target's socket is full it keeps
//! draining every inbound link into the inbox, so two ranks exchanging
//! payloads larger than their socket buffers cannot deadlock. One
//! deadline ([`Transport::set_deadline`]) bounds the wait: a peer that
//! stops reading surfaces as `PeerTimeout`, and the link closes, since
//! its stream now holds a partial frame.
//!
//! FIN (graceful peer shutdown), EOF (peer crash), a frame error, or a
//! reset marks the peer dead in the shared [`PeerHealth`] registry when
//! the owner next drives the transport. The endpoint consults the
//! registry only after a `recv` that polled every link, so this is
//! exactly how its deadline classification distinguishes `PeerDead`
//! from `PeerTimeout` across the process boundary.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_comm::{
    CommError, Envelope, Payload, PeerHealth, RecvError, Transport, DEFAULT_RECV_DEADLINE,
};

use crate::error::{NetError, Result};
use crate::frame::{self, Frame, FrameBuf};

/// Link handshake magic.
const MAGIC: &[u8; 8] = b"PLXNET1\n";

/// Dial attempts per lower-ranked peer (~25 s of patience with the
/// backoff below, so a slow sibling process can't miss the mesh).
const CONNECT_ATTEMPTS: u32 = 60;
/// First dial retry delay; doubles per attempt, capped at 400 ms.
const CONNECT_BASE_DELAY: Duration = Duration::from_millis(10);
/// How long to wait for every higher-ranked peer to dial in.
const MESH_DEADLINE: Duration = Duration::from_secs(30);

/// Mesh-construction parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's transport rank.
    pub rank: usize,
    /// Listen address (`host:port`) of every rank, in rank order.
    pub addrs: Vec<String>,
}

impl TcpConfig {
    /// The mesh of `addrs` as seen from `rank`.
    pub fn new(rank: usize, addrs: Vec<String>) -> Self {
        TcpConfig { rank, addrs }
    }
}

/// A fully-connected socket mesh for one rank.
pub struct TcpTransport {
    rank: usize,
    /// Bounds a blocked send, and all FIN writes at shutdown together.
    deadline: Duration,
    health: Arc<PeerHealth>,
    /// All socket state. `send(&self)` drains inbound links while it
    /// waits, so the read side sits behind a `RefCell`: one thread owns
    /// the transport (it is `Send`, not `Sync`).
    io: RefCell<Io>,
    shut: bool,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("peers", &(self.io.borrow().links.len() - 1))
            .finish()
    }
}

/// One link to a peer.
struct Link {
    stream: TcpStream,
    frames: FrameBuf,
    /// False once the peer's stream ended (FIN, EOF, frame error, reset).
    reading: bool,
}

/// A transport's socket state, driven only by its owning thread.
struct Io {
    /// One link per peer rank; `None` for self and for a link closed
    /// after a send timed out.
    links: Vec<Option<Link>>,
    /// Decoded arrivals (and self-sends) not yet returned by `recv`.
    inbox: VecDeque<Envelope>,
    /// The poll set and the peer of each entry, reused across polls.
    fds: Vec<sys::PollFd>,
    polled: Vec<usize>,
}

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> NetError {
    move |e| NetError::Io {
        op,
        err: e.to_string(),
    }
}

/// Dials `addr` with bounded exponential backoff.
fn connect_with_retry(addr: &str, attempts: u32, base: Duration) -> Result<TcpStream> {
    let mut delay = base;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(_) if attempt + 1 < attempts => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(400));
            }
            Err(_) => break,
        }
    }
    Err(NetError::ConnectExhausted {
        addr: addr.to_string(),
        attempts,
    })
}

/// Writes this side's handshake half: magic, own rank, expected peer.
fn send_hello(s: &mut TcpStream, own: usize, expect: usize) -> Result<()> {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&(own as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&(expect as u32).to_le_bytes());
    s.write_all(&buf).map_err(io_err("handshake write"))
}

/// Reads the peer's handshake half, returning `(their_rank, expected)`.
fn read_hello(s: &mut TcpStream) -> Result<(usize, usize)> {
    let mut buf = [0u8; 16];
    s.read_exact(&mut buf).map_err(io_err("handshake read"))?;
    if &buf[..8] != MAGIC {
        return Err(NetError::Handshake("bad magic".into()));
    }
    let theirs = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    let expect = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    Ok((theirs, expect))
}

impl TcpTransport {
    /// Builds the mesh for `cfg.rank`: bind, dial lower ranks, accept
    /// higher ranks, verify every handshake, then switch every link to
    /// nonblocking I/O driven by the owning thread.
    ///
    /// `health` is shared with the endpoint built on top
    /// ([`parallax_comm::Endpoint::from_transport`]): the transport
    /// marks peers dead there.
    pub fn connect_mesh(cfg: &TcpConfig, health: Arc<PeerHealth>) -> Result<TcpTransport> {
        let n = cfg.addrs.len();
        let rank = cfg.rank;
        if rank >= n {
            return Err(NetError::Spec(format!("rank {rank} outside {n} addrs")));
        }
        let listener = TcpListener::bind(&cfg.addrs[rank]).map_err(io_err("bind"))?;
        listener
            .set_nonblocking(true)
            .map_err(io_err("set_nonblocking"))?;

        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        // Dial every lower rank. Those processes bound their listeners
        // before dialing anyone, so pending connections queue in their
        // accept backlog and sequential dialing cannot deadlock.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut s = connect_with_retry(&cfg.addrs[peer], CONNECT_ATTEMPTS, CONNECT_BASE_DELAY)?;
            s.set_nodelay(true).map_err(io_err("set_nodelay"))?;
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(io_err("set_read_timeout"))?;
            send_hello(&mut s, rank, peer)?;
            let (theirs, expect) = read_hello(&mut s)?;
            if theirs != peer || expect != rank {
                return Err(NetError::Handshake(format!(
                    "dialed rank {peer} but {theirs} (expecting {expect}) answered"
                )));
            }
            *slot = Some(s);
        }
        // Accept every higher rank.
        let mut missing = n - 1 - rank;
        let deadline = Instant::now() + MESH_DEADLINE;
        while missing > 0 {
            match listener.accept() {
                Ok((mut s, _)) => {
                    s.set_nonblocking(false)
                        .map_err(io_err("set_nonblocking"))?;
                    s.set_nodelay(true).map_err(io_err("set_nodelay"))?;
                    s.set_read_timeout(Some(Duration::from_secs(10)))
                        .map_err(io_err("set_read_timeout"))?;
                    let (theirs, expect) = read_hello(&mut s)?;
                    if expect != rank || theirs <= rank || theirs >= n {
                        return Err(NetError::Handshake(format!(
                            "inbound claims rank {theirs}, expecting {expect} (i am {rank}/{n})"
                        )));
                    }
                    if streams[theirs].is_some() {
                        return Err(NetError::Handshake(format!("duplicate link from {theirs}")));
                    }
                    send_hello(&mut s, rank, theirs)?;
                    streams[theirs] = Some(s);
                    missing -= 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::MeshDeadline { missing });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(io_err("accept")(e)),
            }
        }

        let mut links = Vec::with_capacity(n);
        for stream in streams {
            links.push(match stream {
                Some(stream) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(io_err("set_nonblocking"))?;
                    Some(Link {
                        stream,
                        frames: FrameBuf::new(),
                        reading: true,
                    })
                }
                None => None,
            });
        }
        Ok(TcpTransport {
            rank,
            deadline: DEFAULT_RECV_DEADLINE,
            health,
            io: RefCell::new(Io {
                links,
                inbox: VecDeque::new(),
                fds: Vec::with_capacity(n),
                polled: Vec::with_capacity(n),
            }),
            shut: false,
        })
    }

    /// Sends FIN on every link and half-closes the write side, then
    /// reads whatever already arrived, so closing the sockets later does
    /// not answer unread data with RST. The FIN writes share one
    /// deadline-long budget, so peers that stopped reading cannot hang
    /// `Drop` for longer than one deadline; once it is spent, a FIN that
    /// does not fit its socket at once is skipped. Safe to call more
    /// than once; also runs on drop.
    pub fn shutdown_links(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        let fin = frame::encode_fin();
        let end = Instant::now() + self.deadline;
        let io = self.io.get_mut();
        for peer in 0..io.links.len() {
            let left = end.saturating_duration_since(Instant::now());
            if io.links[peer].is_some() && io.write_frame(peer, &fin, left, &self.health).is_ok() {
                if let Some(link) = &io.links[peer] {
                    let _ = link.stream.shutdown(Shutdown::Write);
                }
            }
        }
        io.pump(&self.health, Duration::ZERO, None);
    }
}

impl Io {
    /// Polls every link still being read (plus `writer` for POLLOUT) for
    /// up to `wait`, reads every readable link, and decodes its whole
    /// frames into the inbox. A writable (or failed) `writer` only ends
    /// the wait: the caller's next write reports which.
    fn pump(&mut self, health: &PeerHealth, wait: Duration, writer: Option<usize>) {
        self.fds.clear();
        self.polled.clear();
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link else { continue };
            let mut events = if link.reading { sys::POLLIN } else { 0 };
            if writer == Some(peer) {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                self.fds.push(sys::PollFd {
                    fd: link.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                self.polled.push(peer);
            }
        }
        if poll(&mut self.fds, wait) == 0 {
            return;
        }
        for (fd, &peer) in self.fds.iter().zip(&self.polled) {
            let readable = fd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0;
            if let Some(link) = self.links[peer].as_mut().filter(|l| l.reading && readable) {
                link.read_ready(peer, &mut self.inbox, health);
            }
        }
    }

    /// Writes one encoded frame to `to`, draining inbound links while
    /// its socket is full. On deadline expiry the link closes: its stream
    /// holds a partial frame that no later frame could follow.
    fn write_frame(
        &mut self,
        to: usize,
        bytes: &[u8],
        deadline: Duration,
        health: &PeerHealth,
    ) -> parallax_comm::Result<()> {
        let end = Instant::now() + deadline;
        let mut sent = 0;
        loop {
            let Some(link) = self.links[to].as_mut() else {
                return Err(CommError::Disconnected { peer: to });
            };
            match link.stream.write(&bytes[sent..]) {
                Ok(n) => {
                    sent += n;
                    if sent == bytes.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= end {
                        self.links[to] = None;
                        return Err(CommError::PeerTimeout {
                            peer: to,
                            waited_ms: deadline.as_millis() as u64,
                        });
                    }
                    self.pump(health, end - now, Some(to));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(CommError::Disconnected { peer: to }),
            }
        }
    }
}

impl Link {
    /// Reads a readable link until the read would block (or comes up
    /// short, which level-triggered polling makes equivalent), decoding
    /// every whole frame into `inbox` in arrival order. FIN, EOF, a frame
    /// error, or a read error ends the link's read side and marks the
    /// peer dead.
    fn read_ready(&mut self, peer: usize, inbox: &mut VecDeque<Envelope>, health: &PeerHealth) {
        let ended = loop {
            let spare = match self.frames.spare() {
                Ok(spare) => spare,
                Err(e) => break Some(Err(e)),
            };
            let room = spare.len();
            match self.stream.read(spare) {
                // EOF: clean between frames (a crash without FIN),
                // truncated inside one.
                Ok(0) => break Some(self.frames.finish()),
                Ok(n) => {
                    self.frames.filled(n);
                    if let Some(end) = self.decode(peer, inbox) {
                        break Some(end);
                    }
                    if n < room {
                        break None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    if e.kind() != ErrorKind::ConnectionReset {
                        eprintln!("[parallax-net] read from {peer} failed: {e}");
                    }
                    break Some(Ok(()));
                }
            }
        };
        if let Some(end) = ended {
            if let Err(e) = end {
                eprintln!("[parallax-net] bad frame from {peer}: {e}");
            }
            self.reading = false;
            health.mark_dead(peer);
        }
    }

    /// Moves every whole buffered frame into `inbox`; `Some` once the
    /// stream has ended (FIN, or a frame error).
    fn decode(
        &mut self,
        peer: usize,
        inbox: &mut VecDeque<Envelope>,
    ) -> Option<std::result::Result<(), crate::FrameError>> {
        loop {
            match self.frames.next_frame() {
                Ok(Some(Frame::Msg { tag, payload })) => inbox.push_back(Envelope {
                    from: peer,
                    tag,
                    payload,
                }),
                // The peer is done (the in-process analog is its
                // endpoint's Drop); nothing after FIN is read.
                Ok(Some(Frame::Fin)) => return Some(Ok(())),
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, to: usize, tag: u64, payload: Payload) -> parallax_comm::Result<()> {
        let mut io = self.io.borrow_mut();
        if to >= io.links.len() {
            return Err(CommError::UnknownRank(to));
        }
        if to == self.rank {
            io.inbox.push_back(Envelope {
                from: self.rank,
                tag,
                payload,
            });
            return Ok(());
        }
        let bytes = frame::encode_msg(tag, &payload);
        io.write_frame(to, &bytes, self.deadline, &self.health)
    }

    fn recv(&mut self, timeout: Duration) -> std::result::Result<Envelope, RecvError> {
        let io = self.io.get_mut();
        let end = Instant::now() + timeout;
        loop {
            if let Some(env) = io.inbox.pop_front() {
                return Ok(env);
            }
            // At least one poll, so `recv(Duration::ZERO)` is a
            // nonblocking drain of whatever already arrived.
            io.pump(
                &self.health,
                end.saturating_duration_since(Instant::now()),
                None,
            );
            if io.inbox.is_empty() && Instant::now() >= end {
                return Err(RecvError::Timeout);
            }
        }
    }

    fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    fn shutdown(&mut self) {
        self.shutdown_links();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown_links();
    }
}

/// Waits up to `wait` (rounded up to whole milliseconds) for any entry
/// of `fds` to become ready, returning how many are; an interrupted or
/// failed poll counts as none ready.
fn poll(fds: &mut [sys::PollFd], wait: Duration) -> usize {
    let ms = wait.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // records whose length is passed alongside it; the kernel writes
    // only their `revents` fields and keeps no pointer past the call.
    let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
    usize::try_from(ready).unwrap_or(0)
}

mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    // std already links libc on unix; declaring the one call we need
    // avoids a vendored libc crate, as `core::snapshot` does for mmap.
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::free_local_ports;

    fn mesh(n: usize) -> Vec<TcpTransport> {
        let ports = free_local_ports(n).unwrap();
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let health: Vec<_> = (0..n).map(|_| Arc::new(PeerHealth::default())).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let addrs = addrs.clone();
                    let health = Arc::clone(&health[rank]);
                    s.spawn(move || {
                        TcpTransport::connect_mesh(&TcpConfig::new(rank, addrs), health).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn three_rank_mesh_exchanges_payloads() {
        let mut ts = mesh(3);
        ts[0].send(2, 7, Payload::Control(11)).unwrap();
        ts[1]
            .send(2, 7, Payload::Floats(Arc::new(vec![1.0, 2.0])))
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let env = ts[2].recv(Duration::from_secs(5)).unwrap();
            got.push((env.from, env.tag, env.payload.byte_size()));
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 7, 8), (1, 7, 8)]);
    }

    #[test]
    fn per_link_order_is_preserved() {
        let mut ts = mesh(2);
        for i in 0..32u64 {
            ts[0].send(1, 9, Payload::Control(i)).unwrap();
        }
        for i in 0..32u64 {
            let env = ts[1].recv(Duration::from_secs(5)).unwrap();
            assert_eq!(env.payload.into_control().unwrap(), i);
        }
    }

    #[test]
    fn fin_marks_peer_dead_and_recv_times_out() {
        let ports = free_local_ports(2).unwrap();
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let h0 = Arc::new(PeerHealth::default());
        let h1 = Arc::new(PeerHealth::default());
        let (t0, mut t1) = std::thread::scope(|s| {
            let a = addrs.clone();
            let h = Arc::clone(&h0);
            let j0 = s.spawn(move || TcpTransport::connect_mesh(&TcpConfig::new(0, a), h).unwrap());
            let a = addrs.clone();
            let h = Arc::clone(&h1);
            let j1 = s.spawn(move || TcpTransport::connect_mesh(&TcpConfig::new(1, a), h).unwrap());
            (j0.join().unwrap(), j1.join().unwrap())
        });
        drop(t0); // graceful: sends FIN
        assert!(!h1.is_dead(0), "nothing reads on rank 1's behalf");
        // Rank 1 sees the FIN when it next drives its transport: the
        // receive times out, and the peer is marked dead by then.
        assert!(matches!(
            t1.recv(Duration::from_millis(50)),
            Err(RecvError::Timeout)
        ));
        assert!(h1.is_dead(0), "FIN should mark peer 0 dead");
    }

    #[test]
    fn shutdown_shares_one_deadline_across_stalled_peers() {
        let mut ts = mesh(4);
        let deadline = Duration::from_millis(300);
        ts[0].set_deadline(deadline);
        // Fill rank 0's socket to every peer: none of them reads, so
        // each FIN write would block for a whole deadline on its own.
        // Loopback keeps taking bytes for a while after a refused write
        // (the peer compacts its queue and reopens its window), and a
        // small write can fit where a large one was refused, so every
        // link gets shrinking writes until a whole pass, after a pause
        // longer than that reopening takes, adds nothing.
        let junk = vec![0u8; 64 * 1024];
        let mut links: Vec<&mut Link> = ts[0].io.get_mut().links.iter_mut().flatten().collect();
        loop {
            let mut wrote = false;
            for link in links.iter_mut() {
                for size in [64 * 1024, 1024, 1] {
                    while link.stream.write(&junk[..size]).is_ok() {
                        wrote = true;
                    }
                }
            }
            if !wrote {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
        let start = Instant::now();
        ts[0].shutdown_links();
        let took = start.elapsed();
        assert!(
            took < deadline + Duration::from_millis(250),
            "three stalled peers held shutdown for {took:?}"
        );
    }

    #[test]
    fn connect_retry_exhausts_with_typed_error() {
        // A port nothing listens on: grab one and drop the listener.
        let port = free_local_ports(1).unwrap()[0];
        let err = connect_with_retry(&format!("127.0.0.1:{port}"), 3, Duration::from_millis(1))
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::ConnectExhausted { attempts: 3, .. }
        ));
    }

    #[test]
    fn endpoint_over_tcp_matches_channel_semantics() {
        use parallax_comm::{Endpoint, Topology, TrafficStats};
        let ports = free_local_ports(2).unwrap();
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let topo = Topology::uniform(2, 1).unwrap();
        let build = |rank: usize, addrs: Vec<String>| {
            let health = Arc::new(PeerHealth::default());
            let t = TcpTransport::connect_mesh(&TcpConfig::new(rank, addrs), Arc::clone(&health))
                .unwrap();
            let traffic = TrafficStats::new(2);
            Endpoint::from_transport(
                Topology::uniform(2, 1).unwrap(),
                rank,
                Box::new(t),
                traffic,
                health,
                None,
            )
            .unwrap()
        };
        let _ = topo;
        std::thread::scope(|s| {
            let a0 = addrs.clone();
            let h = s.spawn(move || {
                let e0 = build(0, a0);
                e0.send(1, 7, Payload::Floats(Arc::new(vec![1.0, 2.0, 3.0])))
                    .unwrap();
                // Sender-side accounting: rank 0 charges its own send.
                assert_eq!(e0.traffic().snapshot().out_bytes[0], 12);
            });
            let mut e1 = build(1, addrs.clone());
            let got = e1.recv(0, 7).unwrap().into_floats().unwrap();
            assert_eq!(got, vec![1.0, 2.0, 3.0]);
            // Receiver-side ledger never charges: accounting is
            // sender-side only, so per-process snapshots merge disjointly.
            assert_eq!(e1.traffic().snapshot().out_bytes[1], 0);
            h.join().unwrap();
        });
    }
}
