//! Socket faults against the TCP transport, driven by raw `TcpStream`
//! peers that speak the `PLXNET1` handshake and then misbehave: stop
//! reading, reset mid-frame, go silent, or dribble a frame one byte at
//! a time. Every failure must surface as a typed error within the
//! endpoint's deadline, never as a hang, so each test body runs under a
//! harness timeout that fails it instead.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_comm::{
    CommError, Endpoint, Payload, PeerHealth, RecvError, Topology, TrafficStats, Transport,
};
use parallax_net::{encode_msg, free_local_ports, TcpConfig, TcpTransport};

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `limit` (a hung transport call must fail, not hang
/// the suite).
fn bounded(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => {}
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
    }
}

fn loopback_addrs(n: usize) -> Vec<String> {
    free_local_ports(n)
        .unwrap()
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect()
}

/// Rank 0 as a real transport, rank 1 as a raw socket that has
/// completed the handshake and does nothing on its own.
fn transport_and_raw_peer() -> (TcpTransport, TcpStream, Arc<PeerHealth>) {
    let addrs = loopback_addrs(2);
    let health = Arc::new(PeerHealth::default());
    let (a, h) = (addrs.clone(), Arc::clone(&health));
    let rank0 =
        std::thread::spawn(move || TcpTransport::connect_mesh(&TcpConfig::new(0, a), h).unwrap());
    // Rank 1 dials rank 0, retrying until its listener is bound.
    let mut peer = (0..400)
        .find_map(|_| {
            TcpStream::connect(&addrs[0])
                .map_err(|_| std::thread::sleep(Duration::from_millis(5)))
                .ok()
        })
        .expect("rank 0 never listened");
    let mut hello = b"PLXNET1\n".to_vec();
    hello.extend(1u32.to_le_bytes());
    hello.extend(0u32.to_le_bytes());
    peer.write_all(&hello).unwrap();
    let mut reply = [0u8; 16];
    peer.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[..8], b"PLXNET1\n");
    assert_eq!(reply[8..], [0, 0, 0, 0, 1, 0, 0, 0]);
    peer.set_nodelay(true).unwrap();
    (rank0.join().unwrap(), peer, health)
}

/// An endpoint for rank 0 of a 2-rank topology over `transport`.
fn endpoint(transport: TcpTransport, health: Arc<PeerHealth>, deadline: Duration) -> Endpoint {
    let mut e = Endpoint::from_transport(
        Topology::uniform(2, 1).unwrap(),
        0,
        Box::new(transport),
        TrafficStats::new(2),
        health,
        None,
    )
    .unwrap();
    e.set_recv_deadline(deadline);
    e
}

#[test]
fn send_to_a_peer_that_stops_reading_times_out() {
    bounded(Duration::from_secs(60), || {
        let (t, _peer, health) = transport_and_raw_peer();
        let deadline = Duration::from_millis(300);
        let e = endpoint(t, health, deadline);
        let payload = Payload::Floats(Arc::new(vec![0.5; 256 * 1024]));
        // 1 MiB per send: the peer never reads, so its receive buffer
        // and our send buffer fill within a few sends.
        let mut timed_out = false;
        for tag in 0..64 {
            let started = Instant::now();
            match e.send(1, tag, payload.clone()) {
                Ok(()) => continue,
                Err(CommError::PeerTimeout { peer: 1, waited_ms }) => {
                    assert_eq!(waited_ms, 300);
                    let took = started.elapsed();
                    assert!(took < deadline + Duration::from_secs(1), "took {took:?}");
                    timed_out = true;
                    break;
                }
                Err(other) => panic!("expected PeerTimeout, got {other:?}"),
            }
        }
        assert!(timed_out, "64 MiB went to a peer that never reads");
        // The link held a partial frame, so it closed.
        assert_eq!(
            e.send(1, 99, Payload::Control(1)),
            Err(CommError::Disconnected { peer: 1 })
        );
    });
}

#[test]
fn reset_mid_frame_delivers_nothing_and_marks_the_peer_dead() {
    bounded(Duration::from_secs(30), || {
        let (t, mut peer, health) = transport_and_raw_peer();
        let mut e = endpoint(t, Arc::clone(&health), Duration::from_millis(300));
        // Unread bytes in the peer's receive buffer make its close an RST.
        e.send(1, 3, Payload::Control(7)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let frame = encode_msg(5, &Payload::Floats(Arc::new(vec![1.0; 64])));
        peer.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(peer);
        assert_eq!(e.recv(1, 5).err(), Some(CommError::PeerDead { peer: 1 }));
        assert!(health.is_dead(1));
    });
}

#[test]
fn silent_peer_times_out_then_reads_dead_once_it_closes() {
    bounded(Duration::from_secs(30), || {
        let (t, peer, health) = transport_and_raw_peer();
        let mut e = endpoint(t, health, Duration::from_millis(300));
        let started = Instant::now();
        assert_eq!(
            e.recv(1, 5).err(),
            Some(CommError::PeerTimeout {
                peer: 1,
                waited_ms: 300
            })
        );
        assert!(started.elapsed() >= Duration::from_millis(300));
        drop(peer);
        assert_eq!(e.recv(1, 5).err(), Some(CommError::PeerDead { peer: 1 }));
    });
}

#[test]
fn simultaneous_sends_larger_than_socket_buffers_both_complete() {
    bounded(Duration::from_secs(120), || {
        let addrs = loopback_addrs(2);
        const FLOATS: usize = 4 * 1024 * 1024; // 16 MiB
        let ranks: Vec<_> = (0..2usize)
            .map(|rank| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    let health = Arc::new(PeerHealth::default());
                    let mut t =
                        TcpTransport::connect_mesh(&TcpConfig::new(rank, addrs), health).unwrap();
                    t.set_deadline(Duration::from_secs(60));
                    let mine: Vec<f32> = (0..FLOATS).map(|i| (i * (rank + 1)) as f32).collect();
                    t.send(1 - rank, 7, Payload::Floats(Arc::new(mine)))
                        .unwrap();
                    let env = t.recv(Duration::from_secs(60)).unwrap();
                    assert_eq!((env.from, env.tag), (1 - rank, 7));
                    let theirs = env.payload.into_floats().unwrap();
                    assert_eq!(theirs.len(), FLOATS);
                    let exact = theirs
                        .iter()
                        .enumerate()
                        .all(|(i, x)| x.to_bits() == ((i * (2 - rank)) as f32).to_bits());
                    assert!(exact, "rank {rank} received different bits");
                    // Both sides finish before either link closes.
                    t
                })
            })
            .collect();
        let transports: Vec<TcpTransport> = ranks.into_iter().map(|h| h.join().unwrap()).collect();
        drop(transports);
    });
}

#[test]
fn frame_written_one_byte_at_a_time_is_decoded_once_when_whole() {
    bounded(Duration::from_secs(60), || {
        let (mut t, mut peer, _health) = transport_and_raw_peer();
        let frame = encode_msg(9, &Payload::Control(42));
        let (last, head) = frame.split_last().unwrap();
        for byte in head {
            peer.write_all(std::slice::from_ref(byte)).unwrap();
            assert_eq!(
                t.recv(Duration::from_millis(2)).map(|env| env.tag),
                Err(RecvError::Timeout)
            );
        }
        peer.write_all(std::slice::from_ref(last)).unwrap();
        let env = t.recv(Duration::from_secs(5)).unwrap();
        assert_eq!((env.from, env.tag), (1, 9));
        assert_eq!(env.payload.into_control().unwrap(), 42);
        assert_eq!(
            t.recv(Duration::from_millis(50)).map(|env| env.tag),
            Err(RecvError::Timeout)
        );
    });
}
