#![warn(missing_docs)]

//! Real multi-process socket transport behind the Parallax router.
//!
//! The in-process reproduction runs every worker and server as a
//! thread over in-memory channels. This crate implements the same
//! [`parallax_comm::Transport`] seam over OS processes and TCP
//! sockets, so the *identical* planner / ledger / trace / fault stack
//! runs across a genuine distribution boundary:
//!
//! * [`frame`] — length-prefixed, CRC-checked framing that carries the
//!   existing `comm::wire` payload encodings unchanged (f16/bf16 words
//!   and varint-packed sparse indices travel byte-for-byte as
//!   accounted), with typed decode errors and capped allocations for
//!   untrusted input, decoded in place as a link's bytes arrive.
//! * [`tcp`] — the mesh: one verified full-duplex connection per rank
//!   pair, bounded connect retry with exponential backoff, and no
//!   threads of its own: the owning rank thread `poll(2)`s its
//!   nonblocking links and decodes frames in place into a local inbox,
//!   keeps draining inbound links while a send waits on a full socket,
//!   and gives up on a peer that stops reading at the endpoint's one
//!   deadline. FIN-based graceful shutdown and peer-death reporting go
//!   through the shared `PeerHealth` registry.
//! * [`spec`] — static `CLUSTER.json` cluster descriptions and the
//!   `chief`/`worker`/`server` role vocabulary of `repro dist`.
//! * [`launcher`] — chief-side local process fleets for test
//!   topologies: spawn, deadline-bounded wait, no orphans.
//!
//! Equivalence guarantee: with the same seed and spec, a socket run
//! and an in-process run produce bitwise-identical losses and weights
//! and byte-identical per-link traffic, because payload bytes (and
//! [`parallax_comm::Payload::byte_size`]) are preserved exactly and
//! all ordering-sensitive aggregation is canonicalized above the
//! transport. `repro dist-check` asserts this end-to-end.

pub mod error;
pub mod frame;
pub mod launcher;
pub mod spec;
pub mod tcp;

pub use error::{FrameError, NetError, Result};
pub use frame::{decode_frame, encode_fin, encode_msg, Frame, MAX_FRAME_BODY};
pub use launcher::{free_local_ports, Fleet, FleetOutcome};
pub use spec::{ClusterSpec, Role};
pub use tcp::{TcpConfig, TcpTransport};
