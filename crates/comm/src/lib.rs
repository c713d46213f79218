#![warn(missing_docs)]

//! Communication substrate: transport, traffic accounting, collectives.
//!
//! Stands in for NCCL + OpenMPI + gRPC in the original Parallax stack.
//! Workers are threads; machines are groups of workers; every message
//! between workers on *different* machines is charged to a shared
//! [`traffic::TrafficStats`], giving byte-accurate measurements of the
//! quantity the paper's entire analysis (Table 3) is about: network
//! transfer per machine per iteration.
//!
//! Collectives are implemented the way the paper assumes: ring
//! AllReduce (reduce-scatter + allgather, `2(N-1)` steps, each moving
//! `w/N` bytes per worker — Section 3.1) and ring AllGatherv (`N-1`
//! steps, each moving the full local contribution).

pub mod checksum;
pub mod collectives;
pub mod error;
pub mod predict;
pub mod protocheck;
pub mod topology;
pub mod traffic;
pub mod transport;
pub mod wire;

pub use checksum::crc32;
pub use error::CommError;
pub use predict::StaticLedger;
pub use protocheck::{SessionSpec, SessionValidator};
pub use topology::{Topology, WorkerId};
pub use traffic::{TrafficClass, TrafficSnapshot, TrafficStats};
pub use transport::{
    ChannelTransport, Endpoint, Envelope, Payload, PeerHealth, RecvError, Router, Transport,
    DEFAULT_RECV_DEADLINE,
};
pub use wire::{PackedSlices, WireFormat};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CommError>;
