#![warn(missing_docs)]

//! Cluster substrate: hardware cost models and the iteration-time
//! simulator. Which machines and GPUs a job runs on is the
//! `gpus_per_machine` list `get_runner` takes, or a CLUSTER.json
//! (`parallax_net::ClusterSpec`) for a multi-process fleet.
//!
//! The paper's evaluation ran on 8 machines with 6 TITAN Xp GPUs each over
//! 100 Gbps InfiniBand. This crate substitutes that testbed: worker
//! threads provide *semantics* (real tensors, real protocols, measured
//! bytes), and the models here provide *timing* — GPU compute time from a
//! FLOP estimate, CPU-side sparse-aggregation time with its
//! partition-parallelism/stitch-overhead trade-off (the mechanism behind
//! the paper's Eq. 1 convexity), and network time from measured traffic
//! with per-transport efficiency (NCCL vs MPI vs gRPC).

pub mod costmodel;
pub mod des;
pub mod hardware;
pub mod sim;

pub use costmodel::{CalibrationProfile, SparseOpCost};
pub use des::{fifo_replay, simulate, DesMessage, DesResult, QueueStats};
pub use hardware::{ClusterModel, CpuModel, GpuModel, MachineScales, NetworkModel, Transport};
pub use sim::{IterationSim, Phase, PsQueueModel};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, SpecError>;

/// Errors from simulation configuration and calibration decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The specification is structurally invalid.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}
