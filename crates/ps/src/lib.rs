#![warn(missing_docs)]

//! Parameter Server architecture.
//!
//! Implements the PS half of Parallax's hybrid design (Sections 3-5):
//! one server process per machine holding variable shards, workers
//! pulling values and pushing gradients, gradient accumulators on
//! servers, optional per-machine *local aggregation* with a local chief
//! worker, chief-triggered updates with shared-queue-style notification,
//! and partitioned sparse variables with balanced placement.
//!
//! The crate provides both the paper's baselines and its optimized PS:
//!
//! * **NaivePS** (the TF-PS baseline): every variable lives on servers,
//!   round-robin placement, every worker pushes its own gradients.
//! * **OptPS**: local aggregation (one push per machine for a sparse
//!   variable), byte-balanced greedy placement, aggregation and update
//!   ops colocated with the variable's server.

pub mod accumulator;
pub mod client;
pub mod error;
pub mod placement;
pub mod plan;
pub mod server;
pub mod topology;

pub use client::{locally_aggregate, PsClient, PsWorkerContext};
pub use error::PsError;
pub use placement::PlacementStrategy;
pub use plan::{RowPartition, ShardingPlan, VarPlacement};
pub use server::{Server, ServerConfig};
pub use topology::PsTopology;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, PsError>;
