#![warn(missing_docs)]

//! A miniature dataflow deep-learning engine (the TensorFlow substitute).
//!
//! Parallax is a *graph transformation* framework: it consumes a
//! single-GPU computation graph and rewrites it for distributed execution.
//! This crate provides that substrate: a [`graph::Graph`] of typed
//! operations, reverse-mode automatic differentiation that yields dense
//! gradients for ordinary variables and sparse [`parallax_tensor::IndexedSlices`]
//! gradients for variables accessed through `Gather` (exactly how
//! TensorFlow decides sparsity, Section 5 of the paper), an executor with
//! a pluggable [`varstore::VarProvider`] so parameter values may live
//! locally (AllReduce replicas) or behind a Parameter Server, and SGD-family
//! optimizers.

pub mod builder;
pub mod error;
pub mod exec;
pub mod grad;
pub mod graph;
pub mod optimizer;
pub mod value;
pub mod varstore;
pub mod verify;

pub use error::DataflowError;
pub use exec::{Activations, Session};
pub use graph::{Graph, NodeId, Op, PhId, VarId, VariableDef};
pub use optimizer::{Optimizer, Sgd};
pub use value::{Feed, Value};
pub use varstore::{VarProvider, VarStore};
pub use verify::{verify_graph, DiagCode, Diagnostic, Severity, VerifyReport};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, DataflowError>;
