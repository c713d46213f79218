#![warn(missing_docs)]

//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each experiment is a plain function returning structured rows, which
//! the `repro` binary prints as tables. Throughput numbers come from the
//! analytic engine at paper scale (8 machines x 6 GPUs, calibrated
//! hardware model); convergence and traffic-verification experiments
//! execute real training at reduced scale through the full distributed
//! runtime, on the tiny lm/nmt job that [`job`] builds for every gate.

pub mod chaos;
pub mod check;
pub mod compress;
pub mod dist;
pub mod experiments;
pub mod job;
pub mod kernels;
pub mod plan;
pub mod protocheck;
pub mod report;
pub mod serve;
pub mod straggler;
pub mod trace;

pub use experiments::Framework;
