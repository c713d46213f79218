#![warn(missing_docs)]

//! Parallax: sparsity-aware data parallel training (EuroSys '19).
//!
//! The paper's contribution, reproduced on the substrates in the sibling
//! crates:
//!
//! * [`sparsity`] — classify variables dense/sparse from graph usage and
//!   estimate each sparse variable's access ratio `alpha` by sampling
//!   batches (Section 2.2).
//! * [`transfer`] — the closed-form per-machine network-transfer
//!   expressions of Table 3, plus their generalization to multi-GPU
//!   machines used by the analytic throughput engine.
//! * [`hybrid`] — the hybrid architecture decision: AllReduce for dense
//!   variables, Parameter Server for sparse ones, with the
//!   `alpha ~ 1` escape hatch back to AllReduce (Section 3.1).
//! * [`partition`] — the sparse-variable partition search: sample
//!   iteration times while doubling/halving `P`, fit
//!   `t = th0 + th1/P + th2*P`, pick the predicted optimum (Section 3.2).
//! * [`transform`] — automatic graph transformation: a single-GPU graph
//!   plus resources in, a distributed execution plan out (Section 4.3),
//!   with [`transform::DistributedPlan::exchange`], the one rule for how
//!   each variable's gradient is aggregated.
//! * [`plancheck`] — the static plan verifier: cross-checks a
//!   [`transform::DistributedPlan`] against a re-derivation of the
//!   hybrid decision, the partition tiling invariants and gradient
//!   reachability, and statically predicts one iteration's
//!   per-class traffic by charging the session machine's events into a
//!   [`parallax_comm::StaticLedger`] — all before any thread spawns.
//! * [`strategy`] — the placement-strategy abstraction: five fixed
//!   recipes (pure AR, pure PS, load-balanced PS, partitioned PS, the
//!   Parallax hybrid) that each plan a verified placement for a graph
//!   on a topology, plus the searched-strategy wrapper.
//! * [`strategize`] — the deterministic greedy/local-search planner:
//!   scores candidate per-variable assignments with the static traffic
//!   replay and an (optionally trace-calibrated) `IterationSim`
//!   timing model, returns the argmin plan and a machine-readable
//!   search report (`repro plan`).
//! * [`runner`] — the `shard` / `get_runner` user API (Figure 3) and the
//!   executed-mode distributed training loop over worker threads and
//!   per-machine servers.
//! * [`analytic`] — paper-scale workload descriptions driven through the
//!   same transfer formulas and the cluster cost model to produce
//!   throughput for every evaluation table and figure.

pub mod analytic;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod hybrid;
pub mod partition;
pub mod plancheck;
pub mod protocheck;
pub mod runner;
pub mod snapshot;
pub mod sparsity;
pub mod strategize;
pub mod strategy;
pub mod transfer;
pub mod transform;

pub use config::{ArchChoice, ConfigWarning, OptimizerKind, ParallaxConfig};
pub use error::CoreError;
pub use plancheck::{check_plan, predict_iteration_traffic};
pub use protocheck::{check_fault_plan, check_session, derive_session};
pub use runner::{
    get_runner, get_runner_with_plan, mean_worker_losses, shard_range, RestorePoint,
    RoleAssignment, RoleOutput, RunReport, Runner,
};
pub use strategize::{plan_search, SearchReport};
pub use strategy::{fixed_strategies, Strategy, StrategyPlan};
pub use transform::{DistributedPlan, Exchange};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CoreError>;
