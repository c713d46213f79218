#![warn(missing_docs)]

//! Parallax reproduction — umbrella crate.
//!
//! Re-exports the whole stack under one name so examples and downstream
//! users can depend on a single crate:
//!
//! * [`tensor`] — dense tensors and sparse `IndexedSlices`.
//! * [`dataflow`] — the graph engine with reverse-mode autodiff.
//! * [`comm`] — transport, traffic accounting, ring collectives.
//! * [`cluster`] — the hardware/iteration-time model.
//! * [`ps`] — the Parameter Server architecture.
//! * [`core`] — Parallax itself: sparsity analysis, hybrid decision,
//!   partition search, graph transformation, the distributed runner.
//! * [`models`] — LM / NMT / ResNet-like / Inception-like models and
//!   synthetic datasets.
//! * [`trace`] — the observability subsystem: spans, counters, and
//!   Chrome-trace/breakdown exporters threaded through the whole stack.
//! * [`fault`] — deterministic fault injection (kill / drop / delay /
//!   duplicate / stall plans evaluated inside the transport and the
//!   runner's worker and server loops).
//! * [`serve`] — snapshot-consistent inference: the trainer publishes
//!   immutable post-barrier weight snapshots, and a batched serving
//!   engine answers requests from them via zero-copy mmap views.
//!
//! # Quickstart
//!
//! ```
//! use parallax_repro::core::sparsity::estimate_profile;
//! use parallax_repro::core::{get_runner, shard_range, ParallaxConfig};
//! use parallax_repro::dataflow::graph::{Init, Op, PhKind};
//! use parallax_repro::dataflow::{Feed, Graph, VariableDef};
//!
//! // A single-GPU graph: embedding -> logits -> loss.
//! let mut g = Graph::new();
//! let emb = g.variable(VariableDef::new("emb", [100, 8], Init::Normal(0.1))).unwrap();
//! let ids = g.placeholder("ids", PhKind::Ids).unwrap();
//! let labels = g.placeholder("labels", PhKind::Ids).unwrap();
//! let x = g.add(Op::Gather { table: emb, ids }).unwrap();
//! let loss = g.add(Op::SoftmaxXent { logits: x, labels }).unwrap();
//!
//! // Profile sparsity from a sample batch, then transform + run on a
//! // simulated 2-machine x 2-GPU cluster.
//! let sample = Feed::new().with("ids", vec![1usize, 5]).with("labels", vec![0usize, 3]);
//! let profile = estimate_profile(&g, &[sample], 0).unwrap();
//! let runner = get_runner(g, loss, vec![2, 2], ParallaxConfig::default(), profile).unwrap();
//! let report = runner
//!     .run(2, |worker, _iter| {
//!         let r = shard_range(8, 4, worker);
//!         Feed::new()
//!             .with("ids", (r.start..r.end).map(|i| i * 7 % 100).collect::<Vec<_>>())
//!             .with("labels", (r.start..r.end).map(|i| i % 8).collect::<Vec<_>>())
//!     })
//!     .unwrap();
//! assert_eq!(report.losses.len(), 2);
//! ```

pub use parallax_cluster as cluster;
pub use parallax_comm as comm;
pub use parallax_core as core;
pub use parallax_dataflow as dataflow;
pub use parallax_fault as fault;
pub use parallax_models as models;
pub use parallax_ps as ps;
pub use parallax_serve as serve;
pub use parallax_tensor as tensor;
pub use parallax_trace as trace;
