//! Automatic graph transformation (Section 4.3).
//!
//! Consumes a single-GPU graph, a sparsity profile and a configuration;
//! produces a [`DistributedPlan`]: per-variable synchronization
//! decisions and the sharding plan. [`DistributedPlan::exchange`] is the
//! one rule that says how each variable's gradient is aggregated: ring
//! AllReduce for a dense variable (Figure 4; one fused collective for
//! all of them, [`DistributedPlan::ring_bucket`]), AllGatherv for a
//! sparse one under pure AllReduce, or a Parameter Server push, locally
//! aggregated per machine for a sparse shard (Figure 5), composed per
//! variable kind for the hybrid architecture (Figure 6). The runner's
//! workers, the session machine and the traffic predictor all ask it.
//! Aggregation and update run on each shard's own server. Main
//! computation (Model/Grads) is replicated once per GPU in every
//! architecture.

use parallax_dataflow::{Graph, VarId};
use parallax_ps::placement::{build_plan, SyncDecision};
use parallax_ps::ShardingPlan;

use crate::config::{ArchChoice, ParallaxConfig};
use crate::hybrid;
use crate::sparsity::SparsityProfile;
use crate::Result;

/// How one variable's gradient leaves a worker each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// Ring AllReduce across all replicas, in the plan's one fused
    /// bucket ([`DistributedPlan::ring_bucket`]); a sparse gradient
    /// densifies first (the hybrid alpha rule's near-dense variables).
    Ring,
    /// AllGatherv of the sparse gradient across all replicas (pure-AR).
    Gatherv,
    /// Every worker pushes its own gradient to the variable's shards.
    Push,
    /// The workers of each machine gather their sparse gradients to the
    /// machine's local chief (`LocalAggN`), which pushes the coalesced
    /// aggregate.
    LocalAggPush,
}

/// The output of graph transformation: everything the runner needs to
/// execute the (conceptually rewritten) graph on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPlan {
    /// Per-variable synchronization decisions.
    pub decisions: Vec<SyncDecision>,
    /// Shard placement.
    pub plan: ShardingPlan,
    /// The sparse partition count in force.
    pub partitions: usize,
    /// Replicas of the main computation (one per GPU).
    pub replicas: usize,
}

impl DistributedPlan {
    /// True when the plan requires server processes.
    pub fn needs_servers(&self) -> bool {
        self.plan.needs_servers()
    }

    /// Variables synchronized by AllReduce/AllGatherv.
    pub fn ar_vars(&self) -> Vec<VarId> {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, SyncDecision::AllReduce))
            .map(|(i, _)| VarId::from_index(i))
            .collect()
    }

    /// Variables synchronized through the Parameter Server.
    pub fn ps_vars(&self) -> Vec<VarId> {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| !matches!(d, SyncDecision::AllReduce))
            .map(|(i, _)| VarId::from_index(i))
            .collect()
    }

    /// How `var`'s gradient is exchanged under `config`. A sparse
    /// AllReduce variable rides AllGatherv only under pure AllReduce.
    /// Local aggregation is sparse-only and synchronous: a dense machine
    /// pre-sum would fold in the wrong association for the server's
    /// ring-ordered accumulator, and asynchronous pushes wait for no
    /// peer. Panics if `var` is not one of the plan's variables.
    pub fn exchange(&self, graph: &Graph, config: &ParallaxConfig, var: VarId) -> Exchange {
        let sparse = graph.is_sparse_variable(var);
        match self.decisions[var.index()] {
            SyncDecision::AllReduce if sparse && config.arch == ArchChoice::ArOnly => {
                Exchange::Gatherv
            }
            SyncDecision::AllReduce => Exchange::Ring,
            _ if sparse && config.local_aggregation && config.synchronous => Exchange::LocalAggPush,
            _ => Exchange::Push,
        }
    }

    /// The one ring AllReduce bucket: every [`Exchange::Ring`] variable,
    /// in index order. Each step the runner reduces all of their
    /// gradients in a single fused collective tagged
    /// `tag::allreduce_tag(first, iter)` for the bucket's first variable;
    /// the session machine and the traffic fold read the same list.
    pub fn ring_bucket(&self, graph: &Graph, config: &ParallaxConfig) -> Vec<VarId> {
        self.ar_vars()
            .into_iter()
            .filter(|&var| self.exchange(graph, config, var) == Exchange::Ring)
            .collect()
    }
}

/// Transforms a single-GPU graph into a distributed plan.
///
/// `machines`/`gpus_total` describe the resources; `partitions` is the
/// sparse partition count (from the search or the config).
pub fn transform(
    graph: &Graph,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    machines: usize,
    gpus_total: usize,
    partitions: usize,
) -> Result<DistributedPlan> {
    let decisions = hybrid::decide(graph, profile, config, partitions)?;
    let plan =
        build_plan(graph, &decisions, machines, config.placement).map_err(crate::CoreError::Ps)?;
    Ok(DistributedPlan {
        decisions,
        plan,
        partitions,
        replicas: gpus_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::profile_from_parts;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::VariableDef;
    use parallax_ps::VarPlacement;

    fn sparse_model() -> (Graph, SparsityProfile) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [64, 8], Init::Glorot))
            .unwrap();
        let _w = g
            .variable(VariableDef::new("w", [8, 8], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Gather { table: emb, ids }).unwrap();
        let profile = profile_from_parts(vec![
            (VarId::from_index(0), true, 0.1, 64, 512),
            (VarId::from_index(1), false, 1.0, 8, 64),
        ]);
        let _ = emb;
        (g, profile)
    }

    #[test]
    fn hybrid_transform_composes_figure6() {
        let (g, profile) = sparse_model();
        let config = ParallaxConfig::default();
        let plan = transform(&g, &profile, &config, 2, 4, 4).unwrap();
        assert!(plan.needs_servers());
        assert_eq!(plan.replicas, 4);
        let (emb, w) = (VarId::from_index(0), VarId::from_index(1));
        // Dense variable: ring AllReduce, no shard.
        assert_eq!(plan.exchange(&g, &config, w), Exchange::Ring);
        assert_eq!(*plan.plan.placement(w).unwrap(), VarPlacement::AllReduce);
        // Sparse variable: local aggregation, then a push to each of its
        // partitions.
        assert_eq!(plan.exchange(&g, &config, emb), Exchange::LocalAggPush);
        match plan.plan.placement(emb).unwrap() {
            VarPlacement::PsSparse { servers, .. } => assert_eq!(servers.len(), 4),
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn exchange_rule_covers_every_case() {
        let (g, profile) = sparse_model();
        let (emb, w) = (VarId::from_index(0), VarId::from_index(1));
        let exchange = |config: ParallaxConfig, var: VarId| {
            transform(&g, &profile, &config, 2, 4, 2)
                .unwrap()
                .exchange(&g, &config, var)
        };
        let hybrid = ParallaxConfig::default();
        assert_eq!(exchange(hybrid.clone(), w), Exchange::Ring);
        assert_eq!(exchange(hybrid.clone(), emb), Exchange::LocalAggPush);
        // emb's alpha (0.1) reaches the threshold: it densifies onto the
        // ring.
        let near_dense = ParallaxConfig {
            alpha_dense_threshold: 0.05,
            ..hybrid.clone()
        };
        assert_eq!(exchange(near_dense, emb), Exchange::Ring);
        assert_eq!(
            exchange(ParallaxConfig::horovod_baseline(), emb),
            Exchange::Gatherv
        );
        assert_eq!(
            exchange(ParallaxConfig::horovod_baseline(), w),
            Exchange::Ring
        );
        // w is PsDense under OptPS: dense gradients always push per worker.
        assert_eq!(exchange(ParallaxConfig::opt_ps(), w), Exchange::Push);
        let no_local_agg = ParallaxConfig {
            local_aggregation: false,
            ..hybrid
        };
        assert_eq!(exchange(no_local_agg, emb), Exchange::Push);
        let asynchronous = ParallaxConfig {
            synchronous: false,
            ..ParallaxConfig::opt_ps()
        };
        assert_eq!(exchange(asynchronous, emb), Exchange::Push);
    }

    #[test]
    fn pure_ar_plan_has_no_ps_vars_and_uses_allgatherv_for_sparse() {
        let (g, profile) = sparse_model();
        let config = ParallaxConfig::horovod_baseline();
        let plan = transform(&g, &profile, &config, 2, 4, 4).unwrap();
        assert!(!plan.needs_servers());
        assert!(plan.ps_vars().is_empty());
        assert_eq!(
            plan.exchange(&g, &config, VarId::from_index(0)),
            Exchange::Gatherv
        );
    }

    #[test]
    fn dense_only_model_needs_no_servers_under_hybrid() {
        let mut g = Graph::new();
        g.variable(VariableDef::new("w", [8, 8], Init::Glorot))
            .unwrap();
        let profile = profile_from_parts(vec![(VarId::from_index(0), false, 1.0, 8, 64)]);
        let plan = transform(&g, &profile, &ParallaxConfig::default(), 2, 4, 4).unwrap();
        assert!(!plan.needs_servers());
        assert_eq!(plan.ar_vars().len(), 1);
        assert!(plan.ps_vars().is_empty());
    }
}
