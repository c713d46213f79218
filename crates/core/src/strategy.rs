//! Placement strategies: named, deterministic recipes for how every
//! variable synchronizes.
//!
//! A [`Strategy`] turns a base [`ParallaxConfig`] into the configured
//! run it stands for and plans a *verified* placement for a graph on a
//! topology (transformation + plan checks + session checks, via
//! [`crate::plancheck::build_verified_plan`]). The five fixed
//! strategies cover the paper's architecture space:
//!
//! * [`PureAllReduce`] — everything through collectives (Horovod).
//! * [`PurePs`] — naive PS: round-robin placement, unpartitioned,
//!   no local aggregation (TF-PS).
//! * [`PsLoadBalanced`] — PS with balanced placement and local
//!   aggregation, still unpartitioned.
//! * [`PsPartitioned`] — the full optimized PS: balanced placement,
//!   local aggregation, partitioned sparse variables (OptPS).
//! * [`Hybrid`] — Parallax: dense to AllReduce, sparse to the PS
//!   (Section 3.1).
//!
//! [`crate::strategize`] searches *between and beyond* these recipes by
//! pinning per-variable [`SyncDecision`]s through
//! `ParallaxConfig::decision_overrides`; its output is a sixth,
//! searched strategy whose plan goes through the same verification.
//!
//! Every strategy preserves the base config's numerics (seed, learning
//! rate, averaging flags, wire format), so with the canonical
//! aggregation order all of them — and any searched mix — produce
//! bitwise-identical weights for the same seed (the
//! `strategy_equivalence` suite).

use parallax_dataflow::{Graph, NodeId};
use parallax_ps::placement::SyncDecision;
use parallax_ps::{PlacementStrategy, PsTopology};

use crate::config::{ArchChoice, ParallaxConfig};
use crate::sparsity::SparsityProfile;
use crate::transform::DistributedPlan;
use crate::Result;

/// A placement strategy: a named, deterministic transformation of a
/// base configuration into a concrete synchronization recipe.
pub trait Strategy: Send + Sync {
    /// Stable machine-readable name (used in reports and CLI output).
    fn name(&self) -> &'static str;

    /// The configured run this strategy stands for. Implementations
    /// must preserve the base config's numerics (seed, learning rate,
    /// averaging, wire format) and may only steer placement knobs:
    /// `arch`, `placement`, `local_aggregation`, `sparse_partitions`
    /// and `decision_overrides`.
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig;

    /// Plans a verified placement for `graph` on `topo`: configure,
    /// transform, and run every static plan and session check. The
    /// result is what [`crate::runner::get_runner_with_plan`] accepts.
    fn plan(
        &self,
        graph: &Graph,
        loss: NodeId,
        profile: &SparsityProfile,
        base: &ParallaxConfig,
        topo: &PsTopology,
    ) -> Result<StrategyPlan> {
        let config = self.configure(base);
        let partitions = config
            .sparse_partitions
            .unwrap_or(topo.num_machines().max(1));
        let plan =
            crate::plancheck::build_verified_plan(graph, loss, profile, &config, topo, partitions)?;
        Ok(StrategyPlan {
            name: self.name().to_string(),
            config,
            plan,
        })
    }
}

/// A strategy's verified output: the configured run plus the checked
/// distributed plan it produced.
#[derive(Debug, Clone)]
pub struct StrategyPlan {
    /// The producing strategy's name.
    pub name: String,
    /// The fully configured run.
    pub config: ParallaxConfig,
    /// The verified distributed plan.
    pub plan: DistributedPlan,
}

/// Short human-readable label for a synchronization decision.
pub fn decision_label(d: &SyncDecision) -> String {
    match d {
        SyncDecision::AllReduce => "AllReduce".to_string(),
        SyncDecision::PsDense => "PS/dense".to_string(),
        SyncDecision::PsSparse { partitions } => format!("PS/sparse(p={partitions})"),
    }
}

/// Everything through collectives: AllReduce for dense gradients,
/// AllGatherv for sparse ones (the Horovod baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PureAllReduce;

impl Strategy for PureAllReduce {
    fn name(&self) -> &'static str {
        "pure_allreduce"
    }
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig {
        ParallaxConfig {
            arch: ArchChoice::ArOnly,
            local_aggregation: false,
            decision_overrides: Vec::new(),
            ..base.clone()
        }
    }
}

/// Naive Parameter Server: round-robin placement, unpartitioned
/// variables, no local aggregation (the TF-PS baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PurePs;

impl Strategy for PurePs {
    fn name(&self) -> &'static str {
        "pure_ps"
    }
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig {
        ParallaxConfig {
            arch: ArchChoice::PsOnly,
            placement: PlacementStrategy::RoundRobin,
            local_aggregation: false,
            sparse_partitions: Some(1),
            decision_overrides: Vec::new(),
            ..base.clone()
        }
    }
}

/// Parameter Server with balanced shard placement and local
/// aggregation, but still one shard per variable.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsLoadBalanced;

impl Strategy for PsLoadBalanced {
    fn name(&self) -> &'static str {
        "ps_load_balanced"
    }
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig {
        ParallaxConfig {
            arch: ArchChoice::PsOnly,
            placement: PlacementStrategy::Balanced,
            local_aggregation: true,
            sparse_partitions: Some(1),
            decision_overrides: Vec::new(),
            ..base.clone()
        }
    }
}

/// The fully optimized Parameter Server: balanced placement, local
/// aggregation, and partitioned sparse variables (the OptPS row of
/// Table 4). Partition count comes from the base config
/// (`sparse_partitions`), defaulting to one shard per machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsPartitioned;

impl Strategy for PsPartitioned {
    fn name(&self) -> &'static str {
        "ps_partitioned"
    }
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig {
        ParallaxConfig {
            arch: ArchChoice::PsOnly,
            placement: PlacementStrategy::Balanced,
            local_aggregation: true,
            decision_overrides: Vec::new(),
            ..base.clone()
        }
    }
}

/// Parallax's hybrid: dense variables to AllReduce, sparse ones to the
/// partitioned PS, with the near-dense alpha escape (Section 3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hybrid;

impl Strategy for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn configure(&self, base: &ParallaxConfig) -> ParallaxConfig {
        ParallaxConfig {
            arch: ArchChoice::Hybrid,
            placement: PlacementStrategy::Balanced,
            local_aggregation: true,
            decision_overrides: Vec::new(),
            ..base.clone()
        }
    }
}

/// A searched strategy: a concrete configuration (usually carrying
/// `decision_overrides`) produced by [`crate::strategize`], wrapped so
/// it travels through the same [`Strategy`] interface as the fixed
/// recipes.
#[derive(Debug, Clone)]
pub struct SearchedStrategy {
    /// The configuration the search chose.
    pub config: ParallaxConfig,
}

impl Strategy for SearchedStrategy {
    fn name(&self) -> &'static str {
        "searched"
    }
    fn configure(&self, _base: &ParallaxConfig) -> ParallaxConfig {
        self.config.clone()
    }
}

/// The five fixed strategies, in a stable order (baselines first,
/// Parallax last).
pub fn fixed_strategies() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(PureAllReduce),
        Box::new(PurePs),
        Box::new(PsLoadBalanced),
        Box::new(PsPartitioned),
        Box::new(Hybrid),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::profile_from_parts;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::{VarId, VariableDef};

    fn model() -> (Graph, NodeId, SparsityProfile) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [32, 4], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let mm = g.add(Op::MatMul(x, wr)).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits: mm, labels }).unwrap();
        let profile = profile_from_parts(vec![
            (VarId::from_index(0), true, 0.25, 32, 128),
            (VarId::from_index(1), false, 1.0, 4, 12),
        ]);
        (g, loss, profile)
    }

    #[test]
    fn every_fixed_strategy_plans_and_verifies() {
        let (g, loss, profile) = model();
        let base = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        for s in fixed_strategies() {
            let sp = s.plan(&g, loss, &profile, &base, &topo).unwrap();
            assert_eq!(sp.name, s.name());
            assert_eq!(sp.plan.decisions.len(), 2);
        }
    }

    #[test]
    fn fixed_strategies_differ_in_decisions_where_expected() {
        let (g, loss, profile) = model();
        let base = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let plan_of = |s: &dyn Strategy| s.plan(&g, loss, &profile, &base, &topo).unwrap();
        let ar = plan_of(&PureAllReduce);
        assert!(ar
            .plan
            .decisions
            .iter()
            .all(|d| matches!(d, SyncDecision::AllReduce)));
        let ps = plan_of(&PurePs);
        assert!(matches!(
            ps.plan.decisions[0],
            SyncDecision::PsSparse { partitions: 1 }
        ));
        assert!(matches!(ps.plan.decisions[1], SyncDecision::PsDense));
        assert!(!ps.config.local_aggregation);
        let part = plan_of(&PsPartitioned);
        assert!(matches!(
            part.plan.decisions[0],
            SyncDecision::PsSparse { partitions: 2 }
        ));
        let hy = plan_of(&Hybrid);
        assert!(matches!(
            hy.plan.decisions[0],
            SyncDecision::PsSparse { .. }
        ));
        assert!(matches!(hy.plan.decisions[1], SyncDecision::AllReduce));
    }

    #[test]
    fn strategies_preserve_base_numerics() {
        let base = ParallaxConfig {
            seed: 77,
            learning_rate: 0.05,
            average_dense: false,
            average_sparse: false,
            ..ParallaxConfig::default()
        };
        for s in fixed_strategies() {
            let c = s.configure(&base);
            assert_eq!(c.seed, 77, "{}", s.name());
            assert_eq!(c.learning_rate, 0.05, "{}", s.name());
            assert!(!c.average_dense, "{}", s.name());
            assert!(!c.average_sparse, "{}", s.name());
            assert!(c.decision_overrides.is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn decision_labels_render() {
        assert_eq!(decision_label(&SyncDecision::AllReduce), "AllReduce");
        assert_eq!(decision_label(&SyncDecision::PsDense), "PS/dense");
        assert_eq!(
            decision_label(&SyncDecision::PsSparse { partitions: 8 }),
            "PS/sparse(p=8)"
        );
    }
}
