//! Deterministic greedy/local-search planner over per-variable
//! placements.
//!
//! [`plan_search`] scores every fixed [`Strategy`](crate::strategy) by
//! statically replaying one iteration of its verified plan into the
//! traffic predictor and timing the result with an
//! [`IterationSim`] (optionally refined by a measured
//! [`CalibrationProfile`]), seeds a greedy local search from the best
//! fixed recipe, and then improves per-variable decisions through
//! `ParallaxConfig::decision_overrides`: sparse variables move between
//! `PsSparse` partition counts, dense variables between `AllReduce`
//! and `PsDense`. Moves are accepted only on strict improvement, so
//! the chosen plan's predicted iteration time is ≤ every fixed
//! strategy's *by construction* — the invariant `repro plan` gates on.
//!
//! The search is deterministic and seed-reproducible: candidate order
//! is fixed (variables ascending, partition counts ascending), scoring
//! is exact static replay (bitwise identical for every
//! `compute_threads` setting), and nothing reads clocks or ambient
//! randomness. Same inputs → same chosen plan and same
//! [`SearchReport`], across runs and thread counts.

use std::fmt::Write as _;

use parallax_cluster::{
    CalibrationProfile, ClusterModel, IterationSim, Phase, SparseOpCost, Transport,
};
use parallax_dataflow::{Feed, Graph, NodeId, VarId};
use parallax_ps::placement::SyncDecision;
use parallax_ps::{PsTopology, VarPlacement};

use crate::config::ParallaxConfig;
use crate::plancheck::{predict_from_session, verified_plan_and_session};
use crate::sparsity::SparsityProfile;
use crate::strategy::{decision_label, fixed_strategies, SearchedStrategy, Strategy, StrategyPlan};
use crate::transform::DistributedPlan;
use crate::{CoreError, Result};

/// Local-search passes over all variables before giving up.
const MAX_PASSES: usize = 4;

/// One fixed strategy's predicted iteration time.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyScore {
    /// Strategy name (see [`crate::strategy`]).
    pub name: String,
    /// Predicted seconds per iteration under the scoring model.
    pub predicted_seconds: f64,
}

/// One accepted greedy move.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStep {
    /// The variable whose decision changed.
    pub var: usize,
    /// Its new decision.
    pub decision: SyncDecision,
    /// Predicted iteration seconds after the move.
    pub predicted_seconds: f64,
}

/// The machine-readable record of one [`plan_search`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Every fixed strategy's score, in the stable
    /// [`fixed_strategies`] order.
    pub fixed: Vec<StrategyScore>,
    /// The fixed strategy the search was seeded from (the fixed
    /// argmin; ties break toward the earlier entry).
    pub seed_strategy: String,
    /// Accepted moves, in acceptance order.
    pub steps: Vec<SearchStep>,
    /// The chosen per-variable decision table, in variable order.
    pub decisions: Vec<SyncDecision>,
    /// The chosen plan's predicted seconds per iteration.
    pub predicted_seconds: f64,
    /// Candidate plans scored (fixed strategies + greedy moves).
    pub evaluations: usize,
    /// Whether a measured calibration profile refined the timing model.
    pub calibrated: bool,
}

impl SearchReport {
    /// The best fixed strategy's predicted time.
    pub fn best_fixed_seconds(&self) -> f64 {
        self.fixed
            .iter()
            .map(|s| s.predicted_seconds)
            .fold(f64::INFINITY, f64::min)
    }

    /// True when the searched plan is no slower than every fixed
    /// strategy — the invariant `repro plan` gates on.
    pub fn beats_fixed(&self) -> bool {
        self.predicted_seconds <= self.best_fixed_seconds()
    }

    /// Renders the report as JSON (`parallax-plan-search-v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"parallax-plan-search-v1\"");
        out.push_str(",\"fixed\":[");
        for (i, s) in self.fixed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"predicted_seconds\":{}}}",
                s.name, s.predicted_seconds
            );
        }
        let _ = write!(out, "],\"seed_strategy\":\"{}\"", self.seed_strategy);
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"var\":{},\"decision\":\"{}\",\"predicted_seconds\":{}}}",
                s.var,
                decision_label(&s.decision),
                s.predicted_seconds
            );
        }
        out.push_str("],\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", decision_label(d));
        }
        let _ = write!(
            out,
            "],\"predicted_seconds\":{},\"evaluations\":{},\"calibrated\":{}}}",
            self.predicted_seconds, self.evaluations, self.calibrated
        );
        out
    }
}

/// Modelled server CPU seconds per iteration for a plan: the sparse
/// aggregation/apply cost of Eq. 1 per PS-sparse variable (a free-
/// function twin of `Runner::modelled_server_cpu`) plus the dense
/// aggregation cost for any dense variable hosted on the PS (matching
/// the analytic engine's dense-PS arm).
pub fn modelled_server_cpu(
    plan: &DistributedPlan,
    profile: &SparsityProfile,
    topo: &PsTopology,
    cluster: &ClusterModel,
) -> f64 {
    let n = topo.num_machines() as f64;
    let workers = topo.num_workers() as f64;
    let mut total = 0.0;
    for v in &profile.vars {
        match plan.plan.placement(v.var) {
            Ok(VarPlacement::PsSparse { partition, .. }) => {
                let pushed_rows = workers * v.rows_touched / n;
                let hosted = (partition.parts() as f64 / n).max(1.0) as usize;
                let cost = SparseOpCost {
                    pushed_rows,
                    cols: v.cols() as f64,
                };
                total += cost.time(&cluster.cpu, hosted);
            }
            Ok(VarPlacement::PsDense { .. }) => {
                total += workers * v.elements as f64 / cluster.cpu.dense_agg_rate / n;
            }
            _ => {}
        }
    }
    total
}

/// Scores one configured candidate: verified plan → static one-
/// iteration traffic replay over the session the verification checked →
/// calibrated iteration time. Returns the predicted seconds.
#[allow(clippy::too_many_arguments)]
fn score_config(
    graph: &Graph,
    loss: NodeId,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    topo: &PsTopology,
    cluster: &ClusterModel,
    feeds: &[Feed],
    calibration: Option<&CalibrationProfile>,
) -> Result<f64> {
    let machines = topo.num_machines();
    let partitions = config.sparse_partitions.unwrap_or(machines.max(1));
    let (plan, spec) = verified_plan_and_session(graph, loss, profile, config, topo, partitions)?;
    let (traffic, conservation) =
        predict_from_session(graph, loss, &plan, topo, config, feeds, &spec)?;
    if conservation.has_errors() {
        return Err(CoreError::Verify(conservation.render()));
    }
    let mut sim = IterationSim::new(cluster.clone(), machines);
    sim.server_cpu = vec![modelled_server_cpu(&plan, profile, topo, cluster); machines];
    for (transport, snap) in [
        (Transport::Nccl, &traffic.nccl),
        (Transport::Mpi, &traffic.mpi),
        (Transport::Grpc, &traffic.ps),
        (Transport::Grpc, &traffic.local_agg),
    ] {
        if snap.total_network_bytes() > 0 || snap.intra_bytes() > 0 {
            sim.phases.push(Phase::from_snapshot(transport, snap));
        }
    }
    if let Some(cal) = calibration {
        cal.apply(&mut sim);
    }
    Ok(sim.iteration_time())
}

/// Replaces (or inserts) the override for `var`, keeping the override
/// list sorted by variable index so identical searches produce
/// identical configs.
fn set_override(overrides: &mut Vec<(usize, SyncDecision)>, var: usize, d: SyncDecision) {
    match overrides.binary_search_by_key(&var, |&(i, _)| i) {
        Ok(pos) => overrides[pos].1 = d,
        Err(pos) => overrides.insert(pos, (var, d)),
    }
}

/// Runs the strategy search: score every fixed strategy, seed a greedy
/// local search from the argmin, improve per-variable decisions, and
/// return the chosen verified plan plus the machine-readable report.
///
/// `feeds` supplies one representative mini-batch per worker (the
/// static traffic replay's input); `calibration` optionally replaces
/// the analytic compute/server inputs with figures distilled from a
/// measured trace dump.
#[allow(clippy::too_many_arguments)]
pub fn plan_search(
    graph: &Graph,
    loss: NodeId,
    profile: &SparsityProfile,
    base: &ParallaxConfig,
    topo: &PsTopology,
    cluster: &ClusterModel,
    feeds: &[Feed],
    calibration: Option<&CalibrationProfile>,
) -> Result<(StrategyPlan, SearchReport)> {
    let machines = topo.num_machines().max(1);
    let workers = topo.num_workers().max(1);
    let mut evaluations = 0usize;

    // Stage 1: score the fixed strategies.
    let fixed = fixed_strategies();
    let mut scores = Vec::with_capacity(fixed.len());
    let mut best_idx = 0usize;
    let mut best = f64::INFINITY;
    let mut seed_config: Option<ParallaxConfig> = None;
    for (i, s) in fixed.iter().enumerate() {
        let config = s.configure(base);
        let t = score_config(
            graph,
            loss,
            profile,
            &config,
            topo,
            cluster,
            feeds,
            calibration,
        )?;
        evaluations += 1;
        if t < best {
            best = t;
            best_idx = i;
            seed_config = Some(config.clone());
        }
        scores.push(StrategyScore {
            name: s.name().to_string(),
            predicted_seconds: t,
        });
    }
    let seed_strategy = fixed[best_idx].name().to_string();
    let mut current = seed_config.expect("at least one fixed strategy scored");
    let partitions = current.sparse_partitions.unwrap_or(machines);
    let mut decisions = crate::hybrid::decide(graph, profile, &current, partitions)?;

    // Stage 2: greedy local search. Candidate order is fixed, so the
    // search is deterministic; acceptance requires strict improvement,
    // so the result can never be worse than the seed.
    let mut pcands: Vec<usize> = vec![1, machines, 2 * machines, workers];
    pcands.sort_unstable();
    pcands.dedup();
    let mut steps = Vec::new();
    for _pass in 0..MAX_PASSES {
        let mut improved = false;
        // Indexed loop: the body both reads and rewrites
        // `decisions[idx]` while borrowing the whole slice elsewhere.
        #[allow(clippy::needless_range_loop)]
        for idx in 0..decisions.len() {
            let sparse = graph.is_sparse_variable(VarId::from_index(idx));
            let candidates: Vec<SyncDecision> = if sparse {
                pcands
                    .iter()
                    .map(|&p| SyncDecision::PsSparse { partitions: p })
                    .collect()
            } else {
                let mut c = vec![SyncDecision::AllReduce];
                if current.average_dense == current.average_sparse {
                    c.push(SyncDecision::PsDense);
                }
                c
            };
            for d in candidates {
                if d == decisions[idx] {
                    continue;
                }
                let mut cfg = current.clone();
                set_override(&mut cfg.decision_overrides, idx, d);
                evaluations += 1;
                let Ok(t) = score_config(
                    graph,
                    loss,
                    profile,
                    &cfg,
                    topo,
                    cluster,
                    feeds,
                    calibration,
                ) else {
                    continue;
                };
                if t < best {
                    best = t;
                    current = cfg;
                    decisions[idx] = d;
                    steps.push(SearchStep {
                        var: idx,
                        decision: d,
                        predicted_seconds: t,
                    });
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let chosen = SearchedStrategy {
        config: current.clone(),
    };
    let plan = chosen.plan(graph, loss, profile, base, topo)?;
    debug_assert_eq!(plan.plan.decisions, decisions);
    let report = SearchReport {
        fixed: scores,
        seed_strategy,
        steps,
        decisions,
        predicted_seconds: best,
        evaluations,
        calibrated: calibration.is_some(),
    };
    Ok((plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::estimate_profile;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::VariableDef;

    fn model() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [48, 4], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 3], Init::Glorot))
            .unwrap();
        let b = g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let br = g.read(b).unwrap();
        let mm = g.add(Op::MatMul(x, wr)).unwrap();
        let logits = g.add(Op::AddBias { x: mm, bias: br }).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
        (g, loss)
    }

    fn feed(worker: usize) -> Feed {
        let ids: Vec<usize> = (0..4).map(|i| (worker * 7 + i * 3) % 48).collect();
        let labels: Vec<usize> = (0..4).map(|i| (worker + i) % 3).collect();
        Feed::new().with("ids", ids).with("labels", labels)
    }

    fn search_inputs() -> (Graph, NodeId, SparsityProfile, PsTopology, Vec<Feed>) {
        let (g, loss) = model();
        let feeds: Vec<Feed> = (0..4).map(feed).collect();
        let profile = estimate_profile(&g, &feeds[..1], 1).unwrap();
        let topo = PsTopology::uniform(4, 1).unwrap();
        (g, loss, profile, topo, feeds)
    }

    #[test]
    fn searched_plan_is_no_slower_than_any_fixed_strategy() {
        let (g, loss, profile, topo, feeds) = search_inputs();
        let cluster = ClusterModel::paper_testbed();
        let (plan, report) = plan_search(
            &g,
            loss,
            &profile,
            &ParallaxConfig::default(),
            &topo,
            &cluster,
            &feeds,
            None,
        )
        .unwrap();
        assert_eq!(report.fixed.len(), 5);
        assert!(report.beats_fixed(), "report: {}", report.to_json());
        assert_eq!(plan.name, "searched");
        assert_eq!(plan.plan.decisions, report.decisions);
        assert!(report.evaluations >= 5);
    }

    #[test]
    fn search_is_deterministic_across_runs() {
        let (g, loss, profile, topo, feeds) = search_inputs();
        let cluster = ClusterModel::paper_testbed();
        let run = || {
            plan_search(
                &g,
                loss,
                &profile,
                &ParallaxConfig::default(),
                &topo,
                &cluster,
                &feeds,
                None,
            )
            .unwrap()
        };
        let (p1, r1) = run();
        let (p2, r2) = run();
        assert_eq!(r1, r2);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(p1.plan, p2.plan);
        assert_eq!(p1.config.decision_overrides, p2.config.decision_overrides);
    }

    #[test]
    fn report_json_is_well_formed() {
        let (g, loss, profile, topo, feeds) = search_inputs();
        let cluster = ClusterModel::paper_testbed();
        let (_, report) = plan_search(
            &g,
            loss,
            &profile,
            &ParallaxConfig::default(),
            &topo,
            &cluster,
            &feeds,
            None,
        )
        .unwrap();
        let json = report.to_json();
        parallax_trace::json::parse(&json).expect("valid JSON");
        assert!(json.contains("parallax-plan-search-v1"));
        assert!(json.contains("seed_strategy"));
    }
}
