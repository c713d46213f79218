//! Negative-path coverage for the static plan verifier: every seeded
//! plan defect must surface as its documented `P...` diagnostic code in
//! the report — never as a panic, and never silently.
//!
//! The single-device `G...`/`S...` codes are exercised by the unit tests
//! in `parallax-dataflow::verify`; this suite seeds defects into
//! otherwise-valid [`DistributedPlan`]s using the `#[doc(hidden)]`
//! tamper constructors (`RowPartition::from_bounds`,
//! `ShardingPlan::from_placements`).

use parallax_core::check_plan;
use parallax_core::sparsity::{profile_from_parts, SparsityProfile};
use parallax_core::transform::{transform, DistributedPlan};
use parallax_core::{ArchChoice, ParallaxConfig};
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::verify::DiagCode;
use parallax_dataflow::{Graph, NodeId, VarId, VariableDef};
use parallax_ps::{PsTopology, RowPartition, ShardingPlan, VarPlacement};

const MACHINES: usize = 2;
const GPUS: usize = 2;

/// One gathered (sparse, alpha well below the dense threshold) and one
/// dense variable — the smallest model where every decision kind occurs.
fn model() -> (Graph, NodeId, VarId, SparsityProfile) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [12, 4], Init::Glorot))
        .unwrap();
    let w = g
        .variable(VariableDef::new("w", [4, 2], Init::Glorot))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let gathered = g.add(Op::Gather { table: emb, ids }).unwrap();
    let wn = g.add(Op::Variable(w)).unwrap();
    let h = g.add(Op::MatMul(gathered, wn)).unwrap();
    let loss = g.add(Op::MeanAll(h)).unwrap();
    let profile = profile_from_parts(vec![(emb, true, 0.25, 12, 48), (w, false, 1.0, 4, 8)]);
    (g, loss, emb, profile)
}

fn config_with(arch: ArchChoice, partitions: usize) -> ParallaxConfig {
    ParallaxConfig {
        arch,
        sparse_partitions: Some(partitions),
        ..ParallaxConfig::default()
    }
}

fn plan_for(
    graph: &Graph,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    partitions: usize,
) -> DistributedPlan {
    transform(
        graph,
        profile,
        config,
        MACHINES,
        MACHINES * GPUS,
        partitions,
    )
    .unwrap()
}

fn topo() -> PsTopology {
    PsTopology::uniform(MACHINES, GPUS).unwrap()
}

/// Swaps the placement of one variable, leaving the rest of the plan
/// intact.
fn replace_placement(plan: &mut DistributedPlan, var: VarId, placement: VarPlacement) {
    let mut placements = plan.plan.placements().to_vec();
    placements[var.index()] = placement;
    plan.plan = ShardingPlan::from_placements(placements);
}

#[test]
fn profile_sparse_var_on_allreduce_is_p001() {
    let (g, loss, _, profile) = model();
    // Build a pure-AllReduce plan, then check it against the hybrid
    // architecture, under which the gathered variable must be on the PS.
    let ar_config = config_with(ArchChoice::ArOnly, 2);
    let plan = plan_for(&g, &profile, &ar_config, 2);
    let hybrid_config = config_with(ArchChoice::Hybrid, 2);
    let report = check_plan(&g, Some(loss), &profile, &hybrid_config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P001), "{}", report.render());
}

#[test]
fn dense_var_on_ps_is_p002() {
    let (g, loss, _, profile) = model();
    // A parameter-server-everything plan checked against pure AllReduce:
    // the dense head has no business on a server.
    let ps_config = config_with(ArchChoice::PsOnly, 2);
    let plan = plan_for(&g, &profile, &ps_config, 2);
    let ar_config = config_with(ArchChoice::ArOnly, 2);
    let report = check_plan(&g, Some(loss), &profile, &ar_config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P002), "{}", report.render());
}

#[test]
fn dense_read_of_partition_sharded_var_is_p002() {
    // A variable that is gathered AND dense-read: the profile claims it
    // is sparse, so the hybrid decision shards it — but the dense read
    // would need the whole table on every worker.
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [12, 4], Init::Glorot))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let gathered = g.add(Op::Gather { table: emb, ids }).unwrap();
    let whole = g.add(Op::Variable(emb)).unwrap();
    let reduced = g.add(Op::MeanAll(whole)).unwrap();
    let partial = g.add(Op::MeanAll(gathered)).unwrap();
    let loss = g.add(Op::Add(reduced, partial)).unwrap();
    let profile = profile_from_parts(vec![(emb, true, 0.25, 12, 48)]);
    let config = config_with(ArchChoice::Hybrid, 2);
    let plan = plan_for(&g, &profile, &config, 2);
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P002), "{}", report.render());
}

#[test]
fn partition_bounds_not_covering_rows_is_p003() {
    let (g, loss, emb, profile) = model();
    let config = config_with(ArchChoice::Hybrid, 2);
    let mut plan = plan_for(&g, &profile, &config, 2);
    // Two partitions whose last bound stops short of the 12 table rows.
    replace_placement(
        &mut plan,
        emb,
        VarPlacement::PsSparse {
            partition: RowPartition::from_bounds(12, vec![0, 5, 11]),
            servers: vec![0, 1],
        },
    );
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P003), "{}", report.render());
}

#[test]
fn non_monotonic_partition_bounds_is_p004() {
    let (g, loss, emb, profile) = model();
    let config = config_with(ArchChoice::Hybrid, 3);
    let mut plan = plan_for(&g, &profile, &config, 3);
    // Three partitions, full coverage, but the middle bound goes
    // backwards: ranges overlap.
    replace_placement(
        &mut plan,
        emb,
        VarPlacement::PsSparse {
            partition: RowPartition::from_bounds(12, vec![0, 8, 4, 12]),
            servers: vec![0, 1, 0],
        },
    );
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P004), "{}", report.render());
}

#[test]
fn out_of_range_server_index_is_p005() {
    let (g, loss, emb, profile) = model();
    let config = config_with(ArchChoice::Hybrid, 2);
    let mut plan = plan_for(&g, &profile, &config, 2);
    // Shard 0 claims to live on machine 9 of a 2-machine cluster.
    replace_placement(
        &mut plan,
        emb,
        VarPlacement::PsSparse {
            partition: RowPartition::even(12, 2).unwrap(),
            servers: vec![9, 1],
        },
    );
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P005), "{}", report.render());
}

#[test]
fn truncated_decision_vector_is_p006() {
    let (g, loss, _, profile) = model();
    let config = config_with(ArchChoice::Hybrid, 2);
    let mut plan = plan_for(&g, &profile, &config, 2);
    plan.decisions.pop();
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_code(DiagCode::P006), "{}", report.render());
}

#[test]
fn every_tampered_report_renders_without_panicking() {
    // Rendering a report with node/var provenance on every diagnostic
    // must never panic, whatever the defect mix.
    let (g, loss, emb, profile) = model();
    let config = config_with(ArchChoice::Hybrid, 2);
    let mut plan = plan_for(&g, &profile, &config, 2);
    plan.partitions = 5;
    replace_placement(
        &mut plan,
        emb,
        VarPlacement::PsSparse {
            partition: RowPartition::from_bounds(12, vec![0, 0]),
            servers: vec![7],
        },
    );
    let report = check_plan(&g, Some(loss), &profile, &config, &topo(), &plan);
    assert!(report.has_errors());
    let rendered = report.render();
    assert!(rendered.contains('P'), "{rendered}");
}
