//! Static plan verifier: distributed-plan passes and traffic prediction.
//!
//! The single-device graph passes (`G...`/`S...` codes) live in
//! [`parallax_dataflow::verify`]; this module adds the distributed
//! half, run against a [`DistributedPlan`] *before any thread spawns*:
//!
//! * [`check_plan`] — cross-checks the plan against an independent
//!   re-derivation of the hybrid decision (`P001`, `P002`, `P006`), the
//!   partition tiling invariants (`P003`–`P005`), the inserted
//!   synchronization-op schedule (`P007`), and gradient reachability
//!   for Parameter-Server variables (`P008`, the "servers wait forever"
//!   hazard);
//! * [`predict_iteration_traffic`] — statically replays one iteration's
//!   full exchange schedule (pulls, collectives, local aggregation,
//!   pushes, chief updates, update notifications) into a
//!   [`StaticLedger`] and cross-checks each traffic class against an
//!   independent closed-form byte accounting (`B001`);
//! * [`build_verified_plan`] — the gate [`crate::runner::get_runner`]
//!   uses: transform, verify graph + plan, refuse to return a plan whose
//!   report contains errors.

use std::collections::{HashMap, HashSet};

use parallax_comm::predict::{replay_allgatherv, replay_reduce_to, replay_ring_allreduce_wire};
use parallax_comm::tag::{self, ReqKind};
use parallax_comm::wire::slices_wire_bytes;
use parallax_comm::{StaticLedger, TrafficClass};
use parallax_dataflow::grad::backward;
use parallax_dataflow::verify::{verify_graph, DiagCode, Diagnostic, VerifyReport};
use parallax_dataflow::{Feed, Graph, NodeId, Op, Session, VarId, VarStore, VariableDef};
use parallax_ps::placement::SyncDecision;
use parallax_ps::{PsTopology, VarPlacement};
use parallax_tensor::{sparse::Grad, DetRng};

use crate::config::{ArchChoice, ParallaxConfig};
use crate::hybrid;
use crate::runner::TrafficReport;
use crate::sparsity::SparsityProfile;
use crate::transform::{transform, DistributedPlan, SyncOpDesc};
use crate::{CoreError, Result};

/// Rows of a variable as the planner counts them (rank-0 scalars are a
/// single row).
fn var_rows(def: &VariableDef) -> usize {
    if def.shape.rank() == 0 {
        1
    } else {
        def.shape.dim(0)
    }
}

/// Elements per row.
fn var_cols(def: &VariableDef) -> usize {
    def.num_elements() / var_rows(def).max(1)
}

/// All ancestors of `node` (inclusive) following op input edges.
fn ancestors_of(graph: &Graph, node: NodeId) -> HashSet<usize> {
    let mut seen = HashSet::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if !seen.insert(n.index()) {
            continue;
        }
        if let Ok(op) = graph.op(n) {
            stack.extend(op.inputs());
        }
    }
    seen
}

/// `(machine, partition)` shard coordinates of a placement, in the order
/// the client addresses them. Shared with [`crate::protocheck`], whose
/// session derivation must address shards in exactly this order.
pub(crate) fn shard_coords(placement: &VarPlacement) -> Vec<(usize, usize)> {
    match placement {
        VarPlacement::AllReduce => vec![],
        VarPlacement::PsDense { server } => vec![(*server, 0)],
        VarPlacement::PsSparse { servers, .. } => servers
            .iter()
            .copied()
            .enumerate()
            .map(|(p, m)| (m, p))
            .collect(),
    }
}

/// Cross-checks a [`DistributedPlan`] against the graph, profile,
/// configuration and cluster it claims to be for. Pure analysis: every
/// violation becomes a typed diagnostic (`P001`–`P008`), never a panic.
///
/// `loss` enables the `P008` gradient-reachability pass; without it only
/// the never-accessed half of that hazard is detectable.
pub fn check_plan(
    graph: &Graph,
    loss: Option<NodeId>,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    topo: &PsTopology,
    plan: &DistributedPlan,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    let nvars = graph.variables().len();
    let machines = topo.num_machines();

    if plan.decisions.len() != nvars || plan.plan.placements().len() != nvars {
        report.push(Diagnostic::error(
            DiagCode::P006,
            format!(
                "plan holds {} decisions and {} placements for {nvars} graph variables",
                plan.decisions.len(),
                plan.plan.placements().len()
            ),
        ));
        return report;
    }

    // Independent re-derivation of the hybrid decision from the same
    // inputs: any disagreement means the plan was tampered with or the
    // transformation drifted from Section 3.1's rule.
    let expected = match hybrid::decide(graph, profile, config, plan.partitions) {
        Ok(e) => e,
        Err(e) => {
            report.push(Diagnostic::error(
                DiagCode::P006,
                format!("hybrid decision cannot be re-derived: {e}"),
            ));
            return report;
        }
    };
    let loss_ancestors = loss.map(|l| ancestors_of(graph, l));

    for var in graph.var_ids() {
        let idx = var.index();
        let def = &graph.variables()[idx];
        let actual = &plan.decisions[idx];
        let wanted = &expected[idx];
        let Ok(placement) = plan.plan.placement(var) else {
            continue; // Length already checked above.
        };

        // Decision diff against the re-derivation.
        match (actual, wanted) {
            (SyncDecision::AllReduce, SyncDecision::AllReduce)
            | (SyncDecision::PsDense, SyncDecision::PsDense) => {}
            (SyncDecision::AllReduce, SyncDecision::PsSparse { .. })
                if profile.vars.get(idx).map(|v| v.sparse).unwrap_or(false) =>
            {
                report.push(
                    Diagnostic::error(
                        DiagCode::P001,
                        format!(
                            "profile-sparse variable '{}' is AllReduce-synchronized, but the \
                             {:?} architecture keeps it on the Parameter Server",
                            def.name, config.arch
                        ),
                    )
                    .for_var(idx),
                );
            }
            (SyncDecision::AllReduce, _) => {
                report.push(
                    Diagnostic::error(
                        DiagCode::P006,
                        format!(
                            "variable '{}' is AllReduce-synchronized, but re-deriving the \
                             decision yields {wanted:?}",
                            def.name
                        ),
                    )
                    .for_var(idx),
                );
            }
            (SyncDecision::PsDense | SyncDecision::PsSparse { .. }, SyncDecision::AllReduce) => {
                report.push(
                    Diagnostic::error(
                        DiagCode::P002,
                        format!(
                            "variable '{}' is Parameter-Server-hosted, but the {:?} \
                             architecture synchronizes it by AllReduce",
                            def.name, config.arch
                        ),
                    )
                    .for_var(idx),
                );
            }
            (
                SyncDecision::PsSparse { partitions: a },
                SyncDecision::PsSparse { partitions: b },
            ) => {
                if a != b {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P006,
                            format!(
                                "variable '{}' is partitioned {a} ways, but re-deriving the \
                                 decision yields {b} partitions",
                                def.name
                            ),
                        )
                        .for_var(idx),
                    );
                }
            }
            (actual, wanted) => {
                report.push(
                    Diagnostic::error(
                        DiagCode::P006,
                        format!(
                            "variable '{}' decision {actual:?} disagrees with re-derived \
                             {wanted:?}",
                            def.name
                        ),
                    )
                    .for_var(idx),
                );
            }
        }

        // Placement consistency with the decision, server ranges, and the
        // partition tiling invariant.
        match (actual, placement) {
            (SyncDecision::AllReduce, VarPlacement::AllReduce) => {}
            (SyncDecision::PsDense, VarPlacement::PsDense { server }) => {
                if *server >= machines {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P005,
                            format!(
                                "variable '{}' is hosted on server {server}, but the cluster \
                                 has {machines} machine(s)",
                                def.name
                            ),
                        )
                        .for_var(idx),
                    );
                }
            }
            (
                SyncDecision::PsSparse { partitions: q },
                VarPlacement::PsSparse { partition, servers },
            ) => {
                if servers.len() != partition.parts() {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P006,
                            format!(
                                "variable '{}' has {} partitions but {} server assignments",
                                def.name,
                                partition.parts(),
                                servers.len()
                            ),
                        )
                        .for_var(idx),
                    );
                }
                for (p, &s) in servers.iter().enumerate() {
                    if s >= machines {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P005,
                                format!(
                                    "shard {p} of variable '{}' is hosted on server {s}, but \
                                     the cluster has {machines} machine(s)",
                                    def.name
                                ),
                            )
                            .for_var(idx),
                        );
                    }
                }
                let rows = var_rows(def);
                let bounds = partition.bounds();
                if partition.parts() == 0 {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P003,
                            format!("variable '{}' has an empty partition table", def.name),
                        )
                        .for_var(idx),
                    );
                } else {
                    if bounds[0] != 0 {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P003,
                                format!(
                                    "variable '{}': first shard starts at row {} instead of 0 \
                                     (rows 0..{} are unhosted)",
                                    def.name, bounds[0], bounds[0]
                                ),
                            )
                            .for_var(idx),
                        );
                    }
                    let last = *bounds.last().expect("non-empty bounds");
                    if last != partition.rows() || partition.rows() != rows {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P003,
                                format!(
                                    "variable '{}': shards cover rows 0..{last} of a declared \
                                     {} (variable has {rows} rows) — shards do not tile the \
                                     variable",
                                    def.name,
                                    partition.rows()
                                ),
                            )
                            .for_var(idx),
                        );
                    }
                    if bounds.windows(2).any(|w| w[1] <= w[0]) {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P004,
                                format!(
                                    "variable '{}': partition bounds {bounds:?} are not \
                                     strictly increasing (overlapping or empty shards)",
                                    def.name
                                ),
                            )
                            .for_var(idx),
                        );
                    }
                    let capped = (*q).max(1).min(rows.max(1));
                    if partition.parts() != capped {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P006,
                                format!(
                                    "variable '{}': placement has {} shards, but the decision's \
                                     {q} partitions cap at {capped} for {rows} rows",
                                    def.name,
                                    partition.parts()
                                ),
                            )
                            .for_var(idx),
                        );
                    }
                }
            }
            (decision, placement) => {
                report.push(
                    Diagnostic::error(
                        DiagCode::P006,
                        format!(
                            "variable '{}': placement {placement:?} disagrees with decision \
                             {decision:?}",
                            def.name
                        ),
                    )
                    .for_var(idx),
                );
            }
        }

        // A dense read of a row-partitioned variable fails at runtime in
        // the provider; catch it statically with node provenance.
        if matches!(placement, VarPlacement::PsSparse { .. }) {
            for (nidx, op) in graph.ops().iter().enumerate() {
                if matches!(op, Op::Variable(v) if *v == var) {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P002,
                            format!(
                                "dense read of partition-sharded variable '{}' (use Gather, or \
                                 host the variable unpartitioned)",
                                def.name
                            ),
                        )
                        .at_node(graph, NodeId::from_index(nidx))
                        .for_var(idx),
                    );
                }
            }
        }

        // P008: a PS variable must receive a gradient from every worker
        // every iteration, or its servers block forever on missing pushes
        // (and pulls, if it is never accessed at all).
        if placement.is_ps() {
            let access: Vec<NodeId> = graph
                .ops()
                .iter()
                .enumerate()
                .filter_map(|(i, op)| match op {
                    Op::Variable(v) if *v == var => Some(NodeId::from_index(i)),
                    Op::Gather { table, .. } if *table == var => Some(NodeId::from_index(i)),
                    _ => None,
                })
                .collect();
            if access.is_empty() {
                report.push(
                    Diagnostic::error(
                        DiagCode::P008,
                        format!(
                            "Parameter-Server variable '{}' is never accessed: its servers \
                             would wait forever for pulls and pushes that never come",
                            def.name
                        ),
                    )
                    .for_var(idx),
                );
            } else if let Some(ancestors) = &loss_ancestors {
                if !access.iter().any(|n| ancestors.contains(&n.index())) {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P008,
                            format!(
                                "Parameter-Server variable '{}' has no gradient path to the \
                                 loss: workers would push nothing and its servers would stall",
                                def.name
                            ),
                        )
                        .for_var(idx),
                    );
                }
            }
        }
    }

    check_sync_ops(graph, config, plan, &mut report);
    report
}

/// `P007`: the inserted synchronization-op schedule must agree with the
/// plan — exactly one collective per AllReduce variable (AllGatherv only
/// for graph-sparse variables under pure-AR), one `GlobalAgg` + `Update`
/// per shard on the shard's own server, and `LocalAgg` if and only if
/// the configuration enables local aggregation and the variable is
/// graph-sparse (dense PS gradients always push per worker so the
/// server can replay the ring fold order).
fn check_sync_ops(
    graph: &Graph,
    config: &ParallaxConfig,
    plan: &DistributedPlan,
    report: &mut VerifyReport,
) {
    for var in graph.var_ids() {
        let idx = var.index();
        let name = &graph.variables()[idx].name;
        let Ok(placement) = plan.plan.placement(var) else {
            continue;
        };
        let mut allreduce = 0usize;
        let mut allgatherv = 0usize;
        let mut local_agg = 0usize;
        let mut global_agg: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut update: HashMap<usize, Vec<usize>> = HashMap::new();
        for op in &plan.sync_ops {
            match op {
                SyncOpDesc::AllReduce { var: v } if *v == var => allreduce += 1,
                SyncOpDesc::AllGatherv { var: v } if *v == var => allgatherv += 1,
                SyncOpDesc::LocalAgg { var: v } if *v == var => local_agg += 1,
                SyncOpDesc::GlobalAgg {
                    var: v,
                    part,
                    server,
                } if *v == var => {
                    global_agg.entry(*part).or_default().push(*server);
                }
                SyncOpDesc::Update {
                    var: v,
                    part,
                    server,
                } if *v == var => {
                    update.entry(*part).or_default().push(*server);
                }
                _ => {}
            }
        }
        match placement {
            VarPlacement::AllReduce => {
                let wants_gatherv =
                    graph.is_sparse_variable(var) && matches!(config.arch, ArchChoice::ArOnly);
                let (want_ar, want_agv) = if wants_gatherv { (0, 1) } else { (1, 0) };
                if allreduce != want_ar || allgatherv != want_agv {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P007,
                            format!(
                                "AllReduce variable '{name}' schedules {allreduce} AllReduce \
                                 and {allgatherv} AllGatherv op(s); expected {want_ar} and \
                                 {want_agv}"
                            ),
                        )
                        .for_var(idx),
                    );
                }
                if local_agg + global_agg.len() + update.len() > 0 {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P007,
                            format!(
                                "AllReduce variable '{name}' schedules Parameter-Server \
                                 synchronization ops"
                            ),
                        )
                        .for_var(idx),
                    );
                }
            }
            placement => {
                if allreduce + allgatherv > 0 {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P007,
                            format!("Parameter-Server variable '{name}' schedules collective ops"),
                        )
                        .for_var(idx),
                    );
                }
                let want_lagg =
                    usize::from(config.local_aggregation && graph.is_sparse_variable(var));
                if local_agg != want_lagg {
                    report.push(
                        Diagnostic::error(
                            DiagCode::P007,
                            format!(
                                "variable '{name}' schedules {local_agg} LocalAgg op(s); the \
                                 configuration calls for {want_lagg}"
                            ),
                        )
                        .for_var(idx),
                    );
                }
                for (machine, part) in shard_coords(placement) {
                    for (what, seen) in [("GlobalAgg", &global_agg), ("Update", &update)] {
                        match seen.get(&part).map(Vec::as_slice) {
                            Some([s]) if *s == machine => {}
                            Some(servers) => {
                                report.push(
                                    Diagnostic::error(
                                        DiagCode::P007,
                                        format!(
                                            "shard {part} of '{name}' lives on server \
                                             {machine}, but its {what} op(s) are scheduled on \
                                             {servers:?}"
                                        ),
                                    )
                                    .for_var(idx),
                                );
                            }
                            None => {
                                report.push(
                                    Diagnostic::error(
                                        DiagCode::P007,
                                        format!(
                                            "shard {part} of '{name}' has no {what} op: its \
                                             update would never run"
                                        ),
                                    )
                                    .for_var(idx),
                                );
                            }
                        }
                    }
                }
                let parts: HashSet<usize> =
                    shard_coords(placement).iter().map(|&(_, p)| p).collect();
                for extra in global_agg.keys().chain(update.keys()) {
                    if !parts.contains(extra) {
                        report.push(
                            Diagnostic::error(
                                DiagCode::P007,
                                format!(
                                    "variable '{name}' schedules ops for partition {extra}, \
                                     which the placement does not define"
                                ),
                            )
                            .for_var(idx),
                        );
                        break;
                    }
                }
            }
        }
    }
}

/// Statically predicts the traffic of **one** synchronous iteration of a
/// plan by replaying its complete exchange schedule into a
/// [`StaticLedger`], and cross-checks every class against an independent
/// closed-form byte accounting (`B001`).
///
/// `feeds` supplies each worker's iteration-0 mini-batch (one entry per
/// worker, in worker order) — gather id lists, and therefore sparse
/// payload sizes, depend on the data. Gradient *structure* is
/// data-independent of where parameter values live, so the forward and
/// backward passes run against throwaway local replicas.
///
/// The returned [`TrafficReport`] is comparable field-for-field (`==`)
/// with the measured report of a real one-iteration run on the same
/// feeds. Gradient-trace reads (`trace_gradients`) are not modelled and
/// are rejected.
pub fn predict_iteration_traffic(
    graph: &Graph,
    loss: NodeId,
    plan: &DistributedPlan,
    topo: &PsTopology,
    config: &ParallaxConfig,
    feeds: &[Feed],
) -> Result<(TrafficReport, VerifyReport)> {
    if config.trace_gradients {
        return Err(CoreError::Config(
            "traffic prediction does not model gradient-trace reads (trace_gradients)".into(),
        ));
    }
    let workers = topo.num_workers();
    if feeds.len() != workers {
        return Err(CoreError::Config(format!(
            "{} feeds supplied for {workers} workers",
            feeds.len()
        )));
    }
    let machines = topo.num_machines();
    let sync = config.synchronous;
    let local_agg = config.local_aggregation && sync;
    let worker_ranks = topo.worker_ranks();
    let ledger = StaticLedger::new(topo.comm().clone());
    let session = Session::new(graph);
    let gatherv: HashSet<usize> = plan.gatherv_vars().iter().map(|v| v.index()).collect();
    let iter0 = 0u64;
    let req = tag::request_tag(iter0);

    // Closed-form accumulators, indexed by `TrafficClass as usize`. These
    // are computed from aggregate formulas (ring totals, id counts), not
    // by enumerating messages, so they can catch replay bugs.
    let mut cf = [0u64; TrafficClass::COUNT];

    // Per-worker forward + backward on a local replica store.
    let mut grads_by_worker: Vec<HashMap<VarId, Grad>> = Vec::with_capacity(workers);
    let mut gathers_by_worker: Vec<Vec<Vec<usize>>> = Vec::with_capacity(workers);
    for feed in feeds {
        let mut store = VarStore::init(graph, &mut DetRng::seed(config.seed));
        let acts = session.forward(feed, &mut store)?;
        let grads = backward(graph, &acts, loss)?;
        let mut gathers = Vec::new();
        for op in graph.ops() {
            if let Op::Gather { ids, .. } = op {
                gathers.push(acts.value(*ids)?.as_ids("plancheck")?.to_vec());
            }
        }
        grads_by_worker.push(grads);
        gathers_by_worker.push(gathers);
    }

    // ---- Forward phase: parameter pulls -------------------------------
    for (widx, &rank) in worker_ranks.iter().enumerate() {
        // Dense pulls are cached once per variable per iteration.
        let mut pulled: HashSet<usize> = HashSet::new();
        let mut gi = 0usize; // Gather-node cursor, aligned with graph order.
        for op in graph.ops() {
            let accessed = match op {
                Op::Variable(v) => Some(*v),
                Op::Gather { table, .. } => Some(*table),
                _ => None,
            };
            let gather_ids = if let Op::Gather { .. } = op {
                let ids = &gathers_by_worker[widx][gi];
                gi += 1;
                Some(ids)
            } else {
                None
            };
            let Some(var) = accessed else { continue };
            match plan.plan.placement(var).map_err(CoreError::Ps)? {
                VarPlacement::AllReduce => {}
                VarPlacement::PsDense { server } => {
                    if pulled.insert(var.index()) {
                        let srv = topo.server_rank(*server);
                        let elements = graph.var_def(var)?.num_elements() as u64;
                        ledger.charge(rank, srv, req, 16)?;
                        ledger.charge(
                            srv,
                            rank,
                            tag::response_tag(ReqKind::PullDense, var.index(), 0, iter0),
                            4 * elements,
                        )?;
                        cf[TrafficClass::Ps as usize] += 16 + 4 * elements;
                    }
                }
                VarPlacement::PsSparse { partition, servers } => {
                    // A dense read of a partitioned variable errors at
                    // runtime; `check_plan` reports it as P002, and the
                    // predictor has no schedule to replay for it.
                    let Some(ids) = gather_ids else {
                        return Err(CoreError::Config(format!(
                            "dense read of partition-sharded variable {} (P002)",
                            var.index()
                        )));
                    };
                    let cols = var_cols(graph.var_def(var)?) as u64;
                    let mut counts = vec![0u64; partition.parts()];
                    for &id in ids {
                        let (p, _) = partition.route(id).map_err(CoreError::Ps)?;
                        counts[p] += 1;
                    }
                    // Every partition is addressed, empty requests included
                    // (the server's per-iteration pull quota counts them).
                    for (p, &cnt) in counts.iter().enumerate() {
                        let srv = topo.server_rank(servers[p]);
                        ledger.charge(rank, srv, req, 8 + 8 * cnt)?;
                        ledger.charge(
                            srv,
                            rank,
                            tag::response_tag(ReqKind::PullSparse, var.index(), p, iter0),
                            4 * cnt * cols,
                        )?;
                    }
                    cf[TrafficClass::Ps as usize] +=
                        partition.parts() as u64 * 8 + ids.len() as u64 * (8 + 4 * cols);
                }
            }
        }
    }

    // ---- Exchange phase: AllReduce / AllGatherv -----------------------
    for var in plan.ar_vars() {
        let present = grads_by_worker
            .iter()
            .filter(|g| g.contains_key(&var))
            .count();
        if present == 0 {
            continue; // Legal: AR variables without gradients are skipped.
        }
        if present != workers {
            return Err(CoreError::Config(format!(
                "variable {} has a gradient on {present}/{workers} workers; the collective \
                 would deadlock",
                var.index()
            )));
        }
        let sparse = grads_by_worker[0][&var].is_sparse();
        if sparse && gatherv.contains(&var.index()) {
            // Contribution sizes on the wire: packed (delta+varint
            // indices) under a compressing format, raw otherwise —
            // exactly what `allgatherv_slices_wire` sends.
            let contribs: Vec<u64> = grads_by_worker
                .iter()
                .map(|g| match &g[&var] {
                    Grad::Sparse(s) => slices_wire_bytes(s, config.wire_format),
                    Grad::Dense(_) => g[&var].byte_size(),
                })
                .collect();
            replay_allgatherv(
                &ledger,
                &worker_ranks,
                tag::gatherv_tag(var.index(), iter0),
                &contribs,
            )?;
            if workers > 1 {
                cf[TrafficClass::Mpi as usize] +=
                    (workers as u64 - 1) * contribs.iter().sum::<u64>();
            }
        } else {
            // Dense gradient, or a sparse one densified onto the ring.
            let elems = match &grads_by_worker[0][&var] {
                Grad::Dense(t) => t.data().len(),
                Grad::Sparse(s) => s.dense_rows() * s.cols(),
            };
            replay_ring_allreduce_wire(
                &ledger,
                &worker_ranks,
                tag::allreduce_tag(var.index(), iter0),
                elems,
                config.wire_format,
            )?;
            if workers > 1 {
                // Each element crosses every rank boundary twice (reduce-
                // scatter + allgather) at the wire scalar width.
                let ws = config.wire_format.scalar_bytes();
                cf[TrafficClass::Nccl as usize] += 2 * ws * elems as u64 * (workers as u64 - 1);
            }
        }
    }

    // ---- Exchange phase: Parameter Server pushes ----------------------
    let widx_of = |rank: usize| -> usize {
        worker_ranks
            .iter()
            .position(|&r| r == rank)
            .expect("rank is a worker")
    };
    let ps_vars = plan.ps_vars();
    for &var in &ps_vars {
        let def = graph.var_def(var)?;
        for g in &grads_by_worker {
            if !g.contains_key(&var) {
                return Err(CoreError::Config(format!(
                    "PS variable '{}' receives no gradient; servers would stall (P008)",
                    def.name
                )));
            }
        }
        let placement = plan.plan.placement(var).map_err(CoreError::Ps)?.clone();
        // Local aggregation applies to sparse variables only; dense PS
        // gradients always push per worker (ring-ordered accumulator).
        if local_agg && graph.is_sparse_variable(var) {
            for m in 0..machines {
                let peers = topo.workers_of(m);
                let chief = topo.local_chief(m);
                let tag = tag::local_agg_tag(var.index(), iter0);
                // Non-chief workers ship their raw gradient to the local
                // chief: dense as Floats, sparse as Slices — both are
                // exactly the gradient's byte size.
                let sizes: Vec<u64> = peers
                    .iter()
                    .map(|&r| grads_by_worker[widx_of(r)][&var].byte_size())
                    .collect();
                replay_reduce_to(&ledger, &peers, tag, chief, &sizes)?;
                cf[TrafficClass::LocalAgg as usize] += peers
                    .iter()
                    .zip(&sizes)
                    .filter(|(&r, _)| r != chief)
                    .map(|(_, &b)| b)
                    .sum::<u64>();
                // The chief pushes the machine aggregate.
                match (&placement, &grads_by_worker[widx_of(chief)][&var]) {
                    (VarPlacement::PsDense { server }, Grad::Dense(t)) => {
                        let bytes = 8 + t.byte_size();
                        ledger.charge(chief, topo.server_rank(*server), req, bytes)?;
                        cf[TrafficClass::Ps as usize] += bytes;
                    }
                    (VarPlacement::PsSparse { partition, servers }, Grad::Sparse(s)) => {
                        // The aggregate's rows are the distinct rows any of
                        // the machine's workers touched (coalescing merges
                        // duplicates without dropping rows).
                        let mut rows: HashSet<usize> = HashSet::new();
                        for &r in &peers {
                            match &grads_by_worker[widx_of(r)][&var] {
                                Grad::Sparse(s) => rows.extend(s.indices().iter().copied()),
                                Grad::Dense(_) => {
                                    return Err(CoreError::Config(format!(
                                        "mixed gradient kinds for variable '{}'",
                                        def.name
                                    )))
                                }
                            }
                        }
                        let cols = s.cols() as u64;
                        let mut per_part = vec![0u64; partition.parts()];
                        for &row in &rows {
                            let (p, _) = partition.route(row).map_err(CoreError::Ps)?;
                            per_part[p] += 1;
                        }
                        for (p, &nnz) in per_part.iter().enumerate() {
                            let bytes = 8 + nnz * (4 * cols + 8);
                            ledger.charge(chief, topo.server_rank(servers[p]), req, bytes)?;
                        }
                        cf[TrafficClass::Ps as usize] +=
                            partition.parts() as u64 * 8 + rows.len() as u64 * (4 * cols + 8);
                    }
                    _ => {
                        return Err(CoreError::Config(format!(
                            "gradient kind of '{}' does not match its placement",
                            def.name
                        )))
                    }
                }
            }
        } else {
            // No local aggregation (or asynchronous): every worker pushes
            // its raw gradient, duplicate rows and all.
            for (widx, &rank) in worker_ranks.iter().enumerate() {
                match (&placement, &grads_by_worker[widx][&var]) {
                    (VarPlacement::PsDense { server }, Grad::Dense(t)) => {
                        let bytes = 8 + t.byte_size();
                        ledger.charge(rank, topo.server_rank(*server), req, bytes)?;
                        cf[TrafficClass::Ps as usize] += bytes;
                    }
                    (VarPlacement::PsSparse { partition, servers }, Grad::Sparse(s)) => {
                        let cols = s.cols() as u64;
                        let mut per_part = vec![0u64; partition.parts()];
                        for &row in s.indices() {
                            let (p, _) = partition.route(row).map_err(CoreError::Ps)?;
                            per_part[p] += 1;
                        }
                        for (p, &nnz) in per_part.iter().enumerate() {
                            let bytes = 8 + nnz * (4 * cols + 8);
                            ledger.charge(rank, topo.server_rank(servers[p]), req, bytes)?;
                        }
                        cf[TrafficClass::Ps as usize] +=
                            partition.parts() as u64 * 8 + s.nnz_rows() as u64 * (4 * cols + 8);
                    }
                    _ => {
                        return Err(CoreError::Config(format!(
                            "gradient kind of '{}' does not match its placement",
                            def.name
                        )))
                    }
                }
            }
        }
    }

    // ---- Chief update triggers and update notifications ---------------
    if sync {
        let chief = topo.chief();
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            for (m, _part) in shard_coords(placement) {
                ledger.charge(chief, topo.server_rank(m), req, 16)?;
                cf[TrafficClass::Ps as usize] += 16;
            }
        }
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            for (m, part) in shard_coords(placement) {
                let srv = topo.server_rank(m);
                let tag = tag::response_tag(ReqKind::UpdateDone, var.index(), part, iter0);
                for &r in &worker_ranks {
                    ledger.charge(srv, r, tag, 8)?;
                }
                // Response tags classify as PS traffic.
                cf[TrafficClass::Ps as usize] += 8 * workers as u64;
            }
        }
    }

    // ---- B001: conservation crosscheck --------------------------------
    let mut report = VerifyReport::new();
    for class in TrafficClass::all() {
        let snap = ledger.class_snapshot(class);
        let replayed = snap.total_network_bytes() + snap.intra_bytes();
        let formula = cf[class as usize];
        if replayed != formula {
            report.push(Diagnostic::error(
                DiagCode::B001,
                format!(
                    "predicted {class:?} traffic is {replayed} B, but the closed-form \
                     accounting yields {formula} B"
                ),
            ));
        }
    }
    let traffic = TrafficReport {
        nccl: ledger.class_snapshot(TrafficClass::Nccl),
        mpi: ledger.class_snapshot(TrafficClass::Mpi),
        ps: ledger.class_snapshot(TrafficClass::Ps),
        local_agg: ledger.class_snapshot(TrafficClass::LocalAgg),
        other: ledger.class_snapshot(TrafficClass::Default),
    };
    Ok((traffic, report))
}

/// Transforms the graph and refuses to return a plan that fails
/// verification: the graph passes (structure, kinds, liveness, shapes)
/// and the plan passes ([`check_plan`]) run first, and any
/// error-severity diagnostic aborts with [`CoreError::Verify`] carrying
/// the rendered report. This is the gate behind
/// [`crate::runner::get_runner`].
pub fn build_verified_plan(
    graph: &Graph,
    loss: NodeId,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    topo: &PsTopology,
    partitions: usize,
) -> Result<DistributedPlan> {
    let plan = transform(
        graph,
        profile,
        config,
        topo.num_machines(),
        topo.num_workers(),
        partitions,
    )?;
    let mut report = verify_graph(graph, Some(loss), None);
    report.merge(check_plan(graph, Some(loss), profile, config, topo, &plan));
    // The protocol session machine is derived from the plan and checked
    // alongside it (`C...` codes): a plan whose wire choreography cannot
    // complete an iteration is as unusable as a mistiled one.
    let spec = crate::protocheck::derive_session(graph, config, topo, &plan)?;
    report.merge(crate::protocheck::check_session(
        graph, config, topo, &plan, &spec,
    ));
    if report.has_errors() {
        return Err(CoreError::Verify(report.render()));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::profile_from_parts;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::VariableDef;

    fn model() -> (Graph, NodeId, SparsityProfile) {
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
        (g, loss, profile)
    }

    #[test]
    fn well_formed_plan_verifies_cleanly() {
        let (g, loss, profile) = model();
        let config = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let plan = transform(&g, &profile, &config, 2, 4, 2).unwrap();
        let report = check_plan(&g, Some(loss), &profile, &config, &topo, &plan);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn partition_count_tamper_is_p006() {
        let (g, loss, profile) = model();
        let config = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let mut plan = transform(&g, &profile, &config, 2, 4, 2).unwrap();
        plan.partitions = 3; // Decisions still say 2.
        let report = check_plan(&g, Some(loss), &profile, &config, &topo, &plan);
        assert!(report.has_code(DiagCode::P006), "{}", report.render());
    }

    #[test]
    fn missing_update_op_is_p007() {
        let (g, loss, profile) = model();
        let config = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let mut plan = transform(&g, &profile, &config, 2, 4, 2).unwrap();
        let before = plan.sync_ops.len();
        plan.sync_ops
            .retain(|op| !matches!(op, SyncOpDesc::Update { part: 1, .. }));
        assert!(plan.sync_ops.len() < before);
        let report = check_plan(&g, Some(loss), &profile, &config, &topo, &plan);
        assert!(report.has_code(DiagCode::P007), "{}", report.render());
    }

    #[test]
    fn unused_ps_variable_is_p008_and_gates_the_runner() {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [8, 2], Init::Glorot))
            .unwrap();
        let orphan = g
            .variable(VariableDef::new("orphan", [4, 2], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let gathered = g.add(Op::Gather { table: emb, ids }).unwrap();
        let loss = g.add(Op::MeanAll(gathered)).unwrap();
        let profile = profile_from_parts(vec![(emb, true, 0.5, 8, 16), (orphan, false, 1.0, 4, 8)]);
        let config = ParallaxConfig {
            arch: ArchChoice::PsOnly { optimized: true },
            ..ParallaxConfig::default()
        };
        let topo = PsTopology::uniform(2, 1).unwrap();
        let plan = transform(&g, &profile, &config, 2, 2, 2).unwrap();
        let report = check_plan(&g, Some(loss), &profile, &config, &topo, &plan);
        assert!(report.has_code(DiagCode::P008), "{}", report.render());
        let err = build_verified_plan(&g, loss, &profile, &config, &topo, 2).unwrap_err();
        match err {
            CoreError::Verify(rendered) => assert!(rendered.contains("P008")),
            other => panic!("expected Verify error, got {other:?}"),
        }
    }
}
