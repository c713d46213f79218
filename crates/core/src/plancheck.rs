//! Static plan verifier: distributed-plan passes and traffic prediction.
//!
//! The single-device graph passes (`G...`/`S...` codes) live in
//! [`parallax_dataflow::verify`]; this module adds the distributed
//! half, run against a [`DistributedPlan`] *before any thread spawns*:
//!
//! * [`check_plan`] — cross-checks the plan against an independent
//!   re-derivation of the hybrid decision (`P001`, `P002`, `P006`), the
//!   partition tiling invariants (`P003`–`P005`), and gradient
//!   reachability for Parameter-Server variables (`P008`, the "servers
//!   wait forever" hazard);
//! * [`predict_iteration_traffic`] — charges every steady-state event of
//!   the plan's session machine (pulls, collectives, local aggregation,
//!   pushes, chief updates, update notifications), sized from one
//!   iteration's feeds, into a [`StaticLedger`] and cross-checks each
//!   traffic class against an independent closed-form byte accounting
//!   (`B001`);
//! * [`build_verified_plan`] — the gate [`crate::runner::get_runner`]
//!   uses: transform, verify graph + plan, refuse to return a plan whose
//!   report contains errors.

use std::collections::{HashMap, HashSet};

use parallax_comm::predict::{allgatherv_hop_source, ring_allreduce_hop_bytes};
use parallax_comm::protocheck::{SessionSpec, WireKind};
use parallax_comm::tag::{self, ReqKind};
use parallax_comm::wire::slices_wire_bytes;
use parallax_comm::{StaticLedger, TrafficClass};
use parallax_dataflow::grad::backward;
use parallax_dataflow::verify::{verify_graph, DiagCode, Diagnostic, VerifyReport};
use parallax_dataflow::{Feed, Graph, NodeId, Op, Session, VarId, VarStore, VariableDef};
use parallax_ps::placement::SyncDecision;
use parallax_ps::{PsTopology, VarPlacement};
use parallax_tensor::{sparse::Grad, DetRng};

use crate::config::ParallaxConfig;
use crate::hybrid;
use crate::runner::TrafficReport;
use crate::sparsity::SparsityProfile;
use crate::transform::{transform, DistributedPlan, Exchange};
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
/// violation becomes a typed diagnostic (`P001`–`P006`, `P008`), never a
/// panic.
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

    report
}

/// Statically predicts the traffic of **one** synchronous iteration of a
/// plan by charging every steady-state event of its session machine
/// ([`crate::protocheck::derive_session`]) into a [`StaticLedger`], and
/// cross-checks every class against an independent closed-form byte
/// accounting (`B001`).
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
    let spec = crate::protocheck::derive_session(graph, config, topo, plan)?;
    predict_from_session(graph, loss, plan, topo, config, feeds, &spec)
}

/// What an iteration's feeds fix about its traffic: per worker, each
/// variable's gradient and the id list of each of its gather nodes, in
/// graph order.
struct Fed {
    grads: Vec<HashMap<VarId, Grad>>,
    gathers: Vec<HashMap<VarId, Vec<Vec<usize>>>>,
}

impl Fed {
    fn grad(&self, topo: &PsTopology, rank: usize, var: VarId) -> Result<&Grad> {
        Ok(&self.grads[topo.worker_position(rank)?][&var])
    }
}

fn kind_mismatch(name: &str) -> CoreError {
    CoreError::Config(format!(
        "gradient kind of '{name}' does not match its placement"
    ))
}

/// Runs every worker's forward and backward pass on its feed, and
/// refuses the schedules no run could complete.
fn run_feeds(
    graph: &Graph,
    loss: NodeId,
    plan: &DistributedPlan,
    config: &ParallaxConfig,
    feeds: &[Feed],
) -> Result<Fed> {
    let session = Session::new(graph);
    let mut fed = Fed {
        grads: Vec::with_capacity(feeds.len()),
        gathers: Vec::with_capacity(feeds.len()),
    };
    for feed in feeds {
        let mut store = VarStore::init(graph, &mut DetRng::seed(config.seed));
        let acts = session.forward(feed, &mut store)?;
        fed.grads.push(backward(graph, &acts, loss)?);
        let mut gathers: HashMap<VarId, Vec<Vec<usize>>> = HashMap::new();
        for op in graph.ops() {
            match op {
                Op::Gather { table, ids } => gathers
                    .entry(*table)
                    .or_default()
                    .push(acts.value(*ids)?.as_ids("plancheck")?.to_vec()),
                // A dense read of a partitioned variable errors at
                // runtime; `check_plan` reports it as P002, and the
                // predictor has no schedule for it.
                Op::Variable(v) => {
                    if let VarPlacement::PsSparse { .. } =
                        plan.plan.placement(*v).map_err(CoreError::Ps)?
                    {
                        return Err(CoreError::Config(format!(
                            "dense read of partition-sharded variable {} (P002)",
                            v.index()
                        )));
                    }
                }
                _ => {}
            }
        }
        fed.gathers.push(gathers);
    }
    for var in plan.ps_vars() {
        if fed.grads.iter().any(|g| !g.contains_key(&var)) {
            return Err(CoreError::Config(format!(
                "PS variable '{}' receives no gradient; servers would stall (P008)",
                graph.var_def(var)?.name
            )));
        }
    }
    Ok(fed)
}

/// What an AllReduce variable's gradient puts on the wire: this many
/// elements around the ring, or each worker's AllGatherv contribution of
/// this many bytes.
enum Exchanged {
    Ring(usize),
    Gatherv(Vec<u64>),
}

/// What AllReduce variable `var` exchanges; `None` when no worker has a
/// gradient for it (legal: the collective is skipped).
fn exchange_of(
    fed: &Fed,
    graph: &Graph,
    plan: &DistributedPlan,
    var: VarId,
    config: &ParallaxConfig,
) -> Result<Option<Exchanged>> {
    let workers = fed.grads.len();
    let present = fed.grads.iter().filter(|g| g.contains_key(&var)).count();
    if present == 0 {
        return Ok(None);
    }
    if present != workers {
        return Err(CoreError::Config(format!(
            "variable {} has a gradient on {present}/{workers} workers; the collective \
             would deadlock",
            var.index()
        )));
    }
    let name = &graph.var_def(var)?.name;
    Ok(Some(match plan.exchange(graph, config, var) {
        // Contribution sizes on the wire: packed (delta+varint
        // indices) under a compressing format, raw otherwise —
        // exactly what `allgatherv_slices_parts_wire` sends.
        Exchange::Gatherv => Exchanged::Gatherv(
            fed.grads
                .iter()
                .map(|g| match &g[&var] {
                    Grad::Sparse(s) => Ok(slices_wire_bytes(s, config.wire_format)),
                    Grad::Dense(_) => Err(kind_mismatch(name)),
                })
                .collect::<Result<_>>()?,
        ),
        // A sparse gradient densifies onto the ring.
        Exchange::Ring => match &fed.grads[0][&var] {
            Grad::Sparse(s) => Exchanged::Ring(s.dense_rows() * s.cols()),
            Grad::Dense(t) => Exchanged::Ring(t.data().len()),
        },
        Exchange::Push | Exchange::LocalAggPush => return Err(kind_mismatch(name)),
    }))
}

/// Rows and row width of `pusher`'s sparse push of `var`: its own
/// gradient's rows, duplicates and all, or under local aggregation the
/// distinct rows any worker of its machine touched (coalescing merges
/// duplicates without dropping rows).
fn pushed_rows(
    graph: &Graph,
    plan: &DistributedPlan,
    topo: &PsTopology,
    config: &ParallaxConfig,
    fed: &Fed,
    pusher: usize,
    var: VarId,
) -> Result<(Vec<usize>, u64)> {
    let name = &graph.var_def(var)?.name;
    let by_machine = plan.exchange(graph, config, var) == Exchange::LocalAggPush;
    let peers = if by_machine {
        topo.workers_of(topo.machine_of(pusher)?)
    } else {
        vec![pusher]
    };
    let (mut rows, mut cols) = (Vec::new(), 0);
    for r in peers {
        match fed.grad(topo, r, var)? {
            Grad::Sparse(s) => {
                rows.extend_from_slice(s.indices());
                if r == pusher {
                    cols = s.cols() as u64;
                }
            }
            Grad::Dense(_) if r == pusher => return Err(kind_mismatch(name)),
            Grad::Dense(_) => {
                return Err(CoreError::Config(format!(
                    "mixed gradient kinds for variable '{name}'"
                )))
            }
        }
    }
    if by_machine {
        rows.sort_unstable();
        rows.dedup();
    }
    Ok((rows, cols))
}

/// The prediction over a given session machine: charges the `sends`
/// messages of each steady-state event, sized from the feeds, into a
/// ledger under the event's tag, then checks every class against
/// [`closed_form_bytes`] (`B001`).
pub(crate) fn predict_from_session(
    graph: &Graph,
    loss: NodeId,
    plan: &DistributedPlan,
    topo: &PsTopology,
    config: &ParallaxConfig,
    feeds: &[Feed],
    spec: &SessionSpec,
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
    let fed = run_feeds(graph, loss, plan, config, feeds)?;
    let ledger = StaticLedger::new(topo.comm().clone());
    let req = tag::request_tag(0);
    let ring = spec.workers.len();
    // The fused ring carries every bucket variable that has a gradient,
    // in bucket order; with none it is skipped.
    let bucket = plan.ring_bucket(graph, config);
    let mut ring_lens = Vec::new();
    for &var in &bucket {
        if let Some(Exchanged::Ring(elems)) = exchange_of(&fed, graph, plan, var, config)? {
            ring_lens.push(elems);
        }
    }
    for e in spec.events.iter().filter(|e| !e.boundary_only) {
        let var = VarId::from_index(e.var);
        let def = graph.var_def(var)?;
        let one = |bytes: u64| vec![bytes; e.sends as usize];
        // How many of `ids` route to the event's partition.
        let routed = |ids: &[usize]| -> Result<u64> {
            let VarPlacement::PsSparse { partition, .. } =
                plan.plan.placement(var).map_err(CoreError::Ps)?
            else {
                return Err(CoreError::Config(format!(
                    "'{}' addresses a partition of unpartitioned '{}'",
                    e.label, def.name
                )));
            };
            let mut n = 0;
            for &id in ids {
                n += u64::from(partition.route(id).map_err(CoreError::Ps)?.0 == e.part);
            }
            Ok(n)
        };
        let (tag, sizes) = match e.kind {
            WireKind::Request(ReqKind::PullDense | ReqKind::ChiefUpdate) => (req, one(16)),
            WireKind::Response(ReqKind::PullDense) => (
                tag::response_tag(ReqKind::PullDense, e.var, 0, 0),
                one(4 * def.num_elements() as u64),
            ),
            // One request (8-byte header plus the ids) and one reply
            // (their rows) per gather node.
            WireKind::Request(ReqKind::PullSparse) | WireKind::Response(ReqKind::PullSparse) => {
                let reply = matches!(e.kind, WireKind::Response(_));
                let worker = topo.worker_position(if reply { e.to } else { e.from })?;
                let mut sizes = Vec::new();
                for ids in fed.gathers[worker].get(&var).into_iter().flatten() {
                    let n = routed(ids)?;
                    sizes.push(if reply {
                        4 * n * var_cols(def) as u64
                    } else {
                        8 + 8 * n
                    });
                }
                match reply {
                    true => (
                        tag::response_tag(ReqKind::PullSparse, e.var, e.part, 0),
                        sizes,
                    ),
                    false => (req, sizes),
                }
            }
            WireKind::Collective => {
                if bucket.first().map(|v| v.index()) != Some(e.var) {
                    return Err(CoreError::Config(format!(
                        "'{}' is not the plan's ring bucket: '{}' is not its first variable",
                        e.label, def.name
                    )));
                }
                if ring_lens.is_empty() {
                    continue;
                }
                let pos = topo.worker_position(e.from)?;
                (
                    tag::allreduce_tag(e.var, 0),
                    (0..2 * (ring - 1))
                        .map(|h| {
                            ring_allreduce_hop_bytes(&ring_lens, ring, pos, h, config.wire_format)
                        })
                        .collect(),
                )
            }
            WireKind::Gatherv => {
                let pos = topo.worker_position(e.from)?;
                match exchange_of(&fed, graph, plan, var, config)? {
                    Some(Exchanged::Gatherv(contribs)) => (
                        tag::gatherv_tag(e.var, 0),
                        (0..ring - 1)
                            .map(|h| contribs[allgatherv_hop_source(ring, pos, h)])
                            .collect(),
                    ),
                    // No worker has a gradient: the collective is skipped.
                    None => continue,
                    Some(Exchanged::Ring(_)) => {
                        return Err(CoreError::Config(format!(
                            "'{}' is not the exchange the plan gives '{}'",
                            e.label, def.name
                        )))
                    }
                }
            }
            // Non-chief workers ship their raw sparse gradient to the
            // local chief as Slices: exactly the gradient's byte size.
            WireKind::LocalAgg => (
                tag::local_agg_tag(e.var, 0),
                one(fed.grad(topo, e.from, var)?.byte_size()),
            ),
            WireKind::Request(ReqKind::PushDense) => match fed.grad(topo, e.from, var)? {
                Grad::Dense(t) => (req, one(8 + t.byte_size())),
                Grad::Sparse(_) => return Err(kind_mismatch(&def.name)),
            },
            // An 8-byte header, then a value row and an index per row.
            WireKind::Request(ReqKind::PushSparse) => {
                let (rows, cols) = pushed_rows(graph, plan, topo, config, &fed, e.from, var)?;
                (req, one(8 + routed(&rows)? * (4 * cols + 8)))
            }
            WireKind::Response(ReqKind::UpdateDone) => (
                tag::response_tag(ReqKind::UpdateDone, e.var, e.part, 0),
                one(8),
            ),
            kind => {
                return Err(CoreError::Config(format!(
                    "traffic prediction does not model {kind:?} messages ('{}')",
                    e.label
                )))
            }
        };
        if sizes.len() as u64 != e.sends {
            return Err(CoreError::Config(format!(
                "'{}' sends {} message(s) per iteration, but the feeds size {}",
                e.label,
                e.sends,
                sizes.len()
            )));
        }
        for bytes in sizes {
            ledger.charge(e.from, e.to, tag, bytes)?;
        }
    }

    let cf = closed_form_bytes(graph, plan, topo, config, &fed)?;
    let mut report = VerifyReport::new();
    for class in TrafficClass::all() {
        let snap = ledger.class_snapshot(class);
        let charged = snap.total_network_bytes() + snap.intra_bytes();
        let formula = cf[class as usize];
        if charged != formula {
            report.push(Diagnostic::error(
                DiagCode::B001,
                format!(
                    "predicted {class:?} traffic is {charged} B, but the closed-form \
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

/// `B001`'s reference: each traffic class's bytes, indexed by
/// `TrafficClass as usize`, from aggregate formulas over the gradients
/// and gather ids (ring totals, id counts, row unions). Nothing here
/// reads the session's events, so a wrong enumeration shows.
fn closed_form_bytes(
    graph: &Graph,
    plan: &DistributedPlan,
    topo: &PsTopology,
    config: &ParallaxConfig,
    fed: &Fed,
) -> Result<[u64; TrafficClass::COUNT]> {
    let mut cf = [0u64; TrafficClass::COUNT];
    let workers = fed.grads.len() as u64;
    let hops = workers.saturating_sub(1);
    for var in plan.ar_vars() {
        match exchange_of(fed, graph, plan, var, config)? {
            // Each element crosses every rank boundary twice (reduce-
            // scatter + allgather) at the wire scalar width.
            Some(Exchanged::Ring(elems)) => {
                cf[TrafficClass::Nccl as usize] +=
                    2 * config.wire_format.scalar_bytes() * elems as u64 * hops;
            }
            Some(Exchanged::Gatherv(contribs)) => {
                cf[TrafficClass::Mpi as usize] += hops * contribs.iter().sum::<u64>();
            }
            None => {}
        }
    }
    let mut ps = 0u64;
    for var in plan.ps_vars() {
        let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
        let def = graph.var_def(var)?;
        let mut pushers = topo.worker_ranks();
        if plan.exchange(graph, config, var) == Exchange::LocalAggPush {
            // Every other worker ships its gradient to its machine's
            // chief, which pushes for the machine.
            pushers = (0..topo.num_machines())
                .map(|m| topo.local_chief(m))
                .collect();
            for (g, r) in fed.grads.iter().zip(topo.worker_ranks()) {
                if !pushers.contains(&r) {
                    cf[TrafficClass::LocalAgg as usize] += g[&var].byte_size();
                }
            }
        }
        match placement {
            VarPlacement::AllReduce => {}
            // Every worker pulls the value with a 16-byte request; every
            // pusher sends an 8-byte header plus its gradient.
            VarPlacement::PsDense { .. } => {
                ps += workers * (16 + 4 * def.num_elements() as u64);
                for &r in &pushers {
                    ps += 8 + fed.grad(topo, r, var)?.byte_size();
                }
            }
            // Per gather node, every partition takes an 8-byte request
            // header and every id 8 request bytes plus a value row; every
            // push takes a header per partition and a value row plus an
            // index per row.
            VarPlacement::PsSparse { partition, .. } => {
                let parts = partition.parts() as u64;
                let cols = var_cols(def) as u64;
                for ids in fed.gathers.iter().filter_map(|g| g.get(&var)).flatten() {
                    ps += parts * 8 + ids.len() as u64 * (8 + 4 * cols);
                }
                for &r in &pushers {
                    let (rows, cols) = pushed_rows(graph, plan, topo, config, fed, r, var)?;
                    ps += parts * 8 + rows.len() as u64 * (4 * cols + 8);
                }
            }
        }
        // Per shard, the chief's 16-byte trigger and an 8-byte
        // notification to every worker.
        if config.synchronous {
            ps += shard_coords(placement).len() as u64 * (16 + 8 * workers);
        }
    }
    cf[TrafficClass::Ps as usize] = ps;
    Ok(cf)
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
    verified_plan_and_session(graph, loss, profile, config, topo, partitions).map(|(plan, _)| plan)
}

/// [`build_verified_plan`], also returning the session machine it
/// checked, so a caller that predicts traffic folds over that same spec
/// instead of deriving it again.
pub(crate) fn verified_plan_and_session(
    graph: &Graph,
    loss: NodeId,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    topo: &PsTopology,
    partitions: usize,
) -> Result<(DistributedPlan, SessionSpec)> {
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
    Ok((plan, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchChoice;
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

    /// The traffic classes `B001` flags when the prediction folds over
    /// the hybrid model's session on 2 machines x 2 GPUs, as `tamper`
    /// leaves it.
    fn b001_classes(tamper: impl FnOnce(&mut SessionSpec)) -> Vec<String> {
        let (g, loss, profile) = model();
        let config = ParallaxConfig::default();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let plan = transform(&g, &profile, &config, 2, 4, 2).unwrap();
        let feeds: Vec<Feed> = (0..4)
            .map(|w| Feed::new().with("ids", vec![w, w + 5, 11 - w, w]))
            .collect();
        let mut spec = crate::protocheck::derive_session(&g, &config, &topo, &plan).unwrap();
        tamper(&mut spec);
        let (_, report) =
            predict_from_session(&g, loss, &plan, &topo, &config, &feeds, &spec).unwrap();
        report
            .errors()
            .filter(|d| d.code == DiagCode::B001)
            .map(|d| d.message.split_whitespace().nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn missing_push_event_is_b001_for_ps() {
        assert_eq!(b001_classes(|_| {}), Vec::<String>::new());
        let classes = b001_classes(|spec| {
            let idx = spec
                .events
                .iter()
                .position(|e| e.kind == WireKind::Request(ReqKind::PushSparse))
                .expect("hybrid plan pushes sparse gradients");
            spec.events_mut().remove(idx);
        });
        assert_eq!(classes, vec!["Ps"]);
    }

    #[test]
    fn duplicated_ring_event_is_b001_for_nccl() {
        let classes = b001_classes(|spec| {
            let ring = spec
                .events
                .iter()
                .find(|e| e.kind == WireKind::Collective)
                .expect("hybrid plan all-reduces its dense variable")
                .clone();
            spec.events_mut().push(ring);
        });
        assert_eq!(classes, vec!["Nccl"]);
    }

    #[test]
    fn ring_bucket_charges_the_variables_that_have_a_gradient() {
        // `orphan` leads the ring bucket but never reaches the loss. The
        // fused ring then carries `w` alone, under `orphan`'s tag; with
        // `w` cut off too, no bucket variable has a gradient and the ring
        // is skipped. Either way the prediction equals a measured
        // iteration, bytes and messages.
        for with_w in [true, false] {
            let mut g = Graph::new();
            let orphan = g
                .variable(VariableDef::new("orphan", [3, 2], Init::Glorot))
                .unwrap();
            let emb = g
                .variable(VariableDef::new("emb", [12, 4], Init::Glorot))
                .unwrap();
            let w = g
                .variable(VariableDef::new("w", [4, 2], Init::Glorot))
                .unwrap();
            let ids = g.placeholder("ids", PhKind::Ids).unwrap();
            let mut h = g.add(Op::Gather { table: emb, ids }).unwrap();
            if with_w {
                let wn = g.add(Op::Variable(w)).unwrap();
                h = g.add(Op::MatMul(h, wn)).unwrap();
            }
            let loss = g.add(Op::MeanAll(h)).unwrap();
            let profile = profile_from_parts(vec![
                (orphan, false, 1.0, 3, 6),
                (emb, true, 0.25, 12, 48),
                (w, false, 1.0, 4, 8),
            ]);
            let config = ParallaxConfig::horovod_baseline();
            let runner =
                crate::runner::get_runner(g.clone(), loss, vec![1, 1], config.clone(), profile)
                    .unwrap();
            assert_eq!(runner.plan().ring_bucket(&g, &config), vec![orphan, w]);
            let feeds: Vec<Feed> = (0..2)
                .map(|k| Feed::new().with("ids", vec![k, k + 5, 11 - k]))
                .collect();
            let (predicted, report) = predict_iteration_traffic(
                &g,
                loss,
                runner.plan(),
                runner.topology(),
                &config,
                &feeds,
            )
            .unwrap();
            assert!(!report.has_errors(), "{}", report.render());
            let measured = runner.run(1, |k, _| feeds[k].clone()).unwrap().traffic;
            for (class, p, m) in [
                ("nccl", &predicted.nccl, &measured.nccl),
                ("mpi", &predicted.mpi, &measured.mpi),
                ("ps", &predicted.ps, &measured.ps),
            ] {
                assert_eq!(p, m, "{class} with_w={with_w}");
            }
            let ring = &predicted.nccl;
            let expect = if with_w { (4, 2 * 4 * 8) } else { (0, 0) };
            assert_eq!(
                (
                    ring.inter_messages + ring.intra_messages,
                    ring.total_network_bytes()
                ),
                expect,
                "with_w={with_w}"
            );
        }
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
            arch: ArchChoice::PsOnly,
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
