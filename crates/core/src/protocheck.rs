//! Protocol session checker: derives and verifies the wire-protocol
//! session machine of a verified plan (`C001`–`C008`).
//!
//! [`derive_session`] lifts the ad-hoc conventions connecting
//! `comm::tag`, the PS client/server choreography and the runner's
//! collective schedule into one typed artifact: a
//! [`parallax_comm::protocheck::SessionSpec`] listing, for one
//! steady-state iteration, every message identity each link may carry,
//! with multiplicities derived from the *sender's* program (client
//! choreography, ring algebra). It is the only enumeration of an
//! iteration's messages outside the runner: the traffic predictor
//! ([`crate::plancheck::predict_iteration_traffic`]) sizes and charges
//! these same events.
//!
//! [`check_session`] is the static pass, run from
//! [`crate::plancheck::build_verified_plan`] next to the plan passes:
//!
//! * `C001` — send/receive pairing: per-shard request totals match the
//!   *receiver's* synchronization arithmetic, the quota the server
//!   itself sums into its barrier (`ps::server::shard_quota`);
//! * `C002` — reply obligations: every pull/read/fetch request is
//!   discharged by exactly one correctly-addressed response event, and
//!   synchronous shards notify every worker;
//! * `C003` — cross-phase leakage: no two events share a full wire
//!   identity (link + namespace + kind + variable + partition);
//! * `C004` — deadlock freedom: the per-iteration wait-for graph
//!   (program-order and reply edges) is acyclic;
//! * `C005` — dedup safety: non-idempotent request kinds are covered by
//!   the server's at-most-once guard and duplicated pulls are caught by
//!   the exact-count guard;
//! * `C006` — fault readiness: a fault plan that can drop messages or
//!   kill peers requires the receive deadline to be armed;
//! * `C007` — publish discipline: `FetchShard` only from the chief, only
//!   at checkpoint boundaries, ordered after update application;
//! * `C008` — well-formedness of the spec itself (rank/var/part ranges,
//!   self-loops, zero multiplicities, dangling references).
//!
//! The same spec compiles into a
//! [`parallax_comm::protocheck::SessionValidator`] that the runner
//! installs on every endpoint in debug builds (and whenever
//! `validate_protocol` is set), turning runtime protocol drift into a
//! typed `CommError::Protocol`.

use std::collections::{HashMap, HashSet};

use parallax_comm::protocheck::{MsgEvent, Phase, SessionSpec, WireKind};
use parallax_comm::tag::{ReqKind, MAX_PARTS, MAX_VARS};
use parallax_dataflow::verify::{DiagCode, Diagnostic, VerifyReport};
use parallax_dataflow::Graph;
use parallax_fault::{FaultAction, FaultPlan};
use parallax_ps::server::{shard_quota, ServerConfig};
use parallax_ps::{PsTopology, VarPlacement};

use crate::config::ParallaxConfig;
use crate::plancheck::shard_coords;
use crate::transform::{DistributedPlan, Exchange};
use crate::{CoreError, Result};

/// The effective checkpoint/snapshot interval of a configuration:
/// `checkpoint_interval` when a checkpoint or serving-snapshot path is
/// configured under synchronous training, else 0 (disabled). The
/// runner's workers, the servers' barrier arithmetic and the session
/// machine's boundary events must all agree on this value, so they all
/// derive it from here.
pub(crate) fn effective_checkpoint_interval(config: &ParallaxConfig) -> usize {
    let persists = config.checkpoint_path.is_some() || config.snapshot_path.is_some();
    if persists && config.synchronous {
        config.checkpoint_interval
    } else {
        0
    }
}

/// The server configuration every shard host derives from a job's
/// configuration. The runner's servers (in-process and `repro dist`
/// processes alike) and `C001`'s quota both build it here, so the
/// barrier the checker reads is the one the servers run.
pub(crate) fn server_config(
    config: &ParallaxConfig,
    iterations: usize,
    start_iteration: usize,
) -> ServerConfig {
    ServerConfig {
        iterations,
        start_iteration,
        checkpoint_interval: effective_checkpoint_interval(config),
        average_gradients: config.average_sparse,
        local_aggregation: config.local_aggregation && config.synchronous,
        synchronous: config.synchronous,
        serve_aggregates: config.trace_gradients,
        seed: config.seed,
        lr_schedule: config.lr_schedule,
    }
}

/// All request kinds the server's `seen_once` guard deduplicates (every
/// non-pull kind; pulls are instead protected by the exact-count guard).
fn guarded_kinds() -> Vec<ReqKind> {
    vec![
        ReqKind::PushDense,
        ReqKind::PushSparse,
        ReqKind::ChiefUpdate,
        ReqKind::ReadAgg,
        ReqKind::FetchShard,
    ]
}

#[allow(clippy::too_many_arguments)] // every field of the event identity is load-bearing
fn base_event(
    phase: Phase,
    from: usize,
    to: usize,
    kind: WireKind,
    var: usize,
    part: usize,
    mult: u64,
    label: String,
) -> MsgEvent {
    MsgEvent {
        phase,
        from,
        to,
        kind,
        var,
        part,
        sends: mult,
        tag_uses: 1,
        boundary_only: false,
        reply_of: None,
        deps: Vec::new(),
        label,
    }
}

/// Derives the per-iteration session machine of a verified plan: every
/// message identity the runner's workers and servers exchange in one
/// steady-state iteration, plus the checkpoint-boundary publish events.
///
/// The derivation walks the plan's placements and each variable's
/// [`Exchange`] the way the runner's worker loop does (pull → exchange →
/// local-agg → push → trigger → notify → trace-read → publish), so the
/// resulting spec is exactly the allowed-set the live protocol inhabits.
pub fn derive_session(
    graph: &Graph,
    config: &ParallaxConfig,
    topo: &PsTopology,
    plan: &DistributedPlan,
) -> Result<SessionSpec> {
    let workers = topo.worker_ranks();
    let nworkers = workers.len();
    let machines = topo.num_machines();
    let chief = topo.chief();
    let servers: Vec<usize> = (0..machines).map(|m| topo.server_rank(m)).collect();
    let sync = config.synchronous;
    let trace = config.trace_gradients && sync;
    let interval = effective_checkpoint_interval(config);
    let name_of = |var: usize| -> String {
        graph
            .variables()
            .get(var)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("#{var}"))
    };

    let mut events: Vec<MsgEvent> = Vec::new();
    // Dependency bookkeeping, keyed by rank or by shard coordinate
    // (server rank, var, part). Events are appended in worker program
    // order, so dependencies always point backwards and the derived
    // wait-for graph is acyclic by construction.
    let mut pull_resps: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut pull_reqs_of_shard: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
    let mut coll_of: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut lagg_recv: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut push_of: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut push_to_shard: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
    let mut trigger_of_shard: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut done_to: HashMap<usize, Vec<usize>> = HashMap::new();

    let ps_vars = plan.ps_vars();
    let ar_vars = plan.ar_vars();
    let exchange = |var| plan.exchange(graph, config, var);

    // ---- Pull phase ---------------------------------------------------
    for &var in &ps_vars {
        let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
        let v = var.index();
        match placement {
            VarPlacement::AllReduce => {}
            VarPlacement::PsDense { server } => {
                let srv = topo.server_rank(*server);
                for &w in &workers {
                    let req = base_event(
                        Phase::Pull,
                        w,
                        srv,
                        WireKind::Request(ReqKind::PullDense),
                        v,
                        0,
                        1,
                        format!("worker {w} pulls '{}'", name_of(v)),
                    );
                    events.push(req);
                    let req_idx = events.len() - 1;
                    pull_reqs_of_shard
                        .entry((srv, v, 0))
                        .or_default()
                        .push(req_idx);
                    let mut resp = base_event(
                        Phase::Pull,
                        srv,
                        w,
                        WireKind::Response(ReqKind::PullDense),
                        v,
                        0,
                        1,
                        format!("server {srv} serves '{}' to worker {w}", name_of(v)),
                    );
                    resp.reply_of = Some(req_idx);
                    resp.deps = vec![req_idx];
                    events.push(resp);
                    pull_resps.entry(w).or_default().push(events.len() - 1);
                }
            }
            VarPlacement::PsSparse { partition, servers } => {
                // One `PullSparse` per gather node per partition per
                // worker — the server counts `workers * gathers` into its
                // per-shard quota, empty id lists included. All requests
                // of one worker to one shard share the response tag, so
                // the reply event carries `tag_uses = gathers`.
                let gathers = graph.gather_nodes_of(var).len().max(1) as u64;
                for (p, &machine) in servers.iter().enumerate().take(partition.parts()) {
                    let srv = topo.server_rank(machine);
                    for &w in &workers {
                        let req = base_event(
                            Phase::Pull,
                            w,
                            srv,
                            WireKind::Request(ReqKind::PullSparse),
                            v,
                            p,
                            gathers,
                            format!("worker {w} pulls rows of '{}' part {p}", name_of(v)),
                        );
                        events.push(req);
                        let req_idx = events.len() - 1;
                        pull_reqs_of_shard
                            .entry((srv, v, p))
                            .or_default()
                            .push(req_idx);
                        let mut resp = base_event(
                            Phase::Pull,
                            srv,
                            w,
                            WireKind::Response(ReqKind::PullSparse),
                            v,
                            p,
                            gathers,
                            format!(
                                "server {srv} serves rows of '{}' part {p} to worker {w}",
                                name_of(v)
                            ),
                        );
                        resp.tag_uses = gathers;
                        resp.reply_of = Some(req_idx);
                        resp.deps = vec![req_idx];
                        events.push(resp);
                        pull_resps.entry(w).or_default().push(events.len() - 1);
                    }
                }
            }
        }
    }

    // ---- Exchange phase: ring collectives -----------------------------
    // Every step each worker sends one message to ring-next under its
    // collective's one reused tag: first the fused AllReduce of the ring
    // bucket (2(N-1) steps, tagged by the bucket's first variable), then
    // each pure-AR sparse variable's AllGatherv (N-1 steps).
    if nworkers > 1 {
        let mut ring_steps = |kind, v: usize, steps: u64, what: String| {
            for i in 0..nworkers {
                let from = workers[i];
                let to = workers[(i + 1) % nworkers];
                let mut e = base_event(Phase::Exchange, from, to, kind, v, 0, steps, what.clone());
                e.tag_uses = steps;
                e.deps = pull_resps.get(&from).cloned().unwrap_or_default();
                events.push(e);
                coll_of.entry(from).or_default().push(events.len() - 1);
            }
        };
        let bucket = plan.ring_bucket(graph, config);
        if let Some(first) = bucket.first() {
            let what = format!(
                "AllReduce ring step for the {} variable(s) from '{}'",
                bucket.len(),
                name_of(first.index())
            );
            ring_steps(
                WireKind::Collective,
                first.index(),
                2 * (nworkers as u64 - 1),
                what,
            );
        }
        for &var in &ar_vars {
            if exchange(var) == Exchange::Gatherv {
                let what = format!("AllGatherv ring step for '{}'", name_of(var.index()));
                ring_steps(WireKind::Gatherv, var.index(), nworkers as u64 - 1, what);
            }
        }
    }

    // ---- Local aggregation --------------------------------------------
    for &var in &ps_vars {
        if exchange(var) == Exchange::LocalAggPush {
            let v = var.index();
            for m in 0..machines {
                let lchief = topo.local_chief(m);
                for &w in &topo.workers_of(m) {
                    if w == lchief {
                        continue;
                    }
                    let mut e = base_event(
                        Phase::LocalAgg,
                        w,
                        lchief,
                        WireKind::LocalAgg,
                        v,
                        0,
                        1,
                        format!("worker {w} ships '{}' to local chief {lchief}", name_of(v)),
                    );
                    let mut deps = pull_resps.get(&w).cloned().unwrap_or_default();
                    deps.extend(coll_of.get(&w).cloned().unwrap_or_default());
                    e.deps = deps;
                    events.push(e);
                    lagg_recv.entry(lchief).or_default().push(events.len() - 1);
                }
            }
        }
    }

    // ---- Push phase ---------------------------------------------------
    // Pusher set per variable: machine chiefs for locally-aggregated
    // variables, every worker otherwise.
    let chief_pushers: Vec<usize> = (0..machines).map(|m| topo.local_chief(m)).collect();
    for &var in &ps_vars {
        let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
        let v = var.index();
        let kind = match placement {
            VarPlacement::PsDense { .. } => ReqKind::PushDense,
            VarPlacement::PsSparse { .. } => ReqKind::PushSparse,
            VarPlacement::AllReduce => continue,
        };
        let pushers: &[usize] = if exchange(var) == Exchange::LocalAggPush {
            &chief_pushers
        } else {
            &workers
        };
        for (m, p) in shard_coords(placement) {
            let srv = topo.server_rank(m);
            for &pusher in pushers {
                let mut e = base_event(
                    Phase::Push,
                    pusher,
                    srv,
                    WireKind::Request(kind),
                    v,
                    p,
                    1,
                    format!("rank {pusher} pushes '{}' part {p}", name_of(v)),
                );
                let mut deps = pull_resps.get(&pusher).cloned().unwrap_or_default();
                deps.extend(coll_of.get(&pusher).cloned().unwrap_or_default());
                deps.extend(lagg_recv.get(&pusher).cloned().unwrap_or_default());
                e.deps = deps;
                events.push(e);
                let idx = events.len() - 1;
                push_of.entry(pusher).or_default().push(idx);
                push_to_shard.entry((srv, v, p)).or_default().push(idx);
            }
        }
    }

    // ---- Chief trigger ------------------------------------------------
    if sync {
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            let v = var.index();
            for (m, p) in shard_coords(placement) {
                let srv = topo.server_rank(m);
                let mut e = base_event(
                    Phase::Trigger,
                    chief,
                    srv,
                    WireKind::Request(ReqKind::ChiefUpdate),
                    v,
                    p,
                    1,
                    format!("chief triggers update of '{}' part {p}", name_of(v)),
                );
                e.deps = push_of.get(&chief).cloned().unwrap_or_default();
                events.push(e);
                trigger_of_shard.insert((srv, v, p), events.len() - 1);
            }
        }
    }

    // ---- Update notifications -----------------------------------------
    if sync {
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            let v = var.index();
            for (m, p) in shard_coords(placement) {
                let srv = topo.server_rank(m);
                // The server applies once its quota for the shard is met:
                // all pulls served, all pushes in, the chief trigger seen.
                let mut shard_deps: Vec<usize> = pull_reqs_of_shard
                    .get(&(srv, v, p))
                    .cloned()
                    .unwrap_or_default();
                shard_deps.extend(push_to_shard.get(&(srv, v, p)).cloned().unwrap_or_default());
                let trigger = trigger_of_shard.get(&(srv, v, p)).copied();
                shard_deps.extend(trigger);
                for &w in &workers {
                    let mut e = base_event(
                        Phase::Notify,
                        srv,
                        w,
                        WireKind::Response(ReqKind::UpdateDone),
                        v,
                        p,
                        1,
                        format!("server {srv} notifies worker {w}: '{}' applied", name_of(v)),
                    );
                    e.reply_of = trigger;
                    e.deps = shard_deps.clone();
                    events.push(e);
                    done_to.entry(w).or_default().push(events.len() - 1);
                }
            }
        }
    }

    // ---- Trace reads --------------------------------------------------
    if trace {
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            let v = var.index();
            for (m, p) in shard_coords(placement) {
                let srv = topo.server_rank(m);
                for &w in &workers {
                    let mut req = base_event(
                        Phase::TraceRead,
                        w,
                        srv,
                        WireKind::Request(ReqKind::ReadAgg),
                        v,
                        p,
                        1,
                        format!("worker {w} reads aggregate of '{}' part {p}", name_of(v)),
                    );
                    req.deps = done_to.get(&w).cloned().unwrap_or_default();
                    events.push(req);
                    let req_idx = events.len() - 1;
                    let mut resp = base_event(
                        Phase::TraceRead,
                        srv,
                        w,
                        WireKind::Response(ReqKind::ReadAgg),
                        v,
                        p,
                        1,
                        format!(
                            "server {srv} serves aggregate of '{}' part {p} to worker {w}",
                            name_of(v)
                        ),
                    );
                    resp.reply_of = Some(req_idx);
                    resp.deps = vec![req_idx];
                    events.push(resp);
                }
            }
        }
    }

    // ---- Checkpoint-boundary publish ----------------------------------
    if interval > 0 {
        for &var in &ps_vars {
            let placement = plan.plan.placement(var).map_err(CoreError::Ps)?;
            let v = var.index();
            for (m, p) in shard_coords(placement) {
                let srv = topo.server_rank(m);
                let mut req = base_event(
                    Phase::Publish,
                    chief,
                    srv,
                    WireKind::Request(ReqKind::FetchShard),
                    v,
                    p,
                    1,
                    format!("chief fetches '{}' part {p} for checkpoint", name_of(v)),
                );
                req.boundary_only = true;
                req.deps = done_to.get(&chief).cloned().unwrap_or_default();
                events.push(req);
                let req_idx = events.len() - 1;
                // The server replies with the shard value and its
                // optimizer slot state: two messages FIFO-ordered under
                // one response tag, only after the update applied.
                let mut resp = base_event(
                    Phase::Publish,
                    srv,
                    chief,
                    WireKind::Response(ReqKind::FetchShard),
                    v,
                    p,
                    2,
                    format!("server {srv} ships '{}' part {p} to the chief", name_of(v)),
                );
                resp.boundary_only = true;
                resp.tag_uses = 2;
                resp.reply_of = Some(req_idx);
                let mut deps = vec![req_idx];
                deps.extend(
                    done_to
                        .get(&chief)
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&i| events[i].from == srv && events[i].var == v),
                );
                resp.deps = deps;
                events.push(resp);
            }
        }
    }

    Ok(SessionSpec {
        ranks: topo.num_endpoints(),
        chief,
        workers,
        servers,
        sync,
        checkpoint_interval: interval,
        deadline_armed: config.recv_deadline.is_some(),
        pull_exact_count: true,
        dedup_guarded: guarded_kinds(),
        events,
    })
}

/// Statically verifies a session spec against the plan it claims to
/// describe. Emits `C001`–`C008`; pure analysis, never panics on a
/// malformed spec.
pub fn check_session(
    graph: &Graph,
    config: &ParallaxConfig,
    topo: &PsTopology,
    plan: &DistributedPlan,
    spec: &SessionSpec,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    let n = spec.events.len();

    // ---- C008: well-formedness ----------------------------------------
    let mut malformed = vec![false; n];
    for (i, e) in spec.events.iter().enumerate() {
        let mut bad = |msg: String| {
            report.push(Diagnostic::error(DiagCode::C008, msg).for_var(e.var));
            malformed[i] = true;
        };
        if e.from >= spec.ranks || e.to >= spec.ranks {
            bad(format!(
                "event [{i}] '{}' uses rank {} -> {} outside the session's {} ranks",
                e.label, e.from, e.to, spec.ranks
            ));
        }
        if e.from == e.to {
            bad(format!("event [{i}] '{}' is a self-loop", e.label));
        }
        if e.var > MAX_VARS || e.part > MAX_PARTS {
            bad(format!(
                "event [{i}] '{}' targets var {} part {} beyond the wire header's \
                 {MAX_VARS}/{MAX_PARTS} capacity",
                e.label, e.var, e.part
            ));
        }
        if e.sends == 0 || e.tag_uses == 0 {
            bad(format!(
                "event [{i}] '{}' has zero multiplicity (sends {}, tag uses {})",
                e.label, e.sends, e.tag_uses
            ));
        }
        if let Some(r) = e.reply_of {
            if r >= n || r == i {
                bad(format!(
                    "event [{i}] '{}' replies to nonexistent event {r}",
                    e.label
                ));
            }
        }
        if e.deps.iter().any(|&d| d >= n) {
            bad(format!(
                "event [{i}] '{}' depends on a nonexistent event",
                e.label
            ));
        }
    }

    // ---- C003: cross-phase leakage ------------------------------------
    let mut by_identity: HashMap<(usize, usize, WireKind, usize, usize), Vec<usize>> =
        HashMap::new();
    for (i, e) in spec.events.iter().enumerate() {
        by_identity.entry(e.identity()).or_default().push(i);
    }
    for (identity, idxs) in &by_identity {
        if idxs.len() > 1 {
            let labels: Vec<&str> = idxs
                .iter()
                .map(|&i| spec.events[i].label.as_str())
                .collect();
            report.push(
                Diagnostic::error(
                    DiagCode::C003,
                    format!(
                        "{} distinct events share wire identity {} -> {} {:?} var {} part {} \
                         ({labels:?}): messages of one would be accepted as the other",
                        idxs.len(),
                        identity.0,
                        identity.1,
                        identity.2,
                        identity.3,
                        identity.4
                    ),
                )
                .for_var(identity.3),
            );
        }
    }

    // ---- C001: send/recv pairing --------------------------------------
    // The receiver's side is every hosted shard's barrier quota, from the
    // function the server sums, at a checkpoint boundary (where every
    // event of the session fires).
    let server = server_config(config, 1, 0);
    let boundary = (server.checkpoint_interval as u64).saturating_sub(1);
    let mut expected: HashMap<(usize, ReqKind, usize, usize), u64> = HashMap::new();
    for m in 0..topo.num_machines() {
        for (var, part, rows) in plan.plan.shards_of_machine(m) {
            let sparse = rows != (0..usize::MAX);
            let gathers = graph.gather_nodes_of(var).len();
            for (kind, n) in shard_quota(&server, topo, sparse, gathers, boundary) {
                if n > 0 {
                    expected.insert((topo.server_rank(m), kind, var.index(), part), n as u64);
                }
            }
        }
    }
    let mut actual: HashMap<(usize, ReqKind, usize, usize), u64> = HashMap::new();
    for e in &spec.events {
        if let WireKind::Request(k) = e.kind {
            *actual.entry((e.to, k, e.var, e.part)).or_insert(0) += e.sends;
        }
    }
    for (key, &want) in &expected {
        let got = actual.get(key).copied().unwrap_or(0);
        if got != want {
            report.push(
                Diagnostic::error(
                    DiagCode::C001,
                    format!(
                        "server {} expects {want} {:?} request(s) for var {} part {} per \
                         iteration, but the session sends {got}",
                        key.0,
                        WireKind::Request(key.1),
                        key.2,
                        key.3
                    ),
                )
                .for_var(key.2),
            );
        }
    }
    for (key, &got) in &actual {
        if !expected.contains_key(key) && spec.servers.contains(&key.0) {
            report.push(
                Diagnostic::error(
                    DiagCode::C001,
                    format!(
                        "the session sends {got} {:?} request(s) for var {} part {} to \
                         server {}, which counts none into its barrier",
                        WireKind::Request(key.1),
                        key.2,
                        key.3,
                        key.0
                    ),
                )
                .for_var(key.2),
            );
        }
    }

    // ---- C002: reply obligations --------------------------------------
    let mut replies_to: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, e) in spec.events.iter().enumerate() {
        if let Some(r) = e.reply_of {
            if r < n {
                replies_to.entry(r).or_default().push(i);
            }
        }
    }
    for (i, e) in spec.events.iter().enumerate() {
        if malformed[i] {
            continue;
        }
        let WireKind::Request(k) = e.kind else {
            // A response that discharges nothing (and is not an
            // UpdateDone broadcast, which replies to pushes collectively)
            // is drift: nobody is waiting for it.
            if let WireKind::Response(rk) = e.kind {
                if e.reply_of.is_none() && rk != ReqKind::UpdateDone {
                    report.push(
                        Diagnostic::error(
                            DiagCode::C002,
                            format!(
                                "event [{i}] '{}' is a response that discharges no request",
                                e.label
                            ),
                        )
                        .for_var(e.var),
                    );
                }
            }
            continue;
        };
        if !matches!(
            k,
            ReqKind::PullDense | ReqKind::PullSparse | ReqKind::ReadAgg | ReqKind::FetchShard
        ) {
            continue;
        }
        let replies = replies_to.get(&i).cloned().unwrap_or_default();
        if replies.len() != 1 {
            report.push(
                Diagnostic::error(
                    DiagCode::C002,
                    format!(
                        "request [{i}] '{}' obliges exactly one reply; the session has {}",
                        e.label,
                        replies.len()
                    ),
                )
                .for_var(e.var),
            );
            continue;
        }
        let r = &spec.events[replies[0]];
        let want_kind = WireKind::Response(k);
        if r.from != e.to
            || r.to != e.from
            || r.kind != want_kind
            || r.var != e.var
            || r.part != e.part
        {
            report.push(
                Diagnostic::error(
                    DiagCode::C002,
                    format!(
                        "reply '{}' is mis-paired with request [{i}] '{}': expected {:?} \
                         {} -> {} var {} part {}, got {:?} {} -> {} var {} part {}",
                        r.label,
                        e.label,
                        want_kind,
                        e.to,
                        e.from,
                        e.var,
                        e.part,
                        r.kind,
                        r.from,
                        r.to,
                        r.var,
                        r.part
                    ),
                )
                .for_var(e.var),
            );
        }
        if k == ReqKind::FetchShard && r.tag_uses != 2 {
            report.push(
                Diagnostic::error(
                    DiagCode::C002,
                    format!(
                        "FetchShard reply '{}' must carry two messages under one tag (value + \
                         optimizer state), but models {}",
                        r.label, r.tag_uses
                    ),
                )
                .for_var(e.var),
            );
        }
    }
    // Synchronous shards must notify every worker, or `await_update_done`
    // blocks forever.
    if spec.sync {
        let mut done_counts: HashMap<(usize, usize, usize), HashSet<usize>> = HashMap::new();
        let mut shards: HashSet<(usize, usize, usize)> = HashSet::new();
        for e in &spec.events {
            match e.kind {
                WireKind::Request(ReqKind::PushDense | ReqKind::PushSparse) => {
                    shards.insert((e.to, e.var, e.part));
                }
                WireKind::Response(ReqKind::UpdateDone) => {
                    done_counts
                        .entry((e.from, e.var, e.part))
                        .or_default()
                        .insert(e.to);
                }
                _ => {}
            }
        }
        for shard in &shards {
            let notified = done_counts.get(shard).map(HashSet::len).unwrap_or(0);
            if notified != spec.workers.len() {
                report.push(
                    Diagnostic::error(
                        DiagCode::C002,
                        format!(
                            "synchronous shard var {} part {} on server {} notifies \
                             {notified}/{} workers: the rest block forever in \
                             await_update_done",
                            shard.1,
                            shard.2,
                            shard.0,
                            spec.workers.len()
                        ),
                    )
                    .for_var(shard.1),
                );
            }
        }
    }

    // ---- C004: deadlock freedom ---------------------------------------
    if let Some(cycle) = find_cycle(spec) {
        let path: Vec<String> = cycle
            .iter()
            .map(|&i| format!("[{i}] {}", spec.events[i].label))
            .collect();
        report.push(Diagnostic::error(
            DiagCode::C004,
            format!(
                "the per-iteration wait-for graph has a cycle — every participant waits on \
                 the next: {}",
                path.join(" -> ")
            ),
        ));
    }

    // ---- C005: dedup safety -------------------------------------------
    let mut flagged: HashSet<ReqKind> = HashSet::new();
    for e in &spec.events {
        if let Some(k) = e.kind.non_idempotent_request() {
            if !spec.dedup_guarded.contains(&k) && flagged.insert(k) {
                report.push(
                    Diagnostic::error(
                        DiagCode::C005,
                        format!(
                            "{:?} is not idempotent and not covered by the server's \
                             at-most-once guard: a duplicated message would double-apply",
                            e.kind
                        ),
                    )
                    .for_var(e.var),
                );
            }
        }
    }
    if !spec.pull_exact_count
        && spec.events.iter().any(|e| {
            matches!(
                e.kind,
                WireKind::Request(ReqKind::PullDense) | WireKind::Request(ReqKind::PullSparse)
            )
        })
    {
        report.push(Diagnostic::error(
            DiagCode::C005,
            "the exact pull-count guard is disabled: a duplicated pull would silently skew \
             the server's synchronization barrier instead of raising a typed error"
                .to_string(),
        ));
    }

    // ---- C005/C006 under the configured fault plan --------------------
    report.merge(check_fault_plan(spec, &config.fault_plan));

    // ---- C007: publish discipline -------------------------------------
    for (i, e) in spec.events.iter().enumerate() {
        if malformed[i] {
            continue;
        }
        let is_fetch_req = e.kind == WireKind::Request(ReqKind::FetchShard);
        let is_fetch_resp = e.kind == WireKind::Response(ReqKind::FetchShard);
        if !is_fetch_req && !is_fetch_resp {
            continue;
        }
        if spec.checkpoint_interval == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::C007,
                    format!(
                        "event [{i}] '{}' publishes artifacts, but the session has no \
                         checkpoint interval",
                        e.label
                    ),
                )
                .for_var(e.var),
            );
            continue;
        }
        if !e.boundary_only {
            report.push(
                Diagnostic::error(
                    DiagCode::C007,
                    format!(
                        "event [{i}] '{}' is a shard fetch not gated on checkpoint-boundary \
                         iterations: servers would count an unexpected message into every \
                         iteration's barrier",
                        e.label
                    ),
                )
                .for_var(e.var),
            );
        }
        if is_fetch_req && e.from != spec.chief {
            report.push(
                Diagnostic::error(
                    DiagCode::C007,
                    format!(
                        "event [{i}] '{}': only the chief (rank {}) publishes artifacts, \
                         but rank {} sends FetchShard",
                        e.label, spec.chief, e.from
                    ),
                )
                .for_var(e.var),
            );
        }
        if is_fetch_req && spec.sync {
            let ordered = e
                .deps
                .iter()
                .any(|&d| d < n && spec.events[d].phase == Phase::Notify);
            if !ordered {
                report.push(
                    Diagnostic::error(
                        DiagCode::C007,
                        format!(
                            "event [{i}] '{}' is not ordered after update application \
                             (no UpdateDone dependency): it could snapshot pre-update values",
                            e.label
                        ),
                    )
                    .for_var(e.var),
                );
            }
        }
    }

    report
}

/// Fault-plan-specific session analysis, also folded into
/// [`check_session`]:
///
/// * `C005` — a `DuplicateMessage` fault on a link whose events reuse
///   one tag for multiple messages (ring steps, multi-message replies)
///   silently corrupts the FIFO stream: the receiver cannot tell the
///   duplicate from the next legitimate message;
/// * `C006` — a fault plan that can drop messages or kill peers with the
///   receive deadline disarmed converts every such fault into an
///   undetectable hang instead of a typed, recoverable error.
pub fn check_fault_plan(spec: &SessionSpec, faults: &FaultPlan) -> VerifyReport {
    let mut report = VerifyReport::new();
    let mut lossy = false;
    for action in faults.actions() {
        match action {
            FaultAction::DropMessage { .. }
            | FaultAction::KillWorker { .. }
            | FaultAction::KillServer { .. } => {
                lossy = true;
            }
            FaultAction::DuplicateMessage { from, to, .. } => {
                if let Some(e) = spec
                    .events
                    .iter()
                    .find(|e| e.from == *from && e.to == *to && e.tag_uses > 1)
                {
                    report.push(
                        Diagnostic::error(
                            DiagCode::C005,
                            format!(
                                "the fault plan duplicates a message on link {from} -> {to}, \
                                 whose event '{}' reuses one tag for {} messages: the \
                                 duplicate would merge into the FIFO stream undetected",
                                e.label, e.tag_uses
                            ),
                        )
                        .for_var(e.var),
                    );
                }
            }
            _ => {}
        }
    }
    if lossy && !spec.deadline_armed {
        report.push(Diagnostic::error(
            DiagCode::C006,
            "the fault plan can drop messages or kill peers, but the receive deadline is \
             disarmed: blocked receivers would hang forever instead of surfacing a typed, \
             recoverable failure"
                .to_string(),
        ));
    }
    report
}

/// Finds a cycle in the wait-for graph (dep and reply edges), if any.
/// Returns the events along one cycle, in order.
fn find_cycle(spec: &SessionSpec) -> Option<Vec<usize>> {
    let n = spec.events.len();
    let edges: Vec<Vec<usize>> = spec
        .events
        .iter()
        .map(|e| {
            let mut out: Vec<usize> = e.deps.iter().copied().filter(|&d| d < n).collect();
            if let Some(r) = e.reply_of {
                if r < n {
                    out.push(r);
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    // Iterative three-color DFS; a back edge to a gray node is a cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for root in 0..n {
        if color[root] != Color::White {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Gray;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            if *cursor < edges[node].len() {
                let next = edges[node][*cursor];
                *cursor += 1;
                match color[next] {
                    Color::White => {
                        color[next] = Color::Gray;
                        parent[next] = Some(node);
                        stack.push((next, 0));
                    }
                    Color::Gray => {
                        // Unwind the parent chain from `node` back to
                        // `next` to render the cycle.
                        let mut cycle = vec![next];
                        let mut cur = node;
                        while cur != next {
                            cycle.push(cur);
                            cur = parent[cur].expect("gray nodes have parents on the stack");
                        }
                        cycle.push(next);
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchChoice;
    use crate::sparsity::profile_from_parts;
    use crate::transform::transform;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::{NodeId, VarId, VariableDef};

    fn model() -> (Graph, NodeId, crate::sparsity::SparsityProfile) {
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

    fn derive(config: &ParallaxConfig) -> (Graph, PsTopology, DistributedPlan, SessionSpec) {
        let (g, _loss, profile) = model();
        let topo = PsTopology::uniform(2, 2).unwrap();
        let plan = transform(&g, &profile, config, 2, 4, 2).unwrap();
        let spec = derive_session(&g, config, &topo, &plan).unwrap();
        (g, topo, plan, spec)
    }

    #[test]
    fn hybrid_session_checks_cleanly() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, spec) = derive(&config);
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(!report.has_errors(), "{}", report.render());
        // The hybrid model has both collective and PS traffic.
        assert!(spec.events.iter().any(|e| e.kind == WireKind::Collective));
        assert!(spec
            .events
            .iter()
            .any(|e| matches!(e.kind, WireKind::Request(_))));
    }

    #[test]
    fn ring_bucket_is_one_collective_event_per_link() {
        // emb's alpha (0.25) reaches the threshold, so it densifies onto
        // the ring beside w. The bucket holds both, yet each ring link
        // carries one event: 2(N-1) messages under the first variable's
        // tag.
        let config = ParallaxConfig {
            alpha_dense_threshold: 0.05,
            ..ParallaxConfig::default()
        };
        let (g, topo, plan, spec) = derive(&config);
        let bucket = plan.ring_bucket(&g, &config);
        assert_eq!(bucket, vec![VarId::from_index(0), VarId::from_index(1)]);
        let workers = topo.worker_ranks();
        let n = workers.len();
        let ring: Vec<&MsgEvent> = spec
            .events
            .iter()
            .filter(|e| e.kind == WireKind::Collective)
            .collect();
        assert_eq!(ring.len(), n);
        for (i, e) in ring.iter().enumerate() {
            assert_eq!((e.from, e.to), (workers[i], workers[(i + 1) % n]));
            assert_eq!(e.var, bucket[0].index());
            assert_eq!(e.sends, 2 * (n as u64 - 1));
            assert_eq!(e.tag_uses, e.sends);
        }
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn pure_ar_session_checks_cleanly() {
        let config = ParallaxConfig::horovod_baseline();
        let (g, topo, plan, spec) = derive(&config);
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(!report.has_errors(), "{}", report.render());
        assert!(spec
            .events
            .iter()
            .all(|e| !matches!(e.kind, WireKind::Request(_))));
        assert!(spec.events.iter().any(|e| e.kind == WireKind::Gatherv));
    }

    #[test]
    fn boundary_session_includes_gated_fetches() {
        let config = ParallaxConfig {
            checkpoint_path: Some(std::path::PathBuf::from("/tmp/ck.bin")),
            checkpoint_interval: 2,
            ..ParallaxConfig::default()
        };
        let (g, topo, plan, spec) = derive(&config);
        assert_eq!(spec.checkpoint_interval, 2);
        let fetches: Vec<_> = spec
            .events
            .iter()
            .filter(|e| e.kind == WireKind::Request(ReqKind::FetchShard))
            .collect();
        assert!(!fetches.is_empty());
        assert!(fetches
            .iter()
            .all(|e| e.boundary_only && e.from == spec.chief));
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn async_session_has_no_sync_choreography() {
        let config = ParallaxConfig {
            synchronous: false,
            arch: ArchChoice::PsOnly,
            local_aggregation: false,
            ..ParallaxConfig::tf_ps_baseline()
        };
        let (g, topo, plan, spec) = derive(&config);
        assert!(!spec
            .events
            .iter()
            .any(|e| matches!(e.kind, WireKind::Response(ReqKind::UpdateDone))));
        assert!(!spec
            .events
            .iter()
            .any(|e| e.kind == WireKind::Request(ReqKind::ChiefUpdate)));
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn pushes_and_triggers_target_their_shards_server() {
        // Aggregation and update run on the server hosting each shard,
        // so every push and trigger for shard (var, part) goes to the
        // server rank of the machine its placement names.
        let (g, _loss, profile) = model();
        let topo = PsTopology::uniform(4, 2).unwrap();
        for config in [ParallaxConfig::default(), ParallaxConfig::opt_ps()] {
            let plan = transform(&g, &profile, &config, 4, 8, 8).unwrap();
            let spec = derive_session(&g, &config, &topo, &plan).unwrap();
            let mut checked = 0;
            for e in &spec.events {
                let WireKind::Request(
                    ReqKind::PushDense | ReqKind::PushSparse | ReqKind::ChiefUpdate,
                ) = e.kind
                else {
                    continue;
                };
                let machine = match plan.plan.placement(VarId::from_index(e.var)).unwrap() {
                    VarPlacement::PsSparse { servers, .. } => servers[e.part],
                    VarPlacement::PsDense { server } => *server,
                    VarPlacement::AllReduce => {
                        panic!("'{}' targets an AllReduce variable", e.label)
                    }
                };
                assert_eq!(e.to, topo.server_rank(machine), "{}", e.label);
                checked += 1;
            }
            assert!(checked > 0);
        }
    }

    #[test]
    fn tampered_multiplicity_is_c001() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, mut spec) = derive(&config);
        let idx = spec
            .events
            .iter()
            .position(|e| matches!(e.kind, WireKind::Request(ReqKind::PushSparse)))
            .expect("hybrid plan pushes sparse gradients");
        spec.events_mut()[idx].sends += 1;
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C001), "{}", report.render());
    }

    #[test]
    fn dropped_reply_is_c002() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, mut spec) = derive(&config);
        let idx = spec
            .events
            .iter()
            .position(|e| matches!(e.kind, WireKind::Response(ReqKind::PullSparse)))
            .expect("sparse pulls are replied to");
        spec.events_mut().remove(idx);
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C002), "{}", report.render());
    }

    #[test]
    fn dependency_cycle_is_c004() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, mut spec) = derive(&config);
        // Make the first event wait on the last: the last already
        // (transitively) waits on the first.
        let last = spec.events().len() - 1;
        spec.events_mut()[0].deps.push(last);
        spec.events_mut()[last].deps.push(0);
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C004), "{}", report.render());
    }

    #[test]
    fn unguarded_push_is_c005() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, mut spec) = derive(&config);
        spec.tamper_unguard(ReqKind::PushSparse);
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C005), "{}", report.render());
    }

    #[test]
    fn duplicate_fault_on_ring_link_is_c005() {
        let config = ParallaxConfig::default();
        let (_g, _topo, _plan, spec) = derive(&config);
        let ring = spec
            .events
            .iter()
            .find(|e| e.kind == WireKind::Collective)
            .expect("hybrid plan has ring traffic");
        let faults = FaultPlan::new().with(FaultAction::DuplicateMessage {
            from: ring.from,
            to: ring.to,
            nth: 0,
        });
        let report = check_fault_plan(&spec, &faults);
        assert!(report.has_code(DiagCode::C005), "{}", report.render());
        // The same duplicate on a dedup-guarded request link is safe.
        let req = spec
            .events
            .iter()
            .find(|e| matches!(e.kind, WireKind::Request(_)))
            .unwrap();
        let faults = FaultPlan::new().with(FaultAction::DuplicateMessage {
            from: req.from,
            to: req.to,
            nth: 0,
        });
        let report = check_fault_plan(&spec, &faults);
        assert!(!report.has_code(DiagCode::C005), "{}", report.render());
    }

    #[test]
    fn lossy_faults_with_disarmed_deadline_are_c006() {
        let config = ParallaxConfig::default();
        let (_g, _topo, _plan, mut spec) = derive(&config);
        spec.tamper_disarm_deadline();
        let faults = FaultPlan::new().with(FaultAction::DropMessage {
            from: spec.workers[0],
            to: spec.servers[0],
            nth: 0,
        });
        let report = check_fault_plan(&spec, &faults);
        assert!(report.has_code(DiagCode::C006), "{}", report.render());
    }

    #[test]
    fn out_of_phase_publish_is_c007() {
        let config = ParallaxConfig {
            checkpoint_path: Some(std::path::PathBuf::from("/tmp/ck.bin")),
            checkpoint_interval: 2,
            ..ParallaxConfig::default()
        };
        let (g, topo, plan, mut spec) = derive(&config);
        let idx = spec
            .events
            .iter()
            .position(|e| e.kind == WireKind::Request(ReqKind::FetchShard))
            .unwrap();
        spec.events_mut()[idx].boundary_only = false;
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C007), "{}", report.render());
    }

    #[test]
    fn malformed_event_is_c008() {
        let config = ParallaxConfig::default();
        let (g, topo, plan, mut spec) = derive(&config);
        spec.events_mut()[0].to = spec.events_mut()[0].from;
        let report = check_session(&g, &config, &topo, &plan, &spec);
        assert!(report.has_code(DiagCode::C008), "{}", report.render());
    }

    #[test]
    fn validator_compiled_from_derived_spec_accepts_the_protocol() {
        use parallax_comm::protocheck::SessionValidator;
        use parallax_comm::tag;
        let config = ParallaxConfig::default();
        let (_g, topo, _plan, spec) = derive(&config);
        let v = SessionValidator::from_spec(&spec);
        // A real pull request from worker rank to its variable's server,
        // as the client would send it (the hybrid plan serves the sparse
        // embedding from the PS).
        let pull = spec
            .events
            .iter()
            .find(|e| e.kind == WireKind::Request(ReqKind::PullSparse))
            .expect("sparse PS pulls exist");
        let header = tag::pack(ReqKind::PullSparse, pull.var, pull.part, 3);
        v.check(pull.from, pull.to, tag::request_tag(3), Some(header))
            .unwrap();
        // Drift: the same request from a server rank.
        assert!(v
            .check(
                topo.server_rank(0),
                pull.to,
                tag::request_tag(3),
                Some(header)
            )
            .is_err());
    }

    #[test]
    fn sessions_stay_within_var_id_capacity() {
        let (g, _loss, _profile) = model();
        assert!(g.variables().len() <= MAX_VARS);
    }
}
