//! The server process: shard storage, request serving, updates.
//!
//! One server runs per machine (colocated with that machine's workers —
//! "this colocation works well since workers are GPU-intensive while
//! servers run lightweight computation", Section 4.3). A server owns the
//! shards its machine was assigned, serves pulls, accumulates pushes,
//! and applies updates; in synchronous training the update is gated on
//! the chief worker's trigger and completion is announced to every
//! worker — the shared-queue notification of Section 5.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parallax_comm::tag::{self, ReqKind};
use parallax_comm::{Endpoint, Payload};
use parallax_dataflow::optimizer::LrSchedule;
use parallax_dataflow::varstore::init_rows;
use parallax_dataflow::{Graph, Optimizer, VarId, VarStore};
use parallax_tensor::{ops, sparse::Grad, DetRng, Tensor};
use parallax_trace::{span, span_with_flow, FlowPoint, SpanCat};

use crate::accumulator::{DenseAccumulator, SparseAccumulator};
use crate::plan::ShardingPlan;
use crate::topology::PsTopology;
use crate::{PsError, Result};

/// Server behaviour knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Training iterations to serve.
    pub iterations: usize,
    /// Divide aggregated gradients by the worker count (averaging) before
    /// the update; otherwise apply the sum.
    pub average_gradients: bool,
    /// Per-machine local aggregation of *sparse* gradients: only each
    /// machine's local chief pushes to sparse shards, which then expect
    /// `machines` pushes instead of `workers`. Dense shards always take
    /// one push per worker — a machine pre-sum would change the fold
    /// association away from the ring-AllReduce order dense aggregation
    /// replays.
    pub local_aggregation: bool,
    /// Synchronous training (the default): each shard's update waits
    /// for every push and for the chief worker's `ChiefUpdate` trigger
    /// (the paper's exact mechanism). When false, every push is applied
    /// immediately without waiting for the other workers — asynchronous
    /// SGD, with all the staleness that implies (Section 2.1; Parallax
    /// supports both modes).
    pub synchronous: bool,
    /// Serve `ReadAgg` requests: keep each shard's last aggregated
    /// gradient and let every worker read it (gradient tracing /
    /// global-norm clipping support, Section 5). Synchronous mode only.
    pub serve_aggregates: bool,
    /// Seed shared with workers so initial shard values match replicas.
    pub seed: u64,
    /// Learning-rate schedule, applied per iteration in lockstep with
    /// the workers' replicas.
    pub lr_schedule: LrSchedule,
    /// First iteration to serve (non-zero when resuming from a
    /// checkpoint; absolute iteration numbers keep tags and the lr
    /// schedule identical to an uninterrupted run).
    pub start_iteration: usize,
    /// Checkpoint cadence shared with the chief: on iterations where
    /// `(iter + 1) % interval == 0` the chief fetches every shard's
    /// value (`FetchShard`), and the server must count those messages in
    /// its drain loop. `0` disables checkpointing.
    pub checkpoint_interval: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            iterations: 1,
            average_gradients: true,
            local_aggregation: false,
            synchronous: true,
            serve_aggregates: false,
            seed: 0,
            lr_schedule: LrSchedule::Constant,
            start_iteration: 0,
            checkpoint_interval: 0,
        }
    }
}

/// The requests one shard counts into its synchronization barrier in
/// iteration `iter`, by kind (`0` where it expects none), pulls first:
/// one pull per worker (and per gather node of a sparse shard), one push
/// per worker (per machine for a locally aggregated sparse shard), the
/// chief's trigger, the workers' aggregate reads, and the chief's fetch
/// on a checkpoint boundary. [`Server`] sums these into the messages an
/// iteration must consume; the session checker's `C001` compares them
/// with the requests its session machine sends.
pub fn shard_quota(
    config: &ServerConfig,
    topo: &PsTopology,
    sparse: bool,
    gathers: usize,
    iter: u64,
) -> [(ReqKind, usize); 5] {
    let workers = topo.num_workers();
    let sync = config.synchronous;
    let interval = config.checkpoint_interval as u64;
    let boundary = interval > 0 && (iter + 1).is_multiple_of(interval);
    // Local aggregation is sparse-only: one push per machine's chief.
    let pushers = if sync && sparse && config.local_aggregation {
        topo.num_machines()
    } else {
        workers
    };
    let (pull, push) = if sparse {
        (ReqKind::PullSparse, ReqKind::PushSparse)
    } else {
        (ReqKind::PullDense, ReqKind::PushDense)
    };
    [
        (pull, workers * if sparse { gathers.max(1) } else { 1 }),
        (push, pushers),
        (ReqKind::ChiefUpdate, usize::from(sync)),
        (
            ReqKind::ReadAgg,
            workers * usize::from(sync && config.serve_aggregates),
        ),
        (ReqKind::FetchShard, usize::from(sync && boundary)),
    ]
}

struct ShardState {
    var: VarId,
    part: usize,
    /// Global row range for sparse shards (`0..MAX` marker for dense).
    rows: Range<usize>,
    value: Tensor,
    sparse: bool,
    /// Gather nodes reading the variable (each pulls once per worker).
    gathers: usize,
    /// Pull requests expected this iteration.
    pulls_expected: usize,
    dense_acc: DenseAccumulator,
    sparse_acc: SparseAccumulator,
    /// Aggregate released by an accumulator, awaiting the chief trigger.
    pending: Option<Grad>,
    /// The last applied aggregate, kept for `ReadAgg` requests. Stored
    /// as a ready-to-send payload so all readers share one allocation.
    last_aggregate: Option<Payload>,
    chief_seen: bool,
    pulls_seen: usize,
    applied: bool,
    pushes_seen: usize,
}

/// Trace span name for serving one request kind.
fn serve_span_name(kind: ReqKind) -> &'static str {
    match kind {
        ReqKind::PullDense => "ps.serve.pull_dense",
        ReqKind::PullSparse => "ps.serve.pull_sparse",
        ReqKind::PushDense => "ps.serve.push_dense",
        ReqKind::PushSparse => "ps.serve.push_sparse",
        ReqKind::ChiefUpdate => "ps.serve.chief_update",
        ReqKind::UpdateDone => "ps.serve.update_done",
        ReqKind::ReadAgg => "ps.serve.read_agg",
        ReqKind::FetchShard => "ps.serve.fetch_shard",
    }
}

/// A Parameter Server process.
pub struct Server {
    endpoint: Endpoint,
    topo: PsTopology,
    machine: usize,
    config: ServerConfig,
    optimizer: Box<dyn Optimizer>,
    base_lr: f32,
    shards: Vec<ShardState>,
    index: HashMap<(usize, usize), usize>,
    // Cached trace handles: looked up once here so the serve loop never
    // touches the tracer's name registry lock.
    wait_hist: parallax_trace::HistogramHandle,
    service_hist: parallax_trace::HistogramHandle,
    requests: parallax_trace::Counter,
    /// Optional fault injector: consulted at every iteration boundary
    /// for server-kill and stall faults (the runner installs this).
    faults: Option<std::sync::Arc<parallax_fault::FaultInjector>>,
}

impl Server {
    /// Builds the server for `machine`, initializing its shards from the
    /// deterministic initializer shared with workers.
    pub fn new(
        graph: &Graph,
        plan: &ShardingPlan,
        topo: PsTopology,
        endpoint: Endpoint,
        config: ServerConfig,
        optimizer: Box<dyn Optimizer>,
    ) -> Result<Self> {
        let machine = topo
            .machine_of(endpoint.rank())
            .map_err(|_| PsError::Protocol("server endpoint has no machine".into()))?;
        if topo.server_rank(machine) != endpoint.rank() {
            return Err(PsError::Protocol(format!(
                "endpoint rank {} is not machine {}'s server rank",
                endpoint.rank(),
                machine
            )));
        }
        let workers = topo.num_workers();
        let machines = topo.num_machines();
        // Accumulator shapes. Dense shards always take one push per
        // worker (positional, released in ring-fold order so PS-dense is
        // bitwise interchangeable with AllReduce; local aggregation is
        // sparse-only because a machine pre-sum has the wrong
        // association for the ring). Sparse shards take one push per
        // machine under local aggregation, or one per worker grouped by
        // machine otherwise — the release folds machine-blocked either
        // way, so both arrangements produce identical bits.
        let sparse_acc = if config.local_aggregation {
            SparseAccumulator::new(machines)
        } else {
            let mut machine_of = Vec::with_capacity(workers);
            for r in topo.worker_ranks() {
                machine_of.push(topo.machine_of(r)?);
            }
            SparseAccumulator::grouped(machine_of)
        };

        // Only this machine's shard rows are materialized. Every
        // variable's initializer still draws its whole random stream in
        // order, so the rows are bitwise those a full initialization
        // would slice out.
        let owned = plan.shards_of_machine(machine);
        let mut rng = DetRng::seed(config.seed);
        let mut values = Vec::with_capacity(owned.len());
        for (i, def) in graph.variables().iter().enumerate() {
            let rows: Vec<Range<usize>> = owned
                .iter()
                .filter(|(var, ..)| var.index() == i)
                .map(|(.., rows)| rows.clone())
                .collect();
            values.extend(init_rows(def, &mut rng, &rows)?);
        }
        let mut shards = Vec::new();
        let mut index = HashMap::new();
        // `owned` lists shards in variable order, partitions ascending:
        // the order `values` was filled in.
        for ((var, part, rows), value) in owned.into_iter().zip(values) {
            index.insert((var.index(), part), shards.len());
            shards.push(ShardState {
                var,
                part,
                sparse: rows != (0..usize::MAX),
                rows,
                value,
                gathers: graph.gather_nodes_of(var).len(),
                pulls_expected: 0,
                dense_acc: DenseAccumulator::new(workers),
                sparse_acc: sparse_acc.clone(),
                pending: None,
                last_aggregate: None,
                chief_seen: false,
                pulls_seen: 0,
                applied: false,
                pushes_seen: 0,
            });
        }
        let base_lr = optimizer.learning_rate();
        Ok(Server {
            endpoint,
            topo,
            machine,
            config,
            optimizer,
            base_lr,
            shards,
            index,
            wait_hist: parallax_trace::histogram("ps.wait_ns"),
            service_hist: parallax_trace::histogram("ps.service_ns"),
            requests: parallax_trace::counter("ps.requests"),
            faults: None,
        })
    }

    /// Installs a fault injector; the server then honours `KillServer`
    /// and `Stall` actions at iteration boundaries.
    pub fn set_faults(&mut self, faults: std::sync::Arc<parallax_fault::FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Number of shards this server owns.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The machine this server runs on.
    pub fn machine(&self) -> usize {
        self.machine
    }

    /// Overwrites every shard's value from `store` (restored checkpoint
    /// state), re-slicing sparse shards by their row ranges exactly as
    /// [`Server::new`] does from the initializer.
    pub fn restore_from(&mut self, store: &VarStore) -> Result<()> {
        for shard in &mut self.shards {
            let full = store.get(shard.var)?;
            shard.value = if shard.sparse {
                full.slice_rows(shard.rows.start, shard.rows.end)?
            } else {
                full.clone()
            };
        }
        Ok(())
    }

    /// Restores the optimizer's slot state for `var` from a checkpointed
    /// full-size tensor, re-slicing sparse shards by their row ranges
    /// exactly like [`Server::restore_from`] does for values. A slot
    /// name that does not match this optimizer's state kind (a config
    /// change between save and resume) is ignored, not an error.
    pub fn restore_slot(&mut self, var: VarId, slot_name: &str, full: &Tensor) -> Result<()> {
        if self.optimizer.state_name() != Some(slot_name) {
            return Ok(());
        }
        let targets: Vec<(u64, Option<std::ops::Range<usize>>)> = self
            .shards
            .iter()
            .filter(|s| s.var == var)
            .map(|s| {
                let slot = ((s.var.index() as u64) << 20) | s.part as u64;
                (slot, s.sparse.then(|| s.rows.clone()))
            })
            .collect();
        for (slot, rows) in targets {
            let state = match rows {
                Some(r) => full.slice_rows(r.start, r.end)?,
                None => full.clone(),
            };
            self.optimizer.import_slot(slot, state);
        }
        Ok(())
    }

    /// Serves all configured iterations (starting from
    /// `config.start_iteration` when resuming), then returns the final
    /// shard values as `((var, part), tensor)` pairs.
    pub fn run(mut self) -> Result<Vec<((VarId, usize), Tensor)>> {
        parallax_trace::set_thread_track(
            self.machine as u32,
            self.endpoint.rank() as u32,
            &format!("server(m{})", self.machine),
        );
        for iter in self.config.start_iteration as u64..self.config.iterations as u64 {
            parallax_trace::set_thread_iter(iter);
            self.run_iteration(iter)?;
        }
        Ok(self
            .shards
            .into_iter()
            .map(|s| ((s.var, s.part), s.value))
            .collect())
    }

    fn run_iteration(&mut self, iter: u64) -> Result<()> {
        // Fault hooks, mirroring the worker loop: a stall stretches this
        // iteration, a kill tears the server down before it serves any
        // request of step `iter` (its endpoint drop marks it dead so
        // blocked peers get `PeerDead` instead of hanging).
        if let Some(faults) = &self.faults {
            if let Some(d) = faults.stall_for(self.endpoint.rank(), iter) {
                std::thread::sleep(d);
            }
            if faults.kill_server_at(self.machine, iter) {
                return Err(PsError::Protocol(format!(
                    "fault injection: server on machine {} killed at step {iter}",
                    self.machine
                )));
            }
        }
        self.optimizer
            .set_learning_rate(self.config.lr_schedule.at(self.base_lr, iter));
        // Total messages this iteration must consume.
        let mut outstanding = 0;
        for shard in &mut self.shards {
            let quota = shard_quota(&self.config, &self.topo, shard.sparse, shard.gathers, iter);
            shard.pulls_expected = quota[0].1;
            outstanding += quota.iter().map(|&(_, n)| n).sum::<usize>();
            shard.pending = None;
            shard.chief_seen = false;
            shard.pulls_seen = 0;
            shard.applied = false;
            shard.pushes_seen = 0;
        }
        let mut seen_once: std::collections::HashSet<(usize, u64)> =
            std::collections::HashSet::new();
        while outstanding > 0 {
            // Queueing time: how long the server sat waiting for the next
            // request (its receive queue was empty that whole time).
            let traced = parallax_trace::enabled();
            let t0 = if traced { parallax_trace::now_ns() } else { 0 };
            let (from, payload) = {
                let _wait = span(SpanCat::Ps, "ps.wait");
                self.endpoint.recv_any(tag::request_tag(iter))?
            };
            let t1 = if traced { parallax_trace::now_ns() } else { 0 };
            let (header, body) = payload.into_packet()?;
            let (kind, var, part, hdr_iter) = tag::unpack(header).ok_or_else(|| {
                PsError::Protocol(format!("bad request kind in header {header:#x}"))
            })?;
            if hdr_iter != tag::wrap_iter(iter) {
                return Err(PsError::Protocol(format!(
                    "iteration mismatch: header {hdr_iter}, serving {iter}"
                )));
            }
            // At-most-once guard: every request kind except the pulls has
            // a legitimate per-sender cardinality of exactly one per
            // iteration, so a second copy of the same `(sender, header)`
            // is a duplicated delivery (e.g. an injected `Duplicate`
            // fault) and is dropped here — consuming it would double-
            // count a push into the aggregate, silently corrupting the
            // update. Pulls are exempt: a variable with several gather
            // nodes legitimately pulls the same shard more than once,
            // and pull responses are idempotent reads anyway. Spurious
            // copies do not count against `outstanding`.
            let once = !matches!(kind, ReqKind::PullDense | ReqKind::PullSparse);
            if once && !seen_once.insert((from, header)) {
                continue;
            }
            {
                // Service time: the span also absorbs the bytes of any
                // response sends issued while handling the request. Push
                // serves close the flow opened by the worker's push span
                // (the sender rank comes from the transport envelope).
                let flow = match kind {
                    ReqKind::PushDense | ReqKind::PushSparse => {
                        FlowPoint::Finish(tag::flow_id(kind, var, part, from, iter))
                    }
                    _ => FlowPoint::None,
                };
                let _serve = span_with_flow(SpanCat::Ps, serve_span_name(kind), flow);
                self.dispatch(iter, from, kind, var, part, body)?;
            }
            if traced {
                self.wait_hist.record(t1.saturating_sub(t0));
                self.service_hist
                    .record(parallax_trace::now_ns().saturating_sub(t1));
                self.requests.add(1);
            }
            outstanding -= 1;
        }
        // In synchronous mode every shard's update must have fired.
        if self.config.synchronous {
            if let Some(s) = self.shards.iter().find(|s| !s.applied) {
                return Err(PsError::Protocol(format!(
                    "iteration {iter} ended with unapplied shard (var {}, part {})",
                    s.var.index(),
                    s.part
                )));
            }
        }
        Ok(())
    }

    fn shard_idx(&self, var: usize, part: usize) -> Result<usize> {
        self.index
            .get(&(var, part))
            .copied()
            .ok_or_else(|| PsError::Plan(format!("shard (var {var}, part {part}) not owned")))
    }

    fn dispatch(
        &mut self,
        iter: u64,
        from: usize,
        kind: ReqKind,
        var: usize,
        part: usize,
        body: Payload,
    ) -> Result<()> {
        let idx = self.shard_idx(var, part)?;
        match kind {
            ReqKind::PullDense => {
                body.into_control()?;
                let shard = &mut self.shards[idx];
                shard.pulls_seen += 1;
                let value = shard.value.clone();
                self.endpoint.send(
                    from,
                    tag::response_tag(ReqKind::PullDense, var, part, iter),
                    Payload::Tensor(Arc::new(value)),
                )?;
            }
            ReqKind::PullSparse => {
                let ids = body.into_ids()?;
                let shard = &mut self.shards[idx];
                shard.pulls_seen += 1;
                let rows = ops::gather_rows(&shard.value, &ids)?;
                self.endpoint.send(
                    from,
                    tag::response_tag(ReqKind::PullSparse, var, part, iter),
                    Payload::Tensor(Arc::new(rows)),
                )?;
            }
            ReqKind::PushDense => {
                let grad = body.into_tensor()?;
                // The pusher's worker position doubles as its ring
                // position, fixing the fold slot regardless of arrival
                // order.
                let position = self.topo.worker_position(from)?;
                let shard = &mut self.shards[idx];
                if shard.sparse {
                    return Err(PsError::Protocol("dense push to a sparse shard".into()));
                }
                shard.pushes_seen += 1;
                if !self.config.synchronous {
                    self.apply_async(idx, Grad::Dense(grad))?;
                } else {
                    if let Some(sum) = shard.dense_acc.push(position, grad)? {
                        shard.pending = Some(Grad::Dense(sum));
                    }
                    self.maybe_apply(idx, iter)?;
                }
            }
            ReqKind::PushSparse => {
                let grad = body.into_slices()?;
                // Under local aggregation the pusher is a machine's local
                // chief and fills that machine's slot; otherwise each
                // worker fills its own (machine-grouped) slot.
                let position = if self.config.local_aggregation && self.config.synchronous {
                    self.topo.machine_of(from)?
                } else {
                    self.topo.worker_position(from)?
                };
                let shard = &mut self.shards[idx];
                if !shard.sparse {
                    return Err(PsError::Protocol("sparse push to a dense shard".into()));
                }
                shard.pushes_seen += 1;
                if !self.config.synchronous {
                    self.apply_async(idx, Grad::Sparse(grad))?;
                } else {
                    if let Some(agg) = shard.sparse_acc.push(position, grad)? {
                        shard.pending = Some(Grad::Sparse(agg));
                    }
                    self.maybe_apply(idx, iter)?;
                }
            }
            ReqKind::ChiefUpdate => {
                body.into_control()?;
                if from != self.topo.chief() {
                    return Err(PsError::Protocol(format!(
                        "ChiefUpdate from non-chief worker {from}"
                    )));
                }
                self.shards[idx].chief_seen = true;
                self.maybe_apply(idx, iter)?;
            }
            ReqKind::UpdateDone => {
                return Err(PsError::Protocol(
                    "UpdateDone is server-to-worker only".into(),
                ));
            }
            ReqKind::FetchShard => {
                body.into_control()?;
                if from != self.topo.chief() {
                    return Err(PsError::Protocol(format!(
                        "FetchShard from non-chief worker {from}"
                    )));
                }
                let shard = &self.shards[idx];
                if self.config.synchronous && !shard.applied {
                    return Err(PsError::Protocol(
                        "FetchShard before the shard's update applied".into(),
                    ));
                }
                let value = shard.value.clone();
                let tag = tag::response_tag(ReqKind::FetchShard, var, part, iter);
                self.endpoint
                    .send(from, tag, Payload::Tensor(Arc::new(value)))?;
                // Piggyback the optimizer slot state (velocity/accum) on
                // the same tag so checkpoints can capture it: the
                // transport is FIFO per (peer, tag), so the client reads
                // value-then-state in order. Stateless optimizers send a
                // zero-cost control marker instead.
                let slot = ((var as u64) << 20) | part as u64;
                let state = match self.optimizer.export_slot(slot) {
                    Some(t) => Payload::Tensor(Arc::new(t.clone())),
                    None => Payload::Control(0),
                };
                self.endpoint.send(from, tag, state)?;
            }
            ReqKind::ReadAgg => {
                body.into_control()?;
                if !self.config.serve_aggregates {
                    return Err(PsError::Protocol(
                        "ReadAgg requires serve_aggregates".into(),
                    ));
                }
                let shard = &self.shards[idx];
                if !shard.applied {
                    return Err(PsError::Protocol(
                        "ReadAgg before the shard's update applied".into(),
                    ));
                }
                // Cloning the stored payload bumps a reference count, so
                // every reader of this shard shares one buffer.
                let payload = match &shard.last_aggregate {
                    Some(p) => p.clone(),
                    None => return Err(PsError::Protocol("no aggregate saved for shard".into())),
                };
                self.endpoint.send(
                    from,
                    tag::response_tag(ReqKind::ReadAgg, var, part, iter),
                    payload,
                )?;
            }
        }
        Ok(())
    }

    /// Asynchronous update: applies one worker's gradient immediately,
    /// without accumulation, chief gating, or notifications — stale reads
    /// and writes are inherent to the mode (Section 2.1).
    fn apply_async(&mut self, idx: usize, grad: Grad) -> Result<()> {
        let shard = &mut self.shards[idx];
        let slot = ((shard.var.index() as u64) << 20) | shard.part as u64;
        {
            let _apply = span(SpanCat::Ps, "ps.apply");
            self.optimizer.apply(slot, &mut shard.value, &grad)?;
        }
        shard.applied = true;
        Ok(())
    }

    /// Applies the update for shard `idx` once all pushes and the chief
    /// trigger have arrived, then notifies all workers.
    fn maybe_apply(&mut self, idx: usize, iter: u64) -> Result<()> {
        let workers = self.topo.num_workers() as f32;
        let shard = &mut self.shards[idx];
        let gated = self.config.synchronous && !shard.chief_seen;
        if shard.applied || shard.pending.is_none() || gated {
            return Ok(());
        }
        // Pulls must all have been served before mutating the value
        // (synchronous-semantics guard; see module docs).
        if shard.pulls_seen != shard.pulls_expected {
            return Err(PsError::Protocol(format!(
                "update ready but only {}/{} pulls served (var {}, part {})",
                shard.pulls_seen,
                shard.pulls_expected,
                shard.var.index(),
                shard.part
            )));
        }
        let scale = if self.config.average_gradients {
            1.0 / workers
        } else {
            1.0
        };
        let slot = ((shard.var.index() as u64) << 20) | shard.part as u64;
        let agg = shard.pending.take().expect("checked above").scale(scale);
        {
            // The apply is the server's heaviest unit of work; it gets
            // its own span so measured serve time can be split into
            // queueing/serving/applying phases.
            let _apply = span(SpanCat::Ps, "ps.apply");
            self.optimizer.apply(slot, &mut shard.value, &agg)?;
        }
        shard.last_aggregate = if self.config.serve_aggregates {
            Some(match agg {
                Grad::Dense(t) => Payload::Tensor(Arc::new(t)),
                Grad::Sparse(s) => Payload::Slices(Arc::new(s)),
            })
        } else {
            None
        };
        shard.applied = true;
        let (var, part) = (shard.var.index(), shard.part);
        for w in self.topo.worker_ranks() {
            self.endpoint.send(
                w,
                tag::response_tag(ReqKind::UpdateDone, var, part, iter),
                Payload::Control(0),
            )?;
        }
        Ok(())
    }
}
