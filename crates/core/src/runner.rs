//! The Parallax user API and executed-mode distributed runner.
//!
//! Mirrors Figure 3: `shard` splits input data across GPUs,
//! `get_runner` turns a single-GPU graph plus resource information into
//! a runnable distributed job. `Runner::run` spawns one worker thread
//! per GPU and one server thread per machine (when the plan needs
//! servers), executes synchronous hybrid training, and reports losses,
//! measured traffic by transport class, and a simulated iteration time
//! on the calibrated cluster model.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use parallax_cluster::{
    CalibrationProfile, ClusterModel, IterationSim, Phase, SparseOpCost, Transport,
};
use parallax_comm::{
    collectives, tag, Endpoint, Router, TrafficClass, TrafficSnapshot, TrafficStats,
};
use parallax_dataflow::grad::backward;
use parallax_dataflow::{Feed, Graph, NodeId, Session, VarId, VarStore};
use parallax_fault::FaultInjector;
use parallax_ps::{locally_aggregate, PsClient, PsTopology, PsWorkerContext, Server, VarPlacement};
use parallax_tensor::{sparse::Grad, DetRng, Tensor};

use crate::checkpoint::{self, TrainState};
use crate::config::ParallaxConfig;
use crate::partition::{self, SearchResult};
use crate::sparsity::SparsityProfile;
use crate::transform::{DistributedPlan, Exchange};
use crate::{CoreError, Result};

/// # Examples
///
/// ```
/// use parallax_core::shard_range;
/// assert_eq!(shard_range(10, 3, 0), 0..4);
/// assert_eq!(shard_range(10, 3, 1), 4..7);
/// assert_eq!(shard_range(10, 3, 2), 7..10);
/// ```
/// The index range of `worker`'s shard when `total` samples are split
/// across `workers` GPUs — the `parallax.shard` API.
pub fn shard_range(total: usize, workers: usize, worker: usize) -> std::ops::Range<usize> {
    let base = total / workers;
    let rem = total % workers;
    let start = worker * base + worker.min(rem);
    let len = base + usize::from(worker < rem);
    start..start + len
}

/// A loaded checkpoint a recovery attempt resumes from: the variable
/// values plus any optimizer slot state (velocity/accum) the save
/// captured, so Momentum/Adagrad resume bitwise, not just SGD.
///
/// Public because multi-process roles (`repro dist`) load the chief's
/// checkpoint themselves at respawn and hand it to
/// [`Runner::run_role`] — the same type the in-process recovery loop
/// threads through `run`.
#[derive(Debug, Clone)]
pub struct RestorePoint {
    /// The checkpointed variable values.
    pub store: VarStore,
    /// Checkpointed optimizer slot state, keyed `(variable name, slot
    /// kind)`.
    pub slots: checkpoint::SlotMap,
}

impl RestorePoint {
    /// Loads a checkpoint file into a restore point, returning the step
    /// it was saved at (the iteration training resumes from).
    pub fn load(graph: &Graph, path: &std::path::Path) -> Result<(RestorePoint, u64)> {
        let (store, state, slots) = checkpoint::load(graph, path)?;
        Ok((RestorePoint { store, slots }, state.step))
    }
}

/// Which single role one OS process (or one thread of the in-process
/// runner) executes. Worker indices are positions in
/// [`PsTopology::worker_ranks`]; index 0 is the global chief.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleAssignment {
    /// The `index`-th worker replica.
    Worker {
        /// Position in `worker_ranks` (0 = chief).
        index: usize,
    },
    /// The parameter-server shard host of `machine`.
    Server {
        /// Machine index in the topology.
        machine: usize,
    },
}

/// What one executed role produced — the per-process half of a
/// [`RunReport`], merged by the launcher (or by `run_attempt`'s thread
/// scope) with [`mean_worker_losses`] and
/// [`Runner::stitch_final_model`].
#[derive(Debug)]
pub enum RoleOutput {
    /// A worker's training series and its final replica state.
    Worker {
        /// Per-iteration training loss for `start_iter..iterations`.
        losses: Vec<f32>,
        /// Per-iteration global gradient norms (chief only, and only
        /// under `trace_gradients`).
        norms: Vec<f32>,
        /// Total measured forward+backward seconds.
        compute_secs: f64,
        /// The replica's final values: the AllReduce variables only (a
        /// worker holds no copy of the PS variables).
        store: VarStore,
    },
    /// A server's final shard values, `((variable, partition), value)`.
    Server {
        /// The hosted shards at their final values.
        shards: Vec<((VarId, usize), Tensor)>,
    },
}

/// Mean loss per iteration across workers — the exact worker-order fold
/// `run_attempt` applies, shared with the multi-process artifact merge
/// so both paths produce bitwise-identical series.
pub fn mean_worker_losses(per_worker: &[Vec<f32>]) -> Vec<f32> {
    let workers = per_worker.len();
    let iters = per_worker.iter().map(Vec::len).max().unwrap_or(0);
    let mut mean = vec![0.0f32; iters];
    for series in per_worker {
        for (slot, &l) in mean.iter_mut().zip(series) {
            *slot += l / workers as f32;
        }
    }
    mean
}

/// Locks `m`, recovering the data when a panicking thread poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Consumes `m`, recovering the data when a panicking thread poisoned it.
fn take<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Measured traffic of a run, by transport class.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// NCCL-class traffic (ring AllReduce).
    pub nccl: TrafficSnapshot,
    /// MPI-class traffic (AllGatherv).
    pub mpi: TrafficSnapshot,
    /// PS RPC traffic.
    pub ps: TrafficSnapshot,
    /// Intra-machine local aggregation traffic.
    pub local_agg: TrafficSnapshot,
    /// Untagged control traffic outside the four modelled classes.
    pub other: TrafficSnapshot,
}

impl TrafficReport {
    /// Snapshots an accumulator's ledger, one entry per class.
    pub fn from_stats(traffic: &TrafficStats) -> TrafficReport {
        TrafficReport {
            nccl: traffic.class_snapshot(TrafficClass::Nccl),
            mpi: traffic.class_snapshot(TrafficClass::Mpi),
            ps: traffic.class_snapshot(TrafficClass::Ps),
            local_agg: traffic.class_snapshot(TrafficClass::LocalAgg),
            other: traffic.class_snapshot(TrafficClass::Default),
        }
    }

    /// Accumulates another report's per-class traffic into this one.
    /// Recovery re-creates the router (and therefore the ledger) per
    /// attempt; merging keeps the whole-run totals cross-checkable
    /// against the trace byte ledger.
    pub fn merge_from(&mut self, other: &TrafficReport) {
        let merge = |a: &mut TrafficSnapshot, b: &TrafficSnapshot| {
            if a.out_bytes.is_empty() {
                *a = b.clone();
            } else {
                a.add_assign(b);
            }
        };
        merge(&mut self.nccl, &other.nccl);
        merge(&mut self.mpi, &other.mpi);
        merge(&mut self.ps, &other.ps);
        merge(&mut self.local_agg, &other.local_agg);
        merge(&mut self.other, &other.other);
    }

    /// Total network bytes across classes.
    pub fn total_network_bytes(&self) -> u64 {
        self.nccl.total_network_bytes()
            + self.mpi.total_network_bytes()
            + self.ps.total_network_bytes()
            + self.local_agg.total_network_bytes()
            + self.other.total_network_bytes()
    }
}

/// The result of an executed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mean training loss per iteration (averaged over workers).
    pub losses: Vec<f32>,
    /// Global gradient norm per iteration (aggregated gradients, from the
    /// chief's trace reads); empty unless `trace_gradients` is set.
    pub grad_norms: Vec<f32>,
    /// Measured traffic (whole run).
    pub traffic: TrafficReport,
    /// Iterations executed.
    pub iterations: usize,
    /// Mean measured compute seconds per worker per iteration (host
    /// execution of forward+backward; used for relative comparisons).
    pub host_compute_per_iter: f64,
    /// Final values of every variable, by variable index.
    pub final_model: HashMap<usize, Tensor>,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

impl RunReport {
    /// Rebuilds a [`VarStore`] holding the final model.
    pub fn final_store(&self, graph: &Graph) -> Result<VarStore> {
        let mut values = Vec::with_capacity(graph.variables().len());
        for var in graph.var_ids() {
            let t = self
                .final_model
                .get(&var.index())
                .ok_or_else(|| CoreError::Worker(format!("missing variable {}", var.index())))?;
            values.push(t.clone());
        }
        Ok(VarStore::from_values(values))
    }

    /// Simulated per-iteration time on a cluster model: measured traffic
    /// phases plus modelled server CPU (partition-dependent) plus a
    /// GPU-compute estimate.
    ///
    /// `gpu_compute` substitutes the measured host compute (worker
    /// threads are not GPUs); pass [`RunReport::host_compute_per_iter`]
    /// scaled however the caller calibrates.
    pub fn simulated_iteration_time(
        &self,
        cluster: &ClusterModel,
        machines: usize,
        gpu_compute: f64,
        server_cpu: f64,
    ) -> f64 {
        self.iteration_sim(cluster, machines, gpu_compute, server_cpu)
            .iteration_time()
    }

    /// The calibrated [`IterationSim`] behind
    /// [`RunReport::simulated_iteration_time`]: measured per-iteration
    /// traffic phases plus the given compute and server-CPU estimates.
    /// Exposing the sim itself lets callers render its modelled phase
    /// timeline (e.g. `IterationSim::trace_records`) next to the
    /// measured one.
    pub fn iteration_sim(
        &self,
        cluster: &ClusterModel,
        machines: usize,
        gpu_compute: f64,
        server_cpu: f64,
    ) -> IterationSim {
        let per_iter = |snap: &TrafficSnapshot| -> TrafficSnapshot {
            let scale = |v: &[u64]| -> Vec<u64> {
                v.iter()
                    .map(|&b| b / self.iterations.max(1) as u64)
                    .collect()
            };
            TrafficSnapshot {
                out_bytes: scale(&snap.out_bytes),
                in_bytes: scale(&snap.in_bytes),
                link_bytes: HashMap::new(),
                intra_bytes_per_machine: scale(&snap.intra_bytes_per_machine),
                inter_messages: snap.inter_messages / self.iterations.max(1) as u64,
                intra_messages: snap.intra_messages / self.iterations.max(1) as u64,
            }
        };
        let mut sim = IterationSim::new(cluster.clone(), machines);
        sim.compute = vec![gpu_compute; machines];
        sim.server_cpu = vec![server_cpu; machines];
        for (transport, snap) in [
            (Transport::Nccl, &self.traffic.nccl),
            (Transport::Mpi, &self.traffic.mpi),
            (Transport::Grpc, &self.traffic.ps),
            (Transport::Grpc, &self.traffic.local_agg),
        ] {
            if snap.total_network_bytes() > 0 || snap.intra_bytes() > 0 {
                sim.phases
                    .push(Phase::from_snapshot(transport, &per_iter(snap)));
            }
        }
        sim
    }

    /// An [`IterationSim`] whose compute, server-CPU and PS-queue inputs
    /// come from a measured [`CalibrationProfile`] instead of analytic
    /// estimates: traffic phases from this report, everything else from
    /// the profile's trace. Apply straggler scales to `cluster` first
    /// (e.g. [`ClusterModel::with_straggler`]) to predict a heterogeneous
    /// run from a homogeneous baseline.
    pub fn calibrated_iteration_sim(
        &self,
        cluster: &ClusterModel,
        cal: &CalibrationProfile,
    ) -> IterationSim {
        let mut sim = self.iteration_sim(cluster, cal.machines, 0.0, 0.0);
        cal.apply(&mut sim);
        sim
    }
}

/// A configured distributed training job.
pub struct Runner {
    graph: Arc<Graph>,
    loss: NodeId,
    topo: PsTopology,
    config: ParallaxConfig,
    profile: SparsityProfile,
    plan: Arc<DistributedPlan>,
}

/// Builds a [`Runner`] from a single-GPU graph, resources, a config and
/// a sparsity profile (the `parallax.get_runner` call).
pub fn get_runner(
    graph: Graph,
    loss: NodeId,
    gpus_per_machine: Vec<usize>,
    config: ParallaxConfig,
    profile: SparsityProfile,
) -> Result<Runner> {
    if !config.synchronous {
        if !matches!(config.arch, crate::config::ArchChoice::PsOnly) {
            return Err(CoreError::Config(
                "asynchronous training requires a PS-only architecture \
                 (collectives are inherently synchronous)"
                    .into(),
            ));
        }
        if config.trace_gradients {
            return Err(CoreError::Config(
                "gradient tracing requires synchronous training".into(),
            ));
        }
    }
    if let Some(n) = config.compute_threads {
        parallax_tensor::pool::configure_threads(n);
    }
    for (m, &s) in config.machine_slowdown.iter().enumerate() {
        if !s.is_finite() || s < 1.0 {
            return Err(CoreError::Config(format!(
                "machine_slowdown[{m}] = {s}: slowdown factors must be finite and >= 1.0"
            )));
        }
    }
    let persists = config.checkpoint_path.is_some() || config.snapshot_path.is_some();
    if persists {
        if config.checkpoint_interval == 0 {
            return Err(CoreError::Config(
                "checkpoint_interval must be >= 1 when checkpoint_path or snapshot_path is set"
                    .into(),
            ));
        }
        if !config.synchronous {
            return Err(CoreError::Config(
                "checkpointing and snapshot publishing require synchronous training (the \
                 chief coordinates consistent shard fetches at iteration boundaries)"
                    .into(),
            ));
        }
    } else if config.checkpoint_interval != 0 {
        return Err(CoreError::Config(
            "checkpoint_interval is set but neither checkpoint_path nor snapshot_path is".into(),
        ));
    }
    if let Some(d) = config.recv_deadline {
        if d.is_zero() {
            return Err(CoreError::Config(
                "recv_deadline must be a positive duration".into(),
            ));
        }
    }
    let topo = PsTopology::new(gpus_per_machine).map_err(CoreError::Ps)?;
    if config.machine_slowdown.len() > topo.num_machines() {
        return Err(CoreError::Config(format!(
            "machine_slowdown names {} machines but the cluster has {}",
            config.machine_slowdown.len(),
            topo.num_machines()
        )));
    }
    let partitions = config
        .sparse_partitions
        .unwrap_or(topo.num_machines().max(1));
    let plan =
        crate::plancheck::build_verified_plan(&graph, loss, &profile, &config, &topo, partitions)?;
    Ok(Runner {
        graph: Arc::new(graph),
        loss,
        topo,
        config,
        profile,
        plan: Arc::new(plan),
    })
}

/// Builds a [`Runner`] that executes a strategy's verified plan (see
/// [`crate::strategy::Strategy::plan`]). The runner re-derives and
/// re-verifies the plan from the strategy's configuration — planning is
/// deterministic, so the rebuilt plan must equal the one the strategy
/// verified; any disagreement (e.g. a topology mismatch, or a plan
/// edited after verification) is rejected before any thread spawns.
pub fn get_runner_with_plan(
    graph: Graph,
    loss: NodeId,
    gpus_per_machine: Vec<usize>,
    strategy_plan: &crate::strategy::StrategyPlan,
    profile: SparsityProfile,
) -> Result<Runner> {
    let runner = get_runner(
        graph,
        loss,
        gpus_per_machine,
        strategy_plan.config.clone(),
        profile,
    )?;
    if *runner.plan() != strategy_plan.plan {
        return Err(CoreError::Config(format!(
            "strategy '{}': the verified plan does not match the plan re-derived for this \
             topology (was it planned for a different cluster, or edited after verification?)",
            strategy_plan.name
        )));
    }
    Ok(runner)
}

impl Runner {
    /// The distributed plan in force.
    pub fn plan(&self) -> &DistributedPlan {
        &self.plan
    }

    /// The sparsity profile in force.
    pub fn profile(&self) -> &SparsityProfile {
        &self.profile
    }

    /// The job topology.
    pub fn topology(&self) -> &PsTopology {
        &self.topo
    }

    /// Rebuilds the runner with a different sparse partition count.
    pub fn with_partitions(&self, partitions: usize) -> Result<Runner> {
        let mut config = self.config.clone();
        config.sparse_partitions = Some(partitions);
        let plan = crate::plancheck::build_verified_plan(
            &self.graph,
            self.loss,
            &self.profile,
            &config,
            &self.topo,
            partitions,
        )?;
        Ok(Runner {
            graph: Arc::clone(&self.graph),
            loss: self.loss,
            topo: self.topo.clone(),
            config,
            profile: self.profile.clone(),
            plan: Arc::new(plan),
        })
    }

    /// Modelled server CPU seconds per iteration at the current plan's
    /// partition count (the Eq. 1 `th1/P + th2*P` ingredient).
    pub fn modelled_server_cpu(&self, cluster: &ClusterModel) -> f64 {
        let n = self.topo.num_machines() as f64;
        let workers = self.topo.num_workers() as f64;
        let mut total = 0.0;
        for v in &self.profile.vars {
            if !v.sparse {
                continue;
            }
            match self.plan.plan.placement(v.var) {
                Ok(VarPlacement::PsSparse { partition, .. }) => {
                    let pushed_rows = workers * v.rows_touched / n;
                    let hosted = (partition.parts() as f64 / n).max(1.0) as usize;
                    let cost = SparseOpCost {
                        pushed_rows,
                        cols: v.cols() as f64,
                    };
                    total += cost.time(&cluster.cpu, hosted);
                }
                _ => continue,
            }
        }
        total
    }

    /// Runs Parallax's partition search (Section 3.2): short executed
    /// runs at sampled partition counts, simulated iteration time as the
    /// objective, Eq. 1 fit, optimum inside the sampled range. Returns
    /// the re-planned runner and the search trace.
    pub fn optimize_partitions<F>(
        &self,
        feed_fn: F,
        sample_iters: usize,
        max_partitions: usize,
        cluster: &ClusterModel,
    ) -> Result<(Runner, SearchResult)>
    where
        F: Fn(usize, usize) -> Feed + Send + Sync + Copy,
    {
        let initial = self.topo.num_machines().max(2);
        let result = partition::search(initial, max_partitions, |p| {
            let candidate = match self.with_partitions(p) {
                Ok(r) => r,
                Err(_) => return f64::INFINITY,
            };
            let report = match candidate.run(sample_iters, feed_fn) {
                Ok(r) => r,
                Err(_) => return f64::INFINITY,
            };
            let server_cpu = candidate.modelled_server_cpu(cluster);
            report.simulated_iteration_time(
                cluster,
                self.topo.num_machines(),
                report.host_compute_per_iter,
                server_cpu,
            )
        })?;
        Ok((self.with_partitions(result.best)?, result))
    }

    /// Executes `iterations` of synchronous data-parallel training.
    ///
    /// `feed_fn(worker, iter)` supplies each worker's mini-batch (use
    /// [`shard_range`] to cut a dataset into disjoint shards).
    ///
    /// When `checkpoint_path` is configured the chief saves a consistent
    /// checkpoint (variables + step + data-shard cursors) every
    /// `checkpoint_interval` iterations, and on a detected failure — a
    /// fault-injected kill, or any worker/server error surfaced within
    /// the receive deadline — the runner tears the attempt down,
    /// restores the latest checkpoint, and resumes from its step, up to
    /// `max_recoveries` times. Iterations replayed before the first
    /// checkpoint restart from the initial seeded state. Traffic is
    /// accumulated across attempts so the byte crosscheck against the
    /// trace ledger holds under fault injection; `losses` entries for
    /// iterations that only completed inside a failed attempt are zero.
    pub fn run<F>(&self, iterations: usize, feed_fn: F) -> Result<RunReport>
    where
        F: Fn(usize, usize) -> Feed + Send + Sync,
    {
        let started = Instant::now();
        // One injector for the whole run: every fault fires at most
        // once, so a recovery replay does not re-kill the same worker.
        let injector = Arc::new(FaultInjector::new(self.config.fault_plan.clone()));
        let mut traffic = TrafficReport::default();
        let mut losses = vec![0.0f32; iterations];
        let mut start_iter = 0usize;
        let mut restore: Option<RestorePoint> = None;
        let mut recoveries = 0usize;
        loop {
            match self.run_attempt(
                iterations,
                start_iter,
                restore.as_ref(),
                &feed_fn,
                &injector,
                &mut traffic,
            ) {
                Ok(mut report) => {
                    for (slot, &l) in losses[start_iter..].iter_mut().zip(&report.losses) {
                        *slot = l;
                    }
                    report.losses = losses;
                    report.traffic = traffic;
                    report.wall_seconds = started.elapsed().as_secs_f64();
                    return Ok(report);
                }
                Err(err) => {
                    {
                        let _detect =
                            parallax_trace::span(parallax_trace::SpanCat::Phase, "fault.detect");
                        parallax_trace::counter("fault.detected").add(1);
                    }
                    if self.config.checkpoint_path.is_none()
                        || recoveries >= self.config.max_recoveries
                    {
                        return Err(err);
                    }
                    recoveries += 1;
                    let _recover =
                        parallax_trace::span(parallax_trace::SpanCat::Phase, "fault.recover");
                    parallax_trace::counter("fault.recovered").add(1);
                    let path = self.config.checkpoint_path.as_ref().expect("checked above");
                    if path.exists() {
                        let (rp, step) = RestorePoint::load(&self.graph, path)?;
                        eprintln!(
                            "parallax: failure detected ({err}); recovering from \
                             checkpoint at step {step}"
                        );
                        start_iter = step as usize;
                        restore = Some(rp);
                    } else {
                        eprintln!(
                            "parallax: failure detected ({err}) before any checkpoint; \
                             restarting from initial state"
                        );
                        start_iter = 0;
                        restore = None;
                    }
                }
            }
        }
    }

    /// One execution attempt: iterations `start_iter..iterations`, with
    /// every worker replica and server shard seeded from `restore` when
    /// resuming from a checkpoint. The attempt's measured traffic is
    /// merged into `traffic_total` whether it succeeds or fails — bytes
    /// a doomed attempt moved were still physically sent and traced.
    fn run_attempt<F>(
        &self,
        iterations: usize,
        start_iter: usize,
        restore: Option<&RestorePoint>,
        feed_fn: &F,
        injector: &Arc<FaultInjector>,
        traffic_total: &mut TrafficReport,
    ) -> Result<RunReport>
    where
        F: Fn(usize, usize) -> Feed + Send + Sync,
    {
        let started = Instant::now();
        let needs_servers = self.plan.needs_servers();
        let (mut endpoints, traffic) =
            Router::build_with(self.topo.comm().clone(), Some(Arc::clone(injector)));
        self.arm_endpoints(&mut endpoints)?;
        let mut by_rank: Vec<Option<Endpoint>> = endpoints.drain(..).map(Some).collect();

        let workers = self.topo.num_workers();
        let losses: Mutex<Vec<Vec<f32>>> = Mutex::new(vec![Vec::new(); workers]);
        let compute_secs: Mutex<Vec<f64>> = Mutex::new(vec![0.0; workers]);
        let shard_values: Mutex<Vec<((VarId, usize), Tensor)>> = Mutex::new(Vec::new());
        let chief_store: Mutex<Option<VarStore>> = Mutex::new(None);
        let chief_norms: Mutex<Vec<f32>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            if needs_servers {
                for m in 0..self.topo.num_machines() {
                    let endpoint = by_rank[self.topo.server_rank(m)]
                        .take()
                        .expect("server endpoint");
                    let shard_values = &shard_values;
                    let failures = &failures;
                    let runner = &*self;
                    let feed_fn = &feed_fn;
                    scope.spawn(move || {
                        match runner.run_role(
                            RoleAssignment::Server { machine: m },
                            endpoint,
                            iterations,
                            start_iter,
                            restore,
                            injector,
                            feed_fn,
                        ) {
                            Ok(RoleOutput::Server { shards }) => lock(shard_values).extend(shards),
                            Ok(RoleOutput::Worker { .. }) => {
                                lock(failures)
                                    .push(format!("server {m}: role returned worker output"));
                            }
                            Err(e) => {
                                // Surface immediately: peers block on a dead
                                // server, so the collected error would
                                // otherwise never be seen.
                                let msg = match e {
                                    CoreError::Worker(msg) => msg,
                                    other => format!("server {m}: {other}"),
                                };
                                eprintln!("parallax: {msg}");
                                lock(failures).push(msg)
                            }
                        }
                    });
                }
            }

            for (widx, &rank) in self.topo.worker_ranks().iter().enumerate() {
                let endpoint = by_rank[rank].take().expect("worker endpoint");
                let losses = &losses;
                let compute_secs = &compute_secs;
                let chief_store = &chief_store;
                let chief_norms = &chief_norms;
                let failures = &failures;
                let feed_fn = &feed_fn;
                let runner = &*self;
                scope.spawn(move || {
                    match runner.run_role(
                        RoleAssignment::Worker { index: widx },
                        endpoint,
                        iterations,
                        start_iter,
                        restore,
                        injector,
                        feed_fn,
                    ) {
                        Ok(RoleOutput::Worker {
                            losses: my_losses,
                            norms,
                            compute_secs: my_compute,
                            store,
                        }) => {
                            lock(losses)[widx] = my_losses;
                            lock(compute_secs)[widx] = my_compute;
                            if rank == runner.topo.chief() {
                                *lock(chief_store) = Some(store);
                                *lock(chief_norms) = norms;
                            }
                        }
                        Ok(RoleOutput::Server { .. }) => {
                            lock(failures)
                                .push(format!("worker {widx}: role returned server output"));
                        }
                        Err(e) => {
                            eprintln!("parallax: worker {widx} failed: {e}");
                            lock(failures).push(format!("worker {widx}: {e}"))
                        }
                    }
                });
            }
        });

        // Merge this attempt's ledger into the running total *before*
        // checking for failures: even a doomed attempt's bytes were
        // physically sent and mirrored into the trace ledger.
        traffic_total.merge_from(&TrafficReport::from_stats(&traffic));

        let failures = take(failures);
        if let Some(first) = failures.into_iter().next() {
            return Err(CoreError::Worker(first));
        }

        // Mean loss per executed iteration across workers.
        let attempt_iters = iterations - start_iter;
        let mean_losses = mean_worker_losses(&take(losses));

        // Final model: AR variables from the chief replica, PS variables
        // stitched from server shards.
        let chief =
            take(chief_store).ok_or_else(|| CoreError::Worker("chief produced no model".into()))?;
        let final_model = self.stitch_final_model(&chief, take(shard_values))?;

        let compute = take(compute_secs);
        let host_compute_per_iter =
            compute.iter().copied().fold(0.0, f64::max) / attempt_iters.max(1) as f64;

        Ok(RunReport {
            losses: mean_losses,
            grad_norms: take(chief_norms),
            // The caller (`run`) substitutes the cross-attempt total.
            traffic: TrafficReport::default(),
            iterations,
            host_compute_per_iter,
            final_model,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// The configuration in force (what `get_runner` validated).
    pub fn config(&self) -> &ParallaxConfig {
        &self.config
    }

    /// Arms one attempt's endpoints the way every role of this job
    /// runs, in both execution modes: the configured receive deadline,
    /// and, in debug builds or under `validate_protocol`, the runtime
    /// half of the protocol checker, a validator that asserts every
    /// sent message against the session machine derived (once per call)
    /// from the verified plan. The validator is stateless, so
    /// fault-injected duplicates and recovery replays are never false
    /// positives.
    pub fn arm_endpoints(&self, endpoints: &mut [Endpoint]) -> Result<()> {
        if let Some(d) = self.config.recv_deadline {
            for ep in endpoints.iter_mut() {
                ep.set_recv_deadline(d);
            }
        }
        if cfg!(debug_assertions) || self.config.validate_protocol {
            let spec = crate::protocheck::derive_session(
                &self.graph,
                &self.config,
                &self.topo,
                &self.plan,
            )?;
            let validator = parallax_comm::protocheck::SessionValidator::from_spec(&spec);
            for ep in endpoints.iter_mut() {
                ep.set_validator(Arc::clone(&validator));
            }
        }
        Ok(())
    }

    /// Executes exactly one role of this job over the given endpoint —
    /// the unit both execution modes are built from. The in-process
    /// runner calls this once per thread of an attempt; `repro dist`
    /// calls it once per OS process with an endpoint over a
    /// [`parallax_comm::Transport`] that crosses machines. Everything
    /// role-specific (replica loop, server shard hosting, restore,
    /// fault hooks, chief-only artifact publishing) lives below this
    /// call, which is what makes the two modes bitwise-equivalent.
    #[allow(clippy::too_many_arguments)] // the full role contract, shared by both modes
    pub fn run_role<F>(
        &self,
        role: RoleAssignment,
        endpoint: Endpoint,
        iterations: usize,
        start_iter: usize,
        restore: Option<&RestorePoint>,
        injector: &Arc<FaultInjector>,
        feed_fn: &F,
    ) -> Result<RoleOutput>
    where
        F: Fn(usize, usize) -> Feed + Send + Sync,
    {
        match role {
            RoleAssignment::Server { machine: m } => {
                if m >= self.topo.num_machines() {
                    return Err(CoreError::Config(format!(
                        "server role names machine {m} but the cluster has {}",
                        self.topo.num_machines()
                    )));
                }
                let mut server = Server::new(
                    &self.graph,
                    &self.plan.plan,
                    self.topo.clone(),
                    endpoint,
                    crate::protocheck::server_config(&self.config, iterations, start_iter),
                    self.config.optimizer.build(self.config.learning_rate),
                )
                .map_err(|e| CoreError::Worker(format!("server {m} init: {e}")))?;
                // A machine hosting no shards has nothing to serve; its
                // endpoint drops here, which closes its links cleanly.
                if server.num_shards() == 0 {
                    return Ok(RoleOutput::Server { shards: Vec::new() });
                }
                if let Some(rp) = restore {
                    server
                        .restore_from(&rp.store)
                        .map_err(|e| CoreError::Worker(format!("server {m} restore: {e}")))?;
                    for ((var_name, slot_name), tensor) in &rp.slots {
                        let Some(var) = self.graph.find_variable(var_name) else {
                            continue;
                        };
                        server.restore_slot(var, slot_name, tensor).map_err(|e| {
                            CoreError::Worker(format!("server {m} slot restore: {e}"))
                        })?;
                    }
                }
                server.set_faults(Arc::clone(injector));
                // Typed, so a role process can report a peer timeout.
                let shards = server.run().map_err(CoreError::Ps)?;
                Ok(RoleOutput::Server { shards })
            }
            RoleAssignment::Worker { index } => {
                let worker_ranks = self.topo.worker_ranks();
                let &rank = worker_ranks.get(index).ok_or_else(|| {
                    CoreError::Config(format!(
                        "worker role names index {index} but the cluster has {} workers",
                        worker_ranks.len()
                    ))
                })?;
                let ar_vars = self.plan.ar_vars();
                let ps_vars = self.plan.ps_vars();
                let exchanges: Vec<Exchange> = self
                    .graph
                    .var_ids()
                    .map(|v| self.plan.exchange(&self.graph, &self.config, v))
                    .collect();
                let (losses, norms, compute_secs, store) = self.worker_loop(
                    endpoint, rank, index, iterations, start_iter, restore, injector, feed_fn,
                    &ar_vars, &ps_vars, &exchanges,
                )?;
                Ok(RoleOutput::Worker {
                    losses,
                    norms,
                    compute_secs,
                    store,
                })
            }
        }
    }

    /// Assembles the final model from a chief replica and the collected
    /// server shards: AR variables from the chief (replicas are
    /// identical), PS variables stitched per-partition. Shared by
    /// `run_attempt` and the `repro dist` artifact merge so a socket
    /// run's final model is bitwise the in-process one by construction.
    pub fn stitch_final_model(
        &self,
        chief: &VarStore,
        shard_values: Vec<((VarId, usize), Tensor)>,
    ) -> Result<HashMap<usize, Tensor>> {
        let mut final_model: HashMap<usize, Tensor> = HashMap::new();
        for var in self.plan.ar_vars() {
            final_model.insert(var.index(), chief.get(var)?.clone());
        }
        let mut shards_by_var: HashMap<usize, Vec<(usize, Tensor)>> = HashMap::new();
        for ((var, part), value) in shard_values {
            shards_by_var
                .entry(var.index())
                .or_default()
                .push((part, value));
        }
        for (var_idx, mut parts) in shards_by_var {
            parts.sort_by_key(|(p, _)| *p);
            let var = VarId::from_index(var_idx);
            let shape = self.graph.var_def(var)?.shape.clone();
            match self.plan.plan.placement(var).map_err(CoreError::Ps)? {
                VarPlacement::PsDense { .. } => {
                    let (_, value) = parts.pop().ok_or_else(|| {
                        CoreError::Worker(format!("variable {var_idx}: no dense shard collected"))
                    })?;
                    final_model.insert(var_idx, value);
                }
                VarPlacement::PsSparse { partition, .. } => {
                    let tensors: Vec<Tensor> = parts.into_iter().map(|(_, t)| t).collect();
                    let full = partition.stitch(&tensors).map_err(CoreError::Ps)?;
                    final_model.insert(var_idx, full.reshape(shape)?);
                }
                VarPlacement::AllReduce => {}
            }
        }
        Ok(final_model)
    }

    /// The effective checkpoint/snapshot interval: `checkpoint_interval`
    /// when a checkpoint or serving-snapshot path is configured under
    /// synchronous training, else 0 (disabled). Workers and servers must
    /// agree on this value — the chief sends one `FetchShard` per shard
    /// at every boundary iteration and servers count those messages into
    /// their synchronization barrier.
    fn ckpt_interval(&self) -> usize {
        crate::protocheck::effective_checkpoint_interval(&self.config)
    }

    /// Publishes the chief's persistence artifacts at the end of
    /// iteration `iter`: a full training checkpoint (when
    /// `checkpoint_path` is set) and/or a weights-only serving snapshot
    /// (when `snapshot_path` is set). One consistent fetch pass feeds
    /// both — PS variables are fetched post-update from their server
    /// shards, AllReduce variables come from the chief's own replica
    /// (identical on every worker) — so the two artifacts always agree,
    /// and the per-boundary `FetchShard` message count the servers fold
    /// into their barrier is unchanged whether one or both are written.
    ///
    /// For the checkpoint, optimizer slot state rides along: AllReduce
    /// slots from the chief's own `optimizer` (replicas are identical),
    /// PS slots piggybacked on the shard fetches and stitched like the
    /// values. The snapshot takes weights only. The store written is
    /// the chief's AllReduce variables plus the fetched shards.
    fn publish_artifacts(
        &self,
        endpoint: &mut Endpoint,
        client: &mut PsClient,
        local: &VarStore,
        optimizer: &dyn parallax_dataflow::Optimizer,
        iter: usize,
    ) -> Result<()> {
        let mut store = local.clone();
        let mut slots = checkpoint::SlotMap::new();
        let kind = optimizer.state_name();
        for var in self.graph.var_ids() {
            let def_shape = self.graph.var_def(var)?.shape.clone();
            let name = self.graph.var_def(var)?.name.clone();
            match client
                .fetch_var_with_state(endpoint, var)
                .map_err(CoreError::Ps)?
            {
                Some((fetched, state)) => {
                    store.set(var, fetched.reshape(def_shape.clone())?)?;
                    if let (Some(kind), Some(state)) = (kind, state) {
                        slots.insert((name, kind.to_string()), state.reshape(def_shape)?);
                    }
                }
                None => {
                    // AllReduce variable: slot state lives in the
                    // chief's own optimizer.
                    if let (Some(kind), Some(state)) =
                        (kind, optimizer.export_slot(var.index() as u64))
                    {
                        slots.insert((name, kind.to_string()), state.clone());
                    }
                }
            }
        }
        let step = (iter + 1) as u64;
        if let Some(path) = self.config.checkpoint_path.as_ref() {
            let _span = parallax_trace::span(parallax_trace::SpanCat::Phase, "checkpoint.save");
            let state = TrainState {
                step,
                cursors: vec![step; self.topo.num_workers()],
            };
            checkpoint::save(&self.graph, &store, &state, &slots, path)?;
        }
        if let Some(path) = self.config.snapshot_path.as_ref() {
            crate::snapshot::save(&self.graph, &store, step, path)?;
        }
        Ok(())
    }

    /// One worker's training loop over iterations
    /// `start_iter..iterations`, replica state seeded from `restore`
    /// when resuming from a checkpoint. `exchanges` holds each
    /// variable's [`Exchange`], indexed by variable.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop<F>(
        &self,
        endpoint: Endpoint,
        rank: usize,
        widx: usize,
        iterations: usize,
        start_iter: usize,
        restore: Option<&RestorePoint>,
        injector: &FaultInjector,
        feed_fn: &F,
        ar_vars: &[VarId],
        ps_vars: &[VarId],
        exchanges: &[Exchange],
    ) -> Result<(Vec<f32>, Vec<f32>, f64, VarStore)>
    where
        F: Fn(usize, usize) -> Feed + Send + Sync,
    {
        let workers = self.topo.num_workers();
        let worker_ranks = self.topo.worker_ranks();
        // Machine of each worker position, for the machine-blocked
        // sparse fold (worker_ranks is machine-major).
        let worker_machines: Vec<usize> = {
            let mut ms = Vec::with_capacity(workers);
            for &r in &worker_ranks {
                ms.push(self.topo.machine_of(r).map_err(CoreError::Ps)?);
            }
            ms
        };
        let is_global_chief = rank == self.topo.chief();
        let machine = self.topo.machine_of(rank).map_err(CoreError::Ps)?;
        parallax_trace::set_thread_track(
            machine as u32,
            rank as u32,
            &format!("worker{widx} (rank {rank})"),
        );
        let client = PsClient::new(Arc::new(self.plan.plan.clone()), self.topo.clone());
        // The replica holds only the AllReduce variables: the context
        // serves PS variables from the servers, so a worker never reads
        // its own copy of them. Resuming replicas start from the restored
        // checkpoint instead of the seeded initializer — bitwise what
        // the chief saved.
        let held = |var: VarId| ar_vars.contains(&var);
        let local = match restore {
            Some(rp) => rp.store.subset(held),
            None => VarStore::init_held(&self.graph, &mut DetRng::seed(self.config.seed), held),
        };
        let mut ctx = PsWorkerContext::new(endpoint, client, local);
        let mut optimizer = self.config.optimizer.build(self.config.learning_rate);
        // Every replica applies AllReduce updates with its own optimizer
        // copy, so every replica must re-import the checkpointed slot
        // state — otherwise Momentum/Adagrad would resume from zeroed
        // slots and diverge from the uninterrupted run.
        if let (Some(rp), Some(kind)) = (restore, optimizer.state_name()) {
            for &var in ar_vars {
                let key = (self.graph.var_def(var)?.name.clone(), kind.to_string());
                if let Some(t) = rp.slots.get(&key) {
                    optimizer.import_slot(var.index() as u64, t.clone());
                }
            }
        }
        let session = Session::new(&self.graph);
        let mut losses = Vec::with_capacity(iterations - start_iter);
        let mut norms = Vec::new();
        let mut compute_secs = 0.0f64;
        let sync = self.config.synchronous;
        let ckpt_interval = self.ckpt_interval();
        let ring_bucket = self.plan.ring_bucket(&self.graph, &self.config);
        // Reused across iterations so the per-node value buffer is
        // allocated once for the whole loop.
        let mut acts = parallax_dataflow::Activations::new();

        for iter in start_iter..iterations {
            parallax_trace::set_thread_iter(iter as u64);
            // Name matches `parallax_trace::export::ITERATION_SPAN` so the
            // straggler report can find per-machine iteration boundaries.
            let _iter_span = parallax_trace::span(parallax_trace::SpanCat::Phase, "iteration");
            // Fault hooks: a transient stall stretches this iteration; a
            // kill tears the worker down before it sends anything for
            // this step, exactly like a process crash at the boundary.
            if let Some(d) = injector.stall_for(rank, iter as u64) {
                let _stall =
                    parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.fault_stall");
                std::thread::sleep(d);
            }
            if injector.kill_worker_at(rank, iter as u64) {
                return Err(CoreError::Worker(format!(
                    "fault injection: worker rank {rank} killed at step {iter}"
                )));
            }
            optimizer.set_learning_rate(
                self.config
                    .lr_schedule
                    .at(self.config.learning_rate, iter as u64),
            );
            ctx.begin_iteration(iter as u64);
            let feed = feed_fn(widx, iter);
            let t0 = Instant::now();
            {
                let _fwd = parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.forward");
                // A failed pull reaches us as provider text; report its
                // typed cause (a peer timeout stays a peer timeout).
                session
                    .forward_into(&feed, &mut ctx, &mut acts)
                    .map_err(|e| match ctx.take_failed_pull() {
                        Some(cause) => CoreError::Ps(cause),
                        None => e.into(),
                    })?;
            }
            let mut grads = {
                let _bwd = parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.backward");
                backward(&self.graph, &acts, self.loss)?
            };
            // Straggler injection: stretch this machine's compute phase to
            // `slow` times its measured duration. The delay sleeps rather
            // than spins: worker threads of *different* modelled machines
            // time-share this host's cores, so a spin would steal cycles
            // from the nominal machines and slow the whole cluster instead
            // of just this one. Sleeping yields the core, which is exactly
            // what a genuinely slow peer looks like from the others' point
            // of view. Runs inside the compute timing window so
            // `compute_secs` and the traced phase spans both reflect the
            // injected heterogeneity.
            let slow = self
                .config
                .machine_slowdown
                .get(machine)
                .copied()
                .unwrap_or(1.0);
            if slow > 1.0 {
                let _straggle =
                    parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.straggle");
                let deadline = Instant::now() + t0.elapsed().mul_f64(slow - 1.0);
                let mut now = Instant::now();
                while now < deadline {
                    std::thread::sleep(deadline - now);
                    now = Instant::now();
                }
            }
            compute_secs += t0.elapsed().as_secs_f64();
            losses.push(acts.scalar(self.loss)?);
            // Everything from here to the end of the iteration is gradient
            // exchange (collectives + PS) and parameter application.
            let _exch_span = parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.exchange");

            let PsWorkerContext {
                endpoint,
                client,
                local,
                ..
            } = &mut ctx;

            // AllReduce path: the ring bucket's gradients (a sparse one
            // densified) go through one fused ring AllReduce, reduced in
            // place; then, in `ar_vars` order, each variable is averaged,
            // traced and applied, a pure-AR sparse gradient after its own
            // AllGatherv. Every replica applies the identical aggregate.
            let mut ring: Vec<(VarId, Tensor)> = ring_bucket
                .iter()
                .filter_map(|&var| {
                    grads.remove(&var).map(|grad| match grad {
                        Grad::Dense(t) => (var, t),
                        sparse => (var, sparse.to_dense()),
                    })
                })
                .collect();
            if let (Some(first), false) = (ring_bucket.first(), ring.is_empty()) {
                let mut bufs: Vec<&mut [f32]> =
                    ring.iter_mut().map(|(_, t)| t.data_mut()).collect();
                collectives::ring_allreduce_wire(
                    endpoint,
                    &worker_ranks,
                    tag::allreduce_tag(first.index(), iter as u64),
                    &mut bufs,
                    self.config.wire_format,
                )?;
            }
            let mut ring = ring.into_iter().peekable();
            let mut sq_norm = 0.0f64;
            for &var in ar_vars {
                if let Some((_, mut agg)) = ring.next_if(|(v, _)| *v == var) {
                    if self.config.average_dense {
                        // Multiply by the reciprocal, matching the
                        // server's `Grad::scale(1.0 / workers)`, so a
                        // variable moved between AR and PS averages to
                        // identical bits.
                        let inv = 1.0 / workers as f32;
                        for v in agg.data_mut() {
                            *v *= inv;
                        }
                    }
                    if self.config.trace_gradients {
                        sq_norm += agg.data().iter().map(|x| (x * x) as f64).sum::<f64>();
                    }
                    let _apply =
                        parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.apply");
                    optimizer.apply_dense(var.index() as u64, local.get_mut(var)?, &agg)?;
                    continue;
                }
                let Some(grad) = grads.remove(&var) else {
                    continue;
                };
                let Grad::Sparse(s) = grad else {
                    return Err(CoreError::Worker(format!(
                        "variable '{}' has a dense gradient, but its exchange is AllGatherv",
                        self.graph.var_def(var)?.name
                    )));
                };
                let parts = collectives::allgatherv_slices_parts_wire(
                    endpoint,
                    &worker_ranks,
                    tag::gatherv_tag(var.index(), iter as u64),
                    s,
                    self.config.wire_format,
                )?;
                // Canonical machine-blocked fold shared with the PS
                // accumulators (parts arrive in worker_ranks order, which
                // is machine-major).
                let mut agg =
                    parallax_tensor::IndexedSlices::coalesce_grouped(&parts, &worker_machines)?;
                if self.config.average_sparse {
                    agg = agg.scale(1.0 / workers as f32);
                }
                if self.config.trace_gradients {
                    sq_norm += agg
                        .values()
                        .data()
                        .iter()
                        .map(|x| (x * x) as f64)
                        .sum::<f64>();
                }
                let _apply = parallax_trace::span(parallax_trace::SpanCat::Phase, "phase.apply");
                optimizer.apply_sparse(var.index() as u64, local.get_mut(var)?, &agg)?;
            }

            // Parameter Server path.
            for &var in ps_vars {
                let grad = grads.get(&var).ok_or_else(|| {
                    let name = self
                        .graph
                        .var_def(var)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|_| format!("#{}", var.index()));
                    CoreError::Worker(format!(
                        "PS variable '{name}' received no gradient; servers would stall"
                    ))
                })?;
                match (exchanges[var.index()], grad) {
                    (Exchange::LocalAggPush, Grad::Sparse(s)) => {
                        if let Some(agg) =
                            locally_aggregate(endpoint, &self.topo, iter as u64, var, s)
                                .map_err(CoreError::Ps)?
                        {
                            client
                                .push(endpoint, var, &Grad::Sparse(agg))
                                .map_err(CoreError::Ps)?;
                        }
                    }
                    _ => client.push(endpoint, var, grad).map_err(CoreError::Ps)?,
                }
            }
            if sync && is_global_chief {
                for &var in ps_vars {
                    client.chief_update(endpoint, var).map_err(CoreError::Ps)?;
                }
            }
            if sync {
                for &var in ps_vars {
                    client
                        .await_update_done(endpoint, var)
                        .map_err(CoreError::Ps)?;
                }
            }
            // Trace reads: every worker fetches the aggregated gradients
            // the servers saved at update time (Section 5's mechanism for
            // global-norm clipping / status tracing).
            if self.config.trace_gradients {
                for &var in ps_vars {
                    for grad in client
                        .read_aggregates(endpoint, var)
                        .map_err(CoreError::Ps)?
                    {
                        let t = grad.to_dense();
                        sq_norm += t.data().iter().map(|x| (x * x) as f64).sum::<f64>();
                    }
                }
                norms.push(sq_norm.sqrt() as f32);
            }
            // Checkpoint/snapshot boundary: the chief fetches
            // post-update shard values from the servers (they hold this
            // iteration open until the fetches arrive) and writes each
            // configured artifact as one atomic file.
            if is_global_chief && ckpt_interval > 0 && (iter + 1).is_multiple_of(ckpt_interval) {
                self.publish_artifacts(endpoint, client, local, optimizer.as_ref(), iter)?;
            }
        }
        Ok((losses, norms, compute_secs, ctx.local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_range_covers_disjointly() {
        for total in [0usize, 1, 7, 48, 100] {
            for workers in [1usize, 3, 6] {
                let mut covered = 0usize;
                for w in 0..workers {
                    let r = shard_range(total, workers, w);
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, total, "full coverage");
            }
        }
    }

    #[test]
    fn shard_range_balances_remainders() {
        let sizes: Vec<usize> = (0..3).map(|w| shard_range(10, 3, w).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }
}
