//! The training workloads: `lm-ps`, `lm-ps-tcp` and `dense-ar`.
//!
//! Each run builds the job during set-up (model, sparsity profile,
//! verified plan, a fixed pool of batches from the seed, and for
//! `lm-ps-tcp` the socket mesh), then trains in fixed-size chunks until
//! the measuring window closes. Every chunk is one `Runner::run` (or one
//! set of `Runner::run_role` threads over the mesh) of the same
//! iterations on the same batches from the same seeded weights, so every
//! chunk must reproduce the first one bit for bit: losses, final
//! weights and per-class traffic. The first chunk is an untimed warm-up
//! and the reference for those checks.
//!
//! Step times are the intervals between the chief's successive feed
//! calls, so the per-chunk thread start-up is not counted as training
//! time; `samples_per_s` is the median over chunks of each chunk's
//! samples over its summed step time.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parallax_comm::{Endpoint, PeerHealth, TrafficClass, TrafficStats, WireFormat};
use parallax_core::runner::TrafficReport;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{
    get_runner, mean_worker_losses, predict_iteration_traffic, ParallaxConfig, RoleAssignment,
    RoleOutput, Runner,
};
use parallax_dataflow::{Feed, Graph, NodeId};
use parallax_fault::{FaultInjector, FaultPlan};
use parallax_models::data::{ImageDataset, ZipfCorpus};
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::resnet::{self, ResNetConfig};
use parallax_tensor::DetRng;
use parallax_trace::TraceConfig;

use crate::layers::{Tracks, TrainLayers, OP_BUCKETS};
use crate::net::{Mesh, NetTotals};
use crate::{derive_seed, metric, peak_rss_mb, quantile, timed_setups, Budget, Metric, Outcome};

/// Which training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hybrid LM, in-process channels.
    LmPs,
    /// Hybrid LM, loopback TCP mesh.
    LmPsTcp,
    /// Dense ResNet-like model, pure AllReduce, f16 wire.
    DenseAr,
}

/// Machines in every topology (one GPU each).
const MACHINES: usize = 2;

/// The LM of `lm-ps`, `lm-ps-tcp` and `lm-serve`.
pub(crate) const LM: LmConfig = LmConfig {
    vocab: 20_000,
    emb: 32,
    hidden: 16,
    length: 4,
    batch: 8,
    candidates: 512,
    layers: 1,
};

/// Zipf exponent of the LM corpus.
pub(crate) const ZIPF_S: f64 = 1.0;

/// The dense model of `dense-ar`.
const DENSE: ResNetConfig = ResNetConfig {
    features: 256,
    width: 256,
    bottleneck: 64,
    blocks: 6,
    classes: 32,
};

/// Images per worker per step on `dense-ar`.
const DENSE_BATCH: usize = 32;

/// Batches per worker in the pool; chunk lengths are multiples of it,
/// so every chunk covers the pool a whole number of times and per-step
/// counts are the same for every chunk.
const POOL: usize = 32;

/// Kernel threads per process. The two workers (and servers) already
/// keep both CPUs of the reference host busy; splitting each kernel
/// across the shared pool as well only adds contention.
const COMPUTE_THREADS: usize = 1;

/// Iterations per measured chunk: two passes over the pool.
const CHUNK: usize = 2 * POOL;

/// Leading step intervals of every chunk left out of the step times:
/// the first iterations after the threads start pay one-off costs
/// (first pulls, buffer growth) that a long-running job pays once.
const WARM_STEPS: usize = 2;

/// Steps per window of `step_p99_ms`: ten steps lie beyond each
/// window's 99th percentile.
const P99_WINDOW: usize = 1000;

/// How long any blocking receive may wait before the run fails.
const RECV_DEADLINE: Duration = Duration::from_secs(10);

/// Per-thread span capacity while tracing; a chunk records far fewer
/// spans per thread, so nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 19;

/// Random streams derived from the workload seed.
const STREAM_BATCH: u64 = 1;

/// A built training job plus its batch pool.
pub struct Job {
    /// Which workload this is.
    pub kind: Kind,
    /// The single-GPU graph.
    pub graph: Graph,
    /// Its loss node.
    pub loss: NodeId,
    /// The verified distributed job.
    pub runner: Runner,
    /// `pool[worker][k]`: the `k`-th batch of each worker.
    pub pool: Vec<Vec<Feed>>,
    /// Samples (words or images) per global step.
    pub samples_per_step: usize,
    /// The LM itself (LM workloads only), for building its serving slice.
    pub lm: Option<LmModel>,
}

/// Where and how often the chief publishes a serving snapshot.
#[derive(Debug, Clone)]
pub struct Publish {
    /// The snapshot file.
    pub path: std::path::PathBuf,
    /// Iterations between publishes.
    pub every: usize,
}

impl Job {
    /// Builds the job for `kind` from `seed`: model, batch pool,
    /// sparsity profile and verified plan, publishing a serving snapshot
    /// when `publish` is set.
    pub fn build(kind: Kind, seed: u64, publish: Option<Publish>) -> Result<Job, String> {
        let workers = MACHINES;
        let base = ParallaxConfig {
            seed,
            recv_deadline: Some(RECV_DEADLINE),
            compute_threads: Some(COMPUTE_THREADS),
            checkpoint_interval: publish.as_ref().map_or(0, |p| p.every),
            snapshot_path: publish.map(|p| p.path),
            ..ParallaxConfig::default()
        };
        let (graph, loss, pool, config, samples, lm) = match kind {
            Kind::LmPs | Kind::LmPsTcp => {
                let model = LmModel::build(LM).map_err(|e| e.to_string())?;
                let corpus = ZipfCorpus::new(LM.vocab, ZIPF_S);
                let pool: Vec<Vec<Feed>> = (0..workers)
                    .map(|w| {
                        (0..POOL)
                            .map(|k| {
                                let mut rng =
                                    DetRng::seed(derive_seed(seed, STREAM_BATCH, k as u64));
                                model.sharded_feed(&corpus, workers, w, &mut rng)
                            })
                            .collect()
                    })
                    .collect();
                let config = ParallaxConfig {
                    sparse_partitions: Some(MACHINES),
                    ..base
                };
                let (graph, loss) = (model.built.graph.clone(), model.built.loss);
                let samples = LM.batch * LM.length * workers;
                (graph, loss, pool, config, samples, Some(model))
            }
            Kind::DenseAr => {
                let built = resnet::build(DENSE).map_err(|e| e.to_string())?;
                let images = ImageDataset::new(DENSE.features, DENSE.classes);
                let pool: Vec<Vec<Feed>> = (0..workers)
                    .map(|w| {
                        (0..POOL)
                            .map(|k| {
                                let stream = derive_seed(seed, STREAM_BATCH, k as u64);
                                images.feed(
                                    DENSE_BATCH,
                                    &mut DetRng::seed(derive_seed(stream, 0, w as u64)),
                                )
                            })
                            .collect()
                    })
                    .collect();
                let config = ParallaxConfig {
                    wire_format: WireFormat::F16,
                    ..base
                };
                (
                    built.graph,
                    built.loss,
                    pool,
                    config,
                    DENSE_BATCH * workers,
                    None,
                )
            }
        };
        let profile = estimate_profile(&graph, &pool[0][..4], seed).map_err(|e| e.to_string())?;
        let runner = get_runner(graph.clone(), loss, vec![1; MACHINES], config, profile)
            .map_err(|e| e.to_string())?;
        let job = Job {
            kind,
            graph,
            loss,
            runner,
            pool,
            samples_per_step: samples,
            lm,
        };
        job.check_plan()?;
        Ok(job)
    }

    /// The plan must be the one the workload describes: on the LM both
    /// embeddings on the PS and everything else AllReduced, on the dense
    /// model no servers at all.
    fn check_plan(&self) -> Result<(), String> {
        let plan = self.runner.plan();
        let ps: Vec<String> = plan
            .ps_vars()
            .iter()
            .map(|&v| self.graph.var_def(v).map(|d| d.name.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let expect: Vec<&str> = match self.kind {
            Kind::LmPs | Kind::LmPsTcp => vec!["lm/emb_in", "lm/emb_out"],
            Kind::DenseAr => vec![],
        };
        let ar = plan.ar_vars().len();
        if ps != expect || ar + ps.len() != self.graph.variables().len() {
            return Err(format!(
                "unexpected plan: PS variables {ps:?}, {ar} AllReduce variables"
            ));
        }
        if plan.needs_servers() == expect.is_empty() {
            return Err("plan's server use does not match its PS variables".into());
        }
        Ok(())
    }

    /// Which trace lanes are the chief, the workers and the servers.
    pub fn tracks(&self) -> Tracks {
        let topo = self.runner.topology();
        let workers: Vec<u32> = topo.worker_ranks().iter().map(|&r| r as u32).collect();
        let servers = if self.runner.plan().needs_servers() {
            (0..topo.num_machines())
                .map(|m| topo.server_rank(m) as u32)
                .collect()
        } else {
            Vec::new()
        };
        Tracks {
            chief: workers[0],
            workers,
            servers,
        }
    }

    /// Transport ranks of the job (workers and servers).
    pub fn ranks(&self) -> usize {
        self.runner.topology().num_endpoints()
    }
}

/// Hands out pool batches round-robin and times the chief's calls.
struct Feeder<'a> {
    pool: &'a [Vec<Feed>],
    base: Instant,
    /// Chief feed calls: (start ns since `base`, duration ns).
    chief: Mutex<Vec<(u64, u64)>>,
}

impl<'a> Feeder<'a> {
    fn new(pool: &'a [Vec<Feed>], iterations: usize) -> Self {
        Feeder {
            pool,
            base: Instant::now(),
            chief: Mutex::new(Vec::with_capacity(iterations)),
        }
    }

    fn feed(&self, worker: usize, iter: usize) -> Feed {
        let batches = &self.pool[worker];
        if worker != 0 {
            return batches[iter % batches.len()].clone();
        }
        let t0 = Instant::now();
        let feed = batches[iter % batches.len()].clone();
        let t1 = Instant::now();
        self.chief.lock().expect("feed clock poisoned").push((
            t0.duration_since(self.base).as_nanos() as u64,
            t1.duration_since(t0).as_nanos() as u64,
        ));
        feed
    }
}

/// What one chunk produced.
pub struct Chunk {
    /// Iterations run.
    pub iterations: usize,
    /// Mean loss per iteration.
    pub losses: Vec<f32>,
    /// Final weights, by variable index.
    pub model: Vec<(usize, Vec<f32>)>,
    /// Measured traffic by class.
    pub traffic: TrafficReport,
    /// Chief feed-to-feed intervals of the steady iterations
    /// `WARM_STEPS..iterations - 1`, ns; interval `i` is iteration
    /// `WARM_STEPS + i` (the last iteration has no following feed).
    pub steps_ns: Vec<u64>,
    /// Chief time inside the feed closure over those iterations, ns.
    pub feed_ns: u64,
}

impl Chunk {
    fn assemble(
        iterations: usize,
        losses: Vec<f32>,
        final_model: std::collections::HashMap<usize, parallax_tensor::Tensor>,
        traffic: TrafficReport,
        feeder: Feeder<'_>,
    ) -> Chunk {
        let mut model: Vec<(usize, Vec<f32>)> = final_model
            .into_iter()
            .map(|(v, t)| (v, t.data().to_vec()))
            .collect();
        model.sort_by_key(|(v, _)| *v);
        let calls = feeder.chief.into_inner().expect("feed clock poisoned");
        let steady = calls.get(WARM_STEPS..).unwrap_or_default();
        let steps_ns = steady.windows(2).map(|w| w[1].0 - w[0].0).collect();
        let feed_ns = steady
            .iter()
            .take(steady.len().saturating_sub(1))
            .map(|c| c.1)
            .sum();
        Chunk {
            iterations,
            losses,
            model,
            traffic,
            steps_ns,
            feed_ns,
        }
    }

    /// The iterations `steps_ns` covers.
    pub fn steady_iterations(&self) -> std::ops::Range<u64> {
        let first = WARM_STEPS as u64;
        first..first + self.steps_ns.len() as u64
    }

    /// Network bytes per iteration over every traffic class.
    pub fn net_bytes_per_step(&self) -> f64 {
        self.traffic.total_network_bytes() as f64 / self.iterations as f64
    }

    /// Routed messages (inter- and intra-machine) per iteration.
    pub fn messages_per_step(&self) -> f64 {
        let t = &self.traffic;
        let msgs: u64 = [&t.nccl, &t.mpi, &t.ps, &t.local_agg, &t.other]
            .iter()
            .map(|s| s.inter_messages + s.intra_messages)
            .sum();
        msgs as f64 / self.iterations as f64
    }

    /// Where `self` and `other` differ, if anywhere: losses and weights
    /// bit for bit, traffic class by class.
    pub fn mismatch(&self, other: &Chunk) -> Option<String> {
        if !crate::bits_eq(&self.losses, &other.losses) {
            return Some("losses differ".into());
        }
        if self.model.len() != other.model.len()
            || self
                .model
                .iter()
                .zip(&other.model)
                .any(|(a, b)| a.0 != b.0 || !crate::bits_eq(&a.1, &b.1))
        {
            return Some("final weights differ".into());
        }
        traffic_mismatch(&self.traffic, &other.traffic)
    }
}

/// The first traffic class on which two reports differ.
pub fn traffic_mismatch(a: &TrafficReport, b: &TrafficReport) -> Option<String> {
    let classes = [
        ("nccl", &a.nccl, &b.nccl),
        ("mpi", &a.mpi, &b.mpi),
        ("ps", &a.ps, &b.ps),
        ("local_agg", &a.local_agg, &b.local_agg),
        ("other", &a.other, &b.other),
    ];
    classes
        .into_iter()
        .find(|(_, x, y)| x != y)
        .map(|(name, x, y)| {
            format!(
                "{name} traffic differs: {} vs {} network bytes, {} vs {} messages",
                x.total_network_bytes(),
                y.total_network_bytes(),
                x.inter_messages + x.intra_messages,
                y.inter_messages + y.intra_messages
            )
        })
}

/// One chunk over the in-process channel transport (`Runner::run`).
pub fn run_in_process(job: &Job, iterations: usize) -> Result<Chunk, String> {
    let feeder = Feeder::new(&job.pool, iterations);
    let report = job
        .runner
        .run(iterations, |w, i| feeder.feed(w, i))
        .map_err(|e| e.to_string())?;
    Ok(Chunk::assemble(
        iterations,
        report.losses,
        report.final_model,
        report.traffic,
        feeder,
    ))
}

/// One chunk over the TCP mesh: every rank runs `Runner::run_role` on
/// its own thread, with an endpoint over its socket.
pub fn run_over_mesh(job: &Job, mesh: &Mesh, iterations: usize) -> Result<Chunk, String> {
    let runner = &job.runner;
    let topo = runner.topology();
    let traffic = TrafficStats::new(topo.num_machines());
    let health = Arc::new(PeerHealth::default());
    let injector = Arc::new(FaultInjector::new(FaultPlan::new()));
    let mut roles: Vec<(RoleAssignment, usize)> = topo
        .worker_ranks()
        .into_iter()
        .enumerate()
        .map(|(index, rank)| (RoleAssignment::Worker { index }, rank))
        .collect();
    if runner.plan().needs_servers() {
        roles.extend(
            (0..topo.num_machines())
                .map(|m| (RoleAssignment::Server { machine: m }, topo.server_rank(m))),
        );
    }
    let feeder = Feeder::new(&job.pool, iterations);
    let outputs: Vec<Result<RoleOutput, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = roles
            .iter()
            .map(|&(role, rank)| {
                let (traffic, health, injector, feeder) = (&traffic, &health, &injector, &feeder);
                s.spawn(move || {
                    let mut endpoint = Endpoint::from_transport(
                        topo.comm().clone(),
                        rank,
                        Box::new(mesh.link(rank)),
                        Arc::clone(traffic),
                        Arc::clone(health),
                        None,
                    )
                    .map_err(|e| e.to_string())?;
                    endpoint.set_recv_deadline(RECV_DEADLINE);
                    runner
                        .run_role(role, endpoint, iterations, 0, None, injector, &|w, i| {
                            feeder.feed(w, i)
                        })
                        .map_err(|e| format!("{role:?}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("role thread panicked"))
            .collect()
    });
    let mut worker_losses = vec![Vec::new(); topo.num_workers()];
    let mut chief = None;
    let mut shards = Vec::new();
    for ((role, _), output) in roles.iter().zip(outputs) {
        match (role, output?) {
            (RoleAssignment::Worker { index }, RoleOutput::Worker { losses, store, .. }) => {
                worker_losses[*index] = losses;
                if *index == 0 {
                    chief = Some(store);
                }
            }
            (RoleAssignment::Server { .. }, RoleOutput::Server { shards: s }) => shards.extend(s),
            (role, _) => return Err(format!("{role:?} returned the other role's output")),
        }
    }
    let chief = chief.ok_or("chief produced no model")?;
    let final_model = runner
        .stitch_final_model(&chief, shards)
        .map_err(|e| e.to_string())?;
    let leftovers = mesh.drain_leftovers();
    if leftovers > 0 {
        return Err(format!("{leftovers} messages left unconsumed on the mesh"));
    }
    let report = TrafficReport {
        nccl: traffic.class_snapshot(TrafficClass::Nccl),
        mpi: traffic.class_snapshot(TrafficClass::Mpi),
        ps: traffic.class_snapshot(TrafficClass::Ps),
        local_agg: traffic.class_snapshot(TrafficClass::LocalAgg),
        other: traffic.class_snapshot(TrafficClass::Default),
    };
    Ok(Chunk::assemble(
        iterations,
        mean_worker_losses(&worker_losses),
        final_model,
        report,
        feeder,
    ))
}

/// Checks the static per-class traffic prediction against one-iteration
/// runs on the first `iterations` pool batches, byte for byte.
pub fn check_predicted_traffic(job: &Job, iterations: usize) -> Result<(), String> {
    let runner = &job.runner;
    for k in 0..iterations {
        let feeds: Vec<Feed> = job.pool.iter().map(|batches| batches[k].clone()).collect();
        let (predicted, _) = predict_iteration_traffic(
            &job.graph,
            job.loss,
            runner.plan(),
            runner.topology(),
            runner.config(),
            &feeds,
        )
        .map_err(|e| e.to_string())?;
        let measured = runner
            .run(1, |w, _| job.pool[w][k].clone())
            .map_err(|e| e.to_string())?
            .traffic;
        if let Some(diff) = traffic_mismatch(&predicted, &measured) {
            return Err(format!("batch {k}: predicted vs measured: {diff}"));
        }
    }
    Ok(())
}

/// Sanity of the reference chunk's losses: finite, and on the dense
/// model lower at the end than at the start (the pool is small enough
/// to fit).
fn check_losses(kind: Kind, losses: &[f32]) -> Result<(), String> {
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("loss at iteration {i} is {}", losses[i]));
    }
    if kind == Kind::DenseAr {
        let k = (losses.len() / 4).max(1);
        let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
        let (first, last) = (mean(&losses[..k]), mean(&losses[losses.len() - k..]));
        if last >= first {
            return Err(format!("dense loss did not fall: {first} -> {last}"));
        }
    }
    Ok(())
}

/// Set-up product: the job, its mesh (TCP only) and the connect time.
struct Setup {
    job: Job,
    mesh: Option<Mesh>,
    mesh_connect_s: f64,
}

fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let job = Job::build(kind, seed, None)?;
    let (mesh, mesh_connect_s) = if kind == Kind::LmPsTcp {
        let t = Instant::now();
        let mesh = Mesh::connect(job.ranks())?;
        (Some(mesh), t.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };
    Ok(Setup {
        job,
        mesh,
        mesh_connect_s,
    })
}

fn exec(s: &Setup, iterations: usize) -> Result<Chunk, String> {
    match &s.mesh {
        Some(mesh) => run_over_mesh(&s.job, mesh, iterations),
        None => run_in_process(&s.job, iterations),
    }
}

/// Chief step times of the untraced or the traced chunks.
#[derive(Default)]
struct StepTimes {
    steps_ns: Vec<u64>,
    /// Per chunk: samples per second over its feed-to-feed span.
    chunk_rates: Vec<f64>,
}

impl StepTimes {
    fn add(&mut self, chunk: &Chunk, samples_per_step: usize) {
        let span: u64 = chunk.steps_ns.iter().sum();
        if span > 0 {
            let samples = (samples_per_step * chunk.steps_ns.len()) as f64;
            self.chunk_rates.push(samples / (span as f64 / 1e9));
        }
        self.steps_ns.extend(&chunk.steps_ns);
    }

    /// Median over chunks of each chunk's throughput: robust to a chunk
    /// that a noisy neighbour slowed down.
    fn samples_per_s(&self) -> f64 {
        crate::median(&mut self.chunk_rates.clone())
    }

    fn p50_ms(&self) -> f64 {
        let mut ms: Vec<f64> = self.steps_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        quantile(&mut ms, 0.50)
    }

    /// The 99th percentile of each window of [`P99_WINDOW`] consecutive
    /// steps (a partial last window is dropped unless it is the only
    /// one), median over windows: one host stall raises one window's
    /// tail, not the run's.
    fn p99_ms(&self) -> f64 {
        let mut per_window: Vec<f64> = self
            .steps_ns
            .chunks(P99_WINDOW)
            .enumerate()
            .filter(|(i, w)| *i == 0 || w.len() == P99_WINDOW)
            .map(|(_, w)| {
                let mut ms: Vec<f64> = w.iter().map(|&ns| ns as f64 / 1e6).collect();
                quantile(&mut ms, 0.99)
            })
            .collect();
        crate::median(&mut per_window)
    }
}

/// Runs one training workload: set-up, warm-up, measuring, checks.
pub fn run(kind: Kind, seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let mut connect_times = Vec::new();
    let built = timed_setups(|| {
        let s = setup(kind, seed)?;
        connect_times.push(s.mesh_connect_s);
        Ok::<_, String>(s)
    });
    let (s, setup_s) = match built {
        Ok(v) => v,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problem(format!("set-up failed: {e}"));
            return out;
        }
    };
    let job = &s.job;
    let n = CHUNK;

    // Warm-up and reference chunk, untimed.
    let reference = match exec(&s, n) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = n as u64;
            out.failed = n as u64;
            out.problem(format!("reference chunk failed: {e}"));
            return out;
        }
    };
    if let Err(e) = check_losses(kind, &reference.losses) {
        out.problem(e);
    }
    // Memory the job needs: set-up plus one whole chunk. Read here, not
    // at the end, so the allocator's per-thread arenas (every chunk
    // starts fresh threads) do not make it depend on the run length.
    let rss_mb = peak_rss_mb();

    let tracks = job.tracks();
    let mut untraced = StepTimes::default();
    let mut traced = StepTimes::default();
    let mut layers = TrainLayers::default();
    let mut net = NetTotals::default();
    let mut ps_requests = 0u64;
    let mut traced_iters = 0u64;
    let min_chunks = 1 + usize::from(budget.trace);
    let started = Instant::now();
    let mut chunks = 0usize;
    while chunks < min_chunks || started.elapsed() < budget.window() {
        let tracing = budget.trace && chunks % 2 == 1;
        chunks += 1;
        if tracing {
            parallax_trace::configure(TraceConfig::On {
                per_thread_capacity: TRACE_CAPACITY,
            });
            parallax_trace::reset();
        }
        let net_before = s.mesh.as_ref().map(Mesh::totals).unwrap_or_default();
        let result = exec(&s, n);
        parallax_trace::disable();
        out.attempted += n as u64;
        let chunk = match result {
            Ok(c) => c,
            Err(e) => {
                out.failed += n as u64;
                out.problem(format!("chunk {chunks} failed: {e}"));
                break;
            }
        };
        if let Some(diff) = chunk.mismatch(&reference) {
            out.failed += n as u64;
            out.problem(format!(
                "chunk {chunks} does not reproduce the reference: {diff}"
            ));
        }
        if tracing {
            let dump = parallax_trace::drain();
            layers.absorb(
                &dump,
                &tracks,
                chunk.steady_iterations(),
                chunk.steps_ns.iter().sum(),
            );
            layers.feed_ns += chunk.feed_ns;
            ps_requests += dump
                .counters
                .iter()
                .find(|(name, _)| name == "ps.requests")
                .map_or(0, |(_, v)| *v);
            if let Some(mesh) = &s.mesh {
                let d = mesh.totals().since(&net_before);
                net.send_ns += d.send_ns;
                net.recv_wait_ns += d.recv_wait_ns;
                net.frames += d.frames;
                net.frame_bytes += d.frame_bytes;
            }
            traced_iters += n as u64;
            traced.add(&chunk, job.samples_per_step);
        } else {
            untraced.add(&chunk, job.samples_per_step);
        }
    }

    // Cross-mode and static checks, untimed.
    if kind == Kind::LmPsTcp {
        match run_in_process(job, n) {
            Ok(local) => {
                if let Some(diff) = reference.mismatch(&local) {
                    out.problem(format!(
                        "socket run differs from the in-process run: {diff}"
                    ));
                }
            }
            Err(e) => out.problem(format!("in-process comparison run failed: {e}")),
        }
    }
    if kind == Kind::LmPs {
        if let Err(e) = check_predicted_traffic(job, 2) {
            out.problem(e);
        }
    }

    let sps = untraced.samples_per_s();
    out.end_to_end = vec![
        metric("samples_per_s", sps),
        metric("step_p50_ms", untraced.p50_ms()),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", rss_mb),
    ];
    if budget.trace {
        out.problems.extend(layers.attribution_problems());
        let traced_sps = traced.samples_per_s();
        let overhead = if sps > 0.0 {
            100.0 * (sps - traced_sps) / sps
        } else {
            0.0
        };
        let mut per_layer =
            train_layer_metrics(&layers, &reference, net, traced_iters, ps_requests);
        per_layer.extend([
            // From the untraced chunks: the tail users see.
            metric("step_p99_ms", untraced.p99_ms()),
            metric(
                "net.mesh_connect_ms",
                1e3 * crate::median(&mut connect_times),
            ),
            metric(
                "error_rate",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
            metric("trace.dropped", layers.dropped as f64),
            metric("trace.overhead_pct", overhead),
            metric("trace.traced_steps", layers.steps as f64),
        ]);
        out.per_layer = per_layer;
    }
    out
}

/// Per-step layer metrics of the traced chunks. Times are per measured
/// chief step; counts come from whole chunks (every chunk repeats the
/// reference exactly), so they are exact and repeat run to run.
fn train_layer_metrics(
    l: &TrainLayers,
    reference: &Chunk,
    net: NetTotals,
    traced_iters: u64,
    ps_requests: u64,
) -> Vec<Metric> {
    let steps = l.steps.max(1) as f64;
    let iters = traced_iters.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / steps;
    let mut v = vec![
        metric("models.feed_ms", ms(l.feed_ns)),
        metric("dataflow.forward_ms", ms(l.forward_ns)),
        metric("dataflow.backward_ms", ms(l.backward_ns)),
    ];
    for (bucket, &ns) in OP_BUCKETS.iter().zip(&l.ops_ns) {
        v.push(metric(&format!("tensor.{bucket}_ms"), ms(ns)));
    }
    v.extend([
        metric("core.step_ms", ms(l.step_ns)),
        metric(
            "core.exchange_ms",
            ms(l.exchange_ns.saturating_sub(l.apply_ns)),
        ),
        metric("core.apply_ms", ms(l.apply_ns)),
        metric(
            "core.unattributed_ms",
            l.unattributed_ns() as f64 / 1e6 / steps,
        ),
        metric(
            "core.compute_skew",
            l.skew_max_ns as f64 / l.skew_min_ns.max(1) as f64,
        ),
        metric("comm.allreduce_ms", ms(l.allreduce_ns)),
        metric("comm.allreduce_calls", l.allreduce_calls as f64 / steps),
        metric("comm.net_bytes", reference.net_bytes_per_step()),
        metric("comm.messages", reference.messages_per_step()),
        metric("ps.pull_ms", ms(l.pull_ns)),
        metric("ps.push_ms", ms(l.push_ns)),
        metric("ps.await_update_ms", ms(l.await_ns)),
        metric("ps.server_busy_ms", ms(l.server_busy_ns)),
        metric("ps.server_idle_ms", ms(l.server_idle_ns)),
        metric("ps.apply_ms", ms(l.server_apply_ns)),
        metric("ps.requests", ps_requests as f64 / iters),
        // The transport wrapper cannot tell iterations apart, so the
        // socket figures are per iteration of the traced chunks.
        metric("net.send_ms", net.send_ns as f64 / 1e6 / iters),
        metric("net.recv_wait_ms", net.recv_wait_ns as f64 / 1e6 / iters),
        metric("net.frames", net.frames as f64 / iters),
        metric("net.frame_bytes", net.frame_bytes as f64 / iters),
    ]);
    v
}
