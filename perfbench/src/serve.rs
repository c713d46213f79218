//! The `lm-serve` workload: full-vocabulary next-token requests from the
//! Zipf corpus through `ServeEngine`, over a snapshot the `lm-ps` job
//! publishes during set-up.
//!
//! Phase A is an open loop: one generator submits Poisson arrivals at a
//! fixed absolute mean rate and each latency counts from when its
//! request was due. A full queue holds the generator back (blocking
//! `submit`) rather than refusing the request: the wait shows in the
//! latency, not as a failure. Phase B is a closed loop that keeps a
//! fixed window of tickets outstanding; it gives the saturated request
//! rate, as the median over quarter-second slices. A fixed sample of responses must
//! be bitwise equal to a forward pass of the training graph over the
//! snapshot.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use parallax_core::snapshot::Snapshot;
use parallax_dataflow::{Feed, Graph, Session, VarStore};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::LmModel;
use parallax_serve::{LmRequest, LmServe, ServeConfig, ServeEngine};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::{SpanCat, TraceConfig, TraceDump};

use crate::layers::op_bucket;
use crate::train::{self, Job, Kind, Publish, LM, ZIPF_S};
use crate::{derive_seed, metric, peak_rss_mb, quantile, timed_setups, Budget, Metric, Outcome};

/// Training iterations before serving; the chief publishes once, at the
/// end.
const TRAIN_ITERS: usize = 16;

/// Phase A's mean arrival rate, requests per second: a fixed absolute
/// rate, about a quarter of the closed-loop rate of a 2-CPU host. Every
/// batch costs the same whatever its fill (requests are padded to the
/// model batch), so the two engine workers stay busy at this rate
/// already. Arrivals are a Poisson process: with evenly spaced arrivals
/// the two workers lock into a phase that persists for seconds and
/// moves the median latency by up to a fifth from run to run.
/// When the whole process stalls (a CPU-quota pause on a shared host),
/// the generator catches up in a burst that can fill the 64-slot queue
/// at any rate; it then blocks until a slot frees.
const OPEN_LOOP_QPS: f64 = 1500.0;

/// Open-loop latency quantiles are taken per slice of this length
/// (about 1500 requests: the 99th percentile has 15 beyond it) and the
/// median over slices is reported, so one transient host stall does
/// not decide a run's p99.
const LATENCY_SLICE: Duration = Duration::from_secs(1);

/// Phase B's outstanding tickets.
const WINDOW: usize = 32;

/// Engine settings.
const ENGINE: ServeConfig = ServeConfig {
    queue_capacity: 64,
    workers: 2,
    refresh: false,
};

/// Distinct request contexts, reused round-robin.
const REQUESTS: usize = 1024;

/// Requests whose responses are checked bit for bit (whole batches).
const CHECKED: usize = 2 * LM.batch;

/// Timed `Snapshot::open` calls; `snapshot.open_us` is their median.
const OPENS: usize = 16;

/// The closed loop's rate is the median over slices this long.
const SLICE: Duration = Duration::from_millis(250);

/// Untimed closed-loop warm-up before measuring.
const WARMUP: Duration = Duration::from_millis(300);

/// Per-thread span capacity while tracing.
const TRACE_CAPACITY: usize = 1 << 19;

const STREAM_REQUESTS: u64 = 2;
const STREAM_ARRIVALS: u64 = 3;

/// Everything set-up builds: the trained snapshot, the request pool,
/// and a started engine over the snapshot.
struct Setup {
    model: LmModel,
    snapshot: PathBuf,
    requests: Vec<LmRequest>,
    engine: ServeEngine<LmServe>,
}

fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let snapshot = dir.join("lm.snap");
    let job = Job::build(
        Kind::LmPs,
        seed,
        Some(Publish {
            path: snapshot.clone(),
            every: TRAIN_ITERS,
        }),
    )?;
    train::run_in_process(&job, TRAIN_ITERS)?;
    let model = job.lm.ok_or("LM job without its model")?;
    let corpus = ZipfCorpus::new(LM.vocab, ZIPF_S);
    let mut rng = DetRng::seed(derive_seed(seed, STREAM_REQUESTS, 0));
    let requests = (0..REQUESTS)
        .map(|_| LmRequest {
            context: (0..LM.length).map(|_| corpus.sample(&mut rng)).collect(),
        })
        .collect();
    let serve = LmServe::new(&model).map_err(|e| e.to_string())?;
    let engine = ServeEngine::start(serve, snapshot.clone(), ENGINE).map_err(|e| e.to_string())?;
    Ok(Setup {
        model,
        snapshot,
        requests,
        engine,
    })
}

/// Logits rows of the training graph over the snapshot's weights for
/// `requests` (a whole number of batches), in request order.
fn reference_logits(
    model: &LmModel,
    snap: &Snapshot,
    requests: &[LmRequest],
) -> Result<Vec<Vec<f32>>, String> {
    let graph: &Graph = &model.built.graph;
    let values = graph
        .variables()
        .iter()
        .map(|def| snap.view(&def.name).map(|v| v.to_tensor()))
        .collect::<Result<Vec<Tensor>, _>>()
        .map_err(|e| e.to_string())?;
    let mut store = VarStore::from_values(values);
    let b = LM.batch;
    let mut rows = Vec::with_capacity(requests.len());
    for batch in requests.chunks(b) {
        let mut ids = Vec::with_capacity(LM.length * b);
        for t in 0..LM.length {
            ids.extend(batch.iter().map(|r| r.context[t]));
        }
        let mut feed = Feed::new()
            .with("ids", ids)
            .with("cands", (0..LM.vocab).collect::<Vec<usize>>())
            .with("h0", Tensor::zeros([b, LM.hidden]))
            .with("c0", Tensor::zeros([b, LM.hidden]));
        for t in 0..LM.length {
            feed.insert(format!("labels_{t}"), vec![0usize; b]);
        }
        let acts = Session::new(graph)
            .forward(&feed, &mut store)
            .map_err(|e| e.to_string())?;
        let logits = acts.tensor(model.built.logits).map_err(|e| e.to_string())?;
        for slot in 0..batch.len() {
            rows.push(logits.row(slot).map_err(|e| e.to_string())?.to_vec());
        }
    }
    Ok(rows)
}

/// Tallies of one serving phase.
#[derive(Debug, Default)]
struct Phase {
    submitted: u64,
    failed: u64,
    /// Responses served from a snapshot other than the trained one.
    stale: u64,
    /// Due-to-response latency, µs, per [`LATENCY_SLICE`] of due times
    /// (open loop only).
    latency_us: Vec<Vec<f64>>,
    /// Engine submit-to-response latency, µs, including any wait for a
    /// queue slot (open loop only).
    engine_us: Vec<f64>,
    /// How late the generator submitted, µs (open loop only).
    late_us: Vec<f64>,
    /// Closed loop: completion rate of each [`SLICE`] of the window.
    slice_qps: Vec<f64>,
}

/// Phase A: submits Poisson arrivals at a mean `rate` per second for
/// `window`, timing each response from when its request was due.
fn open_loop(s: &Setup, seed: u64, rate: f64, window: Duration) -> Phase {
    let mut phase = Phase::default();
    let (tx, rx) = mpsc::channel::<(usize, Duration, parallax_serve::Ticket<Vec<f32>>)>();
    let step = TRAIN_ITERS as u64;
    let started = Instant::now();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut c = Phase::default();
            for (slice, late, ticket) in rx {
                match ticket.wait() {
                    Ok(resp) => {
                        let engine_us = resp.latency_ns as f64 / 1e3;
                        if c.latency_us.len() <= slice {
                            c.latency_us.resize_with(slice + 1, Vec::new);
                        }
                        c.latency_us[slice].push(late.as_secs_f64() * 1e6 + engine_us);
                        c.engine_us.push(engine_us);
                        c.stale += u64::from(resp.step != step);
                    }
                    Err(_) => c.failed += 1,
                }
            }
            c
        });
        let mut arrivals = DetRng::seed(derive_seed(seed, STREAM_ARRIVALS, 0));
        let (mut offset, mut k) = (Duration::ZERO, 0usize);
        while offset < window {
            let due = started + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            let req = s.requests[k % s.requests.len()].clone();
            let submit = Instant::now();
            phase.submitted += 1;
            match s.engine.submit(req) {
                Ok(ticket) => {
                    let late = submit.duration_since(due);
                    phase.late_us.push(late.as_secs_f64() * 1e6);
                    let slice = (offset.as_nanos() / LATENCY_SLICE.as_nanos()) as usize;
                    tx.send((slice, late, ticket)).expect("collector alive");
                }
                Err(_) => phase.failed += 1,
            }
            k += 1;
            // Exponential gap: u in (0, 1], so the logarithm is finite.
            let u = ((arrivals.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            offset += Duration::from_secs_f64(-u.ln() / rate);
        }
        drop(tx);
        collector.join().expect("collector panicked")
    });
    phase.failed += collected.failed;
    phase.stale = collected.stale;
    phase.latency_us = collected.latency_us;
    phase.engine_us = collected.engine_us;
    phase
}

/// Phase B: keeps [`WINDOW`] tickets outstanding for `window`; the rate
/// counts responses received inside the window.
fn closed_loop(s: &Setup, window: Duration) -> Phase {
    let mut phase = Phase::default();
    let step = TRAIN_ITERS as u64;
    let mut outstanding = VecDeque::with_capacity(WINDOW);
    let mut k = 0usize;
    let mut submit = |phase: &mut Phase, q: &mut VecDeque<_>| {
        let req = s.requests[k % s.requests.len()].clone();
        k += 1;
        phase.submitted += 1;
        match s.engine.submit(req) {
            Ok(ticket) => q.push_back(ticket),
            Err(_) => phase.failed += 1,
        }
    };
    let started = Instant::now();
    for _ in 0..WINDOW {
        submit(&mut phase, &mut outstanding);
    }
    let receive = |phase: &mut Phase, ticket: parallax_serve::Ticket<Vec<f32>>| match ticket.wait()
    {
        Ok(resp) => {
            phase.stale += u64::from(resp.step != step);
            true
        }
        Err(_) => {
            phase.failed += 1;
            false
        }
    };
    let (mut slice_start, mut slice_done) = (started, 0u64);
    while started.elapsed() < window {
        let Some(ticket) = outstanding.pop_front() else {
            break;
        };
        if receive(&mut phase, ticket) {
            slice_done += 1;
        }
        submit(&mut phase, &mut outstanding);
        let in_slice = slice_start.elapsed();
        if in_slice >= SLICE {
            phase
                .slice_qps
                .push(slice_done as f64 / in_slice.as_secs_f64());
            (slice_start, slice_done) = (Instant::now(), 0);
        }
    }
    while let Some(ticket) = outstanding.pop_front() {
        receive(&mut phase, ticket);
    }
    phase
}

impl Phase {
    /// Open-loop latency quantile `q` in µs: the median over slices.
    fn latency_us(&self, q: f64) -> f64 {
        let mut per_slice: Vec<f64> = self
            .latency_us
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(&mut l.clone(), q))
            .collect();
        crate::median(&mut per_slice)
    }

    /// Closed-loop rate: the median slice, robust to a slice a noisy
    /// neighbour slowed down.
    fn qps(&self) -> f64 {
        crate::median(&mut self.slice_qps.clone())
    }
}

/// Per-layer sums over the traced serving phases.
#[derive(Debug, Default)]
struct ServeLayers {
    batches: u64,
    batch_ns: u64,
    batch_size_sum: u64,
    ops_ns: [u64; 5],
    dropped: u64,
}

impl ServeLayers {
    fn absorb(&mut self, dump: &TraceDump) {
        self.dropped += dump.dropped;
        let selfs = parallax_trace::export::self_durations(&dump.records);
        for (r, &self_ns) in dump.records.iter().zip(&selfs) {
            match (r.cat, r.name) {
                (SpanCat::Phase, "serve.batch") => {
                    self.batches += 1;
                    self.batch_ns += r.dur_ns;
                }
                (SpanCat::Compute, name) => self.ops_ns[op_bucket(name)] += self_ns,
                _ => {}
            }
        }
        if let Some((_, h)) = dump
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.batch_size")
        {
            self.batch_size_sum += h.sum;
        }
    }
}

/// Runs `f` with the tracer on and folds what it recorded into `layers`.
fn traced<T>(layers: &mut ServeLayers, f: impl FnOnce() -> T) -> T {
    parallax_trace::configure(TraceConfig::On {
        per_thread_capacity: TRACE_CAPACITY,
    });
    parallax_trace::reset();
    let out = f();
    parallax_trace::disable();
    layers.absorb(&parallax_trace::drain());
    out
}

/// A run directory inside the working directory, unique to this process.
fn run_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench_run").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs the `lm-serve` workload.
pub fn run(seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let dir = match run_dir() {
        Ok(d) => d,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problem(e);
            return out;
        }
    };
    measure(seed, budget, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Fails, harmlessly, while another run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    out
}

fn measure(seed: u64, budget: Budget, dir: &Path, out: &mut Outcome) {
    let (s, setup_s) = match timed_setups(|| setup(seed, dir)) {
        Ok(v) => v,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.problem(format!("set-up failed: {e}"));
            return;
        }
    };

    // Snapshot loads, then the bitwise check of a fixed sample.
    let mut opens = Vec::with_capacity(OPENS);
    let mut snap = None;
    for _ in 0..OPENS {
        let t = Instant::now();
        match Snapshot::open(&s.snapshot) {
            Ok(opened) => {
                opens.push(t.elapsed().as_secs_f64() * 1e6);
                snap = Some(opened);
            }
            Err(e) => out.problem(format!("snapshot open failed: {e}")),
        }
    }
    let sample = &s.requests[..CHECKED];
    out.attempted += CHECKED as u64;
    match snap
        .ok_or_else(|| "no snapshot".to_string())
        .and_then(|snap| {
            if snap.step() != TRAIN_ITERS as u64 {
                return Err(format!(
                    "snapshot is at step {}, trained {TRAIN_ITERS}",
                    snap.step()
                ));
            }
            reference_logits(&s.model, &snap, sample)
        }) {
        Ok(expect) => {
            for (i, (req, want)) in sample.iter().zip(&expect).enumerate() {
                match s.engine.call(req.clone()) {
                    Ok(resp) if crate::bits_eq(&resp.output, want) => {}
                    Ok(_) => {
                        out.failed += 1;
                        out.problem(format!("response {i} differs from the training graph"));
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("request {i} failed: {e}"));
                    }
                }
            }
        }
        Err(e) => {
            out.failed += CHECKED as u64;
            out.problem(format!("reference forward failed: {e}"));
        }
    }

    let _ = closed_loop(&s, WARMUP);
    // Memory the engine needs: set-up plus a saturated warm-up.
    let rss_mb = peak_rss_mb();
    let window = budget.window();
    let mut layers = ServeLayers::default();
    let (a, b, b_traced) = if budget.trace {
        let a = traced(&mut layers, || {
            open_loop(&s, seed, OPEN_LOOP_QPS, window / 2)
        });
        let b = closed_loop(&s, window / 4);
        let bt = traced(&mut layers, || closed_loop(&s, window / 4));
        (a, b, Some(bt))
    } else {
        (
            open_loop(&s, seed, OPEN_LOOP_QPS, window / 2),
            closed_loop(&s, window / 2),
            None,
        )
    };
    for phase in [Some(&a), Some(&b), b_traced.as_ref()]
        .into_iter()
        .flatten()
    {
        out.attempted += phase.submitted;
        out.failed += phase.failed + phase.stale;
        if phase.stale > 0 {
            out.problem(format!("{} responses from a stale snapshot", phase.stale));
        }
    }
    let errors = a.failed + b.failed + b_traced.as_ref().map_or(0, |p| p.failed);
    if errors > 0 {
        out.problem(format!("{errors} requests failed"));
    }

    out.end_to_end = vec![
        metric("samples_per_s", b.qps()),
        metric("step_p50_ms", a.latency_us(0.50) / 1e3),
        metric("setup_s", setup_s),
        metric("peak_rss_mb", rss_mb),
    ];
    if let Some(bt) = b_traced {
        if layers.dropped > 0 {
            out.problem(format!("tracer dropped {} span records", layers.dropped));
        }
        let per_batch = |ns: u64| ns as f64 / 1e6 / layers.batches.max(1) as f64;
        let mut v: Vec<Metric> = crate::layers::OP_BUCKETS
            .iter()
            .zip(&layers.ops_ns)
            .map(|(bucket, &ns)| metric(&format!("tensor.{bucket}_ms"), per_batch(ns)))
            .collect();
        let (mut engine, mut late) = (a.engine_us.clone(), a.late_us.clone());
        v.extend([
            metric("step_p99_ms", a.latency_us(0.99) / 1e3),
            metric("snapshot.open_us", crate::median(&mut opens)),
            metric("serve.batch_ms", per_batch(layers.batch_ns)),
            metric(
                "serve.batch_mean",
                layers.batch_size_sum as f64 / layers.batches.max(1) as f64,
            ),
            metric("serve.engine_p99_us", quantile(&mut engine, 0.99)),
            metric("serve.generator_late_us", quantile(&mut late, 0.99)),
            metric("serve_qps", bt.qps()),
            metric("serve_p50_us", a.latency_us(0.50)),
            metric("serve_p99_us", a.latency_us(0.99)),
            metric(
                "error_rate",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
            metric("trace.dropped", layers.dropped as f64),
            metric(
                "trace.overhead_pct",
                100.0 * (b.qps() - bt.qps()) / b.qps().max(1e-9),
            ),
            metric("trace.traced_steps", layers.batches as f64),
        ]);
        out.per_layer = v;
    }
}
