//! Executed-training benchmark for the Parallax workspace.
//!
//! Four workloads drive the public APIs of the workspace crates and time
//! the calls into each layer from outside:
//!
//! * `lm-ps` — the hybrid LM job (embeddings on the PS, LSTM and
//!   projection AllReduced) over the in-process channel transport;
//! * `lm-ps-tcp` — the same job and batches over a loopback TCP mesh,
//!   all four ranks as threads of this process;
//! * `dense-ar` — an all-dense ResNet-like model, pure AllReduce, f16 wire;
//! * `lm-serve` — full-vocabulary next-token serving from a snapshot the
//!   LM job published during set-up.
//!
//! A run with tracing off yields the end-to-end metrics; a traced run
//! yields the per-layer split (see [`layers`]). Every run checks the
//! program's outputs; any failed check makes the run incorrect.

pub mod layers;
pub mod net;
pub mod serve;
pub mod train;

use std::time::{Duration, Instant};

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hybrid LM over the in-process transport.
    LmPs,
    /// Hybrid LM over the loopback TCP mesh.
    LmPsTcp,
    /// ResNet-like dense model, pure AllReduce.
    DenseAr,
    /// LM serving from a published snapshot.
    LmServe,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LmPs,
        Workload::LmPsTcp,
        Workload::DenseAr,
        Workload::LmServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LmPs => "lm-ps",
            Workload::LmPsTcp => "lm-ps-tcp",
            Workload::DenseAr => "dense-ar",
            Workload::LmServe => "lm-serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much measuring one run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock time the measured loop runs for; 0 measures the
    /// least a run can (one chunk per tracing mode), as tests do.
    pub seconds: f64,
    /// Record per-layer spans (the `--trace 1` run).
    pub trace: bool,
}

impl Budget {
    /// The measuring window as a [`Duration`].
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// The end-to-end metrics with their units, as in `BENCHMARK.json`.
/// On `lm-serve` a "sample" is one served request and a "step" is one
/// open-loop request, timed from when it was due.
pub const END_TO_END: [(&str, &str); 4] = [
    ("samples_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics with their units, as in `BENCHMARK.json`.
/// Training workloads report per chief step; `lm-serve` reports its op
/// self times per served batch. A layer a workload does not run reads 0.
///
/// `step_p99_ms` is the tail of the end-to-end step time. It is listed
/// here, without a bound, because on a shared 2-CPU host its
/// run-to-run spread exceeds any bound a regression gate could use.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("step_p99_ms", "ms"),
    ("models.feed_ms", "ms"),
    ("dataflow.forward_ms", "ms"),
    ("dataflow.backward_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.lstm_ms", "ms"),
    ("tensor.softmax_xent_ms", "ms"),
    ("tensor.gather_ms", "ms"),
    ("tensor.other_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.exchange_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.compute_skew", "ratio"),
    ("comm.allreduce_ms", "ms"),
    ("comm.allreduce_calls", "count"),
    ("comm.net_bytes", "bytes"),
    ("comm.messages", "count"),
    ("ps.pull_ms", "ms"),
    ("ps.push_ms", "ms"),
    ("ps.await_update_ms", "ms"),
    ("ps.server_busy_ms", "ms"),
    ("ps.server_idle_ms", "ms"),
    ("ps.apply_ms", "ms"),
    ("ps.requests", "count"),
    ("net.send_ms", "ms"),
    ("net.recv_wait_ms", "ms"),
    ("net.frames", "count"),
    ("net.frame_bytes", "bytes"),
    ("net.mesh_connect_ms", "ms"),
    ("snapshot.open_us", "us"),
    ("serve.batch_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.engine_p99_us", "us"),
    ("serve.generator_late_us", "us"),
    ("serve_qps", "1/s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
    ("error_rate", "ratio"),
    ("trace.dropped", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_steps", "count"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A measurement of the metric `name` from [`END_TO_END`] or
/// [`PER_LAYER`], which supply its unit.
///
/// # Panics
///
/// If `name` is in neither table — a bug in the benchmark.
pub fn metric(name: &str, value: f64) -> Metric {
    let &(name, unit) = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared"));
    Metric { name, unit, value }
}

/// `measured` completed to the full `spec` list, in its order: a metric
/// the workload did not measure (its layer does not run there) reads 0.
pub fn complete(spec: &[(&'static str, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    spec.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value),
        })
        .collect()
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps (training) or requests (serving) attempted.
    pub attempted: u64,
    /// Steps or requests that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics (from untraced measuring).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (from traced measuring; empty when untraced).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// True when every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// The metric named `name`, searching end-to-end then per-layer.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload: set-up, measuring, checks.
pub fn run(workload: Workload, seed: u64, budget: Budget) -> Outcome {
    match workload {
        Workload::LmPs => train::run(train::Kind::LmPs, seed, budget),
        Workload::LmPsTcp => train::run(train::Kind::LmPsTcp, seed, budget),
        Workload::DenseAr => train::run(train::Kind::DenseAr, seed, budget),
        Workload::LmServe => serve::run(seed, budget),
    }
}

/// Set-ups per run: at least [`MIN_SETUPS`], then more while their
/// total stays under [`SETUP_BUDGET`], at most [`MAX_SETUPS`];
/// `setup_s` is their median, so a cheap set-up gets enough samples to
/// give a steady median.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const MAX_SETUPS: usize = 25;
/// See [`MIN_SETUPS`].
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Runs `build` repeatedly (see [`MIN_SETUPS`]), keeps the last result,
/// and returns it with the median wall time in seconds.
pub fn timed_setups<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS || (started.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS)
    {
        // Drop the previous set-up first so each one starts from the
        // same memory state.
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("MIN_SETUPS > 0"), median(&mut times)))
}

/// Median of `xs` (sorted in place); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seed for the `k`-th stream derived from the workload seed, so
/// different inputs (initial weights, batches, requests) never share a
/// random stream.
pub fn derive_seed(seed: u64, stream: u64, k: u64) -> u64 {
    // SplitMix64 finalizer over the packed triple.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(k);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True when two float slices hold identical bits.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(quantile(&mut xs, 0.99), 5.0);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn complete_fills_and_orders() {
        let got = complete(&END_TO_END, &[metric("setup_s", 2.0)]);
        assert_eq!(got.len(), END_TO_END.len());
        assert_eq!(got[2], metric("setup_s", 2.0));
        assert_eq!(got[0], metric("samples_per_s", 0.0));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
