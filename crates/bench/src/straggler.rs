//! `repro straggler`: sim-vs-measured conformance on heterogeneous
//! clusters.
//!
//! The harness runs a short traced hybrid job twice per scenario: once
//! homogeneous (the calibration baseline) and once with a real injected
//! slowdown on machine 0 (`ParallaxConfig::machine_slowdown`, a busy-
//! wait stretching the compute phase). It distills a
//! [`CalibrationProfile`] from the baseline trace, applies the matching
//! model-side slowdown to a [`ClusterModel`], and checks that the
//! calibrated [`parallax_cluster::IterationSim`] predicts what the
//! straggler run actually measured — the compute-skew ratio from the
//! phase spans and the mean PS idle gap from the `ps.wait_ns`
//! histogram — within the documented tolerance bands.

use std::fmt::Write as _;

use parallax_cluster::{CalibrationProfile, ClusterModel};
use parallax_core::{ParallaxConfig, RunReport};
use parallax_trace::{export, TraceConfig, TraceDump};

use crate::job::{Job, PROFILE_SEED};

/// Default machine count of `repro straggler` (1 GPU each, so machine
/// boundaries exist).
pub const MACHINES: usize = 4;

/// Measured runs per slowdown factor: a case compares the prediction
/// with the median of each measured figure across them. On a host with
/// fewer cores than modelled machines, a whole run now and then
/// measures a skew ratio near half the injected factor (1.2-1.6 at
/// factor 3, in about one nmt run in ten on 2 vCPUs), likely because
/// the scheduler favours the straggler, which sleeps the most, and the
/// nominal machines time-share what is left. More iterations do not
/// help, since the bias holds for the whole run; the median of
/// independent runs does.
pub const STRAGGLER_RUNS: usize = 5;

/// Relative tolerance on the compute-skew ratio: the prediction must
/// land within `REL * measured + ABS` of the measured ratio. The
/// relative term absorbs proportional model error; the absolute floor
/// absorbs scheduler noise, which on a time-shared host moves the
/// measured ratio by tenths even between identical runs.
pub const RATIO_REL_TOL: f64 = 0.35;
/// Absolute tolerance floor on the compute-skew ratio (see
/// [`RATIO_REL_TOL`]).
pub const RATIO_ABS_TOL: f64 = 0.75;
/// The predicted mean PS wait must fall within this multiplicative band
/// of the measured one. The measured wait mixes genuine queueing with
/// OS wakeup latency the queue model deliberately omits, so only its
/// order of magnitude and growth direction are modelled — sub-millisecond
/// idle gaps on a shared vCPU cannot support a tighter band honestly.
pub const WAIT_BAND: (f64, f64) = (0.2, 5.0);
/// The predicted p99 PS wait (largest modelled idle gap) must fall
/// within this multiplicative band of the measured p99 bucket bound.
/// Much looser than [`WAIT_BAND`], and asymmetric: the measurement is a
/// power-of-two bucket *upper* bound (up to 2x above the true
/// quantile), and the tail of ~100 samples on a time-shared host is
/// dominated by OS scheduling stalls the queue model deliberately
/// omits, so the measured bound can sit an order of magnitude above an
/// honest prediction. The low edge only guards against the prediction
/// collapsing toward zero; the tighter high edge catches a model that
/// invents queueing the server never saw.
pub const P99_BAND: (f64, f64) = (0.02, 8.0);
/// The predicted mean exchange-phase time (barrier skew from the
/// calibrated compute model plus exposed communication) must fall within
/// this multiplicative band of the measured mean `phase.exchange` span.
/// Wide, because the measured span mixes genuine barrier wait with
/// in-process channel hops the hardware model prices as paper-testbed
/// network transfers; the band still catches a sim whose straggler
/// barrier-wait prediction is off by an order of magnitude.
pub const EXCHANGE_BAND: (f64, f64) = (0.1, 10.0);
/// The predicted per-iteration optimizer-apply time (carried over from
/// the homogeneous calibration — apply work depends on gradient sizes,
/// not compute skew) must fall within this multiplicative band of the
/// measured `ps.apply` span total. Catches both a straggler run whose
/// apply cost silently balloons (e.g. a sharding regression) and a
/// calibration that stops seeing apply spans.
pub const APPLY_BAND: (f64, f64) = (0.2, 5.0);
/// Absolute noise floor on the apply band: when prediction and
/// measurement are within this many seconds of each other the
/// multiplicative band is waived. On the tiny presets the per-iteration
/// apply total is single-digit microseconds, where one OS scheduling
/// stall inside an `optimizer.apply` moves the measurement by more than
/// the whole quantity; a multiplicative band cannot be honest at that
/// scale (the same reasoning as [`RATIO_ABS_TOL`]). A real apply
/// regression shows up milliseconds wide and still trips the band.
pub const APPLY_ABS_TOL_S: f64 = 100e-6;

/// One traced execution: the run report plus its frozen trace.
pub struct TracedRun {
    /// The runner's report (losses, traffic, timings).
    pub report: RunReport,
    /// The collected trace dump.
    pub dump: TraceDump,
}

/// Figures extracted from a measured trace.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Median over iterations of the per-iteration max/median un-gated
    /// compute-phase busy time across machines (includes any injected
    /// straggler delay; robust to single-iteration scheduler stalls).
    pub skew_ratio: f64,
    /// Mean server idle gap per request, seconds (`ps.wait_ns`).
    pub mean_wait_s: f64,
    /// p99 upper bound of the idle gap, seconds, from the power-of-two
    /// `ps.wait_ns` histogram buckets.
    pub p99_wait_s: f64,
    /// Mean `phase.exchange` span duration, seconds (barrier wait plus
    /// gradient exchange, per worker lane per iteration).
    pub exchange_s: f64,
    /// Total `ps.apply` span seconds per iteration, summed across
    /// servers.
    pub apply_s: f64,
    /// Matched push->serve flow pairs in the trace.
    pub flow_pairs: usize,
}

impl Measured {
    /// The median of each figure across `runs` (non-empty); `flow_pairs`
    /// is the fewest any run paired.
    fn median(runs: &[Measured]) -> Measured {
        let median = |figure: fn(&Measured) -> f64| {
            let mut v: Vec<f64> = runs.iter().map(figure).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        Measured {
            skew_ratio: median(|m| m.skew_ratio),
            mean_wait_s: median(|m| m.mean_wait_s),
            p99_wait_s: median(|m| m.p99_wait_s),
            exchange_s: median(|m| m.exchange_s),
            apply_s: median(|m| m.apply_s),
            flow_pairs: runs.iter().map(|m| m.flow_pairs).min().unwrap_or(0),
        }
    }
}

/// Runs `iters` traced iterations of `preset` (`"lm"` or `"nmt"`) on
/// `machines` machines x 1 GPU, with `slowdown[m]` stretching machine
/// `m`'s compute phase (missing entries run at nominal speed).
pub fn traced_run(
    preset: &str,
    machines: usize,
    iters: usize,
    slowdown: &[f64],
) -> Result<TracedRun, String> {
    let job = Job::new(preset)?;
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let config = ParallaxConfig {
        machine_slowdown: slowdown.to_vec(),
        ..ParallaxConfig::default()
    };
    let runner = job
        .runner(vec![1; machines], config, PROFILE_SEED)
        .map_err(|e| e.to_string())?;
    let report = runner
        .run(iters, |w, i| job.feed(machines, w, job.feed_seed(i)))
        .map_err(|e| e.to_string())?;
    parallax_trace::disable();
    let dump = parallax_trace::drain();
    Ok(TracedRun { report, dump })
}

/// Extracts the measured conformance figures from a traced run,
/// validating the push->serve flow pairing along the way.
pub fn measure(run: &TracedRun) -> Result<Measured, String> {
    let flow_pairs = export::check_flows(&run.dump)?;
    let stats = export::compute_skew_stats(&run.dump);
    if stats.is_empty() {
        return Err("trace contains no compute-phase spans".into());
    }
    let skew_ratio = export::median_ratio(&stats);
    let (mean_wait_s, p99_wait_s) = run
        .dump
        .histograms
        .iter()
        .find(|(n, _)| n == "ps.wait_ns")
        .filter(|(_, h)| h.count > 0)
        .map(|(_, h)| (h.mean() / 1e9, h.quantile_upper_bound(0.99) as f64 / 1e9))
        .ok_or("trace has no ps.wait_ns samples")?;
    // Per-phase figures: every worker lane emits one `phase.exchange`
    // span per iteration, so the span count per lane recovers the
    // iteration count for normalizing the `ps.apply` total.
    let mut exchange_ns = 0.0f64;
    let mut exchange_count = 0usize;
    let mut lane_spans: std::collections::BTreeMap<(u32, u32), usize> =
        std::collections::BTreeMap::new();
    let mut apply_ns = 0.0f64;
    for r in &run.dump.records {
        match r.name {
            "phase.exchange" => {
                exchange_ns += r.dur_ns as f64;
                exchange_count += 1;
                *lane_spans.entry((r.machine, r.lane)).or_default() += 1;
            }
            "ps.apply" => apply_ns += r.dur_ns as f64,
            _ => {}
        }
    }
    let iters = lane_spans.values().copied().max().unwrap_or(1).max(1);
    let exchange_s = if exchange_count > 0 {
        exchange_ns / exchange_count as f64 / 1e9
    } else {
        0.0
    };
    let apply_s = apply_ns / iters as f64 / 1e9;
    Ok(Measured {
        skew_ratio,
        mean_wait_s,
        p99_wait_s,
        exchange_s,
        apply_s,
        flow_pairs,
    })
}

/// One predicted-vs-measured comparison at a slowdown factor.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceCase {
    /// Machine 0's injected (and modelled) compute slowdown.
    pub factor: f64,
    /// Calibrated sim's compute-skew ratio prediction.
    pub predicted_ratio: f64,
    /// Measured compute-skew ratio from the straggler run's trace.
    pub measured_ratio: f64,
    /// Calibrated sim's mean PS wait prediction, seconds.
    pub predicted_wait_s: f64,
    /// Measured mean PS wait, seconds.
    pub measured_wait_s: f64,
    /// Calibrated sim's p99 PS wait prediction, seconds (largest
    /// modelled idle gap).
    pub predicted_p99_s: f64,
    /// Measured p99 PS wait bucket upper bound, seconds.
    pub measured_p99_s: f64,
    /// Predicted mean exchange-phase time, seconds: barrier skew from
    /// the calibrated compute model plus exposed communication.
    pub predicted_exchange_s: f64,
    /// Measured mean `phase.exchange` span duration, seconds.
    pub measured_exchange_s: f64,
    /// Predicted per-iteration optimizer-apply time, seconds (the
    /// homogeneous calibration's `ps.apply` total, carried over
    /// unchanged — apply work is independent of compute skew).
    pub predicted_apply_s: f64,
    /// Measured per-iteration `ps.apply` span total, seconds.
    pub measured_apply_s: f64,
}

impl ConformanceCase {
    /// Whether the ratio prediction is inside the band
    /// `|pred - meas| <= RATIO_REL_TOL * meas + RATIO_ABS_TOL`.
    pub fn ratio_ok(&self) -> bool {
        (self.predicted_ratio - self.measured_ratio).abs()
            <= RATIO_REL_TOL * self.measured_ratio + RATIO_ABS_TOL
    }

    /// Whether the wait prediction is inside the multiplicative
    /// [`WAIT_BAND`] of the measurement.
    pub fn wait_ok(&self) -> bool {
        if self.measured_wait_s <= 0.0 {
            return true;
        }
        let q = self.predicted_wait_s / self.measured_wait_s;
        q >= WAIT_BAND.0 && q <= WAIT_BAND.1
    }

    /// Whether the p99 prediction is inside the multiplicative
    /// [`P99_BAND`] of the measured bucket bound.
    pub fn p99_ok(&self) -> bool {
        if self.measured_p99_s <= 0.0 {
            return true;
        }
        let q = self.predicted_p99_s / self.measured_p99_s;
        q >= P99_BAND.0 && q <= P99_BAND.1
    }

    /// Whether the exchange-phase prediction is inside the
    /// multiplicative [`EXCHANGE_BAND`] of the measured mean
    /// `phase.exchange` span.
    pub fn exchange_ok(&self) -> bool {
        if self.measured_exchange_s <= 0.0 {
            return true;
        }
        let q = self.predicted_exchange_s / self.measured_exchange_s;
        q >= EXCHANGE_BAND.0 && q <= EXCHANGE_BAND.1
    }

    /// Whether the apply prediction is inside the multiplicative
    /// [`APPLY_BAND`] of the measured per-iteration `ps.apply` total, or
    /// within the [`APPLY_ABS_TOL_S`] noise floor of it.
    pub fn apply_ok(&self) -> bool {
        if self.measured_apply_s <= 0.0 {
            return true;
        }
        if (self.predicted_apply_s - self.measured_apply_s).abs() <= APPLY_ABS_TOL_S {
            return true;
        }
        let q = self.predicted_apply_s / self.measured_apply_s;
        q >= APPLY_BAND.0 && q <= APPLY_BAND.1
    }

    /// All five bands hold.
    pub fn ok(&self) -> bool {
        self.ratio_ok() && self.wait_ok() && self.p99_ok() && self.exchange_ok() && self.apply_ok()
    }
}

/// Evaluates one slowdown factor: predicts the straggler run from the
/// homogeneous baseline's calibration, then measures the real thing
/// [`STRAGGLER_RUNS`] times and takes the median of each figure.
/// Returns the case and the measured runs.
///
/// `baseline` must be a homogeneous run of the same preset/topology;
/// `cal` its distilled profile. At `factor == 1.0` the measured runs
/// are fresh homogeneous runs, so a stall inside the baseline cannot
/// also be what the prediction is held to.
pub fn conformance_case(
    preset: &str,
    machines: usize,
    iters: usize,
    factor: f64,
    baseline: &TracedRun,
    cal: &CalibrationProfile,
) -> Result<(ConformanceCase, Vec<TracedRun>), String> {
    let cluster = ClusterModel::paper_testbed().with_straggler(0, factor);
    let sim = baseline.report.calibrated_iteration_sim(&cluster, cal);
    let predicted_ratio = sim.compute_skew_ratio();
    let predicted_wait_s = sim
        .predicted_mean_ps_wait()
        .ok_or("calibrated sim has no queue model")?;
    let predicted_p99_s = sim
        .predicted_p99_ps_wait()
        .ok_or("calibrated sim has no queue model")?;
    // Exchange phase = waiting at the synchronous barrier for the
    // slowest machine's compute, plus the machine's own exposed
    // communication time; average across machines to match the measured
    // mean span.
    let scaled = sim.scaled_compute();
    let max_compute = scaled.iter().copied().fold(0.0, f64::max);
    let exposed = 1.0 - sim.model.comm_overlap;
    let predicted_exchange_s = if scaled.is_empty() {
        0.0
    } else {
        scaled
            .iter()
            .enumerate()
            .map(|(m, &c)| {
                let comm: f64 = sim
                    .phases
                    .iter()
                    .map(|p| p.machine_time(&sim.model, m))
                    .sum();
                (max_compute - c) + comm * exposed
            })
            .sum::<f64>()
            / scaled.len() as f64
    };
    let predicted_apply_s = cal.apply_per_iter.iter().sum();
    let runs: Vec<TracedRun> = (0..STRAGGLER_RUNS)
        .map(|_| traced_run(preset, machines, iters, &[factor]))
        .collect::<Result<_, _>>()?;
    let measured = Measured::median(&runs.iter().map(measure).collect::<Result<Vec<_>, _>>()?);
    let case = ConformanceCase {
        factor,
        predicted_ratio,
        measured_ratio: measured.skew_ratio,
        predicted_wait_s,
        measured_wait_s: measured.mean_wait_s,
        predicted_p99_s,
        measured_p99_s: measured.p99_wait_s,
        predicted_exchange_s,
        measured_exchange_s: measured.exchange_s,
        predicted_apply_s,
        measured_apply_s: measured.apply_s,
    };
    Ok((case, runs))
}

/// Runs the full conformance suite for one preset on `machines`
/// machines: a homogeneous baseline, then [`STRAGGLER_RUNS`] measured
/// runs per factor, printing the predicted-vs-measured table. Returns
/// the report and whether every case stayed inside its bands. This
/// release gate is where the timing bands are checked;
/// `tests/sim_conformance.rs` keeps only the timing-free run-health
/// checks in `cargo test`.
pub fn run(
    preset: &str,
    machines: usize,
    factors: &[f64],
    iters: usize,
) -> Result<(String, bool), String> {
    let baseline = traced_run(preset, machines, iters, &[])?;
    // Level the baseline's per-machine compute: the run is nominally
    // homogeneous, so machine differences are noise that a straggler
    // scale must not amplify.
    let cal = CalibrationProfile::from_dump(&baseline.dump, machines, iters as u64).homogenized();
    let base_measure = measure(&baseline)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Straggler conformance: {preset} on {machines} machines x 1 GPU, {iters} iterations =="
    );
    let _ = writeln!(
        out,
        "measured figures: median of {STRAGGLER_RUNS} runs per factor"
    );
    let _ = writeln!(
        out,
        "baseline: skew ratio {:.3}, mean ps.wait {:.3} ms, p99 <= {:.3} ms, \
         {} push flows paired",
        base_measure.skew_ratio,
        base_measure.mean_wait_s * 1e3,
        base_measure.p99_wait_s * 1e3,
        base_measure.flow_pairs,
    );
    let _ = writeln!(
        out,
        "bands: |ratio err| <= {RATIO_REL_TOL}*measured + {RATIO_ABS_TOL}; \
         wait pred/meas in [{:.2}, {:.2}]; p99 pred/meas in [{:.2}, {:.2}]; \
         exchange pred/meas in [{:.2}, {:.2}]; apply pred/meas in [{:.2}, {:.2}] \
         or |err| <= {:.0} us",
        WAIT_BAND.0,
        WAIT_BAND.1,
        P99_BAND.0,
        P99_BAND.1,
        EXCHANGE_BAND.0,
        EXCHANGE_BAND.1,
        APPLY_BAND.0,
        APPLY_BAND.1,
        APPLY_ABS_TOL_S * 1e6
    );
    let _ = writeln!(
        out,
        "{:>6}  {:>10} {:>10} {:>5}  {:>12} {:>12} {:>5}  {:>11} {:>11} {:>5}",
        "factor",
        "pred ratio",
        "meas ratio",
        "band",
        "pred wait ms",
        "meas wait ms",
        "band",
        "pred p99 ms",
        "meas p99 ms",
        "band"
    );
    let mut all_ok = true;
    for &factor in factors {
        let (case, _) = conformance_case(preset, machines, iters, factor, &baseline, &cal)?;
        all_ok &= case.ok();
        let _ = writeln!(
            out,
            "{:>6.2}  {:>10.3} {:>10.3} {:>5}  {:>12.3} {:>12.3} {:>5}  {:>11.3} {:>11.3} {:>5}",
            case.factor,
            case.predicted_ratio,
            case.measured_ratio,
            if case.ratio_ok() { "ok" } else { "FAIL" },
            case.predicted_wait_s * 1e3,
            case.measured_wait_s * 1e3,
            if case.wait_ok() { "ok" } else { "FAIL" },
            case.predicted_p99_s * 1e3,
            case.measured_p99_s * 1e3,
            if case.p99_ok() { "ok" } else { "FAIL" },
        );
        let _ = writeln!(
            out,
            "        phases: exchange pred {:.3} ms meas {:.3} ms [{}] | \
             apply pred {:.3} ms meas {:.3} ms [{}]",
            case.predicted_exchange_s * 1e3,
            case.measured_exchange_s * 1e3,
            if case.exchange_ok() { "ok" } else { "FAIL" },
            case.predicted_apply_s * 1e3,
            case.measured_apply_s * 1e3,
            if case.apply_ok() { "ok" } else { "FAIL" },
        );
    }
    let _ = writeln!(out, "conformance: {}", if all_ok { "PASS" } else { "FAIL" });
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_accept_close_and_reject_far() {
        let good = ConformanceCase {
            factor: 2.0,
            predicted_ratio: 2.0,
            measured_ratio: 1.8,
            predicted_wait_s: 1e-3,
            measured_wait_s: 2e-3,
            predicted_p99_s: 5e-3,
            measured_p99_s: 4e-3,
            predicted_exchange_s: 8e-3,
            measured_exchange_s: 6e-3,
            predicted_apply_s: 4e-4,
            measured_apply_s: 5e-4,
        };
        assert!(good.ok());
        let bad_ratio = ConformanceCase {
            measured_ratio: 6.0,
            ..good
        };
        assert!(!bad_ratio.ratio_ok());
        let bad_wait = ConformanceCase {
            predicted_wait_s: 2e-2,
            ..good
        };
        assert!(!bad_wait.wait_ok());
        let bad_p99 = ConformanceCase {
            predicted_p99_s: 1e-1,
            ..good
        };
        assert!(!bad_p99.p99_ok());
        assert!(!bad_p99.ok());
        let bad_exchange = ConformanceCase {
            predicted_exchange_s: 1.0,
            ..good
        };
        assert!(!bad_exchange.exchange_ok());
        assert!(!bad_exchange.ok());
        let bad_apply = ConformanceCase {
            predicted_apply_s: 1e-1,
            ..good
        };
        assert!(!bad_apply.apply_ok());
        assert!(!bad_apply.ok());
        // Microsecond-scale apply totals sit inside the absolute noise
        // floor even when the ratio is far outside the band: a 4us
        // prediction against a 27us measurement is one scheduler stall,
        // not a model error.
        let tiny_apply = ConformanceCase {
            predicted_apply_s: 4e-6,
            measured_apply_s: 27e-6,
            ..good
        };
        assert!(tiny_apply.apply_ok());
        // Unmeasurable wait never fails the band.
        let no_wait = ConformanceCase {
            measured_wait_s: 0.0,
            ..good
        };
        assert!(no_wait.wait_ok());
        let no_p99 = ConformanceCase {
            measured_p99_s: 0.0,
            ..good
        };
        assert!(no_p99.p99_ok());
        let no_exchange = ConformanceCase {
            measured_exchange_s: 0.0,
            ..good
        };
        assert!(no_exchange.exchange_ok());
        let no_apply = ConformanceCase {
            measured_apply_s: 0.0,
            ..good
        };
        assert!(no_apply.apply_ok());
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(traced_run("bogus", 2, 1, &[]).is_err());
    }
}
