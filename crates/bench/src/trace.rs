//! `repro trace`: execute a short distributed run with the tracer on,
//! then render the measured timeline (Chrome trace + per-iteration
//! breakdown + straggler report) next to the cluster model's *modelled*
//! timeline for the same run, and emit machine-readable summaries.
//!
//! `repro trace-overhead` measures what the tracer costs when disabled
//! on the kernel path `repro kernels` exercises — the subsystem's
//! "zero overhead when off" claim, as a number.

use std::fmt::Write as _;
use std::time::Instant;

use parallax_cluster::{CalibrationProfile, ClusterModel};
use parallax_core::ParallaxConfig;
use parallax_tensor::ops::{self};
use parallax_tensor::{DetRng, Tensor};
use parallax_trace::{export, json, SpanCat, TraceConfig};

use crate::job::{Job, PROFILE_SEED};

/// Machines in the traced topology (1 GPU each, so machine boundaries —
/// and therefore stragglers and network phases — actually exist).
const MACHINES: usize = 4;

/// Runs `iters` iterations of the preset (`"lm"` or `"nmt"`) with
/// tracing enabled, injects the modelled timeline, and writes
/// `TRACE_<preset>.chrome.json` + `TRACE_<preset>.json` beside printing
/// the breakdown and straggler reports. Returns the printed report so
/// tests can assert on it without re-capturing stdout; an unknown
/// preset is an error and writes nothing.
pub fn run(preset: &str, iters: usize, out_dir: &str) -> Result<String, String> {
    let job = Job::new(preset)?;
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let runner = job
        .runner(vec![1; MACHINES], ParallaxConfig::default(), PROFILE_SEED)
        .map_err(|e| e.to_string())?;
    let report = runner
        .run(iters, |w, i| job.feed(MACHINES, w, job.feed_seed(i)))
        .map_err(|e| format!("traced run: {e}"))?;
    let cluster = ClusterModel::paper_testbed();
    let server_cpu = runner.modelled_server_cpu(&cluster);
    let sim = report.iteration_sim(&cluster, MACHINES, report.host_compute_per_iter, server_cpu);

    // Lay the modelled phase timeline (same format, SIM lane) next to
    // the measured spans, then freeze and collect.
    parallax_trace::inject(sim.trace_records(0, 0));
    parallax_trace::disable();
    let dump = parallax_trace::drain();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Executed trace: {} on {MACHINES} machines x 1 GPU, {iters} iterations ==",
        job.label(),
    );
    let measured = report.traffic.total_network_bytes();
    let traced = dump.total_span_bytes();
    let _ = writeln!(
        out,
        "traffic cross-check: accountant {measured} B, trace spans {traced} B ({})",
        if measured == traced {
            "match"
        } else {
            "MISMATCH"
        },
    );
    let _ = writeln!(
        out,
        "modelled iteration: {:.6}s (server cpu {:.6}s/iter); spans {}, dropped {}",
        sim.iteration_time(),
        server_cpu,
        dump.records.len(),
        dump.dropped,
    );
    out.push_str(&export::breakdown_table(&dump));
    out.push_str(&export::straggler_report(&dump));

    let chrome = export::chrome_trace(&dump);
    json::parse(&chrome).expect("chrome trace is valid JSON");
    let summary = export::summary_json(&dump);
    json::parse(&summary).expect("trace summary is valid JSON");
    let cal = CalibrationProfile::from_dump(&dump, MACHINES, iters as u64).to_json();
    json::parse(&cal).expect("calibration profile is valid JSON");
    let chrome_path = format!("{out_dir}TRACE_{preset}.chrome.json");
    let summary_path = format!("{out_dir}TRACE_{preset}.json");
    let cal_path = format!("{out_dir}TRACE_{preset}.cal.json");
    for (path, text) in [
        (&chrome_path, chrome),
        (&summary_path, summary),
        (&cal_path, cal),
    ] {
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    }
    let _ = writeln!(
        out,
        "wrote {chrome_path} (load in chrome://tracing or Perfetto) and {summary_path}"
    );
    let _ = writeln!(
        out,
        "wrote {cal_path} (feed to `repro plan --calibrate` to refine the search's timing model)"
    );
    out.push('\n');
    Ok(out)
}

/// One overhead measurement: the kernel-path workload timed bare vs
/// with a (disabled) span around every call, plus raw per-call costs.
pub struct Overhead {
    /// Timing repetitions (best-of, interleaved).
    pub reps: usize,
    /// Matmul calls per timed repetition.
    pub calls: usize,
    /// Best time for `calls` bare matmuls, seconds.
    pub plain_secs: f64,
    /// Best time for `calls` span-wrapped matmuls, tracer off, seconds.
    pub spanned_secs: f64,
    /// Disabled `span()` cost, nanoseconds per call.
    pub disabled_span_ns: f64,
    /// Enabled `span()` cost (record into the ring), ns per call.
    pub enabled_span_ns: f64,
}

impl Overhead {
    /// End-to-end A/B delta between the spanned and bare loops, in
    /// percent. On a shared 1-vCPU host this is noise-dominated (the
    /// quantity being measured is ~0.0003%), so it is reported for
    /// transparency but not gated on.
    pub fn measured_delta_pct(&self) -> f64 {
        (self.spanned_secs - self.plain_secs) / self.plain_secs * 100.0
    }

    /// Overhead of the disabled tracer on the matmul path, in percent:
    /// one disabled `span()` per kernel call, each cost measured
    /// directly in its own tight loop. This is the gated quantity — it
    /// sits far below the host's timing noise floor, which is exactly
    /// the claim being verified.
    pub fn overhead_pct(&self) -> f64 {
        let plain_ns_per_call = self.plain_secs * 1e9 / self.calls as f64;
        self.disabled_span_ns / plain_ns_per_call * 100.0
    }

    /// Renders the measurement as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"matmul\": \"square_256\",");
        let _ = writeln!(out, "  \"calls_per_rep\": {},", self.calls);
        let _ = writeln!(out, "  \"plain_secs\": {:.9},", self.plain_secs);
        let _ = writeln!(out, "  \"spanned_secs\": {:.9},", self.spanned_secs);
        let _ = writeln!(
            out,
            "  \"measured_delta_pct\": {:.4},",
            self.measured_delta_pct()
        );
        let _ = writeln!(out, "  \"overhead_pct\": {:.6},", self.overhead_pct());
        let _ = writeln!(
            out,
            "  \"disabled_span_ns_per_call\": {:.3},",
            self.disabled_span_ns
        );
        let _ = writeln!(
            out,
            "  \"enabled_span_ns_per_call\": {:.3}",
            self.enabled_span_ns
        );
        out.push_str("}\n");
        out
    }
}

/// Measures disabled-tracer overhead on the `repro kernels` matmul path.
///
/// Interleaved best-of-`reps`, like the kernel benchmarks: one
/// repetition times the span-wrapped loop, then the bare loop, so noise
/// spikes hit both alike.
pub fn measure_overhead(reps: usize, calls: usize) -> Overhead {
    parallax_trace::disable();
    parallax_trace::reset();
    let mut rng = DetRng::seed(0x7ace);
    let a = Tensor::randn([256, 256], 1.0, &mut rng);
    let b = Tensor::randn([256, 256], 1.0, &mut rng);

    let mut spanned_secs = f64::INFINITY;
    let mut plain_secs = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..calls {
            let _g = parallax_trace::span(SpanCat::Compute, "MatMul");
            std::hint::black_box(ops::matmul(&a, &b).unwrap());
        }
        spanned_secs = spanned_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(ops::matmul(&a, &b).unwrap());
        }
        plain_secs = plain_secs.min(t.elapsed().as_secs_f64());
    }

    // Raw span cost, disabled: one relaxed atomic load per call.
    let n = 4_000_000u64;
    let t = Instant::now();
    for _ in 0..n {
        let _g = std::hint::black_box(parallax_trace::span(SpanCat::Compute, "noop"));
    }
    let disabled_span_ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;

    // Raw span cost, enabled: TLS lookup + ring write.
    parallax_trace::configure(TraceConfig::on());
    let n_on = 400_000u64;
    let t = Instant::now();
    for _ in 0..n_on {
        let _g = std::hint::black_box(parallax_trace::span(SpanCat::Compute, "noop"));
    }
    let enabled_span_ns = t.elapsed().as_secs_f64() * 1e9 / n_on as f64;
    parallax_trace::disable();
    parallax_trace::reset();

    Overhead {
        reps,
        calls,
        plain_secs,
        spanned_secs,
        disabled_span_ns,
        enabled_span_ns,
    }
}

/// Measures, writes `path`, and prints a human-readable summary.
pub fn run_overhead(path: &str) -> std::io::Result<()> {
    let o = measure_overhead(9, 20);
    println!(
        "== Tracer overhead on the kernels path (best of {}, interleaved) ==",
        o.reps
    );
    println!(
        "matmul square_256 x{}: {:>9.3} ms bare  {:>9.3} ms spanned-off  ({:+.3}% A/B, noise-dominated)",
        o.calls,
        o.plain_secs * 1e3,
        o.spanned_secs * 1e3,
        o.measured_delta_pct(),
    );
    println!(
        "span() per call: {:.1} ns disabled, {:.1} ns enabled",
        o.disabled_span_ns, o.enabled_span_ns
    );
    let gate = o.overhead_pct() < 1.0;
    println!(
        "gate: disabled span / kernel call = {:.6}% {} 1% -> {}",
        o.overhead_pct(),
        if gate { "<" } else { ">=" },
        if gate { "PASS" } else { "FAIL" },
    );
    std::fs::write(path, o.to_json())?;
    println!("wrote {path}");
    println!();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_measures_and_renders() {
        let o = measure_overhead(1, 1);
        assert!(o.plain_secs > 0.0 && o.spanned_secs > 0.0);
        assert!(o.disabled_span_ns >= 0.0);
        let json = o.to_json();
        json::parse(&json).expect("overhead json validates");
        assert!(json.contains("overhead_pct"));
    }

    #[test]
    fn traced_run_emits_valid_artifacts() {
        let dir = std::env::temp_dir()
            .join("parallax_trace_test")
            .to_string_lossy()
            .into_owned()
            + "/";
        std::fs::create_dir_all(dir.trim_end_matches('/')).unwrap();
        let report = run("lm", 2, &dir).expect("traced run");
        assert!(run("lmm", 2, &dir).is_err());
        assert!(!std::path::Path::new(&format!("{dir}TRACE_lmm.json")).exists());
        assert!(report.contains("straggler"), "report: {report}");
        assert!(report.contains("breakdown"), "report: {report}");
        let chrome =
            std::fs::read_to_string(format!("{dir}TRACE_lm.chrome.json")).expect("chrome file");
        json::parse(&chrome).expect("chrome json validates");
        assert!(chrome.contains("\"machine0\""));
        assert!(chrome.contains("sim (modelled)"));
        let summary = std::fs::read_to_string(format!("{dir}TRACE_lm.json")).expect("summary");
        json::parse(&summary).expect("summary validates");
        assert!(summary.contains("parallax-trace-summary-v1"));
        let cal = std::fs::read_to_string(format!("{dir}TRACE_lm.cal.json")).expect("calibration");
        let parsed = CalibrationProfile::from_json(&cal).expect("calibration parses");
        assert_eq!(parsed.machines, MACHINES);
        assert!(parsed.compute_per_iter.iter().all(|&c| c >= 0.0));
    }
}
