//! `repro check`: run the full static verification pipeline against a
//! model preset and cross-validate the traffic predictor on one real
//! iteration.
//!
//! Three stages, all pure analysis until the final cross-check:
//!
//! 1. single-device graph passes (`G...`/`S...` codes) with a
//!    representative feed;
//! 2. distributed-plan passes (`P...` codes) against the plan the runner
//!    will execute;
//! 3. the static per-class traffic prediction (`B001` conservation
//!    crosscheck), compared byte-for-byte against one measured training
//!    iteration on the same feeds.
//!
//! Returns the rendered report and whether every stage passed, so the
//! binary can exit nonzero and tests can assert without capturing
//! stdout.

use std::fmt::Write as _;

use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::runner::TrafficReport;
use parallax_core::strategy::decision_label;
use parallax_core::{check_plan, CoreError, ParallaxConfig, Runner};
use parallax_dataflow::verify::{verify_graph, VerifyReport};
use parallax_dataflow::Feed;

use crate::job::{Job, PROFILE_SEED};

/// Machines in the checked topology (1 GPU each, matching `repro
/// trace`, so PS shards spread across real machine boundaries).
const MACHINES: usize = 4;

/// Runs every static pass plus the one-iteration traffic cross-check
/// for `preset` (`"lm"` or `"nmt"`). Returns the printable report and
/// whether everything passed; an unknown preset is an error.
pub fn run(preset: &str) -> Result<(String, bool), String> {
    let job = Job::new(preset)?;
    let label = job.label();
    let graph = job.graph();
    let loss = job.loss();
    let feed_fn = |w: usize, i: usize| job.feed(MACHINES, w, job.feed_seed(i));
    // The measurement iteration runs with the session validator live
    // (the protocol half of `repro check`'s static-then-measure story).
    let config = ParallaxConfig {
        validate_protocol: true,
        ..ParallaxConfig::default()
    };
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "== Static verification: {label} on {MACHINES} machines x 1 GPU =="
    );

    // Stage 1: single-device graph passes, with worker 0's first feed as
    // the representative input for the data-dependent checks (S002).
    let graph_report = verify_graph(graph, Some(loss), Some(&feed_fn(0, 0)));
    report_section(&mut out, "graph passes", &graph_report);
    ok &= !graph_report.has_errors();

    // Stage 2: the runner's own gate (it refuses to construct on a bad
    // plan), then the full plan report including warnings.
    let runner = match job.runner(vec![1; MACHINES], config.clone(), PROFILE_SEED) {
        Ok(r) => r,
        Err(CoreError::Verify(rendered)) => {
            let _ = writeln!(out, "runner refused the plan:\n{rendered}");
            let _ = writeln!(out, "{label}: FAIL");
            return Ok((out, false));
        }
        Err(other) => {
            let _ = writeln!(out, "runner construction failed: {other}");
            let _ = writeln!(out, "{label}: FAIL");
            return Ok((out, false));
        }
    };
    let plan_report = check_plan(
        graph,
        Some(loss),
        runner.profile(),
        &config,
        runner.topology(),
        runner.plan(),
    );
    report_section(&mut out, "plan passes", &plan_report);
    ok &= !plan_report.has_errors();
    out.push_str(&topology_listing(graph, &runner));

    // Stage 3: static traffic prediction + conservation crosscheck,
    // validated against one executed iteration on the same feeds.
    let feeds: Vec<Feed> = (0..MACHINES).map(|w| feed_fn(w, 0)).collect();
    let (predicted, conservation) = match predict_iteration_traffic(
        graph,
        loss,
        runner.plan(),
        runner.topology(),
        &config,
        &feeds,
    ) {
        Ok(pair) => pair,
        Err(e) => {
            let _ = writeln!(out, "traffic prediction failed: {e}");
            let _ = writeln!(out, "{label}: FAIL");
            return Ok((out, false));
        }
    };
    report_section(&mut out, "byte conservation", &conservation);
    ok &= !conservation.has_errors();

    match runner.run(1, feed_fn) {
        Ok(report) => {
            let matched = traffic_table(&mut out, &predicted, &report.traffic);
            ok &= matched;
        }
        Err(e) => {
            let _ = writeln!(out, "measurement iteration failed: {e}");
            ok = false;
        }
    }

    let _ = writeln!(out, "{label}: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    Ok((out, ok))
}

/// One line summarizing a report, plus the rendered diagnostics when
/// there are any.
fn report_section(out: &mut String, label: &str, report: &VerifyReport) {
    let errors = report.errors().count();
    let warnings = report.warnings().count();
    let _ = writeln!(out, "{label}: {errors} error(s), {warnings} warning(s)");
    if !report.diagnostics.is_empty() {
        out.push_str(&report.render());
    }
}

/// The verified placement: the runner's machines and their GPUs, then
/// each variable with the strategy active for it.
fn topology_listing(graph: &parallax_dataflow::Graph, runner: &Runner) -> String {
    let gpus = runner.topology().gpus_per_machine();
    let mut out = format!(
        "topology: {} machine(s), {} GPU(s)\n",
        gpus.len(),
        gpus.iter().sum::<usize>()
    );
    for (m, &n) in gpus.iter().enumerate() {
        let ids: Vec<String> = (0..n).map(|g| g.to_string()).collect();
        let _ = writeln!(out, "  worker-{m}: gpus [{}]", ids.join(","));
    }
    let names: Vec<&str> = graph
        .variables()
        .iter()
        .map(|def| def.name.as_str())
        .collect();
    let width = names
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(0)
        .max("variable".len());
    let _ = writeln!(out, "  {:<width$}  strategy", "variable");
    for (name, d) in names.iter().zip(&runner.plan().decisions) {
        let _ = writeln!(out, "  {name:<width$}  {}", decision_label(d));
    }
    out
}

/// Prints predicted vs measured per-class traffic; true when every class
/// matches exactly (bytes, per-link routing and message counts).
fn traffic_table(out: &mut String, predicted: &TrafficReport, measured: &TrafficReport) -> bool {
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>8} {:>8}  match",
        "class", "predicted B", "measured B", "pred #", "meas #"
    );
    let classes = [
        ("nccl", &predicted.nccl, &measured.nccl),
        ("mpi", &predicted.mpi, &measured.mpi),
        ("ps", &predicted.ps, &measured.ps),
        ("local_agg", &predicted.local_agg, &measured.local_agg),
        ("other", &predicted.other, &measured.other),
    ];
    let mut all = true;
    for (name, p, m) in classes {
        let eq = p == m;
        all &= eq;
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>8} {:>8}  {}",
            name,
            p.total_network_bytes() + p.intra_bytes(),
            m.total_network_bytes() + m.intra_bytes(),
            p.inter_messages + p.intra_messages,
            m.inter_messages + m.intra_messages,
            if eq { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(
        out,
        "predicted one-iteration network total: {} B ({})",
        predicted.total_network_bytes(),
        if all {
            "matches the executed iteration exactly"
        } else {
            "DISAGREES with the executed iteration"
        },
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_preset_passes_every_stage() {
        let (report, ok) = run("lm").unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("LM (tiny): PASS"), "report:\n{report}");
        assert!(report.contains("graph passes: 0 error(s)"), "{report}");
        assert!(report.contains("plan passes: 0 error(s)"), "{report}");
        // The topology listing names the active strategy per variable:
        // the LM embedding syncs through the sparse PS, dense layers
        // through AllReduce (the hybrid rule).
        assert!(
            report.contains("topology: 4 machine(s), 4 GPU(s)"),
            "{report}"
        );
        assert!(report.contains("PS/sparse"), "{report}");
        assert!(report.contains("AllReduce"), "{report}");
    }

    #[test]
    fn nmt_preset_passes_every_stage() {
        let (report, ok) = run("nmt").unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("NMT (tiny): PASS"), "report:\n{report}");
    }

    #[test]
    fn unknown_preset_fails_closed() {
        // A misspelt preset must not fall through to the lm check.
        let Err(e) = run("lmm") else {
            panic!("an unknown preset ran a check")
        };
        assert_eq!(e, "unknown preset 'lmm' (expected lm or nmt)");
    }
}
