//! `repro plan`: run the deterministic placement-strategy search
//! against a model preset and print its decision.
//!
//! Scores every fixed strategy (pure AR, pure PS, load-balanced PS,
//! partitioned PS, hybrid) with the static traffic replay + cluster
//! simulator, runs the greedy per-variable search seeded from the best
//! fixed recipe, prints the per-strategy predicted iteration times and
//! the chosen per-variable decision table, and writes
//! `PLAN_<preset>.json` (the machine-readable search report). Exits
//! nonzero — the gate — if the searched plan's predicted time is
//! slower than any fixed strategy's.
//!
//! `--calibrate TRACE_<preset>.cal.json` (written by `repro trace`)
//! replaces the analytic compute/server inputs with figures distilled
//! from a measured run.

use std::fmt::Write as _;

use parallax_cluster::{CalibrationProfile, ClusterModel};
use parallax_core::sparsity::{estimate_profile, SparsityProfile};
use parallax_core::strategy::decision_label;
use parallax_core::{plan_search, ParallaxConfig};
use parallax_dataflow::Feed;
use parallax_ps::PsTopology;

use crate::job::Job;

/// Machines in the planned topology (1 GPU each, matching `repro
/// check` and `repro trace`).
const MACHINES: usize = 4;

/// Runs the strategy search for `preset` (`"lm"` or `"nmt"`), writing
/// the search report to `PLAN_<preset>.json` under `out_dir`. Returns
/// the printable report and whether the searched plan beat (or tied)
/// every fixed strategy; an unknown preset is an error and writes
/// nothing.
pub fn run(preset: &str, calibrate: Option<&str>, out_dir: &str) -> Result<(String, bool), String> {
    let job = Job::new(preset)?;
    let calibration = match calibrate {
        Some(path) => match load_calibration(path) {
            Ok(cal) => Some(cal),
            Err(e) => return Ok((format!("repro plan: {e}\n"), false)),
        },
        None => None,
    };
    let feeds: Vec<Feed> = (0..MACHINES)
        .map(|w| job.feed(MACHINES, w, job.feed_seed(0)))
        .collect();
    // The search's profile is worker 0's shard of the first batch.
    let profile = estimate_profile(job.graph(), &feeds[..1], 1).map_err(|e| e.to_string())?;
    Ok(plan_model(
        &job,
        &profile,
        &feeds,
        calibration.as_ref(),
        out_dir,
    ))
}

/// Reads and parses a `parallax-calibration-v1` file, checking it was
/// measured on the same machine count this search plans for.
fn load_calibration(path: &str) -> Result<CalibrationProfile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read calibration file `{path}`: {e}"))?;
    let cal = CalibrationProfile::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;
    if cal.machines != MACHINES {
        return Err(format!(
            "`{path}` was measured on {} machines, the search plans for {MACHINES}",
            cal.machines
        ));
    }
    Ok(cal)
}

fn plan_model(
    job: &Job,
    profile: &SparsityProfile,
    feeds: &[Feed],
    calibration: Option<&CalibrationProfile>,
    out_dir: &str,
) -> (String, bool) {
    let (label, preset, graph) = (job.label(), job.name(), job.graph());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Strategy search: {label} on {MACHINES} machines x 1 GPU{} ==",
        if calibration.is_some() {
            " (trace-calibrated)"
        } else {
            ""
        },
    );
    let topo = PsTopology::uniform(MACHINES, 1).expect("topology");
    let cluster = ClusterModel::paper_testbed();
    let base = ParallaxConfig::default();
    let (plan, report) = match plan_search(
        graph,
        job.loss(),
        profile,
        &base,
        &topo,
        &cluster,
        feeds,
        calibration,
    ) {
        Ok(pair) => pair,
        Err(e) => {
            let _ = writeln!(out, "search failed: {e}");
            let _ = writeln!(out, "{label}: FAIL");
            return (out, false);
        }
    };

    // Predicted iteration time per fixed strategy, then the search.
    let _ = writeln!(out, "{:<18} {:>16}", "strategy", "predicted s/iter");
    for s in &report.fixed {
        let _ = writeln!(out, "{:<18} {:>16.6}", s.name, s.predicted_seconds);
    }
    let _ = writeln!(
        out,
        "{:<18} {:>16.6}  (seeded from {}, {} plans scored, {} move(s))",
        "searched",
        report.predicted_seconds,
        report.seed_strategy,
        report.evaluations,
        report.steps.len(),
    );

    // The chosen per-variable decision table.
    let names: Vec<String> = profile
        .vars
        .iter()
        .map(|v| {
            graph
                .var_def(v.var)
                .map(|def| def.name.clone())
                .unwrap_or_else(|_| format!("var{}", v.var.index()))
        })
        .collect();
    let width = names.iter().map(String::len).max().unwrap_or(0).max(4);
    let _ = writeln!(
        out,
        "{:<4} {:<width$} {:>10} {:>7} {:>7}  decision",
        "var", "name", "elements", "sparse", "alpha"
    );
    for ((v, d), name) in profile.vars.iter().zip(&plan.plan.decisions).zip(&names) {
        let _ = writeln!(
            out,
            "{:<4} {:<width$} {:>10} {:>7} {:>7.3}  {}",
            v.var.index(),
            name,
            v.elements,
            if v.sparse { "yes" } else { "no" },
            v.alpha,
            decision_label(d),
        );
    }

    let json = report.to_json();
    let path = format!("{out_dir}PLAN_{preset}.json");
    let wrote = std::fs::write(&path, &json);
    match wrote {
        Ok(()) => {
            let _ = writeln!(out, "wrote {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }

    let ok = report.beats_fixed();
    let _ = writeln!(
        out,
        "gate: searched {:.6}s <= best fixed {:.6}s -> {}",
        report.predicted_seconds,
        report.best_fixed_seconds(),
        if ok { "PASS" } else { "FAIL" },
    );
    let _ = writeln!(out, "{label}: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> String {
        let dir = std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
            + "/";
        std::fs::create_dir_all(dir.trim_end_matches('/')).unwrap();
        dir
    }

    #[test]
    fn lm_search_beats_fixed_strategies() {
        let dir = tmp_dir("parallax_plan_lm");
        let (report, ok) = run("lm", None, &dir).unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("LM (tiny): PASS"), "report:\n{report}");
        assert!(report.contains("pure_allreduce"), "{report}");
        assert!(report.contains("hybrid"), "{report}");
        assert!(report.contains("searched"), "{report}");
        let json = std::fs::read_to_string(format!("{dir}PLAN_lm.json")).expect("plan json");
        parallax_trace::json::parse(&json).expect("valid JSON");
        assert!(json.contains("parallax-plan-search-v1"));
    }

    #[test]
    fn nmt_search_beats_fixed_strategies() {
        let dir = tmp_dir("parallax_plan_nmt");
        let (report, ok) = run("nmt", None, &dir).unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("NMT (tiny): PASS"), "report:\n{report}");
    }

    #[test]
    fn calibrated_search_consumes_a_trace_artifact() {
        let dir = tmp_dir("parallax_plan_cal");
        // A homogeneous hand-written calibration: equal compute, no
        // queueing. The search must still run end to end and gate.
        let cal = format!(
            "{{\"schema\":\"parallax-calibration-v1\",\"machines\":{MACHINES},\
             \"iterations\":2,\"compute_per_iter\":[0.01,0.01,0.01,0.01],\
             \"server_busy_per_iter\":[0,0,0,0],\"apply_per_iter\":[0,0,0,0],\
             \"early_requests_per_iter\":[0,0,0,0],\"late_requests_per_iter\":[0,0,0,0],\
             \"service_mean_s\":[0,0,0,0],\"wait_mean_s\":0}}"
        );
        let cal_path = format!("{dir}cal.json");
        std::fs::write(&cal_path, cal).unwrap();
        let (report, ok) = run("lm", Some(&cal_path), &dir).unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("trace-calibrated"), "{report}");
    }

    #[test]
    fn missing_calibration_file_fails_cleanly() {
        let dir = tmp_dir("parallax_plan_badcal");
        let (report, ok) = run("lm", Some("/nonexistent/cal.json"), &dir).unwrap();
        assert!(!ok);
        assert!(report.contains("cannot read calibration file"), "{report}");
    }

    #[test]
    fn unknown_preset_writes_no_plan() {
        let dir = tmp_dir("parallax_plan_unknown");
        let Err(e) = run("lmm", None, &dir) else {
            panic!("an unknown preset ran the search")
        };
        assert!(e.contains("unknown preset 'lmm'"), "{e}");
        assert!(!std::path::Path::new(&format!("{dir}PLAN_lmm.json")).exists());
    }
}
