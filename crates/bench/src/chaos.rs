//! `repro chaos`: the fault-injection gate.
//!
//! Sweeps a matrix of deterministic [`FaultPlan`]s over short lm-preset
//! runs with checkpointing enabled and asserts, per scenario, the three
//! properties the fault subsystem promises:
//!
//! 1. **No hangs** — every scenario finishes inside a wall deadline.
//!    Detection is bounded by the configured `recv_deadline`, so a
//!    scenario that blows the wall budget means an infinite recv
//!    survived somewhere on the message path.
//! 2. **Bitwise recovery** — every scenario (fault or not) ends with
//!    final variables bitwise-identical to an unfaulted reference run;
//!    the synchronous-SGD determinism argument from DESIGN.md makes any
//!    divergence a bug, not noise.
//! 3. **Exact byte accounting** — `TraceDump::total_span_bytes()` equals
//!    the traffic accountant's `total_network_bytes()` even while
//!    messages are being dropped, duplicated, and replayed across
//!    recovery attempts.
//!
//! Each scenario runs on its own thread and the harness waits with a
//! timeout, so a hang is reported as a `HANG` verdict (nonzero exit)
//! instead of wedging CI.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use parallax_core::ParallaxConfig;
use parallax_dataflow::VarStore;
use parallax_fault::FaultPlan;
use parallax_trace::{TraceConfig, TraceDump};

use crate::job::Job;

/// Topology: 2 machines x 2 GPUs. Rank layout (workers first, then one
/// server rank per machine): workers 0,1 + server 2 on machine 0;
/// workers 3,4 + server 5 on machine 1.
pub const MACHINES: usize = 2;
/// GPUs (worker threads) per machine.
pub const GPUS: usize = 2;
const WORKERS: usize = MACHINES * GPUS;
const SERVER_M0: usize = 2;
const SERVER_M1: usize = 5;

/// Iterations per scenario — long enough for two checkpoint boundaries.
pub const ITERS: usize = 6;
/// Checkpoint every other step, so mid-run kills restore real state.
pub const CKPT_INTERVAL: usize = 2;
/// Receive deadline: the failure-detection bound. Short keeps the sweep
/// fast; generous enough that healthy iterations never trip it.
pub const DEADLINE: Duration = Duration::from_millis(1500);
/// Per-scenario wall budget. Detection plus one full replay fits with
/// a wide margin; exceeding this can only mean an unbounded recv.
pub const WALL_DEADLINE: Duration = Duration::from_secs(120);

/// One entry in the chaos matrix.
pub struct Scenario {
    /// Short name, usable with `--scenarios`.
    pub name: &'static str,
    /// What the plan injects and why it is expected to recover.
    pub what: &'static str,
    /// The deterministic fault plan.
    pub plan: FaultPlan,
}

/// The full chaos matrix, in sweep order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "baseline",
            what: "no faults (reference sanity)",
            plan: FaultPlan::new(),
        },
        Scenario {
            name: "worker-kill",
            what: "kill worker rank 1 at step 3; restore from step-2 checkpoint",
            plan: FaultPlan::new().kill_worker(1, 3),
        },
        Scenario {
            name: "server-kill",
            what: "kill machine 1's PS shard at step 3; restore from step-2 checkpoint",
            plan: FaultPlan::new().kill_server(1, 3),
        },
        Scenario {
            name: "drop",
            what: "drop worker 0's first message to the remote server; timeout, then replay",
            plan: FaultPlan::new().drop_message(0, SERVER_M1, 0),
        },
        Scenario {
            name: "delay",
            what: "delay a worker->server message 50ms (< deadline); no failure, no recovery",
            plan: FaultPlan::new().delay_message(1, SERVER_M0, 0, 50),
        },
        Scenario {
            name: "duplicate",
            what: "duplicate a cross-machine PS request; server dedup must not double-apply",
            plan: FaultPlan::new().duplicate_message(3, SERVER_M0, 1),
        },
        Scenario {
            name: "stall",
            what: "stall worker 4 for 120ms at step 2 (transient straggler, no failure)",
            plan: FaultPlan::new().stall(4, 2, 120),
        },
        Scenario {
            name: "random",
            what: "seed-derived drop/delay/duplicate mix over all links (seed 7)",
            plan: FaultPlan::random(7, WORKERS + MACHINES, 3, 2),
        },
    ]
}

/// How one scenario ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Completed, bitwise-equal to the reference, exact byte crosscheck.
    Pass,
    /// Did not finish inside [`WALL_DEADLINE`].
    Hang,
    /// The run surfaced an error it should have recovered from.
    Failed,
    /// Completed but the final variables differ from the reference.
    Diverged,
    /// Completed but the two byte ledgers disagree.
    BytesMismatch,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Hang => "HANG",
            Verdict::Failed => "FAILED",
            Verdict::Diverged => "DIVERGED",
            Verdict::BytesMismatch => "BYTES",
        }
    }
}

/// One scenario's measured outcome.
pub struct Outcome {
    /// Scenario name.
    pub name: &'static str,
    /// Final verdict (see [`Verdict`]).
    pub verdict: Verdict,
    /// Wall-clock time of the scenario run.
    pub elapsed: Duration,
    /// `fault.detected` / `fault.recovered` trace counters.
    pub detected: u64,
    /// See [`Outcome::detected`].
    pub recovered: u64,
    /// Max |reference - final| over all variables (0.0 required).
    pub divergence: f32,
    /// Extra failure detail, empty on pass.
    pub detail: String,
}

fn ckpt_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parallax_chaos_{}_{tag}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config_for(tag: &str, plan: FaultPlan) -> ParallaxConfig {
    ParallaxConfig {
        checkpoint_path: Some(ckpt_path(tag)),
        checkpoint_interval: CKPT_INTERVAL,
        fault_plan: plan,
        recv_deadline: Some(DEADLINE),
        // A multi-fault plan (the random scenario) may fail once per
        // message fault in the worst case.
        max_recoveries: 4,
        ..ParallaxConfig::default()
    }
}

/// Runs the lm preset under `config`, returning the total measured
/// network bytes and the final model.
fn run_lm(config: ParallaxConfig) -> Result<(u64, VarStore), String> {
    let job = Job::new("lm")?;
    let runner = job
        .runner(vec![GPUS; MACHINES], config, 42)
        .map_err(|e| e.to_string())?;
    let report = runner
        .run(ITERS, |w, i| job.feed(WORKERS, w, 70 + i as u64))
        .map_err(|e| e.to_string())?;
    let store = report.final_store(job.graph()).map_err(|e| e.to_string())?;
    Ok((report.traffic.total_network_bytes(), store))
}

fn counter(dump: &TraceDump, name: &str) -> u64 {
    dump.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// What a scenario thread sends back: the traced run result + its dump.
type ScenarioResult = (Result<(u64, VarStore), String>, TraceDump);

fn run_scenario_traced(config: ParallaxConfig) -> ScenarioResult {
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let result = run_lm(config);
    parallax_trace::disable();
    (result, parallax_trace::drain())
}

/// Runs one scenario against the reference store, respecting the wall
/// deadline. Returns `None` only on hang (the worker thread is then
/// deliberately leaked — it is wedged by definition).
fn evaluate(scenario: &Scenario, reference: &VarStore) -> Outcome {
    let config = config_for(scenario.name, scenario.plan.clone());
    let cleanup = config.checkpoint_path.clone();
    let (tx, rx) = mpsc::channel();
    let thread_config = config.clone();
    let started = Instant::now();
    std::thread::spawn(move || {
        let _ = tx.send(run_scenario_traced(thread_config));
    });
    let (result, dump) = match rx.recv_timeout(WALL_DEADLINE) {
        Ok(r) => r,
        Err(_) => {
            return Outcome {
                name: scenario.name,
                verdict: Verdict::Hang,
                elapsed: started.elapsed(),
                detected: 0,
                recovered: 0,
                divergence: f32::NAN,
                detail: format!("exceeded {WALL_DEADLINE:?} wall budget"),
            };
        }
    };
    let elapsed = started.elapsed();
    if let Some(p) = cleanup {
        let _ = std::fs::remove_file(p);
    }
    let detected = counter(&dump, "fault.detected");
    let recovered = counter(&dump, "fault.recovered");
    let (net_bytes, store) = match result {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                name: scenario.name,
                verdict: Verdict::Failed,
                elapsed,
                detected,
                recovered,
                divergence: f32::NAN,
                detail: e,
            };
        }
    };
    let divergence = reference.max_divergence(&store);
    if divergence != 0.0 {
        return Outcome {
            name: scenario.name,
            verdict: Verdict::Diverged,
            elapsed,
            detected,
            recovered,
            divergence,
            detail: format!("max |ref - final| = {divergence:e}"),
        };
    }
    let span_bytes = dump.total_span_bytes();
    if span_bytes != net_bytes {
        return Outcome {
            name: scenario.name,
            verdict: Verdict::BytesMismatch,
            elapsed,
            detected,
            recovered,
            divergence,
            detail: format!(
                "span-attributed {span_bytes} B != traffic {net_bytes} B \
                 (unattributed {})",
                dump.unattributed_net_bytes
            ),
        };
    }
    Outcome {
        name: scenario.name,
        verdict: Verdict::Pass,
        elapsed,
        detected,
        recovered,
        divergence,
        detail: String::new(),
    }
}

/// Runs the chaos sweep. `only` filters scenarios by name (empty runs
/// the whole matrix; unknown names are an error). Returns the printed
/// report and whether every scenario passed.
pub fn run(only: &[String]) -> Result<(String, bool), String> {
    let matrix = scenarios();
    for name in only {
        if !matrix.iter().any(|s| s.name == name) {
            let known: Vec<&str> = matrix.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown scenario '{name}' (known: {})",
                known.join(", ")
            ));
        }
    }
    let selected: Vec<&Scenario> = matrix
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|n| n == s.name))
        .collect();

    // The reference: identical config shape (checkpointing on), no
    // faults, untraced.
    let ref_config = config_for("reference", FaultPlan::new());
    let ref_cleanup = ref_config.checkpoint_path.clone();
    let (_, reference) = run_lm(ref_config)?;
    if let Some(p) = ref_cleanup {
        let _ = std::fs::remove_file(p);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Chaos sweep: lm preset on {MACHINES} machines x {GPUS} GPUs, {ITERS} iterations, \
         checkpoint every {CKPT_INTERVAL}, recv deadline {DEADLINE:?} =="
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>6} {:>6} {:>10}  fault plan",
        "scenario", "time", "det", "rec", "verdict"
    );
    let mut all_ok = true;
    for scenario in selected {
        let outcome = evaluate(scenario, &reference);
        all_ok &= outcome.verdict == Verdict::Pass;
        let _ = writeln!(
            out,
            "{:<12} {:>7.2}s {:>6} {:>6} {:>10}  {}",
            outcome.name,
            outcome.elapsed.as_secs_f64(),
            outcome.detected,
            outcome.recovered,
            outcome.verdict.label(),
            scenario.what,
        );
        if !outcome.detail.is_empty() {
            let _ = writeln!(out, "{:<12} ^ {}", "", outcome.detail);
        }
        if outcome.verdict == Verdict::Hang {
            // The tracer is process-global and the wedged thread still
            // owns it; further scenarios would measure garbage.
            let _ = writeln!(out, "chaos: FAIL (aborting sweep after hang)");
            return Ok((out, false));
        }
    }
    let _ = writeln!(out, "chaos: {}", if all_ok { "PASS" } else { "FAIL" });
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_fault_kind() {
        use parallax_fault::FaultAction;
        let matrix = scenarios();
        let all: Vec<FaultAction> = matrix
            .iter()
            .flat_map(|s| s.plan.actions().iter().copied())
            .collect();
        assert!(all
            .iter()
            .any(|a| matches!(a, FaultAction::KillWorker { .. })));
        assert!(all
            .iter()
            .any(|a| matches!(a, FaultAction::KillServer { .. })));
        assert!(all
            .iter()
            .any(|a| matches!(a, FaultAction::DropMessage { .. })));
        assert!(all
            .iter()
            .any(|a| matches!(a, FaultAction::DelayMessage { .. })));
        assert!(all
            .iter()
            .any(|a| matches!(a, FaultAction::DuplicateMessage { .. })));
        assert!(all.iter().any(|a| matches!(a, FaultAction::Stall { .. })));
        // And one scenario with no faults at all.
        assert!(matrix.iter().any(|s| s.plan.is_empty()));
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let err = run(&["bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
