//! `repro protocheck`: the protocol-verification gate.
//!
//! Three stages per model preset (`lm` / `nmt`), mirroring the shape of
//! `repro check` but for the wire protocol instead of the plan:
//!
//! 1. **Static session check** — derive the typed session machine from
//!    the verified plan ([`parallax_core::derive_session`]) and run the
//!    `C001`–`C008` passes over it. A clean hybrid session is required.
//! 2. **Seeded-defect matrix** — tamper a fresh copy of the derived
//!    session with one representative defect per diagnostic code and
//!    assert the checker reports exactly that code. A defect the
//!    checker misses fails the gate (and the binary exits nonzero).
//! 3. **Runtime assertion** — run real hybrid training with the
//!    [`parallax_comm::protocheck::SessionValidator`] installed on
//!    every endpoint (`validate_protocol = true`, so the check is live
//!    even in release builds), first clean, then under
//!    duplicate / drop / delay fault injection with checkpointing and
//!    recovery enabled. Every run must complete — the validator is
//!    stateless, so fault-echoed and recovery-replayed messages must
//!    never be false positives.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use parallax_comm::protocheck::{MsgEvent, Phase, SessionSpec, WireKind};
use parallax_comm::tag::{ReqKind, MAX_VARS};
use parallax_core::{check_fault_plan, check_session, derive_session, ParallaxConfig, Runner};
use parallax_dataflow::verify::DiagCode;
use parallax_fault::FaultPlan;

use crate::job::{Job, PROFILE_SEED};

/// Topology: 2 machines x 2 GPUs (workers 0,1 + server 2 on machine 0;
/// workers 3,4 + server 5 on machine 1), matching `repro chaos`.
const MACHINES: usize = 2;
const GPUS: usize = 2;
const WORKERS: usize = MACHINES * GPUS;

/// Iterations per runtime scenario — spans two checkpoint boundaries.
const ITERS: usize = 6;
const CKPT_INTERVAL: usize = 2;
/// Failure-detection bound for the lossy runtime scenarios.
const DEADLINE: Duration = Duration::from_millis(1500);

/// Runs the protocol gate for `preset` (`"lm"` or `"nmt"`). Returns the
/// printable report and whether every stage passed; an unknown preset
/// is an error.
pub fn run(preset: &str) -> Result<(String, bool), String> {
    Ok(check_protocol(&Job::new(preset)?))
}

fn ckpt_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "parallax_protocheck_{}_{tag}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The gate's config: hybrid defaults plus checkpointing (so boundary
/// events exist), an armed deadline (so lossy faults are recoverable)
/// and the release-build validator switched on.
fn gate_config(tag: &str, faults: FaultPlan) -> ParallaxConfig {
    ParallaxConfig {
        checkpoint_path: Some(ckpt_path(tag)),
        checkpoint_interval: CKPT_INTERVAL,
        fault_plan: faults,
        recv_deadline: Some(DEADLINE),
        max_recoveries: 4,
        validate_protocol: true,
        ..ParallaxConfig::default()
    }
}

/// One seeded defect: a label, the code the checker must report, and
/// the tamper applied to a fresh copy of the derived session.
struct Defect {
    label: &'static str,
    code: DiagCode,
    tamper: fn(&mut SessionSpec),
}

fn find(spec: &SessionSpec, kind: WireKind) -> usize {
    spec.events()
        .iter()
        .position(|e| e.kind == kind)
        .unwrap_or_else(|| panic!("derived session has no {kind:?} event"))
}

fn defects() -> Vec<Defect> {
    vec![
        Defect {
            label: "skewed push multiplicity",
            code: DiagCode::C001,
            tamper: |spec| {
                let i = find(spec, WireKind::Request(ReqKind::PushSparse));
                spec.events_mut()[i].sends += 1;
            },
        },
        Defect {
            label: "mis-paired FetchShard reply",
            code: DiagCode::C002,
            tamper: |spec| {
                let i = find(spec, WireKind::Response(ReqKind::FetchShard));
                let wrong = *spec
                    .workers
                    .iter()
                    .find(|&&w| w != spec.chief)
                    .expect("more than one worker");
                spec.events_mut()[i].to = wrong;
            },
        },
        Defect {
            label: "dropped UpdateDone notification",
            code: DiagCode::C002,
            tamper: |spec| {
                let i = find(spec, WireKind::Response(ReqKind::UpdateDone));
                spec.events_mut().remove(i);
            },
        },
        Defect {
            label: "cross-phase identity leak",
            code: DiagCode::C003,
            tamper: |spec| {
                let i = find(spec, WireKind::Request(ReqKind::PullSparse));
                let mut leak = spec.events()[i].clone();
                leak.phase = Phase::TraceRead;
                leak.label = "leaked clone".into();
                spec.events_mut().push(leak);
            },
        },
        Defect {
            label: "wait-for cycle",
            code: DiagCode::C004,
            tamper: |spec| {
                let last = spec.events().len() - 1;
                spec.events_mut()[0].deps.push(last);
                spec.events_mut()[last].deps.push(0);
            },
        },
        Defect {
            label: "unguarded non-idempotent kind",
            code: DiagCode::C005,
            tamper: |spec| spec.tamper_unguard(ReqKind::ChiefUpdate),
        },
        Defect {
            label: "out-of-phase snapshot publish",
            code: DiagCode::C007,
            tamper: |spec| {
                let i = find(spec, WireKind::Request(ReqKind::FetchShard));
                spec.events_mut()[i].boundary_only = false;
            },
        },
        Defect {
            label: "malformed event",
            code: DiagCode::C008,
            tamper: |spec| {
                let e = MsgEvent {
                    phase: Phase::Push,
                    from: 0,
                    to: 0,
                    kind: WireKind::Request(ReqKind::PushSparse),
                    var: MAX_VARS + 1,
                    part: 0,
                    sends: 0,
                    tag_uses: 1,
                    boundary_only: false,
                    reply_of: Some(usize::MAX),
                    deps: vec![usize::MAX],
                    label: "malformed".into(),
                };
                spec.events_mut().push(e);
            },
        },
    ]
}

/// Phase histogram of a session, for the report.
fn phase_summary(spec: &SessionSpec) -> String {
    let mut counts: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for e in spec.events() {
        let entry = counts.entry(format!("{:?}", e.phase)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += e.sends;
    }
    counts
        .iter()
        .map(|(phase, (events, msgs))| format!("{phase} {events}ev/{msgs}msg"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn check_protocol(job: &Job) -> (String, bool) {
    let (label, graph) = (job.label(), job.graph());
    let feed_fn = |w: usize, i: usize| job.feed(WORKERS, w, job.feed_seed(i));
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "== Protocol verification: {label} on {MACHINES} machines x {GPUS} GPUs =="
    );

    // ---- Stage 1: static session check -----------------------------
    let config = gate_config("static", FaultPlan::new());
    let static_ckpt = config.checkpoint_path.clone();
    let runner = match job.runner(vec![GPUS; MACHINES], config.clone(), PROFILE_SEED) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "runner construction failed: {e}");
            let _ = writeln!(out, "{label}: FAIL");
            return (out, false);
        }
    };
    let topo = runner.topology().clone();
    let plan = runner.plan().clone();
    let spec = match derive_session(graph, &config, &topo, &plan) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(out, "session derivation failed: {e}");
            let _ = writeln!(out, "{label}: FAIL");
            return (out, false);
        }
    };
    let _ = writeln!(
        out,
        "session machine: {} events over {} ranks ({})",
        spec.events().len(),
        spec.ranks,
        phase_summary(&spec)
    );
    let report = check_session(graph, &config, &topo, &plan, &spec);
    let _ = writeln!(
        out,
        "session passes: {} error(s), {} warning(s)",
        report.errors().count(),
        report.warnings().count()
    );
    if report.has_errors() {
        out.push_str(&report.render());
        ok = false;
    }

    // ---- Stage 2: seeded-defect matrix ------------------------------
    let _ = writeln!(out, "-- seeded defects (each must be detected) --");
    for defect in defects() {
        let mut tampered = spec.clone();
        (defect.tamper)(&mut tampered);
        let report = check_session(graph, &config, &topo, &plan, &tampered);
        let caught = report.has_code(defect.code);
        ok &= caught;
        let _ = writeln!(
            out,
            "{:<34} -> {:<4} {}",
            defect.label,
            defect.code.as_str(),
            if caught { "detected" } else { "MISSED" }
        );
    }
    // The two fault-plan codes are seeded through `check_fault_plan`
    // directly: a duplicate aimed at a tag-reusing ring link, and a
    // lossy plan with the deadline tampered off.
    {
        let ring = &spec.events()[find(&spec, WireKind::Collective)];
        let faults = FaultPlan::new().duplicate_message(ring.from, ring.to, 0);
        let caught = check_fault_plan(&spec, &faults).has_code(DiagCode::C005);
        ok &= caught;
        let _ = writeln!(
            out,
            "{:<34} -> {:<4} {}",
            "duplicate fault on ring link",
            DiagCode::C005.as_str(),
            if caught { "detected" } else { "MISSED" }
        );
        let mut disarmed = spec.clone();
        disarmed.tamper_disarm_deadline();
        let faults = FaultPlan::new().drop_message(topo.worker_ranks()[0], topo.server_rank(1), 0);
        let caught = check_fault_plan(&disarmed, &faults).has_code(DiagCode::C006);
        ok &= caught;
        let _ = writeln!(
            out,
            "{:<34} -> {:<4} {}",
            "lossy faults, deadline disarmed",
            DiagCode::C006.as_str(),
            if caught { "detected" } else { "MISSED" }
        );
    }

    // ---- Stage 3: runtime assertion ---------------------------------
    let _ = writeln!(
        out,
        "-- runtime validation (validator on every endpoint) --"
    );
    let run_one = |tag: &str, faults: FaultPlan, runner: Option<Runner>| -> (String, bool) {
        let config = gate_config(tag, faults);
        let cleanup = config.checkpoint_path.clone();
        let runner = match runner {
            Some(r) => Ok(r),
            None => job.runner(vec![GPUS; MACHINES], config, PROFILE_SEED),
        };
        let result = match runner {
            Ok(r) => r.run(ITERS, feed_fn).map(|_| ()).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        if let Some(p) = cleanup {
            let _ = std::fs::remove_file(p);
        }
        match result {
            Ok(()) => (format!("{ITERS} iterations, no protocol violations"), true),
            Err(e) => (format!("FAILED: {e}"), false),
        }
    };
    // Clean hybrid run, reusing the stage-1 runner (its config already
    // has `validate_protocol`).
    let scenarios: Vec<(&str, FaultPlan, Option<Runner>)> = vec![
        ("clean", FaultPlan::new(), Some(runner)),
        (
            "duplicate",
            // A duplicated cross-machine PS request: dedup-guarded, and
            // its identity is already in the allowed set.
            FaultPlan::new().duplicate_message(topo.workers_of(1)[0], topo.server_rank(0), 1),
            None,
        ),
        (
            "drop",
            // A dropped request: detection, checkpoint restore, replay.
            // Replayed iterations re-send allowed identities.
            FaultPlan::new().drop_message(topo.worker_ranks()[0], topo.server_rank(1), 0),
            None,
        ),
        (
            "delay",
            // A delayed message arrives late but unmodified.
            FaultPlan::new().delay_message(topo.worker_ranks()[1], topo.server_rank(0), 0, 50),
            None,
        ),
    ];
    for (tag, faults, prebuilt) in scenarios {
        let (detail, passed) = run_one(tag, faults, prebuilt);
        ok &= passed;
        let _ = writeln!(out, "{tag:<10} {detail}");
    }
    if let Some(p) = static_ckpt {
        let _ = std::fs::remove_file(p);
    }

    let _ = writeln!(out, "{label}: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_gate_passes() {
        let (report, ok) = run("lm").unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("LM (tiny): PASS"), "{report}");
        // Every seeded defect must read "detected".
        assert!(!report.contains("MISSED"), "{report}");
    }

    #[test]
    fn nmt_gate_passes() {
        let (report, ok) = run("nmt").unwrap();
        assert!(ok, "report:\n{report}");
        assert!(report.contains("NMT (tiny): PASS"), "{report}");
        assert!(!report.contains("MISSED"), "{report}");
    }
}
