//! Run health of the sim-vs-measured conformance scenarios.
//!
//! Each case runs a homogeneous traced hybrid job (the calibration
//! baseline), distills a `CalibrationProfile` from its trace, and runs
//! the scenario again with a *real* injected slowdown
//! (`ParallaxConfig::machine_slowdown`) — exactly the runs the
//! `repro straggler` gate compares against the simulator. `cargo test`
//! asserts bytes and bits, never timing ratios, so this suite checks
//! only what timing cannot move: every network byte is classified, and
//! every worker push span pairs with the server span that serves it.
//! The predicted-vs-measured tolerance bands are checked by the release
//! gate, which `scripts/verify.sh` runs for lm, nmt and the 3-machine
//! case (`repro straggler --model lm --machines 3 --factors 1,2.5`).
//!
//! The tracer is process-global, so every test takes one lock.

use std::sync::{Mutex, MutexGuard};

use parallax_bench::straggler::{conformance_case, measure, traced_run, TracedRun, MACHINES};
use parallax_repro::cluster::CalibrationProfile;

static TRACER: Mutex<()> = Mutex::new(());

fn tracer_lock() -> MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Iterations per traced run.
const ITERS: usize = 4;

/// Runs the factor matrix for one preset on `machines` machines against
/// a shared baseline and asserts the run-health invariants of every
/// straggler run.
fn run_health(preset: &str, machines: usize, factors: &[f64]) {
    let baseline = traced_run(preset, machines, ITERS, &[]).expect("baseline run");
    let cal = CalibrationProfile::from_dump(&baseline.dump, machines, ITERS as u64).homogenized();
    for &factor in factors {
        let (_case, runs) = conformance_case(preset, machines, ITERS, factor, &baseline, &cal)
            .expect("conformance case");
        for run in &runs {
            assert_healthy(preset, machines, factor, run);
        }
    }
}

/// The timing-free invariants of one run.
fn assert_healthy(preset: &str, machines: usize, factor: f64, run: &TracedRun) {
    // No bytes may escape transport classification when delays are
    // injected: the straggler knob changes timing, never routing.
    let other = &run.report.traffic.other;
    assert_eq!(
        other.total_network_bytes(),
        0,
        "{preset} x{machines} factor {factor}: untagged network traffic"
    );
    assert_eq!(
        other.intra_bytes(),
        0,
        "{preset} x{machines} factor {factor}: untagged intra-machine traffic"
    );
    // Every worker push span must pair with exactly one serve span
    // (measure() runs the flow validator internally).
    let measured = measure(run).expect("measured run stays valid");
    assert!(
        measured.flow_pairs > 0,
        "{preset} x{machines} factor {factor}: no push->serve flows recorded"
    );
}

#[test]
fn lm_conformance_across_slowdown_factors() {
    let _g = tracer_lock();
    run_health("lm", MACHINES, &[1.0, 2.0, 3.0]);
}

#[test]
fn nmt_conformance_across_slowdown_factors() {
    let _g = tracer_lock();
    run_health("nmt", MACHINES, &[1.0, 2.0, 3.0]);
}

/// The 3-machine cluster keeps a distinct machine count, server set,
/// and median position.
#[test]
fn three_machine_topology_conforms() {
    let _g = tracer_lock();
    run_health("lm", 3, &[1.0, 2.5]);
}
