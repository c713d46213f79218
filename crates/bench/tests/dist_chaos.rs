//! Chaos over sockets: deterministic fault plans driven through the
//! real multi-process TCP transport.
//!
//! Each scenario launches a 1x2 local-process cluster (two workers and
//! one server, three OS processes over `parallax-net`) with a fault
//! plan in the spec, and asserts the fleet-level recovery story: the
//! failure is detected (the fleet loses a generation), the launcher
//! respawns from the chief's checkpoint, the one-shot fault does not
//! re-fire (write-ahead fired log), and the final weights are bitwise
//! identical to an uninterrupted in-process run of the same spec.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parallax_bench::dist::{build, feed, launch, MergedRun, EXIT_PEER_TIMEOUT, FAULT_LOG};
use parallax_net::ClusterSpec;

/// Per-generation wall budget; generous for loaded CI machines.
const DEADLINE: Duration = Duration::from_secs(120);

fn spec_for(scenario: &str, fault_spec: &str) -> ClusterSpec {
    let mut dir = std::env::temp_dir();
    dir.push(format!("parallax_dchaos_{}_{scenario}", std::process::id()));
    ClusterSpec {
        preset: "lm".into(),
        machines: 1,
        gpus_per_machine: 2,
        iterations: 6,
        seed: 11,
        wire_format: "f32".into(),
        host: "127.0.0.1".into(),
        ports: Vec::new(),
        artifact_dir: dir.display().to_string(),
        recv_deadline_ms: 3_000,
        fault_spec: fault_spec.into(),
        checkpoint: "run.ckpt".into(),
        snapshot: String::new(),
        checkpoint_interval: 2,
        max_recoveries: 2,
        validate_protocol: true,
    }
}

/// Runs `fault_spec` through the socket fleet and compares against an
/// uninterrupted in-process run of the fault-free spec.
fn run_scenario(scenario: &str, fault_spec: &str) -> MergedRun {
    let program = PathBuf::from(env!("CARGO_BIN_EXE_repro"));

    // Uninterrupted reference, in-process, same seed/plan/persistence.
    let ref_spec = spec_for(&format!("{scenario}_ref"), "");
    std::fs::create_dir_all(&ref_spec.artifact_dir).unwrap();
    let (ref_job, ref_runner) = build(&ref_spec).unwrap();
    let reference = ref_runner
        .run(ref_spec.iterations, |w, i| {
            feed(&ref_job, &ref_runner, w, i)
        })
        .unwrap();

    // Faulted socket run.
    let mut spec = spec_for(scenario, fault_spec);
    let merged = launch(&program, &mut spec, DEADLINE)
        .unwrap_or_else(|e| panic!("{scenario}: launch failed: {e}"));

    // Detection + recovery happened at the fleet level: the first
    // generation died and a respawn finished the run.
    assert!(
        !merged.failed_roles.is_empty(),
        "{scenario}: expected a lost generation"
    );

    // The one-shot fault was logged write-ahead, so the respawned
    // generation precleared it instead of re-firing it.
    let log = std::fs::read_to_string(Path::new(&spec.artifact_dir).join(FAULT_LOG))
        .unwrap_or_else(|e| panic!("{scenario}: fired-fault log missing: {e}"));
    assert!(
        log.contains(fault_spec),
        "{scenario}: fired log {log:?} does not record {fault_spec:?}"
    );

    // Recovery is exact: bitwise-identical final weights.
    assert_eq!(
        reference.final_model.len(),
        merged.final_model.len(),
        "{scenario}: variable count diverged"
    );
    for (var, expect) in &reference.final_model {
        let got = merged
            .final_model
            .get(var)
            .unwrap_or_else(|| panic!("{scenario}: variable {var} missing from merged run"));
        assert_eq!(expect.shape(), got.shape(), "{scenario}: var {var} shape");
        let same = expect
            .data()
            .iter()
            .zip(got.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{scenario}: var {var} weights diverged after recovery"
        );
    }

    let _ = std::fs::remove_dir_all(&spec.artifact_dir);
    let _ = std::fs::remove_dir_all(&ref_spec.artifact_dir);
    merged
}

#[test]
fn worker_kill_over_sockets_recovers_bitwise() {
    // Rank 1 is the second worker on the 1x2 topology; it dies at step
    // 3, after the step-2 checkpoint exists.
    run_scenario("kill", "kill-worker:1:3");
}

#[test]
fn wedged_worker_over_sockets_times_out_and_recovers_bitwise() {
    // Worker rank 1 sleeps 10 s at step 3, far past the spec's 3,000 ms
    // deadline. A stall is not a failure, so the generation can only be
    // lost to a peer's expired deadline: a survivor returns
    // `PeerTimeout` and exits with its status while the wedged worker
    // still sleeps, the launcher kills it, and the respawn resumes from
    // the step-2 checkpoint.
    let merged = run_scenario("stall", "stall:1:3:10000");
    let (role, code) = &merged.failed_roles[0];
    assert_ne!(
        role, "worker:1",
        "the wedged worker, not a survivor, ended the generation"
    );
    assert_eq!(
        *code,
        Some(EXIT_PEER_TIMEOUT),
        "{role} ended the generation without a peer timeout"
    );
}

#[test]
fn dropped_message_over_sockets_recovers_bitwise() {
    // The first message from worker rank 0 to the server (rank 2) is
    // dropped; the server times out, the fleet dies before any
    // checkpoint, and the respawn replays from scratch.
    run_scenario("drop", "drop:0:2:0");
}
