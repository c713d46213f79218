//! The benchmark's own checks: exact counts repeat for one seed, the
//! LM's measured bytes equal the static prediction, the frame-size
//! mirror matches the encoder, and `BENCHMARK.json` lists every metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Arc, Mutex, MutexGuard};

use parallax_comm::{PackedSlices, Payload};
use parallax_tensor::{IndexedSlices, Tensor};
use perfbench::net::frame_len;
use perfbench::train::{check_predicted_traffic, Job, Kind};
use perfbench::{Budget, Workload, END_TO_END, PER_LAYER};

/// The tracer and the kernel pool are process-wide, so workload runs
/// must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts the program makes, which must repeat exactly for one seed.
const COUNTS: [&str; 7] = [
    "comm.net_bytes",
    "comm.messages",
    "comm.allreduce_calls",
    "ps.requests",
    "net.frames",
    "net.frame_bytes",
    "trace.dropped",
];

fn traced_counts(workload: Workload, seed: u64) -> Vec<f64> {
    let out = perfbench::run(
        workload,
        seed,
        Budget {
            seconds: 0.0,
            trace: true,
        },
    );
    assert!(
        out.correct(),
        "{} failed: {:?}",
        workload.name(),
        out.problems
    );
    COUNTS
        .iter()
        .map(|name| out.metric(name).unwrap_or(0.0))
        .collect()
}

#[test]
fn counts_repeat_exactly_for_one_seed() {
    let _g = serial();
    for workload in [Workload::LmPs, Workload::LmPsTcp, Workload::DenseAr] {
        let first = traced_counts(workload, 7);
        let second = traced_counts(workload, 7);
        assert_eq!(first, second, "{} counts {COUNTS:?}", workload.name());
        // Non-vacuous: every workload moves bytes between machines.
        assert!(
            first[0] > 0.0 && first[1] > 0.0,
            "{}: {first:?}",
            workload.name()
        );
        if workload == Workload::LmPsTcp {
            // Every routed message crosses a socket as one frame.
            assert_eq!(first[4], first[1]);
        }
    }
}

#[test]
fn lm_bytes_equal_the_static_prediction() {
    let _g = serial();
    let job = Job::build(Kind::LmPs, 3, None).expect("job builds");
    check_predicted_traffic(&job, 4).expect("predicted == measured");
}

#[test]
fn lm_serve_passes_its_checks() {
    let _g = serial();
    let out = perfbench::run(
        Workload::LmServe,
        5,
        Budget {
            seconds: 0.4,
            trace: true,
        },
    );
    assert!(out.correct(), "{:?}", out.problems);
    assert!(out.metric("serve.batch_mean").unwrap_or(0.0) >= 1.0);
}

#[test]
fn frame_len_matches_the_encoder() {
    let t = Tensor::new([2, 3], vec![1.0; 6]).expect("tensor");
    let s = IndexedSlices::new(vec![4, 9], t.clone(), 16).expect("slices");
    let payloads = [
        Payload::Tensor(Arc::new(t.clone())),
        Payload::Slices(Arc::new(s.clone())),
        Payload::Floats(Arc::new(vec![0.5; 5])),
        Payload::Words(Arc::new(vec![7u16; 3])),
        Payload::Packed(Arc::new(PackedSlices::pack(&s))),
        Payload::Ids(vec![1, 2, 300]),
        Payload::Control(42),
        Payload::Packet {
            header: 9,
            body: Box::new(Payload::Ids(vec![5])),
        },
    ];
    for p in &payloads {
        assert_eq!(
            frame_len(p),
            parallax_net::encode_msg(11, p).len() as u64,
            "{p:?}"
        );
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text: String = std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .split_whitespace()
        .collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\":\"{}\"", w.name())));
    }
}
