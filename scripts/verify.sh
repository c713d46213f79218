#!/usr/bin/env bash
# Full verification gate: release build, the whole test suite, a
# warning-free clippy pass over every target, and a formatting check.
# Run from the repo root. CI (.github/workflows/ci.yml) runs this same
# script, so a local pass means a green build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check

# Static plan verification gate: graph passes, plan passes, and the
# traffic predictor cross-validated against one executed iteration.
cargo run --release -q -p parallax-bench --bin repro -- check --model lm
cargo run --release -q -p parallax-bench --bin repro -- check --model nmt

# Strategy-search gate: score the five fixed placement strategies plus
# the greedy per-variable search on both presets; exits nonzero if the
# searched plan's predicted iteration time is slower than any fixed
# strategy's (the search must never lose to a recipe it subsumes). The
# cross-strategy equivalence suite (bitwise-identical weights under
# every strategy) runs as part of `cargo test` above.
cargo run --release -q -p parallax-bench --bin repro -- plan --model lm
cargo run --release -q -p parallax-bench --bin repro -- plan --model nmt

# Protocol verification gate: derive the per-link session machine from
# the verified plan, prove it clean (C001-C008), require every seeded
# protocol defect to be caught, then run clean/duplicate/drop/delay
# training with the runtime session validator live on every endpoint
# (exits nonzero on any missed defect or validator false positive).
cargo run --release -q -p parallax-bench --bin repro -- protocheck --model lm
cargo run --release -q -p parallax-bench --bin repro -- protocheck --model nmt

# Loom model checking: exhaustive interleaving exploration (within the
# preemption bound) of the serving queue shutdown protocol, the compute
# pool's batch gate, tracer metric cells, and PS accumulator fan-in.
RUSTFLAGS="--cfg loom" cargo test -q \
  -p parallax-serve --test loom_queue \
  -p parallax-tensor --test loom_pool \
  -p parallax-trace --test loom_metrics \
  -p parallax-ps --test loom_accumulator

# Unsafe-memory gate (skipped when the miri component is unavailable,
# e.g. offline containers; CI always runs it): interpret the
# unsafe-bearing tensor kernels/pool and snapshot mmap-path tests.
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -q -p parallax-tensor --lib
  cargo +nightly miri test -q -p parallax-core --lib snapshot
else
  echo "verify: skipping miri (component not installed)"
fi

# ThreadSanitizer smoke (nightly + build-std so std's happens-before
# edges are visible — without it every std Mutex/channel edge is a
# false positive): the end-to-end distributed run with every real
# worker/server/chief thread racing under TSan. Skipped when rust-src
# is unavailable (offline containers); CI always runs it.
if rustup component list --toolchain nightly --installed 2>/dev/null | grep -q rust-src; then
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -Zbuild-std --target x86_64-unknown-linux-gnu \
    -p parallax-repro --test end_to_end -- --test-threads=1
else
  echo "verify: skipping ThreadSanitizer smoke (nightly rust-src not installed)"
fi

# Sim-vs-measured conformance gate: the calibrated IterationSim must
# predict real injected-straggler runs within the documented tolerance
# bands (exits nonzero on any band violation; runs in well under a
# minute).
cargo run --release -q -p parallax-bench --bin repro -- straggler --model lm

# Fault-injection gate (smoke subset of the chaos matrix): one kill, one
# dropped message, one duplicate, plus the unfaulted baseline — each must
# recover to a bitwise-identical model without hanging and keep the
# trace/traffic byte ledgers exactly equal. The full matrix runs via
# `repro chaos` (no --scenarios).
cargo run --release -q -p parallax-bench --bin repro -- chaos \
  --scenarios baseline,worker-kill,drop,duplicate

# Distributed-transport equivalence gate: launch real multi-process
# socket clusters (one OS process per role over parallax-net's TCP
# mesh) for both presets and require bitwise-identical losses and final
# weights plus byte-identical per-class traffic (statically predicted
# == traced spans == measured ledger) versus the in-process runner from
# the same seed and plan. The chaos-over-sockets recovery suite
# (kill/drop through real processes) runs as part of `cargo test`
# above. A hard wall-clock deadline keeps a wedged mesh from hanging
# the build (each fleet generation also has its own internal deadline).
timeout 600 cargo run --release -q -p parallax-bench --bin repro -- dist-check

# Benchmark self-tests (perfbench/ is a package of its own, outside the
# workspace): its frame-size mirror must equal `encode_msg`, and the
# per-step frame, byte, message and request counts of one seed must
# repeat exactly, so a codec change cannot silently move the wire.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Compression gate: f16/bf16 dense payloads must shrink >= 1.8x with
# predicted==traced==measured bytes exactly equal under every wire
# format, the delta+varint sparse index codec must beat raw u32 indices
# at alpha <= 0.1, and the fused LSTM cell must be no slower than the
# unfused op chain (exits nonzero if any gate fails).
cargo run --release -q -p parallax-bench --bin repro -- compress

# Serving gate: train both tiny presets with snapshot publishing, then
# require the validated zero-copy snapshot load to finish inside its
# time budget and every served response to be bitwise identical to a
# training-graph forward pass on the snapshot weights. QPS and p50/p99
# are reported (BENCH_serving.json) but not gated — absolute latency on
# a shared host is noise.
cargo run --release -q -p parallax-bench --bin repro -- serve-bench

echo "verify: OK"
