//! `repro compress`: wire-format compression gate.
//!
//! Two sections, each both *measured* and *gated* on bytes:
//!
//! 1. **Executed wire sweep** — one real LM iteration (Horovod-style
//!    AllReduce placement, so dense gradients ride the ring and sparse
//!    gradients ride AllGatherv) under every [`WireFormat`]. For each
//!    format the static traffic prediction must equal the measured
//!    ledger *exactly*, and the half-precision formats must cut dense
//!    ring bytes by at least [`DENSE_REDUCTION_GATE`].
//! 2. **Sparse index codec** — delta+varint index encoding on synthetic
//!    sorted gather indices across densities; must be lossless and, at
//!    alpha <= 0.1, shrink index bytes by at least
//!    [`INDEX_SHRINK_GATE`].
//!
//! Results are written as `BENCH_compression.json`; any gate violation
//! makes `run` return `ok = false` so `repro compress` exits nonzero.

use std::fmt::Write as _;

use parallax_comm::{wire, WireFormat};
use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::ParallaxConfig;
use parallax_tensor::DetRng;

use crate::job::{Job, PROFILE_SEED};

/// Machines in the executed topology (1 GPU each, matching `repro
/// check`, so ring hops cross real machine boundaries).
const MACHINES: usize = 4;

/// Required dense AllReduce byte reduction for 16-bit wire formats.
/// The ring moves 2·(n-1)/n of the payload per replica in both
/// directions regardless of format, so halving the scalar width must
/// show up nearly undiluted; 1.8x leaves room for index/header bytes.
pub const DENSE_REDUCTION_GATE: f64 = 1.8;

/// Required index-byte shrink (raw 8 B/index over delta+varint) at
/// alpha <= 0.1. Sorted gather indices at that density have small
/// deltas, so most encode in 1-2 bytes; 2x is a loose floor.
pub const INDEX_SHRINK_GATE: f64 = 2.0;

/// One executed-iteration measurement under a wire format.
pub struct WireRow {
    /// Format name (`f32`, `f16`, `bf16`).
    pub format: &'static str,
    /// Measured dense ring AllReduce bytes (nccl class).
    pub nccl_bytes: u64,
    /// Measured sparse AllGatherv bytes (mpi class).
    pub mpi_bytes: u64,
    /// Did the static prediction equal the measured ledger exactly?
    pub predicted_exact: bool,
}

/// One synthetic index-codec measurement.
pub struct IndexRow {
    /// Distinct-row density of the synthetic gather.
    pub alpha: f64,
    /// Number of encoded indices.
    pub count: usize,
    /// Raw cost: 8 bytes per index.
    pub raw_bytes: u64,
    /// Delta+varint encoded bytes.
    pub encoded_bytes: u64,
}

impl IndexRow {
    /// Raw-over-encoded byte ratio.
    pub fn shrink(&self) -> f64 {
        self.raw_bytes as f64 / self.encoded_bytes.max(1) as f64
    }
}

/// Runs one LM iteration under `format`, returning the measurement row
/// or an error string.
fn measure_wire(job: &Job, format: WireFormat) -> Result<WireRow, String> {
    let config = ParallaxConfig {
        wire_format: format,
        ..ParallaxConfig::horovod_baseline()
    };
    let runner = job
        .runner(vec![1; MACHINES], config.clone(), PROFILE_SEED)
        .map_err(|e| e.to_string())?;
    let feed_fn = |w: usize, i: usize| job.feed(MACHINES, w, job.feed_seed(i));
    let feeds: Vec<_> = (0..MACHINES).map(|w| feed_fn(w, 0)).collect();
    let (predicted, conservation) = predict_iteration_traffic(
        job.graph(),
        job.loss(),
        runner.plan(),
        runner.topology(),
        &config,
        &feeds,
    )
    .map_err(|e| e.to_string())?;
    if conservation.has_errors() {
        return Err(format!(
            "byte conservation failed under {}:\n{}",
            format.name(),
            conservation.render()
        ));
    }
    let report = runner.run(1, feed_fn).map_err(|e| e.to_string())?;
    let measured = &report.traffic;
    let predicted_exact = predicted.nccl == measured.nccl
        && predicted.mpi == measured.mpi
        && predicted.ps == measured.ps
        && predicted.local_agg == measured.local_agg
        && predicted.other == measured.other;
    Ok(WireRow {
        format: format.name(),
        nccl_bytes: measured.nccl.total_network_bytes(),
        mpi_bytes: measured.mpi.total_network_bytes(),
        predicted_exact,
    })
}

/// Synthetic sorted gather indices at `alpha` density over `rows` rows.
fn measure_index(alpha: f64, rows: usize, rng: &mut DetRng) -> IndexRow {
    let distinct = ((alpha * rows as f64).round() as usize).max(1);
    let mut indices: Vec<usize> = (0..distinct).map(|_| rng.below(rows)).collect();
    indices.sort_unstable();
    indices.dedup();
    let encoded = wire::encode_indices(&indices);
    assert_eq!(
        wire::decode_indices(&encoded, indices.len()).as_ref(),
        Some(&indices),
        "delta+varint index codec must be lossless at alpha {alpha}"
    );
    assert_eq!(
        encoded.len(),
        wire::encoded_index_len(&indices),
        "encoded_index_len must agree with the actual encoding"
    );
    IndexRow {
        alpha,
        count: indices.len(),
        raw_bytes: indices.len() as u64 * 8,
        encoded_bytes: encoded.len() as u64,
    }
}

/// Renders the two sections as a JSON document.
pub fn to_json(wires: &[WireRow], indices: &[IndexRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"gates\": {{\"dense_reduction\": {DENSE_REDUCTION_GATE}, \
         \"index_shrink\": {INDEX_SHRINK_GATE}}},"
    );
    let base = wires
        .iter()
        .find(|w| w.format == "f32")
        .map(|w| (w.nccl_bytes, w.mpi_bytes))
        .unwrap_or((0, 0));
    out.push_str("  \"wire\": [\n");
    for (i, r) in wires.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"format\": \"{}\", \"nccl_bytes\": {}, \"mpi_bytes\": {}, \
             \"dense_reduction\": {:.3}, \"sparse_reduction\": {:.3}, \
             \"predicted_exact\": {}}}{}",
            r.format,
            r.nccl_bytes,
            r.mpi_bytes,
            base.0 as f64 / r.nccl_bytes.max(1) as f64,
            base.1 as f64 / r.mpi_bytes.max(1) as f64,
            r.predicted_exact,
            if i + 1 < wires.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"sparse_index\": [\n");
    for (i, r) in indices.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"alpha\": {}, \"count\": {}, \"raw_bytes\": {}, \
             \"encoded_bytes\": {}, \"shrink\": {:.3}}}{}",
            r.alpha,
            r.count,
            r.raw_bytes,
            r.encoded_bytes,
            r.shrink(),
            if i + 1 < indices.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The executed wire sweep: one row per [`WireFormat`], f32 first.
fn measure_wires() -> Result<Vec<WireRow>, String> {
    let job = Job::new("lm")?;
    [WireFormat::F32, WireFormat::F16, WireFormat::Bf16]
        .into_iter()
        .map(|format| measure_wire(&job, format))
        .collect()
}

/// The byte-exact wire gate for `r` against the f32 row `base`: dense
/// and sparse byte reduction, and whether prediction matched and the
/// 16-bit formats shrank enough.
fn wire_gate(r: &WireRow, base: &WireRow) -> (f64, f64, bool) {
    let dense = base.nccl_bytes as f64 / r.nccl_bytes.max(1) as f64;
    let sparse = base.mpi_bytes as f64 / r.mpi_bytes.max(1) as f64;
    let ok =
        r.predicted_exact && (r.format == "f32" || (dense >= DENSE_REDUCTION_GATE && sparse > 1.0));
    (dense, sparse, ok)
}

/// Runs everything, writes `path`, and returns the printable report
/// plus whether every gate passed.
pub fn run(path: &str) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "== Wire compression gate (LM tiny, {MACHINES} machines x 1 GPU) =="
    );

    let wires = measure_wires()?;
    for r in &wires {
        let (dense, sparse, gate_ok) = wire_gate(r, &wires[0]);
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "wire {:<5} nccl {:>9} B ({dense:.2}x)  mpi {:>9} B ({sparse:.2}x)  \
             predicted==measured: {}  [{}]",
            r.format,
            r.nccl_bytes,
            r.mpi_bytes,
            if r.predicted_exact { "yes" } else { "NO" },
            if gate_ok { "ok" } else { "GATE FAIL" },
        );
    }

    let mut rng = DetRng::seed(0x1d);
    let rows = 50_000usize;
    let indices: Vec<IndexRow> = [0.01, 0.05, 0.1]
        .into_iter()
        .map(|alpha| measure_index(alpha, rows, &mut rng))
        .collect();
    for r in &indices {
        let gate_ok = r.shrink() >= INDEX_SHRINK_GATE;
        ok &= gate_ok;
        let _ = writeln!(
            out,
            "index alpha={:<5} {:>7} indices  raw {:>8} B  encoded {:>7} B  ({:.2}x)  [{}]",
            r.alpha,
            r.count,
            r.raw_bytes,
            r.encoded_bytes,
            r.shrink(),
            if gate_ok { "ok" } else { "GATE FAIL" },
        );
    }

    std::fs::write(path, to_json(&wires, &indices)).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "wrote {path}");
    let _ = writeln!(out, "compress: {}", if ok { "PASS" } else { "FAIL" });
    out.push('\n');
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::json::{self, Value};

    #[test]
    fn index_codec_rows_are_lossless_and_shrink() {
        let mut rng = DetRng::seed(7);
        let r = measure_index(0.1, 50_000, &mut rng);
        assert!(r.shrink() >= INDEX_SHRINK_GATE, "shrink {}", r.shrink());
    }

    #[test]
    fn json_renders_all_sections() {
        let wires = vec![WireRow {
            format: "f32",
            nccl_bytes: 100,
            mpi_bytes: 50,
            predicted_exact: true,
        }];
        let mut rng = DetRng::seed(7);
        let indices = vec![
            measure_index(0.05, 10_000, &mut rng),
            measure_index(0.1, 10_000, &mut rng),
        ];
        let json = to_json(&wires, &indices);
        let doc = json::parse(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        let gates = doc.get("gates").expect("gates");
        assert_eq!(
            gates.get("dense_reduction").and_then(Value::as_f64),
            Some(DENSE_REDUCTION_GATE)
        );
        assert_eq!(
            gates.get("index_shrink").and_then(Value::as_f64),
            Some(INDEX_SHRINK_GATE)
        );
        let wire = doc.get("wire").and_then(Value::as_array).expect("wire");
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].get("format").and_then(Value::as_str), Some("f32"));
        assert_eq!(wire[0].get("nccl_bytes").and_then(Value::as_u64), Some(100));
        assert_eq!(wire[0].get("mpi_bytes").and_then(Value::as_u64), Some(50));
        assert_eq!(
            wire[0].get("dense_reduction").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            wire[0].get("predicted_exact").and_then(Value::as_bool),
            Some(true)
        );
        let rows = doc
            .get("sparse_index")
            .and_then(Value::as_array)
            .expect("sparse_index");
        assert_eq!(rows.len(), indices.len());
        for (row, r) in rows.iter().zip(&indices) {
            assert_eq!(row.get("alpha").and_then(Value::as_f64), Some(r.alpha));
            assert_eq!(
                row.get("count").and_then(Value::as_u64),
                Some(r.count as u64)
            );
            assert_eq!(
                row.get("encoded_bytes").and_then(Value::as_u64),
                Some(r.encoded_bytes)
            );
        }
    }

    /// The byte gates of the full sweep.
    #[test]
    fn full_wire_sweep_passes_byte_gates() {
        let wires = measure_wires().expect("wire sweep runs");
        for r in &wires {
            let (dense, sparse, ok) = wire_gate(r, &wires[0]);
            assert!(ok, "{}: dense {dense:.2}x sparse {sparse:.2}x", r.format);
        }
    }
}
