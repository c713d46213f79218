//! Kernel-layer microbenchmark: blocked/pooled kernels against the
//! scalar reference kernels, measured in one process and emitted as
//! `BENCH_kernels.json`.
//!
//! The host this runs on is shared and noisy, so each comparison is
//! *interleaved*: one repetition times the optimized kernel, then the
//! baseline, and the best (minimum) time of each over all repetitions
//! is reported. Noise spikes hit both kernels alike instead of biasing
//! whichever happened to run during a quiet window.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use parallax_tensor::ops::{self, matmul::naive};
use parallax_tensor::{pool, DetRng, IndexedSlices, Tensor};

/// Interleaved best-of-`reps` timing of two closures.
fn best_of_interleaved(
    reps: usize,
    mut optimized: impl FnMut(),
    mut baseline: impl FnMut(),
) -> (f64, f64) {
    let mut best_opt = f64::INFINITY;
    let mut best_base = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        optimized();
        best_opt = best_opt.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        baseline();
        best_base = best_base.min(t.elapsed().as_secs_f64());
    }
    (best_opt, best_base)
}

/// Which of the three matrix products a row times. Every orientation
/// computes an `m x n` output over an inner dimension `k`; only the
/// stored layout of the operands differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `A (m x k) * B (k x n)`: forward layers.
    AB,
    /// `A^T * B` with A stored `k x m`: weight gradients.
    AtB,
    /// `A * B^T` with B stored `n x k`: input gradients and logits.
    ABt,
}

impl Orientation {
    /// Label in the JSON record.
    pub fn label(self) -> &'static str {
        match self {
            Orientation::AB => "a_b",
            Orientation::AtB => "at_b",
            Orientation::ABt => "a_bt",
        }
    }

    /// Random operands in this orientation's stored layout.
    fn operands(self, m: usize, k: usize, n: usize, rng: &mut DetRng) -> (Tensor, Tensor) {
        let (a, b) = match self {
            Orientation::AB => ([m, k], [k, n]),
            Orientation::AtB => ([k, m], [k, n]),
            Orientation::ABt => ([m, k], [n, k]),
        };
        (Tensor::randn(a, 1.0, rng), Tensor::randn(b, 1.0, rng))
    }

    fn blocked(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Orientation::AB => ops::matmul(a, b),
            Orientation::AtB => ops::matmul_at_b(a, b),
            Orientation::ABt => ops::matmul_a_bt(a, b),
        }
        .expect("blocked kernel")
    }

    fn naive(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Orientation::AB => naive::matmul(a, b),
            Orientation::AtB => naive::matmul_at_b(a, b),
            Orientation::ABt => naive::matmul_a_bt(a, b),
        }
        .expect("naive kernel")
    }
}

/// One matmul comparison row.
pub struct MatmulRow {
    /// Workload label (which model preset the shape is drawn from).
    pub name: &'static str,
    /// Which product is timed.
    pub op: Orientation,
    /// Output rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Best scalar-reference time, seconds.
    pub naive_secs: f64,
    /// Best blocked-kernel time, seconds.
    pub blocked_secs: f64,
}

impl MatmulRow {
    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Blocked-over-naive throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.blocked_secs
    }

    /// This row's blocked time over the blocked `A * B` time at the same
    /// shape (1.0 for `A * B` itself).
    pub fn vs_a_b(&self, rows: &[MatmulRow]) -> f64 {
        rows.iter()
            .find(|r| r.op == Orientation::AB && (r.m, r.k, r.n) == (self.m, self.k, self.n))
            .map_or(f64::NAN, |r| self.blocked_secs / r.blocked_secs)
    }
}

/// One coalesce comparison row.
pub struct CoalesceRow {
    /// Target density (distinct rows / dense rows).
    pub alpha: f64,
    /// Dense row count of the variable.
    pub rows: usize,
    /// Row width.
    pub cols: usize,
    /// Non-coalesced slice count going in.
    pub nnz: usize,
    /// Best hash-map baseline time, seconds.
    pub naive_secs: f64,
    /// Best sort-based time, seconds.
    pub sorted_secs: f64,
}

impl CoalesceRow {
    /// Sorted-over-hash throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.sorted_secs
    }
}

/// The original hash-map coalesce, kept here as the measured baseline
/// (the library's `IndexedSlices::coalesce` is now sort-based).
fn hashmap_coalesce(slices: &IndexedSlices) -> IndexedSlices {
    let cols = slices.cols();
    let mut map: HashMap<usize, Vec<f32>> = HashMap::new();
    for (slot, &idx) in slices.indices().iter().enumerate() {
        let row = &slices.values().data()[slot * cols..(slot + 1) * cols];
        match map.get_mut(&idx) {
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(row) {
                    *a += b;
                }
            }
            None => {
                map.insert(idx, row.to_vec());
            }
        }
    }
    let mut keys: Vec<usize> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut data = Vec::with_capacity(keys.len() * cols);
    for k in &keys {
        data.extend_from_slice(&map[k]);
    }
    let values = Tensor::new([keys.len(), cols], data).expect("coalesce shape is consistent");
    IndexedSlices::new(keys, values, slices.dense_rows()).expect("valid coalesced slices")
}

const A_B: &[Orientation] = &[Orientation::AB];
const WITH_A_BT: &[Orientation] = &[Orientation::AB, Orientation::ABt];
const WITH_AT_B: &[Orientation] = &[Orientation::AB, Orientation::AtB];

/// Matmul shapes `(name, m, k, n, orientations)`: an `m x n` output over
/// inner dimension `k`. The first four are general sizes timed as
/// `A * B`: a 256-cube, a ResNet block GEMM, an LM projection and an LM
/// logits GEMM. The rest are the products the benchmark workloads run.
/// dense-ar's three layer shapes at batch 32 run forward as `A * B`;
/// their input gradients `dY * W^T` are `A * B^T` over the same three
/// triples (`32 x out x in`), and their weight gradients `X^T * dY` are
/// `A^T * B` at `in x 32 x out`. lm-serve scores 8 hidden states against
/// the 20,000 x 32 output embedding (`A * B^T`). lm-ps runs nine small
/// products per timestep at batch 8, each timed in the orientation the
/// step runs it: the logits score 8 projected states against 512
/// candidate rows (`A * B^T` at 8x32x512; dX `A * B` at 8x512x32; dW
/// `A^T * B` at 512x8x32), and the LSTM cell (8x48x64) and projection
/// (8x16x32) run forward as `A * B`, dX as `A * B^T` and dW as
/// `A^T * B`. Every row that is not `A * B` shares its shape with an
/// `A * B` row, for scale.
const MATMUL_SHAPES: [(&str, usize, usize, usize, &[Orientation]); 20] = [
    ("square_256", 256, 256, 256, A_B),
    ("resnet_block_64x256x256", 64, 256, 256, A_B),
    ("lm_projection_160x512x512", 160, 512, 512, A_B),
    ("lm_logits_128x256x1024", 128, 256, 1024, A_B),
    ("dense_ar_32x256x256", 32, 256, 256, WITH_A_BT),
    ("dense_ar_32x256x64", 32, 256, 64, WITH_A_BT),
    ("dense_ar_32x64x256", 32, 64, 256, WITH_A_BT),
    ("dense_ar_dw_256x32x256", 256, 32, 256, WITH_AT_B),
    ("dense_ar_dw_256x32x64", 256, 32, 64, WITH_AT_B),
    ("dense_ar_dw_64x32x256", 64, 32, 256, WITH_AT_B),
    ("lm_serve_logits_8x32x20000", 8, 32, 20_000, WITH_A_BT),
    ("lm_ps_logits_8x32x512", 8, 32, 512, WITH_A_BT),
    ("lm_ps_logits_dx_8x512x32", 8, 512, 32, A_B),
    ("lm_ps_logits_dw_512x8x32", 512, 8, 32, WITH_AT_B),
    ("lm_ps_lstm_8x48x64", 8, 48, 64, A_B),
    ("lm_ps_lstm_dx_8x64x48", 8, 64, 48, WITH_A_BT),
    ("lm_ps_lstm_dw_48x8x64", 48, 8, 64, WITH_AT_B),
    ("lm_ps_proj_8x16x32", 8, 16, 32, A_B),
    ("lm_ps_proj_dx_8x32x16", 8, 32, 16, WITH_A_BT),
    ("lm_ps_proj_dw_16x8x32", 16, 8, 32, WITH_AT_B),
];

const COALESCE_ALPHAS: [f64; 3] = [0.01, 0.1, 0.5];

/// Runs all comparisons. Separated from I/O for testing.
pub fn measure(reps: usize) -> (Vec<MatmulRow>, Vec<CoalesceRow>) {
    let mut rng = DetRng::seed(0xbe5c);
    let mut matmuls = Vec::new();
    for (name, m, k, n, orientations) in MATMUL_SHAPES {
        for &op in orientations {
            let (a, b) = op.operands(m, k, n, &mut rng);
            // Correctness cross-check, bit for bit, before timing anything.
            let (blocked, reference) = (op.blocked(&a, &b), op.naive(&a, &b));
            assert!(
                blocked.shape() == reference.shape()
                    && blocked
                        .data()
                        .iter()
                        .zip(reference.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                "blocked {} diverged from reference at {name}",
                op.label()
            );
            let (blocked_secs, naive_secs) = best_of_interleaved(
                reps,
                || {
                    std::hint::black_box(op.blocked(&a, &b));
                },
                || {
                    std::hint::black_box(op.naive(&a, &b));
                },
            );
            matmuls.push(MatmulRow {
                name,
                op,
                m,
                k,
                n,
                naive_secs,
                blocked_secs,
            });
        }
    }

    let mut coalesces = Vec::new();
    let rows = 50_000usize;
    let cols = 64usize;
    for alpha in COALESCE_ALPHAS {
        // Draw ~1.5 slices per target distinct row so duplicates exist.
        let nnz = ((alpha * rows as f64) * 1.5).round() as usize;
        let indices: Vec<usize> = (0..nnz)
            .map(|_| rng.below((alpha * rows as f64) as usize))
            .collect();
        let values = Tensor::randn([nnz, cols], 1.0, &mut rng);
        let slices = IndexedSlices::new(indices, values, rows).expect("bench slices");
        assert_eq!(
            slices.coalesce(),
            hashmap_coalesce(&slices),
            "sort-based coalesce diverged from the hash baseline at alpha {alpha}"
        );
        let (sorted_secs, naive_secs) = best_of_interleaved(
            reps,
            || {
                std::hint::black_box(slices.coalesce());
            },
            || {
                std::hint::black_box(hashmap_coalesce(&slices));
            },
        );
        coalesces.push(CoalesceRow {
            alpha,
            rows,
            cols,
            nnz,
            naive_secs,
            sorted_secs,
        });
    }
    (matmuls, coalesces)
}

/// Renders the measurements as a JSON document.
pub fn to_json(matmuls: &[MatmulRow], coalesces: &[CoalesceRow], reps: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"threads\": {},", pool::effective_threads());
    out.push_str("  \"matmul\": [\n");
    for (i, r) in matmuls.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_secs\": {:.9}, \"blocked_secs\": {:.9}, \
             \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \
             \"speedup\": {:.3}, \"vs_a_b\": {:.3}}}{}",
            r.name,
            r.op.label(),
            r.m,
            r.k,
            r.n,
            r.naive_secs,
            r.blocked_secs,
            r.flops() / r.naive_secs / 1e9,
            r.flops() / r.blocked_secs / 1e9,
            r.speedup(),
            r.vs_a_b(matmuls),
            if i + 1 < matmuls.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"coalesce\": [\n");
    for (i, r) in coalesces.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"alpha\": {}, \"rows\": {}, \"cols\": {}, \"nnz\": {}, \
             \"naive_secs\": {:.9}, \"sorted_secs\": {:.9}, \"speedup\": {:.3}}}{}",
            r.alpha,
            r.rows,
            r.cols,
            r.nnz,
            r.naive_secs,
            r.sorted_secs,
            r.speedup(),
            if i + 1 < coalesces.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measures, writes `path`, and prints a human-readable summary.
pub fn run(path: &str) -> std::io::Result<()> {
    let reps = 31;
    let (matmuls, coalesces) = measure(reps);
    println!("== Kernel microbenchmarks (best of {reps}, interleaved) ==");
    for r in &matmuls {
        println!(
            "{:<4} {:<28} {:>7.2} GF/s naive  {:>7.2} GF/s blocked  ({:.2}x; {:.2}x a_b time)",
            r.op.label(),
            r.name,
            r.flops() / r.naive_secs / 1e9,
            r.flops() / r.blocked_secs / 1e9,
            r.speedup(),
            r.vs_a_b(&matmuls),
        );
    }
    for r in &coalesces {
        println!(
            "coalesce alpha={:<5} {:>9.1} us hash  {:>9.1} us sorted  ({:.2}x)",
            r.alpha,
            r.naive_secs * 1e6,
            r.sorted_secs * 1e6,
            r.speedup(),
        );
    }
    std::fs::write(path, to_json(&matmuls, &coalesces, reps))?;
    println!("wrote {path}");
    println!();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::json::{self, Value};

    #[test]
    fn measure_and_render_small() {
        let (m, c) = measure(1);
        let rows: usize = MATMUL_SHAPES.iter().map(|s| s.4.len()).sum();
        assert_eq!(m.len(), rows);
        assert!(m.iter().all(|r| r.vs_a_b(&m).is_finite()));
        assert_eq!(c.len(), COALESCE_ALPHAS.len());
        let json = to_json(&m, &c, 1);
        let doc = json::parse(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert_eq!(doc.get("reps").and_then(Value::as_u64), Some(1));
        let matmul = doc.get("matmul").and_then(Value::as_array).expect("matmul");
        assert_eq!(matmul.len(), rows);
        for (row, r) in matmul.iter().zip(&m) {
            assert_eq!(row.get("name").and_then(Value::as_str), Some(r.name));
            assert_eq!(row.get("op").and_then(Value::as_str), Some(r.op.label()));
            let dims = ["m", "k", "n"].map(|d| row.get(d).and_then(Value::as_u64));
            assert_eq!(dims, [r.m, r.k, r.n].map(|d| Some(d as u64)));
            let vs_a_b = row.get("vs_a_b").and_then(Value::as_f64);
            assert!(vs_a_b.is_some_and(f64::is_finite));
        }
        assert_eq!(m[0].name, "square_256");
        assert!(m
            .iter()
            .any(|r| r.op.label() == "a_bt" && (r.m, r.k, r.n) == (8, 32, 20_000)));
        // lm-ps's nine products, each in the orientation its step runs.
        for (op, shape) in [
            ("a_bt", (8, 32, 512)),
            ("a_b", (8, 512, 32)),
            ("at_b", (512, 8, 32)),
            ("a_b", (8, 48, 64)),
            ("a_bt", (8, 64, 48)),
            ("at_b", (48, 8, 64)),
            ("a_b", (8, 16, 32)),
            ("a_bt", (8, 32, 16)),
            ("at_b", (16, 8, 32)),
        ] {
            assert!(
                m.iter()
                    .any(|r| r.op.label() == op && (r.m, r.k, r.n) == shape),
                "no {op} row at {shape:?}"
            );
        }
        let coalesce = doc
            .get("coalesce")
            .and_then(Value::as_array)
            .expect("coalesce");
        assert_eq!(coalesce.len(), COALESCE_ALPHAS.len());
    }
}
