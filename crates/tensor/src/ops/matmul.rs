//! Matrix multiplication, transpose and row-gather kernels.
//!
//! The multiply kernels are cache-blocked: outputs are computed in
//! `MR x NR` register tiles, with the B panel for a column block kept
//! hot in L1 while every row tile streams past it. Within one output
//! element the reduction over `p` runs ascending into a single
//! accumulator — exactly the order the scalar reference kernels use —
//! so blocked results match [`naive`] element-for-element, and the
//! worker pool (which only splits disjoint output row ranges, see
//! [`crate::pool`]) leaves results bit-for-bit identical to serial
//! execution at any thread count.
//!
//! `matmul`, `matmul_at_b` and `matmul_a_bt` run every product, however
//! small, through that one packed kernel; the only size rule left is
//! the pool's: a product of at most `SMALL_PRODUCTS` (128 Ki)
//! multiply-adds stays on the calling thread.

use crate::pool;
use crate::sparse::IndexedSlices;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Register-tile height (output rows per microkernel step).
const MR: usize = 4;
/// Register-tile width (output columns per microkernel step).
const NR: usize = 16;
/// Row count below which a matmul is not worth splitting across the pool.
const MIN_ROWS_PER_CHUNK: usize = 8;
/// Product count (`m * k * n`) at or below which a multiply runs on the
/// calling thread at any pool size instead of being split over the
/// pool. It decides only where the packed kernel runs, never how, so
/// results are the same bits on either side.
const SMALL_PRODUCTS: usize = 128 * 1024;

fn matrix(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    t.shape()
        .as_matrix()
        .map_err(|_| TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.shape().rank(),
        })
}

/// Dispatches [`blocked_rows_inner`] to an AVX2-compiled copy when the
/// CPU supports it. The wide copy runs the identical per-lane operation
/// sequence (no FMA contraction), so results match the portable path
/// bit-for-bit. `A_T` and `B_T` select where the operands are read from
/// (see [`blocked_rows_inner`]); each combination compiles separately.
fn blocked_rows<const A_T: bool, const B_T: bool>(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    row0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the avx2 feature was just detected at runtime.
        return unsafe { blocked_rows_avx2::<A_T, B_T>(ad, bd, chunk, row0, k, m, n) };
    }
    blocked_rows_inner::<A_T, B_T>(ad, bd, chunk, row0, k, m, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocked_rows_avx2<const A_T: bool, const B_T: bool>(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    row0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    blocked_rows_inner::<A_T, B_T>(ad, bd, chunk, row0, k, m, n);
}

/// Packs the `NR`-wide B column panel starting at `j0` into `bpack`
/// (`bpack[p * NR + c] = B[p][j0 + c]`), zero-padding columns past `jw`.
/// Padded lanes feed accumulator columns that are never stored, so they
/// cannot affect results.
#[inline(always)]
fn pack_b_panel(bd: &[f32], bpack: &mut [f32], j0: usize, jw: usize, k: usize, n: usize) {
    for p in 0..k {
        let dst = &mut bpack[p * NR..p * NR + NR];
        dst[..jw].copy_from_slice(&bd[p * n + j0..p * n + j0 + jw]);
        for z in dst[jw..].iter_mut() {
            *z = 0.0;
        }
    }
}

/// Packs the same panel as [`pack_b_panel`] from a B stored transposed
/// (`n x k`): `bpack[p * NR + c] = B[j0 + c][p]`, so each of the `jw`
/// contiguous rows of B fills one lane. Rows are read eight at a time,
/// so each `p` stores eight adjacent lanes at once; lanes past `jw` are
/// zeroed.
#[inline(always)]
fn pack_bt_panel(bd: &[f32], bpack: &mut [f32], j0: usize, jw: usize, k: usize) {
    const G: usize = 8;
    let panel = &bd[j0 * k..(j0 + jw) * k];
    let mut c = 0;
    while c + G <= jw {
        let rows: [&[f32]; G] = std::array::from_fn(|r| &panel[(c + r) * k..(c + r + 1) * k]);
        for (p, dst) in bpack.chunks_exact_mut(NR).enumerate() {
            dst[c..c + G].copy_from_slice(&std::array::from_fn::<f32, G, _>(|r| rows[r][p]));
        }
        c += G;
    }
    for (c, brow) in panel.chunks_exact(k).enumerate().skip(c) {
        for (p, &bv) in brow.iter().enumerate() {
            bpack[p * NR + c] = bv;
        }
    }
    if jw < NR {
        for dst in bpack.chunks_exact_mut(NR) {
            dst[jw..].fill(0.0);
        }
    }
}

/// The register microkernel: a full `MR x NR` output tile over packed
/// operands (`apack[p * MR + r]`, `bpack[p * NR + c]`), accumulating `p`
/// ascending into one accumulator per element — the same per-element
/// operation order as the scalar reference kernels.
#[inline(always)]
fn microkernel(apack: &[f32], bpack: &[f32], k: usize) -> [[f32; NR]; MR] {
    #[inline(always)]
    fn step(acc: &mut [[f32; NR]; MR], apack: &[f32], bpack: &[f32], p: usize) {
        let at: &[f32; MR] = apack[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = bpack[p * NR..p * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let av = at[r];
            for c in 0..NR {
                acc[r][c] += av * bv[c];
            }
        }
    }
    let mut acc = [[0.0f32; NR]; MR];
    // Unrolled by two: halves loop overhead and lets the second step's
    // loads issue while the first step's adds retire.
    let mut p = 0;
    while p + 2 <= k {
        step(&mut acc, apack, bpack, p);
        step(&mut acc, apack, bpack, p + 1);
        p += 2;
    }
    if p < k {
        step(&mut acc, apack, bpack, p);
    }
    acc
}

/// Stores the live `iw x jw` corner of an accumulator tile into `chunk`.
#[inline(always)]
fn store_tile(
    chunk: &mut [f32],
    acc: &[[f32; NR]; MR],
    i: usize,
    j0: usize,
    iw: usize,
    jw: usize,
    n: usize,
) {
    for r in 0..iw {
        chunk[(i + r) * n + j0..(i + r) * n + j0 + jw].copy_from_slice(&acc[r][..jw]);
    }
}

/// Computes rows `[row0, row0 + chunk_rows)` of the `m x n` product
/// into `chunk`. A is stored `m x k`, or `k x m` when `A_T`; B is stored
/// `k x n`, or `n x k` when `B_T`. Only the packing differs: the packed
/// tiles, the microkernel and the per-element reduction order are
/// shared, so every layout matches its scalar reference bit for bit, and
/// neither operand's transpose is ever materialized. Each `NR`-wide
/// column panel of B is packed contiguously once and stays L1-resident
/// while every `MR`-row tile of A streams past it; A tiles are packed
/// transposed so the microkernel reads both operands sequentially.
#[inline(always)]
fn blocked_rows_inner<const A_T: bool, const B_T: bool>(
    ad: &[f32],
    bd: &[f32],
    chunk: &mut [f32],
    row0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let nrows = chunk.len() / n;
    let tiles = nrows.div_ceil(MR);
    // Pack every A tile once, transposed and zero-padded: tile t holds
    // apack[t*k*MR + p*MR + r] = A[row0 + t*MR + r][p]. Padded rows feed
    // accumulators that are never stored.
    let mut apack = vec![0.0f32; tiles * k * MR];
    for (t, blk) in apack.chunks_exact_mut(k * MR).enumerate() {
        let i = row0 + t * MR;
        let iw = MR.min(nrows - t * MR);
        if A_T {
            // A is stored `[p][i]`: every packed row is a contiguous read.
            for p in 0..k {
                blk[p * MR..p * MR + iw].copy_from_slice(&ad[p * m + i..p * m + i + iw]);
            }
        } else {
            for r in 0..iw {
                for (p, &av) in ad[(i + r) * k..(i + r + 1) * k].iter().enumerate() {
                    blk[p * MR + r] = av;
                }
            }
        }
    }
    let mut bpack = vec![0.0f32; k * NR];
    let mut j0 = 0;
    while j0 < n {
        let jw = NR.min(n - j0);
        if B_T {
            pack_bt_panel(bd, &mut bpack, j0, jw, k);
        } else {
            pack_b_panel(bd, &mut bpack, j0, jw, k, n);
        }
        for (t, blk) in apack.chunks_exact(k * MR).enumerate() {
            let i = t * MR;
            let iw = MR.min(nrows - i);
            let acc = microkernel(blk, &bpack, k);
            store_tile(chunk, &acc, i, j0, iw, jw, n);
        }
        j0 += jw;
    }
}

/// Cache-blocked transpose of an `m x n` row-major buffer into `out`
/// (which becomes `n x m`). Square blocks keep both the read and write
/// streams within a few cache lines at a time.
fn transpose_into(ad: &[f32], out: &mut [f32], m: usize, n: usize) {
    const TB: usize = 32;
    let mut ii = 0;
    while ii < m {
        let ih = (ii + TB).min(m);
        let mut jj = 0;
        while jj < n {
            let jh = (jj + TB).min(n);
            for i in ii..ih {
                let arow = &ad[i * n..i * n + n];
                for j in jj..jh {
                    out[j * m + i] = arow[j];
                }
            }
            jj = jh;
        }
        ii = ih;
    }
}

/// The `m x n` product every public multiply runs: the packed kernel
/// over operands stored as [`blocked_rows_inner`] describes. A product
/// of at most [`SMALL_PRODUCTS`] multiply-adds runs on the calling
/// thread; a larger one is split over the pool by output rows. An empty
/// inner dimension (`k == 0`) gives the `m x n` zero tensor, as the
/// reference kernels do.
fn product<const A_T: bool, const B_T: bool>(
    ad: &[f32],
    bd: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Tensor> {
    let mut out = vec![0.0f32; m * n];
    if m > 0 && k > 0 && n > 0 {
        if m * k * n <= SMALL_PRODUCTS {
            blocked_rows::<A_T, B_T>(ad, bd, &mut out, 0, k, m, n);
        } else {
            pool::parallel_rows(&mut out, m, MIN_ROWS_PER_CHUNK, |row0, chunk| {
                blocked_rows::<A_T, B_T>(ad, bd, chunk, row0, k, m, n);
            });
        }
    }
    Tensor::new([m, n], out)
}

/// `A (m x k) * B (k x n) -> (m x n)`, cache-blocked and parallelized
/// over disjoint output row ranges.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = matrix(a, "matmul lhs")?;
    let (k2, n) = matrix(b, "matmul rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    product::<false, false>(a.data(), b.data(), m, k, n)
}

/// `A^T (k x m)^T * B (k x n) -> (m x n)`; used for weight gradients
/// (`dW = X^T * dY`) without materializing the transpose.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = matrix(a, "matmul_at_b lhs")?;
    let (k2, n) = matrix(b, "matmul_at_b rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    product::<true, false>(a.data(), b.data(), m, k, n)
}

/// `A (m x k) * B^T (n x k)^T -> (m x n)`; used for input gradients
/// (`dX = dY * W^T`) and for logits against an embedding table. Each
/// B panel is packed straight from `NR` contiguous rows of B, so no
/// transpose is materialized and each row of B is read once per chunk.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = matrix(a, "matmul_a_bt lhs")?;
    let (n, k2) = matrix(b, "matmul_a_bt rhs")?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    product::<false, true>(a.data(), b.data(), m, k, n)
}

/// Cache-blocked matrix transpose.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = matrix(a, "transpose")?;
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.data(), &mut out, m, n);
    Tensor::new([n, m], out)
}

/// Gathers rows `ids` of `table` into an `[ids.len(), cols]` tensor — the
/// embedding lookup whose gradient is sparse.
pub fn gather_rows(table: &Tensor, ids: &[usize]) -> Result<Tensor> {
    let (rows, cols) = matrix(table, "gather_rows")?;
    let mut data = Vec::with_capacity(ids.len() * cols);
    for &id in ids {
        if id >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: id,
                bound: rows,
            });
        }
        data.extend_from_slice(&table.data()[id * cols..(id + 1) * cols]);
    }
    Tensor::new([ids.len(), cols], data)
}

/// The backward of [`gather_rows`]: upstream gradient rows become an
/// [`IndexedSlices`] against the table.
pub fn gather_rows_grad(
    upstream: &Tensor,
    ids: &[usize],
    table_rows: usize,
) -> Result<IndexedSlices> {
    IndexedSlices::new(ids.to_vec(), upstream.clone(), table_rows)
}

/// Scalar reference kernels: the original straight-line loops, kept as
/// the oracle for property tests and for before/after throughput
/// measurements (`repro kernels`). Not compiled into release builds
/// unless the `reference-kernels` feature is on.
#[cfg(any(test, feature = "reference-kernels"))]
pub mod naive {
    use super::matrix;
    use crate::tensor::Tensor;
    use crate::{Result, TensorError};

    /// Reference `A (m x k) * B (k x n)`: plain ikj loop with a hoisted
    /// scalar and a zero-skip.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = matrix(a, "matmul lhs")?;
        let (k2, n) = matrix(b, "matmul rhs")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: a.shape().dims().to_vec(),
                rhs: b.shape().dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        let ad = a.data();
        let bd = b.data();
        for i in 0..m {
            for p in 0..k {
                let aip = ad[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let brow = &bd[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
        Tensor::new([m, n], out)
    }

    /// Reference `A^T * B`: p-outer axpy loops.
    pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (k, m) = matrix(a, "matmul_at_b lhs")?;
        let (k2, n) = matrix(b, "matmul_at_b rhs")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_at_b",
                lhs: a.shape().dims().to_vec(),
                rhs: b.shape().dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        let ad = a.data();
        let bd = b.data();
        for p in 0..k {
            let arow = &ad[p * m..(p + 1) * m];
            let brow = &bd[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        Tensor::new([m, n], out)
    }

    /// Reference `A * B^T`: scalar dot products.
    pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k) = matrix(a, "matmul_a_bt lhs")?;
        let (n, k2) = matrix(b, "matmul_a_bt rhs")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_a_bt",
                lhs: a.shape().dims().to_vec(),
                rhs: b.shape().dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        let ad = a.data();
        let bd = b.data();
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::new([m, n], out)
    }

    /// Reference transpose: element-at-a-time.
    pub fn transpose(a: &Tensor) -> Result<Tensor> {
        let (m, n) = matrix(a, "transpose")?;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a.data()[i * n + j];
            }
        }
        Tensor::new([n, m], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn t(dims: &[usize], data: &[f32]) -> Tensor {
        Tensor::new(dims, data.to_vec()).unwrap()
    }

    fn random(rng: &mut DetRng, rows: usize, cols: usize) -> Tensor {
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.normal() * 0.5).collect();
        Tensor::new([rows, cols], data).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = t(&[2, 3], &[0.; 6]);
        let b = t(&[2, 2], &[0.; 4]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn at_b_equals_transpose_then_matmul() {
        let a = t(&[3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 4], &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let direct = matmul_at_b(&a, &b).unwrap();
        let via = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn a_bt_equals_matmul_with_transpose() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[4, 3], &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let direct = matmul_a_bt(&a, &b).unwrap();
        let via = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    #[test]
    fn blocked_kernels_match_naive_on_awkward_shapes() {
        // Shapes straddling the MR/NR tile boundaries, including exact
        // multiples and off-by-one remainders, and an empty inner
        // dimension, whose product is the zero matrix.
        let mut rng = DetRng::seed(11);
        for &(m, k, n) in &[
            (3, 0, 5),
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 1, 29),
            (16, 32, 8),
            (33, 17, 9),
        ] {
            let a = random(&mut rng, m, k);
            let b = random(&mut rng, k, n);
            assert_eq!(matmul(&a, &b).unwrap(), naive::matmul(&a, &b).unwrap());

            let at = random(&mut rng, k, m);
            assert_eq!(
                matmul_at_b(&at, &b).unwrap(),
                naive::matmul_at_b(&at, &b).unwrap()
            );

            let bt = random(&mut rng, n, k);
            assert_eq!(
                matmul_a_bt(&a, &bt).unwrap(),
                naive::matmul_a_bt(&a, &bt).unwrap()
            );

            assert_eq!(transpose(&a).unwrap(), naive::transpose(&a).unwrap());
        }
    }

    #[test]
    fn gather_picks_rows_with_repeats() {
        let table = t(&[3, 2], &[0., 1., 10., 11., 20., 21.]);
        let g = gather_rows(&table, &[2, 0, 2]).unwrap();
        assert_eq!(g.data(), &[20., 21., 0., 1., 20., 21.]);
        assert!(gather_rows(&table, &[3]).is_err());
    }

    #[test]
    fn gather_grad_is_sparse_scatter() {
        let up = t(&[2, 2], &[1., 1., 2., 2.]);
        let g = gather_rows_grad(&up, &[1, 1], 4).unwrap();
        let dense = g.to_dense();
        assert_eq!(dense.data(), &[0., 0., 3., 3., 0., 0., 0., 0.]);
    }
}
