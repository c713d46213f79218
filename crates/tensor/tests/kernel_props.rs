//! Property tests for the blocked/pooled compute kernels.
//!
//! Two invariants, both *bitwise*:
//!
//! 1. The blocked + vectorized kernels produce exactly the same bits as
//!    the scalar reference kernels (`ops::matmul::naive`), for random
//!    shapes including ones that are not multiples of the register tile.
//! 2. The worker pool changes only wall-clock time: running a kernel at
//!    any thread count yields exactly the serial result, because work is
//!    only ever split over disjoint output rows.
//!
//! Every product runs the one packed kernel; the random shapes include
//! an empty inner dimension (`k == 0`), whose product is the `m x n`
//! zero tensor in every orientation.

use proptest::prelude::*;

use parallax_tensor::ops::{self, matmul::naive};
use parallax_tensor::{pool, DetRng, Tensor};

fn tensor_from(seed: u64, rows: usize, cols: usize) -> Tensor {
    Tensor::randn([rows, cols], 1.0, &mut DetRng::seed(seed))
}

/// Bitwise equality (not tolerance-based): the kernels keep a single
/// accumulator per output element and add in ascending-k order, so the
/// blocked path must reproduce the reference exactly.
fn assert_bits_eq(a: &Tensor, b: &Tensor) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
    Ok(())
}

/// All three product orientations at output `m x n` and inner `k`
/// equal the scalar reference bit for bit at 1, 2 and 3 threads.
fn check_orientations(
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> std::result::Result<(), TestCaseError> {
    let a = tensor_from(seed, m, k);
    let b = tensor_from(seed + 1, k, n);
    let at = tensor_from(seed + 2, k, m);
    let bt = tensor_from(seed + 3, n, k);
    let ab = naive::matmul(&a, &b).unwrap();
    let atb = naive::matmul_at_b(&at, &b).unwrap();
    let abt = naive::matmul_a_bt(&a, &bt).unwrap();
    for threads in [1usize, 2, 3] {
        pool::configure_threads(threads);
        assert_bits_eq(&ops::matmul(&a, &b).unwrap(), &ab)?;
        assert_bits_eq(&ops::matmul_at_b(&at, &b).unwrap(), &atb)?;
        assert_bits_eq(&ops::matmul_a_bt(&a, &bt).unwrap(), &abt)?;
    }
    pool::configure_threads(1);
    Ok(())
}

/// The packed kernels on the shapes the benchmark workloads run:
/// dense-ar's layers at batch 32 (forward and input gradients at
/// `32 x k x n`, weight gradients at `in x 32 x out`), lm-serve's
/// logits of 8 hidden states against a 20,000 x 32 output embedding,
/// and lm-ps's nine per-timestep products at batch 8 (forward, input
/// gradient and weight gradient of the logits against 512 candidates,
/// the LSTM cell and the projection).
#[test]
fn packed_kernels_match_naive_on_workload_shapes() {
    for (seed, (m, k, n)) in [
        (32, 256, 256),
        (32, 256, 64),
        (32, 64, 256),
        (32, 32, 256),
        (256, 32, 256),
        (256, 32, 64),
        (64, 32, 256),
        (8, 32, 20_000),
        (8, 32, 512),
        (8, 512, 32),
        (512, 8, 32),
        (8, 48, 64),
        (8, 64, 48),
        (48, 8, 64),
        (8, 16, 32),
        (8, 32, 16),
        (16, 8, 32),
    ]
    .into_iter()
    .enumerate()
    {
        check_orientations(m, k, n, 10 * seed as u64).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Blocked kernels == scalar reference kernels, bit for bit, on
    /// shapes straddling the MR x NR register tile.
    #[test]
    fn blocked_kernels_match_naive_bitwise(
        m in 1usize..40,
        k in 0usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        pool::configure_threads(1);
        let a = tensor_from(seed, m, k);
        let b = tensor_from(seed + 1, k, n);
        assert_bits_eq(
            &ops::matmul(&a, &b).unwrap(),
            &naive::matmul(&a, &b).unwrap(),
        )?;

        let at = tensor_from(seed + 2, k, m);
        assert_bits_eq(
            &ops::matmul_at_b(&at, &b).unwrap(),
            &naive::matmul_at_b(&at, &b).unwrap(),
        )?;

        let bt = tensor_from(seed + 3, n, k);
        assert_bits_eq(
            &ops::matmul_a_bt(&a, &bt).unwrap(),
            &naive::matmul_a_bt(&a, &bt).unwrap(),
        )?;

        assert_bits_eq(
            &ops::transpose(&a).unwrap(),
            &naive::transpose(&a).unwrap(),
        )?;
    }

    /// Pooled execution is a pure wall-clock optimization: every thread
    /// count produces the serial result exactly.
    #[test]
    fn pooled_kernels_are_thread_count_invariant(
        m in 1usize..64,
        k in 0usize..16,
        n in 1usize..32,
        seed in 0u64..1000,
    ) {
        let a = tensor_from(seed, m, k);
        let b = tensor_from(seed + 1, k, n);
        let at = tensor_from(seed + 2, k, m);
        let bt = tensor_from(seed + 3, n, k);

        pool::configure_threads(1);
        let serial_ab = ops::matmul(&a, &b).unwrap();
        let serial_atb = ops::matmul_at_b(&at, &b).unwrap();
        let serial_abt = ops::matmul_a_bt(&a, &bt).unwrap();

        for threads in [2usize, 3, 7] {
            pool::configure_threads(threads);
            assert_bits_eq(&ops::matmul(&a, &b).unwrap(), &serial_ab)?;
            assert_bits_eq(&ops::matmul_at_b(&at, &b).unwrap(), &serial_atb)?;
            assert_bits_eq(&ops::matmul_a_bt(&a, &bt).unwrap(), &serial_abt)?;
        }
        pool::configure_threads(1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Products large enough for the pool to split their rows: the
    /// packed kernels in all three orientations equal the scalar
    /// reference bit for bit, at every thread count. `n` is derived so
    /// `m * k * n` always exceeds the 128 Ki multiply-adds a product may
    /// have and still run on the calling thread; `m` reaches past three
    /// pool chunks of 8 rows.
    #[test]
    fn packed_kernels_match_naive_at_any_thread_count(
        m in 1usize..72,
        k in 1usize..72,
        extra in 1usize..40,
        seed in 0u64..1000,
    ) {
        let n = 128 * 1024 / (m * k) + extra;
        prop_assert!(m * k * n > 128 * 1024);
        check_orientations(m, k, n, seed)?;
    }
}
