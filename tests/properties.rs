//! Property-based tests over the invariants DESIGN.md calls out,
//! spanning all crates through the umbrella.

use proptest::collection::vec;
use proptest::prelude::*;

use parallax_repro::comm::collectives::{allgatherv, ring_allreduce};
use parallax_repro::comm::{Router, Topology};
use parallax_repro::core::partition::{fit, search, CostModelFit};
use parallax_repro::core::runner::shard_range;
use parallax_repro::core::transfer;
use parallax_repro::ps::client::split_to_partitions;
use parallax_repro::ps::RowPartition;
use parallax_repro::tensor::{IndexedSlices, Tensor};

/// Runs a collective on every rank of a topology, collecting results.
fn run_collective<T: Send>(
    machines: usize,
    gpus: usize,
    f: impl Fn(&mut parallax_repro::comm::Endpoint, &[usize]) -> T + Sync,
) -> Vec<T> {
    let topo = Topology::uniform(machines, gpus).expect("valid topology");
    let n = topo.num_workers();
    let ranks: Vec<usize> = (0..n).collect();
    let (eps, _traffic) = Router::build(topo);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for mut ep in eps {
            let ranks = &ranks;
            let f = &f;
            handles.push(s.spawn(move || (ep.rank(), f(&mut ep, ranks))));
        }
        for h in handles {
            let (rank, val) = h.join().expect("collective worker");
            out[rank] = Some(val);
        }
    });
    out.into_iter().map(|v| v.expect("all ranks ran")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Ring AllReduce equals elementwise sum, for any cluster shape and
    /// buffer length (including lengths not divisible by the worker count),
    /// with the buffer cut anywhere into a bucket of two.
    #[test]
    fn allreduce_equals_sum(
        machines in 1usize..4,
        gpus in 1usize..3,
        len in 1usize..40,
        cut in 0usize..40,
        seed in 0u64..1000,
    ) {
        let results = run_collective(machines, gpus, |ep, ranks| {
            let mut data: Vec<f32> = (0..len)
                .map(|i| ((ep.rank() * 31 + i * 7 + seed as usize) % 13) as f32 - 6.0)
                .collect();
            let (head, tail) = data.split_at_mut(cut.min(len));
            ring_allreduce(ep, ranks, 1, &mut [head, tail]).expect("allreduce");
            data
        });
        let workers = machines * gpus;
        let expected: Vec<f32> = (0..len)
            .map(|i| {
                (0..workers)
                    .map(|r| ((r * 31 + i * 7 + seed as usize) % 13) as f32 - 6.0)
                    .sum()
            })
            .collect();
        for r in &results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    /// AllGatherv returns every worker's contribution in rank order.
    #[test]
    fn allgatherv_equals_ordered_concat(
        machines in 1usize..4,
        gpus in 1usize..3,
        base_len in 0usize..6,
    ) {
        let results = run_collective(machines, gpus, |ep, ranks| {
            let local = vec![ep.rank() as f32; base_len + ep.rank() % 3];
            allgatherv(ep, ranks, 2, local).expect("allgatherv")
        });
        let workers = machines * gpus;
        for parts in &results {
            prop_assert_eq!(parts.len(), workers);
            for (r, part) in parts.iter().enumerate() {
                prop_assert_eq!(part.len(), base_len + r % 3);
                prop_assert!(part.iter().all(|&v| v == r as f32));
            }
        }
    }

    /// Coalescing sparse slices and then densifying equals densifying
    /// directly, for arbitrary duplicate patterns.
    #[test]
    fn coalesce_preserves_dense_sum(
        rows in 1usize..20,
        cols in 1usize..5,
        entries in vec((0usize..20, -10i32..10), 0..30),
    ) {
        let entries: Vec<(usize, i32)> =
            entries.into_iter().map(|(r, v)| (r % rows, v)).collect();
        let indices: Vec<usize> = entries.iter().map(|&(r, _)| r).collect();
        let data: Vec<f32> = entries
            .iter()
            .flat_map(|&(_, v)| std::iter::repeat_n(v as f32, cols))
            .collect();
        let slices = IndexedSlices::new(
            indices.clone(),
            Tensor::new([indices.len(), cols], data).expect("tensor"),
            rows,
        )
        .expect("slices");
        let direct = slices.to_dense();
        let via = slices.coalesce().to_dense();
        prop_assert_eq!(direct, via);
        // Coalesced indices are sorted and unique.
        let c = slices.coalesce();
        let mut sorted = c.indices().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(c.indices(), &sorted[..]);
    }

    /// Row partitioning is total, disjoint, and stitch inverts slicing.
    #[test]
    fn partition_route_and_stitch_roundtrip(
        rows in 1usize..200,
        parts in 1usize..16,
        cols in 1usize..4,
    ) {
        let parts = parts.min(rows);
        let partition = RowPartition::even(rows, parts).expect("partition");
        // Total and consistent routing.
        let mut seen = vec![false; rows];
        for (row, slot) in seen.iter_mut().enumerate() {
            let (p, local) = partition.route(row).expect("route");
            prop_assert!(partition.range(p).contains(&row));
            prop_assert_eq!(partition.range(p).start + local, row);
            prop_assert!(!*slot);
            *slot = true;
        }
        // Stitch inverts row slicing.
        let full = Tensor::new(
            [rows, cols],
            (0..rows * cols).map(|x| x as f32).collect::<Vec<_>>(),
        )
        .expect("tensor");
        let blocks: Vec<Tensor> = (0..parts)
            .map(|p| {
                let r = partition.range(p);
                full.slice_rows(r.start, r.end).expect("slice")
            })
            .collect();
        prop_assert_eq!(partition.stitch(&blocks).expect("stitch"), full);
    }

    /// Splitting a sparse gradient across partitions loses nothing:
    /// densify-per-partition + stitch equals densify-whole.
    #[test]
    fn sparse_partition_split_preserves_gradient(
        rows in 2usize..100,
        parts in 1usize..8,
        entries in vec(0usize..100, 0..25),
    ) {
        let parts = parts.min(rows);
        let partition = RowPartition::even(rows, parts).expect("partition");
        let indices: Vec<usize> = entries.into_iter().map(|r| r % rows).collect();
        let data: Vec<f32> = indices.iter().map(|&r| r as f32 + 0.5).collect();
        let slices = IndexedSlices::new(
            indices.clone(),
            Tensor::new([indices.len(), 1], data).expect("tensor"),
            rows,
        )
        .expect("slices");
        let split = split_to_partitions(&slices, &partition).expect("split");
        prop_assert_eq!(split.len(), parts);
        let dense_blocks: Vec<Tensor> = split.iter().map(IndexedSlices::to_dense).collect();
        let rebuilt = partition.stitch(&dense_blocks).expect("stitch");
        prop_assert_eq!(rebuilt, slices.to_dense());
    }

    /// Eq. 1 fitting recovers planted parameters from noiseless samples,
    /// and the search lands within 10% of the true optimum's time.
    #[test]
    fn cost_model_fit_and_search_recover_optimum(
        theta0 in 0.001f64..0.5,
        theta1 in 0.1f64..20.0,
        theta2 in 1e-5f64..1e-2,
    ) {
        let truth = CostModelFit { theta0, theta1, theta2 };
        let samples: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 32.0, 128.0]
            .iter()
            .map(|&p| (p, truth.predict(p)))
            .collect();
        let fitted = fit(&samples).expect("fit");
        prop_assert!((fitted.theta0 - theta0).abs() < 1e-6 * (1.0 + theta0));
        prop_assert!((fitted.theta1 - theta1).abs() < 1e-6 * (1.0 + theta1));
        prop_assert!((fitted.theta2 - theta2).abs() < 1e-6 * (1.0 + theta2));

        let result = search(8, 4096, |p| truth.predict(p as f64)).expect("search");
        let best_time = truth.predict(result.best as f64);
        let true_opt = truth.continuous_optimum().expect("positive thetas");
        let bounded_opt = true_opt.clamp(1.0, 4096.0);
        let opt_time = truth.predict(bounded_opt.round().max(1.0));
        prop_assert!(
            best_time <= opt_time * 1.10,
            "search P={} t={best_time}, optimum ~{bounded_opt} t={opt_time}",
            result.best,
        );
    }

    /// Sharding covers the dataset exactly once with balanced sizes.
    #[test]
    fn shard_ranges_partition_dataset(total in 0usize..500, workers in 1usize..16) {
        let mut covered = 0usize;
        let mut sizes = Vec::new();
        for w in 0..workers {
            let r = shard_range(total, workers, w);
            prop_assert_eq!(r.start, covered);
            sizes.push(r.len());
            covered = r.end;
        }
        prop_assert_eq!(covered, total);
        let min = sizes.iter().min().expect("non-empty");
        let max = sizes.iter().max().expect("non-empty");
        prop_assert!(max - min <= 1, "balanced shards: {sizes:?}");
    }

    /// Table 3 identities hold for arbitrary parameters: dense m-vars
    /// PS == AR, sparse AR/PS ratio == N/2, and the generalized
    /// functions reduce to the closed forms at one GPU per machine.
    #[test]
    fn transfer_formula_identities(
        w in 1.0f64..1e9,
        alpha in 0.0001f64..1.0,
        n in 2u32..64,
        m in 1.0f64..200.0,
    ) {
        use transfer::{table3_m_vars, table3_one_var, Arch, VarKind};
        let n = n as f64;
        let dense_ps = table3_m_vars(VarKind::Dense, Arch::Ps, w, alpha, n, m);
        let dense_ar = table3_m_vars(VarKind::Dense, Arch::Ar, w, alpha, n, m);
        prop_assert!((dense_ps - dense_ar).abs() < 1e-6 * dense_ps.max(1.0));
        let sparse_ps = table3_m_vars(VarKind::Sparse, Arch::Ps, w, alpha, n, m);
        let sparse_ar = table3_m_vars(VarKind::Sparse, Arch::Ar, w, alpha, n, m);
        prop_assert!((sparse_ar / sparse_ps - n / 2.0).abs() < 1e-9);

        let ar = transfer::ar_dense_traffic(w, n, 1.0);
        let closed = table3_one_var(VarKind::Dense, Arch::Ar, w, alpha, n);
        prop_assert!((ar.out + ar.inb - closed).abs() < 1e-6 * closed.max(1.0));
        let ps = transfer::ps_sparse_traffic(w, alpha, alpha, n, 1.0, n, false);
        let closed =
            table3_m_vars(VarKind::Sparse, Arch::Ps, w, alpha, n, 1.0);
        prop_assert!(
            (ps.total_bytes() - closed).abs() < 1e-6 * closed.max(1.0),
            "{} vs {closed}",
            ps.total_bytes(),
        );
    }

    /// The delta+varint sparse index codec is lossless for arbitrary
    /// sorted index sets, and its no-allocation length predictor matches
    /// the encoder byte for byte (predicted==measured by construction).
    #[test]
    fn index_codec_roundtrips_losslessly(
        raw in vec(0usize..2_000_000, 0..300),
    ) {
        use parallax_repro::comm::wire::{decode_indices, encode_indices, encoded_index_len};
        let mut indices = raw;
        indices.sort_unstable();
        indices.dedup();
        let encoded = encode_indices(&indices);
        prop_assert_eq!(encoded.len(), encoded_index_len(&indices));
        prop_assert_eq!(decode_indices(&encoded, indices.len()), Some(indices));
    }

    /// f16/bf16 roundtrip error is bounded by the formats' mantissa
    /// widths: round-to-nearest on 10 (f16) / 7 (bf16) mantissa bits
    /// keeps the relative error within 2^-11 / 2^-8 across each format's
    /// normal range, and both quantizers are idempotent (re-encoding a
    /// decoded value is exact — what lets the ring reduce-scatter stay
    /// deterministic under compression).
    #[test]
    fn half_precision_roundtrip_error_bounded(
        mag in 1e-3f32..1e3,
        sign in 0u8..2,
    ) {
        use parallax_repro::comm::WireFormat;
        let x = if sign == 1 { -mag } else { mag };
        for (format, rel_bound) in [
            (WireFormat::F16, (2.0f32).powi(-11)),
            (WireFormat::Bf16, (2.0f32).powi(-8)),
        ] {
            let rt = format.decode_scalar(format.encode_scalar(x));
            prop_assert!(
                (rt - x).abs() <= rel_bound * x.abs(),
                "{}: {x} -> {rt} (err {} > {})",
                format.name(),
                (rt - x).abs(),
                rel_bound * x.abs(),
            );
            // Idempotence: a value already on the format's grid encodes
            // back to itself bit for bit.
            prop_assert_eq!(format.decode_scalar(format.encode_scalar(rt)).to_bits(), rt.to_bits());
            // Zero is exact in both formats.
            prop_assert_eq!(format.decode_scalar(format.encode_scalar(0.0)).to_bits(), 0.0f32.to_bits());
        }
    }
}
