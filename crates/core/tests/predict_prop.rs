//! Property test for the static traffic predictor: for random cluster
//! shapes, architectures and models, the per-class traffic predicted by
//! `plancheck::predict_iteration_traffic` must equal — snapshot for
//! snapshot, byte for byte, message for message — what a real
//! one-iteration run measures on the same feeds, and the closed-form
//! conservation crosscheck (`B001`) must hold.

use proptest::prelude::*;

use parallax_core::plancheck::predict_iteration_traffic;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, shard_range, ArchChoice, ParallaxConfig};
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, VariableDef};
use parallax_ps::PlacementStrategy;
use parallax_tensor::DetRng;

const VOCAB: usize = 24;

/// An embedding + dense-head model: one sparse (gathered) variable and
/// one dense variable, so every synchronization path is exercised.
fn build_model(emb_cols: usize) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new(
            "emb",
            [VOCAB, emb_cols],
            Init::Normal(0.2),
        ))
        .expect("emb");
    let w = g
        .variable(VariableDef::new("w", [emb_cols, 3], Init::Glorot))
        .expect("w");
    let ids = g.placeholder("ids", PhKind::Ids).expect("ids");
    let gathered = g.add(Op::Gather { table: emb, ids }).expect("gather");
    let wn = g.add(Op::Variable(w)).expect("read w");
    let h = g.add(Op::MatMul(gathered, wn)).expect("matmul");
    let loss = g.add(Op::MeanAll(h)).expect("loss");
    (g, loss)
}

fn global_ids(total: usize, seed: u64) -> Vec<usize> {
    let mut rng = DetRng::seed(seed.wrapping_mul(17).wrapping_add(3));
    (0..total).map(|_| rng.below(VOCAB)).collect()
}

/// `config` under selector's architecture. Arm 2 is the TF-PS baseline,
/// which places round-robin.
fn arch_from(selector: u8, config: ParallaxConfig) -> ParallaxConfig {
    match selector % 4 {
        0 => ParallaxConfig {
            arch: ArchChoice::Hybrid,
            ..config
        },
        1 => ParallaxConfig {
            arch: ArchChoice::ArOnly,
            ..config
        },
        2 => ParallaxConfig {
            arch: ArchChoice::PsOnly,
            placement: PlacementStrategy::RoundRobin,
            ..config
        },
        _ => ParallaxConfig {
            arch: ArchChoice::PsOnly,
            ..config
        },
    }
}

fn wire_from(selector: u8) -> parallax_comm::WireFormat {
    match selector % 3 {
        0 => parallax_comm::WireFormat::F32,
        1 => parallax_comm::WireFormat::F16,
        _ => parallax_comm::WireFormat::Bf16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn predicted_traffic_equals_measured_traffic(
        machines in 1usize..3,
        gpus in 1usize..3,
        partitions in 1usize..6,
        arch_sel in 0u8..4,
        wire_sel in 0u8..3,
        local_agg in any::<bool>(),
        seed in 0u64..500,
    ) {
        let workers = machines * gpus;
        let per_worker = 3usize;
        let (graph, loss) = build_model(4);
        let config = arch_from(arch_sel, ParallaxConfig {
            seed,
            wire_format: wire_from(wire_sel),
            local_aggregation: local_agg,
            sparse_partitions: Some(partitions),
            ..ParallaxConfig::default()
        });
        let ids = global_ids(workers * per_worker, seed);
        let feed_for = |w: usize| {
            let r = shard_range(ids.len(), workers, w);
            Feed::new().with("ids", ids[r].to_vec())
        };
        let profile = estimate_profile(
            &graph,
            &[Feed::new().with("ids", ids.clone())],
            seed,
        )
        .expect("profile");

        let runner = get_runner(
            graph.clone(),
            loss,
            vec![gpus; machines],
            config.clone(),
            profile,
        )
        .expect("runner");
        let feeds: Vec<Feed> = (0..workers).map(feed_for).collect();
        let (predicted, conservation) = predict_iteration_traffic(
            &graph,
            loss,
            runner.plan(),
            runner.topology(),
            &config,
            &feeds,
        )
        .expect("prediction");
        prop_assert!(
            !conservation.has_errors(),
            "B001 conservation failure:\n{}",
            conservation.render()
        );

        let report = runner.run(1, |w, _| feed_for(w)).expect("one iteration");
        let ctx = format!(
            "{:?} {:?} wire={} x {machines}x{gpus} P={partitions} agg={local_agg} \
             seed={seed}",
            config.arch,
            config.placement,
            wire_from(wire_sel).name(),
        );
        prop_assert_eq!(&predicted.nccl, &report.traffic.nccl, "nccl: {}", &ctx);
        prop_assert_eq!(&predicted.mpi, &report.traffic.mpi, "mpi: {}", &ctx);
        prop_assert_eq!(&predicted.ps, &report.traffic.ps, "ps: {}", &ctx);
        prop_assert_eq!(&predicted.local_agg, &report.traffic.local_agg, "local_agg: {}", &ctx);
        prop_assert_eq!(&predicted.other, &report.traffic.other, "other: {}", &ctx);
    }
}
