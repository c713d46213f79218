//! Property test over the whole distributed runtime: random topologies,
//! architectures, partition counts and models must all implement the
//! same synchronous-SGD semantics as a sequential run.

use proptest::prelude::*;

use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, shard_range, ArchChoice, ParallaxConfig};
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, Optimizer, Session, Sgd, VarStore, VariableDef};
use parallax_ps::PlacementStrategy;
use parallax_tensor::DetRng;

const VOCAB: usize = 18;
const CLASSES: usize = 4;

/// Builds a model with `sparse_vars` gathered embeddings and a dense
/// classifier head, so every architecture path gets exercised.
fn build_model(sparse_vars: usize, emb: usize) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let mut embs = Vec::new();
    for i in 0..sparse_vars {
        embs.push(
            g.variable(VariableDef::new(
                format!("emb{i}"),
                [VOCAB, emb],
                Init::Normal(0.2),
            ))
            .expect("variable"),
        );
    }
    let ids = g.placeholder("ids", PhKind::Ids).expect("ids");
    let labels = g.placeholder("labels", PhKind::Ids).expect("labels");
    // Sum the gathered embeddings, then classify.
    let mut x: Option<NodeId> = None;
    for &e in &embs {
        let gathered = g.add(Op::Gather { table: e, ids }).expect("gather");
        x = Some(match x {
            Some(acc) => g.add(Op::Add(acc, gathered)).expect("add"),
            None => gathered,
        });
    }
    let x = x.expect("at least one embedding");
    let (logits, _, _) = parallax_dataflow::builder::linear(
        &mut g,
        x,
        "fc",
        emb,
        CLASSES,
        parallax_dataflow::builder::Act::Tanh,
    )
    .expect("fc");
    let loss = g.add(Op::SoftmaxXent { logits, labels }).expect("loss");
    (g, loss)
}

fn global_batch(iter: usize, total: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = DetRng::seed(seed.wrapping_mul(31).wrapping_add(iter as u64));
    let ids: Vec<usize> = (0..total).map(|_| rng.below(VOCAB)).collect();
    let labels: Vec<usize> = ids.iter().map(|&t| (t * 7) % CLASSES).collect();
    (ids, labels)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn any_configuration_matches_sequential_sgd(
        machines in 1usize..3,
        gpus in 1usize..3,
        sparse_vars in 1usize..3,
        partitions in 1usize..7,
        arch_sel in 0u8..4,
        local_agg in any::<bool>(),
        seed in 0u64..500,
    ) {
        let workers = machines * gpus;
        let per_worker = 2usize;
        let iters = 3usize;
        let (graph, loss) = build_model(sparse_vars, 5);

        // Sequential reference.
        let mut store = VarStore::init(&graph, &mut DetRng::seed(seed));
        let mut opt = Sgd::new(0.2);
        for iter in 0..iters {
            let (ids, labels) = global_batch(iter, workers * per_worker, seed);
            let feed = Feed::new().with("ids", ids).with("labels", labels);
            let acts = Session::new(&graph)
                .forward(&feed, &mut store)
                .expect("forward");
            let grads = backward(&graph, &acts, loss).expect("backward");
            for (var, grad) in grads {
                opt.apply(var.index() as u64, store.get_mut(var).expect("var"), &grad)
                    .expect("apply");
            }
        }

        let config = arch_from(arch_sel, ParallaxConfig {
            seed,
            learning_rate: 0.2,
            local_aggregation: local_agg,
            sparse_partitions: Some(partitions),
            placement: if seed % 2 == 0 {
                PlacementStrategy::Balanced
            } else {
                PlacementStrategy::RoundRobin
            },
            ..ParallaxConfig::default()
        });
        let profile = {
            let (ids, labels) = global_batch(0, workers * per_worker, seed);
            let feed = Feed::new().with("ids", ids).with("labels", labels);
            estimate_profile(&graph, &[feed], seed).expect("profile")
        };
        let (arch, placement) = (config.arch, config.placement);
        let runner = get_runner(graph.clone(), loss, vec![gpus; machines], config, profile)
            .expect("runner");
        let report = runner
            .run(iters, move |w, i| {
                let (ids, labels) = global_batch(i, workers * per_worker, seed);
                let r = shard_range(ids.len(), workers, w);
                Feed::new()
                    .with("ids", ids[r.clone()].to_vec())
                    .with("labels", labels[r].to_vec())
            })
            .expect("distributed run");
        let distributed = report.final_store(&graph).expect("final model");
        let div = store.max_divergence(&distributed);
        prop_assert!(
            div < 1e-4,
            "{arch:?} {placement:?} x {machines}x{gpus} P={partitions} agg={local_agg}: \
             diverged by {div}",
        );
    }
}
