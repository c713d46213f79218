//! Asynchronous PS training (Section 2.1): each worker's gradients are
//! applied the moment they arrive — no barriers, no chief trigger, and
//! the staleness that comes with it. Compares the loss trajectory and
//! final model against synchronous training on the same workload.
//!
//! ```text
//! cargo run --example async_training
//! ```

use parallax_repro::core::sparsity::estimate_profile;
use parallax_repro::core::{get_runner, shard_range, ArchChoice, ParallaxConfig};
use parallax_repro::dataflow::builder::{linear, Act};
use parallax_repro::dataflow::graph::{Op, PhKind};
use parallax_repro::dataflow::{Feed, Graph};
use parallax_repro::tensor::DetRng;

const VOCAB: usize = 64;
const CLASSES: usize = 8;
const ITERS: usize = 30;

fn main() {
    let mut graph = Graph::new();
    let emb = parallax_repro::dataflow::builder::embedding(&mut graph, "emb", VOCAB, 12)
        .expect("embedding");
    let ids = graph.placeholder("ids", PhKind::Ids).expect("ids");
    let labels = graph.placeholder("labels", PhKind::Ids).expect("labels");
    let x = graph.add(Op::Gather { table: emb, ids }).expect("gather");
    let (logits, _, _) = linear(&mut graph, x, "fc", 12, CLASSES, Act::None).expect("fc");
    let loss = graph.add(Op::SoftmaxXent { logits, labels }).expect("loss");
    let profile = estimate_profile(&graph, &[batch(0)], 1).expect("profile");

    for (name, synchronous) in [("synchronous", true), ("asynchronous", false)] {
        let config = ParallaxConfig {
            seed: 5,
            learning_rate: 0.25,
            synchronous,
            arch: ArchChoice::PsOnly,
            local_aggregation: false,
            ..ParallaxConfig::tf_ps_baseline()
        };
        let runner =
            get_runner(graph.clone(), loss, vec![2, 2], config, profile.clone()).expect("runner");
        let report = runner
            .run(ITERS, |worker, iter| {
                let global = batch(iter as u64);
                shard(&global, worker, 4)
            })
            .expect("training");
        println!(
            "{name:>12}: loss {:.4} -> {:.4} | PS bytes {} KiB | wall {:.0} ms",
            report.losses[0],
            report.losses.last().expect("losses"),
            report.traffic.ps.total_network_bytes() / 1024,
            report.wall_seconds * 1e3,
        );
    }
    println!(
        "\nBoth modes learn; the asynchronous run skips the accumulate/\n\
         chief-trigger/notify machinery, trading gradient staleness for\n\
         the absence of synchronization barriers — the trade-off the\n\
         paper cites as its reason to default to synchronous training."
    );
}

fn batch(iter: u64) -> Feed {
    let mut rng = DetRng::seed(100 + iter);
    let ids: Vec<usize> = (0..16).map(|_| rng.below(VOCAB)).collect();
    let labels: Vec<usize> = ids.iter().map(|&t| t % CLASSES).collect();
    Feed::new().with("ids", ids).with("labels", labels)
}

fn shard(global: &Feed, worker: usize, workers: usize) -> Feed {
    let ids = global
        .get("ids")
        .expect("ids")
        .as_ids("shard")
        .expect("ids")
        .to_vec();
    let labels = global
        .get("labels")
        .expect("labels")
        .as_ids("shard")
        .expect("labels")
        .to_vec();
    let r = shard_range(ids.len(), workers, worker);
    Feed::new()
        .with("ids", ids[r.clone()].to_vec())
        .with("labels", labels[r].to_vec())
}
