//! Quickstart: transform a single-GPU graph and train it on a simulated
//! multi-machine cluster (the Figure 3 workflow).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use parallax_repro::core::sparsity::estimate_profile;
use parallax_repro::core::{get_runner, shard_range, ParallaxConfig};
use parallax_repro::dataflow::builder::{linear, Act};
use parallax_repro::dataflow::graph::{Op, PhKind};
use parallax_repro::dataflow::{Feed, Graph};
use parallax_repro::tensor::DetRng;

const VOCAB: usize = 200;
const EMB: usize = 16;
const CLASSES: usize = 10;
const PER_WORKER: usize = 8;

fn main() {
    // 1. Build a single-GPU graph, exactly as for local training: an
    //    embedding (sparse) feeding a small classifier (dense).
    let mut graph = Graph::new();
    let emb = parallax_repro::dataflow::builder::embedding(&mut graph, "emb", VOCAB, EMB)
        .expect("embedding");
    let ids = graph.placeholder("ids", PhKind::Ids).expect("ids");
    let labels = graph.placeholder("labels", PhKind::Ids).expect("labels");
    let x = graph.add(Op::Gather { table: emb, ids }).expect("gather");
    let (logits, _, _) = linear(&mut graph, x, "fc", EMB, CLASSES, Act::None).expect("fc");
    let loss = graph.add(Op::SoftmaxXent { logits, labels }).expect("loss");

    // 2. Estimate each variable's sparsity (alpha) from sample batches.
    let sample = batch(0, PER_WORKER * 4);
    let profile = estimate_profile(&graph, &[sample], 7).expect("profile");
    for v in &profile.vars {
        let def = &graph.variables()[v.var.index()];
        println!(
            "variable '{}': {} elements, {} (alpha = {:.3})",
            def.name,
            v.elements,
            if v.sparse { "sparse" } else { "dense" },
            v.alpha,
        );
    }
    println!("alpha_model = {:.3}", profile.alpha_model());

    // 3. get_runner: transform the graph for 2 machines x 2 GPUs under
    //    the hybrid architecture and run synchronous training.
    let runner =
        get_runner(graph, loss, vec![2, 2], ParallaxConfig::default(), profile).expect("runner");
    println!(
        "plan: {} AllReduce variables, {} PS variables, servers needed: {}",
        runner.plan().ar_vars().len(),
        runner.plan().ps_vars().len(),
        runner.plan().needs_servers(),
    );

    let report = runner
        .run(20, |worker, iter| {
            let global = batch(iter as u64, PER_WORKER * 4);
            shard(&global, worker, 4)
        })
        .expect("training");

    println!(
        "losses: first {:.4} -> last {:.4}",
        report.losses[0], report.losses[19]
    );
    println!(
        "traffic: {} KiB AllReduce, {} KiB PS, {} KiB local aggregation (intra)",
        report.traffic.nccl.total_network_bytes() / 1024,
        report.traffic.ps.total_network_bytes() / 1024,
        report.traffic.local_agg.intra_bytes() / 1024,
    );
}

/// A deterministic global batch for one iteration.
fn batch(iter: u64, total: usize) -> Feed {
    let mut rng = DetRng::seed(1000 + iter);
    let ids: Vec<usize> = (0..total).map(|_| rng.below(VOCAB)).collect();
    // A learnable mapping: the label is derived from the token id.
    let labels: Vec<usize> = ids.iter().map(|&t| t % CLASSES).collect();
    Feed::new().with("ids", ids).with("labels", labels)
}

/// This worker's shard of the global batch (the `parallax.shard` API).
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
