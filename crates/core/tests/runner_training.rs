//! End-to-end runner tests: every architecture (hybrid, pure AllReduce,
//! naive and optimized PS) must implement the same synchronous-SGD
//! semantics — the distributed final model equals sequential SGD over
//! the concatenated global batch.

use parallax_core::sparsity::estimate_profile;
use parallax_core::{get_runner, shard_range, ParallaxConfig};
use parallax_dataflow::builder::{linear, lstm_step, lstm_weights, Act};
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, Optimizer, Session, Sgd, VarStore};
use parallax_tensor::{DetRng, Tensor};

const SEED: u64 = 7;
const LR: f32 = 0.1;
const VOCAB: usize = 20;
const EMB: usize = 6;
const HIDDEN: usize = 5;
const CLASSES: usize = 4;

/// A miniature LM-shaped model: embedding gather -> one LSTM step ->
/// projection -> softmax cross-entropy. Contains both a sparse variable
/// (the embedding) and dense variables (LSTM kernel, projection).
fn build_model(batch: usize) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let emb = parallax_dataflow::builder::embedding(&mut g, "emb", VOCAB, EMB).unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let h0 = g.placeholder("h0", PhKind::Float).unwrap();
    let c0 = g.placeholder("c0", PhKind::Float).unwrap();
    let x = g.add(Op::Gather { table: emb, ids }).unwrap();
    let (w, b) = lstm_weights(&mut g, "cell", EMB, HIDDEN).unwrap();
    let (h1, _c1) = lstm_step(&mut g, x, h0, c0, w, b, HIDDEN).unwrap();
    let (logits, _, _) = linear(&mut g, h1, "proj", HIDDEN, CLASSES, Act::None).unwrap();
    let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
    let _ = batch;
    (g, loss)
}

fn global_batch(iter: usize, total: usize) -> (Vec<usize>, Vec<usize>) {
    let ids = (0..total).map(|i| (iter * 7 + i * 3) % VOCAB).collect();
    let labels = (0..total).map(|i| (iter + 2 * i) % CLASSES).collect();
    (ids, labels)
}

fn feed_for(ids: Vec<usize>, labels: Vec<usize>) -> Feed {
    let batch = ids.len();
    Feed::new()
        .with("ids", ids)
        .with("labels", labels)
        .with("h0", Tensor::zeros([batch, HIDDEN]))
        .with("c0", Tensor::zeros([batch, HIDDEN]))
}

fn worker_feed(worker: usize, iter: usize, workers: usize, per_worker: usize) -> Feed {
    let (ids, labels) = global_batch(iter, workers * per_worker);
    let r = shard_range(ids.len(), workers, worker);
    feed_for(ids[r.clone()].to_vec(), labels[r].to_vec())
}

fn sequential_reference(graph: &Graph, loss: NodeId, iters: usize, total: usize) -> VarStore {
    let mut store = VarStore::init(graph, &mut DetRng::seed(SEED));
    let mut opt = Sgd::new(LR);
    for iter in 0..iters {
        let (ids, labels) = global_batch(iter, total);
        let feed = feed_for(ids, labels);
        let acts = Session::new(graph).forward(&feed, &mut store).unwrap();
        let grads = backward(graph, &acts, loss).unwrap();
        for (var, grad) in grads {
            opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                .unwrap();
        }
    }
    store
}

fn run_and_compare(config: ParallaxConfig, machines: usize, gpus: usize, iters: usize) {
    let per_worker = 3usize;
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let sample = vec![feed_for(
        global_batch(0, workers * per_worker).0,
        vec![0; workers * per_worker],
    )];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();
    let reference = sequential_reference(&graph, loss, iters, workers * per_worker);

    let runner = get_runner(
        graph.clone(),
        loss,
        vec![gpus; machines],
        ParallaxConfig {
            seed: SEED,
            learning_rate: LR,
            ..config
        },
        profile,
    )
    .unwrap();
    let report = runner
        .run(iters, |w, i| worker_feed(w, i, workers, per_worker))
        .unwrap();
    let store = report.final_store(&graph).unwrap();
    let div = reference.max_divergence(&store);
    assert!(div < 1e-4, "final model diverged by {div}");
    assert_eq!(report.losses.len(), iters);
    assert!(report.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn hybrid_training_reduces_loss_on_a_fixed_batch() {
    // Repeating one batch makes the objective learnable, so SGD must
    // reduce the loss monotonically-ish.
    let per_worker = 3usize;
    let (machines, gpus, iters) = (2usize, 2usize, 10usize);
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let (ids, labels) = global_batch(0, workers * per_worker);
    let sample = vec![feed_for(ids.clone(), labels.clone())];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();
    let runner = get_runner(
        graph,
        loss,
        vec![gpus; machines],
        ParallaxConfig {
            seed: SEED,
            learning_rate: 0.5,
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    let ids2 = ids.clone();
    let labels2 = labels.clone();
    let report = runner
        .run(iters, move |w, _| {
            let r = shard_range(ids2.len(), workers, w);
            feed_for(ids2[r.clone()].to_vec(), labels2[r].to_vec())
        })
        .unwrap();
    assert!(
        report.losses.last().unwrap() < &(report.losses[0] * 0.9),
        "losses {:?}",
        report.losses
    );
}

#[test]
fn hybrid_training_matches_sequential() {
    run_and_compare(ParallaxConfig::default(), 2, 2, 6);
}

#[test]
fn hybrid_without_local_aggregation_matches_sequential() {
    let config = ParallaxConfig {
        local_aggregation: false,
        ..ParallaxConfig::default()
    };
    run_and_compare(config, 2, 3, 4);
}

#[test]
fn horovod_baseline_matches_sequential() {
    run_and_compare(ParallaxConfig::horovod_baseline(), 2, 2, 5);
}

#[test]
fn tf_ps_baseline_matches_sequential() {
    run_and_compare(ParallaxConfig::tf_ps_baseline(), 2, 2, 5);
}

#[test]
fn opt_ps_matches_sequential() {
    run_and_compare(ParallaxConfig::opt_ps(), 2, 2, 5);
}

#[test]
fn hybrid_with_fixed_partitions_matches_sequential() {
    let config = ParallaxConfig {
        sparse_partitions: Some(5),
        ..ParallaxConfig::default()
    };
    run_and_compare(config, 2, 2, 4);
}

#[test]
fn single_machine_single_gpu_degenerates_cleanly() {
    run_and_compare(ParallaxConfig::default(), 1, 1, 4);
}

#[test]
fn traffic_classes_match_architecture() {
    let per_worker = 2usize;
    let (machines, gpus, iters) = (2usize, 2usize, 3usize);
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let sample = vec![feed_for(
        global_batch(0, workers * per_worker).0,
        vec![0; workers * per_worker],
    )];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();

    let run = |config: ParallaxConfig| {
        let runner = get_runner(
            graph.clone(),
            loss,
            vec![gpus; machines],
            ParallaxConfig {
                seed: SEED,
                learning_rate: LR,
                ..config
            },
            profile.clone(),
        )
        .unwrap();
        runner
            .run(iters, |w, i| worker_feed(w, i, workers, per_worker))
            .unwrap()
    };

    // Hybrid: NCCL (dense AllReduce) and PS (sparse) both carry bytes.
    let hybrid = run(ParallaxConfig::default());
    assert!(
        hybrid.traffic.nccl.total_network_bytes() > 0,
        "hybrid uses AllReduce"
    );
    assert!(
        hybrid.traffic.ps.total_network_bytes() > 0,
        "hybrid uses the PS"
    );
    assert_eq!(
        hybrid.traffic.mpi.total_network_bytes(),
        0,
        "hybrid avoids AllGatherv"
    );

    // Horovod: collectives only — AllGatherv carries the sparse grads.
    let horovod = run(ParallaxConfig::horovod_baseline());
    assert!(horovod.traffic.nccl.total_network_bytes() > 0);
    assert!(
        horovod.traffic.mpi.total_network_bytes() > 0,
        "sparse grads via AllGatherv"
    );
    assert_eq!(horovod.traffic.ps.total_network_bytes(), 0);

    // TF-PS: server traffic only.
    let tfps = run(ParallaxConfig::tf_ps_baseline());
    assert_eq!(tfps.traffic.nccl.total_network_bytes(), 0);
    assert_eq!(tfps.traffic.mpi.total_network_bytes(), 0);
    assert!(tfps.traffic.ps.total_network_bytes() > 0);

    // Local aggregation shows up as intra-machine traffic under hybrid.
    assert!(hybrid.traffic.local_agg.intra_bytes() > 0);
}

#[test]
fn partition_search_runs_end_to_end() {
    let per_worker = 2usize;
    let (machines, gpus) = (2usize, 2usize);
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let sample = vec![feed_for(
        global_batch(0, workers * per_worker).0,
        vec![0; workers * per_worker],
    )];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();
    let runner = get_runner(
        graph.clone(),
        loss,
        vec![gpus; machines],
        ParallaxConfig {
            seed: SEED,
            learning_rate: LR,
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    let cluster = parallax_cluster::ClusterModel::paper_testbed();
    let (tuned, result) = runner
        .optimize_partitions(
            |w, i| worker_feed(w, i, workers, per_worker),
            2,
            VOCAB,
            &cluster,
        )
        .unwrap();
    assert!(result.best >= 1 && result.best <= VOCAB);
    assert!(result.samples.len() >= 3);
    assert_eq!(tuned.plan().partitions, result.best);
    // The tuned runner still trains correctly.
    let report = tuned
        .run(3, |w, i| worker_feed(w, i, workers, per_worker))
        .unwrap();
    assert!(report.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn near_dense_sparse_variable_avoids_ps_under_hybrid() {
    // With a tiny vocabulary and long sequences every row is touched, so
    // alpha ~ 1 and the hybrid rule sends the embedding to AllReduce.
    let (graph, loss) = build_model(4);
    let all_rows: Vec<usize> = (0..VOCAB).cycle().take(VOCAB * 2).collect();
    let sample = vec![feed_for(all_rows.clone(), vec![0; all_rows.len()])];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();
    let runner = get_runner(
        graph,
        loss,
        vec![2, 2],
        ParallaxConfig {
            seed: SEED,
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    assert!(
        !runner.plan().needs_servers(),
        "alpha ~ 1 keeps everything on AllReduce"
    );
}

/// Executed counterpart of Table 2's premise: the partition count does
/// not change the gradient bytes on the wire (only where rows go and how
/// many messages carry them), measured from real runs.
#[test]
fn executed_traffic_bytes_are_partition_invariant() {
    let per_worker = 3usize;
    let (machines, gpus, iters) = (2usize, 2usize, 3usize);
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let sample = vec![feed_for(
        global_batch(0, workers * per_worker).0,
        vec![0; workers * per_worker],
    )];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();

    let run = |partitions: usize| {
        let config = ParallaxConfig {
            seed: SEED,
            learning_rate: LR,
            sparse_partitions: Some(partitions),
            local_aggregation: false,
            ..ParallaxConfig::default()
        };
        let runner = get_runner(
            graph.clone(),
            loss,
            vec![gpus; machines],
            config,
            profile.clone(),
        )
        .unwrap();
        runner
            .run(iters, |w, i| worker_feed(w, i, workers, per_worker))
            .unwrap()
    };
    let p2 = run(2);
    let p10 = run(10);
    // Gradient/value bytes are partition-invariant; only per-message
    // overhead (headers, empty requests, notifications) grows. At this
    // tiny scale headers are a large share of the bytes, so the honest
    // invariant is: byte growth is strictly slower than message growth,
    // and the incremental bytes are explained by the incremental
    // messages' fixed overhead (16 bytes of header+id or control each).
    let b2 = p2.traffic.ps.total_network_bytes();
    let b10 = p10.traffic.ps.total_network_bytes();
    let m2 = p2.traffic.ps.inter_messages;
    let m10 = p10.traffic.ps.inter_messages;
    assert!(m10 > m2, "more partitions, more requests: {m2} vs {m10}");
    let byte_growth = b10 as f64 / b2 as f64;
    let msg_growth = m10 as f64 / m2 as f64;
    assert!(
        byte_growth < msg_growth,
        "bytes ({byte_growth:.2}x) must grow slower than messages ({msg_growth:.2}x)"
    );
    let extra_overhead = (m10 - m2) * 24; // Generous per-message bound.
    assert!(
        b10 <= b2 + extra_overhead,
        "incremental bytes ({}) exceed per-message overhead bound ({extra_overhead})",
        b10 - b2
    );
    // And training semantics stay identical.
    let s2 = p2.final_store(&graph).unwrap();
    let s10 = p10.final_store(&graph).unwrap();
    assert!(s2.max_divergence(&s10) < 1e-4);
}

/// Smoke test at the paper's full worker scale: 8 machines x 6 GPUs
/// (48 worker threads + 8 server threads) execute real hybrid training.
#[test]
fn paper_scale_topology_executes() {
    let per_worker = 1usize;
    let (machines, gpus, iters) = (8usize, 6usize, 2usize);
    let workers = machines * gpus;
    let (graph, loss) = build_model(per_worker);
    let sample = vec![feed_for(
        global_batch(0, workers * per_worker).0,
        vec![0; workers * per_worker],
    )];
    let profile = estimate_profile(&graph, &sample, SEED).unwrap();
    let reference = sequential_reference(&graph, loss, iters, workers * per_worker);
    let runner = get_runner(
        graph.clone(),
        loss,
        vec![gpus; machines],
        ParallaxConfig {
            seed: SEED,
            learning_rate: LR,
            ..ParallaxConfig::default()
        },
        profile,
    )
    .unwrap();
    let report = runner
        .run(iters, |w, i| worker_feed(w, i, workers, per_worker))
        .unwrap();
    let store = report.final_store(&graph).unwrap();
    let div = reference.max_divergence(&store);
    assert!(div < 1e-4, "48-worker run diverged by {div}");
}
