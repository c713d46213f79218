//! End-to-end Parameter Server training: distributed synchronous SGD over
//! worker threads must match single-process sequential SGD bit-for-bit
//! (up to float summation-order tolerance).

use std::collections::HashMap;
use std::sync::Arc;

use parallax_comm::{Router, Topology};
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::optimizer::LrSchedule;
use parallax_dataflow::{Feed, Graph, NodeId, Session, Sgd, VarId, VarStore, VariableDef};
use parallax_ps::placement::{build_plan, naive_ps_decisions};
use parallax_ps::{
    locally_aggregate, PlacementStrategy, PsClient, PsTopology, PsWorkerContext, Server,
    ServerConfig, ShardingPlan, VarPlacement,
};
use parallax_tensor::{sparse::Grad, DetRng, Tensor};

const SEED: u64 = 42;
const LR: f32 = 0.2;

/// Embedding -> linear -> softmax cross-entropy classifier.
fn build_model() -> (Graph, NodeId) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [12, 4], Init::Normal(0.3)))
        .unwrap();
    let w = g
        .variable(VariableDef::new("w", [4, 3], Init::Glorot))
        .unwrap();
    let b = g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let x = g.add(Op::Gather { table: emb, ids }).unwrap();
    let wr = g.read(w).unwrap();
    let br = g.read(b).unwrap();
    let mm = g.add(Op::MatMul(x, wr)).unwrap();
    let logits = g.add(Op::AddBias { x: mm, bias: br }).unwrap();
    let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
    (g, loss)
}

/// Deterministic global batch for one iteration: ids and labels.
fn global_batch(iter: usize, total: usize) -> (Vec<usize>, Vec<usize>) {
    let ids = (0..total).map(|i| (iter * 5 + i * 3) % 12).collect();
    let labels = (0..total).map(|i| (iter + i) % 3).collect();
    (ids, labels)
}

/// The per-worker slice of the global batch.
fn worker_batch(iter: usize, worker: usize, per_worker: usize, workers: usize) -> Feed {
    let (ids, labels) = global_batch(iter, per_worker * workers);
    let lo = worker * per_worker;
    let hi = lo + per_worker;
    Feed::new()
        .with("ids", ids[lo..hi].to_vec())
        .with("labels", labels[lo..hi].to_vec())
}

/// Runs the reference: sequential SGD over the full global batch.
fn sequential_reference(graph: &Graph, loss: NodeId, iters: usize, global: usize) -> VarStore {
    let mut store = VarStore::init(graph, &mut DetRng::seed(SEED));
    let mut opt = Sgd::new(LR);
    let session = Session::new(graph);
    for iter in 0..iters {
        let (ids, labels) = global_batch(iter, global);
        let feed = Feed::new().with("ids", ids).with("labels", labels);
        let acts = session.forward(&feed, &mut store).unwrap();
        let grads = backward(graph, &acts, loss).unwrap();
        for (var, grad) in grads {
            use parallax_dataflow::Optimizer;
            opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                .unwrap();
        }
    }
    store
}

/// Runs distributed PS training and returns the final full variable values.
fn distributed_ps(
    graph: &Graph,
    loss: NodeId,
    iters: usize,
    machines: usize,
    gpus: usize,
    partitions: usize,
    local_aggregation: bool,
) -> HashMap<usize, Tensor> {
    let topo = PsTopology::uniform(machines, gpus).unwrap();
    let decisions = naive_ps_decisions(graph, partitions);
    let plan =
        Arc::new(build_plan(graph, &decisions, machines, PlacementStrategy::Balanced).unwrap());
    let comm_topo: Topology = topo.comm().clone();
    let (mut endpoints, _traffic) = Router::build(comm_topo);
    // Hand endpoints out by rank: workers and servers.
    let mut by_rank: Vec<Option<parallax_comm::Endpoint>> = endpoints.drain(..).map(Some).collect();

    let workers = topo.num_workers();
    let per_worker = 2usize;
    let ps_vars: Vec<VarId> = graph
        .var_ids()
        .filter(|v| plan.placement(*v).unwrap().is_ps())
        .collect();

    let mut shard_values: Vec<((VarId, usize), Tensor)> = Vec::new();
    std::thread::scope(|s| {
        let mut server_handles = Vec::new();
        for m in 0..machines {
            let endpoint = by_rank[topo.server_rank(m)].take().unwrap();
            let config = ServerConfig {
                iterations: iters,
                average_gradients: true,
                local_aggregation,
                synchronous: true,
                serve_aggregates: false,
                seed: SEED,
                lr_schedule: LrSchedule::Constant,
                ..ServerConfig::default()
            };
            let server = Server::new(
                graph,
                &plan,
                topo.clone(),
                endpoint,
                config,
                Box::new(Sgd::new(LR)),
            )
            .unwrap();
            server_handles.push(s.spawn(move || server.run().unwrap()));
        }
        let mut worker_handles = Vec::new();
        for (widx, &rank) in topo.worker_ranks().iter().enumerate() {
            let endpoint = by_rank[rank].take().unwrap();
            let plan = Arc::clone(&plan);
            let topo = topo.clone();
            let ps_vars = ps_vars.clone();
            worker_handles.push(s.spawn(move || {
                let client = PsClient::new(plan, topo.clone());
                let local = VarStore::init(graph, &mut DetRng::seed(SEED));
                let mut ctx = PsWorkerContext::new(endpoint, client, local);
                let session = Session::new(graph);
                let chief = topo.chief() == rank;
                for iter in 0..iters {
                    ctx.begin_iteration(iter as u64);
                    let feed = worker_batch(iter, widx, per_worker, workers);
                    let acts = session.forward(&feed, &mut ctx).unwrap();
                    let grads = backward(graph, &acts, loss).unwrap();
                    let PsWorkerContext {
                        endpoint, client, ..
                    } = &mut ctx;
                    for &var in &ps_vars {
                        let grad = grads.get(&var).expect("all vars used");
                        // Local aggregation is sparse-only: dense gradients
                        // keep one push per worker so the server can replay
                        // the ring fold order.
                        match grad {
                            Grad::Sparse(s) if local_aggregation => {
                                let agg = locally_aggregate(endpoint, &topo, iter as u64, var, s)
                                    .unwrap();
                                if let Some(agg) = agg {
                                    client.push(endpoint, var, &Grad::Sparse(agg)).unwrap();
                                }
                            }
                            _ => client.push(endpoint, var, grad).unwrap(),
                        }
                    }
                    if chief {
                        for &var in &ps_vars {
                            client.chief_update(endpoint, var).unwrap();
                        }
                    }
                    for &var in &ps_vars {
                        client.await_update_done(endpoint, var).unwrap();
                    }
                }
            }));
        }
        for h in worker_handles {
            h.join().expect("worker panicked");
        }
        for h in server_handles {
            shard_values.extend(h.join().expect("server panicked"));
        }
    });

    // Reassemble full variables from shards.
    reassemble(graph, &plan, shard_values)
}

fn reassemble(
    graph: &Graph,
    plan: &ShardingPlan,
    shards: Vec<((VarId, usize), Tensor)>,
) -> HashMap<usize, Tensor> {
    let mut by_var: HashMap<usize, Vec<(usize, Tensor)>> = HashMap::new();
    for ((var, part), value) in shards {
        by_var.entry(var.index()).or_default().push((part, value));
    }
    let mut out = HashMap::new();
    for (var_idx, mut parts) in by_var {
        parts.sort_by_key(|(p, _)| *p);
        let var = VarId::from_index(var_idx);
        match plan.placement(var).unwrap() {
            VarPlacement::PsDense { .. } => {
                assert_eq!(parts.len(), 1);
                out.insert(var_idx, parts.pop().unwrap().1);
            }
            VarPlacement::PsSparse { partition, .. } => {
                let tensors: Vec<Tensor> = parts.into_iter().map(|(_, t)| t).collect();
                let full = partition.stitch(&tensors).unwrap();
                let shape = graph.var_def(var).unwrap().shape.clone();
                out.insert(var_idx, full.reshape(shape).unwrap());
            }
            VarPlacement::AllReduce => unreachable!("naive PS has no AR vars"),
        }
    }
    out
}

fn assert_matches_reference(
    graph: &Graph,
    reference: &VarStore,
    distributed: &HashMap<usize, Tensor>,
) {
    for var in graph.var_ids() {
        let expected = reference.get(var).unwrap();
        let actual = distributed
            .get(&var.index())
            .unwrap_or_else(|| panic!("variable {} missing from distributed result", var.index()));
        let diff = expected.max_abs_diff(actual).unwrap();
        assert!(
            diff < 1e-4,
            "variable '{}' diverged by {diff}",
            graph.var_def(var).unwrap().name
        );
    }
}

#[test]
fn ps_training_matches_sequential_sgd() {
    let (graph, loss) = build_model();
    let (machines, gpus, iters) = (2, 2, 5);
    let reference = sequential_reference(&graph, loss, iters, 2 * machines * gpus);
    let result = distributed_ps(&graph, loss, iters, machines, gpus, 3, false);
    assert_matches_reference(&graph, &reference, &result);
}

#[test]
fn ps_training_with_local_aggregation_matches_sequential_sgd() {
    let (graph, loss) = build_model();
    let (machines, gpus, iters) = (2, 3, 4);
    let reference = sequential_reference(&graph, loss, iters, 2 * machines * gpus);
    let result = distributed_ps(&graph, loss, iters, machines, gpus, 4, true);
    assert_matches_reference(&graph, &reference, &result);
}

#[test]
fn ps_training_single_machine_many_partitions() {
    let (graph, loss) = build_model();
    let (machines, gpus, iters) = (1, 4, 3);
    let reference = sequential_reference(&graph, loss, iters, 2 * machines * gpus);
    let result = distributed_ps(&graph, loss, iters, machines, gpus, 12, false);
    assert_matches_reference(&graph, &reference, &result);
}

#[test]
fn local_aggregation_reduces_network_traffic() {
    // Same training twice; with local aggregation the worker->server
    // gradient traffic must shrink (duplicate rows merged per machine,
    // single push per machine).
    let (graph, loss) = build_model();
    let run = |local_agg: bool| -> u64 {
        let machines = 2;
        let gpus = 3;
        let topo = PsTopology::uniform(machines, gpus).unwrap();
        let decisions = naive_ps_decisions(&graph, 2);
        let plan = Arc::new(
            build_plan(&graph, &decisions, machines, PlacementStrategy::Balanced).unwrap(),
        );
        let (mut endpoints, traffic) = Router::build(topo.comm().clone());
        let mut by_rank: Vec<Option<parallax_comm::Endpoint>> =
            endpoints.drain(..).map(Some).collect();
        let workers = topo.num_workers();
        let ps_vars: Vec<VarId> = graph.var_ids().collect();
        std::thread::scope(|s| {
            for m in 0..machines {
                let endpoint = by_rank[topo.server_rank(m)].take().unwrap();
                let config = ServerConfig {
                    iterations: 2,
                    average_gradients: true,
                    local_aggregation: local_agg,
                    synchronous: true,
                    serve_aggregates: false,
                    seed: SEED,
                    lr_schedule: LrSchedule::Constant,
                    ..ServerConfig::default()
                };
                let server = Server::new(
                    &graph,
                    &plan,
                    topo.clone(),
                    endpoint,
                    config,
                    Box::new(Sgd::new(LR)),
                )
                .unwrap();
                s.spawn(move || server.run().unwrap());
            }
            for (widx, &rank) in topo.worker_ranks().iter().enumerate() {
                let endpoint = by_rank[rank].take().unwrap();
                let plan = Arc::clone(&plan);
                let topo = topo.clone();
                let ps_vars = ps_vars.clone();
                let graph = &graph;
                s.spawn(move || {
                    let client = PsClient::new(plan, topo.clone());
                    let local = VarStore::init(graph, &mut DetRng::seed(SEED));
                    let mut ctx = PsWorkerContext::new(endpoint, client, local);
                    let session = Session::new(graph);
                    let chief = topo.chief() == rank;
                    for iter in 0..2usize {
                        ctx.begin_iteration(iter as u64);
                        let feed = worker_batch(iter, widx, 2, workers);
                        let acts = session.forward(&feed, &mut ctx).unwrap();
                        let grads = backward(graph, &acts, loss).unwrap();
                        let PsWorkerContext {
                            endpoint, client, ..
                        } = &mut ctx;
                        for &var in &ps_vars {
                            let grad = grads.get(&var).unwrap();
                            match grad {
                                Grad::Sparse(s) if local_agg => {
                                    if let Some(agg) =
                                        locally_aggregate(endpoint, &topo, iter as u64, var, s)
                                            .unwrap()
                                    {
                                        client.push(endpoint, var, &Grad::Sparse(agg)).unwrap();
                                    }
                                }
                                _ => client.push(endpoint, var, grad).unwrap(),
                            }
                        }
                        if chief {
                            for &var in &ps_vars {
                                client.chief_update(endpoint, var).unwrap();
                            }
                        }
                        for &var in &ps_vars {
                            client.await_update_done(endpoint, var).unwrap();
                        }
                    }
                });
            }
        });
        traffic.snapshot().total_network_bytes()
    };
    let naive = run(false);
    let aggregated = run(true);
    assert!(
        aggregated < naive,
        "local aggregation must reduce network bytes: {aggregated} vs {naive}"
    );
}

/// One worker per machine: measured PS traffic for a sparse variable must
/// match the paper's Table 3 within the tolerance of index/control
/// overhead the formulas neglect.
#[test]
fn sparse_ps_traffic_tracks_alpha() {
    let mut g = Graph::new();
    let rows = 64usize;
    let cols = 16usize;
    let emb = g
        .variable(VariableDef::new("emb", [rows, cols], Init::Normal(0.1)))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let x = g.add(Op::Gather { table: emb, ids }).unwrap();
    let loss = g.add(Op::SoftmaxXent { logits: x, labels }).unwrap();

    let machines = 4usize;
    let topo = PsTopology::uniform(machines, 1).unwrap();
    let decisions = naive_ps_decisions(&g, 1);
    let plan = Arc::new(build_plan(&g, &decisions, 1, PlacementStrategy::RoundRobin).unwrap());
    // All shards on machine 0: the asymmetric hot-server scenario.
    let (mut endpoints, traffic) = Router::build(topo.comm().clone());
    let mut by_rank: Vec<Option<parallax_comm::Endpoint>> = endpoints.drain(..).map(Some).collect();
    let touched = 8usize; // Rows touched per worker per iteration.
    std::thread::scope(|s| {
        for m in 0..machines {
            let endpoint = by_rank[topo.server_rank(m)].take().unwrap();
            let server = Server::new(
                &g,
                &plan,
                topo.clone(),
                endpoint,
                ServerConfig {
                    iterations: 1,
                    average_gradients: true,
                    local_aggregation: false,
                    synchronous: true,
                    serve_aggregates: false,
                    seed: SEED,
                    lr_schedule: LrSchedule::Constant,
                    ..ServerConfig::default()
                },
                Box::new(Sgd::new(0.1)),
            )
            .unwrap();
            if server.num_shards() > 0 {
                s.spawn(move || server.run().unwrap());
            }
        }
        for (widx, &rank) in topo.worker_ranks().iter().enumerate() {
            let endpoint = by_rank[rank].take().unwrap();
            let plan = Arc::clone(&plan);
            let topo = topo.clone();
            let g = &g;
            s.spawn(move || {
                let client = PsClient::new(plan, topo.clone());
                let local = VarStore::init(g, &mut DetRng::seed(SEED));
                let mut ctx = PsWorkerContext::new(endpoint, client, local);
                ctx.begin_iteration(0);
                let ids: Vec<usize> = (0..touched).map(|i| (widx * 13 + i) % rows).collect();
                let labels: Vec<usize> = (0..touched).map(|i| i % cols).collect();
                let feed = Feed::new().with("ids", ids).with("labels", labels);
                let session = Session::new(g);
                let acts = session.forward(&feed, &mut ctx).unwrap();
                let grads = backward(g, &acts, NodeId::from_index(g.num_nodes() - 1)).unwrap();
                let PsWorkerContext {
                    endpoint, client, ..
                } = &mut ctx;
                let grad = grads.values().next().unwrap();
                client.push(endpoint, VarId::from_index(0), grad).unwrap();
                // The chief shares machine 0 with the shard, so its
                // trigger stays off the network.
                if rank == topo.chief() {
                    client.chief_update(endpoint, VarId::from_index(0)).unwrap();
                }
                client
                    .await_update_done(endpoint, VarId::from_index(0))
                    .unwrap();
            });
        }
    });
    let _ = (emb, loss, x);
    let snap = traffic.snapshot();
    // Server machine 0 sends alpha*w to each of the other N-1 machines and
    // receives the same back: 2 * alpha*w * (N-1) total load, where
    // alpha*w = touched * cols * 4 bytes per worker.
    let alpha_w = (touched * cols * 4) as u64;
    let expected_out = alpha_w * (machines as u64 - 1);
    let measured_out = snap.out_bytes[0];
    let ratio = measured_out as f64 / expected_out as f64;
    assert!(
        (0.9..1.5).contains(&ratio),
        "server out bytes {measured_out} vs formula {expected_out} (ratio {ratio})"
    );
}

#[test]
fn a_pull_nobody_answers_keeps_its_typed_timeout() {
    use parallax_comm::CommError;
    use parallax_dataflow::{DataflowError, VarProvider};
    use parallax_ps::PsError;

    let (graph, _loss) = build_model();
    let topo = PsTopology::uniform(1, 1).unwrap();
    let decisions = naive_ps_decisions(&graph, 1);
    let plan = Arc::new(build_plan(&graph, &decisions, 1, PlacementStrategy::Balanced).unwrap());
    let (mut endpoints, _traffic) = Router::build(topo.comm().clone());
    // The server's endpoint stays open but nothing serves it, so the
    // worker's pull waits out its deadline.
    let mut endpoint = endpoints.swap_remove(topo.worker_ranks()[0]);
    endpoint.set_recv_deadline(std::time::Duration::from_millis(50));
    let client = PsClient::new(plan, topo.clone());
    let local = VarStore::empty(graph.variables().len());
    let mut ctx = PsWorkerContext::new(endpoint, client, local);
    let emb = graph.find_variable("emb").unwrap();
    let def = graph.var_def(emb).unwrap().clone();
    // The executor sees only the provider's text ...
    let err = ctx.fetch_sparse_rows(emb, &def, &[1, 2]).unwrap_err();
    assert!(matches!(err, DataflowError::Provider(_)), "{err:?}");
    // ... and the context keeps the typed cause, once.
    assert!(matches!(
        ctx.take_failed_pull(),
        Some(PsError::Comm(CommError::PeerTimeout { .. }))
    ));
    assert_eq!(ctx.take_failed_pull(), None);
}
