//! Integration tests for the runner's extended features: asynchronous
//! training, optimizer selection, gradient tracing and checkpointing.

use parallax_comm::protocheck::WireKind;
use parallax_comm::tag::ReqKind;
use parallax_core::sparsity::estimate_profile;
use parallax_core::{
    checkpoint, derive_session, get_runner, shard_range, ArchChoice, OptimizerKind, ParallaxConfig,
};
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, Session, VarStore, VariableDef};
use parallax_tensor::DetRng;

const SEED: u64 = 17;
const VOCAB: usize = 16;
const CLASSES: usize = 4;

/// Embedding -> logits model (sparse + dense variables).
fn build_model() -> (Graph, NodeId) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [VOCAB, 6], Init::Normal(0.2)))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let x = g.add(Op::Gather { table: emb, ids }).unwrap();
    let (logits, _, _) = parallax_dataflow::builder::linear(
        &mut g,
        x,
        "fc",
        6,
        CLASSES,
        parallax_dataflow::builder::Act::None,
    )
    .unwrap();
    let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
    (g, loss)
}

fn fixed_feed() -> Feed {
    let ids: Vec<usize> = (0..8).map(|i| (i * 3) % VOCAB).collect();
    let labels: Vec<usize> = ids.iter().map(|&t| t % CLASSES).collect();
    Feed::new().with("ids", ids).with("labels", labels)
}

fn worker_feed(worker: usize, workers: usize) -> Feed {
    let full = fixed_feed();
    let ids = full.get("ids").unwrap().as_ids("t").unwrap().to_vec();
    let labels = full.get("labels").unwrap().as_ids("t").unwrap().to_vec();
    let r = shard_range(ids.len(), workers, worker);
    Feed::new()
        .with("ids", ids[r.clone()].to_vec())
        .with("labels", labels[r].to_vec())
}

fn profile_for(graph: &Graph) -> parallax_core::sparsity::SparsityProfile {
    estimate_profile(graph, std::slice::from_ref(&fixed_feed()), SEED).unwrap()
}

#[test]
fn async_training_converges_without_barriers() {
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    let config = ParallaxConfig {
        seed: SEED,
        learning_rate: 0.3,
        synchronous: false,
        ..ParallaxConfig::tf_ps_baseline()
    };
    let runner = get_runner(graph.clone(), loss, vec![2, 2], config, profile).unwrap();
    let report = runner.run(20, |w, _| worker_feed(w, 4)).unwrap();
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert!(
        report.losses.last().unwrap() < &(report.losses[0] * 0.9),
        "async SGD still reduces loss on a fixed batch: {:?}",
        report.losses
    );
    // Asynchrony means the final model need not match sequential SGD,
    // but it must be a valid, finite model.
    let store = report.final_store(&graph).unwrap();
    for var in graph.var_ids() {
        assert!(store.get(var).unwrap().all_finite());
    }
}

/// Asynchronous OptPS: local aggregation needs a barrier, so every
/// worker pushes its own gradient to every shard, and the live
/// protocol, validated against the derived session, agrees.
#[test]
fn async_opt_ps_pushes_per_worker_under_protocol_validation() {
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    let config = ParallaxConfig {
        seed: SEED,
        learning_rate: 0.3,
        synchronous: false,
        validate_protocol: true,
        ..ParallaxConfig::opt_ps()
    };
    let runner = get_runner(graph.clone(), loss, vec![2, 2], config.clone(), profile).unwrap();
    let topo = runner.topology();
    let spec = derive_session(&graph, &config, topo, runner.plan()).unwrap();
    assert!(!spec.events.iter().any(|e| e.kind == WireKind::LocalAgg));
    let mut shards = 0;
    for m in 0..topo.num_machines() {
        for (var, part, _) in runner.plan().plan.shards_of_machine(m) {
            let mut pushers: Vec<usize> = spec
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        WireKind::Request(ReqKind::PushDense | ReqKind::PushSparse)
                    ) && (e.to, e.var, e.part) == (topo.server_rank(m), var.index(), part)
                })
                .flat_map(|e| std::iter::repeat_n(e.from, e.sends as usize))
                .collect();
            pushers.sort_unstable();
            assert_eq!(
                pushers,
                topo.worker_ranks(),
                "var {} part {part}",
                var.index()
            );
            shards += 1;
        }
    }
    assert!(shards >= 2, "OptPS hosts the embedding and the dense layer");
    let report = runner.run(10, |w, _| worker_feed(w, 4)).unwrap();
    assert_eq!(report.losses.len(), 10);
    assert!(report.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn async_rejects_hybrid_and_allreduce_architectures() {
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    for arch in [ArchChoice::Hybrid, ArchChoice::ArOnly] {
        let config = ParallaxConfig {
            synchronous: false,
            arch,
            ..ParallaxConfig::default()
        };
        assert!(
            get_runner(graph.clone(), loss, vec![2, 2], config, profile.clone()).is_err(),
            "{arch:?} must reject async"
        );
    }
    // Tracing also requires synchrony.
    let config = ParallaxConfig {
        synchronous: false,
        trace_gradients: true,
        ..ParallaxConfig::tf_ps_baseline()
    };
    assert!(get_runner(graph, loss, vec![2, 2], config, profile).is_err());
}

/// Distributed Momentum and Adagrad must equal their sequential
/// counterparts, exercising per-slot optimizer state on servers and
/// replicas alike.
#[test]
fn momentum_and_adagrad_match_sequential() {
    for kind in [OptimizerKind::Momentum { mu: 0.9 }, OptimizerKind::Adagrad] {
        let (graph, loss) = build_model();
        let profile = profile_for(&graph);
        let iters = 5;

        // Sequential reference over the full batch.
        let mut store = VarStore::init(&graph, &mut DetRng::seed(SEED));
        let mut opt = kind.build(0.2);
        for _ in 0..iters {
            let feed = fixed_feed();
            let acts = Session::new(&graph).forward(&feed, &mut store).unwrap();
            let grads = backward(&graph, &acts, loss).unwrap();
            for (var, grad) in grads {
                opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                    .unwrap();
            }
        }

        let config = ParallaxConfig {
            seed: SEED,
            learning_rate: 0.2,
            optimizer: kind,
            ..ParallaxConfig::default()
        };
        let runner = get_runner(graph.clone(), loss, vec![2, 2], config, profile).unwrap();
        let report = runner.run(iters, |w, _| worker_feed(w, 4)).unwrap();
        let distributed = report.final_store(&graph).unwrap();
        let div = store.max_divergence(&distributed);
        assert!(div < 1e-4, "{kind:?} diverged by {div}");
    }
}

#[test]
fn gradient_tracing_reports_global_norms() {
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    let iters = 6;
    let config = ParallaxConfig {
        seed: SEED,
        learning_rate: 0.3,
        trace_gradients: true,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(graph.clone(), loss, vec![2, 2], config, profile).unwrap();
    let report = runner.run(iters, |w, _| worker_feed(w, 4)).unwrap();
    assert_eq!(report.grad_norms.len(), iters);
    assert!(report.grad_norms.iter().all(|n| n.is_finite() && *n > 0.0));

    // The traced norm must equal the norm of sequential SGD's gradient
    // over the same global batch (same synchronous semantics).
    let mut store = VarStore::init(&graph, &mut DetRng::seed(SEED));
    let acts = Session::new(&graph)
        .forward(&fixed_feed(), &mut store)
        .unwrap();
    let grads = backward(&graph, &acts, loss).unwrap();
    let expected = parallax_dataflow::grad::global_norm(&grads);
    let got = report.grad_norms[0];
    assert!(
        (got - expected).abs() < 1e-3 * expected.max(1.0),
        "traced norm {got} vs sequential {expected}"
    );
}

#[test]
fn trained_model_checkpoints_and_resumes() {
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    let config = ParallaxConfig {
        seed: SEED,
        learning_rate: 0.3,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(graph.clone(), loss, vec![2, 2], config, profile).unwrap();
    let report = runner.run(8, |w, _| worker_feed(w, 4)).unwrap();
    let store = report.final_store(&graph).unwrap();

    let mut path = std::env::temp_dir();
    path.push(format!("parallax_e2e_ckpt_{}", std::process::id()));
    let state = checkpoint::TrainState::default();
    checkpoint::save(&graph, &store, &state, &checkpoint::SlotMap::new(), &path).unwrap();
    let (mut restored, _, _) = checkpoint::load(&graph, &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(store.max_divergence(&restored), 0.0);

    // The restored model evaluates to the same loss as the live one.
    let acts = Session::new(&graph)
        .forward(&fixed_feed(), &mut restored)
        .unwrap();
    assert!(acts.scalar(loss).unwrap().is_finite());
}

/// Crash-and-resume under a *stateful* optimizer must land on exactly
/// the model an uninterrupted run produces: the checkpoint carries the
/// Momentum velocity / Adagrad accumulator for both AllReduce replicas
/// and PS server shards, so recovery replays from identical state.
#[test]
fn crash_recovery_preserves_optimizer_slots_exactly() {
    for (tag, kind) in [
        ("momentum", OptimizerKind::Momentum { mu: 0.9 }),
        ("adagrad", OptimizerKind::Adagrad),
    ] {
        let (graph, loss) = build_model();
        let profile = profile_for(&graph);
        let iters = 8;
        let mut path = std::env::temp_dir();
        path.push(format!(
            "parallax_slot_recovery_{tag}_{}",
            std::process::id()
        ));
        let config =
            |plan: parallax_fault::FaultPlan, path: Option<std::path::PathBuf>| ParallaxConfig {
                seed: SEED,
                learning_rate: 0.2,
                optimizer: kind,
                checkpoint_interval: usize::from(path.is_some()) * 2,
                checkpoint_path: path,
                fault_plan: plan,
                max_recoveries: 1,
                // Peers blocked on the killed worker give up after this
                // deadline; keep it short so detection is fast but long
                // enough that a loaded CI machine doesn't false-trigger.
                recv_deadline: Some(std::time::Duration::from_secs(2)),
                ..ParallaxConfig::default()
            };

        // Uninterrupted reference (no checkpointing, no faults).
        let reference = {
            let cfg = config(parallax_fault::FaultPlan::new(), None);
            let runner = get_runner(graph.clone(), loss, vec![2, 2], cfg, profile.clone()).unwrap();
            let report = runner.run(iters, |w, _| worker_feed(w, 4)).unwrap();
            report.final_store(&graph).unwrap()
        };

        // Kill worker rank 1 at step 5: past the step-4 checkpoint, so
        // the recovery resumes mid-run with non-trivial slot state.
        let cfg = config(
            parallax_fault::FaultPlan::new().kill_worker(1, 5),
            Some(path.clone()),
        );
        let runner = get_runner(graph.clone(), loss, vec![2, 2], cfg, profile).unwrap();
        let report = runner.run(iters, |w, _| worker_feed(w, 4)).unwrap();
        let recovered = report.final_store(&graph).unwrap();
        std::fs::remove_file(&path).ok();

        let div = reference.max_divergence(&recovered);
        assert_eq!(
            div, 0.0,
            "{kind:?}: recovered model diverged by {div} from the uninterrupted run"
        );
    }
}

/// A step-decay schedule must be applied identically on replicas (AR
/// variables) and servers (PS variables): the distributed run still
/// matches the sequential reference that applies the same schedule.
#[test]
fn lr_schedule_stays_in_lockstep_across_replicas_and_servers() {
    use parallax_dataflow::optimizer::LrSchedule;
    let (graph, loss) = build_model();
    let profile = profile_for(&graph);
    let schedule = LrSchedule::StepDecay {
        every: 2,
        factor: 0.5,
    };
    let iters = 6;
    let base = 0.4f32;

    // Sequential reference with the same schedule.
    let mut store = VarStore::init(&graph, &mut DetRng::seed(SEED));
    let mut opt = OptimizerKind::Sgd.build(base);
    for iter in 0..iters {
        opt.set_learning_rate(schedule.at(base, iter as u64));
        let feed = fixed_feed();
        let acts = Session::new(&graph).forward(&feed, &mut store).unwrap();
        let grads = backward(&graph, &acts, loss).unwrap();
        for (var, grad) in grads {
            opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                .unwrap();
        }
    }

    let config = ParallaxConfig {
        seed: SEED,
        learning_rate: base,
        lr_schedule: schedule,
        ..ParallaxConfig::default()
    };
    let runner = get_runner(graph.clone(), loss, vec![2, 2], config, profile).unwrap();
    let report = runner.run(iters, |w, _| worker_feed(w, 4)).unwrap();
    let distributed = report.final_store(&graph).unwrap();
    let div = store.max_divergence(&distributed);
    assert!(div < 1e-4, "scheduled runs diverged by {div}");
}
