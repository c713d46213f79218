//! Per-op compute spans: the executor records one span per graph node,
//! sparse gathers are tagged, and the backward pass records spans too —
//! but only for nodes on a path from a variable to the loss.
//!
//! The tracer is process-global, so this test lives in its own
//! integration-test binary.

use parallax_dataflow::exec::Session;
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Graph, Init, Op, PhKind, VariableDef};
use parallax_dataflow::value::Feed;
use parallax_dataflow::varstore::VarStore;
use parallax_tensor::sparse::Grad;
use parallax_tensor::{ops, DetRng, Tensor};
use parallax_trace::{SpanCat, TraceConfig};

/// The tracer is process-global and the test harness runs tests on
/// concurrent threads; serialize them so drains don't interleave.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn gather_loss_graph() -> (Graph, parallax_dataflow::graph::NodeId) {
    let mut g = Graph::new();
    let emb = g
        .variable(VariableDef::new("emb", [4, 3], Init::Const(0.0)))
        .unwrap();
    let w = g
        .variable(VariableDef::new("w", [3, 3], Init::Const(1.0)))
        .unwrap();
    let ids = g.placeholder("ids", PhKind::Ids).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let x = g.add(Op::Gather { table: emb, ids }).unwrap();
    let wr = g.read(w).unwrap();
    let h = g.add(Op::MatMul(x, wr)).unwrap();
    let loss = g.add(Op::SoftmaxXent { logits: h, labels }).unwrap();
    (g, loss)
}

#[test]
fn forward_and_backward_record_per_op_spans() {
    let _l = test_lock();
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();

    let (g, loss) = gather_loss_graph();
    let mut store = VarStore::init(&g, &mut DetRng::seed(1));
    let feed = Feed::new()
        .with("ids", vec![1usize, 3])
        .with("labels", vec![0usize, 2]);
    let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
    let grads = backward(&g, &acts, loss).unwrap();
    assert!(!grads.is_empty());

    let dump = parallax_trace::drain();
    parallax_trace::disable();

    assert!(dump.records.iter().all(|r| r.cat == SpanCat::Compute));
    // Forward: one span per graph node, in execution order.
    let names: Vec<&str> = dump.records.iter().map(|r| r.name).collect();
    assert!(names.contains(&"Gather(sparse)"), "sparse ops are tagged");
    assert!(names.contains(&"MatMul"));
    assert!(names.contains(&"SoftmaxXent"));
    let forward_spans = g.num_nodes();
    assert!(
        dump.records.len() > forward_spans,
        "backward must add spans on top of the {} forward ones, got {}",
        forward_spans,
        dump.records.len()
    );
    // Compute spans carry no network bytes.
    assert_eq!(dump.total_span_bytes(), 0);
}

/// A branch fed only by a placeholder and a constant joins the loss;
/// backward differentiates only the variable's path, so none of that
/// branch's nodes records a backward span, and the variable's gradient
/// is still exactly `x^T * dlogits`.
#[test]
fn backward_skips_branches_without_variables() {
    let _l = test_lock();
    let mut g = Graph::new();
    let w = g
        .variable(VariableDef::new("w", [3, 3], Init::Normal(1.0)))
        .unwrap();
    let x = g.placeholder("x", PhKind::Float).unwrap();
    let labels = g.placeholder("labels", PhKind::Ids).unwrap();
    let wr = g.read(w).unwrap();
    let h = g.add(Op::MatMul(x, wr)).unwrap();
    let k = g.constant(Tensor::full([3, 3], 0.25)).unwrap();
    let side_mm = g.add(Op::MatMul(x, k)).unwrap();
    let side = g.add(Op::Tanh(side_mm)).unwrap();
    let logits = g.add(Op::Add(h, side)).unwrap();
    let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();

    let mut rng = DetRng::seed(3);
    let mut store = VarStore::init(&g, &mut rng);
    let xv = Tensor::randn([2, 3], 1.0, &mut rng);
    let feed = Feed::new()
        .with("x", xv.clone())
        .with("labels", vec![0usize, 2]);
    let acts = Session::new(&g).forward(&feed, &mut store).unwrap();

    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();
    let grads = backward(&g, &acts, loss).unwrap();
    let dump = parallax_trace::drain();
    parallax_trace::disable();

    // The variable's path only: SoftmaxXent, Add, MatMul, Variable.
    let mut names: Vec<&str> = dump.records.iter().map(|r| r.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["Add", "MatMul", "SoftmaxXent", "Variable"]);

    let (_, dlogits) = ops::softmax_cross_entropy(acts.tensor(logits).unwrap(), &[0, 2]).unwrap();
    let expect = ops::matmul_at_b(&xv, &dlogits).unwrap();
    match grads.get(&w) {
        Some(Grad::Dense(dw)) => {
            assert_eq!(dw.shape(), expect.shape());
            assert!(dw
                .data()
                .iter()
                .zip(expect.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        other => panic!("expected a dense gradient for w, got {other:?}"),
    }
    assert_eq!(grads.len(), 1);
}

#[test]
fn disabled_tracer_records_nothing_for_forward() {
    let _l = test_lock();
    parallax_trace::disable();
    let (g, _loss) = gather_loss_graph();
    let mut store = VarStore::init(&g, &mut DetRng::seed(1));
    let feed = Feed::new()
        .with("ids", vec![1usize, 3])
        .with("labels", vec![0usize, 2]);
    let _ = Session::new(&g).forward(&feed, &mut store).unwrap();
    parallax_trace::configure(TraceConfig::on());
    let dump = parallax_trace::drain();
    parallax_trace::disable();
    assert!(dump.records.is_empty());
}

#[test]
fn forward_values_identical_with_and_without_tracing() {
    let _l = test_lock();
    let (g, loss) = gather_loss_graph();
    let feed = Feed::new()
        .with("ids", vec![2usize, 0])
        .with("labels", vec![1usize, 1]);

    parallax_trace::disable();
    let mut store = VarStore::init(&g, &mut DetRng::seed(7));
    let base = Session::new(&g).forward(&feed, &mut store).unwrap();

    parallax_trace::configure(TraceConfig::on());
    let mut store2 = VarStore::init(&g, &mut DetRng::seed(7));
    let traced = Session::new(&g).forward(&feed, &mut store2).unwrap();
    parallax_trace::reset();
    parallax_trace::disable();

    assert_eq!(
        base.scalar(loss).unwrap().to_bits(),
        traced.scalar(loss).unwrap().to_bits(),
        "tracing must not perturb computed values"
    );
    let _ = Tensor::zeros([1]); // keep tensor import exercised
}
