//! Property-based autodiff verification: random layered graphs are
//! generated from a grammar of the engine's operations, and every
//! variable's analytic gradient is checked against central differences.

use proptest::collection::vec;
use proptest::prelude::*;

use parallax_dataflow::builder::{lstm_step, lstm_weights};
use parallax_dataflow::grad::backward;
use parallax_dataflow::graph::{Init, Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, Session, VarStore, VariableDef};
use parallax_tensor::{DetRng, Tensor};

/// One randomly chosen layer in the generated network.
#[derive(Debug, Clone)]
enum LayerSpec {
    /// Linear layer to a new width, then an activation by index.
    Linear { width: usize, act: u8 },
    /// Residual self-connection through a square linear layer.
    Residual,
    /// Elementwise self-product (quadratic nonlinearity).
    Square,
    /// Split the features in half and re-concatenate through
    /// different activations.
    SplitMerge,
    /// Two chained steps of one LSTM cell over the layer input, the
    /// second starting from the first's state; emits `[h | c]`.
    Lstm { hidden: usize },
}

fn layer_strategy() -> impl Strategy<Value = LayerSpec> {
    prop_oneof![
        (2usize..5, 0u8..4).prop_map(|(width, act)| LayerSpec::Linear { width, act }),
        Just(LayerSpec::Residual),
        Just(LayerSpec::Square),
        Just(LayerSpec::SplitMerge),
        (1usize..4).prop_map(|hidden| LayerSpec::Lstm { hidden }),
    ]
}

/// Builds the random network; returns the loss node and the initial
/// LSTM state placeholders to feed, with their widths.
fn build(
    graph: &mut Graph,
    layers: &[LayerSpec],
    in_width: usize,
) -> (NodeId, Vec<(String, usize)>) {
    let x = graph.placeholder("x", PhKind::Float).expect("placeholder");
    let mut states = Vec::new();
    let mut h = x;
    let mut width = in_width;
    for (i, layer) in layers.iter().enumerate() {
        match layer {
            LayerSpec::Linear { width: out, act } => {
                let w = graph
                    .variable(VariableDef::new(
                        format!("w{i}"),
                        [width, *out],
                        Init::Glorot,
                    ))
                    .expect("variable");
                let b = graph
                    .variable(VariableDef::new(format!("b{i}"), [*out], Init::Normal(0.1)))
                    .expect("variable");
                let wr = graph.read(w).expect("read");
                let br = graph.read(b).expect("read");
                let mm = graph.add(Op::MatMul(h, wr)).expect("matmul");
                let pre = graph.add(Op::AddBias { x: mm, bias: br }).expect("bias");
                h = match act {
                    0 => pre,
                    1 => graph.add(Op::Tanh(pre)).expect("tanh"),
                    2 => graph.add(Op::Sigmoid(pre)).expect("sigmoid"),
                    _ => graph.add(Op::Relu(pre)).expect("relu"),
                };
                width = *out;
            }
            LayerSpec::Residual => {
                let w = graph
                    .variable(VariableDef::new(
                        format!("wres{i}"),
                        [width, width],
                        Init::Glorot,
                    ))
                    .expect("variable");
                let wr = graph.read(w).expect("read");
                let mm = graph.add(Op::MatMul(h, wr)).expect("matmul");
                let t = graph.add(Op::Tanh(mm)).expect("tanh");
                h = graph.add(Op::Add(h, t)).expect("add");
            }
            LayerSpec::Square => {
                h = graph.add(Op::Hadamard(h, h)).expect("hadamard");
            }
            LayerSpec::SplitMerge => {
                if width < 2 {
                    continue;
                }
                let half = width / 2;
                let a = graph
                    .add(Op::SliceCols {
                        input: h,
                        start: 0,
                        width: half,
                    })
                    .expect("slice");
                let b = graph
                    .add(Op::SliceCols {
                        input: h,
                        start: half,
                        width: width - half,
                    })
                    .expect("slice");
                let ta = graph.add(Op::Sigmoid(a)).expect("sigmoid");
                let tb = graph.add(Op::Tanh(b)).expect("tanh");
                h = graph.add(Op::ConcatCols(vec![ta, tb])).expect("concat");
            }
            LayerSpec::Lstm { hidden } => {
                let (w, b) =
                    lstm_weights(graph, &format!("lstm{i}"), width, *hidden).expect("weights");
                let h0 = graph
                    .placeholder(format!("h0_{i}"), PhKind::Float)
                    .expect("h0");
                let c0 = graph
                    .placeholder(format!("c0_{i}"), PhKind::Float)
                    .expect("c0");
                states.extend([(format!("h0_{i}"), *hidden), (format!("c0_{i}"), *hidden)]);
                let (h1, c1) = lstm_step(graph, h, h0, c0, w, b, *hidden).expect("step 1");
                let (h2, c2) = lstm_step(graph, h, h1, c1, w, b, *hidden).expect("step 2");
                h = graph.add(Op::ConcatCols(vec![h2, c2])).expect("concat");
                width = 2 * hidden;
            }
        }
    }
    let sq = graph.add(Op::Hadamard(h, h)).expect("square");
    (graph.add(Op::MeanAll(sq)).expect("loss"), states)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn random_networks_have_correct_gradients(
        layers in vec(layer_strategy(), 1..5),
        in_width in 2usize..5,
        batch in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let mut graph = Graph::new();
        let (loss, states) = build(&mut graph, &layers, in_width);
        let mut rng = DetRng::seed(seed);
        let store = VarStore::init(&graph, &mut rng);
        let mut feed = Feed::new().with("x", Tensor::randn([batch, in_width], 0.7, &mut rng));
        for (name, width) in states {
            feed = feed.with(name, Tensor::randn([batch, width], 0.5, &mut rng));
        }

        let mut run_store = store.clone();
        let acts = Session::new(&graph)
            .forward(&feed, &mut run_store)
            .expect("forward");
        prop_assert!(acts.scalar(loss).expect("loss").is_finite());
        let grads = backward(&graph, &acts, loss).expect("backward");

        // Central differences on a sample of elements of every variable.
        let eps = 1e-2f32;
        for var in graph.var_ids() {
            let Some(grad) = grads.get(&var) else { continue };
            let dense = grad.to_dense();
            let n = store.get(var).expect("value").len();
            let stride = n.div_ceil(5).max(1);
            for i in (0..n).step_by(stride) {
                let mut up = store.clone();
                up.get_mut(var).expect("value").data_mut()[i] += eps;
                let lu = Session::new(&graph)
                    .forward(&feed, &mut up)
                    .expect("forward")
                    .scalar(loss)
                    .expect("loss");
                let mut dn = store.clone();
                dn.get_mut(var).expect("value").data_mut()[i] -= eps;
                let ld = Session::new(&graph)
                    .forward(&feed, &mut dn)
                    .expect("forward")
                    .scalar(loss)
                    .expect("loss");
                let numeric = (lu - ld) / (2.0 * eps);
                let analytic = dense.data()[i];
                // Tolerance scales with the magnitudes involved; deep
                // products can amplify f32 rounding.
                let tol = 5e-2 * (1.0 + numeric.abs().max(analytic.abs()));
                prop_assert!(
                    (numeric - analytic).abs() < tol,
                    "var {var:?} elem {i}: numeric {numeric} vs analytic {analytic} \
                     (layers {layers:?})"
                );
            }
        }
    }
}
