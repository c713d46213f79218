//! Layer-level graph construction helpers.
//!
//! The model zoo composes networks from these; they stay thin wrappers
//! around raw [`Op`]s so the transformation layer sees ordinary nodes.

use crate::graph::{Graph, Init, NodeId, Op, VarId, VariableDef};
use crate::Result;

/// Activation applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Identity.
    None,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A fully-connected layer `act(x W + b)`.
///
/// Returns the output node and the created `(weight, bias)` variables.
pub fn linear(
    g: &mut Graph,
    x: NodeId,
    name: &str,
    in_dim: usize,
    out_dim: usize,
    act: Act,
) -> Result<(NodeId, VarId, VarId)> {
    g.push_scope(name);
    let result = (|| {
        let w = g.variable(VariableDef::new(
            format!("{name}/w"),
            [in_dim, out_dim],
            Init::Glorot,
        ))?;
        let b = g.variable(VariableDef::new(
            format!("{name}/b"),
            [out_dim],
            Init::Zeros,
        ))?;
        let wr = g.read(w)?;
        let br = g.read(b)?;
        let mm = g.add(Op::MatMul(x, wr))?;
        let pre = g.add(Op::AddBias { x: mm, bias: br })?;
        let out = match act {
            Act::None => pre,
            Act::Tanh => g.add(Op::Tanh(pre))?,
            Act::Relu => g.add(Op::Relu(pre))?,
            Act::Sigmoid => g.add(Op::Sigmoid(pre))?,
        };
        Ok((out, w, b))
    })();
    g.pop_scope();
    result
}

/// Declares LSTM cell weights: a fused `[input+hidden, 4*hidden]` kernel
/// and `[4*hidden]` bias (gate order `i, f, g, o`).
pub fn lstm_weights(
    g: &mut Graph,
    name: &str,
    input_dim: usize,
    hidden: usize,
) -> Result<(VarId, VarId)> {
    let w = g.variable(VariableDef::new(
        format!("{name}/kernel"),
        [input_dim + hidden, 4 * hidden],
        Init::Glorot,
    ))?;
    let b = g.variable(VariableDef::new(
        format!("{name}/bias"),
        [4 * hidden],
        Init::Zeros,
    ))?;
    Ok((w, b))
}

/// One LSTM step: `(x_t, h_prev, c_prev) -> (h_t, c_t)` with fused weights
/// from [`lstm_weights`].
pub fn lstm_step(
    g: &mut Graph,
    x: NodeId,
    h_prev: NodeId,
    c_prev: NodeId,
    w: VarId,
    b: VarId,
    hidden: usize,
) -> Result<(NodeId, NodeId)> {
    // Scope the step's nodes by the cell's name (the kernel variable is
    // `<cell>/kernel`), so verifier diagnostics point at the right cell.
    let scope = g
        .var_def(w)
        .map(|d| d.name.trim_end_matches("/kernel").to_string())
        .unwrap_or_else(|_| "lstm".to_string());
    g.push_scope(scope);
    let result = (|| {
        let xh = g.add(Op::ConcatCols(vec![x, h_prev]))?;
        let wr = g.read(w)?;
        let br = g.read(b)?;
        let mm = g.add(Op::MatMul(xh, wr))?;
        let pre = g.add(Op::AddBias { x: mm, bias: br })?;
        let i_pre = g.add(Op::SliceCols {
            input: pre,
            start: 0,
            width: hidden,
        })?;
        let f_pre = g.add(Op::SliceCols {
            input: pre,
            start: hidden,
            width: hidden,
        })?;
        let g_pre = g.add(Op::SliceCols {
            input: pre,
            start: 2 * hidden,
            width: hidden,
        })?;
        let o_pre = g.add(Op::SliceCols {
            input: pre,
            start: 3 * hidden,
            width: hidden,
        })?;
        let i = g.add(Op::Sigmoid(i_pre))?;
        let f = g.add(Op::Sigmoid(f_pre))?;
        let g_gate = g.add(Op::Tanh(g_pre))?;
        let o = g.add(Op::Sigmoid(o_pre))?;
        let fc = g.add(Op::Hadamard(f, c_prev))?;
        let ig = g.add(Op::Hadamard(i, g_gate))?;
        let c = g.add(Op::Add(fc, ig))?;
        let c_tanh = g.add(Op::Tanh(c))?;
        let h = g.add(Op::Hadamard(o, c_tanh))?;
        Ok((h, c))
    })();
    g.pop_scope();
    result
}

/// Declares a `vocab x dim` embedding table.
pub fn embedding(g: &mut Graph, name: &str, vocab: usize, dim: usize) -> Result<VarId> {
    g.variable(VariableDef::new(name, [vocab, dim], Init::Normal(0.05)))
}

/// A residual block of two linear layers: `relu(x + f(x))`, the dense-model
/// building block standing in for ResNet's convolutions.
pub fn residual_block(
    g: &mut Graph,
    x: NodeId,
    name: &str,
    dim: usize,
    bottleneck: usize,
) -> Result<NodeId> {
    let (h, _, _) = linear(g, x, &format!("{name}/fc1"), dim, bottleneck, Act::Relu)?;
    let (f, _, _) = linear(g, h, &format!("{name}/fc2"), bottleneck, dim, Act::None)?;
    g.push_scope(name);
    let result = (|| {
        let sum = g.add(Op::Add(x, f))?;
        g.add(Op::Relu(sum))
    })();
    g.pop_scope();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Session;
    use crate::graph::PhKind;
    use crate::value::Feed;
    use crate::varstore::VarStore;
    use parallax_tensor::{DetRng, Tensor};

    #[test]
    fn linear_layer_shapes() {
        let mut g = Graph::new();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let (y, w, b) = linear(&mut g, x, "fc", 4, 3, Act::Relu).unwrap();
        assert_eq!(g.var_def(w).unwrap().shape.dims(), &[4, 3]);
        assert_eq!(g.var_def(b).unwrap().shape.dims(), &[3]);
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new().with("x", Tensor::randn([2, 4], 1.0, &mut DetRng::seed(2)));
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        assert_eq!(acts.tensor(y).unwrap().shape().dims(), &[2, 3]);
    }

    #[test]
    fn lstm_step_preserves_shapes_and_gates_bound_state() {
        let mut g = Graph::new();
        let hidden = 5;
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let h0 = g.placeholder("h0", PhKind::Float).unwrap();
        let c0 = g.placeholder("c0", PhKind::Float).unwrap();
        let (w, b) = lstm_weights(&mut g, "cell", 3, hidden).unwrap();
        let (h1, c1) = lstm_step(&mut g, x, h0, c0, w, b, hidden).unwrap();

        let mut rng = DetRng::seed(4);
        let mut store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("x", Tensor::randn([2, 3], 1.0, &mut rng))
            .with("h0", Tensor::zeros([2, hidden]))
            .with("c0", Tensor::zeros([2, hidden]));
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        let h = acts.tensor(h1).unwrap();
        let c = acts.tensor(c1).unwrap();
        assert_eq!(h.shape().dims(), &[2, hidden]);
        assert_eq!(c.shape().dims(), &[2, hidden]);
        assert!(
            h.data().iter().all(|v| v.abs() <= 1.0),
            "h is tanh*sigmoid bounded"
        );
    }

    #[test]
    fn residual_block_runs_and_keeps_width() {
        let mut g = Graph::new();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let y = residual_block(&mut g, x, "block0", 6, 3).unwrap();
        let mut rng = DetRng::seed(9);
        let mut store = VarStore::init(&g, &mut rng);
        let feed = Feed::new().with("x", Tensor::randn([4, 6], 1.0, &mut rng));
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        assert_eq!(acts.tensor(y).unwrap().shape().dims(), &[4, 6]);
    }

    #[test]
    fn embedding_is_sparse_when_gathered() {
        let mut g = Graph::new();
        let emb = embedding(&mut g, "emb", 50, 8).unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let _x = g.add(Op::Gather { table: emb, ids }).unwrap();
        assert!(g.is_sparse_variable(emb));
    }
}
