//! Reverse-mode automatic differentiation.
//!
//! Walks the graph backwards from a scalar loss node, producing one
//! gradient per variable: dense tensors for variables read whole, and
//! [`IndexedSlices`] for variables accessed through `Gather` — the exact
//! mechanism by which TensorFlow (and hence Parallax) decides a variable
//! is sparse.

use std::collections::HashMap;

use parallax_tensor::{ops, sparse::Grad, IndexedSlices, Tensor};

use crate::exec::Activations;
use crate::graph::{Graph, NodeId, Op, VarId};
use crate::{DataflowError, Result};

/// Accumulates possibly-mixed gradient contributions for one variable.
#[derive(Debug, Default)]
struct GradAcc {
    dense: Option<Tensor>,
    sparse: Vec<IndexedSlices>,
}

impl GradAcc {
    fn add_dense(&mut self, t: Tensor) -> Result<()> {
        match &mut self.dense {
            Some(acc) => {
                ops::axpy(1.0, &t, acc)?;
            }
            None => self.dense = Some(t),
        }
        Ok(())
    }

    fn add_sparse(&mut self, s: IndexedSlices) {
        self.sparse.push(s);
    }

    /// Collapses accumulated contributions into a single [`Grad`].
    ///
    /// Pure-sparse contributions stay sparse (concatenated, as TensorFlow
    /// aggregates multiple `IndexedSlices`); any dense contribution forces
    /// densification.
    fn finalize(self) -> Result<Option<Grad>> {
        match (self.dense, self.sparse.is_empty()) {
            (None, true) => Ok(None),
            (Some(d), true) => Ok(Some(Grad::Dense(d))),
            (None, false) => Ok(Some(Grad::Sparse(IndexedSlices::concat(&self.sparse)?))),
            (Some(mut d), false) => {
                for s in &self.sparse {
                    ops::axpy(1.0, &s.to_dense(), &mut d)?;
                }
                Ok(Some(Grad::Dense(d)))
            }
        }
    }
}

/// Marks every node with a variable upstream of it: a `Variable` read,
/// a `Gather`, or a node with a marked input. Only marked nodes can pass
/// a gradient on to a variable, so gradients flow only into them. One
/// forward sweep suffices because node ids are topologically ordered.
fn variable_paths(graph: &Graph, upto: NodeId) -> Result<Vec<bool>> {
    let mut marked = vec![false; graph.num_nodes()];
    for idx in 0..=upto.index() {
        let op = graph.op(NodeId(idx))?;
        marked[idx] = matches!(op, Op::Variable(_) | Op::Gather { .. })
            || op.inputs().iter().any(|i| marked[i.index()]);
    }
    Ok(marked)
}

/// Upstream gradients per node for one backward pass. Only nodes with a
/// variable upstream of them (see [`variable_paths`]) take one.
struct NodeGrads {
    slots: Vec<Option<Tensor>>,
    marked: Vec<bool>,
}

impl NodeGrads {
    /// Accumulates the gradient `grad` computes into `node`, and computes
    /// it only when `node` leads back to a variable.
    fn flow(&mut self, node: NodeId, grad: impl FnOnce() -> Result<Tensor>) -> Result<()> {
        if self.marked[node.index()] {
            let t = grad()?;
            match &mut self.slots[node.index()] {
                Some(acc) => ops::axpy(1.0, &t, acc)?,
                slot => *slot = Some(t),
            }
        }
        Ok(())
    }
}

/// Computes `d loss / d var` for every variable reachable from `loss`.
///
/// `loss` must evaluate to a single-element tensor. Variables that do not
/// influence the loss are absent from the result. Gradients are computed
/// only along paths from a variable to the loss (the I-to-C path of the
/// TensorFlow whitepaper, §4.1): inputs fed only by placeholders and
/// constants, such as a first layer's input batch, get none.
pub fn backward(graph: &Graph, acts: &Activations, loss: NodeId) -> Result<HashMap<VarId, Grad>> {
    let n = graph.num_nodes();
    if loss.index() >= n {
        return Err(DataflowError::UnknownNode(loss.index()));
    }
    let loss_tensor = acts.tensor(loss)?;
    if loss_tensor.len() != 1 {
        return Err(DataflowError::GradUnsupported(format!(
            "loss node must be scalar, has {} elements",
            loss_tensor.len()
        )));
    }

    let mut node_grads = NodeGrads {
        slots: vec![None; n],
        marked: variable_paths(graph, loss)?,
    };
    node_grads.flow(loss, || {
        Ok(Tensor::new(loss_tensor.shape().clone(), vec![1.0])?)
    })?;
    let mut var_accs: HashMap<VarId, GradAcc> = HashMap::new();

    for idx in (0..=loss.index()).rev() {
        let Some(upstream) = node_grads.slots[idx].take() else {
            continue;
        };
        let op = graph.op(NodeId(idx))?;
        let _span = parallax_trace::span(parallax_trace::SpanCat::Compute, op.name());
        match op {
            Op::Placeholder(_) | Op::Constant(_) => {}
            Op::Variable(var) => {
                var_accs.entry(*var).or_default().add_dense(upstream)?;
            }
            Op::MatMul(a, b) => {
                let av = acts.tensor(*a)?;
                let bv = acts.tensor(*b)?;
                node_grads.flow(*a, || {
                    Ok(ops::matmul_a_bt(&upstream, bv)?.reshape(av.shape().clone())?)
                })?;
                node_grads.flow(*b, || {
                    Ok(ops::matmul_at_b(av, &upstream)?.reshape(bv.shape().clone())?)
                })?;
            }
            Op::MatMulBT(a, b) => {
                // y = a b^T: da = dy b, db = dy^T a.
                let av = acts.tensor(*a)?;
                let bv = acts.tensor(*b)?;
                node_grads.flow(*a, || {
                    Ok(ops::matmul(&upstream, bv)?.reshape(av.shape().clone())?)
                })?;
                node_grads.flow(*b, || {
                    Ok(ops::matmul_at_b(&upstream, av)?.reshape(bv.shape().clone())?)
                })?;
            }
            Op::Add(a, b) => {
                node_grads.flow(*a, || Ok(upstream.clone()))?;
                node_grads.flow(*b, || Ok(upstream))?;
            }
            Op::Sub(a, b) => {
                node_grads.flow(*a, || Ok(upstream.clone()))?;
                node_grads.flow(*b, || Ok(ops::scale(&upstream, -1.0)))?;
            }
            Op::Hadamard(a, b) => {
                let av = acts.tensor(*a)?;
                let bv = acts.tensor(*b)?;
                node_grads.flow(*a, || Ok(ops::hadamard(&upstream, bv)?))?;
                node_grads.flow(*b, || Ok(ops::hadamard(&upstream, av)?))?;
            }
            Op::AddBias { x, bias } => {
                // Distinct nodes (a vector and a matrix), so the order of
                // the two accumulations cannot matter.
                node_grads.flow(*bias, || Ok(ops::sum_cols(&upstream)?))?;
                node_grads.flow(*x, || Ok(upstream))?;
            }
            Op::Scale(a, f) => {
                node_grads.flow(*a, || Ok(ops::scale(&upstream, *f)))?;
            }
            Op::Sigmoid(a) => {
                let y = acts.tensor(NodeId(idx))?;
                node_grads.flow(*a, || Ok(ops::sigmoid_grad(y, &upstream)?))?;
            }
            Op::Tanh(a) => {
                let y = acts.tensor(NodeId(idx))?;
                node_grads.flow(*a, || Ok(ops::tanh_grad(y, &upstream)?))?;
            }
            Op::Relu(a) => {
                let x = acts.tensor(*a)?;
                node_grads.flow(*a, || Ok(ops::relu_grad(x, &upstream)?))?;
            }
            Op::Gather { table, ids } => {
                let id_list = acts.value(*ids)?.as_ids("Gather grad")?;
                let rows = graph.var_def(*table)?.shape.dim(0);
                let slices = IndexedSlices::new(id_list.to_vec(), upstream, rows)?;
                var_accs.entry(*table).or_default().add_sparse(slices);
            }
            Op::ConcatCols(parts) => {
                let widths: Vec<usize> = parts
                    .iter()
                    .map(|p| Ok(acts.tensor(*p)?.shape().as_matrix()?.1))
                    .collect::<Result<_>>()?;
                let split = ops::split_cols(&upstream, &widths)?;
                for (part, d) in parts.iter().zip(split) {
                    node_grads.flow(*part, || {
                        Ok(d.reshape(acts.tensor(*part)?.shape().clone())?)
                    })?;
                }
            }
            Op::SliceCols {
                input,
                start,
                width,
            } => {
                let iv = acts.tensor(*input)?;
                let (rows, cols) = iv.shape().as_matrix()?;
                let mut d = Tensor::zeros([rows, cols]);
                for r in 0..rows {
                    let src = &upstream.data()[r * width..(r + 1) * width];
                    let dst = &mut d.data_mut()[r * cols + start..r * cols + start + width];
                    dst.copy_from_slice(src);
                }
                node_grads.flow(*input, || Ok(d.reshape(iv.shape().clone())?))?;
            }
            Op::SliceRows { input, start, rows } => {
                let iv = acts.tensor(*input)?;
                let (in_rows, cols) = iv.shape().as_matrix()?;
                let mut d = Tensor::zeros([in_rows, cols]);
                let dst = &mut d.data_mut()[start * cols..(start + rows) * cols];
                dst.copy_from_slice(upstream.data());
                node_grads.flow(*input, || Ok(d.reshape(iv.shape().clone())?))?;
            }
            Op::SoftmaxRows(a) => {
                // dsoftmax: dx = y * (dy - rowsum(dy * y)), using the
                // cached output y.
                let y = acts.tensor(NodeId(idx))?;
                let prod = ops::hadamard(&upstream, y)?;
                let row_sums = ops::sum_rows(&prod)?;
                let (rows, cols) = y.shape().as_matrix()?;
                let mut dx = Tensor::zeros([rows, cols]);
                for r in 0..rows {
                    let rs = row_sums.data()[r];
                    for c in 0..cols {
                        let i = r * cols + c;
                        dx.data_mut()[i] = y.data()[i] * (upstream.data()[i] - rs);
                    }
                }
                node_grads.flow(*a, || Ok(dx.reshape(y.shape().clone())?))?;
            }
            Op::SumRowsToColumn(a) => {
                // dy is [rows, 1]; broadcast each row's scalar across the
                // input's columns.
                let av = acts.tensor(*a)?;
                let (rows, cols) = av.shape().as_matrix()?;
                let mut d = Tensor::zeros([rows, cols]);
                for r in 0..rows {
                    let g = upstream.data()[r];
                    for c in 0..cols {
                        d.data_mut()[r * cols + c] = g;
                    }
                }
                node_grads.flow(*a, || Ok(d.reshape(av.shape().clone())?))?;
            }
            Op::ScaleRows { x, s } => {
                let xv = acts.tensor(*x)?;
                let sv = acts.tensor(*s)?;
                // dx = dy scaled by s rows; ds[r] = sum_c dy[r,c] * x[r,c].
                node_grads.flow(*x, || Ok(ops::scale_rows(&upstream, sv)?))?;
                node_grads.flow(*s, || {
                    Ok(ops::sum_rows(&ops::hadamard(&upstream, xv)?)?
                        .reshape(sv.shape().clone())?)
                })?;
            }
            Op::Reshape(a, _) => {
                let av = acts.tensor(*a)?;
                node_grads.flow(*a, || Ok(upstream.reshape(av.shape().clone())?))?;
            }
            Op::MeanAll(a) => {
                let av = acts.tensor(*a)?;
                let g = upstream.scalar_value()? / av.len() as f32;
                node_grads.flow(*a, || Ok(Tensor::full(av.shape().clone(), g)))?;
            }
            Op::SoftmaxXent { logits, .. } => {
                let dlogits = acts.xent_grad(NodeId(idx))?;
                let g = upstream.scalar_value()?;
                node_grads.flow(*logits, || Ok(ops::scale(dlogits, g)))?;
            }
        }
    }

    let mut out = HashMap::new();
    for (var, acc) in var_accs {
        if let Some(grad) = acc.finalize()? {
            out.insert(var, grad);
        }
    }
    Ok(out)
}

/// The global L2 norm over a set of gradients — the quantity workers need
/// aggregated gradients for when clipping (Section 5).
pub fn global_norm(grads: &HashMap<VarId, Grad>) -> f32 {
    let sq: f32 = grads
        .values()
        .map(|g| match g {
            Grad::Dense(t) => t.data().iter().map(|x| x * x).sum::<f32>(),
            Grad::Sparse(s) => s.values().data().iter().map(|x| x * x).sum::<f32>(),
        })
        .sum();
    sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Session;
    use crate::graph::{Init, PhKind, VariableDef};
    use crate::value::Feed;
    use crate::varstore::VarStore;
    use parallax_tensor::DetRng;

    /// Numerically checks `d loss / d theta` for every variable element.
    fn check_numeric(graph: &Graph, store: &VarStore, feed: &Feed, loss: NodeId, tol: f32) {
        let session = Session::new(graph);
        let mut base = store.clone();
        let acts = session.forward(feed, &mut base).unwrap();
        let grads = backward(graph, &acts, loss).unwrap();
        let eps = 1e-2f32;
        for var in graph.var_ids() {
            let Some(grad) = grads.get(&var) else {
                continue;
            };
            let dense = grad.to_dense();
            let n = store.get(var).unwrap().len();
            for i in (0..n).step_by(n.div_ceil(7).max(1)) {
                let mut up = store.clone();
                up.get_mut(var).unwrap().data_mut()[i] += eps;
                let lu = Session::new(graph)
                    .forward(feed, &mut up)
                    .unwrap()
                    .scalar(loss)
                    .unwrap();
                let mut dn = store.clone();
                dn.get_mut(var).unwrap().data_mut()[i] -= eps;
                let ld = Session::new(graph)
                    .forward(feed, &mut dn)
                    .unwrap()
                    .scalar(loss)
                    .unwrap();
                let numeric = (lu - ld) / (2.0 * eps);
                let analytic = dense.data()[i];
                assert!(
                    (numeric - analytic).abs() < tol,
                    "var {var:?} elem {i}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn linear_regression_gradients_match_numeric() {
        let mut g = Graph::new();
        let w = g
            .variable(VariableDef::new("w", [3, 2], Init::Glorot))
            .unwrap();
        let b = g.variable(VariableDef::new("b", [2], Init::Zeros)).unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let y = g.placeholder("y", PhKind::Float).unwrap();
        let wr = g.read(w).unwrap();
        let br = g.read(b).unwrap();
        let mm = g.add(Op::MatMul(x, wr)).unwrap();
        let pred = g.add(Op::AddBias { x: mm, bias: br }).unwrap();
        let diff = g.add(Op::Sub(pred, y)).unwrap();
        let sq = g.add(Op::Hadamard(diff, diff)).unwrap();
        let loss = g.add(Op::MeanAll(sq)).unwrap();

        let mut rng = DetRng::seed(3);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("x", Tensor::randn([4, 3], 1.0, &mut rng))
            .with("y", Tensor::randn([4, 2], 1.0, &mut rng));
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn mlp_with_activations_gradients_match_numeric() {
        let mut g = Graph::new();
        let w1 = g
            .variable(VariableDef::new("w1", [4, 5], Init::Glorot))
            .unwrap();
        let w2 = g
            .variable(VariableDef::new("w2", [5, 3], Init::Glorot))
            .unwrap();
        let b1 = g
            .variable(VariableDef::new("b1", [5], Init::Zeros))
            .unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let w1r = g.read(w1).unwrap();
        let b1r = g.read(b1).unwrap();
        let h_pre = g.add(Op::MatMul(x, w1r)).unwrap();
        let h_bias = g
            .add(Op::AddBias {
                x: h_pre,
                bias: b1r,
            })
            .unwrap();
        let h = g.add(Op::Tanh(h_bias)).unwrap();
        let w2r = g.read(w2).unwrap();
        let logits = g.add(Op::MatMul(h, w2r)).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();

        let mut rng = DetRng::seed(5);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("x", Tensor::randn([3, 4], 1.0, &mut rng))
            .with("labels", vec![0usize, 2, 1]);
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn gather_yields_sparse_gradient() {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [6, 3], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits: x, labels }).unwrap();

        let mut rng = DetRng::seed(5);
        let mut store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("ids", vec![1usize, 4, 1])
            .with("labels", vec![0usize, 1, 2]);
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        let grads = backward(&g, &acts, loss).unwrap();
        let grad = grads.get(&emb).unwrap();
        match grad {
            Grad::Sparse(s) => {
                assert_eq!(s.indices(), &[1, 4, 1]);
                assert_eq!(s.dense_rows(), 6);
            }
            Grad::Dense(_) => panic!("embedding gradient must be sparse"),
        }
        // Sparse gradient must also be numerically correct.
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn concat_slice_paths_differentiate() {
        let mut g = Graph::new();
        let w = g
            .variable(VariableDef::new("w", [2, 4], Init::Glorot))
            .unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let wr = g.read(w).unwrap();
        let h = g.add(Op::MatMul(x, wr)).unwrap();
        let s1 = g
            .add(Op::SliceCols {
                input: h,
                start: 0,
                width: 2,
            })
            .unwrap();
        let s2 = g
            .add(Op::SliceCols {
                input: h,
                start: 2,
                width: 2,
            })
            .unwrap();
        let t1 = g.add(Op::Sigmoid(s1)).unwrap();
        let t2 = g.add(Op::Tanh(s2)).unwrap();
        let cat = g.add(Op::ConcatCols(vec![t1, t2])).unwrap();
        let prod = g.add(Op::Hadamard(cat, cat)).unwrap();
        let loss = g.add(Op::MeanAll(prod)).unwrap();

        let mut rng = DetRng::seed(8);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new().with("x", Tensor::randn([3, 2], 1.0, &mut rng));
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn matmul_bt_gradient_matches_numeric() {
        // Sampled-softmax shape: hidden states scored against gathered
        // embedding rows.
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [6, 3], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [2, 3], Init::Glorot))
            .unwrap();
        let cands = g.placeholder("cands", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let wr = g.read(w).unwrap();
        let h = g.add(Op::MatMul(x, wr)).unwrap();
        let rows = g
            .add(Op::Gather {
                table: emb,
                ids: cands,
            })
            .unwrap();
        let logits = g.add(Op::MatMulBT(h, rows)).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();

        let mut rng = DetRng::seed(13);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("x", Tensor::randn([2, 2], 1.0, &mut rng))
            .with("cands", vec![0usize, 3, 5])
            .with("labels", vec![1usize, 2]);
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn slice_rows_gradient_matches_numeric() {
        // Single gather feeding per-timestep row slices, the LM pattern.
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [8, 3], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let t0 = g
            .add(Op::SliceRows {
                input: x,
                start: 0,
                rows: 2,
            })
            .unwrap();
        let t1 = g
            .add(Op::SliceRows {
                input: x,
                start: 2,
                rows: 2,
            })
            .unwrap();
        let both = g.add(Op::Add(t0, t1)).unwrap();
        let loss = g
            .add(Op::SoftmaxXent {
                logits: both,
                labels,
            })
            .unwrap();

        let mut rng = DetRng::seed(21);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new()
            .with("ids", vec![1usize, 5, 1, 7])
            .with("labels", vec![0usize, 2]);
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn attention_ops_gradients_match_numeric() {
        // SoftmaxRows + ScaleRows + Reshape composed as an attention
        // read-out: weights = softmax(scores), context = sum_t w_t * h_t.
        let mut g = Graph::new();
        let w = g
            .variable(VariableDef::new("w", [3, 2], Init::Glorot))
            .unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let wr = g.read(w).unwrap();
        let scores = g.add(Op::MatMul(x, wr)).unwrap();
        let weights = g.add(Op::SoftmaxRows(scores)).unwrap();
        let w0 = g
            .add(Op::SliceCols {
                input: weights,
                start: 0,
                width: 1,
            })
            .unwrap();
        let scaled = g.add(Op::ScaleRows { x, s: w0 }).unwrap();
        let flat = g
            .add(Op::Reshape(scaled, parallax_tensor::Shape::from([2, 3])))
            .unwrap();
        let sq = g.add(Op::Hadamard(flat, flat)).unwrap();
        let loss = g.add(Op::MeanAll(sq)).unwrap();

        let mut rng = DetRng::seed(31);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new().with("x", Tensor::randn([2, 3], 0.8, &mut rng));
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn softmax_rows_gradient_matches_numeric_via_variable() {
        let mut g = Graph::new();
        let v = g
            .variable(VariableDef::new("v", [2, 4], Init::Glorot))
            .unwrap();
        let vr = g.read(v).unwrap();
        let sm = g.add(Op::SoftmaxRows(vr)).unwrap();
        let t = g.add(Op::Tanh(sm)).unwrap();
        let sq = g.add(Op::Hadamard(t, t)).unwrap();
        let loss = g.add(Op::MeanAll(sq)).unwrap();
        let mut rng = DetRng::seed(37);
        let store = VarStore::init(&g, &mut rng);
        let feed = Feed::new();
        check_numeric(&g, &store, &feed, loss, 2e-2);
    }

    #[test]
    fn xent_gradient_is_the_forward_gradient_scaled() {
        // The logits are a variable read, so the variable's gradient is
        // exactly SoftmaxXent's logits gradient, at upstream 0.25.
        let mut g = Graph::new();
        let v = g
            .variable(VariableDef::new("v", [3, 4], Init::Glorot))
            .unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let logits = g.read(v).unwrap();
        let xent = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
        let loss = g.add(Op::Scale(xent, 0.25)).unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(41));
        let feed = Feed::new().with("labels", vec![3usize, 0, 2]);
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        let grads = backward(&g, &acts, loss).unwrap();
        let (_, dlogits) =
            ops::softmax_cross_entropy(acts.tensor(logits).unwrap(), &[3, 0, 2]).unwrap();
        let want = ops::scale(&dlogits, 0.25);
        let got = grads[&v].to_dense();
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn backward_without_a_kept_xent_gradient_is_a_typed_error() {
        // Two graphs alike up to their loss node: the activations of
        // the one ending in MeanAll hold no SoftmaxXent gradient for the
        // other's loss node.
        let build = |xent: bool| {
            let mut g = Graph::new();
            let v = g
                .variable(VariableDef::new("v", [2, 3], Init::Glorot))
                .unwrap();
            let labels = g.placeholder("labels", PhKind::Ids).unwrap();
            let logits = g.read(v).unwrap();
            let loss = if xent {
                g.add(Op::SoftmaxXent { logits, labels }).unwrap()
            } else {
                g.add(Op::MeanAll(logits)).unwrap()
            };
            (g, loss)
        };
        let (xent_graph, loss) = build(true);
        let (mean_graph, _) = build(false);
        let mut store = VarStore::init(&mean_graph, &mut DetRng::seed(2));
        let feed = Feed::new().with("labels", vec![0usize, 1]);
        let acts = Session::new(&mean_graph)
            .forward(&feed, &mut store)
            .unwrap();
        assert_eq!(
            backward(&xent_graph, &acts, loss).unwrap_err(),
            DataflowError::MissingXentGrad(loss.index())
        );
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let mut g = Graph::new();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let y = g.add(Op::Sigmoid(x)).unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new().with("x", Tensor::zeros([2, 2]));
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        assert!(matches!(
            backward(&g, &acts, y),
            Err(DataflowError::GradUnsupported(_))
        ));
    }

    #[test]
    fn global_norm_is_l2_over_every_gradient() {
        let mut grads: HashMap<VarId, Grad> = HashMap::new();
        grads.insert(VarId(0), Grad::Dense(Tensor::full([4], 3.0)));
        assert!((global_norm(&grads) - 6.0).abs() < 1e-5);
    }
}
