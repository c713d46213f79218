//! Forward execution of a graph.

use parallax_tensor::{ops, Tensor};

use crate::graph::{Graph, NodeId, Op, PhKind};
use crate::value::{Feed, Value};
use crate::varstore::VarProvider;
use crate::{DataflowError, Result};

/// An executed forward pass: the value of every node, in node order,
/// and the `d loss / d logits` of every `SoftmaxXent` node. Forward's
/// softmax builds that gradient anyway; backward scales the kept tensor
/// instead of computing the softmax a second time, just as it
/// differentiates `Sigmoid`, `Tanh` and `SoftmaxRows` from their kept
/// outputs. Only [`Session::forward_into`] fills it, and each call
/// replaces every entry.
#[derive(Debug, Clone, Default)]
pub struct Activations {
    values: Vec<Value>,
    /// `(node, d loss / d logits)` for each `SoftmaxXent` node, in node
    /// order.
    xent_grads: Vec<(NodeId, Tensor)>,
}

impl Activations {
    /// An empty buffer, ready to be filled by [`Session::forward_into`].
    pub fn new() -> Self {
        Activations::default()
    }

    /// The value of a node.
    pub fn value(&self, id: NodeId) -> Result<&Value> {
        self.values
            .get(id.index())
            .ok_or(DataflowError::UnknownNode(id.index()))
    }

    /// The tensor value of a node.
    pub fn tensor(&self, id: NodeId) -> Result<&Tensor> {
        self.value(id)?.as_tensor("Activations::tensor")
    }

    /// The scalar value of a node.
    pub fn scalar(&self, id: NodeId) -> Result<f32> {
        Ok(self.tensor(id)?.scalar_value()?)
    }

    /// The gradient of `SoftmaxXent` node `id`'s loss with respect to
    /// its logits, as forward computed it.
    pub(crate) fn xent_grad(&self, id: NodeId) -> Result<&Tensor> {
        self.xent_grads
            .iter()
            .find(|(node, _)| *node == id)
            .map(|(_, grad)| grad)
            .ok_or(DataflowError::MissingXentGrad(id.index()))
    }

    /// Number of evaluated nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no nodes were evaluated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Trace name for an op: like [`Op::name`], but the sparse accesses the
/// paper centres on (embedding gathers) are tagged so sparse compute is
/// separable from dense compute in a timeline.
fn op_trace_name(op: &Op) -> &'static str {
    match op {
        Op::Gather { .. } => "Gather(sparse)",
        other => other.name(),
    }
}

/// Executes a graph against a [`VarProvider`].
#[derive(Debug)]
pub struct Session<'g> {
    graph: &'g Graph,
}

impl<'g> Session<'g> {
    /// Creates a session over a graph.
    pub fn new(graph: &'g Graph) -> Self {
        Session { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Runs every node of the graph in topological (insertion) order.
    ///
    /// Variable reads and gathers are routed through `provider`, so the
    /// same graph runs against local replicas or a Parameter Server.
    pub fn forward<P: VarProvider>(&self, feed: &Feed, provider: &mut P) -> Result<Activations> {
        let mut acts = Activations::new();
        self.forward_into(feed, provider, &mut acts)?;
        Ok(acts)
    }

    /// Like [`Session::forward`], but reuses `out`'s node-value buffer.
    ///
    /// Training loops run the same graph every iteration; passing one
    /// [`Activations`] across iterations keeps the per-node vector's
    /// allocation alive instead of growing a fresh one per step.
    pub fn forward_into<P: VarProvider>(
        &self,
        feed: &Feed,
        provider: &mut P,
        out: &mut Activations,
    ) -> Result<()> {
        let Activations { values, xent_grads } = out;
        values.clear();
        xent_grads.clear();
        values.reserve(self.graph.num_nodes());
        for op in self.graph.ops() {
            let _span = parallax_trace::span(parallax_trace::SpanCat::Compute, op_trace_name(op));
            let value = self.eval(op, values, xent_grads, feed, provider)?;
            values.push(value);
        }
        Ok(())
    }

    /// Evaluates `op`, the node after `values`; a `SoftmaxXent` node
    /// also appends its logits gradient to `xent_grads`.
    fn eval<P: VarProvider>(
        &self,
        op: &Op,
        values: &[Value],
        xent_grads: &mut Vec<(NodeId, Tensor)>,
        feed: &Feed,
        provider: &mut P,
    ) -> Result<Value> {
        let tensor = |id: NodeId| -> Result<&Tensor> {
            values
                .get(id.index())
                .ok_or(DataflowError::UnknownNode(id.index()))?
                .as_tensor(op.name())
        };
        let ids_of = |id: NodeId| -> Result<&[usize]> {
            values
                .get(id.index())
                .ok_or(DataflowError::UnknownNode(id.index()))?
                .as_ids(op.name())
        };
        Ok(match op {
            Op::Placeholder(ph) => {
                let def = self.graph.placeholder_def(*ph)?;
                let value = feed.get(&def.name)?;
                match (def.kind, value) {
                    (PhKind::Float, Value::Tensor(_)) | (PhKind::Ids, Value::Ids(_)) => {
                        value.clone()
                    }
                    _ => return Err(DataflowError::FeedKindMismatch(def.name.clone())),
                }
            }
            Op::Variable(var) => {
                let def = self.graph.var_def(*var)?;
                Value::Tensor(provider.fetch_dense(*var, def)?)
            }
            Op::Constant(t) => Value::Tensor(t.clone()),
            Op::MatMul(a, b) => Value::Tensor(ops::matmul(tensor(*a)?, tensor(*b)?)?),
            Op::MatMulBT(a, b) => Value::Tensor(ops::matmul_a_bt(tensor(*a)?, tensor(*b)?)?),
            Op::Add(a, b) => Value::Tensor(ops::add(tensor(*a)?, tensor(*b)?)?),
            Op::Sub(a, b) => Value::Tensor(ops::sub(tensor(*a)?, tensor(*b)?)?),
            Op::Hadamard(a, b) => Value::Tensor(ops::hadamard(tensor(*a)?, tensor(*b)?)?),
            Op::AddBias { x, bias } => Value::Tensor(ops::add_bias(tensor(*x)?, tensor(*bias)?)?),
            Op::Scale(a, f) => Value::Tensor(ops::scale(tensor(*a)?, *f)),
            Op::Sigmoid(a) => Value::Tensor(ops::sigmoid(tensor(*a)?)),
            Op::Tanh(a) => Value::Tensor(ops::tanh(tensor(*a)?)),
            Op::Relu(a) => Value::Tensor(ops::relu(tensor(*a)?)),
            Op::Gather { table, ids } => {
                let def = self.graph.var_def(*table)?;
                Value::Tensor(provider.fetch_sparse_rows(*table, def, ids_of(*ids)?)?)
            }
            Op::ConcatCols(parts) => {
                let tensors: Vec<&Tensor> =
                    parts.iter().map(|p| tensor(*p)).collect::<Result<_>>()?;
                Value::Tensor(ops::concat_cols(&tensors)?)
            }
            Op::SliceCols {
                input,
                start,
                width,
            } => {
                let t = tensor(*input)?;
                let parts =
                    ops::split_cols(t, &slice_widths(t.shape().as_matrix()?.1, *start, *width)?)?;
                Value::Tensor(parts.into_iter().nth(1).expect("middle split exists"))
            }
            Op::SliceRows { input, start, rows } => {
                Value::Tensor(tensor(*input)?.slice_rows(*start, *start + *rows)?)
            }
            Op::SoftmaxRows(a) => Value::Tensor(ops::softmax_rows(tensor(*a)?)?),
            Op::SumRowsToColumn(a) => {
                let t = tensor(*a)?;
                let rows = t.shape().as_matrix()?.0;
                Value::Tensor(ops::sum_rows(t)?.reshape([rows, 1])?)
            }
            Op::ScaleRows { x, s } => Value::Tensor(ops::scale_rows(tensor(*x)?, tensor(*s)?)?),
            Op::Reshape(a, shape) => Value::Tensor(tensor(*a)?.clone().reshape(shape.clone())?),
            Op::MeanAll(a) => Value::Tensor(ops::mean_all(tensor(*a)?)),
            Op::SoftmaxXent { logits, labels } => {
                let (loss, dlogits) =
                    ops::softmax_cross_entropy(tensor(*logits)?, ids_of(*labels)?)?;
                xent_grads.push((NodeId(values.len()), dlogits));
                Value::Tensor(Tensor::scalar(loss))
            }
        })
    }
}

/// Splits total width into `[before, slice, after]` (dropping empty parts is
/// not allowed — `split_cols` accepts zero widths).
fn slice_widths(total: usize, start: usize, width: usize) -> Result<Vec<usize>> {
    if start + width > total {
        return Err(DataflowError::Tensor(
            parallax_tensor::TensorError::IndexOutOfBounds {
                index: start + width,
                bound: total + 1,
            },
        ));
    }
    Ok(vec![start, width, total - start - width])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Init, VariableDef};
    use crate::varstore::VarStore;
    use parallax_tensor::DetRng;

    #[test]
    fn forward_linear_layer() {
        let mut g = Graph::new();
        let w = g
            .variable(VariableDef::new("w", [2, 2], Init::Const(1.0)))
            .unwrap();
        let b = g
            .variable(VariableDef::new("b", [2], Init::Const(0.5)))
            .unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let wr = g.read(w).unwrap();
        let br = g.read(b).unwrap();
        let mm = g.add(Op::MatMul(x, wr)).unwrap();
        let out = g.add(Op::AddBias { x: mm, bias: br }).unwrap();

        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new().with("x", Tensor::new([1, 2], vec![1.0, 2.0]).unwrap());
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        assert_eq!(acts.tensor(out).unwrap().data(), &[3.5, 3.5]);
    }

    #[test]
    fn forward_gather_and_xent() {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [4, 3], Init::Const(0.0)))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits: x, labels }).unwrap();

        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new()
            .with("ids", vec![1usize, 3])
            .with("labels", vec![0usize, 2]);
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        // Uniform logits of width 3 => loss = ln 3.
        assert!((acts.scalar(loss).unwrap() - 3f32.ln()).abs() < 1e-5);
    }

    /// A variable read straight into `SoftmaxXent` against two labels.
    fn xent_graph() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let v = g
            .variable(VariableDef::new("v", [2, 5], Init::Glorot))
            .unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let logits = g.read(v).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
        (g, logits, loss)
    }

    #[test]
    fn forward_keeps_the_xent_logits_gradient_bitwise() {
        let (g, logits, loss) = xent_graph();
        let mut store = VarStore::init(&g, &mut DetRng::seed(3));
        let mut acts = Activations::new();
        let feed = Feed::new().with("labels", vec![4usize, 1]);
        Session::new(&g)
            .forward_into(&feed, &mut store, &mut acts)
            .unwrap();
        let (_, dlogits) =
            ops::softmax_cross_entropy(acts.tensor(logits).unwrap(), &[4, 1]).unwrap();
        let kept = acts.xent_grad(loss).unwrap();
        assert_eq!(kept.shape(), dlogits.shape());
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(kept), bits(&dlogits));
    }

    #[test]
    fn forward_into_replaces_the_kept_xent_gradients() {
        let (g, logits, loss) = xent_graph();
        let mut store = VarStore::init(&g, &mut DetRng::seed(3));
        let mut acts = Activations::new();
        let session = Session::new(&g);
        for labels in [vec![0usize, 0], vec![2, 3]] {
            let feed = Feed::new().with("labels", labels);
            session.forward_into(&feed, &mut store, &mut acts).unwrap();
        }
        let (_, second) =
            ops::softmax_cross_entropy(acts.tensor(logits).unwrap(), &[2, 3]).unwrap();
        assert_eq!(acts.xent_grads.len(), 1, "only the second feed's entry");
        assert_eq!(acts.xent_grad(loss).unwrap(), &second);
        // A forward pass of a graph without SoftmaxXent keeps none.
        let mut plain = Graph::new();
        let x = plain.placeholder("x", PhKind::Float).unwrap();
        plain.add(Op::Sigmoid(x)).unwrap();
        let feed = Feed::new().with("x", Tensor::zeros([1, 2]));
        Session::new(&plain)
            .forward_into(&feed, &mut store, &mut acts)
            .unwrap();
        assert!(acts.xent_grads.is_empty());
    }

    #[test]
    fn slice_cols_extracts_middle() {
        let mut g = Graph::new();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        let s = g
            .add(Op::SliceCols {
                input: x,
                start: 1,
                width: 2,
            })
            .unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new().with("x", Tensor::new([1, 4], vec![10., 11., 12., 13.]).unwrap());
        let acts = Session::new(&g).forward(&feed, &mut store).unwrap();
        assert_eq!(acts.tensor(s).unwrap().data(), &[11., 12.]);
    }

    #[test]
    fn feed_kind_mismatch_detected() {
        let mut g = Graph::new();
        let _x = g.placeholder("x", PhKind::Float).unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        let feed = Feed::new().with("x", vec![1usize]);
        assert!(matches!(
            Session::new(&g).forward(&feed, &mut store),
            Err(DataflowError::FeedKindMismatch(_))
        ));
    }

    #[test]
    fn missing_feed_detected() {
        let mut g = Graph::new();
        let _x = g.placeholder("x", PhKind::Float).unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        assert!(matches!(
            Session::new(&g).forward(&Feed::new(), &mut store),
            Err(DataflowError::MissingFeed(_))
        ));
    }
}
