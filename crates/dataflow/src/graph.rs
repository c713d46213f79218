//! Computation-graph structure: nodes, operations, variables, placeholders.
//!
//! Nodes may only reference previously inserted nodes, so a `Graph` is
//! acyclic by construction and insertion order is a valid topological
//! order — the executor exploits this.

use parallax_tensor::{Shape, Tensor};

use crate::{DataflowError, Result};

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in insertion (topological) order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a `NodeId` from a dense index into a graph's node table.
    /// Lookups with indices not valid for the target graph fail with
    /// [`crate::DataflowError::UnknownNode`].
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

/// Identifier of a variable within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a `VarId` from a dense index into a graph's variable table.
    /// The caller is responsible for the index being valid for the graph
    /// it is used with; lookups with stale ids fail with
    /// [`crate::DataflowError::UnknownVariable`].
    pub fn from_index(index: usize) -> Self {
        VarId(index)
    }
}

/// Identifier of a placeholder within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhId(pub(crate) usize);

impl PhId {
    /// The placeholder's index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The kind of value a placeholder accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhKind {
    /// A dense float tensor.
    Float,
    /// An integer index list (token ids, labels, gather indices).
    Ids,
}

/// A placeholder declaration.
#[derive(Debug, Clone)]
pub struct PlaceholderDef {
    /// Feed-dictionary key.
    pub name: String,
    /// Accepted value kind.
    pub kind: PhKind,
}

/// Weight initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// A constant fill.
    Const(f32),
    /// i.i.d. normal with the given standard deviation.
    Normal(f32),
    /// Glorot/Xavier uniform.
    Glorot,
}

/// A trainable variable declaration.
#[derive(Debug, Clone)]
pub struct VariableDef {
    /// Human-readable unique name.
    pub name: String,
    /// Dense shape of the full variable.
    pub shape: Shape,
    /// Initialization scheme.
    pub init: Init,
}

impl VariableDef {
    /// Convenience constructor for an unpartitioned variable.
    pub fn new(name: impl Into<String>, shape: impl Into<Shape>, init: Init) -> Self {
        VariableDef {
            name: name.into(),
            shape: shape.into(),
            init,
        }
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.volume()
    }

    /// Size in bytes when dense on the wire.
    pub fn byte_size(&self) -> u64 {
        (self.num_elements() * std::mem::size_of::<f32>()) as u64
    }
}

/// A graph operation. Inputs are [`NodeId`]s of previously added nodes.
#[derive(Debug, Clone)]
pub enum Op {
    /// Runtime input fed by name.
    Placeholder(PhId),
    /// Reads the full (dense) value of a variable.
    Variable(VarId),
    /// A compile-time constant.
    Constant(Tensor),
    /// Matrix product `lhs * rhs`.
    MatMul(NodeId, NodeId),
    /// Matrix product against a transpose, `lhs * rhs^T` — used by
    /// sampled softmax to score hidden states against gathered
    /// embedding rows without materializing a transpose.
    MatMulBT(NodeId, NodeId),
    /// Elementwise sum.
    Add(NodeId, NodeId),
    /// Elementwise difference.
    Sub(NodeId, NodeId),
    /// Elementwise product.
    Hadamard(NodeId, NodeId),
    /// Adds a bias row-vector to every row.
    AddBias {
        /// The matrix input.
        x: NodeId,
        /// The bias vector input.
        bias: NodeId,
    },
    /// Multiplies by a static constant.
    Scale(NodeId, f32),
    /// Logistic sigmoid.
    Sigmoid(NodeId),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// Rectified linear unit.
    Relu(NodeId),
    /// Sparse row lookup into a variable; the op that makes a variable's
    /// gradient an `IndexedSlices` and hence the variable *sparse*.
    Gather {
        /// The embedding-like variable.
        table: VarId,
        /// Node producing the row ids (an `Ids` placeholder, usually).
        ids: NodeId,
    },
    /// Horizontal concatenation of matrices.
    ConcatCols(Vec<NodeId>),
    /// Extracts columns `[start, start+width)`.
    SliceCols {
        /// Input matrix.
        input: NodeId,
        /// First column.
        start: usize,
        /// Number of columns.
        width: usize,
    },
    /// Extracts rows `[start, start+rows)` — used to cut per-timestep
    /// blocks out of a single batched embedding lookup.
    SliceRows {
        /// Input matrix.
        input: NodeId,
        /// First row.
        start: usize,
        /// Number of rows.
        rows: usize,
    },
    /// Row-wise softmax of a matrix (attention weights).
    SoftmaxRows(NodeId),
    /// Sums each row into a `[rows, 1]` column (attention scores from
    /// elementwise products).
    SumRowsToColumn(NodeId),
    /// Scales each row of `x` by the matching entry of a `[rows, 1]`
    /// column `s` (the broadcast used by attention read-out).
    ScaleRows {
        /// The matrix input.
        x: NodeId,
        /// The `[rows, 1]` scaling column.
        s: NodeId,
    },
    /// Reinterprets a tensor with a new shape of equal volume.
    Reshape(NodeId, Shape),
    /// Mean over all elements (scalar output).
    MeanAll(NodeId),
    /// Fused softmax + cross-entropy against integer labels (scalar mean
    /// loss output).
    SoftmaxXent {
        /// Logits matrix.
        logits: NodeId,
        /// Node producing integer labels.
        labels: NodeId,
    },
}

impl Op {
    /// The node inputs of this operation.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Placeholder(_) | Op::Variable(_) | Op::Constant(_) => vec![],
            Op::MatMul(a, b)
            | Op::MatMulBT(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b) => {
                vec![*a, *b]
            }
            Op::AddBias { x, bias } => vec![*x, *bias],
            Op::Scale(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::MeanAll(a)
            | Op::SoftmaxRows(a)
            | Op::SumRowsToColumn(a)
            | Op::Reshape(a, _) => {
                vec![*a]
            }
            Op::ScaleRows { x, s } => vec![*x, *s],
            Op::Gather { ids, .. } => vec![*ids],
            Op::ConcatCols(nodes) => nodes.clone(),
            Op::SliceCols { input, .. } | Op::SliceRows { input, .. } => vec![*input],
            Op::SoftmaxXent { logits, labels } => vec![*logits, *labels],
        }
    }

    /// Short operation name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Placeholder(_) => "Placeholder",
            Op::Variable(_) => "Variable",
            Op::Constant(_) => "Constant",
            Op::MatMul(..) => "MatMul",
            Op::MatMulBT(..) => "MatMulBT",
            Op::Add(..) => "Add",
            Op::Sub(..) => "Sub",
            Op::Hadamard(..) => "Hadamard",
            Op::AddBias { .. } => "AddBias",
            Op::Scale(..) => "Scale",
            Op::Sigmoid(_) => "Sigmoid",
            Op::Tanh(_) => "Tanh",
            Op::Relu(_) => "Relu",
            Op::Gather { .. } => "Gather",
            Op::ConcatCols(_) => "ConcatCols",
            Op::SliceCols { .. } => "SliceCols",
            Op::SliceRows { .. } => "SliceRows",
            Op::SoftmaxRows(_) => "SoftmaxRows",
            Op::SumRowsToColumn(_) => "SumRowsToColumn",
            Op::ScaleRows { .. } => "ScaleRows",
            Op::Reshape(..) => "Reshape",
            Op::MeanAll(_) => "MeanAll",
            Op::SoftmaxXent { .. } => "SoftmaxXent",
        }
    }
}

/// Clones `op` with every node input rewritten through `map` (old node
/// index → id in the sliced graph). Exhaustive over [`Op`] so a new
/// variant cannot silently ship with a broken inference slice.
/// `Placeholder` is handled by the caller (it must be re-declared, not
/// remapped).
fn remap_op(op: &Op, map: &[Option<NodeId>]) -> Result<Op> {
    let m = |id: &NodeId| -> Result<NodeId> {
        map.get(id.0)
            .copied()
            .flatten()
            .ok_or(DataflowError::UnknownNode(id.0))
    };
    Ok(match op {
        Op::Placeholder(_) => {
            return Err(DataflowError::InvalidGraph(
                "placeholders are re-declared, not remapped".into(),
            ))
        }
        Op::Variable(v) => Op::Variable(*v),
        Op::Constant(t) => Op::Constant(t.clone()),
        Op::MatMul(a, b) => Op::MatMul(m(a)?, m(b)?),
        Op::MatMulBT(a, b) => Op::MatMulBT(m(a)?, m(b)?),
        Op::Add(a, b) => Op::Add(m(a)?, m(b)?),
        Op::Sub(a, b) => Op::Sub(m(a)?, m(b)?),
        Op::Hadamard(a, b) => Op::Hadamard(m(a)?, m(b)?),
        Op::AddBias { x, bias } => Op::AddBias {
            x: m(x)?,
            bias: m(bias)?,
        },
        Op::Scale(a, f) => Op::Scale(m(a)?, *f),
        Op::Sigmoid(a) => Op::Sigmoid(m(a)?),
        Op::Tanh(a) => Op::Tanh(m(a)?),
        Op::Relu(a) => Op::Relu(m(a)?),
        Op::Gather { table, ids } => Op::Gather {
            table: *table,
            ids: m(ids)?,
        },
        Op::ConcatCols(parts) => Op::ConcatCols(parts.iter().map(&m).collect::<Result<_>>()?),
        Op::SliceCols {
            input,
            start,
            width,
        } => Op::SliceCols {
            input: m(input)?,
            start: *start,
            width: *width,
        },
        Op::SliceRows { input, start, rows } => Op::SliceRows {
            input: m(input)?,
            start: *start,
            rows: *rows,
        },
        Op::SoftmaxRows(a) => Op::SoftmaxRows(m(a)?),
        Op::SumRowsToColumn(a) => Op::SumRowsToColumn(m(a)?),
        Op::ScaleRows { x, s } => Op::ScaleRows { x: m(x)?, s: m(s)? },
        Op::Reshape(a, shape) => Op::Reshape(m(a)?, shape.clone()),
        Op::MeanAll(a) => Op::MeanAll(m(a)?),
        Op::SoftmaxXent { logits, labels } => Op::SoftmaxXent {
            logits: m(logits)?,
            labels: m(labels)?,
        },
    })
}

/// A single-device computation graph, the input to Parallax's transformer.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Op>,
    /// Builder provenance per node: the scope path active when the node
    /// was added (empty outside any scope). Parallel to `nodes`.
    origins: Vec<String>,
    /// The currently open provenance scopes (see [`Graph::push_scope`]).
    scope_stack: Vec<String>,
    variables: Vec<VariableDef>,
    placeholders: Vec<PlaceholderDef>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds an operation node, validating that all referenced ids exist.
    pub fn add(&mut self, op: Op) -> Result<NodeId> {
        for input in op.inputs() {
            if input.0 >= self.nodes.len() {
                return Err(DataflowError::UnknownNode(input.0));
            }
        }
        match &op {
            Op::Variable(v) | Op::Gather { table: v, .. } if v.0 >= self.variables.len() => {
                return Err(DataflowError::UnknownVariable(v.0));
            }
            Op::Placeholder(p) if p.0 >= self.placeholders.len() => {
                return Err(DataflowError::InvalidGraph(format!(
                    "placeholder id {} does not exist",
                    p.0
                )));
            }
            Op::ConcatCols(parts) if parts.is_empty() => {
                return Err(DataflowError::InvalidGraph("ConcatCols of nothing".into()));
            }
            _ => {}
        }
        Ok(self.add_unchecked(op))
    }

    /// Adds an operation node **without** any reference validation.
    ///
    /// Exists so tests (and the verifier's own negative paths) can
    /// assemble structurally broken graphs — dangling inputs, forward
    /// references — and watch `verify::check_structure` diagnose them
    /// instead of panicking. Everything else should use [`Graph::add`].
    #[doc(hidden)]
    pub fn add_unchecked(&mut self, op: Op) -> NodeId {
        self.origins.push(self.scope_stack.join("/"));
        self.nodes.push(op);
        NodeId(self.nodes.len() - 1)
    }

    /// Opens a provenance scope: nodes added until the matching
    /// [`Graph::pop_scope`] record the scope path (`"outer/inner"`) as
    /// their builder origin, which verifier diagnostics attach to the
    /// offending node. The layer helpers in [`crate::builder`] scope
    /// every node they create by the layer's name.
    pub fn push_scope(&mut self, name: impl Into<String>) {
        self.scope_stack.push(name.into());
    }

    /// Closes the innermost provenance scope (no-op when none is open).
    pub fn pop_scope(&mut self) {
        self.scope_stack.pop();
    }

    /// The builder provenance of a node: the scope path active when it
    /// was added, or `""` for nodes created outside any scope (and for
    /// ids not in this graph).
    pub fn origin(&self, id: NodeId) -> &str {
        self.origins.get(id.0).map(String::as_str).unwrap_or("")
    }

    /// Declares a placeholder and returns its node.
    pub fn placeholder(&mut self, name: impl Into<String>, kind: PhKind) -> Result<NodeId> {
        let name = name.into();
        if self.placeholders.iter().any(|p| p.name == name) {
            return Err(DataflowError::InvalidGraph(format!(
                "duplicate placeholder '{name}'"
            )));
        }
        self.placeholders.push(PlaceholderDef { name, kind });
        let ph = PhId(self.placeholders.len() - 1);
        self.add(Op::Placeholder(ph))
    }

    /// Declares a variable (no node is created; use [`Graph::read`] or
    /// `Op::Gather` to access it).
    pub fn variable(&mut self, def: VariableDef) -> Result<VarId> {
        if self.variables.iter().any(|v| v.name == def.name) {
            return Err(DataflowError::InvalidGraph(format!(
                "duplicate variable '{}'",
                def.name
            )));
        }
        self.variables.push(def);
        Ok(VarId(self.variables.len() - 1))
    }

    /// Creates a node reading the dense value of `var`.
    pub fn read(&mut self, var: VarId) -> Result<NodeId> {
        self.add(Op::Variable(var))
    }

    /// Creates a constant node.
    pub fn constant(&mut self, value: Tensor) -> Result<NodeId> {
        self.add(Op::Constant(value))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The operation of a node.
    pub fn op(&self, id: NodeId) -> Result<&Op> {
        self.nodes.get(id.0).ok_or(DataflowError::UnknownNode(id.0))
    }

    /// All nodes in insertion (topological) order.
    pub fn ops(&self) -> &[Op] {
        &self.nodes
    }

    /// The definition of a variable.
    pub fn var_def(&self, id: VarId) -> Result<&VariableDef> {
        self.variables
            .get(id.0)
            .ok_or(DataflowError::UnknownVariable(id.0))
    }

    /// All variable definitions, indexed by [`VarId`].
    pub fn variables(&self) -> &[VariableDef] {
        &self.variables
    }

    /// All variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.variables.len()).map(VarId)
    }

    /// The placeholder definition behind a [`PhId`].
    pub fn placeholder_def(&self, id: PhId) -> Result<&PlaceholderDef> {
        self.placeholders
            .get(id.0)
            .ok_or_else(|| DataflowError::InvalidGraph(format!("unknown placeholder {}", id.0)))
    }

    /// All placeholder definitions.
    pub fn placeholders(&self) -> &[PlaceholderDef] {
        &self.placeholders
    }

    /// Looks up a variable id by name.
    pub fn find_variable(&self, name: &str) -> Option<VarId> {
        self.variables
            .iter()
            .position(|v| v.name == name)
            .map(VarId)
    }

    /// True when `var` is only ever accessed through `Gather` — the static
    /// sparsity test mirroring TensorFlow's gradient-type rule: such a
    /// variable's gradient is an `IndexedSlices`, so it is *sparse*.
    pub fn is_sparse_variable(&self, var: VarId) -> bool {
        let mut gathered = false;
        for op in &self.nodes {
            match op {
                Op::Gather { table, .. } if *table == var => gathered = true,
                Op::Variable(v) if *v == var => return false,
                _ => {}
            }
        }
        gathered
    }

    /// Statically checks the graph's structure and value kinds by
    /// delegating to the verifier's [`crate::verify::check_structure`]
    /// and [`crate::verify::check_kinds`] passes — the old entry point
    /// and the multi-pass verifier share one implementation and cannot
    /// drift apart. The first diagnostic is mapped back to the legacy
    /// error variants ([`DataflowError::ValueKindMismatch`] and
    /// friends) so existing callers keep matching on them.
    pub fn validate(&self) -> Result<()> {
        let mut report = crate::verify::VerifyReport::new();
        crate::verify::check_structure(self, &mut report);
        if !report.has_errors() {
            crate::verify::check_kinds(self, &mut report);
        }
        match report.diagnostics.into_iter().next() {
            Some(d) => Err(d.into_error()),
            None => Ok(()),
        }
    }

    /// Extracts the inference-only subgraph needed to compute `targets`:
    /// the ancestor closure of the target nodes, with everything else —
    /// label placeholders, per-timestep losses, the mean loss — dropped.
    ///
    /// Every [`VariableDef`] is cloned **in declaration order** even
    /// when the slice does not read it, so `VarId`s are identical
    /// between the training graph and the slice. That invariant is what
    /// lets a serving snapshot written against the training graph be
    /// applied to the slice without a name-based remap, and keeps
    /// `find_variable`/`var_def` answers consistent across both graphs.
    /// Kept placeholders are re-declared under their original names
    /// (feeds address placeholders by name, so fresh `PhId`s are fine).
    ///
    /// Returns the sliced graph plus a per-node mapping: entry `i` is
    /// `Some(new_id)` when node `i` of `self` was kept (e.g. to locate
    /// the logits node in the slice), `None` when it was dropped.
    pub fn inference_slice(&self, targets: &[NodeId]) -> Result<(Graph, Vec<Option<NodeId>>)> {
        let mut keep = vec![false; self.nodes.len()];
        for &t in targets {
            *keep.get_mut(t.0).ok_or(DataflowError::UnknownNode(t.0))? = true;
        }
        // Insertion order is topological, so one reverse sweep closes
        // the ancestor set.
        for i in (0..self.nodes.len()).rev() {
            if keep[i] {
                for input in self.nodes[i].inputs() {
                    keep[input.0] = true;
                }
            }
        }

        let mut sliced = Graph::new();
        sliced.variables = self.variables.clone();

        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for (i, op) in self.nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let new_id = match op {
                Op::Placeholder(ph) => {
                    let def = self.placeholder_def(*ph)?;
                    sliced.placeholder(def.name.clone(), def.kind)?
                }
                other => {
                    let remapped = remap_op(other, &map)?;
                    sliced.add(remapped)?
                }
            };
            // Preserve builder provenance for verifier diagnostics.
            sliced.origins[new_id.0] = self.origins[i].clone();
            map[i] = Some(new_id);
        }
        Ok((sliced, map))
    }

    /// Nodes that `Gather` from `var`.
    pub fn gather_nodes_of(&self, var: VarId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Gather { table, .. } if *table == var => Some(NodeId(i)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> (Graph, VarId, VarId) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [10, 4], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 2], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let _y = g.add(Op::MatMul(x, wr)).unwrap();
        (g, emb, w)
    }

    #[test]
    fn ids_are_sequential_and_valid() {
        let (g, _, _) = small_graph();
        assert_eq!(g.num_nodes(), 4);
        for (i, op) in g.ops().iter().enumerate() {
            for input in op.inputs() {
                assert!(input.index() < i, "inputs precede the node");
            }
        }
    }

    #[test]
    fn add_rejects_forward_references() {
        let mut g = Graph::new();
        let bogus = NodeId(5);
        assert!(matches!(
            g.add(Op::Sigmoid(bogus)),
            Err(DataflowError::UnknownNode(5))
        ));
    }

    #[test]
    fn add_rejects_unknown_variable() {
        let mut g = Graph::new();
        assert!(g.read(VarId(0)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = Graph::new();
        g.variable(VariableDef::new("v", [1], Init::Zeros)).unwrap();
        assert!(g.variable(VariableDef::new("v", [2], Init::Zeros)).is_err());
        g.placeholder("p", PhKind::Float).unwrap();
        assert!(g.placeholder("p", PhKind::Float).is_err());
    }

    #[test]
    fn sparsity_classification_follows_usage() {
        let (g, emb, w) = small_graph();
        assert!(g.is_sparse_variable(emb), "gather-only => sparse");
        assert!(!g.is_sparse_variable(w), "dense read => dense");
    }

    #[test]
    fn variable_read_makes_it_dense_even_with_gather() {
        let (mut g, emb, _) = small_graph();
        g.read(emb).unwrap();
        assert!(!g.is_sparse_variable(emb), "mixed use collapses to dense");
    }

    #[test]
    fn find_variable_by_name() {
        let (g, emb, _) = small_graph();
        assert_eq!(g.find_variable("emb"), Some(emb));
        assert_eq!(g.find_variable("nope"), None);
    }

    #[test]
    fn validate_accepts_well_typed_graphs() {
        let (g, _, _) = small_graph();
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_ids_into_tensor_ops() {
        let mut g = Graph::new();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Sigmoid(ids)).unwrap();
        assert!(matches!(
            g.validate(),
            Err(DataflowError::ValueKindMismatch {
                expected: "tensor",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_tensor_into_ids_slots() {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [4, 2], Init::Glorot))
            .unwrap();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        g.add(Op::Gather { table: emb, ids: x }).unwrap();
        assert!(matches!(
            g.validate(),
            Err(DataflowError::ValueKindMismatch {
                expected: "ids",
                ..
            })
        ));
        let mut g2 = Graph::new();
        let logits = g2.placeholder("logits", PhKind::Float).unwrap();
        let labels = g2.placeholder("labels", PhKind::Float).unwrap();
        g2.add(Op::SoftmaxXent { logits, labels }).unwrap();
        assert!(g2.validate().is_err());
    }

    #[test]
    fn gather_nodes_listed() {
        let (g, emb, _) = small_graph();
        assert_eq!(g.gather_nodes_of(emb).len(), 1);
    }

    /// A toy train graph with a logits head and a label/loss tail:
    /// `logits = gather(emb, ids) * w + b`, `loss = xent(logits, labels)`.
    fn train_graph() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [10, 4], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 3], Init::Normal(0.2)))
            .unwrap();
        let b = g.variable(VariableDef::new("b", [3], Init::Zeros)).unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let br = g.read(b).unwrap();
        let xw = g.add(Op::MatMul(x, wr)).unwrap();
        let logits = g.add(Op::AddBias { x: xw, bias: br }).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits, labels }).unwrap();
        (g, logits, loss)
    }

    #[test]
    fn inference_slice_drops_loss_and_keeps_var_ids() {
        let (g, logits, loss) = train_graph();
        let (sliced, map) = g.inference_slice(&[logits]).unwrap();
        // The loss node and the labels placeholder are gone.
        assert!(map[loss.0].is_none());
        assert!(sliced.ops().iter().all(|op| op.name() != "SoftmaxXent"));
        assert!(sliced.placeholders().iter().all(|p| p.name != "labels"));
        assert!(sliced.placeholders().iter().any(|p| p.name == "ids"));
        // VarIds are identical to the training graph.
        assert_eq!(sliced.variables().len(), g.variables().len());
        for var in g.var_ids() {
            let a = g.var_def(var).unwrap();
            let b = sliced.var_def(var).unwrap();
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
        }
        assert!(g.is_sparse_variable(g.find_variable("emb").unwrap()));
        assert!(sliced.is_sparse_variable(sliced.find_variable("emb").unwrap()));
        sliced.validate().unwrap();
    }

    #[test]
    fn inference_slice_forward_is_bitwise_equal() {
        use crate::value::{Feed, Value};
        use crate::varstore::VarStore;
        use parallax_tensor::DetRng;

        let (g, logits, _) = train_graph();
        let (sliced, map) = g.inference_slice(&[logits]).unwrap();
        let sliced_logits = map[logits.0].unwrap();
        // Same defs + same seed => identical stores on both graphs.
        let mut store = VarStore::init(&g, &mut DetRng::seed(11));
        let mut store2 = VarStore::init(&sliced, &mut DetRng::seed(11));
        let ids = vec![3usize, 0, 7];
        let full_feed = Feed::new()
            .with("ids", Value::Ids(ids.clone()))
            .with("labels", Value::Ids(vec![0, 1, 2]));
        let slice_feed = Feed::new().with("ids", Value::Ids(ids));
        let sess = crate::exec::Session::new(&g);
        let mut acts = crate::exec::Activations::default();
        sess.forward_into(&full_feed, &mut store, &mut acts)
            .unwrap();
        let sess2 = crate::exec::Session::new(&sliced);
        let mut acts2 = crate::exec::Activations::default();
        sess2
            .forward_into(&slice_feed, &mut store2, &mut acts2)
            .unwrap();
        let want = acts.tensor(logits).unwrap();
        let got = acts2.tensor(sliced_logits).unwrap();
        assert_eq!(want.data(), got.data(), "slice forward must be bitwise");
    }

    #[test]
    fn inference_slice_rejects_unknown_target() {
        let (g, ..) = train_graph();
        assert!(g.inference_slice(&[NodeId(999)]).is_err());
    }
}
