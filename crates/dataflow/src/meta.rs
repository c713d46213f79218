//! Metagraph: the variable-to-gradient mapping.
//!
//! Parallax's implementation patches TensorFlow's `MetaGraphDef` to record
//! the exact mapping between model variables and their gradients so that
//! the transformer can insert aggregation operations (Section 5). This
//! module plays that role: a static analysis of the graph yielding, for
//! every variable, its gradient kind and the nodes that produce it.

use crate::graph::{Graph, NodeId, VarId};

/// Whether a variable's gradient is dense or an `IndexedSlices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradKind {
    /// Every element receives a gradient each step.
    Dense,
    /// Only gathered rows receive gradients.
    Sparse,
}

/// Static per-variable gradient metadata.
#[derive(Debug, Clone)]
pub struct VarMeta {
    /// The variable.
    pub var: VarId,
    /// Gradient kind, decided by usage (gather-only => sparse).
    pub kind: GradKind,
    /// Nodes that read the variable (dense reads and gathers).
    pub use_sites: Vec<NodeId>,
}

/// The analyzed variable<->gradient mapping of a graph.
#[derive(Debug, Clone)]
pub struct MetaGraph {
    metas: Vec<VarMeta>,
}

impl MetaGraph {
    /// Analyzes a graph.
    pub fn analyze(graph: &Graph) -> Self {
        let mut metas = Vec::with_capacity(graph.variables().len());
        for var in graph.var_ids() {
            let mut use_sites = Vec::new();
            for (idx, op) in graph.ops().iter().enumerate() {
                match op {
                    crate::graph::Op::Variable(v) if *v == var => use_sites.push(NodeId(idx)),
                    crate::graph::Op::Gather { table, .. } if *table == var => {
                        use_sites.push(NodeId(idx))
                    }
                    _ => {}
                }
            }
            let kind = if graph.is_sparse_variable(var) {
                GradKind::Sparse
            } else {
                GradKind::Dense
            };
            metas.push(VarMeta {
                var,
                kind,
                use_sites,
            });
        }
        MetaGraph { metas }
    }

    /// Metadata for one variable.
    pub fn meta(&self, var: VarId) -> Option<&VarMeta> {
        self.metas.get(var.index())
    }

    /// Gradient kind of one variable.
    pub fn kind(&self, var: VarId) -> Option<GradKind> {
        self.meta(var).map(|m| m.kind)
    }

    /// All metadata in [`VarId`] order.
    pub fn metas(&self) -> &[VarMeta] {
        &self.metas
    }

    /// Variables with sparse gradients.
    pub fn sparse_vars(&self) -> Vec<VarId> {
        self.metas
            .iter()
            .filter(|m| m.kind == GradKind::Sparse)
            .map(|m| m.var)
            .collect()
    }

    /// Counts elements per gradient kind: `(dense_elements, sparse_elements)`
    /// — the "# Elements" columns of Table 1.
    pub fn element_counts(&self, graph: &Graph) -> (usize, usize) {
        let mut dense = 0usize;
        let mut sparse = 0usize;
        for m in &self.metas {
            let n = graph.variables()[m.var.index()].num_elements();
            match m.kind {
                GradKind::Dense => dense += n,
                GradKind::Sparse => sparse += n,
            }
        }
        (dense, sparse)
    }
}

impl std::hash::Hash for GradKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Init, Op, PhKind, VariableDef};

    #[test]
    fn analyze_classifies_and_counts() {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [100, 8], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [8, 4], Init::Glorot))
            .unwrap();
        let unused = g.variable(VariableDef::new("z", [5], Init::Zeros)).unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let _y = g.add(Op::MatMul(x, wr)).unwrap();

        let meta = MetaGraph::analyze(&g);
        assert_eq!(meta.kind(emb), Some(GradKind::Sparse));
        assert_eq!(meta.kind(w), Some(GradKind::Dense));
        assert_eq!(
            meta.kind(unused),
            Some(GradKind::Dense),
            "unused defaults to dense"
        );
        assert_eq!(meta.sparse_vars(), vec![emb]);
        let (d, s) = meta.element_counts(&g);
        assert_eq!(s, 800);
        assert_eq!(d, 32 + 5);
        assert_eq!(meta.meta(emb).unwrap().use_sites.len(), 1);
    }
}
