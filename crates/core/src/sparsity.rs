//! Sparsity analysis: variable classification and `alpha` estimation.
//!
//! A variable's *kind* (dense vs sparse) is static — decided by how the
//! graph accesses it (Section 5: TensorFlow's gradient tensor type).
//! A sparse variable's *access ratio* `alpha` — "the average ratio of
//! the number of elements actually used by a worker in one iteration to
//! the total number of elements" (Section 2.2) — is dynamic and is
//! estimated here by running sample batches through the graph's gather
//! sites.

use std::collections::{HashMap, HashSet};

use parallax_dataflow::{Feed, Graph, Op, Session, VarId, VarStore};
use parallax_tensor::DetRng;

use crate::Result;

/// Per-variable sparsity profile.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSparsity {
    /// The variable.
    pub var: VarId,
    /// True when the variable's gradient is an `IndexedSlices`.
    pub sparse: bool,
    /// Estimated per-worker access ratio (1.0 for dense variables).
    pub alpha: f64,
    /// Average distinct rows touched per iteration (rows for dense).
    pub rows_touched: f64,
    /// Row count (dimension 0 of the variable).
    pub rows: usize,
    /// Element count.
    pub elements: usize,
}

impl VarSparsity {
    /// Row width (elements per row).
    pub fn cols(&self) -> usize {
        self.elements / self.rows.max(1)
    }
}

/// A full model sparsity profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparsityProfile {
    /// Per-variable profiles in [`VarId`] order.
    pub vars: Vec<VarSparsity>,
}

impl SparsityProfile {
    /// The model-level `alpha_model`: the element-weighted average of
    /// per-variable alphas (Table 1).
    pub fn alpha_model(&self) -> f64 {
        let total: f64 = self.vars.iter().map(|v| v.elements as f64).sum();
        if total == 0.0 {
            return 1.0;
        }
        self.vars
            .iter()
            .map(|v| v.alpha * v.elements as f64)
            .sum::<f64>()
            / total
    }

    /// The profile of one variable.
    pub fn of(&self, var: VarId) -> Option<&VarSparsity> {
        self.vars.get(var.index())
    }
}

/// Estimates the sparsity profile of a graph by evaluating the id inputs
/// of every `Gather` over `sample_feeds` and measuring distinct rows.
///
/// Runs the forward pass against a throwaway local store, so estimation
/// needs no cluster — exactly how Parallax samples before transforming.
pub fn estimate_profile(
    graph: &Graph,
    sample_feeds: &[Feed],
    seed: u64,
) -> Result<SparsityProfile> {
    let mut store = VarStore::init(graph, &mut DetRng::seed(seed));
    // Distinct-row counts per variable per sample.
    let mut touched: HashMap<usize, Vec<f64>> = HashMap::new();
    let session = Session::new(graph);
    for feed in sample_feeds {
        let acts = session.forward(feed, &mut store)?;
        let mut per_var: HashMap<usize, HashSet<usize>> = HashMap::new();
        for (idx, op) in graph.ops().iter().enumerate() {
            if let Op::Gather { table, ids } = op {
                let _ = idx;
                let id_list = acts.value(*ids)?.as_ids("estimate_profile")?;
                per_var
                    .entry(table.index())
                    .or_default()
                    .extend(id_list.iter().copied());
            }
        }
        for (var, rows) in per_var {
            touched.entry(var).or_default().push(rows.len() as f64);
        }
    }

    let mut vars = Vec::with_capacity(graph.variables().len());
    for var in graph.var_ids() {
        let def = graph.var_def(var)?;
        let elements = def.num_elements();
        let sparse = graph.is_sparse_variable(var);
        if sparse {
            let rows = if def.shape.rank() == 0 {
                1
            } else {
                def.shape.dim(0)
            };
            let samples = touched.get(&var.index());
            let mean_rows = samples
                .map(|s| s.iter().sum::<f64>() / s.len().max(1) as f64)
                .unwrap_or(0.0);
            let alpha = if rows == 0 {
                0.0
            } else {
                (mean_rows / rows as f64).min(1.0)
            };
            vars.push(VarSparsity {
                var,
                sparse,
                alpha,
                rows_touched: mean_rows,
                rows,
                elements,
            });
        } else {
            let rows = if def.shape.rank() == 0 {
                1
            } else {
                def.shape.dim(0)
            };
            vars.push(VarSparsity {
                var,
                sparse,
                alpha: 1.0,
                rows_touched: rows as f64,
                rows,
                elements,
            });
        }
    }
    Ok(SparsityProfile { vars })
}

/// Builds a profile directly from static descriptions (used at paper
/// scale where no executable graph exists).
pub fn profile_from_parts(parts: Vec<(VarId, bool, f64, usize, usize)>) -> SparsityProfile {
    let vars = parts
        .into_iter()
        .map(|(var, sparse, alpha, rows, elements)| VarSparsity {
            var,
            sparse,
            alpha,
            rows_touched: alpha * rows as f64,
            rows,
            elements,
        })
        .collect();
    SparsityProfile { vars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::{Init, PhKind};
    use parallax_dataflow::VariableDef;

    fn graph_with_embedding(vocab: usize) -> (Graph, VarId, VarId) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [vocab, 4], Init::Normal(0.1)))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 2], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        g.add(Op::MatMul(x, wr)).unwrap();
        (g, emb, w)
    }

    #[test]
    fn alpha_counts_distinct_rows_per_sample() {
        let (g, emb, w) = graph_with_embedding(10);
        // Two samples touching 2 and 4 distinct rows -> mean 3 -> alpha 0.3.
        let feeds = vec![
            Feed::new().with("ids", vec![1usize, 1, 2]),
            Feed::new().with("ids", vec![0usize, 3, 5, 7]),
        ];
        let profile = estimate_profile(&g, &feeds, 1).unwrap();
        let e = profile.of(emb).unwrap();
        assert!(e.sparse);
        assert!((e.alpha - 0.3).abs() < 1e-9, "alpha {}", e.alpha);
        assert!((e.rows_touched - 3.0).abs() < 1e-9);
        let d = profile.of(w).unwrap();
        assert!(!d.sparse);
        assert_eq!(d.alpha, 1.0);
    }

    #[test]
    fn alpha_model_is_element_weighted() {
        let (g, _, _) = graph_with_embedding(100);
        // emb: 400 elements at alpha 0.02 (2 rows of 100); w: 8 at 1.0.
        let feeds = vec![Feed::new().with("ids", vec![0usize, 1])];
        let profile = estimate_profile(&g, &feeds, 1).unwrap();
        let expected = (400.0 * 0.02 + 8.0 * 1.0) / 408.0;
        assert!((profile.alpha_model() - expected).abs() < 1e-9);
    }

    #[test]
    fn longer_sequences_raise_alpha() {
        // The Table 6 mechanism: more words per instance -> higher alpha.
        let (g, emb, _) = graph_with_embedding(50);
        let short = vec![Feed::new().with("ids", vec![1usize, 2])];
        let long = vec![Feed::new().with("ids", (0..40usize).collect::<Vec<_>>())];
        let a_short = estimate_profile(&g, &short, 1)
            .unwrap()
            .of(emb)
            .unwrap()
            .alpha;
        let a_long = estimate_profile(&g, &long, 1)
            .unwrap()
            .of(emb)
            .unwrap()
            .alpha;
        assert!(a_long > a_short * 5.0);
    }
}
