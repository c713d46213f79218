//! Inception-v3-like dense model.
//!
//! Stands in for Inception-v3 with its characteristic multi-branch
//! blocks: each block runs parallel dense paths of different widths and
//! concatenates them, mirroring Inception's mixed modules. All
//! variables are dense.

use parallax_dataflow::builder::{linear, Act};
use parallax_dataflow::graph::{Op, PhKind};
use parallax_dataflow::{Graph, NodeId, Result};

use crate::BuiltModel;

/// Inception-like hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionConfig {
    /// Flattened input feature dimension.
    pub features: usize,
    /// Trunk width between blocks.
    pub width: usize,
    /// Number of mixed blocks.
    pub blocks: usize,
    /// Output classes.
    pub classes: usize,
}

impl InceptionConfig {
    /// An executed-scale configuration.
    pub fn tiny() -> Self {
        InceptionConfig {
            features: 16,
            width: 12,
            blocks: 2,
            classes: 5,
        }
    }
}

/// One mixed block: three parallel branches (1/2, 1/4, 1/4 of the
/// width), concatenated back to `width` columns.
fn mixed_block(g: &mut Graph, x: NodeId, name: &str, width: usize) -> Result<NodeId> {
    let w1 = width / 2;
    let w2 = width / 4;
    let w3 = width - w1 - w2;
    let (b1, _, _) = linear(g, x, &format!("{name}/branch1"), width, w1, Act::Relu)?;
    let (b2a, _, _) = linear(g, x, &format!("{name}/branch2a"), width, w2, Act::Relu)?;
    let (b2, _, _) = linear(g, b2a, &format!("{name}/branch2b"), w2, w2, Act::Relu)?;
    let (b3, _, _) = linear(g, x, &format!("{name}/branch3"), width, w3, Act::Relu)?;
    g.add(Op::ConcatCols(vec![b1, b2, b3]))
}

/// Builds the Inception-like graph.
pub fn build(config: InceptionConfig) -> Result<BuiltModel> {
    let mut g = Graph::new();
    let x = g.placeholder("x", PhKind::Float)?;
    let labels = g.placeholder("labels", PhKind::Ids)?;
    let (mut h, _, _) = linear(&mut g, x, "stem", config.features, config.width, Act::Relu)?;
    for b in 0..config.blocks {
        h = mixed_block(&mut g, h, &format!("mixed{b}"), config.width)?;
    }
    let (logits, _, _) = linear(
        &mut g,
        h,
        "classifier",
        config.width,
        config.classes,
        Act::None,
    )?;
    let loss = g.add(Op::SoftmaxXent { logits, labels })?;
    Ok(BuiltModel {
        graph: g,
        loss,
        logits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ImageDataset;
    use parallax_dataflow::grad::backward;
    use parallax_dataflow::{Session, VarStore};
    use parallax_tensor::DetRng;

    #[test]
    fn inception_is_fully_dense_with_branches() {
        let model = build(InceptionConfig::tiny()).unwrap();
        for var in model.graph.var_ids() {
            assert!(!model.graph.is_sparse_variable(var));
        }
        // Branch structure exists: at least one ConcatCols of 3 inputs.
        let has_concat = model
            .graph
            .ops()
            .iter()
            .any(|op| matches!(op, Op::ConcatCols(parts) if parts.len() == 3));
        assert!(has_concat);
    }

    #[test]
    fn inception_forward_backward_covers_all_variables() {
        let config = InceptionConfig::tiny();
        let model = build(config).unwrap();
        let ds = ImageDataset::new(config.features, config.classes);
        let feed = ds.feed(4, &mut DetRng::seed(3));
        let mut store = VarStore::init(&model.graph, &mut DetRng::seed(1));
        let acts = Session::new(&model.graph)
            .forward(&feed, &mut store)
            .unwrap();
        assert!(acts.scalar(model.loss).unwrap().is_finite());
        let grads = backward(&model.graph, &acts, model.loss).unwrap();
        assert_eq!(grads.len(), model.graph.variables().len());
    }
}
