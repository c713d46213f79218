//! ResNet-50-like dense model.
//!
//! The evaluation uses ResNet-50 only as an "all-dense, compute-heavy"
//! workload; its convolutional structure never matters to the
//! synchronization analysis. This stand-in keeps the two properties
//! that do: a deep stack of residual blocks (so gradients flow through
//! many dense matmuls) and zero sparse variables.

use parallax_dataflow::builder::{linear, residual_block, Act};
use parallax_dataflow::graph::{Op, PhKind};
use parallax_dataflow::{Graph, Result};

use crate::BuiltModel;

/// ResNet-like hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Flattened input feature dimension.
    pub features: usize,
    /// Residual trunk width.
    pub width: usize,
    /// Bottleneck width inside each block.
    pub bottleneck: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Output classes.
    pub classes: usize,
}

impl ResNetConfig {
    /// An executed-scale configuration.
    pub fn tiny() -> Self {
        ResNetConfig {
            features: 16,
            width: 12,
            bottleneck: 6,
            blocks: 2,
            classes: 5,
        }
    }
}

/// Builds the ResNet-like graph.
pub fn build(config: ResNetConfig) -> Result<BuiltModel> {
    let mut g = Graph::new();
    let x = g.placeholder("x", PhKind::Float)?;
    let labels = g.placeholder("labels", PhKind::Ids)?;
    let (mut h, _, _) = linear(&mut g, x, "stem", config.features, config.width, Act::Relu)?;
    for b in 0..config.blocks {
        h = residual_block(
            &mut g,
            h,
            &format!("block{b}"),
            config.width,
            config.bottleneck,
        )?;
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
    fn resnet_is_fully_dense() {
        let model = build(ResNetConfig::tiny()).unwrap();
        for var in model.graph.var_ids() {
            assert!(!model.graph.is_sparse_variable(var));
        }
        // 1 stem + 2 per block + 1 classifier, each with weight and bias.
        let expected_vars = 2 * (1 + 2 * 2 + 1);
        assert_eq!(model.graph.variables().len(), expected_vars);
    }

    #[test]
    fn resnet_trains_down_on_a_fixed_batch() {
        use parallax_dataflow::{Optimizer, Sgd};
        let config = ResNetConfig::tiny();
        let model = build(config).unwrap();
        let ds = ImageDataset::new(config.features, config.classes);
        let feed = ds.feed(8, &mut DetRng::seed(3));
        let mut store = VarStore::init(&model.graph, &mut DetRng::seed(1));
        let mut opt = Sgd::new(0.1);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..20 {
            let acts = Session::new(&model.graph)
                .forward(&feed, &mut store)
                .unwrap();
            last = acts.scalar(model.loss).unwrap();
            first.get_or_insert(last);
            let grads = backward(&model.graph, &acts, model.loss).unwrap();
            for (var, grad) in grads {
                opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                    .unwrap();
            }
        }
        assert!(last < first.unwrap() * 0.8, "loss {first:?} -> {last}");
    }
}
