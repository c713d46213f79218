//! The NMT model: sequence-to-sequence translation with attention.
//!
//! Mirrors the paper's NMT (GNMT-style, Wu et al.): a source-side
//! multi-layer LSTM encoder over one embedding, a target-side decoder
//! over another, dot-product attention from each decoder step onto the
//! encoder's top-layer states, and a dense output projection over the
//! target vocabulary. The two embeddings are sparse; the LSTM kernels,
//! attention path and projection are dense — giving the balanced
//! dense/sparse profile that makes NMT the model where the hybrid
//! architecture's gains are largest (Table 4).

use parallax_core::runner::shard_range;
use parallax_dataflow::builder::{linear, lstm_step, lstm_weights, Act};
use parallax_dataflow::graph::{Op, PhKind};
use parallax_dataflow::{Feed, Graph, NodeId, VarId};
use parallax_tensor::{DetRng, Tensor};

use crate::data::ZipfCorpus;
use crate::BuiltModel;

/// NMT hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NmtConfig {
    /// Source vocabulary size.
    pub src_vocab: usize,
    /// Target vocabulary size.
    pub tgt_vocab: usize,
    /// Embedding width.
    pub emb: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// LSTM layers in encoder and decoder (GNMT uses 8).
    pub layers: usize,
    /// Source/target sequence length.
    pub length: usize,
    /// Sentence pairs per batch.
    pub batch: usize,
    /// Dot-product attention from decoder onto encoder states.
    pub attention: bool,
}

impl NmtConfig {
    /// An executed-scale configuration.
    pub fn tiny() -> Self {
        NmtConfig {
            src_vocab: 50,
            tgt_vocab: 40,
            emb: 8,
            hidden: 10,
            layers: 1,
            length: 3,
            batch: 4,
            attention: true,
        }
    }
}

/// A stack of LSTM layers stepped together; layer `l`'s hidden state
/// feeds layer `l+1`'s input.
struct LstmStack {
    cells: Vec<(VarId, VarId)>,
    hidden: usize,
}

impl LstmStack {
    fn new(
        g: &mut Graph,
        name: &str,
        input_dim: usize,
        hidden: usize,
        layers: usize,
    ) -> parallax_dataflow::Result<Self> {
        let mut cells = Vec::with_capacity(layers);
        for l in 0..layers {
            let in_dim = if l == 0 { input_dim } else { hidden };
            cells.push(lstm_weights(g, &format!("{name}/l{l}"), in_dim, hidden)?);
        }
        Ok(LstmStack { cells, hidden })
    }

    /// Steps the whole stack; `state` holds `(h, c)` per layer and is
    /// updated in place. Returns the top layer's hidden output.
    fn step(
        &self,
        g: &mut Graph,
        x: NodeId,
        state: &mut [(NodeId, NodeId)],
    ) -> parallax_dataflow::Result<NodeId> {
        let mut input = x;
        for (l, &(w, b)) in self.cells.iter().enumerate() {
            let (h_prev, c_prev) = state[l];
            let (h, c) = lstm_step(g, input, h_prev, c_prev, w, b, self.hidden)?;
            state[l] = (h, c);
            input = h;
        }
        Ok(input)
    }
}

/// A built NMT model and its variable handles.
#[derive(Debug, Clone)]
pub struct NmtModel {
    /// Graph, loss and logits.
    pub built: BuiltModel,
    /// Hyperparameters.
    pub config: NmtConfig,
    /// Encoder embedding (sparse).
    pub emb_enc: VarId,
    /// Decoder embedding (sparse).
    pub emb_dec: VarId,
}

impl NmtModel {
    /// Builds the single-GPU graph: multi-layer encoder over gathered
    /// source embeddings, decoder seeded with the encoder's final state,
    /// per-step attention over the encoder's top-layer outputs, and a
    /// dense projection to target-vocabulary logits.
    pub fn build(config: NmtConfig) -> parallax_dataflow::Result<NmtModel> {
        let mut g = Graph::new();
        let emb_enc = parallax_dataflow::builder::embedding(
            &mut g,
            "nmt/emb_enc",
            config.src_vocab,
            config.emb,
        )?;
        let emb_dec = parallax_dataflow::builder::embedding(
            &mut g,
            "nmt/emb_dec",
            config.tgt_vocab,
            config.emb,
        )?;
        let src_ids = g.placeholder("src_ids", PhKind::Ids)?;
        let tgt_ids = g.placeholder("tgt_ids", PhKind::Ids)?;
        let h0 = g.placeholder("h0", PhKind::Float)?;
        let c0 = g.placeholder("c0", PhKind::Float)?;

        let src_embedded = g.add(Op::Gather {
            table: emb_enc,
            ids: src_ids,
        })?;
        let tgt_embedded = g.add(Op::Gather {
            table: emb_dec,
            ids: tgt_ids,
        })?;

        // Encoder stack; keep top-layer states for attention.
        let enc = LstmStack::new(&mut g, "nmt/enc", config.emb, config.hidden, config.layers)?;
        let mut state: Vec<(NodeId, NodeId)> = vec![(h0, c0); config.layers];
        let mut enc_tops = Vec::with_capacity(config.length);
        for t in 0..config.length {
            let x_t = g.add(Op::SliceRows {
                input: src_embedded,
                start: t * config.batch,
                rows: config.batch,
            })?;
            let top = enc.step(&mut g, x_t, &mut state)?;
            enc_tops.push(top);
        }

        // Decoder stack, initialized from the encoder's final state.
        let dec = LstmStack::new(&mut g, "nmt/dec", config.emb, config.hidden, config.layers)?;
        let mut proj: Option<(VarId, VarId)> = None;
        let mut step_losses = Vec::with_capacity(config.length);
        let mut last_logits = None;
        let proj_in = if config.attention {
            2 * config.hidden
        } else {
            config.hidden
        };
        for t in 0..config.length {
            let x_t = g.add(Op::SliceRows {
                input: tgt_embedded,
                start: t * config.batch,
                rows: config.batch,
            })?;
            let top = dec.step(&mut g, x_t, &mut state)?;

            // Dot-product attention over the encoder's top states:
            // weights = softmax_u(dec_top . enc_top_u); context is the
            // weighted sum of encoder states; read-out concatenates.
            let readout = if config.attention {
                let mut score_cols = Vec::with_capacity(enc_tops.len());
                for &enc_h in &enc_tops {
                    let prod = g.add(Op::Hadamard(top, enc_h))?;
                    let dot = g.add(Op::SumRowsToColumn(prod))?;
                    score_cols.push(dot);
                }
                let scores = g.add(Op::ConcatCols(score_cols))?;
                let weights = g.add(Op::SoftmaxRows(scores))?;
                let mut context: Option<NodeId> = None;
                for (u, &enc_h) in enc_tops.iter().enumerate() {
                    let w_u = g.add(Op::SliceCols {
                        input: weights,
                        start: u,
                        width: 1,
                    })?;
                    let weighted = g.add(Op::ScaleRows { x: enc_h, s: w_u })?;
                    context = Some(match context {
                        Some(acc) => g.add(Op::Add(acc, weighted))?,
                        None => weighted,
                    });
                }
                let context = context.expect("length >= 1");
                g.add(Op::ConcatCols(vec![top, context]))?
            } else {
                top
            };

            let logits = match proj {
                Some((pw, pb)) => {
                    let pwr = g.read(pw)?;
                    let pbr = g.read(pb)?;
                    let mm = g.add(Op::MatMul(readout, pwr))?;
                    g.add(Op::AddBias { x: mm, bias: pbr })?
                }
                None => {
                    let (out, pw, pb) = linear(
                        &mut g,
                        readout,
                        "nmt/proj",
                        proj_in,
                        config.tgt_vocab,
                        Act::None,
                    )?;
                    proj = Some((pw, pb));
                    out
                }
            };
            last_logits = Some(logits);
            let labels_t = g.placeholder(format!("labels_{t}"), PhKind::Ids)?;
            let loss_t = g.add(Op::SoftmaxXent {
                logits,
                labels: labels_t,
            })?;
            step_losses.push(loss_t);
        }
        let mut total = step_losses[0];
        for &l in &step_losses[1..] {
            total = g.add(Op::Add(total, l))?;
        }
        let loss = g.add(Op::Scale(total, 1.0 / config.length as f32))?;
        let logits = last_logits.expect("length >= 1");
        Ok(NmtModel {
            built: BuiltModel {
                graph: g,
                loss,
                logits,
            },
            config,
            emb_enc,
            emb_dec,
        })
    }

    /// Builds a feed from source and target corpora.
    pub fn feed(&self, src: &ZipfCorpus, tgt: &ZipfCorpus, rng: &mut DetRng) -> Feed {
        let (src_ids, _) = src.sample_batch(self.config.batch, self.config.length, rng);
        let (tgt_ids, tgt_labels) = tgt.sample_batch(self.config.batch, self.config.length, rng);
        self.feed_from(src_ids, tgt_ids, tgt_labels)
    }

    /// Builds the per-worker shard of a deterministic global batch.
    pub fn sharded_feed(
        &self,
        src: &ZipfCorpus,
        tgt: &ZipfCorpus,
        workers: usize,
        worker: usize,
        rng: &mut DetRng,
    ) -> Feed {
        let global = self.config.batch * workers;
        let (src_ids, _) = src.sample_batch(global, self.config.length, rng);
        let (tgt_ids, tgt_labels) = tgt.sample_batch(global, self.config.length, rng);
        let r = shard_range(global, workers, worker);
        let cut = |v: &[usize]| -> Vec<usize> {
            let mut out = Vec::with_capacity(self.config.batch * self.config.length);
            for t in 0..self.config.length {
                for bcol in r.clone() {
                    out.push(v[t * global + bcol]);
                }
            }
            out
        };
        self.feed_from(cut(&src_ids), cut(&tgt_ids), cut(&tgt_labels))
    }

    fn feed_from(&self, src_ids: Vec<usize>, tgt_ids: Vec<usize>, tgt_labels: Vec<usize>) -> Feed {
        let batch = src_ids.len() / self.config.length;
        let mut feed = Feed::new()
            .with("src_ids", src_ids)
            .with("tgt_ids", tgt_ids)
            .with("h0", Tensor::zeros([batch, self.config.hidden]))
            .with("c0", Tensor::zeros([batch, self.config.hidden]));
        for t in 0..self.config.length {
            feed.insert(
                format!("labels_{t}"),
                tgt_labels[t * batch..(t + 1) * batch].to_vec(),
            );
        }
        feed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::grad::backward;
    use parallax_dataflow::{Session, VarStore};

    #[test]
    fn nmt_builds_with_two_sparse_embeddings_and_dense_rest() {
        let model = NmtModel::build(NmtConfig::tiny()).unwrap();
        let g = &model.built.graph;
        assert!(g.is_sparse_variable(model.emb_enc));
        assert!(g.is_sparse_variable(model.emb_dec));
        for name in ["nmt/enc/l0/kernel", "nmt/dec/l0/kernel", "nmt/proj/w"] {
            let v = g.find_variable(name).unwrap();
            assert!(!g.is_sparse_variable(v), "{name} must be dense");
        }
    }

    #[test]
    fn attention_widens_the_projection() {
        let with = NmtModel::build(NmtConfig::tiny()).unwrap();
        let without = NmtModel::build(NmtConfig {
            attention: false,
            ..NmtConfig::tiny()
        })
        .unwrap();
        let proj_w = |m: &NmtModel| {
            let g = &m.built.graph;
            g.var_def(g.find_variable("nmt/proj/w").unwrap())
                .unwrap()
                .shape
                .dim(0)
        };
        assert_eq!(proj_w(&with), 2 * NmtConfig::tiny().hidden);
        assert_eq!(proj_w(&without), NmtConfig::tiny().hidden);
    }

    #[test]
    fn multilayer_stack_creates_per_layer_kernels() {
        let config = NmtConfig {
            layers: 3,
            ..NmtConfig::tiny()
        };
        let model = NmtModel::build(config).unwrap();
        let g = &model.built.graph;
        for l in 0..3 {
            assert!(g.find_variable(&format!("nmt/enc/l{l}/kernel")).is_some());
            assert!(g.find_variable(&format!("nmt/dec/l{l}/kernel")).is_some());
        }
    }

    #[test]
    fn nmt_forward_backward_is_finite_and_complete() {
        for config in [
            NmtConfig::tiny(),
            NmtConfig {
                layers: 2,
                ..NmtConfig::tiny()
            },
        ] {
            let model = NmtModel::build(config).unwrap();
            let g = &model.built.graph;
            let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
            let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
            let feed = model.feed(&src, &tgt, &mut DetRng::seed(2));
            let mut store = VarStore::init(g, &mut DetRng::seed(1));
            let acts = Session::new(g).forward(&feed, &mut store).unwrap();
            assert!(acts.scalar(model.built.loss).unwrap().is_finite());
            let grads = backward(g, &acts, model.built.loss).unwrap();
            assert_eq!(grads.len(), g.variables().len());
            assert!(grads.get(&model.emb_enc).unwrap().is_sparse());
            assert!(grads.get(&model.emb_dec).unwrap().is_sparse());
        }
    }

    #[test]
    fn attention_weights_gradients_flow_to_encoder() {
        // With attention, the encoder embedding must receive gradient
        // through the attention path even for source tokens whose final
        // encoder state is otherwise dominated by later steps.
        let model = NmtModel::build(NmtConfig::tiny()).unwrap();
        let g = &model.built.graph;
        let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
        let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
        let feed = model.feed(&src, &tgt, &mut DetRng::seed(9));
        let mut store = VarStore::init(g, &mut DetRng::seed(1));
        let acts = Session::new(g).forward(&feed, &mut store).unwrap();
        let grads = backward(g, &acts, model.built.loss).unwrap();
        let enc_grad = grads.get(&model.emb_enc).unwrap();
        match enc_grad {
            parallax_tensor::sparse::Grad::Sparse(s) => {
                assert!(
                    s.values().l2_norm() > 0.0,
                    "attention path carries gradient"
                );
            }
            _ => panic!("encoder embedding gradient must stay sparse"),
        }
    }

    #[test]
    fn nmt_trains_down_on_a_fixed_batch() {
        use parallax_dataflow::{Optimizer, Sgd};
        let model = NmtModel::build(NmtConfig::tiny()).unwrap();
        let g = &model.built.graph;
        let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
        let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
        let feed = model.feed(&src, &tgt, &mut DetRng::seed(4));
        let mut store = VarStore::init(g, &mut DetRng::seed(1));
        let mut opt = Sgd::new(1.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let acts = Session::new(g).forward(&feed, &mut store).unwrap();
            last = acts.scalar(model.built.loss).unwrap();
            first.get_or_insert(last);
            let grads = backward(g, &acts, model.built.loss).unwrap();
            for (var, grad) in grads {
                opt.apply(var.index() as u64, store.get_mut(var).unwrap(), &grad)
                    .unwrap();
            }
        }
        assert!(last < first.unwrap() * 0.7, "loss {first:?} -> {last}");
    }
}
