//! The LM model: LSTM language model with sampled softmax.
//!
//! Mirrors the paper's LM (Jozefowicz et al., "Exploring the Limits of
//! Language Modeling"): a word embedding, an LSTM with a projected
//! hidden state, and a softmax over an output embedding. Both
//! embeddings are accessed through `Gather` — the input by the batch's
//! token ids, the output by a sampled candidate set — so both are
//! *sparse* variables, while the LSTM kernel and projection are dense;
//! exactly the sparse-model profile of Table 1.

use parallax_core::runner::shard_range;
use parallax_dataflow::builder::{linear, lstm_step, lstm_weights, Act};
use parallax_dataflow::graph::{Op, PhKind};
use parallax_dataflow::{Feed, Graph, VarId};
use parallax_tensor::{DetRng, Tensor};

use crate::data::ZipfCorpus;
use crate::BuiltModel;

/// LM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding width.
    pub emb: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Unrolled sequence length.
    pub length: usize,
    /// Sequences per batch.
    pub batch: usize,
    /// Sampled-softmax candidate count.
    pub candidates: usize,
    /// Stacked LSTM layers (the paper's LM uses one 2048-unit layer;
    /// deeper stacks are supported for experimentation).
    pub layers: usize,
}

impl LmConfig {
    /// An executed-scale configuration that trains in milliseconds.
    pub fn tiny() -> Self {
        LmConfig {
            vocab: 60,
            emb: 8,
            hidden: 10,
            length: 4,
            batch: 4,
            candidates: 12,
            layers: 1,
        }
    }
}

/// A built LM and its variable handles.
#[derive(Debug, Clone)]
pub struct LmModel {
    /// Graph, loss and logits.
    pub built: BuiltModel,
    /// Hyperparameters.
    pub config: LmConfig,
    /// Input embedding (sparse).
    pub emb_in: VarId,
    /// Output (softmax) embedding (sparse).
    pub emb_out: VarId,
}

impl LmModel {
    /// Builds the single-GPU graph: one gather for the whole
    /// `batch x length` id block, per-timestep row slices, a shared
    /// LSTM cell, projection, and sampled softmax per timestep.
    pub fn build(config: LmConfig) -> parallax_dataflow::Result<LmModel> {
        let mut g = Graph::new();
        let emb_in =
            parallax_dataflow::builder::embedding(&mut g, "lm/emb_in", config.vocab, config.emb)?;
        let emb_out =
            parallax_dataflow::builder::embedding(&mut g, "lm/emb_out", config.vocab, config.emb)?;
        let ids = g.placeholder("ids", PhKind::Ids)?;
        let cands = g.placeholder("cands", PhKind::Ids)?;
        let h0 = g.placeholder("h0", PhKind::Float)?;
        let c0 = g.placeholder("c0", PhKind::Float)?;

        // One gather for the full time-major id block.
        let embedded = g.add(Op::Gather { table: emb_in, ids })?;
        let cand_rows = g.add(Op::Gather {
            table: emb_out,
            ids: cands,
        })?;
        let mut cells = Vec::with_capacity(config.layers.max(1));
        for l in 0..config.layers.max(1) {
            let in_dim = if l == 0 { config.emb } else { config.hidden };
            cells.push(lstm_weights(
                &mut g,
                &format!("lm/lstm/l{l}"),
                in_dim,
                config.hidden,
            )?);
        }

        let mut state: Vec<(parallax_dataflow::NodeId, parallax_dataflow::NodeId)> =
            vec![(h0, c0); config.layers.max(1)];
        let mut step_losses = Vec::with_capacity(config.length);
        let mut last_logits = None;
        // The projection from hidden to embedding width is shared across
        // timesteps; create it on the first step and reuse.
        let mut proj: Option<(VarId, VarId)> = None;
        for t in 0..config.length {
            let x_t = g.add(Op::SliceRows {
                input: embedded,
                start: t * config.batch,
                rows: config.batch,
            })?;
            let mut layer_in = x_t;
            for (l, &(w, b)) in cells.iter().enumerate() {
                let (h_prev, c_prev) = state[l];
                let (h_t, c_t) = lstm_step(&mut g, layer_in, h_prev, c_prev, w, b, config.hidden)?;
                state[l] = (h_t, c_t);
                layer_in = h_t;
            }
            let h_t = layer_in;
            let projected = match proj {
                Some((pw, pb)) => {
                    let pwr = g.read(pw)?;
                    let pbr = g.read(pb)?;
                    let mm = g.add(Op::MatMul(h_t, pwr))?;
                    g.add(Op::AddBias { x: mm, bias: pbr })?
                }
                None => {
                    let (out, pw, pb) =
                        linear(&mut g, h_t, "lm/proj", config.hidden, config.emb, Act::None)?;
                    proj = Some((pw, pb));
                    out
                }
            };
            let logits = g.add(Op::MatMulBT(projected, cand_rows))?;
            last_logits = Some(logits);
            let labels_t = g.placeholder(format!("labels_{t}"), PhKind::Ids)?;
            let loss_t = g.add(Op::SoftmaxXent {
                logits,
                labels: labels_t,
            })?;
            step_losses.push(loss_t);
        }
        // Mean over timesteps.
        let mut total = step_losses[0];
        for &l in &step_losses[1..] {
            total = g.add(Op::Add(total, l))?;
        }
        let loss = g.add(Op::Scale(total, 1.0 / config.length as f32))?;
        let logits = last_logits.expect("length >= 1");
        Ok(LmModel {
            built: BuiltModel {
                graph: g,
                loss,
                logits,
            },
            config,
            emb_in,
            emb_out,
        })
    }

    /// Builds a feed from a corpus sample: ids time-major, a shared
    /// candidate set (true labels first, Zipf negatives appended), and
    /// per-timestep labels remapped to candidate indices.
    pub fn feed(&self, corpus: &ZipfCorpus, rng: &mut DetRng) -> Feed {
        let (ids, labels) = corpus.sample_batch(self.config.batch, self.config.length, rng);
        self.feed_from(ids, labels, corpus, rng)
    }

    /// Builds the per-worker shard of a global batch (the `shard` API).
    pub fn sharded_feed(
        &self,
        corpus: &ZipfCorpus,
        workers: usize,
        worker: usize,
        rng: &mut DetRng,
    ) -> Feed {
        // Sample a global batch deterministically, then cut this worker's
        // sequences out of it (columns of the time-major block).
        let global_batch = self.config.batch * workers;
        let (ids, labels) = corpus.sample_batch(global_batch, self.config.length, rng);
        let r = shard_range(global_batch, workers, worker);
        let mut my_ids = Vec::with_capacity(self.config.batch * self.config.length);
        let mut my_labels = Vec::with_capacity(self.config.batch * self.config.length);
        for t in 0..self.config.length {
            for bcol in r.clone() {
                my_ids.push(ids[t * global_batch + bcol]);
                my_labels.push(labels[t * global_batch + bcol]);
            }
        }
        self.feed_from(my_ids, my_labels, corpus, rng)
    }

    fn feed_from(
        &self,
        ids: Vec<usize>,
        labels: Vec<usize>,
        corpus: &ZipfCorpus,
        rng: &mut DetRng,
    ) -> Feed {
        let batch = ids.len() / self.config.length;
        // Candidate set: distinct true labels, then Zipf negatives.
        let mut cands: Vec<usize> = labels.clone();
        cands.sort_unstable();
        cands.dedup();
        while cands.len() < self.config.candidates {
            let neg = corpus.sample(rng);
            if !cands.contains(&neg) {
                cands.push(neg);
            }
        }
        cands.truncate(self.config.candidates.max(cands.len()));
        let index_of = |token: usize| -> usize {
            cands
                .iter()
                .position(|&c| c == token)
                .expect("label is in candidate set")
        };
        let mut feed = Feed::new()
            .with("ids", ids)
            .with("cands", cands.clone())
            .with("h0", Tensor::zeros([batch, self.config.hidden]))
            .with("c0", Tensor::zeros([batch, self.config.hidden]));
        for t in 0..self.config.length {
            let labels_t: Vec<usize> = labels[t * batch..(t + 1) * batch]
                .iter()
                .map(|&l| index_of(l))
                .collect();
            feed.insert(format!("labels_{t}"), labels_t);
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
    fn lm_builds_and_embeddings_are_sparse() {
        let model = LmModel::build(LmConfig::tiny()).unwrap();
        let g = &model.built.graph;
        assert!(g.is_sparse_variable(model.emb_in));
        assert!(g.is_sparse_variable(model.emb_out));
        // LSTM kernel is dense.
        let kernel = g.find_variable("lm/lstm/l0/kernel").unwrap();
        assert!(!g.is_sparse_variable(kernel));
    }

    #[test]
    fn lm_forward_backward_produces_all_gradients() {
        let model = LmModel::build(LmConfig::tiny()).unwrap();
        let g = &model.built.graph;
        let mut rng = DetRng::seed(3);
        let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
        let feed = model.feed(&corpus, &mut rng);
        let mut store = VarStore::init(g, &mut DetRng::seed(1));
        let acts = Session::new(g).forward(&feed, &mut store).unwrap();
        let loss = acts.scalar(model.built.loss).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        let grads = backward(g, &acts, model.built.loss).unwrap();
        // Every variable participates.
        assert_eq!(grads.len(), g.variables().len());
        assert!(grads.get(&model.emb_in).unwrap().is_sparse());
        assert!(grads.get(&model.emb_out).unwrap().is_sparse());
    }

    #[test]
    fn lm_trains_down_on_a_fixed_batch() {
        use parallax_dataflow::{Optimizer, Sgd};
        let model = LmModel::build(LmConfig::tiny()).unwrap();
        let g = &model.built.graph;
        let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
        let feed = model.feed(&corpus, &mut DetRng::seed(5));
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
        let first = first.unwrap();
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn sharded_feeds_partition_the_global_batch() {
        let model = LmModel::build(LmConfig::tiny()).unwrap();
        let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
        // Two workers sharding a global batch must see disjoint columns
        // of the same sample when seeded identically.
        let f0 = model.sharded_feed(&corpus, 2, 0, &mut DetRng::seed(8));
        let f1 = model.sharded_feed(&corpus, 2, 1, &mut DetRng::seed(8));
        let ids0 = f0.get("ids").unwrap().as_ids("t").unwrap();
        let ids1 = f1.get("ids").unwrap().as_ids("t").unwrap();
        assert_eq!(ids0.len(), model.config.batch * model.config.length);
        assert_eq!(ids0.len(), ids1.len());
        assert_ne!(ids0, ids1);
    }
}
