//! The tiny lm/nmt training job every executed `repro` gate runs.
//!
//! A Parallax user supplies a single-device graph, one resource
//! specification and a config (paper Figure 3). [`Job`] supplies the
//! graph for the two sparse presets: it parses the preset name, builds
//! the tiny model and its Zipf corpora once, and hands out what a gate
//! reads from them, namely a sparsity profile, sharded feeds and a
//! runner for the gate's topology and config. Every gate names its own
//! seeds, so each keeps the data it has always trained on.

use parallax_core::sparsity::{estimate_profile, SparsityProfile};
use parallax_core::{get_runner, ParallaxConfig, Runner};
use parallax_dataflow::{Feed, Graph, NodeId};
use parallax_models::data::ZipfCorpus;
use parallax_models::lm::{LmConfig, LmModel};
use parallax_models::nmt::{NmtConfig, NmtModel};
use parallax_models::BuiltModel;
use parallax_tensor::DetRng;

/// The sample seed of the default sparsity profile.
pub const PROFILE_SEED: u64 = 100;

/// A preset's built tiny model and the corpora its feeds draw from.
pub enum Job {
    /// The LSTM language model over one corpus.
    Lm {
        /// The built model.
        model: LmModel,
        /// Token stream for ids, labels and sampled candidates.
        corpus: ZipfCorpus,
    },
    /// The sequence-to-sequence model over a source and a target corpus.
    Nmt {
        /// The built model.
        model: NmtModel,
        /// Source-language token stream.
        src: ZipfCorpus,
        /// Target-language token stream.
        tgt: ZipfCorpus,
    },
}

impl Job {
    /// Builds preset `name` (`lm` or `nmt`); any other name is an error.
    pub fn new(name: &str) -> Result<Job, String> {
        match name {
            "lm" => {
                let model = LmModel::build(LmConfig::tiny()).map_err(|e| e.to_string())?;
                let corpus = ZipfCorpus::new(model.config.vocab, 1.0);
                Ok(Job::Lm { model, corpus })
            }
            "nmt" => {
                let model = NmtModel::build(NmtConfig::tiny()).map_err(|e| e.to_string())?;
                let src = ZipfCorpus::new(model.config.src_vocab, 1.0);
                let tgt = ZipfCorpus::new(model.config.tgt_vocab, 1.0);
                Ok(Job::Nmt { model, src, tgt })
            }
            other => Err(format!("unknown preset '{other}' (expected lm or nmt)")),
        }
    }

    /// The preset name (`lm`, `nmt`).
    pub fn name(&self) -> &'static str {
        match self {
            Job::Lm { .. } => "lm",
            Job::Nmt { .. } => "nmt",
        }
    }

    /// The report label (`LM (tiny)`, `NMT (tiny)`).
    pub fn label(&self) -> &'static str {
        match self {
            Job::Lm { .. } => "LM (tiny)",
            Job::Nmt { .. } => "NMT (tiny)",
        }
    }

    /// Graph, loss and logits.
    pub fn built(&self) -> &BuiltModel {
        match self {
            Job::Lm { model, .. } => &model.built,
            Job::Nmt { model, .. } => &model.built,
        }
    }

    /// The single-device graph the job trains.
    pub fn graph(&self) -> &Graph {
        &self.built().graph
    }

    /// The loss node.
    pub fn loss(&self) -> NodeId {
        self.built().loss
    }

    /// The sparsity profile of one unsharded batch drawn from `seed`.
    pub fn profile(&self, seed: u64) -> parallax_core::Result<SparsityProfile> {
        let rng = &mut DetRng::seed(seed);
        let feed = match self {
            Job::Lm { model, corpus } => model.feed(corpus, rng),
            Job::Nmt { model, src, tgt } => model.feed(src, tgt, rng),
        };
        estimate_profile(self.graph(), &[feed], 1)
    }

    /// Worker `w`'s shard of a `workers`-way global batch drawn from
    /// `seed`.
    pub fn feed(&self, workers: usize, w: usize, seed: u64) -> Feed {
        let rng = &mut DetRng::seed(seed);
        match self {
            Job::Lm { model, corpus } => model.sharded_feed(corpus, workers, w, rng),
            Job::Nmt { model, src, tgt } => model.sharded_feed(src, tgt, workers, w, rng),
        }
    }

    /// The default feed seed of iteration `i`: 5000 + i for lm, 6000 + i
    /// for nmt.
    pub fn feed_seed(&self, i: usize) -> u64 {
        let base = match self {
            Job::Lm { .. } => 5000,
            Job::Nmt { .. } => 6000,
        };
        base + i as u64
    }

    /// A runner on `gpus_per_machine` under `config`, planned from the
    /// profile drawn from `profile_seed`.
    pub fn runner(
        &self,
        gpus_per_machine: Vec<usize>,
        config: ParallaxConfig,
        profile_seed: u64,
    ) -> parallax_core::Result<Runner> {
        get_runner(
            self.graph().clone(),
            self.loss(),
            gpus_per_machine,
            config,
            self.profile(profile_seed)?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_shard_one_global_batch() {
        for name in ["lm", "nmt"] {
            let job = Job::new(name).unwrap();
            assert_eq!(job.name(), name);
            let a = job.feed(2, 0, job.feed_seed(1));
            let b = job.feed(2, 1, job.feed_seed(1));
            assert!(!a.is_empty());
            assert_eq!(a.len(), b.len());
        }
    }
}
