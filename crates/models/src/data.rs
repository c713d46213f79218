//! Synthetic datasets.
//!
//! The paper's data mattered through one statistic: which embedding rows
//! a mini-batch touches. [`ZipfCorpus`] samples token streams from a
//! Zipf distribution — the empirical shape of word frequencies — so
//! per-batch distinct-row counts (and hence `alpha`) behave like the
//! One Billion Word / WMT corpora. The `length` knob reproduces the
//! Table 6 sweep: longer instances touch more rows, raising
//! `alpha_model`. [`ImageDataset`] provides random dense inputs for the
//! image models.

use parallax_dataflow::Feed;
use parallax_tensor::{DetRng, Tensor};

/// A synthetic Zipf-distributed token stream.
#[derive(Debug, Clone)]
pub struct ZipfCorpus {
    vocab: usize,
    exponent: f64,
    /// Cumulative distribution over ranks.
    cdf: Vec<f64>,
}

impl ZipfCorpus {
    /// # Examples
    ///
    /// ```
    /// use parallax_models::data::ZipfCorpus;
    /// use parallax_tensor::DetRng;
    /// let corpus = ZipfCorpus::new(100, 1.0);
    /// let (ids, labels) = corpus.sample_batch(4, 3, &mut DetRng::seed(1));
    /// assert_eq!(ids.len(), 12);
    /// assert!(ids.iter().all(|&t| t < 100));
    /// # let _ = labels;
    /// ```
    /// Creates a corpus over `vocab` token ids with Zipf exponent `s`
    /// (natural language is close to `s = 1.0`).
    pub fn new(vocab: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(vocab);
        let mut acc = 0.0f64;
        for rank in 1..=vocab {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfCorpus {
            vocab,
            exponent,
            cdf,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Samples one token id.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.uniform() as f64;
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.vocab - 1),
        }
    }

    /// Samples a batch of `batch` sequences of `length` tokens, flattened
    /// time-major (`t * batch + b`), plus next-token labels.
    pub fn sample_batch(
        &self,
        batch: usize,
        length: usize,
        rng: &mut DetRng,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut ids = Vec::with_capacity(batch * length);
        let mut labels = Vec::with_capacity(batch * length);
        // Sample per-sequence, then interleave time-major.
        let seqs: Vec<Vec<usize>> = (0..batch)
            .map(|_| (0..=length).map(|_| self.sample(rng)).collect())
            .collect();
        for t in 0..length {
            for seq in &seqs {
                ids.push(seq[t]);
                labels.push(seq[t + 1]);
            }
        }
        (ids, labels)
    }
}

/// Synthetic dense image data with class labels.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    /// Flattened feature dimension.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
}

impl ImageDataset {
    /// Creates a dataset description.
    pub fn new(features: usize, classes: usize) -> Self {
        ImageDataset { features, classes }
    }

    /// Samples a `[batch, features]` input and labels.
    pub fn sample_batch(&self, batch: usize, rng: &mut DetRng) -> (Tensor, Vec<usize>) {
        let x = Tensor::randn([batch, self.features], 1.0, rng);
        let labels = (0..batch).map(|_| rng.below(self.classes)).collect();
        (x, labels)
    }

    /// Builds a feed for the image models.
    pub fn feed(&self, batch: usize, rng: &mut DetRng) -> Feed {
        let (x, labels) = self.sample_batch(batch, rng);
        Feed::new().with("x", x).with("labels", labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let corpus = ZipfCorpus::new(1000, 1.0);
        let mut rng = DetRng::seed(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[corpus.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Rank 1 / rank 10 frequency ratio should be near 10 for s=1.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!((4.0..25.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batch_is_time_major_with_next_token_labels() {
        let corpus = ZipfCorpus::new(50, 1.0);
        let mut rng = DetRng::seed(2);
        let (ids, labels) = corpus.sample_batch(4, 3, &mut rng);
        assert_eq!(ids.len(), 12);
        assert_eq!(labels.len(), 12);
        // Label of (t, b) equals id of (t+1, b) for t < length-1.
        for t in 0..2 {
            for b in 0..4 {
                assert_eq!(labels[t * 4 + b], ids[(t + 1) * 4 + b]);
            }
        }
    }

    #[test]
    fn images_have_requested_shape_and_label_range() {
        let ds = ImageDataset::new(64, 10);
        let mut rng = DetRng::seed(4);
        let (x, labels) = ds.sample_batch(8, &mut rng);
        assert_eq!(x.shape().dims(), &[8, 64]);
        assert!(labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let corpus = ZipfCorpus::new(100, 1.0);
        let (a, _) = corpus.sample_batch(4, 4, &mut DetRng::seed(9));
        let (b, _) = corpus.sample_batch(4, 4, &mut DetRng::seed(9));
        assert_eq!(a, b);
    }
}
