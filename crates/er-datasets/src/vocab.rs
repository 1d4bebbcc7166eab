//! Zipfian token vocabulary.
//!
//! Real attribute values mix very frequent tokens (stop-word-like, e.g.
//! "smartphone") with rare, distinctive ones (model numbers).  A Zipfian
//! vocabulary reproduces that skew: token `r` (rank starting at 1) is sampled
//! with probability proportional to `1 / r^s`.  The skew determines the
//! block-size distribution after Token Blocking, which in turn drives every
//! weighting scheme.

use rand::Rng;

/// A token vocabulary with a Zipfian sampling distribution.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// Cumulative sampling weights, normalised to end at 1.0.
    cumulative: Vec<f64>,
}

impl Vocabulary {
    /// Creates a vocabulary of `size` tokens with Zipf exponent `exponent`.
    ///
    /// # Panics
    /// Panics if `size` is zero or `exponent` is negative.
    pub fn new(size: usize, exponent: f64) -> Self {
        assert!(size > 0, "vocabulary size must be positive");
        assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(size);
        let mut acc = 0.0;
        for rank in 1..=size {
            acc += 1.0 / (rank as f64).powf(exponent);
            cumulative.push(acc);
        }
        let total = acc;
        for value in &mut cumulative {
            *value /= total;
        }
        Vocabulary { cumulative }
    }

    /// Number of tokens in the vocabulary.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if the vocabulary is empty (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples a token index according to the Zipf distribution
    /// (index 0 is the most frequent token).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let x: f64 = rng.gen();
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.len() - 1)
    }

    /// Samples a token index uniformly from the rarest `tail_fraction` of the
    /// vocabulary.  Used to give duplicate pairs distinctive shared tokens.
    pub(crate) fn sample_tail(&self, rng: &mut impl Rng, tail_fraction: f64) -> usize {
        let tail_fraction = tail_fraction.clamp(0.0001, 1.0);
        let start = ((1.0 - tail_fraction) * self.len() as f64) as usize;
        rng.gen_range(start..self.len())
    }

    /// Renders a token index as its string form (`tok<index>`).
    pub fn token(&self, index: usize) -> String {
        format!("tok{index}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::seeded_rng;

    #[test]
    fn head_tokens_are_sampled_more_often() {
        let vocab = Vocabulary::new(1000, 1.0);
        let mut rng = seeded_rng(1);
        let mut head = 0usize;
        let mut tail = 0usize;
        for _ in 0..20_000 {
            let idx = vocab.sample(&mut rng);
            if idx < 10 {
                head += 1;
            } else if idx >= 500 {
                tail += 1;
            }
        }
        assert!(head > tail, "head {head} should exceed tail {tail}");
    }

    #[test]
    fn zero_exponent_is_uniform_like() {
        let vocab = Vocabulary::new(100, 0.0);
        let mut rng = seeded_rng(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[vocab.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "uniform sampling too skewed: {min}..{max}");
    }

    #[test]
    fn sample_tail_stays_in_tail() {
        let vocab = Vocabulary::new(1000, 1.2);
        let mut rng = seeded_rng(3);
        for _ in 0..1000 {
            let idx = vocab.sample_tail(&mut rng, 0.25);
            assert!(idx >= 750, "tail sample {idx} outside tail");
        }
    }

    #[test]
    fn sample_never_exceeds_bounds() {
        let vocab = Vocabulary::new(5, 1.0);
        let mut rng = seeded_rng(4);
        for _ in 0..1000 {
            assert!(vocab.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn token_rendering() {
        let vocab = Vocabulary::new(3, 1.0);
        assert_eq!(vocab.token(2), "tok2");
        assert_eq!(vocab.len(), 3);
        assert!(!vocab.is_empty());
    }

    #[test]
    #[should_panic(expected = "vocabulary size")]
    fn zero_size_panics() {
        let _ = Vocabulary::new(0, 1.0);
    }
}
