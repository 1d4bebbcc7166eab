//! Matching probabilities: the one form in which pruning receives them.
//!
//! The paper's pseudo-code calls `M.getProbability(c_ij)` on every iteration
//! over the candidate set.  Here the classifier runs once per candidate
//! pair, in the scoring pass, and [`CachedScores`] holds the results in
//! pair-id order.  Pruning reads each probability once, in the one pass
//! that collects the valid pairs
//! ([`ValidPairs::collect`](crate::pruning::ValidPairs::collect)), and every
//! algorithm decides on that list.  Validity — a probability of at least
//! 0.5, never NaN — is tested in one function, and the range check — every
//! value a finite number in `[0, 1]` — in another; [`CachedScores::new`]
//! and every way into the valid-pair list share the range check, so no NaN
//! reaches an algorithm.
//!
//! The pipeline's probabilities come from
//! [`er_features::FeatureMatrix::score_stream_folded`] — the one fused
//! feature + probability pass, which [`er_features::FeatureMatrix::score_rows_with`]
//! and [`er_features::FeatureMatrix::score_stream_with`] run too — so the
//! probabilities here are bit-identical for every thread count, chunk size
//! and tile width.

/// The validity threshold of Generalized Supervised Meta-blocking: pairs with
/// a matching probability below 0.5 are discarded before pruning.
const VALIDITY_THRESHOLD: f64 = 0.5;

/// True if a pair with matching probability `p` is *valid*: `p` reaches
/// [`VALIDITY_THRESHOLD`].  NaN never does.  This is the one validity test:
/// every way into the pruning algorithms' valid-pair list calls it.
pub(crate) fn is_valid_probability(p: f64) -> bool {
    p >= VALIDITY_THRESHOLD
}

/// True if `p` is a probability: within `[0, 1]`, which no NaN and no
/// infinity is.
pub(crate) fn is_probability(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

/// True if every value is a probability.  Chunks of branch-free
/// comparisons, so the check over a corpus-sized slice vectorises and stops
/// at the first bad chunk.
fn all_probabilities(values: &[f64]) -> bool {
    values
        .chunks(1024)
        .all(|chunk| chunk.iter().fold(true, |all, &p| all & is_probability(p)))
}

/// The probability-range check's verdict: panics unless every value was a
/// probability.  [`CachedScores::new`] and the valid-pair collection over a
/// probability slice share it, and with it their panic message.
pub(crate) fn assert_probabilities(all_in_range: bool) {
    assert!(
        all_in_range,
        "probabilities must be finite and within [0, 1]"
    );
}

/// Pre-computed probabilities for every candidate pair.
#[derive(Debug, Clone)]
pub struct CachedScores {
    probabilities: Vec<f64>,
}

impl CachedScores {
    /// Wraps a probability vector (one entry per candidate pair).
    ///
    /// # Panics
    /// Panics if any probability is not a finite number in `[0, 1]`.
    pub fn new(probabilities: Vec<f64>) -> Self {
        assert_probabilities(all_probabilities(&probabilities));
        CachedScores { probabilities }
    }

    /// Wraps a probability vector whose range the caller has checked while
    /// it produced the values: the pipeline's scoring pass keeps each
    /// chunk's valid pairs, and joining them
    /// (`ValidPairs::from_chunks`) makes [`CachedScores::new`]'s check.
    pub(crate) fn range_checked_by_caller(probabilities: Vec<f64>) -> Self {
        CachedScores { probabilities }
    }

    /// The underlying probability slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.probabilities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_threshold_is_half() {
        assert!(!is_valid_probability(0.49));
        assert!(is_valid_probability(0.5));
        assert!(is_valid_probability(0.9));
    }

    #[test]
    #[should_panic(expected = "probabilities must be finite")]
    fn invalid_probabilities_rejected() {
        let _ = CachedScores::new(vec![1.5]);
    }

    #[test]
    fn the_probability_check_takes_the_closed_unit_interval_only() {
        let accepted = |p: f64| {
            // One bad value deep inside a long slice, past the first chunk.
            let mut values = vec![0.25; 3000];
            values[2500] = p;
            std::panic::catch_unwind(|| CachedScores::new(values)).is_ok()
        };
        for p in [0.0, -0.0, 1.0, 0.5, f64::MIN_POSITIVE] {
            assert!(accepted(p), "{p} is a probability");
        }
        for p in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 + f64::EPSILON,
            -f64::MIN_POSITIVE,
        ] {
            assert!(!accepted(p), "{p} is not a probability");
        }
        assert!(all_probabilities(&[]));
    }

    #[test]
    fn nan_is_never_valid() {
        assert!(!is_valid_probability(f64::NAN));
        assert!(is_valid_probability(0.5));
        assert!(!is_valid_probability(0.5 - f64::EPSILON));
    }
}
