//! Probability sources: how pruning algorithms obtain the matching
//! probability of a candidate pair.
//!
//! The paper's pseudo-code calls `M.getProbability(c_ij)` on every iteration
//! over the candidate set.  Two strategies implement that call here:
//!
//! * [`ModelScorer`] — re-evaluates the classifier on the pair's feature
//!   vector every time, exactly like the pseudo-code;
//! * [`CachedScores`] — evaluates every pair once and stores the probability,
//!   trading memory for speed.
//!
//! Both implement [`ProbabilitySource`], so every pruning algorithm works with
//! either.  [`PruningAlgorithm::prune`](crate::pruning::PruningAlgorithm::prune)
//! asks the source once per candidate pair, in the one pass that collects
//! the valid pairs ([`ValidPairs`](crate::pruning::ValidPairs)), and the
//! algorithms decide on that list; so on demand the classifier runs once
//! per pair as well, inside `prune` (the ablation bench
//! `ablation_probability_cache` measures the difference).  Validity — a
//! probability of at least 0.5, never NaN — is tested in one function,
//! which [`ProbabilitySource::is_valid`] and that collection share.
//!
//! The pipeline's cached path is filled by
//! [`er_features::FeatureMatrix::score_stream_folded`] — the one fused
//! feature + probability pass, which [`er_features::FeatureMatrix::score_rows_with`]
//! and [`er_features::FeatureMatrix::score_stream_with`] run too — so the
//! probabilities here are bit-identical for every thread count, chunk size
//! and tile width.

use er_core::PairId;
use er_features::FeatureMatrix;
use er_learn::ProbabilisticClassifier;

/// The validity threshold of Generalized Supervised Meta-blocking: pairs with
/// a matching probability below 0.5 are discarded before pruning.
const VALIDITY_THRESHOLD: f64 = 0.5;

/// True if a pair with matching probability `p` is *valid*: `p` reaches
/// [`VALIDITY_THRESHOLD`].  NaN never does.  This is the one validity test:
/// [`ProbabilitySource::is_valid`] and the pruning algorithms' valid-pair
/// collection both call it.
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

/// Pairs per worker below which [`ModelScorer::cache_with_threads`] does not
/// start another one (see [`er_core::workers_for`]).
const MIN_PAIRS_PER_WORKER: usize = 1024;

/// Provides the matching probability of each candidate pair.
pub trait ProbabilitySource {
    /// Number of candidate pairs covered.
    fn num_pairs(&self) -> usize;

    /// The matching probability of one pair, in `[0, 1]`.
    fn probability(&self, pair: PairId) -> f64;

    /// True if the pair is *valid*, i.e. its probability reaches the 0.5
    /// threshold (a NaN probability never does).
    fn is_valid(&self, pair: PairId) -> bool {
        is_valid_probability(self.probability(pair))
    }
}

/// Scores pairs by running the classifier on their feature vectors on demand.
pub struct ModelScorer<'a> {
    model: &'a dyn ProbabilisticClassifier,
    features: &'a FeatureMatrix,
}

impl<'a> ModelScorer<'a> {
    /// Creates a scorer over a trained model and the feature matrix of all
    /// candidate pairs.
    pub fn new(model: &'a dyn ProbabilisticClassifier, features: &'a FeatureMatrix) -> Self {
        ModelScorer { model, features }
    }

    /// Materialises every probability into a [`CachedScores`], scoring rows
    /// in parallel with the workspace's shared chunk-queue driver.
    pub fn cache(&self) -> CachedScores {
        self.cache_with_threads(er_core::available_threads())
    }

    /// Materialises every probability with an explicit worker-thread count.
    ///
    /// The output is deterministic and identical to the sequential pass for
    /// any thread count (each slot is written independently).
    pub(crate) fn cache_with_threads(&self, threads: usize) -> CachedScores {
        let num_pairs = self.features.num_pairs();
        let mut probabilities = vec![0.0f64; num_pairs];
        let threads = er_core::workers_for(num_pairs, threads, MIN_PAIRS_PER_WORKER);
        er_core::fill_rows_parallel(&mut probabilities, 1, threads, 4096, |first, chunk| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = self.probability(PairId::from(first + offset));
            }
        });
        CachedScores::new(probabilities)
    }
}

impl ProbabilitySource for ModelScorer<'_> {
    fn num_pairs(&self) -> usize {
        self.features.num_pairs()
    }

    fn probability(&self, pair: PairId) -> f64 {
        self.model.probability(self.features.row(pair))
    }
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

impl ProbabilitySource for CachedScores {
    fn num_pairs(&self) -> usize {
        self.probabilities.len()
    }

    fn probability(&self, pair: PairId) -> f64 {
        self.probabilities[pair.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::{BlockStats, CandidatePairs, CsrBlockCollection};
    use er_core::{DatasetKind, EntityId};
    use er_features::{FeatureContext, FeatureSet};

    struct FirstFeature;

    impl ProbabilisticClassifier for FirstFeature {
        fn probability(&self, features: &[f64]) -> f64 {
            features[0].clamp(0.0, 1.0)
        }
    }

    fn fixture() -> (CsrBlockCollection, CandidatePairs) {
        let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
        let bc = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            2,
            4,
            [("a", ids(&[0, 2])), ("b", ids(&[0, 1, 2, 3]))],
        );
        let cands = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        (bc, cands)
    }

    #[test]
    fn model_scorer_and_cache_agree() {
        let (bc, cands) = fixture();
        let stats = BlockStats::from_csr(&bc);
        let ctx = FeatureContext::new(&stats, &cands);
        let matrix =
            FeatureMatrix::build(&ctx, FeatureSet::from_schemes([er_features::Scheme::Js]));
        let model = FirstFeature;
        let scorer = ModelScorer::new(&model, &matrix);
        let cached = scorer.cache();
        assert_eq!(scorer.num_pairs(), cached.num_pairs());
        for i in 0..scorer.num_pairs() {
            let id = PairId::from(i);
            assert!((scorer.probability(id) - cached.probability(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_cache_matches_sequential_cache() {
        let (bc, cands) = fixture();
        let stats = BlockStats::from_csr(&bc);
        let ctx = FeatureContext::new(&stats, &cands);
        let matrix = FeatureMatrix::build(&ctx, FeatureSet::all_schemes());
        let model = FirstFeature;
        let scorer = ModelScorer::new(&model, &matrix);
        let sequential = scorer.cache_with_threads(1);
        for threads in [2, 4, 8] {
            let parallel = scorer.cache_with_threads(threads);
            assert_eq!(
                parallel.as_slice(),
                sequential.as_slice(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn validity_threshold_is_half() {
        let scores = CachedScores::new(vec![0.49, 0.5, 0.9]);
        assert!(!scores.is_valid(PairId(0)));
        assert!(scores.is_valid(PairId(1)));
        assert!(scores.is_valid(PairId(2)));
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
