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
//! either (the ablation bench `ablation_probability_cache` measures the
//! difference).
//!
//! The pipeline's cached path is filled by
//! [`er_features::FeatureMatrix::score_rows_with`] (or, in chunked mode,
//! [`er_features::FeatureMatrix::score_stream_with`]) — the one fused
//! feature + probability pass — so the probabilities here are bit-identical
//! for every thread count and chunk size.

use er_core::PairId;
use er_features::FeatureMatrix;
use er_learn::ProbabilisticClassifier;

/// The validity threshold of Generalized Supervised Meta-blocking: pairs with
/// a matching probability below 0.5 are discarded before pruning.
pub(crate) const VALIDITY_THRESHOLD: f64 = 0.5;

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
    /// threshold.
    fn is_valid(&self, pair: PairId) -> bool {
        self.probability(pair) >= VALIDITY_THRESHOLD
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
        assert!(
            probabilities
                .iter()
                .all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
            "probabilities must be finite and within [0, 1]"
        );
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
}
