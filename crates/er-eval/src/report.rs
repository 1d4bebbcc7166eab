//! Distribution reports: the histograms behind Figures 12, 13, 15 and 16.

use er_core::GroundTruth;
use meta_blocking::scoring::CachedScores;

use crate::experiment::PreparedDataset;

/// Histogram of matching probabilities, split by pair class (Figure 12).
#[derive(Debug, Clone)]
pub struct ProbabilityHistogram {
    /// Number of equal-width bins over [0, 1].
    pub num_bins: usize,
    /// Counts of duplicate (matching) pairs per bin.
    pub matching: Vec<usize>,
    /// Counts of non-matching pairs per bin.
    pub non_matching: Vec<usize>,
}

impl ProbabilityHistogram {
    /// Builds the histogram from the scored candidate pairs of a prepared
    /// dataset.
    pub fn build(
        prepared: &PreparedDataset,
        scores: &CachedScores,
        num_bins: usize,
    ) -> ProbabilityHistogram {
        let num_bins = num_bins.max(1);
        let mut matching = vec![0usize; num_bins];
        let mut non_matching = vec![0usize; num_bins];
        let truth: &GroundTruth = &prepared.dataset.ground_truth;
        for ((id, a, b), &p) in prepared.candidates.iter().zip(scores.as_slice()) {
            let _ = id;
            let bin = ((p * num_bins as f64) as usize).min(num_bins - 1);
            if truth.is_match(a, b) {
                matching[bin] += 1;
            } else {
                non_matching[bin] += 1;
            }
        }
        ProbabilityHistogram {
            num_bins,
            matching,
            non_matching,
        }
    }

    /// The mean probability of one class (`true` = matching pairs), computed
    /// from bin centres.
    pub fn mean_probability(&self, matching: bool) -> f64 {
        let counts = if matching {
            &self.matching
        } else {
            &self.non_matching
        };
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 0.5) / self.num_bins as f64 * c as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Distribution of the number of blocks shared by each duplicate pair
/// (Figures 15 and 16).  Index 0 counts the duplicates sharing *no* block
/// (missed by blocking); index 1 counts those sharing exactly one block
/// (missed by meta-blocking's co-occurrence evidence); and so on.
#[derive(Debug, Clone)]
pub struct CommonBlockDistribution {
    /// `counts[k]` = number of duplicate pairs sharing exactly `k` blocks.
    pub counts: Vec<usize>,
    /// Total number of duplicate pairs in the ground truth.
    pub total_duplicates: usize,
}

impl CommonBlockDistribution {
    /// Builds the distribution for a prepared dataset.
    pub fn build(prepared: &PreparedDataset) -> CommonBlockDistribution {
        let mut counts: Vec<usize> = Vec::new();
        let truth = &prepared.dataset.ground_truth;
        for &(a, b) in truth.pairs() {
            let common = prepared.stats.common_blocks(a, b);
            if counts.len() <= common {
                counts.resize(common + 1, 0);
            }
            counts[common] += 1;
        }
        CommonBlockDistribution {
            counts,
            total_duplicates: truth.len(),
        }
    }

    /// The portion (in `[0, 1]`) of duplicates sharing exactly `k` blocks.
    pub fn portion(&self, k: usize) -> f64 {
        if self.total_duplicates == 0 {
            return 0.0;
        }
        self.counts.get(k).copied().unwrap_or(0) as f64 / self.total_duplicates as f64
    }

    /// The portion of duplicates sharing at most one block — the quantity the
    /// paper uses to explain which datasets stay below 0.9 recall.
    pub fn portion_at_most_one(&self) -> f64 {
        self.portion(0) + self.portion(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::train_and_score;
    use crate::experiment::{default_config, run_once};
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    use er_features::FeatureSet;
    use meta_blocking::pipeline::MetaBlockingConfig;
    use meta_blocking::pruning::AlgorithmKind;

    fn prepared() -> PreparedDataset {
        let dataset =
            generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
        PreparedDataset::prepare(dataset).unwrap()
    }

    #[test]
    fn probability_histogram_separates_classes() {
        let prepared = prepared();
        let config = MetaBlockingConfig {
            per_class: 20,
            feature_set: FeatureSet::blast_optimal(),
            ..default_config()
        };
        let (scores, _, _) = train_and_score(&prepared, &config, 7).unwrap();
        let histogram = ProbabilityHistogram::build(&prepared, &scores, 20);
        assert_eq!(histogram.matching.len(), 20);
        let total: usize =
            histogram.matching.iter().sum::<usize>() + histogram.non_matching.iter().sum::<usize>();
        assert_eq!(total, prepared.num_candidates());
        // Matching pairs must receive higher probabilities on average.
        assert!(histogram.mean_probability(true) > histogram.mean_probability(false));
    }

    #[test]
    fn common_block_distribution_sums_to_duplicates() {
        let prepared = prepared();
        let distribution = CommonBlockDistribution::build(&prepared);
        assert_eq!(
            distribution.counts.iter().sum::<usize>(),
            distribution.total_duplicates
        );
        let all_portions: f64 = (0..distribution.counts.len())
            .map(|k| distribution.portion(k))
            .sum();
        assert!((all_portions - 1.0).abs() < 1e-9);
        assert!(distribution.portion_at_most_one() <= 1.0);
    }

    #[test]
    fn run_once_smoke_for_report_module() {
        // Ensures the report module composes with the experiment runner.
        let prepared = prepared();
        let config = MetaBlockingConfig {
            per_class: 20,
            ..default_config()
        };
        let result = run_once(&prepared, AlgorithmKind::Wnp, &config).unwrap();
        assert!(result.retained > 0);
    }
}
