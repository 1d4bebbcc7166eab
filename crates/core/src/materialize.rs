//! Materialising the pruning output as a new block collection.
//!
//! Both Supervised and Generalized Supervised Meta-blocking define their
//! output as a new block collection `B'` with one block per retained
//! candidate pair; that collection is what a downstream Matching algorithm
//! consumes.  This module builds `B'` and computes the block-collection-level
//! statistics the paper reports (|P_B|, |N_B| and the reduction ratio).

use er_blocking::{CandidatePairs, CsrBlockCollection};
use er_core::{GroundTruth, PairId};

/// Builds the output block collection `B'`: one two-entity block per retained
/// pair, keyed by the pair's position in the retained list, over the same
/// corpus as `source`.
pub fn materialize_blocks_csr(
    source: &CsrBlockCollection,
    candidates: &CandidatePairs,
    retained: &[PairId],
) -> CsrBlockCollection {
    let pairs = candidates.resolve(retained);
    let blocks = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| (format!("pair{i}"), vec![a, b]));
    CsrBlockCollection::from_blocks(
        source.dataset_name.clone(),
        source.kind,
        source.split,
        source.num_entities,
        blocks,
    )
}

/// The positive/negative pair balance of a candidate set before and after
/// pruning, matching the paper's |P_B| / |N_B| notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningSummary {
    /// Positive (matching) pairs in the input candidate set, |P_B|.
    pub input_positives: usize,
    /// Negative pairs in the input candidate set, |N_B|.
    pub input_negatives: usize,
    /// Positive pairs retained after pruning, |P_B'|.
    pub retained_positives: usize,
    /// Negative pairs retained after pruning, |N_B'|.
    pub retained_negatives: usize,
}

impl PruningSummary {
    /// Computes the summary for a pruning outcome.
    pub fn new(candidates: &CandidatePairs, retained: &[PairId], truth: &GroundTruth) -> Self {
        let input_positives = candidates.count_positives(truth);
        let input_negatives = candidates.len() - input_positives;
        let retained_positives = candidates
            .resolve(retained)
            .into_iter()
            .filter(|&(a, b)| truth.is_match(a, b))
            .count();
        let retained_negatives = retained.len() - retained_positives;
        PruningSummary {
            input_positives,
            input_negatives,
            retained_positives,
            retained_negatives,
        }
    }

    /// The fraction of negative (superfluous) pairs that pruning removed —
    /// the quantity meta-blocking is designed to maximise while keeping the
    /// positives intact.
    pub fn negative_reduction(&self) -> f64 {
        if self.input_negatives == 0 {
            return 0.0;
        }
        1.0 - self.retained_negatives as f64 / self.input_negatives as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::BlockStats;
    use er_core::{DatasetKind, EntityId};

    fn fixture() -> (CsrBlockCollection, CandidatePairs, GroundTruth) {
        let source = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            2,
            4,
            [(
                "b",
                vec![EntityId(0), EntityId(1), EntityId(2), EntityId(3)],
            )],
        );
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&source), 1);
        let truth = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2))]);
        (source, candidates, truth)
    }

    #[test]
    fn materialized_collection_has_one_block_per_retained_pair() {
        let (source, candidates, _) = fixture();
        let retained = vec![PairId(0), PairId(2)];
        let output = materialize_blocks_csr(&source, &candidates, &retained);
        assert_eq!(output.num_blocks(), 2);
        assert!((0..output.num_blocks()).all(|b| output.block_size(b) == 2));
        assert_eq!(output.total_comparisons(), 2);
        assert_eq!(output.kind, source.kind);
        assert_eq!(output.key(1), "pair1");
        let (a, b) = candidates.pair(PairId(2));
        assert_eq!(output.entities(1), &[a, b]);
    }

    #[test]
    fn summary_counts_positives_and_negatives() {
        let (_, candidates, truth) = fixture();
        // Retain the true match and one superfluous pair.
        let match_id = candidates
            .iter()
            .find(|&(_, a, b)| truth.is_match(a, b))
            .map(|(id, _, _)| id)
            .unwrap();
        let non_match_id = candidates
            .iter()
            .find(|&(_, a, b)| !truth.is_match(a, b))
            .map(|(id, _, _)| id)
            .unwrap();
        let summary = PruningSummary::new(&candidates, &[match_id, non_match_id], &truth);
        assert_eq!(summary.input_positives, 1);
        assert_eq!(summary.input_negatives, 3);
        assert_eq!(summary.retained_positives, 1);
        assert_eq!(summary.retained_negatives, 1);
        assert!((summary.negative_reduction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_retention_reduces_everything() {
        let (_, candidates, truth) = fixture();
        let summary = PruningSummary::new(&candidates, &[], &truth);
        assert_eq!(summary.retained_positives, 0);
        assert!((summary.negative_reduction() - 1.0).abs() < 1e-12);
    }
}
