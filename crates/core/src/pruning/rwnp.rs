//! Supervised Reciprocal Weighted Node Pruning.
//!
//! Identical to WNP except that a pair must reach the per-entity average of
//! *both* endpoints, producing a consistently deeper pruning (higher
//! precision, lower recall).

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised Reciprocal Weighted Node Pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rwnp;

impl PruningAlgorithm for Rwnp {
    fn name(&self) -> &'static str {
        "RWNP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        let averages = valid.per_entity_averages();
        valid.ids_where(|pair| {
            averages[pair.a.index()] <= pair.probability
                && averages[pair.b.index()] <= pair.probability
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};
    use crate::pruning::Wnp;

    #[test]
    fn requires_both_endpoint_averages() {
        // (0,4) with 0.6: entity 0 average (0.75) rejects it, entity 4 average
        // (0.6) accepts it → WNP keeps it, RWNP prunes it.
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.9), (0, 4, 0.6), (1, 5, 0.6)]);
        let wnp = retained_pairs(&Wnp, &candidates, &scores);
        let rwnp = retained_pairs(&Rwnp, &candidates, &scores);
        assert!(wnp.contains(&(0, 4)));
        assert!(!rwnp.contains(&(0, 4)));
        assert!(rwnp.contains(&(0, 3)));
    }

    #[test]
    fn is_a_subset_of_wnp() {
        let (candidates, scores) = scored_pairs(
            12,
            &[
                (0, 6, 0.9),
                (0, 7, 0.55),
                (1, 7, 0.8),
                (2, 8, 0.65),
                (2, 9, 0.72),
                (3, 10, 0.5),
                (4, 11, 0.97),
                (5, 11, 0.61),
            ],
        );
        let wnp: std::collections::HashSet<_> =
            Wnp.prune(&candidates, &scores).into_iter().collect();
        let rwnp: std::collections::HashSet<_> =
            Rwnp.prune(&candidates, &scores).into_iter().collect();
        assert!(rwnp.is_subset(&wnp));
    }

    #[test]
    fn single_pair_entities_keep_their_only_pair() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.7), (1, 3, 0.51)]);
        let retained = retained_pairs(&Rwnp, &candidates, &scores);
        assert_eq!(retained, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn invalid_pairs_never_pass() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.4), (1, 3, 0.3)]);
        assert!(Rwnp.prune(&candidates, &scores).is_empty());
    }
}
