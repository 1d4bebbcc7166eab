//! Supervised Weighted Edge Pruning (Algorithm 1 of the paper).
//!
//! WEP computes the average probability of all *valid* pairs (probability
//! ≥ 0.5) and retains every pair whose probability reaches that global
//! average.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised Weighted Edge Pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wep;

impl PruningAlgorithm for Wep {
    fn name(&self) -> &'static str {
        "WEP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        if valid.is_empty() {
            return Vec::new();
        }
        // The average of valid probabilities is itself at least the
        // validity threshold, so no invalid pair could reach it.
        let sum = valid
            .pairs()
            .iter()
            .fold(0.0f64, |sum, pair| sum + pair.probability);
        let mean = sum / valid.len() as f64;
        valid.ids_where(|pair| pair.probability >= mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn retains_pairs_at_or_above_the_valid_average() {
        // Valid pairs: 0.6, 0.8, 1.0 → mean 0.8; the 0.4 pair is ignored by
        // the average and pruned.
        let (candidates, scores) =
            scored_pairs(8, &[(0, 4, 0.6), (1, 5, 0.8), (2, 6, 1.0), (3, 7, 0.4)]);
        let retained = retained_pairs(&Wep, &candidates, &scores);
        assert_eq!(retained, vec![(1, 5), (2, 6)]);
    }

    #[test]
    fn prunes_more_aggressively_than_bcl() {
        use crate::pruning::Bcl;
        let (candidates, scores) = scored_pairs(
            10,
            &[
                (0, 5, 0.55),
                (1, 6, 0.60),
                (2, 7, 0.95),
                (3, 8, 0.90),
                (4, 9, 0.52),
            ],
        );
        let wep = Wep.prune(&candidates, &scores);
        let bcl = Bcl.prune(&candidates, &scores);
        assert!(wep.len() < bcl.len());
        // Everything WEP keeps, BCl keeps too.
        assert!(wep.iter().all(|id| bcl.contains(id)));
    }

    #[test]
    fn no_valid_pairs_returns_empty() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.3), (1, 3, 0.2)]);
        assert!(Wep.prune(&candidates, &scores).is_empty());
    }

    #[test]
    fn uniform_probabilities_keep_everything_valid() {
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.7), (1, 4, 0.7), (2, 5, 0.7)]);
        assert_eq!(Wep.prune(&candidates, &scores).len(), 3);
    }
}
