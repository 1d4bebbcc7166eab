//! Supervised Weighted Node Pruning (Algorithm 2 of the paper).
//!
//! WNP replaces WEP's single global threshold with one threshold per entity:
//! the average probability of the entity's valid incident pairs.  A valid
//! pair is retained if it reaches the average of *either* endpoint, which
//! makes WNP the most recall-friendly of the node-centric algorithms.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised Weighted Node Pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wnp;

impl PruningAlgorithm for Wnp {
    fn name(&self) -> &'static str {
        "WNP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        let averages = valid.per_entity_averages();
        valid.ids_where(|pair| {
            averages[pair.a.index()] <= pair.probability
                || averages[pair.b.index()] <= pair.probability
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn local_thresholds_keep_contextually_strong_pairs() {
        // Entity 0 has pairs with probabilities 0.9 and 0.6 → average 0.75.
        // Entity 1 has a single pair 0.6 → average 0.6.
        // The 0.6 pair (0,4) fails entity 0's average but there is no other
        // endpoint rescue; the 0.6 pair (1,5) passes entity 1's own average.
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.9), (0, 4, 0.6), (1, 5, 0.6)]);
        let retained = retained_pairs(&Wnp, &candidates, &scores);
        assert!(retained.contains(&(0, 3)));
        assert!(retained.contains(&(1, 5)));
        // (0,4): entity 0 average 0.75 > 0.6, entity 4 average = 0.6 ≤ 0.6 →
        // rescued by the other endpoint, exactly the "context" behaviour the
        // paper describes.
        assert!(retained.contains(&(0, 4)));
    }

    #[test]
    fn invalid_pairs_are_never_retained() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.45), (1, 3, 0.7)]);
        let retained = retained_pairs(&Wnp, &candidates, &scores);
        assert_eq!(retained, vec![(1, 3)]);
    }

    #[test]
    fn pair_below_both_averages_is_pruned() {
        // Entity 0: pairs 0.9, 0.95, 0.55 → average 0.8.
        // Entity 5 (the weak pair's other endpoint): pairs 0.55, 0.9 → avg 0.725.
        // The 0.55 pair is below both endpoint averages → pruned.
        let (candidates, scores) =
            scored_pairs(7, &[(0, 3, 0.9), (0, 4, 0.95), (0, 5, 0.55), (1, 5, 0.9)]);
        let retained = retained_pairs(&Wnp, &candidates, &scores);
        assert!(!retained.contains(&(0, 5)));
        assert!(retained.contains(&(0, 3)));
        assert!(retained.contains(&(0, 4)));
        assert!(retained.contains(&(1, 5)));
    }

    #[test]
    fn retains_no_more_than_bcl() {
        use crate::pruning::Bcl;
        let (candidates, scores) = scored_pairs(
            10,
            &[
                (0, 5, 0.55),
                (0, 6, 0.92),
                (1, 6, 0.61),
                (2, 7, 0.97),
                (2, 8, 0.53),
                (3, 9, 0.2),
            ],
        );
        let wnp = Wnp.prune(&candidates, &scores);
        let bcl = Bcl.prune(&candidates, &scores);
        assert!(wnp.len() <= bcl.len());
        assert!(wnp.iter().all(|id| bcl.contains(id)));
    }
}
