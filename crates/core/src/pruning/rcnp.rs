//! Supervised Reciprocal Cardinality Node Pruning.
//!
//! RCNP tightens CNP by requiring that a retained pair appears in the
//! top-`k` queue of *both* endpoints.  It is the paper's selected
//! cardinality-based algorithm: compared with CNP it trades a little recall
//! for a large precision gain.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised Reciprocal Cardinality Node Pruning.
#[derive(Debug, Clone, Copy)]
pub struct Rcnp {
    k: usize,
}

impl Rcnp {
    /// Creates RCNP with a per-entity queue size of `k`.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "RCNP requires k >= 1");
        Rcnp { k }
    }

    /// The per-entity queue size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl PruningAlgorithm for Rcnp {
    fn name(&self) -> &'static str {
        "RCNP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        valid.ids_in_top_k(self.k, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};
    use crate::pruning::Cnp;

    #[test]
    fn requires_membership_in_both_queues() {
        // Hub entity 0 with three pairs, k = 1: only the strongest pair (0,3)
        // is in entity 0's queue.  (0,4) and (0,5) are in their leaves' queues
        // only → CNP keeps them, RCNP prunes them.
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.9), (0, 4, 0.7), (0, 5, 0.6)]);
        let cnp = retained_pairs(&Cnp::new(1), &candidates, &scores);
        let rcnp = retained_pairs(&Rcnp::new(1), &candidates, &scores);
        assert_eq!(cnp.len(), 3);
        assert_eq!(rcnp, vec![(0, 3)]);
    }

    #[test]
    fn is_a_subset_of_cnp() {
        let triples: Vec<(u32, u32, f64)> = (0..8u32)
            .flat_map(|i| {
                (0..4u32).map(move |j| {
                    (
                        i,
                        8 + ((i + j) % 8),
                        0.5 + f64::from((i * 4 + j) % 17) * 0.02,
                    )
                })
            })
            .collect();
        let (candidates, scores) = scored_pairs(16, &triples);
        let cnp: std::collections::HashSet<_> = Cnp::new(2)
            .prune(&candidates, &scores)
            .into_iter()
            .collect();
        let rcnp: std::collections::HashSet<_> = Rcnp::new(2)
            .prune(&candidates, &scores)
            .into_iter()
            .collect();
        assert!(rcnp.is_subset(&cnp));
        assert!(rcnp.len() < cnp.len());
    }

    #[test]
    fn mutual_best_pairs_survive() {
        // Two disjoint strong pairs: each is the best of both endpoints.
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.95), (1, 3, 0.85)]);
        let retained = retained_pairs(&Rcnp::new(1), &candidates, &scores);
        assert_eq!(retained, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn invalid_pairs_never_survive() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.49), (1, 3, 0.2)]);
        assert!(Rcnp::new(3).prune(&candidates, &scores).is_empty());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = Rcnp::new(0);
    }
}
