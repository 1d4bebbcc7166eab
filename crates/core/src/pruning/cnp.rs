//! Supervised Cardinality Node Pruning (Algorithm 5 of the paper).
//!
//! CNP keeps, for every entity, the `k` top-weighted valid pairs incident to
//! it, with `k = max(1, Σ_b |b| / (|E1| + |E2|))`.  A pair is retained if it
//! appears in the top-`k` list of *either* endpoint.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised Cardinality Node Pruning.
#[derive(Debug, Clone, Copy)]
pub struct Cnp {
    k: usize,
}

impl Cnp {
    /// Creates CNP with a per-entity queue size of `k`.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "CNP requires k >= 1");
        Cnp { k }
    }

    /// The per-entity queue size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl PruningAlgorithm for Cnp {
    fn name(&self) -> &'static str {
        "CNP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        valid.ids_in_top_k(self.k, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn keeps_top_k_per_entity() {
        // Entity 0 has three valid pairs; with k = 1 only its best (0.9)
        // survives via entity 0, but (0,5) survives via entity 5's own queue.
        let (candidates, scores) =
            scored_pairs(6, &[(0, 3, 0.9), (0, 4, 0.7), (0, 5, 0.6), (1, 5, 0.55)]);
        let retained = retained_pairs(&Cnp::new(1), &candidates, &scores);
        assert!(retained.contains(&(0, 3)));
        // (0,4) is entity 4's only pair → kept through entity 4's queue.
        assert!(retained.contains(&(0, 4)));
        // (0,5) is entity 5's best pair → kept through entity 5's queue.
        assert!(retained.contains(&(0, 5)));
        // (1,5) loses in both queues: entity 1's queue holds it, actually it
        // is entity 1's only pair → kept.  All pairs survive except none here;
        // verify at least the counts are consistent with OR semantics.
        assert_eq!(retained.len(), 4);
    }

    #[test]
    fn deeper_pruning_when_entities_are_crowded() {
        // One hub entity (0) with five pairs, all its neighbours have only
        // this pair.  With k = 2, every pair is still retained through the
        // leaf entities' queues (OR semantics), which is why CNP is the
        // recall-friendlier cardinality algorithm.
        let triples: Vec<(u32, u32, f64)> = (1..=5u32)
            .map(|i| (0, i + 5, 0.5 + f64::from(i) * 0.05))
            .collect();
        let (candidates, scores) = scored_pairs(11, &triples);
        let retained = retained_pairs(&Cnp::new(2), &candidates, &scores);
        assert_eq!(retained.len(), 5);
    }

    #[test]
    fn invalid_pairs_are_dropped() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.3), (1, 3, 0.9)]);
        let retained = retained_pairs(&Cnp::new(3), &candidates, &scores);
        assert_eq!(retained, vec![(1, 3)]);
    }

    #[test]
    fn larger_k_retains_at_least_as_many() {
        let triples: Vec<(u32, u32, f64)> = (0..10u32)
            .flat_map(|i| {
                (0..3u32).map(move |j| (i, 10 + ((i + j) % 10), 0.5 + f64::from(i * 3 + j) * 0.01))
            })
            .collect();
        let (candidates, scores) = scored_pairs(20, &triples);
        let small = Cnp::new(1).prune(&candidates, &scores).len();
        let large = Cnp::new(3).prune(&candidates, &scores).len();
        assert!(small <= large);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = Cnp::new(0);
    }
}
