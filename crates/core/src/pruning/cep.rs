//! Supervised Cardinality Edge Pruning (Algorithm 4 of the paper).
//!
//! CEP retains the `K` top-weighted valid pairs globally, with
//! `K = Σ_b |b| / 2` derived from the input block collection.  It bounds the
//! number of retained comparisons explicitly, favouring precision.

use er_core::PairId;

use crate::pruning::{by_rank, PruningAlgorithm, ValidPairs};

/// Supervised Cardinality Edge Pruning.
#[derive(Debug, Clone, Copy)]
pub struct Cep {
    k: usize,
}

impl Cep {
    /// Creates CEP retaining at most `k` pairs.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "CEP requires K >= 1");
        Cep { k }
    }

    /// The maximum number of retained pairs.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl PruningAlgorithm for Cep {
    fn name(&self) -> &'static str {
        "CEP"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        if valid.len() <= self.k {
            return valid.ids_where(|_| true);
        }
        let mut ranked = valid.pairs().to_vec();
        ranked.select_nth_unstable_by(self.k - 1, by_rank);
        let mut retained: Vec<PairId> = ranked[..self.k].iter().map(|pair| pair.id).collect();
        retained.sort_unstable();
        retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn keeps_the_top_k_valid_pairs() {
        let (candidates, scores) = scored_pairs(
            10,
            &[
                (0, 5, 0.9),
                (1, 6, 0.8),
                (2, 7, 0.7),
                (3, 8, 0.6),
                (4, 9, 0.3),
            ],
        );
        let retained = retained_pairs(&Cep::new(2), &candidates, &scores);
        assert_eq!(retained, vec![(0, 5), (1, 6)]);
    }

    #[test]
    fn never_exceeds_k() {
        let triples: Vec<(u32, u32, f64)> = (0..20u32)
            .map(|i| (i, i + 20, 0.5 + f64::from(i) * 0.02))
            .collect();
        let (candidates, scores) = scored_pairs(40, &triples);
        assert_eq!(Cep::new(7).prune(&candidates, &scores).len(), 7);
    }

    #[test]
    fn retains_fewer_when_not_enough_valid_pairs() {
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.9), (1, 4, 0.2), (2, 5, 0.1)]);
        assert_eq!(Cep::new(5).prune(&candidates, &scores).len(), 1);
    }

    #[test]
    fn ties_are_resolved_deterministically() {
        let (candidates, scores) =
            scored_pairs(8, &[(0, 4, 0.8), (1, 5, 0.8), (2, 6, 0.8), (3, 7, 0.8)]);
        let a = Cep::new(2).prune(&candidates, &scores);
        let b = Cep::new(2).prune(&candidates, &scores);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "K >= 1")]
    fn zero_k_panics() {
        let _ = Cep::new(0);
    }
}
