//! BCl: the original Supervised Meta-blocking baseline.
//!
//! The original approach trains a binary classifier and keeps every candidate
//! pair classified as positive.  With a probabilistic classifier this is
//! simply "retain every pair whose probability reaches 0.5" — a single,
//! global, learned threshold.  It approximates WEP and serves as the
//! weight-based baseline in every comparison of the paper.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// The binary-classifier baseline of the original Supervised Meta-blocking.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bcl;

impl PruningAlgorithm for Bcl {
    fn name(&self) -> &'static str {
        "BCl"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        valid.ids_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn retains_exactly_the_valid_pairs() {
        let (candidates, scores) =
            scored_pairs(6, &[(0, 3, 0.9), (0, 4, 0.49), (1, 4, 0.5), (2, 5, 0.1)]);
        let retained = retained_pairs(&Bcl, &candidates, &scores);
        assert_eq!(retained, vec![(0, 3), (1, 4)]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let (candidates, scores) = scored_pairs(2, &[]);
        assert!(Bcl.prune(&candidates, &scores).is_empty());
    }

    #[test]
    fn all_valid_pairs_survive() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.8), (1, 3, 0.7), (0, 3, 0.6)]);
        assert_eq!(Bcl.prune(&candidates, &scores).len(), 3);
    }
}
