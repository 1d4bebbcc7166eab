//! Supervised BLAST (Algorithm 3 of the paper).
//!
//! BLAST keeps, per entity, the maximum probability among its valid incident
//! pairs.  A valid pair `(i, j)` is retained when its probability reaches
//! `r · (max[i] + max[j])`, with the pruning ratio `r = 0.35` by default (the
//! value the paper selects through preliminary experiments).  BLAST is the
//! paper's pick among the weight-based algorithms: it raises precision while
//! *also* slightly raising recall compared with the binary-classifier
//! baseline.

use er_core::PairId;

use crate::pruning::{PruningAlgorithm, ValidPairs};

/// Supervised BLAST.
#[derive(Debug, Clone, Copy)]
pub struct Blast {
    ratio: f64,
}

impl Blast {
    /// The pruning ratio used throughout the paper's evaluation.
    pub const DEFAULT_RATIO: f64 = 0.35;

    /// Creates BLAST with an explicit pruning ratio `r ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if the ratio is outside `(0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            Self::is_ratio(ratio),
            "BLAST pruning ratio must be in (0, 1], got {ratio}"
        );
        Blast { ratio }
    }

    /// True if `ratio` is a pruning ratio: within `(0, 1]`, which NaN is
    /// not.
    pub(crate) fn is_ratio(ratio: f64) -> bool {
        ratio > 0.0 && ratio <= 1.0
    }

    /// The configured pruning ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Default for Blast {
    fn default() -> Self {
        Blast::new(Self::DEFAULT_RATIO)
    }
}

impl PruningAlgorithm for Blast {
    fn name(&self) -> &'static str {
        "BLAST"
    }

    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId> {
        let max = valid.per_entity_maxima();
        valid.ids_where(|pair| {
            self.ratio * (max[pair.a.index()] + max[pair.b.index()]) <= pair.probability
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::{retained_pairs, scored_pairs};

    #[test]
    fn default_ratio_matches_the_paper() {
        assert!((Blast::default().ratio() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn retains_pairs_close_to_their_neighbourhood_maxima() {
        // Entity 0's maximum is 0.9.  With r = 0.35 the pair (0,4) with 0.6
        // needs 0.35 * (0.9 + 0.6) = 0.525 ≤ 0.6 → retained; with r = 0.5 it
        // needs 0.75 → pruned.
        let triples = [(0u32, 3u32, 0.9f64), (0, 4, 0.6), (1, 5, 0.55)];
        let (candidates, scores) = scored_pairs(6, &triples);
        let relaxed = retained_pairs(&Blast::new(0.35), &candidates, &scores);
        let strict = retained_pairs(&Blast::new(0.5), &candidates, &scores);
        assert!(relaxed.contains(&(0, 4)));
        assert!(!strict.contains(&(0, 4)));
        assert!(strict.contains(&(0, 3)));
    }

    #[test]
    fn invalid_pairs_are_discarded_even_with_low_maxima() {
        let (candidates, scores) = scored_pairs(4, &[(0, 2, 0.45), (1, 3, 0.8)]);
        let retained = retained_pairs(&Blast::default(), &candidates, &scores);
        assert_eq!(retained, vec![(1, 3)]);
    }

    #[test]
    fn higher_ratio_prunes_at_least_as_much() {
        let triples = [
            (0u32, 5u32, 0.95f64),
            (0, 6, 0.7),
            (1, 6, 0.55),
            (2, 7, 0.8),
            (2, 8, 0.52),
            (3, 9, 0.62),
        ];
        let (candidates, scores) = scored_pairs(10, &triples);
        let low: std::collections::HashSet<_> = Blast::new(0.35)
            .prune(&candidates, &scores)
            .into_iter()
            .collect();
        let high: std::collections::HashSet<_> = Blast::new(0.6)
            .prune(&candidates, &scores)
            .into_iter()
            .collect();
        assert!(high.is_subset(&low));
    }

    #[test]
    fn context_distinguishes_equal_probabilities() {
        // The paper's motivating example: two pairs with the same probability
        // can be kept or pruned depending on their neighbourhood.  Pair (0,4)
        // and pair (2,5) both have probability 0.55; entity 0 also has a
        // strong 0.95 pair (so 0.55 is far below its maximum with r=0.5),
        // while entity 2's only pair is the 0.55 one.
        let triples = [(0u32, 3u32, 0.95f64), (0, 4, 0.55), (2, 5, 0.55)];
        let (candidates, scores) = scored_pairs(6, &triples);
        let retained = retained_pairs(&Blast::new(0.5), &candidates, &scores);
        assert!(!retained.contains(&(0, 4)));
        assert!(retained.contains(&(2, 5)));
    }

    #[test]
    #[should_panic(expected = "pruning ratio")]
    fn invalid_ratio_panics() {
        let _ = Blast::new(0.0);
    }
}
