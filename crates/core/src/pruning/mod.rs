//! Supervised pruning algorithms.
//!
//! Every algorithm receives the candidate pairs and a [`ProbabilitySource`]
//! and returns the subset of pair ids to retain; a new block is created per
//! retained pair.  Algorithms are grouped into two families:
//!
//! * **weight-based** ([`Wep`], [`Wnp`], [`Rwnp`], [`Blast`], plus the
//!   baseline [`Bcl`]) determine the probability above which a pair is
//!   retained, globally or per entity — these favour recall;
//! * **cardinality-based** ([`Cep`], [`Cnp`], [`Rcnp`]) determine how many
//!   top-weighted pairs to retain, globally or per entity — these favour
//!   precision.

mod bcl;
mod blast;
pub(crate) mod cep;
mod cnp;
mod rcnp;
mod rwnp;
mod wep;
mod wnp;

pub use bcl::Bcl;
pub use blast::Blast;
pub use cep::Cep;
pub use cnp::Cnp;
pub use rcnp::Rcnp;
pub use rwnp::Rwnp;
pub use wep::Wep;
pub use wnp::Wnp;

use er_blocking::{CandidatePairs, CsrBlockCollection};
use er_core::PairId;

use crate::scoring::ProbabilitySource;

/// A supervised pruning algorithm.
pub trait PruningAlgorithm {
    /// Short name used in experiment reports ("BLAST", "RCNP", …).
    fn name(&self) -> &'static str;

    /// Returns the ids of the retained candidate pairs, in ascending order.
    fn prune(&self, candidates: &CandidatePairs, scores: &dyn ProbabilitySource) -> Vec<PairId>;
}

/// The thresholds of the cardinality-based algorithms, derived from the input
/// block collection exactly as in the paper:
/// `K = Σ_b |b| / 2` for CEP and `k = max(1, Σ_b |b| / (|E1| + |E2|))` for
/// CNP/RCNP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardinalityThresholds {
    /// Global number of retained pairs (CEP's `K`).
    pub global_k: usize,
    /// Per-entity queue size (CNP/RCNP's `k`).
    pub per_entity_k: usize,
}

impl CardinalityThresholds {
    /// Derives both thresholds from a block collection.
    pub fn from_csr(blocks: &CsrBlockCollection) -> Self {
        let sum_sizes = blocks.sum_block_sizes();
        let num_entities = blocks.num_entities;
        let global_k = (sum_sizes / 2).max(1) as usize;
        let per_entity_k =
            ((sum_sizes as f64 / num_entities.max(1) as f64).floor() as usize).max(1);
        CardinalityThresholds {
            global_k,
            per_entity_k,
        }
    }
}

/// Identifies one of the supervised pruning algorithms; used by the
/// experiment harness to construct algorithms uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// The original Supervised Meta-blocking binary classifier (retain every
    /// pair with probability ≥ 0.5).
    Bcl,
    /// Weighted Edge Pruning.
    Wep,
    /// Weighted Node Pruning.
    Wnp,
    /// Reciprocal Weighted Node Pruning.
    Rwnp,
    /// BLAST (per-entity maximum-probability threshold).
    Blast,
    /// Cardinality Edge Pruning.
    Cep,
    /// Cardinality Node Pruning.
    Cnp,
    /// Reciprocal Cardinality Node Pruning.
    Rcnp,
}

impl AlgorithmKind {
    /// The weight-based algorithms compared in Figure 5.
    pub fn weight_based() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::Bcl,
            AlgorithmKind::Wep,
            AlgorithmKind::Wnp,
            AlgorithmKind::Rwnp,
            AlgorithmKind::Blast,
        ]
    }

    /// The cardinality-based algorithms compared in Figure 6.
    pub fn cardinality_based() -> [AlgorithmKind; 3] {
        [AlgorithmKind::Cep, AlgorithmKind::Cnp, AlgorithmKind::Rcnp]
    }

    /// All algorithms.
    pub fn all() -> [AlgorithmKind; 8] {
        [
            AlgorithmKind::Bcl,
            AlgorithmKind::Wep,
            AlgorithmKind::Wnp,
            AlgorithmKind::Rwnp,
            AlgorithmKind::Blast,
            AlgorithmKind::Cep,
            AlgorithmKind::Cnp,
            AlgorithmKind::Rcnp,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Bcl => "BCl",
            AlgorithmKind::Wep => "WEP",
            AlgorithmKind::Wnp => "WNP",
            AlgorithmKind::Rwnp => "RWNP",
            AlgorithmKind::Blast => "BLAST",
            AlgorithmKind::Cep => "CEP",
            AlgorithmKind::Cnp => "CNP",
            AlgorithmKind::Rcnp => "RCNP",
        }
    }

    /// Builds the algorithm, deriving cardinality thresholds from the block
    /// collection and using the paper's default BLAST ratio of 0.35.
    pub fn build_csr(self, blocks: &CsrBlockCollection) -> Box<dyn PruningAlgorithm> {
        self.build_with_csr(blocks, Blast::DEFAULT_RATIO)
    }

    /// Builds the algorithm with an explicit BLAST pruning ratio.
    pub fn build_with_csr(
        self,
        blocks: &CsrBlockCollection,
        blast_ratio: f64,
    ) -> Box<dyn PruningAlgorithm> {
        let thresholds = CardinalityThresholds::from_csr(blocks);
        match self {
            AlgorithmKind::Bcl => Box::new(Bcl),
            AlgorithmKind::Wep => Box::new(Wep),
            AlgorithmKind::Wnp => Box::new(Wnp),
            AlgorithmKind::Rwnp => Box::new(Rwnp),
            AlgorithmKind::Blast => Box::new(Blast::new(blast_ratio)),
            AlgorithmKind::Cep => Box::new(Cep::new(thresholds.global_k)),
            AlgorithmKind::Cnp => Box::new(Cnp::new(thresholds.per_entity_k)),
            AlgorithmKind::Rcnp => Box::new(Rcnp::new(thresholds.per_entity_k)),
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared helper: per-entity average probability of the *valid* incident
/// pairs (used by WNP and RWNP).
pub(crate) fn per_entity_average_probabilities(
    candidates: &CandidatePairs,
    scores: &dyn ProbabilitySource,
) -> Vec<Option<f64>> {
    let n = candidates.num_entities();
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0u32; n];
    for (id, a, b) in candidates.iter() {
        let p = scores.probability(id);
        if p >= crate::scoring::VALIDITY_THRESHOLD {
            sums[a.index()] += p;
            counts[a.index()] += 1;
            sums[b.index()] += p;
            counts[b.index()] += 1;
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(sum, count)| {
            if count > 0 {
                Some(sum / f64::from(count))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::scoring::CachedScores;
    use er_core::EntityId;

    /// Builds a candidate set and cached scores from explicit `(a, b, p)`
    /// triples.  Pairs are supplied pre-sorted so the ids are predictable.
    pub(crate) fn scored_pairs(
        num_entities: usize,
        triples: &[(u32, u32, f64)],
    ) -> (CandidatePairs, CachedScores) {
        let pairs: Vec<(EntityId, EntityId)> = triples
            .iter()
            .map(|&(a, b, _)| (EntityId(a), EntityId(b)))
            .collect();
        let candidates = CandidatePairs::from_pairs(num_entities, pairs.clone());
        // CandidatePairs sorts pairs, so remap the probabilities accordingly.
        let mut probabilities = vec![0.0; triples.len()];
        for &(a, b, p) in triples {
            let key = if a <= b {
                (EntityId(a), EntityId(b))
            } else {
                (EntityId(b), EntityId(a))
            };
            let idx = candidates
                .pairs()
                .binary_search(&key)
                .expect("pair missing after normalization");
            probabilities[idx] = p;
        }
        (candidates, CachedScores::new(probabilities))
    }

    /// Convenience: runs an algorithm and returns the retained pairs as
    /// `(u32, u32)` tuples for easy assertions.
    pub fn retained_pairs(
        algorithm: &dyn PruningAlgorithm,
        candidates: &CandidatePairs,
        scores: &CachedScores,
    ) -> Vec<(u32, u32)> {
        algorithm
            .prune(candidates, scores)
            .into_iter()
            .map(|id| {
                let (a, b) = candidates.pair(id);
                (a.0, b.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{DatasetKind, EntityId};

    #[test]
    fn thresholds_follow_the_paper_formulas() {
        let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
        let blocks = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            3,
            6,
            [
                ("a", ids(&[0, 3])),
                ("b", ids(&[0, 1, 3, 4])),
                ("c", ids(&[2, 5])),
            ],
        );
        let thresholds = CardinalityThresholds::from_csr(&blocks);
        // Σ|b| = 2 + 4 + 2 = 8 → K = 4, k = max(1, 8/6) = 1.
        assert_eq!(thresholds.global_k, 4);
        assert_eq!(thresholds.per_entity_k, 1);
    }

    #[test]
    fn algorithm_families_are_disjoint_and_complete() {
        let weight: std::collections::HashSet<_> =
            AlgorithmKind::weight_based().into_iter().collect();
        let cardinality: std::collections::HashSet<_> =
            AlgorithmKind::cardinality_based().into_iter().collect();
        assert!(weight.is_disjoint(&cardinality));
        assert_eq!(weight.len() + cardinality.len(), AlgorithmKind::all().len());
        assert!(cardinality.contains(&AlgorithmKind::Rcnp));
        assert!(!cardinality.contains(&AlgorithmKind::Blast));
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmKind::Blast.to_string(), "BLAST");
        assert_eq!(AlgorithmKind::Bcl.to_string(), "BCl");
    }
}
