//! Supervised pruning algorithms.
//!
//! Every algorithm decides on the valid pairs of a scored candidate set
//! ([`ValidPairs`]) and returns the subset of pair ids to retain; a new
//! block is created per retained pair.  Algorithms are grouped into two
//! families:
//!
//! * **weight-based** ([`Wep`], [`Wnp`], [`Rwnp`], [`Blast`], plus the
//!   baseline [`Bcl`]) determine the probability above which a pair is
//!   retained, globally or per entity — these favour recall;
//! * **cardinality-based** ([`Cep`], [`Cnp`], [`Rcnp`]) determine how many
//!   top-weighted pairs to retain, globally or per entity — these favour
//!   precision.
//!
//! # One validity test, one list
//!
//! No algorithm keeps a pair below the validity threshold, so none needs
//! to see one.  Validity is tested in one place: [`ValidPairs`] collects
//! the valid pairs `(id, a, b, p)` in ascending pair-id order, reading each
//! candidate's probability once, and every algorithm decides on that list
//! alone ([`PruningAlgorithm::prune_valid`]).  Every way into the list makes
//! the probability range check, so no NaN reaches an algorithm.  On the
//! paper's data the list is a fraction of a percent of the candidates.
//! Per-entity aggregates (averages, maxima, top-`k` lists) are built from
//! it in list order, so every sum adds the
//! same terms in the same order as a scan of the candidate list would, and
//! the top-`k` lists rank by probability descending, then pair id
//! ascending.  The batch pipeline keeps the list while it scores, chunk by
//! chunk; er-eval collects it once per scoring pass from the probability
//! slice ([`ValidPairs::collect`]) and runs every algorithm it compares on
//! that one list; [`PruningAlgorithm::prune`] collects it on the calling
//! thread.

mod bcl;
mod blast;
mod cep;
mod cnp;
mod rcnp;
#[cfg(test)]
mod reference;
mod rwnp;
mod valid;
mod wep;
mod wnp;

pub use bcl::Bcl;
pub use blast::Blast;
pub use cep::Cep;
pub use cnp::Cnp;
pub use rcnp::Rcnp;
pub use rwnp::Rwnp;
pub(crate) use valid::{by_rank, ValidChunk};
pub use valid::{ValidPair, ValidPairs};
pub use wep::Wep;
pub use wnp::Wnp;

use er_blocking::{CandidatePairs, CsrBlockCollection};
use er_core::{Error, PairId, Result};

use crate::scoring::CachedScores;

/// A supervised pruning algorithm.
pub trait PruningAlgorithm {
    /// Short name used in experiment reports ("BLAST", "RCNP", …).
    fn name(&self) -> &'static str;

    /// Returns the ids of the retained pairs among the valid ones, in
    /// ascending order.
    fn prune_valid(&self, valid: &ValidPairs) -> Vec<PairId>;

    /// Returns the ids of the retained candidate pairs, in ascending order:
    /// collects the valid pairs on the calling thread, then decides on them.
    fn prune(&self, candidates: &CandidatePairs, scores: &CachedScores) -> Vec<PairId> {
        self.prune_valid(&ValidPairs::collect(candidates, scores.as_slice(), 1))
    }
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

    /// Checks the parameters [`AlgorithmKind::build_with_csr`] would build
    /// this algorithm with, so that a run can refuse them before any work:
    /// BLAST's pruning ratio must lie in `(0, 1]`; the other algorithms
    /// ignore it.
    pub fn check_parameters(self, blast_ratio: f64) -> Result<()> {
        if self == AlgorithmKind::Blast && !Blast::is_ratio(blast_ratio) {
            return Err(Error::InvalidParameter(format!(
                "BLAST pruning ratio must be in (0, 1], got {blast_ratio}"
            )));
        }
        Ok(())
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

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use er_core::EntityId;

    /// The message a caught panic carries.
    pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
        panic
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

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
    use super::test_support::panic_message;
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

    /// A classifier can return NaN.  No NaN reaches an algorithm: `prune`
    /// and every collection refuse it, as `CachedScores::new` does, and a
    /// pair scored 0 in its place is pruned like any invalid pair.
    #[test]
    fn a_nan_probability_prunes_like_an_invalid_one() {
        // Entity 0's pairs come first: (0,1) NaN, (0,2) 0.9, (0,3) 0.8.
        let candidates = CandidatePairs::from_pairs(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4)]
                .map(|(a, b)| (EntityId(a), EntityId(b))),
        );
        let probabilities = [f64::NAN, 0.9, 0.8, 0.7, f64::NAN, 0.6];
        let refused = "probabilities must be finite and within [0, 1]";
        for threads in [1, 3] {
            let panic = std::panic::catch_unwind(|| {
                ValidPairs::collect(&candidates, &probabilities, threads)
            })
            .expect_err("NaN is not a probability");
            assert_eq!(panic_message(panic), refused, "{threads} threads");
        }
        // `prune` makes the check itself, even on scores that skipped it.
        let unchecked = CachedScores::range_checked_by_caller(probabilities.to_vec());
        let panic = std::panic::catch_unwind(|| Bcl.prune(&candidates, &unchecked))
            .expect_err("NaN is not a probability");
        assert_eq!(panic_message(panic), refused);

        let zero = CachedScores::new(
            probabilities
                .map(|p| if p.is_nan() { 0.0 } else { p })
                .to_vec(),
        );
        let algorithms: Vec<Box<dyn PruningAlgorithm>> = vec![
            Box::new(Bcl),
            Box::new(Wep),
            Box::new(Wnp),
            Box::new(Rwnp),
            Box::new(Blast::default()),
            Box::new(Cep::new(1)),
            Box::new(Cep::new(2)),
            Box::new(Cnp::new(1)),
            Box::new(Cnp::new(2)),
            Box::new(Rcnp::new(1)),
            Box::new(Rcnp::new(2)),
        ];
        for algorithm in &algorithms {
            let retained = algorithm.prune(&candidates, &zero);
            assert!(!retained.contains(&PairId(0)), "{}", algorithm.name());
        }
        // The cases that used to keep the NaN pair (0,1).
        let ids = |v: &[u32]| v.iter().copied().map(PairId).collect::<Vec<_>>();
        assert_eq!(Rcnp::new(1).prune(&candidates, &zero), ids(&[1, 3]));
        assert_eq!(Cnp::new(1).prune(&candidates, &zero), ids(&[1, 2, 3]));
        assert_eq!(Cep::new(2).prune(&candidates, &zero), ids(&[1, 2]));
    }

    #[test]
    fn display_names() {
        assert_eq!(AlgorithmKind::Blast.to_string(), "BLAST");
        assert_eq!(AlgorithmKind::Bcl.to_string(), "BCl");
    }
}
