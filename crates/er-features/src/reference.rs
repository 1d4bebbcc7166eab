//! The retained pre-refactor feature engine, kept verbatim for equivalence
//! tests and before/after benchmarking.
//!
//! This module reproduces the original hot path faithfully:
//!
//! * block statistics through the nested `Vec<Vec<BlockId>>` adjacency
//!   ([`er_blocking::reference::NaiveBlockStats`]);
//! * one division per common block and one `ln()` per CF-IBF/EJS factor on
//!   **every** pair evaluation (nothing precomputed beyond the per-entity
//!   normalisation sums the old code cached);
//! * matrix construction with a temporary row vector per pair, EJS
//!   re-deriving JS through `score_with`, and fixed per-thread chunking
//!   instead of a work-stealing queue.
//!
//! The production engine ([`crate::FeatureContext`] +
//! [`crate::FeatureMatrix`]) must produce values within 1e-12 of this module
//! on any input; benchmarks compare the two to quantify the CSR/fused-pass
//! speedup.  Nothing here should be used on a hot path.

use er_blocking::reference::NaiveBlockStats;
use er_blocking::{CandidatePairs, CsrBlockCollection};
use er_core::EntityId;

use crate::feature_set::FeatureSet;
use crate::generator::FeatureMatrix;
use crate::schemes::Scheme;

/// The pre-refactor feature context: per-entity normalisation sums only,
/// everything else derived per pair.
#[derive(Debug)]
pub struct NaiveFeatureContext<'a> {
    stats: NaiveBlockStats,
    candidates: &'a CandidatePairs,
    /// Σ_{b ∈ B_i} 1/||b|| per entity (denominator of WJS).
    entity_inv_comparisons: Vec<f64>,
    /// Σ_{b ∈ B_i} 1/|b| per entity (denominator of NRS).
    entity_inv_sizes: Vec<f64>,
    num_blocks: f64,
    total_comparisons: f64,
}

/// The per-pair co-occurrence aggregates, as the old code computed them
/// (divisions inside the merge loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveCooccurrence {
    /// |B_i ∩ B_j|.
    pub common_blocks: usize,
    /// Σ 1/||b|| over common blocks.
    pub inv_comparisons_sum: f64,
    /// Σ 1/|b| over common blocks.
    pub inv_sizes_sum: f64,
}

impl<'a> NaiveFeatureContext<'a> {
    /// Builds the naive context (computing its own nested-vec statistics).
    pub fn new(blocks: &CsrBlockCollection, candidates: &'a CandidatePairs) -> Self {
        let stats = NaiveBlockStats::from_csr(blocks);
        let n = stats.num_entities();
        let mut entity_inv_comparisons = vec![0.0; n];
        let mut entity_inv_sizes = vec![0.0; n];
        for e in 0..n {
            let entity = EntityId::from(e);
            let mut inv_comp = 0.0;
            let mut inv_size = 0.0;
            for &b in stats.blocks_of(entity) {
                let comparisons = stats.block_comparisons(b);
                if comparisons > 0 {
                    inv_comp += 1.0 / comparisons as f64;
                }
                let size = stats.block_size(b);
                if size > 0 {
                    inv_size += 1.0 / f64::from(size);
                }
            }
            entity_inv_comparisons[e] = inv_comp;
            entity_inv_sizes[e] = inv_size;
        }
        let num_blocks = stats.num_blocks() as f64;
        let total_comparisons = stats.total_comparisons() as f64;
        NaiveFeatureContext {
            stats,
            candidates,
            entity_inv_comparisons,
            entity_inv_sizes,
            num_blocks,
            total_comparisons,
        }
    }

    /// One merge over the common blocks, dividing on every hit like the
    /// original implementation.
    pub fn cooccurrence(&self, a: EntityId, b: EntityId) -> NaiveCooccurrence {
        let mut agg = NaiveCooccurrence::default();
        self.stats.for_each_common_block(a, b, |block| {
            agg.common_blocks += 1;
            let comparisons = self.stats.block_comparisons(block);
            if comparisons > 0 {
                agg.inv_comparisons_sum += 1.0 / comparisons as f64;
            }
            let size = self.stats.block_size(block);
            if size > 0 {
                agg.inv_sizes_sum += 1.0 / f64::from(size);
            }
        });
        agg
    }

    /// Evaluates one scheme from precomputed aggregates, re-deriving the
    /// logarithmic factors on every call exactly like the original code.
    pub fn score_with(
        &self,
        scheme: Scheme,
        a: EntityId,
        b: EntityId,
        agg: &NaiveCooccurrence,
    ) -> f64 {
        match scheme {
            Scheme::CfIbf => agg.common_blocks as f64 * self.ibf(a) * self.ibf(b),
            Scheme::Raccb => agg.inv_comparisons_sum,
            Scheme::Js => {
                let cb = agg.common_blocks as f64;
                let union =
                    self.stats.num_blocks_of(a) as f64 + self.stats.num_blocks_of(b) as f64 - cb;
                if union > 0.0 {
                    cb / union
                } else {
                    0.0
                }
            }
            Scheme::Lcp => self.lcp(a),
            Scheme::Ejs => {
                let js = self.score_with(Scheme::Js, a, b, agg);
                js * self.inverse_candidate_frequency(a) * self.inverse_candidate_frequency(b)
            }
            Scheme::Wjs => {
                let numerator = agg.inv_comparisons_sum;
                let denominator = self.entity_inv_comparisons[a.index()]
                    + self.entity_inv_comparisons[b.index()]
                    - numerator;
                if denominator > 0.0 {
                    numerator / denominator
                } else {
                    0.0
                }
            }
            Scheme::Rs => agg.inv_sizes_sum,
            Scheme::Nrs => {
                let numerator = agg.inv_sizes_sum;
                let denominator =
                    self.entity_inv_sizes[a.index()] + self.entity_inv_sizes[b.index()] - numerator;
                if denominator > 0.0 {
                    numerator / denominator
                } else {
                    0.0
                }
            }
        }
    }

    fn ibf(&self, entity: EntityId) -> f64 {
        let blocks_of = self.stats.num_blocks_of(entity) as f64;
        if blocks_of > 0.0 && self.num_blocks > 0.0 {
            (self.num_blocks / blocks_of).ln()
        } else {
            0.0
        }
    }

    fn inverse_candidate_frequency(&self, entity: EntityId) -> f64 {
        let entity_comparisons = self.stats.entity_comparisons(entity) as f64;
        if entity_comparisons > 0.0 && self.total_comparisons > 0.0 {
            (self.total_comparisons / entity_comparisons).ln()
        } else {
            0.0
        }
    }

    fn lcp(&self, entity: EntityId) -> f64 {
        f64::from(self.candidates.candidates_of(entity))
    }

    /// Writes the feature vector of a pair into `out` (cleared first),
    /// evaluating every scheme independently.
    pub fn pair_features(&self, a: EntityId, b: EntityId, set: FeatureSet, out: &mut Vec<f64>) {
        out.clear();
        let agg = self.cooccurrence(a, b);
        for scheme in Scheme::ALL {
            if !set.contains(scheme) {
                continue;
            }
            if scheme == Scheme::Lcp {
                out.push(self.lcp(a));
                out.push(self.lcp(b));
            } else {
                out.push(self.score_with(scheme, a, b, &agg));
            }
        }
    }

    /// Builds the full feature matrix the pre-refactor way: a temporary row
    /// vector per pair and fixed contiguous per-thread chunks (the original
    /// crossbeam layout, here on `std::thread::scope`).
    pub fn build_matrix(&self, set: FeatureSet, threads: usize) -> FeatureMatrix {
        let candidates = self.candidates;
        let num_features = set.vector_len();
        let num_pairs = candidates.len();
        let mut values = vec![0.0f64; num_features * num_pairs];
        // Writes the rows of the pairs `start..start + rows`, one temporary
        // row vector per pair, into `chunk`.
        let fill = |start: usize, chunk: &mut [f64]| {
            let end = start + chunk.len() / num_features;
            let mut row = Vec::with_capacity(num_features);
            let mut slots = chunk.chunks_mut(num_features);
            for (a, _, partners) in candidates.runs_in(start..end) {
                for &b in partners {
                    self.pair_features(a, EntityId(b), set, &mut row);
                    slots
                        .next()
                        .expect("one row per pair")
                        .copy_from_slice(&row);
                }
            }
        };

        let threads = threads.max(1).min(num_pairs.max(1));
        if threads <= 1 || num_pairs < 1024 {
            fill(0, &mut values);
        } else {
            let chunk_rows = num_pairs.div_ceil(threads);
            let chunk_len = chunk_rows * num_features;
            std::thread::scope(|scope| {
                for (chunk_index, chunk) in values.chunks_mut(chunk_len).enumerate() {
                    let fill = &fill;
                    scope.spawn(move || fill(chunk_index * chunk_rows, chunk));
                }
            });
        }

        FeatureMatrix::from_parts(set, num_features, num_pairs, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FeatureContext;
    use er_blocking::BlockStats;
    use er_core::DatasetKind;

    fn fixture() -> CsrBlockCollection {
        let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
        CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            3,
            6,
            [
                ("a", ids(&[0, 3])),
                ("b", ids(&[0, 1, 3, 4])),
                ("c", ids(&[1, 4])),
                ("d", ids(&[2, 5])),
                ("e", ids(&[0, 1, 2, 3, 4, 5])),
            ],
        )
    }

    #[test]
    fn naive_engine_matches_production_engine() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        let naive_ctx = NaiveFeatureContext::new(&bc, &candidates);
        let ctx = FeatureContext::new(&stats, &candidates);
        for set in [FeatureSet::all_schemes(), FeatureSet::rcnp_optimal()] {
            let naive = naive_ctx.build_matrix(set, 1);
            let fused = FeatureMatrix::build(&ctx, set);
            assert_eq!(naive.num_pairs(), fused.num_pairs());
            for (id, row) in naive.rows() {
                for (x, y) in fused.row(id).iter().zip(row) {
                    assert!((x - y).abs() < 1e-12, "{set}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn naive_parallel_build_matches_sequential() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let naive_ctx = NaiveFeatureContext::new(&bc, &candidates);
        let set = FeatureSet::all_schemes();
        let sequential = naive_ctx.build_matrix(set, 1);
        let parallel = naive_ctx.build_matrix(set, 4);
        for (id, row) in sequential.rows() {
            assert_eq!(parallel.row(id), row);
        }
    }
}
