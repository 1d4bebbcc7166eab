//! Feature context: per-entity aggregates and per-pair scheme evaluation.

use er_blocking::{BlockStats, CandidatePairs};
use er_core::EntityId;

use crate::feature_set::FeatureSet;
use crate::schemes::Scheme;

/// Everything needed to score a candidate pair with any weighting scheme.
///
/// The context borrows the block statistics and candidate pairs.  Its
/// per-entity quantities — the WJS/NRS normalisation sums, the CF-IBF
/// `log(|B|/|B_i|)` factors, the EJS `log(||B||/||e_i||)` factors and the
/// LCP counts — are those of the [`StreamFeatureContext`] it wraps, built
/// over the candidate set's own LCP table, so that each per-pair evaluation
/// costs a single merge over the two sorted CSR block lists with no
/// divisions and no logarithms.
#[derive(Debug)]
pub struct FeatureContext<'a> {
    entities: StreamFeatureContext<'a>,
    candidates: &'a CandidatePairs,
}

/// The raw per-pair co-occurrence aggregates from which every scheme is
/// computed: one merge over the common blocks yields all three sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairCooccurrence {
    /// |B_i ∩ B_j|: number of common blocks.
    pub common_blocks: usize,
    /// Σ_{b ∈ B_i ∩ B_j} 1/||b||.
    pub inv_comparisons_sum: f64,
    /// Σ_{b ∈ B_i ∩ B_j} 1/|b|.
    pub inv_sizes_sum: f64,
}

/// The per-entity aggregates every weighting scheme reads.
///
/// [`StreamFeatureContext`] precomputes these for the whole corpus;
/// incremental consumers (the `er-stream` delta scorer) compute them only
/// for the entities touched by a batch and feed the same fused writer,
/// [`write_features_from`] — so the scheme formulas live in exactly one
/// place no matter which engine evaluates them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EntityAggregates {
    /// `|B_i|`: number of blocks containing the entity, as an `f64` (the JS
    /// union formula consumes it in floating point).
    pub num_blocks: f64,
    /// Σ_{b ∈ B_i} 1/||b|| (denominator of WJS).
    pub inv_comparisons: f64,
    /// Σ_{b ∈ B_i} 1/|b| (denominator of NRS).
    pub inv_sizes: f64,
    /// `ln(|B| / |B_i|)`: the CF-IBF inverse-block-frequency factor.
    pub ibf: f64,
    /// `ln(||B|| / ||e_i||)`: the EJS inverse-candidate-frequency factor.
    pub icf: f64,
    /// LCP: the entity's number of distinct candidates.
    pub lcp: f64,
}

/// Writes the feature vector of a pair from its co-occurrence aggregates and
/// the two endpoints' per-entity aggregates.  `out` must be exactly
/// `set.vector_len()` long; columns follow the canonical scheme order with
/// LCP expanding into `LCP(e_i), LCP(e_j)`.
///
/// This is the single home of the per-pair scheme formulas: the fused
/// scoring pass of [`crate::FeatureMatrix`], the per-pair
/// [`FeatureContext::write_pair_features`] and the incremental
/// `er-stream` scorer all delegate here, so their outputs are bit-identical
/// whenever their aggregates are.
#[inline]
pub fn write_features_from(
    a: &EntityAggregates,
    b: &EntityAggregates,
    agg: &PairCooccurrence,
    set: FeatureSet,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), set.vector_len());
    let cb = agg.common_blocks as f64;

    // JS is needed by both the Js and Ejs columns; derive it once.
    let needs_js = set.contains(Scheme::Js) || set.contains(Scheme::Ejs);
    let js = if needs_js {
        let union = a.num_blocks + b.num_blocks - cb;
        if union > 0.0 {
            cb / union
        } else {
            0.0
        }
    } else {
        0.0
    };

    let mut cursor = 0;
    let mut push = |slot: &mut usize, value: f64| {
        out[*slot] = value;
        *slot += 1;
    };
    if set.contains(Scheme::CfIbf) {
        push(&mut cursor, cb * a.ibf * b.ibf);
    }
    if set.contains(Scheme::Raccb) {
        push(&mut cursor, agg.inv_comparisons_sum);
    }
    if set.contains(Scheme::Js) {
        push(&mut cursor, js);
    }
    if set.contains(Scheme::Lcp) {
        push(&mut cursor, a.lcp);
        push(&mut cursor, b.lcp);
    }
    if set.contains(Scheme::Ejs) {
        push(&mut cursor, js * a.icf * b.icf);
    }
    if set.contains(Scheme::Wjs) {
        let numerator = agg.inv_comparisons_sum;
        let denominator = a.inv_comparisons + b.inv_comparisons - numerator;
        push(
            &mut cursor,
            if denominator > 0.0 {
                numerator / denominator
            } else {
                0.0
            },
        );
    }
    if set.contains(Scheme::Rs) {
        push(&mut cursor, agg.inv_sizes_sum);
    }
    if set.contains(Scheme::Nrs) {
        let numerator = agg.inv_sizes_sum;
        let denominator = a.inv_sizes + b.inv_sizes - numerator;
        push(
            &mut cursor,
            if denominator > 0.0 {
                numerator / denominator
            } else {
                0.0
            },
        );
    }
    debug_assert_eq!(cursor, out.len());
}

/// The per-entity aggregates every scheme reads, for any source of the
/// LCP counts.  The four tables — the WJS/NRS normalisation sums, the CF-IBF
/// factor and the EJS factor — are derived from the block statistics alone;
/// the LCP table is the *only* candidate-dependent per-entity aggregate and
/// is borrowed, from a
/// [`CandidateStream`](er_blocking::CandidateStream)'s counting pass or from
/// a materialised [`CandidatePairs`] (which is how [`FeatureContext`] builds
/// its own).  Every fused scoring pass reads this context, so streamed and
/// materialised scoring are bit-identical whenever their LCP tables are.
#[derive(Debug)]
pub struct StreamFeatureContext<'a> {
    stats: &'a BlockStats,
    /// Per-entity distinct-candidate counts (the LCP feature values).
    lcp: &'a [u32],
    /// Σ_{b ∈ B_i} 1/||b|| per entity (denominator of WJS).
    inv_comparisons: Vec<f64>,
    /// Σ_{b ∈ B_i} 1/|b| per entity (denominator of NRS).
    inv_sizes: Vec<f64>,
    /// `log(|B| / |B_i|)` per entity (the CF-IBF factor).
    ibf: Vec<f64>,
    /// `log(||B|| / ||e_i||)` per entity (the EJS factor).
    icf: Vec<f64>,
}

impl<'a> StreamFeatureContext<'a> {
    /// Builds the context from block statistics and a per-entity
    /// distinct-candidate table (one entry per entity — typically
    /// [`CandidateStream::lcp_table`](er_blocking::CandidateStream::lcp_table)).
    pub fn new(stats: &'a BlockStats, lcp: &'a [u32]) -> Self {
        assert_eq!(
            lcp.len(),
            stats.num_entities(),
            "LCP table must have one entry per entity"
        );
        let n = stats.num_entities();
        let num_blocks = stats.num_blocks() as f64;
        let total_comparisons = stats.total_comparisons() as f64;
        let inv_comp_table = stats.inv_comparisons_table();
        let inv_size_table = stats.inv_sizes_table();

        let mut inv_comparisons = vec![0.0; n];
        let mut inv_sizes = vec![0.0; n];
        let mut ibf = vec![0.0; n];
        let mut icf = vec![0.0; n];
        for e in 0..n {
            let entity = EntityId::from(e);
            let list = stats.blocks_of(entity);
            let mut inv_comp = 0.0;
            let mut inv_size = 0.0;
            for &b in list {
                inv_comp += inv_comp_table[b.index()];
                inv_size += inv_size_table[b.index()];
            }
            inv_comparisons[e] = inv_comp;
            inv_sizes[e] = inv_size;

            let blocks_of = list.len() as f64;
            ibf[e] = if blocks_of > 0.0 && num_blocks > 0.0 {
                (num_blocks / blocks_of).ln()
            } else {
                0.0
            };
            let entity_comparisons = stats.entity_comparisons(entity) as f64;
            icf[e] = if entity_comparisons > 0.0 && total_comparisons > 0.0 {
                (total_comparisons / entity_comparisons).ln()
            } else {
                0.0
            };
        }
        StreamFeatureContext {
            stats,
            lcp,
            inv_comparisons,
            inv_sizes,
            ibf,
            icf,
        }
    }

    /// The underlying block statistics.
    pub fn stats(&self) -> &BlockStats {
        self.stats
    }

    /// Computes the per-pair co-occurrence aggregates with a single merge of
    /// the two sorted CSR block lists
    /// ([`BlockStats::for_each_common_block`]), reading the precomputed
    /// reciprocal tables (no division in the loop).
    #[inline]
    pub fn cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence {
        let inv_comp = self.stats.inv_comparisons_table();
        let inv_size = self.stats.inv_sizes_table();
        let mut agg = PairCooccurrence::default();
        self.stats.for_each_common_block(a, b, |block| {
            agg.common_blocks += 1;
            agg.inv_comparisons_sum += inv_comp[block.index()];
            agg.inv_sizes_sum += inv_size[block.index()];
        });
        agg
    }

    /// The precomputed per-entity aggregates of one entity, in the shape the
    /// shared fused writer ([`write_features_from`]) consumes.
    #[inline]
    pub fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates {
        let i = entity.index();
        EntityAggregates {
            num_blocks: self.stats.num_blocks_of(entity) as f64,
            inv_comparisons: self.inv_comparisons[i],
            inv_sizes: self.inv_sizes[i],
            ibf: self.ibf[i],
            icf: self.icf[i],
            lcp: f64::from(self.lcp[i]),
        }
    }
}

impl<'a> FeatureContext<'a> {
    /// Builds the context for a block collection's statistics and candidate
    /// pairs.
    pub fn new(stats: &'a BlockStats, candidates: &'a CandidatePairs) -> Self {
        FeatureContext {
            entities: StreamFeatureContext::new(stats, candidates.entity_candidate_counts()),
            candidates,
        }
    }

    /// The per-entity aggregates the fused scoring passes read.
    pub(crate) fn entities(&self) -> &StreamFeatureContext<'a> {
        &self.entities
    }

    /// The underlying block statistics.
    pub fn stats(&self) -> &BlockStats {
        self.entities.stats
    }

    /// The candidate pairs the context was built over.
    pub fn candidates(&self) -> &CandidatePairs {
        self.candidates
    }

    /// Computes the per-pair co-occurrence aggregates with a single merge of
    /// the two sorted CSR block lists
    /// ([`BlockStats::for_each_common_block`]), reading the precomputed
    /// reciprocal tables (no division in the loop).
    #[inline]
    pub fn cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence {
        self.entities.cooccurrence(a, b)
    }

    /// Evaluates a single weighting scheme for a pair.
    ///
    /// For [`Scheme::Lcp`], which is defined per entity, the value returned is
    /// `LCP(e_i)`; use [`FeatureContext::lcp`] for an individual entity or
    /// [`FeatureContext::pair_features`] to obtain both endpoints' values.
    pub fn score(&self, scheme: Scheme, a: EntityId, b: EntityId) -> f64 {
        let agg = self.cooccurrence(a, b);
        self.score_with(scheme, a, b, &agg)
    }

    /// Evaluates a scheme given precomputed co-occurrence aggregates.
    ///
    /// This is the retained per-scheme reference path; the fused
    /// [`FeatureContext::write_pair_features`] computes whole vectors without
    /// re-deriving shared sub-expressions.
    pub fn score_with(
        &self,
        scheme: Scheme,
        a: EntityId,
        b: EntityId,
        agg: &PairCooccurrence,
    ) -> f64 {
        let entities = &self.entities;
        let (i, j) = (a.index(), b.index());
        match scheme {
            Scheme::CfIbf => {
                let cb = agg.common_blocks as f64;
                cb * entities.ibf[i] * entities.ibf[j]
            }
            Scheme::Raccb => agg.inv_comparisons_sum,
            Scheme::Js => {
                let cb = agg.common_blocks as f64;
                let union = entities.stats.num_blocks_of(a) as f64
                    + entities.stats.num_blocks_of(b) as f64
                    - cb;
                if union > 0.0 {
                    cb / union
                } else {
                    0.0
                }
            }
            Scheme::Lcp => self.lcp(a),
            Scheme::Ejs => {
                let js = self.score_with(Scheme::Js, a, b, agg);
                js * entities.icf[i] * entities.icf[j]
            }
            Scheme::Wjs => {
                let numerator = agg.inv_comparisons_sum;
                let denominator =
                    entities.inv_comparisons[i] + entities.inv_comparisons[j] - numerator;
                if denominator > 0.0 {
                    numerator / denominator
                } else {
                    0.0
                }
            }
            Scheme::Rs => agg.inv_sizes_sum,
            Scheme::Nrs => {
                let numerator = agg.inv_sizes_sum;
                let denominator = entities.inv_sizes[i] + entities.inv_sizes[j] - numerator;
                if denominator > 0.0 {
                    numerator / denominator
                } else {
                    0.0
                }
            }
        }
    }

    /// The LCP value of an entity: its number of distinct candidates.
    #[inline]
    pub fn lcp(&self, entity: EntityId) -> f64 {
        f64::from(self.candidates.candidates_of(entity))
    }

    /// Writes the feature vector of a pair directly into `out`, which must be
    /// exactly `set.vector_len()` long.
    ///
    /// This is the fused hot path: one merge produces the co-occurrence
    /// aggregates, every selected scheme is written in canonical order, and
    /// shared sub-expressions (JS inside EJS, the union size) are computed
    /// once instead of per scheme.
    #[inline]
    pub fn write_pair_features(&self, a: EntityId, b: EntityId, set: FeatureSet, out: &mut [f64]) {
        let agg = self.cooccurrence(a, b);
        write_features_from(
            &self.entity_aggregates(a),
            &self.entity_aggregates(b),
            &agg,
            set,
            out,
        );
    }

    /// The precomputed per-entity aggregates of one entity, in the shape the
    /// shared fused writer ([`write_features_from`]) consumes.
    #[inline]
    pub fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates {
        self.entities.entity_aggregates(entity)
    }

    /// Writes the feature vector of a pair for the given feature set into
    /// `out` (cleared first).  The layout follows the canonical scheme order;
    /// LCP expands into `LCP(e_i), LCP(e_j)`.
    ///
    /// Retained reference path: evaluates each scheme independently through
    /// [`FeatureContext::score_with`].
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::CsrBlockCollection;
    use er_core::DatasetKind;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    /// A small Clean-Clean collection with entities 0,1 in E1 and 2,3 in E2.
    ///
    /// Blocks: a = {0,2}, b = {0,1,2,3}, c = {1,3}, d = {0,2}.
    fn fixture() -> (CsrBlockCollection, BlockStats, CandidatePairs) {
        let bc = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            2,
            4,
            [
                ("a", ids(&[0, 2])),
                ("b", ids(&[0, 1, 2, 3])),
                ("c", ids(&[1, 3])),
                ("d", ids(&[0, 2])),
            ],
        );
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        (bc, stats, cands)
    }

    #[test]
    fn cooccurrence_aggregates() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        let agg = ctx.cooccurrence(EntityId(0), EntityId(2));
        // Common blocks of 0 and 2: a, b, d.
        assert_eq!(agg.common_blocks, 3);
        // ||a|| = 1, ||b|| = 4, ||d|| = 1.
        assert!((agg.inv_comparisons_sum - (1.0 + 0.25 + 1.0)).abs() < 1e-12);
        // |a| = 2, |b| = 4, |d| = 2.
        assert!((agg.inv_sizes_sum - (0.5 + 0.25 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_matches_hand_computation() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // B_0 = {a,b,d}, B_2 = {a,b,d} → JS = 3 / (3+3-3) = 1.
        assert!((ctx.score(Scheme::Js, EntityId(0), EntityId(2)) - 1.0).abs() < 1e-12);
        // B_0 = {a,b,d}, B_3 = {b,c} → common = {b}; JS = 1 / (3+2-1) = 0.25.
        assert!((ctx.score(Scheme::Js, EntityId(0), EntityId(3)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cfibf_matches_hand_computation() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // |B| = 4, |B_0| = 3, |B_3| = 2, common(0,3) = 1.
        let expected = 1.0 * (4.0f64 / 3.0).ln() * (4.0f64 / 2.0).ln();
        assert!((ctx.score(Scheme::CfIbf, EntityId(0), EntityId(3)) - expected).abs() < 1e-12);
    }

    #[test]
    fn raccb_and_rs_match_hand_computation() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // Pair (0,3): common block b with ||b|| = 4 and |b| = 4.
        assert!((ctx.score(Scheme::Raccb, EntityId(0), EntityId(3)) - 0.25).abs() < 1e-12);
        assert!((ctx.score(Scheme::Rs, EntityId(0), EntityId(3)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wjs_and_nrs_are_normalised_to_unit_interval() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        for &(a, b) in cands.pairs() {
            let wjs = ctx.score(Scheme::Wjs, a, b);
            let nrs = ctx.score(Scheme::Nrs, a, b);
            assert!((0.0..=1.0).contains(&wjs), "WJS({a},{b}) = {wjs}");
            assert!((0.0..=1.0).contains(&nrs), "NRS({a},{b}) = {nrs}");
        }
    }

    #[test]
    fn identical_block_signatures_maximise_wjs_and_nrs() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // Entities 0 and 2 have identical block lists → both normalised
        // schemes reach 1.
        assert!((ctx.score(Scheme::Wjs, EntityId(0), EntityId(2)) - 1.0).abs() < 1e-12);
        assert!((ctx.score(Scheme::Nrs, EntityId(0), EntityId(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lcp_counts_distinct_candidates() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // Every E1 entity co-occurs with both E2 entities via block b.
        assert_eq!(ctx.lcp(EntityId(0)), 2.0);
        assert_eq!(ctx.lcp(EntityId(3)), 2.0);
    }

    #[test]
    fn ejs_scales_jaccard_by_rarity() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        let js = ctx.score(Scheme::Js, EntityId(0), EntityId(2));
        let ejs = ctx.score(Scheme::Ejs, EntityId(0), EntityId(2));
        // ||B|| = 1+4+1+1 = 7, ||e_0|| = 6, ||e_2|| = 6.
        let expected = js * (7.0f64 / 6.0).ln() * (7.0f64 / 6.0).ln();
        assert!((ejs - expected).abs() < 1e-12);
    }

    #[test]
    fn pair_features_layout_follows_canonical_order() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        let set = FeatureSet::original();
        let mut v = Vec::new();
        ctx.pair_features(EntityId(0), EntityId(2), set, &mut v);
        assert_eq!(v.len(), 5);
        assert!((v[0] - ctx.score(Scheme::CfIbf, EntityId(0), EntityId(2))).abs() < 1e-12);
        assert!((v[1] - ctx.score(Scheme::Raccb, EntityId(0), EntityId(2))).abs() < 1e-12);
        assert!((v[2] - ctx.score(Scheme::Js, EntityId(0), EntityId(2))).abs() < 1e-12);
        assert_eq!(v[3], ctx.lcp(EntityId(0)));
        assert_eq!(v[4], ctx.lcp(EntityId(2)));
    }

    #[test]
    fn fused_writer_matches_reference_for_every_feature_set() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        for set in FeatureSet::all_combinations() {
            let mut fused = vec![0.0; set.vector_len()];
            let mut reference = Vec::new();
            for &(a, b) in cands.pairs() {
                ctx.write_pair_features(a, b, set, &mut fused);
                ctx.pair_features(a, b, set, &mut reference);
                assert_eq!(fused, reference, "{set} pair ({a},{b})");
            }
        }
    }

    #[test]
    fn matching_like_pairs_score_higher_than_random_pairs() {
        let (_bc, stats, cands) = fixture();
        let ctx = FeatureContext::new(&stats, &cands);
        // (0,2) share all blocks; (0,3) share only the big block.
        for scheme in [
            Scheme::CfIbf,
            Scheme::Raccb,
            Scheme::Js,
            Scheme::Rs,
            Scheme::Nrs,
            Scheme::Wjs,
            Scheme::Ejs,
        ] {
            let close = ctx.score(scheme, EntityId(0), EntityId(2));
            let far = ctx.score(scheme, EntityId(0), EntityId(3));
            assert!(close > far, "{scheme}: {close} !> {far}");
        }
    }
}
