//! Naive reference implementations retained for equivalence testing and
//! benchmarking.
//!
//! The production [`crate::BlockStats`] and [`crate::CandidatePairs`] use a
//! flat CSR layout and hash-free per-entity enumeration, the blocking
//! schemes run through the parallel [`crate::builder`] engine, and Block
//! Purging and Block Filtering are index operations over the CSR arrays.
//! This module keeps faithful copies of the pre-refactor implementations —
//! sequential single-hash-map block builders, per-entity `FxHashSet`
//! filtering, nested `Vec<Vec<_>>` adjacency and a global `FxHashSet` pair
//! deduplicator — so property tests can assert the optimised paths produce
//! identical results and benchmarks can quantify the speedup.  They read
//! and emit [`CsrBlockCollection`] only through its public accessors and
//! [`CsrBlockCollection::from_blocks`].  Nothing here should be used on a
//! hot path.

use er_core::{BlockId, Dataset, DatasetKind, EntityId, FxHashMap, FxHashSet};

use crate::csr::{slice_cardinalities, CsrBlockCollection};
use crate::filtering::filtering_keep_count;
use crate::purging::purging_limit;
use crate::suffix_arrays::SuffixArrayConfig;

/// The sequential pre-engine Token Blocking builder: one global
/// `FxHashMap<String, Vec<EntityId>>` filled entity by entity, then filtered
/// and sorted.
pub fn token_blocking(dataset: &Dataset) -> CsrBlockCollection {
    let mut index: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
    for (i, profile) in dataset.profiles.iter().enumerate() {
        let id = EntityId::from(i);
        for token in profile.value_tokens() {
            index.entry(token).or_default().push(id);
        }
    }
    finish_blocks(dataset, index, usize::MAX)
}

/// The sequential pre-engine Q-Grams Blocking builder.
pub fn qgrams_blocking(dataset: &Dataset, q: usize) -> CsrBlockCollection {
    let mut index: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
    for (i, profile) in dataset.profiles.iter().enumerate() {
        let id = EntityId::from(i);
        let mut signatures: FxHashSet<String> = FxHashSet::default();
        for token in profile.value_tokens() {
            for gram in crate::qgrams::qgrams(&token, q) {
                signatures.insert(gram);
            }
        }
        for gram in signatures {
            index.entry(gram).or_default().push(id);
        }
    }
    finish_blocks(dataset, index, usize::MAX)
}

/// The sequential pre-engine Suffix Arrays builder.
pub fn suffix_array_blocking(dataset: &Dataset, config: SuffixArrayConfig) -> CsrBlockCollection {
    assert!(config.min_length >= 2, "min_length must be at least 2");
    assert!(
        config.max_block_size >= 2,
        "max_block_size must allow a pair"
    );
    let mut index: FxHashMap<String, Vec<EntityId>> = FxHashMap::default();
    for (i, profile) in dataset.profiles.iter().enumerate() {
        let id = EntityId::from(i);
        let mut signatures: FxHashSet<String> = FxHashSet::default();
        for token in profile.value_tokens() {
            for suffix in crate::suffix_arrays::suffixes(&token, config.min_length) {
                signatures.insert(suffix);
            }
        }
        for suffix in signatures {
            index.entry(suffix).or_default().push(id);
        }
    }
    finish_blocks(dataset, index, config.max_block_size)
}

/// True if a sorted, duplicate-free entity list yields at least one
/// comparison.
fn is_useful(kind: DatasetKind, split: usize, entities: &[EntityId]) -> bool {
    slice_cardinalities(entities, kind, split).1 > 0
}

/// The shared tail of the sequential builders: drop oversized and useless
/// blocks, sort by key.
fn finish_blocks(
    dataset: &Dataset,
    index: FxHashMap<String, Vec<EntityId>>,
    max_block_size: usize,
) -> CsrBlockCollection {
    let mut blocks: Vec<(String, Vec<EntityId>)> = index
        .into_iter()
        .filter(|(_, entities)| entities.len() <= max_block_size)
        .map(|(key, mut entities)| {
            entities.sort_unstable();
            entities.dedup();
            (key, entities)
        })
        .filter(|(_, entities)| is_useful(dataset.kind, dataset.split, entities))
        .collect();
    blocks.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    CsrBlockCollection::from_blocks(
        dataset.name.clone(),
        dataset.kind,
        dataset.split,
        dataset.num_entities(),
        blocks,
    )
}

/// A collection with the same corpus shape as `like` holding `blocks`.
fn rebuilt(like: &CsrBlockCollection, blocks: Vec<(&str, Vec<EntityId>)>) -> CsrBlockCollection {
    CsrBlockCollection::from_blocks(
        like.dataset_name.clone(),
        like.kind,
        like.split,
        like.num_entities,
        blocks,
    )
}

/// The pre-CSR Block Purging: copies every block containing at most half of
/// the entity profiles into a new collection.
pub fn block_purging(blocks: &CsrBlockCollection) -> CsrBlockCollection {
    let limit = purging_limit(blocks.num_entities);
    let kept = (0..blocks.num_blocks())
        .filter(|&b| blocks.entities(b).len() <= limit)
        .map(|b| (blocks.key(b), blocks.entities(b).to_vec()))
        .collect();
    rebuilt(blocks, kept)
}

/// The pre-CSR Block Filtering with the given retention ratio in `(0, 1]`:
/// per entity, a `(block size, block index)` list sorted in full and an
/// `FxHashSet` of the retained blocks, then every block rebuilt from its
/// retained assignments and dropped if it stops producing comparisons.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn block_filtering(blocks: &CsrBlockCollection, ratio: f64) -> CsrBlockCollection {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "filtering ratio must be in (0, 1], got {ratio}"
    );

    // Collect, per entity, the list of (block size, block index) it belongs to.
    let mut entity_blocks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); blocks.num_entities];
    for idx in 0..blocks.num_blocks() {
        let entities = blocks.entities(idx);
        for entity in entities {
            entity_blocks[entity.index()].push((entities.len() as u32, idx as u32));
        }
    }

    // Decide, per entity, which blocks it stays in.
    let mut retained: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); blocks.num_entities];
    for (entity, assignments) in entity_blocks.iter_mut().enumerate() {
        if assignments.is_empty() {
            continue;
        }
        // Sort by block size ascending, breaking ties by block index so the
        // outcome does not depend on iteration order.
        assignments.sort_unstable();
        let keep = filtering_keep_count(assignments.len(), ratio);
        for &(_, block_idx) in assignments.iter().take(keep) {
            retained[entity].insert(block_idx);
        }
    }

    // Rebuild blocks with only the retained assignments.
    let mut new_blocks = Vec::with_capacity(blocks.num_blocks());
    for idx in 0..blocks.num_blocks() {
        let entities: Vec<EntityId> = blocks
            .entities(idx)
            .iter()
            .copied()
            .filter(|e| retained[e.index()].contains(&(idx as u32)))
            .collect();
        if is_useful(blocks.kind, blocks.split, &entities) {
            new_blocks.push((blocks.key(idx), entities));
        }
    }
    rebuilt(blocks, new_blocks)
}

/// The pre-CSR block statistics: one heap-allocated block list per entity,
/// no precomputed reciprocals.  API mirrors [`crate::BlockStats`].
#[derive(Debug, Clone)]
pub struct NaiveBlockStats {
    entity_blocks: Vec<Vec<BlockId>>,
    block_sizes: Vec<u32>,
    block_comparisons: Vec<u64>,
    total_comparisons: u64,
    entity_comparisons: Vec<u64>,
    num_blocks: usize,
}

impl NaiveBlockStats {
    /// Builds the statistics exactly as the original implementation did,
    /// recomputing every block's cardinalities from its entity list.
    pub fn from_csr(blocks: &CsrBlockCollection) -> Self {
        let num_blocks = blocks.num_blocks();
        let mut entity_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); blocks.num_entities];
        let mut block_sizes = Vec::with_capacity(num_blocks);
        let mut block_comparisons = Vec::with_capacity(num_blocks);

        for b in 0..num_blocks {
            let entities = blocks.entities(b);
            block_sizes.push(entities.len() as u32);
            block_comparisons.push(slice_cardinalities(entities, blocks.kind, blocks.split).1);
            for entity in entities {
                entity_blocks[entity.index()].push(BlockId::from(b));
            }
        }
        let total_comparisons = block_comparisons.iter().sum();
        let entity_comparisons = entity_blocks
            .iter()
            .map(|list| list.iter().map(|b| block_comparisons[b.index()]).sum())
            .collect();

        NaiveBlockStats {
            entity_blocks,
            block_sizes,
            block_comparisons,
            total_comparisons,
            entity_comparisons,
            num_blocks,
        }
    }

    /// Number of blocks, |B|.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of entities covered.
    pub fn num_entities(&self) -> usize {
        self.entity_blocks.len()
    }

    /// The sorted block list of one entity.
    pub fn blocks_of(&self, entity: EntityId) -> &[BlockId] {
        &self.entity_blocks[entity.index()]
    }

    /// `|B_i|`: how many blocks contain the entity.
    pub fn num_blocks_of(&self, entity: EntityId) -> usize {
        self.entity_blocks[entity.index()].len()
    }

    /// `|b|`: number of entities in a block.
    pub fn block_size(&self, block: BlockId) -> u32 {
        self.block_sizes[block.index()]
    }

    /// `||b||`: number of comparisons in a block.
    pub fn block_comparisons(&self, block: BlockId) -> u64 {
        self.block_comparisons[block.index()]
    }

    /// `||B||`: total comparisons across all blocks.
    pub fn total_comparisons(&self) -> u64 {
        self.total_comparisons
    }

    /// `||e_i||`: aggregate comparisons of the entity's blocks.
    pub fn entity_comparisons(&self, entity: EntityId) -> u64 {
        self.entity_comparisons[entity.index()]
    }

    /// Calls `f` for every block shared by the two entities, in block-id
    /// order, via the original sorted-merge loop.
    #[inline]
    pub fn for_each_common_block(&self, a: EntityId, b: EntityId, mut f: impl FnMut(BlockId)) {
        let la = &self.entity_blocks[a.index()];
        let lb = &self.entity_blocks[b.index()];
        let (mut i, mut j) = (0, 0);
        while i < la.len() && j < lb.len() {
            match la[i].cmp(&lb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(la[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Number of blocks shared by two entities.
    pub fn common_blocks(&self, a: EntityId, b: EntityId) -> usize {
        let mut count = 0;
        self.for_each_common_block(a, b, |_| count += 1);
        count
    }
}

/// The original hash-based candidate extraction: every block comparison is
/// normalised and pushed through a global `FxHashSet`.
///
/// Returns the sorted distinct pairs plus the per-entity candidate counts, in
/// exactly the representation [`crate::CandidatePairs`] exposes.
pub fn naive_candidate_pairs(blocks: &CsrBlockCollection) -> (Vec<(EntityId, EntityId)>, Vec<u32>) {
    let mut seen: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
    let mut entity_candidates = vec![0u32; blocks.num_entities];

    let mut record = |a: EntityId, b: EntityId, counts: &mut [u32]| {
        let key = if a <= b { (a, b) } else { (b, a) };
        if seen.insert(key) {
            counts[key.0.index()] += 1;
            counts[key.1.index()] += 1;
        }
    };

    for b in 0..blocks.num_blocks() {
        let entities = blocks.entities(b);
        let split_point = entities.partition_point(|e| e.index() < blocks.split);
        match blocks.kind {
            DatasetKind::CleanClean => {
                let (inner, outer) = entities.split_at(split_point);
                for &a in inner {
                    for &b in outer {
                        record(a, b, &mut entity_candidates);
                    }
                }
            }
            DatasetKind::Dirty => {
                for (i, &a) in entities.iter().enumerate() {
                    for &b in &entities[i + 1..] {
                        record(a, b, &mut entity_candidates);
                    }
                }
            }
        }
    }

    let mut pairs: Vec<(EntityId, EntityId)> = seen.into_iter().collect();
    pairs.sort_unstable();
    (pairs, entity_candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn sample() -> CsrBlockCollection {
        CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            2,
            4,
            [
                ("a", ids(&[0, 2])),
                ("b", ids(&[0, 1, 2, 3])),
                ("c", ids(&[1, 3])),
            ],
        )
    }

    #[test]
    fn naive_extraction_dedups_across_blocks() {
        let (pairs, counts) = naive_candidate_pairs(&sample());
        assert_eq!(pairs.len(), 4);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn naive_stats_mirror_old_api() {
        let stats = NaiveBlockStats::from_csr(&sample());
        assert_eq!(stats.num_blocks(), 3);
        assert_eq!(stats.num_entities(), 4);
        assert_eq!(stats.blocks_of(EntityId(0)), &[BlockId(0), BlockId(1)]);
        assert_eq!(stats.block_size(BlockId(1)), 4);
        assert_eq!(stats.total_comparisons(), 6);
        assert_eq!(stats.entity_comparisons(EntityId(0)), 5);
        assert_eq!(stats.common_blocks(EntityId(0), EntityId(2)), 2);
    }

    #[test]
    fn naive_purging_keeps_blocks_up_to_half_the_corpus() {
        // 4 entities: "b" (4 entities) is purged, "a" and "c" (2) survive.
        let purged = block_purging(&sample());
        let keys: Vec<_> = (0..purged.num_blocks()).map(|b| purged.key(b)).collect();
        assert_eq!(keys, vec!["a", "c"]);
    }

    #[test]
    fn naive_filtering_keeps_each_entity_in_its_smallest_blocks() {
        // Every entity sits in one block of size 2 and in "b" (size 4); at
        // ratio 0.5 it keeps only the small one, so "b" empties and is dropped.
        let filtered = block_filtering(&sample(), 0.5);
        let keys: Vec<_> = (0..filtered.num_blocks())
            .map(|b| filtered.key(b))
            .collect();
        assert_eq!(keys, vec!["a", "c"]);
        assert!(block_filtering(&sample(), 1.0).same_blocks(&sample()));
    }
}
