//! Block Filtering: remove every entity from the largest blocks it appears in.
//!
//! Block Filtering keeps each entity only in its `ratio` (by default 80%)
//! smallest blocks, measured by block size.  The largest blocks contribute
//! most of the superfluous comparisons while the smallest blocks carry the
//! most distinctive co-occurrence evidence, so trimming the top 20% per entity
//! removes a large share of the candidate pairs at a negligible recall cost.

use er_core::{EntityId, FxHashSet};

use crate::block::Block;
use crate::collection::BlockCollection;
use crate::csr::CsrBlockCollection;

/// The ratio of blocks retained per entity in the paper's setup (each entity
/// is removed from the largest 20% of its blocks).
pub const DEFAULT_FILTERING_RATIO: f64 = 0.8;

/// How many of an entity's `degree` blocks Block Filtering keeps (the
/// `ceil(ratio · |B_i|)` rule, never dropping below one block).
///
/// This is the single home of the filtering quota arithmetic — both batch
/// implementations and incremental consumers (the filtering-aware streaming
/// live view) must agree bit-for-bit on how many blocks each entity retains.
#[inline]
pub fn filtering_keep_count(degree: usize, ratio: f64) -> usize {
    if degree == 0 {
        0
    } else {
        ((ratio * degree as f64).ceil() as usize).max(1)
    }
}

/// Applies Block Filtering with the given retention ratio in `(0, 1]`.
///
/// For each entity, its blocks are ranked by increasing size and the entity
/// is kept only in the first `ceil(ratio · |B_i|)` of them.  Blocks that stop
/// producing comparisons afterwards are dropped.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn block_filtering(blocks: &BlockCollection, ratio: f64) -> BlockCollection {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "filtering ratio must be in (0, 1], got {ratio}"
    );

    // Collect, per entity, the list of (block size, block index) it belongs to.
    let mut entity_blocks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); blocks.num_entities];
    for (idx, block) in blocks.blocks.iter().enumerate() {
        for entity in &block.entities {
            entity_blocks[entity.index()].push((block.size() as u32, idx as u32));
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
    for (idx, block) in blocks.blocks.iter().enumerate() {
        let entities: Vec<EntityId> = block
            .entities
            .iter()
            .copied()
            .filter(|e| retained[e.index()].contains(&(idx as u32)))
            .collect();
        let rebuilt = Block::new(block.key.clone(), entities);
        if rebuilt.is_useful(blocks.kind, blocks.split) {
            new_blocks.push(rebuilt);
        }
    }

    BlockCollection {
        dataset_name: blocks.dataset_name.clone(),
        kind: blocks.kind,
        split: blocks.split,
        num_entities: blocks.num_entities,
        blocks: new_blocks,
    }
}

/// CSR-native Block Filtering: the same per-entity rule as
/// [`block_filtering`], but operating on the flat CSR representation and
/// sharing the input's key arena — no key string is cloned and no per-entity
/// hash set is allocated.
///
/// Produces exactly the blocks of the nested implementation (asserted by the
/// workspace property tests).
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn block_filtering_csr(blocks: &CsrBlockCollection, ratio: f64) -> CsrBlockCollection {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "filtering ratio must be in (0, 1], got {ratio}"
    );

    // Per entity, the (block size, block index) assignments, laid out as one
    // flat CSR scratch (no per-entity Vec or hash set allocations).
    let num_entities = blocks.num_entities;
    let mut offsets = vec![0u32; num_entities + 1];
    for b in 0..blocks.num_blocks() {
        for entity in blocks.entities(b) {
            offsets[entity.index() + 1] += 1;
        }
    }
    for i in 0..num_entities {
        offsets[i + 1] += offsets[i];
    }
    let mut assignments = vec![(0u32, 0u32); offsets[num_entities] as usize];
    let mut cursors = offsets[..num_entities].to_vec();
    for b in 0..blocks.num_blocks() {
        let size = blocks.block_size(b) as u32;
        for entity in blocks.entities(b) {
            let cursor = &mut cursors[entity.index()];
            assignments[*cursor as usize] = (size, b as u32);
            *cursor += 1;
        }
    }

    // Each entity stays in its `ceil(ratio · |B_i|)` smallest blocks (size
    // ties broken by block index, exactly like the nested path).  The
    // assignments of one entity are distinct pairs, so "among the `keep`
    // smallest" is "not above the `keep`-th smallest": one selection per
    // entity yields a threshold and membership is a comparison.
    let mut thresholds = vec![(0u32, 0u32); num_entities];
    for (i, threshold) in thresholds.iter_mut().enumerate() {
        let slice = &mut assignments[offsets[i] as usize..offsets[i + 1] as usize];
        if !slice.is_empty() {
            let keep = filtering_keep_count(slice.len(), ratio);
            *threshold = *slice.select_nth_unstable(keep - 1).1;
        }
    }

    blocks.retain_assignments(|entity, b| {
        (blocks.block_size(b) as u32, b as u32) <= thresholds[entity.index()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::DatasetKind;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn collection(blocks: Vec<Block>) -> BlockCollection {
        BlockCollection {
            dataset_name: "t".into(),
            kind: DatasetKind::Dirty,
            split: 10,
            num_entities: 10,
            blocks,
        }
    }

    #[test]
    fn ratio_one_keeps_all_assignments() {
        let bc = collection(vec![
            Block::new("a", ids(&[0, 1, 2])),
            Block::new("b", ids(&[0, 1])),
        ]);
        let filtered = block_filtering(&bc, 1.0);
        assert_eq!(filtered.num_blocks(), 2);
        assert_eq!(filtered.sum_block_sizes(), bc.sum_block_sizes());
    }

    #[test]
    fn removes_entities_from_their_largest_blocks() {
        // Entity 0 appears in three blocks of sizes 2, 3, 5.  With ratio 0.5,
        // ceil(0.5*3)=2 blocks are kept: the two smallest.
        let bc = collection(vec![
            Block::new("large", ids(&[0, 1, 2, 3, 4])),
            Block::new("medium", ids(&[0, 1, 2])),
            Block::new("small", ids(&[0, 1])),
        ]);
        let filtered = block_filtering(&bc, 0.5);
        let large = filtered.blocks.iter().find(|b| b.key == "large");
        // Entities 0 and 1 are removed from "large"; entities 2,3,4 have it as
        // one of their smallest blocks so some remain.
        if let Some(large) = large {
            assert!(!large.contains(EntityId(0)));
            assert!(!large.contains(EntityId(1)));
        }
        let small = filtered.blocks.iter().find(|b| b.key == "small").unwrap();
        assert!(small.contains(EntityId(0)) && small.contains(EntityId(1)));
    }

    #[test]
    fn each_entity_keeps_at_least_one_block() {
        let bc = collection(vec![Block::new("only", ids(&[0, 1]))]);
        let filtered = block_filtering(&bc, 0.01);
        assert_eq!(filtered.num_blocks(), 1);
        assert_eq!(filtered.blocks[0].size(), 2);
    }

    #[test]
    fn useless_blocks_are_dropped_after_filtering() {
        // After filtering, "large" may retain fewer than 2 entities and must
        // then be dropped entirely.
        let bc = collection(vec![
            Block::new("large", ids(&[0, 1, 2, 3, 4, 5])),
            Block::new("s0", ids(&[0, 6])),
            Block::new("s1", ids(&[1, 6])),
            Block::new("s2", ids(&[2, 6])),
            Block::new("s3", ids(&[3, 6])),
            Block::new("s4", ids(&[4, 6])),
            Block::new("s5", ids(&[5, 6])),
        ]);
        let filtered = block_filtering(&bc, 0.5);
        for block in &filtered.blocks {
            assert!(
                block.is_useful(bc.kind, bc.split),
                "useless block {} kept",
                block.key
            );
        }
    }

    #[test]
    #[should_panic(expected = "filtering ratio")]
    fn invalid_ratio_panics() {
        let bc = collection(vec![]);
        let _ = block_filtering(&bc, 0.0);
    }
}
