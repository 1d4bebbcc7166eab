//! Block Filtering: remove every entity from the largest blocks it appears in.
//!
//! Block Filtering keeps each entity only in its `ratio` (by default 80%)
//! smallest blocks, measured by block size.  The largest blocks contribute
//! most of the superfluous comparisons while the smallest blocks carry the
//! most distinctive co-occurrence evidence, so trimming the top 20% per entity
//! removes a large share of the candidate pairs at a negligible recall cost.

use crate::csr::CsrBlockCollection;

/// The ratio of blocks retained per entity in the paper's setup (each entity
/// is removed from the largest 20% of its blocks).
pub const DEFAULT_FILTERING_RATIO: f64 = 0.8;

/// How many of an entity's `degree` blocks Block Filtering keeps (the
/// `ceil(ratio · |B_i|)` rule, never dropping below one block).
///
/// This is the single home of the filtering quota arithmetic — the batch
/// implementation, its [`crate::reference`] oracle and incremental consumers
/// (the filtering-aware streaming live view) must agree bit-for-bit on how
/// many blocks each entity retains.
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
/// For each entity, its blocks are ranked by increasing size (ties broken by
/// block index) and the entity is kept only in the first
/// `ceil(ratio · |B_i|)` of them.  Blocks that stop producing comparisons
/// afterwards are dropped.  The result shares the input's key arena — no key
/// string is cloned and no per-entity hash set is allocated.  It equals
/// [`crate::reference::block_filtering`] block for block (asserted by the
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
    // ties broken by block index).  The assignments of one entity are
    // distinct pairs, so "among the `keep` smallest" is "not above the
    // `keep`-th smallest": one selection per entity yields a threshold and
    // membership is a comparison.
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
    use er_core::{DatasetKind, EntityId};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn collection(blocks: Vec<(&str, Vec<EntityId>)>) -> CsrBlockCollection {
        CsrBlockCollection::from_blocks("t", DatasetKind::Dirty, 10, 10, blocks)
    }

    fn block_keyed<'a>(c: &'a CsrBlockCollection, key: &str) -> Option<&'a [EntityId]> {
        (0..c.num_blocks())
            .find(|&b| c.key(b) == key)
            .map(|b| c.entities(b))
    }

    #[test]
    fn ratio_one_keeps_all_assignments() {
        let bc = collection(vec![("a", ids(&[0, 1, 2])), ("b", ids(&[0, 1]))]);
        let filtered = block_filtering_csr(&bc, 1.0);
        assert!(filtered.same_blocks(&bc));
        assert_eq!(filtered.sum_block_sizes(), bc.sum_block_sizes());
    }

    #[test]
    fn removes_entities_from_their_largest_blocks() {
        // Entity 0 appears in three blocks of sizes 2, 3, 5.  With ratio 0.5,
        // ceil(0.5*3)=2 blocks are kept: the two smallest.
        let bc = collection(vec![
            ("large", ids(&[0, 1, 2, 3, 4])),
            ("medium", ids(&[0, 1, 2])),
            ("small", ids(&[0, 1])),
        ]);
        let filtered = block_filtering_csr(&bc, 0.5);
        // Entities 0 and 1 are removed from "large"; entities 2,3,4 have it as
        // one of their smallest blocks so some remain.
        let large = block_keyed(&filtered, "large").unwrap();
        assert!(!large.contains(&EntityId(0)));
        assert!(!large.contains(&EntityId(1)));
        let small = block_keyed(&filtered, "small").unwrap();
        assert_eq!(small, ids(&[0, 1]).as_slice());
    }

    #[test]
    fn each_entity_keeps_at_least_one_block() {
        let bc = collection(vec![("only", ids(&[0, 1]))]);
        let filtered = block_filtering_csr(&bc, 0.01);
        assert_eq!(filtered.num_blocks(), 1);
        assert_eq!(filtered.block_size(0), 2);
    }

    #[test]
    fn useless_blocks_are_dropped_after_filtering() {
        // After filtering, "large" may retain fewer than 2 entities and must
        // then be dropped entirely.
        let bc = collection(vec![
            ("large", ids(&[0, 1, 2, 3, 4, 5])),
            ("s0", ids(&[0, 6])),
            ("s1", ids(&[1, 6])),
            ("s2", ids(&[2, 6])),
            ("s3", ids(&[3, 6])),
            ("s4", ids(&[4, 6])),
            ("s5", ids(&[5, 6])),
        ]);
        let filtered = block_filtering_csr(&bc, 0.5);
        for b in 0..filtered.num_blocks() {
            assert!(
                filtered.is_useful(b),
                "useless block {} kept",
                filtered.key(b)
            );
        }
        assert!(block_keyed(&filtered, "large").is_none());
    }

    #[test]
    #[should_panic(expected = "filtering ratio")]
    fn invalid_ratio_panics() {
        let bc = collection(vec![]);
        let _ = block_filtering_csr(&bc, 0.0);
    }
}
