//! Block statistics: the per-entity and per-block quantities every weighting
//! scheme is computed from.
//!
//! Weighting schemes only ever look at the co-occurrence structure of the
//! block collection — never at the raw attribute values — so this struct
//! pre-computes:
//!
//! * `B_i`: the sorted list of blocks containing each entity,
//! * `|b|`: the entity count of each block,
//! * `||b||`: the comparison count of each block (including redundant pairs),
//! * `||B||`: the total comparison count, and
//! * `||e_i||`: the per-entity aggregate comparison count (Σ ||b|| over `B_i`).
//!
//! # Layout
//!
//! The entity → block adjacency is stored as a flat CSR (compressed sparse
//! row) index: one `offsets` array with `num_entities + 1` slots and one
//! contiguous `block_ids` arena.  Entity `i`'s sorted block list is the slice
//! `block_ids[offsets[i]..offsets[i + 1]]`.  Compared to the previous
//! `Vec<Vec<BlockId>>` layout this removes one pointer indirection per entity
//! and keeps consecutive entities' lists adjacent in memory, which matters
//! because the common-block merge loop under every weighting scheme streams
//! through these lists for millions of candidate pairs.
//!
//! The per-block reciprocals `1/||b||` and `1/|b|` are precomputed once so the
//! hot merge loop performs zero divisions.

use er_core::{BlockId, DatasetKind, EntityId};

use crate::csr::CsrBlockCollection;

/// Pre-computed co-occurrence statistics of a block collection.
#[derive(Debug, Clone)]
pub struct BlockStats {
    /// CSR offsets into `block_ids`; `num_entities + 1` entries.
    pub(crate) offsets: Vec<u32>,
    /// CSR arena: concatenated sorted block lists of all entities.
    pub(crate) block_ids: Vec<BlockId>,
    /// Reverse CSR offsets into `block_entities`; `num_blocks + 1` entries.
    pub(crate) block_offsets: Vec<u32>,
    /// Reverse CSR arena: concatenated sorted entity lists of all blocks.
    pub(crate) block_entities: Vec<EntityId>,
    /// Per block, how many of its entities belong to the first source
    /// (everything for Dirty ER).
    pub(crate) first_source_counts: Vec<u32>,
    /// `|b|` per block: number of entities.
    pub(crate) block_sizes: Vec<u32>,
    /// `||b||` per block: number of comparisons including redundant ones.
    pub(crate) block_comparisons: Vec<u64>,
    /// `1 / ||b||` per block (0 when the block has no comparisons).
    pub(crate) inv_comparisons: Vec<f64>,
    /// `1 / |b|` per block (0 when the block is empty).
    pub(crate) inv_sizes: Vec<f64>,
    /// `||B||`: total number of comparisons across all blocks.
    pub(crate) total_comparisons: u64,
    /// `||e_i||` per entity: Σ_{b ∈ B_i} ||b||.
    pub(crate) entity_comparisons: Vec<u64>,
    /// Number of blocks, |B|.
    pub(crate) num_blocks: usize,
    /// The ER kind of the underlying collection.
    pub(crate) kind: DatasetKind,
    /// E1/E2 boundary in the flattened entity id space.
    pub(crate) split: usize,
}

impl BlockStats {
    /// Computes the statistics of a block collection (blocks keep their
    /// ids) without touching any key string.
    pub fn from_csr(blocks: &CsrBlockCollection) -> Self {
        let num_blocks = blocks.num_blocks();
        let num_entities = blocks.num_entities;

        let mut block_sizes = Vec::with_capacity(num_blocks);
        let mut block_comparisons = Vec::with_capacity(num_blocks);
        let mut inv_comparisons = Vec::with_capacity(num_blocks);
        let mut inv_sizes = Vec::with_capacity(num_blocks);
        let mut block_offsets = Vec::with_capacity(num_blocks + 1);
        let mut first_source_counts = Vec::with_capacity(num_blocks);
        let mut block_entities = Vec::new();

        block_offsets.push(0u32);
        for b in 0..num_blocks {
            let size = blocks.block_size(b) as u32;
            let comparisons = blocks.block_comparisons(b);
            block_sizes.push(size);
            block_comparisons.push(comparisons);
            inv_comparisons.push(if comparisons > 0 {
                1.0 / comparisons as f64
            } else {
                0.0
            });
            inv_sizes.push(if size > 0 { 1.0 / f64::from(size) } else { 0.0 });
            first_source_counts.push(blocks.first_source_count(b) as u32);
            block_entities.extend_from_slice(blocks.entities(b));
            block_offsets.push(block_entities.len() as u32);
        }

        // Entity → block adjacency: blocks are visited in id order, so every
        // entity's slice comes out sorted.
        let mut degrees = vec![0u32; num_entities];
        for &entity in &block_entities {
            degrees[entity.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(num_entities + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursors: Vec<u32> = offsets[..num_entities].to_vec();
        let mut block_ids = vec![BlockId(0); acc as usize];
        for b in 0..num_blocks {
            let id = BlockId::from(b);
            for entity in blocks.entities(b) {
                let cursor = &mut cursors[entity.index()];
                block_ids[*cursor as usize] = id;
                *cursor += 1;
            }
        }

        let total_comparisons = block_comparisons.iter().sum();
        let entity_comparisons = (0..num_entities)
            .map(|e| {
                block_ids[offsets[e] as usize..offsets[e + 1] as usize]
                    .iter()
                    .map(|b| block_comparisons[b.index()])
                    .sum()
            })
            .collect();

        BlockStats {
            offsets,
            block_ids,
            block_offsets,
            block_entities,
            first_source_counts,
            block_sizes,
            block_comparisons,
            inv_comparisons,
            inv_sizes,
            total_comparisons,
            entity_comparisons,
            num_blocks,
            kind: blocks.kind,
            split: blocks.split,
        }
    }

    /// Number of blocks, |B|.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of entities covered.
    pub fn num_entities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The blocks containing an entity, `B_i`, sorted by block id.
    #[inline]
    pub fn blocks_of(&self, entity: EntityId) -> &[BlockId] {
        let start = self.offsets[entity.index()] as usize;
        let end = self.offsets[entity.index() + 1] as usize;
        &self.block_ids[start..end]
    }

    /// `|B_i|`: how many blocks contain the entity.
    #[inline]
    pub fn num_blocks_of(&self, entity: EntityId) -> usize {
        (self.offsets[entity.index() + 1] - self.offsets[entity.index()]) as usize
    }

    /// The raw CSR index: `(offsets, block_ids)` with entity `i`'s block list
    /// at `block_ids[offsets[i]..offsets[i + 1]]`.
    pub fn entity_block_csr(&self) -> (&[u32], &[BlockId]) {
        (&self.offsets, &self.block_ids)
    }

    /// The ER kind of the underlying collection.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The E1/E2 boundary of the flattened entity id space.
    pub fn split(&self) -> usize {
        self.split
    }

    /// The sorted entities of a block (flat reverse-CSR slice).
    #[inline]
    pub fn entities_of(&self, block: BlockId) -> &[EntityId] {
        let start = self.block_offsets[block.index()] as usize;
        let end = self.block_offsets[block.index() + 1] as usize;
        &self.block_entities[start..end]
    }

    /// How many of the block's entities belong to the first source.  The
    /// slice `entities_of(b)[first_source_count(b)..]` is the block's E2 side
    /// (empty split for Dirty ER, where every entity is "first source").
    #[inline]
    pub fn first_source_count(&self, block: BlockId) -> u32 {
        self.first_source_counts[block.index()]
    }

    /// `|b|`: number of entities in a block.
    #[inline]
    pub fn block_size(&self, block: BlockId) -> u32 {
        self.block_sizes[block.index()]
    }

    /// `||b||`: number of comparisons in a block, including redundant ones.
    #[inline]
    pub fn block_comparisons(&self, block: BlockId) -> u64 {
        self.block_comparisons[block.index()]
    }

    /// The precomputed `1/||b||` table, indexed by block id (0 for blocks
    /// without comparisons).
    #[inline]
    pub fn inv_comparisons_table(&self) -> &[f64] {
        &self.inv_comparisons
    }

    /// The precomputed `1/|b|` table, indexed by block id (0 for empty
    /// blocks).
    #[inline]
    pub fn inv_sizes_table(&self) -> &[f64] {
        &self.inv_sizes
    }

    /// `||B||`: total comparisons across all blocks.
    pub fn total_comparisons(&self) -> u64 {
        self.total_comparisons
    }

    /// `||e_i||`: aggregate comparisons of the blocks containing the entity.
    #[inline]
    pub fn entity_comparisons(&self, entity: EntityId) -> u64 {
        self.entity_comparisons[entity.index()]
    }

    /// Number of blocks shared by two entities, `|B_i ∩ B_j|`.
    pub fn common_blocks(&self, a: EntityId, b: EntityId) -> usize {
        let mut count = 0;
        self.for_each_common_block(a, b, |_| count += 1);
        count
    }

    /// Calls `f` for every block shared by the two entities, in block-id order.
    ///
    /// Implemented as a merge of the two sorted block lists, so the cost is
    /// `O(|B_i| + |B_j|)` with no allocation — this sits on the hot path of
    /// every weighting scheme.
    #[inline]
    pub fn for_each_common_block(&self, a: EntityId, b: EntityId, mut f: impl FnMut(BlockId)) {
        let la = self.blocks_of(a);
        let lb = self.blocks_of(b);
        let (mut i, mut j) = (0, 0);
        while i < la.len() && j < lb.len() {
            let (x, y) = (la[i], lb[j]);
            if x < y {
                i += 1;
            } else if y < x {
                j += 1;
            } else {
                f(x);
                i += 1;
                j += 1;
            }
        }
    }

    /// Returns the shared blocks of two entities as a vector.
    pub fn common_block_ids(&self, a: EntityId, b: EntityId) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_common_block(a, b, |id| out.push(id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveBlockStats;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn collection(num_entities: usize) -> CsrBlockCollection {
        CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            2,
            num_entities,
            [
                ("a", ids(&[0, 2])),
                ("b", ids(&[0, 1, 2, 3])),
                ("c", ids(&[1, 3])),
            ],
        )
    }

    fn sample() -> CsrBlockCollection {
        collection(4)
    }

    #[test]
    fn per_block_quantities() {
        let stats = BlockStats::from_csr(&sample());
        assert_eq!(stats.num_blocks(), 3);
        assert_eq!(stats.block_size(BlockId(1)), 4);
        assert_eq!(stats.block_comparisons(BlockId(0)), 1);
        assert_eq!(stats.total_comparisons(), 1 + 4 + 1);
    }

    #[test]
    fn per_entity_quantities() {
        let stats = BlockStats::from_csr(&sample());
        assert_eq!(stats.blocks_of(EntityId(0)), &[BlockId(0), BlockId(1)]);
        assert_eq!(stats.num_blocks_of(EntityId(3)), 2);
        assert_eq!(stats.entity_comparisons(EntityId(0)), 1 + 4);
        assert_eq!(stats.entity_comparisons(EntityId(1)), 4 + 1);
    }

    #[test]
    fn common_blocks_by_merge() {
        let stats = BlockStats::from_csr(&sample());
        assert_eq!(stats.common_blocks(EntityId(0), EntityId(2)), 2);
        assert_eq!(stats.common_blocks(EntityId(0), EntityId(3)), 1);
        assert_eq!(
            stats.common_block_ids(EntityId(0), EntityId(2)),
            vec![BlockId(0), BlockId(1)]
        );
        assert_eq!(stats.common_blocks(EntityId(0), EntityId(0)), 2);
    }

    #[test]
    fn entity_with_no_blocks() {
        let stats = BlockStats::from_csr(&collection(5));
        assert_eq!(stats.num_blocks_of(EntityId(4)), 0);
        assert_eq!(stats.entity_comparisons(EntityId(4)), 0);
        assert_eq!(stats.common_blocks(EntityId(4), EntityId(0)), 0);
    }

    #[test]
    fn reverse_csr_exposes_block_membership() {
        let bc = sample();
        let stats = BlockStats::from_csr(&bc);
        assert_eq!(stats.kind(), DatasetKind::CleanClean);
        assert_eq!(stats.split(), 2);
        assert_eq!(stats.entities_of(BlockId(0)), &[EntityId(0), EntityId(2)]);
        assert_eq!(
            stats.entities_of(BlockId(1)),
            &[EntityId(0), EntityId(1), EntityId(2), EntityId(3)]
        );
        assert_eq!(stats.first_source_count(BlockId(1)), 2);
        // The E2 side of block b.
        let fsc = stats.first_source_count(BlockId(1)) as usize;
        assert_eq!(
            &stats.entities_of(BlockId(1))[fsc..],
            &[EntityId(2), EntityId(3)]
        );
    }

    #[test]
    fn reciprocal_tables_match_cardinalities() {
        let stats = BlockStats::from_csr(&sample());
        for b in 0..stats.num_blocks() {
            let id = BlockId(b as u32);
            let comparisons = stats.block_comparisons(id);
            let expected = if comparisons > 0 {
                1.0 / comparisons as f64
            } else {
                0.0
            };
            assert_eq!(stats.inv_comparisons_table()[b], expected);
            assert_eq!(
                stats.inv_sizes_table()[b],
                1.0 / f64::from(stats.block_size(id))
            );
        }
    }

    /// `from_csr` against the nested `Vec<Vec<BlockId>>` reference
    /// statistics, which recompute every block's cardinalities from its
    /// entity list.
    #[test]
    fn from_csr_matches_nested_constructor() {
        let bc = sample();
        let from_csr = BlockStats::from_csr(&bc);
        let nested = NaiveBlockStats::from_csr(&bc);
        assert_eq!(from_csr.num_blocks(), nested.num_blocks());
        assert_eq!(from_csr.num_entities(), nested.num_entities());
        assert_eq!(from_csr.total_comparisons(), nested.total_comparisons());
        for b in 0..bc.num_blocks() {
            let id = BlockId(b as u32);
            assert_eq!(from_csr.block_size(id), nested.block_size(id));
            assert_eq!(from_csr.block_comparisons(id), nested.block_comparisons(id));
            assert_eq!(from_csr.entities_of(id), bc.entities(b));
            let first = bc
                .entities(b)
                .iter()
                .filter(|e| e.index() < bc.split)
                .count();
            assert_eq!(from_csr.first_source_count(id) as usize, first);
        }
    }

    #[test]
    fn csr_matches_naive_adjacency() {
        let bc = sample();
        let stats = BlockStats::from_csr(&bc);
        let naive = NaiveBlockStats::from_csr(&bc);
        for e in 0..bc.num_entities {
            let entity = EntityId(e as u32);
            assert_eq!(stats.blocks_of(entity), naive.blocks_of(entity));
            assert_eq!(
                stats.entity_comparisons(entity),
                naive.entity_comparisons(entity)
            );
        }
        let (offsets, arena) = stats.entity_block_csr();
        assert_eq!(offsets.len(), bc.num_entities + 1);
        assert_eq!(arena.len(), *offsets.last().unwrap() as usize);
    }
}
