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
//!
//! # Construction
//!
//! The block → entity side is a cleaned collection's own CSR, and the
//! entity → block side is one transposition of it.  [`BlockStats::from_csr`]
//! does that transposition for any collection.  The standard workflow does
//! not need it: its filtering tail already holds the entity side,
//! renumbered to the surviving blocks ([`EntitySide`], returned by
//! [`crate::clean_blocks_csr`]), and [`BlockStats::from_entity_side`] takes
//! both sides as they are.  Both routes compute the per-block tables and
//! `||e_i||` in one place, so they agree bit for bit.

use er_core::{BlockId, DatasetKind, EntityId};

use crate::csr::{transpose, CsrBlockCollection};
use crate::filtering::TAIL_GRAIN;

/// The entity → block side of a cleaned block collection, as the batch
/// workflow's filtering tail leaves it: entity `i`'s ascending blocks, in
/// the collection's ids, are `block_ids[offsets[i]..offsets[i + 1]]`.
/// [`BlockStats::from_entity_side`] turns it, with its collection, into the
/// statistics.
#[derive(Debug, Clone)]
pub struct EntitySide {
    pub(crate) offsets: Vec<u32>,
    pub(crate) block_ids: Vec<BlockId>,
}

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
    /// ids) without touching any key string: one transposition builds the
    /// entity side, and the block side is the collection's own arrays.
    pub fn from_csr(blocks: &CsrBlockCollection) -> Self {
        let (offsets, block_ids) = transpose(
            blocks.num_blocks(),
            |b| blocks.entities(b),
            |_| true,
            blocks.num_entities,
            |e| e.index(),
            1,
        );
        Self::from_entity_side(blocks, EntitySide { offsets, block_ids }, 1)
    }

    /// The statistics of `blocks` given its entity side, already built —
    /// [`crate::clean_blocks_csr`] returns the two together.  The per-block
    /// tables and `||e_i||` are computed here, so every constructor shares
    /// one copy of their arithmetic; `||e_i||` is summed over entity ranges
    /// on up to `threads` workers.
    ///
    /// # Panics
    /// Panics if `side` covers another number of entities than `blocks`.
    pub fn from_entity_side(blocks: &CsrBlockCollection, side: EntitySide, threads: usize) -> Self {
        let EntitySide { offsets, block_ids } = side;
        assert_eq!(
            offsets.len(),
            blocks.num_entities + 1,
            "the entity side must come with its block collection"
        );
        let num_blocks = blocks.num_blocks();
        let block_sizes: Vec<u32> = blocks
            .entity_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        let block_comparisons: Vec<u64> = (0..num_blocks)
            .map(|b| blocks.block_comparisons(b))
            .collect();
        let inv_comparisons = block_comparisons
            .iter()
            .map(|&c| if c > 0 { 1.0 / c as f64 } else { 0.0 })
            .collect();
        let inv_sizes = block_sizes
            .iter()
            .map(|&size| if size > 0 { 1.0 / f64::from(size) } else { 0.0 })
            .collect();
        let total_comparisons = block_comparisons.iter().sum();
        let num_entities = blocks.num_entities;
        let workers = er_core::workers_for(num_entities, threads, TAIL_GRAIN);
        let mut entity_comparisons = vec![0u64; num_entities];
        let chunk = num_entities.div_ceil(workers).max(1);
        let tasks = entity_comparisons
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, sums)| (c * chunk, sums))
            .collect();
        er_core::map_tasks_parallel(tasks, workers, |(first, sums)| {
            for (e, sum) in (first..).zip(sums) {
                let list = &block_ids[offsets[e] as usize..offsets[e + 1] as usize];
                *sum = list.iter().map(|b| block_comparisons[b.index()]).sum();
            }
        });

        BlockStats {
            offsets,
            block_ids,
            block_offsets: blocks.entity_offsets.clone(),
            block_entities: blocks.entities.clone(),
            first_source_counts: blocks.first_counts.clone(),
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
    #[should_panic(expected = "must come with its block collection")]
    fn an_entity_side_of_another_collection_is_refused() {
        let side = EntitySide {
            offsets: vec![0; 4],
            block_ids: Vec::new(),
        };
        let _ = BlockStats::from_entity_side(&sample(), side, 1);
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
