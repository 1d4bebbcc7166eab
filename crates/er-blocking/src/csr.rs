//! CSR-backed block collections: the allocation-lean representation produced
//! by the parallel [`crate::builder`] engine.
//!
//! A [`CsrBlockCollection`] stores the whole collection in four flat arrays:
//! one shared key arena (all block keys concatenated, behind an `Arc` so
//! derived collections never re-clone strings), one `key_ids` array mapping
//! each block to its key, and an entity CSR (`entity_offsets` + `entities`
//! arena) holding each block's sorted entity list.  Compared with
//! `Vec<Block>` — one heap `String` plus one heap `Vec<EntityId>` per block —
//! this removes two allocations and one pointer indirection per block, keeps
//! consecutive blocks adjacent in memory, and makes Block Purging and Block
//! Filtering pure index operations.
//!
//! [`BlockCollection`] remains the compatibility view: `to_block_collection`
//! materialises the nested representation for APIs that still consume it, and
//! `from_block_collection` lifts legacy collections into the CSR world.  Both
//! directions preserve block order, so `BlockId`s mean the same thing in
//! either representation.

use std::sync::Arc;

use er_core::{DatasetKind, EntityId};

use crate::block::Block;
use crate::collection::BlockCollection;

/// `||b||` from a block's first-source count and size — the single home of
/// the CleanClean/Dirty comparison formula.  Public so that incremental
/// consumers (the `er-stream` index) update block cardinalities with exactly
/// the batch engine's arithmetic.
#[inline]
pub fn comparisons_from_first(kind: DatasetKind, first: u32, size: usize) -> u64 {
    match kind {
        DatasetKind::CleanClean => u64::from(first) * (size as u64 - u64::from(first)),
        DatasetKind::Dirty => {
            let n = size as u64;
            n * n.saturating_sub(1) / 2
        }
    }
}

/// First-source count and `||b||` of one sorted entity slice.
#[inline]
pub fn slice_cardinalities(slice: &[EntityId], kind: DatasetKind, split: usize) -> (u32, u64) {
    let first = slice.partition_point(|e| e.index() < split) as u32;
    (first, comparisons_from_first(kind, first, slice.len()))
}

/// `value` as a `u32`, panicking with a message that names `limit` when it
/// does not fit — the arenas address keys and text with `u32`s, and a
/// silently wrapped offset would hand out the wrong key.
#[inline]
pub(crate) fn checked_u32(value: usize, limit: &'static str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => limit_exceeded(value, limit),
    }
}

#[cold]
#[inline(never)]
fn limit_exceeded(value: usize, limit: &'static str) -> ! {
    panic!("{limit} exceeded: {value} does not fit a u32")
}

/// An append-only arena of interned block keys: all key bytes concatenated in
/// one `String` plus an offset table.
///
/// Offsets and ids are `u32`s: the arena holds at most 4 GiB of key text
/// and 2^32 keys, and [`KeyStore::push`] panics past either limit.
#[derive(Debug, Clone, Default)]
pub struct KeyStore {
    pub(crate) text: String,
    pub(crate) offsets: Vec<u32>,
}

impl KeyStore {
    /// Creates an empty store with capacity hints.
    pub fn with_capacity(keys: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(keys + 1);
        offsets.push(0);
        KeyStore {
            text: String::with_capacity(bytes),
            offsets,
        }
    }

    /// Appends a key and returns its id.
    ///
    /// # Panics
    /// Panics if the key text would pass 4 GiB or the id 2^32 - 1.
    pub fn push(&mut self, key: &str) -> u32 {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let id = checked_u32(self.offsets.len() - 1, "key arena id limit (2^32 keys)");
        let end = checked_u32(
            self.text.len() + key.len(),
            "key arena text limit (4 GiB of key text)",
        );
        self.text.push_str(key);
        self.offsets.push(end);
        id
    }

    /// Heap bytes held by the text and the offset table.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if no key has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key with the given id.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        let start = self.offsets[id as usize] as usize;
        let end = self.offsets[id as usize + 1] as usize;
        &self.text[start..end]
    }
}

/// A block collection laid out as flat CSR arrays with arena-backed keys.
///
/// Blocks are kept in deterministic (key-sorted) order exactly like
/// [`BlockCollection`]; derived collections (after purging/filtering) keep the
/// relative order of the surviving blocks.
#[derive(Debug, Clone)]
pub struct CsrBlockCollection {
    /// Name of the dataset the blocks were extracted from.
    pub dataset_name: String,
    /// Clean-Clean or Dirty ER.
    pub kind: DatasetKind,
    /// E1/E2 boundary in the flattened entity id space.
    pub split: usize,
    /// Total number of entity profiles in the dataset.
    pub num_entities: usize,
    /// Shared key arena; derived collections reference the same storage.
    pub(crate) keys: Arc<KeyStore>,
    /// Per block, the id of its key in `keys`.
    pub(crate) key_ids: Vec<u32>,
    /// CSR offsets into `entities`; `num_blocks + 1` entries.
    pub(crate) entity_offsets: Vec<u32>,
    /// Concatenated sorted entity lists of all blocks.
    pub(crate) entities: Vec<EntityId>,
    /// Per block, how many of its entities belong to the first source.
    pub(crate) first_counts: Vec<u32>,
}

impl CsrBlockCollection {
    /// Assembles a collection whose first-source counts were already computed
    /// by the caller (the parallel builder and the `er-stream` compaction).
    /// `entity_offsets` must have one more entry than `key_ids`, every
    /// block's entity slice must be sorted and duplicate-free, and
    /// `first_counts[b]` must equal the number of entities of block `b` with
    /// an index below `split` — callers that cannot guarantee this should go
    /// through [`CsrBlockCollection::from_block_collection`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        dataset_name: String,
        kind: DatasetKind,
        split: usize,
        num_entities: usize,
        keys: Arc<KeyStore>,
        key_ids: Vec<u32>,
        entity_offsets: Vec<u32>,
        entities: Vec<EntityId>,
        first_counts: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(entity_offsets.len(), key_ids.len() + 1);
        debug_assert_eq!(first_counts.len(), key_ids.len());
        CsrBlockCollection {
            dataset_name,
            kind,
            split,
            num_entities,
            keys,
            key_ids,
            entity_offsets,
            entities,
            first_counts,
        }
    }

    /// Number of blocks, |B|.
    pub fn num_blocks(&self) -> usize {
        self.key_ids.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.key_ids.is_empty()
    }

    /// The shared key arena.
    pub fn key_store(&self) -> &Arc<KeyStore> {
        &self.keys
    }

    /// The blocking key of block `b` (no allocation — a slice into the arena).
    #[inline]
    pub fn key(&self, b: usize) -> &str {
        self.keys.get(self.key_ids[b])
    }

    /// The arena id of block `b`'s key (an index into [`Self::key_store`]).
    #[inline]
    pub fn key_id(&self, b: usize) -> u32 {
        self.key_ids[b]
    }

    /// The sorted entity list of block `b`.
    #[inline]
    pub fn entities(&self, b: usize) -> &[EntityId] {
        &self.entities[self.entity_offsets[b] as usize..self.entity_offsets[b + 1] as usize]
    }

    /// `|b|`: number of entities in block `b`.
    #[inline]
    pub fn block_size(&self, b: usize) -> usize {
        (self.entity_offsets[b + 1] - self.entity_offsets[b]) as usize
    }

    /// Number of entities of block `b` that belong to the first source.
    #[inline]
    pub fn first_source_count(&self, b: usize) -> usize {
        self.first_counts[b] as usize
    }

    /// `||b||`: comparisons contained in block `b`, including redundant ones.
    #[inline]
    pub fn block_comparisons(&self, b: usize) -> u64 {
        comparisons_from_first(self.kind, self.first_counts[b], self.block_size(b))
    }

    /// True if block `b` contributes at least one comparison.
    #[inline]
    pub fn is_useful(&self, b: usize) -> bool {
        self.block_comparisons(b) > 0
    }

    /// `||B||`: aggregate comparison cardinality over all blocks.
    pub fn total_comparisons(&self) -> u64 {
        (0..self.num_blocks())
            .map(|b| self.block_comparisons(b))
            .sum()
    }

    /// `Σ_b |b|`: the sum of block sizes.
    pub fn sum_block_sizes(&self) -> u64 {
        self.entities.len() as u64
    }

    /// True if two entities may be compared at all: cross-source for
    /// Clean-Clean ER, merely distinct for Dirty ER.
    #[inline]
    pub fn is_comparable(&self, a: EntityId, b: EntityId) -> bool {
        self.kind.comparable(self.split, a, b)
    }

    /// Returns a collection containing only the blocks satisfying `keep`,
    /// preserving order.  The key arena is shared, so no key string is cloned
    /// no matter how many blocks survive.
    pub fn retain(&self, mut keep: impl FnMut(usize) -> bool) -> CsrBlockCollection {
        let mut key_ids = Vec::new();
        let mut entity_offsets = vec![0u32];
        let mut entities = Vec::new();
        let mut first_counts = Vec::new();
        for b in 0..self.num_blocks() {
            if keep(b) {
                key_ids.push(self.key_ids[b]);
                entities.extend_from_slice(self.entities(b));
                entity_offsets.push(entities.len() as u32);
                first_counts.push(self.first_counts[b]);
            }
        }
        CsrBlockCollection {
            dataset_name: self.dataset_name.clone(),
            kind: self.kind,
            split: self.split,
            num_entities: self.num_entities,
            keys: Arc::clone(&self.keys),
            key_ids,
            entity_offsets,
            entities,
            first_counts,
        }
    }

    /// Rebuilds the collection keeping, per block, only the entities
    /// satisfying `keep_assignment(entity, block)`; blocks that stop producing
    /// comparisons are dropped.  Shares the key arena (no string clones).
    pub fn retain_assignments(
        &self,
        mut keep_assignment: impl FnMut(EntityId, usize) -> bool,
    ) -> CsrBlockCollection {
        let mut key_ids = Vec::new();
        let mut entity_offsets = vec![0u32];
        let mut entities: Vec<EntityId> = Vec::new();
        let mut first_counts = Vec::new();
        for b in 0..self.num_blocks() {
            let start = entities.len();
            entities.extend(
                self.entities(b)
                    .iter()
                    .copied()
                    .filter(|&e| keep_assignment(e, b)),
            );
            let (first, comparisons) =
                slice_cardinalities(&entities[start..], self.kind, self.split);
            if comparisons > 0 {
                key_ids.push(self.key_ids[b]);
                entity_offsets.push(entities.len() as u32);
                first_counts.push(first);
            } else {
                entities.truncate(start);
            }
        }
        CsrBlockCollection {
            dataset_name: self.dataset_name.clone(),
            kind: self.kind,
            split: self.split,
            num_entities: self.num_entities,
            keys: Arc::clone(&self.keys),
            key_ids,
            entity_offsets,
            entities,
            first_counts,
        }
    }

    /// Materialises the nested `Vec<Block>` compatibility view (clones each
    /// key once; use the CSR consumers to avoid that).
    pub fn to_block_collection(&self) -> BlockCollection {
        let blocks = (0..self.num_blocks())
            .map(|b| Block {
                key: self.key(b).to_string(),
                entities: self.entities(b).to_vec(),
            })
            .collect();
        BlockCollection {
            dataset_name: self.dataset_name.clone(),
            kind: self.kind,
            split: self.split,
            num_entities: self.num_entities,
            blocks,
        }
    }

    /// Lifts a legacy nested collection into the CSR representation.
    pub fn from_block_collection(blocks: &BlockCollection) -> Self {
        let total_bytes = blocks.blocks.iter().map(|b| b.key.len()).sum();
        let mut keys = KeyStore::with_capacity(blocks.num_blocks(), total_bytes);
        let mut key_ids = Vec::with_capacity(blocks.num_blocks());
        let mut entity_offsets = Vec::with_capacity(blocks.num_blocks() + 1);
        entity_offsets.push(0u32);
        let mut entities = Vec::new();
        let mut first_counts = Vec::with_capacity(blocks.num_blocks());
        for block in &blocks.blocks {
            key_ids.push(keys.push(&block.key));
            entities.extend_from_slice(&block.entities);
            entity_offsets.push(entities.len() as u32);
            first_counts.push(block.first_source_count(blocks.split) as u32);
        }
        CsrBlockCollection::from_raw(
            blocks.dataset_name.clone(),
            blocks.kind,
            blocks.split,
            blocks.num_entities,
            Arc::new(keys),
            key_ids,
            entity_offsets,
            entities,
            first_counts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn sample() -> BlockCollection {
        BlockCollection {
            dataset_name: "toy".into(),
            kind: DatasetKind::CleanClean,
            split: 2,
            num_entities: 5,
            blocks: vec![
                Block::new("apple", ids(&[0, 2])),
                Block::new("phone", ids(&[0, 1, 2, 3])),
                Block::new("samsung", ids(&[1, 3, 4])),
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bc = sample();
        let csr = CsrBlockCollection::from_block_collection(&bc);
        assert_eq!(csr.num_blocks(), 3);
        assert_eq!(csr.key(0), "apple");
        assert_eq!(csr.entities(1), ids(&[0, 1, 2, 3]).as_slice());
        assert_eq!(csr.block_size(2), 3);
        assert_eq!(csr.total_comparisons(), bc.total_comparisons());
        assert_eq!(csr.sum_block_sizes(), bc.sum_block_sizes());
        let back = csr.to_block_collection();
        assert_eq!(back.blocks, bc.blocks);
        assert_eq!(back.split, bc.split);
        assert_eq!(back.num_entities, bc.num_entities);
    }

    #[test]
    fn first_source_counts_and_comparisons() {
        let csr = CsrBlockCollection::from_block_collection(&sample());
        // "phone": entities 0,1 from E1; 2,3 from E2.
        assert_eq!(csr.first_source_count(1), 2);
        assert_eq!(csr.block_comparisons(1), 4);
        // "samsung": entities 1 | 3,4.
        assert_eq!(csr.block_comparisons(2), 2);
        assert!(csr.is_useful(0));
    }

    #[test]
    fn retain_shares_the_key_arena() {
        let csr = CsrBlockCollection::from_block_collection(&sample());
        let kept = csr.retain(|b| csr.block_size(b) < 4);
        assert_eq!(kept.num_blocks(), 2);
        assert_eq!(kept.key(0), "apple");
        assert_eq!(kept.key(1), "samsung");
        assert!(Arc::ptr_eq(csr.key_store(), kept.key_store()));
    }

    #[test]
    fn retain_assignments_drops_useless_blocks() {
        let csr = CsrBlockCollection::from_block_collection(&sample());
        // Remove every E2 entity from "phone": it stops producing comparisons.
        let rebuilt = csr.retain_assignments(|e, b| !(b == 1 && e.index() >= 2));
        let keys: Vec<&str> = (0..rebuilt.num_blocks()).map(|b| rebuilt.key(b)).collect();
        assert_eq!(keys, vec!["apple", "samsung"]);
        assert!(Arc::ptr_eq(csr.key_store(), rebuilt.key_store()));
    }

    #[test]
    fn key_store_push_and_get() {
        let mut store = KeyStore::default();
        let a = store.push("alpha");
        let b = store.push("β");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a), "alpha");
        assert_eq!(store.get(b), "β");
    }

    #[test]
    fn checked_u32_accepts_the_largest_u32() {
        assert_eq!(checked_u32(u32::MAX as usize, "test limit"), u32::MAX);
        assert_eq!(checked_u32(0, "test limit"), 0);
    }

    #[test]
    #[should_panic(expected = "test limit exceeded: 4294967296 does not fit a u32")]
    fn checked_u32_panics_one_past_the_largest_u32() {
        checked_u32(u32::MAX as usize + 1, "test limit");
    }

    #[test]
    fn dirty_comparisons_are_triangular() {
        let bc = BlockCollection {
            dataset_name: "d".into(),
            kind: DatasetKind::Dirty,
            split: 4,
            num_entities: 4,
            blocks: vec![Block::new("k", ids(&[0, 1, 2, 3]))],
        };
        let csr = CsrBlockCollection::from_block_collection(&bc);
        assert_eq!(csr.block_comparisons(0), 6);
    }
}
