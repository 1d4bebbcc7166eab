//! The block collection: one flat CSR layout with arena-backed keys,
//! produced by the parallel [`crate::builder`] engine and consumed by every
//! later step of the workflow.
//!
//! A [`CsrBlockCollection`] stores the whole collection in four flat arrays:
//! one shared key arena (all block keys concatenated, behind an `Arc` so
//! derived collections never re-clone strings), one `key_ids` array mapping
//! each block to its key, and an entity CSR (`entity_offsets` + `entities`
//! arena) holding each block's sorted entity list.  Consecutive blocks sit
//! next to each other in memory, no block owns a heap allocation, and Block
//! Purging and Block Filtering are pure index operations.
//!
//! [`CsrBlockCollection::from_blocks`] builds a collection from literal
//! `(key, entities)` blocks (test fixtures and the sequential
//! [`crate::reference`] builders), and [`CsrBlockCollection::same_blocks`]
//! compares two collections block for block.

use std::sync::Arc;

use er_core::{DatasetKind, EntityId};

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

/// The offset table of consecutive runs of the given lengths: `0`, then
/// every running sum, so run `i` spans `offsets[i]..offsets[i + 1]`.
///
/// Every `u32` offset table of the blocking layer is summed here, so a
/// total past `u32::MAX` panics with a message naming `limit` instead of
/// wrapping into offsets that hand out the wrong entries.
pub(crate) fn prefix_offsets(
    lengths: impl IntoIterator<Item = usize>,
    limit: &'static str,
) -> Vec<u32> {
    let lengths = lengths.into_iter();
    let mut offsets = Vec::with_capacity(lengths.size_hint().0 + 1);
    offsets.push(0);
    let mut end = 0usize;
    for len in lengths {
        end += len;
        offsets.push(checked_u32(end, limit));
    }
    offsets
}

/// The entity arena limit every block → entity offset table is checked
/// against.
pub(crate) const ENTITY_ARENA_LIMIT: &str = "block entity arena limit (2^32 postings)";

/// Transposes a CSR: `row(r)` lists the columns of row `r` (ascending rows
/// are visited in order), and the result lists, per column, its rows —
/// column `c`'s ascending rows are `items[offsets[c]..offsets[c + 1]]`.
/// Rows failing `keep` are left out.  This is the block → entity
/// transposition of [`crate::BlockStats::from_csr`] and of the filtering
/// tail's adjacency.
///
/// Each of up to `workers` parts transposes a contiguous range of rows
/// into a CSR of its own (a counting pass and a scatter); with more than
/// one part, every column's runs are then appended in part order, over
/// column ranges that own contiguous output slots.  All buffers are
/// allocated on the calling thread, so no worker's malloc arena retains
/// them.
pub(crate) fn transpose<'a, I: Sync + 'a, O: From<usize> + Copy + Send + Sync>(
    rows: usize,
    row: impl Fn(usize) -> &'a [I] + Sync,
    keep: impl Fn(usize) -> bool + Sync,
    columns: usize,
    column: impl Fn(&I) -> usize + Sync,
    workers: usize,
) -> (Vec<u32>, Vec<O>) {
    let parts = workers.clamp(1, rows.max(1));
    let chunk = rows.div_ceil(parts).max(1);
    let kept = |p: usize| ((p * chunk).min(rows)..((p + 1) * chunk).min(rows)).filter(|&r| keep(r));
    let width = columns.max(1);

    // Part `p`'s degrees, then cursors, then run ends, are
    // `cursors[p * columns..][..columns]`.
    let mut cursors = vec![0u32; parts * columns];
    let tasks = cursors.chunks_mut(width).enumerate().collect();
    er_core::map_tasks_parallel(tasks, workers, |(p, degrees)| {
        for r in kept(p) {
            for item in row(r) {
                degrees[column(item)] += 1;
            }
        }
    });
    let degree =
        |c: usize| -> usize { (0..parts).map(|p| cursors[p * columns + c] as usize).sum() };
    let offsets = prefix_offsets((0..columns).map(degree), ENTITY_ARENA_LIMIT);
    let mut part_lens = Vec::with_capacity(parts);
    for degrees in cursors.chunks_mut(width) {
        let mut end = 0;
        for slot in degrees {
            (*slot, end) = (end, end + *slot);
        }
        part_lens.push(end as usize);
    }

    let mut part_items = vec![O::from(0); offsets[columns] as usize];
    let slots = er_core::split_lengths_mut(&mut part_items, part_lens.iter().copied());
    let tasks = cursors.chunks_mut(width).zip(slots).enumerate().collect();
    er_core::map_tasks_parallel(tasks, workers, |(p, (cursors, slots))| {
        scatter(kept(p), &row, &column, cursors, slots);
    });
    if parts == 1 {
        return (offsets, part_items);
    }

    // Each part's cursors now sit at the ends of its column runs.
    let mut part_slices = Vec::with_capacity(parts);
    let mut rest = &part_items[..];
    for &len in &part_lens {
        let (slots, tail) = rest.split_at(len);
        part_slices.push(slots);
        rest = tail;
    }
    let run = |p: usize, c: usize| {
        let ends = &cursors[p * columns..];
        let start = if c == 0 { 0 } else { ends[c - 1] as usize };
        &part_slices[p][start..ends[c] as usize]
    };
    let mut items = vec![O::from(0); part_items.len()];
    let column_chunk = columns.div_ceil(workers).max(1);
    let ranges: Vec<_> = (0..columns)
        .step_by(column_chunk)
        .map(|start| start..(start + column_chunk).min(columns))
        .collect();
    let lens = ranges
        .iter()
        .map(|r| (offsets[r.end] - offsets[r.start]) as usize);
    let slots = er_core::split_lengths_mut(&mut items, lens);
    let tasks = ranges.into_iter().zip(slots).collect();
    er_core::map_tasks_parallel(tasks, workers, |(range, slots)| {
        let mut end = 0;
        for c in range {
            for p in 0..parts {
                let run = run(p, c);
                slots[end..end + run.len()].copy_from_slice(run);
                end += run.len();
            }
        }
    });
    (offsets, items)
}

/// The second half of a transposition: writes each of `rows`' ids into
/// the slot its items' columns' cursors point at, advancing the cursors.
/// With every cursor at the start of its column's run, and `rows`
/// ascending, each column's rows come out ascending.
pub(crate) fn scatter<'a, I: 'a, O: From<usize>>(
    rows: impl Iterator<Item = usize>,
    row: impl Fn(usize) -> &'a [I],
    column: impl Fn(&I) -> usize,
    cursors: &mut [u32],
    slots: &mut [O],
) {
    for r in rows {
        for item in row(r) {
            let cursor = &mut cursors[column(item)];
            slots[*cursor as usize] = O::from(r);
            *cursor += 1;
        }
    }
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
/// Blocks are kept in deterministic (key-sorted) order; derived collections
/// (after purging/filtering) keep the relative order of the surviving blocks,
/// so a block's index is its `BlockId`.
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
    /// through [`CsrBlockCollection::from_blocks`] instead.
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
        let kept: Vec<usize> = (0..self.num_blocks()).filter(|&b| keep(b)).collect();
        let entity_offsets =
            prefix_offsets(kept.iter().map(|&b| self.block_size(b)), ENTITY_ARENA_LIMIT);
        let mut entities = Vec::with_capacity(entity_offsets[kept.len()] as usize);
        for &b in &kept {
            entities.extend_from_slice(self.entities(b));
        }
        CsrBlockCollection {
            dataset_name: self.dataset_name.clone(),
            kind: self.kind,
            split: self.split,
            num_entities: self.num_entities,
            keys: Arc::clone(&self.keys),
            key_ids: kept.iter().map(|&b| self.key_ids[b]).collect(),
            entity_offsets,
            entities,
            first_counts: kept.iter().map(|&b| self.first_counts[b]).collect(),
        }
    }

    /// Builds a collection from literal `(key, entities)` blocks, kept in
    /// the given order.  Each entity list is sorted and deduplicated, and
    /// the first-source counts are computed from `split`.
    ///
    /// # Panics
    /// Panics if an entity id is not below `num_entities`.
    pub fn from_blocks<K: AsRef<str>>(
        dataset_name: impl Into<String>,
        kind: DatasetKind,
        split: usize,
        num_entities: usize,
        blocks: impl IntoIterator<Item = (K, Vec<EntityId>)>,
    ) -> Self {
        let mut keys = KeyStore::with_capacity(0, 0);
        let mut key_ids = Vec::new();
        let mut entity_offsets = vec![0u32];
        let mut entities = Vec::new();
        let mut first_counts = Vec::new();
        for (key, mut list) in blocks {
            list.sort_unstable();
            list.dedup();
            if let Some(last) = list.last() {
                assert!(
                    last.index() < num_entities,
                    "entity {last} is out of range for {num_entities} entities"
                );
            }
            key_ids.push(keys.push(key.as_ref()));
            first_counts.push(slice_cardinalities(&list, kind, split).0);
            entities.extend_from_slice(&list);
            entity_offsets.push(checked_u32(entities.len(), ENTITY_ARENA_LIMIT));
        }
        CsrBlockCollection::from_raw(
            dataset_name.into(),
            kind,
            split,
            num_entities,
            Arc::new(keys),
            key_ids,
            entity_offsets,
            entities,
            first_counts,
        )
    }

    /// True if both collections hold the same blocks in the same order: per
    /// block, the same key string and the same entity list.
    pub fn same_blocks(&self, other: &CsrBlockCollection) -> bool {
        self.num_blocks() == other.num_blocks()
            && (0..self.num_blocks())
                .all(|b| self.key(b) == other.key(b) && self.entities(b) == other.entities(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::BlockId;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn literal() -> Vec<(&'static str, Vec<EntityId>)> {
        vec![
            ("apple", ids(&[0, 2])),
            ("phone", ids(&[0, 1, 2, 3])),
            ("samsung", ids(&[1, 3, 4])),
        ]
    }

    fn sample() -> CsrBlockCollection {
        CsrBlockCollection::from_blocks("toy", DatasetKind::CleanClean, 2, 5, literal())
    }

    fn single(
        kind: DatasetKind,
        split: usize,
        num_entities: usize,
        v: &[u32],
    ) -> CsrBlockCollection {
        CsrBlockCollection::from_blocks("k", kind, split, num_entities, [("k", ids(v))])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let csr = sample();
        assert_eq!(csr.dataset_name, "toy");
        assert_eq!(
            (csr.kind, csr.split, csr.num_entities),
            (DatasetKind::CleanClean, 2, 5)
        );
        assert_eq!(csr.num_blocks(), 3);
        assert_eq!(csr.block_size(2), 3);
        let back: Vec<(&str, Vec<EntityId>)> = (0..csr.num_blocks())
            .map(|b| (csr.key(b), csr.entities(b).to_vec()))
            .collect();
        assert_eq!(back, literal());
    }

    #[test]
    fn block_lookup_by_id() {
        let csr = sample();
        assert_eq!(csr.key(2), "samsung");
        assert_eq!(csr.key_store().get(csr.key_id(2)), "samsung");
        assert_eq!(csr.entities(2), ids(&[1, 3, 4]).as_slice());
        assert_eq!(csr.block_comparisons(2), 2);
    }

    #[test]
    fn from_blocks_sorts_and_dedups() {
        let csr = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::Dirty,
            4,
            4,
            [("apple", ids(&[3, 1, 3, 2]))],
        );
        assert_eq!(csr.entities(0), ids(&[1, 2, 3]).as_slice());
        assert_eq!(csr.block_size(0), 3);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 entities")]
    fn from_blocks_rejects_out_of_range_entities() {
        single(DatasetKind::Dirty, 3, 3, &[0, 3]);
    }

    #[test]
    fn aggregate_cardinalities() {
        let csr = sample();
        // apple: 1*1, phone: 2*2, samsung: 1*2
        assert_eq!(csr.total_comparisons(), 1 + 4 + 2);
        assert_eq!(csr.sum_block_sizes(), 2 + 4 + 3);
    }

    #[test]
    fn first_source_counts_and_comparisons() {
        let csr = sample();
        // "phone": entities 0,1 from E1; 2,3 from E2.
        assert_eq!(csr.first_source_count(1), 2);
        assert_eq!(csr.block_comparisons(1), 4);
        // "samsung": entities 1 | 3,4.
        assert_eq!(csr.block_comparisons(2), 2);
        assert!(csr.is_useful(0));
    }

    #[test]
    fn clean_clean_comparisons_are_cross_products() {
        // split = 2: entities 0,1 in E1; 2,3,4 in E2.
        let csr = single(DatasetKind::CleanClean, 2, 5, &[0, 1, 2, 3, 4]);
        assert_eq!(csr.first_source_count(0), 2);
        assert_eq!(csr.block_comparisons(0), 2 * 3);
    }

    #[test]
    fn dirty_comparisons_are_triangular() {
        let csr = single(DatasetKind::Dirty, 4, 4, &[0, 1, 2, 3]);
        assert_eq!(csr.block_comparisons(0), 6);
    }

    #[test]
    fn dirty_comparisons_are_triangular_per_block() {
        let csr = CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::Dirty,
            5,
            5,
            [
                ("a", ids(&[0, 1])),
                ("b", ids(&[2, 3, 4])),
                ("c", ids(&[0, 1, 2, 3, 4])),
            ],
        );
        let per_block: Vec<u64> = (0..csr.num_blocks())
            .map(|b| csr.block_comparisons(b))
            .collect();
        assert_eq!(per_block, vec![1, 3, 10]);
        assert_eq!(csr.total_comparisons(), 1 + 3 + 10);
    }

    #[test]
    fn single_source_block_is_useless_for_clean_clean() {
        assert!(!single(DatasetKind::CleanClean, 2, 4, &[0, 1]).is_useful(0));
        assert!(single(DatasetKind::Dirty, 2, 4, &[0, 1]).is_useful(0));
    }

    #[test]
    fn singleton_block_is_always_useless() {
        assert!(!single(DatasetKind::CleanClean, 2, 6, &[5]).is_useful(0));
        assert!(!single(DatasetKind::Dirty, 10, 10, &[5]).is_useful(0));
    }

    #[test]
    fn comparability_follows_kind() {
        let csr = sample();
        assert!(csr.is_comparable(EntityId(0), EntityId(3)));
        assert!(!csr.is_comparable(EntityId(0), EntityId(1)));
        let mut dirty = sample();
        dirty.kind = DatasetKind::Dirty;
        assert!(dirty.is_comparable(EntityId(0), EntityId(1)));
        assert!(!dirty.is_comparable(EntityId(1), EntityId(1)));
    }

    #[test]
    fn same_blocks_compares_keys_and_entities_in_order() {
        let csr = sample();
        assert!(csr.same_blocks(&sample()));
        assert!(csr.same_blocks(&csr.retain(|_| true)));
        assert!(!csr.same_blocks(&csr.retain(|b| b != 1)));
        let mut reordered = literal();
        reordered.swap(0, 2);
        let reordered =
            CsrBlockCollection::from_blocks("toy", DatasetKind::CleanClean, 2, 5, reordered);
        assert!(!csr.same_blocks(&reordered));
        let mut renamed = literal();
        renamed[0].0 = "pear";
        let renamed =
            CsrBlockCollection::from_blocks("toy", DatasetKind::CleanClean, 2, 5, renamed);
        assert!(!csr.same_blocks(&renamed));
        let mut moved = literal();
        moved[2].1 = ids(&[1, 3]);
        let moved = CsrBlockCollection::from_blocks("toy", DatasetKind::CleanClean, 2, 5, moved);
        assert!(!csr.same_blocks(&moved));
    }

    #[test]
    fn retain_shares_the_key_arena() {
        let csr = sample();
        let kept = csr.retain(|b| csr.block_size(b) < 4);
        assert_eq!(kept.num_blocks(), 2);
        assert_eq!(kept.key(0), "apple");
        assert_eq!(kept.key(1), "samsung");
        assert!(Arc::ptr_eq(csr.key_store(), kept.key_store()));
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
    fn prefix_offsets_sums_lengths_up_to_the_largest_u32() {
        assert_eq!(prefix_offsets([], "test limit"), vec![0]);
        assert_eq!(prefix_offsets([2, 0, 3], "test limit"), vec![0, 2, 2, 5]);
        assert_eq!(
            prefix_offsets([u32::MAX as usize - 1, 1], "test limit"),
            vec![0, u32::MAX - 1, u32::MAX]
        );
    }

    #[test]
    #[should_panic(expected = "test limit exceeded: 4294967296 does not fit a u32")]
    fn prefix_offsets_panics_instead_of_wrapping() {
        prefix_offsets([u32::MAX as usize, 1], "test limit");
    }

    #[test]
    fn transpose_lists_the_kept_rows_of_every_column() {
        let csr = sample();
        let adjacency = |workers| {
            let row = |b| csr.entities(b);
            transpose::<_, BlockId>(3, row, |b| b != 1, 5, |e| e.index(), workers)
        };
        let (offsets, block_ids) = adjacency(1);
        assert_eq!(adjacency(3), (offsets.clone(), block_ids.clone()));
        assert_eq!(offsets, vec![0, 1, 2, 3, 4, 5]);
        let ids: Vec<u32> = block_ids.iter().map(|b| b.0).collect();
        assert_eq!(ids, vec![0, 2, 0, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "test limit exceeded: 4294967296 does not fit a u32")]
    fn checked_u32_panics_one_past_the_largest_u32() {
        checked_u32(u32::MAX as usize + 1, "test limit");
    }
}
