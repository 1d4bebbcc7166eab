//! Block Filtering: remove every entity from the largest blocks it appears in.
//!
//! Block Filtering keeps each entity only in its `ratio` (by default 80%)
//! smallest blocks, measured by block size.  The largest blocks contribute
//! most of the superfluous comparisons while the smallest blocks carry the
//! most distinctive co-occurrence evidence, so trimming the top 20% per entity
//! removes a large share of the candidate pairs at a negligible recall cost.
//!
//! # One entity-side pass
//!
//! Filtering is a per-entity decision, so it runs on the entity side, and
//! the batch workflow's tail after Token Blocking — purge, filter — runs
//! over one entity → block adjacency, built once, which then serves as the
//! statistics' entity side.  `filter_entity_side` is that core:
//!
//! 1. the adjacency of the raw collection is built by one transposition,
//!    and Block Purging is its block-size predicate;
//! 2. each entity's slice is filtered in place, in parallel over entity
//!    ranges: a small heap finds its `d − keep` largest `(size, block)`
//!    entries — for most entities one or two — and they move behind the
//!    kept ones; one shared table counts, per block, the entities that
//!    dropped it;
//! 3. a block's kept size is its raw size minus those drops, so the blocks
//!    that still yield a comparison are renumbered without another pass
//!    over the postings, and each entity's slice is compacted to them,
//!    again per range;
//! 4. the block side is the scatter half of one transposition: the kept
//!    sizes already give every block's offset.
//!
//! Only step 1 keeps per-worker tables (its degree counts, one `u32` per
//! entity and worker); every other table of the tail is sized by the
//! collection alone.  [`crate::clean_blocks_csr`] returns both sides, and
//! [`crate::BlockStats::from_entity_side`] takes them as they are;
//! [`block_filtering_csr`] runs the same core without the purge and keeps
//! the block side only.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_core::{BlockId, EntityId};

use crate::csr::{
    comparisons_from_first, prefix_offsets, scatter, transpose, CsrBlockCollection,
    ENTITY_ARENA_LIMIT,
};
use crate::stats::EntitySide;

/// The ratio of blocks retained per entity in the paper's setup (each entity
/// is removed from the largest 20% of its blocks).
pub const DEFAULT_FILTERING_RATIO: f64 = 0.8;

/// Entities per worker below which the tail's passes stay on the calling
/// thread (see `er_core::workers_for`).
pub(crate) const TAIL_GRAIN: usize = 16_384;

/// Marks a block that did not survive filtering in the renumbering table.
const DROPPED: u32 = u32::MAX;

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
/// string is cloned.  It equals [`crate::reference::block_filtering`] block
/// for block (asserted by the workspace property tests).  The entity-side
/// core is `filter_entity_side`, run here with no size limit on one
/// thread.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn block_filtering_csr(blocks: &CsrBlockCollection, ratio: f64) -> CsrBlockCollection {
    filter_entity_side(blocks, usize::MAX, ratio, 1).0
}

/// Purges and filters `raw` on its entity side (see the module docs) and
/// returns the cleaned collection together with its entity side.
///
/// Blocks larger than `size_limit` are purged; each entity then stays in its
/// `ceil(ratio · |B_i|)` smallest surviving blocks (size, then block
/// index); blocks that no longer yield a comparison are dropped.  Block
/// ids follow `raw`'s order, entity lists stay ascending, and the output
/// is the same for any thread count.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub(crate) fn filter_entity_side(
    raw: &CsrBlockCollection,
    size_limit: usize,
    ratio: f64,
    threads: usize,
) -> (CsrBlockCollection, EntitySide) {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "filtering ratio must be in (0, 1], got {ratio}"
    );
    let num_entities = raw.num_entities;
    let num_blocks = raw.num_blocks();
    let workers = er_core::workers_for(num_entities, threads, TAIL_GRAIN);
    let purged = |b: usize| raw.block_size(b) > size_limit;

    // 1. The adjacency of the blocks that survive purging, in raw ids.
    let (offsets, mut adjacency) = transpose(
        num_blocks,
        |b| raw.entities(b),
        |b| !purged(b),
        num_entities,
        |e| e.index(),
        workers,
    );
    let ranges = balanced_ranges(&offsets, workers);

    // 2. Filter each entity's slice in place (`lens[e]` is what it keeps)
    // and count, per block, the entities that dropped it (high word) and
    // the first-source ones among them (low word).  Most entities drop one
    // or two blocks, so one shared table takes few updates.
    let size = |b: BlockId| raw.block_size(b.index()) as u32;
    let mut lens = vec![0u32; num_entities];
    let drops: Vec<AtomicU64> = (0..num_blocks).map(|_| AtomicU64::new(0)).collect();
    for_each_range(
        &ranges,
        &offsets,
        &mut adjacency,
        &mut lens,
        |range, slice, lens| {
            let mut largest = BinaryHeap::new();
            let base = offsets[range.start];
            for (j, e) in range.enumerate() {
                let start = (offsets[e] - base) as usize;
                let list = &mut slice[start..(offsets[e + 1] - base) as usize];
                let kept = filter_entity(list, ratio, size, &mut largest);
                lens[j] = kept as u32;
                let drop = 1 << 32 | u64::from(e < raw.split);
                for b in &list[kept..] {
                    drops[b.index()].fetch_add(drop, Ordering::Relaxed);
                }
            }
        },
    );

    // 3. Renumber the blocks that still yield a comparison, in raw order.
    let mut renumbered = vec![DROPPED; num_blocks];
    let mut key_ids = Vec::with_capacity(num_blocks);
    let mut first_counts = Vec::with_capacity(num_blocks);
    let mut kept_sizes = Vec::with_capacity(num_blocks);
    for (b, (slot, drops)) in renumbered.iter_mut().zip(drops).enumerate() {
        let drops = drops.into_inner();
        let size = raw.block_size(b) - (drops >> 32) as usize;
        let first = raw.first_counts[b] - drops as u32;
        if !purged(b) && comparisons_from_first(raw.kind, first, size) > 0 {
            *slot = key_ids.len() as u32;
            key_ids.push(raw.key_id(b));
            first_counts.push(first);
            kept_sizes.push(size);
        }
    }
    key_ids.shrink_to_fit();
    first_counts.shrink_to_fit();

    // Each entity keeps its surviving blocks, renumbered, compacted to the
    // front of its range's slice; `lens[e]` becomes its final degree.
    let range_lens = for_each_range(
        &ranges,
        &offsets,
        &mut adjacency,
        &mut lens,
        |range, slice, lens| {
            let base = offsets[range.start];
            let mut end = 0;
            for (j, e) in range.enumerate() {
                let start = (offsets[e] - base) as usize;
                let degree = end;
                for i in start..start + lens[j] as usize {
                    let id = renumbered[slice[i].index()];
                    if id != DROPPED {
                        slice[end] = BlockId(id);
                        end += 1;
                    }
                }
                lens[j] = (end - degree) as u32;
            }
            end
        },
    );
    // Close the gaps between the ranges (each moves towards the front).
    let mut end = 0;
    for (range, len) in ranges.iter().zip(range_lens) {
        let start = offsets[range.start] as usize;
        adjacency.copy_within(start..start + len, end);
        end += len;
    }
    // The entity side lives as long as the statistics: release what
    // purging and filtering freed.
    adjacency.truncate(end);
    adjacency.shrink_to_fit();
    let offsets = prefix_offsets(lens.iter().map(|&len| len as usize), ENTITY_ARENA_LIMIT);

    // 4. The block side, by the scatter half of one transposition: the
    // kept sizes are known, so each block's cursor starts at its offset,
    // and entities are visited in order, so every list comes out ascending.
    let entity_offsets = prefix_offsets(kept_sizes, ENTITY_ARENA_LIMIT);
    let mut entities = vec![EntityId(0); end];
    let mut cursors = entity_offsets[..key_ids.len()].to_vec();
    scatter(
        0..num_entities,
        |e| &adjacency[offsets[e] as usize..offsets[e + 1] as usize],
        |b| b.index(),
        &mut cursors,
        &mut entities,
    );

    let cleaned = CsrBlockCollection::from_raw(
        raw.dataset_name.clone(),
        raw.kind,
        raw.split,
        num_entities,
        Arc::clone(raw.key_store()),
        key_ids,
        entity_offsets,
        entities,
        first_counts,
    );
    let side = EntitySide {
        offsets,
        block_ids: adjacency,
    };
    (cleaned, side)
}

/// Keeps, in place, the `ceil(ratio · d)` smallest `(size, block)` entries
/// of one entity's ascending block list and returns how many that is; the
/// kept entries stay in block order at the front of the list, and the
/// dropped ones follow them.
///
/// Entries are distinct (distinct blocks), so the smallest of the
/// `d − keep` largest entries — collected in the min-heap `largest`, in
/// `O(d log(d − keep))` — is a threshold that keeps exactly `keep` of them.
/// Most entities drop one or two blocks, so the heap stays tiny.
fn filter_entity(
    list: &mut [BlockId],
    ratio: f64,
    size: impl Fn(BlockId) -> u32,
    largest: &mut BinaryHeap<Reverse<(u32, u32)>>,
) -> usize {
    let degree = list.len();
    let keep = filtering_keep_count(degree, ratio);
    let drops = degree - keep;
    if drops == 0 {
        return keep;
    }
    let entry = |b: BlockId| (size(b), b.0);
    largest.clear();
    for &b in list.iter() {
        let candidate = Reverse(entry(b));
        if largest.len() < drops {
            largest.push(candidate);
        } else if let Some(mut smallest) = largest.peek_mut() {
            if candidate < *smallest {
                *smallest = candidate;
            }
        }
    }
    let Reverse(threshold) = largest.peek().copied().expect("drops > 0");
    let mut kept = 0;
    for i in 0..degree {
        if entry(list[i]) < threshold {
            list.swap(kept, i);
            kept += 1;
        }
    }
    debug_assert_eq!(kept, keep);
    keep
}

/// `workers` contiguous row ranges of a CSR with the given offsets, each
/// covering about an equal share of its entries (the entries, not the
/// rows, are the work).
fn balanced_ranges(offsets: &[u32], workers: usize) -> Vec<Range<usize>> {
    let rows = offsets.len() - 1;
    let total = offsets[rows] as usize;
    let mut bounds = vec![0];
    for w in 1..workers {
        let target = total * w / workers;
        let bound = offsets.partition_point(|&o| (o as usize) < target);
        bounds.push(bound.clamp(bounds[w - 1], rows));
    }
    bounds.push(rows);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Runs `f` once per entity range — on its own worker when there is more
/// than one — with the range's slices of the adjacency and of `per_entity`,
/// and returns the results in range order.
fn for_each_range<R: Send>(
    ranges: &[Range<usize>],
    offsets: &[u32],
    adjacency: &mut [BlockId],
    per_entity: &mut [u32],
    f: impl Fn(Range<usize>, &mut [BlockId], &mut [u32]) -> R + Sync,
) -> Vec<R> {
    let postings = ranges
        .iter()
        .map(|r| (offsets[r.end] - offsets[r.start]) as usize);
    let slices = er_core::split_lengths_mut(adjacency, postings);
    let values = er_core::split_lengths_mut(per_entity, ranges.iter().map(|r| r.len()));
    let tasks = ranges.iter().cloned().zip(slices).zip(values).collect();
    er_core::map_tasks_parallel(tasks, ranges.len(), |((range, slice), values)| {
        f(range, slice, values)
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
