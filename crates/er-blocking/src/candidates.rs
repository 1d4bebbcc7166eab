//! Candidate pairs: the distinct set of comparisons contained in a block
//! collection.
//!
//! Redundancy-positive blocks repeat the same pair across many blocks; the
//! candidate-pair set `C` contains each comparable pair exactly once.  This is
//! the unit every weighting scheme, classifier and pruning algorithm operates
//! on.
//!
//! # Layout: 4 bytes per pair
//!
//! The index is a CSR over the smaller endpoint: `offsets[a]..offsets[a + 1]`
//! are the ids of the pairs whose smaller endpoint is `a`, and the index
//! stores only the other endpoint of each pair — one `u32` partner id, 4
//! bytes per pair, in pair-id order.  The smaller endpoint follows from the
//! offsets, so every reader rebuilds it instead of storing it:
//! [`CandidatePairs::iter`], [`CandidatePairs::runs_in`] and
//! [`CandidatePairs::resolve`] walk the offsets forward beside the partners,
//! and [`CandidatePairs::pair`] is a binary search over the offsets (fine
//! for a few lookups, never for a loop over the pairs).
//! [`CandidatePairs::pairs`] keeps the old `(a, b)` slice for callers that
//! need one, as a compatibility view built on its first call and held
//! beside the index from then on (8 more bytes per pair) — the library
//! itself never calls it.
//!
//! # Extraction
//!
//! Extraction is hash-free: instead of pushing every block comparison through
//! a global hash set, each entity gathers the partners from its own blocks
//! into a scratch buffer, sorts and deduplicates it, and appends the run to
//! the index.  Entities are independent, so the pass is embarrassingly
//! parallel, and emitting entities in ascending order makes the pair list
//! bit-identical to the lexicographically sorted order the previous
//! hash-based implementation produced.  See [`crate::reference`] for that
//! retained implementation.
//!
//! # One gather per entity
//!
//! The materialising constructors ([`CandidatePairs::from_stats`],
//! [`CandidatePairs::try_from_stats`]) derive every emitting entity's run
//! exactly once: each entity-range task appends its runs (partner ids, the
//! index's own format) to a task buffer and records the run lengths; the
//! partner-side LCP counts are then read back off those buffers (each worker
//! owns a contiguous range of partner ids and histograms the buffers into
//! its own slice — plain adds, no atomics, no per-worker corpus-sized
//! table); the lengths are prefix-summed, the partner array is allocated
//! zeroed (fresh pages, no fill pass) and the task buffers are copied into
//! it in parallel, each released as soon as it is placed.  The buffers grow
//! by doubling, so at placement the zeroed index (4 bytes per pair) sits
//! beside buffers holding up to twice their contents: the gather is a
//! pipeline run's live-heap peak, ≈10.9 bytes per pair on the memory
//! guard's fixture (`tests/no_alloc_scoring.rs`), and on `cc_dense` its RSS
//! reads 118–128 MiB against 83–86 MiB during training.  The pair total is
//! bounded by the block collection's comparison count before anything is
//! buffered; only when that (free) upper bound is above the `u32` ceiling
//! do the constructors fall back to counting first through
//! [`CandidateStream`], whose collector ([`CandidateStream::collect`])
//! stays for callers that already hold a stream and re-extracts every run
//! a second time.

use std::sync::OnceLock;

use er_core::{EntityId, GroundTruth, PairId};

use crate::stats::BlockStats;
use crate::stream::{CandidateStream, Extraction, RunScratch};

/// The distinct comparisons of a block collection.
#[derive(Debug, Clone)]
pub struct CandidatePairs {
    /// The larger endpoint of every pair, in pair-id order: pairs are sorted
    /// by smaller endpoint, then by partner, so pair ids are deterministic.
    partners: Vec<u32>,
    /// CSR offsets: the pairs whose smaller endpoint is entity `a` occupy
    /// `partners[offsets[a]..offsets[a + 1]]`.  `num_entities + 1` entries.
    offsets: Vec<u32>,
    /// Number of distinct candidates per entity (the LCP feature values).
    entity_candidates: Vec<u32>,
    /// The `(a, b)` view of [`CandidatePairs::pairs`], built on first call.
    tuples: OnceLock<Vec<(EntityId, EntityId)>>,
}

/// Checks that a `u64` pair total fits the materialised index's `u32`
/// offsets.  The streamed engine counts in `u64` and has no such ceiling;
/// only materialising collectors call this.
fn ensure_materialisable(total: u64) -> er_core::Result<()> {
    let limit = u64::from(u32::MAX);
    if total > limit {
        return Err(er_core::Error::CapacityExceeded {
            what: "materialised candidate pair index".into(),
            requested: total,
            limit,
        });
    }
    Ok(())
}

/// One entity-range task's gathered runs: the partner ids of its entities
/// back to back, with each run's length.
struct GatheredRuns {
    lens: Vec<u32>,
    partners: Vec<u32>,
}

/// Splits `out` into consecutive slices of the tasks' lengths and hands
/// each task its slice, on up to `threads` workers with one `state` each.
/// The slices are disjoint, so the tasks write in parallel without sharing
/// anything.
fn fill_slices_parallel<T: Send, S>(
    out: &mut [u32],
    tasks: Vec<(usize, T)>,
    threads: usize,
    state: impl Fn() -> S + Sync,
    fill: impl Fn(T, &mut [u32], &mut S) + Sync,
) {
    let mut slots: Vec<Option<(&mut [u32], T)>> = Vec::with_capacity(tasks.len());
    let mut rest = out;
    for (len, task) in tasks {
        let (head, tail) = rest.split_at_mut(len);
        slots.push(Some((head, task)));
        rest = tail;
    }
    let num_slots = slots.len();
    let slots = std::sync::Mutex::new(slots);
    er_core::for_each_task_with_state(num_slots, threads, state, |index, state| {
        let (slice, task) = slots.lock().expect("placement slots poisoned")[index]
            .take()
            .expect("task placed twice");
        fill(task, slice, state);
    });
}

impl CandidatePairs {
    /// Extracts the distinct candidate pairs from the block statistics, with
    /// up to `threads` workers.  [`BlockStats`] carries both CSR directions
    /// plus the per-block first-source counts, so no key string is ever
    /// touched.  The pairs, their order and the per-entity counts are the
    /// same for any thread count.
    ///
    /// # Panics
    ///
    /// If the statistics produce more than `u32::MAX` pairs — production
    /// callers should prefer [`CandidatePairs::try_from_stats`].
    pub fn from_stats(stats: &BlockStats, threads: usize) -> Self {
        Self::try_from_stats(stats, threads).expect("candidate set above the u32 pair-index limit")
    }

    /// Fallible variant of [`CandidatePairs::from_stats`]: returns
    /// [`er_core::Error::CapacityExceeded`] instead of panicking when the
    /// pair total exceeds the materialised index's `u32` ceiling.
    pub fn try_from_stats(stats: &BlockStats, threads: usize) -> er_core::Result<Self> {
        Self::materialise(
            Extraction::from_stats(stats),
            stats.total_comparisons(),
            threads,
        )
    }

    /// The shared body of the materialising constructors.
    /// `comparisons_bound` is the block collection's comparison count — every
    /// distinct pair is one of those comparisons, so the single-gather path
    /// below never buffers more than `u32::MAX` pairs; past the ceiling the
    /// exact total decides, counted first as the stream does.
    fn materialise(
        extraction: Extraction<'_>,
        comparisons_bound: u64,
        threads: usize,
    ) -> er_core::Result<Self> {
        let threads = threads.max(1);
        if ensure_materialisable(comparisons_bound).is_err() {
            let stream = CandidateStream::build(extraction, threads);
            return Self::try_from_stream(&stream, threads);
        }
        Self::gather_once(&extraction, threads)
    }

    /// Assembles an index from its three arrays.
    fn from_parts(partners: Vec<u32>, offsets: Vec<u32>, entity_candidates: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.len(), entity_candidates.len() + 1);
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(partners.len()));
        CandidatePairs {
            partners,
            offsets,
            entity_candidates,
            tuples: OnceLock::new(),
        }
    }

    /// Derives every emitting entity's run once and assembles the index from
    /// the per-task buffers (see the module docs).
    fn gather_once(extraction: &Extraction<'_>, threads: usize) -> er_core::Result<Self> {
        let num_entities = extraction.num_entities;
        let emitting = extraction.emitting_entities();

        let num_tasks = Extraction::derivation_tasks(threads);
        let gathered = er_core::map_ranges_parallel(emitting, threads, num_tasks, |range| {
            let mut runs = GatheredRuns {
                lens: Vec::with_capacity(range.len()),
                partners: Vec::new(),
            };
            extraction.derive_range(range, |run| {
                runs.lens.push(run.len() as u32);
                runs.partners.extend_from_slice(run);
            });
            runs
        });

        let total: u64 = gathered.iter().map(|g| g.partners.len() as u64).sum();
        ensure_materialisable(total)?;

        // Partner-side LCP counts: one contiguous range of partner ids per
        // worker, each histogramming every task buffer into its own slice.
        // A worker reads all the buffers but writes only counters it owns,
        // so the table is exact at any thread count without a shared write.
        let partner_counts =
            er_core::map_ranges_parallel(num_entities, threads, threads, |range| {
                let lo = range.start as u32;
                let mut counts = vec![0u32; range.len()];
                for &p in gathered.iter().flat_map(|g| &g.partners) {
                    // Ids below `lo` wrap past the end of the slice.
                    if let Some(count) = counts.get_mut(p.wrapping_sub(lo) as usize) {
                        *count += 1;
                    }
                }
                counts
            });
        let mut entity_candidates: Vec<u32> = partner_counts.into_iter().flatten().collect();
        debug_assert_eq!(entity_candidates.len(), num_entities);

        let mut offsets: Vec<u32> = Vec::with_capacity(num_entities + 1);
        offsets.push(0);
        for (a, &len) in gathered.iter().flat_map(|g| &g.lens).enumerate() {
            offsets.push(offsets[a] + len);
            entity_candidates[a] += len;
        }
        offsets.resize(num_entities + 1, total as u32);

        // Placement: a zeroed allocation (no fill pass over the pages) and
        // one disjoint slice of it per task, copied in parallel; a task's
        // buffers are dropped as soon as they are placed.
        let mut partners = vec![0u32; total as usize];
        let tasks = gathered
            .into_iter()
            .map(|runs| (runs.partners.len(), runs.partners))
            .collect();
        fill_slices_parallel(
            &mut partners,
            tasks,
            threads,
            || (),
            |buffer, slice, ()| slice.copy_from_slice(&buffer),
        );

        Ok(Self::from_parts(partners, offsets, entity_candidates))
    }

    /// Materialises a [`CandidateStream`]: the stream's exact `u64` pair
    /// count sizes the index up front, then every chunk is re-extracted
    /// straight into its pre-split slice of the partner array (no
    /// intermediate per-worker buffers).  The per-entity offsets and LCP
    /// counts are the stream's counting-pass aggregates, so the result is
    /// bit-identical to concatenating the stream's chunks at any thread
    /// count.
    pub(crate) fn try_from_stream(
        stream: &CandidateStream<'_>,
        threads: usize,
    ) -> er_core::Result<Self> {
        ensure_materialisable(stream.total_pairs())?;
        let total = stream.total_pairs() as usize;
        let num_entities = stream.num_entities();
        let threads = threads.max(1);

        let mut offsets: Vec<u32> = Vec::with_capacity(num_entities + 1);
        offsets.extend(stream.entity_offsets().iter().map(|&o| o as u32));
        offsets.resize(num_entities + 1, *offsets.last().unwrap_or(&0));
        let entity_candidates = stream.lcp_table().to_vec();

        let mut partners = vec![0u32; total];
        // One chunk per task; ~8 tasks per worker keep the queue balanced
        // when candidate counts are skewed across entities.  Chunk boundaries
        // may split an entity's run — emission order is positional, so the
        // result is identical for any chunking.
        let num_tasks = if threads <= 1 { 1 } else { threads * 8 };
        let chunks = stream.chunks(total.div_ceil(num_tasks).max(1));
        let tasks = chunks
            .into_iter()
            .map(|chunk| (chunk.len(), chunk))
            .collect();
        fill_slices_parallel(
            &mut partners,
            tasks,
            threads,
            RunScratch::default,
            |chunk, slice, scratch| stream.extract_chunk_into(chunk, scratch, slice),
        );

        Ok(Self::from_parts(partners, offsets, entity_candidates))
    }

    /// Builds a candidate set directly from a list of pairs (used in tests and
    /// when re-materialising a pruned collection).  Hash-free: normalises,
    /// sorts and deduplicates the list.
    pub fn from_pairs(
        num_entities: usize,
        pairs: impl IntoIterator<Item = (EntityId, EntityId)>,
    ) -> Self {
        let mut list: Vec<(EntityId, EntityId)> = pairs
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        list.sort_unstable();
        list.dedup();

        let mut entity_candidates = vec![0u32; num_entities];
        let mut offsets = vec![0u32; num_entities + 1];
        for &(a, b) in &list {
            offsets[a.index() + 1] += 1;
            entity_candidates[a.index()] += 1;
            entity_candidates[b.index()] += 1;
        }
        for i in 0..num_entities {
            offsets[i + 1] += offsets[i];
        }
        let partners = list.iter().map(|&(_, b)| b.0).collect();
        Self::from_parts(partners, offsets, entity_candidates)
    }

    /// Number of distinct candidate pairs, |C|.
    pub fn len(&self) -> usize {
        self.partners.len()
    }

    /// True if no candidate pairs exist.
    pub fn is_empty(&self) -> bool {
        self.partners.is_empty()
    }

    /// The smaller endpoint of pair `id < len()`: the last entity whose run
    /// starts at or before `id` (empty runs share their successor's start).
    fn entity_of(&self, id: usize) -> usize {
        self.offsets.partition_point(|&o| o as usize <= id) - 1
    }

    /// Returns the pair with the given id.  A binary search over the
    /// offsets: to read many pairs, walk them with [`CandidatePairs::iter`],
    /// [`CandidatePairs::runs_in`] or [`CandidatePairs::resolve`].
    ///
    /// # Panics
    ///
    /// If `id` is not below [`CandidatePairs::len`].
    pub fn pair(&self, id: PairId) -> (EntityId, EntityId) {
        let partner = self.partners[id.index()];
        (
            EntityId(self.entity_of(id.index()) as u32),
            EntityId(partner),
        )
    }

    /// Iterates over all pairs together with their pair ids.
    pub fn iter(&self) -> impl Iterator<Item = (PairId, EntityId, EntityId)> + '_ {
        self.runs_in(0..self.len())
            .flat_map(|(a, first, partners)| {
                partners
                    .iter()
                    .enumerate()
                    .map(move |(offset, &b)| (PairId::from(first + offset), a, EntityId(b)))
            })
    }

    /// The runs that meet the pair-id `range`, in order: for every entity
    /// with a pair in the range, the entity (the smaller endpoint), the id of
    /// its first pair in the range and the partners of its pairs in the
    /// range.  One search for the first run, then a forward walk.
    ///
    /// # Panics
    ///
    /// If `range` reaches past [`CandidatePairs::len`].
    pub fn runs_in(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (EntityId, usize, &[u32])> + '_ {
        assert!(
            range.end <= self.len(),
            "pair range {range:?} beyond {} pairs",
            self.len()
        );
        let std::ops::Range { mut start, end } = range;
        let mut entity = if start < end {
            self.entity_of(start)
        } else {
            0
        };
        std::iter::from_fn(move || {
            while start < end {
                let a = entity;
                let run_end = (self.offsets[a + 1] as usize).min(end);
                entity += 1;
                if run_end > start {
                    let first = std::mem::replace(&mut start, run_end);
                    return Some((EntityId(a as u32), first, &self.partners[first..run_end]));
                }
            }
            None
        })
    }

    /// The pairs of the given ids, in the order given.  Ascending ids (what
    /// every pruning algorithm returns) are resolved in one forward walk over
    /// the offsets; an id below its predecessor costs one search.
    pub fn resolve(&self, ids: &[PairId]) -> Vec<(EntityId, EntityId)> {
        let mut entity = 0usize;
        ids.iter()
            .map(|&id| {
                let id = id.index();
                let partner = self.partners[id];
                if (self.offsets[entity] as usize) > id {
                    entity = self.entity_of(id);
                }
                while self.offsets[entity + 1] as usize <= id {
                    entity += 1;
                }
                (EntityId(entity as u32), EntityId(partner))
            })
            .collect()
    }

    /// All pairs as `(smaller, larger)` tuples, in pair-id order — a
    /// compatibility view for callers that need a slice.  The index does not
    /// store tuples: the first call builds the view (8 bytes per pair, on
    /// top of the index's 4) and keeps it for the index's lifetime.  Walk
    /// the pairs with [`CandidatePairs::iter`] or
    /// [`CandidatePairs::runs_in`] instead wherever a slice is not required.
    pub fn pairs(&self) -> &[(EntityId, EntityId)] {
        self.tuples.get_or_init(|| {
            let mut tuples = Vec::with_capacity(self.len());
            for (a, run) in self.offsets.windows(2).enumerate() {
                let a = EntityId(a as u32);
                let partners = &self.partners[run[0] as usize..run[1] as usize];
                tuples.extend(partners.iter().map(|&b| (a, EntityId(b))));
            }
            tuples
        })
    }

    /// The pair-id range whose pairs have `entity` as their smaller endpoint
    /// (a CSR row of the pair index).
    pub fn pair_range(&self, entity: EntityId) -> std::ops::Range<usize> {
        self.offsets[entity.index()] as usize..self.offsets[entity.index() + 1] as usize
    }

    /// The larger endpoints of the pairs whose smaller endpoint is `entity`,
    /// ascending — its row of the index, the pair ids of
    /// [`CandidatePairs::pair_range`].
    pub fn partners_of(&self, entity: EntityId) -> &[u32] {
        &self.partners[self.pair_range(entity)]
    }

    /// Number of entities the candidate set was built over (the size of the
    /// flattened id space, not only the entities that appear in some pair).
    pub fn num_entities(&self) -> usize {
        self.entity_candidates.len()
    }

    /// Number of distinct candidates of one entity — the paper's LCP feature.
    pub fn candidates_of(&self, entity: EntityId) -> u32 {
        self.entity_candidates[entity.index()]
    }

    /// The CSR offsets of the pair index (`num_entities + 1` entries).
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The partner array of the pair index, in pair-id order.
    pub(crate) fn partners(&self) -> &[u32] {
        &self.partners
    }

    /// The per-entity candidate counts.
    pub fn entity_candidate_counts(&self) -> &[u32] {
        &self.entity_candidates
    }

    /// Bytes held by the materialised pair index (partner array + CSR
    /// offsets + per-entity counts, plus the [`CandidatePairs::pairs`] view
    /// once something built it) — the allocation the streamed path avoids,
    /// tracked per size by the scalability bench.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        let view = self.tuples.get().map_or(0, |tuples| {
            tuples.capacity() * size_of::<(EntityId, EntityId)>()
        });
        self.partners.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.entity_candidates.capacity() * size_of::<u32>()
            + view
    }

    /// The ids of the candidate pairs that are true duplicates, ascending.
    ///
    /// Each ground-truth pair `(a, b)` (normalised, `a <= b`) is looked up
    /// in `a`'s row of the pair index — a binary search for `b` in a run of
    /// a few hundred pairs at most — instead of probing the truth once per
    /// candidate.  The truth is sorted and so is the pair list, so the ids
    /// come out ascending.
    pub fn positive_pair_indices(&self, truth: &GroundTruth) -> Vec<usize> {
        truth
            .pairs()
            .iter()
            .filter(|&&(a, _)| a.index() < self.num_entities())
            .filter_map(|&(a, b)| {
                let first = self.offsets[a.index()] as usize;
                self.partners_of(a)
                    .binary_search(&b.0)
                    .ok()
                    .map(|offset| first + offset)
            })
            .collect()
    }

    /// Number of candidate pairs that are true duplicates (positive pairs).
    pub fn count_positives(&self, truth: &GroundTruth) -> usize {
        self.positive_pair_indices(truth).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_candidate_pairs;
    use crate::CsrBlockCollection;
    use er_core::DatasetKind;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn clean_clean_collection() -> CsrBlockCollection {
        // split = 2: entities 0,1 from E1; 2,3 from E2.
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

    fn dirty_collection(num_entities: usize, blocks: &[&[u32]]) -> CsrBlockCollection {
        CsrBlockCollection::from_blocks(
            "d",
            DatasetKind::Dirty,
            num_entities,
            num_entities,
            blocks.iter().map(|b| ("k", ids(b))),
        )
    }

    /// The candidate pairs of a collection, extracted on one thread.
    fn extract(blocks: &CsrBlockCollection) -> CandidatePairs {
        CandidatePairs::from_stats(&BlockStats::from_csr(blocks), 1)
    }

    #[test]
    fn distinct_pairs_deduplicate_across_blocks() {
        let bc = clean_clean_collection();
        let cands = extract(&bc);
        // Block b yields 0-2, 0-3, 1-2, 1-3; blocks a and c repeat 0-2 and 1-3.
        assert_eq!(cands.len(), 4);
        assert!(cands.pairs().contains(&(EntityId(0), EntityId(3))));
    }

    #[test]
    fn clean_clean_never_pairs_same_source() {
        let bc = clean_clean_collection();
        let cands = extract(&bc);
        for &(a, b) in cands.pairs() {
            assert!(bc.is_comparable(a, b), "pair ({a}, {b}) is same-source");
        }
    }

    #[test]
    fn entity_candidate_counts_match_adjacency() {
        let bc = clean_clean_collection();
        let cands = extract(&bc);
        // Every E1 entity is a candidate of both E2 entities and vice versa.
        for e in 0..4u32 {
            assert_eq!(cands.candidates_of(EntityId(e)), 2, "entity {e}");
        }
    }

    #[test]
    fn dirty_pairs_are_triangular() {
        let bc = dirty_collection(3, &[&[0, 1, 2]]);
        let cands = extract(&bc);
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn count_positives_uses_ground_truth() {
        let bc = clean_clean_collection();
        let cands = extract(&bc);
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        assert_eq!(cands.count_positives(&gt), 2);
    }

    #[test]
    fn positive_pair_indices_equal_a_scan_of_the_pair_list() {
        let bc = dirty_collection(8, &[&[0, 1, 2, 3], &[2, 3, 4, 5], &[5, 6, 7]]);
        let cands = extract(&bc);
        let scan = |truth: &GroundTruth| -> Vec<usize> {
            (0..cands.len())
                .filter(|&i| {
                    let (a, b) = cands.pair(PairId::from(i));
                    truth.is_match(a, b)
                })
                .collect()
        };
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        let truths = [
            GroundTruth::default(),
            // Reversed order, a non-candidate, a self pair and an entity
            // beyond the candidate set's id space.
            GroundTruth::from_pairs(vec![
                pair(3, 0),
                pair(2, 5),
                pair(0, 7),
                pair(4, 4),
                pair(6, 7),
                pair(7, 20),
                pair(30, 31),
            ]),
            GroundTruth::from_pairs(cands.pairs().iter().copied()),
        ];
        for truth in &truths {
            let positives = cands.positive_pair_indices(truth);
            assert_eq!(positives, scan(truth));
            assert_eq!(cands.count_positives(truth), positives.len());
        }
    }

    #[test]
    fn from_pairs_normalizes_and_dedups() {
        let cands = CandidatePairs::from_pairs(
            5,
            vec![
                (EntityId(3), EntityId(1)),
                (EntityId(1), EntityId(3)),
                (EntityId(2), EntityId(2)),
                (EntityId(0), EntityId(4)),
            ],
        );
        assert_eq!(cands.len(), 2);
        assert_eq!(cands.candidates_of(EntityId(1)), 1);
        assert_eq!(cands.candidates_of(EntityId(2)), 0);
        assert_eq!(cands.partners_of(EntityId(1)), &[3]);
        assert_eq!(cands.pair_range(EntityId(0)), 0..1);
    }

    #[test]
    fn pair_ids_are_stable_and_sorted() {
        let bc = clean_clean_collection();
        let a = extract(&bc);
        let b = extract(&bc);
        assert_eq!(a.pairs(), b.pairs());
        let mut sorted = a.pairs().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, a.pairs());
        assert_eq!(a.pair(PairId(0)), a.pairs()[0]);
    }

    #[test]
    fn matches_naive_reference_bit_for_bit() {
        for bc in [
            clean_clean_collection(),
            dirty_collection(6, &[&[0, 1, 2, 5], &[1, 2, 3], &[0, 4, 5]]),
        ] {
            let (naive_pairs, naive_counts) = naive_candidate_pairs(&bc);
            let cands = extract(&bc);
            assert_eq!(cands.pairs(), naive_pairs.as_slice());
            assert_eq!(cands.entity_candidate_counts(), naive_counts.as_slice());
        }
    }

    #[test]
    fn parallel_extraction_is_deterministic() {
        let stats = BlockStats::from_csr(&clean_clean_collection());
        let sequential = CandidatePairs::from_stats(&stats, 1);
        for threads in [2, 4, 7] {
            let parallel = CandidatePairs::from_stats(&stats, threads);
            assert_eq!(parallel.pairs(), sequential.pairs(), "{threads} threads");
            assert_eq!(
                parallel.entity_candidate_counts(),
                sequential.entity_candidate_counts()
            );
        }
    }

    #[test]
    fn stats_only_extraction_matches_block_backed_extraction() {
        for bc in [
            clean_clean_collection(),
            dirty_collection(5, &[&[0, 1, 4], &[1, 2, 3]]),
        ] {
            let stats = BlockStats::from_csr(&bc);
            let (block_pairs, block_counts) = naive_candidate_pairs(&bc);
            for threads in [1, 3] {
                let from_stats = CandidatePairs::from_stats(&stats, threads);
                assert_eq!(from_stats.pairs(), block_pairs.as_slice());
                assert_eq!(
                    from_stats.entity_candidate_counts(),
                    block_counts.as_slice()
                );
            }
        }
    }

    #[test]
    fn materialisation_capacity_check_rejects_only_past_the_u32_boundary() {
        assert!(ensure_materialisable(0).is_ok());
        assert!(ensure_materialisable(u64::from(u32::MAX)).is_ok());
        let err = ensure_materialisable(u64::from(u32::MAX) + 1).unwrap_err();
        match err {
            er_core::Error::CapacityExceeded {
                requested, limit, ..
            } => {
                assert_eq!(requested, u64::from(u32::MAX) + 1);
                assert_eq!(limit, u64::from(u32::MAX));
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
    }

    /// A comparison count above the ceiling cannot prove the pair total
    /// fits, so the constructors count first (the stream's path) and let
    /// the exact total decide; below it they gather once.  Same index
    /// either way.
    #[test]
    fn constructors_count_first_when_the_comparison_bound_is_above_the_ceiling() {
        let bc = clean_clean_collection();
        let stats = BlockStats::from_csr(&bc);
        let gathered = CandidatePairs::try_from_stats(&stats, 2).unwrap();
        for bound in [
            stats.total_comparisons(),
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX,
        ] {
            let built = CandidatePairs::materialise(Extraction::from_stats(&stats), bound, 2)
                .expect("4 pairs fit whatever the bound says");
            assert_eq!(built.pairs(), gathered.pairs(), "bound {bound}");
            assert_eq!(built.offsets, gathered.offsets, "bound {bound}");
            assert_eq!(
                built.entity_candidate_counts(),
                gathered.entity_candidate_counts(),
                "bound {bound}"
            );
        }
    }

    #[test]
    fn try_from_stats_collects_the_stream() {
        let bc = clean_clean_collection();
        let stats = BlockStats::from_csr(&bc);
        let direct = CandidatePairs::try_from_stats(&stats, 2).unwrap();
        let collected = CandidateStream::from_stats(&stats, 2).collect(2).unwrap();
        assert_eq!(collected.pairs(), direct.pairs());
        assert_eq!(
            collected.entity_candidate_counts(),
            direct.entity_candidate_counts()
        );
        assert_eq!(
            collected.pair_range(EntityId(0)),
            direct.pair_range(EntityId(0))
        );
    }

    #[test]
    fn csr_offsets_partition_the_pair_list() {
        let bc = clean_clean_collection();
        let cands = extract(&bc);
        let mut walked = Vec::new();
        for e in 0..bc.num_entities {
            let a = EntityId(e as u32);
            for &b in cands.partners_of(a) {
                walked.push((a, EntityId(b)));
            }
        }
        assert_eq!(walked.as_slice(), cands.pairs());
    }

    /// A pseudo-random collection: `num_blocks` blocks of 2–9 entities
    /// drawn from the first 90 % of the ids (the last entities sit in no
    /// block), from a fixed xorshift seed.
    fn random_collection(kind: DatasetKind, num_entities: u32, seed: u64) -> CsrBlockCollection {
        let mut state = seed | 1;
        let mut next = move |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        let reach = num_entities * 9 / 10;
        let blocks: Vec<(String, Vec<EntityId>)> = (0..num_entities / 2)
            .map(|key| {
                let size = 2 + next(8);
                let mut members: Vec<EntityId> = (0..size).map(|_| EntityId(next(reach))).collect();
                members.sort_unstable();
                members.dedup();
                (format!("k{key}"), members)
            })
            .collect();
        let split = (num_entities / 3) as usize;
        CsrBlockCollection::from_blocks("r", kind, split, num_entities as usize, blocks)
    }

    /// The pair list the tuple index held: every emitting entity's derived
    /// run expanded to `(entity, partner)` tuples, entities in order.
    fn tuple_expansion(stats: &BlockStats) -> Vec<(EntityId, EntityId)> {
        let extraction = Extraction::from_stats(stats);
        let mut tuples = Vec::new();
        let mut entity = 0u32;
        extraction.derive_range(0..extraction.emitting_entities(), |run| {
            tuples.extend(run.iter().map(|&p| (EntityId(entity), EntityId(p))));
            entity += 1;
        });
        tuples
    }

    /// Checks every reader of the partner-only index against the tuple list
    /// it stands for.
    fn assert_index_reads(
        cands: &CandidatePairs,
        expected: &[(EntityId, EntityId)],
        context: &str,
    ) {
        assert_eq!(cands.len(), expected.len(), "{context}");
        let walked: Vec<_> = cands.iter().collect();
        let numbered: Vec<_> = expected
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (PairId::from(i), a, b))
            .collect();
        assert_eq!(walked, numbered, "{context}: iter()");

        let mut lcp = vec![0u32; cands.num_entities()];
        let mut next_id = 0usize;
        for e in 0..cands.num_entities() {
            let entity = EntityId(e as u32);
            let run = cands.pair_range(entity);
            let run_len = expected[next_id..]
                .iter()
                .take_while(|&&(a, _)| a == entity)
                .count();
            assert_eq!(
                run,
                next_id..next_id + run_len,
                "{context}: pair_range({e})"
            );
            next_id = run.end;
            if !run.is_empty() {
                for id in [run.start, run.end - 1] {
                    assert_eq!(
                        cands.pair(PairId::from(id)),
                        expected[id],
                        "{context}: pair({id})"
                    );
                }
            }
            let partners: Vec<u32> = expected[run].iter().map(|&(_, b)| b.0).collect();
            assert_eq!(cands.partners_of(entity), partners.as_slice(), "{context}");
        }
        assert_eq!(next_id, expected.len(), "{context}");
        for &(a, b) in expected {
            lcp[a.index()] += 1;
            lcp[b.index()] += 1;
        }
        assert_eq!(
            cands.entity_candidate_counts(),
            lcp.as_slice(),
            "{context}: LCP"
        );

        // Every third candidate plus a non-candidate per entity.
        let truth =
            GroundTruth::from_pairs(expected.iter().copied().step_by(3).chain(
                (0..cands.num_entities() as u32 - 1).map(|e| (EntityId(e), EntityId(e + 1))),
            ));
        let scanned: Vec<usize> = (0..expected.len())
            .filter(|&i| truth.is_match(expected[i].0, expected[i].1))
            .collect();
        assert_eq!(
            cands.positive_pair_indices(&truth),
            scanned,
            "{context}: positives"
        );

        // Sub-ranges cut inside runs, ascending and out-of-order resolution.
        let n = expected.len();
        for range in [
            0..n,
            n / 3..n / 3 + n / 5,
            n / 2..n / 2,
            n.saturating_sub(1)..n,
        ] {
            let mut rebuilt = Vec::new();
            for (a, first, partners) in cands.runs_in(range.clone()) {
                assert_eq!(first, range.start + rebuilt.len(), "{context}");
                rebuilt.extend(partners.iter().map(|&b| (a, EntityId(b))));
            }
            assert_eq!(
                rebuilt,
                &expected[range.clone()],
                "{context}: runs_in({range:?})"
            );
        }
        let ascending: Vec<PairId> = (0..n).step_by(7).map(PairId::from).collect();
        let shuffled: Vec<PairId> = ascending.iter().rev().copied().collect();
        for ids in [ascending, shuffled] {
            let resolved: Vec<_> = ids.iter().map(|id| expected[id.index()]).collect();
            assert_eq!(cands.resolve(&ids), resolved, "{context}: resolve");
        }

        // The tuple view is built on the first call only, and counted.
        let index_bytes = cands.index_bytes();
        assert_eq!(cands.pairs(), expected, "{context}: pairs()");
        assert!(std::ptr::eq(cands.pairs(), cands.pairs()), "{context}");
        assert!(cands.index_bytes() >= index_bytes + 8 * n, "{context}");
    }

    #[test]
    fn partner_index_reads_back_the_tuple_list_at_every_thread_count() {
        for kind in [DatasetKind::Dirty, DatasetKind::CleanClean] {
            for seed in [3u64, 17, 99] {
                let bc = random_collection(kind, 240, seed);
                let stats = BlockStats::from_csr(&bc);
                let expected = tuple_expansion(&stats);
                let (naive, _) = naive_candidate_pairs(&bc);
                assert_eq!(expected, naive, "{kind:?} seed {seed}");
                assert!(expected.len() > 100, "{kind:?} seed {seed}");
                for threads in [1, 2, 3, 8] {
                    let context = format!("{kind:?} seed {seed} {threads} threads");
                    let gathered = CandidatePairs::from_stats(&stats, threads);
                    assert_index_reads(&gathered, &expected, &format!("{context} gather"));
                    let counted = CandidatePairs::materialise(
                        Extraction::from_stats(&stats),
                        u64::MAX,
                        threads,
                    )
                    .unwrap();
                    assert_eq!(counted.offsets, gathered.offsets, "{context}");
                    assert_index_reads(&counted, &expected, &format!("{context} stream"));
                }

                // A pruned subset: every other pair, plus for Clean-Clean
                // pairs of two second-source entities (runs the statistics
                // give no entity).
                let mut subset: Vec<_> = expected.iter().copied().step_by(2).collect();
                if kind == DatasetKind::CleanClean {
                    subset.extend(
                        [(200, 230), (200, 231), (215, 239)]
                            .map(|(a, b)| (EntityId(a), EntityId(b))),
                    );
                }
                let pruned = CandidatePairs::from_pairs(bc.num_entities, subset.iter().copied());
                subset.sort_unstable();
                assert_index_reads(&pruned, &subset, &format!("{kind:?} seed {seed} subset"));
            }
        }
    }
}
