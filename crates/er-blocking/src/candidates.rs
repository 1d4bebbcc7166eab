//! Candidate pairs: the distinct set of comparisons contained in a block
//! collection.
//!
//! Redundancy-positive blocks repeat the same pair across many blocks; the
//! candidate-pair set `C` contains each comparable pair exactly once.  This is
//! the unit every weighting scheme, classifier and pruning algorithm operates
//! on.
//!
//! # Extraction
//!
//! Extraction is hash-free: instead of pushing every block comparison through
//! a global hash set, each entity gathers the partners from its own blocks
//! into a scratch buffer, sorts and deduplicates it, and appends the run to a
//! CSR pair index (`offsets[a]..offsets[a + 1]` addresses the pairs whose
//! smaller endpoint is `a`).  Entities are independent, so the pass is
//! embarrassingly parallel, and emitting entities in ascending order makes the
//! pair list bit-identical to the lexicographically sorted order the previous
//! hash-based implementation produced.  See [`crate::reference`] for that
//! retained implementation.
//!
//! # One gather per entity
//!
//! The materialising constructors ([`CandidatePairs::from_stats`],
//! [`CandidatePairs::try_from_stats`]) derive every emitting entity's run
//! exactly once: each entity-range task appends its runs (partner ids only,
//! 4 bytes per pair) to a task buffer and records the run lengths; the
//! partner-side LCP counts are then read back off those buffers (each worker
//! owns a contiguous range of partner ids and histograms the buffers into
//! its own slice — plain adds, no atomics, no per-worker corpus-sized
//! table); the lengths are prefix-summed, the index is allocated once and
//! the task buffers are placed into it in parallel, each released as soon as
//! it is placed.  Transient memory is therefore at most half the index.  The pair total is bounded by the block collection's
//! comparison count before anything is buffered; only when that (free) upper
//! bound is above the `u32` ceiling do the constructors fall back to counting
//! first through [`CandidateStream`], whose collector
//! ([`CandidateStream::collect`]) stays for callers that already hold a
//! stream and re-extracts every run a second time.

use er_core::{EntityId, GroundTruth, PairId};

use crate::stats::BlockStats;
use crate::stream::{CandidateStream, Extraction, RunScratch};

/// The distinct comparisons of a block collection.
#[derive(Debug, Clone)]
pub struct CandidatePairs {
    /// Distinct pairs, each stored with the smaller entity id first and the
    /// list sorted, so pair ids are deterministic.
    pairs: Vec<(EntityId, EntityId)>,
    /// CSR offsets: the pairs whose smaller endpoint is entity `a` occupy
    /// `pairs[offsets[a]..offsets[a + 1]]`.  `num_entities + 1` entries.
    offsets: Vec<u32>,
    /// Number of distinct candidates per entity (the LCP feature values).
    entity_candidates: Vec<u32>,
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

type Pair = (EntityId, EntityId);

/// One entity-range task's gathered runs: the partner ids of entities
/// `first..first + lens.len()` back to back, with each run's length.
struct GatheredRuns {
    first: usize,
    lens: Vec<u32>,
    partners: Vec<u32>,
}

impl GatheredRuns {
    /// Writes the runs as `(entity, partner)` pairs into the task's slice of
    /// the pair list (`partners.len()` long).
    fn place(&self, out: &mut [Pair]) {
        debug_assert_eq!(out.len(), self.partners.len());
        let mut start = 0usize;
        for (i, &len) in self.lens.iter().enumerate() {
            let a = EntityId((self.first + i) as u32);
            let end = start + len as usize;
            for (slot, &p) in out[start..end].iter_mut().zip(&self.partners[start..end]) {
                *slot = (a, EntityId(p));
            }
            start = end;
        }
    }
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

    /// Derives every emitting entity's run once and assembles the index from
    /// the per-task buffers (see the module docs).
    fn gather_once(extraction: &Extraction<'_>, threads: usize) -> er_core::Result<Self> {
        let num_entities = extraction.num_entities;
        let emitting = extraction.emitting_entities();

        let num_tasks = Extraction::derivation_tasks(threads);
        let gathered = er_core::map_ranges_parallel(emitting, threads, num_tasks, |range| {
            let mut runs = GatheredRuns {
                first: range.start,
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

        // Placement: one disjoint slice of the pair list per task, filled in
        // parallel; a task's buffers are dropped as soon as they are placed.
        let mut pairs: Vec<Pair> = vec![(EntityId(0), EntityId(0)); total as usize];
        {
            let mut slots: Vec<Option<(&mut [Pair], GatheredRuns)>> =
                Vec::with_capacity(gathered.len());
            let mut rest: &mut [Pair] = &mut pairs;
            for runs in gathered {
                let (head, tail) = rest.split_at_mut(runs.partners.len());
                slots.push(Some((head, runs)));
                rest = tail;
            }
            let num_slots = slots.len();
            let slots = std::sync::Mutex::new(slots);
            er_core::for_each_task_with_state(
                num_slots,
                threads,
                || (),
                |task, ()| {
                    let (slice, runs) = slots.lock().expect("placement slots poisoned")[task]
                        .take()
                        .expect("task placed twice");
                    runs.place(slice);
                },
            );
        }

        Ok(CandidatePairs {
            pairs,
            offsets,
            entity_candidates,
        })
    }

    /// Materialises a [`CandidateStream`]: the stream's exact `u64` pair
    /// count sizes the index up front, then every chunk is re-extracted
    /// straight into its pre-split slice of the pair list (no intermediate
    /// per-worker buffers).  The per-entity offsets and LCP counts are the
    /// stream's counting-pass aggregates, so the result is bit-identical to
    /// concatenating the stream's chunks at any thread count.
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

        let mut pairs = vec![(EntityId(0), EntityId(0)); total];
        // One chunk per task; ~8 tasks per worker keep the queue balanced
        // when candidate counts are skewed across entities.  Chunk boundaries
        // may split an entity's run — emission order is positional, so the
        // result is identical for any chunking.
        let num_tasks = if threads <= 1 { 1 } else { threads * 8 };
        let chunks = stream.chunks(total.div_ceil(num_tasks).max(1));
        {
            let mut slices: Vec<Option<&mut [(EntityId, EntityId)]>> =
                Vec::with_capacity(chunks.len());
            let mut rest: &mut [(EntityId, EntityId)] = &mut pairs;
            for chunk in &chunks {
                let (head, tail) = rest.split_at_mut(chunk.len());
                slices.push(Some(head));
                rest = tail;
            }
            let slots = std::sync::Mutex::new(slices);
            er_core::for_each_task_with_state(
                chunks.len(),
                threads,
                RunScratch::default,
                |task, scratch| {
                    let slice = slots.lock().unwrap()[task].take().unwrap();
                    stream.extract_chunk_into(chunks[task], scratch, slice);
                },
            );
        }

        Ok(CandidatePairs {
            pairs,
            offsets,
            entity_candidates,
        })
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
        CandidatePairs {
            pairs: list,
            offsets,
            entity_candidates,
        }
    }

    /// Number of distinct candidate pairs, |C|.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no candidate pairs exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Returns the pair with the given id.
    pub fn pair(&self, id: PairId) -> (EntityId, EntityId) {
        self.pairs[id.index()]
    }

    /// Iterates over all pairs together with their pair ids.
    pub fn iter(&self) -> impl Iterator<Item = (PairId, EntityId, EntityId)> + '_ {
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (PairId::from(i), a, b))
    }

    /// Slice of all pairs.
    pub fn pairs(&self) -> &[(EntityId, EntityId)] {
        &self.pairs
    }

    /// The pair-id range whose pairs have `entity` as their smaller endpoint
    /// (a CSR row of the pair index).
    pub fn pair_range(&self, entity: EntityId) -> std::ops::Range<usize> {
        self.offsets[entity.index()] as usize..self.offsets[entity.index() + 1] as usize
    }

    /// The pairs whose smaller endpoint is `entity`, sorted by the larger
    /// endpoint.
    pub fn pairs_of(&self, entity: EntityId) -> &[(EntityId, EntityId)] {
        &self.pairs[self.pair_range(entity)]
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

    /// The per-entity candidate counts.
    pub fn entity_candidate_counts(&self) -> &[u32] {
        &self.entity_candidates
    }

    /// Bytes held by the materialised pair index (pair list + CSR offsets +
    /// per-entity counts) — the allocation the streamed path avoids,
    /// tracked per size by the scalability bench.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pairs.capacity() * size_of::<(EntityId, EntityId)>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.entity_candidates.capacity() * size_of::<u32>()
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
                let range = self.pair_range(a);
                let run = &self.pairs[range.clone()];
                run.binary_search_by(|&(_, partner)| partner.cmp(&b))
                    .ok()
                    .map(|offset| range.start + offset)
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
        assert_eq!(cands.pairs_of(EntityId(1)), &[(EntityId(1), EntityId(3))]);
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
            for &(a, b) in cands.pairs_of(EntityId(e as u32)) {
                assert_eq!(a, EntityId(e as u32));
                walked.push((a, b));
            }
        }
        assert_eq!(walked.as_slice(), cands.pairs());
    }
}
