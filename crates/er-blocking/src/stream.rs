//! Memory-bounded candidate streaming: chunked pair generation.
//!
//! [`crate::CandidatePairs`] materialises the full pair index (`pairs` +
//! `offsets` + `entity_candidates`) before a single pair is consumed — at
//! 10^7 entities that CSR is the dominant per-corpus allocation (~100M
//! pairs).  Nothing in the meta-blocking algorithm requires it: every pair
//! is scored independently given per-entity aggregates, so pair generation
//! can be interleaved with consumption.
//!
//! [`CandidateStream`] is that engine.  It runs in two passes over the
//! entity → block CSR:
//!
//! 1. **Counting pass** (construction): every emitting entity's sorted,
//!    deduplicated partner run is computed once to count it — producing the
//!    exact `u64` pair total, the per-entity run offsets (`u64`, so the
//!    stream has no 2^32 ceiling) and the per-entity distinct-candidate
//!    counts (the LCP feature table, accumulated with relaxed atomic adds —
//!    integer addition commutes, so the counts are exact and deterministic
//!    at any thread count; the stream keeps no run to count from afterwards,
//!    unlike the materialised collector, which histograms its task buffers
//!    and issues no atomic at all).  The runs themselves are *discarded*;
//!    only the `O(num_entities)` aggregate tables are kept.
//! 2. **Chunked emission** ([`CandidateStream::chunks`] +
//!    [`CandidateStream::extract_chunk`]): the global pair-id space is cut
//!    into fixed-size chunks and each chunk's pairs are re-extracted on
//!    demand into a reusable [`ChunkArena`].  A chunk is addressed purely by
//!    its pair-id range, so boundaries may fall *inside* one entity's
//!    partner run — the run is re-derived in scratch and only the in-range
//!    slice is emitted.  Concatenating the chunks in order reproduces the
//!    materialised pair list bit-for-bit (same per-entity sort + dedup, same
//!    entity-ascending partner-sorted order), and chunks are independent, so
//!    they are the parallel work units of every streamed consumer.
//!
//! Peak memory of a streamed consumer is `O(chunk_pairs × workers +
//! aggregates)` instead of `O(total_pairs)`, at the price of deriving every
//! run twice (count, then re-extract).
//!
//! # The materialised index as one backing of the stream
//!
//! A materialised [`crate::CandidatePairs`] is read through a stream too:
//! [`CandidateStream::from_candidates`] takes offsets and LCP table off the
//! index, and a chunk is a copy of its slice of the pair list with its
//! per-entity segments rebuilt from the offsets — no run is derived at all.
//! Chunks, arenas and consumers cannot tell the two kinds of stream apart,
//! so the fused scoring pass of `er-features` has one chunk driver whether
//! the pairs are derived or materialised, and it accepts any index of the
//! corpus, pruned `from_pairs` subsets included.
//!
//! There is one derivation primitive in the crate
//! (`Extraction::neighbors_above`) with two callers: this stream, which
//! never buffers a run, and the materialised collector's single gather
//! (`CandidatePairs::try_from_stats`), which buffers each run once and never
//! re-derives it.  A run is a concatenation of ascending block slices from a
//! narrow id band, so the primitive sorts it with [`er_core::radix::sort_u32`]
//! — a comparison sort on short runs, byte-radix passes over the differing
//! bytes on long ones — with the sort's second buffer living in the caller's
//! `RunScratch` beside the run itself.  [`CandidateStream::collect`]
//! remains for callers that start from a stream.

use std::sync::atomic::{AtomicU32, Ordering};

use er_core::EntityId;

use crate::stats::BlockStats;

/// Default pairs per chunk: large enough that per-chunk overheads (board
/// setup, task dispatch) vanish, small enough that a worker's arena stays a
/// ~1 MiB cache-friendly scratch.
pub const DEFAULT_CHUNK_PAIRS: usize = 1 << 16;

/// Reusable scratch of run derivation: the run being gathered and the
/// second buffer its sort ping-pongs through.  Both keep their capacity
/// across runs, so a worker allocates only when a longer run shows up.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    run: Vec<u32>,
    spare: Vec<u32>,
}

impl RunScratch {
    fn capacity_bytes(&self) -> usize {
        (self.run.capacity() + self.spare.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Everything run derivation reads: the corpus shape and the block
/// statistics, whose two CSR directions (entity → blocks, block → entities)
/// and first-source counts give every run.  Shared by the stream's counting
/// pass and the materialised collector's single gather.
pub(crate) struct Extraction<'a> {
    kind: er_core::DatasetKind,
    split: usize,
    pub(crate) num_entities: usize,
    stats: &'a BlockStats,
}

impl<'a> Extraction<'a> {
    pub(crate) fn from_stats(stats: &'a BlockStats) -> Self {
        Extraction {
            kind: stats.kind(),
            split: stats.split(),
            num_entities: stats.num_entities(),
            stats,
        }
    }

    /// Number of entities that emit runs of their own.  For Clean-Clean ER
    /// the smaller endpoint of every comparable pair is an E1 entity, so
    /// entities >= split produce none.
    pub(crate) fn emitting_entities(&self) -> usize {
        match self.kind {
            er_core::DatasetKind::CleanClean => self.split.min(self.num_entities),
            er_core::DatasetKind::Dirty => self.num_entities,
        }
    }

    /// Collects into `scratch` the sorted, deduplicated comparable partners
    /// of entity `a` with a larger id than `a` — the one extraction
    /// primitive both the stream and the materialised collector run on —
    /// and returns them.
    #[inline]
    fn neighbors_above<'s>(&self, a: usize, scratch: &'s mut RunScratch) -> &'s [u32] {
        let RunScratch { run, spare } = scratch;
        run.clear();
        let blocks = self.stats.blocks_of(EntityId(a as u32));
        match self.kind {
            er_core::DatasetKind::CleanClean => {
                debug_assert!(a < self.split);
                for &bid in blocks {
                    let entities = self.stats.entities_of(bid);
                    let split_point = self.stats.first_source_count(bid) as usize;
                    // E2 ids all exceed every E1 id, so the whole outer slice
                    // qualifies as "larger comparable partner".
                    run.extend(entities[split_point..].iter().map(|e| e.0));
                }
            }
            er_core::DatasetKind::Dirty => {
                for &bid in blocks {
                    let entities = self.stats.entities_of(bid);
                    let start = entities.partition_point(|e| e.index() <= a);
                    run.extend(entities[start..].iter().map(|e| e.0));
                }
            }
        }
        er_core::radix::sort_u32(run, spare);
        run.dedup();
        run
    }

    /// Derives the runs of the entities in `range`, in order, handing each
    /// to `visit`.  One registry update per call.
    pub(crate) fn derive_range(
        &self,
        range: std::ops::Range<usize>,
        mut visit: impl FnMut(&[u32]),
    ) {
        let derived = range.len() as u64;
        let mut scratch = RunScratch::default();
        for a in range {
            visit(self.neighbors_above(a, &mut scratch));
        }
        crate::obs::obs().runs_derived.add(derived);
    }

    /// Entity-range tasks per derivation pass: ~8 per worker keep the queue
    /// balanced when candidate counts are skewed across entities.
    pub(crate) fn derivation_tasks(threads: usize) -> usize {
        if threads <= 1 {
            1
        } else {
            threads * 8
        }
    }
}

/// One chunk of the global pair-id space: pairs `pair_lo..pair_hi` in
/// emission order, overlapping the emitting entities
/// `entity_lo..entity_hi`.  Boundaries may split one entity's partner run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// First global pair id of the chunk.
    pub pair_lo: u64,
    /// One past the last global pair id of the chunk.
    pub pair_hi: u64,
    /// First emitting entity whose run intersects the chunk.
    entity_lo: u32,
    /// One past the last emitting entity whose run intersects the chunk.
    entity_hi: u32,
}

impl ChunkSpec {
    /// Number of pairs in the chunk.
    pub fn len(&self) -> usize {
        (self.pair_hi - self.pair_lo) as usize
    }

    /// True if the chunk holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pair_hi == self.pair_lo
    }
}

/// One entity's emitted segment inside a [`ChunkArena`].
#[derive(Debug, Clone, Copy)]
struct ChunkRun {
    entity: u32,
    start: u32,
    end: u32,
}

/// Reusable per-worker scratch a chunk is extracted into: the chunk's pairs
/// in global emission order, the per-entity segment boundaries, and the
/// partner-run scratch buffer.  Capacity is retained across chunks, so a
/// long streamed pass performs no steady-state allocation.
#[derive(Debug, Default)]
pub struct ChunkArena {
    pairs: Vec<(EntityId, EntityId)>,
    runs: Vec<ChunkRun>,
    scratch: RunScratch,
}

impl ChunkArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        ChunkArena::default()
    }

    /// The extracted chunk's pairs in global emission order.
    pub fn pairs(&self) -> &[(EntityId, EntityId)] {
        &self.pairs
    }

    /// Iterates the chunk's per-entity segments: `(entity, pairs_of_entity)`
    /// where the slice is the (possibly partial) partner run emitted for
    /// that entity, sorted by partner.
    pub fn runs(&self) -> impl Iterator<Item = (EntityId, &[(EntityId, EntityId)])> {
        self.runs.iter().map(|run| {
            (
                EntityId(run.entity),
                &self.pairs[run.start as usize..run.end as usize],
            )
        })
    }

    /// The arena's retained capacity in bytes (the streamed-mode analogue of
    /// the materialised index's allocation, tracked by the scalability
    /// bench).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pairs.capacity() * size_of::<(EntityId, EntityId)>()
            + self.runs.capacity() * size_of::<ChunkRun>()
            + self.scratch.capacity_bytes()
    }
}

/// The streamed candidate engine: counts pairs exactly (in `u64`), then
/// re-extracts any chunk of the pair-id space on demand.  See the module
/// docs for the two-pass design and the index-backed variant.
pub struct CandidateStream<'a> {
    extraction: Extraction<'a>,
    /// Global pair offsets per emitting entity (`emitting + 1` entries,
    /// `u64` — the stream has no 2^32 pair ceiling).
    offsets: Vec<u64>,
    /// Per-entity distinct-candidate counts — the LCP feature table.
    lcp: Vec<u32>,
    /// The materialised pair list of an index-backed stream
    /// ([`CandidateStream::from_candidates`]): chunks are copied out of it
    /// instead of being re-derived.
    index: Option<&'a [(EntityId, EntityId)]>,
}

impl<'a> CandidateStream<'a> {
    /// Builds the stream from the block statistics with up to `threads`
    /// counting workers.
    pub fn from_stats(stats: &'a BlockStats, threads: usize) -> Self {
        Self::build(Extraction::from_stats(stats), threads.max(1))
    }

    /// Builds the stream over an already-materialised candidate index of
    /// the same corpus: offsets and LCP table are read off the index (no
    /// counting pass) and every chunk is a copy of its slice of the pair
    /// list (no run is derived again).  Over the index of `stats` itself,
    /// chunks, arenas and every consumer behave exactly as over
    /// [`CandidateStream::from_stats`].  Any other index of the corpus works
    /// too — a pruned `CandidatePairs::from_pairs` subset may hold runs of
    /// entities the statistics give none (second-source pairs of Clean-Clean
    /// ER), and the stream then covers every entity up to the last run the
    /// index holds.
    ///
    /// # Panics
    ///
    /// If `candidates` and `stats` cover different entity counts.
    pub fn from_candidates(stats: &'a BlockStats, candidates: &'a crate::CandidatePairs) -> Self {
        let extraction = Extraction::from_stats(stats);
        assert_eq!(
            candidates.num_entities(),
            extraction.num_entities,
            "candidate index and block statistics cover different corpora"
        );
        let index_offsets = candidates.offsets();
        let last_run = index_offsets.partition_point(|&o| (o as usize) < candidates.len());
        let emitting = extraction.emitting_entities().max(last_run);
        let offsets: Vec<u64> = index_offsets[..=emitting]
            .iter()
            .map(|&o| u64::from(o))
            .collect();
        CandidateStream {
            extraction,
            offsets,
            lcp: candidates.entity_candidate_counts().to_vec(),
            index: Some(candidates.pairs()),
        }
    }

    /// The counting pass: derives every emitting entity's run length and the
    /// per-entity LCP table, keeping only `O(num_entities)` aggregates.
    pub(crate) fn build(extraction: Extraction<'a>, threads: usize) -> Self {
        let emitting = extraction.emitting_entities();

        let partner_counts: Vec<AtomicU32> = (0..extraction.num_entities)
            .map(|_| AtomicU32::new(0))
            .collect();
        let num_tasks = Extraction::derivation_tasks(threads);
        let runs = er_core::map_ranges_parallel(emitting, threads, num_tasks, |range| {
            let mut counts: Vec<u32> = Vec::with_capacity(range.len());
            extraction.derive_range(range, |run| {
                counts.push(run.len() as u32);
                // u32 addition commutes, so the relaxed scatter is exact and
                // identical at any thread count.
                for &p in run {
                    partner_counts[p as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
            counts
        });

        let mut offsets: Vec<u64> = Vec::with_capacity(emitting + 1);
        offsets.push(0);
        for counts in runs {
            for count in counts {
                offsets.push(offsets.last().unwrap() + u64::from(count));
            }
        }
        let mut lcp: Vec<u32> = partner_counts
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect();
        for (a, window) in offsets.windows(2).enumerate() {
            lcp[a] += (window[1] - window[0]) as u32;
        }

        CandidateStream {
            extraction,
            offsets,
            lcp,
            index: None,
        }
    }

    /// Exact number of candidate pairs the stream emits, counted in `u64` —
    /// valid even past the materialised index's 2^32 ceiling.
    pub fn total_pairs(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Number of entities of the corpus (the flattened id space).
    pub fn num_entities(&self) -> usize {
        self.extraction.num_entities
    }

    /// Number of entities that emit runs of their own (the E1 side for
    /// Clean-Clean ER, every entity for Dirty ER; for an index-backed stream,
    /// at least every entity up to the last run the index holds).
    pub fn emitting_entities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The per-entity distinct-candidate counts — the LCP feature table,
    /// identical to
    /// [`CandidatePairs::entity_candidate_counts`](crate::CandidatePairs::entity_candidate_counts).
    pub fn lcp_table(&self) -> &[u32] {
        &self.lcp
    }

    /// One entity's distinct-candidate count (the LCP feature).
    pub fn lcp(&self, entity: EntityId) -> u32 {
        self.lcp[entity.index()]
    }

    /// The global pair-id offsets per emitting entity (`emitting + 1`
    /// entries): entity `a`'s run occupies pair ids
    /// `offsets[a]..offsets[a + 1]`.
    pub fn entity_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Bytes held by the stream's aggregate tables (pair offsets + LCP
    /// counts) — everything a streamed consumer keeps resident besides its
    /// per-worker [`ChunkArena`] scratch.  The streamed-mode analogue of
    /// [`CandidatePairs::index_bytes`](crate::CandidatePairs::index_bytes).
    pub fn aggregate_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u64>() + self.lcp.capacity() * size_of::<u32>()
    }

    /// Cuts the pair-id space into chunks of at most `chunk_pairs` pairs
    /// each.  Every chunk except possibly the last is exactly `chunk_pairs`
    /// long; boundaries may fall inside one entity's partner run.
    pub fn chunks(&self, chunk_pairs: usize) -> Vec<ChunkSpec> {
        let chunk = chunk_pairs.max(1) as u64;
        let total = self.total_pairs();
        let mut out = Vec::with_capacity(total.div_ceil(chunk) as usize);
        let mut lo = 0u64;
        while lo < total {
            let hi = (lo + chunk).min(total);
            // First entity whose run contains pair `lo`, and one past the
            // entity containing pair `hi - 1` (empty runs on the boundary
            // are excluded on both sides).
            let entity_lo = self.offsets.partition_point(|&o| o <= lo) - 1;
            let entity_hi = self.offsets.partition_point(|&o| o < hi);
            out.push(ChunkSpec {
                pair_lo: lo,
                pair_hi: hi,
                entity_lo: entity_lo as u32,
                entity_hi: entity_hi as u32,
            });
            lo = hi;
        }
        out
    }

    /// One chunk's per-entity segments: every entity whose (non-empty) run
    /// intersects the chunk, with the in-chunk range of positions inside
    /// that run.
    fn chunk_segments(
        &self,
        chunk: ChunkSpec,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        (chunk.entity_lo as usize..chunk.entity_hi as usize).filter_map(move |e| {
            let run_lo = self.offsets[e];
            let run_hi = self.offsets[e + 1];
            if run_lo == run_hi || run_lo >= chunk.pair_hi || run_hi <= chunk.pair_lo {
                return None;
            }
            let local_lo = (chunk.pair_lo.max(run_lo) - run_lo) as usize;
            let local_hi = (chunk.pair_hi.min(run_hi) - run_lo) as usize;
            Some((e, local_lo..local_hi))
        })
    }

    /// Walks one chunk's segments by derivation: re-derives each
    /// intersecting entity's full sorted partner run in `scratch` and hands
    /// `f` the in-chunk slice of it.
    fn for_each_derived_run(
        &self,
        chunk: ChunkSpec,
        scratch: &mut RunScratch,
        mut f: impl FnMut(EntityId, &[u32]),
    ) {
        let mut derived = 0u64;
        for (e, local) in self.chunk_segments(chunk) {
            let run = self.extraction.neighbors_above(e, scratch);
            debug_assert_eq!(run.len() as u64, self.offsets[e + 1] - self.offsets[e]);
            derived += 1;
            f(EntityId(e as u32), &run[local]);
        }
        crate::obs::obs().runs_derived.add(derived);
    }

    /// Extracts one chunk into a reusable arena: the chunk's pairs in global
    /// emission order plus the per-entity segment boundaries.
    pub fn extract_chunk(&self, chunk: ChunkSpec, arena: &mut ChunkArena) {
        let capacity_before = arena.capacity_bytes();
        let ChunkArena {
            pairs,
            runs,
            scratch,
        } = arena;
        pairs.clear();
        runs.clear();
        match self.index {
            Some(index) => {
                pairs.extend_from_slice(&index[chunk.pair_lo as usize..chunk.pair_hi as usize]);
                let mut start = 0u32;
                for (e, local) in self.chunk_segments(chunk) {
                    let end = start + local.len() as u32;
                    runs.push(ChunkRun {
                        entity: e as u32,
                        start,
                        end,
                    });
                    start = end;
                }
            }
            None => self.for_each_derived_run(chunk, scratch, |a, partners| {
                let start = pairs.len() as u32;
                pairs.extend(partners.iter().map(|&p| (a, EntityId(p))));
                runs.push(ChunkRun {
                    entity: a.0,
                    start,
                    end: pairs.len() as u32,
                });
            }),
        }
        debug_assert_eq!(pairs.len(), chunk.len());
        // One batched registry update per chunk (thousands of pairs), never
        // per pair.
        let o = crate::obs::obs();
        o.stream_chunks.inc();
        o.stream_pairs.add(arena.pairs.len() as u64);
        if arena.capacity_bytes() > capacity_before {
            o.arena_grows.inc();
        } else {
            o.arena_reuses.inc();
        }
    }

    /// Extracts one chunk straight into a caller-provided slice of exactly
    /// [`ChunkSpec::len`] pairs (the zero-copy path of the stream's
    /// materialising collector).
    pub(crate) fn extract_chunk_into(
        &self,
        chunk: ChunkSpec,
        scratch: &mut RunScratch,
        out: &mut [(EntityId, EntityId)],
    ) {
        debug_assert_eq!(out.len(), chunk.len());
        if let Some(index) = self.index {
            out.copy_from_slice(&index[chunk.pair_lo as usize..chunk.pair_hi as usize]);
            return;
        }
        let mut cursor = 0usize;
        self.for_each_derived_run(chunk, scratch, |a, partners| {
            for (slot, &p) in out[cursor..cursor + partners.len()]
                .iter_mut()
                .zip(partners)
            {
                *slot = (a, EntityId(p));
            }
            cursor += partners.len();
        });
        debug_assert_eq!(cursor, out.len());
    }

    /// Collects the stream into a materialised [`crate::CandidatePairs`] —
    /// the single extraction engine's batch collector.  Fails with
    /// [`er_core::Error::CapacityExceeded`] when the pair total exceeds the
    /// materialised index's `u32` ceiling.
    pub fn collect(&self, threads: usize) -> er_core::Result<crate::CandidatePairs> {
        crate::CandidatePairs::try_from_stream(self, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CandidatePairs, CsrBlockCollection};
    use er_core::DatasetKind;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn collection(
        name: &str,
        kind: DatasetKind,
        split: usize,
        num_entities: usize,
        blocks: &[&[u32]],
    ) -> CsrBlockCollection {
        let literal = blocks
            .iter()
            .zip('a'..)
            .map(|(b, key)| (key.to_string(), ids(b)));
        CsrBlockCollection::from_blocks(name, kind, split, num_entities, literal)
    }

    fn fixtures() -> Vec<CsrBlockCollection> {
        vec![
            collection(
                "cc",
                DatasetKind::CleanClean,
                3,
                6,
                &[&[0, 3], &[0, 1, 3, 4], &[1, 4], &[0, 1, 2, 3, 4, 5]],
            ),
            collection(
                "dirty",
                DatasetKind::Dirty,
                6,
                6,
                &[&[0, 1, 2, 5], &[1, 2, 3], &[0, 4, 5]],
            ),
        ]
    }

    /// The materialised candidate pairs of a collection (one thread).
    fn materialised(bc: &CsrBlockCollection) -> CandidatePairs {
        CandidatePairs::from_stats(&crate::BlockStats::from_csr(bc), 1)
    }

    #[test]
    fn counting_pass_matches_materialised_totals() {
        for bc in fixtures() {
            let reference = materialised(&bc);
            for threads in [1, 2, 4] {
                let stats = crate::BlockStats::from_csr(&bc);
                let stream = CandidateStream::from_stats(&stats, threads);
                assert_eq!(stream.total_pairs(), reference.len() as u64);
                assert_eq!(stream.lcp_table(), reference.entity_candidate_counts());
                for e in 0..bc.num_entities {
                    let entity = EntityId(e as u32);
                    if e < stream.emitting_entities() {
                        let range = stream.entity_offsets()[e]..stream.entity_offsets()[e + 1];
                        assert_eq!(
                            (range.end - range.start) as usize,
                            reference.pairs_of(entity).len(),
                            "{} entity {e}",
                            bc.dataset_name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_concatenation_reproduces_the_pair_list_at_any_chunk_size() {
        for bc in fixtures() {
            let reference = materialised(&bc);
            let stats = crate::BlockStats::from_csr(&bc);
            let stream = CandidateStream::from_stats(&stats, 2);
            for chunk_pairs in [1usize, 2, 3, 5, 64, usize::MAX / 2] {
                let chunks = stream.chunks(chunk_pairs);
                let total: usize = chunks.iter().map(ChunkSpec::len).sum();
                assert_eq!(total as u64, stream.total_pairs());
                let mut arena = ChunkArena::new();
                let mut collected = Vec::new();
                for chunk in chunks {
                    stream.extract_chunk(chunk, &mut arena);
                    assert_eq!(arena.pairs().len(), chunk.len());
                    collected.extend_from_slice(arena.pairs());
                }
                assert_eq!(
                    collected.as_slice(),
                    reference.pairs(),
                    "{} chunk_pairs={chunk_pairs}",
                    bc.dataset_name
                );
            }
        }
    }

    #[test]
    fn chunk_runs_expose_per_entity_segments() {
        let bc = &fixtures()[1];
        let stats = crate::BlockStats::from_csr(bc);
        let stream = CandidateStream::from_stats(&stats, 1);
        let mut arena = ChunkArena::new();
        // A chunk size of 2 forces boundaries inside entity runs.
        for chunk in stream.chunks(2) {
            stream.extract_chunk(chunk, &mut arena);
            let mut walked = Vec::new();
            for (a, pairs) in arena.runs() {
                for &(pa, pb) in pairs {
                    assert_eq!(pa, a);
                    assert!(pb > pa);
                    walked.push((pa, pb));
                }
            }
            assert_eq!(walked.as_slice(), arena.pairs());
        }
    }

    #[test]
    fn extract_chunk_into_matches_arena_extraction() {
        let bc = &fixtures()[0];
        let stats = crate::BlockStats::from_csr(bc);
        let stream = CandidateStream::from_stats(&stats, 1);
        let mut arena = ChunkArena::new();
        let mut scratch = RunScratch::default();
        for chunk in stream.chunks(3) {
            stream.extract_chunk(chunk, &mut arena);
            let mut direct = vec![(EntityId(0), EntityId(0)); chunk.len()];
            stream.extract_chunk_into(chunk, &mut scratch, &mut direct);
            assert_eq!(direct.as_slice(), arena.pairs());
        }
    }

    /// Collects an arena's per-entity segments into owned values.
    fn owned_runs(arena: &ChunkArena) -> Vec<(EntityId, Vec<(EntityId, EntityId)>)> {
        arena
            .runs()
            .map(|(entity, pairs)| (entity, pairs.to_vec()))
            .collect()
    }

    #[test]
    fn index_backed_stream_equals_the_derived_stream_chunk_for_chunk() {
        let mut collections = fixtures();
        // E1 entities 1 and 3 sit in no block: empty runs between emitting
        // neighbours, landing on chunk boundaries at small chunk sizes.
        collections.push(collection(
            "cc-gaps",
            DatasetKind::CleanClean,
            5,
            9,
            &[&[0, 5, 6, 7], &[2, 6, 8], &[0, 2, 4, 5]],
        ));
        for bc in collections {
            let stats = crate::BlockStats::from_csr(&bc);
            let candidates = CandidatePairs::from_stats(&stats, 2);
            let derived = CandidateStream::from_stats(&stats, 2);
            let backed = CandidateStream::from_candidates(&stats, &candidates);
            assert_eq!(backed.total_pairs(), derived.total_pairs());
            assert_eq!(backed.num_entities(), derived.num_entities());
            assert_eq!(backed.emitting_entities(), derived.emitting_entities());
            assert_eq!(backed.entity_offsets(), derived.entity_offsets());
            assert_eq!(backed.lcp_table(), derived.lcp_table());
            // The dirty fixture has empty runs (entities 3 and 5), the last
            // one on the final boundary.
            assert!(
                bc.kind != DatasetKind::Dirty
                    || derived.entity_offsets().windows(2).any(|w| w[0] == w[1])
            );

            let mut derived_arena = ChunkArena::new();
            let mut backed_arena = ChunkArena::new();
            let mut scratch = RunScratch::default();
            for chunk_pairs in [1usize, 2, 3, 5, 64, usize::MAX / 2] {
                let chunks = derived.chunks(chunk_pairs);
                assert_eq!(backed.chunks(chunk_pairs), chunks);
                let mut concatenated = Vec::new();
                for chunk in chunks {
                    derived.extract_chunk(chunk, &mut derived_arena);
                    backed.extract_chunk(chunk, &mut backed_arena);
                    let context =
                        format!("{} chunk_pairs={chunk_pairs} {chunk:?}", bc.dataset_name);
                    assert_eq!(backed_arena.pairs(), derived_arena.pairs(), "{context}");
                    assert_eq!(
                        owned_runs(&backed_arena),
                        owned_runs(&derived_arena),
                        "{context}"
                    );
                    let mut direct = vec![(EntityId(0), EntityId(0)); chunk.len()];
                    backed.extract_chunk_into(chunk, &mut scratch, &mut direct);
                    assert_eq!(direct.as_slice(), derived_arena.pairs(), "{context}");
                    concatenated.extend_from_slice(backed_arena.pairs());
                }
                assert_eq!(concatenated.as_slice(), candidates.pairs());
            }
            let collected = backed.collect(2).unwrap();
            assert_eq!(collected.pairs(), candidates.pairs());
            assert_eq!(
                collected.entity_candidate_counts(),
                candidates.entity_candidate_counts()
            );
        }
    }

    #[test]
    fn index_backed_stream_covers_runs_of_non_emitting_entities() {
        // A pruned Clean-Clean subset holding a pair of two E2 entities (3
        // and 4): entity 3's run lies past the statistics' emitting side.
        let bc = &fixtures()[0];
        let stats = crate::BlockStats::from_csr(bc);
        let pairs = [(0, 3), (1, 4), (3, 4)].map(|(a, b)| (EntityId(a), EntityId(b)));
        let subset = CandidatePairs::from_pairs(bc.num_entities, pairs);
        let stream = CandidateStream::from_candidates(&stats, &subset);
        assert_eq!(stream.total_pairs(), 3);
        assert_eq!(stream.emitting_entities(), 4);
        let mut arena = ChunkArena::new();
        for chunk_pairs in [1usize, 2, 64] {
            let mut runs = Vec::new();
            for chunk in stream.chunks(chunk_pairs) {
                stream.extract_chunk(chunk, &mut arena);
                runs.extend(owned_runs(&arena));
            }
            let expected: Vec<_> = pairs.iter().map(|&(a, b)| (a, vec![(a, b)])).collect();
            assert_eq!(runs, expected, "chunk_pairs={chunk_pairs}");
        }
    }

    #[test]
    #[should_panic(expected = "cover different corpora")]
    fn index_backed_stream_rejects_a_foreign_index() {
        let all = fixtures();
        let stats = crate::BlockStats::from_csr(&all[0]);
        let foreign = CandidatePairs::from_pairs(2, vec![(EntityId(0), EntityId(1))]);
        let _ = CandidateStream::from_candidates(&stats, &foreign);
    }

    #[test]
    fn arena_capacity_is_retained_and_reported() {
        let bc = &fixtures()[0];
        let stats = crate::BlockStats::from_csr(bc);
        let stream = CandidateStream::from_stats(&stats, 1);
        let mut arena = ChunkArena::new();
        assert_eq!(arena.capacity_bytes(), 0);
        for chunk in stream.chunks(4) {
            stream.extract_chunk(chunk, &mut arena);
        }
        assert!(arena.capacity_bytes() > 0);
    }
}
