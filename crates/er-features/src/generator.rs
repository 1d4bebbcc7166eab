//! Feature-matrix generation: materialise the feature vector of every
//! candidate pair.
//!
//! Feature generation dominates the run-time of (Generalized) Supervised
//! Meta-blocking on the larger datasets (Figures 7, 9 and 10 of the paper), so
//! this module is built around one fused single pass with one chunk driver:
//!
//! 1. Every pass reads its candidates through a [`CandidateStream`]: chunks
//!    of the pair-id space are the parallel work units, each walked segment
//!    by segment ([`CandidateStream::segments`]) — one segment per entity
//!    whose run meets the chunk.
//! 2. For each segment the pass walks the entity's blocks once through the
//!    flat [`er_blocking::BlockStats`] index and folds every partner's
//!    co-occurrence aggregates on the worker's [`RadixScoreboard`], which
//!    drains them in ascending partner order — no per-pair merge, no
//!    divisions.  Without an index ([`CandidateStream::from_stats`],
//!    [`CandidateStream::from_counts`]) the drained partners *are* the run;
//!    an index-backed stream ([`CandidateStream::from_candidates`], what
//!    [`FeatureMatrix::score_rows_with`] runs) only selects among them.
//!    Contributions are folded in ascending block-id order, which makes the
//!    floating-point sums bit-identical to the per-pair merge.
//! 3. Every selected scheme column is then written by the shared fused
//!    writer ([`crate::context::write_features_from`]) and handed to the
//!    pass's consumer: copied into the matrix, reduced to one probability
//!    ([`FeatureMatrix::score_rows`], [`FeatureMatrix::score_stream_with`])
//!    and optionally folded into a per-chunk state
//!    ([`FeatureMatrix::score_stream_folded`]), or passed on chunk by chunk
//!    ([`for_each_scored_chunk`]).
//!
//! Chunks are pulled from a shared cursor by worker threads carrying their
//! own scratch ([`er_core::for_each_task_with_state`]) — work stealing
//! instead of fixed per-thread partitions.

use er_blocking::{CandidateStream, ChunkSpec, DEFAULT_CHUNK_PAIRS};
use er_core::{EntityId, PairId};

use crate::context::{write_features_from, FeatureContext, PairCooccurrence, StreamFeatureContext};
use crate::feature_set::FeatureSet;
use crate::scoreboard::{RadixScoreboard, ScoreboardConfig};

/// Below this many pairs the parallel drivers fall back to one thread.
const PARALLEL_THRESHOLD: usize = 1024;

/// A dense, row-major matrix holding one feature vector per candidate pair.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    feature_set: FeatureSet,
    num_features: usize,
    num_pairs: usize,
    values: Vec<f64>,
}

impl FeatureMatrix {
    /// Builds the matrix for every candidate pair in the context, single
    /// threaded.
    pub fn build(context: &FeatureContext<'_>, set: FeatureSet) -> Self {
        Self::build_with_threads(context, set, 1)
    }

    /// Builds the matrix using the default worker-thread count.
    pub fn build_parallel(context: &FeatureContext<'_>, set: FeatureSet) -> Self {
        Self::build_with_threads(context, set, er_core::available_threads())
    }

    /// Builds the matrix with an explicit thread count via the fused
    /// single-pass chunk driver over the context's own candidate index.
    /// Output is bit-identical at every thread count.
    pub fn build_with_threads(
        context: &FeatureContext<'_>,
        set: FeatureSet,
        threads: usize,
    ) -> Self {
        let num_features = set.vector_len();
        let num_pairs = context.candidates().len();
        let mut values = vec![0.0f64; num_features * num_pairs];
        fused_index_pass(
            context,
            set,
            threads,
            &ScoreboardConfig::default(),
            num_features,
            &mut values,
            |row, slot| slot.copy_from_slice(row),
        );

        FeatureMatrix {
            feature_set: set,
            num_features,
            num_pairs,
            values,
        }
    }

    /// Builds the matrix through the retained naive reference path: one
    /// temporary row vector per pair, every scheme evaluated independently
    /// via [`FeatureContext::score_with`].  Kept for equivalence tests and
    /// the before/after benchmark comparison; never use it on a hot path.
    pub fn build_reference(context: &FeatureContext<'_>, set: FeatureSet) -> Self {
        let num_features = set.vector_len();
        let num_pairs = context.candidates().len();
        let mut values = vec![0.0f64; num_features * num_pairs];
        let mut row = Vec::with_capacity(num_features);
        for (id, a, b) in context.candidates().iter() {
            let i = id.index();
            context.pair_features(a, b, set, &mut row);
            values[i * num_features..(i + 1) * num_features].copy_from_slice(&row);
        }
        FeatureMatrix {
            feature_set: set,
            num_features,
            num_pairs,
            values,
        }
    }

    /// Computes `score` over every candidate pair's feature vector without
    /// materialising the matrix: each worker fills its scratch row via the
    /// fused chunk pass and immediately reduces it to one `f64`.
    ///
    /// This is the fused feature → probability path the pipeline uses when
    /// only probabilities are needed; the output is deterministic and
    /// identical to building the matrix first and scoring row by row.
    pub fn score_rows(
        context: &FeatureContext<'_>,
        set: FeatureSet,
        threads: usize,
        score: impl Fn(&[f64]) -> f64 + Sync,
    ) -> Vec<f64> {
        Self::score_rows_with(context, set, threads, &ScoreboardConfig::default(), score)
    }

    /// [`FeatureMatrix::score_rows`] taking the pipeline's scoreboard
    /// configuration, so batch and streaming callers pass one config: its
    /// tile width sizes every worker's [`RadixScoreboard`].  It changes
    /// scratch and speed, never an output bit.
    pub fn score_rows_with(
        context: &FeatureContext<'_>,
        set: FeatureSet,
        threads: usize,
        scoreboard: &ScoreboardConfig,
        score: impl Fn(&[f64]) -> f64 + Sync,
    ) -> Vec<f64> {
        let mut out = vec![0.0f64; context.candidates().len()];
        fused_index_pass(
            context,
            set,
            threads,
            scoreboard,
            1,
            &mut out,
            |row, slot| slot[0] = score(row),
        );
        out
    }

    /// Scores every candidate pair of a [`CandidateStream`] without the pair
    /// index ever existing in memory: chunks of `chunk_pairs` pairs are
    /// pushed through the same fused chunk pass as
    /// [`FeatureMatrix::score_rows_with`] and reduced to one `f64` each.
    /// Peak memory is `O(chunk_pairs × workers + aggregates)`; the output
    /// vector is indexed by the stream's global pair id and bit-identical to
    /// the materialised path at any thread count, chunk size and tile width
    /// (chunks are the parallel work units).
    pub fn score_stream_with(
        context: &StreamFeatureContext<'_>,
        stream: &CandidateStream<'_>,
        set: FeatureSet,
        threads: usize,
        scoreboard: &ScoreboardConfig,
        chunk_pairs: usize,
        score: impl Fn(&[f64]) -> f64 + Sync,
    ) -> Vec<f64> {
        let fold = |_: &mut (), _: u64, _: EntityId, _: EntityId, _: f64| {};
        let (scores, _) = Self::score_stream_folded(
            context,
            stream,
            set,
            threads,
            scoreboard,
            chunk_pairs,
            score,
            || (),
            fold,
        );
        scores
    }

    /// [`FeatureMatrix::score_stream_with`] that also folds every scored
    /// pair into a state of its chunk: `init` builds a chunk's state, and
    /// `fold` receives it with the pair's global id, its endpoints and its
    /// score, in pair-id order.  The states come back in chunk order beside
    /// the scores, so a consumer that keeps some of the pairs — the
    /// pipeline keeps the valid ones — has them in global pair-id order by
    /// concatenating the states, without a second pass over the scores.
    #[allow(clippy::too_many_arguments)]
    pub fn score_stream_folded<S: Send>(
        context: &StreamFeatureContext<'_>,
        stream: &CandidateStream<'_>,
        set: FeatureSet,
        threads: usize,
        scoreboard: &ScoreboardConfig,
        chunk_pairs: usize,
        score: impl Fn(&[f64]) -> f64 + Sync,
        init: impl Fn() -> S + Sync,
        fold: impl Fn(&mut S, u64, EntityId, EntityId, f64) + Sync,
    ) -> (Vec<f64>, Vec<S>) {
        let num_pairs = usize::try_from(stream.total_pairs())
            .expect("streamed score vector exceeds addressable memory");
        let mut out = vec![0.0f64; num_pairs];
        let states = fused_stream_pass(
            context,
            stream,
            set,
            threads,
            scoreboard,
            1,
            chunk_pairs,
            &mut out,
            init,
            |state: &mut S, id, a, b, row: &[f64], slot: &mut [f64]| {
                let value = score(row);
                slot[0] = value;
                fold(state, id, a, b, value);
            },
        );
        (out, states)
    }

    /// Assembles a matrix from raw parts (used by the retained naive
    /// reference engine in [`crate::reference`]).
    pub(crate) fn from_parts(
        feature_set: FeatureSet,
        num_features: usize,
        num_pairs: usize,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(values.len(), num_features * num_pairs);
        FeatureMatrix {
            feature_set,
            num_features,
            num_pairs,
            values,
        }
    }

    /// The feature set the matrix was built for.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Number of columns (features per pair).
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of rows (candidate pairs).
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// The feature vector of one pair.
    pub fn row(&self, pair: PairId) -> &[f64] {
        let start = pair.index() * self.num_features;
        &self.values[start..start + self.num_features]
    }

    /// Iterates over `(PairId, row)` tuples.
    ///
    /// Always yields exactly [`FeatureMatrix::num_pairs`] rows — including
    /// the degenerate `num_features == 0` matrix, where every row is the
    /// empty slice.
    pub fn rows(&self) -> impl Iterator<Item = (PairId, &[f64])> {
        (0..self.num_pairs).map(|i| {
            let start = i * self.num_features;
            (
                PairId::from(i),
                &self.values[start..start + self.num_features],
            )
        })
    }

    /// Projects the matrix onto a sub-feature-set, selecting the relevant
    /// columns without recomputing any scheme.
    ///
    /// This is how the 255-combination feature-selection sweep (Tables 3 and
    /// 4 of the paper) is made affordable: the all-schemes matrix is built
    /// once per dataset and every combination is a cheap column selection.
    ///
    /// # Panics
    /// Panics if `target` contains a scheme that is absent from this matrix's
    /// feature set.
    pub fn project(&self, target: FeatureSet) -> FeatureMatrix {
        use crate::schemes::Scheme;
        assert!(
            target
                .schemes()
                .iter()
                .all(|s| self.feature_set.contains(*s)),
            "cannot project {} out of {}",
            target,
            self.feature_set
        );
        // Column offsets of each scheme in the source layout.
        let mut columns = Vec::with_capacity(target.vector_len());
        let mut offset = 0usize;
        for scheme in Scheme::ALL {
            if !self.feature_set.contains(scheme) {
                continue;
            }
            if target.contains(scheme) {
                for i in 0..scheme.arity() {
                    columns.push(offset + i);
                }
            }
            offset += scheme.arity();
        }
        let num_features = columns.len();
        let mut values = Vec::with_capacity(num_features * self.num_pairs);
        for (_, row) in self.rows() {
            for &c in &columns {
                values.push(row[c]);
            }
        }
        FeatureMatrix {
            feature_set: target,
            num_features,
            num_pairs: self.num_pairs,
            values,
        }
    }
}

/// Clamps a requested thread count to something useful for `num_pairs` rows.
fn effective_threads(threads: usize, num_pairs: usize) -> usize {
    if num_pairs < PARALLEL_THRESHOLD {
        1
    } else {
        threads.clamp(1, num_pairs)
    }
}

/// Walks `a`'s blocks once, in ascending block-id order, adding every
/// `(partner, 1/||b||, 1/|b|)` contribution of a comparable partner with a
/// larger id to `board`.
///
/// The walk only yields `a`'s second-source partners for Clean-Clean ER, so
/// a candidate set built with `CandidatePairs::from_pairs` may contain pairs
/// the board never folds (both endpoints in E1); [`score_chunk`] falls back
/// to the per-pair merge for those.
#[inline]
fn walk_partners(context: &StreamFeatureContext<'_>, a: EntityId, board: &mut RadixScoreboard) {
    let stats = context.stats();
    let inv_comp_table = stats.inv_comparisons_table();
    let inv_size_table = stats.inv_sizes_table();
    let kind = stats.kind();
    for &bid in stats.blocks_of(a) {
        let block_inv_comp = inv_comp_table[bid.index()];
        let block_inv_size = inv_size_table[bid.index()];
        let members = stats.entities_of(bid);
        let partners = match kind {
            er_core::DatasetKind::CleanClean => &members[stats.first_source_count(bid) as usize..],
            er_core::DatasetKind::Dirty => {
                let start = members.partition_point(|p| p.index() <= a.index());
                &members[start..]
            }
        };
        for &p in partners {
            board.add(p.0, block_inv_comp, block_inv_size);
        }
    }
}

/// One worker's scratch of the chunk driver, built once per worker and
/// reused across chunks: the discovery board, the list it drains an
/// entity's folded partners into and one feature row.
struct ChunkScratch {
    board: RadixScoreboard,
    folded: Vec<(u32, PairCooccurrence)>,
    row: Vec<f64>,
}

impl ChunkScratch {
    fn new(num_entities: usize, set: FeatureSet, scoreboard: &ScoreboardConfig) -> Self {
        ChunkScratch {
            board: RadixScoreboard::new(num_entities, scoreboard),
            folded: Vec::new(),
            row: vec![0.0f64; set.vector_len()],
        }
    }
}

/// The chunk body every scoring pass shares.  For each segment of `chunk`
/// it walks the entity's blocks once onto the board and drains the folded
/// partners in ascending order; the segment's pairs are then those
/// partners' `positions` of the run (a stream of run lengths) or the
/// index's partners looked up among them (an index-backed stream, whose
/// pruned `from_pairs` subsets may hold pairs the walk never yields: those
/// take the per-pair merge).  Each pair's feature row goes to `emit` with
/// the chunk's `state`, the pair's global id and endpoints, and its
/// `row_width`-wide slot of `out` (exactly `chunk.len() × row_width` long).
#[allow(clippy::too_many_arguments)]
fn score_chunk<S, E>(
    context: &StreamFeatureContext<'_>,
    stream: &CandidateStream<'_>,
    chunk: ChunkSpec,
    set: FeatureSet,
    scratch: &mut ChunkScratch,
    out: &mut [f64],
    row_width: usize,
    state: &mut S,
    emit: &E,
) where
    E: Fn(&mut S, u64, EntityId, EntityId, &[f64], &mut [f64]),
{
    debug_assert_eq!(out.len(), chunk.len() * row_width);
    let ChunkScratch { board, folded, row } = scratch;
    let mut slots = out.chunks_exact_mut(row_width);
    let mut id = chunk.pair_lo;
    for segment in stream.segments(chunk) {
        let a = segment.entity;
        walk_partners(context, a, board);
        // a's per-entity aggregates are fixed across its whole segment —
        // gather them once, not per pair.
        let a_aggregates = context.entity_aggregates(a);
        let mut emit_pair = |b: u32, agg: &PairCooccurrence| {
            let slot = slots.next().expect("one output slot per pair of the chunk");
            let b = EntityId(b);
            write_features_from(&a_aggregates, &context.entity_aggregates(b), agg, set, row);
            emit(state, id, a, b, row, slot);
            id += 1;
        };
        board.drain_sorted_into(folded);
        match segment.partners {
            None => {
                assert_eq!(
                    folded.len(),
                    segment.run_len,
                    "a stream of run lengths read over an index that is not its statistics' own"
                );
                for (b, agg) in &folded[segment.positions] {
                    emit_pair(*b, agg);
                }
            }
            Some(partners) => {
                let mut rest = &folded[..];
                for &b in partners {
                    while rest.first().is_some_and(|&(p, _)| p < b) {
                        rest = &rest[1..];
                    }
                    match rest.first() {
                        Some((p, agg)) if *p == b => emit_pair(b, agg),
                        _ => emit_pair(b, &context.cooccurrence(a, EntityId(b))),
                    }
                }
            }
        }
    }
    board.flush_metrics();
    debug_assert_eq!(id, chunk.pair_hi);
}

/// The chunk driver over a [`CandidateStream`]: chunks of the stream's
/// pair-id space are the parallel work units.  Each worker runs its chunk
/// through [`score_chunk`] into the chunk's pre-split slice of `out` and a
/// fresh `init()` state — so the output is positionally identical at any
/// thread count and chunk size, while no worker ever holds more than one
/// chunk of pairs.  Returns the chunks' states in chunk order.
#[allow(clippy::too_many_arguments)]
fn fused_stream_pass<S, E>(
    context: &StreamFeatureContext<'_>,
    stream: &CandidateStream<'_>,
    set: FeatureSet,
    threads: usize,
    scoreboard: &ScoreboardConfig,
    row_width: usize,
    chunk_pairs: usize,
    out: &mut [f64],
    init: impl Fn() -> S + Sync,
    emit: E,
) -> Vec<S>
where
    S: Send,
    E: Fn(&mut S, u64, EntityId, EntityId, &[f64], &mut [f64]) + Sync,
{
    let num_pairs = usize::try_from(stream.total_pairs())
        .expect("streamed output buffer exceeds addressable memory");
    if num_pairs == 0 || row_width == 0 {
        return Vec::new();
    }
    debug_assert_eq!(out.len(), num_pairs * row_width);
    let threads = effective_threads(threads, num_pairs);
    let chunks = stream.chunks(chunk_pairs.max(1));

    // Pre-split the output into one disjoint slice per chunk; workers take
    // their slice by chunk index and leave the chunk's state in its place.
    let slices = er_core::split_lengths_mut(out, chunks.iter().map(|c| c.len() * row_width));
    let mut tasks: Vec<(Option<&mut [f64]>, Option<S>)> = slices
        .into_iter()
        .map(|slice| (Some(slice), None))
        .collect();
    let slots = std::sync::Mutex::new(&mut tasks);

    er_core::for_each_task_with_state(
        chunks.len(),
        threads,
        || ChunkScratch::new(stream.num_entities(), set, scoreboard),
        |task, scratch| {
            let chunk_out = slots.lock().expect("chunk slots poisoned")[task]
                .0
                .take()
                .expect("chunk dispatched twice");
            let mut state = init();
            score_chunk(
                context,
                stream,
                chunks[task],
                set,
                scratch,
                chunk_out,
                row_width,
                &mut state,
                &emit,
            );
            slots.lock().expect("chunk slots poisoned")[task].1 = Some(state);
        },
    );
    tasks
        .into_iter()
        .map(|(_, state)| state.expect("every chunk was scored"))
        .collect()
}

/// [`fused_stream_pass`] over the context's own materialised candidate
/// index, read through an index-backed stream
/// ([`CandidateStream::from_candidates`]): the index selects each chunk's
/// pairs.
fn fused_index_pass<E>(
    context: &FeatureContext<'_>,
    set: FeatureSet,
    threads: usize,
    scoreboard: &ScoreboardConfig,
    row_width: usize,
    out: &mut [f64],
    emit: E,
) where
    E: Fn(&[f64], &mut [f64]) + Sync,
{
    let stream = CandidateStream::from_candidates(context.stats(), context.candidates());
    fused_stream_pass(
        context.stream_context(),
        &stream,
        set,
        threads,
        scoreboard,
        row_width,
        DEFAULT_CHUNK_PAIRS,
        out,
        || (),
        |_: &mut (), _, _, _, row: &[f64], slot: &mut [f64]| emit(row, slot),
    );
}

/// Streams scored chunks to a sequential consumer in ascending pair-id
/// order: chunks are scored in parallel waves of `2 × threads`, then each
/// wave is handed to `consume` in order as `(pairs, probabilities)` slices.
/// Peak memory is `O(threads × chunk_pairs)` — the full pair and probability
/// vectors never exist at once — and worker scratch (scoreboard, feature
/// row) is built once per worker, not per chunk.  Concatenating the
/// consumed chunks reproduces the materialised `(pairs, score_rows)` output
/// bit-for-bit; this is the progressive-bootstrap seam
/// (`StreamingSchedule::absorb` per chunk equals one global absorb because
/// stamps are assigned in the same sequence).
#[allow(clippy::too_many_arguments)]
pub fn for_each_scored_chunk(
    context: &StreamFeatureContext<'_>,
    stream: &CandidateStream<'_>,
    set: FeatureSet,
    threads: usize,
    scoreboard: &ScoreboardConfig,
    chunk_pairs: usize,
    score: impl Fn(&[f64]) -> f64 + Sync,
    mut consume: impl FnMut(&[(EntityId, EntityId)], &[f64]),
) {
    let num_pairs = usize::try_from(stream.total_pairs())
        .expect("streamed chunk walk exceeds addressable memory");
    if num_pairs == 0 {
        return;
    }
    let threads = effective_threads(threads, num_pairs);
    let chunks = stream.chunks(chunk_pairs.max(1));
    let emit = |pairs: &mut Vec<(EntityId, EntityId)>,
                _: u64,
                a: EntityId,
                b: EntityId,
                row: &[f64],
                slot: &mut [f64]| {
        slot[0] = score(row);
        pairs.push((a, b));
    };

    // Worker scratch is pooled across chunks and waves: at most `threads`
    // chunk tasks run at once, so at most that many are ever built for the
    // whole walk.
    let scratch_pool: std::sync::Mutex<Vec<ChunkScratch>> = std::sync::Mutex::new(Vec::new());
    let scored_chunk = |chunk: ChunkSpec| {
        let pooled = scratch_pool.lock().expect("scratch pool poisoned").pop();
        let mut scratch =
            pooled.unwrap_or_else(|| ChunkScratch::new(stream.num_entities(), set, scoreboard));
        let mut probs = vec![0.0f64; chunk.len()];
        let mut pairs = Vec::with_capacity(chunk.len());
        score_chunk(
            context,
            stream,
            chunk,
            set,
            &mut scratch,
            &mut probs,
            1,
            &mut pairs,
            &emit,
        );
        scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
        (pairs, probs)
    };

    let wave = threads * 2;
    for base in (0..chunks.len()).step_by(wave) {
        let hi = (base + wave).min(chunks.len());
        let wave_results = er_core::map_ranges_parallel(hi - base, threads, hi - base, |range| {
            scored_chunk(chunks[base + range.start])
        });
        for (pairs, probs) in &wave_results {
            consume(pairs, probs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::{BlockStats, CandidatePairs, CsrBlockCollection};
    use er_core::{DatasetKind, EntityId};

    fn fixture() -> CsrBlockCollection {
        fixture_of(DatasetKind::CleanClean)
    }

    /// Six entities in five blocks; for Clean-Clean, entities 0..3 are the
    /// first source.
    fn fixture_of(kind: DatasetKind) -> CsrBlockCollection {
        let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
        let split = match kind {
            DatasetKind::CleanClean => 3,
            DatasetKind::Dirty => 6,
        };
        CsrBlockCollection::from_blocks(
            "t",
            kind,
            split,
            6,
            [
                ("a", ids(&[0, 3])),
                ("b", ids(&[0, 1, 3, 4])),
                ("c", ids(&[1, 4])),
                ("d", ids(&[2, 5])),
                ("e", ids(&[0, 1, 2, 3, 4, 5])),
            ],
        )
    }

    #[test]
    fn matrix_shape_matches_candidates_and_feature_set() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let matrix = FeatureMatrix::build(&ctx, FeatureSet::original());
        assert_eq!(matrix.num_pairs(), cands.len());
        assert_eq!(matrix.num_features(), 5);
        assert_eq!(matrix.rows().count(), cands.len());
    }

    #[test]
    fn rows_match_direct_computation() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let set = FeatureSet::all_schemes();
        let matrix = FeatureMatrix::build(&ctx, set);
        let mut expected = Vec::new();
        for (id, a, b) in cands.iter() {
            ctx.pair_features(a, b, set, &mut expected);
            assert_eq!(matrix.row(id), expected.as_slice());
        }
    }

    #[test]
    fn fused_build_matches_reference_build() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        for set in [
            FeatureSet::original(),
            FeatureSet::blast_optimal(),
            FeatureSet::all_schemes(),
        ] {
            let fused = FeatureMatrix::build(&ctx, set);
            let reference = FeatureMatrix::build_reference(&ctx, set);
            assert_eq!(fused.num_pairs(), reference.num_pairs());
            for (id, row) in reference.rows() {
                assert_eq!(fused.row(id), row, "{set}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let set = FeatureSet::blast_optimal();
        let sequential = FeatureMatrix::build_with_threads(&ctx, set, 1);
        let parallel = FeatureMatrix::build_with_threads(&ctx, set, 4);
        for (id, row) in sequential.rows() {
            assert_eq!(row, parallel.row(id));
        }
    }

    #[test]
    fn score_rows_matches_materialised_scoring() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let set = FeatureSet::all_schemes();
        let matrix = FeatureMatrix::build(&ctx, set);
        let score = |row: &[f64]| row.iter().sum::<f64>() / row.len() as f64;
        for threads in [1, 4] {
            let fused = FeatureMatrix::score_rows(&ctx, set, threads, score);
            assert_eq!(fused.len(), matrix.num_pairs());
            for (id, row) in matrix.rows() {
                assert_eq!(fused[id.index()], score(row), "{threads} threads");
            }
        }
    }

    #[test]
    fn fused_pass_handles_pruned_candidate_subsets() {
        // Regression: the scoreboard used to reset only the slots of pairs
        // present in the candidate CSR, so a `from_pairs` subset (the
        // documented re-materialisation path) leaked accumulated state from
        // one entity into the next.  Also exercises the merge fallback for
        // pairs the board never accumulates (same-source Clean-Clean pairs).
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let full = CandidatePairs::from_stats(&stats, 1);
        let mut kept: Vec<(EntityId, EntityId)> = full.pairs().iter().copied().step_by(2).collect();
        kept.push((EntityId(0), EntityId(1))); // both E1: board has no data
        kept.push((EntityId(3), EntityId(4))); // both E2: a non-emitting run
        let subset = CandidatePairs::from_pairs(bc.num_entities, kept);
        let ctx = FeatureContext::new(&stats, &subset);
        let set = FeatureSet::all_schemes();

        let reference = FeatureMatrix::build_reference(&ctx, set);
        for threads in [1, 4] {
            let fused = FeatureMatrix::build_with_threads(&ctx, set, threads);
            for (id, row) in reference.rows() {
                assert_eq!(fused.row(id), row, "{threads} threads, pair {id:?}");
            }
            let scored = FeatureMatrix::score_rows(&ctx, set, threads, |row| row[0]);
            for (id, row) in reference.rows() {
                assert_eq!(scored[id.index()], row[0], "{threads} threads");
            }
        }

        // Same exercise on a Dirty collection.
        let dirty = fixture_of(DatasetKind::Dirty);
        let dirty_stats = BlockStats::from_csr(&dirty);
        let dirty_full = CandidatePairs::from_stats(&dirty_stats, 1);
        let dirty_subset = CandidatePairs::from_pairs(
            dirty.num_entities,
            dirty_full.pairs().iter().copied().step_by(2),
        );
        let dirty_ctx = FeatureContext::new(&dirty_stats, &dirty_subset);
        let dirty_reference = FeatureMatrix::build_reference(&dirty_ctx, set);
        let dirty_fused = FeatureMatrix::build(&dirty_ctx, set);
        for (id, row) in dirty_reference.rows() {
            assert_eq!(dirty_fused.row(id), row, "dirty pair {id:?}");
        }
    }

    #[test]
    fn zero_feature_matrix_still_yields_every_row() {
        // `FeatureSet` cannot be empty through its public API, but a
        // degenerate matrix (deserialised, or built by future callers) must
        // still satisfy `rows().count() == num_pairs()`.  Regression test:
        // the former `values.chunks(num_features.max(1))` implementation
        // yielded 0 rows for `num_features == 0` while `num_pairs()` said 5.
        let matrix = FeatureMatrix {
            feature_set: FeatureSet::original(),
            num_features: 0,
            num_pairs: 5,
            values: Vec::new(),
        };
        assert_eq!(matrix.rows().count(), 5);
        for (i, (id, row)) in matrix.rows().enumerate() {
            assert_eq!(id, PairId::from(i));
            assert!(row.is_empty());
        }
    }

    #[test]
    fn projection_matches_direct_build() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let full = FeatureMatrix::build(&ctx, FeatureSet::all_schemes());
        for target in [
            FeatureSet::original(),
            FeatureSet::blast_optimal(),
            FeatureSet::rcnp_optimal(),
        ] {
            let projected = full.project(target);
            let direct = FeatureMatrix::build(&ctx, target);
            assert_eq!(projected.num_features(), direct.num_features());
            for (id, row) in direct.rows() {
                assert_eq!(projected.row(id), row, "mismatch for {target}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot project")]
    fn projection_onto_missing_scheme_panics() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let small = FeatureMatrix::build(&ctx, FeatureSet::blast_optimal());
        let _ = small.project(FeatureSet::original());
    }

    #[test]
    fn streamed_scoring_is_bit_identical_to_materialised_scoring() {
        let collections = [fixture(), fixture_of(DatasetKind::Dirty)];

        let set = FeatureSet::all_schemes();
        let score = |row: &[f64]| row.iter().sum::<f64>();
        for bc in collections {
            let stats = BlockStats::from_csr(&bc);
            let cands = CandidatePairs::from_stats(&stats, 1);
            let ctx = FeatureContext::new(&stats, &cands);
            let reference = FeatureMatrix::score_rows(&ctx, set, 1, score);

            // The derived stream re-extracts every chunk; the index-backed
            // one copies it out of `cands`.  Same engine, same bits.
            for (backing, stream) in [
                (
                    "derived",
                    er_blocking::CandidateStream::from_stats(&stats, 2),
                ),
                (
                    "index-backed",
                    er_blocking::CandidateStream::from_candidates(&stats, &cands),
                ),
            ] {
                let sctx = StreamFeatureContext::new(&stats, stream.lcp_table());
                for threads in [1, 2, 4] {
                    for chunk_pairs in [1usize, 3, 64, usize::MAX / 2] {
                        let streamed = FeatureMatrix::score_stream_with(
                            &sctx,
                            &stream,
                            set,
                            threads,
                            &ScoreboardConfig::default(),
                            chunk_pairs,
                            score,
                        );
                        assert_eq!(
                            streamed, reference,
                            "{:?} {backing} threads={threads} chunk_pairs={chunk_pairs}",
                            bc.kind
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scored_chunk_walk_concatenates_to_the_materialised_output() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let cands = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &cands);
        let set = FeatureSet::blast_optimal();
        let score = |row: &[f64]| row.iter().sum::<f64>();
        let reference = FeatureMatrix::score_rows(&ctx, set, 1, score);

        for stream in [
            er_blocking::CandidateStream::from_stats(&stats, 2),
            er_blocking::CandidateStream::from_candidates(&stats, &cands),
        ] {
            let sctx = StreamFeatureContext::new(&stats, stream.lcp_table());
            for threads in [1, 3] {
                for chunk_pairs in [1usize, 2, 5, 1024] {
                    let mut pairs = Vec::new();
                    let mut probs = Vec::new();
                    crate::generator::for_each_scored_chunk(
                        &sctx,
                        &stream,
                        set,
                        threads,
                        &ScoreboardConfig::default(),
                        chunk_pairs,
                        score,
                        |chunk_pairs_slice, chunk_probs| {
                            pairs.extend_from_slice(chunk_pairs_slice);
                            probs.extend_from_slice(chunk_probs);
                        },
                    );
                    assert_eq!(pairs.as_slice(), cands.pairs());
                    assert_eq!(probs, reference, "threads={threads} chunk={chunk_pairs}");
                }
            }
        }
    }
}
