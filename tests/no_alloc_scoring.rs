//! Regression guards for the candidate → score → prune path doing each unit
//! of work once: the probability kernel allocates nothing, a scoring pass —
//! streamed or over the materialised index — allocates per chunk and never
//! per pair or per run, the radix board allocates nothing once it has seen
//! its longest entity, a chunked pipeline run derives each emitting
//! entity's partner run exactly once, no pruning algorithm allocates per
//! entity, and a pipeline run's live heap never holds more than 8 bytes per
//! candidate pair — the 4-byte partner index is gone before the 8-byte
//! probabilities arrive.
//!
//! The allocation and live-byte counters are process-wide and the run
//! counter lives in the process-wide er-obs registry, so the tests of this
//! binary take turns; guards over single-threaded code read the calling
//! thread's own count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use gsmb::blocking::{
    standard_blocking_workflow_csr, BlockStats, CandidatePairs, CandidateStream,
    DEFAULT_CHUNK_PAIRS,
};
use gsmb::core::{Dataset, EntityId, PairId};
use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::features::{
    FeatureContext, FeatureMatrix, FeatureSet, RadixScoreboard, ScoreboardConfig,
    StreamFeatureContext,
};
use gsmb::learn::{ProbabilisticClassifier, SavedModel, TrainingSet};
use gsmb::meta::pipeline::{ClassifierKind, MetaBlockingConfig, MetaBlockingPipeline};
use gsmb::meta::pruning::{
    AlgorithmKind, Bcl, Blast, Cep, Cnp, PruningAlgorithm, Rcnp, Rwnp, Wep, Wnp,
};
use gsmb::meta::scoring::CachedScores;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The highest [`LIVE_BYTES`] reading since the last reset.
static PEAK_LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's share of [`ALLOCATIONS`]: a single-threaded
    /// guard reads this one, so the test harness reporting another test's
    /// result at the same moment cannot show up in it.  Const-initialised
    /// and without a destructor, so touching it never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn count_live_growth(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn count_live_release(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are relaxed counter updates and a thread-local one, none
// of which touches memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_live_growth(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live_release(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count_live_growth(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            // Counted as the new block arriving before the old one leaves,
            // which is what a moving reallocation holds at its peak.
            count_live_growth(new_size);
            count_live_release(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static TURN: Mutex<()> = Mutex::new(());

/// Allocator calls (alloc, alloc_zeroed, realloc) made while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The most heap `f` held live at once, over what was live when it started
/// (process-wide, so the tests of this binary take turns).
fn peak_live_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(before, Ordering::Relaxed);
    let value = f();
    let peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed);
    (value, peak.saturating_sub(before))
}

/// Allocator calls made by the calling thread while `f` runs.
fn thread_allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, THREAD_ALLOCATIONS.with(Cell::get) - before)
}

fn dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::Movies, &CatalogOptions::tiny()).unwrap()
}

/// Both classifier kinds, fitted on the given rows with alternating labels
/// (the guards below care about where the models allocate, not what they
/// learned).
fn trained_models(rows: &[Vec<f64>]) -> Vec<SavedModel> {
    let mut training = TrainingSet::new();
    for (i, row) in rows.iter().enumerate() {
        training.push(row.clone(), i % 2 == 0);
    }
    [
        ClassifierKind::Logistic(Default::default()),
        ClassifierKind::Svm(Default::default()),
    ]
    .iter()
    .map(|kind| kind.fit_saved(&training).unwrap())
    .collect()
}

#[test]
fn probability_allocates_nothing_and_streamed_scoring_allocates_per_chunk() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    let (_, stats) = standard_blocking_workflow_csr(&dataset, 2);
    let candidates = CandidatePairs::try_from_stats(&stats, 2).unwrap();
    let set = FeatureSet::all_schemes();
    let context = FeatureContext::new(&stats, &candidates);
    let rows: Vec<Vec<f64>> = candidates
        .pairs()
        .iter()
        .take(100)
        .map(|&(a, b)| {
            let mut row = vec![0.0f64; set.vector_len()];
            context.write_pair_features(a, b, set, &mut row);
            row
        })
        .collect();
    let models = trained_models(&rows);
    for model in &models {
        let (sum, allocations) = thread_allocations_during(|| {
            let mut sum = 0.0f64;
            for _ in 0..100 {
                for row in &rows {
                    sum += model.probability(row);
                }
            }
            sum
        });
        assert!(sum.is_finite());
        assert_eq!(
            allocations, 0,
            "10 000 probability() calls must not touch the allocator"
        );
    }

    // One streamed scoring pass over the index-backed stream, small chunks:
    // the budget is one allocation per chunk plus a constant (output vector,
    // slice table, worker threads and their scratch, the radix board's
    // entries and the folded list growing to the longest entity), and the
    // pair count is far above it — one allocation per pair cannot pass.
    let chunk_pairs = 64usize;
    let stream = CandidateStream::from_candidates(&stats, &candidates);
    let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
    let chunks = stream.chunks(chunk_pairs).len() as u64;
    let pairs = candidates.len() as u64;
    let budget = 64 + chunks;
    assert!(
        pairs >= 8 * budget,
        "fixture too small: {pairs} pairs against a budget of {budget}"
    );
    let model = &models[0];
    let (scores, allocations) = allocations_during(|| {
        FeatureMatrix::score_stream_with(
            &stream_context,
            &stream,
            set,
            2,
            &ScoreboardConfig::default(),
            chunk_pairs,
            |row| model.probability(row).clamp(0.0, 1.0),
        )
    });
    assert_eq!(scores.len(), candidates.len());
    assert!(
        allocations <= budget,
        "{allocations} allocations for {pairs} pairs in {chunks} chunks (budget {budget})"
    );

    // The same pass with chunks of many runs each: the same budget now sits
    // far below the number of runs the board folds, so one allocation per
    // run cannot pass either.
    let chunk_pairs = 1024usize;
    let chunks = stream.chunks(chunk_pairs).len() as u64;
    let budget = 64 + chunks;
    let runs = (0..candidates.num_entities())
        .filter(|&e| !candidates.partners_of(EntityId(e as u32)).is_empty())
        .count() as u64;
    assert!(
        runs >= 8 * budget,
        "fixture too small: {runs} runs against a budget of {budget}"
    );
    let (scores, allocations) = allocations_during(|| {
        FeatureMatrix::score_stream_with(
            &stream_context,
            &stream,
            set,
            2,
            &ScoreboardConfig::default(),
            chunk_pairs,
            |row| model.probability(row).clamp(0.0, 1.0),
        )
    });
    assert_eq!(scores.len(), candidates.len());
    assert!(
        allocations <= budget,
        "{allocations} allocations for {runs} runs in {chunks} chunks (budget {budget})"
    );

    // The probability pass over the materialised index runs the same chunk
    // driver, over an index-backed stream of default-sized chunks: the same
    // kind of budget, one allocation per chunk plus a constant (the stream's
    // offset and LCP tables on top of the pass's own), again far below the
    // number of runs.
    let chunks = stream.chunks(DEFAULT_CHUNK_PAIRS).len() as u64;
    let budget = 64 + chunks;
    assert!(
        runs >= 8 * budget,
        "fixture too small: {runs} runs against a budget of {budget}"
    );
    let (scores, allocations) = allocations_during(|| {
        FeatureMatrix::score_rows_with(&context, set, 2, &ScoreboardConfig::default(), |row| {
            model.probability(row).clamp(0.0, 1.0)
        })
    });
    let streamed = FeatureMatrix::score_stream_with(
        &stream_context,
        &stream,
        set,
        2,
        &ScoreboardConfig::default(),
        DEFAULT_CHUNK_PAIRS,
        |row| model.probability(row).clamp(0.0, 1.0),
    );
    assert_eq!(scores, streamed);
    assert!(
        allocations <= budget,
        "{allocations} allocations for {runs} runs in {chunks} chunks (budget {budget})"
    );
}

/// The radix board's entry and grouping arrays grow to the longest entity
/// the worker is handed, and its accumulators are one tile from the start:
/// folding and draining any number of entities no longer than that touches
/// the allocator not once.
#[test]
fn radix_board_allocates_nothing_once_its_longest_run_has_been_seen() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let longest = 5000usize;
    let num_entities = 1usize << 16;
    let mut board = RadixScoreboard::new(num_entities, &ScoreboardConfig::default());
    let mut drained = Vec::new();
    let (_, growth) = thread_allocations_during(|| {
        // Spread over every tile: the grouping array grows too.
        for i in 0..longest as u32 {
            board.add(i * 13 % num_entities as u32, 0.5, 0.25);
        }
        board.drain_sorted_into(&mut drained);
    });
    assert!(growth > 0, "the first long entity has to allocate");
    assert_eq!(drained.len(), longest);
    let scratch = board.scratch_bytes();

    let (checksum, allocations) = thread_allocations_during(|| {
        let mut checksum = 0usize;
        for round in 0..200usize {
            // Lengths sweep 1..=longest, ids move with the round; every
            // other entity stays inside one tile.
            let len = 1 + (round * 997) % longest;
            let base = (round * 31) as u32;
            let stride = if round % 2 == 0 { 3 } else { 1 };
            for i in 0..len as u32 {
                board.add((base + stride * i) % num_entities as u32, 0.5, 0.25);
            }
            board.drain_sorted_into(&mut drained);
            checksum += drained
                .iter()
                .map(|(_, agg)| agg.common_blocks)
                .sum::<usize>();
        }
        checksum
    });
    assert!(checksum > 0);
    assert_eq!(
        allocations, 0,
        "entities no longer than the longest one seen must reuse the board"
    );
    assert_eq!(board.scratch_bytes(), scratch);
}

/// `blocking_candidate_runs_derived_total` counts every gather + sort +
/// dedup of one entity's partner run.  A pipeline run — chunked scoring
/// included — derives each emitting entity's run once: the index is built by
/// a single gather, and the scoring pass folds every run off the blocks on
/// its board, which derives nothing.
#[test]
fn chunked_pipeline_run_derives_each_emitting_run_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    let config = MetaBlockingConfig {
        candidate_chunk_pairs: Some(64),
        threads: Some(2),
        ..Default::default()
    };
    let derived = || {
        gsmb::obs::snapshot()
            .value("blocking_candidate_runs_derived_total")
            .expect("counter registered by the first extraction")
    };
    // The first run registers the handle; measure the second.
    let pipeline = MetaBlockingPipeline::new(config);
    pipeline.run(&dataset, AlgorithmKind::Blast).unwrap();
    let before = derived();
    let outcome = pipeline.run(&dataset, AlgorithmKind::Blast).unwrap();
    let runs = derived() - before;

    let stats = BlockStats::from_csr(&outcome.blocks);
    let emitting = CandidateStream::from_stats(&stats, 1).emitting_entities();
    assert!(emitting > 0);
    assert_eq!(
        runs, emitting as u64,
        "one pipeline run must derive each of the {emitting} emitting runs exactly once"
    );
}

/// Every pruning algorithm decides on the valid pairs with a fixed number
/// of corpus-sized tables (per-entity aggregates, the grouped top-`k`
/// lists, the output), never one allocation per entity: the bound holds at
/// 50 000 entities and at twice that.  The output and the valid list grow
/// by doubling, so a few dozen reallocations are the whole budget.
#[test]
fn pruning_allocates_no_table_per_entity() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const BUDGET: u64 = 64;
    for num_entities in [50_000u32, 100_000] {
        // Every entity is in six pairs with its ring neighbours; a third of
        // the pairs are valid, with ties.
        let pairs = (0..num_entities).flat_map(|a| {
            [1u32, 2, 7].map(move |offset| (EntityId(a), EntityId((a + offset) % num_entities)))
        });
        let candidates = CandidatePairs::from_pairs(num_entities as usize, pairs);
        let probabilities = (0..candidates.len())
            .map(|i| {
                if i % 3 == 0 {
                    0.5 + (i % 11) as f64 / 22.0
                } else {
                    0.3
                }
            })
            .collect();
        let scores = CachedScores::new(probabilities);
        let algorithms: [Box<dyn PruningAlgorithm>; 8] = [
            Box::new(Bcl),
            Box::new(Wep),
            Box::new(Wnp),
            Box::new(Rwnp),
            Box::new(Blast::default()),
            Box::new(Cep::new(candidates.len() / 10)),
            Box::new(Cnp::new(1)),
            Box::new(Rcnp::new(1)),
        ];
        for algorithm in &algorithms {
            let (retained, allocations) =
                thread_allocations_during(|| algorithm.prune(&candidates, &scores));
            assert!(!retained.is_empty(), "{}", algorithm.name());
            assert!(retained.windows(2).all(|w| w[0] < w[1]));
            assert!(retained
                .iter()
                .all(|&id| id < PairId::from(candidates.len())));
            assert!(
                allocations <= BUDGET,
                "{}: {allocations} allocations at {num_entities} entities (budget {BUDGET})",
                algorithm.name()
            );
        }
    }
}

/// A pipeline run's live heap is bounded by 8 bytes per candidate pair plus
/// 24 per valid pair: the probabilities (8 bytes per pair) and the valid
/// list while scoring.  The 4-byte partner index is released before the
/// probabilities are allocated, so the two are never live together.  On top
/// of that the bound allows slack linear in the entities and the block
/// postings (blocking, statistics, per-entity tables and the index's
/// counts) and in the scoring workers' chunk scratch.  Holding the index
/// through scoring — 12 bytes per pair — pushes the peak past the bound.
///
/// The peak is not scoring but the gather before training: its task
/// buffers grow by doubling and are live beside the zeroed index at
/// placement, ≈10.9 bytes per pair on this fixture (26.2 MB against a
/// 27.5 MB bound), which fits only through the valid-pair and slack terms.
///
/// The corpus is the Movies analogue at twice its full scale, where the
/// index (4 bytes per pair) is well above the slack.
#[test]
fn pipeline_run_never_holds_a_candidate_index() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const SLACK_PER_ENTITY_OR_POSTING: usize = 48;
    const CHUNK_SCRATCH_PER_PAIR: usize = 64;
    let options = CatalogOptions {
        scale: 2.0,
        ..CatalogOptions::tiny()
    };
    let dataset = generate_catalog_dataset(DatasetName::Movies, &options).unwrap();
    let (threads, chunk_pairs) = (2usize, 4096usize);
    let pipeline = MetaBlockingPipeline::new(MetaBlockingConfig {
        threads: Some(threads),
        candidate_chunk_pairs: Some(chunk_pairs),
        ..Default::default()
    });
    // The first run registers the obs handles and warms lazily built state.
    drop(pipeline.run(&dataset, AlgorithmKind::Blast).unwrap());
    let (outcome, peak) =
        peak_live_bytes_during(|| pipeline.run(&dataset, AlgorithmKind::Blast).unwrap());

    let pairs = outcome.num_candidates;
    let valid = outcome.valid.pairs().len();
    let entities = dataset.num_entities();
    let postings = outcome.blocks.sum_block_sizes() as usize;
    let slack = SLACK_PER_ENTITY_OR_POSTING * (entities + postings)
        + CHUNK_SCRATCH_PER_PAIR * threads * chunk_pairs;
    let bound = 8 * pairs + 24 * valid + slack;
    assert!(
        4 * pairs > slack,
        "fixture too small: the index ({} B) fits the slack ({slack} B)",
        4 * pairs
    );
    assert!(
        peak <= bound,
        "a pipeline run peaked at {peak} live bytes for {pairs} pairs ({valid} valid), \
         {entities} entities and {postings} postings (bound {bound}: 8 B per pair, 24 B per \
         valid pair, plus slack)"
    );
}
