//! Streaming-vs-batch equivalence property tests.
//!
//! The contract of the streaming subsystem: ingesting a corpus in **any**
//! split into batches, with compactions interleaved anywhere, ends in
//! exactly the state a one-shot batch build produces — bit-identical
//! blocks, candidates and probabilities — for all three blocking schemes,
//! both ER kinds and any thread count.

use er_blocking::{
    build_blocks, BlockStats, CandidatePairs, KeyGenerator, QGramKeys, SuffixKeys, TokenKeys,
};
use er_core::{Dataset, EntityId};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::{FeatureContext, FeatureMatrix, FeatureSet};
use er_learn::ProbabilisticClassifier;
use er_stream::{DeltaBatch, DeltaIndex, StreamingConfig, StreamingMetaBlocker};
use rand::Rng;

/// A fixed linear model: deterministic probabilities without training.
struct FixedModel;

impl ProbabilisticClassifier for FixedModel {
    fn probability(&self, features: &[f64]) -> f64 {
        let z: f64 = features
            .iter()
            .enumerate()
            .map(|(i, &x)| (0.35 + 0.2 * i as f64) * x)
            .sum::<f64>()
            - 1.0;
        1.0 / (1.0 + (-z).exp())
    }
}

fn clean_clean_dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
}

fn dirty_dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

/// The batch splits of the satellite matrix: singletons, random sizes, one
/// shot.  Returned as a list of batch lengths summing to `n`.
fn batch_splits(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let singletons = vec![1usize; n];
    let mut rng = er_core::seeded_rng(seed);
    let mut random = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = rng.gen_range(1..=left.min(37));
        random.push(take);
        left -= take;
    }
    vec![singletons, random, vec![n]]
}

/// Ingests `dataset` according to `split`, compacting every third batch
/// when `interleave_compactions`, and returns the blocker plus every
/// emitted delta batch.
fn ingest<G: KeyGenerator>(
    dataset: &Dataset,
    generator: G,
    split: &[usize],
    threads: usize,
    interleave_compactions: bool,
) -> (StreamingMetaBlocker<G>, Vec<DeltaBatch>) {
    let config = StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    };
    let mut blocker = StreamingMetaBlocker::new(config, generator).with_model(Box::new(FixedModel));
    let mut batches = Vec::new();
    let mut cursor = 0usize;
    for (i, &len) in split.iter().enumerate() {
        batches.push(blocker.ingest(&dataset.profiles[cursor..cursor + len]));
        cursor += len;
        if interleave_compactions && i % 3 == 2 {
            blocker.compact();
        }
    }
    assert_eq!(cursor, dataset.num_entities());
    (blocker, batches)
}

/// Asserts the full equivalence contract for one scheme × dataset × split ×
/// thread count, returning the union of emitted pairs for extra checks.
fn assert_equivalence<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    split: &[usize],
    threads: usize,
) {
    let (mut blocker, batches) = ingest(dataset, generator.clone(), split, threads, true);
    let streamed = blocker.compact();
    let batch = build_blocks(dataset, &generator, threads);

    // Blocks: bit-identical collection.
    assert!(
        streamed.same_blocks(&batch),
        "{}: blocks diverged (split of {} batches, {threads} threads)",
        dataset.name,
        split.len()
    );
    assert_eq!(streamed.num_entities, batch.num_entities);
    assert_eq!(streamed.split, batch.split);

    // Candidates and probabilities: derived from the compacted state through
    // the standard CSR path, compared bit-for-bit against the batch build.
    let set = FeatureSet::all_schemes();
    let stream_stats = BlockStats::from_csr(&streamed);
    let stream_candidates = CandidatePairs::from_stats(&stream_stats, threads);
    let batch_stats = BlockStats::from_csr(&batch);
    let batch_candidates = CandidatePairs::from_stats(&batch_stats, threads);
    assert_eq!(stream_candidates.pairs(), batch_candidates.pairs());
    let stream_context = FeatureContext::new(&stream_stats, &stream_candidates);
    let batch_context = FeatureContext::new(&batch_stats, &batch_candidates);
    let model = FixedModel;
    let stream_probabilities =
        FeatureMatrix::score_rows(&stream_context, set, threads, |row| model.probability(row));
    let batch_probabilities =
        FeatureMatrix::score_rows(&batch_context, set, threads, |row| model.probability(row));
    assert_eq!(stream_probabilities, batch_probabilities);

    // Delta emission: the union of emitted pairs minus retractions is
    // exactly the batch candidate set, and the incremental LCP counters
    // match the batch per-entity candidate counts.
    let mut emitted: Vec<(EntityId, EntityId)> = Vec::new();
    let mut retracted: Vec<(EntityId, EntityId)> = Vec::new();
    for delta in &batches {
        emitted.extend_from_slice(&delta.pairs);
        retracted.extend_from_slice(&delta.retracted);
    }
    for pair in retracted {
        let at = emitted
            .iter()
            .position(|&p| p == pair)
            .expect("retracted a pair that was never emitted");
        emitted.swap_remove(at);
    }
    emitted.sort_unstable();
    assert_eq!(emitted.as_slice(), batch_candidates.pairs());
    for e in 0..dataset.num_entities() {
        let entity = EntityId(e as u32);
        assert_eq!(
            blocker.index().candidates_of(entity),
            batch_candidates.candidates_of(entity),
            "LCP mismatch for entity {e}"
        );
    }
}

/// Runs the full satellite matrix for one dataset: 3 schemes × 3 splits ×
/// threads 1/2/4.
fn run_matrix(dataset: &Dataset) {
    let splits = batch_splits(
        dataset.num_entities(),
        0x57ee_a000 + dataset.num_entities() as u64,
    );
    for (s, split) in splits.iter().enumerate() {
        for &threads in &[1usize, 2, 4] {
            // The singleton split is the most expensive; exercise it with
            // the extreme thread counts only.
            if s == 0 && threads == 2 {
                continue;
            }
            assert_equivalence(dataset, TokenKeys, split, threads);
            assert_equivalence(dataset, QGramKeys::new(3), split, threads);
            // A tight cap so blocks actually cross it mid-stream and the
            // retraction path is exercised, not just compiled.
            assert_equivalence(dataset, SuffixKeys::new(3, 12), split, threads);
        }
    }
}

#[test]
fn clean_clean_streaming_equals_batch_for_all_schemes_and_splits() {
    run_matrix(&clean_clean_dataset());
}

#[test]
fn dirty_streaming_equals_batch_for_all_schemes_and_splits() {
    run_matrix(&dirty_dataset());
}

#[test]
fn single_batch_delta_probabilities_match_the_batch_pipeline() {
    // When the whole corpus arrives in one batch, the delta emission *is*
    // the batch result: features and probabilities must be bit-identical to
    // the fused batch scoring pass over the same pairs.
    for dataset in [clean_clean_dataset(), dirty_dataset()] {
        let n = dataset.num_entities();
        let (blocker, batches) = ingest(&dataset, TokenKeys, &[n], 2, false);
        assert_eq!(batches.len(), 1);
        let delta = &batches[0];

        let batch = build_blocks(&dataset, &TokenKeys, 2);
        let stats = BlockStats::from_csr(&batch);
        let candidates = CandidatePairs::from_stats(&stats, 2);
        let context = FeatureContext::new(&stats, &candidates);
        let set = blocker.feature_set();
        let model = FixedModel;
        let expected = FeatureMatrix::score_rows(&context, set, 2, |row| {
            model.probability(row).clamp(0.0, 1.0)
        });

        // Delta pairs are grouped by larger endpoint; map them onto the
        // batch pair ids to compare probabilities pairwise.
        assert_eq!(delta.num_additions(), candidates.len());
        for (i, &(a, b)) in delta.pairs.iter().enumerate() {
            let id = candidates
                .pairs()
                .binary_search(&(a, b))
                .expect("delta pair missing from batch candidates");
            assert_eq!(delta.probabilities[i], expected[id], "pair ({a},{b})");
        }
    }
}

#[test]
fn retractions_only_occur_under_a_size_cap() {
    let dataset = dirty_dataset();
    let splits = batch_splits(dataset.num_entities(), 0xca11);
    let (_, batches) = ingest(&dataset, TokenKeys, &splits[1], 1, false);
    assert!(batches.iter().all(|b| b.retracted.is_empty()));
}
