//! Sharded-service equivalence: any shard count × any thread count is
//! bit-identical to the single-shard, single-thread oracle.
//!
//! Random mutation traces (ingest / remove / update batches with
//! compactions interleaved) are replayed through
//! `ShardedStreamingService` at shards 1/2/4 × threads 1/2/4 and every
//! emitted `DeltaBatch` — pairs, feature rows, probabilities, re-scores,
//! retractions, touched keys, mutated entities — must equal the oracle's
//! field for field.  Compactions must equal the oracle's compaction, the
//! final state must equal a one-shot batch build of the surviving corpus,
//! and per-entity LCP candidate lists must match the batch candidates.

use er_blocking::{
    build_blocks, BlockStats, CandidatePairs, KeyGenerator, QGramKeys, SuffixKeys, TokenKeys,
};
use er_core::{Dataset, EntityId, EntityProfile, GroundTruth};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::FeatureSet;
use er_learn::ProbabilisticClassifier;
use er_shard::ShardedStreamingService;
use er_stream::{BlockIndex, DeltaBatch, StreamingConfig, StreamingMetaBlocker};
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

/// One step of a mutation trace.
#[derive(Debug, Clone)]
enum Op {
    Ingest(usize),
    Remove(Vec<EntityId>),
    Update(Vec<(EntityId, EntityProfile)>),
    Compact,
}

/// Generates a deterministic trace interleaving ingests, removals,
/// updates and compactions (same shape as er-stream's mutation suite).
fn generate_trace(dataset: &Dataset, seed: u64) -> Vec<Op> {
    let n = dataset.num_entities();
    let mut rng = er_core::seeded_rng(seed);
    let mut ops = Vec::new();
    let mut next = 0usize;
    let mut alive: Vec<u32> = Vec::new();
    let mut step = 0usize;
    let mut mutation_tail = 6usize;
    while next < n || mutation_tail > 0 {
        step += 1;
        let choice = if next < n {
            rng.gen_range(0..5)
        } else {
            mutation_tail -= 1;
            rng.gen_range(3..5)
        };
        match choice {
            0..=2 => {
                let take = rng.gen_range(1..=(n - next).min(29));
                alive.extend((next..next + take).map(|e| e as u32));
                ops.push(Op::Ingest(take));
                next += take;
            }
            3 => {
                if alive.len() < 4 {
                    continue;
                }
                let count = rng.gen_range(1..=3usize.min(alive.len() - 1));
                let mut victims = Vec::with_capacity(count);
                for _ in 0..count {
                    let at = rng.gen_range(0..alive.len());
                    victims.push(EntityId(alive.swap_remove(at)));
                }
                ops.push(Op::Remove(victims));
            }
            _ => {
                if alive.is_empty() {
                    continue;
                }
                let count = rng.gen_range(1..=3usize.min(alive.len()));
                let mut chosen: Vec<u32> = Vec::new();
                for _ in 0..count {
                    let e = alive[rng.gen_range(0..alive.len())];
                    if !chosen.contains(&e) {
                        chosen.push(e);
                    }
                }
                let updates = chosen
                    .into_iter()
                    .map(|e| {
                        let donor = rng.gen_range(0..n);
                        (EntityId(e), dataset.profiles[donor].clone())
                    })
                    .collect();
                ops.push(Op::Update(updates));
            }
        }
        if step.is_multiple_of(3) {
            ops.push(Op::Compact);
        }
    }
    ops.push(Op::Compact);
    ops
}

/// Field-for-field equality of two delta batches (`DeltaBatch` does not
/// derive `PartialEq` on purpose — equivalence must be explicit about
/// what it covers).
#[track_caller]
fn assert_delta_eq(expected: &DeltaBatch, got: &DeltaBatch, what: &str) {
    assert_eq!(expected.epoch, got.epoch, "{what}: epoch");
    assert_eq!(expected.first_id, got.first_id, "{what}: first_id");
    assert_eq!(
        expected.num_ingested, got.num_ingested,
        "{what}: num_ingested"
    );
    assert_eq!(expected.num_removed, got.num_removed, "{what}: num_removed");
    assert_eq!(expected.num_updated, got.num_updated, "{what}: num_updated");
    assert_eq!(
        expected.feature_width, got.feature_width,
        "{what}: feature_width"
    );
    assert_eq!(expected.pairs, got.pairs, "{what}: pairs");
    assert_eq!(expected.features, got.features, "{what}: features");
    assert_eq!(
        expected.probabilities, got.probabilities,
        "{what}: probabilities"
    );
    assert_eq!(
        expected.rescored_pairs, got.rescored_pairs,
        "{what}: rescored_pairs"
    );
    assert_eq!(
        expected.rescored_features, got.rescored_features,
        "{what}: rescored_features"
    );
    assert_eq!(
        expected.rescored_probabilities, got.rescored_probabilities,
        "{what}: rescored_probabilities"
    );
    assert_eq!(expected.retracted, got.retracted, "{what}: retracted");
    assert_eq!(
        expected.touched_keys, got.touched_keys,
        "{what}: touched_keys"
    );
    assert_eq!(
        expected.mutated_entities, got.mutated_entities,
        "{what}: mutated_entities"
    );
}

/// What the oracle recorded at each step: a delta per mutation, blocks
/// per compaction.
enum Recorded {
    Delta(Box<DeltaBatch>),
    Compacted(er_blocking::CsrBlockCollection),
}

fn config(dataset: &Dataset, threads: usize) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// Replays the trace through the single-shard blocker (threads = 1),
/// recording every emission, and returns the record plus the surviving
/// reference corpus.
fn oracle_run<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    ops: &[Op],
) -> (Vec<Recorded>, Vec<EntityProfile>) {
    let mut blocker =
        StreamingMetaBlocker::new(config(dataset, 1), generator).with_model(Box::new(FixedModel));
    let mut current: Vec<EntityProfile> = Vec::new();
    let mut next = 0usize;
    let mut recorded = Vec::new();
    for op in ops {
        match op {
            Op::Ingest(take) => {
                let batch = &dataset.profiles[next..next + take];
                current.extend_from_slice(batch);
                next += take;
                recorded.push(Recorded::Delta(Box::new(blocker.ingest(batch))));
            }
            Op::Remove(ids) => {
                for &e in ids {
                    current[e.index()] = EntityProfile::new(current[e.index()].external_id.clone());
                }
                recorded.push(Recorded::Delta(Box::new(blocker.remove(ids))));
            }
            Op::Update(updates) => {
                for (e, profile) in updates {
                    current[e.index()] = profile.clone();
                }
                recorded.push(Recorded::Delta(Box::new(blocker.update(updates))));
            }
            Op::Compact => {
                recorded.push(Recorded::Compacted(blocker.compact()));
            }
        }
    }
    (recorded, current)
}

/// Replays the trace through a sharded service and asserts every step —
/// and the final state — against the oracle's record.
fn sharded_run<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    ops: &[Op],
    recorded: &[Recorded],
    survivors: &[EntityProfile],
    num_shards: usize,
    threads: usize,
) {
    let tag = format!("{}: shards={num_shards} threads={threads}", dataset.name);
    let mut service =
        ShardedStreamingService::new(config(dataset, threads), generator.clone(), num_shards)
            .unwrap()
            .with_model(Box::new(FixedModel));
    let reader = service.reader();
    let mut next = 0usize;
    assert_eq!(ops.len(), recorded.len());
    for (op, expected) in ops.iter().zip(recorded) {
        match (op, expected) {
            (Op::Ingest(take), Recorded::Delta(expected)) => {
                let batch = &dataset.profiles[next..next + take];
                next += take;
                let got = service.ingest(batch);
                assert_delta_eq(expected, &got, &tag);
            }
            (Op::Remove(ids), Recorded::Delta(expected)) => {
                let got = service.remove(ids);
                assert_delta_eq(expected, &got, &tag);
            }
            (Op::Update(updates), Recorded::Delta(expected)) => {
                let got = service.update(updates);
                assert_delta_eq(expected, &got, &tag);
            }
            (Op::Compact, Recorded::Compacted(expected)) => {
                let got = service.compact();
                assert!(got.same_blocks(expected), "{tag}: compaction diverged");
            }
            _ => unreachable!("trace and record disagree on op kinds"),
        }
        // Every step published a view a concurrent reader can see.
        assert_eq!(reader.load().num_entities, service.num_entities(), "{tag}");
    }

    // Final state equals a one-shot batch build of the surviving corpus.
    let reference = Dataset {
        name: dataset.name.clone(),
        kind: dataset.kind,
        profiles: survivors.to_vec(),
        split: dataset.split.min(survivors.len()),
        ground_truth: GroundTruth::from_pairs(Vec::new()),
    };
    let streamed = service.compact();
    let batch = build_blocks(&reference, &generator, threads);
    assert!(
        streamed.same_blocks(&batch),
        "{tag}: final state diverged from the batch build"
    );
    let batch_stats = BlockStats::from_csr(&batch);
    let batch_candidates = CandidatePairs::from_stats(&batch_stats, threads);
    for e in 0..dataset.num_entities() {
        let entity = EntityId(e as u32);
        assert_eq!(
            service.index().candidates_of(entity),
            batch_candidates.candidates_of(entity),
            "{tag}: LCP mismatch for entity {e}"
        );
    }
}

/// The full matrix for one dataset and generator: oracle once, then
/// shards 1/2/4 × threads 1/2/4.
fn run_matrix<G: KeyGenerator + Clone>(dataset: &Dataset, generator: G, seed: u64) {
    let ops = generate_trace(dataset, seed);
    let mutations = ops
        .iter()
        .filter(|op| matches!(op, Op::Remove(_) | Op::Update(_)))
        .count();
    assert!(mutations >= 4, "trace exercised too few mutations");
    let (recorded, survivors) = oracle_run(dataset, generator.clone(), &ops);
    for &num_shards in &[1usize, 2, 4] {
        for &threads in &[1usize, 2, 4] {
            sharded_run(
                dataset,
                generator.clone(),
                &ops,
                &recorded,
                &survivors,
                num_shards,
                threads,
            );
        }
    }
}

#[test]
fn clean_clean_token_traces_are_shard_count_invariant() {
    run_matrix(&clean_clean_dataset(), TokenKeys, 0x5aa5_0001);
}

#[test]
fn dirty_token_traces_are_shard_count_invariant() {
    run_matrix(&dirty_dataset(), TokenKeys, 0x5aa5_0002);
}

#[test]
fn clean_clean_qgram_traces_are_shard_count_invariant() {
    run_matrix(&clean_clean_dataset(), QGramKeys::new(3), 0x5aa5_0003);
}

#[test]
fn dirty_qgram_traces_are_shard_count_invariant() {
    run_matrix(&dirty_dataset(), QGramKeys::new(3), 0x5aa5_0004);
}

#[test]
fn clean_clean_suffix_traces_are_shard_count_invariant() {
    // The tight suffix cap makes blocks cross the cap in both directions
    // mid-stream, so retraction/revival paths cross shard boundaries too.
    run_matrix(&clean_clean_dataset(), SuffixKeys::new(3, 12), 0x5aa5_0005);
}

#[test]
fn dirty_suffix_traces_are_shard_count_invariant() {
    run_matrix(&dirty_dataset(), SuffixKeys::new(3, 12), 0x5aa5_0006);
}
