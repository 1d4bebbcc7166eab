//! Mutation-trace property tests: streaming CRUD vs batch equivalence.
//!
//! The contract of the mutation log: applying **any** interleaving of
//! insert/remove/update batches (with compactions interleaved anywhere)
//! ends in exactly the state a one-shot batch build of the *surviving*
//! corpus produces — bit-identical blocks, candidates and probabilities —
//! for all three blocking schemes, both ER kinds and any thread count; and
//! at every intermediate point the union of emitted delta additions minus
//! retractions equals the batch candidate set of the surviving corpus.
//!
//! Removed entities are modelled batch-side as blanked profiles (no
//! attributes → no blocking keys) because streaming ids are never reused —
//! see `er_stream::surviving_dataset`.

use er_blocking::{
    build_blocks, BlockStats, CandidatePairs, KeyGenerator, QGramKeys, SuffixKeys, TokenKeys,
};
use er_core::{Dataset, EntityId, EntityProfile, FxHashSet, GroundTruth};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::{FeatureContext, FeatureMatrix, FeatureSet};
use er_learn::ProbabilisticClassifier;
use er_stream::{DeltaIndex, StreamingConfig, StreamingMetaBlocker};
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

/// Generates a deterministic trace that ingests the whole dataset with
/// removals, updates and compactions interleaved, plus a mutation-only
/// tail once everything is ingested.
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
            // Ingestion dominates so the corpus actually grows.
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
                        // Re-key with another profile's text: entities hop
                        // between clusters, exercising posting diffs.
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

/// A thread-count-independent record of one emitted delta batch.
#[derive(Debug, Clone, PartialEq)]
struct Emission {
    pairs: Vec<(EntityId, EntityId)>,
    features: Vec<f64>,
    probabilities: Vec<f64>,
    rescored: Vec<(EntityId, EntityId)>,
    rescored_features: Vec<f64>,
    rescored_probabilities: Vec<f64>,
    retracted: Vec<(EntityId, EntityId)>,
}

/// Replays a trace and asserts the full equivalence contract at every
/// compaction and at the end.  Returns the emissions for cross-thread
/// determinism checks.
fn run_trace<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    ops: &[Op],
    threads: usize,
    verify_features_each_batch: bool,
) -> Vec<Emission> {
    let config = StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    };
    let mut blocker =
        StreamingMetaBlocker::new(config, generator.clone()).with_model(Box::new(FixedModel));

    // The reference corpus the stream must converge to: ingested prefix
    // with updates applied in place and removals blanked.
    let mut current: Vec<EntityProfile> = Vec::new();
    let mut next = 0usize;
    let mut live_pairs: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
    let mut emissions = Vec::new();

    let reference = |profiles: &[EntityProfile]| Dataset {
        name: dataset.name.clone(),
        kind: dataset.kind,
        profiles: profiles.to_vec(),
        split: dataset.split.min(profiles.len()),
        ground_truth: GroundTruth::from_pairs(Vec::new()),
    };

    for op in ops {
        let delta = match op {
            Op::Ingest(take) => {
                let batch = &dataset.profiles[next..next + take];
                current.extend_from_slice(batch);
                next += take;
                blocker.ingest(batch)
            }
            Op::Remove(ids) => {
                for &e in ids {
                    current[e.index()] = EntityProfile::new(current[e.index()].external_id.clone());
                }
                blocker.remove(ids)
            }
            Op::Update(updates) => {
                for (e, profile) in updates {
                    current[e.index()] = profile.clone();
                }
                blocker.update(updates)
            }
            Op::Compact => {
                let compacted = blocker.compact();
                let batch = build_blocks(&reference(&current), &generator, threads);
                assert!(
                    compacted.same_blocks(&batch),
                    "{}: compacted state diverged ({threads} threads)",
                    dataset.name
                );
                continue;
            }
        };

        // The running candidate set moves exactly by the emitted delta:
        // every retraction was live, every addition is new.
        for pair in delta.retractions() {
            assert!(live_pairs.remove(&pair), "retracted unknown pair {pair:?}");
        }
        for &pair in delta.additions() {
            assert!(live_pairs.insert(pair), "double-emitted pair {pair:?}");
        }
        for pair in delta.rescored() {
            assert!(live_pairs.contains(pair), "rescored dead pair {pair:?}");
        }

        if verify_features_each_batch {
            verify_batch_features(&blocker, &reference(&current), &generator, &delta);
        }
        emissions.push(Emission {
            pairs: delta.pairs,
            features: delta.features,
            probabilities: delta.probabilities,
            rescored: delta.rescored_pairs,
            rescored_features: delta.rescored_features,
            rescored_probabilities: delta.rescored_probabilities,
            retracted: delta.retracted,
        });
    }
    assert_eq!(next, dataset.num_entities());

    // Final state: blocks, candidates, probabilities and LCP counters are
    // bit-identical to a one-shot batch build of the surviving corpus, and
    // the emission union equals the batch candidate set.
    let streamed = blocker.compact();
    let batch = build_blocks(&reference(&current), &generator, threads);
    assert!(streamed.same_blocks(&batch));
    assert_eq!(streamed.num_entities, batch.num_entities);
    assert_eq!(streamed.split, batch.split);

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

    let mut union: Vec<(EntityId, EntityId)> = live_pairs.into_iter().collect();
    union.sort_unstable();
    assert_eq!(union.as_slice(), batch_candidates.pairs());
    for e in 0..dataset.num_entities() {
        let entity = EntityId(e as u32);
        assert_eq!(
            blocker.index().candidates_of(entity),
            batch_candidates.candidates_of(entity),
            "LCP mismatch for entity {e}"
        );
    }
    emissions
}

/// Verifies one batch's emitted feature rows and probabilities against a
/// from-scratch batch rebuild of the current surviving corpus.
fn verify_batch_features<G: KeyGenerator>(
    blocker: &StreamingMetaBlocker<G>,
    reference: &Dataset,
    generator: &G,
    delta: &er_stream::DeltaBatch,
) {
    if delta.num_additions() == 0 && delta.num_rescored() == 0 {
        return;
    }
    let csr = build_blocks(reference, generator, 1);
    let stats = BlockStats::from_csr(&csr);
    let candidates = CandidatePairs::from_stats(&stats, 1);
    let context = FeatureContext::new(&stats, &candidates);
    let set = blocker.feature_set();
    let model = FixedModel;
    let mut expected = vec![0.0f64; set.vector_len()];
    let mut check = |pairs: &[(EntityId, EntityId)], features: &[f64], probabilities: &[f64]| {
        let width = set.vector_len();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            context.write_pair_features(a, b, set, &mut expected);
            assert_eq!(
                &features[i * width..(i + 1) * width],
                expected.as_slice(),
                "pair ({a},{b})"
            );
            assert_eq!(
                probabilities[i],
                model.probability(&expected).clamp(0.0, 1.0),
                "probability of pair ({a},{b})"
            );
        }
    };
    check(delta.additions(), &delta.features, &delta.probabilities);
    check(
        delta.rescored(),
        &delta.rescored_features,
        &delta.rescored_probabilities,
    );
}

/// Runs the full matrix for one dataset: 3 schemes × threads 1/2/4, with
/// cross-thread determinism of every emitted batch.
fn run_matrix(dataset: &Dataset, seed: u64) {
    let ops = generate_trace(dataset, seed);
    let mutations = ops
        .iter()
        .filter(|op| matches!(op, Op::Remove(_) | Op::Update(_)))
        .count();
    assert!(mutations >= 4, "trace exercised too few mutations");

    let sequential = run_trace(dataset, TokenKeys, &ops, 1, false);
    for &threads in &[2usize, 4] {
        let parallel = run_trace(dataset, TokenKeys, &ops, threads, false);
        assert_eq!(
            sequential, parallel,
            "emissions depend on thread count ({threads} threads)"
        );
    }
    run_trace(dataset, QGramKeys::new(3), &ops, 2, false);
    // A tight cap so blocks cross it in both directions mid-stream and the
    // retraction/revival paths are exercised, not just compiled.
    for &threads in &[1usize, 4] {
        run_trace(dataset, SuffixKeys::new(3, 12), &ops, threads, false);
    }
}

#[test]
fn clean_clean_mutation_traces_equal_batch_for_all_schemes() {
    run_matrix(&clean_clean_dataset(), 0x0041_5500);
}

#[test]
fn dirty_mutation_traces_equal_batch_for_all_schemes() {
    run_matrix(&dirty_dataset(), 0x0077_dead);
}

#[test]
fn per_batch_features_match_a_rebuild_of_the_surviving_corpus() {
    // One configuration with the per-batch feature audit switched on: every
    // addition and re-scored survivor must carry exactly the feature rows
    // and probabilities a from-scratch rebuild of the surviving corpus
    // produces at that instant.
    let dataset = dirty_dataset();
    let ops = generate_trace(&dataset, 0xfea7);
    run_trace(&dataset, TokenKeys, &ops, 2, true);
    let cc = clean_clean_dataset();
    let ops = generate_trace(&cc, 0xfea8);
    run_trace(&cc, SuffixKeys::new(3, 12), &ops, 2, true);
}

#[test]
fn capped_blocks_reenter_the_live_set_with_exact_stats() {
    // Deterministic cap re-entry on a real dataset: ingest everything with
    // a tight suffix cap, then remove entities until a previously capped
    // block shrinks under the cap again — its pairs must be re-emitted and
    // the final state must equal the batch build of the survivors.
    let dataset = dirty_dataset();
    let generator = SuffixKeys::new(3, 12);
    let config = StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads: 2,
        ..StreamingConfig::for_dataset(&dataset)
    };
    let mut blocker = StreamingMetaBlocker::new(config, generator).with_model(Box::new(FixedModel));
    blocker.ingest(&dataset.profiles);

    // Remove entities one by one until some removal revives at least one
    // pair (a capped block re-entering the live set).
    let mut removed: Vec<EntityId> = Vec::new();
    let mut revived_any = false;
    for e in (0..dataset.num_entities()).rev() {
        let victim = EntityId(e as u32);
        let delta = blocker.remove(&[victim]);
        removed.push(victim);
        if delta.num_additions() > 0 {
            revived_any = true;
            break;
        }
    }
    assert!(
        revived_any,
        "no capped block ever shrank back under its cap"
    );

    let survivors = er_stream::surviving_dataset(&dataset, &removed, &[]);
    let streamed = blocker.compact();
    let batch = build_blocks(&survivors, &SuffixKeys::new(3, 12), 2);
    assert!(streamed.same_blocks(&batch));
    let stream_stats = BlockStats::from_csr(&streamed);
    let batch_stats = BlockStats::from_csr(&batch);
    let stream_candidates = CandidatePairs::from_stats(&stream_stats, 2);
    let batch_candidates = CandidatePairs::from_stats(&batch_stats, 2);
    assert_eq!(stream_candidates.pairs(), batch_candidates.pairs());
    for e in 0..dataset.num_entities() {
        let entity = EntityId(e as u32);
        assert_eq!(
            blocker.index().candidates_of(entity),
            batch_candidates.candidates_of(entity)
        );
    }
}
