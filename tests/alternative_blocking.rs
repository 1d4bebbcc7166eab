//! Integration tests for the alternative redundancy-positive blocking methods
//! (Q-Grams, Suffix Arrays) and the progressive/materialisation extensions:
//! meta-blocking must work unchanged on any redundancy-positive block
//! collection, exactly as the paper states.

use std::time::Duration;

use gsmb::blocking::{
    block_filtering_csr, block_purging_csr, qgrams_blocking_csr, suffix_array_blocking_csr,
    BlockStats, CandidatePairs, CsrBlockCollection, SuffixArrayConfig,
};
use gsmb::core::PairId;
use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::{default_config, run_with_matrix, train_and_score, PreparedDataset};
use gsmb::eval::Effectiveness;
use gsmb::features::{FeatureContext, FeatureMatrix, FeatureSet};
use gsmb::learn::balanced_undersample;
use gsmb::learn::TrainingSet;
use gsmb::meta::materialize::{materialize_blocks_csr, PruningSummary};
use gsmb::meta::pipeline::MetaBlockingConfig;
use gsmb::meta::progressive::ProgressiveSchedule;
use gsmb::meta::pruning::{AlgorithmKind, ValidPairs};

fn tiny_dataset() -> gsmb::core::Dataset {
    generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
}

/// Runs the supervised meta-blocking core on an arbitrary block collection.
fn run_on_blocks(
    dataset: &gsmb::core::Dataset,
    blocks: CsrBlockCollection,
) -> (Effectiveness, usize) {
    let stats = BlockStats::from_csr(&blocks);
    let candidates = CandidatePairs::from_stats(&stats, 2);
    assert!(!candidates.is_empty());
    let context = FeatureContext::new(&stats, &candidates);
    let matrix = FeatureMatrix::build(&context, FeatureSet::blast_optimal());

    let mut rng = gsmb::core::seeded_rng(11);
    let per_class = (candidates.count_positives(&dataset.ground_truth) / 2).clamp(5, 25);
    let sample = balanced_undersample(
        candidates.pairs(),
        &dataset.ground_truth,
        per_class,
        &mut rng,
    )
    .unwrap();
    let mut training = TrainingSet::new();
    for (&idx, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        training.push(matrix.row(PairId::from(idx)).to_vec(), label);
    }
    let model = gsmb::meta::pipeline::ClassifierKind::default()
        .fit(&training)
        .unwrap();
    let probabilities: Vec<f64> = (0..matrix.num_pairs())
        .map(|i| {
            model
                .probability(matrix.row(PairId::from(i)))
                .clamp(0.0, 1.0)
        })
        .collect();
    let scores = gsmb::meta::scoring::CachedScores::new(probabilities);
    let pruner = AlgorithmKind::Blast.build_csr(&blocks);
    let retained = pruner.prune(&candidates, &scores);
    let retained_pairs: Vec<_> = retained.iter().map(|&id| candidates.pair(id)).collect();
    (
        Effectiveness::evaluate(
            &retained_pairs,
            &dataset.ground_truth,
            dataset.num_duplicates(),
        ),
        candidates.len(),
    )
}

#[test]
fn qgrams_blocking_supports_the_full_workflow() {
    let dataset = tiny_dataset();
    let raw = qgrams_blocking_csr(&dataset, 4, 2);
    let blocks = block_filtering_csr(&block_purging_csr(&raw), 0.8);
    let (quality, num_candidates) = run_on_blocks(&dataset, blocks);
    assert!(num_candidates > 0);
    assert!(quality.recall > 0.5, "q-grams recall too low: {quality}");
    assert!(quality.precision > 0.0);
}

#[test]
fn suffix_array_blocking_supports_the_full_workflow() {
    let dataset = tiny_dataset();
    let raw = suffix_array_blocking_csr(
        &dataset,
        SuffixArrayConfig {
            min_length: 4,
            max_block_size: 60,
        },
        2,
    );
    let blocks = block_filtering_csr(&block_purging_csr(&raw), 0.8);
    let (quality, num_candidates) = run_on_blocks(&dataset, blocks);
    assert!(num_candidates > 0);
    assert!(
        quality.recall > 0.4,
        "suffix-array recall too low: {quality}"
    );
}

#[test]
fn materialized_output_matches_pruning_summary() {
    let dataset = tiny_dataset();
    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let config = MetaBlockingConfig {
        per_class: 20,
        feature_set: FeatureSet::blast_optimal(),
        ..default_config()
    };
    let (matrix, _) = prepared.build_features(config.feature_set);
    let (scores, _, _) = train_and_score(&prepared, &matrix, &config, 3).unwrap();
    let pruner = AlgorithmKind::Rcnp.build_csr(&prepared.blocks);
    let retained = pruner.prune(&prepared.candidates, &scores);

    let output = materialize_blocks_csr(&prepared.blocks, &prepared.candidates, &retained);
    assert_eq!(output.num_blocks(), retained.len());
    assert_eq!(output.total_comparisons() as usize, retained.len());

    let summary = PruningSummary::new(
        &prepared.candidates,
        &retained,
        &prepared.dataset.ground_truth,
    );
    assert_eq!(
        summary.retained_positives + summary.retained_negatives,
        retained.len()
    );
    assert!(
        summary.negative_reduction() > 0.5,
        "pruning should remove most negatives"
    );

    // The run_with_matrix effectiveness must agree with the summary counts.
    let run = run_with_matrix(
        &prepared,
        &matrix,
        Duration::ZERO,
        &[AlgorithmKind::Rcnp],
        &config,
        3,
    )
    .unwrap()
    .remove(0);
    assert_eq!(run.retained, retained.len());
}

#[test]
fn progressive_schedule_front_loads_the_duplicates() {
    let dataset = tiny_dataset();
    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let config = MetaBlockingConfig {
        per_class: 20,
        feature_set: FeatureSet::blast_optimal(),
        ..default_config()
    };
    let (matrix, _) = prepared.build_features(config.feature_set);
    let (scores, _, _) = train_and_score(&prepared, &matrix, &config, 5).unwrap();

    let mut schedule = ProgressiveSchedule::new(&scores);
    let total = schedule.remaining();
    let budget = total / 10;
    let first_batch = schedule.next_batch(budget).to_vec();
    let truth = &prepared.dataset.ground_truth;
    let early_matches = first_batch
        .iter()
        .filter(|&&(id, _)| {
            let (a, b) = prepared.candidates.pair(id);
            truth.is_match(a, b)
        })
        .count();
    let early_rate = early_matches as f64 / first_batch.len() as f64;
    let overall_rate = prepared.candidates.count_positives(truth) as f64 / total as f64;
    assert!(
        early_rate > overall_rate * 3.0,
        "progressive emission should front-load duplicates: {early_rate:.4} vs {overall_rate:.4}"
    );

    // The valid-only schedule never emits probabilities below 0.5.
    let valid = ValidPairs::collect(&prepared.candidates, scores.as_slice(), 1);
    let valid = ProgressiveSchedule::from_valid(&valid);
    assert!(valid
        .ranked()
        .iter()
        .all(|&(id, p)| p >= 0.5 && scores.as_slice()[id.index()] == p));
}
