//! The experiment harness measures the pipeline: on one Clean-Clean and one
//! Dirty catalog dataset, `er_eval`'s `run_once` on a `PreparedDataset`
//! retains exactly the pairs `MetaBlockingPipeline::run` retains, for every
//! pruning algorithm and both chunk-size settings of the pipeline.  Both run
//! the pipeline's one `prepare`, `train` and `score` stage, so the harness's
//! `train_and_score` must produce the pipeline's probabilities bit for bit
//! and its valid pairs exactly, and the two must not differ by a single
//! retained pair.

use gsmb::blocking::{BlockStats, CandidatePairs, DEFAULT_CHUNK_PAIRS};
use gsmb::core::Dataset;
use gsmb::datasets::{dirty_catalog, generate_catalog_dataset, generate_dirty};
use gsmb::datasets::{CatalogOptions, DatasetName};
use gsmb::eval::experiment::{
    default_config, effective_per_class, run_once, train_and_score, PreparedDataset,
};
use gsmb::eval::Effectiveness;
use gsmb::meta::pipeline::{MetaBlockingConfig, MetaBlockingPipeline};
use gsmb::meta::pruning::AlgorithmKind;

/// Labelled pairs per class: small enough that the harness's cap
/// ([`effective_per_class`]) leaves it alone on both datasets, so both
/// sides draw the same training sample.
const PER_CLASS: usize = 20;

fn assert_harness_retains_what_the_pipeline_retains(dataset: Dataset) {
    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let dataset = &prepared.dataset;
    assert_eq!(
        effective_per_class(&prepared, PER_CLASS),
        PER_CLASS,
        "{}: the per-class cap would change the harness's sample",
        dataset.name
    );
    for candidate_chunk_pairs in [None, Some(DEFAULT_CHUNK_PAIRS)] {
        let config = MetaBlockingConfig {
            per_class: PER_CLASS,
            candidate_chunk_pairs,
            ..default_config()
        };
        for algorithm in AlgorithmKind::all() {
            let context = format!(
                "{} {algorithm} chunk {candidate_chunk_pairs:?}",
                dataset.name
            );
            let outcome = MetaBlockingPipeline::new(config.clone())
                .run(dataset, algorithm)
                .unwrap();
            let run = run_once(&prepared, algorithm, &config).unwrap();
            let (probabilities, valid, _) =
                train_and_score(&prepared, &config, config.seed).unwrap();
            let bits = |p: &[f64]| p.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(probabilities.as_slice()),
                bits(outcome.probabilities.as_slice()),
                "{context}: probabilities"
            );
            assert_eq!(
                valid.pairs(),
                outcome.valid.pairs(),
                "{context}: valid pairs"
            );
            // The outcome keeps the valid pairs, not the index: the index is
            // extracted again from the blocks the pipeline ran on.
            let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&outcome.blocks), 2);
            assert_eq!(
                candidates.pairs(),
                prepared.candidates.pairs(),
                "{context}: candidate index"
            );
            assert_eq!(outcome.num_candidates, candidates.len(), "{context}");
            assert!(!outcome.retained.is_empty(), "{context}: retained nothing");
            assert_eq!(
                run.retained_ids, outcome.retained,
                "{context}: retained pairs"
            );
            assert_eq!(run.retained, outcome.retained.len(), "{context}");
            let pipeline_effectiveness = Effectiveness::evaluate(
                &outcome.retained_pairs(),
                &dataset.ground_truth,
                dataset.num_duplicates(),
            );
            assert_eq!(run.effectiveness, pipeline_effectiveness, "{context}");
        }
    }
}

#[test]
fn run_once_retains_the_pipelines_pairs_on_clean_clean_data() {
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    assert_harness_retains_what_the_pipeline_retains(dataset);
}

#[test]
fn run_once_retains_the_pipelines_pairs_on_dirty_data() {
    let configs = dirty_catalog(&CatalogOptions::tiny());
    let dataset = generate_dirty(&configs[0]).unwrap();
    assert_harness_retains_what_the_pipeline_retains(dataset);
}
