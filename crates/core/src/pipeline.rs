//! The end-to-end Generalized Supervised Meta-blocking pipeline.
//!
//! Given a dataset, the pipeline performs the exact workflow of the paper's
//! evaluation:
//!
//! 1. blocking: Token Blocking → Block Purging → Block Filtering;
//! 2. candidate extraction and block statistics;
//! 3. feature generation for the chosen [`FeatureSet`];
//! 4. balanced undersampling of labelled pairs and classifier training;
//! 5. probability scoring of every candidate pair;
//! 6. pruning with the chosen [`AlgorithmKind`].
//!
//! The outcome records the retained pairs, the probabilities and a run-time
//! breakdown matching the paper's definition of `RT` (feature generation +
//! training + scoring + pruning).
//!
//! Feature generation and scoring are **fused**: the pipeline never
//! materialises the full feature matrix.  Training needs feature vectors for
//! only the ~50 sampled pairs (computed directly from the
//! [`FeatureContext`]), and every candidate's probability is produced by
//! [`FeatureMatrix::score_rows`], which streams each pair's fused feature
//! row straight into the classifier.  The `features` timing therefore covers
//! index construction (block statistics, candidate CSR, per-entity tables)
//! and `scoring` covers the fused feature + probability pass.
//!
//! Each entity's partner run is derived **once** per run: the candidate
//! index is built by a single gather ([`CandidatePairs::try_from_stats`]),
//! and because pruning and the outcome need that index anyway, the chunked
//! scoring mode (`candidate_chunk_pairs`) streams over it
//! ([`CandidateStream::from_candidates`]) instead of counting and
//! re-extracting the runs.  The scoreboard's block walk is the only other
//! pass over the blocks.

use std::time::{Duration, Instant};

use er_blocking::{
    standard_blocking_workflow_csr, BlockStats, CandidatePairs, CandidateStream, CsrBlockCollection,
};
use er_core::{Dataset, PairId, Result};
use er_features::{
    FeatureContext, FeatureMatrix, FeatureSet, ScoreboardConfig, StreamFeatureContext,
};
use er_learn::{
    balanced_undersample, Classifier, LinearSvm, LinearSvmConfig, LogisticRegression,
    LogisticRegressionConfig, ProbabilisticClassifier, SavedModel, TrainingSet,
};

use crate::pruning::{AlgorithmKind, Blast};
use crate::scoring::CachedScores;

/// Which probabilistic classifier the pipeline trains.
#[derive(Debug, Clone)]
pub enum ClassifierKind {
    /// Logistic regression (the Weka baseline of the scalability analysis).
    Logistic(LogisticRegressionConfig),
    /// Linear SVM with Platt scaling (the scikit-learn SVC analogue).
    Svm(LinearSvmConfig),
}

impl Default for ClassifierKind {
    fn default() -> Self {
        ClassifierKind::Logistic(LogisticRegressionConfig::default())
    }
}

impl ClassifierKind {
    /// Trains the classifier on a labelled training set.
    pub fn fit(&self, training: &TrainingSet) -> Result<Box<dyn ProbabilisticClassifier>> {
        Ok(Box::new(self.fit_saved(training)?))
    }

    /// Trains the classifier into its persistable form
    /// ([`er_learn::SavedModel`]) — the variant the streaming pipeline
    /// keeps so snapshots can store the exact trained model.
    pub fn fit_saved(&self, training: &TrainingSet) -> Result<SavedModel> {
        match self {
            ClassifierKind::Logistic(config) => {
                Ok(SavedModel::from(LogisticRegression::fit(config, training)?))
            }
            ClassifierKind::Svm(config) => Ok(SavedModel::from(LinearSvm::fit(config, training)?)),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ClassifierKind::Logistic(_) => "LogisticRegression",
            ClassifierKind::Svm(_) => "LinearSVM",
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct MetaBlockingConfig {
    /// The weighting schemes forming each pair's feature vector.
    pub feature_set: FeatureSet,
    /// Labelled instances per class (the paper's default experiments use 250,
    /// the final configuration only 25).
    pub per_class: usize,
    /// The classifier to train.
    pub classifier: ClassifierKind,
    /// BLAST's pruning ratio.
    pub blast_ratio: f64,
    /// Seed controlling the training-pair sampling.
    pub seed: u64,
    /// Worker threads for the parallel stages (blocking, candidate
    /// extraction, scoring).  `None` uses [`er_core::available_threads`].
    /// Every stage is deterministic, so the thread count never changes the
    /// output.
    pub threads: Option<usize>,
    /// Scoreboard engine configuration for the fused feature/scoring pass:
    /// the candidate-aligned board by default, the flat reference board on
    /// request.  Output is bit-identical for every configuration; this only
    /// changes per-worker scratch.
    pub scoreboard: ScoreboardConfig,
    /// When set, the probability pass runs through the streamed candidate
    /// engine ([`er_blocking::CandidateStream`]) in chunks of this many
    /// pairs instead of walking the materialised pair index — per-worker
    /// scratch stays `O(chunk_pairs)` during scoring.  Probabilities are
    /// bit-identical to the materialised pass for every chunk size and
    /// thread count.  `None` (the default) scores through the materialised
    /// index.
    pub candidate_chunk_pairs: Option<usize>,
}

impl Default for MetaBlockingConfig {
    fn default() -> Self {
        MetaBlockingConfig {
            feature_set: FeatureSet::blast_optimal(),
            per_class: 25,
            classifier: ClassifierKind::default(),
            blast_ratio: Blast::DEFAULT_RATIO,
            seed: 0x6d62_0001,
            threads: None,
            scoreboard: ScoreboardConfig::default(),
            candidate_chunk_pairs: None,
        }
    }
}

impl MetaBlockingConfig {
    /// The effective worker-thread count.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(er_core::available_threads)
            .max(1)
    }
}

/// Wall-clock breakdown of one pipeline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Blocking workflow (not part of the paper's `RT`, reported separately).
    pub blocking: Duration,
    /// Feature-index construction: block statistics, candidate extraction
    /// and the per-entity aggregate tables.
    pub features: Duration,
    /// Training-set assembly and classifier training.
    pub training: Duration,
    /// The fused feature + probability pass over all candidate pairs.
    pub scoring: Duration,
    /// Pruning.
    pub pruning: Duration,
}

impl Timings {
    /// The paper's `RT`: features + training + scoring + pruning.
    pub fn total_rt(&self) -> Duration {
        self.features + self.training + self.scoring + self.pruning
    }
}

/// The result of one pipeline run.
pub struct MetaBlockingOutcome {
    /// Name of the dataset.
    pub dataset_name: String,
    /// The algorithm that produced the outcome.
    pub algorithm: AlgorithmKind,
    /// The blocking output the pipeline operated on.
    pub blocks: CsrBlockCollection,
    /// The distinct candidate pairs of the block collection.
    pub candidates: CandidatePairs,
    /// Number of candidate pairs (|C|).
    pub num_candidates: usize,
    /// The probability assigned to every candidate pair.
    pub probabilities: CachedScores,
    /// The ids of the retained pairs.
    pub retained: Vec<PairId>,
    /// Run-time breakdown.
    pub timings: Timings,
}

impl MetaBlockingOutcome {
    /// The retained pairs as entity-id tuples.
    pub fn retained_pairs(&self) -> Vec<(er_core::EntityId, er_core::EntityId)> {
        self.retained
            .iter()
            .map(|&id| self.candidates.pair(id))
            .collect()
    }
}

/// The end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct MetaBlockingPipeline {
    config: MetaBlockingConfig,
}

impl MetaBlockingPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: MetaBlockingConfig) -> Self {
        MetaBlockingPipeline { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &MetaBlockingConfig {
        &self.config
    }

    /// Runs the full workflow on a dataset.
    ///
    /// Blocking runs through the parallel CSR engine
    /// ([`standard_blocking_workflow_csr`]); block statistics, candidate
    /// pairs and pruning thresholds are all derived from its output.
    pub fn run(&self, dataset: &Dataset, algorithm: AlgorithmKind) -> Result<MetaBlockingOutcome> {
        let threads = self.config.effective_threads();
        let start = Instant::now();
        let csr = standard_blocking_workflow_csr(dataset, threads);
        if csr.is_empty() {
            return Err(er_core::Error::EmptyInput(format!(
                "dataset {} produced no blocks",
                dataset.name
            )));
        }
        let blocking_time = start.elapsed();

        let feature_start = Instant::now();
        let stats = BlockStats::from_csr(&csr);
        let candidates = CandidatePairs::try_from_stats(&stats, threads)?;
        if candidates.is_empty() {
            return Err(er_core::Error::EmptyInput(format!(
                "dataset {} produced no candidate pairs",
                dataset.name
            )));
        }

        let set = self.config.feature_set;
        let context = FeatureContext::new(&stats, &candidates);
        let feature_time = feature_start.elapsed();

        // Training: feature vectors are needed for the sampled pairs only.
        let training_start = Instant::now();
        let mut rng = er_core::seeded_rng(self.config.seed);
        let sample = balanced_undersample(
            candidates.pairs(),
            &dataset.ground_truth,
            self.config.per_class,
            &mut rng,
        )?;
        let mut training = TrainingSet::new();
        let mut row = vec![0.0f64; set.vector_len()];
        for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
            let (a, b) = candidates.pair(PairId::from(pair_index));
            context.write_pair_features(a, b, set, &mut row);
            training.push(row.clone(), label);
        }
        let model = self.config.classifier.fit(&training)?;
        let training_time = training_start.elapsed();

        // Scoring: fused feature + probability pass, no materialised matrix.
        // With `candidate_chunk_pairs` set, the pass runs the streamed
        // engine (chunk tasks, per-worker arenas) over the index this
        // function already holds for pruning: chunks are copied out of it,
        // no partner run is derived a second time — same probabilities, bit
        // for bit.
        let scoring_start = Instant::now();
        let probability = |features: &[f64]| model.probability(features).clamp(0.0, 1.0);
        let probabilities = match self.config.candidate_chunk_pairs {
            Some(chunk_pairs) => {
                let stream = CandidateStream::from_candidates(&stats, &candidates);
                let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
                FeatureMatrix::score_stream_with(
                    &stream_context,
                    &stream,
                    set,
                    threads,
                    &self.config.scoreboard,
                    chunk_pairs,
                    probability,
                )
            }
            None => FeatureMatrix::score_rows_with(
                &context,
                set,
                threads,
                &self.config.scoreboard,
                probability,
            ),
        };
        let scores = CachedScores::new(probabilities);
        let scoring_time = scoring_start.elapsed();

        // Pruning.
        let pruning_start = Instant::now();
        let pruner = algorithm.build_with_csr(&csr, self.config.blast_ratio);
        let retained = pruner.prune(&candidates, &scores);
        let pruning_time = pruning_start.elapsed();

        Ok(MetaBlockingOutcome {
            dataset_name: dataset.name.clone(),
            algorithm,
            blocks: csr,
            num_candidates: candidates.len(),
            candidates,
            probabilities: scores,
            retained,
            timings: Timings {
                blocking: blocking_time,
                features: feature_time,
                training: training_time,
                scoring: scoring_time,
                pruning: pruning_time,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};

    fn tiny_dataset() -> Dataset {
        generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
    }

    fn config(per_class: usize) -> MetaBlockingConfig {
        MetaBlockingConfig {
            per_class,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let dataset = tiny_dataset();
        let outcome = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap();
        assert!(outcome.num_candidates > 0);
        assert!(!outcome.retained.is_empty());
        assert!(outcome.retained.len() <= outcome.num_candidates);
        assert_eq!(
            outcome.probabilities.as_slice().len(),
            outcome.num_candidates
        );
    }

    #[test]
    fn pruning_reduces_candidates_substantially() {
        let dataset = tiny_dataset();
        let outcome = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Rcnp)
            .unwrap();
        // RCNP must prune a large share of the superfluous comparisons.
        assert!(outcome.retained.len() * 2 < outcome.num_candidates);
    }

    #[test]
    fn svm_and_logistic_pipelines_both_work() {
        let dataset = tiny_dataset();
        let logistic = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Bcl)
            .unwrap();
        let svm_config = MetaBlockingConfig {
            classifier: ClassifierKind::Svm(LinearSvmConfig::default()),
            ..config(25)
        };
        let svm = MetaBlockingPipeline::new(svm_config)
            .run(&dataset, AlgorithmKind::Bcl)
            .unwrap();
        assert!(!logistic.retained.is_empty());
        assert!(!svm.retained.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let dataset = tiny_dataset();
        let a = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap();
        let b = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap();
        assert_eq!(a.retained, b.retained);
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let dataset = tiny_dataset();
        let baseline = MetaBlockingPipeline::new(MetaBlockingConfig {
            threads: Some(1),
            ..config(25)
        })
        .run(&dataset, AlgorithmKind::Blast)
        .unwrap();
        for threads in [2, 4] {
            let outcome = MetaBlockingPipeline::new(MetaBlockingConfig {
                threads: Some(threads),
                ..config(25)
            })
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap();
            assert!(outcome.blocks.same_blocks(&baseline.blocks));
            assert_eq!(outcome.retained, baseline.retained, "{threads} threads");
            assert_eq!(
                outcome.probabilities.as_slice(),
                baseline.probabilities.as_slice()
            );
        }
    }

    #[test]
    fn streamed_scoring_mode_never_changes_the_outcome() {
        let dataset = tiny_dataset();
        let materialised = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap();
        for chunk_pairs in [1usize, 64, 1 << 20] {
            for threads in [1, 4] {
                let streamed = MetaBlockingPipeline::new(MetaBlockingConfig {
                    candidate_chunk_pairs: Some(chunk_pairs),
                    threads: Some(threads),
                    ..config(25)
                })
                .run(&dataset, AlgorithmKind::Blast)
                .unwrap();
                assert_eq!(
                    streamed.probabilities.as_slice(),
                    materialised.probabilities.as_slice(),
                    "chunk_pairs={chunk_pairs} threads={threads}"
                );
                assert_eq!(streamed.retained, materialised.retained);
            }
        }
    }

    #[test]
    fn timings_are_recorded() {
        let dataset = tiny_dataset();
        let outcome = MetaBlockingPipeline::new(config(25))
            .run(&dataset, AlgorithmKind::Wnp)
            .unwrap();
        assert!(outcome.timings.total_rt() > Duration::ZERO);
    }

    #[test]
    fn too_large_training_request_fails_cleanly() {
        let dataset = tiny_dataset();
        let outcome =
            MetaBlockingPipeline::new(config(1_000_000)).run(&dataset, AlgorithmKind::Bcl);
        assert!(outcome.is_err());
    }
}
