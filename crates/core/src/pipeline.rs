//! The end-to-end Generalized Supervised Meta-blocking pipeline.
//!
//! Given a dataset, the pipeline performs the exact workflow of the paper's
//! evaluation:
//!
//! 1. blocking: Token Blocking → Block Purging → Block Filtering
//!    ([`clean_blocks_csr`]).  Purging and filtering run over one entity →
//!    block adjacency, built once, which is also the entity side of the
//!    block statistics;
//! 2. the block statistics ([`BlockStats::from_entity_side`], no second
//!    transposition) and candidate extraction ([`prepare`], which takes the
//!    statistics);
//! 3. feature generation for the chosen [`FeatureSet`];
//! 4. balanced undersampling of labelled pairs, with the ground truth placed
//!    through the candidate index, and classifier training ([`train`]);
//! 5. probability scoring of every candidate pair, which also keeps the
//!    valid pairs ([`ValidPairs`]);
//! 6. pruning with the chosen [`AlgorithmKind`], which decides on the valid
//!    pairs only.
//!
//! Steps 1 and 2 together are
//! [`standard_blocking_workflow_csr`](er_blocking::standard_blocking_workflow_csr)
//! followed by [`prepare`]; the pipeline runs the workflow's two halves
//! itself only to time the statistics as feature generation.
//!
//! [`prepare`] and [`train`] are public because every batch consumer runs
//! them: [`MetaBlockingPipeline::run`], the streaming bootstrap
//! ([`crate::StreamingPipeline::bootstrap`]) and the experiment harness in
//! `er-eval`.  A step of the paper's workflow therefore has one copy.
//!
//! The outcome records the valid and the retained pairs, the probabilities
//! and a run-time breakdown matching the paper's definition of `RT`
//! (feature generation + training + scoring + pruning).
//!
//! Feature generation and scoring are **fused**: the pipeline never
//! materialises the full feature matrix.  Training needs feature vectors for
//! only the ~50 sampled pairs (computed directly from the
//! [`FeatureContext`]), and every candidate's probability is produced by
//! [`FeatureMatrix::score_stream_folded`], which streams each pair's fused
//! feature row straight into the classifier.  The `features` timing
//! therefore covers index construction (block statistics, candidate CSR,
//! per-entity tables) and `scoring` covers the fused feature + probability
//! pass.
//!
//! # The candidate index lives until training ends
//!
//! The workflow needs the candidate list for two things: drawing the
//! training sample and handing every pair to the classifier.  The index (4
//! bytes per pair) is built by a single gather
//! ([`CandidatePairs::try_from_stats`]) and serves the first.  For the
//! second only its counts are kept — per-entity offsets and the LCP table —
//! as a stream ([`CandidateStream::from_counts`]), and the partner array is
//! released before the probability vector (8 bytes per pair) is allocated.
//! The scoring pass folds each run off the blocks on the walk it makes
//! anyway, so no run is derived twice.  It also keeps each chunk's valid
//! pairs and checks every score is a probability; the chunks' lists,
//! joined in order, are the [`ValidPairs`] pruning decides on and
//! [`MetaBlockingOutcome::retained_pairs`] resolves off.

use std::time::{Duration, Instant};

use er_blocking::{
    clean_blocks_csr, BlockStats, CandidatePairs, CandidateStream, CsrBlockCollection,
    DEFAULT_CHUNK_PAIRS,
};
use er_core::{Dataset, GroundTruth, PairId, Result};
use er_features::{FeatureContext, FeatureMatrix, FeatureSet, ScoreboardConfig};
use er_learn::{
    balanced_undersample_from_positives, BalancedSample, Classifier, LinearSvm, LinearSvmConfig,
    LogisticRegression, LogisticRegressionConfig, ProbabilisticClassifier, SavedModel, TrainingSet,
};

use crate::pruning::{AlgorithmKind, Blast, ValidChunk, ValidPairs};
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
    /// Scoreboard configuration, handed to the fused feature/scoring pass and
    /// to the streaming index: the tile width of the discovery board both
    /// fold partners on.  Output is bit-identical for every configuration.
    pub scoreboard: ScoreboardConfig,
    /// Pairs per chunk of the probability pass, which reads the candidate
    /// counts through the streamed candidate engine
    /// ([`er_blocking::CandidateStream`]) — per-worker scratch stays
    /// `O(chunk_pairs)` during scoring.  Probabilities are bit-identical for
    /// every chunk size and thread count.  `None` (the default) uses
    /// [`DEFAULT_CHUNK_PAIRS`].
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
    /// Blocking workflow: Token Blocking, Block Purging and Block
    /// Filtering (not part of the paper's `RT`, reported separately).
    /// Filtering runs on the entity → block adjacency, so the transposition
    /// that builds it counts here, although it is also the statistics'
    /// entity side.
    pub blocking: Duration,
    /// Feature-index construction: the block statistics' tables, candidate
    /// extraction and the per-entity aggregate tables.
    pub features: Duration,
    /// Training-set assembly and classifier training.
    pub training: Duration,
    /// The fused feature + probability pass over all candidate pairs, which
    /// also keeps the valid pairs and checks that every probability lies
    /// within `[0, 1]`.
    pub scoring: Duration,
    /// Pruning: the algorithm's decision on the valid pairs.
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
    /// The blocking output the pipeline operated on.  Its distinct
    /// candidate pairs are `CandidatePairs::from_stats(&BlockStats::from_csr(&blocks), _)`,
    /// in pair-id order.
    pub blocks: CsrBlockCollection,
    /// Number of candidate pairs (|C|).
    pub num_candidates: usize,
    /// The probability assigned to every candidate pair, by pair id.
    pub probabilities: CachedScores,
    /// The valid pairs `(id, a, b, p)`, ascending by pair id: what pruning
    /// decided on.
    pub valid: ValidPairs,
    /// The ids of the retained pairs, ascending (a subset of the valid
    /// pairs' ids).
    pub retained: Vec<PairId>,
    /// Run-time breakdown.
    pub timings: Timings,
}

impl MetaBlockingOutcome {
    /// The retained pairs as entity-id tuples, resolved in one forward walk
    /// over the valid pairs (both lists ascend, and every retained pair is
    /// valid).
    pub fn retained_pairs(&self) -> Vec<(er_core::EntityId, er_core::EntityId)> {
        let mut valid = self.valid.pairs().iter();
        self.retained
            .iter()
            .map(|&id| {
                let pair = valid
                    .find(|pair| pair.id == id)
                    .expect("every retained pair is a valid pair");
                (pair.a, pair.b)
            })
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
    /// Blocking runs through the parallel CSR engine ([`clean_blocks_csr`]),
    /// which returns the cleaned collection with its entity side; the
    /// statistics are built from the two, and the [`prepare`] and [`train`]
    /// stages, the scoring pass and the pruning thresholds are all derived
    /// from its output.
    pub fn run(&self, dataset: &Dataset, algorithm: AlgorithmKind) -> Result<MetaBlockingOutcome> {
        algorithm.check_parameters(self.config.blast_ratio)?;
        let threads = self.config.effective_threads();
        let start = Instant::now();
        let (csr, entity_side) = clean_blocks_csr(dataset, threads);
        let blocking_time = start.elapsed();

        // The block statistics count as feature generation, so the pipeline
        // runs the workflow's two steps itself and times them apart.
        let feature_start = Instant::now();
        let stats = BlockStats::from_entity_side(&csr, entity_side, threads);
        let (stats, candidates) = prepare(&csr, stats, threads)?;
        let set = self.config.feature_set;
        let context = FeatureContext::new(&stats, &candidates);
        let feature_time = feature_start.elapsed();

        let training_start = Instant::now();
        let model = train(&self.config, &context, &dataset.ground_truth)?;
        let training_time = training_start.elapsed();

        // Scoring: fused feature + probability pass, no materialised matrix.
        // The partner array is released first: the pass needs only the
        // index's counts, and folds each run off the blocks on the walk it
        // makes anyway — the same probabilities, bit for bit, at every
        // chunk size.  Each chunk keeps its valid pairs as it is scored.
        let scoring_start = Instant::now();
        let num_candidates = candidates.len();
        let stream = CandidateStream::from_counts(&stats, &candidates);
        let context = context.into_stream_context(&stream);
        drop(candidates);
        let probability = |features: &[f64]| model.probability(features).clamp(0.0, 1.0);
        let chunk_pairs = self
            .config
            .candidate_chunk_pairs
            .unwrap_or(DEFAULT_CHUNK_PAIRS);
        let (probabilities, valid) = FeatureMatrix::score_stream_folded(
            &context,
            &stream,
            set,
            threads,
            &self.config.scoreboard,
            chunk_pairs,
            probability,
            ValidChunk::default,
            |chunk, id, a, b, p| chunk.push(PairId::from(id as usize), a, b, p),
        );
        // Joining the chunks makes `CachedScores::new`'s range check.
        let valid = ValidPairs::from_chunks(stats.num_entities(), valid);
        let scores = CachedScores::range_checked_by_caller(probabilities);
        let scoring_time = scoring_start.elapsed();

        let pruning_start = Instant::now();
        let pruner = algorithm.build_with_csr(&csr, self.config.blast_ratio);
        let retained = pruner.prune_valid(&valid);
        let pruning_time = pruning_start.elapsed();

        Ok(MetaBlockingOutcome {
            dataset_name: dataset.name.clone(),
            algorithm,
            blocks: csr,
            num_candidates,
            probabilities: scores,
            valid,
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

/// The **prepare** stage of the batch workflow: a (raw or cleaned) block
/// collection and its [`BlockStats`] → the statistics and the distinct
/// [`CandidatePairs`].  The statistics come with the collection —
/// [`standard_blocking_workflow_csr`](er_blocking::standard_blocking_workflow_csr)
/// returns both, and a collection from elsewhere goes through
/// [`BlockStats::from_csr`] — so no caller builds them twice.
///
/// The batch pipeline, the streaming bootstrap and the experiment harness
/// all enter the workflow here, so this is the one place an input that
/// cannot be trained on is refused: a collection with no blocks, or one
/// whose blocks yield no comparable pair, is [`er_core::Error::EmptyInput`].
pub fn prepare(
    blocks: &CsrBlockCollection,
    stats: BlockStats,
    threads: usize,
) -> Result<(BlockStats, CandidatePairs)> {
    if blocks.is_empty() {
        return Err(er_core::Error::EmptyInput(format!(
            "dataset {} produced no blocks",
            blocks.dataset_name
        )));
    }
    let candidates = CandidatePairs::try_from_stats(&stats, threads)?;
    if candidates.is_empty() {
        return Err(er_core::Error::EmptyInput(format!(
            "dataset {} produced no candidate pairs",
            blocks.dataset_name
        )));
    }
    Ok((stats, candidates))
}

/// The **train** stage of the batch workflow: draws `config.per_class`
/// labelled pairs per class from the context's candidates (balanced
/// undersampling seeded with `config.seed`), computes the feature vectors of
/// the sampled pairs only, and fits `config.classifier` on them.
///
/// The ground truth is placed through the candidate index
/// ([`CandidatePairs::positive_pair_indices`]), so sampling never scans the
/// pair list; the sample is the one
/// [`balanced_undersample`](er_learn::balanced_undersample) draws from the
/// [`CandidatePairs::pairs`] view with the same seed, which is never built
/// here.
pub fn train(
    config: &MetaBlockingConfig,
    context: &FeatureContext<'_>,
    truth: &GroundTruth,
) -> Result<SavedModel> {
    let candidates = context.candidates();
    let set = config.feature_set;
    let sample = training_sample(config, candidates, truth)?;
    let mut training = TrainingSet::new();
    let mut row = vec![0.0f64; set.vector_len()];
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        let (a, b) = candidates.pair(PairId::from(pair_index));
        context.write_pair_features(a, b, set, &mut row);
        training.push(row.clone(), label);
    }
    config.classifier.fit_saved(&training)
}

/// The balanced training sample of [`train`], seeded with `config.seed`.
fn training_sample(
    config: &MetaBlockingConfig,
    candidates: &CandidatePairs,
    truth: &GroundTruth,
) -> Result<BalancedSample> {
    let mut rng = er_core::seeded_rng(config.seed);
    let positives = candidates.positive_pair_indices(truth);
    balanced_undersample_from_positives(candidates.len(), &positives, config.per_class, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::standard_blocking_workflow_csr;
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
    fn prepare_refuses_collections_that_cannot_be_trained_on() {
        use er_core::{DatasetKind, EntityId};
        let empty = CsrBlockCollection::from_blocks(
            "empty",
            DatasetKind::Dirty,
            4,
            4,
            std::iter::empty::<(&str, Vec<EntityId>)>(),
        );
        let err = prepare(&empty, BlockStats::from_csr(&empty), 2).unwrap_err();
        assert!(
            err.to_string().contains("empty produced no blocks"),
            "{err}"
        );
        // One Clean-Clean block holding first-source entities only: a block,
        // but no comparable pair.
        let one_sided = CsrBlockCollection::from_blocks(
            "one-sided",
            DatasetKind::CleanClean,
            2,
            4,
            [("k", vec![EntityId(0), EntityId(1)])],
        );
        let err = prepare(&one_sided, BlockStats::from_csr(&one_sided), 2).unwrap_err();
        assert!(
            err.to_string()
                .contains("one-sided produced no candidate pairs"),
            "{err}"
        );
    }

    #[test]
    fn all_purged_corpus_is_empty_input_not_a_panic() {
        use er_core::{EntityCollection, EntityProfile, GroundTruth};
        // Every profile carries the shared token: its block holds every
        // entity and is purged; the unique tokens make singleton blocks,
        // which yield no comparison.  Nothing survives the tail.
        let profiles = (0..64)
            .map(|i| {
                EntityProfile::new(format!("e{i}")).with_attribute("v", format!("shared u{i}"))
            })
            .collect();
        let dataset = Dataset::dirty(
            "all-purged",
            EntityCollection::new("d", profiles),
            GroundTruth::default(),
        )
        .unwrap();
        for threads in [1, 2] {
            let (blocks, stats) = standard_blocking_workflow_csr(&dataset, threads);
            assert!(blocks.is_empty());
            assert_eq!(stats.num_blocks(), 0);
            assert_eq!(stats.num_entities(), 64);
            let config = MetaBlockingConfig {
                threads: Some(threads),
                ..config(25)
            };
            let Err(err) = MetaBlockingPipeline::new(config).run(&dataset, AlgorithmKind::Blast)
            else {
                panic!("an all-purged corpus must be refused");
            };
            assert!(
                matches!(err, er_core::Error::EmptyInput(ref m) if m.contains("all-purged produced no blocks")),
                "{err}"
            );
        }
    }

    /// Corpora that yield no comparison at all are refused as empty input
    /// at every thread count, never a panic: a Clean-Clean corpus whose
    /// second source is empty, profiles without attributes, and blank
    /// attribute values.
    #[test]
    fn degenerate_corpora_are_empty_input_not_a_panic() {
        use er_core::{EntityCollection, EntityProfile, GroundTruth};
        let profiles = |values: &[&str]| -> Vec<EntityProfile> {
            values
                .iter()
                .enumerate()
                .map(|(i, v)| EntityProfile::new(format!("e{i}")).with_attribute("title", *v))
                .collect()
        };
        let collection = |profiles| EntityCollection::new("c", profiles);
        let words = ["shared apple", "shared pear", "apple pear", "shared"];
        let bare = (0..4)
            .map(|i| EntityProfile::new(format!("e{i}")))
            .collect();
        let datasets = [
            Dataset::clean_clean(
                "no-second-source",
                collection(profiles(&words)),
                collection(Vec::new()),
                GroundTruth::default(),
            ),
            Dataset::dirty("no-attributes", collection(bare), GroundTruth::default()),
            Dataset::dirty(
                "blank-values",
                collection(profiles(&["", " ", "\t", "  \n "])),
                GroundTruth::default(),
            ),
        ];
        for dataset in datasets {
            let dataset = dataset.unwrap();
            for threads in [1, 3] {
                let config = MetaBlockingConfig {
                    threads: Some(threads),
                    ..config(25)
                };
                let outcome = MetaBlockingPipeline::new(config).run(&dataset, AlgorithmKind::Blast);
                assert!(
                    matches!(outcome, Err(er_core::Error::EmptyInput(_))),
                    "{} at {threads} threads: {:?}",
                    dataset.name,
                    outcome.err()
                );
            }
        }
    }

    /// The index path draws the sample `balanced_undersample` draws from
    /// the pair slice, whichever way the slice path finds the positives:
    /// binary search when the truth is small next to the candidates (a
    /// truth over every 37th candidate), a hash scan when it is not (every
    /// third candidate, plus the dataset's truth), and the dataset's own
    /// truth in whichever regime its size puts it.
    #[test]
    fn training_sample_equals_the_slice_paths() {
        use er_datasets::{dirty_catalog, generate_dirty};
        let clean_clean = tiny_dataset();
        let dirty = generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap();
        for dataset in [clean_clean, dirty] {
            let (blocks, stats) = standard_blocking_workflow_csr(&dataset, 2);
            let (_, candidates) = prepare(&blocks, stats, 2).unwrap();
            let every = |step: usize| candidates.pairs().iter().copied().step_by(step);
            let sparse = GroundTruth::from_pairs(every(37));
            let dense = GroundTruth::from_pairs(
                every(3).chain(dataset.ground_truth.pairs().iter().copied()),
            );
            let truths = [
                (&dataset.ground_truth, None),
                (&sparse, Some(true)),
                (&dense, Some(false)),
            ];
            for (truth, searched) in truths {
                let searchable = truth.len() * 32 <= candidates.len();
                assert!(searched.is_none_or(|s| s == searchable), "{}", dataset.name);
                let positives = candidates.count_positives(truth);
                for (seed, per_class) in [(1u64, 1usize), (7, 10), (0x6d62_0001, 25)] {
                    let per_class = per_class.min(positives);
                    let config = MetaBlockingConfig {
                        seed,
                        per_class,
                        ..Default::default()
                    };
                    let context = format!("{} per_class {per_class} seed {seed}", dataset.name);
                    let index = training_sample(&config, &candidates, truth).unwrap();
                    let mut rng = er_core::seeded_rng(seed);
                    let slice = er_learn::balanced_undersample(
                        candidates.pairs(),
                        truth,
                        per_class,
                        &mut rng,
                    )
                    .unwrap();
                    assert_eq!(index.pair_indices, slice.pair_indices, "{context}");
                    assert_eq!(index.labels, slice.labels, "{context}");
                }
            }
        }
    }

    /// BLAST's ratio is checked before any work: an invalid one is an
    /// `InvalidParameter` error, never a panic after scoring, and it is
    /// refused even on a corpus that blocking would refuse.  The other
    /// algorithms ignore the field.
    #[test]
    fn an_invalid_blast_ratio_is_refused_before_any_work() {
        use er_core::{EntityCollection, EntityProfile, Error, GroundTruth};
        let dataset = tiny_dataset();
        let no_blocks = Dataset::dirty(
            "no-blocks",
            EntityCollection::new("d", vec![EntityProfile::new("e0")]),
            GroundTruth::default(),
        )
        .unwrap();
        let pipeline = |blast_ratio| {
            MetaBlockingPipeline::new(MetaBlockingConfig {
                blast_ratio,
                ..config(25)
            })
        };
        for ratio in [f64::NAN, 0.0, 1.5] {
            for dataset in [&dataset, &no_blocks] {
                let result =
                    std::panic::catch_unwind(|| pipeline(ratio).run(dataset, AlgorithmKind::Blast))
                        .expect("refused without a panic");
                assert!(
                    matches!(result, Err(Error::InvalidParameter(ref m)) if m.contains("BLAST")),
                    "ratio {ratio} on {}",
                    dataset.name
                );
            }
        }
        assert!(pipeline(1.0).run(&dataset, AlgorithmKind::Blast).is_ok());
        let rcnp = pipeline(1.5).run(&dataset, AlgorithmKind::Rcnp).unwrap();
        let default = pipeline(Blast::DEFAULT_RATIO)
            .run(&dataset, AlgorithmKind::Rcnp)
            .unwrap();
        assert_eq!(rcnp.retained, default.retained);
    }

    #[test]
    fn too_large_training_request_fails_cleanly() {
        let dataset = tiny_dataset();
        let outcome =
            MetaBlockingPipeline::new(config(1_000_000)).run(&dataset, AlgorithmKind::Bcl);
        assert!(outcome.is_err());
    }
}
