//! Experiment runners.
//!
//! A [`PreparedDataset`] performs the blocking workflow once; every experiment
//! (algorithm comparison, feature selection, training-size sweep, …) then runs
//! on top of it.  [`run_once`] mirrors the paper's run-time definition
//! (features + training + scoring + pruning); [`run_averaged`] repeats the
//! training/scoring/pruning part with different sampling seeds and averages
//! the effectiveness, exactly like the paper's 10-run averages.

use std::time::{Duration, Instant};

use er_blocking::{
    standard_blocking_workflow_csr, BlockStats, CandidatePairs, CandidateStream, CsrBlockCollection,
};
use er_core::{Dataset, PairId, Result};
use er_features::{
    FeatureContext, FeatureMatrix, FeatureSet, ScoreboardConfig, StreamFeatureContext,
};
use er_learn::{balanced_undersample, TrainingSet};
use meta_blocking::pipeline::ClassifierKind;
use meta_blocking::pruning::{AlgorithmKind, Blast};
use meta_blocking::scoring::CachedScores;

use crate::metrics::Effectiveness;

/// A dataset together with its (already computed) blocking output.
pub struct PreparedDataset {
    /// The generated dataset.
    pub dataset: Dataset,
    /// The block collection after Token Blocking, Purging and Filtering.
    pub blocks: CsrBlockCollection,
    /// Pre-computed block statistics.
    pub stats: BlockStats,
    /// The distinct candidate pairs.
    pub candidates: CandidatePairs,
    /// Wall-clock time of the blocking workflow.
    pub blocking_time: Duration,
}

impl PreparedDataset {
    /// Runs the standard blocking workflow on a dataset through the parallel
    /// engine and derives the block statistics and candidate pairs from its
    /// output.
    pub fn prepare(dataset: Dataset) -> Result<Self> {
        let threads = er_core::available_threads();
        let start = Instant::now();
        let csr = standard_blocking_workflow_csr(&dataset, threads);
        let blocking_time = start.elapsed();
        if csr.is_empty() {
            return Err(er_core::Error::EmptyInput(format!(
                "dataset {} produced no blocks",
                dataset.name
            )));
        }
        let stats = BlockStats::from_csr(&csr);
        let candidates = CandidatePairs::try_from_stats(&stats, threads)?;
        if candidates.is_empty() {
            return Err(er_core::Error::EmptyInput(format!(
                "dataset {} produced no candidate pairs",
                dataset.name
            )));
        }
        Ok(PreparedDataset {
            dataset,
            blocks: csr,
            stats,
            candidates,
            blocking_time,
        })
    }

    /// Number of candidate pairs, |C|.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The effectiveness of the *input* block collection (Table 2): every
    /// candidate pair is "retained".
    pub fn block_quality(&self) -> Effectiveness {
        let positives = self.candidates.count_positives(&self.dataset.ground_truth);
        Effectiveness::from_counts(
            positives,
            self.candidates.len(),
            self.dataset.num_duplicates(),
        )
    }

    /// Builds the feature context for this dataset.
    pub fn context(&self) -> FeatureContext<'_> {
        FeatureContext::new(&self.stats, &self.candidates)
    }

    /// Builds (and times) the feature matrix for a feature set.
    pub fn build_features(&self, set: FeatureSet) -> (FeatureMatrix, Duration) {
        let start = Instant::now();
        let context = self.context();
        let matrix = FeatureMatrix::build_parallel(&context, set);
        (matrix, start.elapsed())
    }

    /// Snapshot payload tag of prepared-dataset files.
    pub const SNAPSHOT_TAG: u32 = 0x5052_4550; // "PREP"

    /// The corpus fingerprint stamped on a prepared-dataset snapshot.
    fn fingerprint(dataset: &Dataset) -> u64 {
        let mut w = er_persist::Writer::new();
        w.write_str(&dataset.name);
        er_persist::Encode::encode(&dataset.kind, &mut w);
        w.write_usize(dataset.split);
        w.write_usize(dataset.num_entities());
        er_core::crc64(w.as_bytes())
    }

    /// Saves the dataset and its cleaned block collection to one atomic,
    /// checksummed snapshot file ([`er_persist::snapshot`]).  Statistics
    /// and candidate pairs are *derived* state — [`PreparedDataset::load`]
    /// recomputes them deterministically from the stored CSR, so they are
    /// not duplicated on disk.
    pub fn save(&self, path: &std::path::Path) -> er_core::PersistResult<()> {
        struct Payload<'a>(&'a PreparedDataset);
        impl er_persist::Encode for Payload<'_> {
            fn encode(&self, w: &mut er_persist::Writer) {
                self.0.dataset.encode(w);
                self.0.blocks.encode(w);
                self.0.blocking_time.encode(w);
            }
        }
        er_persist::write_snapshot(
            path,
            Self::SNAPSHOT_TAG,
            Self::fingerprint(&self.dataset),
            &Payload(self),
        )
    }

    /// Loads a snapshot written by [`PreparedDataset::save`], recomputing
    /// block statistics and candidate pairs from the stored CSR (both are
    /// deterministic functions of it, so the loaded value is equivalent to
    /// the saved one in every observable way).
    pub fn load(path: &std::path::Path) -> er_core::PersistResult<Self> {
        struct Payload(Dataset, CsrBlockCollection, Duration);
        impl er_persist::Decode for Payload {
            fn decode(r: &mut er_persist::Reader<'_>) -> er_core::PersistResult<Self> {
                Ok(Payload(
                    Dataset::decode(r)?,
                    CsrBlockCollection::decode(r)?,
                    Duration::decode(r)?,
                ))
            }
        }
        let (Payload(dataset, blocks, blocking_time), fingerprint) =
            er_persist::read_snapshot::<Payload>(path, Self::SNAPSHOT_TAG, None)?;
        let expected = Self::fingerprint(&dataset);
        if fingerprint != expected {
            return Err(er_core::PersistError::FingerprintMismatch {
                expected,
                found: fingerprint,
            });
        }
        let threads = er_core::available_threads();
        let stats = BlockStats::from_csr(&blocks);
        let candidates = CandidatePairs::try_from_stats(&stats, threads)
            .map_err(|err| er_core::PersistError::Corrupt(err.to_string()))?;
        Ok(PreparedDataset {
            dataset,
            blocks,
            stats,
            candidates,
            blocking_time,
        })
    }
}

/// Configuration of a single experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The weighting schemes used as features.
    pub feature_set: FeatureSet,
    /// Labelled instances per class.
    pub per_class: usize,
    /// The classifier to train.
    pub classifier: ClassifierKind,
    /// BLAST's pruning ratio.
    pub blast_ratio: f64,
    /// Base seed for training-pair sampling.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            feature_set: FeatureSet::original(),
            per_class: 250,
            classifier: ClassifierKind::default(),
            blast_ratio: Blast::DEFAULT_RATIO,
            seed: 0xe7a1_0001,
        }
    }
}

impl RunConfig {
    /// The paper's final configuration: 50 labelled instances (25 per class).
    pub fn final_configuration(feature_set: FeatureSet) -> Self {
        RunConfig {
            feature_set,
            per_class: 25,
            ..Default::default()
        }
    }
}

/// The result of a single run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Effectiveness of the retained pairs.
    pub effectiveness: Effectiveness,
    /// Number of retained pairs.
    pub retained: usize,
    /// Feature-generation time (zero when a cached matrix was supplied).
    pub feature_time: Duration,
    /// Training time (sampling + fitting).
    pub training_time: Duration,
    /// Scoring time (probability of every candidate pair).
    pub scoring_time: Duration,
    /// Pruning time.
    pub pruning_time: Duration,
}

impl RunResult {
    /// The paper's `RT` for this run.
    pub fn total_rt(&self) -> Duration {
        self.feature_time + self.training_time + self.scoring_time + self.pruning_time
    }
}

/// An averaged experiment result over several sampling seeds.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// The algorithm evaluated.
    pub algorithm: AlgorithmKind,
    /// Dataset name.
    pub dataset: String,
    /// Mean effectiveness across repetitions.
    pub effectiveness: Effectiveness,
    /// Per-repetition effectiveness.
    pub per_run: Vec<Effectiveness>,
    /// Mean `RT` in seconds (features counted once).
    pub mean_rt_seconds: f64,
    /// Mean number of retained pairs.
    pub mean_retained: f64,
}

/// The per-class training-set size actually used for a prepared dataset:
/// the requested size, capped at half the positive (and negative) candidate
/// pairs so that scaled-down dataset analogues never exhaust a class.
pub fn effective_per_class(prepared: &PreparedDataset, requested: usize) -> usize {
    let positives = prepared
        .candidates
        .count_positives(&prepared.dataset.ground_truth);
    let negatives = prepared.candidates.len().saturating_sub(positives);
    requested
        .min((positives / 2).max(1))
        .min((negatives / 2).max(1))
}

/// Scores every candidate pair with a model trained on a balanced sample and
/// returns the cached probabilities plus the training/scoring times.
///
/// The requested `per_class` is capped via [`effective_per_class`] so that
/// experiments keep running on small dataset analogues.
pub fn train_and_score(
    prepared: &PreparedDataset,
    matrix: &FeatureMatrix,
    config: &RunConfig,
    seed: u64,
) -> Result<(CachedScores, Duration, Duration)> {
    let training_start = Instant::now();
    let mut rng = er_core::seeded_rng(seed);
    let sample = balanced_undersample(
        prepared.candidates.pairs(),
        &prepared.dataset.ground_truth,
        effective_per_class(prepared, config.per_class),
        &mut rng,
    )?;
    let mut training = TrainingSet::new();
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        training.push(matrix.row(PairId::from(pair_index)).to_vec(), label);
    }
    let model = config.classifier.fit(&training)?;
    let training_time = training_start.elapsed();

    let scoring_start = Instant::now();
    let probabilities: Vec<f64> = (0..matrix.num_pairs())
        .map(|i| {
            model
                .probability(matrix.row(PairId::from(i)))
                .clamp(0.0, 1.0)
        })
        .collect();
    let scores = CachedScores::new(probabilities);
    let scoring_time = scoring_start.elapsed();
    Ok((scores, training_time, scoring_time))
}

/// Runs one algorithm once on a prepared dataset with a pre-built feature
/// matrix.
pub fn run_with_matrix(
    prepared: &PreparedDataset,
    matrix: &FeatureMatrix,
    feature_time: Duration,
    algorithm: AlgorithmKind,
    config: &RunConfig,
    seed: u64,
) -> Result<RunResult> {
    let (scores, training_time, scoring_time) = train_and_score(prepared, matrix, config, seed)?;

    let pruning_start = Instant::now();
    let pruner = algorithm.build_with_csr(&prepared.blocks, config.blast_ratio);
    let retained = pruner.prune(&prepared.candidates, &scores);
    let pruning_time = pruning_start.elapsed();

    let retained_pairs: Vec<_> = retained
        .iter()
        .map(|&id| prepared.candidates.pair(id))
        .collect();
    let effectiveness = Effectiveness::evaluate(
        &retained_pairs,
        &prepared.dataset.ground_truth,
        prepared.dataset.num_duplicates(),
    );

    Ok(RunResult {
        effectiveness,
        retained: retained.len(),
        feature_time,
        training_time,
        scoring_time,
        pruning_time,
    })
}

/// Runs one algorithm once without ever materialising the feature matrix:
/// the sampled training rows are derived pair-by-pair and every candidate is
/// scored through the chunked [`CandidateStream`] walk, so peak feature state
/// is `O(threads × chunk_pairs)` rows instead of `O(|C|)` rows.
///
/// With the same seed the retained set is identical to
/// [`run_once`]'s — the streamed pass is bit-identical to the batch pass —
/// only the time breakdown differs (`feature_time` is folded into
/// `scoring_time` because features are never stored).
pub fn run_streamed(
    prepared: &PreparedDataset,
    algorithm: AlgorithmKind,
    config: &RunConfig,
    chunk_pairs: usize,
) -> Result<RunResult> {
    let threads = er_core::available_threads();
    let set = config.feature_set;

    let training_start = Instant::now();
    let mut rng = er_core::seeded_rng(config.seed);
    let sample = balanced_undersample(
        prepared.candidates.pairs(),
        &prepared.dataset.ground_truth,
        effective_per_class(prepared, config.per_class),
        &mut rng,
    )?;
    let context = prepared.context();
    let mut training = TrainingSet::new();
    let mut row = vec![0.0f64; set.vector_len()];
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        let (a, b) = prepared.candidates.pair(PairId::from(pair_index));
        context.write_pair_features(a, b, set, &mut row);
        training.push(row.clone(), label);
    }
    let model = config.classifier.fit(&training)?;
    let training_time = training_start.elapsed();

    let scoring_start = Instant::now();
    let stream = CandidateStream::from_stats(&prepared.stats, threads);
    let stream_context = StreamFeatureContext::new(&prepared.stats, stream.lcp_table());
    let probabilities = FeatureMatrix::score_stream_with(
        &stream_context,
        &stream,
        set,
        threads,
        &ScoreboardConfig::default(),
        chunk_pairs.max(1),
        |row| model.probability(row).clamp(0.0, 1.0),
    );
    let scores = CachedScores::new(probabilities);
    let scoring_time = scoring_start.elapsed();

    let pruning_start = Instant::now();
    let pruner = algorithm.build_with_csr(&prepared.blocks, config.blast_ratio);
    let retained = pruner.prune(&prepared.candidates, &scores);
    let pruning_time = pruning_start.elapsed();

    let retained_pairs: Vec<_> = retained
        .iter()
        .map(|&id| prepared.candidates.pair(id))
        .collect();
    let effectiveness = Effectiveness::evaluate(
        &retained_pairs,
        &prepared.dataset.ground_truth,
        prepared.dataset.num_duplicates(),
    );

    Ok(RunResult {
        effectiveness,
        retained: retained.len(),
        feature_time: Duration::ZERO,
        training_time,
        scoring_time,
        pruning_time,
    })
}

/// Runs one algorithm once, building the feature matrix as part of the run
/// (matches the paper's definition of `RT`).
pub fn run_once(
    prepared: &PreparedDataset,
    algorithm: AlgorithmKind,
    config: &RunConfig,
) -> Result<RunResult> {
    let (matrix, feature_time) = prepared.build_features(config.feature_set);
    run_with_matrix(
        prepared,
        &matrix,
        feature_time,
        algorithm,
        config,
        config.seed,
    )
}

/// Runs one algorithm `repetitions` times with different sampling seeds and
/// averages the results.  The feature matrix is built once and its
/// construction time is included in the reported mean `RT`.
pub fn run_averaged(
    prepared: &PreparedDataset,
    algorithm: AlgorithmKind,
    config: &RunConfig,
    repetitions: usize,
) -> Result<AveragedResult> {
    let repetitions = repetitions.max(1);
    let (matrix, feature_time) = prepared.build_features(config.feature_set);
    let mut per_run = Vec::with_capacity(repetitions);
    let mut rt_sum = 0.0f64;
    let mut retained_sum = 0.0f64;
    for rep in 0..repetitions {
        let seed = er_core::rng::derive_seed(config.seed, rep as u64);
        let result = run_with_matrix(prepared, &matrix, feature_time, algorithm, config, seed)?;
        rt_sum += result.total_rt().as_secs_f64();
        retained_sum += result.retained as f64;
        per_run.push(result.effectiveness);
    }
    Ok(AveragedResult {
        algorithm,
        dataset: prepared.dataset.name.clone(),
        effectiveness: Effectiveness::mean(&per_run),
        per_run,
        mean_rt_seconds: rt_sum / repetitions as f64,
        mean_retained: retained_sum / repetitions as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};

    fn prepared() -> PreparedDataset {
        let dataset =
            generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
        PreparedDataset::prepare(dataset).unwrap()
    }

    #[test]
    fn prepared_dataset_has_candidates_and_quality() {
        let prepared = prepared();
        assert!(prepared.num_candidates() > 0);
        let quality = prepared.block_quality();
        // The input block collection must be recall-oriented and imprecise.
        assert!(quality.recall > 0.5, "blocking recall too low: {quality}");
        assert!(
            quality.precision < 0.5,
            "blocking precision suspicious: {quality}"
        );
    }

    #[test]
    fn run_once_produces_sane_results() {
        let prepared = prepared();
        let config = RunConfig {
            per_class: 20,
            ..Default::default()
        };
        let result = run_once(&prepared, AlgorithmKind::Blast, &config).unwrap();
        assert!(result.retained > 0);
        assert!(result.effectiveness.recall > 0.0);
        assert!(result.total_rt() > Duration::ZERO);
    }

    #[test]
    fn averaged_runs_are_deterministic_given_seed() {
        let prepared = prepared();
        let config = RunConfig {
            per_class: 15,
            ..Default::default()
        };
        let a = run_averaged(&prepared, AlgorithmKind::Rcnp, &config, 3).unwrap();
        let b = run_averaged(&prepared, AlgorithmKind::Rcnp, &config, 3).unwrap();
        assert_eq!(a.effectiveness, b.effectiveness);
        assert_eq!(a.per_run.len(), 3);
    }

    #[test]
    fn streamed_run_matches_the_materialised_run() {
        let prepared = prepared();
        let config = RunConfig {
            per_class: 20,
            ..Default::default()
        };
        for algorithm in [AlgorithmKind::Blast, AlgorithmKind::Rcnp] {
            let batch = run_once(&prepared, algorithm, &config).unwrap();
            for chunk_pairs in [7usize, er_blocking::DEFAULT_CHUNK_PAIRS] {
                let streamed = run_streamed(&prepared, algorithm, &config, chunk_pairs).unwrap();
                assert_eq!(streamed.retained, batch.retained, "{algorithm}");
                assert_eq!(streamed.effectiveness, batch.effectiveness, "{algorithm}");
            }
        }
    }

    #[test]
    fn pruning_improves_precision_over_input_blocks() {
        let prepared = prepared();
        let config = RunConfig {
            per_class: 20,
            ..Default::default()
        };
        let result = run_once(&prepared, AlgorithmKind::Bcl, &config).unwrap();
        let input_quality = prepared.block_quality();
        assert!(
            result.effectiveness.precision > input_quality.precision,
            "meta-blocking must raise precision: {} vs {}",
            result.effectiveness.precision,
            input_quality.precision
        );
    }

    #[test]
    fn oversized_training_requests_are_capped() {
        let prepared = prepared();
        let positives = prepared
            .candidates
            .count_positives(&prepared.dataset.ground_truth);
        let capped = effective_per_class(&prepared, 1_000_000);
        assert!(capped <= (positives / 2).max(1));
        assert!(capped >= 1);
        // And the capped run actually succeeds.
        let config = RunConfig {
            per_class: 1_000_000,
            ..Default::default()
        };
        let result = run_once(&prepared, AlgorithmKind::Bcl, &config).unwrap();
        assert!(result.retained > 0);
    }

    #[test]
    fn final_configuration_uses_25_per_class() {
        let config = RunConfig::final_configuration(FeatureSet::blast_optimal());
        assert_eq!(config.per_class, 25);
        assert_eq!(config.feature_set, FeatureSet::blast_optimal());
    }

    #[test]
    fn prepared_dataset_saves_and_loads_equivalently() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/prepared-save-load");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prepared.gsmb");

        let original = prepared();
        original.save(&path).unwrap();
        let loaded = PreparedDataset::load(&path).unwrap();

        assert_eq!(loaded.dataset.name, original.dataset.name);
        assert_eq!(loaded.dataset.profiles, original.dataset.profiles);
        assert_eq!(
            loaded.dataset.ground_truth.pairs(),
            original.dataset.ground_truth.pairs()
        );
        assert!(loaded.blocks.same_blocks(&original.blocks));
        // Derived state recomputes identically from the stored CSR.
        assert_eq!(loaded.candidates.pairs(), original.candidates.pairs());
        assert_eq!(loaded.num_candidates(), original.num_candidates());
        assert_eq!(loaded.blocking_time, original.blocking_time);
        // A loaded dataset drives the experiment harness exactly like the
        // freshly prepared one (same seed → same retained set).
        let config = RunConfig::default();
        let a = run_once(&original, AlgorithmKind::Blast, &config).unwrap();
        let b = run_once(&loaded, AlgorithmKind::Blast, &config).unwrap();
        assert_eq!(a.retained, b.retained);
        assert_eq!(a.effectiveness.recall, b.effectiveness.recall);

        // A flipped byte surfaces as a typed error.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 3;
        bytes[at] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let err = match PreparedDataset::load(&path) {
            Err(err) => err,
            Ok(_) => panic!("corrupt snapshot loaded successfully"),
        };
        assert!(
            matches!(
                err,
                er_core::PersistError::ChecksumMismatch { .. }
                    | er_core::PersistError::Truncated { .. }
            ),
            "{err:?}"
        );
    }
}
