//! Experiment runners.
//!
//! A [`PreparedDataset`] runs the blocking workflow and the pipeline's
//! [`prepare`] stage once; every experiment (algorithm comparison, feature
//! selection, training-size sweep, …) then runs on top of it, through the
//! pipeline's [`train`] and [`score`] stages ([`train_and_score`]) — the
//! fused feature + probability pass `MetaBlockingPipeline::run` makes, so
//! the paper's numbers come from the pipeline's own scoring path.  A run
//! trains and scores once, keeping the valid pairs as it scores, and lets
//! every algorithm it compares decide on that one list ([`run_with_seed`]);
//! [`run_averaged`] repeats that with different sampling seeds and averages
//! the effectiveness, exactly like the paper's 10-run averages.  Every
//! runner takes the pipeline's [`MetaBlockingConfig`]; [`default_config`]
//! holds the harness's defaults.
//!
//! Each algorithm's `RT` ([`Timings::total_rt`]) keeps the paper's
//! definition, as if it ran alone: the shared per-entity feature tables,
//! training and fused feature + probability pass, plus that algorithm's own
//! decision.

use std::time::{Duration, Instant};

use er_blocking::{
    clean_blocks_csr, BlockStats, CandidatePairs, CandidateStream, CsrBlockCollection,
};
use er_core::{Dataset, PairId, Result};
use er_features::{FeatureContext, FeatureSet};
use meta_blocking::pipeline::{prepare, score, train, MetaBlockingConfig, Timings};
use meta_blocking::pruning::{AlgorithmKind, ValidPairs};
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
    /// Wall-clock time of Token Blocking, Purging and Filtering (the
    /// statistics are not included).
    pub blocking_time: Duration,
}

impl PreparedDataset {
    /// Runs the standard blocking workflow on a dataset through the parallel
    /// engine and the pipeline's [`prepare`] stage on its output.
    pub fn prepare(dataset: Dataset) -> Result<Self> {
        let threads = er_core::available_threads();
        // Timed like `MetaBlockingPipeline::run`'s `blocking`: the
        // statistics are not part of it.
        let start = Instant::now();
        let (blocks, entity_side) = clean_blocks_csr(&dataset, threads);
        let blocking_time = start.elapsed();
        let stats = BlockStats::from_entity_side(&blocks, entity_side, threads);
        let (stats, candidates) = prepare(&blocks, stats, threads)?;
        Ok(PreparedDataset {
            dataset,
            blocks,
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

    /// Snapshot payload tag of prepared-dataset files.
    pub(crate) const SNAPSHOT_TAG: u32 = 0x5052_4550; // "PREP"

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
    /// block statistics and candidate pairs from the stored CSR through the
    /// pipeline's [`prepare`] stage (both are deterministic functions of it,
    /// so the loaded value is equivalent to the saved one in every
    /// observable way).  A snapshot whose collection [`prepare`] refuses —
    /// no blocks, or no candidate pair — is [`er_core::PersistError::Corrupt`]:
    /// [`PreparedDataset::prepare`] never produces one.
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
        let stats = BlockStats::from_csr(&blocks);
        let (stats, candidates) = prepare(&blocks, stats, er_core::available_threads())
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

/// The configuration experiments start from: the pipeline's defaults with
/// the harness's own — the original feature set, 250 labelled pairs per
/// class and sampling seed `0xe7a1_0001`.  Experiments override fields with
/// struct-update syntax (`MetaBlockingConfig { per_class: 25,
/// ..default_config() }`).
pub fn default_config() -> MetaBlockingConfig {
    MetaBlockingConfig {
        feature_set: FeatureSet::original(),
        per_class: 250,
        seed: 0xe7a1_0001,
        ..MetaBlockingConfig::default()
    }
}

/// The result of a single run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Effectiveness of the retained pairs.
    pub effectiveness: Effectiveness,
    /// Number of retained pairs.
    pub retained: usize,
    /// The ids of the retained pairs in the prepared dataset's candidate
    /// index, as the pruning algorithm emitted them — what
    /// `MetaBlockingOutcome::retained` holds for the same configuration.
    pub retained_ids: Vec<PairId>,
    /// Run-time breakdown; [`Timings::total_rt`] is the paper's `RT`.
    /// `blocking` is the prepared dataset's.  `features` (the per-entity
    /// feature tables), `training` and `scoring` (the fused feature +
    /// probability pass, which also keeps the valid pairs) are shared by
    /// every algorithm of the run, and `pruning` is this algorithm's own
    /// decision.  The statistics and the candidate index are built once per
    /// prepared dataset and counted in none of them.
    pub timings: Timings,
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
    /// Mean `RT` in seconds over the repetitions.
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

/// Trains a model on a balanced sample and scores every candidate pair with
/// it, as `MetaBlockingPipeline::run` does: the per-entity feature tables,
/// the pipeline's [`train`] stage, then its [`score`] stage over a
/// [`CandidateStream::from_counts`] stream of the prepared index.  Returns
/// the probabilities by pair id, the valid pairs and the run's timings
/// (`pruning` is zero).
///
/// Sampling uses seed `seed` and the requested `per_class` capped via
/// [`effective_per_class`], so that experiments keep running on small
/// dataset analogues.
pub fn train_and_score(
    prepared: &PreparedDataset,
    config: &MetaBlockingConfig,
    seed: u64,
) -> Result<(CachedScores, ValidPairs, Timings)> {
    let feature_start = Instant::now();
    let context = prepared.context();
    let feature_time = feature_start.elapsed();

    let training_start = Instant::now();
    let config = MetaBlockingConfig {
        per_class: effective_per_class(prepared, config.per_class),
        seed,
        ..config.clone()
    };
    let model = train(&config, &context, &prepared.dataset.ground_truth)?;
    let training_time = training_start.elapsed();

    let scoring_start = Instant::now();
    let stream = CandidateStream::from_counts(&prepared.stats, &prepared.candidates);
    let context = context.into_stream_context(&stream);
    let (scores, valid) = score(&config, &model, &context, &stream);
    let timings = Timings {
        blocking: prepared.blocking_time,
        features: feature_time,
        training: training_time,
        scoring: scoring_start.elapsed(),
        pruning: Duration::ZERO,
    };
    Ok((scores, valid, timings))
}

/// Runs `algorithms` once on a prepared dataset with sampling seed `seed`
/// and returns one result per algorithm, in order.  The run trains and
/// scores once ([`train_and_score`]), keeping the valid pairs as it scores;
/// then each algorithm decides on them
/// ([`PruningAlgorithm::prune_valid`](meta_blocking::pruning::PruningAlgorithm::prune_valid)),
/// as in `MetaBlockingPipeline::run`, and its retained ids are resolved in
/// one forward walk over the index.  Each result's `pruning` time is that
/// algorithm's own decision.
pub fn run_with_seed(
    prepared: &PreparedDataset,
    algorithms: &[AlgorithmKind],
    config: &MetaBlockingConfig,
    seed: u64,
) -> Result<Vec<RunResult>> {
    // Parameters an algorithm could not be built with (an invalid BLAST
    // ratio) are refused before any work.
    algorithms
        .iter()
        .try_for_each(|algorithm| algorithm.check_parameters(config.blast_ratio))?;
    let (_, valid, timings) = train_and_score(prepared, config, seed)?;

    let run = |&algorithm: &AlgorithmKind| {
        let decision_start = Instant::now();
        let pruner = algorithm.build_with_csr(&prepared.blocks, config.blast_ratio);
        let retained = pruner.prune_valid(&valid);
        let pruning = decision_start.elapsed();

        let retained_pairs = prepared.candidates.resolve(&retained);
        let effectiveness = Effectiveness::evaluate(
            &retained_pairs,
            &prepared.dataset.ground_truth,
            prepared.dataset.num_duplicates(),
        );
        RunResult {
            effectiveness,
            retained: retained.len(),
            retained_ids: retained,
            timings: Timings { pruning, ..timings },
        }
    };
    Ok(algorithms.iter().map(run).collect())
}

/// Runs one algorithm once with the configuration's own seed.
pub fn run_once(
    prepared: &PreparedDataset,
    algorithm: AlgorithmKind,
    config: &MetaBlockingConfig,
) -> Result<RunResult> {
    let mut results = run_with_seed(prepared, &[algorithm], config, config.seed)?;
    Ok(results.remove(0))
}

/// Runs `algorithms` `repetitions` times with different sampling seeds and
/// returns one averaged result per algorithm, in order.  Each repetition
/// trains, scores and keeps the valid pairs once for all the algorithms
/// ([`run_with_seed`]).
pub fn run_averaged(
    prepared: &PreparedDataset,
    algorithms: &[AlgorithmKind],
    config: &MetaBlockingConfig,
    repetitions: usize,
) -> Result<Vec<AveragedResult>> {
    let repetitions = repetitions.max(1);
    // The sums accumulate in the mean fields and are divided at the end.
    let mut averaged: Vec<AveragedResult> = algorithms
        .iter()
        .map(|&algorithm| AveragedResult {
            algorithm,
            dataset: prepared.dataset.name.clone(),
            effectiveness: Effectiveness::default(),
            per_run: Vec::with_capacity(repetitions),
            mean_rt_seconds: 0.0,
            mean_retained: 0.0,
        })
        .collect();
    for rep in 0..repetitions {
        let seed = er_core::rng::derive_seed(config.seed, rep as u64);
        let results = run_with_seed(prepared, algorithms, config, seed)?;
        for (average, result) in averaged.iter_mut().zip(results) {
            average.per_run.push(result.effectiveness);
            average.mean_rt_seconds += result.timings.total_rt().as_secs_f64();
            average.mean_retained += result.retained as f64;
        }
    }
    for average in &mut averaged {
        average.effectiveness = Effectiveness::mean(&average.per_run);
        average.mean_rt_seconds /= repetitions as f64;
        average.mean_retained /= repetitions as f64;
    }
    Ok(averaged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    use meta_blocking::pruning::Blast;

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
        let config = MetaBlockingConfig {
            per_class: 20,
            ..default_config()
        };
        let result = run_once(&prepared, AlgorithmKind::Blast, &config).unwrap();
        assert!(result.retained > 0);
        assert!(result.effectiveness.recall > 0.0);
        assert!(result.timings.total_rt() > Duration::ZERO);
    }

    #[test]
    fn averaged_runs_are_deterministic_given_seed() {
        let prepared = prepared();
        let config = MetaBlockingConfig {
            per_class: 15,
            ..default_config()
        };
        let a = run_averaged(&prepared, &[AlgorithmKind::Rcnp], &config, 3).unwrap();
        let b = run_averaged(&prepared, &[AlgorithmKind::Rcnp], &config, 3).unwrap();
        assert_eq!(a[0].effectiveness, b[0].effectiveness);
        assert_eq!(a[0].per_run.len(), 3);
    }

    /// One shared training and scoring pass per repetition decides every
    /// algorithm exactly as a run of its own does.
    #[test]
    fn averaging_two_algorithms_equals_averaging_each_alone() {
        let prepared = prepared();
        let config = MetaBlockingConfig {
            per_class: 15,
            ..default_config()
        };
        let algorithms = [AlgorithmKind::Blast, AlgorithmKind::Rcnp];
        let both = run_averaged(&prepared, &algorithms, &config, 3).unwrap();
        assert_eq!(both.len(), 2);
        for (shared, algorithm) in both.iter().zip(algorithms) {
            let alone = run_averaged(&prepared, &[algorithm], &config, 3).unwrap();
            let [alone] = alone.as_slice() else {
                panic!("one result per algorithm")
            };
            assert_eq!(shared.algorithm, algorithm);
            assert_eq!(shared.dataset, alone.dataset);
            assert_eq!(shared.effectiveness, alone.effectiveness, "{algorithm}");
            assert_eq!(shared.per_run, alone.per_run, "{algorithm}");
            assert_eq!(shared.mean_retained, alone.mean_retained, "{algorithm}");
            assert!(shared.mean_rt_seconds > 0.0);
        }
    }

    /// BLAST's ratio is checked before any work, for every runner: an
    /// invalid one is an `InvalidParameter` error, never a panic after
    /// scoring.  The other algorithms ignore the field.
    #[test]
    fn an_invalid_blast_ratio_is_refused_before_any_work() {
        let prepared = prepared();
        let config = |blast_ratio| MetaBlockingConfig {
            per_class: 15,
            blast_ratio,
            ..default_config()
        };
        let blast_rcnp = [AlgorithmKind::Blast, AlgorithmKind::Rcnp];
        for ratio in [f64::NAN, 0.0, 1.5] {
            let config = config(ratio);
            let refused = std::panic::catch_unwind(|| {
                [
                    run_with_seed(&prepared, &blast_rcnp, &config, 1).map(drop),
                    run_once(&prepared, AlgorithmKind::Blast, &config).map(drop),
                    run_averaged(&prepared, &blast_rcnp, &config, 2).map(drop),
                ]
            })
            .expect("refused without a panic");
            for result in refused {
                assert!(
                    matches!(result, Err(er_core::Error::InvalidParameter(ref m)) if m.contains("BLAST")),
                    "ratio {ratio}: {result:?}"
                );
            }
        }
        let run = |algorithm, ratio| {
            run_with_seed(&prepared, &[algorithm], &config(ratio), 1)
                .map(|mut results| results.remove(0))
        };
        // A ratio of 1 is accepted.  It retains nothing: both endpoints'
        // maxima are at least the pair's own probability.
        assert_eq!(run(AlgorithmKind::Blast, 1.0).unwrap().retained, 0);
        assert_eq!(
            run(AlgorithmKind::Rcnp, 1.5).unwrap().retained_ids,
            run(AlgorithmKind::Rcnp, Blast::DEFAULT_RATIO)
                .unwrap()
                .retained_ids
        );
    }

    #[test]
    fn pruning_improves_precision_over_input_blocks() {
        let prepared = prepared();
        let config = MetaBlockingConfig {
            per_class: 20,
            ..default_config()
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
        let config = MetaBlockingConfig {
            per_class: 1_000_000,
            ..default_config()
        };
        let result = run_once(&prepared, AlgorithmKind::Bcl, &config).unwrap();
        assert!(result.retained > 0);
    }

    #[test]
    fn default_config_keeps_the_harness_defaults() {
        let config = default_config();
        assert_eq!(config.feature_set, FeatureSet::original());
        assert_eq!(config.per_class, 250);
        assert_eq!(config.seed, 0xe7a1_0001);
        assert_eq!(config.classifier.name(), "LogisticRegression");
        assert_eq!(config.blast_ratio, Blast::DEFAULT_RATIO);
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
        let config = default_config();
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

    #[test]
    fn load_refuses_a_snapshot_that_prepare_would_refuse() {
        // A checksummed, correctly fingerprinted PREP snapshot holding a real
        // dataset and an empty block collection: `prepare` refuses such a
        // collection, so `load` must too instead of handing it to sampling.
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/prepared-empty-blocks");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prepared.gsmb");

        let dataset = prepared().dataset;
        let empty = CsrBlockCollection::from_blocks(
            dataset.name.clone(),
            dataset.kind,
            dataset.split,
            dataset.num_entities(),
            std::iter::empty::<(String, Vec<er_core::EntityId>)>(),
        );
        assert!(empty.is_empty());
        struct Payload<'a>(&'a Dataset, &'a CsrBlockCollection);
        impl er_persist::Encode for Payload<'_> {
            fn encode(&self, w: &mut er_persist::Writer) {
                self.0.encode(w);
                self.1.encode(w);
                Duration::ZERO.encode(w);
            }
        }
        er_persist::write_snapshot(
            &path,
            PreparedDataset::SNAPSHOT_TAG,
            PreparedDataset::fingerprint(&dataset),
            &Payload(&dataset, &empty),
        )
        .unwrap();

        let err = match PreparedDataset::load(&path) {
            Err(err) => err,
            Ok(_) => panic!("a snapshot with no blocks loaded successfully"),
        };
        assert!(
            matches!(err, er_core::PersistError::Corrupt(ref msg) if msg.contains("no blocks")),
            "{err:?}"
        );
    }
}
