//! The adapter: every `gsmb::` item the benchmark names is imported here
//! and nowhere else, so the surface the benchmark depends on is this file.
//!
//! It is deliberately the surface ROADMAP directions 2–3 keep: the CSR
//! blocking functions, the two candidate engines, the fused scoring
//! passes, sampling and fitting, CSR-built pruning, the batch and
//! streaming pipelines, the scored streaming blocker, the sharded service
//! and its durable form, `Effectiveness` and the metrics registry.  No
//! nested `BlockCollection`, no `_unscored` twin, no `FlatScoreboard`, no
//! `reference` engine, no `DurableMetaBlocker` / `DurableStreamingPipeline`
//! / `GenerationStore` — a change that deletes those cannot break the
//! benchmark it is judged by.

use std::path::Path;

pub use gsmb::blocking::{
    block_filtering_csr, block_purging_csr, build_blocks, token_blocking_csr, BlockStats,
    CandidatePairs, CandidateStream, CsrBlockCollection, TokenKeys, DEFAULT_CHUNK_PAIRS,
    DEFAULT_FILTERING_RATIO,
};
pub use gsmb::core::tokenize::for_each_token;
pub use gsmb::core::{Dataset, DatasetKind, EntityId, EntityProfile, GroundTruth, PairId};
pub use gsmb::eval::Effectiveness;
pub use gsmb::features::{
    reset_scoreboard_metrics, scoreboard_metrics, FeatureContext, FeatureMatrix, FeatureSet,
    StreamFeatureContext,
};
pub use gsmb::learn::{balanced_undersample, BalancedSample, ProbabilisticClassifier, TrainingSet};
pub use gsmb::meta::pipeline::{MetaBlockingConfig, MetaBlockingPipeline};
pub use gsmb::meta::scoring::CachedScores;
pub use gsmb::meta::{AlgorithmKind, StreamingPipeline};
pub use gsmb::shard::{DurableShardedService, EpochReader, ShardedStreamingService};
pub use gsmb::stream::{
    dataset_prefix, surviving_dataset, DeltaBatch, MutationRecord, StreamingConfig,
    StreamingMetaBlocker,
};

pub type Model = Box<dyn ProbabilisticClassifier>;
pub type Service = ShardedStreamingService<TokenKeys>;
pub type DurableService = DurableShardedService<TokenKeys>;
pub type Blocker = StreamingMetaBlocker<TokenKeys>;

/// The bounded-memory synthetic Dirty corpus (`scal-<n>`).
pub fn dirty_dataset(num_entities: usize, seed: u64) -> Dataset {
    use gsmb::datasets::{generate_scalability, ScalabilityConfig};
    generate_scalability(&ScalabilityConfig::at_scale(num_entities, seed))
        .expect("the scalability generator accepts every size the benchmark asks for")
}

/// The Clean-Clean Movies analogue at `scale` times its catalog size.
pub fn movies_dataset(scale: f64, seed: u64) -> Dataset {
    use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    let options = CatalogOptions {
        scale,
        seed,
        ..CatalogOptions::default()
    };
    generate_catalog_dataset(DatasetName::Movies, &options)
        .expect("the catalog generator accepts every scale the benchmark asks for")
}

/// The batch pipeline configuration: the library default with the thread
/// count pinned and `per_class` labelled pairs per class; the dense
/// workload switches on every weighting scheme and the streamed scoring
/// engine.
pub fn batch_config(dense: bool, threads: usize, per_class: usize) -> MetaBlockingConfig {
    let mut config = MetaBlockingConfig {
        threads: Some(threads),
        per_class,
        ..MetaBlockingConfig::default()
    };
    if dense {
        config.feature_set = FeatureSet::all_schemes();
        config.candidate_chunk_pairs = Some(DEFAULT_CHUNK_PAIRS);
    }
    config
}

pub fn stream_config(dataset: &Dataset, config: &MetaBlockingConfig) -> StreamingConfig {
    StreamingConfig {
        feature_set: config.feature_set,
        threads: config.effective_threads(),
        scoreboard: config.scoreboard.clone(),
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// Block Purging then Block Filtering at the default ratio: the cleaning
/// the batch pipeline and the live view both apply to raw token blocks.
pub fn cleaned(raw: &CsrBlockCollection) -> CsrBlockCollection {
    block_filtering_csr(&block_purging_csr(raw), DEFAULT_FILTERING_RATIO)
}

/// The distinct comparable pairs of a block collection.
pub fn candidate_pairs(blocks: &CsrBlockCollection, threads: usize) -> CandidatePairs {
    CandidatePairs::try_from_stats(&BlockStats::from_csr(blocks), threads)
        .expect("streaming corpora stay far below the pair-index ceiling")
}

/// The labelled training rows of a corpus, assembled through the same
/// calls, in the same order, as `MetaBlockingPipeline::run`; [`fit`] turns
/// them into the model the streaming workloads attach to their engines.
pub fn training_set(config: &MetaBlockingConfig, corpus: &Dataset) -> TrainingSet {
    let threads = config.effective_threads();
    let stats = BlockStats::from_csr(&cleaned(&token_blocking_csr(corpus, threads)));
    let candidates = CandidatePairs::try_from_stats(&stats, threads)
        .expect("seed corpora stay far below the pair-index ceiling");
    let context = FeatureContext::new(&stats, &candidates);
    let sample = balanced_sample(config, corpus, &candidates);
    training_rows(config, &candidates, &context, &sample)
}

/// The pipeline's balanced training sample (same seed, same draw).
pub fn balanced_sample(
    config: &MetaBlockingConfig,
    corpus: &Dataset,
    candidates: &CandidatePairs,
) -> BalancedSample {
    let mut rng = gsmb::core::seeded_rng(config.seed);
    balanced_undersample(
        candidates.pairs(),
        &corpus.ground_truth,
        config.per_class,
        &mut rng,
    )
    .expect("benchmark corpora hold enough candidate pairs of both classes")
}

/// The sampled pairs' feature rows, as the pipeline assembles them.
pub fn training_rows(
    config: &MetaBlockingConfig,
    candidates: &CandidatePairs,
    context: &FeatureContext<'_>,
    sample: &BalancedSample,
) -> TrainingSet {
    let set = config.feature_set;
    let mut training = TrainingSet::new();
    let mut row = vec![0.0f64; set.vector_len()];
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        let (a, b) = candidates.pair(PairId::from(pair_index));
        context.write_pair_features(a, b, set, &mut row);
        training.push(row.clone(), label);
    }
    training
}

pub fn fit(config: &MetaBlockingConfig, training: &TrainingSet) -> Model {
    config
        .classifier
        .fit(training)
        .expect("a balanced sample always trains")
}

/// Tokenises every attribute value of the corpus on `threads` workers and
/// returns the token count: the floor under token blocking.
pub fn tokenize_all(dataset: &Dataset, threads: usize) -> u64 {
    let chunk = dataset.profiles.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = dataset
            .profiles
            .chunks(chunk)
            .map(|profiles| {
                scope.spawn(move || {
                    let mut scratch = String::new();
                    let mut tokens = 0u64;
                    for profile in profiles {
                        for attribute in &profile.attributes {
                            for_each_token(&attribute.value, &mut scratch, |token| {
                                std::hint::black_box(token);
                                tokens += 1;
                            });
                        }
                    }
                    tokens
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("tokeniser worker panicked"))
            .sum()
    })
}

/// The entities of a Dirty `corpus` that `removed` leaves alive, as a corpus
/// of their own — ids renumbered densely, in order, so that retired ids do
/// not count as entities when pruning sizes its thresholds — and each new
/// id's old one.
pub fn alive_corpus(corpus: &Dataset, removed: &[EntityId]) -> (Dataset, Vec<EntityId>) {
    let mut dead = vec![false; corpus.num_entities()];
    for entity in removed {
        dead[entity.index()] = true;
    }
    let alive: Vec<EntityId> = (0..corpus.num_entities() as u32)
        .map(EntityId)
        .filter(|e| !dead[e.index()])
        .collect();
    let mut renumbered = vec![EntityId(u32::MAX); dead.len()];
    for (new, old) in alive.iter().enumerate() {
        renumbered[old.index()] = EntityId(new as u32);
    }
    let ground_truth = GroundTruth::from_pairs(
        corpus
            .ground_truth
            .pairs()
            .iter()
            .filter(|(a, b)| !dead[a.index()] && !dead[b.index()])
            .map(|&(a, b)| (renumbered[a.index()], renumbered[b.index()])),
    );
    let dataset = Dataset {
        name: corpus.name.clone(),
        kind: corpus.kind,
        profiles: alive
            .iter()
            .map(|e| corpus.profiles[e.index()].clone())
            .collect(),
        split: alive.len(),
        ground_truth,
    };
    (dataset, alive)
}

/// Block-for-block equality through the public accessors.
pub fn blocks_equal(a: &CsrBlockCollection, b: &CsrBlockCollection) -> bool {
    a.num_blocks() == b.num_blocks()
        && (0..a.num_blocks()).all(|i| a.key(i) == b.key(i) && a.entities(i) == b.entities(i))
}

/// The comparisons a brute-force resolver would make on the corpus.
pub fn brute_force_comparisons(dataset: &Dataset) -> f64 {
    let n = dataset.num_entities() as f64;
    match dataset.kind {
        DatasetKind::Dirty => n * (n - 1.0) / 2.0,
        DatasetKind::CleanClean => dataset.len_e1() as f64 * dataset.len_e2() as f64,
    }
}

/// A reading of the `er-obs` registry; differences between two readings
/// are the counts a span produced.
pub struct ObsReading(gsmb::obs::MetricsSnapshot);

pub fn obs_reading() -> ObsReading {
    ObsReading(gsmb::obs::snapshot())
}

pub fn set_obs_enabled(on: bool) {
    gsmb::obs::set_enabled(on);
}

impl ObsReading {
    pub fn value(&self, name: &str) -> u64 {
        self.0.value(name).unwrap_or(0)
    }

    pub fn since(&self, earlier: &ObsReading, name: &str) -> f64 {
        self.value(name).saturating_sub(earlier.value(name)) as f64
    }

    /// The median of the observations a log2 histogram took between two
    /// readings, as the upper bound of the bucket holding it.
    pub fn histogram_p50_since(&self, earlier: &ObsReading, name: &str) -> f64 {
        let Some(now) = self.0.histogram(name) else {
            return 0.0;
        };
        let before = earlier.0.histogram(name);
        let before_at = |bound: u64| {
            before.map_or(0, |h| {
                h.buckets
                    .iter()
                    .take_while(|&&(b, _)| b <= bound)
                    .last()
                    .map_or(0, |&(_, cumulative)| cumulative)
            })
        };
        let total = now.count.saturating_sub(before.map_or(0, |h| h.count));
        if total == 0 {
            return 0.0;
        }
        now.buckets
            .iter()
            .find(|&&(bound, cumulative)| cumulative.saturating_sub(before_at(bound)) * 2 >= total)
            .map_or(0.0, |&(bound, _)| bound as f64)
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
