//! Ablation: cached probabilities vs scoring on demand.
//!
//! The paper's pseudo-code calls `M.getProbability(c_ij)` in each of the two
//! passes of the weight-based algorithms.  `prune` asks its
//! `ProbabilitySource` once per pair — the one pass that collects the valid
//! pairs — so on demand ([`ModelScorer`]) the classifier runs once per pair
//! inside `prune`, against once per pair up front when every probability is
//! cached ([`CachedScores`]).  This bench compares the two for WEP and BLAST
//! on the largest dataset.

use std::time::Instant;

use bench::{banner, prepare};
use er_core::PairId;
use er_datasets::DatasetName;
use er_eval::experiment::{default_config, train_and_score};
use er_features::FeatureSet;
use er_learn::balanced_undersample;
use er_learn::{Classifier, LogisticRegression, LogisticRegressionConfig, TrainingSet};
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;
use meta_blocking::scoring::ModelScorer;

fn main() {
    banner("Ablation: probability cache vs scoring inside prune");
    let prepared = prepare(DatasetName::Movies);
    let feature_set = FeatureSet::blast_optimal();
    let (matrix, _) = prepared.build_features(feature_set);
    let config = MetaBlockingConfig {
        feature_set,
        per_class: 25,
        ..default_config()
    };

    // Train a model directly so the same model backs both strategies.
    let mut rng = er_core::seeded_rng(config.seed);
    let sample = balanced_undersample(
        prepared.candidates.pairs(),
        &prepared.dataset.ground_truth,
        config.per_class,
        &mut rng,
    )
    .expect("sampling failed");
    let mut training = TrainingSet::new();
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        training.push(matrix.row(PairId::from(pair_index)).to_vec(), label);
    }
    let model = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training)
        .expect("training failed");

    for algorithm in [AlgorithmKind::Wep, AlgorithmKind::Blast] {
        let pruner = algorithm.build_csr(&prepared.blocks);

        let scorer = ModelScorer::new(&model, &matrix);
        let start = Instant::now();
        let on_the_fly = pruner.prune(&prepared.candidates, &scorer);
        let fly_time = start.elapsed();

        let start = Instant::now();
        let (cached, _, _) =
            train_and_score(&prepared, &matrix, &config, config.seed).expect("scoring failed");
        let cache_build = start.elapsed();
        let start = Instant::now();
        let with_cache = pruner.prune(&prepared.candidates, &cached);
        let cache_prune = start.elapsed();

        println!(
            "{:<6} score once per pair in prune: {:>8.3}s | cache build {:>8.3}s + prune {:>8.3}s (retained {} / {})",
            algorithm.name(),
            fly_time.as_secs_f64(),
            cache_build.as_secs_f64(),
            cache_prune.as_secs_f64(),
            on_the_fly.len(),
            with_cache.len(),
        );
    }
}
