//! Figure 6: average performance of the cardinality-based pruning algorithms.
//!
//! Same setup as Figure 5 (original feature set, 500 labelled pairs).
//! Expected shape: RCNP clearly wins on precision and F1 at a small recall
//! cost relative to CEP and CNP.

use bench::{banner, bench_repetitions, prepare_all};
use er_eval::experiment::{default_config, run_averaged};
use er_eval::metrics::Effectiveness;
use er_features::FeatureSet;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn main() {
    banner("Figure 6: cardinality-based pruning algorithms (avg over all datasets)");
    let prepared = prepare_all();
    let repetitions = bench_repetitions();
    let config = MetaBlockingConfig {
        feature_set: FeatureSet::original(),
        per_class: 250,
        ..default_config()
    };

    println!(
        "{:<8} {:>8} {:>10} {:>8}",
        "algo", "recall", "precision", "F1"
    );
    // One training and scoring pass per dataset and repetition; every
    // algorithm decides on its valid pairs.
    let algorithms = AlgorithmKind::cardinality_based();
    let per_dataset: Vec<_> = prepared
        .iter()
        .map(|dataset| {
            run_averaged(dataset, &algorithms, &config, repetitions).expect("experiment failed")
        })
        .collect();
    for (i, algorithm) in algorithms.into_iter().enumerate() {
        let effectiveness: Vec<_> = per_dataset
            .iter()
            .map(|results| results[i].effectiveness)
            .collect();
        let mean = Effectiveness::mean(&effectiveness);
        println!(
            "{:<8} {:>8.4} {:>10.4} {:>8.4}",
            algorithm.name(),
            mean.recall,
            mean.precision,
            mean.f1
        );
    }
}
