//! Figure 5: average performance of the weight-based pruning algorithms.
//!
//! All algorithms use the original feature set {CF-IBF, RACCB, JS, LCP} and a
//! balanced training set of 500 labelled pairs (250 per class), as in the
//! paper's pruning-algorithm-selection experiment.  The expected shape: WEP
//! and RWNP trade recall for the highest F1, WNP is recall-robust, and BLAST
//! beats the BCl baseline on every measure.

use bench::{banner, bench_repetitions, prepare_all};
use er_eval::experiment::{default_config, run_averaged};
use er_eval::metrics::Effectiveness;
use er_features::FeatureSet;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn main() {
    banner("Figure 5: weight-based pruning algorithms (avg over all datasets)");
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
    let algorithms = AlgorithmKind::weight_based();
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
