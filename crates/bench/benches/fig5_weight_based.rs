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
    for algorithm in AlgorithmKind::weight_based() {
        let mut per_dataset = Vec::new();
        for dataset in &prepared {
            let result =
                run_averaged(dataset, algorithm, &config, repetitions).expect("experiment failed");
            per_dataset.push(result.effectiveness);
        }
        let mean = Effectiveness::mean(&per_dataset);
        println!(
            "{:<8} {:>8.4} {:>10.4} {:>8.4}",
            algorithm.name(),
            mean.recall,
            mean.precision,
            mean.f1
        );
    }
}
