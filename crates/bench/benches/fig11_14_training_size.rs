//! Figures 11 and 14: the effect of the training-set size on BLAST and RCNP.
//!
//! Varies the number of labelled instances from 20 to 500 (balanced between
//! the classes) and reports average recall, precision and F1 across all
//! datasets.  Expected shape: recall rises slightly with more labelled data
//! while precision and F1 *drop*, which is why the paper settles on just 50
//! labelled instances.

use bench::{banner, bench_repetitions, prepare_all};
use er_eval::experiment::{default_config, run_averaged};
use er_eval::metrics::Effectiveness;
use er_features::FeatureSet;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn main() {
    banner("Figures 11 & 14: effect of the training-set size");
    let prepared = prepare_all();
    let repetitions = bench_repetitions();
    let sizes = [20usize, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500];

    for (algorithm, feature_set) in [
        (AlgorithmKind::Blast, FeatureSet::blast_optimal()),
        (AlgorithmKind::Rcnp, FeatureSet::rcnp_optimal()),
    ] {
        println!("\n--- {} with {} ---", algorithm.name(), feature_set);
        println!(
            "{:>6} {:>8} {:>10} {:>8}",
            "size", "recall", "precision", "F1"
        );
        for &size in &sizes {
            let config = MetaBlockingConfig {
                feature_set,
                per_class: (size / 2).max(1),
                ..default_config()
            };
            let mut per_dataset = Vec::new();
            for dataset in &prepared {
                match run_averaged(dataset, &[algorithm], &config, repetitions) {
                    Ok(results) => per_dataset.push(results[0].effectiveness),
                    // Some scaled-down datasets may not contain `size/2`
                    // positive candidate pairs; skip them for that size, as
                    // the paper's averages only cover feasible runs.
                    Err(_) => continue,
                }
            }
            let mean = Effectiveness::mean(&per_dataset);
            println!(
                "{:>6} {:>8.4} {:>10.4} {:>8.4}",
                size, mean.recall, mean.precision, mean.f1
            );
        }
    }
}
