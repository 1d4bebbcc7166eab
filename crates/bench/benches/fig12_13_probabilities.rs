//! Figures 12 and 13: how the training-set size shifts the matching
//! probabilities, explaining the recall/precision trade-off.
//!
//! Figure 12 plots the probability distribution of duplicate vs non-matching
//! candidate pairs on AbtBuy as the training set grows; Figure 13 compares
//! BCl's and BLAST's recall/precision over the same sizes.  The expected
//! shape: larger training sets push the probabilities of *both* classes
//! upwards, so recall rises while precision drops.

use bench::{banner, bench_repetitions, prepare};
use er_datasets::DatasetName;
use er_eval::experiment::{default_config, run_averaged, train_and_score};
use er_eval::report::ProbabilityHistogram;
use er_features::FeatureSet;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn main() {
    banner("Figure 12: matching-probability distribution on AbtBuy");
    let prepared = prepare(DatasetName::AbtBuy);
    let sizes = [20usize, 100, 300, 500];
    let (matrix, _) = prepared.build_features(FeatureSet::blast_optimal());

    for &size in &sizes {
        let config = MetaBlockingConfig {
            feature_set: FeatureSet::blast_optimal(),
            per_class: (size / 2).max(1),
            ..default_config()
        };
        let Ok((scores, _, _)) = train_and_score(&prepared, &matrix, &config, 0x000f_1612) else {
            println!("training size {size}: not enough labelled pairs, skipped");
            continue;
        };
        let histogram = ProbabilityHistogram::build(&prepared, &scores, 10);
        println!("\ntraining size {size}:");
        println!(
            "  mean probability  duplicates = {:.3}   non-matching = {:.3}",
            histogram.mean_probability(true),
            histogram.mean_probability(false)
        );
        println!("  bin      [0.0..0.1) ... [0.9..1.0]");
        println!("  match    {:?}", histogram.matching);
        println!("  nonmatch {:?}", histogram.non_matching);
    }

    banner("Figure 13: BCl vs BLAST recall/precision as the training set grows");
    let repetitions = bench_repetitions();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "size", "BCl recall", "BCl prec", "BLAST recall", "BLAST prec"
    );
    for &size in &[20usize, 50, 100, 200, 300, 400, 500] {
        let config = MetaBlockingConfig {
            feature_set: FeatureSet::blast_optimal(),
            per_class: (size / 2).max(1),
            ..default_config()
        };
        let algorithms = [AlgorithmKind::Bcl, AlgorithmKind::Blast];
        let Ok(results) = run_averaged(&prepared, &algorithms, &config, repetitions) else {
            println!("{size:>6}  skipped (insufficient labelled pairs)");
            continue;
        };
        let [bcl, blast] = results.as_slice() else {
            unreachable!("one result per algorithm");
        };
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            size,
            bcl.effectiveness.recall,
            bcl.effectiveness.precision,
            blast.effectiveness.recall,
            blast.effectiveness.precision
        );
    }
}
