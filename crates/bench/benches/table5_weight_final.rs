//! Table 5: per-dataset comparison of the final weight-based configurations.
//!
//! (a) BLAST with 50 balanced labelled instances and {CF-IBF, RACCB, RS, NRS};
//! (b) BCl1: the binary-classifier baseline with the *same* 50 instances and
//!     the same new feature set;
//! (c) BCl2: the original Supervised Meta-blocking configuration — feature set
//!     {CF-IBF, RACCB, JS, LCP} and a training set of 5% of the positive
//!     pairs per class.
//!
//! Expected shape: BLAST has the best recall almost everywhere and is several
//! times faster than BCl2 (no LCP, tiny training set).

use bench::{banner, bench_repetitions, prepare_all};
use er_eval::experiment::{default_config, run_averaged, PreparedDataset};
use er_eval::tables::{render_table, TableRow};
use er_features::FeatureSet;
use er_learn::paper_baseline_per_class;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn run_table(
    title: &str,
    prepared: &[PreparedDataset],
    algorithm: AlgorithmKind,
    feature_set: FeatureSet,
    per_class: impl Fn(&PreparedDataset) -> usize,
    repetitions: usize,
) {
    let mut rows = Vec::new();
    for dataset in prepared {
        let config = MetaBlockingConfig {
            feature_set,
            per_class: per_class(dataset),
            ..default_config()
        };
        match run_averaged(dataset, &[algorithm], &config, repetitions) {
            Ok(results) => rows.push(
                TableRow::new(dataset.dataset.name.clone(), results[0].effectiveness)
                    .with_rt(results[0].mean_rt_seconds)
                    .with_extra("retained", format!("{:.0}", results[0].mean_retained)),
            ),
            Err(e) => println!("{}: skipped ({e})", dataset.dataset.name),
        }
    }
    print!("{}", render_table(title, &rows));
    println!();
}

fn main() {
    banner("Table 5: weight-based algorithms, final configurations");
    let prepared = prepare_all();
    let repetitions = bench_repetitions();

    run_table(
        "(a) BLAST, 50 labelled instances, {CF-IBF, RACCB, RS, NRS}",
        &prepared,
        AlgorithmKind::Blast,
        FeatureSet::blast_optimal(),
        |_| 25,
        repetitions,
    );
    run_table(
        "(b) BCl1, 50 labelled instances, {CF-IBF, RACCB, RS, NRS}",
        &prepared,
        AlgorithmKind::Bcl,
        FeatureSet::blast_optimal(),
        |_| 25,
        repetitions,
    );
    run_table(
        "(c) BCl2, 5% of positives per class, {CF-IBF, RACCB, JS, LCP}",
        &prepared,
        AlgorithmKind::Bcl,
        FeatureSet::original(),
        |d| paper_baseline_per_class(d.dataset.num_duplicates()),
        repetitions,
    );
}
