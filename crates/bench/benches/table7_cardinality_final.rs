//! Table 7: per-dataset comparison of the final cardinality-based
//! configurations.
//!
//! (a) RCNP with 50 balanced labelled instances and
//!     {CF-IBF, RACCB, JS, LCP, WJS};
//! (b) CNP1: CNP with the same 50 instances and the same feature set;
//! (c) CNP2: the original Supervised Meta-blocking configuration — feature set
//!     {CF-IBF, RACCB, JS, LCP} and 5% of the positive pairs per class.
//!
//! Expected shape: RCNP achieves the best precision and F1 almost everywhere
//! and is several times faster than CNP2.

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
    banner("Table 7: cardinality-based algorithms, final configurations");
    let prepared = prepare_all();
    let repetitions = bench_repetitions();

    run_table(
        "(a) RCNP, 50 labelled instances, {CF-IBF, RACCB, JS, LCP, WJS}",
        &prepared,
        AlgorithmKind::Rcnp,
        FeatureSet::rcnp_optimal(),
        |_| 25,
        repetitions,
    );
    run_table(
        "(b) CNP1, 50 labelled instances, {CF-IBF, RACCB, JS, LCP, WJS}",
        &prepared,
        AlgorithmKind::Cnp,
        FeatureSet::rcnp_optimal(),
        |_| 25,
        repetitions,
    );
    run_table(
        "(c) CNP2, 5% of positives per class, {CF-IBF, RACCB, JS, LCP}",
        &prepared,
        AlgorithmKind::Cnp,
        FeatureSet::original(),
        |d| paper_baseline_per_class(d.dataset.num_duplicates()),
        repetitions,
    );
}
