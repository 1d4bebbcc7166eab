//! Feature-selection demo: how the choice of weighting schemes affects
//! effectiveness and run-time.
//!
//! Compares the original Supervised Meta-blocking feature set with the two
//! new sets selected by the paper (and the full 8-scheme set) for BLAST and
//! RCNP on one dataset, mirroring the reasoning behind Tables 3 and 4.
//!
//! ```bash
//! cargo run --release --example feature_selection
//! ```

use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::{default_config, run_averaged, PreparedDataset};
use gsmb::features::FeatureSet;
use gsmb::meta::pipeline::MetaBlockingConfig;
use gsmb::meta::pruning::AlgorithmKind;

fn main() {
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::default())
        .expect("generation failed");
    let prepared = PreparedDataset::prepare(dataset).expect("blocking failed");
    println!(
        "dataset {}: {} candidate pairs, input quality {}",
        prepared.dataset.name,
        prepared.num_candidates(),
        prepared.block_quality()
    );

    let candidates = [
        ("original (CF-IBF, RACCB, JS, LCP)", FeatureSet::original()),
        (
            "BLAST-optimal (CF-IBF, RACCB, RS, NRS)",
            FeatureSet::blast_optimal(),
        ),
        (
            "RCNP-optimal (CF-IBF, RACCB, JS, LCP, WJS)",
            FeatureSet::rcnp_optimal(),
        ),
        ("all eight schemes", FeatureSet::all_schemes()),
    ];

    // One training and scoring pass per feature set and repetition; both
    // algorithms decide on its valid pairs.
    let algorithms = [AlgorithmKind::Blast, AlgorithmKind::Rcnp];
    let results: Vec<_> = candidates
        .iter()
        .map(|&(label, set)| {
            let config = MetaBlockingConfig {
                feature_set: set,
                per_class: 25,
                ..default_config()
            };
            let results =
                run_averaged(&prepared, &algorithms, &config, 3).expect("experiment failed");
            (label, results)
        })
        .collect();

    for (i, algorithm) in algorithms.into_iter().enumerate() {
        println!("\n=== {} ===", algorithm.name());
        println!(
            "{:<45} {:>8} {:>10} {:>8} {:>9}",
            "feature set", "recall", "precision", "F1", "RT(s)"
        );
        for (label, results) in &results {
            let result = &results[i];
            println!(
                "{:<45} {:>8.4} {:>10.4} {:>8.4} {:>9.3}",
                label,
                result.effectiveness.recall,
                result.effectiveness.precision,
                result.effectiveness.f1,
                result.mean_rt_seconds
            );
        }
    }
}
