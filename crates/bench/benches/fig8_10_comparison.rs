//! Figures 8 and 10: best Generalized Supervised Meta-blocking algorithms
//! (BLAST, RCNP with their new optimal feature sets) against the best
//! Supervised Meta-blocking baselines (BCl, CNP with the original feature
//! set).
//!
//! Figure 8 reports average effectiveness over all datasets (500 labelled
//! pairs); Figure 10 reports run-times on the two largest datasets.  Expected
//! shape: BLAST beats BCl on every measure and runs >2× faster (no LCP);
//! RCNP trades a little recall for much higher precision/F1 than CNP.

use bench::{banner, bench_repetitions, prepare_all};
use er_datasets::DatasetName;
use er_eval::experiment::{default_config, run_averaged};
use er_eval::metrics::Effectiveness;
use er_features::FeatureSet;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

fn config_for(algorithm: AlgorithmKind) -> MetaBlockingConfig {
    let feature_set = match algorithm {
        AlgorithmKind::Blast => FeatureSet::blast_optimal(),
        AlgorithmKind::Rcnp => FeatureSet::rcnp_optimal(),
        _ => FeatureSet::original(),
    };
    MetaBlockingConfig {
        feature_set,
        per_class: 250,
        ..default_config()
    }
}

fn main() {
    banner("Figure 8: Supervised (BCl, CNP) vs Generalized Supervised (BLAST, RCNP)");
    let prepared = prepare_all();
    let repetitions = bench_repetitions();
    let algorithms = [
        AlgorithmKind::Bcl,
        AlgorithmKind::Blast,
        AlgorithmKind::Cnp,
        AlgorithmKind::Rcnp,
    ];

    println!(
        "{:<8} {:>8} {:>10} {:>8}",
        "algo", "recall", "precision", "F1"
    );
    let mut large_rt: Vec<(AlgorithmKind, Vec<(String, f64)>)> = Vec::new();
    for algorithm in algorithms {
        let config = config_for(algorithm);
        let mut per_dataset = Vec::new();
        let mut rts = Vec::new();
        for dataset in &prepared {
            // Each algorithm has a configuration of its own.
            let result = run_averaged(dataset, &[algorithm], &config, repetitions)
                .expect("run failed")
                .remove(0);
            per_dataset.push(result.effectiveness);
            if DatasetName::largest_two()
                .iter()
                .any(|d| d.to_string() == dataset.dataset.name)
            {
                rts.push((dataset.dataset.name.clone(), result.mean_rt_seconds));
            }
        }
        let mean = Effectiveness::mean(&per_dataset);
        println!(
            "{:<8} {:>8.4} {:>10.4} {:>8.4}",
            algorithm.name(),
            mean.recall,
            mean.precision,
            mean.f1
        );
        large_rt.push((algorithm, rts));
    }

    banner("Figure 10: run-times on the two largest datasets");
    println!(
        "{:<8} {:>16} {:>18}",
        "algo", "Movies RT(s)", "WalmartAmazon RT(s)"
    );
    for (algorithm, rts) in large_rt {
        let movies = rts
            .iter()
            .find(|(name, _)| name == "Movies")
            .map(|(_, rt)| *rt)
            .unwrap_or(f64::NAN);
        let walmart = rts
            .iter()
            .find(|(name, _)| name == "WalmartAmazon")
            .map(|(_, rt)| *rt)
            .unwrap_or(f64::NAN);
        println!("{:<8} {:>16.3} {:>18.3}", algorithm.name(), movies, walmart);
    }
}
