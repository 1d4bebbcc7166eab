//! Figures 7 and 9: run-time of the paper's top-10 feature sets on the two
//! largest datasets (Movies and WalmartAmazon analogues).
//!
//! The measured time covers feature generation, training, scoring and pruning
//! (the paper's RT minus the fixed block-restructuring overhead).  Expected
//! shape: for BLAST the LCP-free sets are clearly cheaper; for RCNP all sets
//! include LCP and the differences are small.

use bench::{banner, bench_repetitions, prepare};
use er_datasets::DatasetName;
use er_eval::experiment::{default_config, run_once, PreparedDataset};
use er_features::{FeatureSet, Scheme};
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::pruning::AlgorithmKind;

/// The top-10 BLAST feature sets of Table 3 in the paper.
fn blast_top10() -> Vec<FeatureSet> {
    use Scheme::*;
    vec![
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Rs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Nrs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Rs, Nrs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Rs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Js, Rs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Js, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Rs, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Rs, Nrs, Wjs]),
    ]
}

/// The top-10 RCNP feature sets of Table 4 in the paper.
fn rcnp_top10() -> Vec<FeatureSet> {
    use Scheme::*;
    vec![
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Rs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Lcp, Rs, Nrs]),
        FeatureSet::from_schemes([CfIbf, Js, Lcp, Rs, Nrs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Rs, Nrs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Rs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Lcp, Rs, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Js, Lcp, Rs, Nrs, Wjs]),
        FeatureSet::from_schemes([CfIbf, Raccb, Js, Lcp, Rs, Nrs, Wjs]),
    ]
}

fn measure(
    title: &str,
    algorithm: AlgorithmKind,
    sets: &[FeatureSet],
    datasets: &[(&str, &PreparedDataset)],
    repetitions: usize,
) {
    println!("\n--- {title} ---");
    println!(
        "{:<50} {:>14} {:>16}",
        "feature set", datasets[0].0, datasets[1].0
    );
    for &set in sets {
        let mut cells = Vec::new();
        for &(_, prepared) in datasets {
            let config = MetaBlockingConfig {
                feature_set: set,
                per_class: 250,
                ..default_config()
            };
            let mut total = 0.0;
            for rep in 0..repetitions {
                let config = MetaBlockingConfig {
                    seed: er_core::rng::derive_seed(config.seed, rep as u64),
                    ..config.clone()
                };
                let result = run_once(prepared, algorithm, &config).expect("run failed");
                total += result.timings.total_rt().as_secs_f64();
            }
            cells.push(total / repetitions as f64);
        }
        println!(
            "{:<50} {:>12.3}s {:>14.3}s",
            set.to_string(),
            cells[0],
            cells[1]
        );
    }
}

/// Before/after comparison of the feature engine on this bench's workload:
/// the retained pre-refactor path (nested-vec stats, per-pair divisions and
/// logarithms, temp row per pair) against the fused CSR single-pass engine.
fn engine_comparison(datasets: &[(&str, &PreparedDataset)], repetitions: usize) {
    use er_features::reference::NaiveFeatureContext;
    use er_features::FeatureMatrix;

    println!("\n--- Feature-matrix engine: pre-refactor vs fused CSR (sequential) ---");
    println!(
        "{:<16} {:>10} {:>14} {:>12} {:>9}",
        "dataset", "pairs", "pre-refactor", "fused CSR", "speedup"
    );
    let set = er_features::FeatureSet::all_schemes();
    for &(name, prepared) in datasets {
        let context = prepared.context();
        // The retained pre-refactor engine builds its own statistics here,
        // outside the timed region.
        let naive_context = NaiveFeatureContext::new(&prepared.blocks, &prepared.candidates);
        let time = |f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            for _ in 0..repetitions {
                f();
            }
            start.elapsed().as_secs_f64() / repetitions as f64
        };
        let naive = time(&mut || {
            criterion::black_box(naive_context.build_matrix(set, 1));
        });
        let fused = time(&mut || {
            criterion::black_box(FeatureMatrix::build_with_threads(&context, set, 1));
        });
        println!(
            "{:<16} {:>10} {:>13.3}s {:>11.3}s {:>8.2}x",
            name,
            prepared.candidates.len(),
            naive,
            fused,
            naive / fused
        );
    }
}

fn main() {
    banner("Figures 7 & 9: run-time of the top-10 feature sets (largest datasets)");
    let repetitions = bench_repetitions();
    let movies = prepare(DatasetName::Movies);
    let walmart = prepare(DatasetName::WalmartAmazon);
    let datasets = [("Movies", &movies), ("WalmartAmazon", &walmart)];

    engine_comparison(&datasets, repetitions);

    measure(
        "Figure 7: BLAST",
        AlgorithmKind::Blast,
        &blast_top10(),
        &datasets,
        repetitions,
    );
    measure(
        "Figure 9: RCNP",
        AlgorithmKind::Rcnp,
        &rcnp_top10(),
        &datasets,
        repetitions,
    );
}
