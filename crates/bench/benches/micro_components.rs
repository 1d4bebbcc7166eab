//! Criterion micro-benchmarks of the hot components: common-block merges,
//! feature-vector computation, classifier prediction and the pruning
//! algorithms.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use er_core::{EntityId, PairId};
use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use er_eval::experiment::PreparedDataset;
use er_features::{FeatureMatrix, FeatureSet, Scheme};
use er_learn::balanced_undersample;
use er_learn::{
    Classifier, LogisticRegression, LogisticRegressionConfig, ProbabilisticClassifier, TrainingSet,
};
use meta_blocking::pruning::AlgorithmKind;
use meta_blocking::scoring::CachedScores;

fn prepared() -> PreparedDataset {
    let options = CatalogOptions {
        scale: 0.35,
        ..CatalogOptions::default()
    };
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &options).unwrap();
    PreparedDataset::prepare(dataset).unwrap()
}

fn bench_common_blocks(c: &mut Criterion) {
    let prepared = prepared();
    let pairs: Vec<(EntityId, EntityId)> = prepared
        .candidates
        .pairs()
        .iter()
        .take(1000)
        .copied()
        .collect();
    c.bench_function("stats/common_blocks_1000_pairs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(x, y) in &pairs {
                total += prepared.stats.common_blocks(x, y);
            }
            black_box(total)
        })
    });
}

fn bench_feature_vector(c: &mut Criterion) {
    let prepared = prepared();
    let context = prepared.context();
    let pairs: Vec<(EntityId, EntityId)> = prepared
        .candidates
        .pairs()
        .iter()
        .take(1000)
        .copied()
        .collect();
    let mut group = c.benchmark_group("features/vector_1000_pairs");
    for set in [
        ("original", FeatureSet::original()),
        ("blast_optimal", FeatureSet::blast_optimal()),
        ("all_schemes", FeatureSet::all_schemes()),
    ] {
        group.bench_function(set.0, |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut acc = 0.0f64;
                for &(x, y) in &pairs {
                    context.pair_features(x, y, set.1, &mut out);
                    acc += out.iter().sum::<f64>();
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_single_scheme(c: &mut Criterion) {
    let prepared = prepared();
    let context = prepared.context();
    let pairs: Vec<(EntityId, EntityId)> = prepared
        .candidates
        .pairs()
        .iter()
        .take(1000)
        .copied()
        .collect();
    let mut group = c.benchmark_group("features/single_scheme_1000_pairs");
    for scheme in [Scheme::CfIbf, Scheme::Js, Scheme::Wjs, Scheme::Nrs] {
        group.bench_function(scheme.name(), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for &(x, y) in &pairs {
                    acc += context.score(scheme, x, y);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_classifier_and_pruning(c: &mut Criterion) {
    let prepared = prepared();
    let matrix = FeatureMatrix::build_with_threads(
        &prepared.context(),
        FeatureSet::blast_optimal(),
        er_core::available_threads(),
    );
    let mut rng = er_core::seeded_rng(42);
    let sample = balanced_undersample(
        prepared.candidates.pairs(),
        &prepared.dataset.ground_truth,
        25,
        &mut rng,
    )
    .unwrap();
    let mut training = TrainingSet::new();
    for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        training.push(matrix.row(PairId::from(pair_index)).to_vec(), label);
    }
    let model = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();

    c.bench_function("learn/logistic_fit_50_instances", |b| {
        b.iter(|| {
            LogisticRegression::fit(&LogisticRegressionConfig::default(), black_box(&training))
                .unwrap()
        })
    });

    c.bench_function("learn/predict_all_candidates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..matrix.num_pairs() {
                acc += model.probability(matrix.row(PairId::from(i)));
            }
            black_box(acc)
        })
    });

    let probabilities: Vec<f64> = (0..matrix.num_pairs())
        .map(|i| {
            model
                .probability(matrix.row(PairId::from(i)))
                .clamp(0.0, 1.0)
        })
        .collect();
    let scores = CachedScores::new(probabilities);
    let mut group = c.benchmark_group("pruning");
    for algorithm in AlgorithmKind::all() {
        let pruner = algorithm.build_csr(&prepared.blocks);
        group.bench_function(algorithm.name(), |b| {
            b.iter(|| black_box(pruner.prune(&prepared.candidates, &scores)).len())
        });
    }
    group.finish();
}

fn bench_matrix_build(c: &mut Criterion) {
    let prepared = prepared();
    let context = prepared.context();
    let mut group = c.benchmark_group("features/full_matrix");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| FeatureMatrix::build_with_threads(&context, FeatureSet::blast_optimal(), 1))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| FeatureMatrix::build_parallel(&context, FeatureSet::blast_optimal()))
    });
    group.finish();
}

/// Before/after: the retained pre-refactor engine against the fused CSR
/// engine, plus the fused feature → probability path.
fn bench_engine_comparison(c: &mut Criterion) {
    use er_features::reference::NaiveFeatureContext;

    let prepared = prepared();
    let context = prepared.context();
    let naive_context = NaiveFeatureContext::new(&prepared.blocks, &prepared.candidates);
    let set = FeatureSet::all_schemes();

    let mut group = c.benchmark_group("features/engine_comparison");
    group.sample_size(10);
    group.bench_function("pre_refactor_sequential", |b| {
        b.iter(|| black_box(naive_context.build_matrix(set, 1)))
    });
    group.bench_function("fused_csr_sequential", |b| {
        b.iter(|| black_box(FeatureMatrix::build_with_threads(&context, set, 1)))
    });
    group.bench_function("fused_csr_parallel", |b| {
        b.iter(|| black_box(FeatureMatrix::build_parallel(&context, set)))
    });
    group.bench_function("fused_score_rows", |b| {
        b.iter(|| {
            black_box(FeatureMatrix::score_rows(&context, set, 1, |row| {
                row.iter().sum::<f64>()
            }))
        })
    });
    group.finish();
}

/// Before/after: hash-based candidate extraction against the hash-free CSR
/// enumeration.
fn bench_candidate_extraction(c: &mut Criterion) {
    use er_blocking::reference::naive_candidate_pairs;
    use er_blocking::CandidatePairs;

    let prepared = prepared();
    let mut group = c.benchmark_group("candidates/extraction");
    group.sample_size(10);
    group.bench_function("naive_hash_set", |b| {
        b.iter(|| black_box(naive_candidate_pairs(&prepared.blocks)))
    });
    group.bench_function("csr_sequential", |b| {
        b.iter(|| black_box(CandidatePairs::from_stats(&prepared.stats, 1)))
    });
    group.bench_function("csr_parallel", |b| {
        b.iter(|| {
            black_box(CandidatePairs::from_stats(
                &prepared.stats,
                er_core::available_threads(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_common_blocks,
    bench_feature_vector,
    bench_single_scheme,
    bench_classifier_and_pruning,
    bench_matrix_build,
    bench_engine_comparison,
    bench_candidate_extraction
);
criterion_main!(benches);
