//! End-to-end integration tests spanning every crate: dataset generation,
//! blocking, feature generation, training, scoring and pruning.

use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::{default_config, run_once, PreparedDataset};
use gsmb::eval::Effectiveness;
use gsmb::features::FeatureSet;
use gsmb::meta::pipeline::{MetaBlockingConfig, MetaBlockingPipeline};
use gsmb::meta::pruning::AlgorithmKind;

fn prepared(name: DatasetName) -> PreparedDataset {
    let dataset = generate_catalog_dataset(name, &CatalogOptions::tiny()).unwrap();
    PreparedDataset::prepare(dataset).unwrap()
}

#[test]
fn blocking_keeps_high_recall_and_low_precision_on_every_dataset() {
    for name in [
        DatasetName::AbtBuy,
        DatasetName::DblpAcm,
        DatasetName::ImdbTmdb,
        DatasetName::WalmartAmazon,
    ] {
        let prepared = prepared(name);
        let quality = prepared.block_quality();
        assert!(
            quality.recall > 0.7,
            "{name}: blocking recall {:.3} too low",
            quality.recall
        );
        assert!(
            quality.precision < 0.2,
            "{name}: blocking precision {:.3} suspiciously high",
            quality.precision
        );
    }
}

#[test]
fn every_pruning_algorithm_improves_precision_over_the_input_blocks() {
    let prepared = prepared(DatasetName::DblpAcm);
    let input_precision = prepared.block_quality().precision;
    let config = MetaBlockingConfig {
        per_class: 20,
        ..default_config()
    };
    for algorithm in AlgorithmKind::all() {
        let result = run_once(&prepared, algorithm, &config).unwrap();
        assert!(
            result.effectiveness.precision > input_precision,
            "{algorithm}: precision {:.4} did not improve over {:.4}",
            result.effectiveness.precision,
            input_precision
        );
        assert!(result.retained > 0, "{algorithm}: retained nothing");
        assert!(
            result.retained < prepared.num_candidates(),
            "{algorithm}: retained every candidate pair"
        );
    }
}

#[test]
fn retained_pairs_are_a_subset_of_the_candidates_and_unique() {
    let dataset = generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
    let outcome = MetaBlockingPipeline::new(MetaBlockingConfig::default())
        .run(&dataset, AlgorithmKind::Rcnp)
        .unwrap();
    let mut seen = std::collections::HashSet::new();
    for &id in &outcome.retained {
        assert!(id.index() < outcome.num_candidates);
        assert!(seen.insert(id), "pair {id:?} retained twice");
    }
}

#[test]
fn weight_based_algorithms_nest_as_expected() {
    // BCl ⊇ WNP ⊇ RWNP and BCl ⊇ WEP for the same probabilities.
    let prepared = prepared(DatasetName::ImdbTmdb);
    let config = MetaBlockingConfig {
        per_class: 20,
        feature_set: FeatureSet::original(),
        ..default_config()
    };
    let seed = 42;
    let runs = gsmb::eval::experiment::run_with_seed(
        &prepared,
        &[
            AlgorithmKind::Bcl,
            AlgorithmKind::Wep,
            AlgorithmKind::Wnp,
            AlgorithmKind::Rwnp,
        ],
        &config,
        seed,
    )
    .unwrap();
    let [bcl, wep, wnp, rwnp] = runs.as_slice() else {
        unreachable!("one result per algorithm");
    };
    assert!(wep.retained <= bcl.retained);
    assert!(wnp.retained <= bcl.retained);
    assert!(rwnp.retained <= wnp.retained);
}

#[test]
fn cardinality_algorithms_respect_their_budgets() {
    let prepared = prepared(DatasetName::TmdbTvdb);
    let thresholds = gsmb::meta::pruning::CardinalityThresholds::from_csr(&prepared.blocks);
    let config = MetaBlockingConfig {
        per_class: 15,
        ..default_config()
    };
    let cep = run_once(&prepared, AlgorithmKind::Cep, &config).unwrap();
    assert!(
        cep.retained <= thresholds.global_k,
        "CEP retained {} > K = {}",
        cep.retained,
        thresholds.global_k
    );
    let rcnp = run_once(&prepared, AlgorithmKind::Rcnp, &config).unwrap();
    let cnp = run_once(&prepared, AlgorithmKind::Cnp, &config).unwrap();
    assert!(
        rcnp.retained <= cnp.retained,
        "RCNP must prune deeper than CNP"
    );
}

#[test]
fn pipeline_works_on_dirty_datasets_too() {
    let configs = gsmb::datasets::dirty_catalog(&CatalogOptions::tiny());
    let dataset = gsmb::datasets::generate_dirty(&configs[0]).unwrap();
    let num_duplicates = dataset.num_duplicates();
    let outcome = MetaBlockingPipeline::new(MetaBlockingConfig::default())
        .run(&dataset, AlgorithmKind::Blast)
        .unwrap();
    let quality = Effectiveness::evaluate(
        &outcome.retained_pairs(),
        &dataset.ground_truth,
        num_duplicates,
    );
    assert!(quality.recall > 0.5, "dirty ER recall too low: {quality}");
}

#[test]
fn svm_and_logistic_classifiers_agree_on_the_easy_pairs() {
    use gsmb::learn::LinearSvmConfig;
    use gsmb::meta::pipeline::ClassifierKind;

    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    let logistic = MetaBlockingPipeline::new(MetaBlockingConfig::default())
        .run(&dataset, AlgorithmKind::Bcl)
        .unwrap();
    let svm = MetaBlockingPipeline::new(MetaBlockingConfig {
        classifier: ClassifierKind::Svm(LinearSvmConfig::default()),
        ..MetaBlockingConfig::default()
    })
    .run(&dataset, AlgorithmKind::Bcl)
    .unwrap();

    let eval = |outcome: &gsmb::meta::MetaBlockingOutcome| {
        Effectiveness::evaluate(
            &outcome.retained_pairs(),
            &dataset.ground_truth,
            dataset.num_duplicates(),
        )
    };
    let logistic_quality = eval(&logistic);
    let svm_quality = eval(&svm);
    // The paper reports SVC and logistic regression yield almost identical
    // results; on this clean dataset both must reach high recall and the F1
    // gap must stay small.
    assert!(logistic_quality.recall > 0.8, "{logistic_quality}");
    assert!(svm_quality.recall > 0.8, "{svm_quality}");
    assert!(
        (logistic_quality.f1 - svm_quality.f1).abs() < 0.25,
        "classifiers disagree too much: {logistic_quality} vs {svm_quality}"
    );
}
