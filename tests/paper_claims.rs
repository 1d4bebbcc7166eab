//! Integration tests asserting the paper's qualitative claims on the
//! synthetic benchmark analogues (scaled down, so only the *shape* of each
//! claim is checked — who wins, and in which direction).

use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::{default_config, run_averaged, PreparedDataset};
use gsmb::eval::Effectiveness;
use gsmb::features::FeatureSet;
use gsmb::meta::pipeline::MetaBlockingConfig;
use gsmb::meta::pruning::AlgorithmKind;

fn catalog_options() -> CatalogOptions {
    CatalogOptions {
        scale: 0.3,
        ..CatalogOptions::default()
    }
}

fn prepare(name: DatasetName) -> PreparedDataset {
    let dataset = generate_catalog_dataset(name, &catalog_options()).unwrap();
    PreparedDataset::prepare(dataset).unwrap()
}

/// Each algorithm's effectiveness, averaged over 3 runs per dataset and
/// then over the datasets; every run trains and scores once for all of
/// `algorithms`.
fn averaged<const N: usize>(
    prepared: &[PreparedDataset],
    algorithms: [AlgorithmKind; N],
    feature_set: FeatureSet,
    per_class: usize,
) -> [Effectiveness; N] {
    let config = MetaBlockingConfig {
        feature_set,
        per_class,
        ..default_config()
    };
    let per_dataset: Vec<_> = prepared
        .iter()
        .map(|p| run_averaged(p, &algorithms, &config, 3).unwrap())
        .collect();
    std::array::from_fn(|i| {
        let results: Vec<Effectiveness> = per_dataset
            .iter()
            .map(|results| results[i].effectiveness)
            .collect();
        Effectiveness::mean(&results)
    })
}

fn evaluation_datasets() -> Vec<PreparedDataset> {
    [
        DatasetName::AbtBuy,
        DatasetName::DblpAcm,
        DatasetName::AmazonGP,
        DatasetName::ImdbTmdb,
    ]
    .into_iter()
    .map(prepare)
    .collect()
}

/// Section 5.2: the new weight-based algorithms trade recall for much higher
/// precision, and BLAST beats the BCl baseline on precision/F1.
#[test]
fn weight_based_selection_claims() {
    let prepared = evaluation_datasets();
    let set = FeatureSet::original();
    let [bcl, wep, rwnp, blast] = averaged(
        &prepared,
        [
            AlgorithmKind::Bcl,
            AlgorithmKind::Wep,
            AlgorithmKind::Rwnp,
            AlgorithmKind::Blast,
        ],
        set,
        100,
    );

    assert!(wep.precision > bcl.precision, "WEP {wep} vs BCl {bcl}");
    assert!(rwnp.precision > bcl.precision, "RWNP {rwnp} vs BCl {bcl}");
    assert!(
        wep.recall <= bcl.recall + 1e-9,
        "WEP cannot beat BCl recall"
    );
    assert!(blast.f1 > bcl.f1, "BLAST {blast} must beat BCl {bcl} on F1");
    assert!(
        blast.recall >= bcl.recall * 0.97,
        "BLAST must not sacrifice recall: {blast} vs {bcl}"
    );
}

/// Section 5.2: RCNP is the best cardinality-based algorithm — higher
/// precision and F1 than CNP at a small recall cost.
#[test]
fn cardinality_based_selection_claims() {
    let prepared = evaluation_datasets();
    let set = FeatureSet::original();
    let [cnp, rcnp] = averaged(
        &prepared,
        [AlgorithmKind::Cnp, AlgorithmKind::Rcnp],
        set,
        100,
    );

    assert!(rcnp.precision > cnp.precision, "RCNP {rcnp} vs CNP {cnp}");
    assert!(rcnp.f1 > cnp.f1, "RCNP {rcnp} vs CNP {cnp}");
    assert!(
        rcnp.recall <= cnp.recall + 1e-9,
        "RCNP prunes deeper than CNP"
    );
    assert!(
        rcnp.recall > cnp.recall * 0.8,
        "RCNP's recall loss must stay small: {rcnp} vs {cnp}"
    );
}

/// Section 5.3: the new feature sets perform at least as well as the original
/// one for their respective algorithms (robustness of the feature choice).
#[test]
fn new_feature_sets_are_competitive() {
    let prepared = evaluation_datasets();
    let [blast_original, rcnp_original] = averaged(
        &prepared,
        [AlgorithmKind::Blast, AlgorithmKind::Rcnp],
        FeatureSet::original(),
        100,
    );
    let [blast_new] = averaged(
        &prepared,
        [AlgorithmKind::Blast],
        FeatureSet::blast_optimal(),
        100,
    );
    assert!(
        blast_new.f1 > blast_original.f1 * 0.9,
        "BLAST with the new features must stay competitive: {blast_new} vs {blast_original}"
    );

    let [rcnp_new] = averaged(
        &prepared,
        [AlgorithmKind::Rcnp],
        FeatureSet::rcnp_optimal(),
        100,
    );
    assert!(
        rcnp_new.f1 > rcnp_original.f1 * 0.9,
        "RCNP with the new features must stay competitive: {rcnp_new} vs {rcnp_original}"
    );
}

/// Section 5.4: a 50-instance training set suffices — going to 500 instances
/// must not improve F1 materially (the paper observes it *drops*).
#[test]
fn small_training_sets_suffice() {
    let prepared = evaluation_datasets();
    let [small] = averaged(
        &prepared,
        [AlgorithmKind::Blast],
        FeatureSet::blast_optimal(),
        25,
    );
    let [large] = averaged(
        &prepared,
        [AlgorithmKind::Blast],
        FeatureSet::blast_optimal(),
        250,
    );
    assert!(
        small.f1 >= large.f1 * 0.9,
        "50 labelled instances must be competitive with 500: {small} vs {large}"
    );
    assert!(small.recall > 0.6, "small-training recall too low: {small}");
}

/// Figures 15/16: datasets whose duplicates often share only one block have
/// lower blocking recall than clean datasets.
#[test]
fn common_block_distribution_explains_recall() {
    use gsmb::eval::report::CommonBlockDistribution;
    let noisy = prepare(DatasetName::AbtBuy);
    let clean = prepare(DatasetName::DblpAcm);
    let noisy_distribution = CommonBlockDistribution::build(&noisy);
    let clean_distribution = CommonBlockDistribution::build(&clean);
    assert!(
        noisy_distribution.portion_at_most_one() > clean_distribution.portion_at_most_one(),
        "AbtBuy ({:.3}) should have more weak duplicates than DblpAcm ({:.3})",
        noisy_distribution.portion_at_most_one(),
        clean_distribution.portion_at_most_one()
    );
    assert!(noisy.block_quality().recall <= clean.block_quality().recall + 1e-9);
}
