//! Product record linkage on hand-crafted profiles.
//!
//! Reproduces the paper's running example (Figure 1: smartphone offers from
//! two shops, with heterogeneous schemata) and walks through every stage of
//! the workflow explicitly: blocking, the blocking graph, feature vectors,
//! the probabilistic classifier and pruning — the level of control a library
//! user needs when plugging their own data in.
//!
//! ```bash
//! cargo run --release --example product_dedup
//! ```

use gsmb::blocking::{standard_blocking_workflow_csr, CandidatePairs};
use gsmb::core::{Dataset, EntityCollection, EntityId, EntityProfile, GroundTruth, PairId};
use gsmb::eval::Effectiveness;
use gsmb::features::{FeatureContext, FeatureMatrix, FeatureSet};
use gsmb::learn::{
    balanced_undersample, Classifier, LogisticRegression, LogisticRegressionConfig,
    ProbabilisticClassifier, TrainingSet,
};
use gsmb::meta::pruning::AlgorithmKind;
use gsmb::meta::scoring::CachedScores;

/// Shop A: structured product records.
fn shop_a() -> Vec<EntityProfile> {
    let rows = [
        ("a1", "Apple iPhone X 64GB", "Smartphone"),
        ("a2", "Samsung Galaxy S20 128GB", "smartphone"),
        ("a3", "Huawei Mate 20 Pro", "smartphone"),
        ("a4", "Google Pixel 4a", "smartphone"),
        ("a5", "Samsung Galaxy Fold", "foldable smartphone"),
        ("a6", "Nokia 3310 classic", "feature phone"),
        ("a7", "Apple iPhone 12 mini", "Smartphone"),
        ("a8", "OnePlus 8T 256GB", "smartphone"),
    ];
    rows.iter()
        .map(|(id, model, category)| {
            EntityProfile::new(*id)
                .with_attribute("model", *model)
                .with_attribute("category", *category)
        })
        .collect()
}

/// Shop B: free-text offers with a different schema.
fn shop_b() -> Vec<EntityProfile> {
    let rows = [
        ("b1", "iPhone 10 by Apple, 64 GB storage, great smartphone"),
        ("b2", "Samsung S20 smartphone 128 GB"),
        ("b3", "Mate 20 Pro from Huawei - flagship smartphone"),
        ("b4", "Pixel 4a Google phone"),
        ("b5", "Galaxy Fold foldable phone by Samsung"),
        ("b6", "Sony WH-1000XM4 headphones"),
        ("b7", "Apple iPad Air tablet"),
        ("b8", "OnePlus 8T smartphone 256 GB"),
    ];
    rows.iter()
        .map(|(id, offer)| EntityProfile::new(*id).with_attribute("offer", *offer))
        .collect()
}

fn main() {
    // Ground truth over the flattened id space: shop A entities take ids 0..8,
    // shop B entities 8..16.
    let matches = [(0u32, 8u32), (1, 9), (2, 10), (3, 11), (4, 12), (7, 15)];
    let dataset = Dataset::clean_clean(
        "smartphones",
        EntityCollection::new("shop-a", shop_a()),
        EntityCollection::new("shop-b", shop_b()),
        GroundTruth::from_pairs(matches.iter().map(|&(a, b)| (EntityId(a), EntityId(b)))),
    )
    .expect("dataset construction failed");

    // 1. Blocking.
    let threads = gsmb::core::available_threads();
    let (blocks, stats) = standard_blocking_workflow_csr(&dataset, threads);
    println!("blocking produced {} blocks:", blocks.num_blocks());
    for b in 0..blocks.num_blocks() {
        let members: Vec<String> = blocks
            .entities(b)
            .iter()
            .map(|e| dataset.profile(*e).external_id.clone())
            .collect();
        println!("  {:<12} {}", blocks.key(b), members.join(", "));
    }

    // 2. Candidate pairs and features.
    let candidates = CandidatePairs::from_stats(&stats, threads);
    let context = FeatureContext::new(&stats, &candidates);
    let feature_set = FeatureSet::blast_optimal();
    let matrix = FeatureMatrix::build(&context, feature_set);
    println!(
        "\n{} distinct candidate pairs, {} features each ({feature_set})",
        candidates.len(),
        matrix.num_features()
    );

    // 3. Train the probabilistic classifier on a tiny balanced sample.
    let mut rng = gsmb::core::seeded_rng(7);
    let sample = balanced_undersample(candidates.pairs(), &dataset.ground_truth, 4, &mut rng)
        .expect("sampling failed");
    let mut training = TrainingSet::new();
    for (&idx, &label) in sample.pair_indices.iter().zip(&sample.labels) {
        training.push(matrix.row(PairId::from(idx)).to_vec(), label);
    }
    let model = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training)
        .expect("training failed");

    // 4. Score every candidate pair and prune with BLAST.
    let probabilities: Vec<f64> = (0..matrix.num_pairs())
        .map(|i| {
            model
                .probability(matrix.row(PairId::from(i)))
                .clamp(0.0, 1.0)
        })
        .collect();
    let scores = CachedScores::new(probabilities);
    let pruner = AlgorithmKind::Blast.build_csr(&blocks);
    let retained = pruner.prune(&candidates, &scores);

    println!("\nretained pairs (probability, shop A record, shop B record, match?):");
    let retained_pairs: Vec<_> = retained.iter().map(|&id| candidates.pair(id)).collect();
    for &id in &retained {
        let (a, b) = candidates.pair(id);
        println!(
            "  {:.3}  {:<4} ↔ {:<4}  {}",
            scores.as_slice()[id.index()],
            dataset.profile(a).external_id,
            dataset.profile(b).external_id,
            if dataset.ground_truth.is_match(a, b) {
                "MATCH"
            } else {
                "superfluous"
            }
        );
    }

    let quality = Effectiveness::evaluate(
        &retained_pairs,
        &dataset.ground_truth,
        dataset.num_duplicates(),
    );
    println!(
        "\n{} of {} candidate pairs retained — {quality}",
        retained.len(),
        candidates.len()
    );
}
