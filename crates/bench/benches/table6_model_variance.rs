//! Table 6: variance of the logistic-regression model across sampling
//! iterations on the D100K analogue.
//!
//! Three models are trained with different random 25+25 samples; the table
//! reports the learned coefficients (in the standardised feature space), the
//! number of candidate pairs BLAST retains and the duplicates detected.
//! Expected shape: the coefficients vary noticeably between iterations while
//! recall stays high — the behaviour the paper uses to explain the outliers
//! of its scalability figures.

use bench::{banner, bench_catalog_options};
use er_core::PairId;
use er_datasets::{dirty_catalog, generate_dirty};
use er_eval::experiment::PreparedDataset;
use er_eval::metrics::Effectiveness;
use er_features::{FeatureMatrix, FeatureSet, Scheme};
use er_learn::{
    balanced_undersample, Classifier, LogisticRegression, LogisticRegressionConfig,
    ProbabilisticClassifier, TrainingSet,
};
use meta_blocking::pruning::AlgorithmKind;
use meta_blocking::scoring::CachedScores;

fn main() {
    banner("Table 6: logistic-regression models over D100K (BLAST, 3 iterations)");
    let options = bench_catalog_options();
    let configs = dirty_catalog(&options);
    // D100K is the middle entry of the dirty catalog.
    let config = &configs[2];
    println!(
        "dataset {} ({} entities at dirty scale {})",
        config.name, config.num_entities, options.dirty_scale
    );
    let dataset = generate_dirty(config).expect("generation failed");
    let prepared = PreparedDataset::prepare(dataset).expect("blocking failed");
    let feature_set = FeatureSet::blast_optimal();
    let matrix = FeatureMatrix::build_with_threads(
        &prepared.context(),
        feature_set,
        er_core::available_threads(),
    );
    let schemes: Vec<Scheme> = feature_set.schemes();

    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "coefficient", "iteration 1", "iteration 2", "iteration 3"
    );
    let mut weights_per_iteration: Vec<Vec<f64>> = Vec::new();
    let mut intercepts = Vec::new();
    let mut candidates_retained = Vec::new();
    let mut duplicates_detected = Vec::new();
    let mut recalls = Vec::new();

    for iteration in 0..3u64 {
        let mut rng = er_core::seeded_rng(0x7ab1e6 + iteration);
        let sample = balanced_undersample(
            prepared.candidates.pairs(),
            &prepared.dataset.ground_truth,
            25,
            &mut rng,
        )
        .expect("sampling failed");
        let mut training = TrainingSet::new();
        for (&pair_index, &label) in sample.pair_indices.iter().zip(&sample.labels) {
            training.push(matrix.row(PairId::from(pair_index)).to_vec(), label);
        }
        let model = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training)
            .expect("training failed");
        weights_per_iteration.push(model.weights().to_vec());
        intercepts.push(model.intercept());

        let probabilities: Vec<f64> = (0..matrix.num_pairs())
            .map(|i| {
                model
                    .probability(matrix.row(PairId::from(i)))
                    .clamp(0.0, 1.0)
            })
            .collect();
        let scores = CachedScores::new(probabilities);
        let blast = AlgorithmKind::Blast.build_csr(&prepared.blocks);
        let retained = blast.prune(&prepared.candidates, &scores);
        let retained_pairs: Vec<_> = retained
            .iter()
            .map(|&id| prepared.candidates.pair(id))
            .collect();
        let eff = Effectiveness::evaluate(
            &retained_pairs,
            &prepared.dataset.ground_truth,
            prepared.dataset.num_duplicates(),
        );
        candidates_retained.push(retained.len());
        duplicates_detected.push((eff.recall * prepared.dataset.num_duplicates() as f64).round());
        recalls.push(eff.recall);
    }

    for (row, scheme) in schemes.iter().enumerate() {
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>12.4}",
            scheme.name(),
            weights_per_iteration[0][row],
            weights_per_iteration[1][row],
            weights_per_iteration[2][row]
        );
    }
    println!(
        "{:<12} {:>12.4} {:>12.4} {:>12.4}",
        "Intercept", intercepts[0], intercepts[1], intercepts[2]
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "Candidates", candidates_retained[0], candidates_retained[1], candidates_retained[2]
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "Duplicates", duplicates_detected[0], duplicates_detected[1], duplicates_detected[2]
    );
    println!(
        "{:<12} {:>12.4} {:>12.4} {:>12.4}",
        "Recall", recalls[0], recalls[1], recalls[2]
    );
}
