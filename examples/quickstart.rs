//! Quick start: run Generalized Supervised Meta-blocking end-to-end on a
//! synthetic product-matching dataset and print what it achieved.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use gsmb::blocking::{BlockStats, CandidatePairs};
use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::Effectiveness;
use gsmb::meta::pipeline::{MetaBlockingConfig, MetaBlockingPipeline};
use gsmb::meta::pruning::AlgorithmKind;

fn main() {
    // 1. A Clean-Clean ER dataset: two product catalogues with ~1k entities
    //    each and a known ground truth (an AbtBuy-like analogue).
    let options = CatalogOptions::default();
    let dataset =
        generate_catalog_dataset(DatasetName::AbtBuy, &options).expect("dataset generation failed");
    println!(
        "dataset {}: |E1| = {}, |E2| = {}, |D| = {}",
        dataset.name,
        dataset.len_e1(),
        dataset.len_e2(),
        dataset.num_duplicates()
    );

    // 2. Run the full pipeline: blocking, features, a 50-instance training
    //    set, probabilistic classification and BLAST pruning.
    let config = MetaBlockingConfig::default();
    let pipeline = MetaBlockingPipeline::new(config);
    let outcome = pipeline
        .run(&dataset, AlgorithmKind::Blast)
        .expect("pipeline failed");

    // 3. Compare the input block collection with the pruned output.  The
    //    outcome keeps only the valid pairs, so the input's candidate pairs
    //    are extracted again from its blocks.
    let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&outcome.blocks), 1);
    let input_pairs: Vec<_> = candidates.iter().map(|(_, a, b)| (a, b)).collect();
    let input_quality = Effectiveness::evaluate(
        &input_pairs,
        &dataset.ground_truth,
        dataset.num_duplicates(),
    );
    let output_quality = Effectiveness::evaluate(
        &outcome.retained_pairs(),
        &dataset.ground_truth,
        dataset.num_duplicates(),
    );

    println!(
        "blocking produced {} candidate pairs: {input_quality}",
        outcome.num_candidates
    );
    println!(
        "BLAST retained {} pairs:              {output_quality}",
        outcome.retained.len()
    );
    println!(
        "run-time: blocking {:.2?}, features {:.2?}, training {:.2?}, scoring {:.2?}, pruning {:.2?}",
        outcome.timings.blocking,
        outcome.timings.features,
        outcome.timings.training,
        outcome.timings.scoring,
        outcome.timings.pruning
    );
    println!(
        "precision improved {:.0}× while keeping {:.1}% of the recall",
        output_quality.precision / input_quality.precision.max(f64::MIN_POSITIVE),
        100.0 * output_quality.recall / input_quality.recall.max(f64::MIN_POSITIVE)
    );
}
