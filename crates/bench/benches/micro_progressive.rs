//! Micro-bench: progressive recall under a comparison budget, batch vs
//! streaming schedules.
//!
//! Progressive ER hands the matcher the most promising comparisons first,
//! so the quantity that matters is recall as a function of the comparison
//! budget.  Two schedules compete on the same dataset and classifier
//! configuration:
//!
//! * **batch** — the full pipeline runs once, then
//!   [`meta_blocking::ProgressiveSchedule`] ranks every candidate pair by
//!   its probability;
//! * **streaming** — [`meta_blocking::StreamingPipeline`] bootstraps the
//!   classifier on a seed corpus (all of E1 plus half of E2), ingests the
//!   remaining entities in small batches, and its
//!   [`meta_blocking::StreamingSchedule`] re-ranks on every ingest.
//!
//! The streaming schedule scores pairs with mid-stream statistics, so its
//! curve may deviate slightly from the batch one — that gap is exactly the
//! price of emitting candidates before the corpus is complete.  The two
//! sides also rank different candidate pools: the batch pipeline runs the
//! standard workflow (purging + filtering) while the raw streaming index
//! ranks the raw Token Blocking candidates, so the streaming side emits
//! more pairs in total — the recall-at-equal-budget comparison is still
//! apples-to-apples, since the budget counts comparisons performed.
//!
//! A second, **churn** scenario interleaves deletions with the ingest
//! stream and compares the *cleaned* streaming schedule (purging/filtering
//! maintained incrementally by `meta_blocking::LiveView`) against the
//! classical operational answer to churn: periodically re-running the whole
//! batch pipeline and ranking from the latest rebuild.  The periodic
//! rebuild is blind to everything that arrived or vanished since its last
//! run — its budget is partly spent on pairs whose entities are already
//! gone and it cannot schedule entities it has never seen — while the
//! streaming schedule tracks every mutation batch exactly.

use bench::{banner, bench_catalog_options};
use er_blocking::{BlockStats, CandidatePairs};
use er_core::EntityId;
use er_datasets::{generate_catalog_dataset, DatasetName};
use er_stream::{dataset_prefix, surviving_dataset};
use meta_blocking::pipeline::{MetaBlockingConfig, MetaBlockingOutcome, MetaBlockingPipeline};
use meta_blocking::pruning::AlgorithmKind;
use meta_blocking::{ProgressiveSchedule, StreamingPipeline};

const BUDGET_FRACTIONS: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50];

/// Every candidate pair of a pipeline run in decreasing probability order.
/// The outcome keeps the valid pairs only, so the candidates are extracted
/// again from its blocks — the same pairs under the same ids.
fn ranked_pairs(outcome: &MetaBlockingOutcome) -> Vec<(EntityId, EntityId)> {
    let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&outcome.blocks), 1);
    let schedule = ProgressiveSchedule::new(&outcome.probabilities);
    let pairs = candidates.pairs();
    schedule
        .ranked()
        .iter()
        .map(|&(id, _)| pairs[id.index()])
        .collect()
}

/// Recall after each budget prefix of an emission order.
fn recall_curve(
    emissions: &[(EntityId, EntityId)],
    truth: &er_core::GroundTruth,
    num_duplicates: usize,
    budgets: &[usize],
) -> Vec<f64> {
    let mut curve = Vec::with_capacity(budgets.len());
    let mut found = 0usize;
    let mut cursor = 0usize;
    for &budget in budgets {
        while cursor < budget.min(emissions.len()) {
            let (a, b) = emissions[cursor];
            if truth.is_match(a, b) {
                found += 1;
            }
            cursor += 1;
        }
        curve.push(found as f64 / num_duplicates.max(1) as f64);
    }
    curve
}

fn main() {
    banner("Micro-bench: progressive recall vs comparison budget (batch vs streaming)");
    let options = bench_catalog_options();
    let config = MetaBlockingConfig::default();

    for name in [DatasetName::DblpAcm, DatasetName::ScholarDblp] {
        let dataset = generate_catalog_dataset(name, &options)
            .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));

        // Batch schedule: one full pipeline run, ranked once.
        let pipeline = MetaBlockingPipeline::new(config.clone());
        let outcome = pipeline
            .run(&dataset, AlgorithmKind::Blast)
            .unwrap_or_else(|e| panic!("{name}: batch pipeline failed: {e}"));
        let batch_emissions = ranked_pairs(&outcome);

        // Streaming schedule: bootstrap on E1 + half of E2, stream the rest.
        let e2 = dataset.num_entities() - dataset.split;
        let seed = dataset_prefix(&dataset, dataset.split + e2 / 2);
        let mut streaming = StreamingPipeline::bootstrap(&config, &seed)
            .unwrap_or_else(|e| panic!("{name}: bootstrap failed: {e}"));
        for chunk in dataset.profiles[streaming.num_entities()..].chunks(32) {
            streaming.ingest(chunk);
        }
        let mut stream_emissions = Vec::new();
        loop {
            let drained = streaming.next_batch(4096);
            if drained.is_empty() {
                break;
            }
            stream_emissions.extend(drained.into_iter().map(|(pair, _)| pair));
        }

        let num_candidates = outcome.num_candidates;
        let budgets: Vec<usize> = BUDGET_FRACTIONS
            .iter()
            .map(|f| ((num_candidates as f64 * f) as usize).max(1))
            .chain([num_candidates.max(stream_emissions.len())])
            .collect();
        let batch_curve = recall_curve(
            &batch_emissions,
            &dataset.ground_truth,
            dataset.num_duplicates(),
            &budgets,
        );
        let stream_curve = recall_curve(
            &stream_emissions,
            &dataset.ground_truth,
            dataset.num_duplicates(),
            &budgets,
        );

        println!(
            "\n--- {} (|C| = {num_candidates}, |D| = {}) ---",
            name,
            dataset.num_duplicates()
        );
        println!(
            "{:<18} {:>14} {:>16}",
            "budget", "batch recall", "streaming recall"
        );
        for ((&budget, batch), stream) in budgets.iter().zip(&batch_curve).zip(&stream_curve) {
            println!(
                "{:<18} {:>13.3} {:>16.3}",
                format!(
                    "{budget} ({:.0}%)",
                    budget as f64 / num_candidates as f64 * 100.0
                ),
                batch,
                stream,
            );
        }

        churn_scenario(name, &dataset, &config);
    }
}

/// Interleaved insert/delete churn: the cleaned streaming schedule vs a
/// periodic full batch rebuild (every `REBUILD_PERIOD` ingest chunks).
fn churn_scenario(name: DatasetName, dataset: &er_core::Dataset, config: &MetaBlockingConfig) {
    const CHUNK: usize = 32;
    const REMOVALS_PER_CHUNK: usize = 8;
    const REBUILD_PERIOD: usize = 4;

    let n = dataset.num_entities();
    let e2 = n - dataset.split;
    let seed_count = dataset.split + e2 / 2;
    let seed = dataset_prefix(dataset, seed_count);
    let mut streaming = StreamingPipeline::bootstrap_cleaned(config, &seed)
        .unwrap_or_else(|e| panic!("{name}: cleaned bootstrap failed: {e}"));

    let mut removed: Vec<EntityId> = Vec::new();
    let mut next_victim = dataset.split; // churn rotates through old E2 ids
    let mut cursor = seed_count;
    let mut chunk_index = 0usize;
    let mut rebuilds = 0usize;
    let mut periodic: Option<Vec<(EntityId, EntityId)>> = None;
    while cursor < n {
        let take = CHUNK.min(n - cursor);
        streaming.ingest(&dataset.profiles[cursor..cursor + take]);
        cursor += take;
        chunk_index += 1;

        // Churn: a spread of already-ingested E2 entities leaves the corpus.
        let mut batch: Vec<EntityId> = Vec::new();
        while batch.len() < REMOVALS_PER_CHUNK && next_victim + 3 < cursor {
            batch.push(EntityId(next_victim as u32));
            next_victim += 3;
        }
        if !batch.is_empty() {
            streaming.remove(&batch);
            removed.extend_from_slice(&batch);
        }

        // The periodic baseline re-runs the whole batch pipeline on the
        // corpus as of this boundary; between rebuilds it is stale.
        if chunk_index.is_multiple_of(REBUILD_PERIOD) {
            let corpus = surviving_dataset(&dataset_prefix(dataset, cursor), &removed, &[]);
            let outcome = MetaBlockingPipeline::new(config.clone())
                .run(&corpus, AlgorithmKind::Blast)
                .unwrap_or_else(|e| panic!("{name}: periodic rebuild failed: {e}"));
            periodic = Some(ranked_pairs(&outcome));
            rebuilds += 1;
        }
    }

    // Evaluate both emission orders against the *surviving* corpus: pairs
    // touching removed entities can never match, so budget spent on them is
    // wasted — exactly the staleness cost of the periodic rebuild.
    let survivors = surviving_dataset(dataset, &removed, &[]);
    let periodic_emissions = periodic.expect("stream too short for a rebuild");
    let mut stream_emissions: Vec<(EntityId, EntityId)> = Vec::new();
    loop {
        let drained = streaming.next_batch(4096);
        if drained.is_empty() {
            break;
        }
        stream_emissions.extend(drained.into_iter().map(|(pair, _)| pair));
    }

    let oracle = MetaBlockingPipeline::new(config.clone())
        .run(&survivors, AlgorithmKind::Blast)
        .unwrap_or_else(|e| panic!("{name}: oracle rebuild failed: {e}"));
    let num_candidates = oracle.num_candidates;
    let budgets: Vec<usize> = BUDGET_FRACTIONS
        .iter()
        .map(|f| ((num_candidates as f64 * f) as usize).max(1))
        .chain([num_candidates.max(stream_emissions.len())])
        .collect();
    let periodic_curve = recall_curve(
        &periodic_emissions,
        &survivors.ground_truth,
        survivors.num_duplicates(),
        &budgets,
    );
    let stream_curve = recall_curve(
        &stream_emissions,
        &survivors.ground_truth,
        survivors.num_duplicates(),
        &budgets,
    );

    println!(
        "\n--- {} churn: {} removed, {} rebuilds, |D surviving| = {} ---",
        name,
        removed.len(),
        rebuilds,
        survivors.num_duplicates()
    );
    println!(
        "{:<18} {:>16} {:>18}",
        "budget", "periodic rebuild", "cleaned streaming"
    );
    for ((&budget, periodic), stream) in budgets.iter().zip(&periodic_curve).zip(&stream_curve) {
        println!(
            "{:<18} {:>16.3} {:>18.3}",
            format!(
                "{budget} ({:.0}%)",
                budget as f64 / num_candidates as f64 * 100.0
            ),
            periodic,
            stream,
        );
    }
}
