//! Micro-bench: streaming ingestion vs corpus size and batch size.
//!
//! The contract of the `er-stream` subsystem is that per-batch ingest cost
//! scales with the **batch**, not the corpus: the index updates touch only
//! the batch's postings, partner gathering walks only the new entities'
//! blocks, and feature tables are recomputed only for affected entities.
//! This bench demonstrates that on the fig7/9 workload (the two largest
//! Clean-Clean catalog datasets):
//!
//! 1. holding the batch size fixed while growing the already-ingested
//!    corpus, the mean per-batch ingest time stays flat while a full batch
//!    rebuild grows with the corpus;
//! 2. holding the corpus fixed while growing the batch, the per-entity cost
//!    stays flat (cost tracks the batch size).
//!
//! Every streamed state is verified against a one-shot batch build before
//! timing — the speedups never trade the bit-identical contract away.
//!
//! Emits `BENCH_stream.json` when `GSMB_BENCH_JSON` is set.

use bench::{
    assert_obs_overhead, banner, bench_catalog_options, bench_repetitions, report::Report,
};
use er_blocking::{build_blocks, TokenKeys};
use er_core::Dataset;
use er_datasets::{generate_catalog_dataset, DatasetName};
use er_features::FeatureSet;
use er_stream::{dataset_prefix, StreamingConfig, StreamingMetaBlocker};

/// Builds a blocker holding the first `seed` entities of the dataset.
fn seeded_blocker(
    dataset: &Dataset,
    seed: usize,
    threads: usize,
) -> StreamingMetaBlocker<TokenKeys> {
    let config = StreamingConfig {
        feature_set: FeatureSet::blast_optimal(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    };
    let mut blocker = StreamingMetaBlocker::new(config, TokenKeys);
    blocker.ingest(&dataset.profiles[..seed]);
    blocker
}

fn main() {
    banner("Micro-bench: streaming ingest cost vs corpus size and batch size");
    let repetitions = bench_repetitions();
    let options = bench_catalog_options();
    let threads = er_core::available_threads();
    let mut json_entries: Vec<String> = Vec::new();
    let mut gate_dataset: Option<Dataset> = None;

    for name in DatasetName::largest_two() {
        let dataset = generate_catalog_dataset(name, &options)
            .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
        let n = dataset.num_entities();
        let e2 = n - dataset.split;
        println!("\n--- {} ({} entities, |E2| = {e2}) ---", name, n);

        // Correctness first: stream half the corpus, then the rest in odd
        // chunks, and require the compacted state to equal the batch build.
        {
            let mut blocker = seeded_blocker(&dataset, dataset.split + e2 / 2, threads);
            for chunk in dataset.profiles[dataset.split + e2 / 2..].chunks(97) {
                blocker.ingest(chunk);
            }
            let streamed = blocker.compact();
            let batch = build_blocks(&dataset, &TokenKeys, threads);
            assert!(streamed.same_blocks(&batch), "{name}: stream diverged");
        }

        // 1. Fixed batch (64 entities), growing corpus.
        const BATCH: usize = 64;
        println!(
            "{:<28} {:>14} {:>16} {:>12}",
            "corpus before ingest", "ingest 64", "batch rebuild", "rebuild/ingest"
        );
        for fraction in [0.25f64, 0.50, 0.75] {
            let seed = dataset.split + ((e2 as f64 * fraction) as usize).min(e2 - BATCH);
            let prefix = dataset_prefix(&dataset, seed + BATCH);
            let mut ingest_total = 0.0f64;
            for _ in 0..repetitions {
                let mut blocker = seeded_blocker(&dataset, seed, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.ingest(&dataset.profiles[seed..seed + BATCH]));
                ingest_total += start.elapsed().as_secs_f64();
            }
            let ingest = ingest_total / repetitions as f64;
            let rebuild_start = std::time::Instant::now();
            for _ in 0..repetitions {
                criterion::black_box(build_blocks(&prefix, &TokenKeys, threads));
            }
            let rebuild = rebuild_start.elapsed().as_secs_f64() / repetitions as f64;
            println!(
                "{:<28} {:>12.2}ms {:>14.2}ms {:>11.1}x",
                format!("{seed} entities ({:.0}% of E2)", fraction * 100.0),
                ingest * 1e3,
                rebuild * 1e3,
                rebuild / ingest.max(1e-9),
            );
            json_entries.push(format!(
                concat!(
                    "  {{ \"dataset\": \"{}\", \"mode\": \"growing_corpus\", ",
                    "\"corpus\": {}, \"batch\": {}, \"ingest_ms\": {:.3}, ",
                    "\"rebuild_ms\": {:.3} }}"
                ),
                name,
                seed,
                BATCH,
                ingest * 1e3,
                rebuild * 1e3
            ));
        }

        // 2. Fixed corpus (half of E2 ingested), growing batch.
        let seed = dataset.split + e2 / 2;
        println!("{:<28} {:>14} {:>16}", "batch size", "ingest", "per entity");
        for batch in [16usize, 64, 256] {
            let batch = batch.min(n - seed);
            let mut total = 0.0f64;
            for _ in 0..repetitions {
                let mut blocker = seeded_blocker(&dataset, seed, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.ingest(&dataset.profiles[seed..seed + batch]));
                total += start.elapsed().as_secs_f64();
            }
            let time = total / repetitions as f64;
            println!(
                "{:<28} {:>12.2}ms {:>13.1}µs",
                batch,
                time * 1e3,
                time / batch as f64 * 1e6,
            );
            json_entries.push(format!(
                concat!(
                    "  {{ \"dataset\": \"{}\", \"mode\": \"growing_batch\", ",
                    "\"corpus\": {}, \"batch\": {}, \"ingest_ms\": {:.3}, ",
                    "\"per_entity_us\": {:.2} }}"
                ),
                name,
                seed,
                batch,
                time * 1e3,
                time / batch as f64 * 1e6
            ));
        }
        gate_dataset = Some(dataset);
    }

    // Overhead gate: the streaming ingest hot loop (per-batch er-obs
    // updates in `emit`) must cost the same with the layer disabled,
    // within 2%.
    println!();
    let gate_dataset = gate_dataset.expect("at least one dataset was benchmarked");
    let gate_seed = gate_dataset.split;
    let gate_end = gate_dataset.num_entities().min(gate_seed + 512);
    let (disabled_s, enabled_s) = assert_obs_overhead("streaming_ingest", 5, || {
        let mut blocker = seeded_blocker(&gate_dataset, gate_seed, threads);
        for chunk in gate_dataset.profiles[gate_seed..gate_end].chunks(64) {
            criterion::black_box(blocker.ingest(chunk));
        }
    });

    Report::new("micro_stream")
        .field("repetitions", repetitions)
        .field("threads", threads)
        .field("obs_overhead_disabled_s", format!("{disabled_s:.4}"))
        .field("obs_overhead_enabled_s", format!("{enabled_s:.4}"))
        .rows("rows", json_entries)
        .write("BENCH_stream.json");
}
