//! Micro-bench: streaming delete/update cost vs corpus size and batch size.
//!
//! The contract of the mutation log is that per-batch remove/update cost
//! scales with the **batch**, not the corpus: posting tombstones touch only
//! the mutated entities' keys, the liveness journal scans only flipped
//! blocks, and partner diffs walk only the mutated entities' blocks.  This
//! bench demonstrates that on the fig7/9 workload (the two largest
//! Clean-Clean catalog datasets):
//!
//! 1. holding the mutation batch fixed while growing the already-ingested
//!    corpus, the mean per-batch remove and update times stay flat while a
//!    full batch rebuild grows with the corpus;
//! 2. holding the corpus fixed while growing the batch, the per-entity cost
//!    stays flat (cost tracks the batch size).
//!
//! Every mutated state is verified against a one-shot batch build of the
//! surviving corpus before timing — the speedups never trade the
//! bit-identical contract away.
//!
//! Emits `BENCH_mutation.json` when `GSMB_BENCH_JSON` is set.

use bench::{banner, bench_catalog_options, bench_repetitions, report::Report};
use er_blocking::{build_blocks, TokenKeys};
use er_core::{Dataset, EntityId, EntityProfile};
use er_datasets::{generate_catalog_dataset, DatasetName};
use er_features::FeatureSet;
use er_stream::{dataset_prefix, surviving_dataset, StreamingConfig, StreamingMetaBlocker};

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

/// A deterministic spread of `count` removable ids inside `[dataset.split,
/// seed)` (E2 entities already ingested).
fn victims(dataset: &Dataset, seed: usize, count: usize) -> Vec<EntityId> {
    let lo = dataset.split;
    let span = seed - lo;
    // Clamp to the available span: `(i · span) / count` strides by at least
    // one whenever `count ≤ span`, so the ids stay distinct even at tiny
    // bench scales (`remove` rejects duplicate ids).
    let count = count.min(span);
    (0..count)
        .map(|i| EntityId((lo + (i * span) / count) as u32))
        .collect()
}

/// Deterministic update entries: each victim takes a donor profile from the
/// other end of the corpus.
fn rekeys(dataset: &Dataset, seed: usize, count: usize) -> Vec<(EntityId, EntityProfile)> {
    victims(dataset, seed, count)
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let donor = (e.index() + 37 * (i + 1)) % seed;
            (e, dataset.profiles[donor].clone())
        })
        .collect()
}

fn main() {
    banner("Micro-bench: streaming delete/update cost vs corpus size and batch size");
    let repetitions = bench_repetitions();
    let options = bench_catalog_options();
    let threads = er_core::available_threads();
    let mut json_entries: Vec<String> = Vec::new();

    for name in DatasetName::largest_two() {
        let dataset = generate_catalog_dataset(name, &options)
            .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
        let n = dataset.num_entities();
        let e2 = n - dataset.split;
        println!("\n--- {} ({} entities, |E2| = {e2}) ---", name, n);

        // Correctness first: ingest everything, remove a spread, re-key a
        // spread, and require the compacted state to equal a batch build of
        // the surviving corpus.
        {
            let mut blocker = seeded_blocker(&dataset, n, threads);
            let removed = victims(&dataset, n, 40);
            blocker.remove(&removed);
            let dead: Vec<u32> = removed.iter().map(|e| e.0).collect();
            let updated: Vec<(EntityId, EntityProfile)> = rekeys(&dataset, n, 60)
                .into_iter()
                .filter(|(e, _)| !dead.contains(&e.0))
                .collect();
            blocker.update(&updated);
            let survivors = surviving_dataset(&dataset, &removed, &updated);
            let streamed = blocker.compact();
            let batch = build_blocks(&survivors, &TokenKeys, threads);
            assert!(streamed.same_blocks(&batch), "{name}: mutation diverged");
        }

        // 1. Fixed mutation batch (32 entities), growing corpus.
        const BATCH: usize = 32;
        println!(
            "{:<26} {:>12} {:>12} {:>14} {:>12}",
            "corpus before mutation", "remove 32", "update 32", "batch rebuild", "rebuild/rm"
        );
        for fraction in [0.25f64, 0.50, 0.75] {
            let seed = dataset.split + ((e2 as f64 * fraction) as usize).max(BATCH * 2);
            let seed = seed.min(n);
            let removed = victims(&dataset, seed, BATCH);
            let updated = rekeys(&dataset, seed, BATCH);
            let mut remove_total = 0.0f64;
            let mut update_total = 0.0f64;
            for _ in 0..repetitions {
                let mut blocker = seeded_blocker(&dataset, seed, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.remove(&removed));
                remove_total += start.elapsed().as_secs_f64();

                let mut blocker = seeded_blocker(&dataset, seed, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.update(&updated));
                update_total += start.elapsed().as_secs_f64();
            }
            let remove = remove_total / repetitions as f64;
            let update = update_total / repetitions as f64;
            let prefix = surviving_dataset(&dataset_prefix(&dataset, seed), &removed, &[]);
            let rebuild_start = std::time::Instant::now();
            for _ in 0..repetitions {
                criterion::black_box(build_blocks(&prefix, &TokenKeys, threads));
            }
            let rebuild = rebuild_start.elapsed().as_secs_f64() / repetitions as f64;
            println!(
                "{:<26} {:>10.2}ms {:>10.2}ms {:>12.2}ms {:>11.1}x",
                format!("{seed} entities ({:.0}% of E2)", fraction * 100.0),
                remove * 1e3,
                update * 1e3,
                rebuild * 1e3,
                rebuild / remove.max(1e-9),
            );
            json_entries.push(format!(
                concat!(
                    "  {{ \"dataset\": \"{}\", \"mode\": \"growing_corpus\", ",
                    "\"corpus\": {}, \"batch\": {}, \"remove_ms\": {:.3}, ",
                    "\"update_ms\": {:.3}, \"rebuild_ms\": {:.3} }}"
                ),
                name,
                seed,
                BATCH,
                remove * 1e3,
                update * 1e3,
                rebuild * 1e3
            ));
        }

        // 2. Fixed corpus (all ingested), growing batch.
        println!(
            "{:<26} {:>12} {:>12} {:>14}",
            "batch size", "remove", "update", "per entity"
        );
        for batch in [8usize, 32, 128] {
            let batch = batch.min(e2 / 2);
            let removed = victims(&dataset, n, batch);
            let updated = rekeys(&dataset, n, batch);
            let mut remove_total = 0.0f64;
            let mut update_total = 0.0f64;
            for _ in 0..repetitions {
                let mut blocker = seeded_blocker(&dataset, n, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.remove(&removed));
                remove_total += start.elapsed().as_secs_f64();

                let mut blocker = seeded_blocker(&dataset, n, threads);
                let start = std::time::Instant::now();
                criterion::black_box(blocker.update(&updated));
                update_total += start.elapsed().as_secs_f64();
            }
            let remove = remove_total / repetitions as f64;
            let update = update_total / repetitions as f64;
            println!(
                "{:<26} {:>10.2}ms {:>10.2}ms {:>11.1}µs",
                batch,
                remove * 1e3,
                update * 1e3,
                (remove + update) / (2 * batch) as f64 * 1e6,
            );
            json_entries.push(format!(
                concat!(
                    "  {{ \"dataset\": \"{}\", \"mode\": \"growing_batch\", ",
                    "\"corpus\": {}, \"batch\": {}, \"remove_ms\": {:.3}, ",
                    "\"update_ms\": {:.3}, \"per_entity_us\": {:.2} }}"
                ),
                name,
                n,
                batch,
                remove * 1e3,
                update * 1e3,
                (remove + update) / (2 * batch) as f64 * 1e6
            ));
        }
    }

    Report::new("micro_mutation")
        .field("repetitions", repetitions)
        .field("threads", threads)
        .rows("rows", json_entries)
        .write("BENCH_mutation.json");
}
