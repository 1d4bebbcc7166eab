//! Micro-bench: the sharded streaming service.
//!
//! Three questions, answered on the largest Clean-Clean catalog dataset:
//!
//! 1. **Ingest scaling** — batch ingest throughput as the posting space is
//!    partitioned over 1/2/4/8 shards, in memory and with per-shard WALs.
//!    Sharding splits the per-batch index maintenance across independent
//!    posting stores; the delta pipeline (feature pass + scoring) is
//!    unchanged, so the interesting number is how much of the batch cost
//!    the partition actually touches.
//! 2. **Group commit** — fsyncs per acknowledged batch when a queue of
//!    mutations is committed as one group (one fsync per *touched WAL*,
//!    shared by every batch in the group) vs committed one by one (one
//!    fsync per batch).  The bench asserts the grouped rate is below one
//!    fsync per batch — the acceptance bar for the write-behind queue.
//! 3. **Reader latency** — epoch-published reads never block on writers: a
//!    reader thread spins on `EpochReader::load` while the writer ingests,
//!    and the bench reports the observed load latencies and how many
//!    distinct epochs the reader saw.
//!
//! Correctness is asserted before any timing: every shard count must
//! produce deltas and a compacted block collection bit-identical to the
//! single-shard service.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::{
    banner, bench_catalog_options, bench_repetitions, report::Report, write_bench_prometheus,
};
use er_blocking::TokenKeys;
use er_core::Dataset;
use er_datasets::{generate_catalog_dataset, DatasetName};
use er_features::FeatureSet;
use er_shard::ShardedStreamingService;
use er_stream::{MutationRecord, StreamingConfig};

const BATCH: usize = 64;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp")
        .join(format!("micro-shard-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dataset: &Dataset, threads: usize) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::blast_optimal(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// Ingests the whole corpus in fixed-size batches through a sharded
/// in-memory service.
fn ingest_all(
    dataset: &Dataset,
    threads: usize,
    num_shards: usize,
) -> ShardedStreamingService<TokenKeys> {
    let mut service =
        ShardedStreamingService::new(config(dataset, threads), TokenKeys, num_shards).unwrap();
    for chunk in dataset.profiles.chunks(BATCH) {
        criterion::black_box(service.ingest(chunk));
    }
    service
}

fn main() {
    banner("Micro-bench: sharded service — ingest scaling, group commit, reader latency");
    let repetitions = bench_repetitions();
    let options = bench_catalog_options();
    let threads = er_core::available_threads();
    let name = DatasetName::largest_two()[0];
    let dataset = generate_catalog_dataset(name, &options)
        .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
    let n = dataset.num_entities();
    println!("\n--- {} ({} entities, {} threads) ---", name, n, threads);

    // Correctness gate: every shard count compacts to the single-shard
    // collection, delta for delta along the way.
    {
        let mut oracle = ShardedStreamingService::new(config(&dataset, 1), TokenKeys, 1).unwrap();
        let reference: Vec<_> = dataset
            .profiles
            .chunks(BATCH)
            .map(|chunk| oracle.ingest(chunk))
            .collect();
        let baseline = oracle.compact();
        for shards in SHARD_COUNTS {
            let mut service =
                ShardedStreamingService::new(config(&dataset, threads), TokenKeys, shards).unwrap();
            for (chunk, expected) in dataset.profiles.chunks(BATCH).zip(&reference) {
                let delta = service.ingest(chunk);
                assert_eq!(delta.pairs, expected.pairs, "{shards} shards diverged");
                assert_eq!(delta.probabilities, expected.probabilities);
            }
            assert!(
                service.compact().same_blocks(&baseline),
                "{shards} shards compacted differently"
            );
        }
    }

    // 1. Ingest throughput vs shard count, in memory and durable.
    println!(
        "{:<8} {:>14} {:>14} {:>16}",
        "shards", "in-memory", "durable", "throughput"
    );
    let mut sweep_rows: Vec<String> = Vec::new();
    for shards in SHARD_COUNTS {
        let mut memory_total = 0.0f64;
        let mut durable_total = 0.0f64;
        for _ in 0..repetitions {
            let start = Instant::now();
            criterion::black_box(ingest_all(&dataset, threads, shards));
            memory_total += start.elapsed().as_secs_f64();

            let dir = scratch(&format!("sweep-{shards}"));
            let mut durable =
                ShardedStreamingService::new(config(&dataset, threads), TokenKeys, shards)
                    .unwrap()
                    .persist_to(&dir)
                    .unwrap();
            let start = Instant::now();
            for chunk in dataset.profiles.chunks(BATCH) {
                criterion::black_box(durable.ingest(chunk).unwrap());
            }
            durable_total += start.elapsed().as_secs_f64();
        }
        let memory = memory_total / repetitions as f64;
        let durable = durable_total / repetitions as f64;
        println!(
            "{:<8} {:>12.2}ms {:>12.2}ms {:>11.0} e/s",
            shards,
            memory * 1e3,
            durable * 1e3,
            n as f64 / memory,
        );
        sweep_rows.push(format!(
            "{{\"shards\": {}, \"memory_ingest_ms\": {:.3}, \"durable_ingest_ms\": {:.3}, \"entities_per_sec\": {:.0}}}",
            shards,
            memory * 1e3,
            durable * 1e3,
            n as f64 / memory,
        ));
    }

    // 2. Group commit: fsyncs per batch for a queued group vs one-by-one.
    let group_shards = 4usize;
    let group_len = 16usize.min(n);
    let queue: Vec<MutationRecord> = dataset.profiles[..group_len]
        .iter()
        .map(|p| MutationRecord::Ingest(vec![p.clone()]))
        .collect();

    let dir = scratch("group");
    let mut grouped = ShardedStreamingService::new(config(&dataset, 1), TokenKeys, group_shards)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    let before = grouped.wal_syncs();
    grouped.apply_group(&queue).unwrap();
    let grouped_syncs = grouped.wal_syncs() - before;

    let dir = scratch("single");
    let mut single = ShardedStreamingService::new(config(&dataset, 1), TokenKeys, group_shards)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    let before = single.wal_syncs();
    for profile in &dataset.profiles[..group_len] {
        single.ingest(std::slice::from_ref(profile)).unwrap();
    }
    let single_syncs = single.wal_syncs() - before;

    let grouped_rate = grouped_syncs as f64 / group_len as f64;
    let single_rate = single_syncs as f64 / group_len as f64;
    assert!(
        grouped_rate < 1.0,
        "group commit must cost below one fsync per batch, got {grouped_rate:.2}"
    );
    println!(
        "\ngroup commit ({} batches, {} shards): {} fsyncs grouped ({:.2}/batch) vs {} individual ({:.2}/batch)",
        group_len, group_shards, grouped_syncs, grouped_rate, single_syncs, single_rate,
    );

    // 3. Reader latency while a writer ingests: epoch loads are pointer
    // flips, so they stay flat no matter what the writer is doing.
    let mut service =
        ShardedStreamingService::new(config(&dataset, threads), TokenKeys, group_shards).unwrap();
    let reader = service.reader();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut loads = 0u64;
            let mut total_ns = 0u64;
            let mut max_ns = 0u64;
            let mut views_seen = 0u64;
            let mut last_view = u64::MAX;
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                let view = criterion::black_box(reader.load());
                let elapsed = start.elapsed().as_nanos() as u64;
                loads += 1;
                total_ns += elapsed;
                max_ns = max_ns.max(elapsed);
                if view.batches_applied != last_view {
                    last_view = view.batches_applied;
                    views_seen += 1;
                }
            }
            (loads, total_ns, max_ns, views_seen)
        })
    };
    for chunk in dataset.profiles.chunks(BATCH) {
        criterion::black_box(service.ingest(chunk));
    }
    stop.store(true, Ordering::Relaxed);
    let (loads, total_ns, max_ns, views_seen) = handle.join().unwrap();
    let mean_ns = total_ns as f64 / loads.max(1) as f64;
    println!(
        "reader under write load: {} loads, mean {:.0}ns, max {}ns, {} published views observed",
        loads, mean_ns, max_ns, views_seen,
    );

    Report::new("micro_shard")
        .field("repetitions", repetitions)
        .field("threads", threads)
        .field("dataset", format!("\"{name}\""))
        .field("entities", n)
        .field("batch_size", BATCH)
        .field(
            "group_commit",
            format!(
                "{{\"batches\": {group_len}, \"shards\": {group_shards}, \
                 \"grouped_fsyncs\": {grouped_syncs}, \"individual_fsyncs\": {single_syncs}, \
                 \"grouped_fsyncs_per_batch\": {grouped_rate:.4}, \
                 \"individual_fsyncs_per_batch\": {single_rate:.4}}}"
            ),
        )
        .field(
            "reader",
            format!(
                "{{\"loads\": {loads}, \"mean_ns\": {mean_ns:.1}, \"max_ns\": {max_ns}, \
                 \"views_observed\": {views_seen}}}"
            ),
        )
        .rows("shard_sweep", sweep_rows)
        .write("BENCH_shard.json");
    // The same run as a Prometheus snapshot: group-commit fsync batches,
    // queue depths, epoch-publish latency, reader-view age.
    write_bench_prometheus("BENCH_shard.prom");
}
