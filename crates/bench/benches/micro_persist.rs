//! Micro-bench: durability cost and crash-recovery speed on the fig7/9
//! workload (the two largest Clean-Clean catalog datasets), measured on the
//! unsharded durable blocker: a `DurableShardedService` with one shard.
//!
//! Three questions, answered per dataset:
//!
//! 1. **WAL overhead** — how much does write-ahead logging add to a
//!    per-batch ingest?  (The log records the *input* batch, so the
//!    overhead is one fsynced append per batch, independent of the index
//!    size.)
//! 2. **Snapshot cost** — how long does a full checkpoint (encode + CRC +
//!    atomic rename) take, and how large is the file?
//! 3. **Recovery vs rebuild** — after a crash with a WAL tail of recent
//!    batches, is `recover_from` (snapshot load + tail replay) faster than
//!    rebuilding the streaming state from scratch?  This is the payoff
//!    that makes persistence worth its disk: the further the last
//!    checkpoint, the longer the replay, so the bench sweeps the tail
//!    fraction.
//!
//! Correctness is asserted before any timing: a crash-recovered blocker
//! must compact to exactly the batch build of the surviving corpus.

use std::path::PathBuf;
use std::time::Instant;

use bench::{
    banner, bench_catalog_options, bench_repetitions, histogram_p50_between, report::Report,
    write_bench_prometheus,
};
use er_blocking::{build_blocks, TokenKeys};
use er_core::{Dataset, EntityId};
use er_datasets::{generate_catalog_dataset, DatasetName};
use er_features::FeatureSet;
use er_shard::{DurableShardedService, ShardedStreamingService};
use er_stream::{surviving_dataset, StreamingConfig};

const BATCH: usize = 64;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp")
        .join(format!("micro-persist-{tag}"));
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

/// An empty unsharded (one-shard) service.
fn service(dataset: &Dataset, threads: usize) -> ShardedStreamingService<TokenKeys> {
    ShardedStreamingService::new(config(dataset, threads), TokenKeys, 1).unwrap()
}

/// Ingests the whole corpus in fixed-size batches (plain, in-memory).
fn ingest_all(dataset: &Dataset, threads: usize) -> ShardedStreamingService<TokenKeys> {
    let mut service = service(dataset, threads);
    for chunk in dataset.profiles.chunks(BATCH) {
        criterion::black_box(service.ingest(chunk));
    }
    service
}

fn main() {
    banner("Micro-bench: snapshot/WAL durability vs rebuild-from-scratch");
    let repetitions = bench_repetitions();
    let options = bench_catalog_options();
    let threads = er_core::available_threads();
    let mut json_entries: Vec<String> = Vec::new();

    for name in DatasetName::largest_two() {
        let dataset = generate_catalog_dataset(name, &options)
            .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
        let n = dataset.num_entities();
        println!("\n--- {} ({} entities) ---", name, n);

        // Correctness gate: ingest + churn + crash + recover must equal the
        // batch build of the surviving corpus.
        {
            let dir = scratch(&format!("{name}-gate"));
            let mut durable = service(&dataset, threads).persist_to(&dir).unwrap();
            for chunk in dataset.profiles.chunks(BATCH) {
                durable.ingest(chunk).unwrap();
            }
            let removed: Vec<EntityId> = (dataset.split..n)
                .step_by(((n - dataset.split) / 24).max(1))
                .take(16)
                .map(|e| EntityId(e as u32))
                .collect();
            durable.remove(&removed).unwrap();
            drop(durable); // crash with the whole history in the WAL tail
            let mut recovered =
                DurableShardedService::recover_from(&dir, TokenKeys, threads).unwrap();
            let survivors = surviving_dataset(&dataset, &removed, &[]);
            let streamed = recovered.compact().unwrap();
            let batch = build_blocks(&survivors, &TokenKeys, threads);
            assert!(streamed.same_blocks(&batch), "{name}: recovery diverged");
        }

        // 1. WAL overhead per ingest batch.
        let mut plain_total = 0.0f64;
        let mut durable_total = 0.0f64;
        let batches = n.div_ceil(BATCH);
        for _ in 0..repetitions {
            let start = Instant::now();
            criterion::black_box(ingest_all(&dataset, threads));
            plain_total += start.elapsed().as_secs_f64();

            let dir = scratch(&format!("{name}-wal"));
            let mut durable = service(&dataset, threads).persist_to(&dir).unwrap();
            let start = Instant::now();
            for chunk in dataset.profiles.chunks(BATCH) {
                criterion::black_box(durable.ingest(chunk).unwrap());
            }
            durable_total += start.elapsed().as_secs_f64();
        }
        let plain = plain_total / repetitions as f64;
        let durable_time = durable_total / repetitions as f64;
        println!(
            "wal overhead: plain ingest {:.2}ms, durable ingest {:.2}ms ({:.2}x, {:.1}µs per {}-entity batch)",
            plain * 1e3,
            durable_time * 1e3,
            durable_time / plain.max(1e-9),
            (durable_time - plain) / batches as f64 * 1e6,
            BATCH,
        );

        // 2. Snapshot (checkpoint) cost at the full corpus.
        let dir = scratch(&format!("{name}-snapshot"));
        let mut durable = ingest_all(&dataset, threads).persist_to(&dir).unwrap();
        let before = er_obs::snapshot();
        let start = Instant::now();
        for _ in 0..repetitions {
            durable.checkpoint().unwrap();
        }
        let snapshot_time = start.elapsed().as_secs_f64() / repetitions as f64;
        // The compute / IO split of those checkpoints, one sample per
        // member image each (log2 buckets: within 2× of the median).
        let after = er_obs::snapshot();
        let encode_p50 = histogram_p50_between(&before, &after, "persist_snapshot_encode_ns");
        let write_p50 = histogram_p50_between(&before, &after, "persist_snapshot_write_ns");
        // Both snapshot files of the committed generation: the index
        // (member 0) and the small head next to it.
        let generation = format!(".{:06}.gsmb", durable.generation());
        let snapshot_bytes: u64 = std::fs::read_dir(durable.dir())
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                name.ends_with(&generation) && !name.starts_with("wal.")
            })
            .map(|entry| entry.metadata().unwrap().len())
            .sum();
        println!(
            "snapshot: {:.2}ms per checkpoint (member image: encode+checksum p50 <= {:.2}ms, \
             write+fsync p50 <= {:.2}ms), {:.1} KiB on disk",
            snapshot_time * 1e3,
            encode_p50 as f64 / 1e6,
            write_p50 as f64 / 1e6,
            snapshot_bytes as f64 / 1024.0
        );

        // 3. Recovery (snapshot + replay of a WAL tail) vs rebuilding the
        // streaming state from scratch.
        let rebuild_start = Instant::now();
        for _ in 0..repetitions {
            criterion::black_box(ingest_all(&dataset, threads));
        }
        let rebuild = rebuild_start.elapsed().as_secs_f64() / repetitions as f64;

        println!(
            "{:<28} {:>12} {:>14} {:>10}",
            "checkpoint position", "recovery", "full rebuild", "speedup"
        );
        let mut recovery_rows: Vec<String> = Vec::new();
        for checkpoint_fraction in [1.0f64, 0.9, 0.75, 0.5] {
            let checkpoint_at = ((n as f64 * checkpoint_fraction) as usize).min(n);
            let dir = scratch(&format!("{name}-recover-{checkpoint_at}"));
            let mut durable = service(&dataset, threads).persist_to(&dir).unwrap();
            for chunk in dataset.profiles[..checkpoint_at].chunks(BATCH) {
                durable.ingest(chunk).unwrap();
            }
            durable.checkpoint().unwrap();
            for chunk in dataset.profiles[checkpoint_at..].chunks(BATCH) {
                durable.ingest(chunk).unwrap();
            }
            drop(durable); // crash: everything past the checkpoint is WAL tail

            let start = Instant::now();
            for _ in 0..repetitions {
                criterion::black_box(
                    DurableShardedService::recover_from(&dir, TokenKeys, threads).unwrap(),
                );
            }
            let recovery = start.elapsed().as_secs_f64() / repetitions as f64;
            println!(
                "{:<28} {:>10.2}ms {:>12.2}ms {:>9.1}x",
                format!(
                    "{:.0}% ({} batches replayed)",
                    checkpoint_fraction * 100.0,
                    (n - checkpoint_at).div_ceil(BATCH)
                ),
                recovery * 1e3,
                rebuild * 1e3,
                rebuild / recovery.max(1e-9),
            );
            recovery_rows.push(format!(
                "{{\"checkpoint_fraction\": {:.2}, \"batches_replayed\": {}, \"recovery_ms\": {:.3}, \"rebuild_ms\": {:.3}}}",
                checkpoint_fraction,
                (n - checkpoint_at).div_ceil(BATCH),
                recovery * 1e3,
                rebuild * 1e3,
            ));
        }

        json_entries.push(format!(
            concat!(
                "  {{\n",
                "    \"dataset\": \"{}\",\n",
                "    \"entities\": {},\n",
                "    \"batch_size\": {},\n",
                "    \"plain_ingest_ms\": {:.3},\n",
                "    \"durable_ingest_ms\": {:.3},\n",
                "    \"wal_overhead_us_per_batch\": {:.3},\n",
                "    \"checkpoint_ms\": {:.3},\n",
                "    \"snapshot_encode_p50_ms\": {:.3},\n",
                "    \"snapshot_write_p50_ms\": {:.3},\n",
                "    \"snapshot_bytes\": {},\n",
                "    \"recovery\": [{}]\n",
                "  }}"
            ),
            name,
            n,
            BATCH,
            plain * 1e3,
            durable_time * 1e3,
            (durable_time - plain) / batches as f64 * 1e6,
            snapshot_time * 1e3,
            encode_p50 as f64 / 1e6,
            write_p50 as f64 / 1e6,
            snapshot_bytes,
            recovery_rows.join(", "),
        ));
    }

    Report::new("micro_persist")
        .field("repetitions", repetitions)
        .field("threads", threads)
        .rows("datasets", json_entries)
        .write("BENCH_persist.json");
    // The same run rendered as a Prometheus snapshot: nonzero WAL append /
    // fsync-latency / snapshot-bytes / recovery series from the er-obs
    // registry.
    write_bench_prometheus("BENCH_persist.prom");
}
