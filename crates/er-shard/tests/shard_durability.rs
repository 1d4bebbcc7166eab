//! Durable sharded service: recovery equivalence and group-commit
//! accounting (crash-free paths; the every-VFS-op crash matrix lives in
//! `crash_points.rs`).

use std::path::PathBuf;

use er_blocking::TokenKeys;
use er_core::{Dataset, EntityId};
use er_datasets::{dirty_catalog, generate_dirty, CatalogOptions};
use er_features::FeatureSet;
use er_persist::{FaultKind, FaultVfs, InjectedFault, OpKind, RetryPolicy};
use er_shard::{DurableShardedService, ShardedStreamingService};
use er_stream::{DeltaIndex, MutationRecord, StreamingConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

fn config(dataset: &Dataset, threads: usize) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// A deterministic mutation script over the dataset: ingests in uneven
/// batches with removals and updates mixed in.
fn script(dataset: &Dataset) -> Vec<MutationRecord> {
    let profiles = &dataset.profiles;
    let n = profiles.len();
    let mut ops = Vec::new();
    let mut next = 0usize;
    let sizes = [7usize, 3, 11, 1, 9, 5];
    let mut i = 0usize;
    while next < n {
        let take = sizes[i % sizes.len()].min(n - next);
        ops.push(MutationRecord::Ingest(profiles[next..next + take].to_vec()));
        next += take;
        match i % 3 {
            0 if next >= 5 => ops.push(MutationRecord::Remove(vec![EntityId((next - 2) as u32)])),
            1 if next >= 6 => ops.push(MutationRecord::Update(vec![(
                EntityId((next - 3) as u32),
                profiles[(next + 1) % n].clone(),
            )])),
            _ => {}
        }
        i += 1;
    }
    ops
}

/// Digest of the corpus-visible state: blocks plus liveness counters.
fn digest<G: er_blocking::KeyGenerator>(service: &ShardedStreamingService<G>) -> u64 {
    let view = service.view();
    let blocks: Vec<_> = (0..view.num_blocks())
        .map(|b| (view.key(b), view.entities(b)))
        .collect();
    er_core::crc64(
        format!(
            "{blocks:?}|{}|{}",
            service.num_entities(),
            service.num_alive()
        )
        .as_bytes(),
    )
}

/// The in-memory oracle the durable runs are compared against.
fn oracle(
    dataset: &Dataset,
    ops: &[MutationRecord],
    num_shards: usize,
) -> ShardedStreamingService<TokenKeys> {
    let mut service =
        ShardedStreamingService::new(config(dataset, 2), TokenKeys, num_shards).unwrap();
    for op in ops {
        service.apply(op, false);
    }
    service
}

#[test]
fn recovery_lands_on_the_acknowledged_state_with_and_without_checkpoints() {
    let ds = dataset();
    let ops = script(&ds);
    assert!(ops.len() > 10);
    let dir = scratch("recovery_acknowledged");

    // Apply the script with a checkpoint after every 5th op and a
    // compaction mid-way; everything after the last checkpoint lives only
    // in the WALs.
    let mut durable = ShardedStreamingService::new(config(&ds, 2), TokenKeys, 3)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    for (i, op) in ops.iter().enumerate() {
        match op {
            MutationRecord::Ingest(p) => durable.ingest(p).unwrap(),
            MutationRecord::Remove(ids) => durable.remove(ids).unwrap(),
            MutationRecord::Update(u) => durable.update(u).unwrap(),
        };
        if i == ops.len() / 2 {
            durable.compact().unwrap();
        } else if i % 5 == 4 {
            durable.checkpoint().unwrap();
        }
    }
    let expected_seq = durable.wal_sequence();
    let expected_digest = digest(durable.service());
    drop(durable);

    let recovered = DurableShardedService::recover_from(&dir, TokenKeys, 2).unwrap();
    assert_eq!(recovered.wal_sequence(), expected_seq);
    assert_eq!(digest(recovered.service()), expected_digest);
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.generations_tried, 1, "clean recovery expected");
    assert!(!report.repair_checkpoint);
    assert!(report.records_replayed > 0, "the WAL tail must replay");

    // The recovered service is the same logical stream as the oracle: the
    // blocks, counters and per-entity candidates all match.
    let reference = oracle(&ds, &ops, 3);
    assert_eq!(digest(recovered.service()), digest(&reference));
    for e in 0..reference.num_entities() {
        let entity = EntityId(e as u32);
        assert_eq!(
            recovered.index().candidates_of(entity),
            reference.index().candidates_of(entity),
            "candidates diverged for entity {e}"
        );
    }
}

#[test]
fn recovered_service_keeps_accepting_and_checkpointing() {
    let ds = dataset();
    let ops = script(&ds);
    let half = ops.len() / 2;
    let dir = scratch("recovery_continues");

    let mut durable = ShardedStreamingService::new(config(&ds, 1), TokenKeys, 2)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    for op in &ops[..half] {
        match op {
            MutationRecord::Ingest(p) => durable.ingest(p).unwrap(),
            MutationRecord::Remove(ids) => durable.remove(ids).unwrap(),
            MutationRecord::Update(u) => durable.update(u).unwrap(),
        };
    }
    drop(durable);

    // Recover, finish the script durably (checkpoint half-way), recover
    // again: the end state equals the oracle's.
    let mut recovered = DurableShardedService::recover_from(&dir, TokenKeys, 1).unwrap();
    assert_eq!(recovered.wal_sequence(), half as u64);
    for (i, op) in ops[half..].iter().enumerate() {
        match op {
            MutationRecord::Ingest(p) => recovered.ingest(p).unwrap(),
            MutationRecord::Remove(ids) => recovered.remove(ids).unwrap(),
            MutationRecord::Update(u) => recovered.update(u).unwrap(),
        };
        if i == 2 {
            recovered.checkpoint().unwrap();
        }
    }
    let generation = recovered.generation();
    drop(recovered);

    let twice = DurableShardedService::recover_from(&dir, TokenKeys, 2).unwrap();
    assert_eq!(twice.wal_sequence(), ops.len() as u64);
    assert_eq!(twice.generation(), generation);
    assert_eq!(digest(twice.service()), digest(&oracle(&ds, &ops, 2)));
}

#[test]
fn group_commit_coalesces_fsyncs_below_one_per_batch() {
    let ds = dataset();
    let num_shards = 4usize;
    let dir_grouped = scratch("group_commit_grouped");
    let dir_single = scratch("group_commit_single");

    // Eight single-profile ingest batches — a queue of mutations waiting
    // on durability.
    let ops: Vec<MutationRecord> = ds.profiles[..8]
        .iter()
        .map(|p| MutationRecord::Ingest(vec![p.clone()]))
        .collect();

    let mut grouped = ShardedStreamingService::new(config(&ds, 1), TokenKeys, num_shards)
        .unwrap()
        .persist_to(&dir_grouped)
        .unwrap();
    let syncs_before = grouped.wal_syncs();
    let deltas = grouped.apply_group(&ops).unwrap();
    assert_eq!(deltas.len(), ops.len());
    let group_syncs = grouped.wal_syncs() - syncs_before;

    let mut single = ShardedStreamingService::new(config(&ds, 1), TokenKeys, num_shards)
        .unwrap()
        .persist_to(&dir_single)
        .unwrap();
    let syncs_before = single.wal_syncs();
    let mut single_deltas = Vec::new();
    for op in &ops {
        match op {
            MutationRecord::Ingest(p) => single_deltas.push(single.ingest(p).unwrap()),
            _ => unreachable!(),
        }
    }
    let single_syncs = single.wal_syncs() - syncs_before;

    // One fsync per touched WAL for the whole group vs one per batch.
    assert_eq!(group_syncs, num_shards as u64);
    assert_eq!(single_syncs, ops.len() as u64);
    assert!(
        (group_syncs as f64) / (ops.len() as f64) < 1.0,
        "group commit must cost less than one fsync per batch"
    );

    // Group application is just an acknowledgement optimisation: deltas
    // and end state are identical to individual applies.
    for (a, b) in deltas.iter().zip(&single_deltas) {
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.retracted, b.retracted);
        assert_eq!(a.touched_keys, b.touched_keys);
    }
    assert_eq!(digest(grouped.service()), digest(single.service()));
    assert_eq!(grouped.wal_sequence(), single.wal_sequence());

    // Both recover to the same state.
    drop(grouped);
    let recovered = DurableShardedService::recover_from(&dir_grouped, TokenKeys, 1).unwrap();
    assert_eq!(recovered.wal_sequence(), ops.len() as u64);
    assert_eq!(digest(recovered.service()), digest(single.service()));
}

#[test]
fn group_validation_rejects_cross_batch_conflicts() {
    let ds = dataset();
    let dir = scratch("group_validation");
    let mut durable = ShardedStreamingService::new(config(&ds, 1), TokenKeys, 2)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    durable.ingest(&ds.profiles[..4]).unwrap();

    // Removing an entity twice across two batches of one group must panic
    // before anything reaches a WAL.
    let seq_before = durable.wal_sequence();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = durable.apply_group(&[
            MutationRecord::Remove(vec![EntityId(1)]),
            MutationRecord::Remove(vec![EntityId(1)]),
        ]);
    }));
    assert!(result.is_err(), "conflicting group must be rejected");
    assert_eq!(durable.wal_sequence(), seq_before, "nothing may be logged");

    // A group whose later batch depends on an earlier one is legal:
    // ingest then remove the just-ingested entity.
    let deltas = durable
        .apply_group(&[
            MutationRecord::Ingest(vec![ds.profiles[4].clone()]),
            MutationRecord::Remove(vec![EntityId(4)]),
        ])
        .unwrap();
    assert_eq!(deltas.len(), 2);
    assert_eq!(durable.num_alive(), 4);
}

#[test]
fn epoch_readers_track_durable_mutations() {
    let ds = dataset();
    let dir = scratch("durable_epoch_readers");
    let mut durable = ShardedStreamingService::new(config(&ds, 1), TokenKeys, 2)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    let reader = durable.reader();
    let before = reader.load();
    durable.ingest(&ds.profiles[..6]).unwrap();
    let after = reader.load();
    assert_eq!(before.num_entities, 0);
    assert_eq!(after.num_entities, 6);
    assert!(after.last_delta.is_some());
    durable.compact().unwrap();
    assert!(reader.load().last_delta.is_none());
}

#[test]
fn a_failed_checkpoint_leaves_the_wal_counters_where_they_were() {
    let ds = dataset();
    let run = |vfs: std::sync::Arc<FaultVfs>, name: &str| {
        let mut durable = ShardedStreamingService::new(config(&ds, 1), TokenKeys, 2)
            .unwrap()
            .persist_to_with(scratch(name), vfs, RetryPolicy::none())
            .unwrap();
        durable.ingest(&ds.profiles[..4]).unwrap();
        durable.ingest(&ds.profiles[4..7]).unwrap();
        durable
    };

    // The first fsync of the checkpoint (a shard snapshot) fails: the
    // commit is refused, the service stays usable on its old WALs.
    let counting = FaultVfs::counting(53);
    let mut clean = run(counting.clone(), "counter_drift_count");
    let ops_before = counting.op_count() as usize;
    clean.checkpoint().unwrap();
    let failing_sync = counting.op_log()[ops_before..]
        .iter()
        .position(|(kind, _)| *kind == OpKind::SyncFile)
        .unwrap();
    let vfs = FaultVfs::with_faults(
        53,
        vec![InjectedFault {
            at_op: (ops_before + failing_sync) as u64,
            kind: FaultKind::SyncFailure,
        }],
    );
    let mut durable = run(vfs, "counter_drift");
    let counters = (durable.wal_appends(), durable.wal_syncs());
    assert_eq!(counters, (2, 2));
    durable
        .checkpoint()
        .expect_err("the injected fsync failure");
    assert_eq!((durable.wal_appends(), durable.wal_syncs()), counters);
    assert_eq!(durable.generation(), 0);

    // The next checkpoint succeeds and retires the old WALs exactly once.
    durable.checkpoint().unwrap();
    assert_eq!((durable.wal_appends(), durable.wal_syncs()), counters);
    durable.ingest(&ds.profiles[7..9]).unwrap();
    assert_eq!((durable.wal_appends(), durable.wal_syncs()), (3, 3));
    assert_eq!(durable.generation(), 1);
}

#[test]
fn a_root_whose_files_carry_another_fingerprint_is_refused_expected_first() {
    // A filesystem restore mixes two streams: every file of root B is
    // consistent with itself and its manifest, but the state inside is
    // stream A's (same shard count, another dataset name).
    let ds = dataset();
    let (a, b) = (scratch("fingerprint_a"), scratch("fingerprint_b"));
    let persist = |name: &str, dir: &std::path::Path| {
        let config = StreamingConfig {
            dataset_name: name.into(),
            ..config(&ds, 1)
        };
        ShardedStreamingService::new(config, TokenKeys, 2)
            .unwrap()
            .persist_to(dir)
            .unwrap()
            .fingerprint()
    };
    let (of_a, of_b) = (persist("stream-a", &a), persist("stream-b", &b));
    assert_ne!(of_a, of_b);

    // Graft A's snapshot *bodies* under B's headers: the fingerprint field
    // (bytes 16..24 of a snapshot header) is outside the payload checksum.
    for file in [
        "router.000000.gsmb",
        "shard.000.000000.gsmb",
        "shard.001.000000.gsmb",
    ] {
        let mut bytes = std::fs::read(a.join(file)).unwrap();
        bytes[16..24].copy_from_slice(&of_b.to_le_bytes());
        std::fs::write(b.join(file), bytes).unwrap();
    }
    match DurableShardedService::recover_from(&b, TokenKeys, 1) {
        Err(er_core::PersistError::FingerprintMismatch { expected, found }) => {
            // `expected` is what the recovered state implies, `found` what
            // the root's files carry — as in the other wrappers.
            assert_eq!((expected, found), (of_a, of_b));
        }
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
}
