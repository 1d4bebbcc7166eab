//! On-disk format compatibility of the sharded root.
//!
//! `fixtures/sharded_root_v1/` was written by the code *before* the store
//! and WAL protocol were unified (2 shards: two ingests, one group commit,
//! a checkpoint, two post-checkpoint records).  The unified code must
//! recover it bit-identically and must still write the very same bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use er_blocking::TokenKeys;
use er_core::{Dataset, EntityId};
use er_datasets::{dirty_catalog, generate_dirty, CatalogOptions};
use er_features::FeatureSet;
use er_shard::{DurableShardedService, ShardedStreamingService};
use er_stream::{MutationRecord, StreamingConfig};

const NUM_SHARDS: usize = 2;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sharded_root_v1")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

fn service(ds: &Dataset) -> ShardedStreamingService<TokenKeys> {
    let config = StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads: 1,
        ..StreamingConfig::for_dataset(ds)
    };
    ShardedStreamingService::new(config, TokenKeys, NUM_SHARDS).unwrap()
}

/// The fixture's trace; `None` marks the checkpoint.
fn trace(ds: &Dataset) -> Vec<Option<Vec<MutationRecord>>> {
    let p = &ds.profiles;
    vec![
        Some(vec![MutationRecord::Ingest(p[0..3].to_vec())]),
        Some(vec![MutationRecord::Ingest(p[3..5].to_vec())]),
        Some(vec![
            MutationRecord::Remove(vec![EntityId(1)]),
            MutationRecord::Update(vec![(EntityId(2), p[7].clone())]),
            MutationRecord::Ingest(p[5..6].to_vec()),
        ]),
        None,
        Some(vec![MutationRecord::Ingest(p[6..8].to_vec())]),
        Some(vec![MutationRecord::Remove(vec![EntityId(4)])]),
    ]
}

/// Persists the trace into `dir` the way the fixture was produced.
fn write_root(ds: &Dataset, dir: &Path) {
    let mut durable = service(ds).persist_to(dir).unwrap();
    for step in trace(ds) {
        match step.as_deref() {
            None => durable.checkpoint().unwrap(),
            Some([MutationRecord::Ingest(p)]) => drop(durable.ingest(p).unwrap()),
            Some([MutationRecord::Remove(ids)]) => drop(durable.remove(ids).unwrap()),
            Some(group) => drop(durable.apply_group(group).unwrap()),
        }
    }
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_type().unwrap().is_file())
        .map(|entry| {
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

#[test]
fn the_parent_written_root_recovers_and_a_fresh_root_has_the_same_bytes() {
    let ds = dataset();
    let mut oracle = service(&ds);
    let mut records = 0u64;
    for op in trace(&ds).into_iter().flatten().flatten() {
        oracle.apply(&op, false);
        records += 1;
    }

    // Recover a scratch copy of the fixture (recovery may reopen WALs).
    let copy = scratch("format_compat_copy");
    std::fs::create_dir_all(&copy).unwrap();
    for (name, bytes) in files(&fixture()) {
        std::fs::write(copy.join(name), bytes).unwrap();
    }
    let recovered = DurableShardedService::recover_from(&copy, TokenKeys, 1).unwrap();
    assert_eq!(recovered.num_entities(), oracle.num_entities());
    assert_eq!(recovered.num_alive(), oracle.num_alive());
    assert_eq!(recovered.wal_sequence(), records);
    assert_eq!(recovered.generation(), 1);
    assert!(recovered.view().same_blocks(&oracle.view()));
    let report = recovered.recovery_report().unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(!report.repair_checkpoint, "{report}");
    assert_eq!(report.records_replayed, 2);

    // The same trace persisted by this code: same listing, same bytes —
    // manifest, WALs and snapshot bodies alike.
    let fresh = scratch("format_compat_fresh");
    write_root(&ds, &fresh);
    let (expected, actual) = (files(&fixture()), files(&fresh));
    assert_eq!(
        actual.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &expected {
        assert_eq!(&actual[name], bytes, "{name} differs from the fixture");
    }
}
