//! On-disk format compatibility of the unsharded pipeline root.
//!
//! `fixtures/pipeline_root_v1/` was written by the code that still had a
//! second unsharded writer, the retired `DurableMetaBlocker`: a cleaned
//! bootstrap on the tiny DblpAcm catalog, three mutations, five drained
//! comparisons, a checkpoint, and a WAL tail of two more mutations.  This
//! code must recover it exactly and must still write the very same bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use er_core::{Dataset, EntityId};
use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use er_stream::dataset_prefix;
use meta_blocking::pipeline::MetaBlockingConfig;
use meta_blocking::{DurableStreamingPipeline, StreamingPipeline};

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pipeline_root_v1")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap()
}

/// The bootstrap seed: all of E1 and the first 20 entities of E2.
fn seed_count(ds: &Dataset) -> usize {
    ds.split + 20
}

fn bootstrap(ds: &Dataset) -> StreamingPipeline {
    let config = MetaBlockingConfig {
        per_class: 15,
        threads: Some(1),
        ..Default::default()
    };
    StreamingPipeline::bootstrap_cleaned(&config, &dataset_prefix(ds, seed_count(ds))).unwrap()
}

/// Persists the fixture's trace into `dir` the way the fixture was
/// produced, and returns the pipeline that ran it: the never-crashed state.
fn write_root(ds: &Dataset, dir: &Path) -> StreamingPipeline {
    let (n, p) = (seed_count(ds), &ds.profiles);
    let mut durable = bootstrap(ds).persist_to(dir).unwrap();
    durable.ingest(&p[n..n + 8]).unwrap();
    durable.remove(&[EntityId(n as u32 - 1)]).unwrap();
    durable
        .update(&[(EntityId(ds.split as u32), p[1].clone())])
        .unwrap();
    assert_eq!(durable.next_batch(5).len(), 5);
    durable.checkpoint().unwrap();
    durable.ingest(&p[n + 8..n + 12]).unwrap();
    durable.remove(&[EntityId(n as u32 + 9)]).unwrap();
    durable.into_inner()
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
fn the_parent_written_pipeline_root_recovers_and_a_fresh_root_has_the_same_bytes() {
    let ds = dataset();
    let fresh = scratch("pipeline_format_compat_fresh");
    let mut oracle = write_root(&ds, &fresh);

    // Recover a scratch copy of the fixture (recovery may reopen the WAL).
    let copy = scratch("pipeline_format_compat_copy");
    std::fs::create_dir_all(&copy).unwrap();
    for (name, bytes) in files(&fixture()) {
        std::fs::write(copy.join(name), bytes).unwrap();
    }
    let recovered = DurableStreamingPipeline::recover_from(&copy, 1).unwrap();
    assert_eq!(recovered.wal_sequence(), 5);
    assert_eq!(recovered.generation(), 1);
    let report = recovered.recovery_report().unwrap();
    assert!(report.is_clean(), "{report}");
    assert!(!report.repair_checkpoint, "{report}");
    assert_eq!(report.records_replayed, 2);

    let mut recovered = recovered.into_inner();
    assert_eq!(recovered.num_entities(), oracle.num_entities());
    assert_eq!(recovered.schedule().emitted(), 5);
    assert_eq!(recovered.schedule().emitted(), oracle.schedule().emitted());
    assert_eq!(recovered.schedule().pending(), oracle.schedule().pending());
    assert_eq!(
        recovered.live_view().unwrap().candidate_pairs(),
        oracle.live_view().unwrap().candidate_pairs()
    );
    assert_eq!(
        recovered.next_batch(usize::MAX),
        oracle.next_batch(usize::MAX)
    );

    // The same trace persisted by this code: same listing, same bytes.
    let (expected, actual) = (files(&fixture()), files(&fresh));
    assert_eq!(
        actual.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &expected {
        assert_eq!(&actual[name], bytes, "{name} differs from the fixture");
    }
}
