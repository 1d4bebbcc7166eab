//! End-to-end observability: a durable sharded run must leave a registry
//! snapshot with nonzero durability and shard metrics, emit the structured
//! recovery event, and render both exporter formats.
//!
//! This is the acceptance gate of the er-obs layer: every subsystem the
//! pipeline touches (streaming deltas, per-shard WAL group commit, fsync
//! latency, checkpoints, epoch publication, recovery, the cleaned live
//! view, compaction's key order, the key dictionary, the streaming
//! blocker's parallel phases) shows up in one `render_prometheus` pass
//! with no bespoke side channels.
//!
//! The tests of this binary run on parallel threads against one registry.
//! None of them switches the layer off, and only the first installs an
//! event sink, so none can race another's readings; metrics that two tests
//! both move are asserted with `>=`.

use std::path::PathBuf;

use gsmb::blocking::TokenKeys;
use gsmb::core::{Dataset, EntityId, EntityProfile};
use gsmb::datasets::{
    dirty_catalog, generate_dirty, generate_scalability, CatalogOptions, ScalabilityConfig,
};
use gsmb::features::FeatureSet;
use gsmb::obs::event::CapturingSink;
use gsmb::shard::{DurableShardedService, ShardedStreamingService};
use gsmb::stream::{DeltaIndex, MutationRecord, MutationRef, StreamingConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

fn config(dataset: &Dataset) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::blast_optimal(),
        threads: 2,
        ..StreamingConfig::for_dataset(dataset)
    }
}

#[test]
fn durable_sharded_run_populates_the_registry_and_emits_recovery_events() {
    let sink = CapturingSink::shared();
    gsmb::obs::event::set_sink(sink.clone());

    let ds = dataset();
    let n = ds.profiles.len();
    let dir = scratch("obs-durable-sharded");

    // A durable sharded run: grouped mutations (one fsync per touched
    // shard WAL), a checkpoint, more WAL tail, reader loads, then a crash.
    let mut durable = ShardedStreamingService::new(config(&ds), TokenKeys, 3)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    let mid = n / 2;
    durable
        .apply_group(&[
            MutationRecord::Ingest(ds.profiles[..mid].to_vec()),
            MutationRecord::Remove(vec![EntityId(1)]),
        ])
        .unwrap();
    durable.checkpoint().unwrap();
    durable.ingest(&ds.profiles[mid..]).unwrap();
    let reader = durable.reader();
    assert!(reader.load().num_entities > 0);
    drop(durable); // crash: the second ingest lives only in the WALs

    let recovered = DurableShardedService::recover_from(&dir, TokenKeys, 2).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert!(report.records_replayed > 0, "the WAL tail must replay");

    // The report's one-line logfmt rendering names its key fields.
    let line = report.to_string();
    assert!(line.starts_with("recovery "), "unexpected Display: {line}");
    assert!(line.contains("clean="), "unexpected Display: {line}");
    assert!(
        line.contains("records_replayed="),
        "unexpected Display: {line}"
    );

    // The recovery was emitted as a structured event with the same fields.
    gsmb::obs::event::clear_sink();
    let recovery_events: Vec<_> = sink
        .take()
        .into_iter()
        .filter(|e| e.name == "persist_recovery")
        .collect();
    assert!(!recovery_events.is_empty(), "no persist_recovery event");
    let event = recovery_events.last().unwrap();
    assert_eq!(
        event.get("records_replayed"),
        Some(report.records_replayed.to_string().as_str())
    );
    assert_eq!(event.get("clean"), Some("true"));

    // Every subsystem the run touched shows up nonzero in one snapshot.
    let snapshot = gsmb::obs::snapshot();
    let nonzero = |name: &str| {
        let value = snapshot
            .value(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert!(value > 0, "{name} stayed zero");
    };
    nonzero("persist_wal_appends_total");
    nonzero("persist_wal_fsyncs_total");
    nonzero("persist_snapshot_writes_total");
    nonzero("persist_snapshot_bytes_total");
    nonzero("persist_recoveries_total");
    nonzero("persist_wal_records_replayed_total");
    nonzero("shard_groups_applied_total");
    nonzero("shard_epochs_published_total");
    nonzero("streaming_keys_interned_total");
    nonzero("streaming_key_table_bytes");

    let nonzero_histogram = |name: &str| {
        let h = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert!(h.count > 0, "{name} recorded nothing");
    };
    nonzero_histogram("persist_fsync_ns");
    nonzero_histogram("persist_recovery_ns");
    nonzero_histogram("persist_snapshot_encode_ns");
    nonzero_histogram("persist_snapshot_write_ns");
    nonzero_histogram("shard_group_fsyncs");
    nonzero_histogram("shard_group_batches");
    nonzero_histogram("shard_epoch_publish_ns");
    nonzero_histogram("shard_reader_view_age_batches");
    nonzero_histogram("streaming_delta_pairs");

    // Both exporters render the same registry: the Prometheus text carries
    // type headers and bucketed fsync latency, the JSON the scalar series.
    let prometheus = snapshot.render_prometheus();
    assert!(prometheus.contains("# TYPE persist_fsync_ns histogram"));
    assert!(prometheus.contains("persist_fsync_ns_bucket"));
    assert!(prometheus.contains("# TYPE shard_groups_applied_total counter"));
    assert!(prometheus.contains("streaming_ingest_batches_total"));
    let json = snapshot.render_json();
    assert!(json.contains("\"persist_wal_appends_total\""));
    assert!(json.contains("\"shard_epochs_published_total\""));
}

/// One batch build leaves one sample in each of the four builder-phase
/// histograms (which replaced the single `blocking_scatter_ns`) and moves the
/// build counters by what the returned collection shows.
#[test]
fn block_build_records_its_counts_and_one_sample_per_phase() {
    const PHASES: [&str; 4] = [
        "blocking_emit_ns",
        "blocking_group_ns",
        "blocking_order_ns",
        "blocking_assemble_ns",
    ];
    let ds = dataset();
    // Resolve the handles with a first build, then measure a second one;
    // the other test in this binary may build concurrently, hence `>=`.
    let _ = gsmb::blocking::build_blocks(&ds, &TokenKeys, 2);
    let before = gsmb::obs::snapshot();
    let blocks = gsmb::blocking::build_blocks(&ds, &TokenKeys, 2);
    let after = gsmb::obs::snapshot();

    let grew = |name: &str| {
        let read = |s: &gsmb::obs::MetricsSnapshot| {
            s.value(name)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        read(&after) - read(&before)
    };
    assert!(grew("blocking_builds_total") >= 1);
    assert!(grew("blocking_blocks_emitted_total") >= blocks.num_blocks() as u64);
    assert!(grew("blocking_postings_scattered_total") >= blocks.sum_block_sizes());
    assert!(grew("blocking_keys_interned_total") >= blocks.num_blocks() as u64);
    for phase in PHASES {
        let count = |s: &gsmb::obs::MetricsSnapshot| {
            s.histogram(phase)
                .unwrap_or_else(|| panic!("{phase} not registered"))
                .count
        };
        assert!(count(&after) > count(&before), "{phase} recorded nothing");
    }
    assert!(after.histogram("blocking_scatter_ns").is_none());
}

/// A cleaned live view records one refresh-duration sample and its dirty
/// and re-derived entity counts per refresh; a compaction counts the keys
/// it sorts into the cached key order — every live key the first time,
/// then only the keys that came alive since.
#[test]
fn live_view_refreshes_and_compactions_record_their_counts() {
    use gsmb::meta::LiveView;
    use gsmb::stream::StreamingMetaBlocker;

    let ds = dataset();
    let n = ds.profiles.len();
    let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
    blocker.apply(MutationRef::Ingest(&ds.profiles[..n / 2]), false);
    let mut view = LiveView::with_default_ratio(blocker.index());

    let read = |name: &str| {
        gsmb::obs::snapshot()
            .value(name)
            .unwrap_or_else(|| panic!("{name} not registered"))
    };
    let samples = || {
        gsmb::obs::snapshot()
            .histogram("live_view_refresh_ns")
            .expect("live_view_refresh_ns not registered")
            .count
    };
    let (refreshes, dirty, rederived) = (
        samples(),
        read("live_view_dirty_entities_total"),
        read("live_view_rederived_entities_total"),
    );
    let batch = blocker.apply(MutationRef::Ingest(&ds.profiles[n / 2..]), false);
    view.refresh(blocker.index(), &batch.touched_keys, batch.batch_entities());
    let dirty = read("live_view_dirty_entities_total") - dirty;
    let rederived = read("live_view_rederived_entities_total") - rederived;
    assert_eq!(samples() - refreshes, 1, "one sample per refresh");
    // Every ingested entity is dirty, and one with a kept block moved.
    assert!(dirty >= (n - n / 2) as u64, "dirty {dirty}");
    assert!(
        rederived > 0 && rederived <= dirty,
        "re-derived {rederived} of {dirty}"
    );

    // This binary's only compactions: exact counts.
    let sorted = read("stream_compaction_keys_sorted_total");
    let first = blocker.compact();
    assert_eq!(
        read("stream_compaction_keys_sorted_total") - sorted,
        first.num_blocks() as u64,
        "the first compaction sorts every live key"
    );
    let sorted = read("stream_compaction_keys_sorted_total");
    // Two entities take a token nobody had: its block comes alive.
    let fresh = |id: &str| EntityProfile::new(id).with_attribute("title", "zzfreshtoken");
    blocker.apply(
        MutationRef::Update(&[(EntityId(0), fresh("a")), (EntityId(3), fresh("b"))]),
        false,
    );
    let second = blocker.compact();
    let known: Vec<&str> = (0..first.num_blocks()).map(|b| first.key(b)).collect();
    let came_alive = (0..second.num_blocks())
        .filter(|&b| known.binary_search(&second.key(b)).is_err())
        .count();
    assert!(came_alive > 0);
    assert_eq!(
        read("stream_compaction_keys_sorted_total") - sorted,
        came_alive as u64,
        "a later compaction sorts only keys that came alive since"
    );
}

/// Every finished batch records the key dictionary once: the interned-keys
/// counter moves by the keys the batch added (at least — the other tests of
/// this binary intern concurrently) and the size gauge holds a table size.
#[test]
fn streaming_batches_record_the_key_dictionary() {
    use gsmb::stream::StreamingMetaBlocker;

    let ds = dataset();
    let read = |name: &str| {
        gsmb::obs::snapshot()
            .value(name)
            .unwrap_or_else(|| panic!("{name} not registered"))
    };
    let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
    blocker.apply(MutationRef::Ingest(&ds.profiles[..1]), false);
    let interned = read("streaming_keys_interned_total");
    let first_keys = blocker.index().num_keys();
    blocker.apply(MutationRef::Ingest(&ds.profiles[1..]), false);
    let added = blocker.index().num_keys() - first_keys;
    assert!(added > 0);
    assert!(
        read("streaming_keys_interned_total") - interned >= added as u64,
        "the counter missed keys a batch interned"
    );
    assert!(read("streaming_key_table_bytes") > 0);
    assert!(blocker.index().key_table_bytes() > 0);
}

/// The streaming blocker splits a batch phase across workers only from two
/// grains on, and counts it once per phase, never per entity.  Only this
/// test moves the counter: the others' corpora are far below the grain.
#[test]
fn streaming_phases_split_across_workers_only_from_two_grains_on() {
    use gsmb::stream::{StreamingMetaBlocker, MIN_ENTITIES_PER_WORKER};

    let grain = MIN_ENTITIES_PER_WORKER;
    let ds = generate_scalability(&ScalabilityConfig::at_scale(4 * grain, 5)).unwrap();
    let read = || {
        gsmb::obs::snapshot()
            .value("streaming_parallel_phases_total")
            .unwrap_or(0)
    };
    let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
    let before = read();
    blocker.apply(MutationRef::Ingest(&ds.profiles[..2 * grain - 1]), false);
    assert_eq!(read(), before, "a batch below two grains ran on the caller");
    blocker.apply(MutationRef::Ingest(&ds.profiles[2 * grain - 1..]), false);
    assert_eq!(
        read() - before,
        1,
        "a two-grain ingest at 2 threads splits its one partner-gathering phase"
    );
    let rendered = gsmb::obs::snapshot().render_prometheus();
    assert!(rendered.contains("# TYPE streaming_parallel_phases_total counter"));
}
