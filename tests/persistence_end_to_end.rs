//! Facade-level persistence flow: prepared datasets, trained models and
//! streaming state all survive a save → load (or crash → recover) cycle
//! through the `gsmb::persist` layer.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use gsmb::blocking::TokenKeys;
use gsmb::core::EntityId;
use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::PreparedDataset;
use gsmb::learn::{load_model, save_model, ProbabilisticClassifier};
use gsmb::meta::pipeline::MetaBlockingConfig;
use gsmb::meta::{DurableStreamingPipeline, StreamingPipeline};
use gsmb::persist::PersistError;
use gsmb::shard::{DurableShardedService, ShardedStreamingService};
use gsmb::stream::{dataset_prefix, StreamingConfig};

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn prepared_dataset_and_model_survive_disk() {
    let dir = scratch("prepared-and-model");
    let dataset = generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let path = dir.join("prepared.gsmb");
    prepared.save(&path).unwrap();
    let loaded = PreparedDataset::load(&path).unwrap();
    assert_eq!(loaded.candidates.pairs(), prepared.candidates.pairs());

    // Train through the pipeline's classifier config, save, load, and
    // require bit-identical probabilities.
    let config = MetaBlockingConfig::default();
    let (matrix, _) = prepared.build_features(config.feature_set);
    let mut training = gsmb::learn::TrainingSet::new();
    for (i, &(a, b)) in prepared.candidates.pairs().iter().enumerate().take(40) {
        training.push(
            matrix.row(gsmb::core::PairId::from(i)).to_vec(),
            prepared.dataset.ground_truth.is_match(a, b),
        );
    }
    let model = config.classifier.fit_saved(&training).unwrap();
    let model_path = dir.join("model.gsmb");
    save_model(&model_path, &model).unwrap();
    let loaded_model = load_model(&model_path, Some(config.feature_set.vector_len())).unwrap();
    for i in 0..20usize {
        let row = matrix.row(gsmb::core::PairId::from(i));
        assert_eq!(
            model.probability(row).to_bits(),
            loaded_model.probability(row).to_bits()
        );
    }
    // Loading with the wrong width fails cleanly.
    assert!(load_model(&model_path, Some(99)).is_err());
}

#[test]
fn streaming_state_survives_a_crash_through_the_facade() {
    let dir = scratch("stream-crash");
    let dataset = generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
    let half = dataset.split + (dataset.num_entities() - dataset.split) / 2;

    let config = StreamingConfig {
        threads: 2,
        ..StreamingConfig::for_dataset(&dataset)
    };
    let mut durable = ShardedStreamingService::new(config, TokenKeys, 1)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    durable.ingest(&dataset.profiles[..half]).unwrap();
    durable.compact().unwrap(); // snapshot + WAL truncation
    durable.ingest(&dataset.profiles[half..]).unwrap(); // WAL tail
    drop(durable); // crash

    let mut recovered = DurableShardedService::recover_from(&dir, TokenKeys, 2).unwrap();
    assert_eq!(recovered.num_entities(), dataset.num_entities());
    let streamed = recovered.compact().unwrap();
    let batch = gsmb::blocking::build_blocks(&dataset, &TokenKeys, 2);
    assert!(streamed.same_blocks(&batch));
}

#[test]
fn pipeline_state_survives_a_crash_through_the_facade() {
    let dir = scratch("pipeline-crash");
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    let seed_count = dataset.split + (dataset.num_entities() - dataset.split) / 2;
    let seed = dataset_prefix(&dataset, seed_count);
    let config = pipeline_config();

    let mut durable = StreamingPipeline::bootstrap(&config, &seed)
        .unwrap()
        .persist_to(&dir)
        .unwrap();
    durable.ingest(&dataset.profiles[seed_count..]).unwrap();
    durable
        .remove(&[EntityId((dataset.num_entities() - 1) as u32)])
        .unwrap();
    drop(durable); // crash

    let mut recovered = DurableStreamingPipeline::recover_from(&dir, 2).unwrap();
    assert!(recovered.pipeline().schedule().pending() > 0);
    let drained = recovered.next_batch(50);
    assert!(!drained.is_empty());
    // Everything drained is a live candidate pair of the surviving corpus.
    for ((a, b), probability) in &drained {
        assert!(a < b);
        assert!((0.0..=1.0).contains(probability));
    }
}

#[test]
fn a_root_in_the_retired_single_file_layout_is_a_typed_error() {
    // What a pre-unification unsharded root holds: a 36-byte `GSMBMAN1`
    // manifest and `snapshot.000000.gsmb`.  Every wrapper must stop at the
    // manifest — typed, never a panic, never a silently empty store.
    let dir = scratch("retired-layout");
    let mut manifest = b"GSMBMAN1".to_vec();
    manifest.extend_from_slice(&[0u8; 28]);
    fs::write(dir.join("MANIFEST"), manifest).unwrap();
    fs::write(dir.join("snapshot.000000.gsmb"), b"GSMBSNP1 retired").unwrap();

    for err in [
        DurableStreamingPipeline::recover_from(&dir, 1).unwrap_err(),
        DurableShardedService::recover_from(&dir, TokenKeys, 1).unwrap_err(),
    ] {
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err:?}");
    }
}

fn pipeline_config() -> MetaBlockingConfig {
    MetaBlockingConfig {
        per_class: 15,
        threads: Some(2),
        ..Default::default()
    }
}

/// Every entry of a root — subdirectories as `None` — with its bytes.
fn listing(dir: &Path) -> BTreeMap<String, Option<Vec<u8>>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = entry.file_type().unwrap().is_file();
            let bytes = bytes.then(|| fs::read(entry.path()).unwrap());
            (entry.file_name().into_string().unwrap(), bytes)
        })
        .collect()
}

/// A root written by one wrapper is a typed `BadMagic` naming both payload
/// tags to every other wrapper — never a corrupt root to quarantine — and
/// the refusal leaves it byte for byte as it was, so its own wrapper still
/// recovers it.  `blocker_root_v1` was written by the retired unsharded
/// `DurableMetaBlocker` face (payload tag `SIDX`), which no wrapper reads
/// any more.
#[test]
fn a_root_opened_by_the_wrong_wrapper_is_refused_untouched() {
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    let seed_count = dataset.split + 20;
    let tail = &dataset.profiles[seed_count..seed_count + 12];

    // A 2-shard service root and a pipeline root, each with two
    // checkpoints, so a wrongful fallback would have a generation to
    // quarantine and one to fall back to.
    let sharded = scratch("wrong-wrapper-sharded");
    let config = StreamingConfig {
        threads: 1,
        ..StreamingConfig::for_dataset(&dataset)
    };
    let mut durable = ShardedStreamingService::new(config, TokenKeys, 2)
        .unwrap()
        .persist_to(&sharded)
        .unwrap();
    let pipeline = scratch("wrong-wrapper-pipeline");
    let mut durable_pipeline =
        StreamingPipeline::bootstrap(&pipeline_config(), &dataset_prefix(&dataset, seed_count))
            .unwrap()
            .persist_to(&pipeline)
            .unwrap();
    durable.ingest(&dataset.profiles[..seed_count]).unwrap();
    for chunk in tail.chunks(4) {
        durable.checkpoint().unwrap();
        durable_pipeline.checkpoint().unwrap();
        durable.ingest(chunk).unwrap();
        durable_pipeline.ingest(chunk).unwrap();
    }
    drop((durable, durable_pipeline));

    let blocker = scratch("wrong-wrapper-blocker");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/blocker_root_v1");
    for (name, bytes) in listing(&fixture) {
        fs::write(blocker.join(name), bytes.unwrap()).unwrap();
    }
    assert_eq!(listing(&blocker), listing(&fixture));

    type Open = fn(&Path) -> Option<PersistError>;
    let open_sharded: Open = |dir| DurableShardedService::recover_from(dir, TokenKeys, 1).err();
    let open_pipeline: Open = |dir| DurableStreamingPipeline::recover_from(dir, 1).err();
    for (dir, open, tags) in [
        (&pipeline, open_sharded, ["PPL1", "SHRD"]),
        (&sharded, open_pipeline, ["SHRD", "PPL1"]),
        (&blocker, open_sharded, ["SIDX", "SHRD"]),
        (&blocker, open_pipeline, ["SIDX", "PPL1"]),
    ] {
        let before = listing(dir);
        let err = open(dir).unwrap_or_else(|| panic!("{dir:?} opened with {tags:?}"));
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err:?}");
        let message = err.to_string();
        assert!(tags.iter().all(|tag| message.contains(tag)), "{message}");
        assert!(
            listing(dir) == before,
            "{dir:?} changed when opened with {tags:?}"
        );
    }

    // Untouched, so the rightful wrappers recover cleanly.
    let service = DurableShardedService::recover_from(&sharded, TokenKeys, 1).unwrap();
    assert!(service.recovery_report().unwrap().is_clean());
    assert_eq!(service.num_entities(), seed_count + tail.len());
    let recovered = DurableStreamingPipeline::recover_from(&pipeline, 1).unwrap();
    assert!(recovered.recovery_report().unwrap().is_clean());
    assert_eq!(recovered.pipeline().num_entities(), seed_count + tail.len());
}
