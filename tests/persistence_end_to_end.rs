//! Facade-level persistence flow: prepared datasets, trained models and
//! streaming state all survive a save → load (or crash → recover) cycle
//! through the `gsmb::persist` layer.

use std::fs;
use std::path::PathBuf;

use gsmb::core::EntityId;
use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use gsmb::eval::experiment::PreparedDataset;
use gsmb::learn::{load_model, save_model, ProbabilisticClassifier};
use gsmb::meta::pipeline::MetaBlockingConfig;
use gsmb::meta::{DurableStreamingPipeline, StreamingPipeline};
use gsmb::stream::{dataset_prefix, DurableMetaBlocker, StreamingConfig, StreamingMetaBlocker};

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
    let mut durable = StreamingMetaBlocker::new(config, gsmb::blocking::TokenKeys)
        .persist_to(&dir)
        .unwrap();
    durable.ingest(&dataset.profiles[..half]).unwrap();
    durable.compact().unwrap(); // snapshot + WAL truncation
    durable.ingest(&dataset.profiles[half..]).unwrap(); // WAL tail
    drop(durable); // crash

    let mut recovered =
        DurableMetaBlocker::recover_from(&dir, gsmb::blocking::TokenKeys, 2).unwrap();
    assert_eq!(recovered.num_entities(), dataset.num_entities());
    let streamed = recovered.compact().unwrap();
    let batch = gsmb::blocking::build_blocks(&dataset, &gsmb::blocking::TokenKeys, 2);
    assert_eq!(
        streamed.to_block_collection().blocks,
        batch.to_block_collection().blocks
    );
}

#[test]
fn pipeline_state_survives_a_crash_through_the_facade() {
    let dir = scratch("pipeline-crash");
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    let seed_count = dataset.split + (dataset.num_entities() - dataset.split) / 2;
    let seed = dataset_prefix(&dataset, seed_count);
    let config = MetaBlockingConfig {
        per_class: 15,
        threads: Some(2),
        ..Default::default()
    };

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

    let keys = gsmb::blocking::TokenKeys;
    for err in [
        DurableMetaBlocker::recover_from(&dir, keys, 1).unwrap_err(),
        DurableStreamingPipeline::recover_from(&dir, 1).unwrap_err(),
        gsmb::shard::DurableShardedService::recover_from(&dir, keys, 1).unwrap_err(),
    ] {
        assert!(
            matches!(err, gsmb::persist::PersistError::BadMagic { .. }),
            "{err:?}"
        );
    }
}
