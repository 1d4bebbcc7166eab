//! Crash-recovery property tests: snapshot + WAL-tail replay must be
//! invisible.
//!
//! The contract of `er_stream::persist`: for **any** mutation trace
//! (insert/remove/update batches, compactions interleaved), a restart
//! injected at **any** batch boundary — and at the kill point *between the
//! WAL append and the in-memory apply* — leaves a recovered
//! [`DurableMetaBlocker`] whose blocks, candidates, feature rows and
//! classifier probabilities are **bit-identical** to a never-restarted run
//! of the same trace, for all three blocking schemes, both ER kinds and
//! any thread count (including recovering under a *different* thread count
//! than the original run).  Torn WAL tails roll back to the previous batch
//! boundary; corrupted files surface as typed errors, never as state.

use std::fs;
use std::path::PathBuf;

use er_blocking::{
    build_blocks, BlockStats, CandidatePairs, KeyGenerator, QGramKeys, SuffixKeys, TokenKeys,
};
use er_core::{Dataset, EntityId, EntityProfile, GroundTruth, PersistError};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::{FeatureContext, FeatureMatrix, FeatureSet};
use er_learn::ProbabilisticClassifier;
use er_stream::{DurableMetaBlocker, MutationRecord, StreamingConfig, StreamingMetaBlocker};
use rand::Rng;

/// A fixed linear model: deterministic probabilities without training.
struct FixedModel;

impl ProbabilisticClassifier for FixedModel {
    fn probability(&self, features: &[f64]) -> f64 {
        let z: f64 = features
            .iter()
            .enumerate()
            .map(|(i, &x)| (0.35 + 0.2 * i as f64) * x)
            .sum::<f64>()
            - 1.0;
        1.0 / (1.0 + (-z).exp())
    }
}

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("persistence-{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn clean_clean_dataset() -> Dataset {
    generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap()
}

fn dirty_dataset() -> Dataset {
    generate_dirty(&dirty_catalog(&CatalogOptions::tiny())[0]).unwrap()
}

/// One step of a mutation trace.
#[derive(Debug, Clone)]
enum Op {
    Ingest(usize),
    Remove(Vec<EntityId>),
    Update(Vec<(EntityId, EntityProfile)>),
    Compact,
}

/// Generates a deterministic trace interleaving ingests, removals, updates
/// and compactions (same shape as the `mutation.rs` trace generator).
fn generate_trace(dataset: &Dataset, seed: u64) -> Vec<Op> {
    let n = dataset.num_entities();
    let mut rng = er_core::seeded_rng(seed);
    let mut ops = Vec::new();
    let mut next = 0usize;
    let mut alive: Vec<u32> = Vec::new();
    let mut step = 0usize;
    let mut mutation_tail = 5usize;
    while next < n || mutation_tail > 0 {
        step += 1;
        let choice = if next < n {
            rng.gen_range(0..5)
        } else {
            mutation_tail -= 1;
            rng.gen_range(3..5)
        };
        match choice {
            0..=2 => {
                let take = rng.gen_range(1..=(n - next).min(31));
                alive.extend((next..next + take).map(|e| e as u32));
                ops.push(Op::Ingest(take));
                next += take;
            }
            3 => {
                if alive.len() < 4 {
                    continue;
                }
                let count = rng.gen_range(1..=3usize.min(alive.len() - 1));
                let mut victims = Vec::with_capacity(count);
                for _ in 0..count {
                    let at = rng.gen_range(0..alive.len());
                    victims.push(EntityId(alive.swap_remove(at)));
                }
                ops.push(Op::Remove(victims));
            }
            _ => {
                if alive.is_empty() {
                    continue;
                }
                let count = rng.gen_range(1..=3usize.min(alive.len()));
                let mut chosen: Vec<u32> = Vec::new();
                for _ in 0..count {
                    let e = alive[rng.gen_range(0..alive.len())];
                    if !chosen.contains(&e) {
                        chosen.push(e);
                    }
                }
                let updates = chosen
                    .into_iter()
                    .map(|e| {
                        let donor = rng.gen_range(0..n);
                        (EntityId(e), dataset.profiles[donor].clone())
                    })
                    .collect();
                ops.push(Op::Update(updates));
            }
        }
        if step.is_multiple_of(4) {
            ops.push(Op::Compact);
        }
    }
    ops
}

/// A thread-count-independent record of one emitted delta batch.
#[derive(Debug, Clone, PartialEq)]
struct Emission {
    pairs: Vec<(EntityId, EntityId)>,
    probabilities: Vec<f64>,
    rescored: Vec<(EntityId, EntityId)>,
    rescored_probabilities: Vec<f64>,
    retracted: Vec<(EntityId, EntityId)>,
}

impl Emission {
    fn of(delta: &er_stream::DeltaBatch) -> Self {
        Emission {
            pairs: delta.pairs.clone(),
            probabilities: delta.probabilities.clone(),
            rescored: delta.rescored_pairs.clone(),
            rescored_probabilities: delta.rescored_probabilities.clone(),
            retracted: delta.retracted.clone(),
        }
    }
}

fn config(dataset: &Dataset, threads: usize) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// Applies the trace to a plain (never-restarted) blocker, returning its
/// emissions and the batch-equivalent corpus profiles at the end.
fn run_reference<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    ops: &[Op],
    threads: usize,
) -> (Vec<Emission>, Vec<EntityProfile>) {
    let mut blocker = StreamingMetaBlocker::new(config(dataset, threads), generator)
        .with_model(Box::new(FixedModel));
    let mut current: Vec<EntityProfile> = Vec::new();
    let mut next = 0usize;
    let mut emissions = Vec::new();
    for op in ops {
        match op {
            Op::Ingest(take) => {
                let batch = &dataset.profiles[next..next + take];
                current.extend_from_slice(batch);
                next += take;
                emissions.push(Emission::of(&blocker.ingest(batch)));
            }
            Op::Remove(ids) => {
                for &e in ids {
                    current[e.index()] = EntityProfile::new(current[e.index()].external_id.clone());
                }
                emissions.push(Emission::of(&blocker.remove(ids)));
            }
            Op::Update(updates) => {
                for (e, profile) in updates {
                    current[e.index()] = profile.clone();
                }
                emissions.push(Emission::of(&blocker.update(updates)));
            }
            Op::Compact => {
                blocker.compact();
            }
        }
    }
    (emissions, current)
}

/// The final-state audit: the recovered stream's compacted blocks,
/// candidate pairs, LCP counters and fused probabilities must equal a
/// one-shot batch build of the surviving corpus.
fn assert_end_state<G: KeyGenerator>(
    dataset: &Dataset,
    generator: &G,
    csr: &er_blocking::CsrBlockCollection,
    index: &er_stream::StreamingIndex,
    current: &[EntityProfile],
    threads: usize,
) {
    let reference = Dataset {
        name: dataset.name.clone(),
        kind: dataset.kind,
        profiles: current.to_vec(),
        split: dataset.split.min(current.len()),
        ground_truth: GroundTruth::from_pairs(Vec::new()),
    };
    let batch = build_blocks(&reference, generator, threads);
    assert!(
        csr.same_blocks(&batch),
        "recovered blocks diverged from the batch build"
    );
    let set = FeatureSet::all_schemes();
    let stream_stats = BlockStats::from_csr(csr);
    let stream_candidates = CandidatePairs::from_stats(&stream_stats, threads);
    let batch_stats = BlockStats::from_csr(&batch);
    let batch_candidates = CandidatePairs::from_stats(&batch_stats, threads);
    assert_eq!(stream_candidates.pairs(), batch_candidates.pairs());
    let model = FixedModel;
    let stream_context = FeatureContext::new(&stream_stats, &stream_candidates);
    let batch_context = FeatureContext::new(&batch_stats, &batch_candidates);
    let stream_probabilities =
        FeatureMatrix::score_rows(&stream_context, set, threads, |row| model.probability(row));
    let batch_probabilities =
        FeatureMatrix::score_rows(&batch_context, set, threads, |row| model.probability(row));
    assert_eq!(stream_probabilities, batch_probabilities);
    for e in 0..current.len() {
        let entity = EntityId(e as u32);
        assert_eq!(
            index.candidates_of(entity),
            batch_candidates.candidates_of(entity),
            "LCP mismatch for entity {e} after recovery"
        );
    }
}

/// Runs the trace through a durable blocker, crashing (dropping the
/// blocker) and recovering at pseudo-random batch boundaries; recovery may
/// use a different thread count than the original run.  Every emission and
/// the final state must match the never-restarted reference.
fn run_with_restarts<G: KeyGenerator + Clone>(
    dataset: &Dataset,
    generator: G,
    ops: &[Op],
    threads: usize,
    dir: &PathBuf,
    restart_seed: u64,
) {
    let (expected, current) = run_reference(dataset, generator.clone(), ops, threads);
    let mut rng = er_core::seeded_rng(restart_seed);
    let recovery_threads = [1usize, 2, 4];

    let mut durable = StreamingMetaBlocker::new(config(dataset, threads), generator.clone())
        .persist_to(dir)
        .unwrap()
        .with_model(Box::new(FixedModel));
    let mut next = 0usize;
    let mut emitted = 0usize;
    for op in ops {
        match op {
            Op::Ingest(take) => {
                let batch = &dataset.profiles[next..next + take];
                next += take;
                let delta = durable.ingest(batch).unwrap();
                assert_eq!(Emission::of(&delta), expected[emitted], "batch {emitted}");
                emitted += 1;
            }
            Op::Remove(ids) => {
                let delta = durable.remove(ids).unwrap();
                assert_eq!(Emission::of(&delta), expected[emitted], "batch {emitted}");
                emitted += 1;
            }
            Op::Update(updates) => {
                let delta = durable.update(updates).unwrap();
                assert_eq!(Emission::of(&delta), expected[emitted], "batch {emitted}");
                emitted += 1;
            }
            Op::Compact => {
                durable.compact().unwrap();
            }
        }
        // Crash at roughly every third batch boundary.
        if rng.gen_range(0..3) == 0 {
            drop(durable);
            let t = recovery_threads[rng.gen_range(0..recovery_threads.len())];
            durable = DurableMetaBlocker::recover_from(dir, generator.clone(), t)
                .unwrap()
                .with_model(Box::new(FixedModel));
        }
    }
    assert_eq!(emitted, expected.len());

    // One last crash, then the full end-state audit.
    drop(durable);
    let mut durable = DurableMetaBlocker::recover_from(dir, generator.clone(), threads).unwrap();
    let csr = durable.compact().unwrap();
    assert_end_state(
        dataset,
        &generator,
        &csr,
        durable.index(),
        &current,
        threads,
    );
}

#[test]
fn clean_clean_restart_traces_recover_bit_identically() {
    let dataset = clean_clean_dataset();
    let ops = generate_trace(&dataset, 0x00d1_5c01);
    for threads in [1usize, 2, 4] {
        let dir = scratch(&format!("cc-token-{threads}"));
        run_with_restarts(
            &dataset,
            TokenKeys,
            &ops,
            threads,
            &dir,
            0xc7a5 + threads as u64,
        );
    }
    let dir = scratch("cc-qgrams");
    run_with_restarts(&dataset, QGramKeys::new(3), &ops, 2, &dir, 0xbead);
}

#[test]
fn dirty_restart_traces_recover_bit_identically_with_caps() {
    let dataset = dirty_dataset();
    let ops = generate_trace(&dataset, 0x00d1_5c02);
    // A tight suffix cap so blocks cross the cap in both directions across
    // restarts (retraction/revival state must survive recovery).
    for threads in [1usize, 4] {
        let dir = scratch(&format!("dirty-suffix-{threads}"));
        run_with_restarts(
            &dataset,
            SuffixKeys::new(3, 12),
            &ops,
            threads,
            &dir,
            0xd00d + threads as u64,
        );
    }
}

#[test]
fn kill_point_between_wal_append_and_apply_replays_the_record() {
    let dataset = clean_clean_dataset();
    let ops = generate_trace(&dataset, 0x0bad_c0de);
    let generator = TokenKeys;
    let threads = 2;
    let dir = scratch("kill-point");

    // Reference: the never-crashed run applying every batch normally.
    let mut reference = StreamingMetaBlocker::new(config(&dataset, threads), generator)
        .with_model(Box::new(FixedModel));

    let mut durable = StreamingMetaBlocker::new(config(&dataset, threads), generator)
        .persist_to(&dir)
        .unwrap()
        .with_model(Box::new(FixedModel));
    let mut rng = er_core::seeded_rng(0x5eed);
    let mut current: Vec<EntityProfile> = Vec::new();
    let mut next = 0usize;
    let mut kill_points = 0usize;
    for op in &ops {
        // Mirror the op into the batch-equivalent corpus and the reference.
        let record = match op {
            Op::Ingest(take) => {
                let batch = dataset.profiles[next..next + take].to_vec();
                current.extend_from_slice(&batch);
                next += take;
                reference.ingest(&batch);
                Some(MutationRecord::Ingest(batch))
            }
            Op::Remove(ids) => {
                for &e in ids {
                    current[e.index()] = EntityProfile::new(current[e.index()].external_id.clone());
                }
                reference.remove(ids);
                Some(MutationRecord::Remove(ids.clone()))
            }
            Op::Update(updates) => {
                for (e, profile) in updates {
                    current[e.index()] = profile.clone();
                }
                reference.update(updates);
                Some(MutationRecord::Update(updates.clone()))
            }
            Op::Compact => {
                reference.compact();
                durable.compact().unwrap();
                None
            }
        };
        let Some(record) = record else { continue };
        if rng.gen_range(0..3) == 0 {
            // The crash window: the record reaches the log, the in-memory
            // apply never happens.  Recovery must replay it.
            durable.wal_append_only(&record).unwrap();
            kill_points += 1;
            drop(durable);
            durable = DurableMetaBlocker::recover_from(&dir, generator, threads)
                .unwrap()
                .with_model(Box::new(FixedModel));
        } else {
            match &record {
                MutationRecord::Ingest(profiles) => {
                    durable.ingest(profiles).unwrap();
                }
                MutationRecord::Remove(ids) => {
                    durable.remove(ids).unwrap();
                }
                MutationRecord::Update(updates) => {
                    durable.update(updates).unwrap();
                }
            }
        }
        // Cheap state probes after every batch; the full audit runs at the
        // end.
        assert_eq!(durable.num_entities(), reference.num_entities());
        assert_eq!(durable.num_alive(), reference.num_alive());
        assert_eq!(
            durable.index().num_live_blocks(),
            reference.index().num_live_blocks()
        );
        assert_eq!(
            durable.index().total_comparisons(),
            reference.index().total_comparisons()
        );
    }
    assert!(kill_points >= 3, "trace exercised too few kill points");

    let streamed = durable.compact().unwrap();
    let via_reference = reference.compact();
    assert!(streamed.same_blocks(&via_reference));
    assert_end_state(
        &dataset,
        &generator,
        &streamed,
        durable.index(),
        &current,
        threads,
    );
}

#[test]
fn torn_wal_tail_rolls_back_to_the_previous_batch_boundary() {
    let dataset = dirty_dataset();
    let generator = TokenKeys;
    let dir = scratch("torn-tail");

    let mut durable = StreamingMetaBlocker::new(config(&dataset, 1), generator)
        .persist_to(&dir)
        .unwrap();
    let half = dataset.num_entities() / 2;
    durable.ingest_unscored(&dataset.profiles[..half]).unwrap();
    let boundary_state = durable.view();
    durable.ingest_unscored(&dataset.profiles[half..]).unwrap();
    drop(durable);

    // Tear the last record: cut a few bytes off the WAL (generation 0 —
    // no checkpoint has committed a newer one).
    let wal = er_stream::persist::wal_path(&dir, 0);
    let bytes = fs::read(&wal).unwrap();
    fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let durable = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap();
    assert_eq!(durable.num_entities(), half);
    assert!(durable.view().same_blocks(&boundary_state));
    // The torn tail is a normal crash artefact: reported, not degraded.
    let report = durable.recovery_report().unwrap();
    assert!(report.torn_tail_truncated);
    assert!(report.is_clean());
    assert!(!report.repair_checkpoint);

    // The torn tail was truncated: appending and recovering again works.
    let mut durable = durable;
    durable.ingest_unscored(&dataset.profiles[half..]).unwrap();
    drop(durable);
    let durable = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap();
    assert_eq!(durable.num_entities(), dataset.num_entities());
}

/// Copies every regular file of `src` into `dst` (one level — durability
/// roots are flat until recovery creates `quarantine/`).
fn copy_root(src: &std::path::Path, dst: &std::path::Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

#[test]
fn corrupt_newest_generation_falls_back_bit_identically() {
    let dataset = dirty_dataset();
    let generator = TokenKeys;
    let base = scratch("fallback-base");

    let mut durable = StreamingMetaBlocker::new(config(&dataset, 1), generator)
        .persist_to(&base)
        .unwrap();
    durable.ingest_unscored(&dataset.profiles[..20]).unwrap();
    durable.checkpoint().unwrap(); // commits generation 1; generation 0 retained
    durable.ingest_unscored(&dataset.profiles[20..40]).unwrap();
    let expected_blocks = durable.view();
    let expected_seq = durable.wal_sequence();
    drop(durable);

    // Corrupt a sample of single bytes spanning the whole newest-generation
    // snapshot — magic, version, tag, fingerprint, length, CRC and payload
    // regions all get hit.  Every flip must recover bit-identically from
    // generation 0 plus the longer WAL chain.
    let clean = fs::read(er_stream::persist::snapshot_path(&base, 1)).unwrap();
    let stride = (clean.len() / 24).max(1);
    let mut flips: Vec<usize> = (0..clean.len()).step_by(stride).collect();
    flips.push(clean.len() - 1);
    for at in flips {
        // Each flip gets a fresh copy of the root: the repair checkpoint
        // mutates the directory it recovers.
        let dir = scratch(&format!("fallback-{at}"));
        copy_root(&base, &dir);
        let mut bad = clean.clone();
        bad[at] ^= 0x40;
        fs::write(er_stream::persist::snapshot_path(&dir, 1), &bad).unwrap();

        let mut durable = DurableMetaBlocker::recover_from(&dir, generator, 2)
            .unwrap_or_else(|e| panic!("flip at byte {at}: fallback recovery failed: {e:?}"));
        assert_eq!(durable.num_entities(), 40, "flip at byte {at}");
        assert_eq!(durable.wal_sequence(), expected_seq, "flip at byte {at}");
        assert!(
            durable.view().same_blocks(&expected_blocks),
            "flip at byte {at}: recovered state diverged"
        );

        // The episode is fully accounted for in the report.
        let report = durable.recovery_report().unwrap().clone();
        assert!(!report.is_clean(), "flip at byte {at}");
        assert_eq!(report.committed_generation, 1, "flip at byte {at}");
        assert_eq!(report.used_generation, 0, "flip at byte {at}");
        assert_eq!(report.generations_tried, 2, "flip at byte {at}");
        assert_eq!(report.quarantined.len(), 1, "flip at byte {at}");
        assert!(report.repair_checkpoint, "flip at byte {at}");
        assert!(
            er_persist::quarantine_path(&dir)
                .join("shard.000.000001.gsmb")
                .exists(),
            "flip at byte {at}: corrupt snapshot not quarantined"
        );

        // The repair checkpoint restored redundancy: the store still
        // appends, and the next recovery is clean.
        durable.ingest_unscored(&dataset.profiles[40..45]).unwrap();
        drop(durable);
        let durable = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap();
        assert_eq!(durable.num_entities(), 45, "flip at byte {at}");
        assert!(
            durable.recovery_report().unwrap().is_clean(),
            "flip at byte {at}: recovery after repair should be clean"
        );
    }
}

#[test]
fn corrupted_files_surface_as_typed_errors() {
    let dataset = dirty_dataset();
    let generator = TokenKeys;
    let dir = scratch("corrupt");

    let mut durable = StreamingMetaBlocker::new(config(&dataset, 1), generator)
        .persist_to(&dir)
        .unwrap();
    durable.ingest_unscored(&dataset.profiles[..20]).unwrap();
    durable.checkpoint().unwrap();
    durable.ingest_unscored(&dataset.profiles[20..40]).unwrap();
    drop(durable);

    // The checkpoint committed generation 1; generation 0 is retained as
    // the fallback.  Corrupting *every* retained snapshot generation
    // exhausts the fallback chain: recovery is refused with a typed error
    // and both corpses end up in quarantine.
    let snapshot1 = er_stream::persist::snapshot_path(&dir, 1);
    let snapshot0 = er_stream::persist::snapshot_path(&dir, 0);
    let clean_snapshot1 = fs::read(&snapshot1).unwrap();
    let clean_snapshot0 = fs::read(&snapshot0).unwrap();
    for (path, clean) in [
        (&snapshot1, &clean_snapshot1),
        (&snapshot0, &clean_snapshot0),
    ] {
        let mut bad = clean.clone();
        let at = bad.len() / 2;
        bad[at] ^= 0x10;
        fs::write(path, &bad).unwrap();
    }
    let err = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap_err();
    assert!(
        matches!(
            err,
            PersistError::ChecksumMismatch { .. } | PersistError::Truncated { .. }
        ),
        "{err:?}"
    );
    let quarantine = er_persist::quarantine_path(&dir);
    assert!(quarantine.join("shard.000.000001.gsmb").exists());
    assert!(quarantine.join("shard.000.000000.gsmb").exists());
    // Put the clean files back (the corrupt ones were moved aside).
    fs::write(&snapshot1, &clean_snapshot1).unwrap();
    fs::write(&snapshot0, &clean_snapshot0).unwrap();

    // Flip a byte inside the active WAL's record payload: corruption of
    // acknowledged records is fatal in every mode — degrading around it
    // would be silent data loss.
    let wal = er_stream::persist::wal_path(&dir, 1);
    let clean_wal = fs::read(&wal).unwrap();
    let mut bad = clean_wal.clone();
    let at = er_persist::wal::WAL_HEADER_LEN + 4 + 4 + 8 + 10;
    bad[at] ^= 0x20;
    fs::write(&wal, &bad).unwrap();
    let err = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap_err();
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    fs::write(&wal, &clean_wal).unwrap();

    // A generator whose cap disagrees with the snapshot is refused.
    let err = DurableMetaBlocker::recover_from(&dir, SuffixKeys::new(3, 12), 1).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

    // A missing root is an I/O error, not a panic.
    let err = DurableMetaBlocker::recover_from(dir.join("missing"), generator, 1).unwrap_err();
    assert!(matches!(err, PersistError::Io { .. }));

    // And the pristine files still recover.
    let recovered = DurableMetaBlocker::recover_from(&dir, generator, 1).unwrap();
    assert_eq!(recovered.num_entities(), 40);
}
