//! Crash-recovery property tests of the unsharded durable blocker — a
//! [`DurableShardedService`] with one shard: snapshot + WAL-tail replay
//! must be invisible.
//!
//! The contract of `er_stream::persist`: for **any** mutation trace
//! (insert/remove/update batches, compactions interleaved), a restart
//! injected at **any** batch boundary — and a crash on a record's own WAL
//! sync, before its caller saw the record acknowledged — leaves a
//! recovered service whose blocks, candidates, feature rows and classifier
//! probabilities are **bit-identical** to a never-restarted run of the same
//! trace, for all three blocking schemes, both ER kinds and any thread
//! count (including recovering under a *different* thread count than the
//! original run).  Torn WAL tails roll back to the previous batch boundary;
//! corrupted files surface as typed errors, never as state.

use std::fs;
use std::path::{Path, PathBuf};

use er_blocking::{
    build_blocks, BlockStats, CandidatePairs, KeyGenerator, QGramKeys, SuffixKeys, TokenKeys,
};
use er_core::{Dataset, EntityId, EntityProfile, GroundTruth, PersistError};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, CatalogOptions, DatasetName,
};
use er_features::{FeatureContext, FeatureMatrix, FeatureSet};
use er_learn::ProbabilisticClassifier;
use er_persist::{shard_snapshot_path, shard_wal_path, FaultVfs, OpKind, RetryPolicy};
use er_shard::{DurableShardedService, ShardedStreamingService};
use er_stream::{DeltaIndex, StreamingConfig, StreamingMetaBlocker};
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

/// A fresh unsharded durable root in `dir`, on the production filesystem.
fn persist<G: KeyGenerator>(
    dataset: &Dataset,
    generator: G,
    threads: usize,
    dir: &Path,
) -> DurableShardedService<G> {
    ShardedStreamingService::new(config(dataset, threads), generator, 1)
        .unwrap()
        .persist_to(dir)
        .unwrap()
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
    index: &impl DeltaIndex,
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

/// Applies one trace step to a durable service, returning its emission
/// (`None` for a compaction).
fn apply_durable<G: KeyGenerator>(
    durable: &mut DurableShardedService<G>,
    dataset: &Dataset,
    next: &mut usize,
    op: &Op,
) -> er_core::PersistResult<Option<Emission>> {
    let delta = match op {
        Op::Ingest(take) => {
            let batch = &dataset.profiles[*next..*next + take];
            *next += take;
            durable.ingest(batch)?
        }
        Op::Remove(ids) => durable.remove(ids)?,
        Op::Update(updates) => durable.update(updates)?,
        Op::Compact => {
            durable.compact()?;
            return Ok(None);
        }
    };
    Ok(Some(Emission::of(&delta)))
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

    let mut durable =
        persist(dataset, generator.clone(), threads, dir).with_model(Box::new(FixedModel));
    let mut next = 0usize;
    let mut emitted = 0usize;
    for op in ops {
        if let Some(emission) = apply_durable(&mut durable, dataset, &mut next, op).unwrap() {
            assert_eq!(emission, expected[emitted], "batch {emitted}");
            emitted += 1;
        }
        // Crash at roughly every third batch boundary.
        if rng.gen_range(0..3) == 0 {
            drop(durable);
            let t = recovery_threads[rng.gen_range(0..recovery_threads.len())];
            durable = DurableShardedService::recover_from(dir, generator.clone(), t)
                .unwrap()
                .with_model(Box::new(FixedModel));
        }
    }
    assert_eq!(emitted, expected.len());

    // One last crash, then the full end-state audit.
    drop(durable);
    let mut durable = DurableShardedService::recover_from(dir, generator.clone(), threads).unwrap();
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

/// The crash point between a record's WAL append and its in-memory apply:
/// the process dies on the record's own WAL `sync_file`, so the call that
/// logged it fails and its caller never sees the record acknowledged.  The
/// appended bytes already landed and the dead filesystem refuses the
/// rollback truncate, so the record is on disk.  Recovery must replay it —
/// land on exactly the sequence after the record, in the state after it —
/// and the resumed run must emit exactly what the never-crashed run does.
#[test]
fn kill_point_between_wal_append_and_apply_replays_the_record() {
    let dataset = clean_clean_dataset();
    let ops = generate_trace(&dataset, 0x0bad_c0de);
    let generator = TokenKeys;
    let threads = 2;
    let (expected, current) = run_reference(&dataset, generator, &ops, threads);

    // One fault-free pass through a counting VFS: per step, the index of
    // the step's own WAL sync (the `sync_file` right after the record's
    // append to a WAL file), the number of logged records so far, and the
    // view the state then has.
    let counting = FaultVfs::counting(0x5eed);
    let dir = scratch("kill-point-count");
    let service = ShardedStreamingService::new(config(&dataset, threads), generator, 1).unwrap();
    let mut durable = service
        .persist_to_with(&dir, counting.clone(), RetryPolicy::default_write())
        .unwrap();
    let is_wal = |path: &Path| {
        path.file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with("wal."))
    };
    let mut next = 0usize;
    let mut step_ends = Vec::new();
    for op in &ops {
        let begin = counting.op_count() as usize;
        apply_durable(&mut durable, &dataset, &mut next, op).unwrap();
        let log = counting.op_log();
        let wal_syncs: Vec<u64> = (begin.max(1)..log.len())
            .filter(|&i| {
                let ((before, from), (kind, path)) = (&log[i - 1], &log[i]);
                *before == OpKind::Append
                    && *kind == OpKind::SyncFile
                    && from == path
                    && is_wal(path)
            })
            .map(|i| i as u64)
            .collect();
        let wal_sync = match op {
            Op::Compact => None,
            _ => {
                assert_eq!(wal_syncs.len(), 1, "a logged step syncs its one record");
                Some(wal_syncs[0])
            }
        };
        let records = durable.wal_sequence() as usize;
        step_ends.push((wal_sync, records, durable.view()));
    }
    drop(durable);

    let mut rng = er_core::seeded_rng(0x5eed);
    let mut kill_points = 0usize;
    for (step, (wal_sync, sequence, state)) in step_ends.iter().enumerate() {
        let Some(crash_at) = *wal_sync else {
            continue;
        };
        if rng.gen_range(0..3) != 0 {
            continue;
        }
        kill_points += 1;
        let dir = scratch(&format!("kill-point-{step}"));
        let vfs = FaultVfs::crash_at(0x5eed, crash_at);
        let service =
            ShardedStreamingService::new(config(&dataset, threads), generator, 1).unwrap();
        let mut durable = service
            .persist_to_with(&dir, vfs.clone(), RetryPolicy::default_write())
            .unwrap()
            .with_model(Box::new(FixedModel));
        let mut next = 0usize;
        for op in &ops[..step] {
            apply_durable(&mut durable, &dataset, &mut next, op).unwrap();
        }
        assert!(
            apply_durable(&mut durable, &dataset, &mut next, &ops[step]).is_err(),
            "step {step}: the crash on the WAL sync did not fail the call"
        );
        assert!(
            vfs.has_crashed(),
            "step {step}: the crash point never fired"
        );
        drop(durable);

        let mut durable = DurableShardedService::recover_from(&dir, generator, threads)
            .unwrap()
            .with_model(Box::new(FixedModel));
        assert_eq!(
            durable.wal_sequence() as usize,
            *sequence,
            "step {step}: the unacknowledged record was not replayed"
        );
        let report = durable.recovery_report().unwrap();
        assert!(report.records_replayed >= 1, "step {step}: {report}");
        assert!(
            durable.view().same_blocks(state),
            "step {step}: recovered state is not the state after the record"
        );

        // The resumed run emits exactly what the never-crashed run does.
        for op in &ops[step + 1..] {
            if let Some(emission) = apply_durable(&mut durable, &dataset, &mut next, op).unwrap() {
                assert_eq!(emission, expected[durable.wal_sequence() as usize - 1]);
            }
        }
        let streamed = durable.compact().unwrap();
        assert_end_state(
            &dataset,
            &generator,
            &streamed,
            durable.index(),
            &current,
            threads,
        );
    }
    assert!(kill_points >= 3, "trace exercised too few kill points");
}

#[test]
fn torn_wal_tail_rolls_back_to_the_previous_batch_boundary() {
    let dataset = dirty_dataset();
    let generator = TokenKeys;
    let dir = scratch("torn-tail");

    let mut durable = persist(&dataset, generator, 1, &dir);
    let half = dataset.num_entities() / 2;
    durable.ingest(&dataset.profiles[..half]).unwrap();
    let boundary_state = durable.view();
    durable.ingest(&dataset.profiles[half..]).unwrap();
    drop(durable);

    // Tear the last record: cut a few bytes off the WAL (generation 0 —
    // no checkpoint has committed a newer one).
    let wal = shard_wal_path(&dir, 0, 0);
    let bytes = fs::read(&wal).unwrap();
    fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();

    let durable = DurableShardedService::recover_from(&dir, generator, 1).unwrap();
    assert_eq!(durable.num_entities(), half);
    assert!(durable.view().same_blocks(&boundary_state));
    // The torn tail is a normal crash artefact: reported, not degraded.
    let report = durable.recovery_report().unwrap();
    assert!(report.torn_tail_truncated);
    assert!(report.is_clean());
    assert!(!report.repair_checkpoint);

    // The torn tail was truncated: appending and recovering again works.
    let mut durable = durable;
    durable.ingest(&dataset.profiles[half..]).unwrap();
    drop(durable);
    let durable = DurableShardedService::recover_from(&dir, generator, 1).unwrap();
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

    let mut durable = persist(&dataset, generator, 1, &base);
    durable.ingest(&dataset.profiles[..20]).unwrap();
    durable.checkpoint().unwrap(); // commits generation 1; generation 0 retained
    durable.ingest(&dataset.profiles[20..40]).unwrap();
    let expected_blocks = durable.view();
    let expected_seq = durable.wal_sequence();
    drop(durable);

    // Corrupt a sample of single bytes spanning the whole newest-generation
    // snapshot — magic, version, tag, fingerprint, length, CRC and payload
    // regions all get hit.  Every flip must recover bit-identically from
    // generation 0 plus the longer WAL chain.
    let clean = fs::read(shard_snapshot_path(&base, 0, 1)).unwrap();
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
        fs::write(shard_snapshot_path(&dir, 0, 1), &bad).unwrap();

        let mut durable = DurableShardedService::recover_from(&dir, generator, 2)
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
        durable.ingest(&dataset.profiles[40..45]).unwrap();
        drop(durable);
        let durable = DurableShardedService::recover_from(&dir, generator, 1).unwrap();
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

    let mut durable = persist(&dataset, generator, 1, &dir);
    durable.ingest(&dataset.profiles[..20]).unwrap();
    durable.checkpoint().unwrap();
    durable.ingest(&dataset.profiles[20..40]).unwrap();
    drop(durable);

    // The checkpoint committed generation 1; generation 0 is retained as
    // the fallback.  Corrupting *every* retained snapshot generation
    // exhausts the fallback chain: recovery is refused with a typed error
    // and both corpses end up in quarantine.
    let snapshot1 = shard_snapshot_path(&dir, 0, 1);
    let snapshot0 = shard_snapshot_path(&dir, 0, 0);
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
    let err = DurableShardedService::recover_from(&dir, generator, 1).unwrap_err();
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
    let wal = shard_wal_path(&dir, 0, 1);
    let clean_wal = fs::read(&wal).unwrap();
    let mut bad = clean_wal.clone();
    let at = er_persist::wal::WAL_HEADER_LEN + 4 + 4 + 8 + 10;
    bad[at] ^= 0x20;
    fs::write(&wal, &bad).unwrap();
    let err = DurableShardedService::recover_from(&dir, generator, 1).unwrap_err();
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    fs::write(&wal, &clean_wal).unwrap();

    // A generator whose cap disagrees with the snapshot is refused.
    let err = DurableShardedService::recover_from(&dir, SuffixKeys::new(3, 12), 1).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

    // A missing root is an I/O error, not a panic.
    let err = DurableShardedService::recover_from(dir.join("missing"), generator, 1).unwrap_err();
    assert!(matches!(err, PersistError::Io { .. }));

    // And the pristine files still recover.
    let recovered = DurableShardedService::recover_from(&dir, generator, 1).unwrap();
    assert_eq!(recovered.num_entities(), 40);
}
