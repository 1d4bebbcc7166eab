//! Store-level fault-injection and graceful-degradation tests for
//! [`ShardStore`]: fallback chains, quarantine, manifest rebuild,
//! retention, tmp-file sweeping, and injected write-path faults — first on
//! a single-member root (the payload is member 0, the head a marker), then
//! on a three-member one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_core::{PersistError, PersistErrorClass};
use er_persist::{
    manifest_path, quarantine_path, read_shard_manifest, shard_snapshot_path, shard_wal_path,
    sweep_tmp_files, FaultKind, FaultVfs, InjectedFault, RecoveredShards, RetryPolicy, ShardStore,
    StdVfs, Vfs, WalReadMode, WalWriter,
};

const TAG: u32 = 0x7e57_0002;
const FINGERPRINT: u64 = 0xabad_1dea_0ddb_a115;
/// The head snapshot of the single-member stores.
const HEAD: u8 = 0;

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    shard_snapshot_path(dir, 0, generation)
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    shard_wal_path(dir, 0, generation)
}

/// `ShardStore::create` for one member, handing back its only WAL.
fn create(
    vfs: Arc<dyn Vfs>,
    policy: RetryPolicy,
    dir: &Path,
) -> er_core::PersistResult<(ShardStore, WalWriter)> {
    let (store, mut wals) =
        ShardStore::create(vfs, policy, dir, TAG, FINGERPRINT, &HEAD, &[payload(0)])?;
    Ok((store, wals.remove(0)))
}

/// Commits `payload(generation)` as the next generation's only member.
fn commit(store: &mut ShardStore, generation: u64) -> er_core::PersistResult<WalWriter> {
    Ok(store.commit(TAG, &HEAD, &[payload(generation)])?.remove(0))
}

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("faults-{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn payload(generation: u64) -> Vec<u64> {
    (0..64u64).map(|i| i * 31 + generation * 1000).collect()
}

/// Creates a store with `commits` committed generations beyond 0, each WAL
/// carrying two records tagged with its generation.
fn build_store(dir: &Path, commits: u64) -> ShardStore {
    let (mut store, mut wal) = create(StdVfs::arc(), RetryPolicy::default_write(), dir).unwrap();
    for generation in 1..=commits {
        wal.append(format!("rec-{}-a", generation - 1).as_bytes())
            .unwrap();
        wal.append(format!("rec-{}-b", generation - 1).as_bytes())
            .unwrap();
        wal = commit(&mut store, generation).unwrap();
    }
    wal.append(format!("rec-{commits}-a").as_bytes()).unwrap();
    wal.append(format!("rec-{commits}-b").as_bytes()).unwrap();
    store
}

fn recover(dir: &Path) -> er_core::PersistResult<(ShardStore, RecoveredShards)> {
    ShardStore::recover(
        StdVfs::arc(),
        RetryPolicy::default_write(),
        dir,
        TAG,
        Some(FINGERPRINT),
    )
}

#[test]
fn clean_recovery_reopens_the_committed_generation() {
    let dir = scratch("clean");
    let store = build_store(&dir, 2);
    assert_eq!(store.committed(), 2);
    drop(store);

    let (store, recovered) = recover(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert_eq!(recovered.generation, 2);
    assert!(!recovered.degraded);
    assert!(recovered.wal_valid_lens.is_some());
    assert_eq!(
        er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.shard_payloads[0]).unwrap(),
        payload(2)
    );
    // Only the committed generation's WAL records ride along.
    assert_eq!(
        recovered.shard_records[0],
        vec![b"rec-2-a".to_vec(), b"rec-2-b".to_vec()]
    );
    assert!(recovered.report.is_clean());
    assert_eq!(recovered.report.generations_tried, 1);

    // The reopened WAL appends where the old one left off.
    let mut wals = store
        .open_committed_wals(&recovered.wal_valid_lens.unwrap())
        .unwrap();
    wals[0].append(b"rec-2-c").unwrap();
    let contents =
        er_persist::read_wal(&wal_path(&dir, 2), Some(FINGERPRINT), WalReadMode::Strict).unwrap();
    assert_eq!(contents.records.len(), 3);
}

#[test]
fn corrupt_newest_snapshot_falls_back_and_replays_the_longer_chain() {
    let dir = scratch("fallback");
    build_store(&dir, 2);

    // Flip a payload byte of the committed snapshot.
    let newest = snapshot_path(&dir, 2);
    let mut bytes = fs::read(&newest).unwrap();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x04;
    fs::write(&newest, &bytes).unwrap();

    let (store, recovered) = recover(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert_eq!(recovered.generation, 1);
    assert!(recovered.degraded);
    assert!(
        recovered.wal_valid_lens.is_none(),
        "degraded recovery must not reopen the WAL"
    );
    assert_eq!(
        er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.shard_payloads[0]).unwrap(),
        payload(1)
    );
    // The chain replays generation 1's WAL *and* the committed one's.
    assert_eq!(
        recovered.shard_records[0],
        vec![
            b"rec-1-a".to_vec(),
            b"rec-1-b".to_vec(),
            b"rec-2-a".to_vec(),
            b"rec-2-b".to_vec(),
        ]
    );
    let report = &recovered.report;
    assert!(!report.is_clean());
    assert_eq!(report.committed_generation, 2);
    assert_eq!(report.used_generation, 1);
    assert_eq!(report.generations_tried, 2);
    assert_eq!(report.quarantined.len(), 1);
    assert!(quarantine_path(&dir).join("shard.000.000002.gsmb").exists());
    assert!(!newest.exists());
}

#[test]
fn exhausting_the_fallback_chain_surfaces_the_error() {
    let dir = scratch("exhausted");
    build_store(&dir, 1);
    for generation in [0u64, 1] {
        let path = snapshot_path(&dir, generation);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
    }
    let err = recover(&dir).unwrap_err();
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. }),
        "{err:?}"
    );
    // Both corpses were still moved aside for post-mortem.
    assert!(quarantine_path(&dir).join("shard.000.000001.gsmb").exists());
    assert!(quarantine_path(&dir).join("shard.000.000000.gsmb").exists());
}

#[test]
fn a_lost_manifest_is_rebuilt_from_the_newest_snapshot() {
    let dir = scratch("manifest-lost");
    build_store(&dir, 2);
    fs::remove_file(manifest_path(&dir)).unwrap();

    let (store, recovered) = recover(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert_eq!(recovered.generation, 2);
    assert!(
        recovered.degraded,
        "a rebuilt commit pointer is not a clean recovery"
    );
    assert!(recovered.report.manifest_rebuilt);
    assert!(!recovered.report.is_clean());
}

#[test]
fn a_corrupt_manifest_is_rebuilt_from_the_newest_snapshot() {
    let dir = scratch("manifest-corrupt");
    build_store(&dir, 1);
    let path = manifest_path(&dir);
    let mut bytes = fs::read(&path).unwrap();
    let len = bytes.len();
    bytes[len - 1] ^= 0xFF; // the manifest CRC
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        read_shard_manifest(&StdVfs, &dir).unwrap_err(),
        PersistError::ChecksumMismatch { .. }
    ));

    let (store, recovered) = recover(&dir).unwrap();
    assert_eq!(store.committed(), 1);
    assert!(recovered.report.manifest_rebuilt);
}

#[test]
fn a_missing_store_is_a_typed_io_error() {
    let dir = scratch("missing");
    let err = recover(&dir.join("never-created")).unwrap_err();
    assert!(matches!(err, PersistError::Io { .. }), "{err:?}");
}

#[test]
fn stale_tmp_files_and_uncommitted_generations_are_swept_on_recovery() {
    let dir = scratch("sweep");
    build_store(&dir, 1);
    // A crash mid-commit leaks the next generation's files (the manifest
    // never flipped to them) and possibly a temp file.
    fs::write(snapshot_path(&dir, 2), b"half-written debris").unwrap();
    fs::write(wal_path(&dir, 2), b"more debris").unwrap();
    fs::write(dir.join("shard.000.000002.gsmb.tmp"), b"temp debris").unwrap();

    let (store, recovered) = recover(&dir).unwrap();
    assert_eq!(store.committed(), 1);
    assert!(!recovered.degraded);
    assert_eq!(recovered.report.tmp_files_removed, 1);
    assert_eq!(recovered.report.stale_generations_removed, 2);
    assert!(!snapshot_path(&dir, 2).exists());
    assert!(!wal_path(&dir, 2).exists());
    assert!(!dir.join("shard.000.000002.gsmb.tmp").exists());
}

#[test]
fn retention_keeps_the_committed_generation_and_one_fallback() {
    let dir = scratch("retention");
    let store = build_store(&dir, 3);
    assert_eq!(store.committed(), 3);
    assert!(snapshot_path(&dir, 3).exists());
    assert!(snapshot_path(&dir, 2).exists());
    assert!(wal_path(&dir, 3).exists());
    assert!(wal_path(&dir, 2).exists());
    // Generations 0 and 1 aged out.
    assert!(!snapshot_path(&dir, 0).exists());
    assert!(!snapshot_path(&dir, 1).exists());
    assert!(!wal_path(&dir, 0).exists());
    assert!(!wal_path(&dir, 1).exists());
}

#[test]
fn concurrent_checkpointers_get_a_typed_lock_error() {
    let dir = scratch("lock-held");
    let mut store = build_store(&dir, 1);

    // Another checkpointer "holds" the lock: commit must fail typed, not
    // race the snapshot/manifest/retention sequence.
    StdVfs
        .create_new(&er_persist::lock_path(&dir), b"")
        .unwrap();
    let err = commit(&mut store, 9).unwrap_err();
    assert!(matches!(err, PersistError::Locked { .. }), "{err:?}");
    assert!(err.to_string().contains("exclusive lock"));
    assert_eq!(err.class(), PersistErrorClass::Fatal);
    assert_eq!(store.committed(), 1, "a refused commit must not advance");

    // `create` on a locked directory is refused the same way.
    let err = create(StdVfs::arc(), RetryPolicy::default_write(), &dir).unwrap_err();
    assert!(matches!(err, PersistError::Locked { .. }), "{err:?}");

    // Once the holder releases, the loser can commit — and the lock never
    // outlives the commit.
    StdVfs.remove(&er_persist::lock_path(&dir)).unwrap();
    commit(&mut store, 2).unwrap();
    assert_eq!(store.committed(), 2);
    assert!(!er_persist::lock_path(&dir).exists());
}

#[test]
fn recovery_sweeps_a_stale_lock() {
    let dir = scratch("lock-stale");
    let store = build_store(&dir, 1);
    drop(store);

    // A checkpointer crashed while holding the lock.
    StdVfs
        .create_new(&er_persist::lock_path(&dir), b"")
        .unwrap();
    let (store, recovered) = recover(&dir).unwrap();
    assert!(recovered.report.stale_lock_removed);
    assert!(
        recovered.report.is_clean(),
        "a stale lock alone does not degrade recovery: {:?}",
        recovered.report
    );
    assert!(!er_persist::lock_path(&dir).exists());

    // The swept lock is free for the next commit.
    let mut store = store;
    commit(&mut store, 2).unwrap();
    assert_eq!(store.committed(), 2);
}

#[test]
fn sweep_tmp_files_only_touches_tmp_files() {
    let dir = scratch("tmp-only");
    fs::write(dir.join("a.tmp"), b"x").unwrap();
    fs::write(dir.join("b.tmp"), b"y").unwrap();
    fs::write(dir.join("keep.gsmb"), b"z").unwrap();
    assert_eq!(sweep_tmp_files(&StdVfs, &dir).unwrap(), 2);
    assert!(dir.join("keep.gsmb").exists());
    assert!(!dir.join("a.tmp").exists());
    // A missing directory sweeps nothing instead of erroring.
    assert_eq!(sweep_tmp_files(&StdVfs, &dir.join("nope")).unwrap(), 0);
}

/// A VFS that refuses directory fsyncs the way some filesystems do.
#[derive(Debug)]
struct NoDirSync {
    kind: io::ErrorKind,
}

impl Vfs for NoDirSync {
    fn create(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        StdVfs.create(path, data)
    }
    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        StdVfs.create_new(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        StdVfs.append(path, data)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.truncate(path, len)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.sync_file(path)
    }
    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Err(io::Error::new(self.kind, "directory fsync refused"))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.list(dir)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }
}

#[test]
fn unsupported_directory_fsync_is_tolerated_but_real_failures_propagate() {
    // ENOTSUP-class refusals (filesystems that cannot sync directories)
    // are tolerated: the store still works.
    let dir = scratch("nodirsync-tolerated");
    let vfs: Arc<dyn Vfs> = Arc::new(NoDirSync {
        kind: io::ErrorKind::Unsupported,
    });
    let (mut store, mut wal) = create(vfs, RetryPolicy::none(), &dir).unwrap();
    wal.append(b"record").unwrap();
    commit(&mut store, 1).unwrap();

    // Any other directory-fsync failure is a real error — the fsyncgate
    // bug was swallowing these.
    let dir = scratch("nodirsync-propagates");
    let vfs: Arc<dyn Vfs> = Arc::new(NoDirSync {
        kind: io::ErrorKind::PermissionDenied,
    });
    let err = create(vfs, RetryPolicy::none(), &dir).unwrap_err();
    assert!(matches!(err, PersistError::Io { .. }), "{err:?}");
}

#[test]
fn injected_write_faults_surface_as_typed_errors_and_leave_the_store_recoverable() {
    // Count the ops of a clean create+append+commit sequence.
    let dir = scratch("inject-count");
    let counting = FaultVfs::counting(7);
    let (mut store, mut wal) = create(counting.clone(), RetryPolicy::none(), &dir).unwrap();
    wal.append(b"one").unwrap();
    wal.append(b"two").unwrap();
    commit(&mut store, 1).unwrap();
    let total_ops = counting.op_count();
    // Lock release is best effort (a failure leaves a stale lock for the
    // next recovery sweep, not an error) — every *other* write op must
    // surface its fault.
    let write_ops: Vec<u64> = counting
        .op_log()
        .iter()
        .enumerate()
        .filter(|(_, (kind, path))| {
            kind.is_write()
                && !(*kind == er_persist::OpKind::Remove
                    && path.file_name().is_some_and(|n| n == er_persist::LOCK_NAME))
        })
        .map(|(i, _)| i as u64)
        .collect();
    assert!(total_ops > 0 && !write_ops.is_empty());

    for kind in [
        FaultKind::Enospc,
        FaultKind::SyncFailure,
        FaultKind::ShortWrite,
    ] {
        for &at_op in &write_ops {
            let dir = scratch(&format!("inject-{kind:?}-{at_op}"));
            let vfs = FaultVfs::with_faults(7, vec![InjectedFault { at_op, kind }]);
            let outcome = (|| -> er_core::PersistResult<()> {
                let (mut store, mut wal) = create(vfs.clone(), RetryPolicy::none(), &dir)?;
                wal.append(b"one")?;
                wal.append(b"two")?;
                commit(&mut store, 1)?;
                Ok(())
            })();
            let err = outcome.expect_err("the injected fault must surface");
            assert!(
                matches!(err, PersistError::Io { .. }),
                "{kind:?} at op {at_op}: {err:?}"
            );
            assert_eq!(
                err.class(),
                PersistErrorClass::Fatal,
                "{kind:?} at op {at_op}"
            );

            // Whatever the fault interrupted, the directory must still
            // recover (possibly to an earlier state) or be cleanly absent.
            match recover(&dir) {
                Ok((store, recovered)) => {
                    let state: Vec<u64> =
                        er_persist::decode_snapshot_payload(&recovered.shard_payloads[0]).unwrap();
                    assert!(
                        state == payload(0) || state == payload(1),
                        "{kind:?} at op {at_op}: impossible recovered state"
                    );
                    assert!(store.committed() <= 1);
                }
                Err(PersistError::Io { .. }) => {
                    // Legal only if the fault hit before generation 0's
                    // manifest was ever committed.
                    assert!(
                        !manifest_path(&dir).exists(),
                        "{kind:?} at op {at_op}: manifest exists but recovery failed"
                    );
                }
                Err(other) => panic!("{kind:?} at op {at_op}: {other:?}"),
            }
        }
    }
}

#[test]
fn transient_faults_are_retried_under_the_default_policy() {
    let dir = scratch("transient");
    // Inject a transient (EINTR-class) fault on every seventh op: with the
    // default retry policy the whole sequence still succeeds.  (The stride
    // is coprime to the 4-op atomic-write retry unit, so retries are not
    // re-faulted indefinitely.)
    let faults: Vec<InjectedFault> = (0..64)
        .step_by(7)
        .map(|at_op| InjectedFault {
            at_op,
            kind: FaultKind::Transient,
        })
        .collect();
    let vfs = FaultVfs::with_faults(11, faults);
    let (mut store, mut wal) = create(vfs.clone(), RetryPolicy::default_write(), &dir).unwrap();
    wal.append(b"one").unwrap();
    commit(&mut store, 1).unwrap();
    drop(store);

    let (_, recovered) = recover(&dir).unwrap();
    assert_eq!(recovered.generation, 1);
    assert!(recovered.report.is_clean());
}

#[test]
fn crash_points_during_commit_never_lose_the_previous_generation() {
    // Count a full create + append + commit sequence, then kill the store
    // at every op index and prove recovery lands on generation 0's state
    // (with its WAL records) or generation 1's — never in between, never
    // a panic.
    let dir = scratch("crash-count");
    let counting = FaultVfs::counting(13);
    let (mut store, mut wal) = create(counting.clone(), RetryPolicy::none(), &dir).unwrap();
    wal.append(b"one").unwrap();
    commit(&mut store, 1).unwrap();
    let total_ops = counting.op_count();

    for crash_at in 0..total_ops {
        let dir = scratch(&format!("crash-{crash_at}"));
        let vfs = FaultVfs::crash_at(13, crash_at);
        let _ = (|| -> er_core::PersistResult<()> {
            let (mut store, mut wal) = create(vfs.clone(), RetryPolicy::none(), &dir)?;
            wal.append(b"one")?;
            commit(&mut store, 1)?;
            Ok(())
        })();

        match recover(&dir) {
            Ok((store, recovered)) => {
                let state: Vec<u64> =
                    er_persist::decode_snapshot_payload(&recovered.shard_payloads[0]).unwrap();
                if store.committed() == 0 || recovered.generation == 0 {
                    assert_eq!(state, payload(0), "crash at op {crash_at}");
                } else {
                    assert_eq!(state, payload(1), "crash at op {crash_at}");
                }
            }
            Err(PersistError::Io { .. }) => {
                assert!(
                    !manifest_path(&dir).exists(),
                    "crash at op {crash_at}: manifest exists but recovery failed"
                );
            }
            Err(other) => panic!("crash at op {crash_at}: {other:?}"),
        }
    }
}

// ---- three members ------------------------------------------------------

const SHARDS: u32 = 3;

fn shard_state(shard: u64, generation: u64) -> Vec<u64> {
    (0..16u64)
        .map(|i| i * 13 + shard * 100 + generation * 10_000)
        .collect()
}

fn shard_states(generation: u64) -> Vec<Vec<u64>> {
    (0..u64::from(SHARDS))
        .map(|shard| shard_state(shard, generation))
        .collect()
}

/// Creates a 3-shard store with `commits` committed generations beyond 0;
/// each shard's WAL carries one record per generation tagged with both.
fn build_shard_store(dir: &Path, commits: u64) -> ShardStore {
    let (mut store, mut wals) = ShardStore::create(
        StdVfs::arc(),
        RetryPolicy::default_write(),
        dir,
        TAG,
        FINGERPRINT,
        &payload(0),
        &shard_states(0),
    )
    .unwrap();
    for generation in 1..=commits {
        for (shard, wal) in wals.iter_mut().enumerate() {
            wal.append(format!("s{}-g{}", shard, generation - 1).as_bytes())
                .unwrap();
        }
        wals = store
            .commit(TAG, &payload(generation), &shard_states(generation))
            .unwrap();
    }
    for (shard, wal) in wals.iter_mut().enumerate() {
        wal.append(format!("s{shard}-g{commits}").as_bytes())
            .unwrap();
    }
    store
}

fn recover_shards(dir: &Path) -> er_core::PersistResult<(ShardStore, RecoveredShards)> {
    ShardStore::recover(
        StdVfs::arc(),
        RetryPolicy::default_write(),
        dir,
        TAG,
        Some(FINGERPRINT),
    )
}

#[test]
fn shard_store_round_trips_and_recovers_cleanly() {
    let dir = scratch("shard-clean");
    let store = build_shard_store(&dir, 2);
    assert_eq!(store.committed(), 2);
    drop(store);

    let (store, recovered) = recover_shards(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert_eq!(recovered.generation, 2);
    assert_eq!(recovered.num_shards, SHARDS);
    assert!(!recovered.degraded);
    assert!(recovered.report.is_clean());
    assert_eq!(
        er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.router_payload).unwrap(),
        payload(2)
    );
    for shard in 0..SHARDS as usize {
        assert_eq!(
            er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.shard_payloads[shard])
                .unwrap(),
            shard_state(shard as u64, 2)
        );
        // Only the committed generation's records ride along.
        assert_eq!(
            recovered.shard_records[shard],
            vec![format!("s{shard}-g2").into_bytes()]
        );
    }

    // Every reopened WAL appends where its old one left off.
    let lens = recovered.wal_valid_lens.unwrap();
    let mut wals = store.open_committed_wals(&lens).unwrap();
    for wal in &mut wals {
        wal.append(b"more").unwrap();
    }
    for shard in 0..SHARDS {
        let contents = er_persist::read_wal(
            &shard_wal_path(&dir, shard, 2),
            Some(FINGERPRINT),
            WalReadMode::Strict,
        )
        .unwrap();
        assert_eq!(contents.records.len(), 2);
    }
}

#[test]
fn a_corrupt_shard_snapshot_falls_back_the_whole_generation_set() {
    let dir = scratch("shard-fallback");
    build_shard_store(&dir, 2);

    // Flip a payload byte in ONE shard's committed snapshot: the whole
    // generation set must fall back so no shard recovers ahead of its
    // siblings.
    let bad = shard_snapshot_path(&dir, 1, 2);
    let mut bytes = fs::read(&bad).unwrap();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x04;
    fs::write(&bad, &bytes).unwrap();

    let (store, recovered) = recover_shards(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert_eq!(recovered.generation, 1, "the set falls back as a unit");
    assert!(recovered.degraded);
    assert!(recovered.wal_valid_lens.is_none());
    assert_eq!(
        er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.router_payload).unwrap(),
        payload(1)
    );
    for shard in 0..SHARDS as usize {
        // Every shard — including the two whose gen-2 snapshots were
        // intact — recovers from generation 1 with the longer WAL chain.
        assert_eq!(
            er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.shard_payloads[shard])
                .unwrap(),
            shard_state(shard as u64, 1)
        );
        assert_eq!(
            recovered.shard_records[shard],
            vec![
                format!("s{shard}-g1").into_bytes(),
                format!("s{shard}-g2").into_bytes(),
            ]
        );
    }
    assert_eq!(recovered.report.quarantined.len(), 1);
    assert!(er_persist::quarantine_path(&dir)
        .join("shard.001.000002.gsmb")
        .exists());
}

#[test]
fn shard_store_commit_is_refused_while_locked() {
    let dir = scratch("shard-locked");
    let mut store = build_shard_store(&dir, 1);
    StdVfs
        .create_new(&er_persist::lock_path(&dir), b"")
        .unwrap();
    let err = store
        .commit(TAG, &payload(9), &shard_states(9))
        .unwrap_err();
    assert!(matches!(err, PersistError::Locked { .. }), "{err:?}");
    assert_eq!(store.committed(), 1);
    StdVfs.remove(&er_persist::lock_path(&dir)).unwrap();
    store.commit(TAG, &payload(2), &shard_states(2)).unwrap();
    assert_eq!(store.committed(), 2);
    assert!(!er_persist::lock_path(&dir).exists());
}

#[test]
fn a_lost_shard_manifest_is_rebuilt_from_the_newest_complete_set() {
    let dir = scratch("shard-manifest-lost");
    build_shard_store(&dir, 2);
    fs::remove_file(manifest_path(&dir)).unwrap();

    let (store, recovered) = recover_shards(&dir).unwrap();
    assert_eq!(store.committed(), 2);
    assert!(recovered.report.manifest_rebuilt);
    assert!(recovered.degraded);
    assert_eq!(recovered.num_shards, SHARDS);
    assert_eq!(
        er_persist::decode_snapshot_payload::<Vec<u64>>(&recovered.router_payload).unwrap(),
        payload(2)
    );
}

#[test]
fn shard_retention_keeps_two_generations() {
    let dir = scratch("shard-retention");
    build_shard_store(&dir, 3);
    for shard in 0..SHARDS {
        assert!(shard_snapshot_path(&dir, shard, 3).exists());
        assert!(shard_snapshot_path(&dir, shard, 2).exists());
        assert!(!shard_snapshot_path(&dir, shard, 1).exists());
        assert!(!shard_wal_path(&dir, shard, 1).exists());
    }
    assert!(er_persist::router_path(&dir, 2).exists());
    assert!(!er_persist::router_path(&dir, 1).exists());
    assert_eq!(er_persist::committed_shard_generation(&dir).unwrap(), 3);
}
