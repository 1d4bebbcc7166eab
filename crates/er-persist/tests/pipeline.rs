//! The two-stage checkpoint pipeline of [`ShardStore`] under faults: a
//! producer thread encodes member `i + 1` while the committing thread
//! writes member `i`, and none of that may show from outside — the
//! filesystem sees the serial sequence it always saw, a failure anywhere
//! is a typed error (never a hang, never a lost generation), and the
//! producer stops when the write side gives up.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use er_core::{PersistError, PersistResult};
use er_persist::{
    decode_snapshot_payload, lock_path, manifest_path, router_path, shard_snapshot_path,
    shard_wal_path, Encode, FaultKind, FaultVfs, InjectedFault, OpKind, RetryPolicy, ShardStore,
    StdVfs, Vfs, Writer,
};

const TAG: u32 = 0x7e57_0004;
const FINGERPRINT: u64 = 0x0dd5_a11b_ea75_0004;
const MEMBERS: u64 = 4;

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("pipeline-{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Member `member` of generation `generation`: sizes differ per member (so
/// an image written under another member's name cannot validate by luck)
/// and every value names both.
fn member_state(member: u64, generation: u64) -> Vec<u64> {
    (0..200 + member * 37)
        .map(|i| i * 13 + member * 1_000 + generation * 1_000_000)
        .collect()
}

fn member_states(generation: u64) -> Vec<Vec<u64>> {
    (0..MEMBERS).map(|m| member_state(m, generation)).collect()
}

fn head(generation: u64) -> Vec<u64> {
    vec![generation, MEMBERS]
}

fn create(vfs: Arc<dyn Vfs>, dir: &Path) -> PersistResult<ShardStore> {
    let (store, _wals) = ShardStore::create(
        vfs,
        RetryPolicy::none(),
        dir,
        TAG,
        FINGERPRINT,
        &head(0),
        &member_states(0),
    )?;
    Ok(store)
}

fn commit(store: &mut ShardStore, generation: u64) -> PersistResult<()> {
    store
        .commit(TAG, &head(generation), &member_states(generation))
        .map(drop)
}

/// The generation whose whole set a production recovery of `dir` loads,
/// checked member by member against what that generation committed.
fn recovered_generation(dir: &Path, context: &str) -> u64 {
    let (_, recovered) = ShardStore::recover(
        StdVfs::arc(),
        RetryPolicy::none(),
        dir,
        TAG,
        Some(FINGERPRINT),
    )
    .unwrap_or_else(|e| panic!("{context}: recovery failed: {e:?}"));
    let generation = recovered.generation;
    assert_eq!(
        decode_snapshot_payload::<Vec<u64>>(&recovered.router_payload).unwrap(),
        head(generation),
        "{context}"
    );
    for (member, payload) in recovered.shard_payloads.iter().enumerate() {
        assert_eq!(
            decode_snapshot_payload::<Vec<u64>>(payload).unwrap(),
            member_state(member as u64, generation),
            "{context}: member {member} of generation {generation}"
        );
    }
    generation
}

/// Runs `f` on its own thread and fails the test if it has not finished
/// after two minutes: a pipeline stage left waiting for the other would
/// otherwise hang the whole suite instead of failing one test.
fn within_two_minutes(f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => worker.join().unwrap(),
        // The sender was dropped without a send: `f` panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the checkpoint pipeline hung"),
    }
}

/// The atomic-write unit: temp file, fsync, rename, directory fsync.
fn atomic_write(dir: &Path, target: PathBuf) -> Vec<(OpKind, PathBuf)> {
    let tmp = target.with_extension("tmp");
    vec![
        (OpKind::Create, tmp.clone()),
        (OpKind::SyncFile, tmp.clone()),
        (OpKind::Rename, tmp),
        (OpKind::SyncDir, dir.to_path_buf()),
    ]
}

#[test]
fn a_clean_commit_issues_the_serial_operation_sequence() {
    let dir = scratch("oplog");
    let vfs = FaultVfs::counting(1);
    let mut store = create(vfs.clone(), &dir).unwrap();
    let before = vfs.op_log().len();
    commit(&mut store, 1).unwrap();

    // Lock; member snapshots in member order, each a whole atomic write;
    // the WALs; the head last; the manifest flip; retention; unlock —
    // exactly what the store did before encoding moved to a second thread.
    let mut expected = vec![(OpKind::CreateNew, lock_path(&dir))];
    for member in 0..MEMBERS as u32 {
        expected.extend(atomic_write(&dir, shard_snapshot_path(&dir, member, 1)));
    }
    for member in 0..MEMBERS as u32 {
        expected.extend(atomic_write(&dir, shard_wal_path(&dir, member, 1)));
    }
    expected.extend(atomic_write(&dir, router_path(&dir, 1)));
    expected.extend(atomic_write(&dir, manifest_path(&dir)));
    expected.push((OpKind::List, dir.clone()));
    expected.push((OpKind::Remove, lock_path(&dir)));
    assert_eq!(vfs.op_log()[before..], expected[..]);
}

#[test]
fn a_fault_at_any_operation_of_a_commit_is_typed_and_loses_nothing() {
    within_two_minutes(|| {
        let dir = scratch("fault-count");
        let counting = FaultVfs::counting(5);
        let mut store = create(counting.clone(), &dir).unwrap();
        let create_ops = counting.op_count();
        commit(&mut store, 1).unwrap();
        let log = counting.op_log();
        let commit_ops = counting.op_count() - create_ops;
        assert_eq!(commit_ops, 43, "1 + 4·4 + 4·4 + 4 + 4 + 1 + 1");
        // The manifest rename is the commit point.
        let flip = log
            .iter()
            .rposition(|(kind, path)| *kind == OpKind::Rename && path.ends_with("MANIFEST.tmp"))
            .unwrap() as u64;

        for kind in [FaultKind::Enospc, FaultKind::SyncFailure] {
            for k in 0..commit_ops {
                let at_op = create_ops + k;
                let context = format!("{kind:?} at commit op {k} ({})", log[at_op as usize].0);
                let dir = scratch(&format!("fault-{kind:?}-{k}"));
                let vfs = FaultVfs::with_faults(5, vec![InjectedFault { at_op, kind }]);
                let mut store = create(vfs.clone(), &dir).unwrap();
                match commit(&mut store, 1) {
                    Err(PersistError::Io { .. }) => {}
                    // Retention and the lock release are advisory: the
                    // commit is already durable when they run.
                    Ok(()) => assert!(at_op > flip + 1, "{context}: fault swallowed"),
                    Err(other) => panic!("{context}: {other:?}"),
                }
                // A faulted rename did not happen; anything later found
                // the manifest already flipped.
                let generation = recovered_generation(&dir, &context);
                assert_eq!(generation, u64::from(at_op > flip), "{context}");
                // The fault was one-shot: the same store commits again.
                let next = store.committed() + 1;
                commit(&mut store, next).unwrap_or_else(|e| panic!("{context}: {e:?}"));
                assert_eq!(recovered_generation(&dir, &context), next, "{context}");
            }
        }

        // And a crash instead of a survivable fault: every later operation
        // fails too, both stages wind down, the directory recovers.
        for k in 0..commit_ops {
            let context = format!("crash at commit op {k}");
            let dir = scratch(&format!("crash-{k}"));
            let vfs = FaultVfs::crash_at(5, create_ops + k);
            let mut store = create(vfs.clone(), &dir).unwrap();
            let outcome = commit(&mut store, 1);
            assert!(vfs.has_crashed(), "{context}");
            if let Err(err) = &outcome {
                assert!(matches!(err, PersistError::Io { .. }), "{context}: {err:?}");
            }
            // Dying inside the rename itself lands on either side of it.
            let generation = recovered_generation(&dir, &context);
            if create_ops + k != flip {
                assert_eq!(generation, u64::from(create_ops + k > flip), "{context}");
            }
        }
    });
}

/// A member that counts how often it is encoded.
struct Counted<'a> {
    state: Vec<u64>,
    encodes: &'a AtomicUsize,
}

impl Encode for Counted<'_> {
    fn encode(&self, w: &mut Writer) {
        self.encodes.fetch_add(1, Ordering::SeqCst);
        self.state.encode(w);
    }
}

#[test]
fn the_producer_stops_encoding_once_a_write_has_failed() {
    within_two_minutes(|| {
        let dir = scratch("producer-stops");
        let encodes = AtomicUsize::new(0);
        let members: Vec<Counted<'_>> = (0..MEMBERS)
            .map(|m| Counted {
                state: member_state(m, 0),
                encodes: &encodes,
            })
            .collect();
        let counting = FaultVfs::counting(9);
        let (store, _) = ShardStore::create(
            counting.clone(),
            RetryPolicy::none(),
            &dir,
            TAG,
            FINGERPRINT,
            &head(0),
            &members,
        )
        .unwrap();
        drop(store);
        assert_eq!(encodes.swap(0, Ordering::SeqCst), MEMBERS as usize);

        // Fail the very first write of the commit (op 0 takes the lock):
        // member 0 was encoded, member 1 may have been started while the
        // write was under way, members 2 and 3 must never be.
        let dir = scratch("producer-stops-faulted");
        let create_ops = counting.op_count();
        let vfs = FaultVfs::with_faults(
            9,
            vec![InjectedFault {
                at_op: create_ops + 1,
                kind: FaultKind::Enospc,
            }],
        );
        let (mut store, _) = ShardStore::create(
            vfs,
            RetryPolicy::none(),
            &dir,
            TAG,
            FINGERPRINT,
            &head(0),
            &members,
        )
        .unwrap();
        encodes.store(0, Ordering::SeqCst);
        let err = store.commit(TAG, &head(1), &members).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }), "{err:?}");
        let encoded = encodes.load(Ordering::SeqCst);
        assert!((1..=2).contains(&encoded), "{encoded} members encoded");
    });
}

/// A member that cannot be encoded.
struct Unencodable;

impl Encode for Unencodable {
    fn encode(&self, _: &mut Writer) {
        panic!("this member refuses to be snapshotted");
    }
}

#[test]
#[should_panic(expected = "this member refuses to be snapshotted")]
fn a_panic_while_encoding_reaches_the_caller_as_itself() {
    let dir = scratch("producer-panics");
    let _ = ShardStore::create(
        StdVfs::arc(),
        RetryPolicy::none(),
        &dir,
        TAG,
        FINGERPRINT,
        &head(0),
        &[Unencodable, Unencodable],
    );
}
