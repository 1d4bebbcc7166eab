//! The mutation-log engine on its own — no wrapper, no replayed state:
//! empty indexes as members, a marker as head, and ingest records nobody
//! applies.  What is under test is the protocol: gaps, stripes, envelopes,
//! poisoning and the repair checkpoint.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_core::{DatasetKind, EntityProfile, PersistError, PersistResult};
use er_persist::{
    shard_snapshot_path, FaultKind, FaultVfs, InjectedFault, OpKind, RetryPolicy, StdVfs, Vfs,
};
use er_stream::persist::{encode_record, MutationLog, PendingLog, Replay};
use er_stream::{MutationRecord, MutationRef, StreamingIndex};

const TAG: u32 = 0x7e57_106a;
const FINGERPRINT: u64 = 0x0106_0106_0106_0106;
const HEAD: u8 = 7;

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mutation-log-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn members(n: usize) -> Vec<StreamingIndex> {
    (0..n)
        .map(|_| StreamingIndex::new("engine", DatasetKind::Dirty, 0, usize::MAX))
        .collect()
}

fn batch(tag: usize) -> Vec<EntityProfile> {
    vec![EntityProfile::new(format!("e{tag}"))]
}

fn create(dir: &Path, vfs: Arc<dyn Vfs>, n: usize) -> MutationLog {
    let members = members(n);
    let members: Vec<&StreamingIndex> = members.iter().collect();
    MutationLog::create(
        dir,
        vfs,
        RetryPolicy::none(),
        TAG,
        FINGERPRINT,
        &HEAD,
        &members,
    )
    .unwrap()
}

fn recover(dir: &Path) -> PersistResult<(PendingLog, Replay)> {
    MutationLog::recover(dir, StdVfs::arc(), RetryPolicy::none(), TAG)
}

fn finish(pending: PendingLog, replay: &Replay) -> MutationLog {
    let members: Vec<&StreamingIndex> = replay.members.iter().collect();
    pending.finish(&HEAD, &members).unwrap()
}

fn corrupt(result: PersistResult<(PendingLog, Replay)>, needle: &str) {
    match result {
        Err(PersistError::Corrupt(message)) => {
            assert!(message.contains(needle), "{message:?} lacks {needle:?}")
        }
        other => panic!("expected Corrupt({needle:?}), got {other:?}"),
    }
}

#[test]
fn a_gap_on_a_single_wal_is_corrupt() {
    let dir = scratch("gap-1");
    let mut log = create(&dir, StdVfs::arc(), 1);
    log.append(|seq| encode_record(seq, MutationRef::Ingest(&batch(0))))
        .unwrap();
    // Sequence 1 never reaches the log; with one WAL that cannot be the
    // debris of a torn group.
    log.append(|seq| encode_record(seq + 1, MutationRef::Ingest(&batch(1))))
        .unwrap();
    drop(log);
    corrupt(
        recover(&dir),
        "wal sequence gap: expected record 1, found 2",
    );
}

#[test]
fn a_record_on_the_wrong_stripe_or_without_a_sequence_is_corrupt() {
    let dir = scratch("stripe");
    let mut log = create(&dir, StdVfs::arc(), 2);
    // Sequence 0 stripes to WAL 0; claim to be record 1 there.
    log.append(|seq| encode_record(seq + 1, MutationRef::Ingest(&batch(0))))
        .unwrap();
    drop(log);
    corrupt(recover(&dir), "seq 1 found on wal 0, expected wal 1");

    let dir = scratch("short-record");
    let mut log = create(&dir, StdVfs::arc(), 2);
    log.append(|_| vec![1, 2, 3]).unwrap();
    drop(log);
    corrupt(recover(&dir), "too short for a sequence number");
}

#[test]
fn a_member_off_the_heads_boundary_or_out_of_place_is_corrupt() {
    // Two roots of the same stream, both at generation 1, checkpointed at
    // different boundaries: A at sequence 0, B at sequence 1.
    let (a, b) = (scratch("splice-a"), scratch("splice-b"));
    for (dir, records) in [(&a, 0usize), (&b, 1)] {
        let mut log = create(dir, StdVfs::arc(), 2);
        for i in 0..records {
            log.append(|seq| encode_record(seq, MutationRef::Ingest(&batch(i))))
                .unwrap();
        }
        let members = members(2);
        log.checkpoint(&HEAD, &[&members[0], &members[1]]).unwrap();
    }
    let clean = std::fs::read(shard_snapshot_path(&a, 1, 1)).unwrap();

    // A restore splices B's member 1 into A's generation set.
    std::fs::copy(shard_snapshot_path(&b, 1, 1), shard_snapshot_path(&a, 1, 1)).unwrap();
    corrupt(recover(&a), "member 1 snapshot at seq 1 but head at seq 0");

    // ... or puts member 0's image where member 1's belongs.
    std::fs::copy(shard_snapshot_path(&a, 0, 1), shard_snapshot_path(&a, 1, 1)).unwrap();
    corrupt(recover(&a), "member snapshot 1 carries ordinal 0");

    std::fs::write(shard_snapshot_path(&a, 1, 1), clean).unwrap();
    let (_, replay) = recover(&a).unwrap();
    assert_eq!(replay.members.len(), 2);
    assert_eq!(replay.head, [HEAD]);
}

/// Runs `create(3 WALs) → append → append_group(4)` on `vfs`.
fn group_trace(dir: &Path, vfs: Arc<dyn Vfs>) -> (MutationLog, PersistResult<Vec<usize>>) {
    let mut log = create(dir, vfs, 3);
    log.append(|seq| encode_record(seq, MutationRef::Ingest(&batch(0))))
        .unwrap();
    let group: Vec<MutationRecord> = (1..=4).map(|i| MutationRecord::Ingest(batch(i))).collect();
    let outcome = log.append_group(&group);
    (log, outcome)
}

#[test]
fn a_partial_group_poisons_the_log_and_recovery_repairs_past_the_gap() {
    // Where does the group's *second* WAL write land?
    let counting = FaultVfs::counting(41);
    let (log, outcome) = group_trace(&scratch("group-count"), counting.clone());
    // Sequences 1..=4 over three WALs: WAL 1 gets {1, 4}, WAL 2 {2}, WAL 0 {3}.
    assert_eq!(outcome.unwrap(), [1, 2, 1]);
    assert_eq!((log.next_seq(), log.wal_syncs()), (5, 4));
    let appends: Vec<u64> = (0u64..)
        .zip(counting.op_log())
        .filter(|(_, (kind, _))| *kind == OpKind::Append)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(appends.len(), 4, "one single append + three group writes");

    // Fail it: WAL 0 has synced record 3, WALs 1 and 2 never see theirs.
    let dir = scratch("group-torn");
    let vfs = FaultVfs::with_faults(
        41,
        vec![InjectedFault {
            at_op: appends[2],
            kind: FaultKind::Enospc,
        }],
    );
    let (mut log, outcome) = group_trace(&dir, vfs);
    assert!(
        matches!(outcome, Err(PersistError::Io { .. })),
        "{outcome:?}"
    );
    assert_eq!(log.next_seq(), 1, "a failed group acknowledges nothing");

    // Poisoned: every mutating entry point refuses, typed.
    let refused = |result: PersistResult<()>| match result {
        Err(PersistError::Corrupt(message)) => assert!(message.contains("gap"), "{message}"),
        other => panic!("a poisoned log must refuse, got {other:?}"),
    };
    refused(log.check_usable());
    refused(
        log.append(|seq| encode_record(seq, MutationRef::Ingest(&batch(9))))
            .map(drop),
    );
    refused(
        log.append_group(&[MutationRecord::Ingest(batch(9))])
            .map(drop),
    );
    let spare = members(3);
    refused(log.checkpoint(&HEAD, &[&spare[0], &spare[1], &spare[2]]));
    drop(log);

    // Recovery replays the acknowledged prefix, stops at the gap and
    // commits a repair checkpoint instead of reopening the old WALs.
    let (pending, replay) = recover(&dir).unwrap();
    assert_eq!(replay.records, [MutationRecord::Ingest(batch(0))]);
    replay.verify_fingerprint(FINGERPRINT).unwrap();
    let log = finish(pending, &replay);
    let report = log.recovery_report().unwrap();
    assert!(report.repair_checkpoint, "{report}");
    assert_eq!(report.records_replayed, 1);
    assert_eq!((log.next_seq(), log.generation()), (1, 1));
    drop(log);

    // The debris stayed behind with generation 0: the next recovery is
    // clean, replays nothing and appends where the repair left off.
    let (pending, replay) = recover(&dir).unwrap();
    assert!(replay.records.is_empty());
    let mut log = finish(pending, &replay);
    let report = log.recovery_report().unwrap();
    assert!(report.is_clean() && !report.repair_checkpoint, "{report}");
    assert_eq!(
        log.append(|seq| encode_record(seq, MutationRef::Ingest(&batch(1))))
            .unwrap(),
        1
    );
}

#[test]
fn the_fingerprint_check_has_one_orientation() {
    let dir = scratch("fingerprint");
    drop(create(&dir, StdVfs::arc(), 1));
    let (_, mut replay) = recover(&dir).unwrap();
    // `expected` is what the caller's state implies, `found` what the
    // root's files carry — the same way round as `er-persist`.
    match replay.verify_fingerprint(0xbad) {
        Err(PersistError::FingerprintMismatch { expected, found }) => {
            assert_eq!((expected, found), (0xbad, FINGERPRINT))
        }
        other => panic!("{other:?}"),
    }
    replay.take_only_member().unwrap();
    assert!(matches!(
        replay.take_only_member(),
        Err(PersistError::Corrupt(_))
    ));
}
