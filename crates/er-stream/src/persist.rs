//! Durability for streaming state: the one **mutation-log protocol** every
//! durable wrapper runs.
//!
//! A durability root is one [`ShardStore`] directory (layout, commit
//! sequence and fallback chain: see `er_persist::multi`): a *head* snapshot,
//! N ≥ 1 *member* snapshots — each a complete [`StreamingIndex`] — and one
//! write-ahead log per member.  [`MutationLog`] is the only code that
//! speaks the protocol on top of it:
//!
//! * **log, then apply.**  Every mutation batch is appended as its
//!   **input** (profiles, ids or re-keyed profiles) under a global sequence
//!   number *before* the in-memory state is touched; record `seq` lives on
//!   WAL `seq % N`.  A group of batches costs one write + one fsync per
//!   touched WAL; a group that fails after some WAL already synced leaves a
//!   durable sequence *gap*, so the log **poisons** itself and refuses
//!   every later append or checkpoint.
//! * **checkpoint.**  Head and members are written under one envelope —
//!   the sequence number the image covers (`applied_seq`), plus each
//!   member's ordinal — and committed as a new generation with fresh WALs.
//!   A crash anywhere inside the commit leaves the old generation intact.
//! * **recover.**  Load the newest readable generation, check that every
//!   member sits on the head's boundary, merge the per-WAL chains back into
//!   sequence order, skip records the image already covers and hand the
//!   contiguous rest to the wrapper to replay.  Because the streaming
//!   engine is deterministic, replaying the inputs reproduces the state
//!   bit-identically, for any thread count.  A crash leaves one of three
//!   shapes, all handled: between batches (exact history); between the
//!   append and the apply (the record is on disk, so replay applies it);
//!   mid-append (the torn tail fails its frame and is truncated away).  A
//!   gap on a multi-WAL root is the debris of a torn group — nothing at or
//!   past it was acknowledged — so replay stops there; on a single WAL it
//!   cannot be debris and is `Corrupt`.  After a degraded recovery
//!   (fallback generation, rebuilt manifest, missing WAL) or debris the
//!   log commits a **repair checkpoint** instead of reopening the old
//!   WALs; the episode is accounted for in the [`RecoveryReport`].
//!
//! The wrappers own only what is theirs — the head's contents, how to
//! rebuild their state from `(head, members)`, validating a batch *before*
//! it is logged, and whether replay scores:
//!
//! | wrapper | head | members | replay |
//! |---|---|---|---|
//! | `meta_blocking::DurableStreamingPipeline` | feature-set id, model, schedule, cleaned pool | the index | scored |
//! | `er_shard::DurableShardedService` | feature-set id, router state | one per posting shard (N = 1 is the unsharded blocker) | unscored |

use std::path::Path;
use std::sync::Arc;

use er_core::{crc64, EntityId, EntityProfile, PersistError, PersistResult};
use er_features::FeatureSet;
use er_persist::{
    Decode, Encode, Reader, RecoveryReport, RetryPolicy, ShardStore, Vfs, WalWriter, Writer,
};

use crate::delta::DeltaIndex;
use crate::index::StreamingIndex;

/// The fingerprint tying a snapshot and WAL to one logical stream: a
/// digest of the dataset name, ER kind, Clean-Clean split and scheme cap.
/// Recovery refuses to combine files whose fingerprints disagree.
pub fn stream_fingerprint(index: &StreamingIndex) -> u64 {
    let mut w = Writer::new();
    w.write_str(index.dataset_name());
    index.kind().encode(&mut w);
    w.write_usize(index.split());
    w.write_u64(index.size_cap() as u64);
    crc64(w.as_bytes())
}

/// One logged mutation batch: exactly the input of the corresponding
/// [`StreamingMetaBlocker`](crate::StreamingMetaBlocker) call.  Replaying
/// the inputs through the same (deterministic) engine reproduces the state
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationRecord {
    /// A batch of new entity profiles.
    Ingest(Vec<EntityProfile>),
    /// A batch of removed entity ids.
    Remove(Vec<EntityId>),
    /// A batch of in-place profile updates.
    Update(Vec<(EntityId, EntityProfile)>),
}

/// A borrowed view of one mutation batch: what
/// [`StreamingMetaBlocker::apply`](crate::StreamingMetaBlocker::apply)
/// consumes and [`encode_record`] logs, without owning (or copying) the
/// batch.
#[derive(Debug, Clone, Copy)]
pub enum MutationRef<'a> {
    /// A batch of new entity profiles.
    Ingest(&'a [EntityProfile]),
    /// A batch of removed entity ids.
    Remove(&'a [EntityId]),
    /// A batch of in-place profile updates.
    Update(&'a [(EntityId, EntityProfile)]),
}

impl<'a> From<&'a MutationRecord> for MutationRef<'a> {
    fn from(record: &'a MutationRecord) -> Self {
        match record {
            MutationRecord::Ingest(profiles) => MutationRef::Ingest(profiles),
            MutationRecord::Remove(ids) => MutationRef::Remove(ids),
            MutationRecord::Update(updates) => MutationRef::Update(updates),
        }
    }
}

impl Decode for MutationRecord {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        match r.read_u8()? {
            0 => Ok(MutationRecord::Ingest(Vec::<EntityProfile>::decode(r)?)),
            1 => Ok(MutationRecord::Remove(Vec::<EntityId>::decode(r)?)),
            2 => Ok(MutationRecord::Update(
                Vec::<(EntityId, EntityProfile)>::decode(r)?,
            )),
            other => Err(PersistError::Corrupt(format!(
                "unknown mutation-record tag {other}"
            ))),
        }
    }
}

/// Encodes one WAL record payload (`seq` + tagged batch) straight from the
/// borrowed batch, as [`decode_record`] reads it back.
pub fn encode_record(seq: u64, mutation: MutationRef<'_>) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_u64(seq);
    match mutation {
        MutationRef::Ingest(profiles) => {
            w.write_u8(0);
            profiles.encode(&mut w);
        }
        MutationRef::Remove(ids) => {
            w.write_u8(1);
            ids.encode(&mut w);
        }
        MutationRef::Update(updates) => {
            w.write_u8(2);
            updates.encode(&mut w);
        }
    }
    w.into_bytes()
}

/// Decodes one WAL record payload into its sequence number and mutation.
pub fn decode_record(bytes: &[u8]) -> PersistResult<(u64, MutationRecord)> {
    let mut r = Reader::new(bytes);
    let seq = r.read_u64()?;
    let record = MutationRecord::decode(&mut r)?;
    r.expect_end()?;
    Ok((seq, record))
}

/// Decodes the feature-set id every wrapper's head starts with.
pub fn decode_feature_set(r: &mut Reader<'_>) -> PersistResult<FeatureSet> {
    FeatureSet::from_id(r.read_u8()?)
        .ok_or_else(|| PersistError::Corrupt("feature-set id 0 is not valid".into()))
}

/// The head snapshot on disk: the commit's batch boundary, then whatever
/// the wrapper keeps outside the members.
struct HeadEnvelope<'a, H> {
    applied_seq: u64,
    head: &'a H,
}

impl<H: Encode> Encode for HeadEnvelope<'_, H> {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.applied_seq);
        self.head.encode(w);
    }
}

/// One member snapshot on disk.  Every member of a generation set carries
/// its ordinal and the same `applied_seq` as the head; recovery
/// cross-checks both so a mixed set (two half-finished commits spliced by a
/// filesystem restore) is rejected as corrupt rather than replayed.
struct MemberEnvelope<'a> {
    ordinal: u32,
    applied_seq: u64,
    index: &'a StreamingIndex,
}

impl Encode for MemberEnvelope<'_> {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(self.ordinal);
        w.write_u64(self.applied_seq);
        self.index.encode(w);
    }
}

/// The snapshot set of the current state, stamped with one batch boundary
/// — what `create` and every checkpoint commit.
fn envelopes<'a, H>(
    applied_seq: u64,
    head: &'a H,
    members: &[&'a StreamingIndex],
) -> (HeadEnvelope<'a, H>, Vec<MemberEnvelope<'a>>) {
    let members = members
        .iter()
        .enumerate()
        .map(|(i, &index)| MemberEnvelope {
            ordinal: i as u32,
            applied_seq,
            index,
        });
    (HeadEnvelope { applied_seq, head }, members.collect())
}

/// What [`MutationLog::recover`] hands the wrapper to rebuild its state
/// from: the head bytes (without the envelope), the members in ordinal
/// order, and the acknowledged records the image does not cover yet, in
/// sequence order.
#[derive(Debug)]
pub struct Replay {
    /// The wrapper's head, exactly as it encoded it.
    pub head: Vec<u8>,
    /// The recovered member indexes, in ordinal order.
    pub members: Vec<StreamingIndex>,
    /// The mutations to re-apply, oldest first.
    pub records: Vec<MutationRecord>,
    /// The stream fingerprint the root carries.
    pub fingerprint: u64,
}

impl Replay {
    /// Refuses the root unless the fingerprint recomputed from the
    /// recovered state (`expected`) is the one stamped on its files.
    pub fn verify_fingerprint(&self, expected: u64) -> PersistResult<()> {
        if expected != self.fingerprint {
            return Err(PersistError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// The single member of an unsharded root.
    pub fn take_only_member(&mut self) -> PersistResult<StreamingIndex> {
        match self.members.pop() {
            Some(index) if self.members.is_empty() => Ok(index),
            _ => Err(PersistError::Corrupt(
                "an unsharded root holds exactly one member".into(),
            )),
        }
    }
}

/// A recovered root between [`MutationLog::recover`] and the wrapper having
/// replayed the records: [`finish`](PendingLog::finish) opens it for
/// appending.
#[derive(Debug)]
pub struct PendingLog {
    log: MutationLog,
    /// Valid lengths to reopen the committed WALs at; `None` when the old
    /// WALs cannot simply be appended to (degraded recovery or torn-group
    /// debris) and the replayed state is re-committed instead.
    reopen: Option<Vec<u64>>,
    report: RecoveryReport,
}

impl PendingLog {
    /// Reopens the committed WALs — or commits the repair checkpoint of the
    /// replayed state, restoring full snapshot redundancy and leaving any
    /// debris behind with the old generation — and publishes the report.
    pub fn finish(
        mut self,
        head: &impl Encode,
        members: &[&StreamingIndex],
    ) -> PersistResult<MutationLog> {
        match &self.reopen {
            Some(valid_lens) => self.log.wals = self.log.store.open_committed_wals(valid_lens)?,
            None => {
                self.report.repair_checkpoint = true;
                self.log.checkpoint(head, members)?;
            }
        }
        self.report.observe();
        self.log.recovery = Some(self.report);
        Ok(self.log)
    }
}

/// The write-ahead protocol over one [`ShardStore`] root (see the module
/// docs): the store, its open WALs, the sequence counter and the poison
/// flag.  Knows nothing about the state it protects beyond "a head and N
/// [`StreamingIndex`] members".
#[derive(Debug)]
pub struct MutationLog {
    store: ShardStore,
    payload_tag: u32,
    wals: Vec<WalWriter>,
    /// Sequence number of the next WAL record to append.
    next_seq: u64,
    /// Append / fsync counts of WALs already retired by checkpoints, so
    /// the totals stay cumulative across generations.
    retired_appends: u64,
    retired_syncs: u64,
    /// Set when a group append failed after some WAL in the group had
    /// already synced: the durable sequence has a gap, and appending more
    /// records would interleave acknowledged writes with debris.
    poisoned: bool,
    recovery: Option<RecoveryReport>,
}

impl MutationLog {
    /// Commits generation 0 of a fresh root in `dir`: head, one snapshot
    /// and one empty WAL per member, manifest.
    pub fn create(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        payload_tag: u32,
        fingerprint: u64,
        head: &impl Encode,
        members: &[&StreamingIndex],
    ) -> PersistResult<Self> {
        let (head, members) = envelopes(0, head, members);
        let (store, wals) =
            ShardStore::create(vfs, policy, dir, payload_tag, fingerprint, &head, &members)?;
        Ok(MutationLog::over(store, payload_tag, wals, 0))
    }

    fn over(store: ShardStore, payload_tag: u32, wals: Vec<WalWriter>, next_seq: u64) -> Self {
        MutationLog {
            store,
            payload_tag,
            wals,
            next_seq,
            retired_appends: 0,
            retired_syncs: 0,
            poisoned: false,
            recovery: None,
        }
    }

    /// Recovers the root in `dir`: loads the newest readable generation
    /// set, validates its envelopes and returns the state to rebuild from
    /// plus the acknowledged records to replay.  The wrapper rebuilds,
    /// [verifies the fingerprint](Replay::verify_fingerprint), replays and
    /// then calls [`PendingLog::finish`].
    pub fn recover(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        payload_tag: u32,
    ) -> PersistResult<(PendingLog, Replay)> {
        let (store, mut recovered) = ShardStore::recover(vfs, policy, dir, payload_tag, None)?;
        let applied_seq = Reader::new(&recovered.router_payload).read_u64()?;
        let head = recovered.router_payload.split_off(8);

        let mut members = Vec::with_capacity(recovered.shard_payloads.len());
        for (i, payload) in recovered.shard_payloads.iter().enumerate() {
            let mut r = Reader::new(payload);
            let (ordinal, member_seq) = (r.read_u32()?, r.read_u64()?);
            if ordinal != i as u32 {
                return Err(PersistError::Corrupt(format!(
                    "member snapshot {i} carries ordinal {ordinal}"
                )));
            }
            if member_seq != applied_seq {
                return Err(PersistError::Corrupt(format!(
                    "generation set is not a single commit boundary: member {i} snapshot at seq \
                     {member_seq} but head at seq {applied_seq}"
                )));
            }
            members.push(StreamingIndex::decode(&mut r)?);
            r.expect_end()?;
        }

        // Merge the per-WAL chains back into one sequence.  Each record
        // must live on the WAL its sequence number stripes to; anything
        // else is cross-wired debris from outside interference.
        let num_wals = recovered.shard_records.len() as u64;
        let mut merged: Vec<(u64, &[u8])> = Vec::new();
        for (wal, payloads) in recovered.shard_records.iter().enumerate() {
            for payload in payloads {
                let Some(seq) = payload.first_chunk::<8>() else {
                    return Err(PersistError::Corrupt(format!(
                        "wal record of {} bytes on wal {wal} is too short for a sequence number",
                        payload.len()
                    )));
                };
                let seq = u64::from_le_bytes(*seq);
                if seq % num_wals != wal as u64 {
                    return Err(PersistError::Corrupt(format!(
                        "wal record seq {seq} found on wal {wal}, expected wal {}",
                        seq % num_wals
                    )));
                }
                merged.push((seq, payload));
            }
        }
        merged.sort_by_key(|&(seq, _)| seq);

        // The contiguous acknowledged prefix, past what the image covers
        // (a checkpoint whose WAL truncation was interrupted leaves such
        // records behind).  A *gap* on a multi-WAL root means a group
        // commit died between WAL fsyncs: everything at and past it was
        // never acknowledged and is dropped.
        let mut records = Vec::new();
        let mut next_seq = applied_seq;
        let mut debris = false;
        for &(seq, payload) in &merged {
            if seq < applied_seq {
                continue;
            }
            if seq != next_seq {
                if num_wals == 1 {
                    return Err(PersistError::Corrupt(format!(
                        "wal sequence gap: expected record {next_seq}, found {seq}"
                    )));
                }
                debris = true;
                break;
            }
            records.push(decode_record(payload)?.1);
            next_seq += 1;
        }

        let mut report = recovered.report;
        report.records_replayed = records.len();
        let replay = Replay {
            head,
            members,
            records,
            fingerprint: recovered.fingerprint,
        };
        let pending = PendingLog {
            log: MutationLog::over(store, payload_tag, Vec::new(), next_seq),
            reopen: recovered.wal_valid_lens.filter(|_| !debris),
            report,
        };
        Ok((pending, replay))
    }

    /// Errors out (typed, fatal) once the durable sequence is known to
    /// have a gap; every mutating entry point funnels through this.
    pub fn check_usable(&self) -> PersistResult<()> {
        if self.poisoned {
            return Err(PersistError::Corrupt(
                "WAL group commit failed part-way: the durable sequence has a gap; recover from \
                 the root directory"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Logs one record — `encode` builds its payload for the sequence
    /// number it is given — to the WAL it stripes to, and returns that
    /// number.  On `Err` nothing was logged and the sequence did not move.
    pub fn append(&mut self, encode: impl FnOnce(u64) -> Vec<u8>) -> PersistResult<u64> {
        self.check_usable()?;
        let seq = self.next_seq;
        let wal = (seq % self.wals.len() as u64) as usize;
        self.wals[wal].append(&encode(seq))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Group commit: logs a queue of records with **one write and one fsync
    /// per touched WAL**, acknowledged as a unit.  Returns how many records
    /// each WAL received.  On `Err` none is acknowledged; if some WAL had
    /// already synced its slice the log poisons itself.
    pub fn append_group(&mut self, ops: &[MutationRecord]) -> PersistResult<Vec<usize>> {
        self.check_usable()?;
        let num_wals = self.wals.len();
        let mut striped: Vec<Vec<Vec<u8>>> = vec![Vec::new(); num_wals];
        for (seq, op) in (self.next_seq..).zip(ops) {
            striped[(seq % num_wals as u64) as usize].push(encode_record(seq, op.into()));
        }
        let mut wrote_any = false;
        for (wal, group) in self.wals.iter_mut().zip(&striped) {
            if group.is_empty() {
                continue;
            }
            let slices: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
            if let Err(e) = wal.append_group(&slices) {
                // If a WAL earlier in the loop already fsynced its slice,
                // the durable sequence now has a gap.
                self.poisoned = wrote_any;
                return Err(e);
            }
            wrote_any = true;
        }
        self.next_seq += ops.len() as u64;
        Ok(striped.iter().map(Vec::len).collect())
    }

    /// Commits a new generation: head + member snapshots of the current
    /// state stamped with the current sequence number, a fresh empty WAL
    /// per member, and the single manifest flip.  Until the manifest flips
    /// recovery uses the previous generation, whose files are untouched;
    /// afterwards stale records are skipped by their sequence numbers.  A
    /// failed commit leaves the log (and its counters) as it was.
    pub fn checkpoint(
        &mut self,
        head: &impl Encode,
        members: &[&StreamingIndex],
    ) -> PersistResult<()> {
        self.check_usable()?;
        let (head, members) = envelopes(self.next_seq, head, members);
        let wals = self.store.commit(self.payload_tag, &head, &members)?;
        for retired in std::mem::replace(&mut self.wals, wals) {
            self.retired_appends += retired.appends();
            self.retired_syncs += retired.syncs();
        }
        Ok(())
    }

    /// The durability root directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The stream fingerprint stamped on every snapshot and WAL.
    pub fn fingerprint(&self) -> u64 {
        self.store.fingerprint()
    }

    /// The committed snapshot generation.
    pub fn generation(&self) -> u64 {
        self.store.committed()
    }

    /// Sequence number the next mutation batch will be logged under.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of members (and WALs).
    pub fn num_wals(&self) -> usize {
        self.wals.len()
    }

    /// Cumulative WAL record appends across all generations.
    pub fn wal_appends(&self) -> u64 {
        self.retired_appends + self.wals.iter().map(WalWriter::appends).sum::<u64>()
    }

    /// Cumulative WAL fsyncs across all generations.
    pub fn wal_syncs(&self) -> u64 {
        self.retired_syncs + self.wals.iter().map(WalWriter::syncs).sum::<u64>()
    }

    /// What the recovery that produced this log had to do — `None` for a
    /// root created fresh.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }
}
