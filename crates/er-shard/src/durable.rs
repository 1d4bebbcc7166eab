//! Durability for the sharded service: one WAL per shard, group commit,
//! and a cross-shard manifest so every checkpoint is atomic across shards.
//!
//! [`DurableShardedService`] is a face over
//! [`er_stream::persist::MutationLog`], which owns the crash protocol
//! (striping, group commit and poisoning, the checkpoint envelope, merge
//! and gap-tolerant replay, the repair checkpoint — see its module docs).
//! Every posting shard is one member of the root, the **head** is the
//! feature-set id plus the cross-shard router state, and replay is
//! unscored.  A checkpoint flips a single manifest — the only commit
//! point, so no shard can ever recover to a different batch boundary than
//! its siblings (the ALICE-style `crash_points` suite kills the
//! process at every VFS operation of a sharded checkpoint and asserts
//! exactly that).
//!
//! With `num_shards = 1` this is also the durable *unsharded* blocker: one
//! member, one WAL, and replay through the same dispatch.
//!
//! Striping records round-robin over the per-shard WALs is what makes
//! **group commit** effective:
//! [`apply_group`](DurableShardedService::apply_group) costs one write and
//! one fsync per *touched WAL*, so a group of `k ≥ num_shards` batches
//! costs `num_shards` fsyncs instead of `k`, i.e. strictly fewer than one
//! fsync per batch (measured by the `micro_shard` bench).

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use er_blocking::{CsrBlockCollection, KeyGenerator};
use er_core::{crc64, EntityId, EntityProfile, PersistResult};
use er_features::FeatureSet;
use er_learn::ProbabilisticClassifier;
use er_persist::{
    decode_snapshot_payload, Decode, Encode, Reader, RecoveryReport, RetryPolicy, StdVfs, Vfs,
    Writer,
};
use er_stream::persist::{decode_feature_set, encode_record, MutationLog};
use er_stream::{
    DeltaBatch, DeltaIndex, MutationRecord, MutationRef, ShardRouterState, ShardedIndex,
    StreamingIndex, StreamingMetaBlocker,
};

use crate::epoch::{EpochReader, EpochView};
use crate::service::ShardedStreamingService;

/// Payload tag of sharded-service snapshots (`b"SHRD"`).
pub(crate) const SHARDED_SNAPSHOT_TAG: u32 = 0x5348_5244;

/// The fingerprint tying a sharded generation set to one logical stream: a
/// digest of the dataset name, ER kind, Clean-Clean split, scheme cap and
/// shard count.  The shard count is part of the identity — re-sharding is
/// a rebuild, not a recovery.
pub(crate) fn sharded_fingerprint(index: &ShardedIndex) -> u64 {
    let mut w = Writer::new();
    w.write_str(index.dataset_name());
    index.kind().encode(&mut w);
    w.write_usize(index.split());
    w.write_u64(index.size_cap() as u64);
    w.write_u32(index.num_shards() as u32);
    crc64(w.as_bytes())
}

/// The head snapshot: the cross-shard state that is not owned by any
/// single shard.
struct RouterHead {
    feature_set: FeatureSet,
    state: ShardRouterState,
}

impl Encode for RouterHead {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(self.feature_set.id());
        self.state.encode(w);
    }
}

impl Decode for RouterHead {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(RouterHead {
            feature_set: decode_feature_set(r)?,
            state: ShardRouterState::decode(r)?,
        })
    }
}

/// The head and the member indexes (one per posting shard) of the current
/// state — what `persist_to` and every checkpoint commit.
fn snapshot_parts<G: KeyGenerator>(
    service: &ShardedStreamingService<G>,
) -> (RouterHead, Vec<&StreamingIndex>) {
    let index = service.index();
    let head = RouterHead {
        feature_set: service.feature_set(),
        state: index.router_state(),
    };
    let members = (0..index.num_shards()).map(|i| index.shard(i)).collect();
    (head, members)
}

/// A [`ShardedStreamingService`] whose mutations are write-ahead logged
/// across per-shard WALs and whose checkpoints commit atomically through
/// one cross-shard manifest.
///
/// Construction: [`ShardedStreamingService::persist_to`] for a fresh
/// store, [`DurableShardedService::recover_from`] after a restart or
/// crash.
pub struct DurableShardedService<G: KeyGenerator> {
    service: ShardedStreamingService<G>,
    log: MutationLog,
}

impl<G: KeyGenerator> fmt::Debug for DurableShardedService<G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableShardedService")
            .field("service", &self.service)
            .field("log", &self.log)
            .finish()
    }
}

impl<G: KeyGenerator> ShardedStreamingService<G> {
    /// Persists the service into `dir` (which must not already hold a
    /// store), committing generation 0 and returning the durable wrapper.
    pub fn persist_to(self, dir: impl AsRef<Path>) -> PersistResult<DurableShardedService<G>> {
        self.persist_to_with(dir, StdVfs::arc(), RetryPolicy::default_write())
    }

    /// [`persist_to`](ShardedStreamingService::persist_to) through an
    /// explicit VFS and write-path retry policy (the fault-injection
    /// seam).
    pub fn persist_to_with(
        self,
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
    ) -> PersistResult<DurableShardedService<G>> {
        let (head, members) = snapshot_parts(&self);
        let log = MutationLog::create(
            dir.as_ref(),
            vfs,
            policy,
            SHARDED_SNAPSHOT_TAG,
            sharded_fingerprint(self.index()),
            &head,
            &members,
        )?;
        Ok(DurableShardedService { service: self, log })
    }
}

impl<G: KeyGenerator> DurableShardedService<G> {
    /// Recovers a durable sharded service from `dir`: loads the newest
    /// readable generation set, merges the per-shard WAL chains by
    /// sequence number and replays the acknowledged prefix.
    pub fn recover_from(
        dir: impl AsRef<Path>,
        generator: G,
        threads: usize,
    ) -> PersistResult<Self> {
        DurableShardedService::recover_from_with(
            dir,
            StdVfs::arc(),
            RetryPolicy::default_write(),
            generator,
            threads,
        )
    }

    /// [`recover_from`](DurableShardedService::recover_from) through an
    /// explicit VFS and write-path retry policy (the fault-injection
    /// seam).
    pub fn recover_from_with(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        generator: G,
        threads: usize,
    ) -> PersistResult<Self> {
        let (pending, mut replay) =
            MutationLog::recover(dir.as_ref(), vfs, policy, SHARDED_SNAPSHOT_TAG)?;
        let head: RouterHead = decode_snapshot_payload(&replay.head)?;
        let index = ShardedIndex::from_parts(std::mem::take(&mut replay.members), head.state)?;
        replay.verify_fingerprint(sharded_fingerprint(&index))?;
        let blocker =
            StreamingMetaBlocker::from_recovered(index, generator, head.feature_set, threads)?;
        let mut service = ShardedStreamingService::from_blocker(blocker);
        for record in &replay.records {
            service.apply(record, false);
        }
        let (head, members) = snapshot_parts(&service);
        let log = pending.finish(&head, &members)?;
        Ok(DurableShardedService { service, log })
    }

    /// Logs an ingest batch, then applies it and publishes the post-batch
    /// view.
    pub fn ingest(&mut self, profiles: &[EntityProfile]) -> PersistResult<DeltaBatch> {
        self.log_and_apply(MutationRef::Ingest(profiles))
    }

    /// Logs a removal batch, then applies it.
    ///
    /// # Panics
    /// Same contract as `StreamingMetaBlocker::remove` (unknown, removed
    /// or duplicate ids) — asserted **before** the WAL append, so an
    /// invalid batch never poisons the log.
    pub fn remove(&mut self, ids: &[EntityId]) -> PersistResult<DeltaBatch> {
        self.service.blocker().assert_remove_batch(ids);
        self.log_and_apply(MutationRef::Remove(ids))
    }

    /// Logs an update batch, then applies it.
    ///
    /// # Panics
    /// Same contract as `StreamingMetaBlocker::update` — asserted before
    /// the WAL append.
    pub fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> PersistResult<DeltaBatch> {
        self.service.blocker().assert_update_batch(updates);
        self.log_and_apply(MutationRef::Update(updates))
    }

    fn log_and_apply(&mut self, mutation: MutationRef<'_>) -> PersistResult<DeltaBatch> {
        self.log.append(|seq| encode_record(seq, mutation))?;
        Ok(self.service.apply(mutation, true))
    }

    /// Group commit: logs a queue of mutation batches with **one write and
    /// one fsync per touched WAL** (not per batch), then applies them in
    /// order, returning each batch's delta.
    ///
    /// The group is acknowledged as a unit: on `Ok`, every batch is
    /// durable and applied.  On `Err` nothing was applied; if some WAL in
    /// the group had already synced, the service poisons itself (see the
    /// `MutationLog` docs) and must be recovered from its directory.
    ///
    /// # Panics
    /// Each batch is validated against the state the *preceding* batches
    /// in the group will produce, with the same contracts as the
    /// individual methods — asserted before any WAL append.
    pub fn apply_group(&mut self, ops: &[MutationRecord]) -> PersistResult<Vec<DeltaBatch>> {
        self.log.check_usable()?;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        self.assert_group(ops);
        let striped = self.log.append_group(ops)?;

        let o = crate::obs::obs();
        for (shard, &records) in striped.iter().enumerate() {
            o.queue_depth
                .with_label(&shard.to_string())
                .set(records as u64);
            if records > 0 {
                o.wal_records.record(records as u64);
            }
        }
        o.groups_applied.inc();
        o.group_batches.record(ops.len() as u64);
        o.group_fsyncs
            .record(striped.iter().filter(|&&records| records > 0).count() as u64);
        Ok(ops.iter().map(|op| self.service.apply(op, true)).collect())
    }

    /// Validates a whole group against the states the group itself will
    /// produce: batch `i` must be valid *after* batches `0..i` have been
    /// applied, tracked with a projected entity count and a killed-id
    /// overlay rather than by mutating the service.
    fn assert_group(&self, ops: &[MutationRecord]) {
        let base = self.service.num_entities();
        let mut projected = base;
        let mut killed: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let index = self.service.index();
        let alive = |e: EntityId, projected: usize, killed: &std::collections::HashSet<u32>| {
            e.index() < projected
                && !killed.contains(&e.0)
                && (e.index() >= base || er_stream::DeltaIndex::is_alive(index, e))
        };
        for op in ops {
            match op {
                MutationRecord::Ingest(profiles) => {
                    projected += profiles.len();
                }
                MutationRecord::Remove(ids) => {
                    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
                    for &e in ids {
                        assert!(e.index() < projected, "cannot remove unknown entity {e}");
                        assert!(
                            alive(e, projected, &killed),
                            "cannot remove entity {e} twice"
                        );
                        assert!(seen.insert(e.0), "duplicate ids in remove batch");
                    }
                    killed.extend(ids.iter().map(|e| e.0));
                }
                MutationRecord::Update(updates) => {
                    let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
                    for &(e, _) in updates {
                        assert!(e.index() < projected, "cannot update unknown entity {e}");
                        assert!(
                            alive(e, projected, &killed),
                            "cannot update removed entity {e}"
                        );
                        assert!(seen.insert(e.0), "duplicate ids in update batch");
                    }
                }
            }
        }
    }

    /// Commits a new generation: a head + per-shard snapshot set of the
    /// current state, a fresh empty WAL per shard, and the single manifest
    /// flip that makes all of it the committed boundary atomically.
    pub fn checkpoint(&mut self) -> PersistResult<()> {
        self.log.check_usable()?;
        let o = crate::obs::obs();
        o.checkpoints.inc();
        let timer = o.checkpoint_ns.start_timer();
        let (head, members) = snapshot_parts(&self.service);
        self.log.checkpoint(&head, &members)?;
        timer.observe();
        Ok(())
    }

    /// Ends the epoch durably: folds the deltas into a fresh baseline,
    /// publishes it, and checkpoints so recovery starts from the compacted
    /// state.
    pub fn compact(&mut self) -> PersistResult<Arc<CsrBlockCollection>> {
        self.log.check_usable()?;
        let baseline = self.service.compact();
        self.checkpoint()?;
        Ok(baseline)
    }

    /// Attaches the classifier scoring future delta pairs.
    pub fn with_model(mut self, model: Box<dyn ProbabilisticClassifier>) -> Self {
        self.service = self.service.with_model(model);
        self
    }

    /// Cumulative WAL record appends across all generations.
    pub fn wal_appends(&self) -> u64 {
        self.log.wal_appends()
    }

    /// Cumulative WAL fsyncs across all generations — with group commit
    /// this grows by at most `num_shards` per applied group, not by the
    /// group's batch count.
    pub fn wal_syncs(&self) -> u64 {
        self.log.wal_syncs()
    }

    /// Sequence number the next mutation batch will be logged under.
    pub fn wal_sequence(&self) -> u64 {
        self.log.next_seq()
    }

    /// What the recovery that produced this service had to do — `None`
    /// for a service created fresh by `persist_to`.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.log.recovery_report()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// The stream fingerprint stamped on every snapshot and WAL.
    pub fn fingerprint(&self) -> u64 {
        self.log.fingerprint()
    }

    /// The committed snapshot generation.
    pub fn generation(&self) -> u64 {
        self.log.generation()
    }

    /// Number of posting shards (and WALs).
    pub fn num_shards(&self) -> usize {
        self.log.num_wals()
    }

    /// The wrapped service (read-only; mutations must go through the
    /// durable methods so they hit the log).
    pub fn service(&self) -> &ShardedStreamingService<G> {
        &self.service
    }

    /// A cloneable handle to the published epoch views.
    pub fn reader(&self) -> EpochReader {
        self.service.reader()
    }

    /// The most recently published view.
    pub fn current(&self) -> Arc<EpochView> {
        self.service.current()
    }

    /// The underlying sharded index.
    pub fn index(&self) -> &ShardedIndex {
        self.service.index()
    }

    /// The batch view of the current corpus.
    pub fn view(&self) -> CsrBlockCollection {
        self.service.view()
    }

    /// Number of entity ids ever assigned.
    pub fn num_entities(&self) -> usize {
        self.service.num_entities()
    }

    /// Number of entities currently alive.
    pub fn num_alive(&self) -> usize {
        self.service.num_alive()
    }
}
