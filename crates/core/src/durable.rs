//! Durability for the whole streaming pipeline: the blocking index, the
//! trained model and the progressive schedule survive a crash.
//!
//! [`DurableStreamingPipeline`] is a face over
//! [`er_stream::persist::MutationLog`] (which owns the crash protocol —
//! see its module docs): the index is the root's one member, the **head**
//! carries the feature-set id, the model, the schedule (queued + emitted)
//! and the cleaned pool, and replay drives the logged batches through the
//! *scored* [`StreamingPipeline`] paths, so the classifier re-scores every
//! replayed delta and the schedule (and cleaned live view, when enabled)
//! re-derives exactly the state of the never-crashed run.
//!
//! What is durable when:
//!
//! * **mutations** are durable the moment the call returns (WAL append +
//!   fsync before the in-memory apply);
//! * **schedule consumption** ([`DurableStreamingPipeline::next_batch`]) is
//!   durable from the last [`checkpoint`](DurableStreamingPipeline::checkpoint)
//!   — pairs drained after it are re-emitted after a crash (at-least-once
//!   delivery).  Checkpoint after draining when exactly-once matters.
//!
//! The cleaned live view is *derived* state: it is rebuilt from the
//! recovered index (a full [`LiveView`] refresh) rather than persisted,
//! which is exact because the view is a pure function of the index.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use er_blocking::{CsrBlockCollection, TokenKeys};
use er_core::{EntityId, EntityProfile, FxHashMap, PersistResult};
use er_features::FeatureSet;
use er_learn::SavedModel;
use er_persist::{
    decode_snapshot_payload, Decode, Encode, Reader, RecoveryReport, RetryPolicy, StdVfs, Vfs,
    Writer,
};
use er_stream::persist::{decode_feature_set, encode_record, stream_fingerprint, MutationLog};
use er_stream::{DeltaBatch, DeltaIndex, MutationRef, StreamingMetaBlocker};

use crate::live_view::LiveView;
use crate::progressive::StreamingSchedule;
use crate::streaming::{CleanedState, StreamingPipeline};

/// Snapshot payload tag for pipeline snapshots (distinct from the sharded
/// service's tag, so the two kinds of root never mix).
pub(crate) const PIPELINE_SNAPSHOT_TAG: u32 = 0x5050_4c31; // "PPL1"

/// The head snapshot: everything a pipeline needs beyond its index and the
/// WAL.
struct PipelineHead<'a> {
    feature_set: FeatureSet,
    model: Cow<'a, SavedModel>,
    queued: Vec<((EntityId, EntityId), f64)>,
    emitted: Vec<(EntityId, EntityId)>,
    /// `Some(pool)` iff the pipeline runs in cleaned mode.
    pool: Option<Vec<((EntityId, EntityId), f64)>>,
}

impl<'a> PipelineHead<'a> {
    /// Captures the pipeline's persistent state outside the index (shared
    /// by the initial `persist_to` snapshot and every checkpoint).
    fn capture(pipeline: &'a StreamingPipeline) -> Self {
        PipelineHead {
            feature_set: pipeline.blocker().feature_set(),
            model: Cow::Borrowed(&pipeline.model),
            queued: pipeline.schedule.queued_entries(),
            emitted: pipeline.schedule.emitted_pairs(),
            pool: pipeline.cleaned.as_ref().map(|state| {
                let mut pool: Vec<((EntityId, EntityId), f64)> =
                    state.pool.iter().map(|(&pair, &p)| (pair, p)).collect();
                pool.sort_unstable_by_key(|entry| entry.0);
                pool
            }),
        }
    }
}

impl Encode for PipelineHead<'_> {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(self.feature_set.id());
        self.model.encode(w);
        self.queued.encode(w);
        self.emitted.encode(w);
        self.pool.encode(w);
    }
}

impl Decode for PipelineHead<'static> {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(PipelineHead {
            feature_set: decode_feature_set(r)?,
            model: Cow::Owned(SavedModel::decode(r)?),
            queued: Vec::<((EntityId, EntityId), f64)>::decode(r)?,
            emitted: Vec::<(EntityId, EntityId)>::decode(r)?,
            pool: Option::<Vec<((EntityId, EntityId), f64)>>::decode(r)?,
        })
    }
}

/// A [`StreamingPipeline`] with crash durability (snapshot + WAL).
///
/// Created by [`StreamingPipeline::persist_to`] after bootstrapping, or by
/// [`DurableStreamingPipeline::recover_from`] after a restart.
pub struct DurableStreamingPipeline {
    inner: StreamingPipeline,
    log: MutationLog,
}

impl std::fmt::Debug for DurableStreamingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStreamingPipeline")
            .field("dir", &self.log.dir())
            .field("fingerprint", &self.log.fingerprint())
            .field("generation", &self.log.generation())
            .field("next_seq", &self.log.next_seq())
            .field("num_entities", &self.inner.num_entities())
            .finish_non_exhaustive()
    }
}

impl StreamingPipeline {
    /// Makes the pipeline durable, rooted at `dir`: commits generation 0
    /// (snapshots of index, model, schedule and cleaned pool + fresh
    /// write-ahead log + manifest) on the production filesystem.
    pub fn persist_to(self, dir: impl AsRef<Path>) -> PersistResult<DurableStreamingPipeline> {
        self.persist_to_with(dir, StdVfs::arc(), RetryPolicy::default_write())
    }

    /// [`persist_to`](StreamingPipeline::persist_to) through an explicit
    /// VFS and write-path retry policy (the fault-injection seam).
    pub fn persist_to_with(
        self,
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
    ) -> PersistResult<DurableStreamingPipeline> {
        let index = self.blocker().index();
        let log = MutationLog::create(
            dir.as_ref(),
            vfs,
            policy,
            PIPELINE_SNAPSHOT_TAG,
            stream_fingerprint(index),
            &PipelineHead::capture(&self),
            &[index],
        )?;
        Ok(DurableStreamingPipeline { inner: self, log })
    }
}

impl DurableStreamingPipeline {
    /// Recovers a durable pipeline: loads the newest readable snapshot
    /// generation (index, model, schedule, pool), rebuilds the derived
    /// state (blocker wiring, cleaned live view) and replays the WAL chain
    /// through the scored pipeline paths.  A corrupt newest generation is
    /// quarantined and the previous one used instead.
    pub fn recover_from(dir: impl AsRef<Path>, threads: usize) -> PersistResult<Self> {
        DurableStreamingPipeline::recover_from_with(
            dir,
            StdVfs::arc(),
            RetryPolicy::default_write(),
            threads,
        )
    }

    /// [`recover_from`](DurableStreamingPipeline::recover_from) through an
    /// explicit VFS and write-path retry policy (the fault-injection
    /// seam).
    pub fn recover_from_with(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        threads: usize,
    ) -> PersistResult<Self> {
        let (pending, mut replay) =
            MutationLog::recover(dir.as_ref(), vfs, policy, PIPELINE_SNAPSHOT_TAG)?;
        let head: PipelineHead = decode_snapshot_payload(&replay.head)?;
        let index = replay.take_only_member()?;
        replay.verify_fingerprint(stream_fingerprint(&index))?;

        let model = head.model.into_owned();
        let blocker =
            StreamingMetaBlocker::from_recovered(index, TokenKeys, head.feature_set, threads)?
                .with_model(Box::new(model.clone()));
        let schedule = StreamingSchedule::restore(&head.queued, &head.emitted);
        let cleaned = head.pool.map(|pool| CleanedState {
            view: LiveView::with_default_ratio(blocker.index()),
            pool: pool.into_iter().collect::<FxHashMap<_, _>>(),
        });
        let mut inner = StreamingPipeline {
            blocker,
            schedule,
            cleaned,
            model,
        };

        // Replay through the *scored* pipeline paths: the re-attached
        // model reproduces every probability, so the schedule and view
        // move exactly as in the original run.
        for record in &replay.records {
            inner.apply(record.into());
        }
        let log = pending.finish(&PipelineHead::capture(&inner), &[inner.blocker().index()])?;
        Ok(DurableStreamingPipeline { inner, log })
    }

    /// The durability root directory.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// The committed snapshot generation.
    pub fn generation(&self) -> u64 {
        self.log.generation()
    }

    /// What the recovery that produced this pipeline had to do — `None`
    /// for a pipeline created fresh by `persist_to`.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.log.recovery_report()
    }

    /// Sequence number the next mutation batch will be logged under.
    pub fn wal_sequence(&self) -> u64 {
        self.log.next_seq()
    }

    /// The wrapped pipeline (read-only; mutations must go through the
    /// durable methods so they hit the log).
    pub fn pipeline(&self) -> &StreamingPipeline {
        &self.inner
    }

    /// Detaches the in-memory pipeline, abandoning durability.
    pub fn into_inner(self) -> StreamingPipeline {
        self.inner
    }

    /// Logs one ingest batch, then applies it through the pipeline.
    pub fn ingest(&mut self, profiles: &[EntityProfile]) -> PersistResult<DeltaBatch> {
        self.log_and_apply(MutationRef::Ingest(profiles))
    }

    /// Logs one removal batch, then applies it through the pipeline.
    ///
    /// # Panics
    /// Same contract as `StreamingPipeline::remove` (unknown, removed or
    /// duplicate ids) — asserted **before** the WAL append, so an invalid
    /// batch never poisons the log.
    pub fn remove(&mut self, ids: &[EntityId]) -> PersistResult<DeltaBatch> {
        self.inner.blocker().assert_remove_batch(ids);
        self.log_and_apply(MutationRef::Remove(ids))
    }

    /// Logs one update batch, then applies it through the pipeline.
    ///
    /// # Panics
    /// Same contract as `StreamingPipeline::update` — asserted **before**
    /// the WAL append, so an invalid batch never poisons the log.
    pub fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> PersistResult<DeltaBatch> {
        self.inner.blocker().assert_update_batch(updates);
        self.log_and_apply(MutationRef::Update(updates))
    }

    fn log_and_apply(&mut self, mutation: MutationRef<'_>) -> PersistResult<DeltaBatch> {
        self.log.append(|seq| encode_record(seq, mutation))?;
        Ok(self.inner.apply(mutation))
    }

    /// Emits the next up-to-`budget` comparisons (see
    /// [`StreamingPipeline::next_batch`]).  Consumption becomes durable at
    /// the next [`DurableStreamingPipeline::checkpoint`].
    pub fn next_batch(&mut self, budget: usize) -> Vec<((EntityId, EntityId), f64)> {
        self.inner.next_batch(budget)
    }

    /// Commits a new generation: fresh snapshots (index, model, schedule,
    /// pool), an empty WAL for it, and the manifest flip.
    pub fn checkpoint(&mut self) -> PersistResult<()> {
        let index = self.inner.blocker().index();
        assert!(
            !index.has_open_batch(),
            "checkpoint during an unfinished mutation batch"
        );
        self.log
            .checkpoint(&PipelineHead::capture(&self.inner), &[index])
    }

    /// Folds the accumulated deltas into a fresh baseline CSR and makes the
    /// compaction the snapshot/truncation point of the log.
    pub fn compact(&mut self) -> PersistResult<CsrBlockCollection> {
        let csr = self.inner.compact();
        self.checkpoint()?;
        Ok(csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MetaBlockingConfig;
    use er_blocking::build_blocks;
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    use er_stream::dataset_prefix;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(test: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("durable-pipeline-{test}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dataset() -> er_core::Dataset {
        generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap()
    }

    fn config() -> MetaBlockingConfig {
        MetaBlockingConfig {
            per_class: 15,
            threads: Some(2),
            ..Default::default()
        }
    }

    /// Drains a schedule completely, returning the emission sequence.
    fn drain(pipeline: &mut StreamingPipeline) -> Vec<((EntityId, EntityId), f64)> {
        let mut out = Vec::new();
        while let Some(item) = pipeline.schedule.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn restarted_pipeline_matches_the_never_crashed_run() {
        let ds = dataset();
        let seed_count = ds.split + (ds.num_entities() - ds.split) / 2;
        let seed = dataset_prefix(&ds, seed_count);

        // Reference: bootstrap + stream + churn without any persistence.
        let mut reference = StreamingPipeline::bootstrap(&config(), &seed).unwrap();
        // Durable twin: crash and recover at every batch boundary.
        let dir = scratch("restart");
        let mut durable = StreamingPipeline::bootstrap(&config(), &seed)
            .unwrap()
            .persist_to(&dir)
            .unwrap();

        let mut cursor = seed_count;
        let mut step = 0usize;
        while cursor < ds.num_entities() {
            let take = 23.min(ds.num_entities() - cursor);
            let chunk = &ds.profiles[cursor..cursor + take];
            cursor += take;
            let expected = reference.ingest(chunk);
            let actual = durable.ingest(chunk).unwrap();
            assert_eq!(actual.pairs, expected.pairs);
            assert_eq!(actual.probabilities, expected.probabilities);
            step += 1;
            if step.is_multiple_of(2) {
                drop(durable);
                durable = DurableStreamingPipeline::recover_from(&dir, 2).unwrap();
            }
        }
        // Churn with a crash in the middle.
        let removed = [EntityId((ds.num_entities() - 1) as u32)];
        reference.remove(&removed);
        durable.remove(&removed).unwrap();
        drop(durable);
        let mut durable = DurableStreamingPipeline::recover_from(&dir, 4).unwrap();
        let updated = vec![(EntityId(ds.split as u32), ds.profiles[0].clone())];
        reference.update(&updated);
        durable.update(&updated).unwrap();

        // The schedules drain identically (same pairs, same probabilities,
        // same order) and the compacted corpora are bit-identical.
        let mut recovered = durable.into_inner();
        assert_eq!(
            recovered.schedule().pending(),
            reference.schedule().pending()
        );
        assert_eq!(drain(&mut recovered), drain(&mut reference));
        assert!(recovered.compact().same_blocks(&reference.compact()));
    }

    #[test]
    fn cleaned_pipeline_recovers_view_and_schedule() {
        let ds = dataset();
        let seed_count = ds.split + (ds.num_entities() - ds.split) / 2;
        let seed = dataset_prefix(&ds, seed_count);
        let mut reference = StreamingPipeline::bootstrap_cleaned(&config(), &seed).unwrap();
        let dir = scratch("cleaned");
        let mut durable = StreamingPipeline::bootstrap_cleaned(&config(), &seed)
            .unwrap()
            .persist_to(&dir)
            .unwrap();

        for chunk in ds.profiles[seed_count..].chunks(31) {
            reference.ingest(chunk);
            durable.ingest(chunk).unwrap();
            drop(durable);
            durable = DurableStreamingPipeline::recover_from(&dir, 2).unwrap();
        }
        let removed = [EntityId((ds.num_entities() - 2) as u32)];
        reference.remove(&removed);
        durable.remove(&removed).unwrap();
        drop(durable);
        let durable = DurableStreamingPipeline::recover_from(&dir, 1).unwrap();

        // The recovered live view equals the incrementally maintained one,
        // and both equal the batch cleaned workflow of the survivors.
        let survivors = er_stream::surviving_dataset(&ds, &removed, &[]);
        let (_, stats) = er_blocking::standard_blocking_workflow_csr(&survivors, 2);
        let batch_pairs = er_blocking::CandidatePairs::from_stats(&stats, 2);
        let mut recovered = durable.into_inner();
        assert_eq!(
            recovered.live_view().unwrap().candidate_pairs().as_slice(),
            batch_pairs.pairs()
        );
        assert_eq!(
            recovered.live_view().unwrap().candidate_pairs(),
            reference.live_view().unwrap().candidate_pairs()
        );
        assert_eq!(drain(&mut recovered), drain(&mut reference));
        let batch = build_blocks(&survivors, &TokenKeys, 2);
        assert!(recovered.compact().same_blocks(&batch));
    }

    #[test]
    fn consumption_is_durable_at_checkpoints() {
        let ds = dataset();
        let seed = dataset_prefix(&ds, ds.split + 30);
        let dir = scratch("consumption");
        let mut durable = StreamingPipeline::bootstrap(&config(), &seed)
            .unwrap()
            .persist_to(&dir)
            .unwrap();
        durable
            .ingest(&ds.profiles[durable.pipeline().num_entities()..])
            .unwrap();

        // Drain a prefix, checkpoint, crash: the drained pairs must stay
        // emitted after recovery (no duplicate delivery).
        let drained = durable.next_batch(25);
        assert_eq!(drained.len(), 25);
        durable.checkpoint().unwrap();
        let pending_at_checkpoint = durable.pipeline().schedule().pending();
        drop(durable);
        let mut durable = DurableStreamingPipeline::recover_from(&dir, 2).unwrap();
        assert_eq!(durable.pipeline().schedule().emitted(), 25);
        assert_eq!(
            durable.pipeline().schedule().pending(),
            pending_at_checkpoint
        );
        let rest = durable.next_batch(usize::MAX);
        let mut all: Vec<(EntityId, EntityId)> = drained
            .iter()
            .chain(rest.iter())
            .map(|&(pair, _)| pair)
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a pair was delivered twice");

        // Without a checkpoint, post-crash delivery is at-least-once: the
        // pairs drained after the last checkpoint come back.
        durable.checkpoint().unwrap();
        let replayed = durable.next_batch(usize::MAX);
        assert!(replayed.is_empty());
    }
}
