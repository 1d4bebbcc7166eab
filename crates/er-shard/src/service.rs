//! The sharded streaming service: one mutation pipeline over N posting
//! shards, publishing immutable epoch views to concurrent readers.
//!
//! [`ShardedStreamingService`] wraps the generic
//! [`StreamingMetaBlocker`] over `er-stream`'s hash-partitioned
//! [`ShardedIndex`]: every mutation batch (ingest / remove / update) fans
//! out to the shards owning the touched keys, and the emitted
//! [`DeltaBatch`] is **bit-identical** to the single-shard blocker's for
//! any shard count and any thread count (property tested in
//! `tests/equivalence.rs` against the single-shard oracle and a batch
//! build of the survivors).
//!
//! Every batch and compaction boundary publishes an [`EpochView`] through
//! an ArcSwap-style pointer flip (see [`crate::epoch`]), so readers on
//! other threads never block writers and never observe a half-applied
//! batch.  Durability — per-shard WALs with group commit and an atomic
//! cross-shard manifest — is layered on by
//! [`crate::durable::DurableShardedService`].

use std::sync::Arc;

use er_blocking::{CsrBlockCollection, KeyGenerator};
use er_core::{EntityId, EntityProfile, PersistResult};
use er_features::FeatureSet;
use er_learn::ProbabilisticClassifier;
use er_stream::{
    DeltaBatch, DeltaIndex, MutationRef, ShardedIndex, StreamingConfig, StreamingMetaBlocker,
};

use crate::epoch::{EpochCell, EpochReader, EpochView};

/// A multi-shard streaming meta-blocker with epoch-published reads.
///
/// Construction: [`ShardedStreamingService::new`] for an empty corpus;
/// [`DurableShardedService`](crate::DurableShardedService) recovery wraps
/// a blocker rebuilt from a snapshot instead.  Mutations take
/// `&mut self`; readers obtained from
/// [`reader`](ShardedStreamingService::reader) are `Clone + Send + Sync`
/// and can be polled from any thread.
pub struct ShardedStreamingService<G: KeyGenerator> {
    blocker: StreamingMetaBlocker<G, ShardedIndex>,
    cell: Arc<EpochCell>,
    batches_applied: u64,
}

impl<G: KeyGenerator> std::fmt::Debug for ShardedStreamingService<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStreamingService")
            .field("num_shards", &self.num_shards())
            .field("num_entities", &self.num_entities())
            .field("num_alive", &self.num_alive())
            .field("batches_applied", &self.batches_applied)
            .finish_non_exhaustive()
    }
}

impl<G: KeyGenerator> ShardedStreamingService<G> {
    /// An empty service with `num_shards` posting shards.  Fails if the
    /// generator's block-size cap cannot be honoured by the index (see
    /// [`StreamingMetaBlocker::with_index`]).
    pub fn new(config: StreamingConfig, generator: G, num_shards: usize) -> PersistResult<Self> {
        let cap = generator.max_block_size().unwrap_or(usize::MAX);
        let index = ShardedIndex::new(
            config.dataset_name.clone(),
            config.kind,
            config.split,
            cap,
            num_shards,
        );
        Ok(Self::from_blocker(StreamingMetaBlocker::with_index(
            config, generator, index,
        )?))
    }

    /// Wraps an existing sharded blocker (typically one rebuilt from a
    /// snapshot) and publishes its current state as the initial view.
    pub(crate) fn from_blocker(blocker: StreamingMetaBlocker<G, ShardedIndex>) -> Self {
        let cell = EpochCell::new(EpochView {
            epoch: blocker.index().epoch(),
            batches_applied: 0,
            num_entities: blocker.num_entities(),
            num_alive: blocker.num_alive(),
            baseline: Arc::new(blocker.view()),
            last_delta: None,
        });
        ShardedStreamingService {
            blocker,
            cell,
            batches_applied: 0,
        }
    }

    /// Attaches the classifier scoring future delta pairs.
    pub fn with_model(mut self, model: Box<dyn ProbabilisticClassifier>) -> Self {
        self.blocker = self.blocker.with_model(model);
        self
    }

    /// A cloneable handle to the published epoch views.
    pub fn reader(&self) -> EpochReader {
        EpochReader::new(self.cell.clone())
    }

    /// The most recently published view.
    pub fn current(&self) -> Arc<EpochView> {
        self.cell.load()
    }

    /// The underlying sharded index (read-only).
    pub fn index(&self) -> &ShardedIndex {
        self.blocker.index()
    }

    /// The wrapped blocker (read-only; mutations must go through the
    /// service so every batch publishes a view).
    pub fn blocker(&self) -> &StreamingMetaBlocker<G, ShardedIndex> {
        &self.blocker
    }

    /// Number of posting shards.
    pub fn num_shards(&self) -> usize {
        self.blocker.index().num_shards()
    }

    /// Number of entity ids ever assigned.
    pub fn num_entities(&self) -> usize {
        self.blocker.num_entities()
    }

    /// Number of entities currently alive.
    pub fn num_alive(&self) -> usize {
        self.blocker.num_alive()
    }

    /// The feature set delta pairs are scored with.
    pub fn feature_set(&self) -> FeatureSet {
        self.blocker.feature_set()
    }

    /// Number of mutation batches applied by this service instance.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Ingests a batch of new profiles and publishes the post-batch view.
    pub fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch {
        self.apply(MutationRef::Ingest(profiles), true)
    }

    /// Removes a batch of entities and publishes the post-batch view.
    ///
    /// # Panics
    /// Same contract as [`StreamingMetaBlocker::remove`].
    pub fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch {
        self.apply(MutationRef::Remove(ids), true)
    }

    /// Applies in-place profile updates and publishes the post-batch view.
    ///
    /// # Panics
    /// Same contract as [`StreamingMetaBlocker::update`].
    pub fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch {
        self.apply(MutationRef::Update(updates), true)
    }

    /// Applies one batch — a [`MutationRef`] or a logged
    /// [`MutationRecord`](er_stream::MutationRecord) — and publishes the
    /// post-batch view: the dispatch the durable layer and WAL replay share,
    /// so logged batches cannot take a different code path than live ones.  `score: false` skips the
    /// feature / probability phase (see [`StreamingMetaBlocker::apply`]).
    pub fn apply<'a>(&mut self, mutation: impl Into<MutationRef<'a>>, score: bool) -> DeltaBatch {
        let delta = self.blocker.apply(mutation.into(), score);
        self.publish_batch(&delta);
        delta
    }

    /// The batch view of the current corpus (no state change, nothing
    /// published).
    pub fn view(&self) -> CsrBlockCollection {
        self.blocker.view()
    }

    /// Ends the epoch: folds every shard's deltas into a fresh baseline
    /// (bit-identical to a batch build of the survivors) and publishes it
    /// as the new epoch view.
    pub fn compact(&mut self) -> Arc<CsrBlockCollection> {
        let baseline = Arc::new(self.blocker.compact());
        let o = crate::obs::obs();
        let publish_timer = o.epoch_publish_ns.start_timer();
        self.cell.publish(EpochView {
            epoch: self.blocker.index().epoch(),
            batches_applied: self.batches_applied,
            num_entities: self.blocker.num_entities(),
            num_alive: self.blocker.num_alive(),
            baseline: baseline.clone(),
            last_delta: None,
        });
        publish_timer.observe();
        o.epochs_published.inc();
        o.published_batches.set(self.batches_applied);
        baseline
    }

    fn publish_batch(&mut self, delta: &DeltaBatch) {
        self.batches_applied += 1;
        let o = crate::obs::obs();
        let publish_timer = o.epoch_publish_ns.start_timer();
        let previous = self.cell.load();
        self.cell.publish(EpochView {
            epoch: delta.epoch,
            batches_applied: self.batches_applied,
            num_entities: self.blocker.num_entities(),
            num_alive: self.blocker.num_alive(),
            baseline: previous.baseline.clone(),
            last_delta: Some(Arc::new(delta.clone())),
        });
        publish_timer.observe();
        o.epochs_published.inc();
        o.published_batches.set(self.batches_applied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenKeys;
    use er_core::{Dataset, EntityCollection, GroundTruth};
    use er_stream::MutationRecord;

    fn profile(id: &str, value: &str) -> EntityProfile {
        EntityProfile::new(id).with_attribute("name", value)
    }

    fn dataset() -> Dataset {
        let profiles = vec![
            profile("0", "apple iphone ten"),
            profile("1", "apple iphone x"),
            profile("2", "samsung galaxy phone"),
            profile("3", "galaxy phone samsung"),
        ];
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        Dataset::dirty("svc", EntityCollection::new("svc", profiles), gt).unwrap()
    }

    fn config(dataset: &Dataset) -> StreamingConfig {
        StreamingConfig {
            feature_set: FeatureSet::all_schemes(),
            threads: 1,
            ..StreamingConfig::for_dataset(dataset)
        }
    }

    #[test]
    fn batches_track_the_single_shard_blocker_and_publish_views() {
        let ds = dataset();
        let mut oracle = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        let mut service = ShardedStreamingService::new(config(&ds), TokenKeys, 3).unwrap();
        let reader = service.reader();
        assert_eq!(reader.load().batches_applied, 0);

        for profile in &ds.profiles {
            let expected = oracle.ingest(std::slice::from_ref(profile));
            let got = service.ingest(std::slice::from_ref(profile));
            assert_eq!(expected.pairs, got.pairs);
            assert_eq!(expected.features, got.features);
            assert_eq!(expected.retracted, got.retracted);
            assert_eq!(expected.touched_keys, got.touched_keys);
        }
        let view = reader.load();
        assert_eq!(view.batches_applied, ds.num_entities() as u64);
        assert_eq!(view.num_entities, ds.num_entities());
        assert!(view.last_delta.is_some());

        // A compaction publishes the folded baseline; the delta of the old
        // view stays reachable through the reader's earlier snapshot.
        let compacted = service.compact();
        assert!(compacted.same_blocks(&oracle.compact()));
        let after = reader.load();
        assert!(after.last_delta.is_none());
        assert!(after.baseline.same_blocks(&compacted));
        assert_eq!(view.batches_applied, ds.num_entities() as u64);
    }

    #[test]
    fn apply_dispatches_every_mutation_kind() {
        let ds = dataset();
        let mut a = ShardedStreamingService::new(config(&ds), TokenKeys, 2).unwrap();
        let mut b = ShardedStreamingService::new(config(&ds), TokenKeys, 2).unwrap();
        let steps = vec![
            MutationRecord::Ingest(ds.profiles.clone()),
            MutationRecord::Update(vec![(EntityId(1), profile("1", "samsung galaxy"))]),
            MutationRecord::Remove(vec![EntityId(0)]),
        ];
        for step in &steps {
            let expected = match step {
                MutationRecord::Ingest(p) => a.ingest(p),
                MutationRecord::Remove(ids) => a.remove(ids),
                MutationRecord::Update(u) => a.update(u),
            };
            let got = b.apply(step, true);
            assert_eq!(expected.pairs, got.pairs);
            assert_eq!(expected.retracted, got.retracted);
            assert_eq!(expected.rescored_pairs, got.rescored_pairs);
        }
        assert!(a.compact().same_blocks(&b.compact()));
    }
}
