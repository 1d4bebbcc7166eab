//! The streaming meta-blocking pipeline: ingest, remove and update entity
//! batches; emit delta candidate additions, retractions and re-scored
//! survivors with feature vectors and classifier probabilities.

use er_blocking::{CsrBlockCollection, KeyGenerator, KeyScratch};
use er_core::{Dataset, DatasetKind, EntityId, EntityProfile, FxHashMap, FxHashSet, GroundTruth};
use er_features::{
    write_features_from, EntityAggregates, FeatureSet, PairCooccurrence, ScoreboardConfig,
};
use er_learn::ProbabilisticClassifier;

use crate::delta::DeltaIndex;
use crate::index::{PartnerBoard, StreamingIndex};
use crate::persist::MutationRef;

/// The grain of the blocker's per-entity phases: one worker per this many
/// entities of a batch, so a batch of fewer than `2 ·` this many runs every
/// phase on the calling thread (see [`er_core::workers_for`]).
///
/// Chosen from batch-size sweeps of the bare blocker on a 50 000-entity
/// `scal-300000` corpus on 2 vCPUs (README, "Streaming architecture"):
/// splitting a batch across 2 workers instead of running it on 1 made the
/// per-op p50 1.1–2.5× slower at 16–512 entities and 0.9–1.2× at 1 024;
/// from 2 048 entities on it broke even (0.92–1.07×), and at 4 096–8 192 it
/// won up to 16 %.  Mutations of tens or hundreds of entities therefore
/// start no thread, while bootstrap ingests and trims of thousands of
/// entities still split across up to `threads` workers.
pub const MIN_ENTITIES_PER_WORKER: usize = 1024;

/// Configuration of a [`StreamingMetaBlocker`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Name recorded on every emitted block collection.
    pub dataset_name: String,
    /// Clean-Clean or Dirty ER.
    pub kind: DatasetKind,
    /// Fixed E1/E2 boundary of the entity id space (Clean-Clean only):
    /// ingested entities with an id below `split` belong to E1.  Ignored for
    /// Dirty ER, where the boundary is always the current corpus size.
    pub split: usize,
    /// The weighting schemes forming each delta pair's feature vector.
    pub feature_set: FeatureSet,
    /// Upper bound on the worker threads of partner gathering and
    /// compaction.  A batch's per-entity phases start one worker per
    /// [`MIN_ENTITIES_PER_WORKER`] entities, at most this many, and run on
    /// the calling thread below two grains.  Deterministic: neither the
    /// thread count nor the split ever changes any output.
    pub threads: usize,
    /// Scoreboard configuration for the per-batch delta partner pass (the
    /// cache-blocked radix discovery board; `tile_entities` sizes its
    /// tiles).  Output is bit-identical for every configuration.
    pub scoreboard: ScoreboardConfig,
}

impl StreamingConfig {
    /// A configuration matching a dataset's shape (name, kind, split), with
    /// the paper's BLAST-optimal feature set and the default thread count.
    pub fn for_dataset(dataset: &Dataset) -> Self {
        StreamingConfig {
            dataset_name: dataset.name.clone(),
            kind: dataset.kind,
            split: dataset.split,
            feature_set: FeatureSet::blast_optimal(),
            threads: er_core::available_threads(),
            scoreboard: ScoreboardConfig::default(),
        }
    }
}

/// The incremental output of one [`StreamingMetaBlocker`] mutation batch
/// (ingest, remove or update).
///
/// Three channels describe how the candidate set moved:
///
/// * **additions** (`pairs`) — pairs that became candidates during the
///   batch; `pairs[i]`'s feature vector is
///   `features[i * width..(i + 1) * width]` with
///   `width = feature_set.vector_len()`, and `probabilities[i]` is its
///   classifier probability when a model is attached (empty otherwise);
/// * **retractions** (`retracted`) — previously emitted pairs that ceased
///   to be candidates (a block crossed the scheme's size cap, a removal or
///   re-keying update withdrew their support);
/// * **re-scored survivors** (`rescored_pairs`) — pairs that stayed
///   candidates through an update of one of their endpoints; their features
///   and probabilities are re-emitted against the end-of-batch state.
///
/// For ingest batches, additions are grouped by their newly ingested
/// (larger) endpoint in ascending id order, partners ascending within each
/// group, followed by any revived pairs in canonical order; for remove and
/// update batches all three channels are sorted canonically (smaller
/// entity first, pairs ascending).
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// The compaction epoch the batch was applied in.
    pub epoch: u64,
    /// Id of the first entity ingested by this batch (the corpus size
    /// before the batch when nothing was ingested).
    pub first_id: EntityId,
    /// Number of entities ingested by this call.
    pub num_ingested: usize,
    /// Number of entities removed by this call.
    pub num_removed: usize,
    /// Number of entities re-keyed (updated) by this call.
    pub num_updated: usize,
    /// Width of each feature row (`feature_set.vector_len()`).
    pub feature_width: usize,
    /// The new candidate pairs, smaller entity first.
    pub pairs: Vec<(EntityId, EntityId)>,
    /// Row-major feature matrix of the new pairs.
    pub features: Vec<f64>,
    /// Classifier probability per new pair (empty when no model is
    /// attached).
    pub probabilities: Vec<f64>,
    /// Surviving pairs re-scored because an endpoint was updated.
    pub rescored_pairs: Vec<(EntityId, EntityId)>,
    /// Row-major feature matrix of the re-scored pairs.
    pub rescored_features: Vec<f64>,
    /// Classifier probability per re-scored pair (empty without a model).
    pub rescored_probabilities: Vec<f64>,
    /// Previously emitted pairs that ceased to be candidates during this
    /// batch.
    pub retracted: Vec<(EntityId, EntityId)>,
    /// Stream key ids whose postings or statistics changed during the
    /// batch, sorted ascending — the dirty set an incremental view needs.
    pub touched_keys: Vec<u32>,
    /// Ids of the entities removed or updated by this batch (ingested ids
    /// are derivable from `first_id`/`num_ingested`).
    pub mutated_entities: Vec<EntityId>,
}

impl DeltaBatch {
    /// Number of candidate-set changes carried by the batch: additions
    /// plus retractions (re-scored survivors are not candidate-set
    /// changes).
    pub fn len(&self) -> usize {
        self.pairs.len() + self.retracted.len()
    }

    /// True if the batch changed nothing about the candidate set.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty() && self.retracted.is_empty()
    }

    /// Number of new candidate pairs.
    pub fn num_additions(&self) -> usize {
        self.pairs.len()
    }

    /// Number of retracted pairs.
    pub fn num_retractions(&self) -> usize {
        self.retracted.len()
    }

    /// Number of re-scored surviving pairs.
    pub fn num_rescored(&self) -> usize {
        self.rescored_pairs.len()
    }

    /// The new candidate pairs, smaller entity first.
    pub fn additions(&self) -> &[(EntityId, EntityId)] {
        &self.pairs
    }

    /// Iterates the pairs retracted by this batch.
    pub fn retractions(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        self.retracted.iter().copied()
    }

    /// The surviving pairs whose features were re-emitted by this batch.
    pub fn rescored(&self) -> &[(EntityId, EntityId)] {
        &self.rescored_pairs
    }

    /// The feature vector of the `i`-th addition.
    pub fn feature_row(&self, i: usize) -> &[f64] {
        &self.features[i * self.feature_width..(i + 1) * self.feature_width]
    }

    /// Every entity this batch mutated: the ingested id range followed by
    /// the removed/updated ids.
    pub fn batch_entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        let start = self.first_id.0;
        (start..start + self.num_ingested as u32)
            .map(EntityId)
            .chain(self.mutated_entities.iter().copied())
    }
}

/// A mutable meta-blocking pipeline over a churning corpus.
///
/// Entities are ingested in batches and assigned sequential ids; existing
/// entities can be removed (ids are retired, never reused) or updated
/// (re-keyed in place).  Every mutation batch returns only the *delta*:
/// candidate additions scored against the end-of-batch corpus state,
/// retractions of pairs that lost their support, and re-scored survivors of
/// updates.  [`StreamingMetaBlocker::compact`] folds the accumulated deltas
/// — tombstones included — into a fresh baseline CSR whose block collection
/// is bit-identical to a one-shot [`er_blocking::build_blocks`] over the
/// surviving corpus (deleted entities contribute nothing, exactly like
/// empty profiles in a batch build).
///
/// Per-batch delta emission is a *progressive* signal: a pair may be
/// emitted while its supporting blocks are live and retracted later when
/// they die (cap crossings, deletions), or revived again when a capped
/// block shrinks back — each transition travels in a subsequent
/// [`DeltaBatch`], and the post-compact state is always exact.
///
/// The blocker is generic over its [`DeltaIndex`] implementation — the
/// single-shard [`StreamingIndex`] by default, or the hash-partitioned
/// [`crate::ShardedIndex`].  *All* batch orchestration (phase ordering,
/// partner diffing, scoring, emission) lives here and every delta
/// algorithm is a provided method of [`DeltaIndex`], so output
/// equivalence between index implementations reduces to their key
/// addressing (see [`crate::delta`]).
pub struct StreamingMetaBlocker<G: KeyGenerator, I: DeltaIndex = StreamingIndex> {
    generator: G,
    index: I,
    feature_set: FeatureSet,
    threads: usize,
    scoreboard: ScoreboardConfig,
    model: Option<Box<dyn ProbabilisticClassifier>>,
}

/// One scored pair as accumulated by the mutation engine before emission.
type ScoredPair = ((EntityId, EntityId), PairCooccurrence);

impl<G: KeyGenerator> StreamingMetaBlocker<G> {
    /// Creates an empty streaming blocker for the given scheme.
    pub fn new(config: StreamingConfig, generator: G) -> Self {
        let cap = generator.max_block_size().unwrap_or(usize::MAX);
        StreamingMetaBlocker {
            index: StreamingIndex::new(config.dataset_name, config.kind, config.split, cap),
            generator,
            feature_set: config.feature_set,
            threads: config.threads.max(1),
            scoreboard: config.scoreboard,
            model: None,
        }
    }
}

impl<G: KeyGenerator, I: DeltaIndex> StreamingMetaBlocker<G, I> {
    /// Wraps an existing (typically empty) index implementation — the
    /// constructor sharded deployments use, where the index is built before
    /// the blocker.
    ///
    /// Fails with [`er_core::PersistError::Corrupt`] if the generator's
    /// block-size cap disagrees with the index's (they would describe
    /// different schemes).
    pub fn with_index(
        config: StreamingConfig,
        generator: G,
        index: I,
    ) -> er_core::PersistResult<Self> {
        let cap = generator.max_block_size().unwrap_or(usize::MAX);
        if cap != index.size_cap() {
            return Err(er_core::PersistError::Corrupt(format!(
                "index was built with block-size cap {}, generator uses {cap}",
                index.size_cap()
            )));
        }
        Ok(StreamingMetaBlocker {
            index,
            generator,
            feature_set: config.feature_set,
            threads: config.threads.max(1),
            scoreboard: config.scoreboard,
            model: None,
        })
    }

    /// Attaches the classifier whose probabilities every delta pair is
    /// scored with.
    pub fn with_model(mut self, model: Box<dyn ProbabilisticClassifier>) -> Self {
        self.model = Some(model);
        self
    }

    /// Rebuilds a blocker around a recovered index — the constructor the
    /// persistence layer uses after decoding a snapshot.  No model is
    /// attached; re-attach one with [`StreamingMetaBlocker::with_model`]
    /// before scoring new batches.
    ///
    /// Fails with [`er_core::PersistError::Corrupt`] if the supplied
    /// generator's block-size cap disagrees with the cap the index was
    /// built under (the snapshot would then describe a different scheme).
    pub fn from_recovered(
        index: I,
        generator: G,
        feature_set: FeatureSet,
        threads: usize,
    ) -> er_core::PersistResult<Self> {
        let cap = generator.max_block_size().unwrap_or(usize::MAX);
        if cap != index.size_cap() {
            return Err(er_core::PersistError::Corrupt(format!(
                "recovered index was built with block-size cap {}, generator uses {cap}",
                index.size_cap()
            )));
        }
        Ok(StreamingMetaBlocker {
            index,
            generator,
            feature_set,
            threads: threads.max(1),
            scoreboard: ScoreboardConfig::default(),
            model: None,
        })
    }

    /// The underlying mutable index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Number of entity ids ever assigned (removed ids stay retired).
    pub fn num_entities(&self) -> usize {
        self.index.num_entities()
    }

    /// Number of entities currently alive.
    pub fn num_alive(&self) -> usize {
        self.index.num_alive()
    }

    /// The feature set delta pairs are scored with.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Ingests one batch of new entity profiles (ids assigned sequentially
    /// from the current corpus size) and returns the delta candidate pairs
    /// with their feature vectors and, when a model is attached, their
    /// classifier probabilities.
    ///
    /// Cost scales with the batch: key emission and posting updates touch
    /// only the batch's keys; partner gathering walks only the blocks of the
    /// new entities; feature tables are recomputed only for entities that
    /// appear in a delta pair.  Nothing re-reads the rest of the corpus.
    pub fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch {
        self.apply(MutationRef::Ingest(profiles), true)
    }

    /// Applies one mutation batch — the dispatch behind
    /// [`ingest`](StreamingMetaBlocker::ingest),
    /// [`remove`](StreamingMetaBlocker::remove) and
    /// [`update`](StreamingMetaBlocker::update), and the one WAL replay
    /// drives.
    ///
    /// With `score: false` the feature / probability phase is skipped: the
    /// index, block statistics and candidate (LCP) counters move exactly as
    /// in a scored run, but the returned batch carries no `features` or
    /// probabilities.  Replay uses it for batches whose emissions were
    /// already delivered, and `meta_blocking::StreamingPipeline::bootstrap`
    /// to seed the index from a corpus a batch pass has already scored.
    ///
    /// # Panics
    /// Same contracts as the three methods above.
    pub fn apply(&mut self, mutation: MutationRef<'_>, score: bool) -> DeltaBatch {
        match mutation {
            MutationRef::Ingest(profiles) => self.apply_ingest(profiles, score),
            MutationRef::Remove(ids) => self.apply_remove(ids, score),
            MutationRef::Update(updates) => self.apply_update(updates, score),
        }
    }

    /// Tokenizes one profile through the scheme and interns its raw keys
    /// into `raw_keys` (duplicates allowed; the index canonicalizes).
    fn intern_profile_keys(
        index: &mut I,
        generator: &G,
        profile: &EntityProfile,
        case_scratch: &mut String,
        key_scratch: &mut KeyScratch,
        raw_keys: &mut Vec<u32>,
    ) {
        raw_keys.clear();
        for attribute in &profile.attributes {
            er_core::tokenize::for_each_token(&attribute.value, case_scratch, |token| {
                generator.for_each_key(token, key_scratch, &mut |key| {
                    raw_keys.push(index.intern(key));
                });
            });
        }
    }

    fn apply_ingest(&mut self, profiles: &[EntityProfile], score: bool) -> DeltaBatch {
        let batch_start = self.index.num_entities();
        let first_id = EntityId::from(batch_start);

        // Phase A (sequential): tokenize, intern, update postings and block
        // statistics in place (liveness flips land in the batch journal).
        {
            let index = &mut self.index;
            let generator = &self.generator;
            let mut case_scratch = String::new();
            let mut key_scratch = KeyScratch::default();
            let mut raw_keys: Vec<u32> = Vec::new();
            for profile in profiles {
                Self::intern_profile_keys(
                    index,
                    generator,
                    profile,
                    &mut case_scratch,
                    &mut key_scratch,
                    &mut raw_keys,
                );
                index.insert_entity(&mut raw_keys);
            }
        }

        // Close the batch journal: cap crossings among pre-batch pairs
        // become retractions (revivals are impossible under pure insertion
        // but the generic scan handles them).
        let effects = self.index.finish_batch(|e| e.index() >= batch_start);

        // Phase B (parallel above the grain): per new entity, gather the
        // smaller comparable partners sharing a live block, with their
        // co-occurrence aggregates (the scoped scoreboard pass).  Ranges are
        // reassembled in order, so the output is deterministic for any
        // thread count.
        let index = &self.index;
        let scoreboard = &self.scoreboard;
        /// One new entity with its scored partners, as produced by phase B.
        type EntityPartners = (EntityId, Vec<(EntityId, PairCooccurrence)>);
        let groups: Vec<Vec<EntityPartners>> =
            map_entity_ranges(profiles.len(), self.threads, |range| {
                let mut board = PartnerBoard::with_config(scoreboard);
                range
                    .map(|i| {
                        let e = EntityId((batch_start + i) as u32);
                        (e, index.collect_delta_pairs(e, &mut board))
                    })
                    .collect()
            });

        // Phase C (sequential): register the new pairs (LCP counters first —
        // features read the end-of-batch counts), then score.
        let mut additions: Vec<ScoredPair> = Vec::new();
        for group in &groups {
            for (e, partners) in group {
                for (p, agg) in partners {
                    self.index.record_candidate(*p, *e);
                    additions.push(((*p, *e), *agg));
                }
            }
        }
        crate::obs::obs()
            .delta_revivals
            .add(effects.revived.len() as u64);
        for &(a, b) in &effects.revived {
            let agg = self.index.pair_cooccurrence(a, b);
            additions.push(((a, b), agg));
        }

        self.emit(
            additions,
            Vec::new(),
            effects.retracted,
            effects.touched_keys,
            profiles.len(),
            0,
            0,
            first_id,
            score,
        )
    }

    /// Panics unless every id names a distinct, currently alive entity —
    /// the precondition of [`StreamingMetaBlocker::remove`], checked
    /// without mutating anything.  The durable wrapper asserts this
    /// *before* the WAL append, so an invalid batch can never reach the
    /// log (a durably logged batch must replay cleanly on recovery).
    pub fn assert_remove_batch(&self, ids: &[EntityId]) {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &e in ids {
            assert!(
                e.index() < self.index.num_entities(),
                "cannot remove unknown entity {e}"
            );
            assert!(self.index.is_alive(e), "cannot remove entity {e} twice");
            assert!(seen.insert(e.0), "duplicate ids in remove batch");
        }
    }

    /// Panics unless every id names a distinct, currently alive entity —
    /// the precondition of [`StreamingMetaBlocker::update`] (see
    /// [`StreamingMetaBlocker::assert_remove_batch`] for why the durable
    /// wrapper checks this before logging).
    pub fn assert_update_batch(&self, updates: &[(EntityId, EntityProfile)]) {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &(e, _) in updates {
            assert!(
                e.index() < self.index.num_entities(),
                "cannot update unknown entity {e}"
            );
            assert!(self.index.is_alive(e), "cannot update removed entity {e}");
            assert!(seen.insert(e.0), "duplicate ids in update batch");
        }
    }

    /// Removes a batch of entities from the corpus.  Every candidate pair
    /// with a removed endpoint is retracted; blocks that leave the live set
    /// retract their orphaned pairs and blocks that re-enter it (a capped
    /// block shrinking back) revive theirs, scored against the end-of-batch
    /// state.  Ids are retired, never reused.
    ///
    /// Cost scales with the batch: only the removed entities' postings and
    /// the flipped blocks are touched.
    ///
    /// # Panics
    /// Panics if an id is unknown, already removed, or listed twice.
    pub fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch {
        self.apply(MutationRef::Remove(ids), true)
    }

    fn apply_remove(&mut self, ids: &[EntityId], score: bool) -> DeltaBatch {
        let first_id = EntityId::from(self.index.num_entities());
        let batch: FxHashSet<u32> = ids.iter().map(|e| e.0).collect();
        assert_eq!(batch.len(), ids.len(), "duplicate ids in remove batch");

        // Before-image (parallel above the grain, read-only): each removed
        // entity's current candidate partners.  Ranges are reassembled in
        // order, so the emission is deterministic for any thread count.
        let index = &self.index;
        let before: Vec<Vec<(EntityId, Vec<EntityId>)>> =
            map_entity_ranges(ids.len(), self.threads, |range| {
                range
                    .map(|i| (ids[i], index.collect_partner_ids(ids[i])))
                    .collect()
            });

        // Mutate: tombstone every posting, retire the ids.
        for &e in ids {
            self.index.remove_entity(e);
        }
        let effects = self.index.finish_batch(|e| batch.contains(&e.0));

        // Batch-side retractions: every pre-batch candidate pair with a
        // removed endpoint, each exactly once — a pair of two removed
        // entities shows up in both partner lists and is emitted from its
        // smaller endpoint's only.
        let mut retracted: Vec<(EntityId, EntityId)> = Vec::new();
        for group in &before {
            for (e, partners) in group {
                for &p in partners {
                    if batch.contains(&p.0) && p < *e {
                        continue;
                    }
                    let pair = if p < *e { (p, *e) } else { (*e, p) };
                    self.index.retract_candidate(pair.0, pair.1);
                    retracted.push(pair);
                }
            }
        }
        retracted.extend_from_slice(&effects.retracted);
        retracted.sort_unstable();

        // Revived pairs (a capped block shrinking back under its cap) are
        // fresh additions, scored against the end-of-batch state.
        crate::obs::obs()
            .delta_revivals
            .add(effects.revived.len() as u64);
        let additions: Vec<ScoredPair> = effects
            .revived
            .iter()
            .map(|&(a, b)| ((a, b), self.index.pair_cooccurrence(a, b)))
            .collect();

        let mut batch = self.emit(
            additions,
            Vec::new(),
            retracted,
            effects.touched_keys,
            0,
            ids.len(),
            0,
            first_id,
            score,
        );
        batch.mutated_entities = ids.to_vec();
        batch
    }

    /// Applies in-place profile updates: each entity keeps its id but its
    /// blocking keys are re-derived from the new profile.  Pairs that lose
    /// all support are retracted, pairs that gain support are added, and
    /// surviving pairs with an updated endpoint are re-scored — all against
    /// the end-of-batch state.
    ///
    /// # Panics
    /// Panics if an id is unknown, removed, or listed twice.
    pub fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch {
        self.apply(MutationRef::Update(updates), true)
    }

    fn apply_update(&mut self, updates: &[(EntityId, EntityProfile)], score: bool) -> DeltaBatch {
        let first_id = EntityId::from(self.index.num_entities());
        let batch: FxHashSet<u32> = updates.iter().map(|(e, _)| e.0).collect();
        assert_eq!(batch.len(), updates.len(), "duplicate ids in update batch");

        // Before-image (parallel above the grain, read-only): candidate
        // partners of every updated entity, in update order.
        let index = &self.index;
        let before: Vec<Vec<EntityId>> = map_entity_ranges(updates.len(), self.threads, |range| {
            range
                .map(|i| index.collect_partner_ids(updates[i].0))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Mutate (sequential): tokenize the new profiles and re-key each
        // entity in place (departures tombstoned, arrivals added).
        {
            let index = &mut self.index;
            let generator = &self.generator;
            let mut case_scratch = String::new();
            let mut key_scratch = KeyScratch::default();
            let mut raw_keys: Vec<u32> = Vec::new();
            for (e, profile) in updates {
                Self::intern_profile_keys(
                    index,
                    generator,
                    profile,
                    &mut case_scratch,
                    &mut key_scratch,
                    &mut raw_keys,
                );
                index.replace_entity_keys(*e, &mut raw_keys);
            }
        }
        let effects = self.index.finish_batch(|e| batch.contains(&e.0));

        // After-image (parallel above the grain): all partners with their
        // co-occurrence aggregates against the end-of-batch state.
        let index = &self.index;
        let scoreboard = &self.scoreboard;
        let after: Vec<Vec<(EntityId, PairCooccurrence)>> =
            map_entity_ranges(updates.len(), self.threads, |range| {
                let mut board = PartnerBoard::with_config(scoreboard);
                range
                    .map(|i| index.collect_partners(updates[i].0, &mut board))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // Diff each entity's partner sets.  A pair of two updated entities
        // is classified identically from both sides (the predicate is
        // symmetric) and processed from its smaller endpoint's diff only.
        let mut additions: Vec<ScoredPair> = Vec::new();
        let mut rescored: Vec<ScoredPair> = Vec::new();
        let mut retracted: Vec<(EntityId, EntityId)> = Vec::new();
        for (((e, _), before_e), after_e) in updates.iter().zip(&before).zip(&after) {
            let e = *e;
            let skip = |p: EntityId| batch.contains(&p.0) && p < e;
            let canonical = |p: EntityId| if p < e { (p, e) } else { (e, p) };
            let (mut i, mut j) = (0, 0);
            while i < before_e.len() || j < after_e.len() {
                if j == after_e.len() || (i < before_e.len() && before_e[i] < after_e[j].0) {
                    let p = before_e[i];
                    i += 1;
                    if skip(p) {
                        continue;
                    }
                    let pair = canonical(p);
                    self.index.retract_candidate(pair.0, pair.1);
                    retracted.push(pair);
                } else if i == before_e.len() || after_e[j].0 < before_e[i] {
                    let (p, agg) = after_e[j];
                    j += 1;
                    if skip(p) {
                        continue;
                    }
                    let pair = canonical(p);
                    self.index.record_candidate(pair.0, pair.1);
                    additions.push((pair, agg));
                } else {
                    let (p, agg) = after_e[j];
                    i += 1;
                    j += 1;
                    if skip(p) {
                        continue;
                    }
                    rescored.push((canonical(p), agg));
                }
            }
        }
        crate::obs::obs()
            .delta_revivals
            .add(effects.revived.len() as u64);
        for &(a, b) in &effects.revived {
            let agg = self.index.pair_cooccurrence(a, b);
            additions.push(((a, b), agg));
        }
        retracted.extend_from_slice(&effects.retracted);
        additions.sort_unstable_by_key(|&(pair, _)| pair);
        rescored.sort_unstable_by_key(|&(pair, _)| pair);
        retracted.sort_unstable();

        let mut batch = self.emit(
            additions,
            rescored,
            retracted,
            effects.touched_keys,
            0,
            0,
            updates.len(),
            first_id,
            score,
        );
        batch.mutated_entities = updates.iter().map(|&(e, _)| e).collect();
        batch
    }

    /// Assembles a [`DeltaBatch`], scoring additions and re-scored
    /// survivors when `score` is set and a batch produced any.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        additions: Vec<ScoredPair>,
        rescored: Vec<ScoredPair>,
        retracted: Vec<(EntityId, EntityId)>,
        touched_keys: Vec<u32>,
        num_ingested: usize,
        num_removed: usize,
        num_updated: usize,
        first_id: EntityId,
        score: bool,
    ) -> DeltaBatch {
        let width = self.feature_set.vector_len();
        let mut batch = DeltaBatch {
            epoch: self.index.epoch(),
            first_id,
            num_ingested,
            num_removed,
            num_updated,
            feature_width: width,
            pairs: additions.iter().map(|&(pair, _)| pair).collect(),
            features: Vec::new(),
            probabilities: Vec::new(),
            rescored_pairs: rescored.iter().map(|&(pair, _)| pair).collect(),
            rescored_features: Vec::new(),
            rescored_probabilities: Vec::new(),
            retracted,
            touched_keys,
            mutated_entities: Vec::new(),
        };
        // One registry touch per batch (never per pair), before the unscored
        // early-return so unscored batches are counted too.
        {
            let o = crate::obs::obs();
            if num_ingested > 0 {
                o.ingest_batches.inc();
                o.entities_ingested.add(num_ingested as u64);
            }
            if num_removed > 0 {
                o.remove_batches.inc();
                o.entities_removed.add(num_removed as u64);
            }
            if num_updated > 0 {
                o.update_batches.inc();
                o.entities_updated.add(num_updated as u64);
            }
            o.delta_additions.add(batch.pairs.len() as u64);
            o.delta_retractions.add(batch.retracted.len() as u64);
            o.delta_rescored.add(batch.rescored_pairs.len() as u64);
            o.delta_pairs.record(batch.len() as u64);
        }
        if !score {
            return batch;
        }

        // Per-entity aggregate tables for exactly the entities that appear
        // in a scored pair (end-of-batch state: every LCP adjustment has
        // been applied by now).
        let mut tables: FxHashMap<u32, EntityAggregates> = FxHashMap::default();
        {
            let index = &self.index;
            for &((a, b), _) in additions.iter().chain(&rescored) {
                tables
                    .entry(a.0)
                    .or_insert_with(|| index.entity_aggregates(a));
                tables
                    .entry(b.0)
                    .or_insert_with(|| index.entity_aggregates(b));
            }
        }
        let write_rows = |pairs: &[ScoredPair], features: &mut Vec<f64>| {
            features.resize(pairs.len() * width, 0.0);
            for (i, &((a, b), ref agg)) in pairs.iter().enumerate() {
                write_features_from(
                    &tables[&a.0],
                    &tables[&b.0],
                    agg,
                    self.feature_set,
                    &mut features[i * width..(i + 1) * width],
                );
            }
        };
        write_rows(&additions, &mut batch.features);
        write_rows(&rescored, &mut batch.rescored_features);
        if let Some(model) = &self.model {
            let score_rows = |features: &Vec<f64>, count: usize| -> Vec<f64> {
                features
                    .chunks(width.max(1))
                    .take(count)
                    .map(|row| model.probability(row).clamp(0.0, 1.0))
                    .collect()
            };
            batch.probabilities = score_rows(&batch.features, additions.len());
            batch.rescored_probabilities = score_rows(&batch.rescored_features, rescored.len());
        }
        batch
    }

    /// The batch view of the current corpus (no state change): bit-identical
    /// to [`er_blocking::build_blocks`] over the surviving entities.
    pub fn view(&self) -> CsrBlockCollection {
        self.index.view(self.threads)
    }

    /// Ends the epoch: folds the accumulated posting deltas into a fresh
    /// baseline CSR — physically dropping tombstoned postings — and returns
    /// the compacted batch view.
    pub fn compact(&mut self) -> CsrBlockCollection {
        let o = crate::obs::obs();
        o.compactions.inc();
        let _timer = o.compaction_ns.start_timer();
        self.index.compact(self.threads)
    }
}

/// Maps the entities `0..items` of one batch phase range by range with `f`,
/// returning the per-range results in range order.
///
/// The worker count comes from the batch size ([`MIN_ENTITIES_PER_WORKER`],
/// capped at `threads`).  One worker maps the whole batch as a single range
/// on the calling thread; more split it into four ranges per worker for
/// balance and count one `streaming_parallel_phases_total`.  Callers flatten
/// the ranges in order, so no output depends on the split.
fn map_entity_ranges<T, F>(items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let workers = er_core::workers_for(items, threads, MIN_ENTITIES_PER_WORKER);
    let num_tasks = if workers == 1 {
        1
    } else {
        crate::obs::obs().parallel_phases.inc();
        workers * 4
    };
    er_core::map_ranges_parallel(items, workers, num_tasks, f)
}

/// The first `n` entities of a dataset as a standalone dataset: the corpus a
/// streaming blocker holds after ingesting the profile sequence up to `n`.
/// Ground-truth pairs with an endpoint beyond the prefix are dropped; the
/// Clean-Clean split is clamped to the prefix length.
pub fn dataset_prefix(dataset: &Dataset, n: usize) -> Dataset {
    let n = n.min(dataset.num_entities());
    Dataset {
        name: dataset.name.clone(),
        kind: dataset.kind,
        profiles: dataset.profiles[..n].to_vec(),
        split: dataset.split.min(n),
        ground_truth: GroundTruth::from_pairs(
            dataset
                .ground_truth
                .pairs()
                .iter()
                .copied()
                .filter(|&(a, b)| a.index() < n && b.index() < n),
        ),
    }
}

/// The batch-equivalent corpus of a mutated stream: the original dataset
/// with every updated profile substituted in place and every removed
/// entity's profile *blanked* (an empty profile emits no blocking keys, so
/// a batch build over the result is exactly what the streaming index
/// converges to — entity ids are never reused).  Ground-truth pairs with a
/// removed endpoint are dropped; the Clean-Clean split is unchanged.
pub fn surviving_dataset(
    dataset: &Dataset,
    removed: &[EntityId],
    updated: &[(EntityId, EntityProfile)],
) -> Dataset {
    let mut profiles = dataset.profiles.clone();
    for (e, profile) in updated {
        profiles[e.index()] = profile.clone();
    }
    let dead: FxHashSet<u32> = removed.iter().map(|e| e.0).collect();
    for &e in removed {
        profiles[e.index()] = EntityProfile::new(dataset.profiles[e.index()].external_id.clone());
    }
    Dataset {
        name: dataset.name.clone(),
        kind: dataset.kind,
        profiles,
        split: dataset.split,
        ground_truth: GroundTruth::from_pairs(
            dataset
                .ground_truth
                .pairs()
                .iter()
                .copied()
                .filter(|&(a, b)| !dead.contains(&a.0) && !dead.contains(&b.0)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::{build_blocks, SuffixKeys, TokenKeys};
    use er_core::EntityCollection;

    fn profile(id: &str, value: &str) -> EntityProfile {
        EntityProfile::new(id).with_attribute("name", value)
    }

    fn dirty_dataset() -> Dataset {
        let profiles = vec![
            profile("0", "apple iphone ten"),
            profile("1", "apple iphone x"),
            profile("2", "samsung galaxy phone"),
            profile("3", "galaxy phone samsung"),
            profile("4", "nokia brick"),
        ];
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1)), (EntityId(2), EntityId(3))]);
        Dataset::dirty("d", EntityCollection::new("d", profiles), gt).unwrap()
    }

    fn config(dataset: &Dataset) -> StreamingConfig {
        StreamingConfig {
            feature_set: FeatureSet::all_schemes(),
            threads: 1,
            ..StreamingConfig::for_dataset(dataset)
        }
    }

    /// The raw candidate pairs of a batch build over `dataset`.
    fn batch_candidates(dataset: &Dataset) -> Vec<(EntityId, EntityId)> {
        let csr = build_blocks(dataset, &TokenKeys, 1);
        if csr.is_empty() {
            return Vec::new();
        }
        let stats = er_blocking::BlockStats::from_csr(&csr);
        er_blocking::CandidatePairs::from_stats(&stats, 1)
            .pairs()
            .to_vec()
    }

    #[test]
    fn ingest_emits_each_pair_exactly_once() {
        let ds = dirty_dataset();
        let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        let mut emitted: Vec<(EntityId, EntityId)> = Vec::new();
        for profile in &ds.profiles {
            let batch = blocker.ingest(std::slice::from_ref(profile));
            assert_eq!(batch.num_retractions(), 0);
            emitted.extend_from_slice(batch.additions());
        }
        let mut sorted = emitted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), emitted.len(), "duplicate emission");
        // The union must equal the batch candidate set.
        let csr = blocker.compact();
        let stats = er_blocking::BlockStats::from_csr(&csr);
        let batch_pairs = er_blocking::CandidatePairs::from_stats(&stats, 1);
        assert_eq!(sorted.as_slice(), batch_pairs.pairs());
    }

    #[test]
    fn compact_matches_batch_build() {
        let ds = dirty_dataset();
        let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        blocker.ingest(&ds.profiles[..2]);
        blocker.ingest(&ds.profiles[2..]);
        let streamed = blocker.compact();
        let batch = build_blocks(&ds, &TokenKeys, 1);
        assert!(streamed.same_blocks(&batch));
        assert_eq!(streamed.num_entities, batch.num_entities);
        assert_eq!(streamed.split, batch.split);
    }

    #[test]
    fn delta_features_match_a_batch_rebuild_of_the_current_corpus() {
        let ds = dirty_dataset();
        let set = FeatureSet::all_schemes();
        let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        for n in 1..=ds.num_entities() {
            let batch = blocker.ingest(std::slice::from_ref(&ds.profiles[n - 1]));
            // Rebuild the prefix corpus from scratch and compare rows.
            let prefix = dataset_prefix(&ds, n);
            let csr = build_blocks(&prefix, &TokenKeys, 1);
            if csr.is_empty() {
                assert_eq!(batch.num_additions(), 0);
                continue;
            }
            let stats = er_blocking::BlockStats::from_csr(&csr);
            let candidates = er_blocking::CandidatePairs::from_stats(&stats, 1);
            let context = er_features::FeatureContext::new(&stats, &candidates);
            let mut expected = vec![0.0f64; set.vector_len()];
            for (i, &(a, b)) in batch.additions().iter().enumerate() {
                context.write_pair_features(a, b, set, &mut expected);
                assert_eq!(batch.feature_row(i), expected.as_slice(), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn remove_retracts_every_pair_of_the_entity() {
        let ds = dirty_dataset();
        let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        blocker.ingest(&ds.profiles);
        let victim = EntityId(0);
        let before = blocker.index().candidates_of(victim);
        assert!(before > 0);
        let delta = blocker.remove(&[victim]);
        assert_eq!(delta.num_removed, 1);
        assert_eq!(delta.num_additions(), 0);
        assert_eq!(delta.num_retractions(), before as usize);
        assert!(delta.retractions().all(|(a, b)| a == victim || b == victim));
        assert_eq!(blocker.index().candidates_of(victim), 0);
        assert_eq!(blocker.num_alive(), ds.num_entities() - 1);

        // The compacted state equals a batch build of the surviving corpus.
        let survivors = surviving_dataset(&ds, &[victim], &[]);
        let streamed = blocker.compact();
        let batch = build_blocks(&survivors, &TokenKeys, 1);
        assert!(streamed.same_blocks(&batch));
    }

    #[test]
    fn update_diffs_additions_retractions_and_rescored_survivors() {
        let ds = dirty_dataset();
        let mut blocker = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        blocker.ingest(&ds.profiles);
        // Entity 1 moves from the apple cluster to the samsung cluster but
        // keeps the "iphone" token shared with entity 0.
        let new_profile = profile("1", "samsung iphone galaxy");
        let updated = vec![(EntityId(1), new_profile.clone())];
        let before_pairs = batch_candidates(&ds);
        let delta = blocker.update(&updated);
        assert_eq!(delta.num_updated, 1);

        let survivors = surviving_dataset(&ds, &[], &updated);
        let after_pairs = batch_candidates(&survivors);
        // Diff of the batch candidate sets restricted to entity 1 must match
        // the emitted channels exactly.
        let touches = |&(a, b): &(EntityId, EntityId)| a == EntityId(1) || b == EntityId(1);
        let added: Vec<_> = after_pairs
            .iter()
            .filter(|p| touches(p) && !before_pairs.contains(p))
            .copied()
            .collect();
        let gone: Vec<_> = before_pairs
            .iter()
            .filter(|p| touches(p) && !after_pairs.contains(p))
            .copied()
            .collect();
        let kept: Vec<_> = before_pairs
            .iter()
            .filter(|p| touches(p) && after_pairs.contains(p))
            .copied()
            .collect();
        assert_eq!(delta.additions(), added.as_slice());
        assert_eq!(delta.retractions().collect::<Vec<_>>(), gone);
        assert_eq!(delta.rescored(), kept.as_slice());
        assert!(!delta.rescored().is_empty(), "no survivor was re-scored");

        // Re-scored features equal a batch rebuild of the updated corpus.
        let csr = build_blocks(&survivors, &TokenKeys, 1);
        let stats = er_blocking::BlockStats::from_csr(&csr);
        let candidates = er_blocking::CandidatePairs::from_stats(&stats, 1);
        let context = er_features::FeatureContext::new(&stats, &candidates);
        let set = blocker.feature_set();
        let mut expected = vec![0.0f64; set.vector_len()];
        let width = delta.feature_width;
        for (i, &(a, b)) in delta.rescored().iter().enumerate() {
            context.write_pair_features(a, b, set, &mut expected);
            assert_eq!(
                &delta.rescored_features[i * width..(i + 1) * width],
                expected.as_slice(),
                "rescored pair ({a},{b})"
            );
        }
        for (i, &(a, b)) in delta.additions().iter().enumerate() {
            context.write_pair_features(a, b, set, &mut expected);
            assert_eq!(
                delta.feature_row(i),
                expected.as_slice(),
                "added pair ({a},{b})"
            );
        }

        let streamed = blocker.compact();
        assert!(streamed.same_blocks(&csr));
    }

    #[test]
    fn cap_reentry_revives_pairs_through_the_blocker() {
        // Suffix keys with a tight cap: removing an entity shrinks a capped
        // block back under the cap and the orphaned pair must be re-emitted
        // as an addition, scored against the shrunken corpus.
        let profiles = vec![
            profile("0", "matching"),
            profile("1", "matching"),
            profile("2", "matching"),
        ];
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        let ds = Dataset::dirty("caps", EntityCollection::new("caps", profiles), gt).unwrap();
        let generator = SuffixKeys::new(6, 2);
        let mut blocker = StreamingMetaBlocker::new(config(&ds), generator);
        let d0 = blocker.ingest(&ds.profiles[..2]);
        assert!(d0.num_additions() > 0);
        let d1 = blocker.ingest(&ds.profiles[2..]);
        assert!(d1.num_retractions() > 0, "cap crossing must retract");
        assert_eq!(blocker.index().candidates_of(EntityId(0)), 0);

        let d2 = blocker.remove(&[EntityId(2)]);
        assert_eq!(d2.additions(), &[(EntityId(0), EntityId(1))]);
        assert_eq!(d2.num_retractions(), 0);
        assert_eq!(blocker.index().candidates_of(EntityId(0)), 1);

        // Exact stats after re-entry: the compacted state equals a batch
        // build of the surviving corpus, features included.
        let survivors = surviving_dataset(&ds, &[EntityId(2)], &[]);
        let streamed = blocker.compact();
        let batch = build_blocks(&survivors, &generator, 1);
        assert!(streamed.same_blocks(&batch));
        let stats = er_blocking::BlockStats::from_csr(&batch);
        let candidates = er_blocking::CandidatePairs::from_stats(&stats, 1);
        let context = er_features::FeatureContext::new(&stats, &candidates);
        let set = blocker.feature_set();
        let mut expected = vec![0.0f64; set.vector_len()];
        for (i, &(a, b)) in d2.additions().iter().enumerate() {
            context.write_pair_features(a, b, set, &mut expected);
            assert_eq!(d2.feature_row(i), expected.as_slice());
        }
    }

    #[test]
    fn unscored_ingest_updates_the_index_exactly_like_scored_ingest() {
        let ds = dirty_dataset();
        let mut scored = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        let mut unscored = StreamingMetaBlocker::new(config(&ds), TokenKeys);
        let a = scored.ingest(&ds.profiles);
        let b = unscored.apply(MutationRef::Ingest(&ds.profiles), false);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.retracted, b.retracted);
        assert!(b.features.is_empty());
        assert!(b.probabilities.is_empty());
        for e in 0..ds.num_entities() {
            let entity = EntityId(e as u32);
            assert_eq!(
                scored.index().candidates_of(entity),
                unscored.index().candidates_of(entity)
            );
        }
        assert!(scored.compact().same_blocks(&unscored.compact()));
    }

    #[test]
    fn probabilities_come_from_the_attached_model() {
        struct Half;
        impl ProbabilisticClassifier for Half {
            fn probability(&self, features: &[f64]) -> f64 {
                0.25 + features[0].min(0.5)
            }
        }
        let ds = dirty_dataset();
        let mut blocker =
            StreamingMetaBlocker::new(config(&ds), TokenKeys).with_model(Box::new(Half));
        let batch = blocker.ingest(&ds.profiles);
        assert_eq!(batch.probabilities.len(), batch.num_additions());
        for (i, &p) in batch.probabilities.iter().enumerate() {
            assert!((p - (0.25 + batch.feature_row(i)[0].min(0.5))).abs() < 1e-15);
        }
    }

    #[test]
    fn dataset_prefix_clamps_split_and_truth() {
        let e1 = EntityCollection::new("a", vec![profile("a0", "x y"), profile("a1", "y z")]);
        let e2 = EntityCollection::new("b", vec![profile("b0", "x y"), profile("b1", "z q")]);
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        let ds = Dataset::clean_clean("cc", e1, e2, gt).unwrap();
        let prefix = dataset_prefix(&ds, 3);
        assert_eq!(prefix.num_entities(), 3);
        assert_eq!(prefix.split, 2);
        assert_eq!(prefix.ground_truth.pairs(), &[(EntityId(0), EntityId(2))]);
        let tiny = dataset_prefix(&ds, 1);
        assert_eq!(tiny.split, 1);
        assert!(tiny.ground_truth.is_empty());
    }

    #[test]
    fn surviving_dataset_blanks_removed_profiles() {
        let ds = dirty_dataset();
        let survivors = surviving_dataset(&ds, &[EntityId(4)], &[]);
        assert_eq!(survivors.num_entities(), ds.num_entities());
        assert!(survivors.profiles[4].attributes.is_empty());
        assert_eq!(survivors.profiles[4].external_id, "4");
        assert_eq!(survivors.ground_truth.pairs(), ds.ground_truth.pairs());
        let survivors = surviving_dataset(&ds, &[EntityId(1)], &[]);
        assert_eq!(
            survivors.ground_truth.pairs(),
            &[(EntityId(2), EntityId(3))]
        );
    }
}
