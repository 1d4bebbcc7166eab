//! The end-to-end streaming pipeline: bootstrap a classifier on a seed
//! corpus, then ingest live batches and progressively re-rank candidates.
//!
//! This is the streaming counterpart of [`crate::pipeline`]: where the batch
//! pipeline runs `blocking → features → training → scoring → pruning` once,
//! the streaming pipeline trains the classifier **once** on a seed corpus
//! and then, per ingested batch, lets `er_stream` update the blocking index
//! incrementally and emit only the delta candidate pairs — already scored
//! with the trained model — which feed a [`StreamingSchedule`] so a matcher
//! can always drain the most promising comparison discovered so far
//! (Progressive ER under a comparison budget).
//!
//! For Clean-Clean ER the seed corpus must contain all of E1 (the entity id
//! space is append-only, so later arrivals belong to E2); any prefix works
//! for Dirty ER.

use er_blocking::{build_blocks, BlockStats, CandidateStream, CsrBlockCollection, TokenKeys};
use er_core::{Dataset, EntityId, EntityProfile, FxHashMap, Result};
use er_features::{for_each_scored_chunk, FeatureContext, StreamFeatureContext};
use er_learn::ProbabilisticClassifier;
use er_stream::{DeltaBatch, MutationRef, StreamingConfig, StreamingMetaBlocker};

use crate::live_view::LiveView;
use crate::pipeline::{prepare, train, MetaBlockingConfig};
use crate::progressive::StreamingSchedule;

/// The cleaned-view machinery of a [`StreamingPipeline`] running in
/// cleaned mode: the incremental purging/filtering view plus a probability
/// pool holding the latest raw score of every candidate pair, so pairs that
/// enter the cleaned view late (e.g. a block released by Block Purging as
/// the corpus grows) can be scheduled without re-scoring.
pub(crate) struct CleanedState {
    pub(crate) view: LiveView,
    pub(crate) pool: FxHashMap<(EntityId, EntityId), f64>,
}

/// A bootstrapped streaming meta-blocking pipeline over Token Blocking.
pub struct StreamingPipeline {
    pub(crate) blocker: StreamingMetaBlocker<TokenKeys>,
    pub(crate) schedule: StreamingSchedule,
    pub(crate) cleaned: Option<CleanedState>,
    /// The trained classifier in its persistable form; a boxed clone is
    /// attached to the blocker for scoring.
    pub(crate) model: er_learn::SavedModel,
}

impl StreamingPipeline {
    /// Trains the configured classifier on `seed_corpus` (batch-built, with
    /// the same sampling and feature path as the batch pipeline), seeds the
    /// streaming index with the corpus, and returns a pipeline ready to
    /// ingest the rest of the stream.  The schedule ranks the **raw** Token
    /// Blocking candidates; use [`StreamingPipeline::bootstrap_cleaned`]
    /// for a schedule restricted to the cleaned (purged + filtered)
    /// candidate set.
    ///
    /// The seed corpus must yield at least one candidate pair per class for
    /// training; `config.per_class` applies as in the batch pipeline.
    pub fn bootstrap(config: &MetaBlockingConfig, seed_corpus: &Dataset) -> Result<Self> {
        Self::bootstrap_impl(config, seed_corpus, false)
    }

    /// [`StreamingPipeline::bootstrap`] in **cleaned mode**: a
    /// [`LiveView`] maintains Block Purging + Block Filtering incrementally
    /// and the schedule only ever ranks pairs of the cleaned candidate set
    /// — the same set the batch pipeline's standard blocking workflow
    /// produces for the surviving corpus.
    pub fn bootstrap_cleaned(config: &MetaBlockingConfig, seed_corpus: &Dataset) -> Result<Self> {
        Self::bootstrap_impl(config, seed_corpus, true)
    }

    fn bootstrap_impl(
        config: &MetaBlockingConfig,
        seed_corpus: &Dataset,
        cleaned: bool,
    ) -> Result<Self> {
        let threads = config.effective_threads();
        let set = config.feature_set;

        // Raw Token Blocking: the streaming index keeps every block, so the
        // model is trained on the raw candidates it will score.
        let csr = build_blocks(seed_corpus, &TokenKeys, threads);
        let stats = BlockStats::from_csr(&csr);
        let (stats, candidates) = prepare(&csr, stats, threads)?;
        let context = FeatureContext::new(&stats, &candidates);
        let model = train(config, &context, &seed_corpus.ground_truth)?;

        let stream_config = StreamingConfig {
            dataset_name: seed_corpus.name.clone(),
            kind: seed_corpus.kind,
            split: seed_corpus.split,
            feature_set: set,
            threads,
            scoreboard: config.scoreboard.clone(),
        };
        let mut blocker =
            StreamingMetaBlocker::new(stream_config, TokenKeys).with_model(Box::new(model.clone()));
        // Seed the index unscored and straight from the borrowed corpus
        // (same postings, statistics and LCP counters; no duplicate feature
        // pass, no copy of the profiles).
        blocker.apply(MutationRef::Ingest(&seed_corpus.profiles), false);

        // Seed the schedule through the streamed chunk walk: chunks arrive
        // in ascending pair order, so the absorbed stamps are identical to
        // one global absorb of the batch-scored vector, while only
        // O(threads × chunk) scored pairs are ever in flight.  The walk
        // reads the index built for training; no run is derived again.
        let stream = CandidateStream::from_candidates(&stats, &candidates);
        let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
        let chunk_pairs = config
            .candidate_chunk_pairs
            .unwrap_or(er_blocking::DEFAULT_CHUNK_PAIRS);
        let probability = |row: &[f64]| model.probability(row).clamp(0.0, 1.0);
        let mut schedule = StreamingSchedule::new();
        let mut cleaned_state = None;
        if cleaned {
            // The view starts from the seeded index; only the cleaned
            // subset of the scored pairs enters the schedule, the rest
            // waits in the pool until cleaning releases it.
            let view = LiveView::with_default_ratio(blocker.index());
            let mut pool: FxHashMap<(EntityId, EntityId), f64> = FxHashMap::default();
            for_each_scored_chunk(
                &stream_context,
                &stream,
                set,
                threads,
                &config.scoreboard,
                chunk_pairs,
                probability,
                |pairs, probabilities| {
                    for (&pair, &probability) in pairs.iter().zip(probabilities) {
                        pool.insert(pair, probability);
                        if view.contains(pair) {
                            schedule.absorb(&[pair], &[probability]);
                        }
                    }
                },
            );
            cleaned_state = Some(CleanedState { view, pool });
        } else {
            for_each_scored_chunk(
                &stream_context,
                &stream,
                set,
                threads,
                &config.scoreboard,
                chunk_pairs,
                probability,
                |pairs, probabilities| schedule.absorb(pairs, probabilities),
            );
        }
        Ok(StreamingPipeline {
            blocker,
            schedule,
            cleaned: cleaned_state,
            model,
        })
    }

    /// The cleaned live view, when running in cleaned mode.
    pub fn live_view(&self) -> Option<&LiveView> {
        self.cleaned.as_ref().map(|state| &state.view)
    }

    /// Feeds one delta batch into the schedule.  Raw mode absorbs
    /// additions, re-ranks re-scored survivors and retracts retractions
    /// directly; cleaned mode routes everything through the live view so
    /// the schedule only ever holds cleaned candidates.
    pub(crate) fn apply_delta(&mut self, delta: &DeltaBatch) {
        match &mut self.cleaned {
            None => {
                self.schedule.absorb(&delta.pairs, &delta.probabilities);
                self.schedule
                    .absorb(&delta.rescored_pairs, &delta.rescored_probabilities);
                self.schedule.retract(&delta.retracted);
            }
            Some(state) => {
                for (&pair, &probability) in delta.pairs.iter().zip(&delta.probabilities) {
                    state.pool.insert(pair, probability);
                }
                for (&pair, &probability) in delta
                    .rescored_pairs
                    .iter()
                    .zip(&delta.rescored_probabilities)
                {
                    state.pool.insert(pair, probability);
                }
                for pair in delta.retractions() {
                    state.pool.remove(&pair);
                }
                let moved = state.view.refresh(
                    self.blocker.index(),
                    &delta.touched_keys,
                    delta.batch_entities(),
                );
                self.schedule.retract(&moved.removed);
                for &pair in &moved.added {
                    if let Some(&probability) = state.pool.get(&pair) {
                        self.schedule.absorb(&[pair], &[probability]);
                    }
                }
                // Surviving re-scored pairs that are (and stay) cleaned
                // candidates move to their new rank.
                for (&pair, &probability) in delta
                    .rescored_pairs
                    .iter()
                    .zip(&delta.rescored_probabilities)
                {
                    if state.view.contains(pair) {
                        self.schedule.absorb(&[pair], &[probability]);
                    }
                }
            }
        }
    }

    /// Ingests one batch of new entities: the blocking index updates
    /// incrementally, the delta pairs are scored with the bootstrapped
    /// model, and the progressive schedule re-ranks (absorbing the new
    /// pairs, dropping any retractions).  Returns the raw delta.
    pub fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch {
        self.apply(MutationRef::Ingest(profiles))
    }

    /// Removes a batch of entities: their pairs leave the schedule, pairs
    /// revived by shrinking capped blocks enter it, and in cleaned mode the
    /// live view re-derives the affected cleaning decisions.
    pub fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch {
        self.apply(MutationRef::Remove(ids))
    }

    /// Applies in-place profile updates: lost pairs leave the schedule, new
    /// pairs enter it, and surviving pairs of the updated entities are
    /// re-ranked to their fresh probabilities.
    pub fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch {
        self.apply(MutationRef::Update(updates))
    }

    /// Applies one scored mutation batch and feeds its delta to the
    /// schedule — the path of the three methods above and of WAL replay.
    pub(crate) fn apply(&mut self, mutation: MutationRef<'_>) -> DeltaBatch {
        let delta = self.blocker.apply(mutation, true);
        self.apply_delta(&delta);
        delta
    }

    /// Emits the next up-to-`budget` comparisons in decreasing probability
    /// order across everything ingested so far.
    pub fn next_batch(
        &mut self,
        budget: usize,
    ) -> Vec<((er_core::EntityId, er_core::EntityId), f64)> {
        self.schedule.next_batch(budget)
    }

    /// The progressive schedule.
    pub fn schedule(&self) -> &StreamingSchedule {
        &self.schedule
    }

    /// The underlying streaming blocker.
    pub fn blocker(&self) -> &StreamingMetaBlocker<TokenKeys> {
        &self.blocker
    }

    /// Number of entities ingested so far (seed included).
    pub fn num_entities(&self) -> usize {
        self.blocker.num_entities()
    }

    /// Folds the accumulated deltas into a fresh baseline CSR and returns
    /// the batch-equivalent view of the whole ingested corpus.
    pub fn compact(&mut self) -> CsrBlockCollection {
        self.blocker.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::CandidatePairs;
    use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
    use er_stream::dataset_prefix;

    fn dataset() -> Dataset {
        generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap()
    }

    fn config() -> MetaBlockingConfig {
        MetaBlockingConfig {
            per_class: 15,
            threads: Some(2),
            ..Default::default()
        }
    }

    #[test]
    fn bootstrap_then_stream_covers_the_whole_corpus() {
        let ds = dataset();
        // Seed: all of E1 plus the first half of E2.
        let seed_count = ds.split + (ds.num_entities() - ds.split) / 2;
        let seed = dataset_prefix(&ds, seed_count);
        let mut pipeline = StreamingPipeline::bootstrap(&config(), &seed).unwrap();
        assert_eq!(pipeline.num_entities(), seed_count);
        assert!(pipeline.schedule().pending() > 0);

        // Stream the remaining E2 entities in small batches.
        let mut streamed_pairs = 0usize;
        for chunk in ds.profiles[seed_count..].chunks(7) {
            let delta = pipeline.ingest(chunk);
            assert_eq!(delta.probabilities.len(), delta.num_additions());
            streamed_pairs += delta.num_additions();
        }
        assert_eq!(pipeline.num_entities(), ds.num_entities());
        assert!(streamed_pairs > 0, "streaming found no new candidates");

        // The compacted state equals a one-shot batch build.
        let compacted = pipeline.compact();
        let batch = build_blocks(&ds, &TokenKeys, 2);
        assert!(compacted.same_blocks(&batch));
    }

    #[test]
    fn churn_keeps_the_schedule_consistent_with_the_corpus() {
        use er_core::FxHashSet;

        let ds = dataset();
        let seed_count = ds.split + (ds.num_entities() - ds.split) / 2;
        let seed = er_stream::dataset_prefix(&ds, seed_count);
        let mut pipeline = StreamingPipeline::bootstrap(&config(), &seed).unwrap();

        // Stream the rest, then churn: remove a spread of E2 entities and
        // re-key a couple of others.
        pipeline.ingest(&ds.profiles[seed_count..]);
        let removed: Vec<er_core::EntityId> = (ds.split..ds.num_entities())
            .step_by(5)
            .take(6)
            .map(|e| er_core::EntityId(e as u32))
            .collect();
        let delta = pipeline.remove(&removed);
        assert_eq!(delta.num_removed, removed.len());
        let dead: FxHashSet<u32> = removed.iter().map(|e| e.0).collect();
        let updated: Vec<(er_core::EntityId, er_core::EntityProfile)> = (ds.split
            ..ds.num_entities())
            .filter(|e| !dead.contains(&(*e as u32)))
            .take(2)
            .map(|e| {
                (
                    er_core::EntityId(e as u32),
                    ds.profiles[e - ds.split].clone(),
                )
            })
            .collect();
        let delta = pipeline.update(&updated);
        assert_eq!(delta.num_updated, updated.len());

        // Whatever the schedule now drains never touches a removed entity.
        while let Some(((a, b), _)) = pipeline.schedule.pop() {
            assert!(!dead.contains(&a.0) && !dead.contains(&b.0));
        }

        // And the compacted state still equals a batch build of the
        // surviving corpus.
        let survivors = er_stream::surviving_dataset(&ds, &removed, &updated);
        let compacted = pipeline.compact();
        let batch = build_blocks(&survivors, &TokenKeys, 2);
        assert!(compacted.same_blocks(&batch));
    }

    #[test]
    fn cleaned_pipeline_schedules_only_cleaned_candidates() {
        let ds = dataset();
        let seed_count = ds.split + (ds.num_entities() - ds.split) / 2;
        let seed = er_stream::dataset_prefix(&ds, seed_count);
        let mut raw = StreamingPipeline::bootstrap(&config(), &seed).unwrap();
        let mut cleaned = StreamingPipeline::bootstrap_cleaned(&config(), &seed).unwrap();
        assert!(cleaned.live_view().is_some() && raw.live_view().is_none());
        assert!(cleaned.schedule().pending() <= raw.schedule().pending());

        for chunk in ds.profiles[seed_count..].chunks(17) {
            raw.ingest(chunk);
            cleaned.ingest(chunk);
        }
        let removed = [er_core::EntityId((ds.num_entities() - 1) as u32)];
        raw.remove(&removed);
        cleaned.remove(&removed);

        // The cleaned schedule drains exactly the live view's candidate
        // set, which in turn equals the batch pipeline's cleaned set.
        let expected: Vec<(er_core::EntityId, er_core::EntityId)> =
            cleaned.live_view().unwrap().candidate_pairs();
        let mut drained: Vec<(er_core::EntityId, er_core::EntityId)> = Vec::new();
        while let Some((pair, _)) = cleaned.schedule.pop() {
            drained.push(pair);
        }
        drained.sort_unstable();
        assert_eq!(drained, expected);

        let survivors = er_stream::surviving_dataset(&ds, &removed, &[]);
        let (_, stats) = er_blocking::standard_blocking_workflow_csr(&survivors, 2);
        let batch_pairs = CandidatePairs::from_stats(&stats, 2);
        assert_eq!(expected.as_slice(), batch_pairs.pairs());
    }

    #[test]
    fn schedule_drains_in_decreasing_probability() {
        let ds = dataset();
        let seed = dataset_prefix(&ds, ds.split + 20);
        let mut pipeline = StreamingPipeline::bootstrap(&config(), &seed).unwrap();
        pipeline.ingest(&ds.profiles[pipeline.num_entities()..]);
        let mut last = f64::INFINITY;
        let mut drained = 0usize;
        while let Some((_, p)) = pipeline.schedule.pop() {
            assert!(p <= last + 1e-15, "schedule emitted out of order");
            last = p;
            drained += 1;
        }
        assert!(drained > 0);
        assert_eq!(pipeline.schedule().emitted(), drained);
    }
}
