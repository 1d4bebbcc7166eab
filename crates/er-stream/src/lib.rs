//! Incremental (streaming) meta-blocking over the CSR block engine.
//!
//! Every other crate in this workspace is batch-oriented: a new entity
//! forces a full rebuild of blocks, statistics, candidates and scores.  This
//! crate adds the missing subsystem for live corpora — catalog updates,
//! progressive ER query streams — by maintaining the blocking state as a
//! **mutation log** over a compacted baseline and emitting, per batch, only
//! the *delta*: candidate additions with feature vectors and classifier
//! probabilities, retractions of pairs that lost their support, and
//! re-scored survivors of profile updates:
//!
//! * [`StreamingIndex`] — interned key dictionary (an
//!   [`er_blocking::KeyTable`] text arena and tag-probed slot table),
//!   per-key posting deltas **and tombstones** layered over a
//!   compacted [`er_blocking::CsrBlockCollection`] baseline, exact
//!   decremental block statistics, a liveness journal that generalises the
//!   insert-only size-cap retraction scan to every flip direction, and
//!   incremental LCP counts;
//! * [`ShardedIndex`] — N [`StreamingIndex`] posting shards behind one
//!   global key dictionary, routed by [`shard_of_key`];
//! * [`DeltaIndex`] — the one trait both indexes implement: each supplies
//!   only its shape, key addressing and mutation fan-out, and the delta
//!   algorithms (the batch close and its liveness-flip scans, partner
//!   gathering, pair co-occurrence, entity aggregates, LCP bookkeeping) are
//!   its provided methods, written once;
//! * [`StreamingMetaBlocker`] — the pipeline: `ingest` new profiles,
//!   `remove` entities (ids retired, postings tombstoned) or `update` them
//!   in place (re-keyed via a posting diff), gather delta pairs via scoped
//!   scoreboard passes (split across workers only for batches of at least
//!   two [`MIN_ENTITIES_PER_WORKER`] grains), score them through the shared
//!   [`er_features::write_features_from`] writer and an attached
//!   [`er_learn::ProbabilisticClassifier`]; every batch enters through one
//!   dispatch, [`StreamingMetaBlocker::apply`], whose `score` flag skips
//!   the feature phase for batches that need no emission (WAL replay, a
//!   seed corpus already scored in batch);
//! * [`DeltaBatch`] — the per-batch emission (additions, retractions,
//!   re-scored survivors, touched keys);
//! * [`persist`] — the write-ahead [`persist::MutationLog`] protocol the
//!   durable wrappers (`er_shard::DurableShardedService`,
//!   `meta_blocking::DurableStreamingPipeline`) share, with the logged
//!   [`MutationRecord`] and its borrowed view [`MutationRef`];
//! * [`StreamingMetaBlocker::compact`] — ends the epoch by folding the
//!   deltas into a fresh baseline CSR — physically dropping tombstoned
//!   postings — that is **bit-identical** to a one-shot
//!   [`er_blocking::build_blocks`] over the surviving corpus, for any
//!   interleaving of insert/remove/update batches and any thread count
//!   (property tested in `tests/equivalence.rs` and `tests/mutation.rs`).
//!
//! Under pure insertions no candidate pair between pre-existing entities can
//! appear (both key sets are fixed), so every delta pair has at least one
//! endpoint in the batch and per-batch cost scales with the batch, not the
//! corpus.  Removals and updates break monotonicity in both directions: a
//! block can lose the live set (retracting the pairs it alone supported) or
//! re-enter it after shrinking back under a scheme's size cap (reviving
//! them) — both transitions are detected exactly from the per-batch
//! liveness journal and travel in [`DeltaBatch::retractions`] and
//! [`DeltaBatch::additions`].

pub mod blocker;
pub mod delta;
pub mod index;
mod key_order;
mod obs;
pub mod persist;
pub mod shard;

pub use blocker::{
    dataset_prefix, surviving_dataset, DeltaBatch, StreamingConfig, StreamingMetaBlocker,
    MIN_ENTITIES_PER_WORKER,
};
pub use delta::DeltaIndex;
pub use index::{BatchEffects, Members, PartnerBoard, StreamingIndex};
pub use persist::{MutationRecord, MutationRef};
pub use shard::{shard_of_key, ShardRouterState, ShardedIndex};
