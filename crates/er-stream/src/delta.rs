//! Trait abstraction over mutable blocking indexes.
//!
//! [`BlockIndex`] is the read-only surface that incremental *consumers* —
//! [`meta-blocking`'s `LiveView`][liveview], progressive schedules, lookup
//! paths — need: block membership, liveness, per-entity adjacency and the
//! LCP counters.  [`DeltaIndex`] extends it with the full mutation/feature
//! protocol that [`crate::StreamingMetaBlocker`] drives: interning,
//! entity CRUD, batch liveness effects, partner collection and
//! view/compaction.
//!
//! [`crate::StreamingIndex`] is the canonical single-shard implementation;
//! `er-shard`'s `ShardedIndex` implements the same contract over a
//! hash-partitioned posting space.  Every method is specified to be
//! **bit-identical** across implementations: same candidate order, same
//! floating-point accumulation order, same view.  The generic
//! `StreamingMetaBlocker<G, I>` contains *all* orchestration (batch
//! phases, scoring, emission), so equivalence between implementations
//! reduces to equivalence of these primitives — which the er-shard
//! property suite checks directly against the single-shard oracle.
//!
//! [liveview]: ../meta_blocking/struct.LiveView.html

use er_blocking::CsrBlockCollection;
use er_core::{DatasetKind, EntityId};
use er_features::{EntityAggregates, PairCooccurrence};

use crate::index::{BatchEffects, Members, PartnerBoard, StreamingIndex};

/// Read-only view of a (possibly sharded) blocking index: everything a
/// wait-free reader needs, nothing a writer does.
///
/// `Sync` is part of the contract — consumers fan reads out across worker
/// threads ([`er_core::map_ranges_parallel`]).  The blocker's per-entity
/// phases do so only for batches of at least two
/// [`MIN_ENTITIES_PER_WORKER`](crate::MIN_ENTITIES_PER_WORKER) grains; smaller
/// batches read the index on the calling thread.
pub trait BlockIndex: Sync {
    /// Number of interned keys (dead or alive).
    fn num_keys(&self) -> usize;
    /// Number of entity ids ever assigned (including removed entities).
    fn num_entities(&self) -> usize;
    /// Number of entities currently alive.
    fn num_alive(&self) -> usize;
    /// Whether an entity is currently alive.
    fn is_alive(&self, entity: EntityId) -> bool;
    /// The interned key string.
    fn key_str(&self, key: u32) -> &str;
    /// Current member count of a key's block.
    fn block_size(&self, key: u32) -> usize;
    /// Whether the batch engine would emit this key's block right now.
    fn is_block_live(&self, key: u32) -> bool;
    /// Ascending iterator over a block's current members.
    fn members(&self, key: u32) -> Members<'_>;
    /// The entity's current key list in lexicographic key-string order.
    fn keys_of(&self, entity: EntityId) -> &[u32];
    /// Whether two entities may be compared (cross-source for Clean-Clean).
    fn is_comparable(&self, a: EntityId, b: EntityId) -> bool;
    /// The entity's distinct-candidate count (the LCP feature).
    fn candidates_of(&self, entity: EntityId) -> u32;
}

/// The full mutation + feature protocol of a delta-over-baseline blocking
/// index, as driven by the generic [`crate::StreamingMetaBlocker`].
///
/// Implementations must preserve the determinism contract documented on
/// [`crate::index`]: per-entity key lists in lexicographic key order, so
/// partner scoreboards, aggregate tables and co-occurrence merges fold
/// floats in exactly the batch engine's order.
pub trait DeltaIndex: BlockIndex {
    /// Dataset kind (Dirty or Clean-Clean).
    fn kind(&self) -> DatasetKind;
    /// First-source size for Clean-Clean corpora.
    fn split(&self) -> usize;
    /// The scheme's block-size cap.
    fn size_cap(&self) -> usize;
    /// The dataset label stamped onto emitted views.
    fn dataset_name(&self) -> &str;
    /// Compaction epoch (bumped by [`DeltaIndex::compact`]).
    fn epoch(&self) -> u64;
    /// Whether a mutation batch is currently open (touched keys pending).
    fn has_open_batch(&self) -> bool;
    /// Interns a key string, returning its stable id.
    fn intern(&mut self, key: &str) -> u32;
    /// Inserts a new entity with the given raw (unsorted, possibly
    /// duplicated) interned keys; canonicalises in place.
    fn insert_entity(&mut self, raw_keys: &mut Vec<u32>) -> EntityId;
    /// Removes an entity (tombstones its postings, empties its key row).
    fn remove_entity(&mut self, entity: EntityId);
    /// Replaces an entity's key set (re-keying update).
    fn replace_entity_keys(&mut self, entity: EntityId, raw_keys: &mut Vec<u32>);
    /// Ends a mutation batch; see [`StreamingIndex::finish_batch`].
    ///
    /// Takes `&dyn Fn` rather than `impl Fn` for object-safety of the
    /// callback across trait boundaries; `&dyn Fn` itself implements `Fn`,
    /// so implementations forward to their inherent generic method.
    fn finish_batch(&mut self, in_batch: &dyn Fn(EntityId) -> bool) -> BatchEffects;
    /// Smaller-id candidate partners of a freshly ingested entity.
    fn collect_delta_pairs(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)>;
    /// All current candidate partners of an entity, with aggregates.
    fn collect_partners(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)>;
    /// All current candidate partner ids (sorted, distinct), no aggregates.
    fn collect_partner_ids(&self, e: EntityId) -> Vec<EntityId>;
    /// Co-occurrence aggregates of one pair over the live blocks.
    fn pair_cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence;
    /// Per-entity aggregates over the live blocks.
    fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates;
    /// Records one emitted candidate pair (both LCP counters).
    fn record_candidate(&mut self, a: EntityId, b: EntityId);
    /// Records one retracted candidate pair (both LCP counters).
    fn retract_candidate(&mut self, a: EntityId, b: EntityId);
    /// Batch-identical CSR view of the current live blocks.
    fn view(&self, threads: usize) -> CsrBlockCollection;
    /// Folds deltas into a fresh baseline, bumps the epoch, returns the view.
    fn compact(&mut self, threads: usize) -> CsrBlockCollection;
}

// Inherent methods take precedence over trait methods inside these impls,
// so each body resolves to the inherent `StreamingIndex` method — no
// recursion.
impl BlockIndex for StreamingIndex {
    fn num_keys(&self) -> usize {
        self.num_keys()
    }
    fn num_entities(&self) -> usize {
        self.num_entities()
    }
    fn num_alive(&self) -> usize {
        self.num_alive()
    }
    fn is_alive(&self, entity: EntityId) -> bool {
        self.is_alive(entity)
    }
    fn key_str(&self, key: u32) -> &str {
        self.key_str(key)
    }
    fn block_size(&self, key: u32) -> usize {
        self.block_size(key)
    }
    fn is_block_live(&self, key: u32) -> bool {
        self.is_block_live(key)
    }
    fn members(&self, key: u32) -> Members<'_> {
        self.members(key)
    }
    fn keys_of(&self, entity: EntityId) -> &[u32] {
        self.keys_of(entity)
    }
    fn is_comparable(&self, a: EntityId, b: EntityId) -> bool {
        self.is_comparable(a, b)
    }
    fn candidates_of(&self, entity: EntityId) -> u32 {
        self.candidates_of(entity)
    }
}

impl DeltaIndex for StreamingIndex {
    fn kind(&self) -> DatasetKind {
        self.kind()
    }
    fn split(&self) -> usize {
        self.split()
    }
    fn size_cap(&self) -> usize {
        self.size_cap()
    }
    fn dataset_name(&self) -> &str {
        self.dataset_name()
    }
    fn epoch(&self) -> u64 {
        self.epoch()
    }
    fn has_open_batch(&self) -> bool {
        self.has_open_batch()
    }
    fn intern(&mut self, key: &str) -> u32 {
        self.intern(key)
    }
    fn insert_entity(&mut self, raw_keys: &mut Vec<u32>) -> EntityId {
        self.insert_entity(raw_keys)
    }
    fn remove_entity(&mut self, entity: EntityId) {
        self.remove_entity(entity)
    }
    fn replace_entity_keys(&mut self, entity: EntityId, raw_keys: &mut Vec<u32>) {
        self.replace_entity_keys(entity, raw_keys)
    }
    fn finish_batch(&mut self, in_batch: &dyn Fn(EntityId) -> bool) -> BatchEffects {
        self.finish_batch(in_batch)
    }
    fn collect_delta_pairs(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        self.collect_delta_pairs(e, board)
    }
    fn collect_partners(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        self.collect_partners(e, board)
    }
    fn collect_partner_ids(&self, e: EntityId) -> Vec<EntityId> {
        self.collect_partner_ids(e)
    }
    fn pair_cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence {
        self.pair_cooccurrence(a, b)
    }
    fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates {
        self.entity_aggregates(entity)
    }
    fn record_candidate(&mut self, a: EntityId, b: EntityId) {
        self.record_candidate(a, b)
    }
    fn retract_candidate(&mut self, a: EntityId, b: EntityId) {
        self.retract_candidate(a, b)
    }
    fn view(&self, threads: usize) -> CsrBlockCollection {
        self.view(threads)
    }
    fn compact(&mut self, threads: usize) -> CsrBlockCollection {
        self.compact(threads)
    }
}
