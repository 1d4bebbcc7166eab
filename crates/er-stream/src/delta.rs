//! The one trait over mutable blocking indexes, and the streaming delta
//! algorithms written once against it.
//!
//! [`DeltaIndex`] is everything [`crate::StreamingMetaBlocker`] and the
//! incremental consumers ([`meta-blocking`'s `LiveView`][liveview],
//! progressive schedules, lookup paths) need from an index.  Its methods
//! split in two:
//!
//! * **Required** — only what differs between implementations: the shape
//!   (kind, split, cap, name, epoch, entity / alive / key counts, the open
//!   batch), the *addressing* of keys and entities (key text, a key's
//!   statistics record, its statistics and members in one lookup, an
//!   entity's key row, the live-block totals, the LCP counters, the key
//!   dictionary's bytes), the mutation fan-out (interning, insert / remove
//!   / replace, draining the touched-key journal) and the view /
//!   compaction.
//! * **Provided** — every algorithm over those primitives: the batch close
//!   ([`DeltaIndex::finish_batch`] and its liveness-flip scans), partner
//!   gathering, pair co-occurrence, per-entity aggregates and the LCP
//!   bookkeeping.
//!
//! [`crate::StreamingIndex`] is the single-shard implementation and
//! [`crate::ShardedIndex`] the hash-partitioned one.  Both run the same
//! provided methods, monomorphised per index, so their candidate order and
//! floating-point accumulation order agree by construction as long as the
//! addressing agrees: key ids in first-encounter intern order and every
//! entity's key row in lexicographic key-string order (see
//! [`crate::index`]).  The er-shard property suite checks that addressing
//! against the single-shard index.
//!
//! [liveview]: ../meta_blocking/struct.LiveView.html

use er_blocking::CsrBlockCollection;
use er_core::{DatasetKind, EntityId};
use er_features::{EntityAggregates, PairCooccurrence};

use crate::index::{BatchEffects, KeyStats, Members, PartnerBoard};

/// A delta-over-baseline blocking index, as driven by the generic
/// [`crate::StreamingMetaBlocker`] and read by incremental consumers.
///
/// `Sync` is part of the contract — consumers fan reads out across worker
/// threads ([`er_core::map_ranges_parallel`]).  The blocker's per-entity
/// phases do so only for batches of at least two
/// [`MIN_ENTITIES_PER_WORKER`](crate::MIN_ENTITIES_PER_WORKER) grains; smaller
/// batches read the index on the calling thread.
pub trait DeltaIndex: Sync {
    /// Dataset kind (Dirty or Clean-Clean).
    fn kind(&self) -> DatasetKind;
    /// First-source size for Clean-Clean corpora.
    fn split(&self) -> usize;
    /// The scheme's block-size cap (`usize::MAX` when the scheme has none).
    fn size_cap(&self) -> usize;
    /// The dataset label stamped onto emitted views.
    fn dataset_name(&self) -> &str;
    /// Compaction epoch (bumped by [`DeltaIndex::compact`]).
    fn epoch(&self) -> u64;
    /// Number of entity ids ever assigned (including removed entities).
    fn num_entities(&self) -> usize;
    /// Number of entities currently alive.
    fn num_alive(&self) -> usize;
    /// Number of interned keys (dead or alive).
    fn num_keys(&self) -> usize;
    /// Whether an entity is currently alive.
    fn is_alive(&self, entity: EntityId) -> bool;
    /// Whether a mutation batch is currently open (touched keys pending).
    /// Snapshots are only taken at batch boundaries, where this is false.
    fn has_open_batch(&self) -> bool;

    /// The interned key string.
    fn key_str(&self, key: u32) -> &str;
    /// The statistics record of a key's block.
    fn key_stats(&self, key: u32) -> &KeyStats;
    /// A key's statistics record and its current members (ascending), in
    /// one lookup.  Paths that read only the statistics use
    /// [`DeltaIndex::key_stats`] and skip setting up the member walk.
    fn block(&self, key: u32) -> (&KeyStats, Members<'_>);
    /// The entity's current key list in lexicographic key-string order
    /// (empty for removed entities).
    fn keys_of(&self, entity: EntityId) -> &[u32];
    /// `|B|`: the number of blocks the batch engine would emit right now.
    fn num_live_blocks(&self) -> usize;
    /// `||B||`: total comparisons over the live blocks.
    fn total_comparisons(&self) -> u64;
    /// Per-entity distinct-candidate counts (the LCP feature).
    fn lcp_counters(&self) -> &[u32];
    /// Mutable per-entity distinct-candidate counts.
    fn lcp_counters_mut(&mut self) -> &mut [u32];
    /// Heap bytes of the key dictionaries.
    fn key_table_bytes(&self) -> usize;

    /// Interns a key string, returning its stable id.
    fn intern(&mut self, key: &str) -> u32;
    /// Inserts a new entity with the given raw (unsorted, possibly
    /// duplicated) interned keys; canonicalises them in place into the
    /// entity's key row.  Liveness flips land in the batch journal.
    fn insert_entity(&mut self, raw_keys: &mut Vec<u32>) -> EntityId;
    /// Removes an entity: tombstones its postings, empties its key row and
    /// retires its id.  Candidate retractions for the entity's own pairs
    /// are the caller's (the blocker diffs its partner sets).
    fn remove_entity(&mut self, entity: EntityId);
    /// Replaces an entity's key set (re-keying update); canonicalises
    /// `raw_keys` in place.
    fn replace_entity_keys(&mut self, entity: EntityId, raw_keys: &mut Vec<u32>);
    /// Closes the touched-key journal of the current batch.  Returns every
    /// touched key with its pre-batch liveness, sorted by key id, and the
    /// number of keys interned since the previous drain.
    fn drain_journal(&mut self) -> (Vec<(u32, bool)>, usize);

    /// Batch-identical CSR view of the current live blocks.
    fn view(&self, threads: usize) -> CsrBlockCollection;
    /// Folds deltas into a fresh baseline, bumps the epoch, returns the view.
    fn compact(&mut self, threads: usize) -> CsrBlockCollection;

    /// Current member count of a key's block.
    #[inline]
    fn block_size(&self, key: u32) -> usize {
        self.key_stats(key).size as usize
    }

    /// Whether the batch engine would emit this key's block right now.
    #[inline]
    fn is_block_live(&self, key: u32) -> bool {
        self.key_stats(key).is_live(self.size_cap())
    }

    /// Ascending iterator over a block's current members.
    #[inline]
    fn members(&self, key: u32) -> Members<'_> {
        self.block(key).1
    }

    /// Whether two entities may be compared (the workspace's single
    /// comparability rule, [`DatasetKind::comparable`]).
    #[inline]
    fn is_comparable(&self, a: EntityId, b: EntityId) -> bool {
        self.kind().comparable(self.split(), a, b)
    }

    /// The entity's distinct-candidate count (the LCP feature).
    #[inline]
    fn candidates_of(&self, entity: EntityId) -> u32 {
        self.lcp_counters()[entity.index()]
    }

    /// Records one emitted candidate pair (both LCP counters).
    fn record_candidate(&mut self, a: EntityId, b: EntityId) {
        let lcp = self.lcp_counters_mut();
        lcp[a.index()] += 1;
        lcp[b.index()] += 1;
    }

    /// Records one retracted candidate pair (both LCP counters).
    fn retract_candidate(&mut self, a: EntityId, b: EntityId) {
        let lcp = self.lcp_counters_mut();
        lcp[a.index()] -= 1;
        lcp[b.index()] -= 1;
    }

    /// Ends a mutation batch: drains the touched-key journal, turns the net
    /// liveness flips into exact candidate retractions (blocks that left the
    /// live set) and revivals (blocks that re-entered it) among pairs of
    /// **unmutated** entities, applies their LCP adjustments, and returns
    /// the effects.  `in_batch` must identify every entity inserted, removed
    /// or updated during the batch — pairs with a mutated endpoint are
    /// handled by the caller's before/after partner-set diff instead.
    fn finish_batch(&mut self, in_batch: impl Fn(EntityId) -> bool) -> BatchEffects {
        let (journal, interned) = self.drain_journal();
        let mut retracted: Vec<(EntityId, EntityId)> = Vec::new();
        let mut revived: Vec<(EntityId, EntityId)> = Vec::new();
        for &(k, was_live) in &journal {
            let now_live = self.is_block_live(k);
            if was_live && !now_live {
                scan_flip(self, k, &in_batch, None, &mut retracted);
            } else if !was_live && now_live {
                scan_flip(self, k, &in_batch, Some(&journal), &mut revived);
            }
        }
        // One batch can flip several blocks a pair belongs to, so the scans
        // may report the same pair twice; deduplicate before touching the
        // LCP counters.
        retracted.sort_unstable();
        retracted.dedup();
        revived.sort_unstable();
        revived.dedup();
        for &(a, b) in &retracted {
            self.retract_candidate(a, b);
        }
        for &(a, b) in &revived {
            self.record_candidate(a, b);
        }
        crate::obs::record_key_table(interned, self.key_table_bytes());
        BatchEffects {
            touched_keys: journal.into_iter().map(|(k, _)| k).collect(),
            retracted,
            revived,
        }
    }

    /// Gathers the delta pairs of one newly ingested entity: every strictly
    /// smaller comparable entity sharing at least one live block, together
    /// with the pair's co-occurrence aggregates — the scoreboard pass of the
    /// batch feature engine, scoped to a single entity.
    ///
    /// Requires every entity of the batch to be inserted first (partners are
    /// judged against end-of-batch block state); restricting partners to
    /// smaller ids makes each in-batch pair come out of exactly one call.
    /// Contributions accumulate in lexicographic key order, so the sums are
    /// bit-identical to a batch [`er_features::FeatureContext`] merge.
    fn collect_delta_pairs(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        collect_partners_on(self, e, board, true)
    }

    /// Gathers **all** current candidate partners of an entity (smaller and
    /// larger ids) with their co-occurrence aggregates — the after-image an
    /// update diffs against its before-image.
    fn collect_partners(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        collect_partners_on(self, e, board, false)
    }

    /// The current candidate partner ids of an entity (sorted, distinct):
    /// the before-image a mutation diffs against.  Cheaper than
    /// [`DeltaIndex::collect_partners`] because no aggregates are
    /// accumulated.
    fn collect_partner_ids(&self, e: EntityId) -> Vec<EntityId> {
        let mut partners: Vec<EntityId> = Vec::new();
        for &k in self.keys_of(e) {
            let (stats, members) = self.block(k);
            if !stats.is_live(self.size_cap()) {
                continue;
            }
            partners.extend(members.filter(|&p| p != e && self.is_comparable(p, e)));
        }
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    /// The co-occurrence aggregates of one pair over the live blocks: a
    /// merge of the two lexicographically sorted key lists, accumulating in
    /// block-id order so the sums are bit-identical to the batch
    /// [`er_features::FeatureContext::cooccurrence`].
    fn pair_cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence {
        let cap = self.size_cap();
        let mut agg = PairCooccurrence::default();
        find_shared_key(self, a, b, |k| {
            let stats = self.key_stats(k);
            if stats.is_live(cap) {
                agg.common_blocks += 1;
                agg.inv_comparisons_sum += stats.inv_comparisons;
                agg.inv_sizes_sum += stats.inv_sizes;
            }
            false
        });
        agg
    }

    /// The per-entity aggregates of one entity over the *live* blocks — the
    /// quantities [`er_features::FeatureContext`] precomputes corpus-wide,
    /// recomputed here in `O(|B_i|)` for exactly the entities a batch
    /// touches.  Terms are added in lexicographic key order, so the values
    /// are bit-identical to the batch tables for the same corpus.
    fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates {
        let cap = self.size_cap();
        let mut live_blocks = 0usize;
        let mut inv_comparisons = 0.0f64;
        let mut inv_sizes = 0.0f64;
        let mut entity_comparisons = 0u64;
        for &k in self.keys_of(entity) {
            let stats = self.key_stats(k);
            if !stats.is_live(cap) {
                continue;
            }
            live_blocks += 1;
            inv_comparisons += stats.inv_comparisons;
            inv_sizes += stats.inv_sizes;
            entity_comparisons += stats.comparisons;
        }
        let blocks_of = live_blocks as f64;
        let num_blocks = self.num_live_blocks() as f64;
        let ibf = if blocks_of > 0.0 && num_blocks > 0.0 {
            (num_blocks / blocks_of).ln()
        } else {
            0.0
        };
        let own = entity_comparisons as f64;
        let total = self.total_comparisons() as f64;
        let icf = if own > 0.0 && total > 0.0 {
            (total / own).ln()
        } else {
            0.0
        };
        EntityAggregates {
            num_blocks: blocks_of,
            inv_comparisons,
            inv_sizes,
            ibf,
            icf,
            lcp: f64::from(self.candidates_of(entity)),
        }
    }
}

/// Shared body of the partner-collection pair: walk the entity's key list
/// in lexicographic order, read each live key's statistics and members,
/// and accumulate on the board.
fn collect_partners_on<I: DeltaIndex + ?Sized>(
    index: &I,
    e: EntityId,
    board: &mut PartnerBoard,
    smaller_only: bool,
) -> Vec<(EntityId, PairCooccurrence)> {
    let cap = index.size_cap();
    for &k in index.keys_of(e) {
        let (stats, members) = index.block(k);
        if !stats.is_live(cap) {
            continue;
        }
        let (inv_comparisons, inv_sizes) = (stats.inv_comparisons, stats.inv_sizes);
        for p in members {
            if smaller_only && p >= e {
                // Postings are ascending: no smaller partner follows.
                break;
            }
            if p == e || !index.is_comparable(p, e) {
                continue;
            }
            board.add(p.0, inv_comparisons, inv_sizes);
        }
    }
    board.drain_sorted()
}

/// A block's liveness flipped during the batch: scans its comparable pairs
/// of unmutated members for candidacy changes.  When the block died
/// (`pre_live` is `None`) a pair is retracted when it shares no live key
/// any more; when it came alive a pair is revived when it shared no live
/// key *before* the batch — its key lists are unchanged, so pre-batch
/// candidacy is decidable from the drained journal (`pre_live`, sorted by
/// key; an untouched key kept its liveness).  The scan is bounded: a dying
/// block crossed the size cap (≤ cap + batch members) or lost all
/// comparable pairs (guarded away), and a rising block fits under the cap.
fn scan_flip<I: DeltaIndex + ?Sized>(
    index: &I,
    key: u32,
    in_batch: &impl Fn(EntityId) -> bool,
    pre_live: Option<&[(u32, bool)]>,
    out: &mut Vec<(EntityId, EntityId)>,
) {
    let members: Vec<EntityId> = index.members(key).filter(|&m| !in_batch(m)).collect();
    // Skip the quadratic scan when no comparable pair of unmutated members
    // can exist (e.g. a single-source Clean-Clean block dying because its
    // only cross member was removed).
    match index.kind() {
        DatasetKind::Dirty => {
            if members.len() < 2 {
                return;
            }
        }
        DatasetKind::CleanClean => {
            let first = members.partition_point(|m| m.index() < index.split());
            if first == 0 || first == members.len() {
                return;
            }
        }
    }
    let was_live = |k: u32| match pre_live {
        None => index.is_block_live(k),
        Some(journal) => match journal.binary_search_by_key(&k, |&(key, _)| key) {
            Ok(at) => journal[at].1,
            Err(_) => index.is_block_live(k),
        },
    };
    for i in 0..members.len() {
        for j in i + 1..members.len() {
            let (a, b) = (members[i], members[j]);
            if index.is_comparable(a, b) && !find_shared_key(index, a, b, was_live) {
                out.push((a, b));
            }
        }
    }
}

/// Merges two entities' key rows (both in lexicographic key-string order)
/// and calls `visit` on every shared key in that order, stopping at the
/// first one it accepts.  Returns whether it accepted one.
#[inline]
fn find_shared_key<I: DeltaIndex + ?Sized>(
    index: &I,
    a: EntityId,
    b: EntityId,
    mut visit: impl FnMut(u32) -> bool,
) -> bool {
    let la = index.keys_of(a);
    let lb = index.keys_of(b);
    let (mut i, mut j) = (0, 0);
    while i < la.len() && j < lb.len() {
        let (x, y) = (la[i], lb[j]);
        if x == y {
            if visit(x) {
                return true;
            }
            i += 1;
            j += 1;
        } else if index.key_str(x) < index.key_str(y) {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}
