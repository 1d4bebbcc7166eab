//! The mutable blocking index behind [`crate::StreamingMetaBlocker`].
//!
//! A [`StreamingIndex`] holds the complete blocking state of a churning
//! corpus — inserts, deletes *and* updates — in a delta-over-baseline
//! layout:
//!
//! * an interned key dictionary (`key → u32`): one [`KeyTable`], a text
//!   arena holding every key's bytes once plus an open-addressing table of
//!   `(hash tag, id)` slots, so a known key costs one slot read and one
//!   arena read and a new key allocates nothing of its own,
//! * per-key posting lists split into a **compacted baseline CSR** (the
//!   state at the last [`DeltaIndex::compact`] epoch), a per-key
//!   sorted **delta vector** of entities that joined the block since, and a
//!   per-key sorted **tombstone vector** of baseline entities that left it
//!   (deletions and re-keying updates cannot edit the shared baseline
//!   arena, so departures are recorded as tombstones and physically
//!   dropped at the next compaction),
//! * one packed 32-byte statistics record per key (`|b|`, first-source
//!   count, `||b||`, `1/||b||`, `1/|b|`; liveness is derived from them)
//!   updated **exactly** — incrementally on insertion, decrementally on
//!   removal — together with the global live-block aggregates (`|B|`,
//!   `||B||`),
//! * the entity → key adjacency as a baseline CSR plus an overlay map for
//!   mutated entities (an update replaces the row, a deletion empties it;
//!   the overlay folds back into the CSR at compaction), and
//! * the per-entity distinct-candidate counts (the LCP feature), maintained
//!   incrementally from emitted candidate additions and retractions.
//!
//! # Liveness
//!
//! The batch engine ([`er_blocking::build_blocks`]) drops blocks that cannot
//! produce a comparison or exceed the scheme's size cap.  The streaming
//! index cannot discard those postings — a Clean-Clean block whose members
//! are all from E1 produces zero comparisons today but becomes useful the
//! moment an E2 entity joins it — so every key keeps its full posting list
//! and is *live* instead when it has a comparison and fits the size cap:
//! live blocks are exactly the blocks the batch engine would emit for the
//! current corpus.  Under pure insertions a block leaves the live set only
//! by crossing the size cap; with deletions and updates every transition is
//! possible, including a capped block shrinking back under the cap and
//! **re-entering** the live set.  Each mutation batch therefore records the
//! pre-batch liveness of every touched key — the batch journal is a flat
//! list of touched keys plus a per-key batch stamp carrying the pre-batch
//! liveness bit, so a touch is one array read — and
//! [`DeltaIndex::finish_batch`] turns the net flips into exact
//! candidate *retractions* (blocks that left the live set) and *revivals*
//! (blocks that re-entered it) — the generalisation of the old
//! insert-only size-cap retraction scan.  The same stamps tell which keys
//! no batch touched since the last compaction: their delta and tombstone
//! vectors are empty, and member walks and posting updates skip reading
//! them.
//!
//! # Determinism
//!
//! Per-entity key lists are stored in lexicographic key order — the order in
//! which the batch engine assigns block ids — so every floating-point
//! accumulation over a key list (partner scoreboards, per-entity aggregate
//! tables, pair co-occurrence merges) adds terms in exactly the order the
//! batch [`er_features::FeatureContext`] would, making streaming feature
//! values bit-identical to a batch rebuild of the surviving corpus.
//!
//! # Identity of the surviving corpus
//!
//! Entity ids are never reused: a deleted entity keeps its id, simply owns
//! no keys and appears in no posting list.  The batch-equivalent view of a
//! mutated stream is therefore the original id space with every deleted
//! entity replaced by an *empty* profile (no attributes → no blocking keys)
//! — exactly what the equivalence property tests build.

use std::ops::Range;
use std::sync::Arc;

use er_blocking::{comparisons_from_first, CsrBlockCollection, KeyStore, KeyTable};
use er_core::{checked_u32, map_ranges_parallel, DatasetKind, EntityId, FxHashMap};
use er_features::{PairCooccurrence, RadixScoreboard, ScoreboardConfig};

use crate::delta::DeltaIndex;
use crate::key_order::KeyOrder;

/// The limit every entity → key adjacency offset is checked against.
const ENTITY_KEYS_LIMIT: &str = "streaming entity-key arena limit (2^32 postings)";

/// Reusable per-worker scoreboard for delta-pair aggregation, backed by the
/// cache-blocked [`RadixScoreboard`] (it replaced the former `FxHashMap`
/// board).  The batch feature pass runs on the candidate-aligned
/// [`er_features::CandidateBoard`] instead: it knows each entity's partner
/// run before it aggregates, while a streaming batch discovers its
/// partners here.
///
/// Scratch scales with one tile plus the current entity's contributions,
/// never with the number of entities ever ingested; the board's per-tile
/// counters grow on demand as the id space extends.  Per-partner sums fold
/// in contribution order — the same order the hash board accumulated in —
/// so the drained aggregates are bit-identical.
#[derive(Debug)]
pub struct PartnerBoard {
    board: RadixScoreboard,
    drained: Vec<(u32, PairCooccurrence)>,
}

impl Default for PartnerBoard {
    fn default() -> Self {
        Self::with_config(&ScoreboardConfig::default())
    }
}

impl PartnerBoard {
    /// A board running on an explicit scoreboard configuration
    /// ([`crate::StreamingConfig::scoreboard`]).
    pub(crate) fn with_config(config: &ScoreboardConfig) -> Self {
        PartnerBoard {
            board: RadixScoreboard::new(0, config),
            drained: Vec::new(),
        }
    }

    /// Accumulates one block contribution for `partner`.
    #[inline]
    pub(crate) fn add(&mut self, partner: u32, inv_comparisons: f64, inv_sizes: f64) {
        self.board.add(partner, inv_comparisons, inv_sizes);
    }

    /// Drains the board into a partner list sorted by entity id.
    pub(crate) fn drain_sorted(&mut self) -> Vec<(EntityId, PairCooccurrence)> {
        self.board.drain_sorted_into(&mut self.drained);
        self.board.flush_metrics();
        self.drained
            .iter()
            .map(|&(p, agg)| (EntityId(p), agg))
            .collect()
    }
}

/// Merged iterator over one key's posting list: baseline minus tombstones,
/// interleaved with the delta vector, in ascending entity-id order.
///
/// Invariants relied on: `removed ⊆ base` (both sorted), `delta` sorted and
/// disjoint from the visible baseline.
#[derive(Debug, Clone)]
pub struct Members<'a> {
    base: &'a [EntityId],
    removed: &'a [EntityId],
    delta: &'a [EntityId],
    bi: usize,
    ri: usize,
    di: usize,
}

impl<'a> Members<'a> {
    #[inline]
    fn new(base: &'a [EntityId], removed: &'a [EntityId], delta: &'a [EntityId]) -> Self {
        Members {
            base,
            removed,
            delta,
            bi: 0,
            ri: 0,
            di: 0,
        }
    }
}

impl Iterator for Members<'_> {
    type Item = EntityId;

    fn next(&mut self) -> Option<EntityId> {
        loop {
            if self.bi < self.base.len() {
                let b = self.base[self.bi];
                while self.ri < self.removed.len() && self.removed[self.ri] < b {
                    self.ri += 1;
                }
                if self.ri < self.removed.len() && self.removed[self.ri] == b {
                    self.bi += 1;
                    self.ri += 1;
                    continue;
                }
                if self.di < self.delta.len() && self.delta[self.di] < b {
                    self.di += 1;
                    return Some(self.delta[self.di - 1]);
                }
                self.bi += 1;
                return Some(b);
            }
            if self.di < self.delta.len() {
                self.di += 1;
                return Some(self.delta[self.di - 1]);
            }
            return None;
        }
    }
}

/// The exact candidate-set consequences of one mutation batch, as computed
/// by [`DeltaIndex::finish_batch`] from the recorded liveness flips.
///
/// Both pair lists cover only pairs **between pre-existing, unmutated
/// entities** — pairs with a mutated endpoint are diffed directly by the
/// blocker from its before/after partner sets.
#[derive(Debug, Default)]
pub struct BatchEffects {
    /// Every key whose postings or statistics changed during the batch,
    /// sorted by stream key id.
    pub touched_keys: Vec<u32>,
    /// Pairs that ceased to be candidates because every block supporting
    /// them left the live set (size-cap crossings, blocks losing their last
    /// cross-source member, ...).
    pub retracted: Vec<(EntityId, EntityId)>,
    /// Pairs that *became* candidates because a previously dead block
    /// re-entered the live set (a capped block shrinking back under the cap
    /// via deletions).  Impossible under pure insertion, routine under
    /// churn.
    pub revived: Vec<(EntityId, EntityId)>,
}

/// One key's block statistics, packed so that everything a partner scan or
/// an aggregate reads about a key is one 32-byte read.  Read through
/// [`DeltaIndex::block_size`] and [`DeltaIndex::is_block_live`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyStats {
    /// `|b|`.
    pub(crate) size: u32,
    /// First-source member count (equals `|b|` for Dirty ER).
    pub(crate) first: u32,
    /// `||b||`.
    pub(crate) comparisons: u64,
    /// `1/||b||` (0 when the block has no comparisons).
    pub(crate) inv_comparisons: f64,
    /// `1/|b|` (0 when the block is empty).
    pub(crate) inv_sizes: f64,
}

impl KeyStats {
    /// The statistics of a block of `size` members, `first` of them from
    /// the first source — the one formula every update and every decoded
    /// record goes through.
    #[inline]
    fn new(kind: DatasetKind, size: u32, first: u32) -> Self {
        let comparisons = comparisons_from_first(kind, first, size as usize);
        KeyStats {
            size,
            first,
            comparisons,
            inv_comparisons: if comparisons > 0 {
                1.0 / comparisons as f64
            } else {
                0.0
            },
            inv_sizes: if size > 0 { 1.0 / f64::from(size) } else { 0.0 },
        }
    }

    /// Whether the batch engine would emit this block: it has a comparison
    /// and fits the scheme's size cap.
    #[inline]
    pub(crate) fn is_live(&self, cap: usize) -> bool {
        self.comparisons > 0 && self.size as usize <= cap
    }
}

/// The largest batch stamp: stamps are stored shifted left by one, beside
/// the pre-batch liveness bit.
const MAX_BATCH: u32 = u32::MAX >> 1;

/// The mutable blocking index: interned keys, tombstone-aware
/// delta-over-baseline postings, exact decremental block statistics and
/// incremental candidate counts.
#[derive(Debug)]
pub struct StreamingIndex {
    dataset_name: String,
    kind: DatasetKind,
    /// E1/E2 boundary of the id space (Clean-Clean only; ignored for Dirty).
    split: usize,
    /// The scheme's block-size cap (`usize::MAX` when the scheme has none).
    cap: usize,
    num_entities: usize,
    /// Entities currently alive (ingested and not removed).
    num_alive: usize,
    /// Interned key strings and their lookup table, by stream key id.
    keys: KeyTable,
    /// Baseline CSR offsets (state at the last compaction); keys interned
    /// after the last compaction lie beyond `base_offsets.len() - 1` and
    /// have an empty baseline slice.
    base_offsets: Vec<u32>,
    /// Baseline CSR arena: concatenated postings at the last compaction.
    base_entities: Vec<EntityId>,
    /// Per key, the entities that joined since the last compaction (sorted,
    /// disjoint from the visible baseline).
    delta: Vec<Vec<EntityId>>,
    /// Per key, the baseline entities that left since the last compaction
    /// (sorted subset of the baseline slice).  Physically dropped by
    /// [`DeltaIndex::compact`].
    removed: Vec<Vec<EntityId>>,
    /// Block statistics per key.
    stats: Vec<KeyStats>,
    /// `|B|` over live blocks.
    num_live: usize,
    /// `||B||` over live blocks.
    total_live_comparisons: u64,
    /// Entity → key adjacency offsets (`num_entities + 1` entries; baseline
    /// rows, appended at ingestion).
    entity_offsets: Vec<u32>,
    /// Adjacency arena: each entity's key ids in lexicographic key order.
    entity_keys: Vec<u32>,
    /// Replacement rows for mutated entities (updates re-key, deletions
    /// empty); folded into the CSR at compaction.
    overlay: FxHashMap<u32, Box<[u32]>>,
    /// Per entity, whether it is still part of the corpus.
    alive: Vec<bool>,
    /// Distinct-candidate count per entity (the LCP feature), kept exact
    /// under additions, retractions and revivals.
    entity_candidates: Vec<u32>,
    /// Keys touched by the current mutation batch, in first-touch order;
    /// drained by [`DeltaIndex::finish_batch`].
    touched: Vec<u32>,
    /// Per key, `stamp << 1 | liveness` as of the first touch by the batch
    /// stamped `stamp` (0: never touched).
    marks: Vec<u32>,
    /// Stamp of the current batch, `1..=MAX_BATCH`.
    batch: u32,
    /// The batch stamp current at the last compaction: a key whose mark is
    /// older has empty delta and tombstone lists (0 when unknown — before
    /// the first compaction, after a decode or a stamp wrap-around).
    compacted_at: u32,
    /// Keys interned when the last batch was recorded on the registry.
    keys_recorded: usize,
    /// Number of completed compactions.
    epoch: u64,
    /// Lexicographic order of the keys live at some compaction (derived
    /// state, never persisted).
    key_order: KeyOrder,
}

impl StreamingIndex {
    /// Creates an empty index.
    ///
    /// `split` is the fixed E1/E2 boundary of the entity id space for
    /// Clean-Clean ER (entities with an id below it belong to E1); it is
    /// ignored for Dirty ER.  `cap` is the blocking scheme's maximum block
    /// size ([`er_blocking::KeyGenerator::max_block_size`]), `usize::MAX`
    /// when the scheme has none.
    pub fn new(
        dataset_name: impl Into<String>,
        kind: DatasetKind,
        split: usize,
        cap: usize,
    ) -> Self {
        StreamingIndex {
            dataset_name: dataset_name.into(),
            kind,
            split,
            cap,
            num_entities: 0,
            num_alive: 0,
            keys: KeyTable::default(),
            base_offsets: vec![0],
            base_entities: Vec::new(),
            delta: Vec::new(),
            removed: Vec::new(),
            stats: Vec::new(),
            num_live: 0,
            total_live_comparisons: 0,
            entity_offsets: vec![0],
            entity_keys: Vec::new(),
            overlay: FxHashMap::default(),
            alive: Vec::new(),
            entity_candidates: Vec::new(),
            touched: Vec::new(),
            marks: Vec::new(),
            batch: 1,
            compacted_at: 0,
            keys_recorded: 0,
            epoch: 0,
            key_order: KeyOrder::default(),
        }
    }

    /// The baseline posting slice of a key (empty for keys interned after
    /// the last compaction).
    #[inline]
    fn base_slice(&self, key: u32) -> &[EntityId] {
        let k = key as usize;
        if k + 1 < self.base_offsets.len() {
            &self.base_entities[self.base_offsets[k] as usize..self.base_offsets[k + 1] as usize]
        } else {
            &[]
        }
    }

    /// Records the pre-batch liveness of a key the first time the current
    /// batch touches it.
    #[inline]
    fn note_touch(&mut self, key: u32) {
        let ki = key as usize;
        if self.marks[ki] >> 1 != self.batch {
            let live = self.stats[ki].is_live(self.cap);
            self.marks[ki] = self.batch << 1 | u32::from(live);
            self.touched.push(key);
        }
    }

    /// Whether a key may hold delta or tombstone entries.  Only a key some
    /// batch touched since the last compaction can, and its dense mark says
    /// so without a read of the two change lists.
    #[inline]
    fn may_have_changes(&self, ki: usize) -> bool {
        self.marks[ki] >> 1 >= self.compacted_at
    }

    /// A key's liveness at the start of the current batch.
    #[inline]
    fn was_live(&self, key: u32) -> bool {
        let mark = self.marks[key as usize];
        if mark >> 1 == self.batch {
            mark & 1 == 1
        } else {
            self.is_block_live(key)
        }
    }

    /// Moves to the next batch stamp once the journal is drained, so every
    /// mark of the closed batch goes stale at once.
    fn next_batch(&mut self) {
        debug_assert!(self.touched.is_empty());
        if self.batch == MAX_BATCH {
            self.marks.fill(0);
            self.batch = 1;
            self.compacted_at = 0;
        } else {
            self.batch += 1;
        }
    }

    /// Recomputes one key's statistics after a single posting change,
    /// keeping every counter (and the global live aggregates) exact.
    fn update_stats(&mut self, key: u32, entity: EntityId, inserted: bool) {
        let ki = key as usize;
        let old = self.stats[ki];
        let first_side = u32::from(self.kind == DatasetKind::Dirty || entity.index() < self.split);
        let new = if inserted {
            KeyStats::new(self.kind, old.size + 1, old.first + first_side)
        } else {
            KeyStats::new(self.kind, old.size - 1, old.first - first_side)
        };
        if old.is_live(self.cap) {
            self.num_live -= 1;
            self.total_live_comparisons -= old.comparisons;
        }
        if new.is_live(self.cap) {
            self.num_live += 1;
            self.total_live_comparisons += new.comparisons;
        }
        self.stats[ki] = new;
    }

    /// Adds an entity to a key's posting list (un-tombstoning a baseline
    /// member if the entity left and rejoined within one epoch).
    fn add_posting(&mut self, key: u32, entity: EntityId) {
        let ki = key as usize;
        let tombstone = if self.may_have_changes(ki) {
            self.removed[ki].binary_search(&entity).ok()
        } else {
            None
        };
        self.note_touch(key);
        if let Some(at) = tombstone {
            self.removed[ki].remove(at);
        } else {
            let delta = &mut self.delta[ki];
            match delta.binary_search(&entity) {
                // Ingestion appends in ascending id order, so the common
                // case is a push at the end.
                Err(at) => delta.insert(at, entity),
                Ok(_) => unreachable!("duplicate posting for entity {entity}"),
            }
        }
        self.update_stats(key, entity, true);
    }

    /// Removes an entity from a key's posting list (tombstoning it when it
    /// lives in the shared baseline arena).
    fn drop_posting(&mut self, key: u32, entity: EntityId) {
        let ki = key as usize;
        let joined = if self.may_have_changes(ki) {
            self.delta[ki].binary_search(&entity).ok()
        } else {
            None
        };
        self.note_touch(key);
        if let Some(at) = joined {
            self.delta[ki].remove(at);
        } else {
            debug_assert!(self.base_slice(key).binary_search(&entity).is_ok());
            let removed = &mut self.removed[ki];
            let at = removed
                .binary_search(&entity)
                .expect_err("posting tombstoned twice");
            removed.insert(at, entity);
        }
        self.update_stats(key, entity, false);
    }

    /// Sorts raw key ids into the canonical per-entity order: deduplicated,
    /// lexicographic by key string (the batch engine's block-id order, which
    /// downstream float accumulations must follow — see module docs).
    fn canonicalize_keys(&self, raw_keys: &mut Vec<u32>) {
        raw_keys.sort_unstable();
        raw_keys.dedup();
        raw_keys.sort_unstable_by(|&a, &b| self.keys.get(a).cmp(self.keys.get(b)));
    }

    /// Every key's liveness, by key id: one sequential pass over the
    /// statistics records, so that the key-order walks behind a view read
    /// a dense flag per key instead of a record each, at random.
    pub(crate) fn live_flags(&self) -> Vec<bool> {
        self.stats.iter().map(|s| s.is_live(self.cap)).collect()
    }

    /// The physical half of [`DeltaIndex::compact`]: folds deltas and
    /// tombstones into a fresh baseline CSR and folds the adjacency overlay
    /// back, without bumping the epoch or building a view.  A sharded
    /// wrapper compacts every shard with this and manages a single global
    /// epoch and view itself.
    ///
    /// The new offsets are the running sum of the block sizes; the keys
    /// are then cut into one range per worker (`threads`), balanced by
    /// postings, and each worker fills its own part of the new arena.  The
    /// pass that sums the sizes also collects every key's liveness, which
    /// is returned (see [`StreamingIndex::live_flags`]).
    pub(crate) fn fold_deltas(&mut self, threads: usize) -> Vec<bool> {
        debug_assert!(
            self.touched.is_empty(),
            "compact() during an unfinished mutation batch"
        );
        let mut offsets = Vec::with_capacity(self.stats.len() + 1);
        offsets.push(0u32);
        let mut live = Vec::with_capacity(self.stats.len());
        let mut total = 0u32;
        offsets.extend(self.stats.iter().map(|stats| {
            live.push(stats.is_live(self.cap));
            total += stats.size;
            total
        }));
        let mut entities = vec![EntityId(0); total as usize];

        // Worker `i` folds keys `cuts[i]..cuts[i + 1]`, cut where the
        // running postings reach `i / workers` of the total.
        let key_count = self.stats.len();
        let workers = threads.clamp(1, key_count.max(1));
        let cuts: Vec<usize> = (0..=workers)
            .map(|i| {
                if i == workers {
                    return key_count;
                }
                let target = u64::from(total) * i as u64;
                offsets[..key_count].partition_point(|&o| u64::from(o) * (workers as u64) < target)
            })
            .collect();
        let (base_offsets, base_entities) = (&self.base_offsets, &self.base_entities);
        let (mut out, mut delta, mut removed) = (
            entities.as_mut_slice(),
            self.delta.as_mut_slice(),
            self.removed.as_mut_slice(),
        );
        std::thread::scope(|scope| {
            for (i, cut) in cuts.windows(2).enumerate() {
                let keys = cut[0]..cut[1];
                let postings = (offsets[cut[1]] - offsets[cut[0]]) as usize;
                let piece;
                (piece, out) = std::mem::take(&mut out).split_at_mut(postings);
                let (piece_delta, piece_removed);
                (piece_delta, delta) = std::mem::take(&mut delta).split_at_mut(keys.len());
                (piece_removed, removed) = std::mem::take(&mut removed).split_at_mut(keys.len());
                let fold = move || {
                    fold_range(
                        keys,
                        (base_offsets, base_entities),
                        (piece_delta, piece_removed),
                        piece,
                    )
                };
                // The last range runs on the calling thread.
                if i + 1 == workers {
                    fold();
                } else {
                    scope.spawn(fold);
                }
            }
        });
        self.base_offsets = offsets;
        self.base_entities = entities;
        if !self.overlay.is_empty() {
            let mut offsets = Vec::with_capacity(self.num_entities + 1);
            offsets.push(0u32);
            let mut keys = Vec::with_capacity(self.entity_keys.len());
            for e in 0..self.num_entities {
                keys.extend_from_slice(self.keys_of(EntityId(e as u32)));
                offsets.push(checked_u32(keys.len(), ENTITY_KEYS_LIMIT));
            }
            self.entity_offsets = offsets;
            self.entity_keys = keys;
            self.overlay.clear();
        }
        self.compacted_at = self.batch;
        live
    }
}

impl DeltaIndex for StreamingIndex {
    fn kind(&self) -> DatasetKind {
        self.kind
    }

    fn split(&self) -> usize {
        self.split
    }

    fn size_cap(&self) -> usize {
        self.cap
    }

    fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn num_alive(&self) -> usize {
        self.num_alive
    }

    fn num_keys(&self) -> usize {
        self.keys.len()
    }

    fn is_alive(&self, entity: EntityId) -> bool {
        self.alive[entity.index()]
    }

    fn has_open_batch(&self) -> bool {
        !self.touched.is_empty()
    }

    #[inline]
    fn key_str(&self, key: u32) -> &str {
        self.keys.get(key)
    }

    #[inline]
    fn key_stats(&self, key: u32) -> &KeyStats {
        &self.stats[key as usize]
    }

    /// The statistics record and the visible posting list (baseline minus
    /// tombstones, merged with the delta) of a key.
    #[inline]
    fn block(&self, key: u32) -> (&KeyStats, Members<'_>) {
        let k = key as usize;
        let (removed, delta): (&[EntityId], &[EntityId]) = if self.may_have_changes(k) {
            (&self.removed[k], &self.delta[k])
        } else {
            (&[], &[])
        };
        (
            &self.stats[k],
            Members::new(self.base_slice(key), removed, delta),
        )
    }

    #[inline]
    fn keys_of(&self, entity: EntityId) -> &[u32] {
        if let Some(row) = self.overlay.get(&entity.0) {
            return row;
        }
        let e = entity.index();
        &self.entity_keys[self.entity_offsets[e] as usize..self.entity_offsets[e + 1] as usize]
    }

    fn num_live_blocks(&self) -> usize {
        self.num_live
    }

    fn total_comparisons(&self) -> u64 {
        self.total_live_comparisons
    }

    fn lcp_counters(&self) -> &[u32] {
        &self.entity_candidates
    }

    fn lcp_counters_mut(&mut self) -> &mut [u32] {
        &mut self.entity_candidates
    }

    /// Heap bytes of the key dictionary (arena plus lookup slots).
    fn key_table_bytes(&self) -> usize {
        self.keys.heap_bytes()
    }

    /// Interns a key, returning its stream id (stable across compactions).
    ///
    /// # Panics
    /// Panics past the key table's limits (see [`KeyTable::intern`]).
    #[inline]
    fn intern(&mut self, key: &str) -> u32 {
        let id = self.keys.intern(key);
        if id as usize == self.stats.len() {
            self.delta.push(Vec::new());
            self.removed.push(Vec::new());
            self.stats.push(KeyStats::default());
            self.marks.push(0);
        }
        id
    }

    /// Inserts the next entity (id `num_entities`): updates postings and
    /// per-key statistics in place and records liveness flips in the batch
    /// journal.
    fn insert_entity(&mut self, raw_keys: &mut Vec<u32>) -> EntityId {
        self.canonicalize_keys(raw_keys);
        let e = EntityId::from(self.num_entities);
        self.num_entities += 1;
        self.num_alive += 1;
        self.alive.push(true);
        self.entity_candidates.push(0);
        for &k in raw_keys.iter() {
            self.add_posting(k, e);
        }
        self.entity_keys.extend_from_slice(raw_keys);
        self.entity_offsets
            .push(checked_u32(self.entity_keys.len(), ENTITY_KEYS_LIMIT));
        e
    }

    /// Tombstones every posting the entity holds and empties its key row
    /// through the overlay.
    ///
    /// # Panics
    /// Panics if the entity is out of range or already removed.
    fn remove_entity(&mut self, entity: EntityId) {
        assert!(
            entity.index() < self.num_entities,
            "cannot remove unknown entity {entity}"
        );
        assert!(
            self.alive[entity.index()],
            "cannot remove entity {entity} twice"
        );
        let keys: Vec<u32> = self.keys_of(entity).to_vec();
        for &k in &keys {
            self.drop_posting(k, entity);
        }
        self.overlay.insert(entity.0, Box::default());
        self.alive[entity.index()] = false;
        self.num_alive -= 1;
    }

    /// Diffs the postings against the current row — departures
    /// tombstoned, arrivals added — and swaps the row via the overlay.
    ///
    /// # Panics
    /// Panics if the entity is out of range or removed.
    fn replace_entity_keys(&mut self, entity: EntityId, raw_keys: &mut Vec<u32>) {
        assert!(
            entity.index() < self.num_entities,
            "cannot update unknown entity {entity}"
        );
        assert!(
            self.alive[entity.index()],
            "cannot update removed entity {entity}"
        );
        self.canonicalize_keys(raw_keys);
        let old: Vec<u32> = self.keys_of(entity).to_vec();
        // Both lists are in lexicographic key order; merge-diff them.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < raw_keys.len() {
            if j == raw_keys.len() {
                self.drop_posting(old[i], entity);
                i += 1;
            } else if i == old.len() {
                self.add_posting(raw_keys[j], entity);
                j += 1;
            } else if old[i] == raw_keys[j] {
                i += 1;
                j += 1;
            } else if self.keys.get(old[i]) < self.keys.get(raw_keys[j]) {
                self.drop_posting(old[i], entity);
                i += 1;
            } else {
                self.add_posting(raw_keys[j], entity);
                j += 1;
            }
        }
        self.overlay.insert(entity.0, raw_keys.as_slice().into());
    }

    fn drain_journal(&mut self) -> (Vec<(u32, bool)>, usize) {
        self.touched.sort_unstable();
        let journal = self
            .touched
            .iter()
            .map(|&k| (k, self.was_live(k)))
            .collect();
        self.touched.clear();
        self.next_batch();
        let interned = self.keys.len() - self.keys_recorded;
        self.keys_recorded = self.keys.len();
        (journal, interned)
    }

    /// The batch view of the current corpus: exactly the
    /// [`CsrBlockCollection`] that [`er_blocking::build_blocks`] would
    /// produce for the surviving entities (lexicographic block order, cap
    /// and zero-comparison blocks dropped, sorted tombstone-free entity
    /// lists).
    ///
    /// Blocks follow the cached key order; only the live keys it does not
    /// hold yet are sorted.  `threads` parallelises that sort and the
    /// assembly; the output is identical for any thread count.
    fn view(&self, threads: usize) -> CsrBlockCollection {
        let live = self.live_flags();
        let order = self
            .key_order
            .live_order(&self.keys, threads, |k| live[k as usize]);
        assemble_view(self, &order, threads)
    }

    /// Ends the epoch: folds every delta posting into a fresh baseline CSR,
    /// **physically dropping tombstoned postings**, folds the adjacency
    /// overlay back into the entity CSR (stream key ids stay stable),
    /// merges the live keys it does not hold yet into the cached key order,
    /// and returns the batch view of the compacted state (what
    /// [`DeltaIndex::view`] returns).
    fn compact(&mut self, threads: usize) -> CsrBlockCollection {
        let live = self.fold_deltas(threads);
        let order = self
            .key_order
            .absorb(&self.keys, threads, |k| live[k as usize]);
        self.epoch += 1;
        assemble_view(self, &order, threads)
    }
}

/// One worker's part of [`StreamingIndex::fold_deltas`]: writes the
/// postings of `keys` into `out` — each run of keys untouched since the
/// last compaction as one copy of its baseline slices, each changed key as
/// its merged members — and empties the change lists.  `delta` and
/// `removed` hold the change lists of `keys`, from the first one.
fn fold_range(
    keys: Range<usize>,
    (base_offsets, base_entities): (&[u32], &[EntityId]),
    (delta, removed): (&mut [Vec<EntityId>], &mut [Vec<EntityId>]),
    out: &mut [EntityId],
) {
    // Keys interned since the last compaction have no baseline slice.
    let based = base_offsets.len() - 1;
    let base = |keys: Range<usize>| {
        &base_entities[base_offsets[keys.start.min(based)] as usize
            ..base_offsets[keys.end.min(based)] as usize]
    };
    let mut at = 0;
    let mut untouched = keys.start;
    for (i, (delta, removed)) in delta.iter_mut().zip(removed.iter_mut()).enumerate() {
        if delta.is_empty() && removed.is_empty() {
            continue;
        }
        let k = keys.start + i;
        let run = base(untouched..k);
        out[at..at + run.len()].copy_from_slice(run);
        at += run.len();
        for m in Members::new(base(k..k + 1), removed, delta) {
            out[at] = m;
            at += 1;
        }
        delta.clear();
        removed.clear();
        untouched = k + 1;
    }
    let run = base(untouched..keys.end);
    out[at..at + run.len()].copy_from_slice(run);
    debug_assert_eq!(
        at + run.len(),
        out.len(),
        "block sizes disagree with the postings"
    );
}

/// Assembles the batch view of a delta index from its live keys in
/// lexicographic order (`order`): one block per key with the key's current
/// members and first-source count.  Shared by both indexes' `view` and
/// `compact`.
///
/// The order visits the index's per-key arrays at random, so the work is
/// spread over `threads` workers, one contiguous piece of the order each:
/// a first pass copies the piece's key text and reads its block sizes and
/// first-source counts, a second fills the piece's part of the member
/// arena.  The output is identical for any thread count.
pub(crate) fn assemble_view<I: DeltaIndex>(
    index: &I,
    order: &[u32],
    threads: usize,
) -> CsrBlockCollection {
    let pieces: Vec<&[u32]> = order
        .chunks(order.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let heads = map_ranges_parallel(pieces.len(), threads, pieces.len(), |task| {
        let piece = pieces[task.start];
        let mut text = String::new();
        let key_ends: Vec<usize> = piece
            .iter()
            .map(|&k| {
                text.push_str(index.key_str(k));
                text.len()
            })
            .collect();
        let sizes: Vec<u32> = piece.iter().map(|&k| index.block_size(k) as u32).collect();
        let first_counts: Vec<u32> = piece.iter().map(|&k| index.key_stats(k).first).collect();
        (text, key_ends, sizes, first_counts)
    });

    let text_len = heads.iter().map(|head| head.0.len()).sum();
    let mut store = KeyStore::with_capacity(order.len(), text_len);
    let mut key_ids = Vec::with_capacity(order.len());
    let mut entity_offsets = Vec::with_capacity(order.len() + 1);
    entity_offsets.push(0u32);
    let mut first_counts = Vec::with_capacity(order.len());
    let mut total = 0u32;
    for (text, key_ends, sizes, firsts) in &heads {
        let mut start = 0;
        for &end in key_ends {
            key_ids.push(store.push(&text[start..end]));
            start = end;
        }
        entity_offsets.extend(sizes.iter().map(|&size| {
            total += size;
            total
        }));
        first_counts.extend_from_slice(firsts);
    }

    let mut entities = vec![EntityId(0); total as usize];
    let mut rest = entities.as_mut_slice();
    std::thread::scope(|scope| {
        for (i, (&piece, head)) in pieces.iter().zip(&heads).enumerate() {
            let part;
            (part, rest) =
                std::mem::take(&mut rest).split_at_mut(head.2.iter().sum::<u32>() as usize);
            // The last piece runs on the calling thread.
            if i + 1 == pieces.len() {
                fill_members(index, piece, part);
            } else {
                scope.spawn(move || fill_members(index, piece, part));
            }
        }
    });

    let num_entities = index.num_entities();
    let split = match index.kind() {
        DatasetKind::CleanClean => index.split().min(num_entities),
        DatasetKind::Dirty => num_entities,
    };
    CsrBlockCollection::from_raw(
        index.dataset_name().to_string(),
        index.kind(),
        split,
        num_entities,
        Arc::new(store),
        key_ids,
        entity_offsets,
        entities,
        first_counts,
    )
}

/// Writes the members of the blocks of `keys`, in order, into `out`.
fn fill_members<I: DeltaIndex>(index: &I, keys: &[u32], out: &mut [EntityId]) {
    let mut slots = out.iter_mut();
    for m in keys.iter().flat_map(|&k| index.members(k)) {
        *slots.next().expect("block sizes disagree with the members") = m;
    }
    debug_assert!(
        slots.next().is_none(),
        "block sizes disagree with the members"
    );
}

/// The complete on-disk image of a [`StreamingIndex`]: every field is
/// persisted (floats as IEEE-754 bit patterns), so a decoded index is
/// **bit-identical** to the encoded one — same posting layout, same
/// statistics.  The key dictionary travels as its key list and the
/// statistics records as one column per field, with the liveness flags
/// beside them.
///
/// Four members are reconstructed rather than stored: the key table's
/// lookup slots (rebuilt from the key list), the statistics records
/// (rebuilt from the sizes and first-source counts, and checked against
/// every stored derived column), the per-batch touch journal (snapshots are
/// taken at batch boundaries, where it is empty — encoding asserts this)
/// and the cached key order (empty after a decode, so the first compaction
/// sorts every live key).
impl er_persist::Encode for StreamingIndex {
    fn encode(&self, w: &mut er_persist::Writer) {
        assert!(
            self.touched.is_empty(),
            "cannot snapshot a StreamingIndex mid-batch (finish_batch first)"
        );
        w.write_str(&self.dataset_name);
        self.kind.encode(w);
        w.write_usize(self.split);
        w.write_u64(self.cap as u64);
        w.write_usize(self.num_entities);
        w.write_usize(self.num_alive);
        // The layout of `Vec<Box<str>>`.
        w.write_usize(self.keys.len());
        for id in 0..self.keys.len() as u32 {
            w.write_str(self.keys.get(id));
        }
        self.base_offsets.encode(w);
        self.base_entities.encode(w);
        self.delta.encode(w);
        self.removed.encode(w);
        let stats = &self.stats;
        w.write_fixed_seq(stats.iter().map(|s| s.size), u32::to_le_bytes);
        w.write_fixed_seq(stats.iter().map(|s| s.first), u32::to_le_bytes);
        w.write_fixed_seq(stats.iter().map(|s| s.comparisons), u64::to_le_bytes);
        w.write_fixed_seq(
            stats.iter().map(|s| s.inv_comparisons.to_bits()),
            u64::to_le_bytes,
        );
        w.write_fixed_seq(
            stats.iter().map(|s| s.inv_sizes.to_bits()),
            u64::to_le_bytes,
        );
        w.write_fixed_seq(stats.iter().map(|s| [u8::from(s.is_live(self.cap))]), |b| b);
        w.write_usize(self.num_live);
        w.write_u64(self.total_live_comparisons);
        self.entity_offsets.encode(w);
        self.entity_keys.encode(w);
        // The overlay map travels sorted by entity id so the encoding is
        // deterministic for identical state; the rows are written from
        // where they lie (the layout is that of `Vec<(u32, Vec<u32>)>`).
        let mut overlay: Vec<(u32, &[u32])> =
            self.overlay.iter().map(|(&e, row)| (e, &**row)).collect();
        overlay.sort_unstable_by_key(|&(e, _)| e);
        overlay.encode(w);
        self.alive.encode(w);
        self.entity_candidates.encode(w);
        w.write_u64(self.epoch);
    }
}

/// Reads the key list straight into a [`KeyTable`] (no per-key
/// allocation), refusing invalid UTF-8 and duplicate keys.
fn decode_keys(r: &mut er_persist::Reader<'_>) -> er_core::PersistResult<KeyTable> {
    use er_core::PersistError;

    let len = r.read_usize()?;
    // Each key carries at least its 8-byte length prefix.
    if len > r.remaining() / 8 {
        return Err(PersistError::Truncated {
            context: format!("key list of {len} keys"),
        });
    }
    let mut keys = KeyTable::with_capacity(len);
    for id in 0..len {
        let key = std::str::from_utf8(r.read_bytes()?)
            .map_err(|_| PersistError::Corrupt("interned key is not valid UTF-8".into()))?;
        if keys.intern(key) as usize != id {
            return Err(PersistError::Corrupt(format!(
                "duplicate interned key {key:?}"
            )));
        }
    }
    Ok(keys)
}

impl er_persist::Decode for StreamingIndex {
    fn decode(r: &mut er_persist::Reader<'_>) -> er_core::PersistResult<Self> {
        use er_core::PersistError;

        let corrupt = |msg: String| PersistError::Corrupt(msg);
        let dataset_name = r.read_str()?;
        let kind = DatasetKind::decode(r)?;
        let split = r.read_usize()?;
        let cap = usize::try_from(r.read_u64()?)
            .map_err(|_| corrupt("block-size cap exceeds the platform usize".into()))?;
        let num_entities = r.read_usize()?;
        let num_alive = r.read_usize()?;
        let keys = decode_keys(r)?;
        let base_offsets = Vec::<u32>::decode(r)?;
        let base_entities = Vec::<EntityId>::decode(r)?;
        let delta = Vec::<Vec<EntityId>>::decode(r)?;
        let removed = Vec::<Vec<EntityId>>::decode(r)?;
        let sizes = Vec::<u32>::decode(r)?;
        let first_counts = Vec::<u32>::decode(r)?;
        let comparisons = Vec::<u64>::decode(r)?;
        let inv_comparisons = Vec::<f64>::decode(r)?;
        let inv_sizes = Vec::<f64>::decode(r)?;
        let live = Vec::<bool>::decode(r)?;
        let num_live = r.read_usize()?;
        let total_live_comparisons = r.read_u64()?;
        let entity_offsets = Vec::<u32>::decode(r)?;
        let entity_keys = Vec::<u32>::decode(r)?;
        let overlay_pairs = Vec::<(u32, Vec<u32>)>::decode(r)?;
        let alive = Vec::<bool>::decode(r)?;
        let entity_candidates = Vec::<u32>::decode(r)?;
        let epoch = r.read_u64()?;

        // Cross-field invariants: the checksum has already vouched for the
        // bytes, so violations here mean a logic/version bug — fail typed,
        // never materialise an inconsistent index.
        let key_count = keys.len();
        for (name, len) in [
            ("delta", delta.len()),
            ("removed", removed.len()),
            ("sizes", sizes.len()),
            ("first_counts", first_counts.len()),
            ("comparisons", comparisons.len()),
            ("inv_comparisons", inv_comparisons.len()),
            ("inv_sizes", inv_sizes.len()),
            ("live", live.len()),
        ] {
            if len != key_count {
                return Err(corrupt(format!(
                    "index `{name}` covers {len} keys, dictionary holds {key_count}"
                )));
            }
        }
        if base_offsets.is_empty() || base_offsets.len() > key_count + 1 {
            return Err(corrupt(format!(
                "baseline offsets length {} does not fit {key_count} keys",
                base_offsets.len()
            )));
        }
        if base_offsets.windows(2).any(|p| p[0] > p[1])
            || *base_offsets.last().unwrap() as usize != base_entities.len()
        {
            return Err(corrupt("baseline CSR offsets are inconsistent".into()));
        }
        for (name, len) in [
            ("alive", alive.len()),
            ("entity_candidates", entity_candidates.len()),
        ] {
            if len != num_entities {
                return Err(corrupt(format!(
                    "index `{name}` covers {len} entities, corpus holds {num_entities}"
                )));
            }
        }
        if entity_offsets.len() != num_entities + 1
            || entity_offsets.windows(2).any(|p| p[0] > p[1])
            || *entity_offsets.last().unwrap() as usize != entity_keys.len()
        {
            return Err(corrupt(
                "entity adjacency CSR offsets are inconsistent".into(),
            ));
        }
        if entity_keys.iter().any(|&k| k as usize >= key_count)
            || overlay_pairs
                .iter()
                .any(|(_, row)| row.iter().any(|&k| k as usize >= key_count))
        {
            return Err(corrupt("adjacency references an unknown key id".into()));
        }
        if overlay_pairs
            .iter()
            .any(|&(e, _)| e as usize >= num_entities)
        {
            return Err(corrupt("overlay references an unknown entity id".into()));
        }

        // Rebuild every statistics record from its block's size and
        // first-source count with the formula `update_stats` applies, and
        // require each stored derived value — and the live aggregates — to
        // agree bit for bit.
        let based = base_offsets.len() - 1;
        let mut stats = Vec::with_capacity(key_count);
        let (mut live_count, mut live_total) = (0usize, 0u64);
        for k in 0..key_count {
            let (size, first) = (sizes[k], first_counts[k]);
            let base = if k < based {
                &base_entities[base_offsets[k] as usize..base_offsets[k + 1] as usize]
            } else {
                &[]
            };
            let members = (base.len() + delta[k].len()).checked_sub(removed[k].len());
            let below = |list: &[EntityId]| list.partition_point(|e| e.index() < split);
            let first_members = match kind {
                DatasetKind::Dirty => members,
                DatasetKind::CleanClean => {
                    (below(base) + below(&delta[k])).checked_sub(below(&removed[k]))
                }
            };
            if members != Some(size as usize) || first_members != Some(first as usize) {
                return Err(corrupt(format!(
                    "key {k}: size {size} and first-source count {first} disagree with its postings"
                )));
            }
            let record = KeyStats::new(kind, size, first);
            if record.comparisons != comparisons[k]
                || record.inv_comparisons.to_bits() != inv_comparisons[k].to_bits()
                || record.inv_sizes.to_bits() != inv_sizes[k].to_bits()
                || record.is_live(cap) != live[k]
            {
                return Err(corrupt(format!(
                    "key {k}: stored block statistics disagree with its size and first-source count"
                )));
            }
            if live[k] {
                live_count += 1;
                live_total = live_total
                    .checked_add(record.comparisons)
                    .ok_or_else(|| corrupt("live comparisons overflow a u64".into()))?;
            }
            stats.push(record);
        }
        if live_count != num_live || live_total != total_live_comparisons {
            return Err(corrupt(format!(
                "live aggregates |B| = {num_live}, ||B|| = {total_live_comparisons} disagree \
                 with the blocks ({live_count}, {live_total})"
            )));
        }

        let overlay: FxHashMap<u32, Box<[u32]>> = overlay_pairs
            .into_iter()
            .map(|(e, row)| (e, row.into_boxed_slice()))
            .collect();

        Ok(StreamingIndex {
            dataset_name,
            kind,
            split,
            cap,
            num_entities,
            num_alive,
            keys,
            base_offsets,
            base_entities,
            delta,
            removed,
            stats,
            num_live,
            total_live_comparisons,
            entity_offsets,
            entity_keys,
            overlay,
            alive,
            entity_candidates,
            touched: Vec::new(),
            marks: vec![0; key_count],
            batch: 1,
            compacted_at: 0,
            keys_recorded: key_count,
            epoch,
            key_order: KeyOrder::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(kind: DatasetKind, split: usize, cap: usize) -> StreamingIndex {
        StreamingIndex::new("t", kind, split, cap)
    }

    /// Interns the keys and inserts the entity.
    fn insert(idx: &mut StreamingIndex, keys: &[&str]) -> EntityId {
        let mut ids: Vec<u32> = keys.iter().map(|k| idx.intern(k)).collect();
        idx.insert_entity(&mut ids)
    }

    /// Replaces an entity's keys through the public update path.
    fn rekey(idx: &mut StreamingIndex, e: EntityId, keys: &[&str]) {
        let mut ids: Vec<u32> = keys.iter().map(|k| idx.intern(k)).collect();
        idx.replace_entity_keys(e, &mut ids);
    }

    /// Finishes the batch treating `batch` as the mutated entity set.
    fn finish(idx: &mut StreamingIndex, batch: &[EntityId]) -> BatchEffects {
        let set: Vec<EntityId> = batch.to_vec();
        idx.finish_batch(move |e| set.contains(&e))
    }

    #[test]
    fn interning_is_idempotent_and_stable() {
        let mut idx = index(DatasetKind::Dirty, 0, usize::MAX);
        let a = idx.intern("apple");
        let b = idx.intern("pear");
        assert_eq!(idx.intern("apple"), a);
        assert_ne!(a, b);
        assert_eq!(idx.num_keys(), 2);
    }

    #[test]
    fn batch_stamps_wrap_without_losing_the_journal() {
        // Cap 2: "x" dies at three members and revives at two.  Run the
        // cycle across the stamp wrap-around; every batch must still see
        // its own pre-batch liveness and nothing from the batch before.
        let mut idx = index(DatasetKind::Dirty, 0, 2);
        let a0 = insert(&mut idx, &["x"]);
        let a1 = insert(&mut idx, &["x"]);
        finish(&mut idx, &[a0, a1]);
        idx.record_candidate(a0, a1);
        idx.compact(1);
        idx.batch = MAX_BATCH - 2;
        for _ in 0..3 {
            let extra = insert(&mut idx, &["x"]);
            let effects = finish(&mut idx, &[extra]);
            assert_eq!(effects.retracted, vec![(a0, a1)]);
            assert_eq!(effects.touched_keys, vec![0]);
            idx.remove_entity(extra);
            let effects = finish(&mut idx, &[extra]);
            assert_eq!(effects.revived, vec![(a0, a1)]);
            assert_eq!(effects.touched_keys, vec![0]);
            assert!(!idx.has_open_batch());
            // The member lists must survive the wrap whether or not a
            // compaction folded them in between.
            let extra = insert(&mut idx, &["x"]);
            finish(&mut idx, &[extra]);
            assert_eq!(idx.members(0).collect::<Vec<_>>(), vec![a0, a1, extra]);
            idx.compact(1);
            assert_eq!(idx.members(0).collect::<Vec<_>>(), vec![a0, a1, extra]);
            idx.remove_entity(extra);
            finish(&mut idx, &[extra]);
            assert_eq!(idx.members(0).collect::<Vec<_>>(), vec![a0, a1]);
        }
        assert!(idx.batch < MAX_BATCH - 2, "the stamp wrapped");
    }

    /// An encoded index split around the columns the decode tests edit:
    /// the bytes before the liveness flags, the flags, `|B|`, and the rest.
    struct Image {
        head: Vec<u8>,
        live: Vec<bool>,
        num_live: usize,
        tail: Vec<u8>,
    }

    impl Image {
        fn of(idx: &StreamingIndex) -> Self {
            use er_persist::Decode;
            let bytes = er_persist::encode_to_vec(idx);
            let mut r = er_persist::Reader::new(&bytes);
            let at = |r: &er_persist::Reader<'_>| bytes.len() - r.remaining();
            r.read_str().unwrap();
            DatasetKind::decode(&mut r).unwrap();
            for _ in 0..4 {
                // split, cap, num_entities, num_alive
                r.read_u64().unwrap();
            }
            Vec::<Box<str>>::decode(&mut r).unwrap();
            Vec::<u32>::decode(&mut r).unwrap();
            Vec::<EntityId>::decode(&mut r).unwrap();
            Vec::<Vec<EntityId>>::decode(&mut r).unwrap();
            Vec::<Vec<EntityId>>::decode(&mut r).unwrap();
            Vec::<u32>::decode(&mut r).unwrap();
            Vec::<u32>::decode(&mut r).unwrap();
            Vec::<u64>::decode(&mut r).unwrap();
            Vec::<f64>::decode(&mut r).unwrap();
            Vec::<f64>::decode(&mut r).unwrap();
            let head = bytes[..at(&r)].to_vec();
            let live = Vec::<bool>::decode(&mut r).unwrap();
            let num_live = r.read_usize().unwrap();
            let tail = bytes[at(&r)..].to_vec();
            Image {
                head,
                live,
                num_live,
                tail,
            }
        }

        /// Frames the image as a snapshot (checksummed over the edited
        /// bytes), reads it back and decodes it.
        fn read_back(&self, name: &str) -> er_core::PersistResult<StreamingIndex> {
            struct Raw(Vec<u8>);
            impl er_persist::Encode for Raw {
                fn encode(&self, w: &mut er_persist::Writer) {
                    w.write_raw(&self.0);
                }
            }
            let mut w = er_persist::Writer::new();
            w.write_raw(&self.head);
            er_persist::Encode::encode(&self.live, &mut w);
            w.write_usize(self.num_live);
            w.write_raw(&self.tail);
            let path = std::env::temp_dir().join(format!(
                "er-stream-index-{}-{name}.snap",
                std::process::id()
            ));
            er_persist::write_snapshot(&path, 7, 0, &Raw(w.into_bytes())).unwrap();
            let read = er_persist::read_snapshot::<StreamingIndex>(&path, 7, None);
            let _ = std::fs::remove_file(&path);
            read.map(|(index, _)| index)
        }
    }

    #[test]
    fn decode_recomputes_liveness_and_live_aggregates() {
        let mut idx = index(DatasetKind::CleanClean, 3, 3);
        for keys in [&["a", "b"][..], &["a", "c"], &["b"], &["a", "b"], &["c"]] {
            insert(&mut idx, keys);
        }
        finish(&mut idx, &(0..5).map(EntityId).collect::<Vec<_>>());
        idx.compact(1);
        idx.remove_entity(EntityId(3));
        finish(&mut idx, &[EntityId(3)]);
        let image = Image::of(&idx);
        assert!(image.live.iter().any(|&l| l) && image.live.iter().any(|&l| !l));

        let back = image
            .read_back("clean")
            .expect("the untouched image decodes");
        assert_eq!(back.stats, idx.stats);
        assert_eq!(back.num_live_blocks(), idx.num_live_blocks());
        assert_eq!(back.total_comparisons(), idx.total_comparisons());

        for k in 0..image.live.len() {
            let mut flipped = Image::of(&idx);
            flipped.live[k] = !flipped.live[k];
            let err = flipped.read_back("live").unwrap_err();
            assert!(matches!(err, er_core::PersistError::Corrupt(_)), "{err:?}");
        }
        let mut off_by_one = Image::of(&idx);
        off_by_one.num_live += 1;
        let err = off_by_one.read_back("num-live").unwrap_err();
        assert!(matches!(err, er_core::PersistError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn dirty_stats_update_in_place() {
        let mut idx = index(DatasetKind::Dirty, 0, usize::MAX);
        insert(&mut idx, &["a", "b"]);
        insert(&mut idx, &["a"]);
        insert(&mut idx, &["a", "b"]);
        finish(&mut idx, &[EntityId(0), EntityId(1), EntityId(2)]);
        // Block "a" has 3 members → 3 comparisons; "b" has 2 → 1.
        assert_eq!(idx.num_live_blocks(), 2);
        assert_eq!(idx.total_comparisons(), 4);
    }

    #[test]
    fn clean_clean_blocks_go_live_only_cross_source() {
        let mut idx = index(DatasetKind::CleanClean, 2, usize::MAX);
        insert(&mut idx, &["k"]);
        insert(&mut idx, &["k"]);
        finish(&mut idx, &[EntityId(0), EntityId(1)]);
        // Both members are E1 → no comparisons, block not live.
        assert_eq!(idx.num_live_blocks(), 0);
        insert(&mut idx, &["k"]);
        finish(&mut idx, &[EntityId(2)]);
        // E2 member arrives → ||k|| = 2 · 1 = 2.
        assert_eq!(idx.num_live_blocks(), 1);
        assert_eq!(idx.total_comparisons(), 2);
    }

    #[test]
    fn cap_crossing_retracts_orphaned_pairs() {
        // Cap 2: pairs supported only by a block of size 3 must retract.
        let mut idx = index(DatasetKind::Dirty, 0, 2);
        let e0 = insert(&mut idx, &["x", "shared"]);
        let e1 = insert(&mut idx, &["x", "shared"]);
        finish(&mut idx, &[e0, e1]);
        idx.record_candidate(e0, e1); // as the blocker would after emission
        let e2 = insert(&mut idx, &["y"]);
        assert!(idx.num_live_blocks() > 0);
        // Entity 3 pushes "x" to size 3 (> cap).  e0–e1 still share the
        // live "shared" block, so nothing retracts.
        let e3 = insert(&mut idx, &["x"]);
        let effects = finish(&mut idx, &[e2, e3]);
        assert!(effects.retracted.is_empty());
        assert_eq!(idx.candidates_of(e0), 1);

        // Same again, but without a second shared key: retraction fires.
        let mut idx = index(DatasetKind::Dirty, 0, 2);
        let a0 = insert(&mut idx, &["x"]);
        let a1 = insert(&mut idx, &["x"]);
        finish(&mut idx, &[a0, a1]);
        idx.record_candidate(a0, a1);
        let a2 = insert(&mut idx, &["x"]);
        let effects = finish(&mut idx, &[a2]);
        assert_eq!(effects.retracted, vec![(a0, a1)]);
        assert_eq!(idx.candidates_of(a0), 0);
        assert_eq!(idx.candidates_of(a1), 0);
    }

    #[test]
    fn cap_shrinking_revives_orphaned_pairs() {
        // Cap 2, Dirty.  "x" grows to 3 members (dead), then shrinks back
        // to 2 via a removal: the surviving pair re-enters the candidate
        // set with exact stats.
        let mut idx = index(DatasetKind::Dirty, 0, 2);
        let a0 = insert(&mut idx, &["x"]);
        let a1 = insert(&mut idx, &["x"]);
        finish(&mut idx, &[a0, a1]);
        idx.record_candidate(a0, a1);
        let a2 = insert(&mut idx, &["x"]);
        let effects = finish(&mut idx, &[a2]);
        assert_eq!(effects.retracted, vec![(a0, a1)]);
        assert!(!idx.is_block_live(0));

        idx.remove_entity(a2);
        let effects = finish(&mut idx, &[a2]);
        assert_eq!(effects.revived, vec![(a0, a1)]);
        assert!(effects.retracted.is_empty());
        assert!(idx.is_block_live(0));
        assert_eq!(idx.block_size(0), 2);
        assert_eq!(idx.total_comparisons(), 1);
        assert_eq!(idx.candidates_of(a0), 1);
        assert_eq!(idx.candidates_of(a1), 1);
    }

    #[test]
    fn removal_tombstones_postings_and_updates_stats() {
        let mut idx = index(DatasetKind::Dirty, 0, usize::MAX);
        let e0 = insert(&mut idx, &["a", "b"]);
        let e1 = insert(&mut idx, &["a"]);
        let e2 = insert(&mut idx, &["a", "b"]);
        finish(&mut idx, &[e0, e1, e2]);
        // Compact so the postings live in the baseline arena, then remove:
        // the posting must be tombstoned, not edited.
        idx.compact(1);
        idx.remove_entity(e1);
        finish(&mut idx, &[e1]);
        assert!(!idx.is_alive(e1));
        assert_eq!(idx.num_alive(), 2);
        let ka = idx.intern("a");
        let a: Vec<EntityId> = idx.members(ka).collect();
        assert_eq!(a, vec![e0, e2]);
        // "a" has 2 members → 1 comparison; "b" unchanged with 1.
        assert_eq!(idx.total_comparisons(), 2);
        assert!(idx.keys_of(e1).is_empty());
        // Compaction physically drops the tombstone.
        let csr = idx.compact(1);
        assert_eq!(csr.num_blocks(), 2);
        assert_eq!(csr.entities(0), &[e0, e2]);
    }

    #[test]
    fn update_rekeys_in_place() {
        let mut idx = index(DatasetKind::Dirty, 0, usize::MAX);
        let e0 = insert(&mut idx, &["a", "b"]);
        let e1 = insert(&mut idx, &["a"]);
        finish(&mut idx, &[e0, e1]);
        rekey(&mut idx, e1, &["b", "c"]);
        finish(&mut idx, &[e1]);
        let (ka, kb, kc) = (idx.intern("a"), idx.intern("b"), idx.intern("c"));
        let a: Vec<EntityId> = idx.members(ka).collect();
        let b: Vec<EntityId> = idx.members(kb).collect();
        let c: Vec<EntityId> = idx.members(kc).collect();
        assert_eq!(a, vec![e0]);
        assert_eq!(b, vec![e0, e1]);
        assert_eq!(c, vec![e1]);
        assert_eq!(idx.keys_of(e1).len(), 2);
        // Un-tombstoning: moving back restores the original postings.
        rekey(&mut idx, e1, &["a"]);
        finish(&mut idx, &[e1]);
        let a: Vec<EntityId> = idx.members(ka).collect();
        assert_eq!(a, vec![e0, e1]);
        assert!(idx.members(kc).next().is_none());
    }

    #[test]
    fn delta_pairs_cover_only_smaller_comparable_partners() {
        let mut idx = index(DatasetKind::CleanClean, 2, usize::MAX);
        insert(&mut idx, &["k", "m"]);
        insert(&mut idx, &["k"]);
        let e2 = insert(&mut idx, &["k", "m"]);
        finish(&mut idx, &[EntityId(0), EntityId(1), e2]);
        let mut board = PartnerBoard::default();
        let partners = idx.collect_delta_pairs(e2, &mut board);
        // Both E1 entities share the live "k" block with e2; entity 0 also
        // shares "m" (live once e2 joined it).
        assert_eq!(partners.len(), 2);
        assert_eq!(partners[0].0, EntityId(0));
        assert_eq!(partners[0].1.common_blocks, 2);
        assert_eq!(partners[1].0, EntityId(1));
        assert_eq!(partners[1].1.common_blocks, 1);
        // The all-partner view from the E1 side sees e2 as well.
        let partners = idx.collect_partners(EntityId(0), &mut board);
        assert_eq!(partners.len(), 1);
        assert_eq!(partners[0].0, e2);
        assert_eq!(partners[0].1.common_blocks, 2);
        assert_eq!(
            idx.pair_cooccurrence(EntityId(0), e2).common_blocks,
            partners[0].1.common_blocks
        );
        assert_eq!(idx.collect_partner_ids(EntityId(0)), vec![e2]);
    }

    #[test]
    fn compact_folds_deltas_and_preserves_the_view() {
        let mut idx = index(DatasetKind::Dirty, 0, usize::MAX);
        insert(&mut idx, &["b", "a"]);
        insert(&mut idx, &["a"]);
        finish(&mut idx, &[EntityId(0), EntityId(1)]);
        let before = idx.view(1);
        let compacted = idx.compact(1);
        assert_eq!(idx.epoch(), 1);
        assert!(before.same_blocks(&compacted));
        // Ingest more after compaction; the view still merges base + delta.
        insert(&mut idx, &["a", "b"]);
        finish(&mut idx, &[EntityId(2)]);
        let after = idx.view(1);
        assert_eq!(after.num_blocks(), 2);
        assert_eq!(after.key(0), "a");
        assert_eq!(after.entities(0), &[EntityId(0), EntityId(1), EntityId(2)]);
    }
}
