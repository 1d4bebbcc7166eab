//! A hash-partitioned [`DeltaIndex`]: N [`StreamingIndex`] posting shards
//! behind one global key dictionary, bit-identical to a single shard.
//!
//! The global dictionary is a [`KeyTable`] like each shard's own: a key's
//! text is stored once globally and once on its owning shard, and a known
//! key is resolved with one probe of the global table.
//!
//! # Partitioning
//!
//! The *posting space* is sharded: every interned key is routed to the
//! shard `crc64(key) % N` owns ([`shard_of_key`]), which holds the key's
//! full posting list, statistics and liveness flag.  The *entity space* is
//! not sharded — every entity exists on every shard (with the sub-list of
//! its keys that hash there, possibly empty), so entity ids, aliveness and
//! batch boundaries stay aligned across shards and a mutation batch can
//! fan out to the shards it touches without any cross-shard id mapping.
//!
//! # Bit-identity to the single-shard oracle
//!
//! Global key ids are assigned in first-encounter intern order — exactly
//! the ids a single [`StreamingIndex`] driven by the same mutation
//! sequence would assign — and every per-entity key list is kept in
//! lexicographic key-string order.  Each consumer-facing operation
//! (partner collection, co-occurrence merges, aggregates, batch liveness
//! effects, views) walks keys in that global order and reads per-key
//! statistics from the owning shard, reproducing the oracle's float
//! accumulation order term by term.  The er-shard property suite drives
//! random mutation traces through both and asserts every
//! [`crate::DeltaBatch`] field and the compacted views are bit-identical
//! at shards × threads ∈ {1,2,4}².
//!
//! # Concurrency shape
//!
//! Shards are independent `StreamingIndex` values: mutation fan-out and
//! compaction touch disjoint shards and read-side consumers see `&self`
//! ([`ShardedIndex`] is `Sync` like any [`crate::BlockIndex`]).  The
//! er-shard service layers epoch-published immutable views and per-shard
//! WALs with a cross-shard manifest on top.

use er_blocking::{CsrBlockCollection, KeyTable};
use er_core::{crc64, DatasetKind, EntityId, PersistError, PersistResult};
use er_features::{EntityAggregates, PairCooccurrence};

use crate::delta::{BlockIndex, DeltaIndex};
use crate::index::{assemble_view, BatchEffects, KeyStats, Members, PartnerBoard, StreamingIndex};
use crate::key_order::KeyOrder;

/// The shard owning a key's posting list: `crc64(key) % num_shards`.
///
/// Part of the persistence contract — a recovered [`ShardedIndex`] must
/// route exactly as the crashed one did, and the routing must not depend
/// on hasher seeds or platform.
#[inline]
pub fn shard_of_key(key: &str, num_shards: usize) -> usize {
    (crc64(key.as_bytes()) % num_shards as u64) as usize
}

/// The global routing state a sharded snapshot persists *next to* the
/// per-shard [`StreamingIndex`] images: everything
/// [`ShardedIndex::from_parts`] cannot rebuild from the shards alone.
///
/// `route` is the global key table in first-encounter intern order (the
/// order cannot be recovered from the shards — each shard only knows its
/// own sub-order), and `entity_candidates` are the global LCP counters
/// (candidate emission is orchestrated above the shards, so the per-shard
/// counters stay zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouterState {
    /// Number of posting shards.
    pub num_shards: u32,
    /// Global key id → `(shard, local key id)`, in global intern order.
    pub route: Vec<(u32, u32)>,
    /// Global per-entity distinct-candidate counts (the LCP feature).
    pub entity_candidates: Vec<u32>,
    /// Global compaction epoch.
    pub epoch: u64,
}

impl er_persist::Encode for ShardRouterState {
    fn encode(&self, w: &mut er_persist::Writer) {
        w.write_u32(self.num_shards);
        self.route.encode(w);
        self.entity_candidates.encode(w);
        w.write_u64(self.epoch);
    }
}

impl er_persist::Decode for ShardRouterState {
    fn decode(r: &mut er_persist::Reader) -> PersistResult<Self> {
        Ok(ShardRouterState {
            num_shards: r.read_u32()?,
            route: Vec::<(u32, u32)>::decode(r)?,
            entity_candidates: Vec::<u32>::decode(r)?,
            epoch: r.read_u64()?,
        })
    }
}

/// N hash-partitioned [`StreamingIndex`] shards presenting as one
/// [`DeltaIndex`], bit-identical to a single shard for every operation.
#[derive(Debug)]
pub struct ShardedIndex {
    dataset_name: String,
    kind: DatasetKind,
    split: usize,
    cap: usize,
    shards: Vec<StreamingIndex>,
    /// Global interned key strings, first-encounter order (= oracle ids).
    keys: KeyTable,
    /// Keys interned when the last batch was recorded on the registry.
    keys_recorded: usize,
    /// Global key id → (owning shard, local key id there).
    route: Vec<(u32, u32)>,
    /// Inverse of `route` per shard: local key id → global key id.
    shard_globals: Vec<Vec<u32>>,
    /// Per-entity global key ids in lexicographic key-string order (empty
    /// for removed entities) — the global mirror of the oracle's adjacency.
    entity_rows: Vec<Vec<u32>>,
    /// Global LCP counters (the shards' own counters stay zero).
    entity_candidates: Vec<u32>,
    epoch: u64,
    /// Lexicographic order of the global keys live at some compaction
    /// (derived state, never persisted; the shards' own caches stay
    /// empty).
    key_order: KeyOrder,
    /// Reusable per-shard local-key buffers for mutation fan-out.
    scratch: Vec<Vec<u32>>,
}

impl ShardedIndex {
    /// Creates an empty sharded index; see [`StreamingIndex::new`] for the
    /// parameter contract.  `num_shards` must be at least 1.
    pub fn new(
        dataset_name: impl Into<String>,
        kind: DatasetKind,
        split: usize,
        cap: usize,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "a sharded index needs at least one shard");
        let dataset_name = dataset_name.into();
        let shards = (0..num_shards)
            .map(|_| StreamingIndex::new(dataset_name.clone(), kind, split, cap))
            .collect();
        ShardedIndex {
            dataset_name,
            kind,
            split,
            cap,
            shards,
            keys: KeyTable::default(),
            keys_recorded: 0,
            route: Vec::new(),
            shard_globals: vec![Vec::new(); num_shards],
            entity_rows: Vec::new(),
            entity_candidates: Vec::new(),
            epoch: 0,
            key_order: KeyOrder::default(),
            scratch: vec![Vec::new(); num_shards],
        }
    }

    /// Number of posting shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One posting shard (snapshot encoding walks these).
    pub fn shard(&self, i: usize) -> &StreamingIndex {
        &self.shards[i]
    }

    /// Heap bytes of the key dictionaries: the global table plus every
    /// shard's own.
    fn key_table_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self
                .shards
                .iter()
                .map(StreamingIndex::key_table_bytes)
                .sum::<usize>()
    }

    /// The global routing state to persist next to the shard images.
    pub fn router_state(&self) -> ShardRouterState {
        ShardRouterState {
            num_shards: self.shards.len() as u32,
            route: self.route.clone(),
            entity_candidates: self.entity_candidates.clone(),
            epoch: self.epoch,
        }
    }

    /// Reassembles a sharded index from recovered shard images and the
    /// persisted routing state, rebuilding every derived structure (global
    /// key table, per-shard inverses, entity adjacency) and
    /// cross-validating the parts against each other.
    pub fn from_parts(shards: Vec<StreamingIndex>, state: ShardRouterState) -> PersistResult<Self> {
        let corrupt = |msg: String| Err(PersistError::Corrupt(msg));
        if shards.is_empty() || shards.len() != state.num_shards as usize {
            return corrupt(format!(
                "router expects {} shards, got {}",
                state.num_shards,
                shards.len()
            ));
        }
        let first = &shards[0];
        for (i, s) in shards.iter().enumerate() {
            if s.kind() != first.kind()
                || s.split() != first.split()
                || s.size_cap() != first.size_cap()
                || s.dataset_name() != first.dataset_name()
                || s.num_entities() != first.num_entities()
                || s.num_alive() != first.num_alive()
            {
                return corrupt(format!("shard {i} disagrees with shard 0 on its shape"));
            }
            if s.has_open_batch() {
                return corrupt(format!("shard {i} was snapshotted mid-batch"));
            }
        }
        let num_entities = first.num_entities();
        if state.entity_candidates.len() != num_entities {
            return corrupt(format!(
                "router has {} LCP counters for {num_entities} entities",
                state.entity_candidates.len()
            ));
        }
        let total_keys: usize = shards.iter().map(StreamingIndex::num_keys).sum();
        if state.route.len() != total_keys {
            return corrupt(format!(
                "router maps {} keys, shards hold {total_keys}",
                state.route.len()
            ));
        }
        // Rebuild the global key table; each shard's locals must appear in
        // their own intern order (0, 1, 2, ... per shard).
        let mut keys = KeyTable::with_capacity(total_keys);
        let mut shard_globals: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
        for (g, &(s, local)) in state.route.iter().enumerate() {
            let (s, local) = (s as usize, local as usize);
            if s >= shards.len() || local != shard_globals[s].len() {
                return corrupt(format!("router entry {g} is out of order"));
            }
            let key = shards[s].key_str(local as u32);
            if shard_of_key(key, shards.len()) != s {
                return corrupt(format!("key {g:?} routed to the wrong shard"));
            }
            if keys.intern(key) as usize != g {
                return corrupt("duplicate key across shards".to_string());
            }
            shard_globals[s].push(g as u32);
        }
        // Rebuild the global entity adjacency: merge each entity's
        // per-shard key lists and restore lexicographic key-string order.
        let mut entity_rows: Vec<Vec<u32>> = Vec::with_capacity(num_entities);
        for e in 0..num_entities {
            let entity = EntityId(e as u32);
            let mut row: Vec<u32> = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                row.extend(
                    shard
                        .keys_of(entity)
                        .iter()
                        .map(|&l| shard_globals[s][l as usize]),
                );
            }
            row.sort_unstable_by(|&a, &b| keys.get(a).cmp(keys.get(b)));
            entity_rows.push(row);
        }
        let num_shards = shards.len();
        Ok(ShardedIndex {
            dataset_name: first.dataset_name().to_string(),
            kind: first.kind(),
            split: first.split(),
            cap: first.size_cap(),
            shards,
            keys,
            keys_recorded: total_keys,
            route: state.route,
            shard_globals,
            entity_rows,
            entity_candidates: state.entity_candidates,
            epoch: state.epoch,
            key_order: KeyOrder::default(),
            scratch: vec![Vec::new(); num_shards],
        })
    }

    /// `(owning shard, local key id)` of a global key.
    #[inline]
    fn locate(&self, key: u32) -> (usize, u32) {
        let (s, local) = self.route[key as usize];
        (s as usize, local)
    }

    /// The statistics record of a global key's block, from its shard.
    #[inline]
    fn key_stats(&self, key: u32) -> &KeyStats {
        let (s, local) = self.locate(key);
        self.shards[s].key_stats(local)
    }

    /// Whether a global key's block is currently live on its shard.
    #[inline]
    fn is_key_live(&self, key: u32) -> bool {
        self.key_stats(key).is_live(self.cap)
    }

    /// Canonicalizes a raw global key list exactly like
    /// `StreamingIndex::canonicalize_keys`: distinct ids in lexicographic
    /// key-string order.
    fn canonicalize(&self, raw_keys: &mut Vec<u32>) {
        raw_keys.sort_unstable();
        raw_keys.dedup();
        raw_keys.sort_unstable_by(|&a, &b| self.keys.get(a).cmp(self.keys.get(b)));
    }

    /// Fans a canonical global key list out into per-shard local lists in
    /// `self.scratch` (cleared first; sub-orders preserved).
    fn fan_out(&mut self, raw_keys: &[u32]) {
        for buf in &mut self.scratch {
            buf.clear();
        }
        for &g in raw_keys {
            let (s, local) = self.route[g as usize];
            self.scratch[s as usize].push(local);
        }
    }

    /// Mirror of `StreamingIndex::scan_flip` over the global key space: a
    /// block's liveness flipped, scan its comparable pairs of unmutated
    /// members for candidacy changes (retractions when it died, revivals —
    /// judged against pre-batch liveness, the `(global key, liveness)`
    /// journal sorted by key — when it came alive).
    fn scan_flip(
        &self,
        key: u32,
        in_batch: &dyn Fn(EntityId) -> bool,
        pre_live: Option<&[(u32, bool)]>,
        out: &mut Vec<(EntityId, EntityId)>,
    ) {
        let (s, local) = self.locate(key);
        let members: Vec<EntityId> = self.shards[s]
            .members(local)
            .filter(|&m| !in_batch(m))
            .collect();
        match self.kind {
            DatasetKind::Dirty => {
                if members.len() < 2 {
                    return;
                }
            }
            DatasetKind::CleanClean => {
                let first = members.partition_point(|m| m.index() < self.split);
                if first == 0 || first == members.len() {
                    return;
                }
            }
        }
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                let (a, b) = (members[i], members[j]);
                if !self.is_comparable(a, b) {
                    continue;
                }
                let shares = match pre_live {
                    None => self.find_shared_key(a, b, |k| self.is_key_live(k)),
                    Some(snapshot) => self.find_shared_key(a, b, |k| {
                        match snapshot.binary_search_by_key(&k, |&(key, _)| key) {
                            Ok(at) => snapshot[at].1,
                            Err(_) => self.is_key_live(k),
                        }
                    }),
                };
                if !shares {
                    out.push((a, b));
                }
            }
        }
    }

    /// Merges two entities' global key lists (lexicographic order) and
    /// returns whether any shared key satisfies `is_live`.
    fn find_shared_key(&self, a: EntityId, b: EntityId, is_live: impl Fn(u32) -> bool) -> bool {
        let la = &self.entity_rows[a.index()];
        let lb = &self.entity_rows[b.index()];
        let (mut i, mut j) = (0, 0);
        while i < la.len() && j < lb.len() {
            let (x, y) = (la[i], lb[j]);
            if x == y {
                if is_live(x) {
                    return true;
                }
                i += 1;
                j += 1;
            } else if self.keys.get(x) < self.keys.get(y) {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Shared body of the partner-collection pair: walk the entity's
    /// global key list in lexicographic order, read each live key's
    /// statistics and members from the owning shard, accumulate on the
    /// board — term order identical to the oracle's.
    fn collect_partners_impl(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
        smaller_only: bool,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        for &g in &self.entity_rows[e.index()] {
            let (s, local) = self.locate(g);
            let shard = &self.shards[s];
            let stats = shard.key_stats(local);
            if !stats.is_live(self.cap) {
                continue;
            }
            let (inv_comparisons, inv_sizes) = (stats.inv_comparisons, stats.inv_sizes);
            for p in shard.members(local) {
                if smaller_only && p >= e {
                    break;
                }
                if p == e || !self.is_comparable(p, e) {
                    continue;
                }
                board.add(p.0, inv_comparisons, inv_sizes);
            }
        }
        board.drain_sorted()
    }
}

impl BlockIndex for ShardedIndex {
    fn num_keys(&self) -> usize {
        self.keys.len()
    }
    fn num_entities(&self) -> usize {
        self.entity_rows.len()
    }
    fn num_alive(&self) -> usize {
        self.shards[0].num_alive()
    }
    fn is_alive(&self, entity: EntityId) -> bool {
        self.shards[0].is_alive(entity)
    }
    fn key_str(&self, key: u32) -> &str {
        self.keys.get(key)
    }
    fn block_size(&self, key: u32) -> usize {
        let (s, local) = self.locate(key);
        self.shards[s].block_size(local)
    }
    fn is_block_live(&self, key: u32) -> bool {
        self.is_key_live(key)
    }
    fn members(&self, key: u32) -> Members<'_> {
        let (s, local) = self.locate(key);
        self.shards[s].members(local)
    }
    fn keys_of(&self, entity: EntityId) -> &[u32] {
        &self.entity_rows[entity.index()]
    }
    fn is_comparable(&self, a: EntityId, b: EntityId) -> bool {
        self.kind.comparable(self.split, a, b)
    }
    fn candidates_of(&self, entity: EntityId) -> u32 {
        self.entity_candidates[entity.index()]
    }
}

impl DeltaIndex for ShardedIndex {
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
    fn has_open_batch(&self) -> bool {
        self.shards.iter().any(StreamingIndex::has_open_batch)
    }

    fn intern(&mut self, key: &str) -> u32 {
        let g = self.keys.intern(key);
        if g as usize == self.route.len() {
            let s = shard_of_key(key, self.shards.len());
            let local = self.shards[s].intern(key);
            debug_assert_eq!(local as usize, self.shard_globals[s].len());
            self.shard_globals[s].push(g);
            self.route.push((s as u32, local));
        }
        g
    }

    fn insert_entity(&mut self, raw_keys: &mut Vec<u32>) -> EntityId {
        self.canonicalize(raw_keys);
        self.fan_out(raw_keys);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut assigned: Option<EntityId> = None;
        for (s, buf) in scratch.iter_mut().enumerate() {
            let e = self.shards[s].insert_entity(buf);
            debug_assert!(assigned.is_none_or(|prev| prev == e));
            assigned = Some(e);
        }
        self.scratch = scratch;
        self.entity_rows.push(raw_keys.clone());
        self.entity_candidates.push(0);
        assigned.expect("at least one shard")
    }

    fn remove_entity(&mut self, entity: EntityId) {
        for shard in &mut self.shards {
            shard.remove_entity(entity);
        }
        self.entity_rows[entity.index()] = Vec::new();
    }

    fn replace_entity_keys(&mut self, entity: EntityId, raw_keys: &mut Vec<u32>) {
        self.canonicalize(raw_keys);
        self.fan_out(raw_keys);
        let mut scratch = std::mem::take(&mut self.scratch);
        for (s, buf) in scratch.iter_mut().enumerate() {
            self.shards[s].replace_entity_keys(entity, buf);
        }
        self.scratch = scratch;
        self.entity_rows[entity.index()] = raw_keys.clone();
    }

    fn finish_batch(&mut self, in_batch: &dyn Fn(EntityId) -> bool) -> BatchEffects {
        // Collect every shard's journal, translate to global ids, and
        // process flips in ascending *global* key order — the order the
        // oracle's own journal drain produces (global ids are intern
        // order, identical to the oracle's key ids).
        let mut snapshot: Vec<(u32, bool)> = Vec::new();
        for s in 0..self.shards.len() {
            let drained = self.shards[s].drain_touched();
            snapshot.extend(
                drained
                    .into_iter()
                    .map(|(local, was)| (self.shard_globals[s][local as usize], was)),
            );
        }
        snapshot.sort_unstable_by_key(|&(k, _)| k);

        let mut retracted: Vec<(EntityId, EntityId)> = Vec::new();
        let mut revived: Vec<(EntityId, EntityId)> = Vec::new();
        for &(k, was_live) in &snapshot {
            let now_live = self.is_key_live(k);
            if was_live && !now_live {
                self.scan_flip(k, in_batch, None, &mut retracted);
            } else if !was_live && now_live {
                self.scan_flip(k, in_batch, Some(&snapshot), &mut revived);
            }
        }
        retracted.sort_unstable();
        retracted.dedup();
        revived.sort_unstable();
        revived.dedup();
        for &(a, b) in &retracted {
            self.entity_candidates[a.index()] -= 1;
            self.entity_candidates[b.index()] -= 1;
        }
        for &(a, b) in &revived {
            self.entity_candidates[a.index()] += 1;
            self.entity_candidates[b.index()] += 1;
        }
        crate::obs::record_key_table(self.keys.len() - self.keys_recorded, self.key_table_bytes());
        self.keys_recorded = self.keys.len();
        BatchEffects {
            touched_keys: snapshot.into_iter().map(|(k, _)| k).collect(),
            retracted,
            revived,
        }
    }

    fn collect_delta_pairs(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        self.collect_partners_impl(e, board, true)
    }

    fn collect_partners(
        &self,
        e: EntityId,
        board: &mut PartnerBoard,
    ) -> Vec<(EntityId, PairCooccurrence)> {
        self.collect_partners_impl(e, board, false)
    }

    fn collect_partner_ids(&self, e: EntityId) -> Vec<EntityId> {
        let mut partners: Vec<EntityId> = Vec::new();
        for &g in &self.entity_rows[e.index()] {
            if !self.is_key_live(g) {
                continue;
            }
            let (s, local) = self.locate(g);
            let shard = &self.shards[s];
            partners.extend(
                shard
                    .members(local)
                    .filter(|&p| p != e && self.is_comparable(p, e)),
            );
        }
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    fn pair_cooccurrence(&self, a: EntityId, b: EntityId) -> PairCooccurrence {
        let la = &self.entity_rows[a.index()];
        let lb = &self.entity_rows[b.index()];
        let mut agg = PairCooccurrence::default();
        let (mut i, mut j) = (0, 0);
        while i < la.len() && j < lb.len() {
            let (x, y) = (la[i], lb[j]);
            if x == y {
                let stats = self.key_stats(x);
                if stats.is_live(self.cap) {
                    agg.common_blocks += 1;
                    agg.inv_comparisons_sum += stats.inv_comparisons;
                    agg.inv_sizes_sum += stats.inv_sizes;
                }
                i += 1;
                j += 1;
            } else if self.keys.get(x) < self.keys.get(y) {
                i += 1;
            } else {
                j += 1;
            }
        }
        agg
    }

    fn entity_aggregates(&self, entity: EntityId) -> EntityAggregates {
        let mut live_blocks = 0usize;
        let mut inv_comparisons = 0.0f64;
        let mut inv_sizes = 0.0f64;
        let mut entity_comparisons = 0u64;
        for &g in &self.entity_rows[entity.index()] {
            let stats = self.key_stats(g);
            if !stats.is_live(self.cap) {
                continue;
            }
            live_blocks += 1;
            inv_comparisons += stats.inv_comparisons;
            inv_sizes += stats.inv_sizes;
            entity_comparisons += stats.comparisons;
        }
        let blocks_of = live_blocks as f64;
        let num_blocks = self
            .shards
            .iter()
            .map(StreamingIndex::num_live_blocks)
            .sum::<usize>() as f64;
        let ibf = if blocks_of > 0.0 && num_blocks > 0.0 {
            (num_blocks / blocks_of).ln()
        } else {
            0.0
        };
        let own = entity_comparisons as f64;
        let total = self
            .shards
            .iter()
            .map(StreamingIndex::total_comparisons)
            .sum::<u64>() as f64;
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
            lcp: f64::from(self.entity_candidates[entity.index()]),
        }
    }

    fn record_candidate(&mut self, a: EntityId, b: EntityId) {
        self.entity_candidates[a.index()] += 1;
        self.entity_candidates[b.index()] += 1;
    }

    fn retract_candidate(&mut self, a: EntityId, b: EntityId) {
        self.entity_candidates[a.index()] -= 1;
        self.entity_candidates[b.index()] -= 1;
    }

    fn view(&self, threads: usize) -> CsrBlockCollection {
        let live: Vec<Vec<bool>> = self.shards.iter().map(StreamingIndex::live_flags).collect();
        let order = self.key_order.live_order(&self.keys, threads, |g| {
            let (s, local) = self.locate(g);
            live[s][local as usize]
        });
        assemble_view(self, &order, threads, |g| self.key_stats(g).first)
    }

    fn compact(&mut self, threads: usize) -> CsrBlockCollection {
        debug_assert!(
            !self.has_open_batch(),
            "compact() during an unfinished mutation batch"
        );
        let live: Vec<Vec<bool>> = self
            .shards
            .iter_mut()
            .map(|shard| shard.fold_deltas(threads))
            .collect();
        let route = &self.route;
        let order = self.key_order.absorb(&self.keys, threads, |g| {
            let (s, local) = route[g as usize];
            live[s as usize][local as usize]
        });
        self.epoch += 1;
        assemble_view(self, &order, threads, |g| self.key_stats(g).first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(n: usize) -> ShardedIndex {
        ShardedIndex::new("t", DatasetKind::Dirty, 0, usize::MAX, n)
    }

    fn oracle() -> StreamingIndex {
        StreamingIndex::new("t", DatasetKind::Dirty, 0, usize::MAX)
    }

    /// Drives the same tiny mutation sequence through a single
    /// StreamingIndex and a ShardedIndex and compares every observable.
    #[test]
    fn sharded_index_tracks_the_oracle() {
        for n in [1usize, 2, 3, 4] {
            let mut a = oracle();
            let mut b = sharded(n);
            let corpus: &[&[&str]] = &[
                &["apple", "iphone", "ten"],
                &["apple", "iphone", "x"],
                &["samsung", "galaxy", "phone"],
                &["galaxy", "phone", "samsung"],
            ];
            for keys in corpus {
                let mut ra: Vec<u32> = keys.iter().map(|k| a.intern(k)).collect();
                let mut rb: Vec<u32> = keys.iter().map(|k| DeltaIndex::intern(&mut b, k)).collect();
                assert_eq!(ra, rb, "intern order must match at {n} shards");
                let ea = a.insert_entity(&mut ra);
                let eb = b.insert_entity(&mut rb);
                assert_eq!(ea, eb);
            }
            let ea = a.finish_batch(|_| true);
            let eb = DeltaIndex::finish_batch(&mut b, &|_| true);
            assert_eq!(ea.touched_keys, eb.touched_keys);
            assert_eq!(ea.retracted, eb.retracted);
            assert_eq!(ea.revived, eb.revived);
            for e in 0..a.num_entities() {
                let e = EntityId(e as u32);
                assert_eq!(a.keys_of(e), BlockIndex::keys_of(&b, e));
                assert_eq!(
                    a.collect_partner_ids(e),
                    DeltaIndex::collect_partner_ids(&b, e)
                );
            }
            let va = a.compact(1);
            let vb = DeltaIndex::compact(&mut b, 1);
            assert_eq!(
                va.to_block_collection().blocks,
                vb.to_block_collection().blocks
            );
        }
    }

    #[test]
    fn router_state_roundtrips_through_from_parts() {
        let mut b = sharded(3);
        for keys in [["alpha", "beta"], ["beta", "gamma"], ["gamma", "delta"]] {
            let mut raw: Vec<u32> = keys.iter().map(|k| DeltaIndex::intern(&mut b, k)).collect();
            b.insert_entity(&mut raw);
        }
        DeltaIndex::finish_batch(&mut b, &|_| true);
        b.record_candidate(EntityId(0), EntityId(1));
        let state = b.router_state();
        let shards: Vec<StreamingIndex> = (0..b.num_shards())
            .map(|i| {
                let mut w = er_persist::Writer::new();
                er_persist::Encode::encode(b.shard(i), &mut w);
                let bytes = w.into_bytes();
                let mut r = er_persist::Reader::new(&bytes);
                <StreamingIndex as er_persist::Decode>::decode(&mut r).unwrap()
            })
            .collect();
        let rebuilt = ShardedIndex::from_parts(shards, state).unwrap();
        assert_eq!(rebuilt.num_keys(), b.num_keys());
        assert_eq!(rebuilt.entity_rows, b.entity_rows);
        assert_eq!(rebuilt.entity_candidates, b.entity_candidates);
        assert_eq!(
            DeltaIndex::view(&rebuilt, 1).to_block_collection().blocks,
            DeltaIndex::view(&b, 1).to_block_collection().blocks
        );
    }

    #[test]
    fn from_parts_rejects_mismatched_router() {
        let mut b = sharded(2);
        let mut raw = vec![DeltaIndex::intern(&mut b, "only")];
        b.insert_entity(&mut raw);
        DeltaIndex::finish_batch(&mut b, &|_| true);
        let mut state = b.router_state();
        state.entity_candidates.push(7);
        let shards = vec![roundtrip(b.shard(0)), roundtrip(b.shard(1))];
        assert!(ShardedIndex::from_parts(shards, state).is_err());
    }

    fn roundtrip(index: &StreamingIndex) -> StreamingIndex {
        let mut w = er_persist::Writer::new();
        er_persist::Encode::encode(index, &mut w);
        let bytes = w.into_bytes();
        let mut r = er_persist::Reader::new(&bytes);
        <StreamingIndex as er_persist::Decode>::decode(&mut r).unwrap()
    }
}
