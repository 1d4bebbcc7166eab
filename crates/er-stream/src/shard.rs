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
//! Every algorithm over the index — partner collection, co-occurrence
//! merges, aggregates, the batch close and its liveness-flip scans — is a
//! provided method of [`DeltaIndex`], so a [`ShardedIndex`] runs the very
//! code a single [`StreamingIndex`] runs.  What this type supplies is only
//! the addressing: global key ids assigned in first-encounter intern order
//! (exactly the ids a single index driven by the same mutation sequence
//! would assign), every per-entity key row in lexicographic key-string
//! order, each key's statistics and members read from its owning shard,
//! and the touched-key journal merged across shards into global key order.
//! With the same addressing, the same code folds floats in the same order
//! term by term.  The er-shard property suite checks that addressing by
//! driving random mutation traces through both and asserting every
//! [`crate::DeltaBatch`] field and the compacted views are bit-identical
//! at shards × threads ∈ {1,2,4}².
//!
//! # Concurrency shape
//!
//! Shards are independent `StreamingIndex` values: mutation fan-out and
//! compaction touch disjoint shards and read-side consumers see `&self`
//! ([`ShardedIndex`] is `Sync` like any [`DeltaIndex`]).  The
//! er-shard service layers epoch-published immutable views and per-shard
//! WALs with a cross-shard manifest on top.

use er_blocking::{CsrBlockCollection, KeyTable};
use er_core::{crc64, DatasetKind, EntityId, PersistError, PersistResult};

use crate::delta::DeltaIndex;
use crate::index::{assemble_view, KeyStats, Members, StreamingIndex};
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

    /// The owning shard and local key id of a global key.
    #[inline]
    fn locate(&self, key: u32) -> (&StreamingIndex, u32) {
        let (s, local) = self.route[key as usize];
        (&self.shards[s as usize], local)
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

    fn num_entities(&self) -> usize {
        self.entity_rows.len()
    }

    fn num_alive(&self) -> usize {
        self.shards[0].num_alive()
    }

    fn num_keys(&self) -> usize {
        self.keys.len()
    }

    fn is_alive(&self, entity: EntityId) -> bool {
        self.shards[0].is_alive(entity)
    }

    fn has_open_batch(&self) -> bool {
        self.shards.iter().any(StreamingIndex::has_open_batch)
    }

    #[inline]
    fn key_str(&self, key: u32) -> &str {
        self.keys.get(key)
    }

    #[inline]
    fn key_stats(&self, key: u32) -> &KeyStats {
        let (shard, local) = self.locate(key);
        shard.key_stats(local)
    }

    #[inline]
    fn block(&self, key: u32) -> (&KeyStats, Members<'_>) {
        let (shard, local) = self.locate(key);
        shard.block(local)
    }

    #[inline]
    fn keys_of(&self, entity: EntityId) -> &[u32] {
        &self.entity_rows[entity.index()]
    }

    fn num_live_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(StreamingIndex::num_live_blocks)
            .sum()
    }

    fn total_comparisons(&self) -> u64 {
        self.shards
            .iter()
            .map(StreamingIndex::total_comparisons)
            .sum()
    }

    fn lcp_counters(&self) -> &[u32] {
        &self.entity_candidates
    }

    fn lcp_counters_mut(&mut self) -> &mut [u32] {
        &mut self.entity_candidates
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

    /// Drains every shard's journal and translates it to global ids, in
    /// ascending global key order.
    fn drain_journal(&mut self) -> (Vec<(u32, bool)>, usize) {
        let mut journal: Vec<(u32, bool)> = Vec::new();
        for (shard, globals) in self.shards.iter_mut().zip(&self.shard_globals) {
            let (drained, _) = shard.drain_journal();
            journal.extend(
                drained
                    .into_iter()
                    .map(|(local, was_live)| (globals[local as usize], was_live)),
            );
        }
        journal.sort_unstable_by_key(|&(k, _)| k);
        let interned = self.keys.len() - self.keys_recorded;
        self.keys_recorded = self.keys.len();
        (journal, interned)
    }

    fn view(&self, threads: usize) -> CsrBlockCollection {
        let live: Vec<Vec<bool>> = self.shards.iter().map(StreamingIndex::live_flags).collect();
        let order = self.key_order.live_order(&self.keys, threads, |g| {
            let (s, local) = self.route[g as usize];
            live[s as usize][local as usize]
        });
        assemble_view(self, &order, threads)
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
        assemble_view(self, &order, threads)
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
                let mut rb: Vec<u32> = keys.iter().map(|k| b.intern(k)).collect();
                assert_eq!(ra, rb, "intern order must match at {n} shards");
                let ea = a.insert_entity(&mut ra);
                let eb = b.insert_entity(&mut rb);
                assert_eq!(ea, eb);
            }
            let ea = a.finish_batch(|_| true);
            let eb = b.finish_batch(|_| true);
            assert_eq!(ea.touched_keys, eb.touched_keys);
            assert_eq!(ea.retracted, eb.retracted);
            assert_eq!(ea.revived, eb.revived);
            for e in 0..a.num_entities() {
                let e = EntityId(e as u32);
                assert_eq!(a.keys_of(e), b.keys_of(e));
                assert_eq!(a.collect_partner_ids(e), b.collect_partner_ids(e));
            }
            let va = a.compact(1);
            let vb = b.compact(1);
            assert!(va.same_blocks(&vb));
        }
    }

    #[test]
    fn router_state_roundtrips_through_from_parts() {
        let mut b = sharded(3);
        for keys in [["alpha", "beta"], ["beta", "gamma"], ["gamma", "delta"]] {
            let mut raw: Vec<u32> = keys.iter().map(|k| b.intern(k)).collect();
            b.insert_entity(&mut raw);
        }
        b.finish_batch(|_| true);
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
        assert!(rebuilt.view(1).same_blocks(&b.view(1)));
    }

    #[test]
    fn from_parts_rejects_mismatched_router() {
        let mut b = sharded(2);
        let mut raw = vec![b.intern("only")];
        b.insert_entity(&mut raw);
        b.finish_batch(|_| true);
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
