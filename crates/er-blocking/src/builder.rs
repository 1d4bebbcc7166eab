//! The unified parallel block-building engine.
//!
//! All three redundancy-positive blocking schemes (Token Blocking, Q-Grams,
//! Suffix Arrays) are the same computation with a different per-token key
//! expansion: tokenize every profile, derive blocking keys from the tokens,
//! group entities by key, drop useless blocks, sort by key.  This module
//! factors that computation into one engine driven by a [`KeyGenerator`] and
//! runs it as a lock-free, radix-partitioned hash aggregation:
//!
//! 1. **Emit.** Entities are split into contiguous ranges pulled by workers
//!    through the shared work-stealing driver
//!    (`er_core::map_ranges_parallel`).  Each worker streams its profiles'
//!    tokens through `er_core::tokenize::for_each_token` — no per-profile
//!    `Vec<String>`, no per-token `String` — and expands tokens into keys,
//!    emitted as `&str` slices (q-grams and suffixes are byte-range views
//!    into the token).  Every emitted key is hashed once and appended as a
//!    `(hash, entity, len)` record plus its bytes; the range's records are
//!    then counting-sorted by the top 7 hash bits, so each of the 128
//!    partitions is one contiguous, entity-ascending slice of the range's
//!    two buffers.
//! 2. **Group.** Partitions own disjoint key sets, so they are aggregated
//!    independently with no synchronisation: a small open-addressing table
//!    of `(hash tag, local id)` over a bump key arena interns the
//!    partition's keys (a few thousand, cache-resident), repeated keys of
//!    one entity are dropped by a `last_entity[key]` check (records arrive
//!    in ascending entity order), postings are grouped by a partition-local
//!    counting sort — which leaves every entity list sorted — and blocks
//!    over the generator's size cap or without a comparison are dropped
//!    right there.
//! 3. **Order.** Only the surviving keys are sorted lexicographically, on a
//!    cached 16-byte prefix held as two big-endian words (24-byte sort
//!    entries) that falls back to the key bytes only when both words tie —
//!    the kernel behind [`sorted_key_order`].  Distinct keys of at most 16
//!    bytes without a NUL never tie, so token keys such as `tok` plus six
//!    digits, which mostly tie on an 8-byte prefix, never load key bytes.
//! 4. **Assemble.** Survivor keys and entity lists are gathered into the
//!    final CSR arrays in sorted order; contiguous block-id ranges own
//!    contiguous output ranges, so both the offset tables and the gather
//!    are chunked over the workers (each measures its chunk, the calling
//!    thread only adds up one total per chunk).
//!
//! Transient memory is proportional to the emitted keys (one 16-byte record
//! plus the key bytes each) and is released before the survivor sort.
//!
//! # Determinism
//!
//! Scheduling decides only which worker handles which entity range or
//! partition.  Ranges are visited in ascending order inside every partition,
//! block ids come from the lexicographic key sort and entity lists are
//! ordered by construction, so the output is bit-identical to the
//! sequential reference builders in [`crate::reference`] for any thread
//! count — a property the workspace property tests assert for all three
//! schemes.

use std::ops::Range;
use std::sync::Arc;

use er_core::fxhash::{hash_bytes, high_bits};
use er_core::{checked_u32, Dataset, DatasetKind, EntityId, EntityProfile};

use crate::csr::{slice_cardinalities, CsrBlockCollection, KeyStore, ENTITY_ARENA_LIMIT};

/// The key text limit every block key offset table is checked against.
const KEY_TEXT_LIMIT: &str = "block key text limit (4 GiB of key text)";

/// Keys are partitioned by the top `PARTITION_BITS` bits of their hash.  128
/// partitions keep one partition's table and key arena cache-resident at
/// millions of distinct keys and give the group phase 16 units of work per
/// worker at the 8-worker cap.
const PARTITION_BITS: u32 = 7;
const PARTITIONS: usize = 1 << PARTITION_BITS;
/// Entity ranges of the emit phase are capped so that one range's staging
/// buffers stay cache-sized (a megabyte or two at ten keys per entity) and
/// the build's transient memory does not double when one worker would
/// otherwise stage the whole corpus.
const MAX_TASK_ENTITIES: usize = 1 << 13;

/// Reusable per-worker scratch handed to [`KeyGenerator::for_each_key`]:
/// the char-boundary table of the current token.
#[derive(Debug, Default)]
pub struct KeyScratch {
    positions: Vec<u32>,
}

impl KeyScratch {
    /// Fills `positions` with the byte offset of every char boundary of
    /// `token`, including the trailing `token.len()` sentinel, and returns
    /// the slice.  The char at index `i` spans bytes
    /// `positions[i]..positions[i + 1]`.
    pub(crate) fn char_boundaries(&mut self, token: &str) -> &[u32] {
        self.positions.clear();
        for (offset, _) in token.char_indices() {
            self.positions.push(offset as u32);
        }
        self.positions.push(token.len() as u32);
        &self.positions
    }
}

/// A blocking scheme, expressed as its per-token key expansion.
///
/// The engine lowercases the profile's tokens before calling `for_each_key`
/// and deduplicates the emitted keys per entity afterwards (on interned ids),
/// so implementations only describe the token → keys mapping.
pub trait KeyGenerator: Sync {
    /// Emits every blocking key derived from one token.  Keys may borrow from
    /// `token` (the engine interns them immediately).
    fn for_each_key(&self, token: &str, scratch: &mut KeyScratch, emit: &mut dyn FnMut(&str));

    /// Blocks with more entities than this are discarded after construction
    /// (the Suffix Arrays frequency cap).  `None` keeps every block.
    fn max_block_size(&self) -> Option<usize> {
        None
    }
}

/// Token Blocking: every token is its own key.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenKeys;

impl KeyGenerator for TokenKeys {
    #[inline]
    fn for_each_key(&self, token: &str, _scratch: &mut KeyScratch, emit: &mut dyn FnMut(&str)) {
        emit(token);
    }
}

/// Q-Grams Blocking: every character q-gram of the token is a key; tokens of
/// at most `q` characters are emitted whole.
#[derive(Debug, Clone, Copy)]
pub struct QGramKeys {
    q: usize,
}

impl QGramKeys {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics if `q < 2`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 2, "q must be at least 2");
        QGramKeys { q }
    }
}

impl KeyGenerator for QGramKeys {
    #[inline]
    fn for_each_key(&self, token: &str, scratch: &mut KeyScratch, emit: &mut dyn FnMut(&str)) {
        let bounds = scratch.char_boundaries(token);
        let chars = bounds.len() - 1;
        if chars <= self.q {
            emit(token);
            return;
        }
        for start in 0..=chars - self.q {
            emit(&token[bounds[start] as usize..bounds[start + self.q] as usize]);
        }
    }
}

/// Suffix Arrays Blocking: every suffix of at least `min_length` characters
/// is a key, and blocks larger than `max_block_size` are discarded.
#[derive(Debug, Clone, Copy)]
pub struct SuffixKeys {
    min_length: usize,
    max_block_size: usize,
}

impl SuffixKeys {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics if `min_length < 2` or `max_block_size < 2`.
    pub fn new(min_length: usize, max_block_size: usize) -> Self {
        assert!(min_length >= 2, "min_length must be at least 2");
        assert!(max_block_size >= 2, "max_block_size must allow a pair");
        SuffixKeys {
            min_length,
            max_block_size,
        }
    }
}

impl KeyGenerator for SuffixKeys {
    #[inline]
    fn for_each_key(&self, token: &str, scratch: &mut KeyScratch, emit: &mut dyn FnMut(&str)) {
        let bounds = scratch.char_boundaries(token);
        let chars = bounds.len() - 1;
        if chars < self.min_length {
            return;
        }
        for start in 0..=chars - self.min_length {
            emit(&token[bounds[start] as usize..]);
        }
    }

    fn max_block_size(&self) -> Option<usize> {
        Some(self.max_block_size)
    }
}

/// One emitted key: its hash, the emitting entity and the key's byte length.
/// The bytes sit in the owning [`TaskRun::bytes`], concatenated in record
/// order.
#[derive(Clone, Copy, Default)]
struct Record {
    hash: u64,
    entity: u32,
    len: u32,
}

#[inline]
fn partition_of(hash: u64) -> usize {
    high_bits(hash, 0, PARTITION_BITS)
}

/// Everything one entity range emitted, counting-sorted by partition:
/// partition `p` is `records[record_starts[p]..record_starts[p + 1]]` (in
/// ascending entity order) with its key bytes at
/// `bytes[byte_starts[p]..byte_starts[p + 1]]`.
struct TaskRun {
    records: Vec<Record>,
    bytes: Vec<u8>,
    record_starts: [usize; PARTITIONS + 1],
    byte_starts: [usize; PARTITIONS + 1],
}

impl TaskRun {
    fn partition(&self, p: usize) -> (&[Record], &[u8]) {
        (
            &self.records[self.record_starts[p]..self.record_starts[p + 1]],
            &self.bytes[self.byte_starts[p]..self.byte_starts[p + 1]],
        )
    }
}

/// Phase 1 for one entity range: tokenise, expand, hash, then counting-sort
/// the emitted records (and their key bytes) by partition.
fn emit_task<G: KeyGenerator + ?Sized>(
    profiles: &[EntityProfile],
    range: Range<usize>,
    generator: &G,
) -> TaskRun {
    let mut case_scratch = String::new();
    let mut scratch = KeyScratch::default();
    let mut staged: Vec<Record> = Vec::new();
    let mut staged_bytes: Vec<u8> = Vec::new();
    // Per-partition counts first, turned into start offsets below.
    let mut record_starts = [0usize; PARTITIONS + 1];
    let mut byte_starts = [0usize; PARTITIONS + 1];
    for e in range {
        let entity = e as u32;
        for attribute in &profiles[e].attributes {
            er_core::tokenize::for_each_token(&attribute.value, &mut case_scratch, |token| {
                generator.for_each_key(token, &mut scratch, &mut |key| {
                    let hash = hash_bytes(key.as_bytes());
                    let p = partition_of(hash);
                    record_starts[p + 1] += 1;
                    byte_starts[p + 1] += key.len();
                    staged.push(Record {
                        hash,
                        entity,
                        len: key.len() as u32,
                    });
                    staged_bytes.extend_from_slice(key.as_bytes());
                });
            });
        }
    }
    for p in 0..PARTITIONS {
        record_starts[p + 1] += record_starts[p];
        byte_starts[p + 1] += byte_starts[p];
    }

    let mut records = vec![Record::default(); staged.len()];
    let mut bytes = vec![0u8; staged_bytes.len()];
    let mut record_cursors = record_starts;
    let mut byte_cursors = byte_starts;
    let mut pos = 0;
    for record in staged {
        let p = partition_of(record.hash);
        let len = record.len as usize;
        records[record_cursors[p]] = record;
        record_cursors[p] += 1;
        bytes[byte_cursors[p]..byte_cursors[p] + len]
            .copy_from_slice(&staged_bytes[pos..pos + len]);
        byte_cursors[p] += len;
        pos += len;
    }
    TaskRun {
        records,
        bytes,
        record_starts,
        byte_starts,
    }
}

/// Distinct keys as one byte buffer plus an offset table; ids are dense in
/// push order.
struct KeyArena {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl KeyArena {
    fn new() -> Self {
        KeyArena {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.truncate(1);
    }

    fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.offsets.push(self.bytes.len() as u32);
    }

    #[inline]
    fn get(&self, id: usize) -> &[u8] {
        &self.bytes[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

/// The blocks of a run of partitions that survived the size cap and the
/// comparison test, in `(partition, first appearance)` order, plus the
/// counts the build reports.
struct Survivors {
    keys: KeyArena,
    entities: Vec<EntityId>,
    entity_offsets: Vec<u32>,
    first_counts: Vec<u32>,
    /// Distinct keys seen, survivors or not.
    distinct_keys: u64,
    /// `(key, entity)` postings after per-entity deduplication, survivors
    /// or not.
    postings: u64,
}

impl Survivors {
    fn new() -> Self {
        Survivors {
            keys: KeyArena::new(),
            entities: Vec::new(),
            entity_offsets: vec![0],
            first_counts: Vec::new(),
            distinct_keys: 0,
            postings: 0,
        }
    }

    fn len(&self) -> usize {
        self.first_counts.len()
    }

    fn push(&mut self, key: &[u8], entities: &[EntityId], first: u32) {
        self.keys.push(key);
        self.entities.extend_from_slice(entities);
        self.entity_offsets.push(self.entities.len() as u32);
        self.first_counts.push(first);
    }

    fn entities(&self, i: usize) -> &[EntityId] {
        &self.entities[self.entity_offsets[i] as usize..self.entity_offsets[i + 1] as usize]
    }
}

/// Marks an empty [`PartitionScratch::slots`] entry; also the
/// `last_entity` value no real entity id equals (ids are below the entity
/// count, which fits a `u32`).
const NONE: u32 = u32::MAX;

/// The reusable state of the group phase: one partition's key table, key
/// arena, per-key counters and posting buffers.  One instance serves a whole
/// run of partitions, so a worker holds a handful of allocations that stop
/// growing after the first partition.
struct PartitionScratch {
    /// Open-addressing table of `(tag, local key id)`, linear probing, a
    /// power-of-two number of slots kept at most half full.  The tag is the
    /// 32 hash bits below the partition bits; the home slot is the tag's
    /// top `slot_bits` bits (see `er_core::fxhash::high_bits` for why not
    /// the low ones).
    slots: Vec<(u32, u32)>,
    slot_bits: u32,
    /// The partition's distinct keys, local id order.
    keys: KeyArena,
    /// Per local key, the last entity that posted it.
    last_entity: Vec<u32>,
    /// Per local key, its posting count; then its cursor into `grouped`.
    cursors: Vec<u32>,
    /// Deduplicated `(local key, entity)` postings, entity-ascending.
    postings: Vec<(u32, u32)>,
    /// `postings` counting-sorted by key.
    grouped: Vec<EntityId>,
}

impl PartitionScratch {
    fn new() -> Self {
        let slot_bits = 10;
        PartitionScratch {
            slots: vec![(0, NONE); 1 << slot_bits],
            slot_bits,
            keys: KeyArena::new(),
            last_entity: Vec::new(),
            cursors: Vec::new(),
            postings: Vec::new(),
            grouped: Vec::new(),
        }
    }

    #[inline]
    fn home_slot(tag: u32, slot_bits: u32) -> usize {
        (tag >> (32 - slot_bits)) as usize
    }

    /// The local id of `key`, interning it on first sight.
    #[inline]
    fn intern(&mut self, hash: u64, key: &[u8]) -> usize {
        let tag = high_bits(hash, PARTITION_BITS, 32) as u32;
        let mask = self.slots.len() - 1;
        let mut slot = Self::home_slot(tag, self.slot_bits);
        loop {
            let (slot_tag, id) = self.slots[slot];
            if id == NONE {
                break;
            }
            let id = id as usize;
            if slot_tag == tag && self.keys.get(id) == key {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.last_entity.len();
        self.slots[slot] = (tag, id as u32);
        self.keys.push(key);
        self.last_entity.push(NONE);
        self.cursors.push(0);
        if (id + 1) * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the table.  Stored keys are distinct, so re-inserting needs
    /// the tags only.
    fn grow(&mut self) {
        self.slot_bits += 1;
        assert!(self.slot_bits < 32, "partition key table overflow");
        let old = std::mem::replace(&mut self.slots, vec![(0, NONE); 1 << self.slot_bits]);
        let mask = self.slots.len() - 1;
        for (tag, id) in old {
            if id == NONE {
                continue;
            }
            let mut slot = Self::home_slot(tag, self.slot_bits);
            while self.slots[slot].1 != NONE {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (tag, id);
        }
    }

    /// Phase 2 for one partition: intern and deduplicate its records from
    /// every range (ascending, so entities arrive in order), group the
    /// postings by key and append the surviving blocks to `out`.
    fn group_partition(
        &mut self,
        p: usize,
        runs: &[TaskRun],
        cap: usize,
        kind: DatasetKind,
        split: usize,
        out: &mut Survivors,
    ) {
        self.slots.fill((0, NONE));
        self.keys.clear();
        self.last_entity.clear();
        self.cursors.clear();
        self.postings.clear();

        for run in runs {
            let (records, bytes) = run.partition(p);
            let mut pos = 0;
            for record in records {
                let len = record.len as usize;
                let id = self.intern(record.hash, &bytes[pos..pos + len]);
                pos += len;
                if self.last_entity[id] != record.entity {
                    self.last_entity[id] = record.entity;
                    self.cursors[id] += 1;
                    self.postings.push((id as u32, record.entity));
                }
            }
        }

        // Counting sort by local key; stable, so every list stays ascending.
        let mut start = 0u32;
        for cursor in &mut self.cursors {
            let size = *cursor;
            *cursor = start;
            start += size;
        }
        self.grouped.clear();
        self.grouped.resize(self.postings.len(), EntityId(0));
        for &(id, entity) in &self.postings {
            let cursor = &mut self.cursors[id as usize];
            self.grouped[*cursor as usize] = EntityId(entity);
            *cursor += 1;
        }

        // Each cursor now sits at the end of its key's list.
        let mut start = 0usize;
        for (id, &end) in self.cursors.iter().enumerate() {
            let block = &self.grouped[start..end as usize];
            start = end as usize;
            if block.len() > cap {
                continue;
            }
            let (first, comparisons) = slice_cardinalities(block, kind, split);
            if comparisons > 0 {
                out.push(self.keys.get(id), block, first);
            }
        }
        out.distinct_keys += self.cursors.len() as u64;
        out.postings += self.postings.len() as u64;
    }
}

/// The first sixteen bytes of a key as two big-endian words, zero-padded:
/// comparing two prefixes (first word, then second) agrees with comparing
/// the keys whenever the prefixes differ.  Two `u64`s rather than one
/// `u128` keep a sort entry at 24 bytes (a `u128` is 16-byte aligned and
/// would pad it to 32).
#[inline]
fn key_prefix(key: &[u8]) -> (u64, u64) {
    let mut buf = [0u8; 16];
    let n = key.len().min(16);
    buf[..n].copy_from_slice(&key[..n]);
    let (high, low) = buf.split_at(8);
    (
        u64::from_be_bytes(high.try_into().expect("8 bytes")),
        u64::from_be_bytes(low.try_into().expect("8 bytes")),
    )
}

/// One sort entry: the key's cached 16-byte prefix and its index.
type SortEntry = ((u64, u64), u32);

/// Returns `0..n` ordered by `key(i)` ascending (bytewise, i.e. `str` order
/// for UTF-8).  Sort entries carry the key's 16-byte prefix, so comparisons
/// touch the key bytes only when both prefix words tie.
///
/// With more than one worker the index range is split into contiguous
/// chunks of one entry buffer, allocated here (so no worker's malloc arena
/// retains it); each chunk is filled and sorted in place on its own worker,
/// and the sorted runs are folded by a k-way merge on the calling thread.
fn order_by_key<'k>(n: usize, key: impl Fn(u32) -> &'k [u8] + Sync, threads: usize) -> Vec<u32> {
    let compare = |a: &SortEntry, b: &SortEntry| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(key(b.1)));
    // Below ~64k keys the chunk sorts finish faster than the threads spawn.
    let workers = if n < 65_536 { 1 } else { threads.max(1) };
    let chunk = n.div_ceil(workers).max(1);
    let mut entries: Vec<SortEntry> = vec![((0, 0), 0); n];
    let tasks = entries.chunks_mut(chunk).enumerate().collect();
    er_core::map_tasks_parallel(tasks, workers, |(c, run): (usize, &mut [SortEntry])| {
        for (i, entry) in (c * chunk..).zip(run.iter_mut()) {
            *entry = (key_prefix(key(i as u32)), i as u32);
        }
        run.sort_unstable_by(compare);
    });
    let runs: Vec<&[SortEntry]> = entries.chunks(chunk).collect();
    if runs.len() <= 1 {
        return entries.iter().map(|&(_, i)| i).collect();
    }
    // K-way merge of the sorted runs; k is the worker count (≤ 8), so a
    // linear scan over the run heads beats a heap.
    let mut cursors = vec![0usize; runs.len()];
    let mut order = Vec::with_capacity(n);
    loop {
        let mut best: Option<(usize, &SortEntry)> = None;
        for (r, run) in runs.iter().enumerate() {
            if let Some(head) = run.get(cursors[r]) {
                if best.is_none_or(|(_, b)| compare(head, b).is_lt()) {
                    best = Some((r, head));
                }
            }
        }
        let Some((r, head)) = best else { break };
        order.push(head.1);
        cursors[r] += 1;
    }
    order
}

/// Returns the indices of `keys` in ascending lexicographic order — the
/// deterministic block-id assignment shared by the batch builder (phase 3
/// below) and the `er-stream` per-epoch compaction.
///
/// Keys are compared on a cached 16-byte prefix (two big-endian words)
/// first and on their bytes only when both words tie; with more than one
/// worker, chunks are sorted in parallel and merged.  Interned keys are
/// distinct, so comparisons never tie and the resulting order — hence every
/// block id downstream — is identical for any thread count.
pub fn sorted_key_order<K: AsRef<str> + Sync>(keys: &[K], threads: usize) -> Vec<u32> {
    order_by_key(
        keys.len(),
        |i| keys[i as usize].as_ref().as_bytes(),
        threads,
    )
}

/// Phase 4, first half, for one contiguous range of final block ids: writes
/// the range-relative key and entity end offsets and the first-source counts
/// of `order`'s survivors, and returns the range's key bytes and postings.
fn measure<'s>(
    order: &[u32],
    survivor: impl Fn(u32) -> (&'s Survivors, usize),
    key_ends: &mut [u32],
    entity_ends: &mut [u32],
    first_counts: &mut [u32],
) -> (usize, usize) {
    let (mut key_end, mut entity_end) = (0usize, 0usize);
    for (j, &s) in order.iter().enumerate() {
        let (group, i) = survivor(s);
        key_end += group.keys.get(i).len();
        entity_end += group.entities(i).len();
        key_ends[j] = checked_u32(key_end, KEY_TEXT_LIMIT);
        entity_ends[j] = checked_u32(entity_end, ENTITY_ARENA_LIMIT);
        first_counts[j] = group.first_counts[i];
    }
    (key_end, entity_end)
}

/// Phase 4, second half, for one contiguous range of final block ids:
/// copies the keys and entity lists of `order`'s survivors, in order, into
/// the output ranges those ids own.
fn gather<'s>(
    order: &[u32],
    survivor: impl Fn(u32) -> (&'s Survivors, usize),
    text: &mut [u8],
    entities: &mut [EntityId],
) {
    let (mut text_pos, mut entity_pos) = (0, 0);
    for &s in order {
        let (group, i) = survivor(s);
        let key = group.keys.get(i);
        text[text_pos..text_pos + key.len()].copy_from_slice(key);
        text_pos += key.len();
        let block = group.entities(i);
        entities[entity_pos..entity_pos + block.len()].copy_from_slice(block);
        entity_pos += block.len();
    }
}

/// Builds the block collection of `dataset` under the scheme described by
/// `generator`, using up to `threads` workers.
///
/// The output is deterministic and bit-identical to the sequential reference
/// builders for any thread count: blocks are ordered lexicographically by
/// key, entity lists are sorted ascending, and blocks that cannot produce a
/// comparison (or exceed the generator's size cap) are dropped.
pub fn build_blocks<G: KeyGenerator + ?Sized>(
    dataset: &Dataset,
    generator: &G,
    threads: usize,
) -> CsrBlockCollection {
    let num_entities = dataset.num_entities();
    let threads = threads.max(1);
    let o = crate::obs::obs();

    // Phase 1: emit.  ~8 ranges per worker keep the queue balanced when
    // profile sizes are skewed.
    let timer = o.emit_ns.start_timer();
    let num_tasks = (threads * 8).max(num_entities.div_ceil(MAX_TASK_ENTITIES));
    let runs: Vec<TaskRun> =
        er_core::map_ranges_parallel(num_entities, threads, num_tasks, |range| {
            emit_task(&dataset.profiles, range, generator)
        });
    timer.observe();

    // Phase 2: group.  One scratch and one output per run of partitions
    // (~4 runs per worker), so worker threads make a few large allocations
    // instead of thousands of small ones their malloc arenas would retain.
    let timer = o.group_ns.start_timer();
    let cap = generator.max_block_size().unwrap_or(usize::MAX);
    let (kind, split) = (dataset.kind, dataset.split);
    let groups: Vec<Survivors> =
        er_core::map_ranges_parallel(PARTITIONS, threads, threads * 4, |partitions| {
            let mut scratch = PartitionScratch::new();
            let mut out = Survivors::new();
            for p in partitions {
                scratch.group_partition(p, &runs, cap, kind, split, &mut out);
            }
            out
        });
    // The emitted records are the build's only O(emitted keys) state.
    drop(runs);
    timer.observe();

    // Phase 3: order the survivors.  Survivor `s` is entry `s - bases[g]` of
    // the last group `g` with `bases[g] <= s`.
    let timer = o.order_ns.start_timer();
    let mut bases = Vec::with_capacity(groups.len());
    let mut num_blocks = 0usize;
    for group in &groups {
        bases.push(num_blocks);
        num_blocks += group.len();
    }
    let survivor = |s: u32| {
        let g = bases.partition_point(|&base| base <= s as usize) - 1;
        (&groups[g], s as usize - bases[g])
    };
    let keys: Vec<&[u8]> = groups
        .iter()
        .flat_map(|group| (0..group.len()).map(|i| group.keys.get(i)))
        .collect();
    let order = order_by_key(num_blocks, |s| keys[s as usize], threads);
    drop(keys);
    timer.observe();

    // Phase 4: assemble.  One chunk of consecutive block ids per worker,
    // owning contiguous output ranges.  The workers measure their chunks
    // (relative offsets, first-source counts) in place; the calling thread
    // adds up one total per chunk and allocates the arrays; the workers
    // rebase their offsets and copy keys and entity lists.  Every buffer
    // is allocated on the calling thread, so no worker's malloc arena
    // retains it.
    let timer = o.assemble_ns.start_timer();
    let chunk = num_blocks.div_ceil(threads).max(1);
    let mut key_offsets = vec![0u32; num_blocks + 1];
    let mut entity_offsets = vec![0u32; num_blocks + 1];
    let mut first_counts = vec![0u32; num_blocks];
    let tasks: Vec<_> = order
        .chunks(chunk)
        .zip(key_offsets[1..].chunks_mut(chunk))
        .zip(entity_offsets[1..].chunks_mut(chunk))
        .zip(first_counts.chunks_mut(chunk))
        .collect();
    let totals = er_core::map_tasks_parallel(
        tasks,
        threads,
        |(((ids, key_ends), entity_ends), firsts)| {
            measure(ids, survivor, key_ends, entity_ends, firsts)
        },
    );
    let key_total = totals.iter().map(|&(k, _)| k).sum();
    let entity_total = totals.iter().map(|&(_, e)| e).sum();
    checked_u32(key_total, KEY_TEXT_LIMIT);
    checked_u32(entity_total, ENTITY_ARENA_LIMIT);
    let mut text = vec![0u8; key_total];
    let mut entities = vec![EntityId(0); entity_total];
    let text_chunks = er_core::split_lengths_mut(&mut text, totals.iter().map(|&(k, _)| k));
    let entity_chunks = er_core::split_lengths_mut(&mut entities, totals.iter().map(|&(_, e)| e));
    let bases = totals
        .iter()
        .scan((0u32, 0u32), |(key_base, entity_base), &(k, e)| {
            let bases = (*key_base, *entity_base);
            (*key_base, *entity_base) = (*key_base + k as u32, *entity_base + e as u32);
            Some(bases)
        });
    let tasks: Vec<_> = order
        .chunks(chunk)
        .zip(key_offsets[1..].chunks_mut(chunk))
        .zip(entity_offsets[1..].chunks_mut(chunk))
        .zip(bases)
        .zip(text_chunks.into_iter().zip(entity_chunks))
        .collect();
    er_core::map_tasks_parallel(
        tasks,
        threads,
        |((((ids, key_ends), entity_ends), (key_base, entity_base)), (text, entities))| {
            key_ends.iter_mut().for_each(|end| *end += key_base);
            entity_ends.iter_mut().for_each(|end| *end += entity_base);
            gather(ids, survivor, text, entities);
        },
    );
    let keys = KeyStore {
        text: String::from_utf8(text).expect("concatenated `&str` keys are valid UTF-8"),
        offsets: key_offsets,
    };
    timer.observe();

    // Once-per-build accounting (the per-posting loops above never touch
    // the registry).
    o.builds.inc();
    o.keys_interned
        .add(groups.iter().map(|g| g.distinct_keys).sum());
    o.blocks_emitted.add(num_blocks as u64);
    o.postings_scattered
        .add(groups.iter().map(|g| g.postings).sum());

    CsrBlockCollection::from_raw(
        dataset.name.clone(),
        kind,
        split,
        num_entities,
        Arc::new(keys),
        (0..num_blocks as u32).collect(),
        entity_offsets,
        entities,
        first_counts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{EntityCollection, EntityProfile, GroundTruth};

    fn dataset() -> Dataset {
        let e1 = EntityCollection::new(
            "a",
            vec![
                EntityProfile::new("a0")
                    .with_attribute("name", "Apple iPhone X")
                    .with_attribute("type", "smartphone"),
                EntityProfile::new("a1").with_attribute("name", "Samsung Galaxy S20"),
            ],
        );
        let e2 = EntityCollection::new(
            "b",
            vec![
                EntityProfile::new("b0").with_attribute("title", "iphone 10 apple smartphone"),
                EntityProfile::new("b1").with_attribute("title", "galaxy s20 by samsung"),
            ],
        );
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        Dataset::clean_clean("builder", e1, e2, gt).unwrap()
    }

    #[test]
    fn engine_matches_sequential_reference_for_every_scheme() {
        let ds = dataset();
        for threads in [1, 2, 4] {
            let token = build_blocks(&ds, &TokenKeys, threads);
            assert!(token.same_blocks(&crate::reference::token_blocking(&ds)));

            let grams = build_blocks(&ds, &QGramKeys::new(3), threads);
            assert!(grams.same_blocks(&crate::reference::qgrams_blocking(&ds, 3)));

            let config = crate::SuffixArrayConfig::default();
            let suffix = build_blocks(
                &ds,
                &SuffixKeys::new(config.min_length, config.max_block_size),
                threads,
            );
            assert!(suffix.same_blocks(&crate::reference::suffix_array_blocking(&ds, config)));
        }
    }

    #[test]
    fn qgram_generator_mirrors_qgrams_function() {
        let gen = QGramKeys::new(3);
        let mut scratch = KeyScratch::default();
        for token in ["ab", "abc", "abcd", "caféteria"] {
            let mut emitted = Vec::new();
            gen.for_each_key(token, &mut scratch, &mut |k| emitted.push(k.to_string()));
            assert_eq!(emitted, crate::qgrams::qgrams(token, 3), "token {token}");
        }
    }

    #[test]
    fn suffix_generator_mirrors_suffixes_function() {
        let gen = SuffixKeys::new(3, 50);
        let mut scratch = KeyScratch::default();
        for token in ["ab", "abc", "abcdef", "naïveté"] {
            let mut emitted = Vec::new();
            gen.for_each_key(token, &mut scratch, &mut |k| emitted.push(k.to_string()));
            assert_eq!(
                emitted,
                crate::suffix_arrays::suffixes(token, 3),
                "token {token}"
            );
        }
    }

    #[test]
    fn sorted_key_order_matches_sequential_sort_for_any_thread_count() {
        // Enough keys to cross the parallel threshold, with a shuffled,
        // collision-ish distribution (shared prefixes, varied lengths), plus
        // the cases a cached prefix cannot decide alone: keys that agree on
        // their first 8+ or 16+ bytes, keys that are strict prefixes of one
        // another on either side of the 8- and 16-byte boundaries, and keys
        // containing the NUL byte the prefix is padded with.
        let mut keys: Vec<String> = (0..70_000u32)
            .map(|i| format!("k{:x}-{}", i.wrapping_mul(2654435761) % 4096, i))
            .collect();
        for i in 0..300u32 {
            keys.push(format!("sharedprefix{}", i.wrapping_mul(7919) % 300));
            keys.push("prefixed".repeat(3)[..(i as usize % 24) + 1].to_string() + &format!("-{i}"));
        }
        for len in 1..=20 {
            keys.push("abcdefghijklmnopqrst"[..len].to_string());
        }
        keys.extend(["ab\0", "ab\0\0c", "abcdefgh\0", "", "é", "éa"].map(String::from));
        // Agreeing on 16+ bytes: both prefix words tie, the key bytes decide.
        let sixteen = "0123456789abcdef";
        for i in 0..200u32 {
            keys.push(format!("{sixteen}{}", i.wrapping_mul(7919) % 200));
            keys.push(format!(
                "{sixteen}-shared-tail-{}",
                i.wrapping_mul(31) % 200
            ));
        }
        // Strict prefixes at 15, 16 and 17 bytes, and NULs at bytes 15 and
        // 16 (a NUL pads exactly like the end of a shorter key).
        for len in [15, 16, 17] {
            keys.push(format!("{sixteen}g")[..len].to_string());
            keys.push(format!("{}!", &format!("{sixteen}g")[..len]));
        }
        keys.extend(
            [
                "0123456789abcde\0",
                "0123456789abcde\0x",
                "0123456789abcde\0\0",
                "0123456789abcdef\0",
                "0123456789abcdef\0x",
                "0123456789abcdef\0\0",
            ]
            .map(String::from),
        );
        // The token-key shape: `tok` plus six digits, in shuffled order —
        // most pairs tie on 8 bytes, none on 16.
        for i in 0..5_000u32 {
            keys.push(format!("tok{:06}", i.wrapping_mul(2654435761) % 1_000_000));
        }
        // Interned keys are distinct; shuffle them deterministically.
        keys.sort_unstable();
        keys.dedup();
        keys.sort_by_key(|k| hash_bytes(k.as_bytes()));
        let expected = {
            let mut order: Vec<u32> = (0..keys.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
            order
        };
        for threads in [1, 2, 4, 8] {
            assert_eq!(sorted_key_order(&keys, threads), expected, "{threads}");
        }
        let empty: Vec<String> = Vec::new();
        assert!(sorted_key_order(&empty, 4).is_empty());
    }

    #[test]
    fn large_corpus_grows_key_tables_and_merges_sorted_runs() {
        // 70k distinct tokens, each shared by two neighbouring entities: every
        // partition's table outgrows its initial 1024 slots, and the 70k
        // survivors cross the parallel-sort threshold.
        let n = 70_000usize;
        let profiles = (0..n)
            .map(|i| {
                EntityProfile::new(format!("e{i}"))
                    .with_attribute("v", format!("t{:x} t{:x}", i, (i + 1) % n))
            })
            .collect();
        let ds = Dataset::dirty(
            "chain",
            EntityCollection::new("d", profiles),
            GroundTruth::default(),
        )
        .unwrap();
        let expected = crate::reference::token_blocking(&ds);
        assert_eq!(expected.num_blocks(), n);
        for threads in [1, 4] {
            let built = build_blocks(&ds, &TokenKeys, threads);
            assert!(built.same_blocks(&expected), "threads {threads}");
        }
    }

    #[test]
    fn empty_dataset_produces_empty_collection() {
        let e1 = EntityCollection::new("a", vec![EntityProfile::new("a0")]);
        let e2 = EntityCollection::new("b", vec![EntityProfile::new("b0")]);
        let ds = Dataset::clean_clean("empty", e1, e2, GroundTruth::default()).unwrap();
        let csr = build_blocks(&ds, &TokenKeys, 4);
        assert!(csr.is_empty());
        assert_eq!(csr.num_entities, 2);
    }

    #[test]
    #[should_panic(expected = "q must be at least 2")]
    fn qgram_generator_rejects_q_one() {
        let _ = QGramKeys::new(1);
    }

    #[test]
    #[should_panic(expected = "min_length must be at least 2")]
    fn suffix_generator_rejects_short_min_length() {
        let _ = SuffixKeys::new(1, 10);
    }
}
