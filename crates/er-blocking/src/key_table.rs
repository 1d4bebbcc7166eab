//! An append-only string interner: a [`KeyStore`] text arena plus an
//! open-addressing table of `(tag, id)` slots.
//!
//! The streaming indexes intern every blocking key a mutation emits, most of
//! them already known.  A lookup hashes the key once, walks the slot array
//! from the key's home slot comparing 32-bit tags, and reads the arena only
//! for a slot whose tag matches — so a hit is one slot read plus one arena
//! read, and a new key appends its bytes to the arena and claims one slot
//! without allocating anything of its own.  The table doubles when half
//! full and is re-filled from the stored tags alone (stored keys are
//! distinct, so no key is re-read or re-hashed), the scheme the batch
//! builder's per-partition table uses.
//!
//! The tag is the top 32 bits of the key's Fx hash and the home slot is the
//! tag's top bits (see [`er_core::fxhash::high_bits`] for why not the low
//! ones).  Ids are dense, in first-encounter order, and never change.

use er_core::checked_u32;
use er_core::fxhash::{hash_bytes, high_bits};

use crate::csr::KeyStore;

/// Marks an empty slot; no key id equals it (see [`KeyTable::intern`]).
const EMPTY: u32 = u32::MAX;
/// The slot count of a fresh table is `1 << MIN_SLOT_BITS`.
const MIN_SLOT_BITS: u32 = 4;
/// The home slot is cut from the 32-bit tag, so the slot array stops
/// doubling here and fills past half instead (ids stay below `EMPTY`, so a
/// free slot always remains).
const MAX_SLOT_BITS: u32 = 32;

/// Interned key strings with dense `u32` ids; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyTable {
    store: KeyStore,
    /// `(tag, id)` per slot, `id == EMPTY` when free; a power-of-two count,
    /// at most half full below `MAX_SLOT_BITS`, linear probing.
    slots: Vec<(u32, u32)>,
    slot_bits: u32,
}

impl Default for KeyTable {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

/// The tag of a key: the top 32 bits of its hash.
#[inline]
fn tag_of(key: &str) -> u32 {
    high_bits(hash_bytes(key.as_bytes()), 0, 32) as u32
}

impl KeyTable {
    /// An empty table with slots for `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        let mut slot_bits = MIN_SLOT_BITS;
        while (1usize << slot_bits) < keys.saturating_mul(2) && slot_bits < MAX_SLOT_BITS {
            slot_bits += 1;
        }
        KeyTable {
            store: KeyStore::with_capacity(keys, 0),
            slots: vec![(0, EMPTY); 1 << slot_bits],
            slot_bits,
        }
    }

    /// Number of keys interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key with the given id.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        self.store.get(id)
    }

    /// The id of `key`, interning it (as the next id) on first sight.
    ///
    /// # Panics
    /// Panics when the table already holds `u32::MAX` keys (the largest id
    /// is `u32::MAX - 1`; `u32::MAX` marks a free slot) or the arena would
    /// pass 4 GiB of key text.
    #[inline]
    pub fn intern(&mut self, key: &str) -> u32 {
        self.intern_tagged(tag_of(key), key)
    }

    fn intern_tagged(&mut self, tag: u32, key: &str) -> u32 {
        let slot = match self.probe(tag, key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        // `len + 1` fits a `u32` exactly when the new id is below `EMPTY`.
        checked_u32(self.len() + 1, "key table capacity (u32::MAX keys)");
        let id = self.store.push(key);
        self.slots[slot] = (tag, id);
        if self.len() * 2 > self.slots.len() && self.slot_bits < MAX_SLOT_BITS {
            self.grow();
        }
        id
    }

    /// Walks the probe sequence of `tag`: `Ok(id)` if `key` is stored,
    /// otherwise `Err` with the free slot that ended the walk.
    #[inline]
    fn probe(&self, tag: u32, key: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home_slot(tag);
        loop {
            let (slot_tag, id) = self.slots[slot];
            if id == EMPTY {
                return Err(slot);
            }
            if slot_tag == tag && self.store.get(id) == key {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    #[inline]
    fn home_slot(&self, tag: u32) -> usize {
        (u64::from(tag) >> (32 - self.slot_bits)) as usize
    }

    /// Doubles the slot array, re-inserting every entry from its tag.
    fn grow(&mut self) {
        self.slot_bits += 1;
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); 1 << self.slot_bits]);
        let mask = self.slots.len() - 1;
        for (tag, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut slot = self.home_slot(tag);
            while self.slots[slot].1 != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (tag, id);
        }
    }

    /// Heap bytes held: the arena (text and offsets) plus the slot array.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes() + self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Keys that defeat a prefix-only or ASCII-only comparison: shared 8-
    /// and 16-byte prefixes, strict prefixes of each other, the empty key
    /// and multi-byte UTF-8.
    fn adversarial_keys() -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for i in 0..200 {
            keys.push(format!("abcdefgh{i}"));
            keys.push(format!("prefixprefixpref{i}"));
        }
        for len in 0..=24 {
            keys.push("prefixprefixprefixprefix"[..len].to_string());
        }
        for key in [
            "é",
            "éa",
            "日本",
            "日本語",
            "straße",
            "aaaaaaaaaaaaaaaé",
            "ÿ",
        ] {
            keys.push(key.to_string());
        }
        keys
    }

    /// Interns `keys` (with repeats) under the tags `tag` assigns, checking
    /// every lookup, every answer and every stored key against a `HashMap`
    /// oracle after each step.
    fn check_against_oracle(table: &mut KeyTable, keys: &[String], tag: impl Fn(&str) -> u32) {
        let mut oracle: HashMap<String, u32> = HashMap::new();
        for (step, key) in keys.iter().enumerate() {
            let expected = oracle.get(key).copied();
            assert_eq!(table.probe(tag(key), key).ok(), expected, "{key:?}");
            let next = oracle.len() as u32;
            let id = table.intern_tagged(tag(key), key);
            assert_eq!(id, expected.unwrap_or(next), "step {step}, key {key:?}");
            oracle.entry(key.clone()).or_insert(id);
            assert_eq!(table.len(), oracle.len());
            assert_eq!(table.get(id), key);
            assert!(table.len() * 2 <= table.slots.len(), "table over half full");
        }
        for (key, &id) in &oracle {
            assert_eq!(table.get(id), key);
            assert_eq!(table.probe(tag(key), key), Ok(id));
        }
    }

    /// Each key followed by a repeat of an earlier one, so every growth is
    /// followed at once by a lookup that must survive it.
    fn with_repeats(keys: &[String]) -> Vec<String> {
        (0..keys.len())
            .flat_map(|i| [keys[i].clone(), keys[i / 2].clone()])
            .collect()
    }

    #[test]
    fn matches_a_hash_map_oracle_across_every_growth_boundary() {
        // ~8900 distinct keys cross every doubling from 16 to 32768 slots.
        let mut keys = adversarial_keys();
        keys.extend((0..8500u32).map(|i| format!("k{:x}", i.wrapping_mul(2_654_435_761))));
        let mut table = KeyTable::default();
        check_against_oracle(&mut table, &with_repeats(&keys), tag_of);
        assert_eq!(table.slot_bits, 15);
        assert!(table
            .probe(tag_of("never interned"), "never interned")
            .is_err());
    }

    #[test]
    fn long_probe_chains_and_wraparound_stay_exact() {
        // One tag for every key: every key homes on the last slot of every
        // table size, so each probe wraps and walks one chain holding the
        // whole table, through each growth.  Three distinct tags give
        // interleaved chains instead.
        let keys = with_repeats(&adversarial_keys());
        for tags in [1u32, 3] {
            let tag = |k: &str| u32::MAX - tag_of(k) % tags;
            let mut table = KeyTable::default();
            check_against_oracle(&mut table, &keys, tag);
            // A lookup of an absent key walks the chain to the free slot
            // past it.
            assert!(table.probe(u32::MAX, "absent").is_err());
        }
    }

    #[test]
    fn capacity_hint_presizes_the_slots() {
        let table = KeyTable::with_capacity(1000);
        assert_eq!(table.slots.len(), 2048);
        assert!(table.is_empty());
        assert!(table.heap_bytes() >= 2048 * 8);
    }
}
