//! The lexicographic order of the live keys of an append-only key table,
//! cached between compactions.
//!
//! Stream key ids are never reused and a key's string never changes, so
//! once a set of keys is sorted its order is fixed: a compaction sorts only
//! the live keys the cache does not hold yet (with the builder's
//! [`sorted_key_order`]) and merges them into the cached order in place.
//! Most interned keys are never live (a token seen once makes no block), so
//! the cache holds the keys that were live at some compaction, and a
//! compaction sorts about as many keys as came alive since the previous
//! one.  A cached key that died stays cached and is skipped when a view is
//! taken; a view taken between compactions merges its own uncached live
//! keys the same way without touching the cache.  The merge walks a cached
//! array of 16-byte key prefixes and reads key bytes only on prefix ties, so
//! its cost is a sequential scan, not one cache miss per compared key
//! (token keys often share 8 bytes, rarely 16).  The cache is derived state
//! and is never persisted, so the first compaction after a decode sorts
//! every live key once.

use er_blocking::{sorted_key_order, KeyTable};

/// Cached key ids in lexicographic key order.
#[derive(Debug, Default)]
pub(crate) struct KeyOrder {
    sorted: Vec<u32>,
    /// `prefix(key)` of each entry of `sorted`.
    prefixes: Vec<u128>,
    /// Per key id: whether `sorted` holds it (ids past the end do not).
    cached: Vec<bool>,
}

/// The first 16 bytes of a key, zero-padded, big-endian: comparing two
/// prefixes orders the keys unless the prefixes tie.
fn prefix(key: &str) -> u128 {
    let mut buf = [0u8; 16];
    let n = key.len().min(16);
    buf[..n].copy_from_slice(&key.as_bytes()[..n]);
    u128::from_be_bytes(buf)
}

impl KeyOrder {
    /// Merges the uncached keys `live` accepts into the cached order and
    /// returns every key `live` accepts, in order.
    pub(crate) fn absorb(
        &mut self,
        keys: &KeyTable,
        threads: usize,
        live: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        let fresh = self.sort_fresh(keys, threads, &live);
        let at = self.positions(keys, &fresh);
        // Merge from the back: each cached run moves up by the number of
        // fresh keys that sort before its end, and no entry moves twice.
        let (old, grown) = (self.sorted.len(), self.sorted.len() + fresh.len());
        self.sorted.reserve_exact(fresh.len());
        self.sorted.resize(grown, 0);
        self.prefixes.reserve_exact(fresh.len());
        self.prefixes.resize(grown, 0);
        self.cached.resize(keys.len(), false);
        let (mut end, mut run_end) = (grown, old);
        for (&(id, p), &at) in fresh.iter().zip(&at).rev() {
            let run = at..run_end;
            end -= run.len();
            self.sorted.copy_within(run.clone(), end);
            self.prefixes.copy_within(run, end);
            end -= 1;
            self.sorted[end] = id;
            self.prefixes[end] = p;
            self.cached[id as usize] = true;
            run_end = at;
        }
        crate::obs::obs()
            .compaction_keys_sorted
            .add(fresh.len() as u64);
        self.sorted.iter().copied().filter(|&k| live(k)).collect()
    }

    /// The keys `live` accepts, in lexicographic key order: the cached
    /// order filtered, with the uncached ones sorted and merged in.
    pub(crate) fn live_order(
        &self,
        keys: &KeyTable,
        threads: usize,
        live: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        let fresh = self.sort_fresh(keys, threads, &live);
        let mut order = Vec::new();
        let mut from = 0;
        for (&(id, _), at) in fresh.iter().zip(self.positions(keys, &fresh)) {
            order.extend(self.sorted[from..at].iter().copied().filter(|&k| live(k)));
            order.push(id);
            from = at;
        }
        order.extend(self.sorted[from..].iter().copied().filter(|&k| live(k)));
        order
    }

    /// The uncached keys `live` accepts, sorted, with their prefixes.
    fn sort_fresh(
        &self,
        keys: &KeyTable,
        threads: usize,
        live: impl Fn(u32) -> bool,
    ) -> Vec<(u32, u128)> {
        let fresh: Vec<u32> = (0..keys.len() as u32)
            .filter(|&k| !self.cached.get(k as usize).copied().unwrap_or(false) && live(k))
            .collect();
        let fresh_keys: Vec<&str> = fresh.iter().map(|&k| keys.get(k)).collect();
        sorted_key_order(&fresh_keys, threads)
            .into_iter()
            .map(|i| (fresh[i as usize], prefix(fresh_keys[i as usize])))
            .collect()
    }

    /// For each of the sorted keys `fresh`, the number of cached entries
    /// ordered before it: a forward walk over the prefix array, with key
    /// bytes read only to binary-search a run of tied prefixes.
    fn positions(&self, keys: &KeyTable, fresh: &[(u32, u128)]) -> Vec<usize> {
        let key = |k: u32| keys.get(k);
        let mut at = 0;
        fresh
            .iter()
            .map(|&(id, p)| {
                while at < self.prefixes.len() && self.prefixes[at] < p {
                    at += 1;
                }
                let mut ties = at;
                while ties < self.prefixes.len() && self.prefixes[ties] == p {
                    ties += 1;
                }
                at += self.sorted[at..ties].partition_point(|&k| key(k) < key(id));
                at
            })
            .collect()
    }
}
