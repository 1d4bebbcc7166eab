//! A small, fast, deterministic hasher for integer-heavy keys.
//!
//! The blocking substrate hashes millions of token strings and entity ids.
//! The default SipHash is robust against HashDoS but slow for this workload;
//! the performance guide recommends an Fx-style multiply hash.  To stay within
//! the allowed dependency set we implement the same algorithm used by
//! `rustc-hash` here instead of pulling the crate in.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Fx hasher state: a single 64-bit accumulator combined with
/// multiply-and-rotate per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Fx hash of a byte string (one [`Hasher::write`] of the whole slice).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// The `bits`-bit field of `hash` that starts `skip` bits below the top bit.
///
/// Fx's last step is a multiply, so bit `k` of the result depends only on
/// bits `0..=k` of the last word written: the *low* bits of a short token's
/// hash are a function of its first one or two characters, and a table
/// indexed with `hash & mask` piles every token sharing them onto a few
/// slots.  Index tables with the top bits instead: a partition from
/// `high_bits(hash, 0, p)` and a slot inside it from
/// `high_bits(hash, p, s)` — disjoint fields that each depend on the
/// whole key.
///
/// `bits` must be at least 1 and `skip + bits` at most 64.
#[inline]
pub fn high_bits(hash: u64, skip: u32, bits: u32) -> usize {
    debug_assert!(bits >= 1 && skip + bits <= 64);
    ((hash << skip) >> (64 - bits)) as usize
}

/// `HashMap` keyed with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_one(&"token blocking"), hash_one(&"token blocking"));
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_one(&"apple"), hash_one(&"samsung"));
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&""), hash_one(&"a"));
    }

    #[test]
    fn map_and_set_work() {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        map.insert("iphone".to_string(), 1);
        map.insert("smartphone".to_string(), 2);
        assert_eq!(map.get("iphone"), Some(&1));

        let mut set: FxHashSet<u32> = FxHashSet::default();
        for i in 0..1000 {
            set.insert(i);
        }
        assert_eq!(set.len(), 1000);
        assert!(set.contains(&999));
    }

    /// Mean linear-probing steps per insert when `tokens` are spread over
    /// 128 partitions of `slots`-slot tables (`0` = empty home slot).
    fn mean_probe_length(
        tokens: &[String],
        slots: usize,
        locate: impl Fn(u64) -> (usize, usize),
    ) -> f64 {
        let mut tables = vec![vec![false; slots]; 128];
        let mut probes = 0usize;
        for token in tokens {
            let (partition, mut slot) = locate(hash_bytes(token.as_bytes()));
            while tables[partition][slot] {
                slot = (slot + 1) & (slots - 1);
                probes += 1;
            }
            tables[partition][slot] = true;
        }
        probes as f64 / tokens.len() as f64
    }

    #[test]
    fn high_bits_keep_probe_chains_short_on_short_ascii_tokens() {
        // Every 3-character token plus three 4-character extensions of each:
        // 4 · 36³ ≈ 187k distinct short tokens.
        let alphabet: Vec<char> = ('a'..='z').chain('0'..='9').collect();
        let mut tokens = Vec::new();
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    tokens.push(String::from_iter([a, b, c]));
                    for &d in alphabet.iter().step_by(16) {
                        tokens.push(String::from_iter([a, b, c, d]));
                    }
                }
            }
        }
        assert!(tokens.len() >= 100_000);
        // ~1 460 keys per partition in 4096 slots: load ≈ 0.36.
        let high = mean_probe_length(&tokens, 4096, |h| (high_bits(h, 0, 7), high_bits(h, 7, 12)));
        assert!(high < 0.5, "mean probe length {high}");
        // The trap the doc note warns about: the low 12 bits see only the
        // first two characters, so the same tables degenerate.
        let low = mean_probe_length(&tokens, 4096, |h| (high_bits(h, 0, 7), h as usize & 4095));
        assert!(low > 5.0 * high, "low-bit probe length {low}");
    }

    #[test]
    fn high_bits_extracts_disjoint_fields() {
        let h = 0xfedc_ba98_7654_3210u64;
        assert_eq!(high_bits(h, 0, 7), 0x7f);
        assert_eq!(high_bits(h, 0, 8), 0xfe);
        assert_eq!(high_bits(h, 8, 8), 0xdc);
        assert_eq!(high_bits(h, 32, 32), 0x7654_3210);
    }

    #[test]
    fn partial_chunks_are_distinguished() {
        // Strings whose 8-byte prefixes collide must still hash differently.
        assert_ne!(hash_one(&"abcdefgh1"), hash_one(&"abcdefgh2"));
        assert_ne!(hash_one(&"abcdefgh"), hash_one(&"abcdefgh\0"));
    }
}
