//! Suffix Arrays Blocking.
//!
//! Each token contributes every suffix of length at least `min_length`; a
//! block is created per suffix shared by at least two entities.  Suffix-based
//! signatures tolerate prefix noise (e.g. truncated product codes) and are the
//! third standard redundancy-positive blocking method the paper cites.  The
//! classic formulation also discards suffixes that occur in more than
//! `max_block_size` entities, which this implementation supports directly.

use er_core::Dataset;

use crate::builder::{build_blocks, SuffixKeys};
use crate::csr::CsrBlockCollection;

/// Configuration of Suffix Arrays Blocking.
#[derive(Debug, Clone, Copy)]
pub struct SuffixArrayConfig {
    /// Minimum suffix length considered a signature.
    pub min_length: usize,
    /// Suffixes occurring in more than this many entities are discarded
    /// (frequent suffixes carry no distinguishing information).
    pub max_block_size: usize,
}

impl Default for SuffixArrayConfig {
    fn default() -> Self {
        SuffixArrayConfig {
            min_length: 4,
            max_block_size: 50,
        }
    }
}

/// Emits the suffixes of a token that are at least `min_length` characters
/// long (the whole token included).
pub(crate) fn suffixes(token: &str, min_length: usize) -> Vec<String> {
    let chars: Vec<char> = token.chars().collect();
    if chars.len() < min_length {
        return Vec::new();
    }
    (0..=chars.len() - min_length)
        .map(|start| chars[start..].iter().collect())
        .collect()
}

/// Builds a Suffix Arrays block collection for a dataset through the parallel
/// [`crate::builder`] engine with up to `threads` workers (bit-identical to
/// the sequential [`crate::reference::suffix_array_blocking`] builder).
///
/// # Panics
/// Panics if `config.min_length < 2` or `config.max_block_size < 2`.
pub fn suffix_array_blocking_csr(
    dataset: &Dataset,
    config: SuffixArrayConfig,
    threads: usize,
) -> CsrBlockCollection {
    build_blocks(
        dataset,
        &SuffixKeys::new(config.min_length, config.max_block_size),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{EntityCollection, EntityId, EntityProfile, GroundTruth};

    fn suffix_array_blocking(ds: &Dataset, config: SuffixArrayConfig) -> CsrBlockCollection {
        suffix_array_blocking_csr(ds, config, 2)
    }

    fn dataset() -> Dataset {
        let e1 = EntityCollection::new(
            "a",
            vec![
                EntityProfile::new("a0").with_attribute("code", "xk472901"),
                EntityProfile::new("a1").with_attribute("code", "zz999111"),
            ],
        );
        let e2 = EntityCollection::new(
            "b",
            vec![
                // Same product code with a truncated prefix.
                EntityProfile::new("b0").with_attribute("code", "472901"),
                EntityProfile::new("b1").with_attribute("code", "zz999111"),
            ],
        );
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        Dataset::clean_clean("suffixes", e1, e2, gt).unwrap()
    }

    #[test]
    fn suffixes_respect_minimum_length() {
        assert_eq!(suffixes("abcde", 3), vec!["abcde", "bcde", "cde"]);
        assert_eq!(suffixes("ab", 3), Vec::<String>::new());
        assert_eq!(suffixes("abc", 3), vec!["abc"]);
    }

    #[test]
    fn prefix_truncation_is_tolerated() {
        let ds = dataset();
        let blocks = suffix_array_blocking(&ds, SuffixArrayConfig::default());
        let shares = (0..blocks.num_blocks()).any(|b| {
            let entities = blocks.entities(b);
            entities.contains(&EntityId(0)) && entities.contains(&EntityId(2))
        });
        assert!(shares, "truncated code should share a suffix block");
    }

    #[test]
    fn oversized_suffix_blocks_are_discarded() {
        // Give every entity the same long token so its suffixes appear in all
        // four profiles; with max_block_size = 3 those blocks must vanish.
        let make = |name: &str| EntityProfile::new(name).with_attribute("t", "commonsuffix");
        let e1 = EntityCollection::new("a", vec![make("a0"), make("a1")]);
        let e2 = EntityCollection::new("b", vec![make("b0"), make("b1")]);
        let ds = Dataset::clean_clean("cap", e1, e2, GroundTruth::default()).unwrap();
        let config = SuffixArrayConfig {
            min_length: 4,
            max_block_size: 3,
        };
        let blocks = suffix_array_blocking(&ds, config);
        assert!(blocks.is_empty());
    }

    #[test]
    fn deterministic_output() {
        let ds = dataset();
        let a = suffix_array_blocking_csr(&ds, SuffixArrayConfig::default(), 1);
        let b = suffix_array_blocking_csr(&ds, SuffixArrayConfig::default(), 4);
        assert!(!a.is_empty());
        assert!(a.same_blocks(&b));
    }

    #[test]
    #[should_panic(expected = "min_length")]
    fn invalid_config_panics() {
        let ds = dataset();
        let _ = suffix_array_blocking(
            &ds,
            SuffixArrayConfig {
                min_length: 1,
                max_block_size: 10,
            },
        );
    }
}
