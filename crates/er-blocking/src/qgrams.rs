//! Q-Grams Blocking: a redundancy-positive alternative to Token Blocking.
//!
//! Every token of every attribute value is decomposed into its character
//! q-grams and a block is created per distinct q-gram.  Compared with Token
//! Blocking this is more robust to typos (a misspelled token still shares most
//! of its q-grams with the correct spelling) at the cost of larger, less
//! distinctive blocks.  The paper lists it, together with Token Blocking and
//! Suffix Arrays, as one of the standard generators of redundancy-positive
//! block collections that meta-blocking can refine.

use er_core::Dataset;

use crate::builder::{build_blocks, QGramKeys};
use crate::csr::CsrBlockCollection;

/// Decomposes a token into its padded character q-grams.
///
/// Tokens shorter than `q` are emitted whole, so no signature is lost.
pub fn qgrams(token: &str, q: usize) -> Vec<String> {
    assert!(q >= 2, "q must be at least 2");
    let chars: Vec<char> = token.chars().collect();
    if chars.len() <= q {
        return vec![token.to_string()];
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Builds a Q-Grams Blocking collection for a dataset through the parallel
/// [`crate::builder`] engine with up to `threads` workers.
///
/// Like Token Blocking, blocks that cannot produce a comparison are dropped
/// and the result is ordered by key for determinism (bit-identical to the
/// sequential [`crate::reference::qgrams_blocking`] builder).
///
/// # Panics
/// Panics if `q < 2` (as [`qgrams`] always has).
pub fn qgrams_blocking_csr(dataset: &Dataset, q: usize, threads: usize) -> CsrBlockCollection {
    build_blocks(dataset, &QGramKeys::new(q), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{EntityCollection, EntityId, EntityProfile, GroundTruth};

    fn dataset() -> Dataset {
        let e1 = EntityCollection::new(
            "a",
            vec![
                EntityProfile::new("a0").with_attribute("name", "iphone"),
                EntityProfile::new("a1").with_attribute("name", "galaxy"),
            ],
        );
        let e2 = EntityCollection::new(
            "b",
            vec![
                // Typo: "iphnoe" shares most trigrams' characters with "iphone".
                EntityProfile::new("b0").with_attribute("name", "iphnoe"),
                EntityProfile::new("b1").with_attribute("name", "galaxy"),
            ],
        );
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        Dataset::clean_clean("qgrams", e1, e2, gt).unwrap()
    }

    #[test]
    fn qgrams_of_short_and_long_tokens() {
        assert_eq!(qgrams("ab", 3), vec!["ab"]);
        assert_eq!(qgrams("abc", 3), vec!["abc"]);
        assert_eq!(qgrams("abcd", 3), vec!["abc", "bcd"]);
        assert_eq!(qgrams("abcde", 2), vec!["ab", "bc", "cd", "de"]);
    }

    #[test]
    #[should_panic(expected = "q must be at least 2")]
    fn q_of_one_is_rejected() {
        let _ = qgrams("abc", 1);
    }

    /// True if some block holds both entities.
    fn share_a_block(blocks: &CsrBlockCollection, a: EntityId, b: EntityId) -> bool {
        (0..blocks.num_blocks()).any(|blk| {
            let entities = blocks.entities(blk);
            entities.contains(&a) && entities.contains(&b)
        })
    }

    #[test]
    fn typo_tolerant_co_occurrence() {
        let ds = dataset();
        let token_blocks = crate::token_blocking_csr(&ds, 2);
        let qgram_blocks = qgrams_blocking_csr(&ds, 3, 2);
        // Token Blocking cannot match "iphone" with "iphnoe"…
        assert!(!share_a_block(&token_blocks, EntityId(0), EntityId(2)));
        // …but Q-Grams Blocking puts them in at least one common block ("iph").
        assert!(share_a_block(&qgram_blocks, EntityId(0), EntityId(2)));
    }

    #[test]
    fn blocks_are_deterministic_and_useful() {
        let ds = dataset();
        let a = qgrams_blocking_csr(&ds, 3, 1);
        let b = qgrams_blocking_csr(&ds, 3, 4);
        assert!(a.same_blocks(&b));
        assert!((0..a.num_blocks()).all(|blk| a.is_useful(blk)));
    }

    #[test]
    fn qgram_collections_are_more_redundant_than_token_blocking() {
        let ds = dataset();
        let token_blocks = crate::token_blocking_csr(&ds, 2);
        let qgram_blocks = qgrams_blocking_csr(&ds, 3, 2);
        assert!(qgram_blocks.sum_block_sizes() >= token_blocks.sum_block_sizes());
    }
}
