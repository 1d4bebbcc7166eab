//! Token Blocking: one block per distinct attribute-value token.
//!
//! Token Blocking is the only parameter-free redundancy-positive blocking
//! method and is the one used for every experiment in the paper.  A block is
//! kept only if it yields at least one comparison (i.e. it has entities from
//! both sources for Clean-Clean ER, or at least two entities for Dirty ER).

use er_core::Dataset;

use crate::builder::{build_blocks, TokenKeys};
use crate::csr::CsrBlockCollection;

/// Builds the Token Blocking collection for a dataset through the parallel
/// [`crate::builder`] engine with up to `threads` workers.
///
/// Blocks are emitted in lexicographic key order so the result is fully
/// deterministic (and bit-identical to the sequential
/// [`crate::reference::token_blocking`] builder, regardless of thread count).
pub fn token_blocking_csr(dataset: &Dataset, threads: usize) -> CsrBlockCollection {
    build_blocks(dataset, &TokenKeys, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{EntityCollection, EntityId, EntityProfile, GroundTruth};

    /// Builds the running example of Figure 1 in the paper: seven smartphone
    /// profiles split over two sources.
    pub(crate) fn figure1_dataset() -> Dataset {
        let e1 = EntityCollection::new(
            "source-a",
            vec![
                EntityProfile::new("e1")
                    .with_attribute("Model", "Apple iPhone X")
                    .with_attribute("Category", "Smartphone"),
                EntityProfile::new("e2")
                    .with_attribute("model", "Samsung S20")
                    .with_attribute("group", "smartphone"),
                EntityProfile::new("e5").with_attribute("descr", "smartphone"),
                EntityProfile::new("e6")
                    .with_attribute("name", "Huawei Mate 20")
                    .with_attribute("type", "smartphone"),
            ],
        );
        let e2 = EntityCollection::new(
            "source-b",
            vec![
                EntityProfile::new("e3")
                    .with_attribute("name", "iPhone 10")
                    .with_attribute("type", "smartphone")
                    .with_attribute("producer", "Apple"),
                EntityProfile::new("e4")
                    .with_attribute("type", "Samsung 20")
                    .with_attribute("descr", "smartphone"),
                EntityProfile::new("e7").with_attribute(
                    "offer",
                    "Samsung foldable your perfect mate phone today 20 discount",
                ),
            ],
        );
        // Flattened ids: e1=0, e2=1, e5=2, e6=3, e3=4, e4=5, e7=6.
        let gt = GroundTruth::from_pairs(vec![
            (EntityId(0), EntityId(4)), // e1 = e3
            (EntityId(1), EntityId(5)), // e2 = e4
            (EntityId(3), EntityId(6)), // e6 = e7
        ]);
        Dataset::clean_clean("figure1", e1, e2, gt).unwrap()
    }

    fn token_blocking(ds: &Dataset) -> CsrBlockCollection {
        token_blocking_csr(ds, 2)
    }

    fn block_keyed<'a>(bc: &'a CsrBlockCollection, key: &str) -> Option<&'a [EntityId]> {
        (0..bc.num_blocks())
            .find(|&b| bc.key(b) == key)
            .map(|b| bc.entities(b))
    }

    #[test]
    fn figure1_blocks_contain_expected_keys() {
        let ds = figure1_dataset();
        let bc = token_blocking(&ds);
        for key in ["apple", "iphone", "samsung", "20", "smartphone", "mate"] {
            assert!(block_keyed(&bc, key).is_some(), "missing block {key}");
        }
        // "huawei" only appears in one source, so no useful block exists.
        assert!(block_keyed(&bc, "huawei").is_none());
    }

    #[test]
    fn figure1_apple_block_holds_the_duplicate_pair() {
        let ds = figure1_dataset();
        let bc = token_blocking(&ds);
        let b = (0..bc.num_blocks())
            .find(|&b| bc.key(b) == "apple")
            .unwrap();
        assert_eq!(bc.entities(b), &[EntityId(0), EntityId(4)]);
        assert_eq!(bc.block_comparisons(b), 1);
    }

    #[test]
    fn all_duplicates_share_at_least_one_block() {
        let ds = figure1_dataset();
        let bc = token_blocking(&ds);
        for &(a, b) in ds.ground_truth.pairs() {
            let shared = (0..bc.num_blocks()).any(|blk| {
                let entities = bc.entities(blk);
                entities.contains(&a) && entities.contains(&b)
            });
            assert!(shared, "duplicate pair ({a}, {b}) shares no block");
        }
    }

    #[test]
    fn deterministic_block_order() {
        let ds = figure1_dataset();
        let a = token_blocking_csr(&ds, 1);
        assert!(a.num_blocks() > 1);
        for threads in [2, 4] {
            assert!(a.same_blocks(&token_blocking_csr(&ds, threads)));
        }
        for b in 1..a.num_blocks() {
            assert!(
                a.key(b - 1) < a.key(b),
                "block {b}: {:?} does not follow {:?}",
                a.key(b),
                a.key(b - 1)
            );
        }
    }

    #[test]
    fn dirty_dataset_blocks_need_two_entities() {
        let coll = EntityCollection::new(
            "d",
            vec![
                EntityProfile::new("0").with_attribute("t", "alpha beta"),
                EntityProfile::new("1").with_attribute("t", "beta gamma"),
                EntityProfile::new("2").with_attribute("t", "delta"),
            ],
        );
        let ds = Dataset::dirty("dirty", coll, GroundTruth::default()).unwrap();
        let bc = token_blocking(&ds);
        let keys: Vec<_> = (0..bc.num_blocks()).map(|b| bc.key(b)).collect();
        assert_eq!(keys, vec!["beta"]);
    }
}
