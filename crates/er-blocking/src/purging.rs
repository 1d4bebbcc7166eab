//! Block Purging: remove blocks whose signature is too frequent to carry any
//! distinguishing information.
//!
//! Following the paper, a block is purged when it contains more than half of
//! all entity profiles in the dataset — such blocks correspond to stop-word
//! tokens.  The procedure is parameter-free.

use crate::csr::CsrBlockCollection;

/// The largest block size that survives Block Purging for a corpus of
/// `num_entities` profiles: blocks with more entities than this are dropped.
///
/// This is the single home of the purging threshold arithmetic — the batch
/// implementation below, its [`crate::reference`] oracle and incremental
/// consumers (the purging-aware streaming live view) must agree bit-for-bit
/// on which blocks survive.
#[inline]
pub fn purging_limit(num_entities: usize) -> usize {
    num_entities / 2
}

/// Discards every block containing more than half of the entity profiles,
/// as a pure index operation — the surviving blocks share the input's key
/// arena, so no key string is cloned.
pub fn block_purging_csr(blocks: &CsrBlockCollection) -> CsrBlockCollection {
    let limit = purging_limit(blocks.num_entities);
    blocks.retain(|b| blocks.block_size(b) <= limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{DatasetKind, EntityId};

    fn ids(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    fn collection(num_entities: usize, blocks: Vec<(&str, Vec<EntityId>)>) -> CsrBlockCollection {
        CsrBlockCollection::from_blocks("t", DatasetKind::Dirty, num_entities, num_entities, blocks)
    }

    #[test]
    fn purges_oversized_blocks() {
        let bc = collection(
            10,
            vec![("stopword", ids(8)), ("rare", ids(3)), ("half", ids(5))],
        );
        let purged = block_purging_csr(&bc);
        let keys: Vec<_> = (0..purged.num_blocks()).map(|b| purged.key(b)).collect();
        assert_eq!(keys, vec!["rare", "half"]);
    }

    #[test]
    fn keeps_everything_when_no_block_is_too_large() {
        let bc = collection(100, vec![("a", ids(10)), ("b", ids(2))]);
        assert_eq!(block_purging_csr(&bc).num_blocks(), 2);
    }

    #[test]
    fn empty_collection_stays_empty() {
        let bc = collection(10, vec![]);
        assert!(block_purging_csr(&bc).is_empty());
    }
}
