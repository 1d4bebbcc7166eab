//! Blocking-graph adjacency: per-entity neighbour lists over the candidate
//! pairs.
//!
//! The blocking graph has one node per entity and one edge per distinct
//! candidate pair.  Node-centric pruning algorithms and the unsupervised
//! baselines need to iterate the edges incident to each node; this index makes
//! that an `O(degree)` slice walk.

use er_core::{EntityId, PairId};

use crate::candidates::CandidatePairs;

/// Compressed adjacency lists of the blocking graph.
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    /// Concatenated (neighbour, pair id) entries.
    entries: Vec<(EntityId, PairId)>,
    /// Offsets into `entries`, one slot per entity plus a sentinel.
    offsets: Vec<u32>,
}

impl NeighborIndex {
    /// Builds the adjacency index from the candidate pairs.
    pub fn new(num_entities: usize, pairs: &CandidatePairs) -> Self {
        let mut degrees = vec![0u32; num_entities];
        for &(a, b) in pairs.pairs() {
            degrees[a.index()] += 1;
            degrees[b.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(num_entities + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursors: Vec<u32> = offsets[..num_entities].to_vec();
        let mut entries = vec![(EntityId(0), PairId(0)); acc as usize];
        for (id, a, b) in pairs.iter() {
            entries[cursors[a.index()] as usize] = (b, id);
            cursors[a.index()] += 1;
            entries[cursors[b.index()] as usize] = (a, id);
            cursors[b.index()] += 1;
        }
        NeighborIndex { entries, offsets }
    }

    /// Number of entities the index covers.
    pub fn num_entities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbours of one entity, with the pair id of each incident edge.
    pub fn neighbors(&self, entity: EntityId) -> &[(EntityId, PairId)] {
        let start = self.offsets[entity.index()] as usize;
        let end = self.offsets[entity.index() + 1] as usize;
        &self.entries[start..end]
    }

    /// Degree of one entity (number of distinct candidates).
    pub fn degree(&self, entity: EntityId) -> usize {
        self.neighbors(entity).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_matches_pairs() {
        let cands = CandidatePairs::from_pairs(
            4,
            vec![
                (EntityId(0), EntityId(2)),
                (EntityId(0), EntityId(3)),
                (EntityId(1), EntityId(3)),
            ],
        );
        let idx = NeighborIndex::new(4, &cands);
        assert_eq!(idx.num_entities(), 4);
        assert_eq!(idx.degree(EntityId(0)), 2);
        assert_eq!(idx.degree(EntityId(1)), 1);
        assert_eq!(idx.degree(EntityId(2)), 1);
        let neighbors_of_3: Vec<EntityId> =
            idx.neighbors(EntityId(3)).iter().map(|&(n, _)| n).collect();
        assert_eq!(neighbors_of_3.len(), 2);
        assert!(neighbors_of_3.contains(&EntityId(0)));
        assert!(neighbors_of_3.contains(&EntityId(1)));
    }

    #[test]
    fn pair_ids_are_consistent_from_both_endpoints() {
        let cands = CandidatePairs::from_pairs(3, vec![(EntityId(0), EntityId(2))]);
        let idx = NeighborIndex::new(3, &cands);
        let (n0, p0) = idx.neighbors(EntityId(0))[0];
        let (n2, p2) = idx.neighbors(EntityId(2))[0];
        assert_eq!(n0, EntityId(2));
        assert_eq!(n2, EntityId(0));
        assert_eq!(p0, p2);
        assert_eq!(cands.pair(p0), (EntityId(0), EntityId(2)));
    }

    #[test]
    fn isolated_entities_have_empty_neighborhoods() {
        let cands = CandidatePairs::from_pairs(5, vec![(EntityId(0), EntityId(1))]);
        let idx = NeighborIndex::new(5, &cands);
        assert_eq!(idx.degree(EntityId(4)), 0);
        assert!(idx.neighbors(EntityId(3)).is_empty());
    }

    #[test]
    fn total_degree_is_twice_pair_count() {
        let cands = CandidatePairs::from_pairs(
            6,
            (0..5u32)
                .map(|i| (EntityId(i), EntityId(i + 1)))
                .collect::<Vec<_>>(),
        );
        let idx = NeighborIndex::new(6, &cands);
        let total: usize = (0..6u32).map(|i| idx.degree(EntityId(i))).sum();
        assert_eq!(total, 2 * cands.len());
    }
}
