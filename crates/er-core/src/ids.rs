//! Strongly typed identifiers.
//!
//! Identifiers are plain `u32` indices into the owning container.  Using
//! newtypes keeps entity ids, block ids and pair ids from being mixed up while
//! staying `Copy` and cheap to hash (see the performance notes on smaller
//! integer types).

/// Index of an entity profile inside a [`crate::Dataset`].
///
/// For Clean-Clean ER the two source collections share one id space: ids
/// `0..|E1|` belong to the first collection and `|E1|..|E1|+|E2|` to the
/// second.  This mirrors how meta-blocking implementations flatten the input
/// and lets blocks hold a single homogeneous entity list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for EntityId {
    #[inline]
    fn from(v: u32) -> Self {
        EntityId(v)
    }
}

impl From<usize> for EntityId {
    #[inline]
    fn from(v: usize) -> Self {
        EntityId(v as u32)
    }
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Index of a block inside a block collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for BlockId {
    #[inline]
    fn from(v: usize) -> Self {
        BlockId(v as u32)
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Index of a candidate pair inside a candidate-pair set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId(pub u32);

impl PairId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for PairId {
    #[inline]
    fn from(v: usize) -> Self {
        PairId(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_id_roundtrip() {
        let id = EntityId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(EntityId(42), id);
        assert_eq!(id.to_string(), "e42");
    }

    #[test]
    fn block_id_roundtrip() {
        let id = BlockId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "b7");
    }

    #[test]
    fn pair_id_ordering() {
        assert!(PairId(1) < PairId(2));
        assert_eq!(PairId::from(3usize).index(), 3);
    }

    #[test]
    fn entity_id_from_u32() {
        assert_eq!(EntityId::from(9u32), EntityId(9));
    }
}
