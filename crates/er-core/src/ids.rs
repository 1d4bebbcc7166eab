//! Strongly typed identifiers.
//!
//! Identifiers are plain `u32` indices into the owning container.  Using
//! newtypes keeps entity ids, block ids and pair ids from being mixed up while
//! staying `Copy` and cheap to hash (see the performance notes on smaller
//! integer types).  [`checked_u32`] is the one checked `usize` → `u32`
//! narrowing: the `From<usize>` impls below and the blocking and streaming
//! arenas' offsets go through it.

/// `value` as a `u32`, panicking with a message that names `limit` when it
/// does not fit — ids, offsets and arena positions are `u32`s, and a
/// silently wrapped value would be a wrong but valid-looking index.
#[inline]
pub fn checked_u32(value: usize, limit: &'static str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => limit_exceeded(value, limit),
    }
}

#[cold]
#[inline(never)]
fn limit_exceeded(value: usize, limit: &'static str) -> ! {
    panic!("{limit} exceeded: {value} does not fit a u32")
}

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
        EntityId(checked_u32(v, "entity id limit (2^32 entities)"))
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
        BlockId(checked_u32(v, "block id limit (2^32 blocks)"))
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
        PairId(checked_u32(v, "pair id limit (2^32 pairs)"))
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

    #[test]
    fn checked_u32_accepts_the_largest_u32() {
        assert_eq!(checked_u32(u32::MAX as usize, "test limit"), u32::MAX);
        assert_eq!(checked_u32(0, "test limit"), 0);
    }

    #[test]
    #[should_panic(expected = "test limit exceeded: 4294967296 does not fit a u32")]
    fn checked_u32_panics_one_past_the_largest_u32() {
        checked_u32(u32::MAX as usize + 1, "test limit");
    }

    #[test]
    fn ids_accept_the_largest_u32() {
        let max = u32::MAX as usize;
        assert_eq!(EntityId::from(max), EntityId(u32::MAX));
        assert_eq!(BlockId::from(max), BlockId(u32::MAX));
        assert_eq!(PairId::from(max), PairId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "entity id limit (2^32 entities) exceeded")]
    fn entity_id_panics_one_past_the_largest_u32() {
        let _ = EntityId::from(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "block id limit (2^32 blocks) exceeded")]
    fn block_id_panics_one_past_the_largest_u32() {
        let _ = BlockId::from(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "pair id limit (2^32 pairs) exceeded")]
    fn pair_id_panics_one_past_the_largest_u32() {
        let _ = PairId::from(u32::MAX as usize + 1);
    }
}
