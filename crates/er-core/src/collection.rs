//! Entity collections, datasets and ground truth.

use crate::entity::EntityProfile;
use crate::error::{Error, Result};
use crate::fxhash::FxHashSet;
use crate::ids::EntityId;

/// A named set of entity profiles.
#[derive(Debug, Clone, Default)]
pub struct EntityCollection {
    /// Human-readable collection name (e.g. "abt", "buy").
    pub name: String,
    /// The profiles in this collection.
    pub profiles: Vec<EntityProfile>,
}

impl EntityCollection {
    /// Creates a collection from a name and a list of profiles.
    pub fn new(name: impl Into<String>, profiles: Vec<EntityProfile>) -> Self {
        EntityCollection {
            name: name.into(),
            profiles,
        }
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if the collection holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// Whether a dataset describes Clean-Clean ER (record linkage between two
/// duplicate-free sources) or Dirty ER (deduplication inside one source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Two clean collections; only cross-source pairs can match.
    CleanClean,
    /// A single dirty collection; any pair may match.
    Dirty,
}

impl DatasetKind {
    /// True if two entities may be compared at all under this ER kind:
    /// cross-source for Clean-Clean (`split` is the E1/E2 boundary in the
    /// flattened id space), merely distinct for Dirty.
    ///
    /// The single home of the comparability rule — datasets, block
    /// collections and the streaming index all delegate here, so the batch
    /// and streaming engines can never disagree on it.
    #[inline]
    pub fn comparable(self, split: usize, a: EntityId, b: EntityId) -> bool {
        a != b
            && match self {
                DatasetKind::CleanClean => (a.index() < split) != (b.index() < split),
                DatasetKind::Dirty => true,
            }
    }
}

/// The set of true duplicate pairs.
///
/// Pairs are stored with the smaller [`EntityId`] first so lookups are
/// order-insensitive.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    pairs: Vec<(EntityId, EntityId)>,
    index: FxHashSet<(EntityId, EntityId)>,
}

impl GroundTruth {
    /// Builds a ground truth from an iterator of duplicate pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (EntityId, EntityId)>) -> Self {
        let mut normalized: Vec<(EntityId, EntityId)> = pairs
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        normalized.sort_unstable();
        normalized.dedup();
        let index = normalized.iter().copied().collect();
        GroundTruth {
            pairs: normalized,
            index,
        }
    }

    /// Number of duplicate pairs, |D|.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no duplicates.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Returns true if `(a, b)` (in either order) is a duplicate pair.
    pub fn is_match(&self, a: EntityId, b: EntityId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.index.contains(&key)
    }

    /// Iterates over the normalized duplicate pairs.
    pub fn pairs(&self) -> &[(EntityId, EntityId)] {
        &self.pairs
    }
}

/// A complete ER dataset: all entity profiles (flattened into one id space),
/// the Clean-Clean split point if any, and the ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. "AbtBuy", "D10K").
    pub name: String,
    /// Clean-Clean or Dirty ER.
    pub kind: DatasetKind,
    /// All profiles.  For Clean-Clean ER the first `split` profiles belong to
    /// collection E1 and the rest to E2.
    pub profiles: Vec<EntityProfile>,
    /// Boundary between E1 and E2 for Clean-Clean datasets; equals
    /// `profiles.len()` for Dirty datasets.
    pub split: usize,
    /// The true duplicate pairs.
    pub ground_truth: GroundTruth,
}

impl Dataset {
    /// Builds a Clean-Clean dataset from two collections and their ground
    /// truth expressed over the flattened id space.
    pub fn clean_clean(
        name: impl Into<String>,
        e1: EntityCollection,
        e2: EntityCollection,
        ground_truth: GroundTruth,
    ) -> Result<Self> {
        let split = e1.len();
        let mut profiles = e1.profiles;
        profiles.extend(e2.profiles);
        let dataset = Dataset {
            name: name.into(),
            kind: DatasetKind::CleanClean,
            profiles,
            split,
            ground_truth,
        };
        dataset.validate()?;
        Ok(dataset)
    }

    /// Builds a Dirty dataset from a single collection.
    pub fn dirty(
        name: impl Into<String>,
        entities: EntityCollection,
        ground_truth: GroundTruth,
    ) -> Result<Self> {
        let split = entities.len();
        let dataset = Dataset {
            name: name.into(),
            kind: DatasetKind::Dirty,
            profiles: entities.profiles,
            split,
            ground_truth,
        };
        dataset.validate()?;
        Ok(dataset)
    }

    fn validate(&self) -> Result<()> {
        if self.profiles.is_empty() {
            return Err(Error::InvalidDataset("dataset has no profiles".into()));
        }
        if self.split > self.profiles.len() {
            return Err(Error::InvalidDataset(format!(
                "split {} exceeds profile count {}",
                self.split,
                self.profiles.len()
            )));
        }
        let n = self.profiles.len() as u32;
        for &(a, b) in self.ground_truth.pairs() {
            if a.0 >= n || b.0 >= n {
                return Err(Error::InvalidDataset(format!(
                    "ground-truth pair ({a}, {b}) references a missing profile"
                )));
            }
            if a == b {
                return Err(Error::InvalidDataset(format!(
                    "ground-truth pair ({a}, {b}) is a self pair"
                )));
            }
            if self.kind == DatasetKind::CleanClean && !self.is_cross_source(a, b) {
                return Err(Error::InvalidDataset(format!(
                    "Clean-Clean ground-truth pair ({a}, {b}) is not cross-source"
                )));
            }
        }
        Ok(())
    }

    /// Total number of profiles across all sources.
    pub fn num_entities(&self) -> usize {
        self.profiles.len()
    }

    /// Number of profiles in E1 (Clean-Clean) or in the single collection.
    pub fn len_e1(&self) -> usize {
        self.split
    }

    /// Number of profiles in E2 (0 for Dirty datasets).
    pub fn len_e2(&self) -> usize {
        self.profiles.len() - self.split
    }

    /// Number of true duplicate pairs, |D|.
    pub fn num_duplicates(&self) -> usize {
        self.ground_truth.len()
    }

    /// Returns the profile for an entity id.
    pub fn profile(&self, id: EntityId) -> &EntityProfile {
        &self.profiles[id.index()]
    }

    /// True if `id` belongs to the first (E1) collection.
    pub(crate) fn in_first_source(&self, id: EntityId) -> bool {
        id.index() < self.split
    }

    /// True if `a` and `b` come from different sources (always true for Dirty
    /// datasets as long as the ids differ).
    pub(crate) fn is_cross_source(&self, a: EntityId, b: EntityId) -> bool {
        match self.kind {
            DatasetKind::CleanClean => self.in_first_source(a) != self.in_first_source(b),
            DatasetKind::Dirty => a != b,
        }
    }

    /// True if a pair of entities is allowed to be compared at all
    /// (cross-source for Clean-Clean, distinct for Dirty).
    pub fn is_comparable(&self, a: EntityId, b: EntityId) -> bool {
        self.kind.comparable(self.split, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(id: &str, value: &str) -> EntityProfile {
        EntityProfile::new(id).with_attribute("name", value)
    }

    fn small_clean_clean() -> Dataset {
        let e1 = EntityCollection::new(
            "a",
            vec![profile("a0", "apple iphone"), profile("a1", "samsung s20")],
        );
        let e2 = EntityCollection::new(
            "b",
            vec![
                profile("b0", "iphone 10 apple"),
                profile("b1", "samsung 20"),
            ],
        );
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(0), EntityId(2)), (EntityId(1), EntityId(3))]);
        Dataset::clean_clean("toy", e1, e2, gt).unwrap()
    }

    #[test]
    fn clean_clean_construction() {
        let ds = small_clean_clean();
        assert_eq!(ds.len_e1(), 2);
        assert_eq!(ds.len_e2(), 2);
        assert_eq!(ds.num_entities(), 4);
        assert_eq!(ds.num_duplicates(), 2);
        assert!(ds.in_first_source(EntityId(1)));
        assert!(!ds.in_first_source(EntityId(2)));
    }

    #[test]
    fn ground_truth_is_order_insensitive() {
        let gt =
            GroundTruth::from_pairs(vec![(EntityId(5), EntityId(2)), (EntityId(2), EntityId(5))]);
        assert_eq!(gt.len(), 1);
        assert!(gt.is_match(EntityId(2), EntityId(5)));
        assert!(gt.is_match(EntityId(5), EntityId(2)));
        assert!(!gt.is_match(EntityId(1), EntityId(2)));
    }

    #[test]
    fn cross_source_checks() {
        let ds = small_clean_clean();
        assert!(ds.is_comparable(EntityId(0), EntityId(3)));
        assert!(!ds.is_comparable(EntityId(0), EntityId(1)));
        assert!(!ds.is_comparable(EntityId(2), EntityId(2)));
    }

    #[test]
    fn dirty_dataset_allows_any_distinct_pair() {
        let coll = EntityCollection::new(
            "d",
            vec![profile("0", "x"), profile("1", "x"), profile("2", "y")],
        );
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        let ds = Dataset::dirty("dirty", coll, gt).unwrap();
        assert_eq!(ds.kind, DatasetKind::Dirty);
        assert!(ds.is_comparable(EntityId(0), EntityId(2)));
        assert!(!ds.is_comparable(EntityId(1), EntityId(1)));
    }

    #[test]
    fn invalid_ground_truth_rejected() {
        let e1 = EntityCollection::new("a", vec![profile("a0", "x")]);
        let e2 = EntityCollection::new("b", vec![profile("b0", "x")]);
        // References entity 5, which does not exist.
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(5))]);
        assert!(Dataset::clean_clean("bad", e1, e2, gt).is_err());
    }

    #[test]
    fn same_source_ground_truth_rejected_for_clean_clean() {
        let e1 = EntityCollection::new("a", vec![profile("a0", "x"), profile("a1", "x")]);
        let e2 = EntityCollection::new("b", vec![profile("b0", "x")]);
        let gt = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        assert!(Dataset::clean_clean("bad", e1, e2, gt).is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        let gt = GroundTruth::default();
        let empty = EntityCollection::default();
        assert!(Dataset::dirty("empty", empty, gt).is_err());
    }

    #[test]
    fn ground_truth_dedups() {
        let gt = GroundTruth::from_pairs(vec![
            (EntityId(0), EntityId(2)),
            (EntityId(2), EntityId(0)),
            (EntityId(0), EntityId(2)),
        ]);
        assert_eq!(gt.len(), 1);
    }
}
