//! Labelled training sets.

use er_core::{Error, Result};

/// A labelled training set: one feature vector and boolean label per instance
/// (`true` = the pair is a match).
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    features: Vec<Vec<f64>>,
    labels: Vec<bool>,
}

impl TrainingSet {
    /// Creates an empty training set.
    pub fn new() -> Self {
        TrainingSet::default()
    }

    /// Builds a training set from parallel feature/label vectors.
    pub fn from_parts(features: Vec<Vec<f64>>, labels: Vec<bool>) -> Result<Self> {
        if features.len() != labels.len() {
            return Err(Error::InvalidParameter(format!(
                "feature rows ({}) and labels ({}) differ in length",
                features.len(),
                labels.len()
            )));
        }
        let set = TrainingSet { features, labels };
        set.validate()?;
        Ok(set)
    }

    /// Appends one labelled instance.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the set has no instances.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per instance (0 for an empty set).
    pub fn num_features(&self) -> usize {
        self.features.first().map(Vec::len).unwrap_or(0)
    }

    /// Number of positive (matching) instances.
    pub(crate) fn num_positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of negative (non-matching) instances.
    pub(crate) fn num_negatives(&self) -> usize {
        self.len() - self.num_positives()
    }

    /// The feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Iterates `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], bool)> {
        self.features
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Checks the set is trainable: non-empty, rectangular and containing both
    /// classes.
    pub fn validate(&self) -> Result<()> {
        if self.is_empty() {
            return Err(Error::EmptyInput("training set is empty".into()));
        }
        let width = self.num_features();
        if width == 0 {
            return Err(Error::InvalidParameter("feature vectors are empty".into()));
        }
        if let Some(bad) = self.features.iter().position(|f| f.len() != width) {
            return Err(Error::InvalidParameter(format!(
                "feature row {bad} has {} features, expected {width}",
                self.features[bad].len()
            )));
        }
        if self.num_positives() == 0 || self.num_negatives() == 0 {
            return Err(Error::Model(
                "training set must contain both positive and negative instances".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainingSet {
        TrainingSet::from_parts(
            vec![vec![1.0, 0.5], vec![0.2, 0.1], vec![0.9, 0.8]],
            vec![true, false, true],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_shape() {
        let set = sample();
        assert_eq!(set.len(), 3);
        assert_eq!(set.num_features(), 2);
        assert_eq!(set.num_positives(), 2);
        assert_eq!(set.num_negatives(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(TrainingSet::from_parts(vec![vec![1.0]], vec![true, false]).is_err());
    }

    #[test]
    fn ragged_rows_rejected() {
        let set = TrainingSet::from_parts(vec![vec![1.0, 2.0], vec![3.0]], vec![true, false]);
        assert!(set.is_err());
    }

    #[test]
    fn single_class_rejected() {
        let set = TrainingSet::from_parts(vec![vec![1.0], vec![2.0]], vec![true, true]);
        assert!(set.is_err());
    }

    #[test]
    fn empty_set_rejected_by_validate() {
        assert!(TrainingSet::new().validate().is_err());
    }

    #[test]
    fn iter_yields_rows_in_order() {
        let set = sample();
        let collected: Vec<(Vec<f64>, bool)> = set.iter().map(|(f, l)| (f.to_vec(), l)).collect();
        assert_eq!(collected[0], (vec![1.0, 0.5], true));
        assert_eq!(collected[1], (vec![0.2, 0.1], false));
    }

    #[test]
    fn push_grows_the_set() {
        let mut set = sample();
        set.push(vec![0.3, 0.4], false);
        assert_eq!(set.len(), 4);
        assert_eq!(set.num_negatives(), 2);
    }
}
