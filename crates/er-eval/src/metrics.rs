//! Effectiveness measures.
//!
//! Following the paper: recall (a.k.a. pairs completeness) is the portion of
//! true duplicates retained, precision (a.k.a. pairs quality) is the portion
//! of retained pairs that are duplicates, and F1 is their harmonic mean.

use er_core::{EntityId, GroundTruth};

/// Recall, precision and F-measure of a set of retained candidate pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Effectiveness {
    /// |TP| / |D|.
    pub recall: f64,
    /// |TP| / (|TP| + |FP|).
    pub precision: f64,
    /// Harmonic mean of recall and precision.
    pub f1: f64,
}

impl Effectiveness {
    /// Builds the measures from raw counts.
    pub fn from_counts(true_positives: usize, retained: usize, num_duplicates: usize) -> Self {
        let recall = if num_duplicates > 0 {
            true_positives as f64 / num_duplicates as f64
        } else {
            0.0
        };
        let precision = if retained > 0 {
            true_positives as f64 / retained as f64
        } else {
            0.0
        };
        let f1 = if recall + precision > 0.0 {
            2.0 * recall * precision / (recall + precision)
        } else {
            0.0
        };
        Effectiveness {
            recall,
            precision,
            f1,
        }
    }

    /// Evaluates a list of retained pairs against the ground truth.
    ///
    /// `num_duplicates` is |D|, the number of duplicates in the ground truth
    /// (which may exceed the number of duplicates that survived blocking).
    pub fn evaluate(
        retained: &[(EntityId, EntityId)],
        truth: &GroundTruth,
        num_duplicates: usize,
    ) -> Self {
        let true_positives = retained
            .iter()
            .filter(|&&(a, b)| truth.is_match(a, b))
            .count();
        Effectiveness::from_counts(true_positives, retained.len(), num_duplicates)
    }

    /// Element-wise average of several measurements (used for the 10-run
    /// averages the paper reports).
    pub fn mean(results: &[Effectiveness]) -> Self {
        if results.is_empty() {
            return Effectiveness::default();
        }
        let n = results.len() as f64;
        Effectiveness {
            recall: results.iter().map(|r| r.recall).sum::<f64>() / n,
            precision: results.iter().map(|r| r.precision).sum::<f64>() / n,
            f1: results.iter().map(|r| r.f1).sum::<f64>() / n,
        }
    }
}

impl std::fmt::Display for Effectiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Re={:.4} Pr={:.4} F1={:.4}",
            self.recall, self.precision, self.f1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_translate_to_measures() {
        let eff = Effectiveness::from_counts(8, 20, 10);
        assert!((eff.recall - 0.8).abs() < 1e-12);
        assert!((eff.precision - 0.4).abs() < 1e-12);
        let expected_f1 = 2.0 * 0.8 * 0.4 / 1.2;
        assert!((eff.f1 - expected_f1).abs() < 1e-12);
    }

    #[test]
    fn empty_retained_set_gives_zero() {
        let eff = Effectiveness::from_counts(0, 0, 10);
        assert_eq!(eff, Effectiveness::default());
    }

    #[test]
    fn evaluate_counts_true_positives() {
        let truth = GroundTruth::from_pairs(vec![
            (EntityId(0), EntityId(10)),
            (EntityId(1), EntityId(11)),
            (EntityId(2), EntityId(12)),
        ]);
        let retained = vec![
            (EntityId(0), EntityId(10)),
            (EntityId(5), EntityId(11)),
            (EntityId(11), EntityId(1)), // reversed order still counts
        ];
        let eff = Effectiveness::evaluate(&retained, &truth, 3);
        assert!((eff.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((eff.precision - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_retention() {
        let truth = GroundTruth::from_pairs(vec![(EntityId(0), EntityId(1))]);
        let eff = Effectiveness::evaluate(&[(EntityId(0), EntityId(1))], &truth, 1);
        assert_eq!(eff.recall, 1.0);
        assert_eq!(eff.precision, 1.0);
        assert_eq!(eff.f1, 1.0);
    }

    #[test]
    fn mean_averages_componentwise() {
        let a = Effectiveness {
            recall: 0.8,
            precision: 0.2,
            f1: 0.32,
        };
        let b = Effectiveness {
            recall: 0.6,
            precision: 0.4,
            f1: 0.48,
        };
        let mean = Effectiveness::mean(&[a, b]);
        assert!((mean.recall - 0.7).abs() < 1e-12);
        assert!((mean.precision - 0.3).abs() < 1e-12);
        assert!((mean.f1 - 0.4).abs() < 1e-12);
        assert_eq!(Effectiveness::mean(&[]), Effectiveness::default());
    }

    #[test]
    fn display_is_compact() {
        let eff = Effectiveness::from_counts(1, 2, 4);
        assert_eq!(eff.to_string(), "Re=0.2500 Pr=0.5000 F1=0.3333");
    }
}
