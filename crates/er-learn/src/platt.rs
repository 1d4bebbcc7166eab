//! Platt scaling: mapping SVM decision values to calibrated probabilities.
//!
//! Platt scaling fits a sigmoid `P(match | f) = 1 / (1 + exp(A·f + B))` to the
//! decision values of a trained margin classifier.  scikit-learn's
//! `SVC(probability=True)` performs the same calibration internally, so this
//! is the piece that turns our hand-built [`crate::LinearSvm`] into the
//! probabilistic classifier required by Generalized Supervised Meta-blocking.
//!
//! The implementation follows the Lin–Weng–Keerthi improved Newton method with
//! the usual target smoothing for numerical robustness.

use er_core::{Error, Result};

/// A fitted Platt sigmoid.
#[derive(Debug, Clone)]
pub struct PlattScaler {
    pub(crate) a: f64,
    pub(crate) b: f64,
}

impl PlattScaler {
    /// Fits the sigmoid on decision values and binary labels.
    pub fn fit(decision_values: &[f64], labels: &[bool]) -> Result<Self> {
        if decision_values.len() != labels.len() || decision_values.is_empty() {
            return Err(Error::InvalidParameter(
                "Platt scaling needs equally many decision values and labels".into(),
            ));
        }
        let num_positive = labels.iter().filter(|&&l| l).count() as f64;
        let num_negative = labels.len() as f64 - num_positive;
        if num_positive == 0.0 || num_negative == 0.0 {
            return Err(Error::Model(
                "Platt scaling needs both classes in the calibration set".into(),
            ));
        }

        // Smoothed target probabilities (Platt 1999).
        let high_target = (num_positive + 1.0) / (num_positive + 2.0);
        let low_target = 1.0 / (num_negative + 2.0);
        let targets: Vec<f64> = labels
            .iter()
            .map(|&l| if l { high_target } else { low_target })
            .collect();

        let mut a = 0.0f64;
        let mut b = ((num_negative + 1.0) / (num_positive + 1.0)).ln();
        let min_step = 1e-10;
        let sigma = 1e-12;

        let objective = |a: f64, b: f64| -> f64 {
            decision_values
                .iter()
                .zip(&targets)
                .map(|(&f, &t)| {
                    let apb = a * f + b;
                    if apb >= 0.0 {
                        t * apb + (1.0 + (-apb).exp()).ln()
                    } else {
                        (t - 1.0) * apb + (1.0 + apb.exp()).ln()
                    }
                })
                .sum()
        };

        let mut fval = objective(a, b);
        for _ in 0..100 {
            // Gradient and Hessian.
            let (mut h11, mut h22, mut h21) = (sigma, sigma, 0.0);
            let (mut g1, mut g2) = (0.0, 0.0);
            for (&f, &t) in decision_values.iter().zip(&targets) {
                let apb = a * f + b;
                let p = if apb >= 0.0 {
                    (-apb).exp() / (1.0 + (-apb).exp())
                } else {
                    1.0 / (1.0 + apb.exp())
                };
                let q = 1.0 - p;
                let d2 = p * q;
                h11 += f * f * d2;
                h22 += d2;
                h21 += f * d2;
                let d1 = t - p;
                g1 += f * d1;
                g2 += d1;
            }
            if g1.abs() < 1e-5 && g2.abs() < 1e-5 {
                break;
            }
            // Newton direction.
            let det = h11 * h22 - h21 * h21;
            let da = -(h22 * g1 - h21 * g2) / det;
            let db = -(-h21 * g1 + h11 * g2) / det;
            let gd = g1 * da + g2 * db;

            // Backtracking line search.
            let mut step = 1.0;
            let mut improved = false;
            while step >= min_step {
                let new_a = a + step * da;
                let new_b = b + step * db;
                let new_f = objective(new_a, new_b);
                if new_f < fval + 1e-4 * step * gd {
                    a = new_a;
                    b = new_b;
                    fval = new_f;
                    improved = true;
                    break;
                }
                step /= 2.0;
            }
            if !improved {
                break;
            }
        }

        if !a.is_finite() || !b.is_finite() {
            return Err(Error::Model("Platt scaling diverged".into()));
        }
        Ok(PlattScaler { a, b })
    }

    /// The probability assigned to a decision value.
    pub fn probability(&self, decision_value: f64) -> f64 {
        let z = self.a * decision_value + self.b;
        if z >= 0.0 {
            (-z).exp() / (1.0 + (-z).exp())
        } else {
            1.0 / (1.0 + z.exp())
        }
    }

    /// The fitted offset `B`.
    pub fn offset(&self) -> f64 {
        self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrates_a_separable_margin() {
        // Positives have positive decision values, negatives negative.
        let decisions: Vec<f64> = (-20..20).map(|i| i as f64 / 4.0).collect();
        let labels: Vec<bool> = decisions.iter().map(|&d| d > 0.0).collect();
        let scaler = PlattScaler::fit(&decisions, &labels).unwrap();
        assert!(scaler.probability(3.0) > 0.85);
        assert!(scaler.probability(-3.0) < 0.15);
        assert!(scaler.probability(5.0) > scaler.probability(1.0));
    }

    #[test]
    fn probability_is_monotone_in_decision_value() {
        let decisions = vec![-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0];
        let labels = vec![false, false, false, false, true, true, true, true];
        let scaler = PlattScaler::fit(&decisions, &labels).unwrap();
        let mut last = 0.0;
        for d in [-4.0, -2.0, 0.0, 2.0, 4.0] {
            let p = scaler.probability(d);
            assert!(p >= last, "not monotone at {d}");
            last = p;
        }
    }

    #[test]
    fn noisy_labels_still_give_probabilities_in_range() {
        let decisions = vec![-1.0, -0.8, 0.2, -0.1, 0.5, 1.0, -0.4, 0.9];
        let labels = vec![false, true, false, true, true, true, false, false];
        let scaler = PlattScaler::fit(&decisions, &labels).unwrap();
        for &d in &decisions {
            let p = scaler.probability(d);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_single_class_or_empty() {
        assert!(PlattScaler::fit(&[], &[]).is_err());
        assert!(PlattScaler::fit(&[1.0, 2.0], &[true, true]).is_err());
        assert!(PlattScaler::fit(&[1.0], &[true, false]).is_err());
    }
}
