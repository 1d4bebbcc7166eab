//! Linear support-vector machine with Platt-scaled probabilities.
//!
//! The paper's default classifier is scikit-learn's SVC with probability
//! calibration enabled.  We reproduce the linear-kernel behaviour with a
//! Pegasos-style sub-gradient descent on the L2-regularised hinge loss and
//! calibrate the decision values with [`PlattScaler`].

use er_core::{Error, Result};
use rand::seq::SliceRandom;

use crate::dataset::TrainingSet;
use crate::model::{Classifier, ProbabilisticClassifier};
use crate::platt::PlattScaler;
use crate::scale::Standardizer;

/// Training hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone)]
pub struct LinearSvmConfig {
    /// Regularisation strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of passes over the (shuffled) training set.
    pub epochs: usize,
    /// Seed for the per-epoch shuffling.
    pub seed: u64,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        LinearSvmConfig {
            lambda: 1e-3,
            epochs: 200,
            seed: 0x5e_ed,
        }
    }
}

/// A trained linear SVM with probability calibration.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    pub(crate) scaler: Standardizer,
    pub(crate) weights: Vec<f64>,
    pub(crate) bias: f64,
    pub(crate) platt: PlattScaler,
}

impl LinearSvm {
    /// The learned weight vector in the standardised feature space.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The raw (uncalibrated) decision value of a feature vector.
    pub(crate) fn decision_value(&self, features: &[f64]) -> f64 {
        self.bias + self.scaler.standardised_dot(features, &self.weights)
    }
}

impl Classifier for LinearSvm {
    type Config = LinearSvmConfig;

    fn fit(config: &Self::Config, training: &TrainingSet) -> Result<Self> {
        training.validate()?;
        if config.lambda <= 0.0 || config.epochs == 0 {
            return Err(Error::InvalidParameter(
                "lambda and epochs must be positive".into(),
            ));
        }

        let num_features = training.num_features();
        let scaler = Standardizer::fit(training.features().iter().map(Vec::as_slice), num_features);
        let rows: Vec<Vec<f64>> = training
            .features()
            .iter()
            .map(|r| scaler.transform(r))
            .collect();
        let targets: Vec<f64> = training
            .labels()
            .iter()
            .map(|&l| if l { 1.0 } else { -1.0 })
            .collect();

        let mut weights = vec![0.0f64; num_features];
        let mut bias = 0.0f64;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut rng = er_core::seeded_rng(config.seed);
        let mut step_count = 0usize;

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                step_count += 1;
                let eta = 1.0 / (config.lambda * step_count as f64);
                let row = &rows[i];
                let y = targets[i];
                let margin = y * (bias + row.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>());
                // L2 shrinkage on the weights (not the bias).
                let shrink = 1.0 - eta * config.lambda;
                for w in &mut weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    for (w, x) in weights.iter_mut().zip(row) {
                        *w += eta * y * x;
                    }
                    bias += eta * y;
                }
            }
        }

        if weights.iter().any(|w| !w.is_finite()) || !bias.is_finite() {
            return Err(Error::Model("linear SVM diverged".into()));
        }

        // Calibrate the decision values on the training set.
        let decisions: Vec<f64> = rows
            .iter()
            .map(|row| bias + row.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>())
            .collect();
        let platt = PlattScaler::fit(&decisions, training.labels())?;

        Ok(LinearSvm {
            scaler,
            weights,
            bias,
            platt,
        })
    }
}

impl ProbabilisticClassifier for LinearSvm {
    fn probability(&self, features: &[f64]) -> f64 {
        self.platt.probability(self.decision_value(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn separable_training(n: usize, seed: u64) -> TrainingSet {
        let mut rng = er_core::seeded_rng(seed);
        let mut set = TrainingSet::new();
        for _ in 0..n {
            let label = rng.gen_bool(0.5);
            let base = if label { 1.5 } else { -1.5 };
            set.push(
                vec![base + rng.gen_range(-0.5..0.5), rng.gen_range(-1.0..1.0)],
                label,
            );
        }
        set
    }

    #[test]
    fn learns_a_separable_problem() {
        let training = separable_training(200, 11);
        let model = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        let correct = training
            .iter()
            .filter(|(f, l)| model.classify(f) == *l)
            .count();
        assert!(correct as f64 / training.len() as f64 > 0.95);
    }

    #[test]
    fn probabilities_follow_the_margin() {
        let training = separable_training(200, 12);
        let model = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        assert!(model.probability(&[2.5, 0.0]) > 0.8);
        assert!(model.probability(&[-2.5, 0.0]) < 0.2);
        assert!(model.probability(&[2.5, 0.0]) > model.probability(&[0.2, 0.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let training = separable_training(150, 13);
        let a = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        let b = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn agrees_with_logistic_regression_on_easy_data() {
        use crate::logistic::{LogisticRegression, LogisticRegressionConfig};
        let training = separable_training(300, 14);
        let svm = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        let logistic =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        // The paper reports SVC and logistic regression give almost identical
        // results; on separable data the hard classifications must agree on
        // the overwhelming majority of points.
        let agree = training
            .iter()
            .filter(|(f, _)| svm.classify(f) == logistic.classify(f))
            .count();
        assert!(agree as f64 / training.len() as f64 > 0.95);
    }

    /// The prediction kernel folds the standardisation into the dot product
    /// (no intermediate row): both classifiers must still produce the exact
    /// bits of the expression it replaced, `transform(row)` zipped with the
    /// weights — on ordinary rows, a zero-variance column, non-finite
    /// features, and rows shorter or longer than the model.
    #[test]
    fn probability_equals_transform_then_dot_bit_for_bit() {
        use crate::logistic::{LogisticRegression, LogisticRegressionConfig};
        let mut rng = er_core::seeded_rng(16);
        let mut training = TrainingSet::new();
        for _ in 0..80 {
            let label = rng.gen_bool(0.5);
            let base = if label { 1.0 } else { -1.0 };
            training.push(
                vec![
                    base + rng.gen_range(-0.7..0.7),
                    4.25, // zero variance: std falls back to 1
                    rng.gen_range(0.0..300.0),
                    base * rng.gen_range(0.0..1e-3),
                    rng.gen_range(-1.0..1.0),
                ],
                label,
            );
        }
        let svm = LinearSvm::fit(&LinearSvmConfig::default(), &training).unwrap();
        let logistic =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        let old_dot = |scaler: &Standardizer, weights: &[f64], row: &[f64]| {
            let scaled = scaler.transform(row);
            scaled.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>()
        };

        // Rows like the training data (probabilities away from 0 and 1, so
        // a last-bit difference in the dot product survives the sigmoid),
        // rows far outside it, then the special values column by column.
        let mut rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                vec![
                    rng.gen_range(-1.7..1.7),
                    4.25 + rng.gen_range(-0.5..0.5),
                    rng.gen_range(0.0..300.0),
                    rng.gen_range(-1e-3..1e-3),
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        rows.extend((0..100).map(|_| (0..5).map(|_| rng.gen_range(-1e3..1e3)).collect()));
        for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0] {
            for column in 0..5 {
                let mut row = rows[column].clone();
                row[column] = special;
                rows.push(row);
            }
        }
        rows.push(vec![0.5, 4.25]);
        rows.push(vec![0.5, 4.25, 10.0, 0.0, 0.1, 99.0, -7.0]);
        rows.push(Vec::new());
        for row in &rows {
            let z = svm.bias + old_dot(&svm.scaler, &svm.weights, row);
            assert_eq!(
                svm.decision_value(row).to_bits(),
                z.to_bits(),
                "svm {row:?}"
            );
            assert_eq!(
                svm.probability(row).to_bits(),
                svm.platt.probability(z).to_bits(),
                "svm {row:?}"
            );
            let z = logistic.intercept + old_dot(&logistic.scaler, &logistic.weights, row);
            assert_eq!(
                logistic.decision_value(row).to_bits(),
                z.to_bits(),
                "logistic {row:?}"
            );
            let expected = if z >= 0.0 {
                1.0 / (1.0 + (-z).exp())
            } else {
                z.exp() / (1.0 + z.exp())
            };
            assert_eq!(
                logistic.probability(row).to_bits(),
                expected.to_bits(),
                "logistic {row:?}"
            );
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let training = separable_training(50, 15);
        let config = LinearSvmConfig {
            lambda: 0.0,
            ..Default::default()
        };
        assert!(LinearSvm::fit(&config, &training).is_err());
    }
}
