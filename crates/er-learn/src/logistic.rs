//! Logistic regression trained with full-batch gradient descent.
//!
//! The training sets in the paper are tiny (50–500 balanced instances) and the
//! feature vectors short (4–9 values), so full-batch gradient descent with a
//! fixed learning rate converges in a few hundred epochs.  Features are
//! standardised internally; the learned weights can be read back in the
//! *standardised* space (used to reproduce Table 6's model-variance analysis).

use er_core::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::dataset::TrainingSet;
use crate::model::{Classifier, ProbabilisticClassifier};
use crate::scale::Standardizer;

/// Training hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegressionConfig {
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            learning_rate: 0.3,
            epochs: 800,
            l2: 1e-3,
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    pub(crate) scaler: Standardizer,
    pub(crate) weights: Vec<f64>,
    pub(crate) intercept: f64,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// The learned weights in the standardised feature space.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned intercept in the standardised feature space.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The decision value (log-odds) for a raw feature vector.
    pub fn decision_value(&self, features: &[f64]) -> f64 {
        self.intercept + self.scaler.standardised_dot(features, &self.weights)
    }
}

impl Classifier for LogisticRegression {
    type Config = LogisticRegressionConfig;

    fn fit(config: &Self::Config, training: &TrainingSet) -> Result<Self> {
        training.validate()?;
        if config.learning_rate <= 0.0 || config.epochs == 0 {
            return Err(Error::InvalidParameter(
                "learning rate and epochs must be positive".into(),
            ));
        }

        let num_features = training.num_features();
        let scaler = Standardizer::fit(training.features().iter().map(Vec::as_slice), num_features);
        let rows: Vec<Vec<f64>> = training
            .features()
            .iter()
            .map(|r| scaler.transform(r))
            .collect();
        let labels: Vec<f64> = training
            .labels()
            .iter()
            .map(|&l| if l { 1.0 } else { 0.0 })
            .collect();

        let n = rows.len() as f64;
        let mut weights = vec![0.0; num_features];
        let mut intercept = 0.0;
        for _ in 0..config.epochs {
            let mut grad_w = vec![0.0; num_features];
            let mut grad_b = 0.0;
            for (row, &y) in rows.iter().zip(&labels) {
                let z = intercept + row.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>();
                let err = sigmoid(z) - y;
                for (g, x) in grad_w.iter_mut().zip(row) {
                    *g += err * x;
                }
                grad_b += err;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * (g / n + config.l2 * *w);
            }
            intercept -= config.learning_rate * grad_b / n;
        }

        if weights.iter().any(|w| !w.is_finite()) || !intercept.is_finite() {
            return Err(Error::Model("logistic regression diverged".into()));
        }

        Ok(LogisticRegression {
            scaler,
            weights,
            intercept,
        })
    }
}

impl ProbabilisticClassifier for LogisticRegression {
    fn probability(&self, features: &[f64]) -> f64 {
        sigmoid(self.decision_value(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A linearly separable toy problem: positives have large first feature.
    fn separable_training(n: usize, seed: u64) -> TrainingSet {
        let mut rng = er_core::seeded_rng(seed);
        let mut set = TrainingSet::new();
        for _ in 0..n {
            let label = rng.gen_bool(0.5);
            let base = if label { 2.0 } else { -2.0 };
            let x0 = base + rng.gen_range(-0.5..0.5);
            let x1 = rng.gen_range(-1.0..1.0);
            set.push(vec![x0, x1], label);
        }
        set
    }

    #[test]
    fn learns_a_separable_problem() {
        let training = separable_training(200, 1);
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        let mut correct = 0usize;
        for (features, label) in training.iter() {
            if model.classify(features) == label {
                correct += 1;
            }
        }
        assert!(correct as f64 / training.len() as f64 > 0.95);
    }

    #[test]
    fn probabilities_are_calibrated_to_class_direction() {
        let training = separable_training(200, 2);
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        assert!(model.probability(&[3.0, 0.0]) > 0.9);
        assert!(model.probability(&[-3.0, 0.0]) < 0.1);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let training = separable_training(100, 3);
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        for x in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let p = model.probability(&[x, x]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let training = separable_training(120, 4);
        let a = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        let b = LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn rejects_invalid_config() {
        let training = separable_training(50, 5);
        let config = LogisticRegressionConfig {
            learning_rate: 0.0,
            ..Default::default()
        };
        assert!(LogisticRegression::fit(&config, &training).is_err());
    }

    #[test]
    fn rejects_single_class_training() {
        let mut set = TrainingSet::new();
        set.push(vec![1.0], true);
        set.push(vec![2.0], true);
        assert!(LogisticRegression::fit(&LogisticRegressionConfig::default(), &set).is_err());
    }

    #[test]
    fn weight_magnitude_reflects_informative_features() {
        let training = separable_training(300, 6);
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        // Feature 0 is informative, feature 1 is noise.
        assert!(model.weights()[0].abs() > model.weights()[1].abs());
    }
}
