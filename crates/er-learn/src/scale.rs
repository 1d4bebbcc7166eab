//! Feature standardisation (z-scoring).
//!
//! The weighting schemes live on wildly different scales (JS in `[0,1]`, LCP
//! in the hundreds), so gradient-based training needs the features centred
//! and scaled.  The standardiser is fitted on the training sample only and
//! then applied to every candidate pair at prediction time, exactly like
//! scikit-learn's `StandardScaler` inside a pipeline.

use serde::{Deserialize, Serialize};

/// Per-feature mean/standard-deviation scaler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Standardizer {
    pub(crate) means: Vec<f64>,
    pub(crate) stds: Vec<f64>,
}

impl Standardizer {
    /// Fits the scaler on a set of feature rows.
    ///
    /// Constant features receive a standard deviation of 1 so they map to 0
    /// rather than NaN.
    pub fn fit<'a>(rows: impl Iterator<Item = &'a [f64]> + Clone, num_features: usize) -> Self {
        let mut means = vec![0.0; num_features];
        let mut count = 0usize;
        for row in rows.clone() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
            count += 1;
        }
        if count > 0 {
            for m in &mut means {
                *m /= count as f64;
            }
        }
        let mut vars = vec![0.0; num_features];
        for row in rows {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *var += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let std = if count > 1 {
                    (v / (count as f64 - 1.0)).sqrt()
                } else {
                    0.0
                };
                if std > 1e-12 {
                    std
                } else {
                    1.0
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    /// Number of features the scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// Standardises a feature row in place.
    pub fn transform_in_place(&self, row: &mut [f64]) {
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Returns the standardised copy of a feature row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }

    /// The dot product of the standardised row with `weights`, folded
    /// lazily: the same per-term expression, term order and `sum::<f64>()`
    /// as `transform(row)` zipped with `weights`, so the value is
    /// bit-identical — without the intermediate `Vec`.  This is the
    /// prediction-time kernel (one call per candidate pair).
    #[inline]
    pub(crate) fn standardised_dot(&self, row: &[f64], weights: &[f64]) -> f64 {
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), s)| (v - m) / s)
            .zip(weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardised_columns_have_zero_mean_unit_variance() {
        let rows = [
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let scaler = Standardizer::fit(rows.iter().map(Vec::as_slice), 2);
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| scaler.transform(r)).collect();
        for col in 0..2 {
            let mean: f64 = transformed.iter().map(|r| r[col]).sum::<f64>() / 4.0;
            let var: f64 = transformed
                .iter()
                .map(|r| (r[col] - mean).powi(2))
                .sum::<f64>()
                / 3.0;
            assert!(mean.abs() < 1e-12, "column {col} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "column {col} variance {var}");
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let rows = [vec![5.0], vec![5.0], vec![5.0]];
        let scaler = Standardizer::fit(rows.iter().map(Vec::as_slice), 1);
        assert_eq!(scaler.transform(&[5.0]), vec![0.0]);
    }

    #[test]
    fn transform_in_place_matches_transform() {
        let rows = [vec![1.0, -1.0], vec![3.0, 4.0]];
        let scaler = Standardizer::fit(rows.iter().map(Vec::as_slice), 2);
        let mut row = vec![2.0, 1.0];
        let expected = scaler.transform(&row);
        scaler.transform_in_place(&mut row);
        assert_eq!(row, expected);
    }

    #[test]
    fn empty_fit_does_not_panic() {
        let rows: Vec<Vec<f64>> = vec![];
        let scaler = Standardizer::fit(rows.iter().map(Vec::as_slice), 3);
        assert_eq!(scaler.num_features(), 3);
        assert_eq!(scaler.transform(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }
}
