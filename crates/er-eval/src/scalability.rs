//! Scalability analysis over the synthetic Dirty ER datasets
//! (Figures 17 and 18).

use er_core::Result;
use er_datasets::{dirty_catalog, generate_dirty, CatalogOptions};
use er_features::FeatureSet;
use er_learn::LogisticRegressionConfig;
use meta_blocking::pipeline::{ClassifierKind, MetaBlockingConfig};
use meta_blocking::pruning::AlgorithmKind;

use crate::experiment::{default_config, run_averaged, PreparedDataset};
use crate::metrics::Effectiveness;

/// One point of the scalability analysis: one algorithm on one Dirty ER
/// dataset.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Dataset name (D10K … D300K).
    pub dataset: String,
    /// Number of entity profiles.
    pub num_entities: usize,
    /// Number of candidate pairs, |C|.
    pub num_candidates: usize,
    /// Algorithm evaluated.
    pub algorithm: AlgorithmKind,
    /// Mean effectiveness.
    pub effectiveness: Effectiveness,
    /// Mean run-time in seconds.
    pub rt_seconds: f64,
}

/// The speedup measure of Figure 18: given the smallest workload
/// `(candidates_small, rt_small)` and a larger one, values close to 1 indicate
/// linear scalability.
pub fn speedup(
    candidates_small: usize,
    rt_small_seconds: f64,
    candidates_large: usize,
    rt_large_seconds: f64,
) -> f64 {
    if candidates_small == 0 || rt_large_seconds <= 0.0 {
        return 0.0;
    }
    (candidates_large as f64 / candidates_small as f64) * (rt_small_seconds / rt_large_seconds)
}

/// The configuration used by the paper's scalability analysis: logistic
/// regression, 25 labelled instances per class, and the optimal feature set of
/// the evaluated algorithm.
pub(crate) fn scalability_run_config(algorithm: AlgorithmKind, seed: u64) -> MetaBlockingConfig {
    let feature_set = match algorithm {
        AlgorithmKind::Rcnp | AlgorithmKind::Cnp => FeatureSet::rcnp_optimal(),
        AlgorithmKind::Bcl | AlgorithmKind::Cep => FeatureSet::original(),
        _ => FeatureSet::blast_optimal(),
    };
    MetaBlockingConfig {
        feature_set,
        per_class: 25,
        classifier: ClassifierKind::Logistic(LogisticRegressionConfig::default()),
        seed,
        ..default_config()
    }
}

/// Runs the scalability analysis for a set of algorithms over the Dirty ER
/// catalog, averaging `repetitions` runs per point.
pub fn run_scalability(
    options: &CatalogOptions,
    algorithms: &[AlgorithmKind],
    repetitions: usize,
) -> Result<Vec<ScalabilityPoint>> {
    let mut points = Vec::new();
    for config in dirty_catalog(options) {
        let dataset = generate_dirty(&config)?;
        let num_entities = dataset.num_entities();
        let prepared = PreparedDataset::prepare(dataset)?;
        for &algorithm in algorithms {
            let run_config = scalability_run_config(algorithm, 0xd1_47 + algorithm as u64);
            let result = run_averaged(&prepared, algorithm, &run_config, repetitions)?;
            points.push(ScalabilityPoint {
                dataset: config.name.clone(),
                num_entities,
                num_candidates: prepared.num_candidates(),
                algorithm,
                effectiveness: result.effectiveness,
                rt_seconds: result.mean_rt_seconds,
            });
        }
    }
    Ok(points)
}

/// Computes the speedup series of one algorithm relative to its smallest
/// dataset (the D10K analogue), preserving input order.
pub fn speedup_series(points: &[ScalabilityPoint], algorithm: AlgorithmKind) -> Vec<(String, f64)> {
    let series: Vec<&ScalabilityPoint> =
        points.iter().filter(|p| p.algorithm == algorithm).collect();
    let Some(base) = series.first() else {
        return Vec::new();
    };
    series
        .iter()
        .skip(1)
        .map(|p| {
            (
                p.dataset.clone(),
                speedup(
                    base.num_candidates,
                    base.rt_seconds,
                    p.num_candidates,
                    p.rt_seconds,
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_one_for_linear_scaling() {
        assert!((speedup(100, 1.0, 1000, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_below_one_for_superlinear_runtime() {
        assert!(speedup(100, 1.0, 1000, 20.0) < 1.0);
    }

    #[test]
    fn speedup_handles_degenerate_inputs() {
        assert_eq!(speedup(0, 1.0, 10, 1.0), 0.0);
        assert_eq!(speedup(10, 1.0, 10, 0.0), 0.0);
    }

    #[test]
    fn scalability_config_uses_logistic_regression_and_25_per_class() {
        let config = scalability_run_config(AlgorithmKind::Blast, 1);
        assert_eq!(config.per_class, 25);
        assert_eq!(config.classifier.name(), "LogisticRegression");
        assert_eq!(config.feature_set, FeatureSet::blast_optimal());
        let rcnp = scalability_run_config(AlgorithmKind::Rcnp, 1);
        assert_eq!(rcnp.feature_set, FeatureSet::rcnp_optimal());
    }

    #[test]
    fn tiny_scalability_run_produces_points_for_each_dataset_and_algorithm() {
        let options = CatalogOptions {
            dirty_scale: 0.004,
            ..CatalogOptions::tiny()
        };
        let algorithms = [AlgorithmKind::Blast, AlgorithmKind::Bcl];
        let points = run_scalability(&options, &algorithms, 1).unwrap();
        assert_eq!(points.len(), 5 * algorithms.len());
        for p in &points {
            assert!(p.num_candidates > 0);
            assert!(
                p.effectiveness.recall > 0.0,
                "{}: {}",
                p.dataset,
                p.effectiveness
            );
        }
        let series = speedup_series(&points, AlgorithmKind::Blast);
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn speedup_series_empty_for_missing_algorithm() {
        assert!(speedup_series(&[], AlgorithmKind::Cnp).is_empty());
    }
}
