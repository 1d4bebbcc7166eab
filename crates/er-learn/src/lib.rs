//! Hand-built probabilistic classifiers and training-set sampling.
//!
//! The paper trains a scikit-learn SVC (with probability calibration) or a
//! Weka logistic regression over the feature vectors of a small, balanced
//! sample of labelled candidate pairs, and reports that the two classifiers
//! give almost identical results.  This crate provides both from scratch:
//!
//! * [`LogisticRegression`] — full-batch gradient descent with L2
//!   regularisation, producing calibrated probabilities directly;
//! * [`LinearSvm`] — a Pegasos-style hinge-loss SVM whose decision values are
//!   turned into probabilities with [Platt scaling](PlattScaler);
//! * [`Standardizer`] — z-score feature scaling fitted on the training set;
//! * [`sampling`] — balanced undersampling of labelled pairs (the paper's
//!   50-to-500-instance training sets).
//!
//! All training is deterministic given a seed.

pub mod dataset;
pub mod logistic;
pub mod model;
pub mod persist;
mod platt;
pub mod sampling;
pub mod scale;
pub mod svm;

pub use dataset::TrainingSet;
pub use logistic::{LogisticRegression, LogisticRegressionConfig};
pub use model::{Classifier, ProbabilisticClassifier};
pub use persist::{load_model, save_model, SavedModel};
pub use platt::PlattScaler;
pub use sampling::{
    balanced_undersample, balanced_undersample_from_positives, paper_baseline_per_class,
    BalancedSample,
};
pub use scale::Standardizer;
pub use svm::{LinearSvm, LinearSvmConfig};
