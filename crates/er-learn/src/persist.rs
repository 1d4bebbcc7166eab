//! Trained-model persistence: explicit binary codecs for every classifier
//! this crate trains, plus [`SavedModel`] — the tagged union a snapshot
//! stores so recovery can re-attach the exact model without knowing its
//! concrete type up front.
//!
//! Every learned parameter travels as its IEEE-754 bit pattern, so a loaded
//! model produces **bit-identical** probabilities to the one that was
//! saved.

use std::path::Path;

use er_core::{PersistError, PersistResult};
use er_persist::{read_snapshot, write_snapshot, Decode, Encode, Reader, Writer};

use crate::logistic::LogisticRegression;
use crate::model::ProbabilisticClassifier;
use crate::platt::PlattScaler;
use crate::scale::Standardizer;
use crate::svm::LinearSvm;

/// Snapshot payload tag for model files.
pub(crate) const MODEL_SNAPSHOT_TAG: u32 = 0x4d44_4c31; // "MDL1"

impl Encode for Standardizer {
    fn encode(&self, w: &mut Writer) {
        self.means.encode(w);
        self.stds.encode(w);
    }
}

impl Decode for Standardizer {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let means = Vec::<f64>::decode(r)?;
        let stds = Vec::<f64>::decode(r)?;
        if means.len() != stds.len() {
            return Err(PersistError::Corrupt(format!(
                "standardizer has {} means but {} deviations",
                means.len(),
                stds.len()
            )));
        }
        Ok(Standardizer { means, stds })
    }
}

impl Encode for PlattScaler {
    fn encode(&self, w: &mut Writer) {
        w.write_f64(self.a);
        w.write_f64(self.b);
    }
}

impl Decode for PlattScaler {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(PlattScaler {
            a: r.read_f64()?,
            b: r.read_f64()?,
        })
    }
}

impl Encode for LogisticRegression {
    fn encode(&self, w: &mut Writer) {
        self.scaler.encode(w);
        self.weights.encode(w);
        w.write_f64(self.intercept);
    }
}

impl Decode for LogisticRegression {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let scaler = Standardizer::decode(r)?;
        let weights = Vec::<f64>::decode(r)?;
        let intercept = r.read_f64()?;
        if weights.len() != scaler.num_features() {
            return Err(PersistError::Corrupt(format!(
                "logistic model has {} weights for {} scaled features",
                weights.len(),
                scaler.num_features()
            )));
        }
        Ok(LogisticRegression {
            scaler,
            weights,
            intercept,
        })
    }
}

impl Encode for LinearSvm {
    fn encode(&self, w: &mut Writer) {
        self.scaler.encode(w);
        self.weights.encode(w);
        w.write_f64(self.bias);
        self.platt.encode(w);
    }
}

impl Decode for LinearSvm {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let scaler = Standardizer::decode(r)?;
        let weights = Vec::<f64>::decode(r)?;
        let bias = r.read_f64()?;
        let platt = PlattScaler::decode(r)?;
        if weights.len() != scaler.num_features() {
            return Err(PersistError::Corrupt(format!(
                "svm model has {} weights for {} scaled features",
                weights.len(),
                scaler.num_features()
            )));
        }
        Ok(LinearSvm {
            scaler,
            weights,
            bias,
            platt,
        })
    }
}

/// A trained classifier in a form snapshots can store and recovery can
/// re-attach: the concrete model behind a type tag.
#[derive(Debug, Clone)]
pub enum SavedModel {
    /// A trained [`LogisticRegression`].
    Logistic(LogisticRegression),
    /// A trained [`LinearSvm`] with its Platt calibration.
    Svm(LinearSvm),
}

impl SavedModel {
    /// Number of raw features the model scores.
    pub fn num_features(&self) -> usize {
        match self {
            SavedModel::Logistic(model) => model.scaler.num_features(),
            SavedModel::Svm(model) => model.scaler.num_features(),
        }
    }

    /// Short display name of the wrapped classifier.
    pub fn name(&self) -> &'static str {
        match self {
            SavedModel::Logistic(_) => "LogisticRegression",
            SavedModel::Svm(_) => "LinearSVM",
        }
    }
}

impl ProbabilisticClassifier for SavedModel {
    fn probability(&self, features: &[f64]) -> f64 {
        match self {
            SavedModel::Logistic(model) => model.probability(features),
            SavedModel::Svm(model) => model.probability(features),
        }
    }
}

impl From<LogisticRegression> for SavedModel {
    fn from(model: LogisticRegression) -> Self {
        SavedModel::Logistic(model)
    }
}

impl From<LinearSvm> for SavedModel {
    fn from(model: LinearSvm) -> Self {
        SavedModel::Svm(model)
    }
}

impl Encode for SavedModel {
    fn encode(&self, w: &mut Writer) {
        match self {
            SavedModel::Logistic(model) => {
                w.write_u8(0);
                model.encode(w);
            }
            SavedModel::Svm(model) => {
                w.write_u8(1);
                model.encode(w);
            }
        }
    }
}

impl Decode for SavedModel {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        match r.read_u8()? {
            0 => Ok(SavedModel::Logistic(LogisticRegression::decode(r)?)),
            1 => Ok(SavedModel::Svm(LinearSvm::decode(r)?)),
            other => Err(PersistError::Corrupt(format!(
                "unknown saved-model tag {other}"
            ))),
        }
    }
}

/// Writes a trained model to its own atomic snapshot file.  The header
/// fingerprint records the feature-vector width, so loading a model trained
/// for a different feature set fails cleanly.
pub fn save_model(path: &Path, model: &SavedModel) -> PersistResult<()> {
    write_snapshot(path, MODEL_SNAPSHOT_TAG, model.num_features() as u64, model)
}

/// Loads a model snapshot written by [`save_model`].
/// `expected_features` of `Some(n)` enforces the feature-vector width.
pub fn load_model(path: &Path, expected_features: Option<usize>) -> PersistResult<SavedModel> {
    let (model, _) = read_snapshot::<SavedModel>(
        path,
        MODEL_SNAPSHOT_TAG,
        expected_features.map(|n| n as u64),
    )?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::model::Classifier;
    use crate::{LinearSvmConfig, LogisticRegressionConfig};
    use er_persist::{decode_from_slice, encode_to_vec};

    /// A tiny separable training set.
    fn training_set() -> TrainingSet {
        let mut training = TrainingSet::new();
        for i in 0..20 {
            let x = i as f64 / 10.0;
            training.push(vec![x, 1.0 - x], x > 0.9);
        }
        training
    }

    fn probe_rows() -> Vec<Vec<f64>> {
        (0..40)
            .map(|i| vec![i as f64 * 0.07 - 0.3, (40 - i) as f64 * 0.05])
            .collect()
    }

    fn assert_bit_identical(a: &SavedModel, b: &SavedModel) {
        for row in probe_rows() {
            assert_eq!(
                a.probability(&row).to_bits(),
                b.probability(&row).to_bits(),
                "probabilities diverged on {row:?}"
            );
        }
    }

    #[test]
    fn logistic_model_round_trips_bit_identically() {
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training_set()).unwrap();
        let saved = SavedModel::from(model);
        let back: SavedModel = decode_from_slice(&encode_to_vec(&saved)).unwrap();
        assert_eq!(back.name(), "LogisticRegression");
        assert_eq!(back.num_features(), 2);
        assert_bit_identical(&saved, &back);
    }

    #[test]
    fn svm_model_round_trips_bit_identically() {
        let model = LinearSvm::fit(&LinearSvmConfig::default(), &training_set()).unwrap();
        let saved = SavedModel::from(model);
        let back: SavedModel = decode_from_slice(&encode_to_vec(&saved)).unwrap();
        assert_eq!(back.name(), "LinearSVM");
        assert_bit_identical(&saved, &back);
    }

    #[test]
    fn unknown_model_tag_is_corrupt() {
        let err = decode_from_slice::<SavedModel>(&[7]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn inconsistent_widths_are_corrupt() {
        let mut w = Writer::new();
        vec![0.0f64; 3].encode(&mut w); // 3 means
        vec![1.0f64; 2].encode(&mut w); // but 2 deviations
        let err = decode_from_slice::<Standardizer>(w.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }
}
