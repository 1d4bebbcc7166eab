//! Generator configuration types.

use er_core::{Error, Result};

/// How a duplicate copy of a base record is perturbed.
///
/// The noise level controls how many blocks a duplicate pair ends up sharing
/// after Token Blocking, which is the quantity the paper identifies as the
/// driver of meta-blocking recall (Figures 15/16): heavily noised datasets
/// have many duplicates sharing a single block and therefore lower recall.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// Probability that each token of the base record is dropped in the copy.
    pub drop_probability: f64,
    /// Probability that each surviving token is replaced by a random
    /// vocabulary token.
    pub replace_probability: f64,
    /// Number of extra random tokens appended to the copy.
    pub extra_tokens: usize,
}

impl NoiseConfig {
    /// Light noise: duplicates keep most of their tokens.
    pub(crate) fn light() -> Self {
        NoiseConfig {
            drop_probability: 0.05,
            replace_probability: 0.02,
            extra_tokens: 1,
        }
    }

    /// Moderate noise.
    pub(crate) fn moderate() -> Self {
        NoiseConfig {
            drop_probability: 0.25,
            replace_probability: 0.10,
            extra_tokens: 2,
        }
    }

    /// Heavy noise: a sizeable fraction of duplicates will share only one
    /// block (or none at all), capping the achievable recall as in
    /// AbtBuy / AmazonGP.
    pub fn heavy() -> Self {
        NoiseConfig {
            drop_probability: 0.50,
            replace_probability: 0.22,
            extra_tokens: 3,
        }
    }

    /// Validates probability ranges.
    pub fn validate(&self) -> Result<()> {
        validate_fractions(
            "noise",
            &[
                ("drop_probability", self.drop_probability),
                ("replace_probability", self.replace_probability),
            ],
        )
    }
}

/// Configuration of a synthetic Clean-Clean ER dataset.
#[derive(Debug, Clone)]
pub(crate) struct CleanCleanConfig {
    /// Dataset name.
    pub name: String,
    /// Number of entities in the first collection, |E1|.
    pub e1_size: usize,
    /// Number of entities in the second collection, |E2|.
    pub e2_size: usize,
    /// Number of true duplicate pairs, |D| (each duplicate has one copy in E1
    /// and one in E2).
    pub num_duplicates: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the vocabulary.
    pub zipf_exponent: f64,
    /// Minimum number of tokens per entity profile.
    pub min_tokens: usize,
    /// Maximum number of tokens per entity profile.
    pub max_tokens: usize,
    /// Fraction of each base record's tokens drawn from the distinctive tail
    /// of the vocabulary (the rest come from the Zipfian head).
    pub distinctive_fraction: f64,
    /// Fraction of the background (non-matching) entities that are generated
    /// as *confusable* variants of some real record: they share roughly half
    /// of its tokens without being a match.  These hard negatives reproduce
    /// the real datasets' property that many superfluous pairs have strong
    /// co-occurrence patterns, keeping meta-blocking precision well below 1.
    pub confusable_fraction: f64,
    /// Noise applied to the E2 copy of each duplicate.
    pub noise: NoiseConfig,
    /// Seed for the generator.
    pub seed: u64,
}

impl CleanCleanConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_duplicates > self.e1_size || self.num_duplicates > self.e2_size {
            return Err(Error::InvalidDataset(format!(
                "{}: more duplicates ({}) than entities ({} / {})",
                self.name, self.num_duplicates, self.e1_size, self.e2_size
            )));
        }
        validate_records(
            &self.name,
            self.vocab_size,
            self.zipf_exponent,
            (self.min_tokens, self.max_tokens),
            &[
                ("distinctive_fraction", self.distinctive_fraction),
                ("confusable_fraction", self.confusable_fraction),
            ],
        )?;
        self.noise.validate()
    }
}

/// The checks every generator's `validate` shares, so no configuration
/// reaches a panic in the record engine: tokens `1 <= min <= max`, `1..=u32::MAX`
/// ranks, a non-negative (not NaN) Zipf exponent, and fractions in `[0, 1]`.
pub(crate) fn validate_records(
    name: &str,
    vocab_size: usize,
    zipf_exponent: f64,
    (min_tokens, max_tokens): (usize, usize),
    fractions: &[(&str, f64)],
) -> Result<()> {
    require(
        min_tokens > 0 && min_tokens <= max_tokens,
        name,
        format_args!("invalid token range {min_tokens}..{max_tokens}"),
    )?;
    require(
        vocab_size > 0 && u32::try_from(vocab_size).is_ok(),
        name,
        format_args!("vocab_size must be in 1..=2^32-1, got {vocab_size}"),
    )?;
    require(
        zipf_exponent >= 0.0,
        name,
        format_args!("zipf_exponent must be non-negative, got {zipf_exponent}"),
    )?;
    validate_fractions(name, fractions)
}

fn validate_fractions(name: &str, fractions: &[(&str, f64)]) -> Result<()> {
    for &(field, value) in fractions {
        let message = format_args!("{field} must be in [0,1], got {value}");
        require((0.0..=1.0).contains(&value), name, message)?;
    }
    Ok(())
}

/// `Err(InvalidParameter("<name>: <message>"))` unless `ok`.
pub(crate) fn require(ok: bool, name: &str, message: std::fmt::Arguments) -> Result<()> {
    if ok {
        return Ok(());
    }
    Err(Error::InvalidParameter(format!("{name}: {message}")))
}

/// Configuration of a synthetic Dirty ER dataset (used by the scalability
/// analysis, Figures 17/18).
#[derive(Debug, Clone)]
pub struct DirtyConfig {
    /// Dataset name (e.g. "D10K").
    pub name: String,
    /// Total number of entity profiles.
    pub num_entities: usize,
    /// Fraction of profiles that are duplicates of an earlier profile.
    pub duplicate_fraction: f64,
    /// Maximum duplicates per cluster (including the original).
    pub max_cluster_size: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the vocabulary.
    pub zipf_exponent: f64,
    /// Minimum number of tokens per entity profile.
    pub min_tokens: usize,
    /// Maximum number of tokens per entity profile.
    pub max_tokens: usize,
    /// Fraction of tokens drawn from the distinctive tail.
    pub distinctive_fraction: f64,
    /// Fraction of non-duplicated entities generated as confusable variants
    /// of an earlier record (hard negatives); see
    /// `CleanCleanConfig::confusable_fraction`.
    pub confusable_fraction: f64,
    /// Noise applied to duplicate copies.
    pub noise: NoiseConfig,
    /// Seed for the generator.
    pub seed: u64,
}

impl DirtyConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_entities < 2 {
            return Err(Error::InvalidDataset(format!(
                "{}: need at least two entities",
                self.name
            )));
        }
        let name = &self.name;
        let message = format_args!("duplicate_fraction must be in [0,1)");
        require((0.0..1.0).contains(&self.duplicate_fraction), name, message)?;
        let message = format_args!("max_cluster_size must be at least 2");
        require(self.max_cluster_size >= 2, name, message)?;
        validate_records(
            name,
            self.vocab_size,
            self.zipf_exponent,
            (self.min_tokens, self.max_tokens),
            &[
                ("distinctive_fraction", self.distinctive_fraction),
                ("confusable_fraction", self.confusable_fraction),
            ],
        )?;
        self.noise.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_clean() -> CleanCleanConfig {
        CleanCleanConfig {
            name: "test".into(),
            e1_size: 100,
            e2_size: 120,
            num_duplicates: 80,
            vocab_size: 500,
            zipf_exponent: 1.0,
            min_tokens: 4,
            max_tokens: 10,
            distinctive_fraction: 0.5,
            confusable_fraction: 0.5,
            noise: NoiseConfig::moderate(),
            seed: 1,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert!(base_clean().validate().is_ok());
    }

    #[test]
    fn too_many_duplicates_rejected() {
        let mut cfg = base_clean();
        cfg.num_duplicates = 101;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_token_range_rejected() {
        let mut cfg = base_clean();
        cfg.min_tokens = 12;
        assert!(cfg.validate().is_err());
        cfg.min_tokens = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn noise_probabilities_validated() {
        let mut cfg = base_clean();
        cfg.noise.drop_probability = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn dirty_config_validation() {
        let cfg = DirtyConfig {
            name: "D10K".into(),
            num_entities: 1000,
            duplicate_fraction: 0.3,
            max_cluster_size: 4,
            vocab_size: 2000,
            zipf_exponent: 1.0,
            min_tokens: 4,
            max_tokens: 10,
            distinctive_fraction: 0.5,
            confusable_fraction: 0.5,
            noise: NoiseConfig::light(),
            seed: 9,
        };
        assert!(cfg.validate().is_ok());
        let mut bad = cfg.clone();
        bad.duplicate_fraction = 1.0;
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.max_cluster_size = 1;
        assert!(bad.validate().is_err());
        // A distinctive fraction above one used to pass and yield records
        // longer than `max_tokens`.
        let mut bad = cfg;
        bad.distinctive_fraction = 2.0;
        assert!(matches!(
            bad.validate(),
            Err(er_core::Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn invalid_vocabularies_are_rejected_not_panicked_on() {
        let dirty = crate::dirty_catalog(&crate::CatalogOptions::tiny())[0].clone();
        let mut bad_dirty = [dirty.clone(), dirty.clone(), dirty];
        bad_dirty[0].vocab_size = 0;
        bad_dirty[1].zipf_exponent = -1.0;
        bad_dirty[2].zipf_exponent = f64::NAN;
        for cfg in bad_dirty {
            assert!(matches!(
                crate::generate_dirty(&cfg),
                Err(er_core::Error::InvalidParameter(_))
            ));
        }
        let mut bad_clean = [base_clean(), base_clean(), base_clean()];
        bad_clean[0].vocab_size = 0;
        bad_clean[1].zipf_exponent = -1.0;
        bad_clean[2].zipf_exponent = f64::NAN;
        for cfg in bad_clean {
            assert!(matches!(
                crate::clean_clean::generate_clean_clean(&cfg),
                Err(er_core::Error::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn noise_presets_are_ordered() {
        assert!(NoiseConfig::light().drop_probability < NoiseConfig::moderate().drop_probability);
        assert!(NoiseConfig::moderate().drop_probability < NoiseConfig::heavy().drop_probability);
    }
}
