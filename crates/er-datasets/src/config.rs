//! Generator configuration types.

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
    pub fn validate(&self) -> er_core::Result<()> {
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("replace_probability", self.replace_probability),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(er_core::Error::InvalidParameter(format!(
                    "{name} must be in [0,1], got {p}"
                )));
            }
        }
        Ok(())
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
    pub fn validate(&self) -> er_core::Result<()> {
        if self.num_duplicates > self.e1_size || self.num_duplicates > self.e2_size {
            return Err(er_core::Error::InvalidDataset(format!(
                "{}: more duplicates ({}) than entities ({} / {})",
                self.name, self.num_duplicates, self.e1_size, self.e2_size
            )));
        }
        if self.min_tokens == 0 || self.min_tokens > self.max_tokens {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: invalid token range {}..{}",
                self.name, self.min_tokens, self.max_tokens
            )));
        }
        if !(0.0..=1.0).contains(&self.distinctive_fraction) {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: distinctive_fraction must be in [0,1]",
                self.name
            )));
        }
        if !(0.0..=1.0).contains(&self.confusable_fraction) {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: confusable_fraction must be in [0,1]",
                self.name
            )));
        }
        self.noise.validate()
    }
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
    pub fn validate(&self) -> er_core::Result<()> {
        if self.num_entities < 2 {
            return Err(er_core::Error::InvalidDataset(format!(
                "{}: need at least two entities",
                self.name
            )));
        }
        if !(0.0..1.0).contains(&self.duplicate_fraction) {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: duplicate_fraction must be in [0,1)",
                self.name
            )));
        }
        if self.max_cluster_size < 2 {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: max_cluster_size must be at least 2",
                self.name
            )));
        }
        if self.min_tokens == 0 || self.min_tokens > self.max_tokens {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: invalid token range {}..{}",
                self.name, self.min_tokens, self.max_tokens
            )));
        }
        if !(0.0..=1.0).contains(&self.confusable_fraction) {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: confusable_fraction must be in [0,1]",
                self.name
            )));
        }
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
        let mut bad = cfg;
        bad.max_cluster_size = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn noise_presets_are_ordered() {
        assert!(NoiseConfig::light().drop_probability < NoiseConfig::moderate().drop_probability);
        assert!(NoiseConfig::moderate().drop_probability < NoiseConfig::heavy().drop_probability);
    }
}
