//! Clean-Clean ER dataset generation.
//!
//! Each dataset consists of two duplicate-free collections E1 and E2 that
//! overlap on `num_duplicates` real-world objects.  A *base record* (a token
//! multiset mixing distinctive tail tokens with frequent head tokens) is
//! generated per object; E1 receives the base record and E2 receives a noised
//! copy.  Both collections are padded with non-matching background entities
//! whose head tokens create the superfluous co-occurrences that make the raw
//! block collections so imprecise (Table 2 of the paper).

use er_core::{Dataset, EntityCollection, EntityId, GroundTruth, Result};
use rand::Rng;

use crate::config::CleanCleanConfig;
use crate::record::RecordEngine;

const ATTRIBUTE_NAMES: [&str; 3] = ["title", "description", "misc"];

/// Generates a Clean-Clean ER dataset according to the configuration.
pub(crate) fn generate_clean_clean(cfg: &CleanCleanConfig) -> Result<Dataset> {
    cfg.validate()?;
    let records = RecordEngine::new(
        &cfg.name,
        &ATTRIBUTE_NAMES,
        cfg.vocab_size,
        cfg.zipf_exponent,
        (cfg.min_tokens, cfg.max_tokens),
        cfg.distinctive_fraction,
        cfg.noise,
    );
    let mut rng = er_core::seeded_rng(cfg.seed);

    let mut e1_profiles = Vec::with_capacity(cfg.e1_size);
    let mut e2_profiles = Vec::with_capacity(cfg.e2_size);
    let mut truth = Vec::with_capacity(cfg.num_duplicates);
    let mut bases: Vec<Vec<usize>> = Vec::with_capacity(cfg.num_duplicates);

    // Matched objects: base record in E1, noised copy in E2.
    for d in 0..cfg.num_duplicates {
        let base = records.base(&mut rng);
        let copy = records.noised(&base, &mut rng);
        e1_profiles.push(records.render("a", d, &base));
        e2_profiles.push(records.render("b", d, &copy));
        truth.push((EntityId::from(d), EntityId::from(cfg.e1_size + d)));
        bases.push(base);
    }

    // Background (non-matching) entities: either fresh records or confusable
    // variants of an existing one.
    let background = |rng: &mut rand::rngs::StdRng| -> Vec<usize> {
        if !bases.is_empty() && rng.gen::<f64>() < cfg.confusable_fraction {
            records.confusable(&bases[rng.gen_range(0..bases.len())], rng)
        } else {
            records.base(rng)
        }
    };
    for i in cfg.num_duplicates..cfg.e1_size {
        e1_profiles.push(records.render("a", i, &background(&mut rng)));
    }
    for i in cfg.num_duplicates..cfg.e2_size {
        e2_profiles.push(records.render("b", i, &background(&mut rng)));
    }

    Dataset::clean_clean(
        cfg.name.clone(),
        EntityCollection::new(format!("{}-E1", cfg.name), e1_profiles),
        EntityCollection::new(format!("{}-E2", cfg.name), e2_profiles),
        GroundTruth::from_pairs(truth),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoiseConfig;
    use er_core::DatasetKind;

    fn config(seed: u64) -> CleanCleanConfig {
        CleanCleanConfig {
            name: "synthetic".into(),
            e1_size: 200,
            e2_size: 250,
            num_duplicates: 150,
            vocab_size: 1500,
            zipf_exponent: 1.05,
            min_tokens: 5,
            max_tokens: 12,
            distinctive_fraction: 0.5,
            confusable_fraction: 0.5,
            noise: NoiseConfig::moderate(),
            seed,
        }
    }

    #[test]
    fn sizes_match_configuration() {
        let ds = generate_clean_clean(&config(1)).unwrap();
        assert_eq!(ds.kind, DatasetKind::CleanClean);
        assert_eq!(ds.len_e1(), 200);
        assert_eq!(ds.len_e2(), 250);
        assert_eq!(ds.num_duplicates(), 150);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_clean_clean(&config(7)).unwrap();
        let b = generate_clean_clean(&config(7)).unwrap();
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.ground_truth.pairs(), b.ground_truth.pairs());
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = generate_clean_clean(&config(1)).unwrap();
        let b = generate_clean_clean(&config(2)).unwrap();
        assert_ne!(a.profiles, b.profiles);
    }

    #[test]
    fn duplicates_share_tokens_usually() {
        let ds = generate_clean_clean(&config(3)).unwrap();
        let mut sharing = 0usize;
        for &(a, b) in ds.ground_truth.pairs() {
            let ta: std::collections::HashSet<_> =
                ds.profile(a).value_tokens().into_iter().collect();
            let tb: std::collections::HashSet<_> =
                ds.profile(b).value_tokens().into_iter().collect();
            if ta.intersection(&tb).next().is_some() {
                sharing += 1;
            }
        }
        // With moderate noise the vast majority of duplicates must still share
        // at least one token (otherwise blocking recall would collapse).
        assert!(
            sharing as f64 / ds.num_duplicates() as f64 > 0.9,
            "only {sharing} of {} duplicates share a token",
            ds.num_duplicates()
        );
    }

    #[test]
    fn no_profile_is_empty() {
        let ds = generate_clean_clean(&config(4)).unwrap();
        assert!(ds.profiles.iter().all(|p| !p.is_effectively_empty()));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = config(1);
        cfg.num_duplicates = 10_000;
        assert!(generate_clean_clean(&cfg).is_err());
    }
}
