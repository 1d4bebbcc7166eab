//! Clean-Clean ER dataset generation.
//!
//! Each dataset consists of two duplicate-free collections E1 and E2 that
//! overlap on `num_duplicates` real-world objects.  A *base record* (a token
//! multiset mixing distinctive tail tokens with frequent head tokens) is
//! generated per object; E1 receives the base record and E2 receives a noised
//! copy.  Both collections are padded with non-matching background entities
//! whose head tokens create the superfluous co-occurrences that make the raw
//! block collections so imprecise (Table 2 of the paper).

use er_core::{Dataset, EntityCollection, EntityId, EntityProfile, GroundTruth, Result};
use rand::Rng;

use crate::config::CleanCleanConfig;
use crate::noise::apply_noise;
use crate::vocab::Vocabulary;

/// Attribute names cycled through when rendering token lists into profiles.
/// The names themselves are irrelevant to schema-agnostic blocking.
const ATTRIBUTE_NAMES: [&str; 3] = ["title", "description", "misc"];

/// Generates a base record: a mixture of distinctive (tail) and frequent
/// (head) tokens.
fn base_record(cfg: &CleanCleanConfig, vocab: &Vocabulary, rng: &mut impl Rng) -> Vec<usize> {
    let len = rng.gen_range(cfg.min_tokens..=cfg.max_tokens);
    let distinctive = ((len as f64) * cfg.distinctive_fraction).round() as usize;
    let mut tokens = Vec::with_capacity(len);
    for _ in 0..distinctive {
        tokens.push(vocab.sample_tail(rng, 0.5));
    }
    for _ in distinctive..len {
        tokens.push(vocab.sample(rng));
    }
    tokens
}

/// Generates a *confusable* background record: a non-matching entity that
/// shares roughly half of its tokens with an existing base record (products of
/// the same family, papers by the same authors, …).  These hard negatives keep
/// the classification task realistically difficult.
fn confusable_record(
    source: &[usize],
    cfg: &CleanCleanConfig,
    vocab: &Vocabulary,
    rng: &mut impl Rng,
) -> Vec<usize> {
    source
        .iter()
        .map(|&token| {
            if rng.gen::<f64>() < 0.7 {
                token
            } else if rng.gen::<f64>() < cfg.distinctive_fraction {
                vocab.sample_tail(rng, 0.5)
            } else {
                vocab.sample(rng)
            }
        })
        .collect()
}

/// Renders a token-index list into an entity profile, spreading the tokens
/// over a few attributes.
fn render_profile(external_id: String, tokens: &[usize], vocab: &Vocabulary) -> EntityProfile {
    let mut profile = EntityProfile::new(external_id);
    if tokens.is_empty() {
        return profile;
    }
    let per_attr = tokens.len().div_ceil(ATTRIBUTE_NAMES.len()).max(1);
    for (i, chunk) in tokens.chunks(per_attr).enumerate() {
        let value = chunk
            .iter()
            .map(|&t| vocab.token(t))
            .collect::<Vec<_>>()
            .join(" ");
        profile.push_attribute(ATTRIBUTE_NAMES[i % ATTRIBUTE_NAMES.len()], value);
    }
    profile
}

/// Generates a Clean-Clean ER dataset according to the configuration.
pub(crate) fn generate_clean_clean(cfg: &CleanCleanConfig) -> Result<Dataset> {
    cfg.validate()?;
    let vocab = Vocabulary::new(cfg.vocab_size, cfg.zipf_exponent);
    let mut rng = er_core::seeded_rng(cfg.seed);

    let mut e1_profiles = Vec::with_capacity(cfg.e1_size);
    let mut e2_profiles = Vec::with_capacity(cfg.e2_size);
    let mut truth = Vec::with_capacity(cfg.num_duplicates);
    let mut bases: Vec<Vec<usize>> = Vec::with_capacity(cfg.num_duplicates);

    // Matched objects: base record in E1, noised copy in E2.
    for d in 0..cfg.num_duplicates {
        let base = base_record(cfg, &vocab, &mut rng);
        let copy = apply_noise(&base, &cfg.noise, &vocab, &mut rng);
        e1_profiles.push(render_profile(format!("{}-a{d}", cfg.name), &base, &vocab));
        e2_profiles.push(render_profile(format!("{}-b{d}", cfg.name), &copy, &vocab));
        truth.push((EntityId::from(d), EntityId::from(cfg.e1_size + d)));
        bases.push(base);
    }

    // Background (non-matching) entities: either fresh records or confusable
    // variants of an existing one.
    let background = |rng: &mut rand::rngs::StdRng, bases: &[Vec<usize>]| -> Vec<usize> {
        if !bases.is_empty() && rng.gen::<f64>() < cfg.confusable_fraction {
            let source = &bases[rng.gen_range(0..bases.len())];
            confusable_record(source, cfg, &vocab, rng)
        } else {
            base_record(cfg, &vocab, rng)
        }
    };
    for i in cfg.num_duplicates..cfg.e1_size {
        let tokens = background(&mut rng, &bases);
        e1_profiles.push(render_profile(
            format!("{}-a{i}", cfg.name),
            &tokens,
            &vocab,
        ));
    }
    for i in cfg.num_duplicates..cfg.e2_size {
        let tokens = background(&mut rng, &bases);
        e2_profiles.push(render_profile(
            format!("{}-b{i}", cfg.name),
            &tokens,
            &vocab,
        ));
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
