//! Size-parameterised synthetic corpora for the scalability harness
//! (10^5 → 10^7 entities).
//!
//! The catalog's Dirty generator ([`crate::generate_dirty`]) keeps every
//! base record alive for the whole run so any later entity can become a
//! confusable variant of it — `O(num_entities)` token lists of working
//! memory on top of the profiles.  That is fine at the paper's D300K scale
//! and wasteful at 10^7.  This generator produces the same *structure*
//! (Zipfian vocabulary, duplicate clusters, confusable hard negatives)
//! with working memory bounded by a fixed ring of recent base records:
//!
//! * the vocabulary grows with the corpus (`vocab_per_entity`) and the token
//!   distribution is mildly Zipfian (exponent 0.5), so the candidate load
//!   per entity stays near-flat as the corpus grows and total work scales
//!   linearly — the load must be bounded *by construction*, not by block
//!   purging, because the purging threshold itself shifts with scale;
//! * duplicates are emitted immediately after their base (cluster locality,
//!   as in the catalog generator);
//! * confusables draw from the last `ScalabilityConfig::RING` bases only.
//!
//! Generation is single-pass and deterministic per seed.

use std::collections::VecDeque;

use er_core::{Dataset, EntityCollection, EntityId, EntityProfile, GroundTruth, Result};
use rand::Rng;

use crate::config::NoiseConfig;
use crate::noise::apply_noise;
use crate::vocab::Vocabulary;

const ATTRIBUTE_NAMES: [&str; 3] = ["name", "address", "details"];

/// Configuration of a scalability corpus.
#[derive(Debug, Clone)]
pub struct ScalabilityConfig {
    /// Dataset name (e.g. "scal-1000000").
    pub name: String,
    /// Total number of entity profiles.
    pub num_entities: usize,
    /// Fraction of profiles that spawn a duplicate cluster.
    pub duplicate_fraction: f64,
    /// Maximum duplicates per cluster (including the original).
    pub max_cluster_size: usize,
    /// Vocabulary tokens per entity; the vocabulary is
    /// `max(1000, num_entities as f64 * vocab_per_entity)` so block sizes
    /// stay flat across corpus sizes.
    pub vocab_per_entity: f64,
    /// Zipf exponent of the vocabulary.
    pub zipf_exponent: f64,
    /// Minimum tokens per profile.
    pub min_tokens: usize,
    /// Maximum tokens per profile.
    pub max_tokens: usize,
    /// Fraction of each base record's tokens drawn from the distinctive
    /// vocabulary tail.
    pub distinctive_fraction: f64,
    /// Fraction of background entities generated as confusable variants of
    /// a recent record (hard negatives).
    pub confusable_fraction: f64,
    /// Fraction of entities generated as *hubs*: all their tokens come from
    /// a compact shared pool (sized `num_entities / 1000`, at least 512), so
    /// they land in mid-size blocks that survive cleaning and carry
    /// candidate lists of several hundred partners.  Hubs keep the
    /// high-degree tail of real dirty corpora present at every scale — the
    /// runs that size the scoreboard's scratch and take the radix passes of
    /// the run sort.
    pub hub_fraction: f64,
    /// Noise applied to duplicate copies.
    pub noise: NoiseConfig,
    /// Generator seed.
    pub seed: u64,
}

impl ScalabilityConfig {
    /// Number of recent base records kept for confusable generation; the
    /// generator's working set beyond the emitted profiles.
    pub(crate) const RING: usize = 512;

    /// The default corpus shape at a given entity count.
    pub fn at_scale(num_entities: usize, seed: u64) -> Self {
        ScalabilityConfig {
            name: format!("scal-{num_entities}"),
            num_entities,
            duplicate_fraction: 0.2,
            max_cluster_size: 4,
            vocab_per_entity: 4.0,
            // With exponent s and vocabulary V ∝ n, per-entity candidate
            // load after cleaning grows like n·Σp² — ~flat (ln V) at s=0.5
            // but superlinear at the catalog's s≈1, which at 10^6+ entities
            // blows past the u32 pair-index limit.  0.5 keeps load bounded
            // by construction while still giving purging a skewed head.
            zipf_exponent: 0.5,
            min_tokens: 5,
            max_tokens: 12,
            distinctive_fraction: 0.5,
            confusable_fraction: 0.3,
            hub_fraction: 0.01,
            noise: NoiseConfig::light(),
            seed,
        }
    }

    /// The vocabulary size this configuration yields.
    pub(crate) fn vocab_size(&self) -> usize {
        ((self.num_entities as f64 * self.vocab_per_entity) as usize).max(1000)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_entities == 0 {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: num_entities must be positive",
                self.name
            )));
        }
        if self.min_tokens == 0 || self.min_tokens > self.max_tokens {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: invalid token range {}..{}",
                self.name, self.min_tokens, self.max_tokens
            )));
        }
        if self.max_cluster_size < 2 {
            return Err(er_core::Error::InvalidParameter(format!(
                "{}: max_cluster_size must be at least 2",
                self.name
            )));
        }
        for (field, value) in [
            ("duplicate_fraction", self.duplicate_fraction),
            ("distinctive_fraction", self.distinctive_fraction),
            ("confusable_fraction", self.confusable_fraction),
            ("hub_fraction", self.hub_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(er_core::Error::InvalidParameter(format!(
                    "{}: {field} must be in [0,1], got {value}",
                    self.name
                )));
            }
        }
        self.noise.validate()
    }
}

fn base_record(cfg: &ScalabilityConfig, vocab: &Vocabulary, rng: &mut impl Rng) -> Vec<usize> {
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

/// Generates a Dirty ER scalability corpus.
pub fn generate_scalability(cfg: &ScalabilityConfig) -> Result<Dataset> {
    cfg.validate()?;
    let vocab = Vocabulary::new(cfg.vocab_size(), cfg.zipf_exponent);
    let mut rng = er_core::seeded_rng(cfg.seed);

    let mut profiles: Vec<EntityProfile> = Vec::with_capacity(cfg.num_entities);
    let mut truth: Vec<(EntityId, EntityId)> = Vec::new();
    let mut recent: VecDeque<Vec<usize>> = VecDeque::with_capacity(ScalabilityConfig::RING);
    // Hub tokens are the *last* pool of the vocabulary — deep-tail ranks
    // that background entities almost never sample at this exponent, so
    // hub block sizes are set by the hub population alone and stay flat
    // relative to the corpus (pool ∝ num_entities).
    let hub_pool = (cfg.num_entities / 1000).clamp(512, vocab.len());

    while profiles.len() < cfg.num_entities {
        // Hubs first: every token from the shared pool.
        let base: Vec<usize> = if rng.gen::<f64>() < cfg.hub_fraction {
            let len = rng.gen_range(cfg.min_tokens..=cfg.max_tokens);
            (0..len)
                .map(|_| vocab.len() - 1 - rng.gen_range(0..hub_pool))
                .collect()
        // Hard negatives: confusable variants of a *recent* record share
        // about half of its tokens without being duplicates.
        } else if !recent.is_empty() && rng.gen::<f64>() < cfg.confusable_fraction {
            let source = &recent[rng.gen_range(0..recent.len())];
            source
                .iter()
                .map(|&token| {
                    if rng.gen::<f64>() < 0.7 {
                        token
                    } else if rng.gen::<f64>() < cfg.distinctive_fraction {
                        vocab.sample_tail(&mut rng, 0.5)
                    } else {
                        vocab.sample(&mut rng)
                    }
                })
                .collect()
        } else {
            base_record(cfg, &vocab, &mut rng)
        };
        let idx = profiles.len();
        profiles.push(render_profile(format!("{}-{idx}", cfg.name), &base, &vocab));

        // Duplicate clusters are emitted right behind their base, so no
        // base needs to stay alive past the ring.
        if rng.gen::<f64>() < cfg.duplicate_fraction && profiles.len() < cfg.num_entities {
            let copies = rng.gen_range(1..cfg.max_cluster_size);
            let mut cluster = vec![EntityId::from(idx)];
            for _ in 0..copies {
                if profiles.len() >= cfg.num_entities {
                    break;
                }
                let copy_tokens = apply_noise(&base, &cfg.noise, &vocab, &mut rng);
                let copy_idx = profiles.len();
                profiles.push(render_profile(
                    format!("{}-{copy_idx}", cfg.name),
                    &copy_tokens,
                    &vocab,
                ));
                cluster.push(EntityId::from(copy_idx));
            }
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    truth.push((cluster[i], cluster[j]));
                }
            }
        }

        if recent.len() == ScalabilityConfig::RING {
            recent.pop_front();
        }
        recent.push_back(base);
    }

    Dataset::dirty(
        cfg.name.clone(),
        EntityCollection::new(cfg.name.clone(), profiles),
        GroundTruth::from_pairs(truth),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::DatasetKind;

    #[test]
    fn corpus_has_requested_size_and_truth() {
        let ds = generate_scalability(&ScalabilityConfig::at_scale(2000, 7)).unwrap();
        assert_eq!(ds.kind, DatasetKind::Dirty);
        assert_eq!(ds.profiles.len(), 2000);
        assert!(!ds.ground_truth.pairs().is_empty());
        assert!(ds.profiles.iter().all(|p| !p.attributes.is_empty()));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_scalability(&ScalabilityConfig::at_scale(1000, 3)).unwrap();
        let b = generate_scalability(&ScalabilityConfig::at_scale(1000, 3)).unwrap();
        let c = generate_scalability(&ScalabilityConfig::at_scale(1000, 4)).unwrap();
        for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(pa.attributes, pb.attributes);
        }
        assert_eq!(a.ground_truth.pairs(), b.ground_truth.pairs());
        assert!(
            a.profiles
                .iter()
                .zip(&c.profiles)
                .any(|(pa, pc)| pa.attributes != pc.attributes),
            "different seeds should differ"
        );
    }

    #[test]
    fn vocabulary_scales_with_corpus() {
        let small = ScalabilityConfig::at_scale(10_000, 1);
        let large = ScalabilityConfig::at_scale(1_000_000, 1);
        assert_eq!(small.vocab_size(), 40_000);
        assert_eq!(large.vocab_size(), 4_000_000);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = ScalabilityConfig::at_scale(100, 1);
        cfg.num_entities = 0;
        assert!(generate_scalability(&cfg).is_err());
        let mut cfg = ScalabilityConfig::at_scale(100, 1);
        cfg.duplicate_fraction = 1.5;
        assert!(generate_scalability(&cfg).is_err());
    }
}
