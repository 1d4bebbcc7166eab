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

use er_core::{Dataset, Result};
use rand::Rng;

use crate::config::{require, validate_records, NoiseConfig};
use crate::dirty::{DirtyCorpus, ATTRIBUTE_NAMES};
use crate::record::RecordEngine;

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
        let name = &self.name;
        let message = format_args!("num_entities must be positive");
        require(self.num_entities > 0, name, message)?;
        let message = format_args!("max_cluster_size must be at least 2");
        require(self.max_cluster_size >= 2, name, message)?;
        validate_records(
            name,
            self.vocab_size(),
            self.zipf_exponent,
            (self.min_tokens, self.max_tokens),
            &[
                ("duplicate_fraction", self.duplicate_fraction),
                ("distinctive_fraction", self.distinctive_fraction),
                ("confusable_fraction", self.confusable_fraction),
                ("hub_fraction", self.hub_fraction),
            ],
        )?;
        self.noise.validate()
    }
}

/// Generates a Dirty ER scalability corpus.
pub fn generate_scalability(cfg: &ScalabilityConfig) -> Result<Dataset> {
    cfg.validate()?;
    let vocab_len = cfg.vocab_size();
    let records = RecordEngine::new(
        &cfg.name,
        &ATTRIBUTE_NAMES,
        vocab_len,
        cfg.zipf_exponent,
        (cfg.min_tokens, cfg.max_tokens),
        cfg.distinctive_fraction,
        cfg.noise,
    );
    let mut corpus = DirtyCorpus::new(
        records,
        cfg.num_entities,
        cfg.duplicate_fraction,
        cfg.max_cluster_size,
    );
    let mut rng = er_core::seeded_rng(cfg.seed);
    let mut recent: VecDeque<Vec<usize>> = VecDeque::with_capacity(ScalabilityConfig::RING);
    // Hub tokens are the *last* pool of the vocabulary — deep-tail ranks
    // that background entities almost never sample at this exponent, so
    // hub block sizes are set by the hub population alone and stay flat
    // relative to the corpus (pool ∝ num_entities).
    let hub_pool = (cfg.num_entities / 1000).clamp(512, vocab_len);

    while !corpus.is_full() {
        // Hubs first: every token from the shared pool.
        let base: Vec<usize> = if rng.gen::<f64>() < cfg.hub_fraction {
            let len = rng.gen_range(cfg.min_tokens..=cfg.max_tokens);
            (0..len)
                .map(|_| vocab_len - 1 - rng.gen_range(0..hub_pool))
                .collect()
        // Hard negatives: confusable variants of a *recent* record share
        // about half of its tokens without being duplicates.
        } else if !recent.is_empty() && rng.gen::<f64>() < cfg.confusable_fraction {
            corpus
                .records
                .confusable(&recent[rng.gen_range(0..recent.len())], &mut rng)
        } else {
            corpus.records.base(&mut rng)
        };
        // Duplicate clusters are emitted right behind their base, so no
        // base needs to stay alive past the ring.
        corpus.push_with_duplicates(&base, &mut rng);
        if recent.len() == ScalabilityConfig::RING {
            recent.pop_front();
        }
        recent.push_back(base);
    }
    corpus.finish(&cfg.name)
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
        // These used to panic inside the vocabulary instead.
        for exponent in [-0.5, f64::NAN] {
            let mut cfg = ScalabilityConfig::at_scale(100, 1);
            cfg.zipf_exponent = exponent;
            assert!(matches!(
                generate_scalability(&cfg),
                Err(er_core::Error::InvalidParameter(_))
            ));
        }
    }
}
