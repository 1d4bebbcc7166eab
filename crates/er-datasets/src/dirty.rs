//! Dirty ER dataset generation (the scalability datasets D10K…D300K).
//!
//! A dirty dataset is a single collection containing duplicate *clusters*: a
//! base record plus one or more noised copies.  The ground truth consists of
//! every within-cluster pair.  Cluster sizes follow the configuration's
//! `max_cluster_size`; non-duplicated background entities fill the remainder.

use er_core::{Dataset, EntityCollection, EntityId, EntityProfile, GroundTruth, Result};
use rand::Rng;

use crate::config::DirtyConfig;
use crate::record::RecordEngine;

/// Attribute names of both Dirty generators' profiles.
pub(crate) const ATTRIBUTE_NAMES: [&str; 3] = ["name", "address", "details"];

/// A Dirty corpus under construction, shared by [`generate_dirty`] and the
/// scalability generator: profiles in id order plus the match pairs.
pub(crate) struct DirtyCorpus<'a> {
    pub(crate) records: RecordEngine<'a>,
    profiles: Vec<EntityProfile>,
    truth: Vec<(EntityId, EntityId)>,
    num_entities: usize,
    duplicate_fraction: f64,
    max_cluster_size: usize,
}

impl<'a> DirtyCorpus<'a> {
    pub(crate) fn new(
        records: RecordEngine<'a>,
        num_entities: usize,
        duplicate_fraction: f64,
        max_cluster_size: usize,
    ) -> Self {
        DirtyCorpus {
            records,
            profiles: Vec::with_capacity(num_entities),
            truth: Vec::new(),
            num_entities,
            duplicate_fraction,
            max_cluster_size,
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.profiles.len() >= self.num_entities
    }

    /// Pushes `base` as the next profile and, with probability
    /// `duplicate_fraction`, a cluster of up to `max_cluster_size − 1`
    /// noised copies right behind it (never past `num_entities`).  Every
    /// within-cluster pair is a match.
    pub(crate) fn push_with_duplicates(&mut self, base: &[usize], rng: &mut impl Rng) {
        let idx = self.profiles.len();
        self.profiles.push(self.records.render("", idx, base));
        if rng.gen::<f64>() < self.duplicate_fraction && !self.is_full() {
            let copies = rng.gen_range(1..self.max_cluster_size);
            let mut cluster = vec![EntityId::from(idx)];
            for _ in 0..copies {
                if self.is_full() {
                    break;
                }
                let copy = self.records.noised(base, rng);
                cluster.push(EntityId::from(self.profiles.len()));
                self.profiles
                    .push(self.records.render("", self.profiles.len(), &copy));
            }
            for (i, &a) in cluster.iter().enumerate() {
                self.truth.extend(cluster[i + 1..].iter().map(|&b| (a, b)));
            }
        }
    }

    pub(crate) fn finish(self, name: &str) -> Result<Dataset> {
        Dataset::dirty(
            name,
            EntityCollection::new(name, self.profiles),
            GroundTruth::from_pairs(self.truth),
        )
    }
}

/// Generates a Dirty ER dataset according to the configuration.
pub fn generate_dirty(cfg: &DirtyConfig) -> Result<Dataset> {
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
    let mut corpus = DirtyCorpus::new(
        records,
        cfg.num_entities,
        cfg.duplicate_fraction,
        cfg.max_cluster_size,
    );
    let mut rng = er_core::seeded_rng(cfg.seed);
    let mut bases: Vec<Vec<usize>> = Vec::new();
    while !corpus.is_full() {
        // Hard negatives: some records are confusable variants of an earlier
        // one (they share about half of its tokens without being duplicates).
        let base = if !bases.is_empty() && rng.gen::<f64>() < cfg.confusable_fraction {
            corpus
                .records
                .confusable(&bases[rng.gen_range(0..bases.len())], &mut rng)
        } else {
            corpus.records.base(&mut rng)
        };
        corpus.push_with_duplicates(&base, &mut rng);
        bases.push(base);
    }
    corpus.finish(&cfg.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoiseConfig;
    use er_core::DatasetKind;

    fn config(num_entities: usize, seed: u64) -> DirtyConfig {
        DirtyConfig {
            name: "dirty-test".into(),
            num_entities,
            duplicate_fraction: 0.3,
            max_cluster_size: 4,
            vocab_size: 3000,
            zipf_exponent: 1.05,
            min_tokens: 5,
            max_tokens: 12,
            distinctive_fraction: 0.5,
            confusable_fraction: 0.4,
            noise: NoiseConfig::light(),
            seed,
        }
    }

    #[test]
    fn entity_count_matches() {
        let ds = generate_dirty(&config(500, 1)).unwrap();
        assert_eq!(ds.kind, DatasetKind::Dirty);
        assert_eq!(ds.num_entities(), 500);
    }

    #[test]
    fn has_duplicates_and_they_are_valid() {
        let ds = generate_dirty(&config(800, 2)).unwrap();
        assert!(ds.num_duplicates() > 0);
        let n = ds.num_entities() as u32;
        for &(a, b) in ds.ground_truth.pairs() {
            assert!(a.0 < n && b.0 < n && a != b);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_dirty(&config(300, 5)).unwrap();
        let b = generate_dirty(&config(300, 5)).unwrap();
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.ground_truth.pairs(), b.ground_truth.pairs());
    }

    #[test]
    fn duplicate_fraction_influences_truth_size() {
        let few = generate_dirty(&DirtyConfig {
            duplicate_fraction: 0.05,
            ..config(1000, 3)
        })
        .unwrap();
        let many = generate_dirty(&DirtyConfig {
            duplicate_fraction: 0.45,
            ..config(1000, 3)
        })
        .unwrap();
        assert!(many.num_duplicates() > few.num_duplicates());
    }

    #[test]
    fn larger_datasets_have_more_duplicates() {
        let small = generate_dirty(&config(300, 4)).unwrap();
        let large = generate_dirty(&config(1500, 4)).unwrap();
        assert!(large.num_duplicates() > small.num_duplicates());
    }
}
