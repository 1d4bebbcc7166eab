//! Named dataset recipes mirroring the paper's benchmarks.
//!
//! Each [`DatasetName`] names a structural analogue of one of
//! the nine real-world Clean-Clean ER datasets in Table 1 of the paper, and
//! [`dirty_catalog`] mirrors the five synthetic Dirty ER datasets used in the
//! scalability analysis (Figures 17/18).
//!
//! Entity counts are scaled down from the originals so the full experiment
//! suite runs on a laptop (the two largest datasets stay the largest, which is
//! the only property the paper's run-time comparisons rely on); the relative
//! ordering of |C| and the noise level (which controls how many duplicates
//! share only one block, and therefore the achievable recall) follow Table 1
//! and Table 2.  Pass a larger [`CatalogOptions::scale`] to approach the
//! original sizes.

use er_core::{Dataset, Result};

use crate::clean_clean::generate_clean_clean;
use crate::config::{CleanCleanConfig, DirtyConfig, NoiseConfig};

/// The nine Clean-Clean ER benchmarks of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Products from Abt.com and Buy.com (noisy, recall-limited).
    AbtBuy,
    /// Bibliographic records from DBLP and ACM (clean, near-perfect recall).
    DblpAcm,
    /// Bibliographic records from Google Scholar and DBLP.
    ScholarDblp,
    /// Products from Amazon and Google Products (the noisiest dataset).
    AmazonGP,
    /// Movies from IMDB and TheMovieDB.
    ImdbTmdb,
    /// Movies/series from IMDB and TheTVDB.
    ImdbTvdb,
    /// Movies/series from TheMovieDB and TheTVDB.
    TmdbTvdb,
    /// Films from imdb.com and dbpedia.org (largest candidate set).
    Movies,
    /// Products from Walmart.com and Amazon.com (second largest candidate set).
    WalmartAmazon,
}

impl DatasetName {
    /// All nine datasets in the order of Table 1 (increasing |C|).
    pub fn all() -> [DatasetName; 9] {
        [
            DatasetName::AbtBuy,
            DatasetName::DblpAcm,
            DatasetName::ScholarDblp,
            DatasetName::AmazonGP,
            DatasetName::ImdbTmdb,
            DatasetName::ImdbTvdb,
            DatasetName::TmdbTvdb,
            DatasetName::Movies,
            DatasetName::WalmartAmazon,
        ]
    }

    /// The two run-time comparison datasets (the largest by |C|).
    pub fn largest_two() -> [DatasetName; 2] {
        [DatasetName::Movies, DatasetName::WalmartAmazon]
    }
}

impl std::fmt::Display for DatasetName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DatasetName::AbtBuy => "AbtBuy",
            DatasetName::DblpAcm => "DblpAcm",
            DatasetName::ScholarDblp => "ScholarDblp",
            DatasetName::AmazonGP => "AmazonGP",
            DatasetName::ImdbTmdb => "ImdbTmdb",
            DatasetName::ImdbTvdb => "ImdbTvdb",
            DatasetName::TmdbTvdb => "TmdbTvdb",
            DatasetName::Movies => "Movies",
            DatasetName::WalmartAmazon => "WalmartAmazon",
        };
        f.write_str(s)
    }
}

/// Options controlling the size of the generated analogues.
#[derive(Debug, Clone, Copy)]
pub struct CatalogOptions {
    /// Multiplier on the (already laptop-scaled) entity counts of each recipe.
    pub scale: f64,
    /// Multiplier on the nominal entity counts of the Dirty scalability
    /// datasets (D10K…D300K); the default of 0.05 yields 500…15 000 entities.
    pub dirty_scale: f64,
    /// Base random seed; each dataset derives its own seed from this.
    pub seed: u64,
}

impl Default for CatalogOptions {
    fn default() -> Self {
        CatalogOptions {
            scale: 1.0,
            dirty_scale: 0.05,
            seed: 0x5eed_0001,
        }
    }
}

impl CatalogOptions {
    /// A reduced-size catalog for fast unit/integration tests.
    pub fn tiny() -> Self {
        CatalogOptions {
            scale: 0.2,
            dirty_scale: 0.01,
            seed: 0x5eed_0002,
        }
    }
}

fn scaled(value: usize, scale: f64) -> usize {
    ((value as f64 * scale).round() as usize).max(10)
}

/// Returns the configuration of one named Clean-Clean benchmark analogue.
pub(crate) fn clean_clean_config(name: DatasetName, options: &CatalogOptions) -> CleanCleanConfig {
    // (e1, e2, duplicates, vocab, zipf, min_tok, max_tok, distinctive,
    //  confusable, noise)
    let (e1, e2, dups, vocab, zipf, min_tok, max_tok, distinctive, confusable, noise) = match name {
        DatasetName::AbtBuy => (
            1100,
            1100,
            1050,
            6_000,
            0.95,
            5,
            11,
            0.45,
            0.60,
            NoiseConfig::heavy(),
        ),
        DatasetName::DblpAcm => (
            2600,
            2300,
            2200,
            14_000,
            0.90,
            7,
            14,
            0.55,
            0.35,
            NoiseConfig::light(),
        ),
        DatasetName::ScholarDblp => (
            2500,
            6100,
            2300,
            28_000,
            0.90,
            7,
            14,
            0.55,
            0.55,
            NoiseConfig::light(),
        ),
        DatasetName::AmazonGP => (
            1400,
            3300,
            1300,
            9_000,
            0.95,
            5,
            11,
            0.40,
            0.70,
            NoiseConfig::heavy(),
        ),
        DatasetName::ImdbTmdb => (
            2550,
            3000,
            950,
            12_000,
            0.95,
            5,
            12,
            0.50,
            0.45,
            NoiseConfig::moderate(),
        ),
        DatasetName::ImdbTvdb => (
            2550,
            3900,
            550,
            13_000,
            0.95,
            5,
            12,
            0.45,
            0.60,
            NoiseConfig::heavy(),
        ),
        DatasetName::TmdbTvdb => (
            3000,
            3900,
            550,
            13_000,
            0.95,
            5,
            12,
            0.45,
            0.60,
            NoiseConfig::heavy(),
        ),
        DatasetName::Movies => (
            5000,
            4200,
            4000,
            10_000,
            1.00,
            6,
            13,
            0.45,
            0.70,
            NoiseConfig::moderate(),
        ),
        DatasetName::WalmartAmazon => (
            2500,
            8000,
            1000,
            9_000,
            1.00,
            5,
            12,
            0.40,
            0.85,
            NoiseConfig::light(),
        ),
    };
    let dups = scaled(dups, options.scale)
        .min(scaled(e1, options.scale))
        .min(scaled(e2, options.scale));
    CleanCleanConfig {
        name: name.to_string(),
        e1_size: scaled(e1, options.scale),
        e2_size: scaled(e2, options.scale),
        num_duplicates: dups,
        vocab_size: scaled(vocab, options.scale.max(0.25)),
        zipf_exponent: zipf,
        min_tokens: min_tok,
        max_tokens: max_tok,
        distinctive_fraction: distinctive,
        confusable_fraction: confusable,
        noise,
        seed: er_core::rng::derive_seed(options.seed, name as u64),
    }
}

/// Generates one named Clean-Clean benchmark analogue.
pub fn generate_catalog_dataset(name: DatasetName, options: &CatalogOptions) -> Result<Dataset> {
    generate_clean_clean(&clean_clean_config(name, options))
}

/// The configurations of the five Dirty ER scalability datasets
/// (D10K, D50K, D100K, D200K, D300K).
pub fn dirty_catalog(options: &CatalogOptions) -> Vec<DirtyConfig> {
    let nominal = [10_000usize, 50_000, 100_000, 200_000, 300_000];
    let names = ["D10K", "D50K", "D100K", "D200K", "D300K"];
    nominal
        .iter()
        .zip(names)
        .map(|(&n, name)| {
            let entities = scaled(n, options.dirty_scale).max(100);
            DirtyConfig {
                name: name.to_string(),
                num_entities: entities,
                duplicate_fraction: 0.30,
                max_cluster_size: 4,
                vocab_size: (entities * 6).max(1000),
                zipf_exponent: 0.95,
                min_tokens: 6,
                max_tokens: 12,
                distinctive_fraction: 0.5,
                confusable_fraction: 0.5,
                noise: NoiseConfig::light(),
                seed: er_core::rng::derive_seed(options.seed, 100 + n as u64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_clean_catalog(options: &CatalogOptions) -> Vec<CleanCleanConfig> {
        DatasetName::all()
            .into_iter()
            .map(|name| clean_clean_config(name, options))
            .collect()
    }

    #[test]
    fn catalog_has_nine_entries_in_table1_order() {
        let configs = clean_clean_catalog(&CatalogOptions::default());
        assert_eq!(configs.len(), 9);
        assert_eq!(configs[0].name, "AbtBuy");
        assert_eq!(configs[8].name, "WalmartAmazon");
    }

    #[test]
    fn configs_are_valid() {
        for cfg in clean_clean_catalog(&CatalogOptions::default()) {
            assert!(cfg.validate().is_ok(), "{} invalid", cfg.name);
        }
        for cfg in dirty_catalog(&CatalogOptions::default()) {
            assert!(cfg.validate().is_ok(), "{} invalid", cfg.name);
        }
    }

    #[test]
    fn scaling_shrinks_entity_counts() {
        let full = clean_clean_config(DatasetName::Movies, &CatalogOptions::default());
        let tiny = clean_clean_config(DatasetName::Movies, &CatalogOptions::tiny());
        assert!(tiny.e1_size < full.e1_size);
        assert!(tiny.num_duplicates <= tiny.e1_size.min(tiny.e2_size));
    }

    #[test]
    fn tiny_catalog_generates_quickly_and_correctly() {
        let options = CatalogOptions::tiny();
        let ds = generate_catalog_dataset(DatasetName::AbtBuy, &options).unwrap();
        assert!(ds.num_entities() > 0);
        assert!(ds.num_duplicates() > 0);
    }

    #[test]
    fn dirty_catalog_sizes_increase() {
        let configs = dirty_catalog(&CatalogOptions::default());
        assert_eq!(configs.len(), 5);
        assert_eq!(configs[0].name, "D10K");
        assert_eq!(configs[4].name, "D300K");
        for w in configs.windows(2) {
            assert!(w[0].num_entities < w[1].num_entities);
        }
    }

    #[test]
    fn seeds_differ_across_datasets() {
        let options = CatalogOptions::default();
        let seeds: std::collections::HashSet<u64> = clean_clean_catalog(&options)
            .into_iter()
            .map(|c| c.seed)
            .collect();
        assert_eq!(seeds.len(), 9);
    }

    #[test]
    fn largest_two_are_movies_and_walmart() {
        assert_eq!(
            DatasetName::largest_two(),
            [DatasetName::Movies, DatasetName::WalmartAmazon]
        );
    }
}
