//! Synthetic dataset generators for the GSMB reproduction.
//!
//! The paper evaluates on nine real-world Clean-Clean ER benchmarks and five
//! synthetic Dirty ER datasets.  The real benchmarks are not redistributable
//! here, so this crate generates *structural analogues*: datasets whose block
//! co-occurrence structure (redundancy level, block-size skew, class
//! imbalance, fraction of duplicates sharing only one block) matches the
//! published characteristics.  Meta-blocking never inspects raw values — only
//! the co-occurrence structure — so these analogues exercise exactly the same
//! code paths and preserve the paper's qualitative results.
//!
//! See `DESIGN.md` §5 for the substitution rationale.

pub mod catalog;
pub mod clean_clean;
pub mod config;
pub mod dirty;
pub mod noise;
pub mod scalability;
pub mod vocab;

pub use catalog::{dirty_catalog, generate_catalog_dataset, CatalogOptions, DatasetName};
pub use dirty::generate_dirty;
pub use scalability::{generate_scalability, ScalabilityConfig};
pub use vocab::Vocabulary;
