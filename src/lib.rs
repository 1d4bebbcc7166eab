//! # Generalized Supervised Meta-blocking (GSMB)
//!
//! A from-scratch Rust reproduction of *Generalized Supervised Meta-blocking*
//! (PVLDB 2022): meta-blocking for Entity Resolution cast as a probabilistic
//! binary classification task, with weight- and cardinality-based pruning
//! algorithms consuming the per-pair matching probabilities.
//!
//! This facade crate re-exports the workspace crates under short module
//! names; see the individual crates for the full APIs:
//!
//! * [`core`] (`er-core`) — entity profiles, collections, ground truth;
//! * [`datasets`] (`er-datasets`) — synthetic benchmark generators;
//! * [`blocking`] (`er-blocking`) — Token Blocking, Purging, Filtering,
//!   candidate pairs and block statistics;
//! * [`features`] (`er-features`) — the eight weighting schemes and feature
//!   matrices;
//! * [`learn`] (`er-learn`) — logistic regression, linear SVM + Platt scaling,
//!   balanced sampling;
//! * [`meta`] (`meta-blocking`) — the pruning algorithms and the end-to-end
//!   pipeline (the paper's contribution);
//! * [`stream`] (`er-stream`) — incremental meta-blocking: ingest entity
//!   batches, emit delta candidates, compact back to the batch state;
//! * [`persist`] (`er-persist`) — durability: the versioned, checksummed
//!   binary codec, atomic snapshots and the mutation write-ahead log behind
//!   `shard::DurableShardedService` (one shard for an unsharded blocker)
//!   and `meta::DurableStreamingPipeline`;
//! * [`shard`] (`er-shard`) — the sharded streaming service: hash-partitioned
//!   posting shards, per-shard WALs with group commit, atomic cross-shard
//!   checkpoints and epoch-published wait-free reads;
//! * [`obs`] (`er-obs`) — the dependency-free observability layer: lock-free
//!   counters/gauges/histograms, structured events, Prometheus and JSON
//!   exporters, threaded through every pipeline, durability and shard path;
//! * [`eval`] (`er-eval`) — metrics and the experiment harness behind every
//!   table and figure.
//!
//! ## Quick start
//!
//! ```
//! use gsmb::datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
//! use gsmb::meta::pipeline::{MetaBlockingConfig, MetaBlockingPipeline};
//! use gsmb::meta::pruning::AlgorithmKind;
//! use gsmb::eval::Effectiveness;
//!
//! let dataset = generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
//! let outcome = MetaBlockingPipeline::new(MetaBlockingConfig::default())
//!     .run(&dataset, AlgorithmKind::Blast)
//!     .unwrap();
//! let effectiveness = Effectiveness::evaluate(
//!     &outcome.retained_pairs(),
//!     &dataset.ground_truth,
//!     dataset.num_duplicates(),
//! );
//! assert!(effectiveness.recall > 0.0);
//! ```

pub use er_blocking as blocking;
pub use er_core as core;
pub use er_datasets as datasets;
pub use er_eval as eval;
pub use er_features as features;
pub use er_learn as learn;
pub use er_obs as obs;
pub use er_persist as persist;
pub use er_shard as shard;
pub use er_stream as stream;
pub use meta_blocking as meta;
