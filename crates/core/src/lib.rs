//! Generalized Supervised Meta-blocking.
//!
//! This crate implements the paper's primary contribution: casting
//! meta-blocking as a *probabilistic* binary classification task and feeding
//! the per-pair matching probabilities to weight-based and cardinality-based
//! pruning algorithms.
//!
//! * [`scoring`] — probability sources (cached scores or model-on-the-fly);
//! * [`pruning`] — the supervised pruning algorithms WEP, WNP, RWNP, BLAST,
//!   CEP, CNP, RCNP and the BCl baseline of the original Supervised
//!   Meta-blocking paper;
//! * [`pipeline`] — the end-to-end `blocking → features → training → scoring →
//!   pruning` workflow with run-time accounting; its `prepare` and `train`
//!   stages are the ones the streaming bootstrap and `er-eval` run too;
//! * [`streaming`] — the incremental counterpart: bootstrap a classifier on a
//!   seed corpus, ingest live batches through `er_stream`, and progressively
//!   re-rank candidates;
//! * [`durable`] — crash durability for the streaming pipeline: snapshots of
//!   the index + model + schedule plus a mutation write-ahead log
//!   (`persist_to`/`recover_from`).
//!
//! ```
//! use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
//! use meta_blocking::pipeline::{ClassifierKind, MetaBlockingConfig, MetaBlockingPipeline};
//! use meta_blocking::pruning::AlgorithmKind;
//!
//! let dataset = generate_catalog_dataset(DatasetName::AbtBuy, &CatalogOptions::tiny()).unwrap();
//! let config = MetaBlockingConfig::default();
//! let outcome = MetaBlockingPipeline::new(config)
//!     .run(&dataset, AlgorithmKind::Blast)
//!     .unwrap();
//! assert!(outcome.retained.len() <= outcome.num_candidates);
//! ```

pub mod durable;
pub mod live_view;
pub mod materialize;
mod obs;
pub mod pipeline;
pub mod progressive;
pub mod pruning;
pub mod scoring;
pub mod streaming;

pub use durable::DurableStreamingPipeline;
pub use live_view::LiveView;
pub use materialize::{materialize_blocks_csr, PruningSummary};
pub use pipeline::{ClassifierKind, MetaBlockingConfig, MetaBlockingOutcome, MetaBlockingPipeline};
pub use progressive::{ProgressiveSchedule, StreamingSchedule};
pub use pruning::{AlgorithmKind, CardinalityThresholds};
pub use scoring::{CachedScores, ModelScorer, ProbabilitySource};
pub use streaming::StreamingPipeline;
