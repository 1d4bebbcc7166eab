//! Weighting schemes and feature-vector generation for (Generalized)
//! Supervised Meta-blocking.
//!
//! Every candidate pair is represented as a vector of *weighting-scheme*
//! scores, each proportional to the pair's matching likelihood and derived
//! purely from the pair's co-occurrence pattern in the block collection.  The
//! paper uses the four schemes of the original Supervised Meta-blocking work
//! (CF-IBF, RACCB, JS, LCP) and introduces four new ones (EJS, WJS, RS, NRS).
//!
//! [`FeatureContext`] precomputes the per-entity aggregates each scheme needs;
//! [`FeatureSet`] selects which schemes form the vector (all 255 non-empty
//! combinations can be enumerated for the feature-selection experiment); and
//! [`FeatureMatrix`] materialises the vectors for every candidate pair.

//!
//! The partner-aggregation engine behind [`FeatureMatrix`] is the tiled
//! radix board in [`scoreboard`], which the streaming index discovers
//! partners on too: per-worker scratch is one tile plus the current
//! entity's contributions, not `O(num_entities)`, with output bit-identical
//! to the per-pair reference path ([`FeatureMatrix::build_reference`]).

pub mod context;
pub mod feature_set;
pub mod generator;
pub mod reference;
pub mod schemes;
pub mod scoreboard;

pub use context::{
    write_features_from, EntityAggregates, FeatureContext, PairCooccurrence, StreamFeatureContext,
};
pub use feature_set::FeatureSet;
pub use generator::{for_each_scored_chunk, FeatureMatrix};
pub use schemes::Scheme;
pub use scoreboard::{
    reset_scoreboard_metrics, scoreboard_metrics, RadixScoreboard, ScoreboardConfig,
};
