//! Blocking substrate: Token Blocking, Block Purging, Block Filtering,
//! candidate-pair extraction and block statistics.
//!
//! Meta-blocking operates on a *redundancy-positive* block collection: every
//! entity appears in several blocks and the more blocks two entities share the
//! more likely they are to match.  This crate produces exactly the input the
//! paper assumes, as one representation, the flat [`CsrBlockCollection`]:
//!
//! 1. [`token_blocking_csr`] builds one block per attribute-value token
//!    (parameter-free, schema-agnostic);
//! 2. [`block_purging_csr`] drops blocks containing more than half of all
//!    entity profiles (stop-word-like signatures);
//! 3. [`block_filtering_csr`] removes every entity from the largest 20% of
//!    the blocks it appears in;
//! 4. [`BlockStats`] exposes the per-entity block lists and block cardinalities
//!    that all weighting schemes are computed from;
//! 5. [`CandidatePairs`] and [`CandidateStream`] extract the distinct set of
//!    comparisons `C` and the per-entity candidate counts used by the LCP
//!    feature.
//!
//! [`standard_blocking_workflow_csr`] runs steps 1–4 as the paper's
//! workflow.  After Token Blocking it does each step once, over one entity →
//! block adjacency: purging is a block-size test applied while the
//! adjacency is built, filtering drops each entity's largest blocks in
//! place, and one transposition yields the block side.  It returns the
//! cleaned collection with its statistics; [`clean_blocks_csr`] stops
//! before them and returns the adjacency ([`EntitySide`]) instead, for
//! callers that time the statistics apart.  The stand-alone
//! [`block_purging_csr`], [`block_filtering_csr`] and
//! [`BlockStats::from_csr`] give the same output step by step.
//!
//! [`reference`](mod@reference) keeps sequential, independently written
//! versions of these steps as test oracles.

pub mod arena;
pub mod builder;
pub mod candidates;
pub mod csr;
pub mod filtering;
mod key_table;
mod obs;
pub mod persist;
pub mod purging;
pub mod qgrams;
pub mod reference;
pub mod stats;
pub mod stream;
mod suffix_arrays;
pub mod token_blocking;

pub use builder::{
    build_blocks, sorted_key_order, KeyGenerator, KeyScratch, QGramKeys, SuffixKeys, TokenKeys,
};
pub use candidates::CandidatePairs;
pub use csr::{comparisons_from_first, CsrBlockCollection, KeyStore};
pub use filtering::{block_filtering_csr, filtering_keep_count, DEFAULT_FILTERING_RATIO};
pub use key_table::KeyTable;
pub use purging::{block_purging_csr, purging_limit};
pub use qgrams::qgrams_blocking_csr;
pub use stats::{BlockStats, EntitySide};
pub use stream::{CandidateStream, ChunkArena, ChunkSegment, ChunkSpec, DEFAULT_CHUNK_PAIRS};
pub use suffix_arrays::{suffix_array_blocking_csr, SuffixArrayConfig};
pub use token_blocking::token_blocking_csr;

use er_core::Dataset;

/// Runs the full blocking workflow used throughout the paper's evaluation
/// and returns the cleaned collection together with its [`BlockStats`]:
/// [`clean_blocks_csr`], then [`BlockStats::from_entity_side`].  The output
/// equals `block_filtering_csr(&block_purging_csr(&raw), 0.8)` and its
/// `BlockStats::from_csr` for any thread count.
pub fn standard_blocking_workflow_csr(
    dataset: &Dataset,
    threads: usize,
) -> (CsrBlockCollection, BlockStats) {
    let (blocks, side) = clean_blocks_csr(dataset, threads);
    let stats = BlockStats::from_entity_side(&blocks, side, threads);
    (blocks, stats)
}

/// The blocking workflow up to the statistics: parallel Token Blocking
/// through the [`builder`] engine, then Block Purging and Block Filtering
/// with the default ratio of 0.8 (each entity is removed from its largest
/// 20% of blocks).  Returns the cleaned collection and its [`EntitySide`].
///
/// Purging and filtering run over one entity → block adjacency, built once
/// (see [`filtering`](mod@filtering)): purging is a block-size test applied
/// while it is built, filtering runs per entity in place, and the block
/// side is one transposition.  The adjacency is the entity side the
/// statistics need, so [`BlockStats::from_entity_side`] does not transpose
/// again.  Callers that time the statistics apart from blocking (the batch
/// pipeline counts them as feature generation) run the two steps
/// themselves; everyone else calls [`standard_blocking_workflow_csr`].
pub fn clean_blocks_csr(dataset: &Dataset, threads: usize) -> (CsrBlockCollection, EntitySide) {
    let raw = token_blocking_csr(dataset, threads);
    let limit = purging_limit(raw.num_entities);
    filtering::filter_entity_side(&raw, limit, DEFAULT_FILTERING_RATIO, threads)
}
