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
//! [`reference`](mod@reference) keeps sequential, independently written
//! versions of these steps as test oracles.

pub mod arena;
pub mod builder;
pub mod candidates;
pub mod csr;
pub mod filtering;
pub mod graph;
pub mod key_table;
mod obs;
pub mod persist;
pub mod purging;
pub mod qgrams;
pub mod reference;
pub mod stats;
pub mod stream;
pub mod suffix_arrays;
pub mod token_blocking;

pub use arena::{ARENA_VERSION, CSR_ARENA_MAGIC, STATS_ARENA_MAGIC};
pub use builder::{
    build_blocks, sorted_key_order, KeyGenerator, KeyScratch, QGramKeys, SuffixKeys, TokenKeys,
};
pub use candidates::CandidatePairs;
pub use csr::{comparisons_from_first, slice_cardinalities, CsrBlockCollection, KeyStore};
pub use filtering::{block_filtering_csr, filtering_keep_count, DEFAULT_FILTERING_RATIO};
pub use graph::NeighborIndex;
pub use key_table::KeyTable;
pub use purging::{block_purging_csr, purging_limit};
pub use qgrams::qgrams_blocking_csr;
pub use stats::BlockStats;
pub use stream::{CandidateStream, ChunkArena, ChunkSpec, RunScratch, DEFAULT_CHUNK_PAIRS};
pub use suffix_arrays::{suffix_array_blocking_csr, SuffixArrayConfig};
pub use token_blocking::token_blocking_csr;

use er_core::Dataset;

/// Runs the full blocking workflow used throughout the paper's evaluation:
/// parallel Token Blocking through the [`builder`] engine, then Block
/// Purging, then Block Filtering with the default ratio of 0.8 (each entity
/// is removed from its largest 20% of blocks).  Purging and filtering are
/// pure index operations sharing one key arena.
pub fn standard_blocking_workflow_csr(dataset: &Dataset, threads: usize) -> CsrBlockCollection {
    let blocks = token_blocking_csr(dataset, threads);
    let purged = block_purging_csr(&blocks);
    block_filtering_csr(&purged, DEFAULT_FILTERING_RATIO)
}
