//! Core entity model and shared primitives for the Generalized Supervised
//! Meta-blocking reproduction.
//!
//! The paper models an *entity profile* as a set of textual name/value pairs;
//! profiles are grouped into *entity collections* and Entity Resolution is
//! either Clean-Clean (two duplicate-free collections, find cross matches) or
//! Dirty (one collection, find internal matches).  This crate provides those
//! types plus the small utilities shared by every other crate: deterministic
//! hashing, tokenisation, an id-run sort, seeded randomness and a common
//! error type.

pub mod checksum;
pub mod collection;
pub mod entity;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod parallel;
pub mod radix;
pub mod rng;
pub mod tokenize;

pub use checksum::crc64;
pub use collection::{Dataset, DatasetKind, EntityCollection, GroundTruth};
pub use entity::{Attribute, EntityProfile};
pub use error::{Error, PersistError, PersistErrorClass, PersistResult, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{checked_u32, BlockId, EntityId, PairId};
pub use parallel::{
    available_threads, fill_rows_parallel, for_each_task_with_state, map_ranges_parallel,
    map_tasks_parallel, split_lengths_mut, workers_for,
};
pub use rng::{derive_seed, seeded_rng};
pub use tokenize::tokenize;
