//! `er-shard` — the sharded multi-writer streaming service.
//!
//! This crate scales the incremental meta-blocker of `er-stream` across
//! hash-partitioned posting shards while preserving the workspace's core
//! invariant: **every output is bit-identical to the single-shard,
//! single-thread oracle**, for any shard count and any thread count.  The
//! pieces:
//!
//! * [`service`] — [`ShardedStreamingService`], the mutation pipeline over
//!   `er_stream::ShardedIndex`: ingest / remove / update batches fan out
//!   to the shards owning the touched keys and emit the same `DeltaBatch`
//!   a single-shard `StreamingMetaBlocker` would;
//! * [`epoch`] — [`EpochReader`] / [`EpochView`](epoch::EpochView), ArcSwap-style
//!   epoch-published read snapshots so readers never block writers and
//!   never observe a half-applied batch;
//! * [`durable`] — [`DurableShardedService`], per-shard WALs striped by
//!   global sequence number with group commit (one fsync per touched WAL
//!   per group, not per batch) and one cross-shard manifest, so a
//!   checkpoint commits atomically across shards and crash recovery lands
//!   every shard on the same batch boundary.
//!
//! The property suites live in this crate's `tests/`: `equivalence`
//! (random mutation traces × schemes × shard counts × thread counts vs
//! the single-shard oracle), `shard_durability` (recovery equivalence and
//! group-commit fsync accounting) and `crash_points` (a crash at
//! every VFS operation, ALICE-style).

pub mod durable;
pub mod epoch;
mod obs;
pub mod service;

pub use durable::DurableShardedService;
pub use epoch::EpochReader;
pub use service::ShardedStreamingService;
