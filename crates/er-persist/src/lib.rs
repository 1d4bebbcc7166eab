//! Durability for the meta-blocking workspace: a hand-rolled, versioned,
//! checksummed little-endian binary codec plus the machinery of a
//! crash-recoverable, fault-tolerant store.
//!
//! * [`codec`] — explicit [`Encode`]/[`Decode`] implementations over a
//!   [`Writer`]/[`Reader`] pair (no serialisation framework — see the
//!   README's persistence section);
//! * [`vfs`] — the filesystem seam everything above does its IO through:
//!   [`StdVfs`] in production, the deterministic fault-injecting
//!   [`FaultVfs`] in the crash/fault suites, plus the bounded-retry
//!   [`RetryPolicy`] for the write paths;
//! * [`snapshot`] — atomic point-in-time images (temp file + rename, a
//!   header carrying magic bytes, the format version, a payload tag and a
//!   corpus fingerprint, and a CRC-64/XZ digest over the payload);
//! * [`wal`] — an append-only write-ahead log of checksummed records with
//!   torn-tail-tolerant replay;
//! * [`multi`] — **the** store: a [`ShardStore`] keeps generation sets (a
//!   head snapshot plus N ≥ 1 member snapshots and WALs) behind one atomic
//!   checksummed manifest, with a recovery fallback chain that quarantines
//!   corrupt generations and replays longer WAL tails.  Its module docs are
//!   the one description of the on-disk layout and the commit / recovery
//!   sequence; [`generation`] holds the pieces any such directory shares
//!   (lock, quarantine, [`RecoveryReport`]).
//!
//! The crates that own persistable state implement the codec traits for
//! their types and wire the pieces together: `er-learn` persists trained
//! models (`er_learn::SavedModel`), `er-eval` persists `PreparedDataset`s,
//! and `er_stream::persist::MutationLog` runs the write-ahead protocol
//! (log a mutation, checkpoint, recover + replay) over a [`ShardStore`]
//! for both durable wrappers.
//!
//! All error paths are typed ([`er_core::PersistError`]): corrupt bytes,
//! version skews, truncated records and mismatched fingerprints are
//! recoverable errors, never panics.  Failures are further classified
//! retryable vs fatal ([`er_core::PersistErrorClass`]); the write paths
//! retry only the transient class, with bounded backoff.

pub mod codec;
pub mod generation;
pub mod multi;
mod obs;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use codec::{decode_from_slice, encode_to_vec, Decode, Encode, Reader, Writer};
pub use er_core::{PersistError, PersistErrorClass, PersistResult};
pub use generation::{lock_path, manifest_path, quarantine_path, RecoveryReport, LOCK_NAME};
pub use multi::{
    committed_shard_generation, read_shard_manifest, router_path, shard_snapshot_path,
    shard_wal_path, RecoveredShards, ShardStore, SHARD_MANIFEST_MAGIC,
};
pub use snapshot::{
    decode_snapshot_payload, read_snapshot, read_snapshot_bytes, read_snapshot_bytes_with,
    read_snapshot_with, sweep_tmp_files, sync_parent_dir, write_snapshot, write_snapshot_with,
    FORMAT_VERSION,
};
pub use vfs::{retrying, FaultKind, FaultVfs, InjectedFault, OpKind, RetryPolicy, StdVfs, Vfs};
pub use wal::{read_wal, read_wal_with, WalContents, WalReadMode, WalWriter};
