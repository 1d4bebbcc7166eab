//! What every generation directory is made of, whatever it stores: the
//! fixed file names, the exclusive [`LOCK`](LOCK_NAME) a commit runs under,
//! the `quarantine/` corrupt files are moved into, and the
//! [`RecoveryReport`] accounting for everything a recovery had to do.
//!
//! The store that uses them — the layout, the commit sequence and the
//! fallback chain — is [`crate::multi::ShardStore`], the only one.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_core::{PersistError, PersistResult};

use crate::vfs::{RetryPolicy, Vfs};

/// The manifest file name.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// The quarantine subdirectory recovery moves corrupt files into.
pub(crate) const QUARANTINE_DIR: &str = "quarantine";

/// The exclusive lock file guarding commit + retention.  Two checkpointers
/// racing the same directory would interleave snapshot writes, manifest
/// renames and retention deletes; the loser of the `create_new` race gets a
/// typed [`PersistError::Locked`] instead.  A crash while holding the lock
/// leaves the file behind — recovery sweeps it (the crashed holder is gone,
/// its half-commit is uncommitted debris handled by the usual sweep).
pub const LOCK_NAME: &str = "LOCK";

/// How many snapshot generations a commit retains (the committed one plus
/// its fallback).
pub(crate) const RETAINED_GENERATIONS: u64 = 2;

/// The manifest path inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

/// The quarantine directory inside `dir`.
pub fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join(QUARANTINE_DIR)
}

/// The exclusive lock file inside `dir`.
pub fn lock_path(dir: &Path) -> PathBuf {
    dir.join(LOCK_NAME)
}

/// A held store lock: created with an exclusive `create_new` (the atomic
/// test-and-set every filesystem offers), removed on drop — including every
/// early-return error path of the operation it guards.
pub(crate) struct StoreLock {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
}

impl StoreLock {
    /// Acquires the lock in `dir`, or fails with [`PersistError::Locked`]
    /// if another checkpointer already holds it.  Transient creation
    /// failures retry under `policy`; losing the race is fatal, not
    /// retryable (the loser must back off, not spin on the winner).
    pub(crate) fn acquire(
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        dir: &Path,
        context: &str,
    ) -> PersistResult<StoreLock> {
        let path = lock_path(dir);
        crate::vfs::retrying(policy, || {
            vfs.create_new(&path, b"").map_err(|e| {
                if e.kind() == std::io::ErrorKind::AlreadyExists {
                    PersistError::Locked {
                        context: context.to_string(),
                    }
                } else {
                    PersistError::io(format!("acquire store lock {path:?}"), &e)
                }
            })
        })?;
        Ok(StoreLock { vfs, path })
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release is best effort, like retention: the guarded operation
        // already succeeded or failed on its own terms, and a failed
        // removal only leaves a stale lock for the next recovery sweep
        // to reclaim.  One immediate retry absorbs EINTR-class blips.
        if self.vfs.remove(&self.path).is_err() {
            let _ = self.vfs.remove(&self.path);
        }
    }
}

/// What recovery did to bring the store back: which generations it had to
/// try, what it quarantined, how much WAL it replayed.  Returned alongside
/// every successful recovery so callers (and their operators) can tell a
/// clean restart from a degraded one.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The generation the manifest pointed at.
    pub committed_generation: u64,
    /// The generation whose snapshot was actually loaded (equals
    /// `committed_generation` on a clean recovery).
    pub used_generation: u64,
    /// How many generations were attempted before one loaded (1 = clean).
    pub generations_tried: u64,
    /// Files moved to `quarantine/` with their sizes in bytes.
    pub quarantined: Vec<(PathBuf, u64)>,
    /// WAL records replayed on top of the loaded snapshot (filled in by
    /// the caller that owns record semantics).
    pub records_replayed: usize,
    /// True if a torn final WAL record (crash artefact) was dropped.
    pub torn_tail_truncated: bool,
    /// Leaked `*.tmp` files swept on open.
    pub tmp_files_removed: usize,
    /// Uncommitted generation files (from a crash mid-commit) removed.
    pub stale_generations_removed: usize,
    /// True if a stale lock file (a checkpointer crashed while holding it)
    /// was swept on open.  Does not make the recovery unclean: the lock
    /// protects a commit whose debris is handled by the usual sweeps.
    pub stale_lock_removed: bool,
    /// True if the manifest itself was unreadable and the committed
    /// generation was inferred from the newest snapshot on disk.
    pub manifest_rebuilt: bool,
    /// True if the caller re-checkpointed immediately after a degraded
    /// recovery, restoring full redundancy (set by the caller).
    pub repair_checkpoint: bool,
}

impl RecoveryReport {
    /// True if recovery used the committed generation with no anomalies —
    /// no fallback, nothing quarantined, manifest intact.
    pub fn is_clean(&self) -> bool {
        self.used_generation == self.committed_generation
            && self.quarantined.is_empty()
            && !self.manifest_rebuilt
            && self.generations_tried <= 1
    }

    /// Total bytes of the files recovery moved into `quarantine/`.
    pub(crate) fn quarantined_bytes(&self) -> u64 {
        self.quarantined.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Records the finalized report on the registry (the replayed-record
    /// counter) and emits it as a structured `persist_recovery` event (a
    /// no-op unless an [`er_obs`] sink is installed).  Callers invoke this
    /// once `records_replayed` / `repair_checkpoint` are known — the store
    /// cannot, it never sees the replay.
    pub fn observe(&self) {
        crate::obs::obs()
            .records_replayed
            .add(self.records_replayed as u64);
        er_obs::event::emit("persist_recovery", |e| {
            e.push("clean", self.is_clean());
            e.push("committed_generation", self.committed_generation);
            e.push("used_generation", self.used_generation);
            e.push("generations_tried", self.generations_tried);
            e.push("quarantined_files", self.quarantined.len());
            e.push("quarantined_bytes", self.quarantined_bytes());
            e.push("records_replayed", self.records_replayed);
            e.push("torn_tail_truncated", self.torn_tail_truncated);
            e.push("tmp_files_removed", self.tmp_files_removed);
            e.push("stale_generations_removed", self.stale_generations_removed);
            e.push("stale_lock_removed", self.stale_lock_removed);
            e.push("manifest_rebuilt", self.manifest_rebuilt);
            e.push("repair_checkpoint", self.repair_checkpoint);
        });
    }
}

impl std::fmt::Display for RecoveryReport {
    /// One logfmt-style line, mirroring the `persist_recovery` event.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery clean={} committed_generation={} used_generation={} \
             generations_tried={} quarantined_files={} quarantined_bytes={} \
             records_replayed={} torn_tail_truncated={} tmp_files_removed={} \
             stale_generations_removed={} stale_lock_removed={} \
             manifest_rebuilt={} repair_checkpoint={}",
            self.is_clean(),
            self.committed_generation,
            self.used_generation,
            self.generations_tried,
            self.quarantined.len(),
            self.quarantined_bytes(),
            self.records_replayed,
            self.torn_tail_truncated,
            self.tmp_files_removed,
            self.stale_generations_removed,
            self.stale_lock_removed,
            self.manifest_rebuilt,
            self.repair_checkpoint,
        )
    }
}

/// Moves a corrupt file into `dir/quarantine/`, recording it (and its
/// size) in the report.
pub(crate) fn quarantine(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    report: &mut RecoveryReport,
) -> PersistResult<()> {
    let bytes = vfs.read(path).map(|d| d.len() as u64).unwrap_or(0);
    let quarantine_dir = quarantine_path(dir);
    vfs.create_dir_all(&quarantine_dir).map_err(|e| {
        PersistError::io(
            format!("create quarantine directory {quarantine_dir:?}"),
            &e,
        )
    })?;
    let file_name = path.file_name().unwrap_or_default();
    let target = quarantine_dir.join(file_name);
    vfs.rename(path, &target)
        .map_err(|e| PersistError::io(format!("quarantine corrupt file {path:?}"), &e))?;
    report.quarantined.push((target, bytes));
    Ok(())
}
