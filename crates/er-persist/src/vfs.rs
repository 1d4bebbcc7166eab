//! The filesystem seam: every byte the durability layer moves goes through
//! a [`Vfs`].
//!
//! Production code uses [`StdVfs`], a thin veneer over `std::fs`.  Tests
//! use [`FaultVfs`], a deterministic, seeded wrapper that can inject the
//! failure modes real storage exhibits:
//!
//! * **ENOSPC** — a write lands partially and then the disk is full;
//! * **fsync failure** — the sync call fails and (per the fsyncgate
//!   lesson) must *not* be retried: the write path has to re-issue the
//!   whole operation;
//! * **short writes** — a prefix of the data reaches the file before the
//!   error;
//! * **torn renames** — the rename returns an error and (seeded coin)
//!   either took effect or did not;
//! * **kill-after-op-N crash points** — the N-th operation applies
//!   *partially* (writes keep a seeded prefix, renames flip a seeded
//!   coin, everything else is dropped) and every later operation fails,
//!   simulating the process dying at that exact point.  The directory
//!   left behind is exactly what a recovery sees after a real crash.
//!
//! Every operation a [`FaultVfs`] performs is counted and logged
//! ([`FaultVfs::op_count`], [`FaultVfs::op_log`]), so a test can first run
//! a trace against a counting instance, then re-run it once per operation
//! index with a crash or fault planted there — the ALICE-style exploration
//! in `er-shard/tests/crash_points.rs`.
//!
//! The trait is path-based (no open-handle state): appends and syncs name
//! the file each time.  The write paths are fsync-bound, so the extra
//! opens are noise, and a stateless seam makes fault injection exact —
//! one call, one crash point.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use er_core::{derive_seed, PersistResult};

/// The filesystem operations the durability layer performs.  Everything in
/// `er-persist` (and the durable wrappers above it) does its IO through
/// this trait, so a test can substitute [`FaultVfs`] and fail any single
/// operation.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) `path` and writes `data` to it.  Not atomic
    /// and not synced — callers wanting atomicity write a temp file, sync
    /// it and [`rename`](Vfs::rename) it into place.
    fn create(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Creates `path` and writes `data` to it, failing with
    /// [`std::io::ErrorKind::AlreadyExists`] if the file exists — the
    /// atomic test-and-set primitive exclusive lock files are built on
    /// (`O_CREAT | O_EXCL`).
    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Appends `data` at the end of an existing file.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Truncates (or extends with zeros) `path` to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Flushes a file's data and metadata to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes a *directory*, making renames and unlinks inside it
    /// durable.  Callers use [`sync_parent_dir`](crate::snapshot::sync_parent_dir),
    /// which tolerates filesystems that refuse directory fsync.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the entries of a directory (files and subdirectories).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: straight `std::fs` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the production VFS.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        fs::write(path, data)
    }

    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        file.write_all(data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new().append(true).open(path)?;
        file.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        // fsync flushes the file, not the descriptor: a fresh read-only
        // handle is enough to make previously written data durable.
        let file = fs::File::open(path)?;
        file.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let dir = fs::File::open(path)?;
        dir.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(dir)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
}

/// The kind of a VFS operation, as recorded in a [`FaultVfs`] op log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Vfs::create`].
    Create,
    /// [`Vfs::create_new`].
    CreateNew,
    /// [`Vfs::append`].
    Append,
    /// [`Vfs::truncate`].
    Truncate,
    /// [`Vfs::sync_file`].
    SyncFile,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::read`].
    Read,
    /// [`Vfs::list`].
    List,
    /// [`Vfs::remove`].
    Remove,
    /// [`Vfs::create_dir_all`].
    CreateDirAll,
}

impl OpKind {
    /// True for the operations that mutate the directory — the ones worth
    /// injecting write-path faults into.
    pub fn is_write(self) -> bool {
        !matches!(self, OpKind::Read | OpKind::List)
    }

    /// The operation's snake_case name, as it appears in op-log renderings
    /// and `vfs_fault` events.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::CreateNew => "create_new",
            OpKind::Append => "append",
            OpKind::Truncate => "truncate",
            OpKind::SyncFile => "sync_file",
            OpKind::SyncDir => "sync_dir",
            OpKind::Rename => "rename",
            OpKind::Read => "read",
            OpKind::List => "list",
            OpKind::Remove => "remove",
            OpKind::CreateDirAll => "create_dir_all",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault to inject at one specific operation index of a [`FaultVfs`].
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    /// The zero-based operation index the fault fires at.
    pub at_op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The failure modes a [`FaultVfs`] can inject (one-shot, at a planned
/// operation index; the VFS keeps working afterwards — unlike a
/// [crash](FaultVfs::crash_at), which is terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The disk fills mid-write: a seeded prefix of the data lands, then
    /// the call fails with `ENOSPC`.
    Enospc,
    /// `fsync` fails (the EIO class of fsyncgate).  The data's durability
    /// is unknown; the write path must re-issue the whole operation.
    SyncFailure,
    /// A seeded prefix of the data lands, then a generic write error.
    ShortWrite,
    /// The rename fails; a seeded coin decides whether it took effect
    /// (POSIX renames are atomic — "torn" means the caller cannot know
    /// which side of the atom it is on).
    TornRename,
    /// A transient `EINTR`-class failure: nothing happened, retrying the
    /// same call succeeds.  Exercises the bounded-retry path.
    Transient,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Enospc => "enospc",
            FaultKind::SyncFailure => "sync_failure",
            FaultKind::ShortWrite => "short_write",
            FaultKind::TornRename => "torn_rename",
            FaultKind::Transient => "transient",
        })
    }
}

#[derive(Debug)]
struct FaultState {
    next_op: u64,
    crashed: bool,
    log: Vec<(OpKind, PathBuf)>,
}

/// A deterministic fault-injecting [`Vfs`] wrapping a real directory tree
/// (all effects land through an inner [`StdVfs`], so a recovery with the
/// production VFS sees exactly the bytes the faults left behind).
#[derive(Debug)]
pub struct FaultVfs {
    inner: StdVfs,
    seed: u64,
    crash_at: Option<u64>,
    faults: Vec<InjectedFault>,
    state: Mutex<FaultState>,
}

impl FaultVfs {
    fn new(seed: u64, crash_at: Option<u64>, faults: Vec<InjectedFault>) -> Arc<Self> {
        Arc::new(FaultVfs {
            inner: StdVfs,
            seed,
            crash_at,
            faults,
            state: Mutex::new(FaultState {
                next_op: 0,
                crashed: false,
                log: Vec::new(),
            }),
        })
    }

    /// A fault-free instance that only counts and logs operations — the
    /// dry run that tells an exploration test how many crash points a
    /// trace has.
    pub fn counting(seed: u64) -> Arc<Self> {
        FaultVfs::new(seed, None, Vec::new())
    }

    /// Kills the process at operation `op`: that operation applies
    /// partially (seeded), every later one fails.
    pub fn crash_at(seed: u64, op: u64) -> Arc<Self> {
        FaultVfs::new(seed, Some(op), Vec::new())
    }

    /// Injects the given one-shot faults at their operation indices.
    pub fn with_faults(seed: u64, faults: Vec<InjectedFault>) -> Arc<Self> {
        FaultVfs::new(seed, None, faults)
    }

    /// Number of operations performed (or attempted) so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().next_op
    }

    /// The `(kind, path)` trace of every operation seen so far.
    pub fn op_log(&self) -> Vec<(OpKind, PathBuf)> {
        self.state.lock().unwrap().log.clone()
    }

    /// The op log as a displayable trace — one `#index kind path` line per
    /// operation, the form crash-exploration failures print.
    pub fn op_trace(&self) -> OpTrace {
        OpTrace(self.op_log())
    }

    /// True once the planned crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// A seeded value in `0..=max`, stable per (seed, op index).
    fn seeded(&self, op: u64, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            derive_seed(self.seed, op) % (max + 1)
        }
    }

    fn crash_error() -> io::Error {
        io::Error::other("simulated crash: the process is dead")
    }

    /// Books one operation: records it, and returns the verdict — proceed
    /// normally, apply partially then die, or fail with an injected fault.
    fn book(&self, kind: OpKind, path: &Path) -> Verdict {
        let mut state = self.state.lock().unwrap();
        if state.crashed {
            return Verdict::Dead;
        }
        let op = state.next_op;
        state.next_op += 1;
        state.log.push((kind, path.to_path_buf()));
        if self.crash_at == Some(op) {
            state.crashed = true;
            er_obs::event::emit("vfs_crash_point", |e| {
                e.push("op", op)
                    .push("kind", kind)
                    .push("path", path.display());
            });
            return Verdict::CrashNow(op);
        }
        if let Some(fault) = self.faults.iter().find(|f| f.at_op == op) {
            er_obs::event::emit("vfs_fault", |e| {
                e.push("op", op)
                    .push("kind", kind)
                    .push("fault", fault.kind)
                    .push("path", path.display());
            });
            return Verdict::Fault(op, fault.kind);
        }
        Verdict::Proceed
    }

    /// Applies a seeded prefix of `data` to the file (create or append),
    /// modelling a write torn by a crash or a filling disk.
    fn partial_write(&self, op: u64, path: &Path, data: &[u8], appending: bool) -> io::Result<()> {
        let keep = self.seeded(op, data.len() as u64) as usize;
        if appending {
            if keep > 0 {
                self.inner.append(path, &data[..keep])?;
            }
        } else {
            self.inner.create(path, &data[..keep])?;
        }
        Ok(())
    }

    fn faulted(
        &self,
        op: u64,
        kind: FaultKind,
        path: &Path,
        data: Option<(&[u8], bool)>,
    ) -> io::Error {
        match kind {
            FaultKind::Enospc => {
                if let Some((data, appending)) = data {
                    let _ = self.partial_write(op, path, data, appending);
                }
                io::Error::from_raw_os_error(28) // ENOSPC
            }
            FaultKind::ShortWrite => {
                if let Some((data, appending)) = data {
                    let _ = self.partial_write(op, path, data, appending);
                }
                io::Error::new(io::ErrorKind::WriteZero, "simulated short write")
            }
            FaultKind::SyncFailure => {
                io::Error::other("simulated fsync failure (EIO): durability unknown")
            }
            FaultKind::TornRename => io::Error::other("simulated torn rename"),
            FaultKind::Transient => {
                io::Error::new(io::ErrorKind::Interrupted, "simulated transient EINTR")
            }
        }
    }
}

/// A displayable [`FaultVfs`] op log: one `#index kind path` line per
/// operation, in execution order.
#[derive(Debug, Clone)]
pub struct OpTrace(pub Vec<(OpKind, PathBuf)>);

impl std::fmt::Display for OpTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (kind, path)) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "#{i:04} {kind} {}", path.display())?;
        }
        Ok(())
    }
}

enum Verdict {
    Proceed,
    /// The crash point: apply the op partially, then die.
    CrashNow(u64),
    /// A one-shot planned fault at this op.
    Fault(u64, FaultKind),
    /// A crash already happened; everything fails.
    Dead,
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.book(OpKind::Create, path) {
            Verdict::Proceed => self.inner.create(path, data),
            Verdict::CrashNow(op) => {
                let _ = self.partial_write(op, path, data, false);
                Err(FaultVfs::crash_error())
            }
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, Some((data, false)))),
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.book(OpKind::CreateNew, path) {
            Verdict::Proceed => self.inner.create_new(path, data),
            Verdict::CrashNow(op) => {
                // Only tear the write if the exclusive create would have
                // won; a lost race leaves the existing file untouched.
                if !path.exists() {
                    let _ = self.partial_write(op, path, data, false);
                }
                Err(FaultVfs::crash_error())
            }
            Verdict::Fault(op, kind) => {
                if path.exists() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "file exists (simulated fault raced a held lock)",
                    ));
                }
                // A *survived* failure leaves no file: the exclusive
                // create either wins whole or not at all, so the caller's
                // retry sees a free slot (only a crash leaves the torn
                // file behind, and recovery sweeps that).
                Err(self.faulted(op, kind, path, None))
            }
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.book(OpKind::Append, path) {
            Verdict::Proceed => self.inner.append(path, data),
            Verdict::CrashNow(op) => {
                let _ = self.partial_write(op, path, data, true);
                Err(FaultVfs::crash_error())
            }
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, Some((data, true)))),
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.book(OpKind::Truncate, path) {
            Verdict::Proceed => self.inner.truncate(path, len),
            Verdict::CrashNow(_) => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.book(OpKind::SyncFile, path) {
            Verdict::Proceed => self.inner.sync_file(path),
            Verdict::CrashNow(_) => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.book(OpKind::SyncDir, path) {
            Verdict::Proceed => self.inner.sync_dir(path),
            Verdict::CrashNow(_) => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.book(OpKind::Rename, from) {
            Verdict::Proceed => self.inner.rename(from, to),
            Verdict::CrashNow(op) => {
                // The rename is atomic on disk; the seeded coin decides
                // which side of the atom the crash landed on.
                if self.seeded(op, 1) == 1 {
                    let _ = self.inner.rename(from, to);
                }
                Err(FaultVfs::crash_error())
            }
            Verdict::Fault(op, kind) => {
                if kind == FaultKind::TornRename && self.seeded(op, 1) == 1 {
                    let _ = self.inner.rename(from, to);
                }
                Err(self.faulted(op, kind, from, None))
            }
            Verdict::Dead => Err(FaultVfs::crash_error()),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.book(OpKind::Read, path) {
            Verdict::Proceed => self.inner.read(path),
            Verdict::CrashNow(_) | Verdict::Dead => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.book(OpKind::List, dir) {
            Verdict::Proceed => self.inner.list(dir),
            Verdict::CrashNow(_) | Verdict::Dead => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, dir, None)),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.book(OpKind::Remove, path) {
            Verdict::Proceed => self.inner.remove(path),
            Verdict::CrashNow(_) | Verdict::Dead => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.book(OpKind::CreateDirAll, path) {
            Verdict::Proceed => self.inner.create_dir_all(path),
            Verdict::CrashNow(_) | Verdict::Dead => Err(FaultVfs::crash_error()),
            Verdict::Fault(op, kind) => Err(self.faulted(op, kind, path, None)),
        }
    }
}

/// Bounded retry with exponential backoff for the write paths.  Only
/// failures classified [retryable](er_core::PersistError::is_retryable)
/// (`EINTR`-class transients) are retried; ENOSPC, failed fsyncs and
/// corrupt bytes surface immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt `k+1` is `base_backoff * 2^k`.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// The default write-path policy: 4 attempts, 200µs doubling backoff
    /// (total worst-case sleep ≈ 1.4ms — transient by definition).
    pub const fn default_write() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(200),
        }
    }

    /// The backoff before retrying after `attempt` failures.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff * 2u32.saturating_pow(attempt.min(16))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::default_write()
    }
}

/// Runs `op`, retrying [retryable](er_core::PersistError::is_retryable)
/// failures up to the policy's attempt budget with exponential backoff.
pub fn retrying<T>(
    policy: RetryPolicy,
    mut op: impl FnMut() -> PersistResult<T>,
) -> PersistResult<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(err) => {
                let o = crate::obs::obs();
                o.errors
                    .with_label(match err.class() {
                        er_core::PersistErrorClass::Retryable => "retryable",
                        er_core::PersistErrorClass::Fatal => "fatal",
                    })
                    .inc();
                if err.is_retryable() && attempt + 1 < policy.max_attempts.max(1) {
                    o.retries.inc();
                    let pause = policy.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                } else {
                    return Err(err);
                }
            }
            ok => return ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::PersistError;

    fn scratch(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("er-persist-vfs-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = scratch("std");
        let vfs = StdVfs;
        let file = dir.join("a.bin");
        vfs.create(&file, b"hello").unwrap();
        vfs.append(&file, b" world").unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"hello world");
        vfs.truncate(&file, 5).unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"hello");
        vfs.sync_file(&file).unwrap();
        vfs.sync_dir(&dir).unwrap();
        let renamed = dir.join("b.bin");
        vfs.rename(&file, &renamed).unwrap();
        assert_eq!(vfs.list(&dir).unwrap(), vec![renamed.clone()]);
        vfs.remove(&renamed).unwrap();
        assert!(vfs.list(&dir).unwrap().is_empty());
    }

    #[test]
    fn create_new_is_an_exclusive_test_and_set() {
        let dir = scratch("createnew");
        let file = dir.join("LOCK");
        StdVfs.create_new(&file, b"1").unwrap();
        let err = StdVfs.create_new(&file, b"2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(StdVfs.read(&file).unwrap(), b"1");
        // The fault VFS models a lost race the same way.
        let vfs = FaultVfs::counting(5);
        let err = vfs.create_new(&file, b"3").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        StdVfs.remove(&file).unwrap();
        vfs.create_new(&file, b"4").unwrap();
        assert_eq!(StdVfs.read(&file).unwrap(), b"4");
    }

    #[test]
    fn crash_point_tears_the_write_and_kills_everything_after() {
        let dir = scratch("crash");
        let vfs = FaultVfs::crash_at(7, 1);
        let file = dir.join("a.bin");
        vfs.create(&file, b"first").unwrap(); // op 0
        let err = vfs.create(&file, b"0123456789").unwrap_err(); // op 1: crash
        assert!(err.to_string().contains("simulated crash"));
        assert!(vfs.has_crashed());
        // The torn write left a strict prefix (possibly empty, never more).
        let left = StdVfs.read(&file).unwrap();
        assert!(left.len() <= 10);
        assert!(b"0123456789".starts_with(&left));
        // Everything after the crash fails, including reads.
        assert!(vfs.read(&file).is_err());
        assert!(vfs.sync_file(&file).is_err());
        assert_eq!(vfs.op_count(), 2, "dead ops are not counted");
    }

    #[test]
    fn injected_faults_are_one_shot_and_deterministic() {
        let dir = scratch("faults");
        let file = dir.join("a.bin");
        let vfs = FaultVfs::with_faults(
            3,
            vec![InjectedFault {
                at_op: 1,
                kind: FaultKind::Enospc,
            }],
        );
        vfs.create(&file, b"seed").unwrap(); // op 0
        let err = vfs.create(&file, b"abcdef").unwrap_err(); // op 1: ENOSPC
        assert_eq!(err.raw_os_error(), Some(28));
        // The VFS keeps working after a non-crash fault.
        vfs.create(&file, b"recovered").unwrap();
        assert_eq!(StdVfs.read(&file).unwrap(), b"recovered");

        // Same seed, same plan => same torn prefix.
        let torn = |seed| {
            let dir = scratch(&format!("torn-{seed}"));
            let file = dir.join("t.bin");
            let vfs = FaultVfs::with_faults(
                seed,
                vec![InjectedFault {
                    at_op: 0,
                    kind: FaultKind::ShortWrite,
                }],
            );
            vfs.create(&file, b"0123456789").unwrap_err();
            StdVfs.read(&file).unwrap()
        };
        assert_eq!(torn(11), torn(11));
    }

    #[test]
    fn transient_faults_are_retryable_and_fsync_failures_are_not() {
        let transient = io::Error::new(io::ErrorKind::Interrupted, "x");
        assert!(PersistError::io("op", &transient).is_retryable());
        let vfs = FaultVfs::with_faults(
            1,
            vec![InjectedFault {
                at_op: 0,
                kind: FaultKind::SyncFailure,
            }],
        );
        let dir = scratch("sync");
        let file = dir.join("a.bin");
        StdVfs.create(&file, b"x").unwrap();
        let err = vfs.sync_file(&file).unwrap_err();
        assert!(!PersistError::io("sync", &err).is_retryable());
    }

    #[test]
    fn retrying_retries_transients_with_a_bounded_budget() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let out: PersistResult<u32> = retrying(policy, || {
            calls += 1;
            if calls < 3 {
                Err(PersistError::io(
                    "op",
                    &io::Error::new(io::ErrorKind::Interrupted, "transient"),
                ))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 3);

        // Budget exhausted: the last error surfaces.
        let mut calls = 0;
        let out: PersistResult<u32> = retrying(policy, || {
            calls += 1;
            Err(PersistError::io(
                "op",
                &io::Error::new(io::ErrorKind::Interrupted, "transient"),
            ))
        });
        assert!(out.unwrap_err().is_retryable());
        assert_eq!(calls, 3);

        // Fatal errors are never retried.
        let mut calls = 0;
        let out: PersistResult<u32> = retrying(policy, || {
            calls += 1;
            Err(PersistError::Corrupt("bad".into()))
        });
        assert!(matches!(out.unwrap_err(), PersistError::Corrupt(_)));
        assert_eq!(calls, 1);
    }
}
