//! The write-ahead log: an append-only file of checksummed records.
//!
//! Layout:
//!
//! ```text
//! header:  magic "GSMBWAL1" (8 B) │ version u32 │ fingerprint u64
//! record:  payload len u32 │ len guard u32 (= !len) │ payload crc u64 │ payload bytes
//! record:  ...
//! ```
//!
//! The **length guard** (the bitwise complement of the length, checked
//! before the length is trusted) exists so that a corrupted length field in
//! the *middle* of the log cannot masquerade as a torn tail: without it, a
//! bit flip that raises a record's declared length past the end of the file
//! would look exactly like a crash artefact and recovery would silently
//! drop — and then truncate away — every valid record behind it.
//!
//! Records are framed, not indexed: replay is a linear scan.  Each record
//! is appended with a single `write` followed by an fsync, so after a
//! crash the file is a valid prefix of the log plus, at worst, one **torn
//! tail** — a final record whose bytes were only partially written.
//!
//! [`read_wal`] distinguishes the two failure shapes:
//!
//! * a record cut short *at the end of the file* is the expected crash
//!   artefact — [`WalReadMode::Recovery`] stops cleanly before it and
//!   reports the valid prefix length so the writer can truncate it away,
//!   while [`WalReadMode::Strict`] turns it into
//!   [`PersistError::Truncated`];
//! * a record whose checksum fails is corruption (bit rot, an external
//!   edit) and is a typed [`PersistError::ChecksumMismatch`] in **both**
//!   modes — recovery never silently skips over a damaged record to
//!   resurrect data behind it.
//!
//! Log creation goes through a temp file + rename like snapshots, so a
//! crash during [`WalWriter::create`] (the compaction truncation point)
//! leaves either the old log or a fresh empty one, never a half header.
//!
//! All IO goes through a [`Vfs`] seam; transient (`EINTR`-class) append
//! failures are retried under the writer's [`RetryPolicy`], with the file
//! truncated back to the last whole record between attempts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use er_core::{crc64, PersistError, PersistResult};

use crate::codec::{Reader, Writer};
use crate::snapshot::{write_file_atomic, FORMAT_VERSION};
use crate::vfs::{retrying, RetryPolicy, StdVfs, Vfs};

/// Magic bytes opening every write-ahead log.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"GSMBWAL1";

/// Byte length of the fixed WAL header.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8;

/// Byte length of a record frame before its payload
/// (`len | len guard | crc`).
const RECORD_FRAME_LEN: usize = 4 + 4 + 8;

/// How [`read_wal`] treats a record cut short at the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalReadMode {
    /// Any anomaly is an error — used to audit a log that should be whole.
    Strict,
    /// A torn final record is tolerated (it is the expected artefact of a
    /// crash mid-append); checksum mismatches remain errors.
    Recovery,
}

/// The outcome of scanning a write-ahead log.
#[derive(Debug)]
pub struct WalContents {
    /// The validated record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// File length up to and including the last valid record — the offset
    /// a recovering writer truncates to before appending again.
    pub valid_len: u64,
    /// True if a torn final record was skipped (recovery mode only).
    pub torn_tail: bool,
    /// The stream fingerprint recorded in the header.
    pub fingerprint: u64,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    policy: RetryPolicy,
    path: PathBuf,
    /// Length of the log up to the last fully appended record; a failed
    /// append truncates back to this offset so no partial frame is ever
    /// left in front of later records.
    len: u64,
    /// Number of append calls performed (each is one `write`).
    appends: u64,
    /// Number of fsyncs issued — with group commit this can be far below
    /// the number of records appended.
    syncs: u64,
}

impl WalWriter {
    /// Creates (or replaces) the log with a fresh header through the given
    /// VFS.  Atomic: the new log is assembled under a temp name and renamed
    /// into place, making this the WAL truncation point of a compaction.
    pub(crate) fn create_with(
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        path: &Path,
        fingerprint: u64,
    ) -> PersistResult<Self> {
        let mut header = Writer::with_capacity(WAL_HEADER_LEN);
        header.write_raw(&WAL_MAGIC);
        header.write_u32(FORMAT_VERSION);
        header.write_u64(fingerprint);
        write_file_atomic(vfs.as_ref(), policy, path, header.as_bytes())?;
        Ok(WalWriter {
            vfs,
            policy,
            path: path.to_path_buf(),
            len: WAL_HEADER_LEN as u64,
            appends: 0,
            syncs: 0,
        })
    }

    /// Creates (or replaces) the log with a fresh header on the production
    /// filesystem with the default write-path retry policy.
    pub fn create(path: &Path, fingerprint: u64) -> PersistResult<Self> {
        WalWriter::create_with(
            StdVfs::arc(),
            RetryPolicy::default_write(),
            path,
            fingerprint,
        )
    }

    /// Opens an existing log for appending through the given VFS,
    /// truncating it to `valid_len` first (dropping a torn tail reported by
    /// [`read_wal`]).
    pub(crate) fn open_with(
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        path: &Path,
        valid_len: u64,
    ) -> PersistResult<Self> {
        vfs.truncate(path, valid_len)
            .map_err(|e| PersistError::io(format!("truncate wal torn tail in {path:?}"), &e))?;
        Ok(WalWriter {
            vfs,
            policy,
            path: path.to_path_buf(),
            len: valid_len,
            appends: 0,
            syncs: 0,
        })
    }

    /// Opens an existing log for appending on the production filesystem.
    pub fn open(path: &Path, valid_len: u64) -> PersistResult<Self> {
        WalWriter::open_with(StdVfs::arc(), RetryPolicy::default_write(), path, valid_len)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the log up to the last fully appended record.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the log holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN as u64
    }

    /// Appends one record (frame + payload in a single write) and syncs it
    /// to stable storage before returning.  On a failed or partial write
    /// (e.g. a full disk) the file is truncated back to the last fully
    /// appended record, so a later successful append never lands behind a
    /// partial frame.  Transient failures are retried under the writer's
    /// [`RetryPolicy`]; each retry starts from the clean prefix.
    pub fn append(&mut self, payload: &[u8]) -> PersistResult<()> {
        self.append_group(&[payload])
    }

    /// Group commit: appends several records as **one** write followed by
    /// **one** fsync.  All records in the group become durable together (a
    /// crash mid-group leaves a valid prefix plus at most one torn frame,
    /// exactly like a single append), so callers may coalesce every batch
    /// queued behind the same log and acknowledge them after one sync —
    /// the fsync cost per batch drops with the queue depth.
    ///
    /// An empty group is a no-op (no write, no sync).  Failure semantics
    /// match [`WalWriter::append`]: the file is truncated back to the last
    /// fully appended group, and transient failures retry from that clean
    /// prefix.
    pub fn append_group(&mut self, payloads: &[&[u8]]) -> PersistResult<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        let total: usize = payloads.iter().map(|p| RECORD_FRAME_LEN + p.len()).sum();
        let mut frame = Writer::with_capacity(total);
        for payload in payloads {
            let len = u32::try_from(payload.len()).map_err(|_| {
                PersistError::Corrupt(format!("wal record of {} bytes exceeds u32", payload.len()))
            })?;
            frame.write_u32(len);
            frame.write_u32(!len);
            frame.write_u64(crc64(payload));
            frame.write_raw(payload);
        }

        let base = self.len;
        let vfs = self.vfs.as_ref();
        let path = &self.path;
        let (appends, syncs) = (&mut self.appends, &mut self.syncs);
        let o = crate::obs::obs();
        retrying(self.policy, || {
            *appends += 1;
            o.wal_appends.inc();
            o.wal_append_bytes.add(frame.len() as u64);
            let write = vfs
                .append(path, frame.as_bytes())
                .map_err(|e| PersistError::io("append wal record", &e))
                .and_then(|()| {
                    *syncs += 1;
                    o.wal_fsyncs.inc();
                    let fsync_timer = o.fsync_ns.start_timer();
                    let synced = vfs
                        .sync_file(path)
                        .map_err(|e| PersistError::io("sync wal record", &e));
                    fsync_timer.observe();
                    synced
                });
            if write.is_err() {
                // Best effort: drop whatever partial frame made it to disk
                // so a retry (or a later successful append) starts clean.
                let _ = vfs.truncate(path, base);
            }
            write
        })?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Number of append writes performed by this writer.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Number of fsyncs issued by this writer — the group-commit metric
    /// (`syncs / records` falls below 1 as groups deepen).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Scans a write-ahead log through the given VFS, validating the header
/// and every record checksum.  See [`WalReadMode`] for how a torn tail is
/// treated.
pub(crate) fn read_wal_with(
    vfs: &dyn Vfs,
    path: &Path,
    expected_fingerprint: Option<u64>,
    mode: WalReadMode,
) -> PersistResult<WalContents> {
    let data = vfs
        .read(path)
        .map_err(|e| PersistError::io(format!("read wal {path:?}"), &e))?;
    if data.len() < WAL_HEADER_LEN {
        return Err(PersistError::BadMagic {
            context: format!("wal {path:?}"),
        });
    }
    let mut r = Reader::new(&data);
    let magic = r.read_raw(8)?;
    if magic != WAL_MAGIC {
        return Err(PersistError::BadMagic {
            context: format!("wal {path:?}"),
        });
    }
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let fingerprint = r.read_u64()?;
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(PersistError::FingerprintMismatch {
                expected,
                found: fingerprint,
            });
        }
    }

    let mut records = Vec::new();
    let mut valid_len = WAL_HEADER_LEN as u64;
    let mut torn_tail = false;
    while r.remaining() > 0 {
        // A record cut short by the end of the file is a torn tail;
        // anything that parses but fails a check is corruption.  The
        // length is only trusted once its guard (the stored complement)
        // validates — a corrupted length must surface as corruption, not
        // pose as a torn tail and hide valid records behind it.
        let torn = |mode| match mode {
            WalReadMode::Recovery => Ok(true),
            WalReadMode::Strict => Err(PersistError::Truncated {
                context: "wal record".into(),
            }),
        };
        if r.remaining() < 8 {
            torn_tail = torn(mode)?;
            break;
        }
        let at = data.len() - r.remaining();
        let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
        let guard = u32::from_le_bytes(data[at + 4..at + 8].try_into().unwrap());
        if guard != !len {
            return Err(PersistError::ChecksumMismatch {
                context: "wal record length guard".into(),
                expected: u64::from(!len),
                found: u64::from(guard),
            });
        }
        let len = len as usize;
        if r.remaining() < RECORD_FRAME_LEN + len {
            torn_tail = torn(mode)?;
            break;
        }
        r.read_u32()?;
        r.read_u32()?;
        let recorded_crc = r.read_u64()?;
        let payload = r.read_raw(len)?;
        let actual_crc = crc64(payload);
        if actual_crc != recorded_crc {
            return Err(PersistError::ChecksumMismatch {
                context: "wal record".into(),
                expected: recorded_crc,
                found: actual_crc,
            });
        }
        records.push(payload.to_vec());
        valid_len += (RECORD_FRAME_LEN + len) as u64;
    }
    Ok(WalContents {
        records,
        valid_len,
        torn_tail,
        fingerprint,
    })
}

/// Scans a write-ahead log on the production filesystem, validating the
/// header and every record checksum.  See [`WalReadMode`] for how a torn
/// tail is treated.
pub fn read_wal(
    path: &Path,
    expected_fingerprint: Option<u64>,
    mode: WalReadMode,
) -> PersistResult<WalContents> {
    read_wal_with(&StdVfs, path, expected_fingerprint, mode)
}
