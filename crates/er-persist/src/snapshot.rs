//! Atomic, checksummed snapshot files.
//!
//! A snapshot is one self-describing file:
//!
//! ```text
//! ┌──────────────┬─────────┬─────────────┬─────────────┬─────────────┬─────────────┬─────────┐
//! │ magic (8 B)  │ version │ payload tag │ fingerprint │ payload len │ payload crc │ payload │
//! │ "GSMBSNP1"   │ u32     │ u32         │ u64         │ u64         │ u64 (CRC-64)│ bytes   │
//! └──────────────┴─────────┴─────────────┴─────────────┴─────────────┴─────────────┴─────────┘
//! ```
//!
//! * the **payload tag** names what the payload is (a streaming index, a
//!   trained model, a prepared dataset, ...) so loading the wrong kind of
//!   snapshot fails cleanly instead of mis-decoding;
//! * the **fingerprint** ties the file to its corpus/stream — recovery
//!   refuses to mix state from different streams;
//! * the **CRC-64/XZ** digest covers the entire payload, so any flipped or
//!   missing byte surfaces as [`PersistError::ChecksumMismatch`] or
//!   [`PersistError::Truncated`] before a single field is decoded.
//!
//! Writes are atomic: the file is assembled under a temporary name in the
//! same directory, fsynced, and renamed over the destination, so a crash
//! mid-write leaves either the old snapshot or the new one — never a
//! half-written file.  (A crash can leak the temp file itself;
//! [`sweep_tmp_files`] removes leaked temps when a store is opened.)
//!
//! An image is built in **one buffer**: the header goes first with its
//! length and checksum fields blank, the payload is encoded straight behind
//! it, and the two fields are patched once the payload is there to measure
//! and digest — no separate body that is then copied behind a header.  A
//! load validates the file where it was read and moves the payload down over
//! the header instead of copying it into a second buffer.
//!
//! All IO goes through a [`Vfs`]: production uses [`StdVfs`],
//! the fault-injection suites substitute a `FaultVfs`.  The `*_with`
//! functions take the seam explicitly; the plain names are std-VFS
//! conveniences with the default write-path [`RetryPolicy`].

use std::path::Path;
use std::sync::Arc;

use er_core::{crc64, PersistError, PersistResult};

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::vfs::{retrying, RetryPolicy, StdVfs, Vfs};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GSMBSNP1";

/// The on-disk format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed snapshot header.
pub const SNAPSHOT_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// Offset of the header's payload-length field; the checksum follows it.
const PAYLOAD_LEN_OFFSET: usize = 8 + 4 + 4 + 8;
const PAYLOAD_CRC_OFFSET: usize = PAYLOAD_LEN_OFFSET + 8;

/// True for the errors a directory fsync is allowed to return on
/// filesystems that simply do not support syncing directories (the only
/// tolerated failures — the fsyncgate class of bug was swallowing *all*
/// of them).
fn dir_sync_unsupported(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::Unsupported | std::io::ErrorKind::InvalidInput
    ) || matches!(err.raw_os_error(), Some(95) | Some(22)) // ENOTSUP | EINVAL
}

/// Fsyncs a directory so renames and unlinks inside it are durable.
/// Filesystems that refuse directory fsync (ENOTSUP/EINVAL) are tolerated;
/// every other failure propagates.
pub fn sync_dir_tolerant(vfs: &dyn Vfs, dir: &Path) -> PersistResult<()> {
    match vfs.sync_dir(dir) {
        Ok(()) => Ok(()),
        Err(err) if dir_sync_unsupported(&err) => Ok(()),
        Err(err) => Err(PersistError::io(format!("sync directory {dir:?}"), &err)),
    }
}

/// Fsyncs the directory containing `path` so a rename or unlink inside it
/// is durable.  See [`sync_dir_tolerant`] for the tolerated failures.
pub fn sync_parent_dir(vfs: &dyn Vfs, path: &Path) -> PersistResult<()> {
    match path.parent() {
        Some(parent) => sync_dir_tolerant(vfs, parent),
        None => Ok(()),
    }
}

/// Removes `*.tmp` files leaked into `dir` by a crash mid-snapshot-write,
/// returning how many were swept.  A missing directory sweeps nothing.
pub fn sweep_tmp_files(vfs: &dyn Vfs, dir: &Path) -> PersistResult<usize> {
    let entries = match vfs.list(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(err) => return Err(PersistError::io(format!("list directory {dir:?}"), &err)),
    };
    let mut swept = 0;
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
            vfs.remove(&path)
                .map_err(|e| PersistError::io(format!("remove stale temp file {path:?}"), &e))?;
            swept += 1;
        }
    }
    if swept > 0 {
        sync_dir_tolerant(vfs, dir)?;
    }
    Ok(swept)
}

/// Assembles the full snapshot file image for `payload` in `image`,
/// replacing what it held but keeping its allocation (an empty `Vec` for a
/// one-off write; a checkpoint passes the buffer of an earlier image, whose
/// pages are already mapped).
pub(crate) fn snapshot_file_bytes(
    payload_tag: u32,
    fingerprint: u64,
    payload: &impl Encode,
    image: &mut Vec<u8>,
) {
    let mut w = Writer::reusing(std::mem::take(image));
    w.write_raw(&SNAPSHOT_MAGIC);
    w.write_u32(FORMAT_VERSION);
    w.write_u32(payload_tag);
    w.write_u64(fingerprint);
    // Length and checksum: patched below, once the payload is behind them.
    w.write_u64(0);
    w.write_u64(0);
    debug_assert_eq!(w.len(), SNAPSHOT_HEADER_LEN);
    payload.encode(&mut w);
    let payload_len = w.len() - SNAPSHOT_HEADER_LEN;
    let payload_crc = crc64(&w.as_bytes()[SNAPSHOT_HEADER_LEN..]);
    w.patch_u64(PAYLOAD_LEN_OFFSET, payload_len as u64);
    w.patch_u64(PAYLOAD_CRC_OFFSET, payload_crc);
    *image = w.into_bytes();
}

/// Writes a pre-assembled file image atomically: temp file in the same
/// directory, fsync, rename over the destination, parent-directory fsync.
/// The whole sequence is one retry unit — after a failed fsync the temp
/// file's durability is unknown, so a retry re-writes it from scratch
/// rather than re-syncing (the fsyncgate rule).
pub(crate) fn write_file_atomic(
    vfs: &dyn Vfs,
    policy: RetryPolicy,
    path: &Path,
    bytes: &[u8],
) -> PersistResult<()> {
    let tmp = path.with_extension("tmp");
    retrying(policy, || {
        vfs.create(&tmp, bytes)
            .map_err(|e| PersistError::io(format!("create temp file {tmp:?}"), &e))?;
        vfs.sync_file(&tmp)
            .map_err(|e| PersistError::io(format!("sync temp file {tmp:?}"), &e))?;
        vfs.rename(&tmp, path)
            .map_err(|e| PersistError::io(format!("rename {tmp:?} into place at {path:?}"), &e))?;
        sync_parent_dir(vfs, path)
    })
}

/// Writes one assembled snapshot image atomically (see
/// [`write_file_atomic`]) and accounts for it on the registry.
pub(crate) fn write_snapshot_image(
    vfs: &dyn Vfs,
    policy: RetryPolicy,
    path: &Path,
    image: &[u8],
) -> PersistResult<()> {
    let o = crate::obs::obs();
    o.snapshot_writes.inc();
    o.snapshot_bytes.add(image.len() as u64);
    write_file_atomic(vfs, policy, path, image)
}

/// Encodes `payload` and writes it atomically to `path` through the given
/// VFS and retry policy.
pub fn write_snapshot_with(
    vfs: &dyn Vfs,
    policy: RetryPolicy,
    path: &Path,
    payload_tag: u32,
    fingerprint: u64,
    payload: &impl Encode,
) -> PersistResult<()> {
    let mut image = Vec::new();
    snapshot_file_bytes(payload_tag, fingerprint, payload, &mut image);
    write_snapshot_image(vfs, policy, path, &image)
}

/// Encodes `payload` and writes it atomically (temp file + rename) to
/// `path` under the given payload tag and corpus fingerprint, using the
/// production filesystem and the default write-path retry policy.
pub fn write_snapshot(
    path: &Path,
    payload_tag: u32,
    fingerprint: u64,
    payload: &impl Encode,
) -> PersistResult<()> {
    write_snapshot_with(
        &StdVfs,
        RetryPolicy::default_write(),
        path,
        payload_tag,
        fingerprint,
        payload,
    )
}

/// Validates a snapshot image in memory, returning the payload slice and
/// the fingerprint recorded in the header.
fn validated_payload<'a>(
    data: &'a [u8],
    path: &Path,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> PersistResult<(&'a [u8], u64)> {
    let mut r = Reader::new(data);
    let magic = r.read_raw(8).map_err(|_| PersistError::BadMagic {
        context: format!("snapshot {path:?}"),
    })?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            context: format!("snapshot {path:?}"),
        });
    }
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let tag = r.read_u32()?;
    if tag != payload_tag {
        return Err(PersistError::Corrupt(format!(
            "snapshot payload tag {tag:#010x} does not match the expected {payload_tag:#010x}"
        )));
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
    let len = r.read_usize()?;
    let recorded_crc = r.read_u64()?;
    if r.remaining() < len {
        return Err(PersistError::Truncated {
            context: "snapshot payload".into(),
        });
    }
    if r.remaining() > len {
        return Err(PersistError::Corrupt(format!(
            "{} bytes beyond the declared snapshot payload",
            r.remaining() - len
        )));
    }
    let payload = r.read_raw(len)?;
    let actual_crc = crc64(payload);
    if actual_crc != recorded_crc {
        return Err(PersistError::ChecksumMismatch {
            context: "snapshot payload".into(),
            expected: recorded_crc,
            found: actual_crc,
        });
    }
    Ok((payload, fingerprint))
}

/// The payload tag in a snapshot image's header, when the image opens with
/// this format's magic and version.
pub(crate) fn snapshot_payload_tag(data: &[u8]) -> Option<u32> {
    let mut r = Reader::new(data);
    let header_ok = r.read_raw(8).ok()? == SNAPSHOT_MAGIC && r.read_u32().ok()? == FORMAT_VERSION;
    header_ok.then(|| r.read_u32().ok()).flatten()
}

fn read_file(vfs: &dyn Vfs, path: &Path) -> PersistResult<Vec<u8>> {
    vfs.read(path)
        .map_err(|e| PersistError::io(format!("read snapshot {path:?}"), &e))
}

/// Reads and validates a snapshot file through the given VFS, returning
/// the raw payload bytes and the fingerprint recorded in the header.
pub fn read_snapshot_bytes_with(
    vfs: &dyn Vfs,
    path: &Path,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> PersistResult<(Vec<u8>, u64)> {
    let mut data = read_file(vfs, path)?;
    let (_, fingerprint) = validated_payload(&data, path, payload_tag, expected_fingerprint)?;
    // The payload is everything behind the header: move it down over the
    // header inside the buffer it was read into instead of copying it out.
    data.drain(..SNAPSHOT_HEADER_LEN);
    Ok((data, fingerprint))
}

/// Reads and validates a snapshot file, returning the raw payload bytes and
/// the fingerprint recorded in the header.
///
/// `expected_fingerprint` of `Some(f)` additionally enforces that the file
/// belongs to the expected corpus/stream.
pub fn read_snapshot_bytes(
    path: &Path,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> PersistResult<(Vec<u8>, u64)> {
    read_snapshot_bytes_with(&StdVfs, path, payload_tag, expected_fingerprint)
}

/// Reads, validates and decodes a snapshot through the given VFS.
pub fn read_snapshot_with<T: Decode>(
    vfs: &dyn Vfs,
    path: &Path,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> PersistResult<(T, u64)> {
    let data = read_file(vfs, path)?;
    let (payload, fingerprint) = validated_payload(&data, path, payload_tag, expected_fingerprint)?;
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok((value, fingerprint))
}

/// Reads, validates and decodes a snapshot, returning the payload and the
/// fingerprint recorded in the header.  Decodes straight from the validated
/// file image — no second copy of the payload is made.
pub fn read_snapshot<T: Decode>(
    path: &Path,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> PersistResult<(T, u64)> {
    read_snapshot_with(&StdVfs, path, payload_tag, expected_fingerprint)
}

/// Decodes an already-validated payload image (as returned inside a
/// [`RecoveredShards`](crate::multi::RecoveredShards)).
pub fn decode_snapshot_payload<T: Decode>(payload: &[u8]) -> PersistResult<T> {
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// A shared handle to a [`Vfs`] — the form the higher layers store.
pub type VfsHandle = Arc<dyn Vfs>;
