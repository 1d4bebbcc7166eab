//! The generation-set store: atomic checkpoints over N ≥ 1 members.
//!
//! A durable root holds *generations*.  Each one is a **head** snapshot
//! (`router.*`: the state no single member owns), one snapshot and one
//! [`WalWriter`] per **member** (`shard.*`, `wal.*`), all committed by a
//! single checksummed manifest.  A sharded service has one member per
//! posting shard; an unsharded root is simply N = 1:
//!
//! ```text
//! dir/
//!   MANIFEST                  magic │ version │ fingerprint │ num members │ committed gen │ crc
//!   router.000041.gsmb        the head snapshot of generation 41
//!   shard.000.000041.gsmb     member 0's snapshot of generation 41
//!   shard.001.000041.gsmb     member 1's snapshot
//!   wal.000.000041.gsmb       member 0's mutations appended after generation 41
//!   wal.001.000041.gsmb       member 1's WAL
//!   router.000040.gsmb        the previous generation (retained as fallback)
//!   ...
//!   LOCK                      held for the duration of a commit
//!   quarantine/               corrupt files moved aside by recovery
//! ```
//!
//! **Commit** (under the exclusive `LOCK`): write every member snapshot of
//! generation `g+1`, create the `g+1` WALs, write the head snapshot
//! **last**, then atomically rewrite `MANIFEST` — the one commit point for
//! all members.  A crash anywhere before the manifest rename leaves
//! generation `g` committed for *all* of them; the half-written `g+1` files
//! are uncommitted debris swept on the next open.  Afterwards retention
//! keeps the two newest generations and deletes the rest.
//!
//! The member snapshots go through a **two-stage pipeline**: a scoped
//! producer thread encodes and checksums member `i + 1` while the committing
//! thread runs member `i`'s `create → fsync → rename → directory fsync`, so
//! a checkpoint costs its IO plus one member's encoding instead of the sum
//! of both.  Every filesystem operation stays on the committing thread, in
//! the order above — what a `FaultVfs` logs, and so every crash point, is
//! the same with or without the overlap.  The store owns exactly two image
//! buffers, which the stages hand back and forth and every later checkpoint
//! reuses (see `ImageBuffers`).
//!
//! **Recovery** sweeps `*.tmp` files, a stale lock and uncommitted
//! generations, then walks the fallback chain **as a unit**: a generation
//! loads only if its head *and every member snapshot* validate; a corrupt
//! file is moved to `quarantine/` and sends *all* members back one
//! generation, where each replays a longer WAL chain (`wal.<g>` through
//! `wal.<committed>`) to the same committed boundary.  A lost or corrupt
//! manifest is rebuilt from the newest complete set on disk.  Everything
//! that happened is accounted for in the [`RecoveryReport`].  A committed
//! set whose head and members all carry another payload tag is no
//! corruption but a root some other wrapper wrote: recovery refuses it with
//! [`PersistError::BadMagic`] before it sweeps, removes or quarantines
//! anything.
//!
//! Two failure classes are deliberately **not** degraded around: a corrupt
//! record in the *middle* of a needed WAL is a fatal
//! [`PersistError::ChecksumMismatch`] (those records were acknowledged, and
//! skipping them would be silent data loss), and when every retained
//! generation is unreadable the last error surfaces instead of an empty
//! store.
//!
//! What the WAL records mean, how they stripe over the members and how they
//! are replayed is the caller's protocol: `er_stream::persist::MutationLog`.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

use er_core::{crc64, PersistError, PersistResult};

use crate::codec::{Encode, Reader, Writer};
use crate::generation::{quarantine, StoreLock, RETAINED_GENERATIONS};
use crate::snapshot::{
    read_snapshot_bytes_with, snapshot_file_bytes, snapshot_payload_tag, sweep_tmp_files,
    write_file_atomic, write_snapshot_image, FORMAT_VERSION,
};
use crate::vfs::{RetryPolicy, StdVfs, Vfs};
use crate::wal::{read_wal_with, WalWriter};
use crate::{lock_path, manifest_path, RecoveryReport, WalReadMode};

/// Magic bytes opening the manifest file.
pub const SHARD_MANIFEST_MAGIC: [u8; 8] = *b"GSMBSHM1";

/// Byte length of the manifest (`magic | version | fingerprint |
/// num shards | committed generation | crc64 over everything before it`).
pub const SHARD_MANIFEST_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8;

/// The router snapshot of generation `generation` inside `dir`.
pub fn router_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("router.{generation:06}.gsmb"))
}

/// Shard `shard`'s snapshot of generation `generation` inside `dir`.
pub fn shard_snapshot_path(dir: &Path, shard: u32, generation: u64) -> PathBuf {
    dir.join(format!("shard.{shard:03}.{generation:06}.gsmb"))
}

/// Shard `shard`'s write-ahead log of generation `generation` inside `dir`.
pub fn shard_wal_path(dir: &Path, shard: u32, generation: u64) -> PathBuf {
    dir.join(format!("wal.{shard:03}.{generation:06}.gsmb"))
}

/// Parses `router.GGGGGG.gsmb` / `shard.SSS.GGGGGG.gsmb` /
/// `wal.SSS.GGGGGG.gsmb` names, returning the generation.
fn parse_shard_file(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let parts: Vec<&str> = name.split('.').collect();
    match parts.as_slice() {
        ["router", generation, "gsmb"] => generation.parse().ok(),
        ["shard" | "wal", shard, generation, "gsmb"] => {
            shard.parse::<u32>().ok()?;
            generation.parse().ok()
        }
        _ => None,
    }
}

/// Everything a cross-shard recovery produced: one generation's payloads
/// for the router and every shard, the per-shard WAL records to replay on
/// top, and the report.  All shards are guaranteed to be at the **same**
/// committed boundary: the snapshots come from one generation set and the
/// WAL chains all end at the committed generation.
#[derive(Debug)]
pub struct RecoveredShards {
    /// The generation whose snapshot set loaded.
    pub generation: u64,
    /// The validated router payload.
    pub router_payload: Vec<u8>,
    /// The validated payload of every shard, in shard order.
    pub shard_payloads: Vec<Vec<u8>>,
    /// Per shard, the WAL records of its whole chain
    /// (`wal.<shard>.<generation>` through `wal.<shard>.<committed>`), in
    /// append order.  The caller merges them by their embedded sequence
    /// numbers.
    pub shard_records: Vec<Vec<Vec<u8>>>,
    /// Valid length of each shard's *committed* WAL, if every one was
    /// readable — the offsets to reopen them at for appending.  `None`
    /// means the recovery was degraded and the caller must commit a
    /// repair checkpoint instead.
    pub wal_valid_lens: Option<Vec<u64>>,
    /// The stream fingerprint the store carries.
    pub fingerprint: u64,
    /// The shard count recorded in the manifest.
    pub num_shards: u32,
    /// True if anything abnormal happened (fallback, rebuild, missing
    /// WAL): the caller should commit a fresh generation immediately
    /// after replay to restore redundancy.
    pub degraded: bool,
    /// The full account of what recovery did.
    pub report: RecoveryReport,
}

/// The two snapshot-image buffers a [`ShardStore`] keeps across
/// checkpoints.  Member `i` of a generation is encoded into buffer `i % 2`
/// while buffer `(i + 1) % 2` is being written out, so no more than two
/// images exist at once; between checkpoints the buffers stay allocated —
/// re-mapping and first-touching 10 MB per member per checkpoint cost a
/// third of the encoding.
///
/// The generation that fills them from empty trims them to its largest
/// image, so a store whose members do not grow holds two images' worth and
/// never allocates again.  An image that later outgrows its buffer grows it
/// the way any `Vec` grows and the doubled capacity is kept: trimming after
/// every checkpoint (one `realloc` up and one down per buffer, each time)
/// fragmented the heap into +6 % peak RSS on the `durable_shard` benchmark,
/// whereas capacity nothing was written to is never resident.
///
/// Each buffer sits in a `Mutex` only so that two threads can take turns
/// with it: the hand-over protocol in `ShardStore::write_generation` never
/// lets both want the same one.
#[derive(Default)]
struct ImageBuffers([Mutex<Vec<u8>>; 2]);

impl ImageBuffers {
    /// The buffer member `member` is built in and written from.  A holder
    /// that panicked mid-encode leaves scratch bytes at worst, which the
    /// next user overwrites.
    fn of(&self, member: usize) -> MutexGuard<'_, Vec<u8>> {
        self.0[member % 2]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases whatever either buffer holds beyond `len` bytes.
    fn trim_to(&self, len: usize) {
        for member in 0..2 {
            self.of(member).shrink_to(len);
        }
    }
}

impl std::fmt::Debug for ImageBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let capacities = [self.of(0).capacity(), self.of(1).capacity()];
        f.debug_tuple("ImageBuffers").field(&capacities).finish()
    }
}

/// A directory of cross-shard generation sets with a single atomic
/// manifest commit pointer.  See the module docs for the layout and
/// protocol.
#[derive(Debug)]
pub struct ShardStore {
    vfs: Arc<dyn Vfs>,
    policy: RetryPolicy,
    dir: PathBuf,
    fingerprint: u64,
    num_shards: u32,
    committed: u64,
    images: ImageBuffers,
}

impl ShardStore {
    /// Initialises a fresh store in `dir` with generation 0: router
    /// snapshot, one snapshot and one empty WAL per shard, manifest.
    /// Returns the store and the open generation-0 WAL writers, in shard
    /// order.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        dir: &Path,
        payload_tag: u32,
        fingerprint: u64,
        router: &impl Encode,
        shards: &[impl Encode + Sync],
    ) -> PersistResult<(Self, Vec<WalWriter>)> {
        assert!(!shards.is_empty(), "a shard store needs at least one shard");
        crate::vfs::retrying(policy, || {
            vfs.create_dir_all(dir)
                .map_err(|e| PersistError::io(format!("create store directory {dir:?}"), &e))
        })?;
        let _lock = StoreLock::acquire(vfs.clone(), policy, dir, "create shard store")?;
        let mut store = ShardStore {
            vfs,
            policy,
            dir: dir.to_path_buf(),
            fingerprint,
            num_shards: u32::try_from(shards.len()).expect("shard count fits u32"),
            committed: 0,
            images: ImageBuffers::default(),
        };
        let wals = store.write_generation(0, payload_tag, router, shards)?;
        store.write_manifest(0)?;
        Ok((store, wals))
    }

    /// Recovers a store from `dir`, walking the generation-set fallback
    /// chain.  On success the caller decodes the payloads, replays the
    /// merged shard records, then either reopens the committed WALs at
    /// `recovered.wal_valid_lens` (clean case) or commits a repair
    /// checkpoint (`recovered.degraded`).
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        policy: RetryPolicy,
        dir: &Path,
        payload_tag: u32,
        expected_fingerprint: Option<u64>,
    ) -> PersistResult<(Self, RecoveredShards)> {
        let obs = crate::obs::obs();
        obs.recoveries.inc();
        let recovery_timer = obs.recovery_ns.start_timer();

        // Read-only first: the manifest and the committed generation set.
        // A root some other wrapper wrote is refused here, before anything
        // in it is swept, removed or quarantined.
        let manifest = read_shard_manifest(vfs.as_ref(), dir);
        let mut committed_set = None;
        if let Ok((found, num_shards, committed)) = manifest {
            if let Some(expected) = expected_fingerprint.filter(|&expected| expected != found) {
                return Err(PersistError::FingerprintMismatch { expected, found });
            }
            let set = load_generation_set(
                vfs.as_ref(),
                dir,
                committed,
                num_shards,
                payload_tag,
                Some(found),
            );
            if set.is_err() {
                refuse_foreign_root(vfs.as_ref(), dir, committed, num_shards, payload_tag)?;
            }
            committed_set = Some(set);
        }

        let mut report = RecoveryReport {
            tmp_files_removed: sweep_tmp_files(vfs.as_ref(), dir)?,
            ..RecoveryReport::default()
        };
        report.stale_lock_removed = match vfs.remove(&lock_path(dir)) {
            Ok(()) => true,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => false,
            Err(err) => {
                return Err(PersistError::io(
                    format!("sweep stale store lock in {dir:?}"),
                    &err,
                ))
            }
        };

        // The manifest is the one cross-shard commit pointer.  If it is
        // unreadable but complete generation sets exist, infer the newest
        // one and treat the recovery as degraded.
        let (fingerprint_hint, num_shards, committed) = match manifest {
            Ok((fingerprint, num_shards, committed)) => (Some(fingerprint), num_shards, committed),
            Err(manifest_err) => {
                match newest_complete_generation(vfs.as_ref(), dir, payload_tag)? {
                    Some((generation, num_shards)) => {
                        report.manifest_rebuilt = true;
                        (None, num_shards, generation)
                    }
                    None => return Err(manifest_err),
                }
            }
        };
        report.committed_generation = committed;
        report.stale_generations_removed =
            remove_uncommitted_generations(vfs.as_ref(), dir, committed)?;

        // The fallback chain, a whole generation set at a time: the
        // router and every shard snapshot must validate together — a
        // corrupt member quarantines and sends *all* shards back one
        // generation, so no shard can recover ahead of its siblings.
        let expected_fingerprint = expected_fingerprint.or(fingerprint_hint);
        let load = |generation| {
            load_generation_set(
                vfs.as_ref(),
                dir,
                generation,
                num_shards,
                payload_tag,
                expected_fingerprint,
            )
        };
        let mut generation = committed;
        let mut attempt = committed_set.unwrap_or_else(|| load(committed));
        let (router_payload, shard_payloads, fingerprint) = loop {
            report.generations_tried += 1;
            match attempt {
                Ok(set) => break set,
                Err((bad_file, err)) => {
                    if let Some(path) = bad_file {
                        quarantine(vfs.as_ref(), dir, &path, &mut report)?;
                    }
                    if generation == 0 {
                        return Err(err);
                    }
                    generation -= 1;
                    attempt = load(generation);
                }
            }
        };

        // Per-shard WAL chains: the loaded generation's log through the
        // committed one.  A torn tail is only legal on the last log ever
        // appended to; a corrupt record anywhere is fatal (acknowledged
        // data must not be skipped); a missing log degrades the recovery
        // (the caller's sequence-contiguity check backstops real gaps).
        let mut shard_records: Vec<Vec<Vec<u8>>> = Vec::with_capacity(num_shards as usize);
        let mut wal_valid_lens = vec![None; num_shards as usize];
        let mut torn = false;
        let mut chain_complete = true;
        for shard in 0..num_shards {
            let mut records = Vec::new();
            for wal_generation in generation..=committed {
                let path = shard_wal_path(dir, shard, wal_generation);
                match read_wal_with(
                    vfs.as_ref(),
                    &path,
                    Some(fingerprint),
                    WalReadMode::Recovery,
                ) {
                    Ok(contents) => {
                        torn |= contents.torn_tail;
                        records.extend(contents.records);
                        if wal_generation == committed {
                            wal_valid_lens[shard as usize] = Some(contents.valid_len);
                        }
                    }
                    Err(PersistError::Io {
                        kind: std::io::ErrorKind::NotFound,
                        ..
                    }) => {
                        chain_complete = false;
                    }
                    Err(err) => return Err(err),
                }
            }
            shard_records.push(records);
        }
        report.used_generation = generation;
        report.torn_tail_truncated = torn;

        let wal_valid_lens: Option<Vec<u64>> = wal_valid_lens.into_iter().collect();
        let degraded = generation != committed
            || report.manifest_rebuilt
            || !chain_complete
            || wal_valid_lens.is_none()
            || !report.quarantined.is_empty();
        if degraded {
            obs.recoveries_degraded.inc();
        }
        obs.quarantined_bytes.add(report.quarantined_bytes());
        recovery_timer.observe();

        let store = ShardStore {
            vfs,
            policy,
            dir: dir.to_path_buf(),
            fingerprint,
            num_shards,
            committed,
            images: ImageBuffers::default(),
        };
        Ok((
            store,
            RecoveredShards {
                generation,
                router_payload,
                shard_payloads,
                shard_records,
                wal_valid_lens: if degraded { None } else { wal_valid_lens },
                fingerprint,
                num_shards,
                degraded,
                report,
            },
        ))
    }

    /// Commits a new generation set: router + every shard snapshot of
    /// `committed + 1`, fresh WALs for it, then the single manifest flip
    /// (the cross-shard commit point).  Returns the new generation's open
    /// WAL writers, in shard order.  Old generations beyond the retention
    /// window are cleaned up best-effort afterwards.
    pub fn commit(
        &mut self,
        payload_tag: u32,
        router: &impl Encode,
        shards: &[impl Encode + Sync],
    ) -> PersistResult<Vec<WalWriter>> {
        assert_eq!(
            shards.len(),
            self.num_shards as usize,
            "a commit must cover every shard"
        );
        let generation = self.committed + 1;
        let _lock = StoreLock::acquire(
            self.vfs.clone(),
            self.policy,
            &self.dir,
            &format!("commit shard generation {generation}"),
        )?;
        let wals = self.write_generation(generation, payload_tag, router, shards)?;
        self.write_manifest(generation)?;
        self.committed = generation;
        // Retention is advisory: a failure here never loses committed
        // state, it only leaves extra fallback generations behind.
        let _ = self.apply_retention();
        Ok(wals)
    }

    /// Reopens the committed generation's WALs for appending, truncating
    /// torn tails at `valid_lens` first.
    pub fn open_committed_wals(&self, valid_lens: &[u64]) -> PersistResult<Vec<WalWriter>> {
        assert_eq!(valid_lens.len(), self.num_shards as usize);
        (0..self.num_shards)
            .map(|shard| {
                WalWriter::open_with(
                    self.vfs.clone(),
                    self.policy,
                    &shard_wal_path(&self.dir, shard, self.committed),
                    valid_lens[shard as usize],
                )
            })
            .collect()
    }

    /// The committed generation number.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The number of shards the store was created with.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stream fingerprint every file in the store carries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Writes generation `generation`'s snapshot set and creates its
    /// WALs, without touching the manifest.
    ///
    /// The router snapshot is written **last**: when the manifest is lost
    /// and [`newest_complete_generation`] has to infer the committed set
    /// from the files on disk, a validating router certifies that every
    /// shard snapshot and WAL of its generation was fully written before
    /// it — a crash mid-set leaves no router, so a partial set can never
    /// be mistaken for a complete store with fewer shards.
    fn write_generation(
        &mut self,
        generation: u64,
        payload_tag: u32,
        router: &impl Encode,
        shards: &[impl Encode + Sync],
    ) -> PersistResult<Vec<WalWriter>> {
        let (vfs, policy, dir) = (self.vfs.as_ref(), self.policy, self.dir.as_path());
        let (fingerprint, images) = (self.fingerprint, &self.images);
        let obs = crate::obs::obs();
        let mut largest_image = 0;
        let first_fill = images.of(0).capacity() == 0;

        // Stage one builds member images, stage two (this thread) writes
        // them.  `encoded` is a rendezvous: the producer's hand-over of
        // member `i + 1` completes only when this thread comes back for it,
        // i.e. after member `i` is on disk and its buffer is free for
        // member `i + 2` — that is all that keeps the two stages off each
        // other's buffer.
        let written = std::thread::scope(|scope| {
            let (encoded, ready) = mpsc::sync_channel::<()>(0);
            let producer = scope.spawn(move || {
                for (member, payload) in shards.iter().enumerate() {
                    let timer = obs.snapshot_encode_ns.start_timer();
                    snapshot_file_bytes(payload_tag, fingerprint, payload, &mut images.of(member));
                    timer.observe();
                    // A failed write has dropped the receiver: stop.
                    if encoded.send(()).is_err() {
                        return;
                    }
                }
            });
            let mut written = Ok(());
            for member in 0..shards.len() {
                // Only a producer that panicked hangs up early; the join
                // below re-raises its panic.
                if ready.recv().is_err() {
                    break;
                }
                let image = images.of(member);
                largest_image = largest_image.max(image.len());
                let path = shard_snapshot_path(dir, member as u32, generation);
                let timer = obs.snapshot_write_ns.start_timer();
                written = write_snapshot_image(vfs, policy, &path, &image);
                timer.observe();
                if written.is_err() {
                    break;
                }
            }
            drop(ready);
            if let Err(panic) = producer.join() {
                std::panic::resume_unwind(panic);
            }
            written
        });
        if first_fill {
            images.trim_to(largest_image);
        }
        written?;

        let wals: PersistResult<Vec<WalWriter>> = (0..self.num_shards)
            .map(|shard| {
                WalWriter::create_with(
                    self.vfs.clone(),
                    policy,
                    &shard_wal_path(dir, shard, generation),
                    fingerprint,
                )
            })
            .collect();
        let wals = wals?;
        let mut image = images.of(0);
        snapshot_file_bytes(payload_tag, fingerprint, router, &mut image);
        write_snapshot_image(vfs, policy, &router_path(dir, generation), &image)?;
        Ok(wals)
    }

    fn write_manifest(&self, committed: u64) -> PersistResult<()> {
        let mut w = Writer::with_capacity(SHARD_MANIFEST_LEN);
        w.write_raw(&SHARD_MANIFEST_MAGIC);
        w.write_u32(FORMAT_VERSION);
        w.write_u64(self.fingerprint);
        w.write_u32(self.num_shards);
        w.write_u64(committed);
        let crc = crc64(w.as_bytes());
        w.write_u64(crc);
        write_file_atomic(
            self.vfs.as_ref(),
            self.policy,
            &manifest_path(&self.dir),
            w.as_bytes(),
        )
    }

    /// Deletes generation files older than the retention window.
    fn apply_retention(&self) -> PersistResult<()> {
        let oldest_kept = self.committed.saturating_sub(RETAINED_GENERATIONS - 1);
        let entries = self
            .vfs
            .list(&self.dir)
            .map_err(|e| PersistError::io(format!("list store directory {:?}", self.dir), &e))?;
        for path in entries {
            if let Some(generation) = parse_shard_file(&path) {
                if generation < oldest_kept {
                    self.vfs.remove(&path).map_err(|e| {
                        PersistError::io(format!("remove retired generation file {path:?}"), &e)
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// Reads and validates the sharded manifest, returning
/// `(fingerprint, num_shards, committed)`.
pub fn read_shard_manifest(vfs: &dyn Vfs, dir: &Path) -> PersistResult<(u64, u32, u64)> {
    let path = manifest_path(dir);
    let data = vfs
        .read(&path)
        .map_err(|e| PersistError::io(format!("read manifest {path:?}"), &e))?;
    if data.len() < SHARD_MANIFEST_LEN {
        return Err(PersistError::BadMagic {
            context: format!("shard manifest {path:?}"),
        });
    }
    let mut r = Reader::new(&data);
    let magic = r.read_raw(8)?;
    if magic != SHARD_MANIFEST_MAGIC {
        return Err(PersistError::BadMagic {
            context: format!("shard manifest {path:?}"),
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
    let num_shards = r.read_u32()?;
    let committed = r.read_u64()?;
    let recorded_crc = r.read_u64()?;
    r.expect_end().map_err(|_| {
        PersistError::Corrupt(format!("shard manifest {path:?} carries trailing bytes"))
    })?;
    let actual_crc = crc64(&data[..SHARD_MANIFEST_LEN - 8]);
    if actual_crc != recorded_crc {
        return Err(PersistError::ChecksumMismatch {
            context: format!("shard manifest {path:?}"),
            expected: recorded_crc,
            found: actual_crc,
        });
    }
    if num_shards == 0 {
        return Err(PersistError::Corrupt(format!(
            "shard manifest {path:?} declares zero shards"
        )));
    }
    Ok((fingerprint, num_shards, committed))
}

/// Loads one generation set (router + every shard snapshot).  On failure
/// returns the corrupt file to quarantine (`None` if it was merely
/// missing) and the error.
#[allow(clippy::type_complexity)]
fn load_generation_set(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    num_shards: u32,
    payload_tag: u32,
    expected_fingerprint: Option<u64>,
) -> Result<(Vec<u8>, Vec<Vec<u8>>, u64), (Option<PathBuf>, PersistError)> {
    let classify = |path: PathBuf, err: PersistError| {
        let missing = matches!(
            &err,
            PersistError::Io { kind, .. } if *kind == std::io::ErrorKind::NotFound
        );
        (if missing { None } else { Some(path) }, err)
    };
    let path = router_path(dir, generation);
    let (router_payload, fingerprint) =
        read_snapshot_bytes_with(vfs, &path, payload_tag, expected_fingerprint)
            .map_err(|err| classify(path, err))?;
    let mut shard_payloads = Vec::with_capacity(num_shards as usize);
    for shard in 0..num_shards {
        let path = shard_snapshot_path(dir, shard, generation);
        let (payload, shard_fingerprint) =
            read_snapshot_bytes_with(vfs, &path, payload_tag, expected_fingerprint)
                .map_err(|err| classify(path.clone(), err))?;
        if shard_fingerprint != fingerprint {
            return Err((
                Some(path),
                PersistError::FingerprintMismatch {
                    expected: fingerprint,
                    found: shard_fingerprint,
                },
            ));
        }
        shard_payloads.push(payload);
    }
    Ok((router_payload, shard_payloads, fingerprint))
}

/// Refuses a root another wrapper wrote.  When generation `generation`'s
/// head and every member carry one payload tag other than `payload_tag`,
/// the set is intact, just not this caller's: recovering it would
/// quarantine every generation as corrupt.  A tag that disagrees *within*
/// the set is corruption, left to the fallback chain.  Reads the set again,
/// so it runs only after loading it failed.
fn refuse_foreign_root(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    num_shards: u32,
    payload_tag: u32,
) -> PersistResult<()> {
    let tag_of = |path: PathBuf| snapshot_payload_tag(&vfs.read(&path).ok()?);
    let members_agree = |tag: &u32| {
        (0..num_shards)
            .all(|shard| tag_of(shard_snapshot_path(dir, shard, generation)) == Some(*tag))
    };
    let found = tag_of(router_path(dir, generation)).filter(|&tag| tag != payload_tag);
    let Some(found) = found.filter(members_agree) else {
        return Ok(());
    };
    let name = |tag: u32| {
        format!(
            "{tag:#010x} ({})",
            String::from_utf8_lossy(&tag.to_be_bytes())
        )
    };
    Err(PersistError::BadMagic {
        context: format!(
            "root {dir:?} holds snapshots tagged {}, not the expected {}",
            name(found),
            name(payload_tag)
        ),
    })
}

/// The newest generation with a complete snapshot set in `dir`, with its
/// shard count — used to rebuild a lost manifest.
fn newest_complete_generation(
    vfs: &dyn Vfs,
    dir: &Path,
    payload_tag: u32,
) -> PersistResult<Option<(u64, u32)>> {
    let entries = match vfs.list(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => {
            return Err(PersistError::io(
                format!("list store directory {dir:?}"),
                &err,
            ))
        }
    };
    // Candidate generations, newest first, with the shard count observed
    // on disk; a generation counts only if its full set validates.
    let mut generations: Vec<u64> = entries.iter().filter_map(|p| parse_shard_file(p)).collect();
    generations.sort_unstable();
    generations.dedup();
    for &generation in generations.iter().rev() {
        let num_shards = (0..)
            .take_while(|&shard| {
                entries
                    .iter()
                    .any(|p| *p == shard_snapshot_path(dir, shard, generation))
            })
            .count() as u32;
        if num_shards == 0 {
            continue;
        }
        if load_generation_set(vfs, dir, generation, num_shards, payload_tag, None).is_ok() {
            return Ok(Some((generation, num_shards)));
        }
    }
    Ok(None)
}

/// Removes generation files newer than the committed generation (debris
/// of a crash mid-commit), returning how many files were removed.
fn remove_uncommitted_generations(
    vfs: &dyn Vfs,
    dir: &Path,
    committed: u64,
) -> PersistResult<usize> {
    let entries = vfs
        .list(dir)
        .map_err(|e| PersistError::io(format!("list store directory {dir:?}"), &e))?;
    let mut removed = 0;
    for path in entries {
        if let Some(generation) = parse_shard_file(&path) {
            if generation > committed {
                vfs.remove(&path).map_err(|e| {
                    PersistError::io(format!("remove uncommitted generation file {path:?}"), &e)
                })?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

/// Reads the committed generation number of the shard store in `dir` on
/// the production filesystem — a convenience for tests and benchmarks.
pub fn committed_shard_generation(dir: &Path) -> PersistResult<u64> {
    read_shard_manifest(&StdVfs, dir).map(|(_, _, committed)| committed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_file_names_parse_and_generation_files_do_not_collide() {
        let dir = Path::new("/x");
        assert_eq!(parse_shard_file(&router_path(dir, 41)), Some(41));
        assert_eq!(parse_shard_file(&shard_snapshot_path(dir, 3, 41)), Some(41));
        assert_eq!(parse_shard_file(&shard_wal_path(dir, 0, 7)), Some(7));
        assert_eq!(parse_shard_file(Path::new("/x/MANIFEST")), None);
        assert_eq!(parse_shard_file(Path::new("/x/LOCK")), None);
        assert_eq!(parse_shard_file(Path::new("/x/quarantine")), None);
        assert_eq!(
            parse_shard_file(Path::new("/x/shard.abc.000001.gsmb")),
            None
        );
        // Names of the retired single-file layout are not generation files.
        assert_eq!(parse_shard_file(Path::new("/x/snapshot.000041.gsmb")), None);
    }
}
