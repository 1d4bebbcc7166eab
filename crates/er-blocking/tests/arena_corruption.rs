//! Corruption coverage for arena-encoded block snapshots: every flipped or
//! truncated region of a [`CsrBlockCollection`] arena frame
//! must surface as a clean typed error, and a corrupted generation inside an
//! [`er_persist::ShardStore`] (the arena is member 0, the head a marker) must
//! fall back to the previous generation and recover a **bit-identical**
//! collection.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use er_blocking::CsrBlockCollection;
use er_core::{DatasetKind, EntityId, PersistError};
use er_persist::{
    decode_from_slice, decode_snapshot_payload, encode_to_vec, read_snapshot, shard_snapshot_path,
    write_snapshot, RetryPolicy, ShardStore, StdVfs,
};

const TAG: u32 = 0x4152_4e41; // "ARNA"
const FINGERPRINT: u64 = 0xb10c_a4e4_a000_0001;
/// The head snapshot: these stores keep everything in member 0.
const HEAD: u8 = 0;

fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("arena-{test}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn ids(v: &[u32]) -> Vec<EntityId> {
    v.iter().copied().map(EntityId).collect()
}

fn sample(name: &str) -> CsrBlockCollection {
    CsrBlockCollection::from_blocks(
        name,
        DatasetKind::CleanClean,
        3,
        7,
        [
            ("alpha", ids(&[0, 3, 4])),
            ("beta", ids(&[0, 1, 3, 5])),
            ("gamma", ids(&[1, 2, 4, 5, 6])),
            ("delta", ids(&[2, 6])),
        ],
    )
}

fn assert_bit_identical(a: &CsrBlockCollection, b: &CsrBlockCollection) {
    assert_eq!(a.dataset_name, b.dataset_name);
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.split, b.split);
    assert_eq!(a.num_entities, b.num_entities);
    assert_eq!(a.num_blocks(), b.num_blocks());
    for blk in 0..a.num_blocks() {
        assert_eq!(a.key(blk), b.key(blk));
        assert_eq!(a.entities(blk), b.entities(blk));
        assert_eq!(a.first_source_count(blk), b.first_source_count(blk));
    }
    // The ultimate arbiter: identical re-encoded bytes.
    assert_eq!(encode_to_vec(a), encode_to_vec(b));
}

/// Every single-byte flip anywhere in a snapshotted arena file is a typed
/// error — either the outer snapshot checksum, the arena's own trailer, or
/// the invariant sweep, but never a panic or a silently different value.
#[test]
fn every_flipped_byte_of_an_arena_snapshot_is_typed() {
    let dir = scratch("flip");
    let path = dir.join("blocks.gsmb");
    let csr = sample("flip");
    write_snapshot(&path, TAG, FINGERPRINT, &csr).unwrap();
    let clean = fs::read(&path).unwrap();

    let baseline: (CsrBlockCollection, u64) = read_snapshot(&path, TAG, Some(FINGERPRINT)).unwrap();
    assert_bit_identical(&baseline.0, &csr);

    for at in 0..clean.len() {
        let mut bad = clean.clone();
        bad[at] ^= 0x20;
        fs::write(&path, &bad).unwrap();
        let err = match read_snapshot::<CsrBlockCollection>(&path, TAG, Some(FINGERPRINT)) {
            Err(err) => err,
            Ok(_) => panic!("flip at {at} decoded successfully"),
        };
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::Corrupt(_)
                    | PersistError::VersionMismatch { .. }
                    | PersistError::FingerprintMismatch { .. }
            ),
            "flip at {at}: {err:?}"
        );
    }
}

/// Every truncation point of a bare arena frame (no outer snapshot framing)
/// exercises the arena's own length and checksum checks.
#[test]
fn every_truncation_of_a_bare_arena_frame_is_typed() {
    let clean = encode_to_vec(&sample("truncate"));
    for cut in 0..clean.len() {
        let err = match decode_from_slice::<CsrBlockCollection>(&clean[..cut]) {
            Err(err) => err,
            Ok(_) => panic!("cut at {cut} decoded successfully"),
        };
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::Corrupt(_)
            ),
            "cut at {cut}: {err:?}"
        );
    }
}

/// A corrupted committed generation falls back to the previous one: the
/// recovered collection is bit-identical to what that generation held, and
/// the recovery is flagged degraded with the bad file quarantined.
#[test]
fn generation_fallback_recovers_the_previous_arena_bit_identically() {
    let dir = scratch("fallback");
    let vfs = Arc::new(StdVfs);
    let gen0 = sample("generation-zero");

    let (mut store, _wals) = ShardStore::create(
        vfs.clone(),
        RetryPolicy::default(),
        &dir,
        TAG,
        FINGERPRINT,
        &HEAD,
        std::slice::from_ref(&gen0),
    )
    .unwrap();

    // Commit generation 1 with a different collection (a filtered subset).
    let gen1 = gen0.retain(|b| b != 2);
    let _wals = store
        .commit(TAG, &HEAD, std::slice::from_ref(&gen1))
        .unwrap();
    drop(store);

    // Clean recovery sees generation 1.
    let (_store, recovered) = ShardStore::recover(
        vfs.clone(),
        RetryPolicy::default(),
        &dir,
        TAG,
        Some(FINGERPRINT),
    )
    .unwrap();
    assert_eq!(recovered.generation, 1);
    assert!(!recovered.degraded);
    let back: CsrBlockCollection = decode_snapshot_payload(&recovered.shard_payloads[0]).unwrap();
    assert_bit_identical(&back, &gen1);

    // Corrupt generation 1's snapshot payload on disk.
    let path = shard_snapshot_path(&dir, 0, 1);
    let mut bytes = fs::read(&path).unwrap();
    let at = bytes.len() - 9; // inside the arena body
    bytes[at] ^= 0x80;
    fs::write(&path, &bytes).unwrap();

    // Recovery falls back to generation 0 and adopts it bit-identically.
    let (_store, recovered) =
        ShardStore::recover(vfs, RetryPolicy::default(), &dir, TAG, Some(FINGERPRINT)).unwrap();
    assert_eq!(recovered.generation, 0);
    assert!(recovered.degraded);
    assert_eq!(recovered.report.generations_tried, 2);
    assert!(
        !recovered.report.quarantined.is_empty(),
        "the corrupt snapshot must be quarantined"
    );
    let back: CsrBlockCollection = decode_snapshot_payload(&recovered.shard_payloads[0]).unwrap();
    assert_bit_identical(&back, &gen0);
}
