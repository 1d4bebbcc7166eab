//! Arena snapshot layout for the CSR block collection.
//!
//! The classic codec in [`crate::persist`] walked a [`CsrBlockCollection`]
//! block by block, emitting one length-prefixed entity list per block and
//! re-assembling the CSR arrays one element at a time on recovery.  This
//! module replaces that with a **contiguous arena** layout: the snapshot
//! bytes of each flat array are exactly its little-endian in-memory bytes,
//! laid out back to back with 8-byte alignment, so recovery is *validate +
//! adopt* — one CRC-64 pass over the frame, one bulk conversion per section,
//! one invariant sweep — instead of a per-element decode loop.
//!
//! # Frame layout
//!
//! ```text
//! ┌─────────────┬──────────┬───────────────────────────────┬──────────┐
//! │ magic (8 B) │ body len │ body (8-byte-aligned sections)│ CRC-64   │
//! │ "GSMBCSRA"  │ u64      │ version, scalars, sections    │ u64 over │
//! │             │          │                               │ the body │
//! └─────────────┴──────────┴───────────────────────────────┴──────────┘
//! ```
//!
//! Every section starts with a `u64` element count and is zero-padded to the
//! next 8-byte boundary **relative to the body start**.  The body itself
//! begins 16 bytes into the frame, so in a standalone arena file every
//! section sits 8-byte aligned in the file — the layout is mmap-ready: a
//! reader that maps the file can point `&[u32]`/`&[u64]` views at the
//! section bytes directly after checking the trailer.  (The in-tree decoder
//! stays safe Rust and copies each section with one bulk `chunks_exact`
//! conversion; adopting the mapping in place is a format property, not a
//! code dependency.)
//!
//! # Validation
//!
//! The CRC-64 trailer catches random corruption before any field is looked
//! at ([`PersistError::ChecksumMismatch`]).  Bytes that pass the checksum
//! but encode an impossible structure — non-monotone offsets, out-of-range
//! ids, unsorted entity lists — are rejected with
//! [`PersistError::Corrupt`]; a snapshot never becomes observable state
//! unless every CSR invariant holds.

use std::sync::Arc;

use er_core::{crc64, DatasetKind, EntityId, PersistError, PersistResult};
use er_persist::{Reader, Writer};

use crate::csr::{CsrBlockCollection, KeyStore};

/// Magic bytes of a [`CsrBlockCollection`] arena frame.
pub const CSR_ARENA_MAGIC: [u8; 8] = *b"GSMBCSRA";

/// Arena layout version written and accepted by this build.
pub const ARENA_VERSION: u32 = 1;

/// Pads the body writer with zeros to the next 8-byte boundary relative to
/// the body start.
fn pad8(body: &mut Writer) {
    while !body.len().is_multiple_of(8) {
        body.write_u8(0);
    }
}

/// Writes a length-prefixed byte section, zero-padded to 8 bytes.
fn write_byte_section(body: &mut Writer, bytes: &[u8]) {
    body.write_u64(bytes.len() as u64);
    body.write_raw(bytes);
    pad8(body);
}

/// Writes a `u32` section: element count, raw little-endian elements, pad.
fn write_u32_section(body: &mut Writer, data: &[u32]) {
    body.write_u64(data.len() as u64);
    for &v in data {
        body.write_u32(v);
    }
    pad8(body);
}

/// A bounds-checked cursor over one arena body that knows its absolute
/// position, so padding can be skipped without guessing.
struct BodyReader<'a> {
    r: Reader<'a>,
    total: usize,
}

impl<'a> BodyReader<'a> {
    fn new(body: &'a [u8]) -> Self {
        BodyReader {
            r: Reader::new(body),
            total: body.len(),
        }
    }

    fn pos(&self) -> usize {
        self.total - self.r.remaining()
    }

    /// Skips zero padding to the next 8-byte boundary, rejecting non-zero
    /// filler (a flipped pad byte is corruption like any other).
    fn skip_pad(&mut self) -> PersistResult<()> {
        let pad = (8 - self.pos() % 8) % 8;
        if pad > 0 {
            let bytes = self.r.read_raw(pad)?;
            if bytes.iter().any(|&b| b != 0) {
                return Err(PersistError::Corrupt(
                    "arena section padding is not zero".into(),
                ));
            }
        }
        Ok(())
    }

    fn read_section_len(&mut self, what: &str) -> PersistResult<usize> {
        let len = self.r.read_u64()?;
        usize::try_from(len).map_err(|_| {
            PersistError::Corrupt(format!("arena section {what} length exceeds usize"))
        })
    }

    /// Reads a byte section (length prefix + raw bytes + pad).
    fn read_byte_section(&mut self, what: &str) -> PersistResult<&'a [u8]> {
        let len = self.read_section_len(what)?;
        let bytes = self.r.read_raw(len)?;
        self.skip_pad()?;
        Ok(bytes)
    }

    /// Reads a `u32` section with one bulk conversion.
    fn read_u32_section(&mut self, what: &str) -> PersistResult<Vec<u32>> {
        let len = self.read_section_len(what)?;
        let Some(byte_len) = len.checked_mul(4) else {
            return Err(PersistError::Corrupt(format!(
                "arena section {what} length overflows"
            )));
        };
        let bytes = self.r.read_raw(byte_len)?;
        let out = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.skip_pad()?;
        Ok(out)
    }

    fn expect_end(&self) -> PersistResult<()> {
        self.r.expect_end()
    }
}

/// Frames a finished body: magic, body length, body bytes, CRC-64 trailer.
fn write_frame(w: &mut Writer, magic: &[u8; 8], body: Writer) {
    let body = body.into_bytes();
    w.write_raw(magic);
    w.write_u64(body.len() as u64);
    let digest = crc64(&body);
    w.write_raw(&body);
    w.write_u64(digest);
}

/// Reads and checksums one frame, returning the verified body slice.
fn read_frame<'a>(r: &mut Reader<'a>, magic: &[u8; 8], what: &str) -> PersistResult<&'a [u8]> {
    let found = r.read_raw(8)?;
    if found != magic {
        return Err(PersistError::BadMagic {
            context: format!("{what} arena frame"),
        });
    }
    let len = usize::try_from(r.read_u64()?)
        .map_err(|_| PersistError::Corrupt(format!("{what} arena length exceeds usize")))?;
    let body = r.read_raw(len)?;
    let expected = r.read_u64()?;
    let found = crc64(body);
    if found != expected {
        return Err(PersistError::ChecksumMismatch {
            context: format!("{what} arena body"),
            expected,
            found,
        });
    }
    Ok(body)
}

fn check_version(body: &mut BodyReader<'_>) -> PersistResult<()> {
    let version = body.r.read_u32()?;
    if version != ARENA_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            supported: ARENA_VERSION,
        });
    }
    let reserved = body.r.read_u32()?;
    if reserved != 0 {
        return Err(PersistError::Corrupt(format!(
            "arena reserved header word must be zero, found {reserved}"
        )));
    }
    Ok(())
}

fn kind_to_u64(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::CleanClean => 0,
        DatasetKind::Dirty => 1,
    }
}

fn kind_from_u64(tag: u64) -> PersistResult<DatasetKind> {
    match tag {
        0 => Ok(DatasetKind::CleanClean),
        1 => Ok(DatasetKind::Dirty),
        other => Err(PersistError::Corrupt(format!(
            "unknown dataset-kind tag {other} in arena header"
        ))),
    }
}

/// `offsets` must be a non-empty, monotone CSR offset array starting at 0
/// and ending exactly at `arena_len`.
fn check_offsets(offsets: &[u32], arena_len: usize, what: &str) -> PersistResult<()> {
    if offsets.first() != Some(&0) {
        return Err(PersistError::Corrupt(format!(
            "{what} offsets must start at zero"
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PersistError::Corrupt(format!(
            "{what} offsets are not monotone"
        )));
    }
    if offsets.last().copied().unwrap_or(0) as usize != arena_len {
        return Err(PersistError::Corrupt(format!(
            "{what} offsets end at {} but the arena holds {arena_len} elements",
            offsets.last().copied().unwrap_or(0)
        )));
    }
    Ok(())
}

/// Encodes a [`CsrBlockCollection`] as one arena frame.
pub(crate) fn encode_csr(csr: &CsrBlockCollection, w: &mut Writer) {
    let mut body = Writer::with_capacity(
        64 + csr.dataset_name.len()
            + csr.keys.text.len()
            + 4 * (csr.keys.offsets.len()
                + csr.key_ids.len() * 2
                + csr.entity_offsets.len()
                + csr.entities.len()),
    );
    body.write_u32(ARENA_VERSION);
    body.write_u32(0);
    body.write_u64(kind_to_u64(csr.kind));
    body.write_u64(csr.split as u64);
    body.write_u64(csr.num_entities as u64);
    write_byte_section(&mut body, csr.dataset_name.as_bytes());
    write_byte_section(&mut body, csr.keys.text.as_bytes());
    write_u32_section(&mut body, &csr.keys.offsets);
    write_u32_section(&mut body, &csr.key_ids);
    write_u32_section(&mut body, &csr.entity_offsets);
    body.write_u64(csr.entities.len() as u64);
    for &e in &csr.entities {
        body.write_u32(e.0);
    }
    pad8(&mut body);
    write_u32_section(&mut body, &csr.first_counts);
    write_frame(w, &CSR_ARENA_MAGIC, body);
}

/// Decodes, validates and adopts a [`CsrBlockCollection`] arena frame.
pub(crate) fn decode_csr(r: &mut Reader<'_>) -> PersistResult<CsrBlockCollection> {
    let body = read_frame(r, &CSR_ARENA_MAGIC, "block collection")?;
    let mut body = BodyReader::new(body);
    check_version(&mut body)?;
    let kind = kind_from_u64(body.r.read_u64()?)?;
    let split = usize::try_from(body.r.read_u64()?)
        .map_err(|_| PersistError::Corrupt("arena split exceeds usize".into()))?;
    let num_entities = usize::try_from(body.r.read_u64()?)
        .map_err(|_| PersistError::Corrupt("arena entity count exceeds usize".into()))?;
    let dataset_name = String::from_utf8(body.read_byte_section("dataset name")?.to_vec())
        .map_err(|_| PersistError::Corrupt("dataset name is not valid UTF-8".into()))?;
    let key_text = String::from_utf8(body.read_byte_section("key text")?.to_vec())
        .map_err(|_| PersistError::Corrupt("key arena is not valid UTF-8".into()))?;
    let key_offsets = body.read_u32_section("key offsets")?;
    let key_ids = body.read_u32_section("key ids")?;
    let entity_offsets = body.read_u32_section("entity offsets")?;
    let entities: Vec<EntityId> = body
        .read_u32_section("entities")?
        .into_iter()
        .map(EntityId)
        .collect();
    let first_counts = body.read_u32_section("first-source counts")?;
    body.expect_end()?;

    // Key arena invariants: monotone offsets covering the text exactly, each
    // cut on a character boundary.
    if key_offsets.is_empty() {
        return Err(PersistError::Corrupt("key offsets section is empty".into()));
    }
    check_offsets(&key_offsets, key_text.len(), "key store")?;
    if key_offsets
        .iter()
        .any(|&o| !key_text.is_char_boundary(o as usize))
    {
        return Err(PersistError::Corrupt(
            "key offset cuts a UTF-8 character".into(),
        ));
    }
    let num_keys = key_offsets.len() - 1;

    // Block invariants: matching per-block array lengths, in-range key ids,
    // sorted in-range entity lists, sane first-source counts.
    if entity_offsets.is_empty() {
        return Err(PersistError::Corrupt(
            "entity offsets section is empty".into(),
        ));
    }
    let num_blocks = entity_offsets.len() - 1;
    if key_ids.len() != num_blocks || first_counts.len() != num_blocks {
        return Err(PersistError::Corrupt(format!(
            "arena claims {num_blocks} blocks but carries {} key ids and {} first counts",
            key_ids.len(),
            first_counts.len()
        )));
    }
    check_offsets(&entity_offsets, entities.len(), "entity CSR")?;
    for b in 0..num_blocks {
        if key_ids[b] as usize >= num_keys {
            return Err(PersistError::Corrupt(format!(
                "block {b} references key id {} beyond the {num_keys} stored keys",
                key_ids[b]
            )));
        }
        let members = &entities[entity_offsets[b] as usize..entity_offsets[b + 1] as usize];
        if first_counts[b] as usize > members.len() {
            return Err(PersistError::Corrupt(format!(
                "block {b} claims {} first-source members out of {}",
                first_counts[b],
                members.len()
            )));
        }
        if members.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(PersistError::Corrupt(format!(
                "block {b} entity list is not strictly sorted"
            )));
        }
        if members.last().is_some_and(|e| e.index() >= num_entities) {
            return Err(PersistError::Corrupt(format!(
                "block {b} references an entity beyond the corpus of {num_entities}"
            )));
        }
    }

    Ok(CsrBlockCollection::from_raw(
        dataset_name,
        kind,
        split,
        num_entities,
        Arc::new(KeyStore {
            text: key_text,
            offsets: key_offsets,
        }),
        key_ids,
        entity_offsets,
        entities,
        first_counts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_persist::{decode_from_slice, encode_to_vec};

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn sample() -> CsrBlockCollection {
        CsrBlockCollection::from_blocks(
            "toy",
            DatasetKind::CleanClean,
            2,
            5,
            [
                ("apple", ids(&[0, 2])),
                ("phone", ids(&[0, 1, 2, 3])),
                ("samsung", ids(&[1, 3, 4])),
            ],
        )
    }

    #[test]
    fn csr_arena_round_trips_bit_identically() {
        let csr = sample();
        let bytes = encode_to_vec(&csr);
        let back: CsrBlockCollection = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.dataset_name, csr.dataset_name);
        assert_eq!(back.kind, csr.kind);
        assert_eq!(back.split, csr.split);
        assert_eq!(back.num_entities, csr.num_entities);
        assert_eq!(back.keys.text, csr.keys.text);
        assert_eq!(back.keys.offsets, csr.keys.offsets);
        assert_eq!(back.key_ids, csr.key_ids);
        assert_eq!(back.entity_offsets, csr.entity_offsets);
        assert_eq!(back.entities, csr.entities);
        assert_eq!(back.first_counts, csr.first_counts);
    }

    #[test]
    fn every_section_starts_eight_byte_aligned() {
        // The padding discipline is what makes the format mmap-ready: walk
        // the encoded body and check each section's data begins at an
        // 8-aligned body offset.
        let csr = sample();
        let bytes = encode_to_vec(&csr);
        let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        assert_eq!(body_len % 8, 0, "body must end 8-aligned");
        assert_eq!(bytes.len(), 16 + body_len + 8);
    }

    #[test]
    fn any_flipped_body_byte_fails_the_checksum() {
        let csr = sample();
        let clean = encode_to_vec(&csr);
        for at in 16..clean.len() - 8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            let err = decode_from_slice::<CsrBlockCollection>(&bytes).unwrap_err();
            assert!(
                matches!(err, PersistError::ChecksumMismatch { .. }),
                "flip at {at}: {err:?}"
            );
        }
    }

    #[test]
    fn truncation_of_every_length_is_a_typed_error() {
        let clean = encode_to_vec(&sample());
        for cut in 0..clean.len() {
            let err = decode_from_slice::<CsrBlockCollection>(&clean[..cut]).unwrap_err();
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

    #[test]
    fn wrong_magic_is_rejected_before_anything_else() {
        let csr = sample();
        let mut bytes = encode_to_vec(&csr);
        bytes[0..8].copy_from_slice(b"GSMBXXXX");
        let err = decode_from_slice::<CsrBlockCollection>(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err:?}");
    }

    #[test]
    fn checksummed_but_invalid_structures_are_corrupt_errors() {
        // Build collections that violate CSR invariants (from_raw only
        // debug-asserts), encode them — the frame checksums fine — and
        // require the invariant sweep to reject them.
        let base = sample();

        // Key id beyond the arena.
        let mut bad = base.clone();
        bad.key_ids[1] = 99;
        let err = decode_from_slice::<CsrBlockCollection>(&encode_to_vec(&bad)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

        // Unsorted entity list.
        let mut bad = base.clone();
        bad.entities.swap(2, 3);
        let err = decode_from_slice::<CsrBlockCollection>(&encode_to_vec(&bad)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

        // Entity beyond the corpus.
        let mut bad = base.clone();
        bad.num_entities = 2;
        let err = decode_from_slice::<CsrBlockCollection>(&encode_to_vec(&bad)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

        // First-source count larger than the block.
        let mut bad = base.clone();
        bad.first_counts[0] = 10;
        let err = decode_from_slice::<CsrBlockCollection>(&encode_to_vec(&bad)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let csr = sample();
        let mut bytes = encode_to_vec(&csr);
        // Patch the version word (first body word) and re-seal the checksum.
        bytes[16] = 9;
        let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let digest = crc64(&bytes[16..16 + body_len]);
        let at = 16 + body_len;
        bytes[at..at + 8].copy_from_slice(&digest.to_le_bytes());
        let err = decode_from_slice::<CsrBlockCollection>(&bytes).unwrap_err();
        assert!(
            matches!(err, PersistError::VersionMismatch { .. }),
            "{err:?}"
        );
    }

    /// The arena decoder and the fused workflows agree: a recovered
    /// collection drives candidate generation identically to the original.
    #[test]
    fn recovered_collection_is_operationally_identical() {
        let csr = sample();
        let back: CsrBlockCollection = decode_from_slice(&encode_to_vec(&csr)).unwrap();
        let a = crate::CandidatePairs::from_stats(&crate::BlockStats::from_csr(&csr), 2);
        let b = crate::CandidatePairs::from_stats(&crate::BlockStats::from_csr(&back), 2);
        assert_eq!(a.pairs(), b.pairs());
    }
}
