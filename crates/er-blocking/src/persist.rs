//! Binary codecs ([`er_persist::Encode`]/[`er_persist::Decode`]) for the
//! CSR block representation, so prepared datasets and recovered streaming
//! state can carry their block collections through snapshots.
//!
//! [`CsrBlockCollection`] encodes through the arena layout in
//! [`crate::arena`]: the snapshot bytes of every flat array are
//! its little-endian in-memory bytes, 8-byte aligned, behind one CRC-64
//! trailer — recovery validates the frame and *adopts* the arrays with one
//! bulk conversion each instead of a per-element decode loop.  Decoding
//! still validates every CSR invariant (monotone offsets, matching array
//! lengths, in-range ids) and reports violations as
//! [`er_core::PersistError::Corrupt`] — a snapshot that passed its checksum
//! but encodes an impossible collection never becomes observable state.
//!
//! [`crate::BlockStats`] has no codec: it is a deterministic function of the
//! collection, so a reader re-derives it (`BlockStats::from_csr`) instead of
//! trusting a second copy on disk.

use er_core::PersistResult;
use er_persist::{Decode, Encode, Reader, Writer};

use crate::arena;
use crate::csr::{CsrBlockCollection, KeyStore};

impl Encode for KeyStore {
    fn encode(&self, w: &mut Writer) {
        w.write_usize(self.len());
        for id in 0..self.len() as u32 {
            w.write_str(self.get(id));
        }
    }
}

impl Decode for KeyStore {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let len = r.read_usize()?;
        let mut store = KeyStore::with_capacity(len.min(r.remaining()), 0);
        for _ in 0..len {
            let key = r.read_str()?;
            store.push(&key);
        }
        Ok(store)
    }
}

impl Encode for CsrBlockCollection {
    fn encode(&self, w: &mut Writer) {
        arena::encode_csr(self, w);
    }
}

impl Decode for CsrBlockCollection {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        arena::decode_csr(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{DatasetKind, EntityId, PersistError};
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
    fn csr_collection_round_trips_exactly() {
        let csr = sample();
        let bytes = encode_to_vec(&csr);
        let back: CsrBlockCollection = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.dataset_name, csr.dataset_name);
        assert_eq!(back.kind, csr.kind);
        assert_eq!(back.split, csr.split);
        assert_eq!(back.num_entities, csr.num_entities);
        assert_eq!(back.num_blocks(), csr.num_blocks());
        for b in 0..csr.num_blocks() {
            assert_eq!(back.key(b), csr.key(b));
            assert_eq!(back.entities(b), csr.entities(b));
            assert_eq!(back.first_source_count(b), csr.first_source_count(b));
        }
        assert!(back.same_blocks(&csr));
    }

    #[test]
    fn key_store_round_trips() {
        let mut store = KeyStore::default();
        store.push("alpha");
        store.push("β");
        store.push("");
        let bytes = encode_to_vec(&store);
        let back: KeyStore = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(0), "alpha");
        assert_eq!(back.get(1), "β");
        assert_eq!(back.get(2), "");
    }

    #[test]
    fn invalid_csr_invariants_are_corrupt_errors() {
        let csr = sample();
        let clean = encode_to_vec(&csr);

        // A structurally invalid collection (out-of-range key id) checksums
        // fine but must fail the invariant sweep on decode.
        let mut bad = csr.clone();
        bad.key_ids[0] = 7;
        let err = decode_from_slice::<CsrBlockCollection>(&encode_to_vec(&bad)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");

        // Sanity: the clean bytes still decode.
        assert!(decode_from_slice::<CsrBlockCollection>(&clean).is_ok());
    }
}
