//! The hand-rolled little-endian binary codec behind every snapshot and
//! WAL record.
//!
//! The workspace has no serialisation framework: a durability format wants
//! explicit, versioned layouts.  Every persisted type implements
//! [`Encode`]/[`Decode`] by hand against a [`Writer`]/[`Reader`] pair:
//!
//! * all integers are little-endian; `usize` travels as `u64`;
//! * floats travel as their IEEE-754 bit patterns ([`f64::to_bits`]), so a
//!   decoded value is **bit-identical** to the encoded one — NaN payloads,
//!   signed zeros and all;
//! * variable-length data (strings, byte slices, sequences) is
//!   length-prefixed with a `u64`; a sequence of fixed-width primitives
//!   (`u32`, `u64`, `f64`, `bool`, [`EntityId`]) moves through
//!   [`Encode::encode_all`] / [`Decode::decode_all`] as one block — the
//!   same bytes as the per-item loop, without a bounds check and a capacity
//!   check per element — and a declared length the remaining bytes cannot
//!   hold ([`Decode::MIN_ENCODED_LEN`]) is refused **before** anything is
//!   allocated for it.
//!
//! [`Reader`] methods never panic on malformed input: running off the end
//! of the buffer yields [`PersistError::Truncated`] and invalid content
//! (bad UTF-8, unknown enum tags, impossible bools) yields
//! [`PersistError::Corrupt`].  Integrity against *random* corruption is the
//! framing layer's job (checksums in [`crate::snapshot`] and
//! [`crate::wal`]); the reader's checks are the second line of defence.

use std::time::Duration;

use er_core::{
    Attribute, Dataset, DatasetKind, EntityId, EntityProfile, GroundTruth, PersistError,
    PersistResult,
};

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with a capacity hint.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Creates an empty writer over `buf`'s allocation: whatever `buf`
    /// held is dropped, its capacity — and the pages already touched under
    /// it — is kept.  A checkpoint encodes every image into a buffer it
    /// got back this way.
    pub(crate) fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Overwrites the eight bytes at `at` with a little-endian `u64` — for
    /// a header field (a length, a checksum) known only once what follows
    /// it has been written.
    ///
    /// # Panics
    /// If `at + 8` lies beyond the bytes written so far.
    pub(crate) fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends `N`-byte little-endian images of `items`, back to back.
    fn write_fixed<T, const N: usize>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    ) {
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        for (slot, item) in self.buf[start..].chunks_exact_mut(N).zip(items) {
            slot.copy_from_slice(&to_le(item));
        }
    }

    /// Appends a length-prefixed sequence of `N`-byte items drawn from an
    /// iterator — the bytes `Vec<T>::encode` writes for the collected
    /// items, so a column read out of wider records is encoded without
    /// being collected first.
    pub fn write_fixed_seq<T, const N: usize>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    ) {
        self.write_usize(items.len());
        self.write_fixed(items, to_le);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes without a length prefix (fixed-layout sections).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub(crate) fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte slice.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }
}

/// A bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`PersistError::Corrupt`] if any bytes remain — decoded
    /// values must account for their entire frame.
    pub fn expect_end(&self) -> PersistResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the decoded value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                context: what.to_string(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads `len` values of `N` little-endian bytes each.  The byte count
    /// is checked against what remains before anything is allocated.
    fn read_fixed<T, const N: usize>(
        &mut self,
        len: usize,
        what: &'static str,
        from_le: impl Fn([u8; N]) -> T,
    ) -> PersistResult<Vec<T>> {
        // A product that overflows cannot fit either.
        let bytes = self.take(len.saturating_mul(N), what)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| from_le(chunk.try_into().expect("chunks of N bytes")))
            .collect())
    }

    /// Reads raw bytes of a known length (fixed-layout sections).
    pub fn read_raw(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        self.take(n, "raw bytes")
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> PersistResult<u32> {
        let bytes = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> PersistResult<u64> {
        let bytes = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a `usize` (persisted as `u64`).
    pub fn read_usize(&mut self) -> PersistResult<usize> {
        usize::try_from(self.read_u64()?)
            .map_err(|_| PersistError::Corrupt("length exceeds the platform usize".into()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn read_f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub(crate) fn read_bool(&mut self) -> PersistResult<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Corrupt(format!(
                "bool byte must be 0 or 1, found {other}"
            ))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> PersistResult<&'a [u8]> {
        let len = self.read_usize()?;
        self.take(len, "length-prefixed bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> PersistResult<String> {
        let bytes = self.read_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("string is not valid UTF-8".into()))
    }
}

/// A type with an explicit binary encoding.
pub trait Encode {
    /// Appends the value's encoding to the writer.
    fn encode(&self, w: &mut Writer);

    /// Appends the encodings of `items` back to back (no length prefix) —
    /// the body of every encoded sequence.  The provided method encodes
    /// item by item; fixed-width primitives override it with one block
    /// write of the same bytes.
    fn encode_all(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }
}

/// A type decodable from its [`Encode`] output.
pub trait Decode: Sized {
    /// The fewest bytes one encoded value can occupy (0 = unknown).  A
    /// sequence declaring more items than `remaining / MIN_ENCODED_LEN` is
    /// truncated whatever its items hold, so [`Decode::decode_all`] refuses
    /// it before pre-allocating `len × size_of::<Self>()` for a corrupt
    /// length — in-memory values are up to 8× wider than their encodings,
    /// and capping the *element* count by the remaining *bytes*, as the
    /// decoder used to, let a bad length on a 37 MB image reserve 890 MB.
    const MIN_ENCODED_LEN: usize = 0;

    /// Reads one value, consuming exactly the bytes [`Encode::encode`]
    /// produced for it.
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self>;

    /// Reads `len` values laid out back to back — the body of an encoded
    /// sequence whose length prefix the caller has read.  The provided
    /// method decodes item by item; fixed-width primitives override it with
    /// one bounds check and one block read.
    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        let reserve = match Self::MIN_ENCODED_LEN {
            // Unknown width: at least never reserve more bytes than the
            // buffer still holds.
            0 => len.min(r.remaining() / std::mem::size_of::<Self>().max(1)),
            width if len > r.remaining() / width => {
                return Err(PersistError::Truncated {
                    context: format!("sequence of {len} items"),
                })
            }
            _ => len,
        };
        let mut items = Vec::with_capacity(reserve);
        for _ in 0..len {
            items.push(Self::decode(r)?);
        }
        Ok(items)
    }
}

/// Encodes a value into a standalone byte buffer.
pub fn encode_to_vec(value: &impl Encode) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte buffer, requiring full consumption.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> PersistResult<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(*self);
    }
}

impl Decode for u8 {
    const MIN_ENCODED_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(*self);
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        w.write_fixed(items.iter().copied(), u32::to_le_bytes);
    }
}

impl Decode for u32 {
    const MIN_ENCODED_LEN: usize = 4;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_u32()
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        r.read_fixed(len, "u32 sequence", u32::from_le_bytes)
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(*self);
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        w.write_fixed(items.iter().copied(), u64::to_le_bytes);
    }
}

impl Decode for u64 {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_u64()
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        r.read_fixed(len, "u64 sequence", u64::from_le_bytes)
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.write_usize(*self);
    }
}

impl Decode for usize {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_usize()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.write_f64(*self);
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        w.write_fixed(items.iter().copied(), |v| v.to_bits().to_le_bytes());
    }
}

impl Decode for f64 {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_f64()
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        r.read_fixed(len, "f64 sequence", |b| {
            f64::from_bits(u64::from_le_bytes(b))
        })
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.write_bool(*self);
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        w.write_fixed(items.iter().copied(), |v| [u8::from(v)]);
    }
}

impl Decode for bool {
    const MIN_ENCODED_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_bool()
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        let bytes = r.take(len, "bool sequence")?;
        // Strict like `read_bool`: the first byte that is neither 0 nor 1
        // fails the whole sequence.
        match bytes.iter().find(|&&b| b > 1) {
            Some(other) => Err(PersistError::Corrupt(format!(
                "bool byte must be 0 or 1, found {other}"
            ))),
            None => Ok(bytes.iter().map(|&b| b == 1).collect()),
        }
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.write_str(self);
    }
}

impl Decode for String {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        r.read_str()
    }
}

impl Encode for Box<str> {
    fn encode(&self, w: &mut Writer) {
        w.write_str(self);
    }
}

impl Decode for Box<str> {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(r.read_str()?.into_boxed_str())
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.write_usize(self.len());
        T::encode_all(self, w);
    }
}

/// A reference encodes as what it points to, so a sequence can be written
/// from borrowed parts (`Vec<(u32, &[u32])>` has the layout of
/// `Vec<(u32, Vec<u32>)>`) without cloning them into an owned twin first.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_ENCODED_LEN: usize = 8;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let len = r.read_usize()?;
        T::decode_all(r, len)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.write_u8(0),
            Some(value) => {
                w.write_u8(1);
                value.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_ENCODED_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(PersistError::Corrupt(format!(
                "option tag must be 0 or 1, found {other}"
            ))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_ENCODED_LEN: usize = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Encode for Duration {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(self.as_secs());
        w.write_u32(self.subsec_nanos());
    }
}

impl Decode for Duration {
    const MIN_ENCODED_LEN: usize = 12;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let secs = r.read_u64()?;
        let nanos = r.read_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(PersistError::Corrupt(format!(
                "duration nanoseconds out of range: {nanos}"
            )));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Encode for EntityId {
    fn encode(&self, w: &mut Writer) {
        w.write_u32(self.0);
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        w.write_fixed(items.iter().copied(), |e| e.0.to_le_bytes());
    }
}

impl Decode for EntityId {
    const MIN_ENCODED_LEN: usize = 4;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(EntityId(r.read_u32()?))
    }

    fn decode_all(r: &mut Reader<'_>, len: usize) -> PersistResult<Vec<Self>> {
        r.read_fixed(len, "entity-id sequence", |b| {
            EntityId(u32::from_le_bytes(b))
        })
    }
}

impl Encode for DatasetKind {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(match self {
            DatasetKind::CleanClean => 0,
            DatasetKind::Dirty => 1,
        });
    }
}

impl Decode for DatasetKind {
    const MIN_ENCODED_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        match r.read_u8()? {
            0 => Ok(DatasetKind::CleanClean),
            1 => Ok(DatasetKind::Dirty),
            other => Err(PersistError::Corrupt(format!(
                "unknown dataset-kind tag {other}"
            ))),
        }
    }
}

impl Encode for Attribute {
    fn encode(&self, w: &mut Writer) {
        w.write_str(&self.name);
        w.write_str(&self.value);
    }
}

impl Decode for Attribute {
    const MIN_ENCODED_LEN: usize = 16;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(Attribute {
            name: r.read_str()?,
            value: r.read_str()?,
        })
    }
}

impl Encode for EntityProfile {
    fn encode(&self, w: &mut Writer) {
        w.write_str(&self.external_id);
        self.attributes.encode(w);
    }
}

impl Decode for EntityProfile {
    const MIN_ENCODED_LEN: usize = 16;

    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        Ok(EntityProfile {
            external_id: r.read_str()?,
            attributes: Vec::<Attribute>::decode(r)?,
        })
    }
}

impl Encode for GroundTruth {
    fn encode(&self, w: &mut Writer) {
        self.pairs().encode(w);
    }
}

impl Decode for GroundTruth {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let pairs = Vec::<(EntityId, EntityId)>::decode(r)?;
        // `from_pairs` re-normalises and rebuilds the lookup index, so the
        // non-serialised parts of the type are reconstructed here.
        Ok(GroundTruth::from_pairs(pairs))
    }
}

impl Encode for Dataset {
    fn encode(&self, w: &mut Writer) {
        w.write_str(&self.name);
        self.kind.encode(w);
        self.profiles.encode(w);
        w.write_usize(self.split);
        self.ground_truth.encode(w);
    }
}

impl Decode for Dataset {
    fn decode(r: &mut Reader<'_>) -> PersistResult<Self> {
        let name = r.read_str()?;
        let kind = DatasetKind::decode(r)?;
        let profiles = Vec::<EntityProfile>::decode(r)?;
        let split = r.read_usize()?;
        let ground_truth = GroundTruth::decode(r)?;
        if split > profiles.len() {
            return Err(PersistError::Corrupt(format!(
                "dataset split {split} exceeds profile count {}",
                profiles.len()
            )));
        }
        Ok(Dataset {
            name,
            kind,
            profiles,
            split,
            ground_truth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("πλοκή"));
        round_trip(Duration::new(12, 345_678_910));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan_bits = f64::NAN.to_bits() | 0xDEAD;
        let bytes = encode_to_vec(&f64::from_bits(nan_bits));
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan_bits, "NaN payload must survive");
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((EntityId(3), 0.25f64));
        round_trip(vec![(EntityId(0), EntityId(9)), (EntityId(1), EntityId(2))]);
    }

    #[test]
    fn core_types_round_trip() {
        round_trip(EntityId(42));
        round_trip(DatasetKind::CleanClean);
        round_trip(DatasetKind::Dirty);
        round_trip(Attribute::new("name", "Apple iPhone X"));
        round_trip(
            EntityProfile::new("e1")
                .with_attribute("model", "iphone")
                .with_attribute("category", "smartphone"),
        );
    }

    #[test]
    fn dataset_round_trip_rebuilds_the_ground_truth_index() {
        let profiles = vec![
            EntityProfile::new("a").with_attribute("n", "x y"),
            EntityProfile::new("b").with_attribute("n", "y z"),
        ];
        let dataset = Dataset {
            name: "toy".into(),
            kind: DatasetKind::Dirty,
            profiles,
            split: 2,
            ground_truth: GroundTruth::from_pairs(vec![(EntityId(1), EntityId(0))]),
        };
        let bytes = encode_to_vec(&dataset);
        let back: Dataset = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.name, dataset.name);
        assert_eq!(back.profiles, dataset.profiles);
        assert_eq!(back.split, dataset.split);
        assert_eq!(back.ground_truth.pairs(), dataset.ground_truth.pairs());
        assert!(back.ground_truth.is_match(EntityId(0), EntityId(1)));
    }

    #[test]
    fn truncated_input_yields_typed_errors() {
        let bytes = encode_to_vec(&String::from("hello"));
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<String>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_content_yields_corrupt_errors() {
        // Bad bool byte.
        let err = decode_from_slice::<bool>(&[7]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
        // Bad option tag.
        let err = decode_from_slice::<Option<u8>>(&[9]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
        // Bad UTF-8.
        let mut w = Writer::new();
        w.write_bytes(&[0xFF, 0xFE]);
        let err = decode_from_slice::<String>(w.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
        // Unknown dataset-kind tag.
        let err = decode_from_slice::<DatasetKind>(&[9]).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
        // Trailing garbage.
        let mut bytes = encode_to_vec(&3u32);
        bytes.push(0);
        let err = decode_from_slice::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn corrupt_vec_length_fails_without_allocating() {
        let mut w = Writer::new();
        w.write_u64(u64::MAX); // absurd element count
        let err = decode_from_slice::<Vec<u64>>(w.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }));
    }

    /// The sequence body as the provided trait methods write it: one
    /// `encode` per item.
    fn per_item_bytes<T: Encode>(items: &[T]) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_usize(items.len());
        for item in items {
            item.encode(&mut w);
        }
        w.into_bytes()
    }

    /// ... and as they read it: one `decode` per item.
    fn per_item_values<T: Decode>(bytes: &[u8]) -> PersistResult<Vec<T>> {
        let mut r = Reader::new(bytes);
        let len = r.read_usize()?;
        let items = (0..len)
            .map(|_| T::decode(&mut r))
            .collect::<PersistResult<_>>()?;
        r.expect_end()?;
        Ok(items)
    }

    /// Block and per-item paths write the same bytes and read the same
    /// values (compared through their encodings, so NaN payloads count).
    fn assert_bulk_equals_per_item<T: Encode + Decode + Clone + std::fmt::Debug>(items: &[T]) {
        let bulk = encode_to_vec(&items.to_vec());
        assert_eq!(bulk, per_item_bytes(items));
        let back: Vec<T> = decode_from_slice(&bulk).unwrap();
        assert_eq!(encode_to_vec(&back), bulk);
        let slow: Vec<T> = per_item_values(&bulk).unwrap();
        assert_eq!(per_item_bytes(&slow), bulk);
        // One byte short of what the prefix declares: truncated, both ways.
        if !items.is_empty() {
            let cut = &bulk[..bulk.len() - 1];
            assert!(matches!(
                decode_from_slice::<Vec<T>>(cut).unwrap_err(),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                per_item_values::<T>(cut).unwrap_err(),
                PersistError::Truncated { .. }
            ));
        }
    }

    #[test]
    fn bulk_sequences_are_byte_identical_to_the_per_item_loop() {
        assert_bulk_equals_per_item::<u32>(&[]);
        assert_bulk_equals_per_item(&[0u32, 1, 0xDEAD_BEEF, u32::MAX]);
        assert_bulk_equals_per_item::<u64>(&[]);
        assert_bulk_equals_per_item(&[0u64, 1 << 40, u64::MAX]);
        assert_bulk_equals_per_item::<f64>(&[]);
        assert_bulk_equals_per_item(&[
            0.0f64,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::NEG_INFINITY,
            f64::from_bits(f64::NAN.to_bits() | 0xDEAD),
            f64::from_bits(0xFFF0_0000_0000_0001), // a signalling NaN
        ]);
        assert_bulk_equals_per_item::<bool>(&[]);
        assert_bulk_equals_per_item(&[true, false, false, true, true]);
        assert_bulk_equals_per_item::<EntityId>(&[]);
        assert_bulk_equals_per_item(&[EntityId(0), EntityId(7), EntityId(u32::MAX)]);
        // 1 000 items: past any small-size special case of the block copy.
        let many: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        assert_bulk_equals_per_item(&many);
    }

    #[test]
    fn bulk_bool_decoding_keeps_the_strict_zero_or_one_rule() {
        let mut bytes = encode_to_vec(&vec![true, false, true, true]);
        *bytes.last_mut().unwrap() = 2;
        let err = decode_from_slice::<Vec<bool>>(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
        assert!(matches!(
            per_item_values::<bool>(&bytes).unwrap_err(),
            PersistError::Corrupt(_)
        ));
    }

    #[test]
    fn a_declared_length_the_buffer_cannot_hold_is_truncated_before_any_item() {
        // 100 bytes follow the prefix: room for 25 u32s, 12 u64s, 12 empty
        // strings, 12 empty nested vectors — one more is refused up front,
        // and so is a length whose byte count overflows.
        fn declared<T: Decode + std::fmt::Debug>(len: u64) -> PersistError {
            let mut w = Writer::new();
            w.write_u64(len);
            w.write_raw(&[0u8; 100]);
            decode_from_slice::<Vec<T>>(w.as_bytes()).unwrap_err()
        }
        for len in [26, 1 << 40, u64::MAX / 4 + 1, u64::MAX] {
            assert!(matches!(
                declared::<u32>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<EntityId>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<u64>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<f64>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<String>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<Vec<EntityId>>(len),
                PersistError::Truncated { .. }
            ));
            assert!(matches!(
                declared::<(u32, Vec<u32>)>(len),
                PersistError::Truncated { .. }
            ));
        }
        assert!(matches!(
            declared::<bool>(101),
            PersistError::Truncated { .. }
        ));
    }

    #[test]
    fn min_encoded_len_never_exceeds_a_real_encoding() {
        fn check<T: Encode + Decode>(smallest: T) {
            assert!(T::MIN_ENCODED_LEN <= encode_to_vec(&smallest).len());
        }
        check(0u8);
        check(0u32);
        check(0u64);
        check(0usize);
        check(0.0f64);
        check(false);
        check(String::new());
        check(String::new().into_boxed_str());
        check(Vec::<u32>::new());
        check(Option::<u64>::None);
        check((0u32, Vec::<u32>::new()));
        check(Duration::ZERO);
        check(EntityId(0));
        check(DatasetKind::Dirty);
        check(Attribute::new("", ""));
        check(EntityProfile::new(""));
    }

    #[test]
    fn a_reused_writer_keeps_the_allocation_and_patches_in_place() {
        let mut w = Writer::with_capacity(256);
        w.write_raw(&[0xAA; 200]);
        let buf = w.into_bytes();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let mut w = Writer::reusing(buf);
        assert!(w.is_empty());
        w.write_u64(0);
        w.write_u32(7);
        w.patch_u64(0, 0x0102_0304_0506_0708);
        let buf = w.into_bytes();
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1, 7, 0, 0, 0]);
    }
}
