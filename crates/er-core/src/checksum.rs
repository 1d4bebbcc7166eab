//! A fast streaming checksum for on-disk integrity (CRC-64/XZ).
//!
//! The persistence layer frames every snapshot payload and write-ahead-log
//! record with a checksum so that torn writes and bit rot surface as typed
//! errors instead of silently corrupt state.  In the spirit of the
//! [`crate::fxhash`] module we implement the algorithm here rather than pull
//! in a crate: CRC-64/XZ (the reflected ECMA-182 polynomial used by `xz`)
//! is table-driven and — unlike the Fx hash — detects *every* single-bit
//! flip and every burst error up to 64 bits, which is exactly the guarantee
//! a storage checksum needs.
//!
//! The kernel is **slice-by-16**: sixteen 256-entry tables, built at compile
//! time, let one step fold sixteen input bytes (two little-endian `u64`
//! loads, sixteen independent lookups) instead of one, so the serial
//! dependency through the state is paid once per 16 bytes.  Table `k` maps
//! a byte to its contribution `k` bytes further down the stream; table 0 is
//! the classic byte-at-a-time table, which still handles whatever is left
//! after the last whole 16-byte step — an input shorter than 16 bytes (a
//! block key hashed by `er_stream::shard_of_key`) never leaves that loop.
//! A checkpoint pushes its whole 30–40 MB generation set through this
//! function and a recovery does so again, which is why it is worth ~4.5× the
//! byte loop (≈ 380 → 1 700 MB/s on the reference container).
//!
//! The implementation is streaming: feed bytes in any chunking via
//! `Crc64::update` and the digest is identical to a one-shot
//! [`crc64`] over the concatenation.

/// The reflected CRC-64/XZ (ECMA-182) polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Bytes folded per step of the sliced kernel (and the number of tables).
const SLICES: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the state
/// byte `b` turns into after `k` further zero bytes, i.e.
/// `TABLES[k][b] = TABLES[0][TABLES[k-1][b] & 0xFF] ^ (TABLES[k-1][b] >> 8)`.
const fn build_tables() -> [[u64; 256]; SLICES] {
    let mut tables = [[0u64; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u64; 256]; SLICES] = build_tables();

/// The byte-at-a-time kernel: the tail of every update, and the whole of
/// any update shorter than one 16-byte step.
#[inline]
fn update_bytewise(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = TABLES[0][((state ^ u64::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Streaming CRC-64/XZ state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc64 { state: u64::MAX }
    }

    /// Feeds a chunk of bytes; chunking never changes the digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut steps = bytes.chunks_exact(SLICES);
        for step in &mut steps {
            // The state only mixes into the first eight bytes; the byte
            // that is `k` positions from the end of the step goes through
            // table `k`.
            let (lo, hi) = step.split_at(8);
            let lo = u64::from_le_bytes(lo.try_into().expect("an 8-byte half")) ^ state;
            let hi = u64::from_le_bytes(hi.try_into().expect("an 8-byte half"));
            state = TABLES[15][(lo & 0xFF) as usize]
                ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[12][((lo >> 24) & 0xFF) as usize]
                ^ TABLES[11][((lo >> 32) & 0xFF) as usize]
                ^ TABLES[10][((lo >> 40) & 0xFF) as usize]
                ^ TABLES[9][((lo >> 48) & 0xFF) as usize]
                ^ TABLES[8][(lo >> 56) as usize]
                ^ TABLES[7][(hi & 0xFF) as usize]
                ^ TABLES[6][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[5][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[4][((hi >> 24) & 0xFF) as usize]
                ^ TABLES[3][((hi >> 32) & 0xFF) as usize]
                ^ TABLES[2][((hi >> 40) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 48) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 56) as usize];
        }
        self.state = update_bytewise(state, steps.remainder());
    }

    /// The digest over everything fed so far (the state is not consumed;
    /// further updates continue the stream).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Crc64::new()
    }
}

/// One-shot CRC-64/XZ of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_seed;

    /// The oracle: the pre-slicing kernel, one table lookup per byte over
    /// a table of its own (built here bit by bit, sharing nothing with
    /// `TABLES`), so a wrong entry or index in the sliced kernel cannot
    /// cancel out.
    fn oracle_update(mut state: u64, bytes: &[u8]) -> u64 {
        let table: Vec<u64> = (0..256u64)
            .map(|i| {
                (0..8).fold(i, |crc, _| {
                    if crc & 1 == 1 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    }
                })
            })
            .collect();
        for &b in bytes {
            state = table[((state ^ u64::from(b)) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    fn oracle(bytes: &[u8]) -> u64 {
        !oracle_update(u64::MAX, bytes)
    }

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| derive_seed(seed, i) as u8)
            .collect()
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_oracle_at_every_length_and_offset() {
        // Every length that is below, at and past several 16-byte steps,
        // starting at every alignment of the two u64 loads.
        let data = noise(1, 16 + 96);
        for offset in 0..16 {
            for len in 0..=96 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc64(slice), oracle(slice), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn sliced_kernel_equals_the_oracle_on_a_large_buffer() {
        let data = noise(2, (1 << 20) + 7);
        assert_eq!(crc64(&data), oracle(&data));
    }

    #[test]
    fn random_chunkings_straddling_the_step_boundary_do_not_change_the_digest() {
        let data = noise(3, 4096 + 5);
        let expected = oracle(&data);
        let mut draws = (0..).map(|i| derive_seed(4, i) as usize);
        for round in 0..200 {
            let mut crc = Crc64::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                // Mostly 1..=40: pieces shorter than, equal to and longer
                // than a step, so steps start at every phase of the stream.
                let draw = draws.next().expect("an endless sequence");
                let piece = (1 + draw % 40).min(rest.len());
                let (head, tail) = rest.split_at(piece);
                crc.update(head);
                rest = tail;
            }
            assert_eq!(crc.finish(), expected, "round {round}");
        }
    }

    #[test]
    fn matches_the_crc64_xz_check_vector() {
        // The standard check value for CRC-64/XZ.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input_digest() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0u16..1024).map(|i| (i * 37 % 251) as u8).collect();
        let expected = crc64(&data);
        for chunk in [1usize, 3, 7, 64, 1000] {
            let mut crc = Crc64::new();
            for piece in data.chunks(chunk) {
                crc.update(piece);
            }
            assert_eq!(crc.finish(), expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let data = b"generalized supervised meta-blocking".to_vec();
        let clean = crc64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc64(&flipped), clean, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn finish_does_not_consume_the_stream() {
        let mut crc = Crc64::new();
        crc.update(b"abc");
        let first = crc.finish();
        assert_eq!(first, crc64(b"abc"));
        crc.update(b"def");
        assert_eq!(crc.finish(), crc64(b"abcdef"));
    }
}
