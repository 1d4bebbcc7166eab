//! A sort for runs of `u32` entity ids.
//!
//! Candidate extraction sorts one partner run per entity, and on dense
//! corpora those runs are hundreds to thousands of ids drawn from a narrow
//! band of the id space (the second source of a Clean-Clean corpus, say).
//! A comparison sort spends `O(n log n)` branchy steps on that; a
//! least-significant-digit byte-radix sort spends two linear passes per byte
//! — and only on the bytes that actually differ between the keys of the run.

/// Runs shorter than this go to `sort_unstable`: a radix pass costs a
/// 256-counter histogram and prefix sum whatever the run length, which the
/// comparison sort beats on short runs (the two cross between 48 and 64 keys
/// on two-pass runs of concatenated ascending slices).
pub const RADIX_SORT_MIN_LEN: usize = 64;

/// Sorts `keys` ascending.
///
/// Short runs (below [`RADIX_SORT_MIN_LEN`]) use `sort_unstable`.  Longer
/// ones take one counting pass per byte position, least significant first,
/// skipping every position on which all keys of the run agree (found by
/// OR-ing and AND-ing the keys): ids below 65 536 sort in two passes, below
/// 16.7 M in three, and keys sharing their upper bytes in as many passes as
/// they have differing bytes.  Each pass is stable, so the result is the
/// ascending order whichever positions were skipped.
///
/// The passes ping-pong between `keys` and the first `keys.len()` elements
/// of `spare`, which is grown on demand and never shrunk — a caller that
/// keeps it across runs allocates only when a longer run shows up.
pub fn sort_u32(keys: &mut [u32], spare: &mut Vec<u32>) {
    let n = keys.len();
    if n < RADIX_SORT_MIN_LEN {
        keys.sort_unstable();
        return;
    }
    let (any, all) = keys
        .iter()
        .fold((0u32, u32::MAX), |(any, all), &k| (any | k, all & k));
    let varying = any ^ all;
    if varying == 0 {
        return;
    }
    if spare.len() < n {
        spare.resize(n, 0);
    }
    let spare = &mut spare[..n];
    let mut sorted_in_keys = true;
    for shift in [0u32, 8, 16, 24] {
        if (varying >> shift) & 0xff == 0 {
            continue;
        }
        if sorted_in_keys {
            scatter_by_byte(keys, spare, shift);
        } else {
            scatter_by_byte(spare, keys, shift);
        }
        sorted_in_keys = !sorted_in_keys;
    }
    if !sorted_in_keys {
        keys.copy_from_slice(spare);
    }
}

/// One stable counting pass: writes `src` into `dst` grouped by the byte at
/// `shift`, groups ascending, each in `src` order.
fn scatter_by_byte(src: &[u32], dst: &mut [u32], shift: u32) {
    debug_assert_eq!(src.len(), dst.len());
    let mut cursors = [0usize; 256];
    for &k in src {
        cursors[((k >> shift) & 0xff) as usize] += 1;
    }
    let mut start = 0usize;
    for cursor in &mut cursors {
        let count = *cursor;
        *cursor = start;
        start += count;
    }
    for &k in src {
        let cursor = &mut cursors[((k >> shift) & 0xff) as usize];
        dst[*cursor] = k;
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorts a copy with `sort_u32` through a shared spare buffer and
    /// compares against `sort_unstable`.
    fn assert_sorts_like_std(keys: &[u32], spare: &mut Vec<u32>, what: &str) {
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        let mut sorted = keys.to_vec();
        sort_u32(&mut sorted, spare);
        assert_eq!(sorted, expected, "{what}");
    }

    /// Deterministic xorshift stream.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn degenerate_inputs_sort() {
        let mut spare = Vec::new();
        assert_sorts_like_std(&[], &mut spare, "empty");
        assert_sorts_like_std(&[7], &mut spare, "one key");
        assert_sorts_like_std(&[0], &mut spare, "zero alone");
        assert_sorts_like_std(&[u32::MAX], &mut spare, "max alone");
        let long = 4 * RADIX_SORT_MIN_LEN;
        for value in [0u32, 9, u32::MAX] {
            // All-equal: no byte varies, no pass runs, on both sides of
            // the cut-over.
            assert_sorts_like_std(&[value; 3], &mut spare, "short all-equal");
            assert_sorts_like_std(&vec![value; long], &mut spare, "long all-equal");
        }
    }

    #[test]
    fn extremes_sort_on_both_sides_of_the_cut_over() {
        let mut spare = Vec::new();
        for len in [
            2,
            RADIX_SORT_MIN_LEN - 1,
            RADIX_SORT_MIN_LEN,
            RADIX_SORT_MIN_LEN + 1,
            5 * RADIX_SORT_MIN_LEN,
        ] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ len as u64;
            let mut keys: Vec<u32> = (0..len).map(|_| xorshift(&mut state) as u32).collect();
            keys[0] = u32::MAX;
            keys[len - 1] = 0;
            keys[len / 2] = u32::MAX;
            assert_sorts_like_std(&keys, &mut spare, &format!("full-range keys, len {len}"));
        }
    }

    #[test]
    fn keys_differing_in_one_byte_only_sort() {
        let mut spare = Vec::new();
        let len = 3 * RADIX_SORT_MIN_LEN;
        for (shift, what) in [(24u32, "top byte"), (0, "bottom byte"), (8, "second byte")] {
            let mut state = 0x5eed_0000_0000_0001u64 + u64::from(shift);
            // Every other byte is a fixed non-zero pattern, so exactly one
            // position varies and exactly one pass may run.
            let fixed = 0x5a5a_5a5au32 & !(0xff << shift);
            let keys: Vec<u32> = (0..len)
                .map(|_| fixed | (((xorshift(&mut state) & 0xff) as u32) << shift))
                .collect();
            assert_sorts_like_std(&keys, &mut spare, what);
        }
        // Top and bottom byte vary, the middle two agree: two passes with a
        // gap between them.
        let mut state = 77u64;
        let keys: Vec<u32> = (0..len)
            .map(|_| {
                let r = xorshift(&mut state) as u32;
                (r & 0xff00_00ff) | 0x0012_3400
            })
            .collect();
        assert_sorts_like_std(&keys, &mut spare, "top and bottom bytes");
    }

    #[test]
    fn keys_differing_in_a_single_bit_sort() {
        // Whichever bit it is, its byte must get a pass.
        let mut spare = Vec::new();
        let len = 2 * RADIX_SORT_MIN_LEN;
        let mut state = 0xb17u64;
        for bit in 0..32u32 {
            let keys: Vec<u32> = (0..len)
                .map(|_| 0x0f0f_0f0f ^ (((xorshift(&mut state) & 1) as u32) << bit))
                .collect();
            assert_sorts_like_std(&keys, &mut spare, &format!("bit {bit}"));
        }
    }

    #[test]
    fn pass_counts_of_every_parity_leave_the_result_in_keys() {
        // 1, 2, 3 and 4 varying bytes: odd counts end in the spare buffer
        // and must be copied back.
        let mut spare = Vec::new();
        let len = 2 * RADIX_SORT_MIN_LEN + 3;
        for mask in [0xffu32, 0xffff, 0x00ff_ffff, u32::MAX] {
            let mut state = u64::from(mask) | 1;
            let keys: Vec<u32> = (0..len)
                .map(|_| xorshift(&mut state) as u32 & mask)
                .collect();
            assert_sorts_like_std(&keys, &mut spare, &format!("mask {mask:#x}"));
        }
    }

    #[test]
    fn spare_buffer_is_reused_across_runs_of_any_length() {
        let mut spare = Vec::new();
        let mut state = 3u64;
        for len in [1000usize, 10, 300, 4000, 129, 0, 2500] {
            let keys: Vec<u32> = (0..len)
                .map(|_| (xorshift(&mut state) % 50_000) as u32)
                .collect();
            assert_sorts_like_std(&keys, &mut spare, &format!("len {len}"));
        }
        // Grown to the longest run, never shrunk.
        assert_eq!(spare.len(), 4000);
    }
}
