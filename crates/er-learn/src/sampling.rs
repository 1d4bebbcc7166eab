//! Balanced undersampling of labelled candidate pairs.
//!
//! ER suffers from extreme class imbalance: almost every candidate pair is a
//! non-match.  The paper therefore builds training sets by undersampling —
//! picking the same number of positive and negative pairs at random — and
//! shows that as few as 25 instances per class suffice.
//!
//! A sample needs only the number of candidate pairs and the ascending
//! indices of the matching ones: [`balanced_undersample_from_positives`]
//! draws from exactly that.  The batch pipeline places the ground truth
//! through its candidate index and calls it directly;
//! [`balanced_undersample`] takes a plain pair slice, finds the matches in
//! it and draws the same way, so both give the same sample for the same
//! seed.

use er_core::{EntityId, Error, FxHashMap, GroundTruth, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// A balanced sample of labelled candidate pairs, expressed as indices into
/// the candidate-pair list it was drawn from.
#[derive(Debug, Clone)]
pub struct BalancedSample {
    /// Indices of the sampled pairs in the original candidate list.
    pub pair_indices: Vec<usize>,
    /// Labels aligned with `pair_indices` (`true` = match).
    pub labels: Vec<bool>,
}

impl BalancedSample {
    /// Number of sampled instances.
    pub fn len(&self) -> usize {
        self.pair_indices.len()
    }

    /// True if the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.pair_indices.is_empty()
    }
}

/// Draws a balanced sample of `per_class` positive and `per_class` negative
/// candidate pairs.
///
/// The sample is defined as: collect the positive and the negative pair
/// indices in list order, Fisher–Yates-shuffle the positives, then the
/// negatives, and keep the first `per_class` of each.  This finds the
/// positives in the slice and draws through
/// [`balanced_undersample_from_positives`]; a caller holding a pair index
/// that places the ground truth itself calls that directly and gets the
/// same sample from the same RNG stream.
///
/// Returns an error if the candidate list does not contain enough pairs of
/// either class, or holds more pairs than a `u32` pair id can address.
pub fn balanced_undersample(
    pairs: &[(EntityId, EntityId)],
    truth: &GroundTruth,
    per_class: usize,
    rng: &mut (impl Rng + Clone),
) -> Result<BalancedSample> {
    let positives = positive_indices(pairs, truth);
    balanced_undersample_from_positives(pairs.len(), &positives, per_class, rng)
}

/// The balanced sample of [`balanced_undersample`], drawn from a list of
/// `num_pairs` pairs whose matches sit at the strictly ascending indices
/// `sorted_positives` — every other index is a negative.
///
/// Almost every pair is a negative, so the negatives are never listed: the
/// kept slots are traced back through the shuffle's draws, replayed a block
/// at a time from generator checkpoints (see `shuffled_prefix`) — same
/// sample, same RNG stream, with no buffer as long as the candidate list.
/// The generator is cloned once per block, hence the `Clone` bound.
///
/// Returns an error if either class holds fewer than `per_class` pairs, if
/// `num_pairs` is beyond `u32` pair ids, or if `sorted_positives` is not
/// strictly ascending below `num_pairs`.
pub fn balanced_undersample_from_positives(
    num_pairs: usize,
    sorted_positives: &[usize],
    per_class: usize,
    rng: &mut (impl Rng + Clone),
) -> Result<BalancedSample> {
    if per_class == 0 {
        return Err(Error::InvalidParameter(
            "per_class must be at least 1".into(),
        ));
    }
    if u32::try_from(num_pairs).is_err() {
        return Err(Error::CapacityExceeded {
            what: "candidate list to sample from".into(),
            requested: num_pairs as u64,
            limit: u64::from(u32::MAX),
        });
    }
    let ascending = sorted_positives.windows(2).all(|w| w[0] < w[1]);
    if !ascending
        || sorted_positives
            .last()
            .is_some_and(|&last| last >= num_pairs)
    {
        return Err(Error::InvalidParameter(format!(
            "positive indices must be strictly ascending and below {num_pairs}"
        )));
    }
    let num_negatives = num_pairs - sorted_positives.len();
    for available in [sorted_positives.len(), num_negatives] {
        if available < per_class {
            return Err(Error::InsufficientTrainingData {
                requested: per_class,
                available,
            });
        }
    }

    let mut positives = sorted_positives.to_vec();
    positives.shuffle(rng);
    let negative_ranks = shuffled_prefix(num_negatives, per_class, rng);

    let mut pair_indices = Vec::with_capacity(2 * per_class);
    pair_indices.extend_from_slice(&positives[..per_class]);
    pair_indices.extend(
        negative_ranks
            .into_iter()
            .map(|rank| nth_negative(sorted_positives, rank as usize)),
    );
    let mut labels = vec![true; per_class];
    labels.resize(2 * per_class, false);
    Ok(BalancedSample {
        pair_indices,
        labels,
    })
}

/// The indices of the matching pairs, ascending.
///
/// A strictly ascending list of normalised (`a <= b`) pairs — what
/// `CandidatePairs` holds — is searched for each ground-truth pair when the
/// truth is small next to the list; any other list is scanned pair by pair.
/// Both find the same indices: a strictly ascending list holds each pair
/// once, and ground-truth pairs are normalised too.
fn positive_indices(pairs: &[(EntityId, EntityId)], truth: &GroundTruth) -> Vec<usize> {
    /// Searching costs ~log2(|pairs|) cache-missing probes per truth pair,
    /// scanning one hash probe per pair.
    const SEARCH_ADVANTAGE: usize = 32;
    let searchable = || {
        pairs.iter().all(|&(a, b)| a <= b) && pairs.windows(2).all(|window| window[0] < window[1])
    };
    if truth.len().saturating_mul(SEARCH_ADVANTAGE) <= pairs.len() && searchable() {
        let mut positives: Vec<usize> = truth
            .pairs()
            .iter()
            .filter_map(|pair| pairs.binary_search(pair).ok())
            .collect();
        positives.sort_unstable();
        positives
    } else {
        pairs
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| truth.is_match(a, b))
            .map(|(idx, _)| idx)
            .collect()
    }
}

/// Draws per replay block of [`shuffled_prefix`]: the generator is
/// checkpointed once per block, and one block of draws is held at a time.
const DRAW_BLOCK: usize = 1 << 16;

/// The first `keep` slots of `(0..n).collect::<Vec<_>>().shuffle(rng)`,
/// consuming exactly the same draws, without the `n`-element vector being
/// shuffled (`keep <= n <= u32::MAX`).
///
/// The shuffle swaps slot `i` with slot `j_i = gen_range(0..=i)` for
/// `i = n − 1 … 1`.  Every kept slot is traced backwards in time — through
/// the swaps in ascending `i` — to the position its element started from,
/// which is the element's value.  For `i < keep` both swapped positions are
/// kept slots; for `i >= keep` position `i` is never a tracked one (tracked
/// positions are either below `keep` or an earlier, smaller `i`), so a
/// tracked element moves only when `j_i` hits it.  That happens about
/// `keep · ln(n / keep)` times in `n` steps, so the common step is one
/// comparison, one load and one test.
///
/// The draws come out in descending `i` but are traced in ascending `i`, so
/// they are not recorded: one pass advances `rng` through all of them,
/// cloning it at the start of every `DRAW_BLOCK`-long block of `i`, and the
/// trace then replays the blocks in ascending order, one at a time, into
/// one reused buffer.  `rng` ends where the shuffle leaves it.
fn shuffled_prefix<R: Rng + Clone>(n: usize, keep: usize, rng: &mut R) -> Vec<u32> {
    debug_assert!(keep <= n && u32::try_from(n).is_ok());
    // Block `b` holds the draws for `i` in `b·DRAW_BLOCK .. (b+1)·DRAW_BLOCK`
    // (`i >= 1`, `i < n`); `checkpoints[b]` is the generator as the shuffle
    // reaches the block's largest `i`.
    let steps = |block: usize| (block * DRAW_BLOCK).max(1)..((block + 1) * DRAW_BLOCK).min(n);
    let mut checkpoints = Vec::with_capacity(n.div_ceil(DRAW_BLOCK));
    for block in (0..n.div_ceil(DRAW_BLOCK)).rev() {
        checkpoints.push(rng.clone());
        for i in steps(block).rev() {
            rng.gen_range(0..=i);
        }
    }
    checkpoints.reverse();

    // `slot_at[p]`: the kept slot whose element sits at position `p < keep`
    // (`MOVED` once a swap took it above); `moved`: the same for the
    // positions `>= keep`, with a bit filter in front of the map.  Stale
    // filter bits (an element that moved on again) only cost a map probe, so
    // bits are never cleared.
    const MOVED: u32 = u32::MAX;
    let mut slot_at: Vec<u32> = (0..keep as u32).collect();
    let mut moved: FxHashMap<u32, u32> = FxHashMap::default();
    let filter_bits = (keep.saturating_mul(256))
        .next_power_of_two()
        .clamp(1 << 12, 1 << 24);
    let mask = filter_bits as u32 - 1;
    let word_and_bit = |position: u32| (((position & mask) / 64) as usize, 1u64 << (position % 64));
    let mut filter = vec![0u64; filter_bits / 64];
    let mut draws = vec![0u32; n.min(DRAW_BLOCK)];
    for (block, mut replay) in checkpoints.into_iter().enumerate() {
        let first = block * DRAW_BLOCK;
        for i in steps(block).rev() {
            draws[i - first] = replay.gen_range(0..=i) as u32;
        }
        for i in steps(block) {
            let j = draws[i - first];
            if i < keep {
                slot_at.swap(i, j as usize);
                continue;
            }
            let (word, bit) = word_and_bit(j);
            if (j as usize) >= keep && filter[word] & bit == 0 {
                continue;
            }
            let slot = if (j as usize) < keep {
                std::mem::replace(&mut slot_at[j as usize], MOVED)
            } else {
                moved.remove(&j).unwrap_or(MOVED)
            };
            if slot != MOVED {
                moved.insert(i as u32, slot);
                let (word, bit) = word_and_bit(i as u32);
                filter[word] |= bit;
            }
        }
    }

    let mut origin = vec![0u32; keep];
    let low = slot_at
        .iter()
        .enumerate()
        .map(|(p, &slot)| (p as u32, slot));
    for (position, slot) in low.chain(moved).filter(|&(_, slot)| slot != MOVED) {
        origin[slot as usize] = position;
    }
    origin
}

/// The pair index of the `rank`-th negative (0-based), given the ascending
/// indices of the positives: `rank` plus the number of positives before it.
fn nth_negative(sorted_positives: &[usize], rank: usize) -> usize {
    // `sorted_positives[c] - c` negatives precede the c-th positive; it is
    // non-decreasing in c, so binary-search the first c above `rank`.
    let (mut lo, mut hi) = (0usize, sorted_positives.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if sorted_positives[mid] - mid <= rank {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    rank + lo
}

/// The per-class training-set size used by the original Supervised
/// Meta-blocking paper: 5% of the positive pairs in the ground truth (at least
/// one).
pub fn paper_baseline_per_class(num_duplicates: usize) -> usize {
    ((num_duplicates as f64) * 0.05).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<(EntityId, EntityId)>, GroundTruth) {
        // 10 pairs, the first 4 are matches.
        let pairs: Vec<(EntityId, EntityId)> = (0..10u32)
            .map(|i| (EntityId(i), EntityId(i + 100)))
            .collect();
        let truth = GroundTruth::from_pairs(pairs[..4].to_vec());
        (pairs, truth)
    }

    #[test]
    fn sample_is_balanced() {
        let (pairs, truth) = toy();
        let mut rng = er_core::seeded_rng(1);
        let sample = balanced_undersample(&pairs, &truth, 3, &mut rng).unwrap();
        assert_eq!(sample.len(), 6);
        assert_eq!(sample.labels.iter().filter(|&&l| l).count(), 3);
    }

    #[test]
    fn labels_match_ground_truth() {
        let (pairs, truth) = toy();
        let mut rng = er_core::seeded_rng(2);
        let sample = balanced_undersample(&pairs, &truth, 2, &mut rng).unwrap();
        for (&idx, &label) in sample.pair_indices.iter().zip(&sample.labels) {
            let (a, b) = pairs[idx];
            assert_eq!(truth.is_match(a, b), label);
        }
    }

    #[test]
    fn sampling_is_seed_dependent_but_deterministic() {
        let (pairs, truth) = toy();
        let a = balanced_undersample(&pairs, &truth, 3, &mut er_core::seeded_rng(7)).unwrap();
        let b = balanced_undersample(&pairs, &truth, 3, &mut er_core::seeded_rng(7)).unwrap();
        assert_eq!(a.pair_indices, b.pair_indices);
    }

    #[test]
    fn errors_when_not_enough_positives() {
        let (pairs, truth) = toy();
        let mut rng = er_core::seeded_rng(3);
        let err = balanced_undersample(&pairs, &truth, 5, &mut rng).unwrap_err();
        match err {
            Error::InsufficientTrainingData {
                requested,
                available,
            } => {
                assert_eq!(requested, 5);
                assert_eq!(available, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn zero_per_class_rejected() {
        let (pairs, truth) = toy();
        let mut rng = er_core::seeded_rng(4);
        assert!(balanced_undersample(&pairs, &truth, 0, &mut rng).is_err());
    }

    #[test]
    fn no_duplicate_indices_in_sample() {
        let (pairs, truth) = toy();
        let mut rng = er_core::seeded_rng(5);
        let sample = balanced_undersample(&pairs, &truth, 4, &mut rng).unwrap();
        let unique: std::collections::HashSet<_> = sample.pair_indices.iter().collect();
        assert_eq!(unique.len(), sample.len());
    }

    /// The definition of the sample, retained as the oracle: list both
    /// classes' indices, shuffle both lists, keep the first `per_class`.
    fn naive_balanced_undersample(
        pairs: &[(EntityId, EntityId)],
        truth: &GroundTruth,
        per_class: usize,
        rng: &mut impl Rng,
    ) -> Result<BalancedSample> {
        if per_class == 0 {
            return Err(Error::InvalidParameter(
                "per_class must be at least 1".into(),
            ));
        }
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            if truth.is_match(a, b) {
                positives.push(idx);
            } else {
                negatives.push(idx);
            }
        }
        for available in [positives.len(), negatives.len()] {
            if available < per_class {
                return Err(Error::InsufficientTrainingData {
                    requested: per_class,
                    available,
                });
            }
        }
        positives.shuffle(rng);
        negatives.shuffle(rng);
        let mut pair_indices = positives[..per_class].to_vec();
        pair_indices.extend_from_slice(&negatives[..per_class]);
        let mut labels = vec![true; per_class];
        labels.resize(2 * per_class, false);
        Ok(BalancedSample {
            pair_indices,
            labels,
        })
    }

    /// `n` distinct normalised pairs in ascending order; every `stride`-th
    /// one (from `first`) is a match.
    fn sorted_list(
        n: u32,
        first: usize,
        stride: usize,
    ) -> (Vec<(EntityId, EntityId)>, GroundTruth) {
        let pairs: Vec<(EntityId, EntityId)> = (0..n)
            .map(|i| (EntityId(i / 7), EntityId(1000 + i % 7 + 7 * (i / 7))))
            .collect();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        let truth = GroundTruth::from_pairs(pairs.iter().copied().skip(first).step_by(stride));
        (pairs, truth)
    }

    /// Same sample, same labels and the same RNG state afterwards (or the
    /// same error, with the RNG untouched) as the naive definition.
    fn assert_matches_naive(
        pairs: &[(EntityId, EntityId)],
        truth: &GroundTruth,
        per_class: usize,
        seed: u64,
    ) {
        let mut fast_rng = er_core::seeded_rng(seed);
        let mut naive_rng = er_core::seeded_rng(seed);
        let fast = balanced_undersample(pairs, truth, per_class, &mut fast_rng);
        let naive = naive_balanced_undersample(pairs, truth, per_class, &mut naive_rng);
        let context = format!(
            "n={} truth={} per_class={per_class} seed={seed}",
            pairs.len(),
            truth.len()
        );
        match (fast, naive) {
            (Ok(fast), Ok(naive)) => {
                assert_eq!(fast.pair_indices, naive.pair_indices, "{context}");
                assert_eq!(fast.labels, naive.labels, "{context}");
            }
            (Err(fast), Err(naive)) => {
                assert_eq!(format!("{fast:?}"), format!("{naive:?}"), "{context}")
            }
            (fast, naive) => panic!("{context}: {fast:?} vs {naive:?}"),
        }
        assert_eq!(
            fast_rng.gen::<u64>(),
            naive_rng.gen::<u64>(),
            "RNG streams diverged: {context}"
        );
    }

    #[test]
    fn sample_and_rng_stream_equal_the_naive_definition() {
        // Sorted lists with a sparse truth take the binary-search path
        // (600 pairs, 12 matches: 12 * 32 <= 600); the dense truth and the
        // unsorted / duplicated / denormalised lists take the scan.
        let (sparse_pairs, sparse_truth) = sorted_list(600, 3, 50);
        let (dense_pairs, dense_truth) = sorted_list(90, 1, 4);
        let mut reversed = sparse_pairs.clone();
        reversed.reverse();
        let mut duplicated = sparse_pairs.clone();
        duplicated.extend_from_slice(&sparse_pairs[..120]);
        let flipped: Vec<(EntityId, EntityId)> =
            sparse_pairs.iter().map(|&(a, b)| (b, a)).collect();
        let none = GroundTruth::from_pairs(Vec::new());
        let all = GroundTruth::from_pairs(dense_pairs.iter().copied());

        for seed in 0..5u64 {
            let lists: [(&[(EntityId, EntityId)], &GroundTruth); 7] = [
                (&sparse_pairs, &sparse_truth),
                (&dense_pairs, &dense_truth),
                (&reversed, &sparse_truth),
                (&duplicated, &sparse_truth),
                (&flipped, &sparse_truth),
                (&sparse_pairs, &none),
                (&dense_pairs, &all),
            ];
            for (pairs, truth) in lists {
                let positives = pairs.iter().filter(|&&(a, b)| truth.is_match(a, b)).count();
                let negatives = pairs.len() - positives;
                // Every size up to the scarcer class, the exact class sizes
                // (keep == all negatives) and one past each (the errors).
                let scarce = positives.min(negatives);
                let mut sizes: Vec<usize> = (1..=scarce.min(9)).collect();
                sizes.extend([scarce, scarce + 1, positives, negatives, negatives + 1]);
                for per_class in sizes {
                    assert_matches_naive(pairs, truth, per_class.max(1), seed);
                }
            }
        }
        // A list long enough that tracked elements move many times, some
        // of them more than once, and the filter sees stale bits.
        let (long_pairs, long_truth) = sorted_list(30_000, 17, 100);
        for seed in 0..5u64 {
            for per_class in [1, 7, 250, 300] {
                assert_matches_naive(&long_pairs, &long_truth, per_class, seed);
            }
        }
        // Negative lists longer than one replay block of `shuffled_prefix`:
        // exactly one block, one past it, an exact multiple and a ragged
        // multiple.
        for negatives in [
            DRAW_BLOCK,
            DRAW_BLOCK + 1,
            2 * DRAW_BLOCK,
            2 * DRAW_BLOCK + 777,
        ] {
            let n = negatives + 40;
            let (pairs, _) = sorted_list(n as u32, 0, 1);
            let truth =
                GroundTruth::from_pairs(pairs.iter().copied().skip(3).step_by(n / 40).take(40));
            assert_eq!(pairs.len() - truth.len(), negatives);
            for seed in 0..2u64 {
                for per_class in [1, 25, 40] {
                    assert_matches_naive(&pairs, &truth, per_class, seed);
                }
            }
        }
        // A one-class-each list where the kept prefix is all negatives.
        let (pairs, _) = sorted_list(40, 0, 1);
        let half = GroundTruth::from_pairs(pairs[..20].iter().copied());
        for seed in 0..5u64 {
            assert_matches_naive(&pairs, &half, 20, seed);
        }
    }

    #[test]
    fn nth_negative_skips_exactly_the_positives() {
        let positives = [0usize, 1, 4, 9];
        let negatives: Vec<usize> = (0..12).filter(|i| !positives.contains(i)).collect();
        for (rank, &expected) in negatives.iter().enumerate() {
            assert_eq!(nth_negative(&positives, rank), expected, "rank {rank}");
        }
        assert_eq!(nth_negative(&[], 5), 5);
    }

    #[test]
    fn paper_baseline_size_is_five_percent() {
        assert_eq!(paper_baseline_per_class(1000), 50);
        assert_eq!(paper_baseline_per_class(1075), 54);
        assert_eq!(paper_baseline_per_class(3), 1);
        assert_eq!(paper_baseline_per_class(0), 1);
    }
}
