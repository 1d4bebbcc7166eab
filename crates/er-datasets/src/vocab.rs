//! Zipfian token vocabulary.
//!
//! Real attribute values mix very frequent tokens (stop-word-like, e.g.
//! "smartphone") with rare, distinctive ones (model numbers).  A Zipfian
//! vocabulary reproduces that skew: token `r` (rank starting at 1) is sampled
//! with probability proportional to `1 / r^s`.  The skew determines the
//! block-size distribution after Token Blocking, which in turn drives every
//! weighting scheme.
//!
//! **Sampling.**  A draw `x` uniform in `[0, 1)` maps to the first rank whose
//! normalised cumulative weight is at least `x`:
//! `cumulative.partition_point(|c| c < x)`.  A *guide table* skips the
//! cache-missing levels of that search: with `K` the vocabulary size rounded
//! up to a power of two, `guide[k]` is the first rank whose cumulative weight
//! is at least `k / K`, and a draw searches only
//! `cumulative[guide[k] .. guide[k + 1]]` for `k = ⌊x·K⌋`.
//! The rank is the same, bit for bit: `x·K` is exact, so
//! `k / K <= x < (k + 1) / K`, and `partition_point` is monotone in its
//! threshold, so every rank below `guide[k]` is `< x` and every rank from
//! `guide[k + 1]` on is `>= x`.  The weights `1 / r^s` are computed on
//! worker threads and summed in rank order, so the sums are a serial loop's.

use rand::Rng;

/// Ranks per worker when the weights are computed in parallel: below twice
/// this, the `powf` loop runs on the calling thread.
const RANKS_PER_WORKER: usize = 1 << 16;

/// A token vocabulary with a Zipfian sampling distribution.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// Cumulative sampling weights, normalised to end at 1.0.
    cumulative: Vec<f64>,
    /// `guide[k]`: the first rank whose cumulative weight is at least
    /// `k / K`, for `k` in `0..=K` with `K = guide.len() - 1` a power of two.
    guide: Vec<u32>,
}

impl Vocabulary {
    /// Creates a vocabulary of `size` tokens with Zipf exponent `exponent`.
    ///
    /// # Panics
    /// Panics if `size` is not in `1..=u32::MAX` or `exponent` is negative
    /// or NaN; the generators' `validate` methods reject those first.
    pub fn new(size: usize, exponent: f64) -> Self {
        assert!(
            size > 0 && u32::try_from(size).is_ok(),
            "vocabulary size must be 1..=u32::MAX"
        );
        assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = vec![0.0f64; size];
        let threads = er_core::workers_for(size, er_core::available_threads(), RANKS_PER_WORKER);
        er_core::fill_rows_parallel(
            &mut cumulative,
            1,
            threads,
            RANKS_PER_WORKER,
            |first, out| {
                for (weight, rank) in out.iter_mut().zip(first + 1..) {
                    *weight = 1.0 / (rank as f64).powf(exponent);
                }
            },
        );
        let mut total = 0.0;
        for value in &mut cumulative {
            total += *value;
            *value = total;
        }

        // Normalise and fill the guide in one pass: each rank claims every
        // unclaimed bucket `k <= ⌊value·K⌋`, i.e. with `k / K <= value`.
        let buckets = size.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        for (rank, value) in cumulative.iter_mut().enumerate() {
            *value /= total;
            let reached = ((*value * buckets as f64) as usize).min(buckets);
            while guide.len() <= reached {
                guide.push(rank as u32);
            }
        }
        guide.resize(buckets + 1, size as u32);
        Vocabulary { cumulative, guide }
    }

    /// Number of tokens in the vocabulary.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if the vocabulary is empty (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples a token index according to the Zipf distribution
    /// (index 0 is the most frequent token).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a draw `x` in `[0, 1)` maps to:
    /// `cumulative.partition_point(|&c| c < x)`, searched inside `x`'s guide
    /// bucket only (see the module docs for why the two agree).
    fn rank_of(&self, x: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&x));
        let bucket = (x * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[bucket] as usize, self.guide[bucket + 1] as usize);
        (lo + self.cumulative[lo..hi].partition_point(|&c| c < x)).min(self.len() - 1)
    }

    /// Samples a token index uniformly from the rarest `tail_fraction` of the
    /// vocabulary.  Used to give duplicate pairs distinctive shared tokens.
    pub(crate) fn sample_tail(&self, rng: &mut impl Rng, tail_fraction: f64) -> usize {
        let tail_fraction = tail_fraction.clamp(0.0001, 1.0);
        let start = ((1.0 - tail_fraction) * self.len() as f64) as usize;
        rng.gen_range(start..self.len())
    }
}

/// Appends the string form of token `index` (`tok<index>`, which is
/// `"tok".len() + decimal_len(index)` bytes long) to `out`.
pub(crate) fn push_token(out: &mut String, index: usize) {
    out.push_str("tok");
    push_decimal(out, index);
}

/// Appends `value` in decimal, without a formatter or a temporary `String`.
pub(crate) fn push_decimal(out: &mut String, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while start == digits.len() || value > 0 {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// The number of decimal digits of `value`.
pub(crate) fn decimal_len(value: usize) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::seeded_rng;

    #[test]
    fn head_tokens_are_sampled_more_often() {
        let vocab = Vocabulary::new(1000, 1.0);
        let mut rng = seeded_rng(1);
        let mut head = 0usize;
        let mut tail = 0usize;
        for _ in 0..20_000 {
            let idx = vocab.sample(&mut rng);
            if idx < 10 {
                head += 1;
            } else if idx >= 500 {
                tail += 1;
            }
        }
        assert!(head > tail, "head {head} should exceed tail {tail}");
    }

    #[test]
    fn zero_exponent_is_uniform_like() {
        let vocab = Vocabulary::new(100, 0.0);
        let mut rng = seeded_rng(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[vocab.sample(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "uniform sampling too skewed: {min}..{max}");
    }

    #[test]
    fn sample_tail_stays_in_tail() {
        let vocab = Vocabulary::new(1000, 1.2);
        let mut rng = seeded_rng(3);
        for _ in 0..1000 {
            let idx = vocab.sample_tail(&mut rng, 0.25);
            assert!(idx >= 750, "tail sample {idx} outside tail");
        }
    }

    #[test]
    fn sample_never_exceeds_bounds() {
        let vocab = Vocabulary::new(5, 1.0);
        let mut rng = seeded_rng(4);
        for _ in 0..1000 {
            assert!(vocab.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn token_rendering() {
        let vocab = Vocabulary::new(3, 1.0);
        assert_eq!(vocab.len(), 3);
        assert!(!vocab.is_empty());
        for index in [0, 2, 9, 10, 99, 100, 123_456, 4_000_000, usize::MAX] {
            let mut rendered = String::from("x ");
            push_token(&mut rendered, index);
            assert_eq!(rendered, format!("x tok{index}"));
            assert_eq!(decimal_len(index), index.to_string().len());
        }
    }

    /// The sampler's definition: a binary search over the whole table.
    fn naive_rank(vocab: &Vocabulary, x: f64) -> usize {
        vocab
            .cumulative
            .partition_point(|&c| c < x)
            .min(vocab.len() - 1)
    }

    /// The float just below a positive `x`.
    fn below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn guide_table_returns_the_plain_search_rank() {
        let largest_below_one = below(1.0);
        assert!(largest_below_one < 1.0);
        for exponent in [0.0, 0.5, 1.05] {
            for size in [1usize, 2, 3, 1000, 100_003] {
                let vocab = Vocabulary::new(size, exponent);
                let buckets = vocab.guide.len() - 1;
                assert!(buckets.is_power_of_two() && buckets >= size);

                // Edge draws: zero, the largest draw below one, every
                // bucket threshold and every cumulative entry (sampled on
                // the large tables), each with its lower neighbour.
                let mut edges = vec![0.0, largest_below_one];
                let step = (buckets / 4096).max(1);
                edges.extend(
                    (1..buckets)
                        .step_by(step)
                        .map(|k| k as f64 / buckets as f64),
                );
                let step = (size / 4096).max(1);
                edges.extend(vocab.cumulative.iter().step_by(step).copied());
                edges.push(vocab.cumulative[size / 2]);
                let neighbours: Vec<f64> = edges
                    .iter()
                    .filter(|&&x| x > 0.0)
                    .map(|&x| below(x))
                    .collect();
                edges.extend(neighbours);
                for x in edges.into_iter().filter(|x| (0.0..1.0).contains(x)) {
                    assert_eq!(
                        vocab.rank_of(x),
                        naive_rank(&vocab, x),
                        "size {size}, exponent {exponent}, x {x:e}"
                    );
                }

                // Random draws, through `sample` itself: each draw is the
                // next `f64` of the stream.
                let draws = if size == 100_003 { 1_000_000 } else { 10_000 };
                let mut rng = seeded_rng(size as u64 ^ exponent.to_bits());
                let mut oracle_rng = rng.clone();
                for _ in 0..draws {
                    let x: f64 = oracle_rng.gen();
                    assert_eq!(
                        vocab.sample(&mut rng),
                        naive_rank(&vocab, x),
                        "size {size}, exponent {exponent}, x {x:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "vocabulary size")]
    fn zero_size_panics() {
        let _ = Vocabulary::new(0, 1.0);
    }
}
