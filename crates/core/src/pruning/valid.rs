//! The valid pairs: the one list every pruning algorithm decides on.
//!
//! Generalized Supervised Meta-blocking discards every pair whose matching
//! probability is below the validity threshold before any algorithm looks
//! at it, and on real candidate sets that leaves a small fraction of a
//! percent of the pairs.  [`ValidPairs`] is that fraction, kept in one pass
//! with the one validity test (`is_valid_probability`), so the algorithms
//! never rescan the candidate list and never read a probability twice.
//!
//! There are two ways in, and both make the range check of
//! [`CachedScores::new`](crate::scoring::CachedScores::new) in the same
//! pass, so no NaN reaches an algorithm.  [`ValidPairs::collect`] walks a
//! probability slice beside the candidate index, run by run (each entity's
//! partners, with the entity from the index's offsets), so it never needs
//! the index's `(a, b)` tuple view; the experiment runners and
//! [`PruningAlgorithm::prune`](crate::pruning::PruningAlgorithm::prune)
//! call it.  The pipeline needs no pass of its own at all: its scoring pass
//! keeps each chunk's valid pairs as it scores them (`ValidChunk`, the same
//! test and the same check) and the chunks are joined in order.

use er_blocking::CandidatePairs;
use er_core::{EntityId, PairId};

use crate::scoring::{assert_probabilities, is_probability, is_valid_probability};

/// Candidate pairs per worker below which the parallel collection does not
/// start another one.
const MIN_PAIRS_PER_WORKER: usize = 1 << 16;

/// Valid pairs each worker's list has room for before it first grows.
const INITIAL_CAPACITY: usize = 1 << 10;

/// A valid candidate pair with its endpoints and its probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidPair {
    /// The pair's id in the candidate set.
    pub id: PairId,
    /// The smaller endpoint.
    pub a: EntityId,
    /// The larger endpoint.
    pub b: EntityId,
    /// The matching probability (at least the validity threshold).
    pub probability: f64,
}

/// The valid pairs of a scored candidate set, in ascending pair-id order.
#[derive(Debug, Clone)]
pub struct ValidPairs {
    num_entities: usize,
    pairs: Vec<ValidPair>,
}

impl ValidPairs {
    /// Collects the valid pairs from a probability slice (one entry per
    /// candidate pair, indexed by pair id), on up to `threads` workers, each
    /// scanning one pair range into its own list; the lists are joined in
    /// range order, so the result is the same for every thread count.  Each
    /// list is allocated on the calling thread and grows in place, so none
    /// of it is left behind in a worker thread's malloc arena.
    ///
    /// # Panics
    ///
    /// If `probabilities` is not one entry per candidate pair, or holds a
    /// value that is not a probability (NaN, infinite or outside `[0, 1]`)
    /// — the check [`CachedScores::new`](crate::scoring::CachedScores::new)
    /// makes, with the same message, done in the same pass.
    pub fn collect(candidates: &CandidatePairs, probabilities: &[f64], threads: usize) -> Self {
        assert_eq!(
            probabilities.len(),
            candidates.len(),
            "one probability per candidate pair"
        );
        let n = candidates.len();
        let workers = er_core::workers_for(n, threads, MIN_PAIRS_PER_WORKER);
        let per_worker = n.div_ceil(workers);
        let tasks: Vec<_> = (0..workers)
            .map(|w| {
                let range = (w * per_worker).min(n)..((w + 1) * per_worker).min(n);
                let pairs = Vec::with_capacity(INITIAL_CAPACITY);
                (
                    range,
                    ValidChunk {
                        pairs,
                        ..ValidChunk::default()
                    },
                )
            })
            .collect();
        let parts = er_core::map_tasks_parallel(tasks, workers, |(range, mut part)| {
            push_valid(candidates, range, |id| probabilities[id], &mut part);
            part
        });
        Self::from_chunks(candidates.num_entities(), parts)
    }

    /// Joins, in order, the valid pairs a pass kept over consecutive pair
    /// ranges (a scoring pass's chunks, a collection's worker ranges).
    ///
    /// # Panics
    ///
    /// If a range held a value that is not a probability: the check
    /// [`CachedScores::new`](crate::scoring::CachedScores::new) makes, with
    /// the same message.
    pub(crate) fn from_chunks(num_entities: usize, chunks: Vec<ValidChunk>) -> Self {
        assert_probabilities(chunks.iter().all(|chunk| !chunk.out_of_range));
        // A lone chunk's list is the result: it is taken, not copied.
        let pairs = match <[ValidChunk; 1]>::try_from(chunks) {
            Ok([chunk]) => chunk.pairs,
            Err(chunks) => {
                let mut pairs = Vec::with_capacity(chunks.iter().map(|c| c.pairs.len()).sum());
                for chunk in chunks {
                    pairs.extend_from_slice(&chunk.pairs);
                }
                pairs
            }
        };
        ValidPairs {
            num_entities,
            pairs,
        }
    }

    /// The valid pairs, ascending by pair id.
    pub fn pairs(&self) -> &[ValidPair] {
        &self.pairs
    }

    /// Number of valid pairs.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pair is valid.
    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The ids of the valid pairs that `keep` accepts, ascending.
    pub(crate) fn ids_where(&self, keep: impl Fn(&ValidPair) -> bool) -> Vec<PairId> {
        self.pairs
            .iter()
            .filter(|pair| keep(pair))
            .map(|pair| pair.id)
            .collect()
    }

    /// Per entity, the average probability of its valid pairs, each sum
    /// accumulated in ascending pair-id order (NaN for an entity without a
    /// valid pair: no valid pair reads it).
    pub(crate) fn per_entity_averages(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.num_entities];
        let mut counts = vec![0u32; self.num_entities];
        for pair in &self.pairs {
            for endpoint in [pair.a, pair.b] {
                sums[endpoint.index()] += pair.probability;
                counts[endpoint.index()] += 1;
            }
        }
        for (sum, count) in sums.iter_mut().zip(counts) {
            *sum /= f64::from(count);
        }
        sums
    }

    /// Per entity, the maximum probability of its valid pairs (0 for an
    /// entity without one).
    pub(crate) fn per_entity_maxima(&self) -> Vec<f64> {
        let mut max = vec![0.0f64; self.num_entities];
        for pair in &self.pairs {
            for endpoint in [pair.a, pair.b] {
                let slot = &mut max[endpoint.index()];
                if *slot < pair.probability {
                    *slot = pair.probability;
                }
            }
        }
        max
    }

    /// The ids of the valid pairs that are in the top-`k` lists of at least
    /// `lists` of their two endpoints, ascending.  An entity's top `k` are
    /// its valid pairs ranked by probability descending, then pair id
    /// ascending.
    ///
    /// The pairs are grouped by endpoint (a CSR of positions into the list),
    /// and each group longer than `k` is partitioned at its `k`-th rank — no
    /// per-entity allocation.
    pub(crate) fn ids_in_top_k(&self, k: usize, lists: u8) -> Vec<PairId> {
        let mut starts = vec![0usize; self.num_entities + 1];
        for pair in &self.pairs {
            starts[pair.a.index() + 1] += 1;
            starts[pair.b.index() + 1] += 1;
        }
        for entity in 0..self.num_entities {
            starts[entity + 1] += starts[entity];
        }
        let mut next = starts.clone();
        let mut grouped = vec![0u32; 2 * self.pairs.len()];
        for (position, pair) in self.pairs.iter().enumerate() {
            for endpoint in [pair.a, pair.b] {
                let slot = &mut next[endpoint.index()];
                grouped[*slot] = position as u32;
                *slot += 1;
            }
        }

        let rank = |x: &u32, y: &u32| by_rank(&self.pairs[*x as usize], &self.pairs[*y as usize]);
        let mut membership = vec![0u8; self.pairs.len()];
        for window in starts.windows(2) {
            let group = &mut grouped[window[0]..window[1]];
            let top = if group.len() > k {
                group.select_nth_unstable_by(k - 1, rank);
                &group[..k]
            } else {
                &group[..]
            };
            for &position in top {
                membership[position as usize] += 1;
            }
        }
        self.pairs
            .iter()
            .zip(membership)
            .filter(|&(_, member_of)| member_of >= lists)
            .map(|(pair, _)| pair.id)
            .collect()
    }
}

/// The valid pairs of one range of pair ids, kept as the range is walked in
/// id order, and whether a value of the range was not a probability — what
/// [`ValidPairs::from_chunks`] joins.
#[derive(Debug, Default)]
pub(crate) struct ValidChunk {
    pairs: Vec<ValidPair>,
    out_of_range: bool,
}

impl ValidChunk {
    /// Keeps the pair if it is valid (`is_valid_probability`, the one
    /// validity test) and notes whether its probability is one.
    #[inline]
    pub(crate) fn push(&mut self, id: PairId, a: EntityId, b: EntityId, probability: f64) {
        self.out_of_range |= !is_probability(probability);
        if is_valid_probability(probability) {
            self.pairs.push(ValidPair {
                id,
                a,
                b,
                probability,
            });
        }
    }
}

/// Walks the pair-id `range` in id order into `out`, asking `probability`
/// once per pair id.
fn push_valid(
    candidates: &CandidatePairs,
    range: std::ops::Range<usize>,
    probability: impl Fn(usize) -> f64,
    out: &mut ValidChunk,
) {
    for (a, first, partners) in candidates.runs_in(range) {
        for (offset, &b) in partners.iter().enumerate() {
            let id = first + offset;
            out.push(PairId::from(id), a, EntityId(b), probability(id));
        }
    }
}

/// The pruning algorithms' ranking: probability descending, then pair id
/// ascending.  Valid probabilities are never NaN, so `total_cmp` is their
/// numeric order.
pub(crate) fn by_rank(x: &ValidPair, y: &ValidPair) -> std::cmp::Ordering {
    y.probability
        .total_cmp(&x.probability)
        .then(x.id.cmp(&y.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::panic_message;
    use crate::scoring::CachedScores;

    /// The valid pairs by definition: the candidates whose probability is
    /// at least 0.5, filtered one by one off the index's tuple view.
    fn filter_oracle(candidates: &CandidatePairs, probabilities: &[f64]) -> Vec<ValidPair> {
        candidates
            .pairs()
            .iter()
            .zip(probabilities)
            .enumerate()
            .filter(|&(_, (_, &p))| p >= 0.5)
            .map(|(i, (&(a, b), &probability))| ValidPair {
                id: PairId::from(i),
                a,
                b,
                probability,
            })
            .collect()
    }

    #[test]
    fn parallel_collection_equals_the_serial_one_for_every_thread_count() {
        // Enough pairs for several workers; every third pair valid, with a
        // run of invalid ones at the start and end of the list.
        let num_entities = 760u32;
        let pairs = (0..num_entities)
            .flat_map(|a| (a + 1..num_entities).step_by(2).map(move |b| (a, b)))
            .map(|(a, b)| (EntityId(a), EntityId(b)));
        let candidates = CandidatePairs::from_pairs(num_entities as usize, pairs);
        let n = candidates.len();
        assert!(n >= 2 * MIN_PAIRS_PER_WORKER, "{n} pairs");
        let probabilities: Vec<f64> = (0..n)
            .map(|i| {
                if i < 1000 || i + 1000 > n || i % 3 != 0 {
                    (i % 50) as f64 / 100.0
                } else {
                    0.5 + (i % 7) as f64 / 14.0
                }
            })
            .collect();
        let serial = filter_oracle(&candidates, &probabilities);
        assert!(!serial.is_empty());
        for threads in [1, 2, 3, 8] {
            let parallel = ValidPairs::collect(&candidates, &probabilities, threads);
            assert_eq!(parallel.pairs(), serial.as_slice(), "{threads} threads");
        }
        assert!(ValidPairs::collect(&candidates, &vec![0.25; n], 2).is_empty());
    }

    /// Random candidates (with entities that have no run and runs cut by
    /// the workers' range boundaries) and random probabilities.
    fn random_scored(num_entities: u32, seed: u64) -> (CandidatePairs, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pairs: Vec<(EntityId, EntityId)> = (0..num_entities * 300)
            .map(|_| {
                let a = (next() % u64::from(num_entities)) as u32;
                let b = (next() % u64::from(num_entities)) as u32;
                (EntityId(a), EntityId(b))
            })
            .filter(|&(a, b)| a.0 % 5 != 3 && b.0 % 5 != 3)
            .collect();
        let candidates = CandidatePairs::from_pairs(num_entities as usize, pairs);
        // Twentieths: 0, 0.5 and 1 included, just over half of them valid.
        let probabilities = (0..candidates.len())
            .map(|_| (next() % 21) as f64 / 20.0)
            .collect();
        (candidates, probabilities)
    }

    #[test]
    fn collection_equals_the_filter_oracle_on_random_candidates() {
        for seed in [5u64, 41, 1234] {
            let (candidates, probabilities) = random_scored(1200, seed);
            assert!(candidates.len() >= 2 * MIN_PAIRS_PER_WORKER);
            let expected = filter_oracle(&candidates, &probabilities);
            assert!(expected.len() > candidates.len() / 3, "seed {seed}");
            for threads in [1, 2, 3, 8] {
                let valid = ValidPairs::collect(&candidates, &probabilities, threads);
                assert_eq!(
                    valid.pairs(),
                    expected.as_slice(),
                    "seed {seed}, {threads} threads"
                );
            }
        }
    }

    /// The range check folded into the collection rejects what
    /// `CachedScores::new` rejects, with its message, wherever the value
    /// sits — in the first worker's range or the last one's.
    #[test]
    fn collection_over_the_slice_rejects_what_is_not_a_probability() {
        let (candidates, probabilities) = random_scored(1200, 7);
        let n = candidates.len();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.25] {
            for position in [0, n / 2, n - 1] {
                for threads in [1, 3] {
                    let mut values = probabilities.clone();
                    values[position] = bad;
                    let panic = std::panic::catch_unwind(|| {
                        ValidPairs::collect(&candidates, &values, threads)
                    })
                    .expect_err("not a probability");
                    assert_eq!(
                        panic_message(panic),
                        "probabilities must be finite and within [0, 1]",
                        "{bad} at {position}, {threads} threads"
                    );
                    let cached = std::panic::catch_unwind(|| CachedScores::new(values.clone()));
                    assert!(cached.is_err(), "{bad}");
                }
            }
        }
        for edge in [0.0, -0.0, 1.0] {
            let mut values = probabilities.clone();
            values[n / 2] = edge;
            let valid = ValidPairs::collect(&candidates, &values, 2);
            assert_eq!(
                valid.pairs(),
                filter_oracle(&candidates, &values).as_slice()
            );
        }
    }
}
