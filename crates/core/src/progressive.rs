//! Progressive emission of candidate pairs.
//!
//! The paper's future-work section plans to use Generalized Supervised
//! Meta-blocking for *Progressive Entity Resolution*: instead of handing the
//! matcher one static block collection, candidate pairs are emitted in
//! decreasing order of matching likelihood so that, under a limited
//! comparison budget, as many duplicates as possible are found early.  The
//! probabilistic weights produced by the trained classifier are exactly the
//! ranking signal this needs.
//!
//! Two schedules cover the two ways candidates arrive:
//!
//! * [`ProgressiveSchedule`] ranks a complete, batch-scored candidate set
//!   once: every pair from its probabilities ([`ProgressiveSchedule::new`]),
//!   or only the valid ones from the list pruning decides on
//!   ([`ProgressiveSchedule::from_valid`]);
//! * [`StreamingSchedule`] re-ranks on every ingested batch: delta pairs
//!   from `er_stream::DeltaBatch` are absorbed into a priority queue, so
//!   the matcher always drains the highest-probability pair the stream has
//!   produced so far.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use er_core::{EntityId, FxHashMap, PairId};

use crate::pruning::{by_rank, ValidPairs};
use crate::scoring::CachedScores;

/// An iterator over candidate pairs in decreasing probability order.
#[derive(Debug, Clone)]
pub struct ProgressiveSchedule {
    ordered: Vec<(PairId, f64)>,
    next: usize,
}

impl ProgressiveSchedule {
    /// Ranks every candidate pair by its probability (descending).  Ties are
    /// broken by pair id so the schedule is deterministic.
    pub fn new(scores: &CachedScores) -> Self {
        let mut ordered: Vec<(PairId, f64)> = scores
            .as_slice()
            .iter()
            .enumerate()
            .map(|(id, &p)| (PairId::from(id), p))
            .collect();
        // `partial_cmp`, not `total_cmp`: the scores may hold `-0.0`, which
        // ties with `0.0` here and would rank below it under `total_cmp`.
        ordered.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        ProgressiveSchedule { ordered, next: 0 }
    }

    /// Ranks only the *valid* pairs (probability ≥ 0.5), matching the
    /// generalized task definition, in the pruning algorithms' order
    /// (probability descending, then pair id).
    pub fn from_valid(valid: &ValidPairs) -> Self {
        let mut pairs = valid.pairs().to_vec();
        pairs.sort_unstable_by(by_rank);
        ProgressiveSchedule {
            ordered: pairs
                .iter()
                .map(|pair| (pair.id, pair.probability))
                .collect(),
            next: 0,
        }
    }

    /// Number of pairs remaining in the schedule.
    pub fn remaining(&self) -> usize {
        self.ordered.len() - self.next
    }

    /// Emits the next batch of up to `budget` pairs.
    pub fn next_batch(&mut self, budget: usize) -> &[(PairId, f64)] {
        let start = self.next;
        let end = (start + budget).min(self.ordered.len());
        self.next = end;
        &self.ordered[start..end]
    }

    /// The full ranked list (without consuming the schedule).
    pub fn ranked(&self) -> &[(PairId, f64)] {
        &self.ordered
    }
}

impl Iterator for ProgressiveSchedule {
    type Item = (PairId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.ordered.get(self.next).copied();
        if item.is_some() {
            self.next += 1;
        }
        item
    }
}

/// A scored pair in the streaming priority queue, ordered by probability
/// descending with ties broken by ascending pair so draining is
/// deterministic.  The stamp identifies the *generation* of the entry: a
/// re-absorbed (re-ranked) pair leaves its old heap entry behind as a stale
/// record that emission skips.
#[derive(Debug, Clone, Copy)]
struct RankedPair {
    probability: f64,
    pair: (EntityId, EntityId),
    stamp: u64,
}

impl Ord for RankedPair {
    fn cmp(&self, other: &Self) -> Ordering {
        // Probabilities are clamped to [0, 1] upstream, so total_cmp is a
        // plain numeric order here; the max-heap pops the largest first.
        self.probability
            .total_cmp(&other.probability)
            .then_with(|| other.pair.cmp(&self.pair))
            .then_with(|| self.stamp.cmp(&other.stamp))
    }
}

impl PartialOrd for RankedPair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankedPair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankedPair {}

/// Lifecycle of a pair inside a [`StreamingSchedule`].
#[derive(Debug, Clone, Copy)]
enum PairState {
    /// Waiting in the heap; only the entry carrying this stamp is current.
    Queued(u64),
    /// Already handed to the matcher; never re-issued.
    Emitted,
}

/// Progressive re-ranking over a stream of mutations: absorbs every
/// batch's delta pairs (with their classifier probabilities), re-ranks
/// pairs whose score changed, and always emits the highest-probability pair
/// not yet handed to the matcher.
///
/// * **Re-ranking** — absorbing a pair that is already queued replaces its
///   priority (the old heap entry goes stale and is skipped on emission);
///   this is how re-scored survivors of an update move through the queue.
/// * **Retraction** — a retracted pair still in the queue is dropped; a
///   pair already emitted cannot be recalled — the consumer simply compared
///   one pair that the final corpus would not have scheduled.
/// * **At-most-once emission** — a pair that was emitted is never queued
///   again, even if a later mutation revives or re-scores it.
#[derive(Debug, Clone, Default)]
pub struct StreamingSchedule {
    heap: BinaryHeap<RankedPair>,
    states: FxHashMap<(EntityId, EntityId), PairState>,
    next_stamp: u64,
    queued: usize,
    emitted: usize,
}

impl StreamingSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        StreamingSchedule::default()
    }

    /// Absorbs one batch of scored pairs (the `pairs`/`probabilities`
    /// columns of an `er_stream::DeltaBatch`): new pairs are queued,
    /// already-queued pairs are re-ranked to the new probability, and
    /// already-emitted pairs are ignored.
    ///
    /// # Panics
    /// Panics if the two slices differ in length — streaming emission
    /// always scores every pair it reports.
    pub fn absorb(&mut self, pairs: &[(EntityId, EntityId)], probabilities: &[f64]) {
        assert_eq!(
            pairs.len(),
            probabilities.len(),
            "every absorbed pair needs a probability"
        );
        for (&pair, &probability) in pairs.iter().zip(probabilities) {
            match self.states.get(&pair) {
                Some(PairState::Emitted) => continue,
                Some(PairState::Queued(_)) => {}
                None => self.queued += 1,
            }
            self.next_stamp += 1;
            let stamp = self.next_stamp;
            self.states.insert(pair, PairState::Queued(stamp));
            self.heap.push(RankedPair {
                probability,
                pair,
                stamp,
            });
        }
    }

    /// Drops retracted pairs from the queue; they will not be emitted
    /// (pairs already drained are unaffected and stay ineligible for
    /// re-queueing).
    pub fn retract(&mut self, pairs: &[(EntityId, EntityId)]) {
        for pair in pairs {
            if let Some(PairState::Queued(_)) = self.states.get(pair) {
                self.states.remove(pair);
                self.queued -= 1;
            }
        }
    }

    /// Emits the next pair in decreasing probability order, skipping
    /// retracted pairs and stale (re-ranked) heap entries.
    pub fn pop(&mut self) -> Option<((EntityId, EntityId), f64)> {
        while let Some(ranked) = self.heap.pop() {
            match self.states.get(&ranked.pair) {
                Some(&PairState::Queued(stamp)) if stamp == ranked.stamp => {
                    self.states.insert(ranked.pair, PairState::Emitted);
                    self.queued -= 1;
                    self.emitted += 1;
                    return Some((ranked.pair, ranked.probability));
                }
                _ => continue,
            }
        }
        None
    }

    /// Emits the next batch of up to `budget` pairs.
    pub fn next_batch(&mut self, budget: usize) -> Vec<((EntityId, EntityId), f64)> {
        let mut out = Vec::with_capacity(budget.min(self.queued));
        while out.len() < budget {
            let Some(item) = self.pop() else { break };
            out.push(item);
        }
        out
    }

    /// Exact number of pairs still queued (retracted and re-ranked entries
    /// excluded).
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// Number of pairs emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The queued pairs with their current probabilities (stale re-ranked
    /// heap entries excluded), sorted by pair — the snapshot half of a
    /// schedule's persistent state.
    pub fn queued_entries(&self) -> Vec<((EntityId, EntityId), f64)> {
        let mut entries: Vec<((EntityId, EntityId), f64)> = self
            .heap
            .iter()
            .filter(|ranked| {
                matches!(
                    self.states.get(&ranked.pair),
                    Some(&PairState::Queued(stamp)) if stamp == ranked.stamp
                )
            })
            .map(|ranked| (ranked.pair, ranked.probability))
            .collect();
        entries.sort_unstable_by_key(|entry| entry.0);
        entries
    }

    /// The pairs already handed to the matcher, sorted — the other half of
    /// the persistent state ([`StreamingSchedule::restore`] keeps them
    /// ineligible for re-emission).
    pub(crate) fn emitted_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut pairs: Vec<(EntityId, EntityId)> = self
            .states
            .iter()
            .filter(|(_, state)| matches!(state, PairState::Emitted))
            .map(|(&pair, _)| pair)
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Rebuilds a schedule from [`StreamingSchedule::queued_entries`] and
    /// the pairs already handed to the matcher.  Stamps are renumbered, but
    /// emission order is unaffected: only one heap entry per pair is
    /// current, so draining is governed by `(probability, pair)` exactly as
    /// before.
    pub fn restore(
        queued: &[((EntityId, EntityId), f64)],
        emitted: &[(EntityId, EntityId)],
    ) -> Self {
        let mut schedule = StreamingSchedule::new();
        for &(pair, probability) in queued {
            schedule.absorb(&[pair], &[probability]);
        }
        for &pair in emitted {
            if schedule.states.insert(pair, PairState::Emitted).is_none() {
                schedule.emitted += 1;
            } else {
                // A pair both queued and emitted in the same snapshot would
                // be a writer bug; the emitted state wins and the stale
                // queue entry is skipped on pop.
                schedule.queued -= 1;
                schedule.emitted += 1;
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::test_support::scored_pairs;
    use er_core::GroundTruth;

    #[test]
    fn pairs_are_emitted_in_decreasing_probability() {
        let (_, scores) = scored_pairs(8, &[(0, 4, 0.3), (1, 5, 0.9), (2, 6, 0.7), (3, 7, 0.5)]);
        let schedule = ProgressiveSchedule::new(&scores);
        let probabilities: Vec<f64> = schedule.clone().map(|(_, p)| p).collect();
        assert_eq!(probabilities, vec![0.9, 0.7, 0.5, 0.3]);
    }

    #[test]
    fn valid_only_drops_low_probability_pairs() {
        let (candidates, scores) = scored_pairs(6, &[(0, 3, 0.2), (1, 4, 0.8), (2, 5, 0.45)]);
        let valid = ValidPairs::collect(&candidates, scores.as_slice(), 1);
        let schedule = ProgressiveSchedule::from_valid(&valid);
        assert_eq!(schedule.remaining(), 1);
        assert_eq!(schedule.ranked()[0].1, 0.8);
    }

    #[test]
    fn batches_respect_the_budget() {
        let triples: Vec<(u32, u32, f64)> = (0..10u32)
            .map(|i| (i, i + 10, 0.5 + f64::from(i) * 0.03))
            .collect();
        let (_, scores) = scored_pairs(20, &triples);
        let mut schedule = ProgressiveSchedule::new(&scores);
        assert_eq!(schedule.next_batch(4).len(), 4);
        assert_eq!(schedule.remaining(), 6);
        assert_eq!(schedule.next_batch(100).len(), 6);
        assert_eq!(schedule.remaining(), 0);
        assert!(schedule.next_batch(5).is_empty());
    }

    #[test]
    fn streaming_schedule_interleaves_batches_by_probability() {
        use er_core::EntityId;
        let mut schedule = StreamingSchedule::new();
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        schedule.absorb(&[pair(0, 1), pair(0, 2)], &[0.4, 0.9]);
        schedule.absorb(&[pair(1, 3), pair(2, 3)], &[0.7, 0.1]);
        assert_eq!(schedule.pending(), 4);
        let drained = schedule.next_batch(10);
        let probabilities: Vec<f64> = drained.iter().map(|&(_, p)| p).collect();
        assert_eq!(probabilities, vec![0.9, 0.7, 0.4, 0.1]);
        assert_eq!(drained[0].0, pair(0, 2));
        assert_eq!(schedule.emitted(), 4);
        assert!(schedule.pop().is_none());
    }

    #[test]
    fn streaming_schedule_ties_break_by_ascending_pair() {
        use er_core::EntityId;
        let mut schedule = StreamingSchedule::new();
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        schedule.absorb(&[pair(5, 7), pair(1, 9), pair(1, 4)], &[0.5, 0.5, 0.5]);
        let order: Vec<_> = schedule.next_batch(3).into_iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![pair(1, 4), pair(1, 9), pair(5, 7)]);
    }

    #[test]
    fn streaming_schedule_skips_retracted_pairs() {
        use er_core::EntityId;
        let mut schedule = StreamingSchedule::new();
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        schedule.absorb(&[pair(0, 1), pair(0, 2), pair(1, 2)], &[0.8, 0.6, 0.4]);
        schedule.retract(&[pair(0, 2)]);
        assert_eq!(schedule.pending(), 2);
        let drained: Vec<_> = schedule
            .next_batch(10)
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(drained, vec![pair(0, 1), pair(1, 2)]);
        assert_eq!(schedule.emitted(), 2);
        assert_eq!(schedule.pending(), 0);
    }

    #[test]
    fn streaming_schedule_reranks_absorbed_pairs() {
        use er_core::EntityId;
        let mut schedule = StreamingSchedule::new();
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        schedule.absorb(&[pair(0, 1), pair(0, 2)], &[0.9, 0.5]);
        // Re-scoring flips the order; the stale 0.9 entry must be skipped.
        schedule.absorb(&[pair(0, 1)], &[0.1]);
        assert_eq!(schedule.pending(), 2);
        let drained = schedule.next_batch(10);
        assert_eq!(drained[0], (pair(0, 2), 0.5));
        assert_eq!(drained[1], (pair(0, 1), 0.1));
        assert_eq!(schedule.emitted(), 2);
    }

    #[test]
    fn streaming_schedule_never_reissues_an_emitted_pair() {
        use er_core::EntityId;
        let mut schedule = StreamingSchedule::new();
        let pair = |a: u32, b: u32| (EntityId(a), EntityId(b));
        schedule.absorb(&[pair(0, 1)], &[0.8]);
        assert_eq!(schedule.pop().unwrap().0, pair(0, 1));
        // Re-absorbing (a revival or re-score) after emission is a no-op.
        schedule.absorb(&[pair(0, 1)], &[0.9]);
        assert_eq!(schedule.pending(), 0);
        assert!(schedule.pop().is_none());
        // Retraction after emission is also a no-op; a fresh pair still
        // flows normally.
        schedule.retract(&[pair(0, 1)]);
        schedule.absorb(&[pair(2, 3)], &[0.4]);
        assert_eq!(schedule.pop().unwrap().0, pair(2, 3));
        assert_eq!(schedule.emitted(), 2);
    }

    #[test]
    fn early_batches_find_duplicates_first_when_scores_are_informative() {
        // Matches get high probabilities, non-matches low ones: the first
        // half of the schedule must contain every match.
        let triples = [
            (0u32, 5u32, 0.95f64),
            (1, 6, 0.9),
            (2, 7, 0.2),
            (3, 8, 0.3),
            (4, 9, 0.1),
        ];
        let (candidates, scores) = scored_pairs(10, &triples);
        let truth = GroundTruth::from_pairs(vec![
            (er_core::EntityId(0), er_core::EntityId(5)),
            (er_core::EntityId(1), er_core::EntityId(6)),
        ]);
        let mut schedule = ProgressiveSchedule::new(&scores);
        let first = schedule.next_batch(2).to_vec();
        assert!(first.iter().all(|&(id, _)| {
            let (a, b) = candidates.pair(id);
            truth.is_match(a, b)
        }));
    }
}
