//! Test-only reference: each pruning algorithm as a scan of the whole
//! candidate list, reading the probability slice for every pair on every
//! pass and keeping one heap per entity for the top-`k` lists.  These are
//! the bodies the algorithms had before they decided on [`ValidPairs`]; the
//! one change is that every pass skips a pair with the shared validity test,
//! where CEP, CNP and RCNP used to skip only `p < 0.5` and so kept NaN.
//! The oracle test below requires the list-based algorithms to retain
//! exactly the same ids.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use er_blocking::CandidatePairs;
use er_core::PairId;

use crate::scoring::is_valid_probability;

/// The algorithms' parameters, in the form the reference takes them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reference {
    Bcl,
    Wep,
    Wnp,
    Rwnp,
    Blast(f64),
    Cep(usize),
    Cnp(usize),
    Rcnp(usize),
}

impl Reference {
    pub(crate) fn prune(self, candidates: &CandidatePairs, probabilities: &[f64]) -> Vec<PairId> {
        let probability = |id: PairId| probabilities[id.index()];
        let valid = |id: PairId| is_valid_probability(probability(id));
        let keep = |retain: &dyn Fn(PairId, usize, usize) -> bool| -> Vec<PairId> {
            candidates
                .iter()
                .filter(|&(id, a, b)| retain(id, a.index(), b.index()))
                .map(|(id, _, _)| id)
                .collect()
        };
        match self {
            Reference::Bcl => keep(&|id, _, _| valid(id)),
            Reference::Wep => {
                let mut sum = 0.0f64;
                let mut count = 0u64;
                for (id, _, _) in candidates.iter() {
                    let p = probability(id);
                    if is_valid_probability(p) {
                        sum += p;
                        count += 1;
                    }
                }
                if count == 0 {
                    return Vec::new();
                }
                let mean = sum / count as f64;
                keep(&|id, _, _| probability(id) >= mean)
            }
            Reference::Wnp | Reference::Rwnp => {
                let averages = per_entity_average_probabilities(candidates, probabilities);
                let reciprocal = matches!(self, Reference::Rwnp);
                keep(&|id, a, b| {
                    let p = probability(id);
                    if !is_valid_probability(p) {
                        return false;
                    }
                    let above_a = averages[a].is_some_and(|avg| avg <= p);
                    let above_b = averages[b].is_some_and(|avg| avg <= p);
                    if reciprocal {
                        above_a && above_b
                    } else {
                        above_a || above_b
                    }
                })
            }
            Reference::Blast(ratio) => {
                let mut max = vec![0.0f64; candidates.num_entities()];
                for (id, a, b) in candidates.iter() {
                    let p = probability(id);
                    if is_valid_probability(p) {
                        for endpoint in [a.index(), b.index()] {
                            if max[endpoint] < p {
                                max[endpoint] = p;
                            }
                        }
                    }
                }
                keep(&|id, a, b| {
                    let p = probability(id);
                    is_valid_probability(p) && ratio * (max[a] + max[b]) <= p
                })
            }
            Reference::Cep(k) => {
                let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
                for (id, _, _) in candidates.iter() {
                    let p = probability(id);
                    if !is_valid_probability(p) {
                        continue;
                    }
                    heap.push(HeapEntry {
                        probability: p,
                        pair: id,
                    });
                    if heap.len() > k {
                        heap.pop();
                    }
                }
                let mut retained: Vec<PairId> = heap.into_iter().map(|e| e.pair).collect();
                retained.sort_unstable();
                retained
            }
            Reference::Cnp(k) => {
                let membership = per_entity_topk_membership(candidates, probabilities, k);
                keep(&|id, _, _| membership[id.index()] >= 1)
            }
            Reference::Rcnp(k) => {
                let membership = per_entity_topk_membership(candidates, probabilities, k);
                keep(&|id, _, _| membership[id.index()] == 2)
            }
        }
    }
}

/// A pair with its probability, ordered so that the *lowest* probability
/// (then the highest pair id) sits at the top of a max-heap, which makes
/// the heap a bounded "keep the best K" structure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    probability: f64,
    pair: PairId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .probability
            .partial_cmp(&self.probability)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.pair.cmp(&self.pair).reverse())
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn per_entity_average_probabilities(
    candidates: &CandidatePairs,
    probabilities: &[f64],
) -> Vec<Option<f64>> {
    let n = candidates.num_entities();
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0u32; n];
    for (id, a, b) in candidates.iter() {
        let p = probabilities[id.index()];
        if is_valid_probability(p) {
            sums[a.index()] += p;
            counts[a.index()] += 1;
            sums[b.index()] += p;
            counts[b.index()] += 1;
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(sum, count)| (count > 0).then(|| sum / f64::from(count)))
        .collect()
}

/// For every pair, in how many of its endpoints' top-`k` heaps it ends up.
fn per_entity_topk_membership(
    candidates: &CandidatePairs,
    probabilities: &[f64],
    k: usize,
) -> Vec<u8> {
    let mut queues: Vec<BinaryHeap<HeapEntry>> =
        vec![BinaryHeap::with_capacity(k + 1); candidates.num_entities()];
    for (id, a, b) in candidates.iter() {
        let p = probabilities[id.index()];
        if !is_valid_probability(p) {
            continue;
        }
        for endpoint in [a, b] {
            let queue = &mut queues[endpoint.index()];
            queue.push(HeapEntry {
                probability: p,
                pair: id,
            });
            if queue.len() > k {
                queue.pop();
            }
        }
    }
    let mut membership = vec![0u8; candidates.len()];
    for queue in queues {
        for entry in queue {
            membership[entry.pair.index()] += 1;
        }
    }
    membership
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::{Bcl, Blast, Cep, Cnp, PruningAlgorithm, Rcnp, Rwnp, Wep, Wnp};
    use crate::scoring::CachedScores;
    use er_core::EntityId;
    use rand::Rng;

    /// Probabilities drawn from a short palette, so pairs tie often — also
    /// at the `k`-th rank of an entity and at CEP's `K`-th — with a share
    /// of invalid values and of distinct continuous ones.
    fn probability(rng: &mut impl Rng) -> f64 {
        const PALETTE: [f64; 9] = [0.1, 0.3, 0.49, 0.5, 0.5, 0.6, 0.75, 0.9, 1.0];
        if rng.gen_bool(0.2) {
            rng.gen::<f64>()
        } else {
            PALETTE[rng.gen_range(0..PALETTE.len())]
        }
    }

    /// A random scored candidate set over `num_entities` entities: Dirty
    /// (any two entities) or Clean-Clean (one from each side of `split`).
    /// Entities past the last paired one have no pairs at all, and every
    /// probability is scaled by `scale` (0 makes every pair invalid).
    fn random_scored(
        seed: u64,
        num_entities: u32,
        clean_clean: bool,
        num_pairs: usize,
        scale: f64,
    ) -> (CandidatePairs, CachedScores) {
        let mut rng = er_core::seeded_rng(seed);
        let split = num_entities / 3;
        let paired = num_entities - 3;
        let pairs: Vec<(EntityId, EntityId)> = (0..num_pairs)
            .map(|_| {
                if clean_clean {
                    (rng.gen_range(0..split), rng.gen_range(split..paired))
                } else {
                    (rng.gen_range(0..paired), rng.gen_range(0..paired))
                }
            })
            .map(|(a, b)| (EntityId(a), EntityId(b)))
            .collect();
        let candidates = CandidatePairs::from_pairs(num_entities as usize, pairs);
        let probabilities = (0..candidates.len())
            .map(|_| probability(&mut rng) * scale)
            .collect();
        (candidates, CachedScores::new(probabilities))
    }

    fn algorithms(
        k: usize,
        global_k: usize,
        ratio: f64,
    ) -> Vec<(Box<dyn PruningAlgorithm>, Reference)> {
        vec![
            (Box::new(Bcl), Reference::Bcl),
            (Box::new(Wep), Reference::Wep),
            (Box::new(Wnp), Reference::Wnp),
            (Box::new(Rwnp), Reference::Rwnp),
            (Box::new(Blast::new(ratio)), Reference::Blast(ratio)),
            (Box::new(Cep::new(global_k)), Reference::Cep(global_k)),
            (Box::new(Cnp::new(k)), Reference::Cnp(k)),
            (Box::new(Rcnp::new(k)), Reference::Rcnp(k)),
        ]
    }

    #[test]
    fn every_algorithm_retains_exactly_the_reference_ids() {
        let mut checked = 0usize;
        for seed in 0..24u64 {
            for clean_clean in [false, true] {
                // Sparse and dense sets, and one where every pair is invalid.
                for (num_pairs, scale) in [(40usize, 1.0), (400, 1.0), (400, 0.0)] {
                    let (candidates, scores) =
                        random_scored(seed, 30, clean_clean, num_pairs, scale);
                    let max_degree = candidates.entity_candidate_counts().iter().max().copied();
                    let beyond_every_degree = max_degree.unwrap_or(0) as usize + 1;
                    for (k, global_k) in [(1, 1), (2, 7), (3, 50), (beyond_every_degree, 100_000)] {
                        for ratio in [0.35, 0.5, 1.0] {
                            for (algorithm, reference) in algorithms(k, global_k, ratio) {
                                let context = format!(
                                    "{} seed {seed} clean-clean {clean_clean} pairs {num_pairs} \
                                     scale {scale} k {k} K {global_k} r {ratio}",
                                    algorithm.name()
                                );
                                let expected = reference.prune(&candidates, scores.as_slice());
                                assert_eq!(
                                    algorithm.prune(&candidates, &scores),
                                    expected,
                                    "{context}"
                                );
                                if scale == 0.0 {
                                    assert!(expected.is_empty(), "{context}");
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 1000);
    }
}
