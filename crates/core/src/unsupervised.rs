//! Unsupervised meta-blocking baselines.
//!
//! Classic meta-blocking weighs every edge of the blocking graph with a single
//! weighting scheme and prunes with WEP/WNP/CEP/CNP over those raw weights
//! (no classifier, no 0.5 validity threshold).  These baselines are not part
//! of the paper's evaluation tables but are the reference point its
//! introduction argues against, so they are provided for completeness and for
//! the ablation benchmarks.

use std::collections::BinaryHeap;

use er_blocking::CandidatePairs;
use er_core::PairId;
use er_features::{FeatureContext, Scheme};

use crate::pruning::cep::HeapEntry;

/// The unsupervised pruning strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsupervisedAlgorithm {
    /// Keep edges above the global average weight.
    Wep,
    /// Keep edges above the average weight of either endpoint.
    Wnp,
    /// Keep the K top-weighted edges.
    Cep {
        /// Number of retained edges.
        k: usize,
    },
    /// Keep each entity's k top-weighted edges.
    Cnp {
        /// Per-entity number of retained edges.
        k: usize,
    },
}

/// Computes the raw edge weights of every candidate pair under one weighting
/// scheme.
pub fn edge_weights(context: &FeatureContext<'_>, scheme: Scheme) -> Vec<f64> {
    context
        .candidates()
        .iter()
        .map(|(_, a, b)| context.score(scheme, a, b))
        .collect()
}

/// Runs an unsupervised pruning algorithm over raw edge weights.
///
/// # Panics
/// Panics if `weights.len()` differs from the number of candidate pairs.
pub fn prune_unsupervised(
    candidates: &CandidatePairs,
    weights: &[f64],
    algorithm: UnsupervisedAlgorithm,
) -> Vec<PairId> {
    assert_eq!(
        weights.len(),
        candidates.len(),
        "one weight per candidate pair is required"
    );
    match algorithm {
        UnsupervisedAlgorithm::Wep => {
            if weights.is_empty() {
                return Vec::new();
            }
            let mean = weights.iter().sum::<f64>() / weights.len() as f64;
            candidates
                .iter()
                .filter(|&(id, _, _)| weights[id.index()] >= mean)
                .map(|(id, _, _)| id)
                .collect()
        }
        UnsupervisedAlgorithm::Wnp => {
            let n = candidates.num_entities();
            let mut sums = vec![0.0f64; n];
            let mut counts = vec![0u32; n];
            for (id, a, b) in candidates.iter() {
                let w = weights[id.index()];
                sums[a.index()] += w;
                counts[a.index()] += 1;
                sums[b.index()] += w;
                counts[b.index()] += 1;
            }
            let averages: Vec<f64> = sums
                .iter()
                .zip(&counts)
                .map(|(&s, &c)| {
                    if c > 0 {
                        s / f64::from(c)
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            candidates
                .iter()
                .filter(|&(id, a, b)| {
                    let w = weights[id.index()];
                    w >= averages[a.index()] || w >= averages[b.index()]
                })
                .map(|(id, _, _)| id)
                .collect()
        }
        UnsupervisedAlgorithm::Cep { k } => {
            let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
            for (id, _, _) in candidates.iter() {
                heap.push(HeapEntry {
                    probability: weights[id.index()],
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
        UnsupervisedAlgorithm::Cnp { k } => {
            let mut queues: Vec<BinaryHeap<HeapEntry>> =
                vec![BinaryHeap::with_capacity(k + 1); candidates.num_entities()];
            for (id, a, b) in candidates.iter() {
                let w = weights[id.index()];
                for endpoint in [a, b] {
                    let queue = &mut queues[endpoint.index()];
                    queue.push(HeapEntry {
                        probability: w,
                        pair: id,
                    });
                    if queue.len() > k {
                        queue.pop();
                    }
                }
            }
            let mut keep = vec![false; candidates.len()];
            for queue in queues {
                for entry in queue {
                    keep[entry.pair.index()] = true;
                }
            }
            candidates
                .iter()
                .filter(|&(id, _, _)| keep[id.index()])
                .map(|(id, _, _)| id)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::{BlockStats, CsrBlockCollection};
    use er_core::{DatasetKind, EntityId};

    fn fixture() -> CsrBlockCollection {
        let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
        CsrBlockCollection::from_blocks(
            "t",
            DatasetKind::CleanClean,
            3,
            6,
            [
                ("a", ids(&[0, 3])),
                ("b", ids(&[0, 1, 3, 4])),
                ("c", ids(&[1, 4])),
                ("d", ids(&[2, 5])),
                ("e", ids(&[0, 1, 2, 3, 4, 5])),
            ],
        )
    }

    #[test]
    fn edge_weights_cover_all_pairs() {
        let bc = fixture();
        let stats = BlockStats::from_csr(&bc);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &candidates);
        let weights = edge_weights(&ctx, Scheme::Js);
        assert_eq!(weights.len(), candidates.len());
        assert!(weights.iter().all(|w| *w >= 0.0));
    }

    #[test]
    fn wep_keeps_above_average_edges() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let weights: Vec<f64> = (0..candidates.len()).map(|i| i as f64).collect();
        let kept = prune_unsupervised(&candidates, &weights, UnsupervisedAlgorithm::Wep);
        assert!(kept.len() < candidates.len());
        assert!(!kept.is_empty());
    }

    #[test]
    fn cep_bounds_the_output() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let weights: Vec<f64> = (0..candidates.len()).map(|i| i as f64 * 0.1).collect();
        let kept = prune_unsupervised(&candidates, &weights, UnsupervisedAlgorithm::Cep { k: 3 });
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn cnp_respects_per_entity_budget() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let weights: Vec<f64> = (0..candidates.len()).map(|i| 1.0 + i as f64).collect();
        let kept = prune_unsupervised(&candidates, &weights, UnsupervisedAlgorithm::Cnp { k: 1 });
        // Each retained pair must be the top pair of at least one endpoint.
        assert!(!kept.is_empty());
        assert!(kept.len() <= candidates.len());
    }

    #[test]
    fn wnp_is_less_aggressive_than_wep_on_skewed_graphs() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let weights: Vec<f64> = (0..candidates.len())
            .map(|i| if i % 4 == 0 { 10.0 } else { 1.0 })
            .collect();
        let wep = prune_unsupervised(&candidates, &weights, UnsupervisedAlgorithm::Wep);
        let wnp = prune_unsupervised(&candidates, &weights, UnsupervisedAlgorithm::Wnp);
        assert!(wnp.len() >= wep.len());
    }

    #[test]
    #[should_panic(expected = "one weight per candidate pair")]
    fn mismatched_weights_panic() {
        let bc = fixture();
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&bc), 1);
        let _ = prune_unsupervised(&candidates, &[1.0], UnsupervisedAlgorithm::Wep);
    }
}
