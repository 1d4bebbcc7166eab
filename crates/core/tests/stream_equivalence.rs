//! Property suite for the memory-bounded candidate stream: at every thread
//! count and chunk size — including chunks that split one entity's partner
//! run — the streamed path must reproduce the materialised batch path
//! **bit-identically**: same pairs in the same order, same per-entity LCP
//! counts, same feature values, same probabilities.

use er_blocking::{
    standard_blocking_workflow_csr, BlockStats, CandidatePairs, CandidateStream, ChunkArena,
    CsrBlockCollection, DEFAULT_CHUNK_PAIRS,
};
use er_core::{DatasetKind, EntityId, PairId};
use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use er_features::{
    FeatureContext, FeatureMatrix, FeatureSet, ScoreboardConfig, StreamFeatureContext,
};
use meta_blocking::{AlgorithmKind, MetaBlockingConfig, MetaBlockingPipeline};

const THREADS: [usize; 3] = [1, 2, 4];
const CHUNKS: [usize; 3] = [1, 64, usize::MAX / 2];

fn feature_sets() -> [FeatureSet; 3] {
    [
        FeatureSet::original(),
        FeatureSet::blast_optimal(),
        FeatureSet::all_schemes(),
    ]
}

/// A Clean-Clean fixture produced by the real blocking workflow on a
/// generated catalog corpus — realistic block-size skew.
fn clean_clean_stats() -> BlockStats {
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    standard_blocking_workflow_csr(&dataset, 2).1
}

/// A hand-built Dirty fixture with overlapping blocks and one high-degree
/// entity, so chunk boundaries are guaranteed to split partner runs.
fn dirty_stats() -> BlockStats {
    let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
    let bc = CsrBlockCollection::from_blocks(
        "dirty-fixture",
        DatasetKind::Dirty,
        8,
        8,
        [
            ("a", ids(&[0, 1, 2, 5])),
            ("b", ids(&[0, 2, 3, 4, 6])),
            ("c", ids(&[1, 3, 5, 7])),
            ("d", ids(&[0, 1, 2, 3, 4, 5, 6, 7])),
            ("e", ids(&[4, 6])),
        ],
    );
    BlockStats::from_csr(&bc)
}

fn fixtures() -> [BlockStats; 2] {
    [clean_clean_stats(), dirty_stats()]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A deterministic stand-in for a trained model: a fixed weighted fold of
/// the feature vector.  Any f64 divergence between paths shows up here.
fn pseudo_probability(row: &[f64]) -> f64 {
    let mut acc = 0.37;
    for (i, &v) in row.iter().enumerate() {
        acc += v * (0.11 + 0.07 * i as f64);
    }
    (acc.sin() * 0.5 + 0.5).clamp(0.0, 1.0)
}

#[test]
fn chunked_extraction_reproduces_the_materialised_pairs_and_lcp() {
    for stats in fixtures() {
        let cands = CandidatePairs::from_stats(&stats, 2);
        for threads in THREADS {
            let stream = CandidateStream::from_stats(&stats, threads);
            assert_eq!(stream.total_pairs(), cands.len() as u64);
            assert_eq!(stream.lcp_table(), cands.entity_candidate_counts());
            for chunk_pairs in CHUNKS {
                let chunks = stream.chunks(chunk_pairs);
                let mut arena = ChunkArena::new();
                let mut collected = Vec::new();
                for chunk in &chunks {
                    stream.extract_chunk(*chunk, &mut arena);
                    collected.extend_from_slice(arena.pairs());
                }
                assert_eq!(
                    collected,
                    cands.pairs(),
                    "threads={threads} chunk={chunk_pairs}"
                );
            }
            // With single-pair chunks, every multi-partner run is split
            // across chunk boundaries — assert the fixture exercises that.
            assert!(
                stream.lcp_table().iter().any(|&c| c >= 2),
                "fixture must contain an entity whose run spans chunks"
            );
        }
    }
}

#[test]
fn streamed_feature_columns_are_bit_identical_to_the_matrix() {
    let scoreboard = ScoreboardConfig::default();
    for stats in fixtures() {
        let cands = CandidatePairs::from_stats(&stats, 2);
        let context = FeatureContext::new(&stats, &cands);
        for set in feature_sets() {
            let matrix = FeatureMatrix::build_parallel(&context, set);
            for threads in THREADS {
                let stream = CandidateStream::from_stats(&stats, threads);
                let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
                for chunk_pairs in CHUNKS {
                    // Reconstruct every feature column through the streamed
                    // pass by projecting one coordinate at a time.
                    for k in 0..set.vector_len() {
                        let column = FeatureMatrix::score_stream_with(
                            &stream_context,
                            &stream,
                            set,
                            threads,
                            &scoreboard,
                            chunk_pairs,
                            |row| row[k],
                        );
                        let expected: Vec<f64> = (0..matrix.num_pairs())
                            .map(|i| matrix.row(PairId::from(i))[k])
                            .collect();
                        assert_eq!(
                            bits(&column),
                            bits(&expected),
                            "set={set} threads={threads} chunk={chunk_pairs} feature={k}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn streamed_probabilities_are_bit_identical_to_batch_scoring() {
    let scoreboard = ScoreboardConfig::default();
    for stats in fixtures() {
        let cands = CandidatePairs::from_stats(&stats, 2);
        let context = FeatureContext::new(&stats, &cands);
        for set in feature_sets() {
            let batch =
                FeatureMatrix::score_rows_with(&context, set, 2, &scoreboard, pseudo_probability);
            for threads in THREADS {
                let stream = CandidateStream::from_stats(&stats, threads);
                let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
                for chunk_pairs in CHUNKS {
                    let streamed = FeatureMatrix::score_stream_with(
                        &stream_context,
                        &stream,
                        set,
                        threads,
                        &scoreboard,
                        chunk_pairs,
                        pseudo_probability,
                    );
                    assert_eq!(
                        bits(&streamed),
                        bits(&batch),
                        "set={set} threads={threads} chunk={chunk_pairs}"
                    );

                    // The chunk-walk consumer sees the same pairs and the
                    // same probabilities, in materialised order.
                    let mut walked_pairs = Vec::new();
                    let mut walked_probs = Vec::new();
                    er_features::for_each_scored_chunk(
                        &stream_context,
                        &stream,
                        set,
                        threads,
                        &scoreboard,
                        chunk_pairs,
                        pseudo_probability,
                        |pairs, probs| {
                            walked_pairs.extend_from_slice(pairs);
                            walked_probs.extend_from_slice(probs);
                        },
                    );
                    assert_eq!(walked_pairs, cands.pairs());
                    assert_eq!(bits(&walked_probs), bits(&batch));
                }
            }
        }
    }
}

#[test]
fn pipeline_outcome_is_invariant_under_streamed_scoring() {
    let dataset = generate_catalog_dataset(DatasetName::DblpAcm, &CatalogOptions::tiny()).unwrap();
    let baseline_config = MetaBlockingConfig {
        threads: Some(2),
        ..Default::default()
    };
    let baseline = MetaBlockingPipeline::new(baseline_config)
        .run(&dataset, AlgorithmKind::Blast)
        .unwrap();
    for chunk_pairs in [1usize, 64, DEFAULT_CHUNK_PAIRS] {
        for threads in [1usize, 4] {
            let config = MetaBlockingConfig {
                threads: Some(threads),
                candidate_chunk_pairs: Some(chunk_pairs),
                ..Default::default()
            };
            let streamed = MetaBlockingPipeline::new(config)
                .run(&dataset, AlgorithmKind::Blast)
                .unwrap();
            assert_eq!(
                bits(streamed.probabilities.as_slice()),
                bits(baseline.probabilities.as_slice()),
                "threads={threads} chunk={chunk_pairs}"
            );
            assert_eq!(streamed.retained, baseline.retained);
        }
    }
}
