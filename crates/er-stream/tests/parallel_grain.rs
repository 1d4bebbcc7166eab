//! Both sides of the parallel grain.
//!
//! The blocker runs a batch's per-entity phases on the calling thread below
//! two [`MIN_ENTITIES_PER_WORKER`] grains and splits them across workers
//! from there on, so the small-batch property suites (`equivalence.rs`,
//! `mutation.rs`) only ever compare the inline path with itself.  This suite
//! replays ingest, update and remove batches of `grain − 1`, `grain`,
//! `2·grain − 1` and `2·grain + 1` entities on a generated corpus of a few
//! thousand entities — single-shard and 3-shard, threads 1/2/4 — and asserts
//! that every `DeltaBatch` channel is bit-identical across thread counts,
//! that the final compaction equals a one-shot `build_blocks` of the
//! surviving corpus, and, through `streaming_parallel_phases_total`, that
//! the split path really ran: exactly the four phases of the
//! `2·grain + 1` round (ingest gathering, remove before-image, update
//! before- and after-image) at every thread count above one, none at one.
//!
//! One test function on purpose: the phase counter is process-wide, and the
//! exact counts hold only while nothing else in this binary moves it.

use std::ops::Range;

use er_blocking::{build_blocks, TokenKeys};
use er_core::{Dataset, EntityId, EntityProfile};
use er_datasets::{generate_scalability, ScalabilityConfig};
use er_features::FeatureSet;
use er_learn::ProbabilisticClassifier;
use er_stream::{
    surviving_dataset, DeltaBatch, DeltaIndex, ShardedIndex, StreamingConfig, StreamingMetaBlocker,
    MIN_ENTITIES_PER_WORKER,
};
use rand::Rng;

const GRAIN: usize = MIN_ENTITIES_PER_WORKER;
/// Batch sizes on both sides of one and of two grains.
const SIZES: [usize; 4] = [GRAIN - 1, GRAIN, 2 * GRAIN - 1, 2 * GRAIN + 1];
/// Entities ingested before the first measured batch.
const SEEDED: usize = 1_000;
/// Phases a `2·grain + 1` round splits: ingest gathering, the remove
/// before-image, the update before- and after-image.
const SPLIT_PHASES: u64 = 4;

/// A fixed model, so the probability channels are populated.
struct FixedModel;

impl ProbabilisticClassifier for FixedModel {
    fn probability(&self, features: &[f64]) -> f64 {
        let z: f64 = features
            .iter()
            .enumerate()
            .map(|(i, &x)| (0.3 + 0.15 * i as f64) * x)
            .sum::<f64>()
            - 1.0;
        1.0 / (1.0 + (-z).exp())
    }
}

enum Op {
    Ingest(Range<usize>),
    Update(Vec<(EntityId, EntityProfile)>),
    Remove(Vec<EntityId>),
}

/// Per batch size: ingest that many new entities, re-key that many distinct
/// alive entities with another profile's text, remove that many.
fn trace(dataset: &Dataset) -> Vec<Op> {
    let mut rng = er_core::seeded_rng(0x9a17);
    let mut alive: Vec<u32> = (0..SEEDED as u32).collect();
    let mut next = SEEDED;
    let mut ops = Vec::new();
    let mut pick = |alive: &mut Vec<u32>, count: usize| {
        for k in 0..count {
            let j = rng.gen_range(k..alive.len());
            alive.swap(k, j);
        }
    };
    for size in SIZES {
        ops.push(Op::Ingest(next..next + size));
        alive.extend((next..next + size).map(|e| e as u32));
        next += size;

        pick(&mut alive, size);
        let updates = alive[..size]
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let donor = (e as usize * 7 + k * 13) % dataset.num_entities();
                (EntityId(e), dataset.profiles[donor].clone())
            })
            .collect();
        ops.push(Op::Update(updates));

        pick(&mut alive, size);
        ops.push(Op::Remove(alive.drain(..size).map(EntityId).collect()));
    }
    ops
}

/// Every channel of a batch, in a comparable form (floats as bits).
type Channels = (
    [Vec<(EntityId, EntityId)>; 3],
    [Vec<u64>; 4],
    Vec<u32>,
    Vec<EntityId>,
);

fn channels(batch: DeltaBatch) -> Channels {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    (
        [batch.pairs, batch.rescored_pairs, batch.retracted],
        [
            bits(batch.features),
            bits(batch.probabilities),
            bits(batch.rescored_features),
            bits(batch.rescored_probabilities),
        ],
        batch.touched_keys,
        batch.mutated_entities,
    )
}

fn parallel_phases() -> u64 {
    er_obs::snapshot()
        .value("streaming_parallel_phases_total")
        .unwrap_or(0)
}

/// Replays the trace on one blocker; returns every batch's channels and the
/// number of phases that were split across workers.
fn replay<I: DeltaIndex>(
    dataset: &Dataset,
    ops: &[Op],
    mut blocker: StreamingMetaBlocker<TokenKeys, I>,
    context: &str,
) -> (Vec<Channels>, u64) {
    blocker.ingest(&dataset.profiles[..SEEDED]);
    let before = parallel_phases();
    let mut emitted = Vec::new();
    let (mut removed, mut updated) = (Vec::new(), Vec::new());
    for op in ops {
        let batch = match op {
            Op::Ingest(range) => blocker.ingest(&dataset.profiles[range.clone()]),
            Op::Update(updates) => {
                updated.extend(updates.iter().cloned());
                blocker.update(updates)
            }
            Op::Remove(ids) => {
                removed.extend_from_slice(ids);
                blocker.remove(ids)
            }
        };
        emitted.push(channels(batch));
    }
    let split = parallel_phases() - before;

    let ingested = er_stream::dataset_prefix(dataset, blocker.num_entities());
    let survivors = surviving_dataset(&ingested, &removed, &updated);
    assert_eq!(
        blocker.compact().to_block_collection().blocks,
        build_blocks(&survivors, &TokenKeys, 1)
            .to_block_collection()
            .blocks,
        "{context}: compaction diverged from a batch build"
    );
    (emitted, split)
}

#[test]
fn batches_on_both_sides_of_the_grain_are_bit_identical_for_every_thread_count() {
    let total = SEEDED + SIZES.iter().sum::<usize>();
    let dataset = generate_scalability(&ScalabilityConfig::at_scale(total, 11)).unwrap();
    let ops = trace(&dataset);
    let config = |threads| StreamingConfig {
        feature_set: FeatureSet::all_schemes(),
        threads,
        ..StreamingConfig::for_dataset(&dataset)
    };

    for shards in [1usize, 3] {
        let mut reference: Option<Vec<Channels>> = None;
        for threads in [1usize, 2, 4] {
            let context = format!("{shards} shard(s), {threads} thread(s)");
            let (emitted, split) = if shards == 1 {
                let blocker = StreamingMetaBlocker::new(config(threads), TokenKeys);
                replay(
                    &dataset,
                    &ops,
                    blocker.with_model(Box::new(FixedModel)),
                    &context,
                )
            } else {
                let c = config(threads);
                let index =
                    ShardedIndex::new(c.dataset_name.clone(), c.kind, c.split, usize::MAX, shards);
                let blocker = StreamingMetaBlocker::with_index(c, TokenKeys, index).unwrap();
                replay(
                    &dataset,
                    &ops,
                    blocker.with_model(Box::new(FixedModel)),
                    &context,
                )
            };
            let expected = if threads == 1 { 0 } else { SPLIT_PHASES };
            assert_eq!(split, expected, "{context}: phases split across workers");
            assert!(
                emitted.iter().any(|(pairs, ..)| !pairs[0].is_empty()),
                "{context}: the trace emitted no additions"
            );
            match &reference {
                None => reference = Some(emitted),
                Some(reference) => {
                    for (i, (got, want)) in emitted.iter().zip(reference).enumerate() {
                        assert!(got == want, "{context}: batch {i} differs from 1 thread");
                    }
                }
            }
        }
    }
}
