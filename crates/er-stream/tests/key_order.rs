//! The cached lexicographic key order behind `view()` and `compact()`.
//!
//! Both index implementations keep the order of their keys between
//! compactions and sort only the live keys the cache does not hold yet.
//! These traces interleave ingests, removals, updates, compactions and
//! mid-epoch views (whose newly live keys are merged without touching the
//! cache), and encode → decode the index (after which the cache starts
//! empty); every view must equal a one-shot `build_blocks` over the
//! surviving corpus.  The vocabulary is chosen to stress the cached 16-byte
//! prefix comparison: keys sharing 8 and 16 bytes, keys that are strict
//! prefixes of each other, and multi-byte UTF-8 keys, one of them split by
//! the 16-byte boundary.

use er_blocking::{build_blocks, CsrBlockCollection, TokenKeys};
use er_core::{Dataset, EntityCollection, EntityId, EntityProfile, GroundTruth};
use er_features::FeatureSet;
use er_persist::{Decode, Encode, Reader, Writer};
use er_stream::{
    dataset_prefix, surviving_dataset, DeltaIndex, MutationRef, ShardedIndex, StreamingConfig,
    StreamingIndex, StreamingMetaBlocker,
};

/// Keys every entity may draw from.
const WORDS: &[&str] = &[
    // 8 shared bytes, then different.
    "abcdefgh",
    "abcdefgha",
    "abcdefghb",
    "abcdefghzz",
    // 16 shared bytes, and strict prefixes of each other.
    "p",
    "pre",
    "prefix",
    "prefixprefixpref",
    "prefixprefixprefi",
    "prefixprefixprefix",
    "prefixprefixprefixes",
    "1234567890123456",
    "12345678901234567",
    "123",
    // Multi-byte UTF-8, including a character split by the 16-byte cut.
    "cafe",
    "café",
    "cafés",
    "uber",
    "über",
    "日本",
    "日本語",
    "straße",
    "ÿes",
    "aaaaaaaaaaaaaaaa",
    "aaaaaaaaaaaaaaaé",
    "aaaaaaaaaaaaaaaaé",
];

/// Keys only late entities use, so they are interned (and come alive)
/// after the cache already holds the keys around them.
const LATE: &[&str] = &[
    "abcdefgh0",
    "abcdefghaa",
    "pr",
    "prefixprefixprefixa",
    "prefixprefixprefh",
    "1234567890123455",
    "cafè",
    "日本語版",
    "aaaaaaaaaaaaaaaá",
    "aaaaaaaaaaaaaaa",
];

/// Entities whose id is at least this draw from [`LATE`] too.
const LATE_FROM: usize = 70;

/// splitmix64, so the traces need no dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn profile(e: usize, rng: &mut u64) -> EntityProfile {
    let mut words: Vec<&str> = (0..3 + next(rng) % 3)
        .map(|_| WORDS[(next(rng) % WORDS.len() as u64) as usize])
        .collect();
    if e >= LATE_FROM {
        words.push(LATE[(next(rng) % LATE.len() as u64) as usize]);
    }
    // One key of its own: interned, never live.
    let own = format!("own{e}");
    EntityProfile::new(format!("e{e}"))
        .with_attribute("words", words.join(" "))
        .with_attribute("own", own)
}

fn corpus() -> Dataset {
    let mut rng = 0x0de7_u64;
    let profiles = (0..160).map(|e| profile(e, &mut rng)).collect();
    Dataset::dirty(
        "key-order",
        EntityCollection::new("key-order", profiles),
        GroundTruth::from_pairs([]),
    )
    .unwrap()
}

fn config(dataset: &Dataset) -> StreamingConfig {
    StreamingConfig {
        feature_set: FeatureSet::blast_optimal(),
        threads: 2,
        ..StreamingConfig::for_dataset(dataset)
    }
}

/// Round-trips a sharded index through its persisted parts.
fn reopen_sharded(index: &ShardedIndex) -> ShardedIndex {
    let shards = (0..index.num_shards())
        .map(|s| reopen_single(index.shard(s)))
        .collect();
    ShardedIndex::from_parts(shards, index.router_state()).unwrap()
}

fn reopen_single(index: &StreamingIndex) -> StreamingIndex {
    let mut w = Writer::new();
    index.encode(&mut w);
    let bytes = w.into_bytes();
    StreamingIndex::decode(&mut Reader::new(&bytes)).unwrap()
}

/// What the stream has done to the corpus so far.
#[derive(Default)]
struct Survivors {
    ingested: usize,
    alive: Vec<u32>,
    removed: Vec<EntityId>,
    updated: Vec<(EntityId, EntityProfile)>,
}

impl Survivors {
    fn assert_view(&self, dataset: &Dataset, view: &CsrBlockCollection, when: &str) {
        let corpus = surviving_dataset(
            &dataset_prefix(dataset, self.ingested),
            &self.removed,
            &self.updated,
        );
        assert!(
            view.same_blocks(&build_blocks(&corpus, &TokenKeys, 2)),
            "{when}: view differs from a batch build of the surviving corpus"
        );
    }
}

/// Runs `cycles` cycles of ingest / remove / update with a compaction or a
/// mid-epoch view after each, checking every view.
fn churn<I: DeltaIndex>(
    blocker: &mut StreamingMetaBlocker<TokenKeys, I>,
    dataset: &Dataset,
    state: &mut Survivors,
    cycles: usize,
    rng: &mut u64,
) {
    for cycle in 0..cycles {
        let take = 11.min(dataset.num_entities() - state.ingested);
        let from = state.ingested;
        blocker.apply(
            MutationRef::Ingest(&dataset.profiles[from..from + take]),
            false,
        );
        state.ingested += take;
        state.alive.extend(from as u32..(from + take) as u32);

        if cycle % 2 == 0 {
            let mut victims = Vec::new();
            for _ in 0..4.min(state.alive.len()) {
                let at = (next(rng) % state.alive.len() as u64) as usize;
                victims.push(EntityId(state.alive.swap_remove(at)));
            }
            blocker.apply(MutationRef::Remove(&victims), false);
            state.removed.extend(victims);
        }
        if cycle % 3 == 1 {
            let mut updates = Vec::new();
            for _ in 0..2 {
                let e = state.alive[(next(rng) % state.alive.len() as u64) as usize];
                if updates.iter().all(|&(u, _)| u != EntityId(e)) {
                    let donor = (next(rng) % dataset.num_entities() as u64) as usize;
                    updates.push((EntityId(e), dataset.profiles[donor].clone()));
                }
            }
            blocker.apply(MutationRef::Update(&updates), false);
            state.updated.extend(updates);
        }

        if cycle % 3 == 2 {
            let compacted = blocker.compact();
            state.assert_view(
                dataset,
                &compacted,
                &format!("compaction after cycle {cycle}"),
            );
        } else {
            let view = blocker.view();
            state.assert_view(
                dataset,
                &view,
                &format!("mid-epoch view after cycle {cycle}"),
            );
        }
    }
}

/// Churns, round-trips the index through its encoding, and churns on:
/// the decoded index's first compaction sorts every live key.
fn check<I: DeltaIndex>(index: I, reopen: impl Fn(&I) -> I) {
    let dataset = corpus();
    let mut rng = 0x0bde_u64;
    let mut state = Survivors::default();
    let mut blocker = StreamingMetaBlocker::with_index(config(&dataset), TokenKeys, index).unwrap();
    churn(&mut blocker, &dataset, &mut state, 8, &mut rng);

    let reopened = reopen(blocker.index());
    let mut blocker =
        StreamingMetaBlocker::from_recovered(reopened, TokenKeys, FeatureSet::blast_optimal(), 2)
            .unwrap();
    state.assert_view(&dataset, &blocker.view(), "view straight after decode");
    churn(&mut blocker, &dataset, &mut state, 9, &mut rng);
    assert_eq!(
        state.ingested,
        dataset.num_entities(),
        "the trace ingests the corpus"
    );
}

#[test]
fn single_shard_views_follow_the_cached_order() {
    let dataset = corpus();
    let c = config(&dataset);
    check(
        StreamingIndex::new(c.dataset_name, c.kind, c.split, usize::MAX),
        reopen_single,
    );
}

#[test]
fn sharded_views_follow_the_cached_order() {
    let dataset = corpus();
    let c = config(&dataset);
    for shards in [1, 3] {
        check(
            ShardedIndex::new(c.dataset_name.clone(), c.kind, c.split, usize::MAX, shards),
            reopen_sharded,
        );
    }
}
