//! Property-based tests over the core data structures and invariants.
//!
//! The properties are driven by a deterministic seeded generator (the
//! workspace has no network access, so `proptest` is unavailable): every test
//! runs `CASES` randomized collections derived from a fixed seed, printing
//! the failing case seed on assertion failure.

use gsmb::blocking::reference::{self, naive_candidate_pairs, NaiveBlockStats};
use gsmb::blocking::{
    block_filtering_csr, block_purging_csr, build_blocks, filtering_keep_count,
    qgrams_blocking_csr, standard_blocking_workflow_csr, suffix_array_blocking_csr,
    token_blocking_csr, BlockStats, CandidatePairs, CandidateStream, CsrBlockCollection,
    KeyGenerator, QGramKeys, SuffixArrayConfig, SuffixKeys, TokenKeys,
};
use gsmb::core::{
    seeded_rng, Dataset, DatasetKind, EntityCollection, EntityId, EntityProfile, GroundTruth,
};
use gsmb::eval::Effectiveness;
use gsmb::features::reference::NaiveFeatureContext;
use gsmb::features::{
    candidate_home_slot, FeatureContext, FeatureMatrix, FeatureSet, Scheme, ScoreboardConfig,
    StreamFeatureContext,
};
use gsmb::learn::{
    Classifier, LogisticRegression, LogisticRegressionConfig, PlattScaler, ProbabilisticClassifier,
    Standardizer, TrainingSet,
};
use gsmb::meta::pruning::{AlgorithmKind, CardinalityThresholds};
use gsmb::meta::scoring::CachedScores;
use rand::rngs::StdRng;
use rand::Rng;

/// Randomized cases per property.
const CASES: u64 = 64;

/// A random redundancy-positive block collection over a small entity space.
fn random_collection(rng: &mut StdRng, kind: DatasetKind) -> CsrBlockCollection {
    random_collection_sized(rng, kind, 2..=6)
}

/// [`random_collection`] with each block drawing `sizes` members (fewer
/// after deduplication).
fn random_collection_sized(
    rng: &mut StdRng,
    kind: DatasetKind,
    sizes: std::ops::RangeInclusive<usize>,
) -> CsrBlockCollection {
    let (split, total) = match kind {
        DatasetKind::CleanClean => {
            let n1 = rng.gen_range(3usize..=12);
            let n2 = rng.gen_range(3usize..=12);
            (n1, n1 + n2)
        }
        DatasetKind::Dirty => {
            let n = rng.gen_range(4usize..=20);
            (n, n)
        }
    };
    let num_blocks = rng.gen_range(3usize..=20);
    let blocks: Vec<(String, Vec<EntityId>)> = (0..num_blocks)
        .map(|i| {
            let size = rng.gen_range(sizes.clone());
            let members: Vec<EntityId> = (0..size)
                .map(|_| EntityId(rng.gen_range(0..total as u32)))
                .collect();
            (format!("k{i}"), members)
        })
        .collect();
    let all = CsrBlockCollection::from_blocks("prop", kind, split, total, blocks);
    all.retain(|b| all.is_useful(b))
}

/// Runs `check` over `CASES` seeded Clean-Clean collections.
fn for_random_clean_collections(test_seed: u64, mut check: impl FnMut(&CsrBlockCollection, u64)) {
    for case in 0..CASES {
        let seed = gsmb::core::rng::derive_seed(test_seed, case);
        let mut rng = seeded_rng(seed);
        let collection = random_collection(&mut rng, DatasetKind::CleanClean);
        check(&collection, seed);
    }
}

/// Runs `check` over `CASES` seeded collections alternating Clean-Clean and
/// Dirty ER.
fn for_random_collections_both_kinds(
    test_seed: u64,
    mut check: impl FnMut(&CsrBlockCollection, u64),
) {
    for case in 0..CASES {
        let seed = gsmb::core::rng::derive_seed(test_seed, case);
        let mut rng = seeded_rng(seed);
        let kind = if case % 2 == 0 {
            DatasetKind::CleanClean
        } else {
            DatasetKind::Dirty
        };
        let collection = random_collection(&mut rng, kind);
        check(&collection, seed);
    }
}

/// Vocabulary for random entity profiles: short and long tokens, digits,
/// shared stems (for q-gram/suffix overlap) and non-ASCII characters.
const VOCAB: &[&str] = &[
    "apple",
    "samsung",
    "galaxy",
    "iphone",
    "iphnoe",
    "smartphone",
    "smartphones",
    "foldable",
    "mate",
    "ultimate",
    "20",
    "2048",
    "s20",
    "café",
    "cafeteria",
    "naïveté",
    "x",
    "pro",
];

/// A random entity profile with 1–3 attributes of 1–4 vocabulary tokens,
/// joined by assorted separators to exercise the tokenizer.
fn random_profile(rng: &mut StdRng, id: usize) -> EntityProfile {
    let mut profile = EntityProfile::new(format!("p{id}"));
    for a in 0..rng.gen_range(1usize..=3) {
        let mut value = String::new();
        for t in 0..rng.gen_range(1usize..=4) {
            if t > 0 {
                value.push_str([" ", "-", ", ", " / "][rng.gen_range(0usize..4)]);
            }
            value.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        }
        profile.push_attribute(format!("a{a}"), value);
    }
    profile
}

/// A random Clean-Clean or Dirty dataset over the shared vocabulary.
fn random_dataset(rng: &mut StdRng, kind: DatasetKind) -> Dataset {
    match kind {
        DatasetKind::CleanClean => {
            let n1 = rng.gen_range(3usize..=10);
            let n2 = rng.gen_range(3usize..=10);
            let e1 = EntityCollection::new("a", (0..n1).map(|i| random_profile(rng, i)).collect());
            let e2 =
                EntityCollection::new("b", (0..n2).map(|i| random_profile(rng, n1 + i)).collect());
            Dataset::clean_clean("prop-cc", e1, e2, GroundTruth::default()).unwrap()
        }
        DatasetKind::Dirty => {
            let n = rng.gen_range(4usize..=16);
            let coll = EntityCollection::new("d", (0..n).map(|i| random_profile(rng, i)).collect());
            Dataset::dirty("prop-dirty", coll, GroundTruth::default()).unwrap()
        }
    }
}

/// Runs `check` over `CASES` seeded random datasets alternating Clean-Clean
/// and Dirty ER.
fn for_random_datasets(test_seed: u64, mut check: impl FnMut(&Dataset, u64)) {
    for case in 0..CASES {
        let seed = gsmb::core::rng::derive_seed(test_seed, case);
        let mut rng = seeded_rng(seed);
        let kind = if case % 2 == 0 {
            DatasetKind::CleanClean
        } else {
            DatasetKind::Dirty
        };
        let dataset = random_dataset(&mut rng, kind);
        check(&dataset, seed);
    }
}

/// The parallel block-building engine produces bit-identical output to the
/// retained sequential builders, for all three schemes, on Clean-Clean and
/// Dirty collections alike, at every thread count.
#[test]
fn parallel_blocking_matches_sequential_reference() {
    let suffix_config = SuffixArrayConfig {
        min_length: 3,
        max_block_size: 8,
    };
    for_random_datasets(0x5020, |dataset, seed| {
        let token_ref = reference::token_blocking(dataset);
        let qgram_ref = reference::qgrams_blocking(dataset, 3);
        let suffix_ref = reference::suffix_array_blocking(dataset, suffix_config);
        for threads in [1, 2, 4, 8] {
            let token = token_blocking_csr(dataset, threads);
            assert!(
                token.same_blocks(&token_ref),
                "seed {seed} threads {threads}"
            );
            let qgram = qgrams_blocking_csr(dataset, 3, threads);
            assert!(
                qgram.same_blocks(&qgram_ref),
                "seed {seed} threads {threads}"
            );
            let suffix = suffix_array_blocking_csr(dataset, suffix_config, threads);
            assert!(
                suffix.same_blocks(&suffix_ref),
                "seed {seed} threads {threads}"
            );
        }
    });
}

/// Tokens chosen to stress the builder's hashing, interning and prefix-cached
/// key sort rather than to look like data: keys longer than 255 bytes that
/// agree on their first 280, keys sharing 8+ byte prefixes, keys that are
/// strict prefixes of one another on both sides of the 8-byte boundary, and
/// non-ASCII or mixed-case spellings that fold onto the same key.
fn adversarial_vocab() -> Vec<String> {
    let long = "longkey".repeat(40);
    let mut vocab = vec![format!("{long}a"), format!("{long}b"), long];
    vocab.extend(
        [
            "sharedprefix1",
            "sharedprefix2",
            "sharedprefixes",
            "abcd",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "CAFÉ",
            "café",
            "Straße",
            "STRASSE",
            "ΣΟΦΟΣ",
            "σοφος",
            "naïveté",
            "İstanbul",
            "apple",
            "Apple",
            "APPLE",
            "x",
            "42",
        ]
        .map(String::from),
    );
    vocab
}

/// A dataset assembled without `Dataset::dirty`/`clean_clean`, which reject
/// the empty corpus the builder must also survive.
fn raw_dataset(kind: DatasetKind, profiles: Vec<EntityProfile>, split: usize) -> Dataset {
    Dataset {
        name: "adversarial".into(),
        kind,
        split: match kind {
            DatasetKind::CleanClean => split,
            DatasetKind::Dirty => profiles.len(),
        },
        profiles,
        ground_truth: GroundTruth::default(),
    }
}

/// 0–3 attributes of 0–5 adversarial tokens; now and then a token is
/// repeated inside its attribute and again in a further attribute.  Some
/// profiles come out empty or punctuation-only.
fn adversarial_profile(rng: &mut StdRng, vocab: &[String], id: usize) -> EntityProfile {
    let mut profile = EntityProfile::new(format!("p{id}"));
    for a in 0..rng.gen_range(0usize..=3) {
        let mut value = String::from(["", "--", " "][rng.gen_range(0usize..3)]);
        for _ in 0..rng.gen_range(0usize..=5) {
            let token = &vocab[rng.gen_range(0..vocab.len())];
            value.push_str(token);
            value.push_str([" ", "-", ", ", " / "][rng.gen_range(0usize..4)]);
            if rng.gen_range(0u32..4) == 0 {
                value.push_str(token);
                value.push(' ');
                profile.push_attribute(format!("again{a}"), token.clone());
            }
        }
        profile.push_attribute(format!("a{a}"), value);
    }
    profile
}

/// Hand-placed boundary cases over eight entities, E1 = 0..3: `capfour`
/// fills a block exactly to a size cap of 4 and `capfive` overshoots it by
/// one; `boundary` joins the last E1 entity with the first E2 one; `alpha`
/// lives in E1 only, `beta` in E2 only, `edge` in a single entity.
fn boundary_profiles() -> Vec<EntityProfile> {
    [
        "alpha edge",
        "alpha",
        "boundary capfour capfive",
        "boundary capfour capfive",
        "beta capfour capfive",
        "beta capfour capfive",
        "capfive",
        "beta",
    ]
    .iter()
    .enumerate()
    .map(|(i, value)| EntityProfile::new(format!("b{i}")).with_attribute("v", *value))
    .collect()
}

/// Asserts `build_blocks` equals `expected` at 1, 2, 3 and 8 threads — and
/// hence across thread counts — including the CSR-only fields.
fn assert_builds_match(
    dataset: &Dataset,
    generator: &dyn KeyGenerator,
    expected: &CsrBlockCollection,
    context: &str,
) -> CsrBlockCollection {
    let mut last = None;
    for threads in [1, 2, 3, 8] {
        let csr = build_blocks(dataset, generator, threads);
        assert!(csr.same_blocks(expected), "{context} threads {threads}");
        assert_eq!(csr.num_entities, dataset.num_entities(), "{context}");
        for b in 0..csr.num_blocks() {
            let first = csr
                .entities(b)
                .iter()
                .filter(|e| e.index() < dataset.split)
                .count();
            assert_eq!(csr.first_source_count(b), first, "{context} block {b}");
            assert_eq!(csr.key_id(b) as usize, b, "{context} block {b}");
        }
        last = Some(csr);
    }
    last.expect("at least one thread count")
}

/// `build_blocks` is bit-identical to the sequential reference builders for
/// all three schemes, both ER kinds and every thread count on adversarial
/// corpora: empty and single-entity datasets, empty profiles, repeated
/// tokens, very long keys, shared prefixes, case folding, and blocks sitting
/// exactly on the size cap and on the Clean-Clean split.
#[test]
fn block_building_matches_reference_on_adversarial_keys() {
    let vocab = adversarial_vocab();
    let suffix_config = SuffixArrayConfig {
        min_length: 3,
        max_block_size: 4,
    };
    let suffix_keys = SuffixKeys::new(suffix_config.min_length, suffix_config.max_block_size);
    let check = |dataset: &Dataset, context: &str| {
        let token = assert_builds_match(
            dataset,
            &TokenKeys,
            &reference::token_blocking(dataset),
            &format!("{context} token"),
        );
        assert_builds_match(
            dataset,
            &QGramKeys::new(3),
            &reference::qgrams_blocking(dataset, 3),
            &format!("{context} qgrams"),
        );
        let suffix = assert_builds_match(
            dataset,
            &suffix_keys,
            &reference::suffix_array_blocking(dataset, suffix_config),
            &format!("{context} suffix"),
        );
        (token, suffix)
    };
    let keys = |csr: &CsrBlockCollection| -> Vec<String> {
        (0..csr.num_blocks())
            .map(|b| csr.key(b).to_string())
            .collect()
    };

    for case in 0..CASES {
        let seed = gsmb::core::rng::derive_seed(0x5022, case);
        let mut rng = seeded_rng(seed);
        let kind = if case % 2 == 0 {
            DatasetKind::CleanClean
        } else {
            DatasetKind::Dirty
        };
        // The first cases pin the 0- and 1-entity corpora.
        let n = match case {
            0 | 1 => 0,
            2 | 3 => 1,
            _ => rng.gen_range(2usize..=40),
        };
        let profiles = (0..n)
            .map(|i| adversarial_profile(&mut rng, &vocab, i))
            .collect();
        let split = rng.gen_range(0..=n);
        check(&raw_dataset(kind, profiles, split), &format!("seed {seed}"));
    }

    let (token, suffix) = check(
        &raw_dataset(DatasetKind::CleanClean, boundary_profiles(), 3),
        "boundary cc",
    );
    assert_eq!(keys(&token), ["boundary", "capfive", "capfour"]);
    assert!(keys(&suffix).contains(&"capfour".to_string()));
    assert!(!keys(&suffix).contains(&"capfive".to_string()));

    let (token, suffix) = check(
        &raw_dataset(DatasetKind::Dirty, boundary_profiles(), 0),
        "boundary dirty",
    );
    assert_eq!(
        keys(&token),
        ["alpha", "beta", "boundary", "capfive", "capfour"]
    );
    assert!(keys(&suffix).contains(&"capfour".to_string()));
    assert!(!keys(&suffix).contains(&"capfive".to_string()));
}

/// The standard workflow (parallel Token Blocking + CSR Purging + CSR
/// Filtering) equals the sequential reference workflow, and the statistics
/// and candidates derived from it equal the naive reference statistics and
/// the hash-based reference extraction over the reference blocks.
#[test]
fn csr_workflow_matches_nested_workflow() {
    for_random_datasets(0x5021, |dataset, seed| {
        let expected = reference::block_filtering(
            &reference::block_purging(&reference::token_blocking(dataset)),
            gsmb::blocking::DEFAULT_FILTERING_RATIO,
        );
        let naive = NaiveBlockStats::from_csr(&expected);
        let (naive_pairs, naive_counts) = naive_candidate_pairs(&expected);
        for threads in [1, 4] {
            let csr = standard_blocking_workflow_csr(dataset, threads);
            assert!(csr.same_blocks(&expected), "seed {seed} threads {threads}");
            assert_eq!(csr.num_entities, expected.num_entities, "seed {seed}");

            let stats = BlockStats::from_csr(&csr);
            assert_eq!(
                stats.total_comparisons(),
                naive.total_comparisons(),
                "seed {seed}"
            );
            for e in 0..expected.num_entities {
                let entity = EntityId(e as u32);
                assert_eq!(
                    stats.blocks_of(entity),
                    naive.blocks_of(entity),
                    "seed {seed} entity {e}"
                );
                assert_eq!(
                    stats.entity_comparisons(entity),
                    naive.entity_comparisons(entity),
                    "seed {seed} entity {e}"
                );
            }

            let candidates = CandidatePairs::from_stats(&stats, threads);
            assert_eq!(candidates.pairs(), naive_pairs.as_slice(), "seed {seed}");
            assert_eq!(
                candidates.entity_candidate_counts(),
                naive_counts.as_slice(),
                "seed {seed}"
            );
        }
    });
}

/// Block Purging and Filtering never add comparisons and never invent
/// entities.
#[test]
fn purging_and_filtering_only_shrink() {
    for_random_clean_collections(0x5011, |collection, seed| {
        let purged = block_purging_csr(collection);
        assert!(
            purged.total_comparisons() <= collection.total_comparisons(),
            "seed {seed}"
        );
        assert!(
            purged.num_blocks() <= collection.num_blocks(),
            "seed {seed}"
        );
        let filtered = block_filtering_csr(&purged, 0.8);
        assert!(
            filtered.total_comparisons() <= purged.total_comparisons(),
            "seed {seed}"
        );
        for b in 0..filtered.num_blocks() {
            assert!(filtered.is_useful(b), "seed {seed}");
            for e in filtered.entities(b) {
                assert!(e.index() < filtered.num_entities, "seed {seed}");
            }
        }
    });
}

/// Production Purging + Filtering equal the retained per-entity hash-set
/// reference at every ratio, on Clean-Clean and Dirty collections — once
/// with mixed block sizes and once with equal ones, where an entity's
/// quota boundary falls between two blocks of the same size and only the
/// block-index tie-break decides.
#[test]
fn filtering_matches_reference_at_every_ratio() {
    let mut ties = 0usize;
    for sizes in [2..=6, 3..=3] {
        for case in 0..CASES {
            let seed = gsmb::core::rng::derive_seed(0x5024, case);
            let mut rng = seeded_rng(seed);
            let kind = if case % 2 == 0 {
                DatasetKind::CleanClean
            } else {
                DatasetKind::Dirty
            };
            let collection = random_collection_sized(&mut rng, kind, sizes.clone());
            let purged = block_purging_csr(&collection);
            let reference_purged = reference::block_purging(&collection);
            assert!(purged.same_blocks(&reference_purged), "seed {seed}");
            let stats = BlockStats::from_csr(&purged);
            for ratio in [0.01, 0.35, 0.5, 0.8, 1.0] {
                let filtered = block_filtering_csr(&purged, ratio);
                let expected = reference::block_filtering(&reference_purged, ratio);
                assert!(
                    filtered.same_blocks(&expected),
                    "seed {seed} sizes {sizes:?} ratio {ratio}"
                );
                for e in 0..stats.num_entities() {
                    let mut sizes_of: Vec<u32> = stats
                        .blocks_of(EntityId(e as u32))
                        .iter()
                        .map(|&b| stats.block_size(b))
                        .collect();
                    sizes_of.sort_unstable();
                    let keep = filtering_keep_count(sizes_of.len(), ratio);
                    ties +=
                        usize::from(keep < sizes_of.len() && sizes_of[keep - 1] == sizes_of[keep]);
                }
            }
        }
    }
    assert!(ties > 0, "no entity's quota boundary fell on a size tie");
}

/// The candidate-pair set contains each comparable pair at most once and its
/// per-entity counts are consistent.
#[test]
fn candidate_pairs_are_distinct_and_consistent() {
    for_random_collections_both_kinds(0x5012, |collection, seed| {
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(collection), 1);
        let mut seen = std::collections::HashSet::new();
        let mut degree = vec![0u32; collection.num_entities];
        for &(a, b) in candidates.pairs() {
            assert!(a < b, "seed {seed}");
            assert!(collection.is_comparable(a, b), "seed {seed}");
            assert!(seen.insert((a, b)), "seed {seed}");
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        for (i, &d) in degree.iter().enumerate() {
            assert_eq!(
                d,
                candidates.candidates_of(EntityId(i as u32)),
                "seed {seed}"
            );
        }
    });
}

/// The CSR block statistics agree with the retained naive `Vec<Vec<_>>`
/// implementation on every per-entity and per-pair quantity.
#[test]
fn csr_block_stats_match_naive_reference() {
    for_random_collections_both_kinds(0x5013, |collection, seed| {
        let stats = BlockStats::from_csr(collection);
        let naive = NaiveBlockStats::from_csr(collection);
        for e in 0..collection.num_entities {
            let entity = EntityId(e as u32);
            assert_eq!(
                stats.blocks_of(entity),
                naive.blocks_of(entity),
                "seed {seed} entity {e}"
            );
            assert_eq!(
                stats.entity_comparisons(entity),
                naive.entity_comparisons(entity),
                "seed {seed} entity {e}"
            );
        }
        for a in 0..collection.num_entities.min(8) {
            for b in 0..collection.num_entities {
                let (a, b) = (EntityId(a as u32), EntityId(b as u32));
                assert_eq!(
                    stats.common_blocks(a, b),
                    naive.common_blocks(a, b),
                    "seed {seed}"
                );
            }
        }
    });
}

/// The hash-free candidate extraction produces bit-identical pair lists and
/// counts to the retained hash-based reference, on Clean-Clean and Dirty
/// collections alike, for any thread count.
#[test]
fn candidate_extraction_matches_naive_reference() {
    for_random_collections_both_kinds(0x5014, |collection, seed| {
        let (naive_pairs, naive_counts) = naive_candidate_pairs(collection);
        let stats = BlockStats::from_csr(collection);
        for threads in [1, 2, 4] {
            let parallel = CandidatePairs::from_stats(&stats, threads);
            assert_eq!(
                parallel.pairs(),
                naive_pairs.as_slice(),
                "seed {seed} threads {threads}"
            );
            assert_eq!(
                parallel.entity_candidate_counts(),
                naive_counts.as_slice(),
                "seed {seed} threads {threads}"
            );
        }
    });
}

/// The materialising constructors derive each run once and assemble the
/// index from per-task buffers; the stream counts first and re-extracts.
/// Both must equal the naive hash-based reference — pair list, the CSR row
/// and the LCP count of every entity (emitting or not; the single gather
/// histograms the partner side of the counts out of its task buffers, one id
/// range per worker) — for token, q-gram and suffix blocks, Clean-Clean and
/// Dirty, at every thread count.  The
/// corpora include the empty one, single entities, profiles without tokens
/// (entities with no partner) and, at 8 threads, one-entity tasks.
#[test]
fn single_gather_index_equals_collected_stream_and_naive_reference() {
    let vocab = adversarial_vocab();
    let suffix_keys = SuffixKeys::new(3, 6);
    let generators: [(&str, &dyn KeyGenerator); 3] = [
        ("token", &TokenKeys),
        ("qgrams", &QGramKeys::new(3)),
        ("suffix", &suffix_keys),
    ];
    let mut non_empty = 0usize;
    for case in 0..CASES {
        let seed = gsmb::core::rng::derive_seed(0x5023, case);
        let mut rng = seeded_rng(seed);
        let kind = if case % 2 == 0 {
            DatasetKind::CleanClean
        } else {
            DatasetKind::Dirty
        };
        let n = match case {
            0 | 1 => 0,
            2 | 3 => 1,
            _ => rng.gen_range(2usize..=40),
        };
        let profiles = (0..n)
            .map(|i| adversarial_profile(&mut rng, &vocab, i))
            .collect();
        let split = rng.gen_range(0..=n);
        let dataset = raw_dataset(kind, profiles, split);
        for (name, generator) in generators {
            let context = format!("seed {seed} {name}");
            let csr = build_blocks(&dataset, generator, 2);
            let stats = BlockStats::from_csr(&csr);
            let (naive_pairs, naive_counts) = naive_candidate_pairs(&csr);
            non_empty += usize::from(!naive_pairs.is_empty());
            let assert_is_naive = |candidates: &CandidatePairs, what: &str| {
                assert_eq!(
                    candidates.pairs(),
                    naive_pairs.as_slice(),
                    "{context} {what}"
                );
                assert_eq!(
                    candidates.entity_candidate_counts(),
                    naive_counts.as_slice(),
                    "{context} {what}"
                );
                assert_eq!(candidates.num_entities(), n, "{context} {what}");
                let mut cursor = 0usize;
                assert_eq!(naive_counts.len(), n, "{context} {what}");
                for (e, &naive_count) in naive_counts.iter().enumerate() {
                    let entity = EntityId(e as u32);
                    assert_eq!(
                        candidates.candidates_of(entity),
                        naive_count,
                        "{context} {what} LCP of entity {e}"
                    );
                    let run = naive_pairs[cursor..]
                        .iter()
                        .take_while(|pair| pair.0 == entity)
                        .count();
                    assert_eq!(
                        candidates.pair_range(entity),
                        cursor..cursor + run,
                        "{context} {what} entity {e}"
                    );
                    cursor += run;
                }
                assert_eq!(cursor, naive_pairs.len(), "{context} {what}");
            };
            for threads in [1, 2, 3, 8] {
                let what = format!("threads {threads}");
                assert_is_naive(
                    &CandidatePairs::try_from_stats(&stats, threads).unwrap(),
                    &format!("try_from_stats {what}"),
                );
                assert_is_naive(
                    &CandidateStream::from_stats(&stats, threads)
                        .collect(threads)
                        .unwrap(),
                    &format!("collected stream {what}"),
                );
            }
        }
    }
    assert!(non_empty > CASES as usize, "fixtures produced no pairs");
}

/// Asserts that the default engine of the batch passes — the
/// candidate-aligned board — reproduces the flat oracle
/// (`ScoreboardEngine::Flat`, one thread) bit for bit on one candidate set:
/// the full matrix and the fused scores at every thread count, and, when the
/// candidates are the statistics' own (`streamed`), the chunked scoring pass
/// over the derived and the index-backed stream at every chunk size, whose
/// boundaries split runs into slices the board is aligned to one at a time.
fn assert_aligned_board_is_flat(
    stats: &BlockStats,
    candidates: &CandidatePairs,
    thread_counts: &[usize],
    streamed: &[usize],
    context: &str,
) {
    let set = FeatureSet::all_schemes();
    let flat = ScoreboardConfig::flat();
    let aligned = ScoreboardConfig::default();
    let score = |row: &[f64]| {
        row.iter()
            .enumerate()
            .map(|(i, v)| v * (i + 1) as f64)
            .sum::<f64>()
    };
    let ctx = FeatureContext::new(stats, candidates);
    let oracle = FeatureMatrix::build_with(&ctx, set, 1, &flat);
    let oracle_scores = FeatureMatrix::score_rows_with(&ctx, set, 1, &flat, score);
    for &threads in thread_counts {
        let matrix = FeatureMatrix::build_with(&ctx, set, threads, &aligned);
        assert_eq!(matrix.num_pairs(), oracle.num_pairs(), "{context}");
        for (id, row) in oracle.rows() {
            assert_eq!(
                matrix.row(id),
                row,
                "{context} threads {threads} pair {:?}",
                candidates.pair(id)
            );
        }
        let scores = FeatureMatrix::score_rows_with(&ctx, set, threads, &aligned, score);
        assert_eq!(scores, oracle_scores, "{context} threads {threads} scores");

        for &chunk_pairs in streamed {
            let derived = CandidateStream::from_stats(stats, threads);
            let backed = CandidateStream::from_candidates(stats, candidates);
            for (backing, stream) in [("derived", &derived), ("index-backed", &backed)] {
                let sctx = StreamFeatureContext::new(stats, stream.lcp_table());
                let streamed_scores = FeatureMatrix::score_stream_with(
                    &sctx,
                    stream,
                    set,
                    threads,
                    &aligned,
                    chunk_pairs,
                    score,
                );
                assert_eq!(
                    streamed_scores, oracle_scores,
                    "{context} threads {threads} {backing} chunk_pairs {chunk_pairs}"
                );
            }
        }
    }
}

/// A collection whose entity 0 co-occurs with every id of `partners` (all
/// above `first_source`) — each through its own two-entity block, every
/// third through a second block shared with one of entities 1–3 as well, so
/// sums fold several contributions and short runs follow the long one onto
/// the slots it used.
fn hub_collection(
    kind: DatasetKind,
    first_source: u32,
    num_entities: usize,
    partners: &[u32],
) -> CsrBlockCollection {
    let mut blocks = Vec::new();
    for (i, &p) in partners.iter().enumerate() {
        assert!(p >= first_source && (p as usize) < num_entities);
        blocks.push((format!("hub{i}"), vec![EntityId(0), EntityId(p)]));
        if i % 3 == 0 {
            blocks.push((
                format!("shared{i}"),
                vec![EntityId(0), EntityId(1 + (i as u32 / 3) % 3), EntityId(p)],
            ));
        }
    }
    let split = match kind {
        DatasetKind::CleanClean => first_source as usize,
        DatasetKind::Dirty => num_entities,
    };
    CsrBlockCollection::from_blocks("hub", kind, split, num_entities, blocks)
}

/// The candidate-aligned board against the flat oracle, bit for bit, on
/// token, q-gram and suffix blocks of adversarial corpora (empty and
/// one-entity ones included), Clean-Clean and Dirty, at 1/2/3/8 threads and
/// with chunk sizes 1/3/64 splitting runs.
#[test]
fn aligned_board_matches_flat_engine_on_generated_blocks() {
    let vocab = adversarial_vocab();
    let suffix_keys = SuffixKeys::new(3, 6);
    let generators: [(&str, &dyn KeyGenerator); 3] = [
        ("token", &TokenKeys),
        ("qgrams", &QGramKeys::new(3)),
        ("suffix", &suffix_keys),
    ];
    let mut parallel_cases = 0usize;
    for case in 0..16u64 {
        let seed = gsmb::core::rng::derive_seed(0x5031, case);
        let mut rng = seeded_rng(seed);
        let kind = if case % 2 == 0 {
            DatasetKind::CleanClean
        } else {
            DatasetKind::Dirty
        };
        let n = match case {
            0 | 1 => 0,
            2 | 3 => 1,
            // Enough pairs for the engine to really run its workers.
            4..=7 => rng.gen_range(90usize..=130),
            _ => rng.gen_range(2usize..=40),
        };
        let profiles = (0..n)
            .map(|i| adversarial_profile(&mut rng, &vocab, i))
            .collect();
        let split = if n >= 90 { n / 2 } else { rng.gen_range(0..=n) };
        let dataset = raw_dataset(kind, profiles, split);
        for (name, generator) in generators {
            let csr = build_blocks(&dataset, generator, 2);
            let stats = BlockStats::from_csr(&csr);
            let candidates = CandidatePairs::try_from_stats(&stats, 2).unwrap();
            parallel_cases += usize::from(candidates.len() >= 1024);
            assert_aligned_board_is_flat(
                &stats,
                &candidates,
                &[1, 2, 3, 8],
                &[1, 3, 64],
                &format!("seed {seed} {name} {kind:?} n {n}"),
            );
        }
    }
    assert!(
        parallel_cases >= 4,
        "only {parallel_cases} fixtures crossed the engine's parallel threshold"
    );
}

/// The same comparison on hand-built runs: a hub entity with more than
/// 4 096 partners (table and accumulators grow, short runs then reuse the
/// grown board on the same worker), runs whose ids share a home position in
/// the board's table or are multiples of its size, and `from_pairs` subsets
/// — one holding a same-source Clean-Clean pair the block walk never
/// covers.
#[test]
fn aligned_board_matches_flat_engine_on_hubs_collisions_and_subsets() {
    for kind in [DatasetKind::CleanClean, DatasetKind::Dirty] {
        // Hub: 4 500 partners, ids 8..4508.
        let partners: Vec<u32> = (8..8 + 4500).collect();
        let hub = hub_collection(kind, 8, 8 + 4500, &partners);
        let stats = BlockStats::from_csr(&hub);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        assert!(candidates.pairs_of(EntityId(0)).len() > 4096, "{kind:?}");
        for e in 1..4 {
            let run = candidates.pairs_of(EntityId(e)).len();
            assert!(run > 0 && run < 1024, "{kind:?} entity {e}: run of {run}");
        }
        assert_aligned_board_is_flat(
            &stats,
            &candidates,
            &[1, 2, 3, 8],
            &[64, 1000],
            &format!("hub {kind:?}"),
        );
        // Three-pair chunks cut the hub's run into 1 500 slices, each a
        // block walk of its own: once is enough.
        assert_aligned_board_is_flat(&stats, &candidates, &[3], &[3], &format!("hub {kind:?}"));

        // A pruned subset: every other pair, the board dropping what the
        // walk yields for the rest.  For Clean-Clean also a pair of two
        // first-source entities, which no walk ever yields.
        let mut kept: Vec<(EntityId, EntityId)> =
            candidates.pairs().iter().copied().step_by(2).collect();
        if kind == DatasetKind::CleanClean {
            kept.push((EntityId(1), EntityId(2)));
            kept.push((EntityId(0), EntityId(3)));
        }
        let subset = CandidatePairs::from_pairs(hub.num_entities, kept);
        assert_aligned_board_is_flat(
            &stats,
            &subset,
            &[1, 2, 3, 8],
            &[],
            &format!("hub subset {kind:?}"),
        );

        // Collisions: a 12-partner run is aligned in a 32-entry table.  Six
        // ids share its last position (their probe chain wraps around), six
        // are multiples of 32 · 1024 — all on position 0 under a low-bit
        // mask.
        let num_entities = 200_000usize;
        let mut colliding: Vec<u32> = (8u32..)
            .filter(|&id| candidate_home_slot(id, 5) == 31)
            .take(6)
            .collect();
        colliding.extend((1..=6u32).map(|k| k * 32 * 1024));
        colliding.sort_unstable();
        colliding.dedup();
        assert_eq!(colliding.len(), 12);
        let collisions = hub_collection(kind, 8, num_entities, &colliding);
        let stats = BlockStats::from_csr(&collisions);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        assert_eq!(
            candidates.pairs_of(EntityId(0)).len(),
            12 + usize::from(kind == DatasetKind::Dirty) * 3
        );
        assert_aligned_board_is_flat(
            &stats,
            &candidates,
            &[1, 2],
            &[1, 3, 64],
            &format!("collisions {kind:?}"),
        );
    }
}

/// The fused single-pass feature matrix equals the retained pre-refactor
/// engine within 1e-12, and the parallel build equals the sequential build
/// exactly.
#[test]
fn feature_matrix_matches_naive_reference() {
    for_random_collections_both_kinds(0x5015, |collection, seed| {
        let stats = BlockStats::from_csr(collection);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        if candidates.is_empty() {
            return;
        }
        let ctx = FeatureContext::new(&stats, &candidates);
        let naive_ctx = NaiveFeatureContext::new(collection, &candidates);
        for set in [FeatureSet::all_schemes(), FeatureSet::blast_optimal()] {
            let reference = naive_ctx.build_matrix(set, 1);
            let fused = FeatureMatrix::build(&ctx, set);
            let parallel = FeatureMatrix::build_with_threads(&ctx, set, 4);
            assert_eq!(fused.num_pairs(), reference.num_pairs(), "seed {seed}");
            for (id, expected) in reference.rows() {
                for (x, y) in fused.row(id).iter().zip(expected) {
                    assert!((x - y).abs() < 1e-12, "seed {seed} {set}: {x} vs {y}");
                }
                assert_eq!(parallel.row(id), fused.row(id), "seed {seed} {set}");
            }

            let scored = FeatureMatrix::score_rows(&ctx, set, 4, |row| {
                row.iter().sum::<f64>() / row.len() as f64
            });
            for (id, row) in fused.rows() {
                let expected = row.iter().sum::<f64>() / row.len() as f64;
                assert_eq!(scored[id.index()], expected, "seed {seed} {set}");
            }
        }
    });
}

/// Weighting schemes are non-negative; the normalised ones stay in [0,1];
/// and every scheme is symmetric in its arguments.
#[test]
fn weighting_schemes_bounds_and_symmetry() {
    for_random_clean_collections(0x5016, |collection, seed| {
        let stats = BlockStats::from_csr(collection);
        let candidates = CandidatePairs::from_stats(&stats, 1);
        let ctx = FeatureContext::new(&stats, &candidates);
        for &(a, b) in candidates.pairs().iter().take(50) {
            for scheme in Scheme::ALL {
                let v = ctx.score(scheme, a, b);
                assert!(v.is_finite(), "seed {seed}");
                assert!(v >= 0.0, "seed {seed}: {scheme} produced {v}");
                if matches!(scheme, Scheme::Js | Scheme::Wjs | Scheme::Nrs) {
                    assert!(v <= 1.0 + 1e-9, "seed {seed}: {scheme} produced {v}");
                }
                if scheme != Scheme::Lcp {
                    let reversed = ctx.score(scheme, b, a);
                    assert!(
                        (v - reversed).abs() < 1e-9,
                        "seed {seed}: {scheme} not symmetric"
                    );
                }
            }
        }
    });
}

/// Pruning-algorithm invariants for arbitrary probabilities: outputs are
/// subsets of the valid pairs, reciprocal variants are subsets of their base
/// variants, and CEP respects its budget.
#[test]
fn pruning_invariants() {
    for_random_clean_collections(0x5017, |collection, seed| {
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(collection), 1);
        if candidates.is_empty() {
            return;
        }
        let mut rng = seeded_rng(seed ^ 0xabcd);
        let probabilities: Vec<f64> = (0..candidates.len())
            .map(|_| rng.gen_range(0.0..=1.0))
            .collect();
        let scores = CachedScores::new(probabilities.clone());
        let thresholds = CardinalityThresholds::from_csr(collection);

        let run = |kind: AlgorithmKind| -> std::collections::HashSet<_> {
            kind.build_csr(collection)
                .prune(&candidates, &scores)
                .into_iter()
                .collect()
        };

        let bcl = run(AlgorithmKind::Bcl);
        let wep = run(AlgorithmKind::Wep);
        let wnp = run(AlgorithmKind::Wnp);
        let rwnp = run(AlgorithmKind::Rwnp);
        let blast = run(AlgorithmKind::Blast);
        let cep = run(AlgorithmKind::Cep);
        let cnp = run(AlgorithmKind::Cnp);
        let rcnp = run(AlgorithmKind::Rcnp);

        // Everything is a subset of the valid pairs (= BCl's output).
        for (name, result) in [
            ("WEP", &wep),
            ("WNP", &wnp),
            ("RWNP", &rwnp),
            ("BLAST", &blast),
            ("CEP", &cep),
            ("CNP", &cnp),
            ("RCNP", &rcnp),
        ] {
            assert!(
                result.is_subset(&bcl),
                "seed {seed}: {name} retained an invalid pair"
            );
        }
        assert!(rwnp.is_subset(&wnp), "seed {seed}");
        assert!(rcnp.is_subset(&cnp), "seed {seed}");
        assert!(cep.len() <= thresholds.global_k, "seed {seed}");
        // Retained probabilities are all valid.
        for &id in bcl.iter() {
            assert!(probabilities[id.index()] >= 0.5, "seed {seed}");
        }
    });
}

/// Effectiveness measures always land in [0,1] and F1 is the harmonic mean
/// of recall and precision.
#[test]
fn effectiveness_bounds() {
    let mut rng = seeded_rng(0x5018);
    for _ in 0..CASES * 4 {
        let dups = rng.gen_range(1usize..100);
        let tp = rng.gen_range(0usize..100).min(dups);
        let extra = rng.gen_range(0usize..100);
        let eff = Effectiveness::from_counts(tp, tp + extra, dups);
        assert!((0.0..=1.0).contains(&eff.recall));
        assert!((0.0..=1.0).contains(&eff.precision));
        assert!((0.0..=1.0).contains(&eff.f1));
        if eff.recall + eff.precision > 0.0 {
            let expected = 2.0 * eff.recall * eff.precision / (eff.recall + eff.precision);
            assert!((eff.f1 - expected).abs() < 1e-12);
        }
    }
}

/// Ground truth lookups are order-insensitive.
#[test]
fn ground_truth_symmetry() {
    let mut rng = seeded_rng(0x5019);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..40);
        let pairs: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.gen_range(0u32..50), rng.gen_range(0u32..50)))
            .collect();
        let truth = GroundTruth::from_pairs(
            pairs
                .iter()
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| (EntityId(a), EntityId(b))),
        );
        for &(a, b) in &pairs {
            assert_eq!(
                truth.is_match(EntityId(a), EntityId(b)),
                truth.is_match(EntityId(b), EntityId(a))
            );
        }
    }
}

/// The standardiser maps every training row to finite values and the
/// logistic regression always emits probabilities in [0,1].
#[test]
fn classifier_probabilities_stay_in_unit_interval() {
    let mut rng = seeded_rng(0x501a);
    for _ in 0..CASES {
        let n = rng.gen_range(8usize..40);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-100.0f64..100.0)).collect())
            .collect();
        let mut labels: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        // Ensure both classes are present.
        labels[0] = true;
        labels[1] = false;
        let training = TrainingSet::from_parts(rows, labels).unwrap();
        let scaler = Standardizer::fit(training.features().iter().map(|r| r.as_slice()), 3);
        for row in training.features() {
            assert!(scaler.transform(row).iter().all(|v| v.is_finite()));
        }
        let model =
            LogisticRegression::fit(&LogisticRegressionConfig::default(), &training).unwrap();
        for row in training.features() {
            let p = model.probability(row);
            assert!((0.0..=1.0).contains(&p), "probability {p}");
        }
    }
}

/// Platt scaling is monotone in the decision value.
#[test]
fn platt_scaling_is_monotone() {
    let mut rng = seeded_rng(0x501b);
    for _ in 0..CASES {
        let offset = rng.gen_range(-5.0f64..5.0);
        let spread = rng.gen_range(0.5f64..5.0);
        let decisions: Vec<f64> = (-10..=10)
            .map(|i| offset + spread * f64::from(i) / 10.0)
            .collect();
        let labels: Vec<bool> = decisions.iter().map(|&d| d > offset).collect();
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            continue;
        }
        let scaler = PlattScaler::fit(&decisions, &labels).unwrap();
        let mut previous = f64::NEG_INFINITY;
        for i in -20..=20 {
            let p = scaler.probability(offset + spread * f64::from(i) / 10.0);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= previous - 1e-9, "not monotone");
            previous = p;
        }
    }
}
