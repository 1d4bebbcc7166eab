//! Reference equivalence for the batch passes' radix board and tile-width
//! edge cases for its drain.
//!
//! Two contracts under test.  [`FeatureMatrix::build_with_threads`] and
//! [`FeatureMatrix::score_rows_with`] produce **bit-identical** output to
//! the per-pair reference path ([`FeatureMatrix::build_reference`]) at
//! every worker-thread count — on Clean-Clean and Dirty collections, across
//! block structures mimicking all three redundancy-positive blocking
//! schemes, with runs long enough to grow the board followed by short ones.
//! And [`RadixScoreboard`] — the board those passes and
//! `er_stream::PartnerBoard` discover partners on — drains exactly a naive
//! per-partner fold of the same contributions at every tile width,
//! including the degenerate ones (1, wider than the corpus).

use std::collections::BTreeMap;

use er_blocking::{BlockStats, CandidatePairs, CsrBlockCollection};
use er_core::{DatasetKind, EntityId};
use er_features::{
    scoreboard_metrics, FeatureContext, FeatureMatrix, FeatureSet, PairCooccurrence,
    RadixScoreboard, ScoreboardConfig,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic xorshift generator — no rand dependency needed here.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Synthetic block structures shaped like the three redundancy-positive
/// blocking schemes: few large overlapping blocks (token), many small
/// blocks with high redundancy (q-grams), and tiny low-redundancy blocks
/// (suffix arrays).
#[derive(Clone, Copy, Debug)]
enum SchemeShape {
    Token,
    Qgrams,
    Suffix,
}

impl SchemeShape {
    fn all() -> [SchemeShape; 3] {
        [SchemeShape::Token, SchemeShape::Qgrams, SchemeShape::Suffix]
    }

    /// (number of blocks, max members per block) at a given corpus size.
    fn dimensions(self, num_entities: usize) -> (usize, usize) {
        match self {
            SchemeShape::Token => (num_entities / 8, 24),
            SchemeShape::Qgrams => (num_entities / 2, 8),
            SchemeShape::Suffix => (num_entities, 4),
        }
    }
}

/// Builds a random block collection with the given scheme shape.  For
/// Clean-Clean collections every block mixes members from both sources;
/// Dirty collections use the whole id space.
fn synthetic_blocks(
    kind: DatasetKind,
    shape: SchemeShape,
    num_entities: usize,
    seed: u64,
) -> CsrBlockCollection {
    let split = match kind {
        DatasetKind::CleanClean => num_entities / 2,
        DatasetKind::Dirty => num_entities,
    };
    let (num_blocks, max_members) = shape.dimensions(num_entities);
    let mut rng = Lcg(seed | 1);
    let mut blocks = Vec::with_capacity(num_blocks);
    for b in 0..num_blocks {
        let mut members: Vec<EntityId> = Vec::new();
        let len = 2 + rng.below(max_members.saturating_sub(1));
        match kind {
            DatasetKind::CleanClean => {
                // At least one member per source so the block yields pairs.
                let from_e1 = 1 + rng.below(len - 1);
                for _ in 0..from_e1 {
                    members.push(EntityId(rng.below(split) as u32));
                }
                for _ in from_e1..len {
                    members.push(EntityId((split + rng.below(num_entities - split)) as u32));
                }
            }
            DatasetKind::Dirty => {
                for _ in 0..len {
                    members.push(EntityId(rng.below(num_entities) as u32));
                }
            }
        }
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            continue;
        }
        blocks.push((format!("b{b}"), members));
    }
    CsrBlockCollection::from_blocks(
        format!("{shape:?}-{kind:?}"),
        kind,
        split,
        num_entities,
        blocks,
    )
}

/// Asserts that the batch passes' board matches the per-pair reference
/// rows ([`FeatureMatrix::build_reference`]) bit for bit on one collection,
/// for every thread count: the matrix, and the fused scores against the
/// same score computed from the reference rows.
fn assert_engines_agree(blocks: &CsrBlockCollection, config: &ScoreboardConfig, label: &str) {
    let stats = BlockStats::from_csr(blocks);
    let candidates = CandidatePairs::from_stats(&stats, 1);
    let context = FeatureContext::new(&stats, &candidates);
    let set = FeatureSet::all_schemes();
    let score = |row: &[f64]| {
        row.iter()
            .enumerate()
            .map(|(i, v)| v * (i + 1) as f64)
            .sum()
    };

    let reference = FeatureMatrix::build_reference(&context, set);
    let reference_scores: Vec<f64> = reference.rows().map(|(_, row)| score(row)).collect();
    for threads in THREAD_COUNTS {
        let produced = FeatureMatrix::build_with_threads(&context, set, threads);
        for (id, row) in reference.rows() {
            assert_eq!(
                produced.row(id),
                row,
                "{label}: row {id:?} at {threads} threads"
            );
        }
        let scores = FeatureMatrix::score_rows_with(&context, set, threads, config, score);
        assert_eq!(
            scores, reference_scores,
            "{label}: scores at {threads} threads"
        );
    }

    // Candidate subsets exercise the untouched-candidate (zero-aggregate)
    // paths: keep every third pair only.
    let subset = CandidatePairs::from_pairs(
        blocks.num_entities,
        candidates
            .iter()
            .filter(|(id, _, _)| id.index() % 3 == 0)
            .map(|(_, a, b)| (a, b)),
    );
    let context = FeatureContext::new(&stats, &subset);
    let expected = FeatureMatrix::build_reference(&context, set);
    for threads in THREAD_COUNTS {
        let produced = FeatureMatrix::build_with_threads(&context, set, threads);
        for (id, row) in expected.rows() {
            assert_eq!(
                produced.row(id),
                row,
                "{label}: subset row {id:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn tiled_matches_flat_across_schemes_kinds_and_threads() {
    for kind in [DatasetKind::CleanClean, DatasetKind::Dirty] {
        for shape in SchemeShape::all() {
            let blocks = synthetic_blocks(kind, shape, 300, 0x9e3779b97f4a7c15);
            assert_engines_agree(
                &blocks,
                &ScoreboardConfig::default(),
                &format!("{shape:?}/{kind:?}"),
            );
        }
    }
}

/// The `(partner, 1/||b||, 1/|b|)` contributions of entity `a`'s block walk,
/// in walk (ascending block id) order — what a discovery board is fed.
fn contributions_of(stats: &BlockStats, a: EntityId) -> Vec<(u32, f64, f64)> {
    let mut contributions = Vec::new();
    for &bid in stats.blocks_of(a) {
        let members = stats.entities_of(bid);
        let partners = match stats.kind() {
            DatasetKind::CleanClean => &members[stats.first_source_count(bid) as usize..],
            DatasetKind::Dirty => &members[members.partition_point(|p| *p <= a)..],
        };
        for &p in partners {
            contributions.push((
                p.0,
                stats.inv_comparisons_table()[bid.index()],
                stats.inv_sizes_table()[bid.index()],
            ));
        }
    }
    contributions
}

/// Asserts that, for every entity of the collection, a [`RadixScoreboard`]
/// of the given tile width drains exactly the naive per-partner fold of the
/// entity's contributions: same partners, ascending, sums folded in
/// contribution order bit for bit.  One board serves every entity, so a
/// drain that leaves state behind shows up on the next one.
fn assert_radix_board_matches_naive_fold(blocks: &CsrBlockCollection, tile: usize) {
    let stats = BlockStats::from_csr(blocks);
    let mut board = RadixScoreboard::new(blocks.num_entities, &ScoreboardConfig::with_tile(tile));
    let mut drained = Vec::new();
    let mut partners_seen = 0usize;
    for e in 0..blocks.num_entities {
        let contributions = contributions_of(&stats, EntityId(e as u32));
        let mut naive: BTreeMap<u32, PairCooccurrence> = BTreeMap::new();
        for &(partner, inv_comp, inv_size) in &contributions {
            board.add(partner, inv_comp, inv_size);
            let agg = naive.entry(partner).or_default();
            agg.common_blocks += 1;
            agg.inv_comparisons_sum += inv_comp;
            agg.inv_sizes_sum += inv_size;
        }
        board.drain_sorted_into(&mut drained);
        let expected: Vec<(u32, PairCooccurrence)> = naive.into_iter().collect();
        assert_eq!(
            drained, expected,
            "{} tile={tile} entity {e}",
            blocks.dataset_name
        );
        partners_seen += drained.len();
    }
    assert!(partners_seen > 0, "fixture produced no partner at all");
}

#[test]
fn tile_widths_do_not_change_output() {
    // 1 = one partner per tile, 64 = many boundary crossings, 4096 = the
    // default, 1 << 20 = a single tile wider than the corpus.
    for kind in [DatasetKind::CleanClean, DatasetKind::Dirty] {
        let blocks = synthetic_blocks(kind, SchemeShape::Token, 250, 42);
        for tile in [1usize, 64, 4096, 1 << 20] {
            assert_radix_board_matches_naive_fold(&blocks, tile);
        }
    }
}

/// A collection in which entity 0 has `hub_partners` partners — each through
/// its own two-entity block, every seventh through a second, larger block as
/// well, so sums fold more than one contribution — followed by entities with
/// short runs.  For Clean-Clean the first source is entities `0..8`.
fn hub_collection(kind: DatasetKind, hub_partners: usize) -> CsrBlockCollection {
    let first = 8u32;
    let num_entities = first as usize + hub_partners;
    let mut blocks = Vec::new();
    for i in 0..hub_partners as u32 {
        blocks.push((format!("hub{i}"), vec![EntityId(0), EntityId(first + i)]));
        if i % 7 == 0 {
            // Entities 1..4 share partners with the hub: short runs right
            // after the long one, on slots the long run used.
            blocks.push((
                format!("shared{i}"),
                vec![EntityId(0), EntityId(1 + i % 3), EntityId(first + i)],
            ));
        }
    }
    CsrBlockCollection::from_blocks(
        format!("hub-{kind:?}"),
        kind,
        match kind {
            DatasetKind::CleanClean => first as usize,
            DatasetKind::Dirty => num_entities,
        },
        num_entities,
        blocks,
    )
}

#[test]
fn long_run_then_short_runs_on_one_worker_are_bit_identical() {
    // The hub's run spans more than one default tile and grows the board's
    // entries and sort keys; the short runs that follow, on the same worker,
    // reuse the grown board.
    for kind in [DatasetKind::CleanClean, DatasetKind::Dirty] {
        let blocks = hub_collection(kind, 4096 + 300);
        let candidates = CandidatePairs::from_stats(&BlockStats::from_csr(&blocks), 1);
        assert!(candidates.partners_of(EntityId(0)).len() > 4096);
        assert!((1..4).all(|e| {
            let run = candidates.partners_of(EntityId(e)).len();
            run > 0 && run < 4096
        }));
        assert_engines_agree(
            &blocks,
            &ScoreboardConfig::default(),
            &format!("hub/{kind:?}"),
        );
    }
}

#[test]
fn partners_straddling_tile_boundaries_and_empty_tiles() {
    // Hand-built Dirty collection on a tile width of 4: entity 0's partners
    // sit at the last slot of tile 0 (id 3), both edges of the tile 0→1
    // boundary (3, 4), the middle of tile 2 (id 10), and the first slot of
    // the last, partially-filled tile (id 12).  Tiles 1 and 3 stay empty in
    // some blocks, and id 13 never co-occurs with 0 at all.
    let ids = |v: &[u32]| v.iter().copied().map(EntityId).collect::<Vec<_>>();
    let blocks = CsrBlockCollection::from_blocks(
        "straddle",
        DatasetKind::Dirty,
        14,
        14,
        [
            ("edge", ids(&[0, 3, 4])),
            ("mid", ids(&[0, 4, 10])),
            ("tail", ids(&[0, 10, 12])),
            ("other", ids(&[3, 12, 13])),
        ],
    );
    for tile in [1usize, 4, 64] {
        assert_radix_board_matches_naive_fold(&blocks, tile);
    }
    // The batch passes at the default tile agree with the reference too.
    assert_engines_agree(&blocks, &ScoreboardConfig::default(), "straddle");
}

#[test]
fn effective_tile_handles_degenerate_widths() {
    let config = ScoreboardConfig::default();
    assert_eq!(config.effective_tile(0), 4096);
    let one = ScoreboardConfig::with_tile(1);
    assert_eq!(one.effective_tile(1_000_000), 1);
    let huge = ScoreboardConfig::with_tile(usize::MAX);
    // Caps at a power of two at least as large as the corpus.
    assert!(huge.effective_tile(100).is_power_of_two());
    assert!(huge.effective_tile(100) >= 100);
}

#[test]
fn metrics_report_tile_scaled_scratch() {
    let blocks = synthetic_blocks(DatasetKind::Dirty, SchemeShape::Token, 400, 3);
    let stats = BlockStats::from_csr(&blocks);
    let candidates = CandidatePairs::from_stats(&stats, 1);
    let context = FeatureContext::new(&stats, &candidates);
    let set = FeatureSet::all_schemes();

    let before = scoreboard_metrics();
    let built = FeatureMatrix::build_with_threads(&context, set, 1);
    let reference = FeatureMatrix::build_reference(&context, set);
    for (id, row) in reference.rows() {
        assert_eq!(built.row(id), row);
    }

    // The build publishes into the shared er-obs registry; other tests in
    // this process may flush concurrently, so assert monotone deltas and
    // high-water lower bounds.  The batch pass drains every run through the
    // radix board, and nothing counts as a dense-path entity any more.
    let after = scoreboard_metrics();
    assert!(after.scratch_bytes_hwm > 0);
    assert!(after.partners_hwm > 0);
    assert!(after.contributions_hwm >= after.partners_hwm);
    assert!(after.radix_entities > before.radix_entities);
    assert_eq!(after.dense_entities, 0);
    // The scratch separation itself is a board property: a tiled board for
    // this corpus allocates far less than a corpus-sized board's three
    // arrays (4 + 8 + 8 bytes per entity) would.
    let tiled_board = RadixScoreboard::new(blocks.num_entities, &ScoreboardConfig::with_tile(64));
    assert!(tiled_board.scratch_bytes() < 20 * blocks.num_entities);
}
