//! The partner-aggregation board behind every fused scoring pass and the
//! streaming index.
//!
//! The first scoreboard kept three dense `O(num_entities)` arrays
//! per worker — `common` / `inv_comp` / `inv_size`, ~20 bytes per entity.
//! At 10^7 entities and 16 workers that is ~3.2 GB of cold scratch whose
//! random partner-indexed writes miss every cache level.  [`RadixScoreboard`]
//! replaces it.  It is a *discovery* board: it needs no candidate list, and
//! learns an entity's partners from the entity's block walk.  That is what
//! both of its callers have:
//!
//! * the batch passes of [`crate::FeatureMatrix`], whose chunks either hold
//!   only the run lengths (a count-backed stream: the folded partners *are*
//!   the run) or a slice of a materialised index, which then only selects
//!   which folded partners are emitted;
//! * `er_stream`'s `PartnerBoard`, whose delta batches have no candidate
//!   list at all.
//!
//! Each `(partner, 1/||b||, 1/|b|)` contribution of the walk is appended to
//! one entries array.  At drain time the board orders the entries by
//! partner with a *stable* LSD radix sort over the bits the entity's
//! partners differ in — partner ids minus the smallest one, a digit per
//! pass ([`ScoreboardConfig::tile_entities`] sets the digit: a tile of
//! `2^k` ids, at most 8 bits) — and folds each run of equal partners in
//! order.  An entity with at most `SHORT_ENTITY` contributions is
//! insertion-sorted in place instead.  The passes move 8-byte keys
//! (partner offset and entry index), and nothing is sized by the corpus:
//! scratch is the longest entity's entries, keys and second key buffer,
//! plus one histogram per pass.  Every loop is branch-predictable, which is
//! why the board sorts instead of accumulating into partner-indexed slots:
//! emitting those in order means scanning an occupancy bitmap, one
//! mispredicted branch per partner when partners are sparse in the id
//! space (a `cc_dense` entity has ≈450 partners among ≈21 000 ids).
//!
//! **Bit-identity.**  A partner's floating-point sums are added in append
//! order — every pass is stable — which is the block-walk (ascending block
//! id) order a per-pair merge of the two sorted block lists adds them in;
//! the aggregates are therefore bit-for-bit those of
//! `FeatureContext::cooccurrence`, the oracle the equivalence tests compare
//! against.

use std::sync::OnceLock;

use er_obs::{Counter, Gauge, Histogram};

use crate::context::PairCooccurrence;

/// Default tile width (entities per tile) when auto-sizing.  Digits are
/// capped at 8 bits, so the default sorts a byte of the partner offset per
/// pass — a 256-bucket histogram, cache-resident.
pub(crate) const DEFAULT_TILE_ENTITIES: usize = 4096;

/// Entities with at most this many contributions skip the radix passes:
/// their entries are insertion-sorted in place and folded run by run, which
/// costs less than clearing and summing the histograms at this size.
const SHORT_ENTITY: usize = 32;

/// Configuration of the scoreboard, carried by `MetaBlockingConfig` /
/// `StreamingConfig`.
#[derive(Debug, Clone, Default)]
pub struct ScoreboardConfig {
    /// Requested tile width, in entities, of the [`RadixScoreboard`] every
    /// scoring pass and the streaming index run on: one pass of its radix
    /// sort orders the partners by their position within a tile of this
    /// many consecutive ids, so a tile of `2^k` ids sorts `k`-bit digits —
    /// at least 1 and at most 8 (256 buckets).  `None` auto-sizes to
    /// `DEFAULT_TILE_ENTITIES` (4096, byte digits).  Rounded up to a power
    /// of two and capped at `max(num_entities.next_power_of_two(),
    /// DEFAULT_TILE_ENTITIES)`.  The width changes the number of passes and
    /// the scratch, never an output bit.
    pub tile_entities: Option<usize>,
}
impl ScoreboardConfig {
    /// A configuration with an explicit tile width.
    pub fn with_tile(tile_entities: usize) -> Self {
        ScoreboardConfig {
            tile_entities: Some(tile_entities),
        }
    }

    /// The effective (power-of-two) tile width for a corpus of
    /// `num_entities`.
    pub fn effective_tile(&self, num_entities: usize) -> usize {
        // Entity ids are u32, so a tile never needs to exceed 2^31 slots
        // (and `partner >> tile_shift` must stay a valid u32 shift).
        let cap = num_entities
            .next_power_of_two()
            .clamp(DEFAULT_TILE_ENTITIES, 1 << 31);
        self.tile_entities
            .unwrap_or(DEFAULT_TILE_ENTITIES)
            .clamp(1, cap)
            .next_power_of_two()
    }
}

/// Scoreboard metric handles on the global [`er_obs`] registry, resolved
/// once.  High-water marks are `fetch_max` gauges, path counts are
/// counters; workers batch their updates
/// ([`RadixScoreboard::flush_metrics`], once per task) so the hot loop never
/// touches a shared cache line.
pub(crate) struct ScoreboardObs {
    pub(crate) scratch_bytes_hwm: &'static Gauge,
    pub(crate) partners_hwm: &'static Gauge,
    pub(crate) contributions_hwm: &'static Gauge,
    pub(crate) radix_entities: &'static Counter,
    pub(crate) tile_partners: &'static Histogram,
}

impl ScoreboardObs {
    /// Publishes one task's high-water marks: the worker's scratch
    /// footprint, its longest run or partner list and its largest block
    /// walk.
    fn record_task(&self, scratch_bytes: usize, partners_hwm: usize, contributions_hwm: usize) {
        self.scratch_bytes_hwm.record_max(scratch_bytes as u64);
        self.partners_hwm.record_max(partners_hwm as u64);
        self.contributions_hwm.record_max(contributions_hwm as u64);
        self.tile_partners.record(partners_hwm as u64);
    }
}

pub(crate) fn obs() -> &'static ScoreboardObs {
    static OBS: OnceLock<ScoreboardObs> = OnceLock::new();
    OBS.get_or_init(|| ScoreboardObs {
        scratch_bytes_hwm: er_obs::gauge(
            "scoreboard_scratch_bytes_hwm",
            "Largest per-worker scoreboard scratch footprint observed, in bytes",
        ),
        partners_hwm: er_obs::gauge(
            "scoreboard_partners_hwm",
            "Most distinct partners drained for any single entity",
        ),
        contributions_hwm: er_obs::gauge(
            "scoreboard_contributions_hwm",
            "Most (block, partner) contributions any single entity's block walk produced",
        ),
        radix_entities: er_obs::counter(
            "scoreboard_radix_entities_total",
            "Entities drained through the radix board (every batch run and streaming delta)",
        ),
        tile_partners: er_obs::histogram(
            "scoreboard_tile_partners",
            "Per-task partner high-water mark, a tile-occupancy distribution",
        ),
    })
}

/// A point-in-time copy of the scoreboard's registry metrics — what the
/// deleted `ScoreboardMetrics` sink used to accumulate, now read back from
/// the global [`er_obs`] registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreboardMetricsSnapshot {
    /// Largest per-worker scratch footprint observed, in bytes.
    pub scratch_bytes_hwm: u64,
    /// Most distinct partners drained for any single entity.
    pub partners_hwm: u64,
    /// Most `(block, partner)` contributions any single entity's block walk
    /// produced.
    pub contributions_hwm: u64,
    /// Entities drained through the radix board: every entity run of every
    /// batch pass, and every entity of a streaming delta.
    pub radix_entities: u64,
    /// Entity runs aggregated on the candidate-aligned board, which no pass
    /// runs on any more: always 0.  Kept so that readers of the snapshot
    /// built against the two-board layout keep compiling.
    pub dense_entities: u64,
}

/// Reads the scoreboard's current registry metrics.
pub fn scoreboard_metrics() -> ScoreboardMetricsSnapshot {
    let o = obs();
    ScoreboardMetricsSnapshot {
        scratch_bytes_hwm: o.scratch_bytes_hwm.get(),
        partners_hwm: o.partners_hwm.get(),
        contributions_hwm: o.contributions_hwm.get(),
        radix_entities: o.radix_entities.get(),
        dense_entities: 0,
    }
}

/// Zeroes the scoreboard's registry metrics, so a sequential bench phase
/// can read exact per-phase values.  Not for concurrent use.
pub fn reset_scoreboard_metrics() {
    let o = obs();
    o.scratch_bytes_hwm.reset();
    o.partners_hwm.reset();
    o.contributions_hwm.reset();
    o.radix_entities.reset();
    o.tile_partners.reset();
}

/// One appended contribution: partner id plus the block's precomputed
/// reciprocals.
#[derive(Debug, Clone, Copy, Default)]
struct Contribution {
    partner: u32,
    inv_comp: f64,
    inv_size: f64,
}

/// The radix scoreboard every scoring pass and the streaming index discover
/// and fold an entity's partners on.
///
/// `add` appends contributions to an entries array; `drain_sorted_into`
/// orders them by partner with a stable LSD radix sort over the partner-id bits
/// the entity's partners differ in, folds each run of equal partners in
/// order and emits `(partner, aggregates)` ascending.  Every buffer keeps
/// its capacity, so once the board has seen its longest entity, draining
/// any number of entities no longer than it allocates nothing.
#[derive(Debug)]
pub struct RadixScoreboard {
    /// The effective tile width; a radix pass sorts `digit_bits(tile)` bits
    /// of the partner offsets.
    tile: usize,
    /// The current entity's contributions in append (block-walk) order.
    entries: Vec<Contribution>,
    /// The smallest and largest partner id appended since the last drain.
    lowest: u32,
    highest: u32,
    /// Sort keys `(partner - lowest) << 32 | entry index` and the buffer
    /// each pass scatters them into.  Both only ever grow.
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// One bucket counter per digit value, per pass.
    histograms: Vec<u32>,
    local_partners_hwm: usize,
    local_contributions_hwm: usize,
    local_radix: usize,
}

impl RadixScoreboard {
    /// A scoreboard for partner ids `0..num_entities` at the configured
    /// tile width.  Nothing in it is sized by the corpus: larger ids work
    /// too (the streaming index relies on that).
    pub fn new(num_entities: usize, config: &ScoreboardConfig) -> Self {
        let tile = config.effective_tile(num_entities);
        let digit_bits = digit_bits(tile);
        RadixScoreboard {
            tile,
            entries: Vec::new(),
            lowest: u32::MAX,
            highest: 0,
            keys: Vec::new(),
            spare: Vec::new(),
            histograms: vec![0; (32usize.div_ceil(digit_bits as usize)) << digit_bits],
            local_partners_hwm: 0,
            local_contributions_hwm: 0,
            local_radix: 0,
        }
    }

    /// The effective tile width in entities.
    pub fn tile_entities(&self) -> usize {
        self.tile
    }

    /// Appends one contribution of the current entity.
    #[inline]
    pub fn add(&mut self, partner: u32, inv_comp: f64, inv_size: f64) {
        self.lowest = self.lowest.min(partner);
        self.highest = self.highest.max(partner);
        self.entries.push(Contribution {
            partner,
            inv_comp,
            inv_size,
        });
    }

    /// Drains the current entity's contributions into `out` as
    /// `(partner, aggregates)`, ascending by partner, clearing the board.
    ///
    /// Both orderings are stable — within each partner the contributions
    /// keep append (= block-walk) order — so every partner's sums are folded
    /// in block-walk order and the drained aggregates are bit-identical to a
    /// per-pair merge of the sorted block lists.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, PairCooccurrence)>) {
        out.clear();
        let contributions = self.entries.len();
        if contributions <= SHORT_ENTITY {
            // Too few to pay for the passes: sort in place and fold.
            insertion_sort_by_partner(&mut self.entries);
            fold_runs(self.entries.iter().copied(), out);
        } else {
            let bits = digit_bits(self.tile);
            let span = self.highest - self.lowest;
            let passes = (u32::BITS - span.leading_zeros()).div_ceil(bits) as usize;
            let buckets = 1usize << bits;
            let mask = (buckets - 1) as u32;
            let histograms = &mut self.histograms[..passes * buckets];
            histograms.fill(0);
            self.keys.clear();
            for (i, c) in self.entries.iter().enumerate() {
                let offset = c.partner - self.lowest;
                self.keys.push(u64::from(offset) << 32 | i as u64);
                for pass in 0..passes {
                    let digit = (offset >> (pass as u32 * bits)) & mask;
                    histograms[pass * buckets + digit as usize] += 1;
                }
            }
            if self.spare.len() < contributions {
                self.spare.resize(contributions, 0);
            }
            let mut sorted = &mut self.keys[..];
            let mut scratch = &mut self.spare[..contributions];
            for (pass, histogram) in histograms.chunks_exact_mut(buckets).enumerate() {
                // Prefix sums turn each count into its bucket's first slot,
                // then the scatter cursor.
                let mut next = 0u32;
                for count in histogram.iter_mut() {
                    next += std::mem::replace(count, next);
                }
                let shift = 32 + pass as u32 * bits;
                for &key in sorted.iter() {
                    let bucket = &mut histogram[((key >> shift) as u32 & mask) as usize];
                    scratch[*bucket as usize] = key;
                    *bucket += 1;
                }
                std::mem::swap(&mut sorted, &mut scratch);
            }
            let (lowest, entries) = (self.lowest, &self.entries);
            fold_runs(
                sorted.iter().map(|&key| Contribution {
                    partner: lowest + (key >> 32) as u32,
                    ..entries[key as u32 as usize]
                }),
                out,
            );
        }
        self.entries.clear();
        self.lowest = u32::MAX;
        self.highest = 0;
        self.local_radix += 1;
        self.local_partners_hwm = self.local_partners_hwm.max(out.len());
        self.local_contributions_hwm = self.local_contributions_hwm.max(contributions);
    }

    /// This worker's current scratch footprint in bytes (entries, sort keys
    /// and their second buffer, histograms).  O(1).
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<Contribution>()
            + (self.keys.capacity() + self.spare.capacity()) * size_of::<u64>()
            + self.histograms.capacity() * size_of::<u32>()
    }

    /// Publishes this worker's locally batched metrics to the global
    /// [`er_obs`] registry.  Call once per task, not per entity — the whole
    /// task costs a handful of relaxed atomic ops.
    pub fn flush_metrics(&mut self) {
        if self.local_radix > 0 {
            let o = obs();
            o.record_task(
                self.scratch_bytes(),
                self.local_partners_hwm,
                self.local_contributions_hwm,
            );
            o.radix_entities.add(self.local_radix as u64);
        }
        self.local_partners_hwm = 0;
        self.local_contributions_hwm = 0;
        self.local_radix = 0;
    }
}

/// Bits of the partner id one radix pass sorts by: the tile's, at most 8
/// (256 buckets) and at least 1.
fn digit_bits(tile: usize) -> u32 {
    tile.trailing_zeros().clamp(1, 8)
}

/// Sorts a short run of contributions by partner, stably: an element moves
/// only past larger partners, so equal partners keep their order.
fn insertion_sort_by_partner(entries: &mut [Contribution]) {
    for i in 1..entries.len() {
        let current = entries[i];
        let mut j = i;
        while j > 0 && entries[j - 1].partner > current.partner {
            entries[j] = entries[j - 1];
            j -= 1;
        }
        entries[j] = current;
    }
}

/// Folds contributions sorted by partner into one aggregate per partner,
/// adding each partner's contributions in the order given, and appends them
/// to `out`.  Sums start from `0.0`, as the per-pair merge's do.
fn fold_runs(sorted: impl Iterator<Item = Contribution>, out: &mut Vec<(u32, PairCooccurrence)>) {
    for c in sorted {
        match out.last_mut() {
            Some((partner, agg)) if *partner == c.partner => {
                agg.common_blocks += 1;
                agg.inv_comparisons_sum += c.inv_comp;
                agg.inv_sizes_sum += c.inv_size;
            }
            _ => out.push((
                c.partner,
                PairCooccurrence {
                    common_blocks: 1,
                    inv_comparisons_sum: 0.0 + c.inv_comp,
                    inv_sizes_sum: 0.0 + c.inv_size,
                },
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_tile_rounds_and_caps() {
        let auto = ScoreboardConfig::default();
        assert_eq!(auto.effective_tile(1_000_000), DEFAULT_TILE_ENTITIES);
        assert_eq!(auto.effective_tile(0), DEFAULT_TILE_ENTITIES);
        assert_eq!(ScoreboardConfig::with_tile(1).effective_tile(100), 1);
        assert_eq!(ScoreboardConfig::with_tile(3).effective_tile(100), 4);
        // A request beyond the corpus degenerates to a single tile.
        let huge = ScoreboardConfig::with_tile(usize::MAX / 4);
        let tile = huge.effective_tile(100_000);
        assert!(tile >= 100_000);
        assert_eq!(100_000usize.div_ceil(tile), 1);
    }

    #[test]
    fn drain_accumulates_in_append_order_and_sorts() {
        let cfg = ScoreboardConfig::with_tile(4);
        let mut board = RadixScoreboard::new(16, &cfg);
        // Partners across three tiles, appended out of order.
        board.add(9, 0.5, 0.25);
        board.add(2, 1.0, 0.5);
        board.add(9, 0.125, 0.0625);
        board.add(14, 2.0, 1.0);
        board.add(2, 0.25, 0.125);
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        let partners: Vec<u32> = out.iter().map(|&(p, _)| p).collect();
        assert_eq!(partners, vec![2, 9, 14]);
        assert_eq!(out[0].1.common_blocks, 2);
        assert_eq!(out[0].1.inv_comparisons_sum, 1.25);
        assert_eq!(out[1].1.common_blocks, 2);
        assert_eq!(out[1].1.inv_comparisons_sum, 0.625);
        assert_eq!(out[2].1.common_blocks, 1);
        // Board is clean: a second drain yields nothing.
        board.drain_sorted_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tile_counters_grow_on_demand() {
        // Nothing is sized by the corpus: ids far past the one the board was
        // built for drain like any other, on either path.
        let cfg = ScoreboardConfig::with_tile(2);
        let mut board = RadixScoreboard::new(0, &cfg);
        board.add(1000, 1.0, 1.0);
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1000);
        let long: Vec<(u32, f64)> = (0..50).map(|i| (1000 + 37 * (i % 20), 0.5)).collect();
        assert_drains_the_naive_fold(&mut board, &long);
    }

    #[test]
    fn tile_width_one_gives_one_partner_per_tile() {
        let cfg = ScoreboardConfig::with_tile(1);
        let mut board = RadixScoreboard::new(8, &cfg);
        assert_eq!(board.tile_entities(), 1);
        for p in [7u32, 0, 3, 7] {
            board.add(p, 1.0, 1.0);
        }
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        let partners: Vec<u32> = out.iter().map(|&(p, _)| p).collect();
        assert_eq!(partners, vec![0, 3, 7]);
        assert_eq!(out[2].1.common_blocks, 2);
        // Past the short path: one bit per pass.
        let long: Vec<(u32, f64)> = (0..64).map(|i| ((i * 5) % 23, 0.25)).collect();
        assert_drains_the_naive_fold(&mut board, &long);
    }

    /// Drains `contributions` through `board` and checks the result against
    /// a naive per-partner fold in append order.
    fn assert_drains_the_naive_fold(board: &mut RadixScoreboard, contributions: &[(u32, f64)]) {
        let mut naive = std::collections::BTreeMap::<u32, PairCooccurrence>::new();
        for &(partner, weight) in contributions {
            board.add(partner, weight, weight / 2.0);
            let agg = naive.entry(partner).or_default();
            agg.common_blocks += 1;
            agg.inv_comparisons_sum += weight;
            agg.inv_sizes_sum += weight / 2.0;
        }
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        assert_eq!(out, naive.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn short_and_long_entities_share_one_board() {
        // Entities alternate between the insertion-sorted short path and
        // the radix passes, with partner spans of one to four digits, each
        // leaving the board clean for the next.
        let mut board = RadixScoreboard::new(1 << 12, &ScoreboardConfig::default());
        let weights = [0.5, 0.25, 0.125, 1.0 / 3.0, 0.1];
        for round in 0..40u32 {
            let span = [1u32, 200, 60_000, 5_000_000, u32::MAX - 7][round as usize % 5];
            let base = if span == u32::MAX - 7 { 0 } else { 3 * round };
            let contributions: Vec<(u32, f64)> = (0..(5 + round * 3))
                .map(|i| {
                    let partner = base + (i.wrapping_mul(2_654_435_761) ^ round) % span;
                    (partner, weights[(i + round) as usize % weights.len()])
                })
                .collect();
            assert_drains_the_naive_fold(&mut board, &contributions);
        }
    }

    #[test]
    fn one_partner_many_times_needs_no_pass() {
        // More contributions than the short path takes, all for one partner:
        // zero radix passes, one fold in append order.
        let mut board = RadixScoreboard::new(16, &ScoreboardConfig::default());
        let contributions: Vec<(u32, f64)> =
            (0..100).map(|i| (11, 1.0 / f64::from(i + 1))).collect();
        assert!(contributions.len() > SHORT_ENTITY);
        assert_drains_the_naive_fold(&mut board, &contributions);
    }

    #[test]
    fn radix_board_grows_to_the_longest_entity_and_stays_there() {
        let mut board = RadixScoreboard::new(1 << 16, &ScoreboardConfig::default());
        let mut out = Vec::new();
        board.add(3, 1.0, 1.0);
        board.drain_sorted_into(&mut out);
        let small = board.scratch_bytes();
        // 12 288 partners, twice each: entries (24 B), keys and their second
        // buffer (8 + 8 B) grow to 24 576 contributions.
        let long = 3 * DEFAULT_TILE_ENTITIES as u32;
        for round in 0..2 {
            for i in 0..long {
                board.add(i * 5 % (1 << 16), 1.0, f64::from(round));
            }
        }
        board.drain_sorted_into(&mut out);
        assert_eq!(out.len(), long as usize);
        let grown = board.scratch_bytes();
        assert!(grown > small);
        assert!(grown >= 40 * 2 * long as usize);
        // Shorter entities afterwards neither shrink nor grow the board.
        for partners in [vec![9u32, 5], (0..long).map(|i| i * 11 % 60_000).collect()] {
            for &p in &partners {
                board.add(p, 1.0, 1.0);
            }
            board.drain_sorted_into(&mut out);
            assert_eq!(out.len(), partners.len());
            assert_eq!(board.scratch_bytes(), grown);
        }
    }

    #[test]
    fn metrics_track_hwm_and_paths() {
        // Metrics land on the shared er-obs registry; other tests in this
        // process may flush concurrently, so assert monotone deltas and
        // high-water lower bounds rather than exact globals.
        let before = scoreboard_metrics();
        let cfg = ScoreboardConfig::with_tile(4);
        let mut board = RadixScoreboard::new(64, &cfg);
        board.add(1, 1.0, 1.0);
        board.add(9, 1.0, 1.0);
        board.add(9, 1.0, 1.0);
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        let scratch = board.scratch_bytes();
        board.flush_metrics();
        let after = scoreboard_metrics();
        assert!(after.partners_hwm >= 2);
        assert!(after.contributions_hwm >= 3);
        assert!(after.radix_entities > before.radix_entities);
        // Every batch entity counts under `radix_entities`.
        assert_eq!(after.dense_entities, 0);
        assert!(after.scratch_bytes_hwm >= scratch as u64);
    }

    #[test]
    fn scratch_is_tile_scaled_not_corpus_scaled() {
        let cfg = ScoreboardConfig::default();
        let small = RadixScoreboard::new(10_000, &cfg);
        let large = RadixScoreboard::new(1_000_000, &cfg);
        // A 100x corpus costs the board nothing more.
        assert!(large.scratch_bytes() < small.scratch_bytes() + 1_000_000 / 64);
        // A corpus-sized board would hold three arrays of 4 + 8 + 8 bytes
        // per entity.
        assert!(large.scratch_bytes() * 10 < 20 * 1_000_000);
    }
}
