//! Partner-aggregation boards behind the fused chunk-driven scoring pass
//! and the streaming index.
//!
//! The first scoreboard kept three dense `O(num_entities)` arrays
//! per worker — `common` / `inv_comp` / `inv_size`, ~20 bytes per entity.
//! At 10^7 entities and 16 workers that is ~3.2 GB of cold scratch whose
//! random partner-indexed writes miss every cache level.  Two boards replace
//! it, one per kind of caller:
//!
//! * **[`CandidateBoard`] — the batch board.**  The fused scoring pass is
//!   handed each entity's sorted candidate run (or the slice of it a chunk
//!   holds), so the board is *aligned to that run*: a run-sized open-addressing table maps
//!   partner id → slot in the run, every contribution of the block walk is
//!   added straight into the accumulators at that slot, and the rows are
//!   emitted in run order, zeroing as they go.  Nothing is appended, sorted,
//!   drained or merged, and scratch is `O(longest run the worker was
//!   handed)` — 36 bytes per candidate.  It is the only engine the scoring
//!   pass runs on; there is no run-length limit and no second path.
//! * **[`RadixScoreboard`] — the discovery board.**  `er_stream`'s
//!   `PartnerBoard` has no candidate list: it *discovers* an entity's
//!   partners from the block walk.  It keeps the cache-blocked radix engine:
//!   the partner id space is split into power-of-two *tiles*
//!   ([`ScoreboardConfig::tile_entities`], auto-sized to 4096 entities —
//!   the streaming index is the only thing that field configures); each `(partner, 1/||b||, 1/|b|)` contribution is
//!   appended to one entries array while a 4-byte-per-tile counter tracks
//!   its tile, a *stable* counting sort groups the entries by tile at drain
//!   time (stability keeps each tile's run in append order), and each run is
//!   folded into tile-width accumulators (cache-resident by construction)
//!   and emitted in ascending partner order.  Per-tile `Vec` buckets would
//!   do the same job but retain their historical max capacity forever, which
//!   sums to `O(num_tiles)`-sized scratch — the two flat arrays keep
//!   retained capacity at `O(contributions_of_one_entity)`.
//!
//! **Bit-identity.**  On both boards a partner's floating-point sums are
//! accumulated in block-walk (ascending block id) order — directly on the
//! candidate board, in bucket-append order on the radix board — which is
//! exactly the order a per-pair merge of the two sorted block lists adds
//! them in; the aggregates are therefore bit-for-bit those of
//! `FeatureContext::cooccurrence`, the oracle the equivalence tests compare
//! against.

use std::sync::OnceLock;

use er_obs::{Counter, Gauge, Histogram};

use crate::context::PairCooccurrence;

/// Default tile width (entities per tile) of the discovery board when
/// auto-sizing: 4096 slots keep
/// the three accumulator arrays (20 bytes per slot) at 80 KiB — L2-resident
/// on current hardware — while keeping the per-tile counter array shallow
/// (`num_entities / 4096` four-byte counters).
pub(crate) const DEFAULT_TILE_ENTITIES: usize = 4096;

/// Configuration of the scoreboard, carried by `MetaBlockingConfig` /
/// `StreamingConfig`.
#[derive(Debug, Clone, Default)]
pub struct ScoreboardConfig {
    /// Requested tile width, in entities, of the discovery board the
    /// streaming index runs on ([`RadixScoreboard`]); the batch passes'
    /// [`CandidateBoard`] has no tiles and ignores it.  `None` auto-sizes to
    /// `DEFAULT_TILE_ENTITIES` (4096).  Rounded up to a power of two and capped
    /// at `max(num_entities.next_power_of_two(), DEFAULT_TILE_ENTITIES)` —
    /// any request larger than the corpus degenerates to a single tile.
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
/// counters; workers batch their updates ([`CandidateBoard::flush_metrics`]
/// / [`RadixScoreboard::flush_metrics`], once per task) so the hot loop
/// never touches a shared cache line.
pub(crate) struct ScoreboardObs {
    pub(crate) scratch_bytes_hwm: &'static Gauge,
    pub(crate) partners_hwm: &'static Gauge,
    pub(crate) contributions_hwm: &'static Gauge,
    pub(crate) radix_entities: &'static Counter,
    pub(crate) dense_entities: &'static Counter,
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
            "Longest candidate run aligned, or most distinct partners drained, for any single entity",
        ),
        contributions_hwm: er_obs::gauge(
            "scoreboard_contributions_hwm",
            "Most (block, partner) contributions any single entity's block walk produced",
        ),
        radix_entities: er_obs::counter(
            "scoreboard_radix_entities_total",
            "Entities drained through the radix discovery board (er-stream's PartnerBoard)",
        ),
        dense_entities: er_obs::counter(
            "scoreboard_dense_entities_total",
            "Entity runs aggregated on the candidate-aligned board (every batch run)",
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
    /// Longest candidate run aligned (batch board) or most distinct partners
    /// drained (discovery board) for any single entity.
    pub partners_hwm: u64,
    /// Most `(block, partner)` contributions any single entity's block walk
    /// produced.
    pub contributions_hwm: u64,
    /// Entities drained through the radix discovery board
    /// (`er_stream::PartnerBoard`).
    pub radix_entities: u64,
    /// Entity runs aggregated on the candidate-aligned board — every run of
    /// every batch pass.
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
        dense_entities: o.dense_entities.get(),
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
    o.dense_entities.reset();
    o.tile_partners.reset();
}

/// One scattered contribution: partner id plus the block's precomputed
/// reciprocals.
#[derive(Debug, Clone, Copy)]
struct Contribution {
    partner: u32,
    inv_comp: f64,
    inv_size: f64,
}

/// The cache-blocked radix scoreboard: the discovery board of the streaming
/// index, which has no candidate list to align to.
///
/// `add` appends contributions to an entries array and counts them per
/// tile; `drain_sorted_into` groups them by tile with a stable counting
/// sort, folds each tile's run into cache-resident accumulators, and emits
/// `(partner, aggregates)` in ascending partner order.
#[derive(Debug)]
pub struct RadixScoreboard {
    tile_shift: u32,
    tile_mask: u32,
    /// The current entity's contributions in append (block-walk) order.
    entries: Vec<Contribution>,
    /// Counting-sort scratch: `entries` regrouped by tile, stable.
    sorted: Vec<Contribution>,
    /// Per-tile contribution count; doubles as the scatter cursor during
    /// the drain.  4 bytes per tile is the whole per-tile footprint.
    tile_counts: Vec<u32>,
    active_tiles: Vec<u32>,
    common: Vec<u32>,
    inv_comp: Vec<f64>,
    inv_size: Vec<f64>,
    touched: Vec<u32>,
    local_partners_hwm: usize,
    local_contributions_hwm: usize,
    local_radix: usize,
}

impl RadixScoreboard {
    /// A scoreboard for partner ids `0..num_entities` (the tile counters
    /// grow on demand if larger ids show up — the streaming index relies on
    /// that).
    pub fn new(num_entities: usize, config: &ScoreboardConfig) -> Self {
        let tile = config.effective_tile(num_entities);
        RadixScoreboard {
            tile_shift: tile.trailing_zeros(),
            tile_mask: (tile - 1) as u32,
            entries: Vec::new(),
            sorted: Vec::new(),
            tile_counts: vec![0; num_entities.div_ceil(tile)],
            active_tiles: Vec::new(),
            common: vec![0; tile],
            inv_comp: vec![0.0; tile],
            inv_size: vec![0.0; tile],
            touched: Vec::new(),
            local_partners_hwm: 0,
            local_contributions_hwm: 0,
            local_radix: 0,
        }
    }

    /// The effective tile width in entities.
    pub fn tile_entities(&self) -> usize {
        (self.tile_mask as usize) + 1
    }

    /// Scatters one contribution of the current entity.
    #[inline]
    pub fn add(&mut self, partner: u32, inv_comp: f64, inv_size: f64) {
        let tile = (partner >> self.tile_shift) as usize;
        if tile >= self.tile_counts.len() {
            self.tile_counts.resize(tile + 1, 0);
        }
        if self.tile_counts[tile] == 0 {
            self.active_tiles.push(tile as u32);
        }
        self.tile_counts[tile] += 1;
        self.entries.push(Contribution {
            partner,
            inv_comp,
            inv_size,
        });
    }

    /// Drains the current entity's contributions into `out` as
    /// `(partner, aggregates)`, ascending by partner, clearing the board.
    ///
    /// The counting sort is stable — within each tile the scattered run
    /// keeps append (= block-walk) order — so every partner's sums are
    /// folded in block-walk order and the drained aggregates are
    /// bit-identical to a per-pair merge of the sorted block lists.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, PairCooccurrence)>) {
        out.clear();
        self.active_tiles.sort_unstable();
        let contributions = self.entries.len();
        // Prefix sums: each active tile's counter becomes its run's start
        // offset in `sorted`, then serves as the scatter cursor.
        let mut offset = 0u32;
        for &t in &self.active_tiles {
            let count = self.tile_counts[t as usize];
            self.tile_counts[t as usize] = offset;
            offset += count;
        }
        // Stable scatter into tile-grouped order.
        self.sorted.clear();
        self.sorted.resize(
            contributions,
            Contribution {
                partner: 0,
                inv_comp: 0.0,
                inv_size: 0.0,
            },
        );
        for c in &self.entries {
            let tile = (c.partner >> self.tile_shift) as usize;
            let pos = self.tile_counts[tile] as usize;
            self.sorted[pos] = *c;
            self.tile_counts[tile] = (pos + 1) as u32;
        }
        self.entries.clear();
        // Tile-local accumulate: after the scatter each tile's counter holds
        // its run's end offset; runs are contiguous in active-tile order.
        let mut run_start = 0usize;
        for &t in &self.active_tiles {
            let run_end = self.tile_counts[t as usize] as usize;
            let base = (t as usize) << self.tile_shift;
            for c in &self.sorted[run_start..run_end] {
                let slot = (c.partner & self.tile_mask) as usize;
                if self.common[slot] == 0 {
                    self.touched.push(slot as u32);
                }
                self.common[slot] += 1;
                self.inv_comp[slot] += c.inv_comp;
                self.inv_size[slot] += c.inv_size;
            }
            run_start = run_end;
            self.tile_counts[t as usize] = 0;
            self.touched.sort_unstable();
            for &s in &self.touched {
                let slot = s as usize;
                out.push((
                    (base + slot) as u32,
                    PairCooccurrence {
                        common_blocks: self.common[slot] as usize,
                        inv_comparisons_sum: self.inv_comp[slot],
                        inv_sizes_sum: self.inv_size[slot],
                    },
                ));
                self.common[slot] = 0;
                self.inv_comp[slot] = 0.0;
                self.inv_size[slot] = 0.0;
            }
            self.touched.clear();
        }
        self.active_tiles.clear();
        self.local_radix += 1;
        self.local_partners_hwm = self.local_partners_hwm.max(out.len());
        self.local_contributions_hwm = self.local_contributions_hwm.max(contributions);
    }

    /// This worker's current scratch footprint in bytes (accumulators,
    /// entry/sort arrays, per-tile counters, bookkeeping lists).  O(1).
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<Contribution>()
            + self.sorted.capacity() * size_of::<Contribution>()
            + self.tile_counts.capacity() * size_of::<u32>()
            + self.common.capacity() * size_of::<u32>()
            + self.inv_comp.capacity() * size_of::<f64>()
            + self.inv_size.capacity() * size_of::<f64>()
            + self.touched.capacity() * size_of::<u32>()
            + self.active_tiles.capacity() * size_of::<u32>()
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

/// Multiplier of the candidate table's slot hash: the 64-bit golden-ratio
/// constant (odd, so the multiply is a bijection on `u64`).
const SLOT_HASH_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// An unoccupied entry of the candidate table.  An occupied entry is
/// `partner << 32 | slot` with `slot` below the run length, which never
/// reaches `u32::MAX`.
const EMPTY_ENTRY: u64 = u64::MAX;

/// The home position of `partner` in a candidate table of `2^table_bits`
/// entries (`table_bits >= 1`): the *top* bits of `partner × odd constant`.
///
/// A multiply only carries upwards, so the low bits of the product depend on
/// the low bits of the id alone — `product & mask` would pile every id that
/// is a multiple of the table size onto position 0.  The top bits depend on
/// the whole id (see [`er_core::fxhash::high_bits`]).  Public so that tests
/// can build runs of ids that share a home position.
#[inline]
pub fn candidate_home_slot(partner: u32, table_bits: u32) -> usize {
    er_core::fxhash::high_bits(
        u64::from(partner).wrapping_mul(SLOT_HASH_MULTIPLIER),
        0,
        table_bits,
    )
}

/// The candidate-aligned scoreboard of the batch passes.
///
/// [`CandidateBoard::align`] fills a run-sized open-addressing table
/// (power-of-two capacity ≥ 2·|run|, linear probing) that maps each partner
/// id of the entity's sorted candidate run to its position in the run;
/// [`CandidateBoard::add`] accumulates a contribution at that position, in
/// call (= block-walk) order, dropping partners that are not in the run;
/// [`CandidateBoard::take`] reads a position's aggregates and zeroes it.
/// Table and accumulators grow to the longest run seen and are reused — 16 +
/// 20 bytes per candidate of that run, nothing corpus-sized.
#[derive(Debug, Default)]
pub struct CandidateBoard {
    /// `partner << 32 | slot` entries; only the first `2^table_bits` are in
    /// use for the current run.
    table: Vec<u64>,
    table_bits: u32,
    common: Vec<u32>,
    inv_comp: Vec<f64>,
    inv_size: Vec<f64>,
    local_partners_hwm: usize,
    local_contributions_hwm: usize,
    local_runs: usize,
}

impl CandidateBoard {
    /// An empty board; scratch grows with the runs it is aligned to.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aligns the board to one entity's candidate run: `partners` yields the
    /// run's distinct partner ids, and the `i`-th one is given slot `i`.
    /// Every slot's accumulators are zero on return (slots are zeroed as
    /// they are [taken](CandidateBoard::take)).
    pub fn align(&mut self, partners: impl ExactSizeIterator<Item = u32>) {
        let len = partners.len();
        self.table_bits = (2 * len).next_power_of_two().trailing_zeros().max(1);
        let capacity = 1usize << self.table_bits;
        let mask = capacity - 1;
        if self.table.len() < capacity {
            self.table.resize(capacity, EMPTY_ENTRY);
        }
        if self.common.len() < len {
            self.common.resize(len, 0);
            self.inv_comp.resize(len, 0.0);
            self.inv_size.resize(len, 0.0);
        }
        let table = &mut self.table[..capacity];
        table.fill(EMPTY_ENTRY);
        for (slot, partner) in partners.enumerate() {
            let mut at = candidate_home_slot(partner, self.table_bits);
            while table[at] != EMPTY_ENTRY {
                debug_assert_ne!((table[at] >> 32) as u32, partner, "duplicate candidate");
                at = (at + 1) & mask;
            }
            table[at] = u64::from(partner) << 32 | slot as u64;
        }
        self.local_runs += 1;
        self.local_partners_hwm = self.local_partners_hwm.max(len);
    }

    /// Accumulates one contribution for `partner` at its slot of the
    /// aligned run; a partner outside the run is dropped (its aggregates
    /// would never be read).
    #[inline]
    pub fn add(&mut self, partner: u32, inv_comp: f64, inv_size: f64) {
        let mask = (1usize << self.table_bits) - 1;
        let table = &self.table[..=mask];
        let mut at = candidate_home_slot(partner, self.table_bits);
        loop {
            let entry = table[at];
            if entry == EMPTY_ENTRY {
                return;
            }
            if (entry >> 32) as u32 == partner {
                let slot = entry as u32 as usize;
                self.common[slot] += 1;
                self.inv_comp[slot] += inv_comp;
                self.inv_size[slot] += inv_size;
                return;
            }
            at = (at + 1) & mask;
        }
    }

    /// The aggregates accumulated at `slot` (zeros if no contribution
    /// reached it), leaving the slot zeroed for the next run.
    #[inline]
    pub fn take(&mut self, slot: usize) -> PairCooccurrence {
        let agg = PairCooccurrence {
            common_blocks: self.common[slot] as usize,
            inv_comparisons_sum: self.inv_comp[slot],
            inv_sizes_sum: self.inv_size[slot],
        };
        self.common[slot] = 0;
        self.inv_comp[slot] = 0.0;
        self.inv_size[slot] = 0.0;
        agg
    }

    /// Records how many contributions the current run's block walk produced
    /// (kept or dropped) for the contributions high-water mark.
    #[inline]
    pub fn note_contributions(&mut self, contributions: usize) {
        self.local_contributions_hwm = self.local_contributions_hwm.max(contributions);
    }

    /// This worker's current scratch footprint in bytes (table and
    /// accumulators).  O(1).
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.table.capacity() * size_of::<u64>()
            + self.common.capacity() * size_of::<u32>()
            + self.inv_comp.capacity() * size_of::<f64>()
            + self.inv_size.capacity() * size_of::<f64>()
    }

    /// Publishes this worker's locally batched metrics to the global
    /// [`er_obs`] registry.  Call once per task, not per entity.
    pub fn flush_metrics(&mut self) {
        if self.local_runs > 0 {
            let o = obs();
            o.record_task(
                self.scratch_bytes(),
                self.local_partners_hwm,
                self.local_contributions_hwm,
            );
            o.dense_entities.add(self.local_runs as u64);
        }
        self.local_partners_hwm = 0;
        self.local_contributions_hwm = 0;
        self.local_runs = 0;
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
        let cfg = ScoreboardConfig::with_tile(2);
        let mut board = RadixScoreboard::new(0, &cfg);
        board.add(1000, 1.0, 1.0);
        let mut out = Vec::new();
        board.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1000);
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
    }

    #[test]
    fn dense_path_accumulates_and_resets() {
        let mut board = CandidateBoard::new();
        board.align([10u32, 20, 30].into_iter());
        board.add(10, 0.5, 0.25);
        board.add(30, 1.0, 1.0);
        board.add(10, 0.5, 0.25);
        // Not in the run: dropped.
        board.add(40, 8.0, 8.0);
        let first = board.take(0);
        assert_eq!(first.common_blocks, 2);
        assert_eq!(first.inv_comparisons_sum, 1.0);
        assert_eq!(first.inv_sizes_sum, 0.5);
        assert_eq!(board.take(1), PairCooccurrence::default());
        assert_eq!(board.take(2).common_blocks, 1);
        // Taken slots are zero for the next run, whose ids may reuse them.
        board.align([30u32, 40].into_iter());
        board.add(40, 2.0, 1.0);
        assert_eq!(board.take(0), PairCooccurrence::default());
        assert_eq!(board.take(1).inv_comparisons_sum, 2.0);
    }

    #[test]
    fn candidate_table_resolves_ids_sharing_a_home_slot() {
        // 8 candidates -> a 16-entry table.  Collect ids whose home slot is
        // the table's last position (the probe chain wraps to 0), plus
        // multiples of the table size (the low-bit trap).
        let bits = 4u32;
        let mut ids: Vec<u32> = (0u32..)
            .filter(|&id| candidate_home_slot(id, bits) == 15)
            .take(5)
            .collect();
        ids.extend([16u32, 32, 48].iter().map(|m| m * 1024));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        let absent: u32 = (0u32..)
            .filter(|id| candidate_home_slot(*id, bits) == 15 && !ids.contains(id))
            .nth(2)
            .unwrap();

        let mut board = CandidateBoard::new();
        board.align(ids.iter().copied());
        for (i, &id) in ids.iter().enumerate() {
            for _ in 0..=i {
                board.add(id, 1.0, 0.5);
            }
        }
        board.add(absent, 100.0, 100.0);
        for i in 0..ids.len() {
            let agg = board.take(i);
            assert_eq!(agg.common_blocks, i + 1, "slot {i}");
            assert_eq!(agg.inv_comparisons_sum, (i + 1) as f64);
        }
    }

    #[test]
    fn candidate_board_grows_to_the_longest_run_and_stays_there() {
        let mut board = CandidateBoard::new();
        board.align(0u32..4);
        let small = board.scratch_bytes();
        let long = 3 * DEFAULT_TILE_ENTITIES;
        board.align((0..long as u32).map(|i| i * 7));
        board.add(7 * (long as u32 - 1), 1.0, 1.0);
        assert_eq!(board.take(long - 1).common_blocks, 1);
        let grown = board.scratch_bytes();
        assert!(grown > small);
        // 16 B of table + 20 B of accumulators per candidate, rounded up to
        // the table's power of two (and Vec growth slack).
        assert!(grown >= 36 * long);
        assert!(grown <= 2 * 36 * long.next_power_of_two());
        // A short run afterwards neither shrinks nor grows the board.
        board.align([5u32, 9].into_iter());
        board.add(9, 1.0, 1.0);
        assert_eq!(board.take(0).common_blocks, 0);
        assert_eq!(board.take(1).common_blocks, 1);
        assert_eq!(board.scratch_bytes(), grown);
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
        let mut aligned = CandidateBoard::new();
        aligned.align([3u32].into_iter());
        aligned.add(3, 1.0, 1.0);
        aligned.note_contributions(1);
        aligned.take(0);
        let aligned_scratch = aligned.scratch_bytes();
        aligned.flush_metrics();
        let after = scoreboard_metrics();
        assert!(after.partners_hwm >= 2);
        assert!(after.contributions_hwm >= 3);
        assert!(after.radix_entities > before.radix_entities);
        assert!(after.dense_entities > before.dense_entities);
        assert!(after.scratch_bytes_hwm >= scratch.max(aligned_scratch) as u64);
    }

    #[test]
    fn scratch_is_tile_scaled_not_corpus_scaled() {
        let cfg = ScoreboardConfig::default();
        let small = RadixScoreboard::new(10_000, &cfg);
        let large = RadixScoreboard::new(1_000_000, &cfg);
        // The tiled board's 100x corpus costs only 4-byte tile counters more.
        assert!(large.scratch_bytes() < small.scratch_bytes() + 1_000_000 / 64);
        // A corpus-sized board would hold three arrays of 4 + 8 + 8 bytes
        // per entity.
        assert!(large.scratch_bytes() * 10 < 20 * 1_000_000);
    }
}
