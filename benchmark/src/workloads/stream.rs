//! `stream_crud`: the cleaned `StreamingPipeline` under closed-loop CRUD.
//!
//! Setup generates `scal-<n>` and bootstraps the pipeline on its first
//! 50 000 entities.  The timed section runs blocks of mutations in a fixed seeded
//! order — cycles of `ingest(64)`, `update(32)`, `remove(32)`,
//! `remove(32)` — draining `next_batch(1000)` every 50 mutations and
//! compacting at the end of each block.  A cycle removes as many entities
//! as it ingests, so the live corpus stays at its seed size and every
//! block does statistically the same work: blocks can be time-boxed and
//! compared with each other.

use std::collections::HashMap;
use std::ops::Range;

use super::{batch, for_seconds, repeat_setup, Kind, Record, RunConfig, SeedInputs, Sizes, Tally};
use crate::host;
use crate::layers::{
    self, Blocker, CsrBlockCollection, Dataset, DeltaBatch, EntityId, EntityProfile,
    StreamingPipeline, TokenKeys,
};
use crate::stats;

pub(super) const INGEST_BATCH: usize = 64;
const MUTATE_BATCH: usize = 32;
const DRAIN_EVERY: usize = 50;
const DRAIN_BUDGET: usize = 1000;

/// splitmix64: the benchmark's own op-order generator, so the order does
/// not depend on anything inside the library.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

enum Op {
    Ingest(Range<usize>),
    Update(Vec<(EntityId, EntityProfile)>),
    Remove(Vec<EntityId>),
    Drain,
    Compact,
}

/// Generates the op blocks on demand and keeps them, so every variant of
/// a traced run replays exactly what the first one executed.
struct OpSource<'a> {
    dataset: &'a Dataset,
    rng: Rng,
    /// Entities the engine was seeded with.
    seeded: usize,
    /// Next dataset index to ingest (= entities the engine holds so far).
    next: usize,
    alive: Vec<u32>,
    cycles: usize,
    blocks: Vec<Vec<Op>>,
}

impl<'a> OpSource<'a> {
    fn new(dataset: &'a Dataset, seeded: usize, seed: u64, cycles: usize) -> Self {
        OpSource {
            dataset,
            rng: Rng(seed ^ 0x0b5e_55ed),
            seeded,
            next: seeded,
            alive: (0..seeded as u32).collect(),
            cycles,
            blocks: Vec::new(),
        }
    }

    /// Block `index`, generated now if it is the next one; `None` once the
    /// corpus has no entities left to ingest.
    fn block(&mut self, index: usize) -> Option<&[Op]> {
        if index == self.blocks.len() {
            let block = self.generate()?;
            self.blocks.push(block);
        }
        self.blocks.get(index).map(Vec::as_slice)
    }

    fn generate(&mut self) -> Option<Vec<Op>> {
        if self.next + self.cycles * INGEST_BATCH > self.dataset.num_entities() {
            return None;
        }
        let mutations = self.cycles * 4;
        let mut ops = Vec::with_capacity(mutations + mutations / DRAIN_EVERY + 2);
        for done in 1..=mutations {
            ops.push(match done % 4 {
                1 => self.ingest(),
                2 => self.update(),
                _ => self.remove(),
            });
            if done % DRAIN_EVERY == 0 || done == mutations {
                ops.push(Op::Drain);
            }
        }
        ops.push(Op::Compact);
        Some(ops)
    }

    fn ingest(&mut self) -> Op {
        let range = self.next..self.next + INGEST_BATCH;
        self.alive.extend(range.clone().map(|e| e as u32));
        self.next = range.end;
        Op::Ingest(range)
    }

    /// Moves `MUTATE_BATCH` distinct random alive entities to the front.
    fn pick(&mut self) {
        for k in 0..MUTATE_BATCH {
            let j = k + self.rng.below(self.alive.len() - k);
            self.alive.swap(k, j);
        }
    }

    /// Each updated entity keeps its profile except for its first
    /// attribute, which takes the value of a random other record's.
    fn update(&mut self) -> Op {
        self.pick();
        let profiles = &self.dataset.profiles;
        let updates = (0..MUTATE_BATCH)
            .map(|k| {
                let entity = self.alive[k];
                let mut profile = profiles[entity as usize].clone();
                let donor = &profiles[self.rng.below(profiles.len())];
                if let (Some(own), Some(other)) =
                    (profile.attributes.first_mut(), donor.attributes.first())
                {
                    own.value.clone_from(&other.value);
                }
                (EntityId(entity), profile)
            })
            .collect();
        Op::Update(updates)
    }

    fn remove(&mut self) -> Op {
        self.pick();
        Op::Remove(self.alive.drain(..MUTATE_BATCH).map(EntityId).collect())
    }

    /// The batch-equivalent corpus after the first `blocks` blocks
    /// (removed entities blanked), and the entities removed by then.
    fn surviving_corpus(&self, blocks: usize) -> (Dataset, Vec<EntityId>) {
        let mut removed = Vec::new();
        let mut updated = Vec::new();
        for op in self.blocks[..blocks].iter().flatten() {
            match op {
                Op::Remove(ids) => removed.extend_from_slice(ids),
                Op::Update(updates) => updated.extend(updates.iter().cloned()),
                _ => {}
            }
        }
        let held = self.seeded + blocks * self.cycles * INGEST_BATCH;
        let corpus = layers::dataset_prefix(self.dataset, held);
        let survivors = layers::surviving_dataset(&corpus, &removed, &updated);
        (survivors, removed)
    }
}

/// The span each operation of an engine is recorded under.
struct Spans {
    ingest: &'static str,
    update: &'static str,
    remove: &'static str,
    drain: &'static str,
    compact: &'static str,
}

/// What the op loop needs from the engine under test: the pipeline, or
/// the bare blocker the pipeline wraps.
trait Engine {
    const SPANS: Spans;
    fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch;
    fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch;
    fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch;
    fn compact(&mut self) -> CsrBlockCollection;
    fn drain(&mut self, budget: usize) -> Vec<ScoredPair>;
}

impl Engine for StreamingPipeline {
    const SPANS: Spans = Spans {
        ingest: "meta-blocking.ingest",
        update: "meta-blocking.update",
        remove: "meta-blocking.remove",
        drain: "meta-blocking.drain",
        // The pipeline's compaction is the blocker's, passed through.
        compact: "er-stream.compact",
    };
    fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch {
        StreamingPipeline::ingest(self, profiles)
    }
    fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch {
        StreamingPipeline::update(self, updates)
    }
    fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch {
        StreamingPipeline::remove(self, ids)
    }
    fn compact(&mut self) -> CsrBlockCollection {
        StreamingPipeline::compact(self)
    }
    fn drain(&mut self, budget: usize) -> Vec<ScoredPair> {
        self.next_batch(budget)
    }
}

impl Engine for Blocker {
    const SPANS: Spans = Spans {
        ingest: "er-stream.ingest",
        update: "er-stream.update",
        remove: "er-stream.remove",
        drain: "er-stream.drain",
        compact: "er-stream.compact",
    };
    fn ingest(&mut self, profiles: &[EntityProfile]) -> DeltaBatch {
        Blocker::ingest(self, profiles)
    }
    fn update(&mut self, updates: &[(EntityId, EntityProfile)]) -> DeltaBatch {
        Blocker::update(self, updates)
    }
    fn remove(&mut self, ids: &[EntityId]) -> DeltaBatch {
        Blocker::remove(self, ids)
    }
    fn compact(&mut self) -> CsrBlockCollection {
        Blocker::compact(self)
    }
    /// The bare blocker has no schedule to drain.
    fn drain(&mut self, _budget: usize) -> Vec<ScoredPair> {
        Vec::new()
    }
}

/// A pair with the probability the engine gave it.
type ScoredPair = ((EntityId, EntityId), f64);

/// What a pass counts besides latencies, and the pairs its drains emitted.
#[derive(Default)]
struct Counts {
    ingested: usize,
    delta_pairs: usize,
    retractions: usize,
    rescored: usize,
    drained: Vec<ScoredPair>,
}

type Pass = super::Pass<Counts>;

const MUTATIONS: [Kind; 3] = [Kind::Ingest, Kind::Update, Kind::Remove];
/// What the overhead figures compare op by op.
const COMPARED: [Kind; 4] = [Kind::Ingest, Kind::Update, Kind::Remove, Kind::Compact];

/// Runs one block against `engine`; every mutation is one counted
/// operation and one latency sample.
fn run_block<E: Engine>(
    engine: &mut E,
    dataset: &Dataset,
    ops: &[Op],
    pass: &mut Pass,
    record: &mut Record,
) {
    let Pass {
        t,
        tally,
        state: counts,
    } = pass;
    let ((), seconds) = t.timed("iteration", |t| {
        for op in ops {
            let mut mutate = |kind: Kind, span, apply: &mut dyn FnMut(&mut E) -> DeltaBatch| {
                let (delta, seconds) = t.timed(span, |_| record.op(|| apply(&mut *engine)));
                tally.sample(kind, seconds);
                if let Some(delta) = delta {
                    counts.delta_pairs += delta.num_additions();
                    counts.retractions += delta.num_retractions();
                    counts.rescored += delta.num_rescored();
                }
            };
            match op {
                Op::Ingest(range) => {
                    let profiles = &dataset.profiles[range.clone()];
                    mutate(Kind::Ingest, E::SPANS.ingest, &mut |e| e.ingest(profiles));
                    counts.ingested += profiles.len();
                }
                Op::Update(updates) => {
                    mutate(Kind::Update, E::SPANS.update, &mut |e| e.update(updates))
                }
                Op::Remove(ids) => mutate(Kind::Remove, E::SPANS.remove, &mut |e| e.remove(ids)),
                Op::Drain => {
                    let (drained, seconds) =
                        t.timed(E::SPANS.drain, |_| record.op(|| engine.drain(DRAIN_BUDGET)));
                    tally.sample(Kind::Drain, seconds);
                    counts.drained.append(&mut drained.unwrap_or_default());
                }
                Op::Compact => {
                    let (_, seconds) =
                        t.timed(E::SPANS.compact, |_| record.op(|| engine.compact()));
                    tally.sample(Kind::Compact, seconds);
                }
            }
        }
    });
    tally.block_s.push(seconds);
}

fn bootstrap(inputs: &SeedInputs) -> StreamingPipeline {
    StreamingPipeline::bootstrap_cleaned(&inputs.pipeline, &inputs.seed_corpus)
        .expect("the seed corpus holds candidate pairs of both classes")
}

/// After the op sequence the compacted index must equal a one-shot batch
/// build of the surviving corpus, block for block.
fn check_compaction<E: Engine>(
    record: &mut Record,
    engine: &mut E,
    source: &OpSource<'_>,
    threads: usize,
) {
    let compacted = engine.compact();
    let (survivors, _) = source.surviving_corpus(source.blocks.len());
    let expected = layers::build_blocks(&survivors, &TokenKeys, threads);
    record.check(
        "compact() equals a batch build of the surviving corpus",
        layers::blocks_equal(&compacted, &expected),
    );
}

/// Blocks after which peak memory is read and the session's answer kept
/// for evaluation.  A run makes about 25; taking both after a fixed few —
/// which every run reaches — rather than wherever the clock stops it keeps
/// them a function of the seed alone: a faster build gets further in the
/// same seconds, holds more retired ids by then, and would be charged for
/// it in `peak_rss_bytes`.
const FIXED_BLOCKS: usize = 8;

/// What the pipeline's client holds after `FIXED_BLOCKS` blocks.
struct Answer {
    /// The live view's candidate pairs.
    view: Vec<(EntityId, EntityId)>,
    /// The pairs still queued in the schedule.
    queued: Vec<ScoredPair>,
    /// How many pairs the drains had emitted.
    drained: usize,
}

impl Answer {
    fn of(engine: &StreamingPipeline, drained: usize) -> Answer {
        Answer {
            view: engine
                .live_view()
                .map(|view| view.candidate_pairs())
                .unwrap_or_default(),
            queued: engine.schedule().queued_entries(),
            drained,
        }
    }
}

/// Quality of the answer: BLAST and RCNP over the cleaned candidate pairs
/// of the surviving corpus, each with the probability the pipeline gave it
/// — still queued in its schedule, or emitted by one of the drains.
/// Incremental scoring, the live view and the schedule all sit between the
/// mutations and these numbers.
fn set_answer_quality(
    record: &mut Record,
    inputs: &SeedInputs,
    source: &OpSource<'_>,
    answer: Answer,
    drained: &[ScoredPair],
) {
    let threads = inputs.pipeline.effective_threads();
    let (survivors, removed) = source.surviving_corpus(FIXED_BLOCKS);
    let (corpus, alive) = layers::alive_corpus(&survivors, &removed);
    let cleaned = layers::cleaned(&layers::build_blocks(&corpus, &TokenKeys, threads));
    let candidates = layers::candidate_pairs(&cleaned, threads);
    record.check(
        "the live view holds the cleaned candidate pairs of the surviving corpus",
        answer.view.len() == candidates.len()
            && candidates
                .pairs()
                .iter()
                .zip(&answer.view)
                .all(|(&(a, b), &held)| (alive[a.index()], alive[b.index()]) == held),
    );
    let mut scored: HashMap<_, _> = drained[..answer.drained].iter().copied().collect();
    scored.extend(answer.queued);
    batch::set_scored_quality(
        record,
        &inputs.pipeline,
        &corpus,
        &alive,
        &cleaned,
        &candidates,
        &scored,
    );
}

fn set_latencies(record: &mut Record, tally: &Tally) {
    record.set("ingest_p50_ms", stats::median(tally.ms(Kind::Ingest)));
    record.set(
        "ingest_p95_ms",
        tally.block_percentile_ms(Kind::Ingest, 95.0),
    );
    record.set("update_p50_ms", stats::median(tally.ms(Kind::Update)));
    record.set("remove_p50_ms", stats::median(tally.ms(Kind::Remove)));
}

fn sizes_of(inputs: &SeedInputs, blocks: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("entities", inputs.dataset.num_entities() as f64),
        ("seed_entities", inputs.seed_corpus.num_entities() as f64),
        ("blocks", blocks as f64),
    ]
}

pub fn run(config: &RunConfig, record: &mut Record) {
    let sizes = Sizes::new(config.shrink);
    if config.trace {
        return traced(config, record, &sizes);
    }
    let ((inputs, mut engine), setup_s) = repeat_setup(config, || {
        let inputs = SeedInputs::generate(config, &sizes);
        let engine = bootstrap(&inputs);
        (inputs, engine)
    });
    record.set_min("setup_s", setup_s);

    let dataset = &inputs.dataset;
    let mut source = OpSource::new(dataset, sizes.stream_seed, config.seed, sizes.crud_cycles);
    let mut pass = Pass::new(false, Counts::default());
    let mut answer = None;
    for_seconds(config.seconds, FIXED_BLOCKS, || {
        let Some(ops) = source.block(pass.tally.block_s.len()) else {
            return false;
        };
        run_block(&mut engine, dataset, ops, &mut pass, record);
        if pass.tally.block_s.len() == FIXED_BLOCKS {
            record.set("peak_rss_bytes", host::peak_rss_bytes() as f64);
            answer = Some(Answer::of(&engine, pass.state.drained.len()));
        }
        true
    });
    let tally = pass.tally;
    record.sizes = sizes_of(&inputs, tally.block_s.len());
    record.sizes.push(("final_entities", source.next as f64));

    check_compaction(record, &mut engine, &source, config.threads);
    drop(engine);
    if let Some(answer) = answer {
        set_answer_quality(record, &inputs, &source, answer, &pass.state.drained);
    }

    set_latencies(record, &tally);
    record.set_median("wall_s", tally.block_s);
}

fn traced(config: &RunConfig, record: &mut Record, sizes: &Sizes) {
    // Four engines fed the same blocks in lockstep, so that drift over the
    // run and the order of the passes cancel out of every difference: the
    // pipeline untraced with er-obs on, then off (the overhead bases), the
    // pipeline traced, and the bare scored blocker the pipeline wraps
    // (what is left of the pipeline's op time is `LiveView` + schedule).
    let pass = |traced| Pass::new(traced, Counts::default());
    let (mut obs_on, mut obs_off) = (pass(false), pass(false));
    let (mut piped, mut plain) = (pass(true), pass(true));

    let (inputs, generate_s) = piped.t.timed("er-datasets.generate", |_| {
        SeedInputs::generate(config, sizes)
    });
    record.set_dataset_metrics(generate_s, &inputs.dataset);
    let dataset = &inputs.dataset;
    let mut source = OpSource::new(dataset, sizes.stream_seed, config.seed, sizes.crud_cycles);

    let (mut on_engine, mut off_engine, mut engine) =
        (bootstrap(&inputs), bootstrap(&inputs), bootstrap(&inputs));
    let model = layers::fit(
        &inputs.pipeline,
        &layers::training_set(&inputs.pipeline, &inputs.seed_corpus),
    );
    let mut blocker = Blocker::new(
        layers::stream_config(&inputs.seed_corpus, &inputs.pipeline),
        TokenKeys,
    )
    .with_model(model);
    blocker.ingest(&inputs.seed_corpus.profiles);

    let mut revivals = 0.0;
    let mut index = 0;
    for_seconds(config.seconds, 1, || {
        let Some(ops) = source.block(index) else {
            return false;
        };
        // The three pipelines take turns going first: whoever follows
        // finds the block's profiles warm in cache.
        for turn in 0..3 {
            match (turn + index) % 3 {
                0 => run_block(&mut on_engine, dataset, ops, &mut obs_on, record),
                1 => {
                    layers::set_obs_enabled(false);
                    run_block(&mut off_engine, dataset, ops, &mut obs_off, record);
                    layers::set_obs_enabled(true);
                }
                _ => {
                    let before = layers::obs_reading();
                    run_block(&mut engine, dataset, ops, &mut piped, record);
                    revivals +=
                        layers::obs_reading().since(&before, "streaming_delta_revivals_total");
                }
            }
        }
        run_block(&mut blocker, dataset, ops, &mut plain, record);
        index += 1;
        true
    });
    drop((on_engine, off_engine, blocker));
    check_compaction(record, &mut engine, &source, config.threads);
    drop(engine);

    // Times and counts are per block, so they add up to `wall_s`.
    let k = piped.tally.block_s.len() as f64;
    let bare_ingest_s = plain.t.total("er-stream.ingest");
    record.set("er-stream.ingest_s", bare_ingest_s / k);
    record.set("er-stream.update_s", plain.t.total("er-stream.update") / k);
    record.set("er-stream.remove_s", plain.t.total("er-stream.remove") / k);
    record.set(
        "er-stream.compact_s",
        piped.t.total("er-stream.compact") / k,
    );
    record.set(
        "er-stream.compact_p50_ms",
        stats::median(piped.tally.ms(Kind::Compact)),
    );
    record.set(
        "er-stream.ingest_p99_ms",
        stats::percentile(piped.tally.ms(Kind::Ingest), 99.0),
    );
    if bare_ingest_s > 0.0 {
        record.set(
            "er-stream.entities_per_s",
            plain.state.ingested as f64 / bare_ingest_s,
        );
    }
    record.set("er-stream.delta_pairs", piped.state.delta_pairs as f64 / k);
    record.set("er-stream.retractions", piped.state.retractions as f64 / k);
    record.set("er-stream.rescored", piped.state.rescored as f64 / k);
    record.set("er-stream.revivals", revivals / k);
    record.set(
        "meta-blocking.stream_overhead_s",
        piped.typical_s(&MUTATIONS) - plain.typical_s(&MUTATIONS),
    );
    record.set(
        "meta-blocking.drain_p50_ms",
        stats::median(piped.tally.ms(Kind::Drain)),
    );
    set_latencies(record, &piped.tally);

    record.set("trace.overhead_pct", piped.overhead_pct(&obs_on, &COMPARED));
    record.set(
        "er-obs.overhead_pct",
        obs_on.overhead_pct(&obs_off, &COMPARED),
    );
    record.set(
        "trace.attributed_pct",
        100.0 * piped.t.attributed_share("iteration", ""),
    );
    record.sizes = sizes_of(&inputs, piped.tally.block_s.len());
    record.trace = Some(piped.t.to_json(64));
    record.keep_pass_walls(
        obs_on.tally.block_s,
        obs_off.tally.block_s,
        piped.tally.block_s,
    );
}
