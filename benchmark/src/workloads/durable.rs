//! `durable_shard`: the 4-shard durable service under write load, then a
//! restart.
//!
//! Setup generates `scal-<n>`, trains the model on its first 50 000
//! entities, seeds a 4-shard `ShardedStreamingService` with them (scored)
//! and `persist_to`s it into the benchmark's scratch directory.  The timed
//! section runs blocks of `ingest(64)` alternating with one `apply_group`
//! of eight 8-entity ingests; each block then removes as many of the
//! oldest live entities as it ingested — so the live corpus stays at its
//! seed size and every block does statistically the same work — and ends
//! in `checkpoint()`.  A short un-checkpointed tail then leaves a WAL to
//! replay, the service is dropped, and `recover_from` is timed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use super::stream::INGEST_BATCH;
use super::{batch, for_seconds, repeat_setup, Kind, Record, RunConfig, SeedInputs, Sizes, Tally};
use crate::host;
use crate::layers::{
    self, DeltaBatch, DurableService, EntityId, EntityProfile, EpochReader, MutationRecord,
    Service, TokenKeys, TrainingSet,
};
use crate::stats;
use crate::trace::Tracer;

const SHARDS: usize = 4;
const GROUP_BATCH: usize = 8;

/// A store directory under the benchmark's scratch root, removed on drop
/// (and the root with it once empty).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = host::scratch_root().join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.parent().expect("scratch root has a parent"))
            .expect("the benchmark directory is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(host::scratch_root());
    }
}

/// The write path under test: the durable service, or the in-memory
/// service it wraps (the base its overhead is measured against).
trait Engine {
    fn ingest(&mut self, profiles: &[EntityProfile]) -> Result<DeltaBatch, String>;
    fn group(&mut self, records: &[MutationRecord]) -> Result<Vec<DeltaBatch>, String>;
    fn remove(&mut self, ids: &[EntityId]) -> Result<DeltaBatch, String>;
    fn checkpoint(&mut self) -> Result<(), String>;
    fn reader(&self) -> EpochReader;
}

impl Engine for DurableService {
    fn ingest(&mut self, profiles: &[EntityProfile]) -> Result<DeltaBatch, String> {
        DurableService::ingest(self, profiles).map_err(|e| e.to_string())
    }
    fn group(&mut self, records: &[MutationRecord]) -> Result<Vec<DeltaBatch>, String> {
        self.apply_group(records).map_err(|e| e.to_string())
    }
    fn remove(&mut self, ids: &[EntityId]) -> Result<DeltaBatch, String> {
        DurableService::remove(self, ids).map_err(|e| e.to_string())
    }
    fn checkpoint(&mut self) -> Result<(), String> {
        DurableService::checkpoint(self).map_err(|e| e.to_string())
    }
    fn reader(&self) -> EpochReader {
        DurableService::reader(self)
    }
}

impl Engine for Service {
    fn ingest(&mut self, profiles: &[EntityProfile]) -> Result<DeltaBatch, String> {
        Ok(Service::ingest(self, profiles))
    }
    fn group(&mut self, records: &[MutationRecord]) -> Result<Vec<DeltaBatch>, String> {
        Ok(records.iter().map(|r| self.apply(r, true)).collect())
    }
    fn remove(&mut self, ids: &[EntityId]) -> Result<DeltaBatch, String> {
        Ok(Service::remove(self, ids))
    }
    /// Nothing to make durable.
    fn checkpoint(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn reader(&self) -> EpochReader {
        Service::reader(self)
    }
}

/// The candidate pairs the service's client holds, each with the latest
/// probability a delta gave it.
type Scored = HashMap<(EntityId, EntityId), f64>;

/// Applies one acknowledged delta to the client's pairs.
fn fold(scored: &mut Scored, delta: &DeltaBatch) {
    scored.extend(
        delta
            .pairs
            .iter()
            .copied()
            .zip(delta.probabilities.iter().copied()),
    );
    scored.extend(
        delta
            .rescored_pairs
            .iter()
            .copied()
            .zip(delta.rescored_probabilities.iter().copied()),
    );
    for pair in delta.retractions() {
        scored.remove(&pair);
    }
}

/// Where a pass stands in the corpus — entities `oldest..next` are alive —
/// and what it gathers besides latencies.
struct Cursor {
    oldest: usize,
    next: usize,
    reader_ns: Vec<f64>,
    delta_pairs: usize,
    /// Kept by the pass whose answer is evaluated, until it is.
    scored: Option<Scored>,
}

type Pass = super::Pass<Cursor>;

fn pass(traced: bool, seeded: usize, scored: Option<Scored>) -> Pass {
    let cursor = Cursor {
        oldest: 0,
        next: seeded,
        reader_ns: Vec::new(),
        delta_pairs: 0,
        scored,
    };
    Pass::new(traced, cursor)
}

const WRITES: [Kind; 2] = [Kind::Ingest, Kind::Group];
/// A whole block: its writes, its trim and its checkpoint.
const BLOCK: [Kind; 4] = [Kind::Ingest, Kind::Group, Kind::Remove, Kind::Checkpoint];

struct Inputs {
    seed: SeedInputs,
    training: TrainingSet,
    /// Ingest + group-commit pairs per block.
    pairs: usize,
}

impl Inputs {
    fn generate(config: &RunConfig, sizes: &Sizes) -> Inputs {
        let seed = SeedInputs::generate(config, sizes);
        let training = layers::training_set(&seed.pipeline, &seed.seed_corpus);
        Inputs {
            seed,
            training,
            pairs: sizes.durable_pairs,
        }
    }

    /// True if the corpus still holds the entities `pairs` more rounds
    /// ingest after `next`.
    fn fits(&self, next: usize, pairs: usize) -> bool {
        next + pairs * 2 * INGEST_BATCH <= self.seed.dataset.num_entities()
    }
}

/// `pairs` rounds of one scored ingest and one group commit from
/// `dataset.profiles[next..]`.  A `block` then trims the oldest live
/// entities back to the seed size, checkpoints and counts as a block; the
/// tail does none of that.  Returns false, doing nothing, once the corpus
/// has too few entities left.
fn write_ops<E: Engine>(
    engine: &mut E,
    inputs: &Inputs,
    pairs: usize,
    block: bool,
    pass: &mut Pass,
    record: &mut Record,
) -> bool {
    let Pass {
        t,
        tally,
        state: cursor,
    } = pass;
    if !inputs.fits(cursor.next, pairs) {
        return false;
    }
    let profiles = &inputs.seed.dataset.profiles;
    // The client's own work — cloning profiles into mutation records before
    // the block, folding the acknowledged deltas into its pairs after it —
    // stays outside the block's clock.
    let first = cursor.next;
    let groups: Vec<Vec<MutationRecord>> = (0..pairs)
        .map(|pair| {
            let start = first + pair * 2 * INGEST_BATCH + INGEST_BATCH;
            profiles[start..start + INGEST_BATCH]
                .chunks(GROUP_BATCH)
                .map(|chunk| MutationRecord::Ingest(chunk.to_vec()))
                .collect()
        })
        .collect();
    let trimmed: Vec<EntityId> = (cursor.oldest..cursor.oldest + pairs * 2 * INGEST_BATCH)
        .map(|e| EntityId(e as u32))
        .collect();
    let reader = engine.reader();
    let mut deltas: Vec<DeltaBatch> = Vec::new();
    let ((), seconds) = t.timed("iteration", |t| {
        let mut sample_reader = |t: &mut Tracer| {
            if t.is_on() {
                let start = Instant::now();
                std::hint::black_box(reader.load());
                cursor.reader_ns.push(start.elapsed().as_nanos() as f64);
            }
        };
        for group in &groups {
            let batch = &profiles[cursor.next..cursor.next + INGEST_BATCH];
            let (delta, seconds) =
                t.timed("er-shard.ingest", |_| record.op_ok(|| engine.ingest(batch)));
            tally.sample(Kind::Ingest, seconds);
            deltas.extend(delta);
            sample_reader(t);
            let (grouped, seconds) = t.timed("er-shard.apply_group", |_| {
                record.op_ok(|| engine.group(group))
            });
            tally.sample(Kind::Group, seconds);
            deltas.append(&mut grouped.unwrap_or_default());
            sample_reader(t);
            cursor.next += 2 * INGEST_BATCH;
        }
        if block {
            let (delta, seconds) = t.timed("er-shard.remove", |_| {
                record.op_ok(|| engine.remove(&trimmed))
            });
            tally.sample(Kind::Remove, seconds);
            deltas.extend(delta);
            cursor.oldest += trimmed.len();
            let (_, seconds) = t.timed("er-shard.checkpoint", |_| {
                record.op_ok(|| engine.checkpoint())
            });
            tally.sample(Kind::Checkpoint, seconds);
        }
    });
    if block {
        tally.block_s.push(seconds);
    }
    for delta in &deltas {
        cursor.delta_pairs += delta.num_additions();
        if let Some(scored) = &mut cursor.scored {
            fold(scored, delta);
        }
    }
    true
}

/// One checkpointed block.
fn block<E: Engine>(engine: &mut E, inputs: &Inputs, pass: &mut Pass, record: &mut Record) -> bool {
    write_ops(engine, inputs, inputs.pairs, true, pass, record)
}

/// The un-checkpointed writes that leave recovery a WAL tail to replay.
/// They belong to no block, so their latencies are not kept.
fn tail<E: Engine>(engine: &mut E, inputs: &Inputs, pass: &mut Pass, record: &mut Record) {
    let kept = std::mem::take(&mut pass.tally);
    write_ops(
        engine,
        inputs,
        (inputs.pairs / 5).max(1),
        false,
        pass,
        record,
    );
    pass.tally = kept;
}

/// An in-memory service holding the seed corpus, and the scored pairs
/// seeding it produced.
fn seeded_service(inputs: &Inputs, shards: usize) -> (Service, Scored) {
    let seed = &inputs.seed;
    let config = layers::stream_config(&seed.seed_corpus, &seed.pipeline);
    let mut service = Service::new(config, TokenKeys, shards)
        .expect("token blocking has no block-size cap to disagree on")
        .with_model(layers::fit(&seed.pipeline, &inputs.training));
    let mut scored = Scored::new();
    fold(&mut scored, &service.ingest(&seed.seed_corpus.profiles));
    (service, scored)
}

fn durable_service(inputs: &Inputs) -> (DurableService, Scratch, Scored) {
    let scratch = Scratch::new();
    let (service, scored) = seeded_service(inputs, SHARDS);
    let durable = service
        .persist_to(&scratch.0)
        .expect("the scratch directory accepts a fresh store");
    (durable, scratch, scored)
}

/// Drops the service, recovers it from its directory and checks that the
/// recovered state is the acknowledged one.  Returns the recovery seconds
/// and the recovered service.
fn restart(
    durable: DurableService,
    dir: &Path,
    acknowledged_entities: usize,
    threads: usize,
    t: &mut Tracer,
    record: &mut Record,
) -> (f64, Option<DurableService>) {
    let fingerprint = durable.fingerprint();
    let entities = durable.num_entities();
    let alive = durable.num_alive();
    let view = durable.view();
    drop(durable);
    let (recovered, seconds) = t.timed("er-persist.recover", |_| {
        record.op_ok(|| DurableService::recover_from(dir, TokenKeys, threads))
    });
    if let Some(recovered) = &recovered {
        record.check(
            "recovered fingerprint, entity and alive counts equal the pre-drop state",
            (
                recovered.fingerprint(),
                recovered.num_entities(),
                recovered.num_alive(),
            ) == (fingerprint, entities, alive),
        );
        record.check(
            "recovered view equals the pre-drop view block for block",
            layers::blocks_equal(&recovered.view(), &view),
        );
        record.check(
            "every acknowledged batch is present after recovery",
            recovered.num_entities() == acknowledged_entities,
        );
    }
    (seconds, recovered)
}

/// Blocks after which peak memory is read and the client's answer kept for
/// evaluation.  A run makes about 13; taking both after a fixed few — which
/// every run reaches — rather than wherever the clock stops it keeps them a
/// function of the seed alone: a faster build gets further in the same
/// seconds, holds more retired ids by then, and would be charged for it in
/// `peak_rss_bytes`.
const FIXED_BLOCKS: usize = 4;

/// Quality of what the service's client held after `FIXED_BLOCKS` blocks,
/// when entities `alive` were alive: BLAST and RCNP over their candidate
/// pairs, each with the probability the acknowledged deltas gave it.
/// Incremental scoring across the shards, group commits and retractions
/// all sit between the writes and these numbers.
fn set_answer_quality(
    record: &mut Record,
    inputs: &Inputs,
    alive: std::ops::Range<usize>,
    scored: &Scored,
) {
    let seed = &inputs.seed;
    let threads = seed.pipeline.effective_threads();
    let trimmed: Vec<EntityId> = (0..alive.start).map(|e| EntityId(e as u32)).collect();
    let (corpus, alive) =
        layers::alive_corpus(&layers::dataset_prefix(&seed.dataset, alive.end), &trimmed);
    let blocks = layers::build_blocks(&corpus, &TokenKeys, threads);
    let candidates = layers::candidate_pairs(&blocks, threads);
    record.check(
        "the client holds no pair the service retracted",
        scored.len() <= candidates.len(),
    );
    batch::set_scored_quality(
        record,
        &seed.pipeline,
        &corpus,
        &alive,
        &blocks,
        &candidates,
        scored,
    );
}

fn set_latencies(record: &mut Record, tally: &Tally) {
    record.set("ingest_p50_ms", stats::median(tally.ms(Kind::Ingest)));
    record.set(
        "ingest_p95_ms",
        tally.block_percentile_ms(Kind::Ingest, 95.0),
    );
}

fn sizes_of(inputs: &Inputs, blocks: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("entities", inputs.seed.dataset.num_entities() as f64),
        (
            "seed_entities",
            inputs.seed.seed_corpus.num_entities() as f64,
        ),
        ("shards", SHARDS as f64),
        ("blocks", blocks as f64),
    ]
}

pub fn run(config: &RunConfig, record: &mut Record) {
    let sizes = Sizes::new(config.shrink);
    if config.trace {
        return traced(config, record, &sizes);
    }
    let ((inputs, mut durable, scratch, scored), setup_s) = repeat_setup(config, || {
        let inputs = Inputs::generate(config, &sizes);
        let (durable, scratch, scored) = durable_service(&inputs);
        (inputs, durable, scratch, scored)
    });
    record.set_min("setup_s", setup_s);

    let mut pass = pass(false, sizes.stream_seed, Some(scored));
    let mut answer = None;
    for_seconds(config.seconds, FIXED_BLOCKS, || {
        let more = block(&mut durable, &inputs, &mut pass, record);
        if more && pass.tally.block_s.len() == FIXED_BLOCKS {
            record.set("peak_rss_bytes", host::peak_rss_bytes() as f64);
            // The client stops keeping pairs: the answer is what it holds.
            let cursor = &mut pass.state;
            answer = cursor
                .scored
                .take()
                .map(|scored| (cursor.oldest..cursor.next, scored));
        }
        more
    });
    tail(&mut durable, &inputs, &mut pass, record);
    let (recovery_s, recovered) = restart(
        durable,
        &scratch.0,
        pass.state.next,
        config.threads,
        &mut pass.t,
        record,
    );
    record.set("recovery_s", recovery_s);
    drop((recovered, scratch));
    if let Some((alive, scored)) = answer {
        set_answer_quality(record, &inputs, alive, &scored);
    }

    let tally = pass.tally;
    set_latencies(record, &tally);
    record.sizes = sizes_of(&inputs, tally.block_s.len());
    record
        .sizes
        .push(("final_entities", pass.state.next as f64));
    record.set_median("wall_s", tally.block_s);
}

fn traced(config: &RunConfig, record: &mut Record, sizes: &Sizes) {
    // Five services fed the same blocks in lockstep, so that drift over
    // the run and the order of the passes cancel out of every difference:
    // the durable service untraced with er-obs on, then off (the overhead
    // bases), the durable service traced, and the in-memory service with 4
    // shards and with 1 — what the durable run adds to the first is
    // er-persist, what 4 shards add over 1 is er-shard.
    let seeded = sizes.stream_seed;
    let (mut obs_on, mut obs_off) = (pass(false, seeded, None), pass(false, seeded, None));
    let mut logged = pass(true, seeded, None);
    let (mut sharded, mut single) = (pass(true, seeded, None), pass(true, seeded, None));

    let (inputs, generate_s) = logged
        .t
        .timed("er-datasets.generate", |_| Inputs::generate(config, sizes));
    record.set_dataset_metrics(generate_s, &inputs.seed.dataset);
    let (mut on_durable, on_scratch, _) = durable_service(&inputs);
    let (mut off_durable, off_scratch, _) = durable_service(&inputs);
    let (mut durable, scratch, _) = durable_service(&inputs);
    let (mut sharded_service, _) = seeded_service(&inputs, SHARDS);
    let (mut single_service, _) = seeded_service(&inputs, 1);

    let (mut epoch_publishes, mut wal_bytes, mut snapshot_bytes) = (0.0, 0.0, 0.0);
    let start = layers::obs_reading();
    let mut done = 0;
    for_seconds(config.seconds, 1, || {
        if !inputs.fits(logged.state.next, inputs.pairs) {
            return false;
        }
        // The three durable services take turns going first: whoever
        // follows finds the block's profiles warm in cache.
        for turn in 0..3 {
            match (turn + done) % 3 {
                0 => {
                    block(&mut on_durable, &inputs, &mut obs_on, record);
                }
                1 => {
                    layers::set_obs_enabled(false);
                    block(&mut off_durable, &inputs, &mut obs_off, record);
                    layers::set_obs_enabled(true);
                }
                _ => {
                    let before = layers::obs_reading();
                    block(&mut durable, &inputs, &mut logged, record);
                    let after = layers::obs_reading();
                    epoch_publishes += after.since(&before, "shard_epochs_published_total");
                    wal_bytes += after.since(&before, "persist_wal_append_bytes_total");
                    snapshot_bytes += after.since(&before, "persist_snapshot_bytes_total");
                }
            }
        }
        block(&mut sharded_service, &inputs, &mut sharded, record);
        block(&mut single_service, &inputs, &mut single, record);
        done += 1;
        true
    });
    let fsync_p50_us = layers::obs_reading().histogram_p50_since(&start, "persist_fsync_ns") / 1e3;
    drop((on_durable, on_scratch, off_durable, off_scratch));
    drop((sharded_service, single_service));

    // The traced service is then restarted.
    let (wal_appends, wal_syncs) = (durable.wal_appends() as f64, durable.wal_syncs() as f64);
    tail(&mut durable, &inputs, &mut logged, record);
    let disk_bytes = layers::dir_bytes(&scratch.0) as f64;
    let held_entities = durable.num_alive() as f64;
    let (recover_s, recovered) = restart(
        durable,
        &scratch.0,
        logged.state.next,
        config.threads,
        &mut logged.t,
        record,
    );
    let replayed = recovered
        .as_ref()
        .and_then(|service| service.recovery_report())
        .map_or(0.0, |report| report.records_replayed as f64);
    drop((recovered, scratch));

    // Times and counts are per block, so they add up to `wall_s`.
    let k = logged.tally.block_s.len() as f64;
    let t = &logged.t;
    record.set("er-shard.ingest_s", t.total("er-shard.ingest") / k);
    record.set(
        "er-shard.apply_group_s",
        t.total("er-shard.apply_group") / k,
    );
    record.set(
        "er-shard.group_p50_ms",
        stats::median(logged.tally.ms(Kind::Group)),
    );
    record.set("er-shard.remove_s", t.total("er-shard.remove") / k);
    record.set("er-shard.checkpoint_s", t.total("er-shard.checkpoint") / k);
    record.set(
        "er-shard.checkpoint_p50_ms",
        stats::median(logged.tally.ms(Kind::Checkpoint)),
    );
    record.set("er-shard.epoch_publishes", epoch_publishes / k);
    record.set(
        "er-shard.reader_load_p50_ns",
        stats::median(&logged.state.reader_ns),
    );
    record.set(
        "er-shard.shard_overhead_s",
        sharded.typical_s(&WRITES) - single.typical_s(&WRITES),
    );
    record.set(
        "er-persist.durable_overhead_s",
        logged.typical_s(&BLOCK) - sharded.typical_s(&BLOCK),
    );
    record.set("er-persist.wal_appends", wal_appends / k);
    record.set("er-persist.wal_syncs", wal_syncs / k);
    let batches_per_block = (inputs.pairs * (1 + INGEST_BATCH / GROUP_BATCH)) as f64;
    record.set(
        "er-persist.fsyncs_per_batch",
        wal_syncs / (k * batches_per_block),
    );
    record.set("er-persist.wal_bytes", wal_bytes / k);
    record.set("er-persist.fsync_p50_us", fsync_p50_us);
    record.set("er-persist.snapshot_bytes", snapshot_bytes / k);
    record.set(
        "er-persist.disk_bytes_per_entity",
        disk_bytes / held_entities,
    );
    record.set("er-persist.records_replayed", replayed);
    record.set("er-persist.recover_s", recover_s);
    record.set("recovery_s", recover_s);
    // Under the shard layer: the single-shard service is the streaming
    // blocker plus epoch publication.
    let single_writes_s = single.typical_s(&WRITES);
    record.set("er-stream.ingest_s", single_writes_s);
    if single_writes_s > 0.0 {
        let written = (inputs.pairs * 2 * INGEST_BATCH) as f64;
        record.set("er-stream.entities_per_s", written / single_writes_s);
    }
    record.set("er-stream.delta_pairs", logged.state.delta_pairs as f64 / k);
    set_latencies(record, &logged.tally);
    record.set(
        "er-stream.ingest_p99_ms",
        stats::percentile(logged.tally.ms(Kind::Ingest), 99.0),
    );

    record.set("trace.overhead_pct", logged.overhead_pct(&obs_on, &BLOCK));
    record.set("er-obs.overhead_pct", obs_on.overhead_pct(&obs_off, &BLOCK));
    record.set(
        "trace.attributed_pct",
        100.0 * t.attributed_share("iteration", ""),
    );
    record.sizes = sizes_of(&inputs, logged.tally.block_s.len());
    record.trace = Some(t.to_json(64));
    record.keep_pass_walls(
        obs_on.tally.block_s,
        obs_off.tally.block_s,
        logged.tally.block_s,
    );
}
