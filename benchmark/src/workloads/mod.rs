//! The four workloads and what one run of any of them produces.
//!
//! Every workload is a closed loop with one client: the next call is made
//! when the previous one returns.  Inputs are generated in-process from
//! the seed; the library only ever sees the generated data.

mod batch;
mod durable;
mod stream;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::json::Json;
use crate::layers::{self, Dataset, MetaBlockingConfig};
use crate::spec::{self, Workload};
use crate::stats;
use crate::trace::Tracer;

/// The warm-up pass and the self-tests run at 1/100 of the declared sizes.
pub const SMOKE_SHRINK: f64 = 100.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed section measures; every loop still makes at
    /// least one pass, so 0 means "one pass".
    pub seconds: f64,
    pub trace: bool,
    /// Divisor on the declared sizes (1 for a real run).
    pub shrink: f64,
    pub threads: usize,
}

/// The declared input sizes, divided by `shrink`.
pub struct Sizes {
    pub dirty_entities: usize,
    pub movies_scale: f64,
    /// Labelled pairs per class the classifier trains on: 250, the paper's
    /// default experimental setting.  At its final 25-per-class setting F1
    /// swings by ±10 % with the drawn sample (0.72–0.91 on `cc_dense` at
    /// one data seed), which no bound across seeds could hold; at 250 it
    /// moves by about a percent.
    pub per_class: usize,
    /// Corpus and bootstrap-seed sizes of the two streaming workloads.
    pub stream_entities: usize,
    pub stream_seed: usize,
    /// `stream_crud`: cycles of ingest/update/remove/remove per block.
    pub crud_cycles: usize,
    /// `durable_shard`: ingest + group-commit pairs per block.
    pub durable_pairs: usize,
}

impl Sizes {
    pub fn new(shrink: f64) -> Sizes {
        let scaled = |n: usize| ((n as f64 / shrink).round() as usize).max(1);
        Sizes {
            dirty_entities: scaled(250_000),
            movies_scale: 5.0 / shrink,
            per_class: scaled(250).max(25),
            stream_entities: scaled(300_000),
            stream_seed: scaled(50_000),
            crud_cycles: scaled(50),
            durable_pairs: scaled(64),
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Record {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// Per-iteration values behind the reported medians.
    pub samples: BTreeMap<String, Vec<f64>>,
    pub sizes: Vec<(&'static str, f64)>,
    pub trace: Option<Json>,
}

impl Record {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        // `+ 0.0` turns the `-0.0` an empty sum yields into `0.0`.
        self.metrics.insert(name.into(), value + 0.0);
    }

    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, stats::median(&samples));
        self.samples.insert(name.to_string(), samples);
    }

    pub fn set_min(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, stats::min(&samples));
        self.samples.insert(name.to_string(), samples);
    }

    /// Runs one operation: counts it, and counts it failed if it panics
    /// (the panic stops at this boundary).
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some(value),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// [`Record::op`] for a fallible operation: `Err` fails it too.
    pub fn op_ok<T, E: std::fmt::Display>(
        &mut self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.op(f)? {
            Ok(value) => Some(value),
            Err(error) => {
                eprintln!("operation failed: {error}");
                self.failed += 1;
                None
            }
        }
    }

    /// A correctness check; a check that does not hold is a failed
    /// operation.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            eprintln!("check failed: {name}");
            self.failed += 1;
        }
        self.checks.push((name.to_string(), holds));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The er-datasets layer of a traced run.
    fn set_dataset_metrics(&mut self, generate_s: f64, dataset: &Dataset) {
        self.set("er-datasets.generate_s", generate_s);
        self.set("er-datasets.entities", dataset.num_entities() as f64);
        self.set("er-datasets.duplicates", dataset.num_duplicates() as f64);
    }

    /// Keeps the iteration / block times of a traced run's three like
    /// passes.
    fn keep_pass_walls(&mut self, obs_on: Vec<f64>, obs_off: Vec<f64>, traced: Vec<f64>) {
        self.samples.insert("wall_s".into(), obs_on);
        self.samples.insert("wall_s.obs_off".into(), obs_off);
        self.samples.insert("wall_s.traced".into(), traced);
    }
}

/// What both streaming workloads start from: `scal-<n>`, its first
/// `stream_seed` entities as the corpus the engine is seeded with, and the
/// pipeline configuration the model is trained under.
struct SeedInputs {
    dataset: Dataset,
    seed_corpus: Dataset,
    pipeline: MetaBlockingConfig,
}

impl SeedInputs {
    fn generate(config: &RunConfig, sizes: &Sizes) -> SeedInputs {
        let dataset = layers::dirty_dataset(sizes.stream_entities, config.seed);
        let seed_corpus = layers::dataset_prefix(&dataset, sizes.stream_seed);
        SeedInputs {
            dataset,
            seed_corpus,
            pipeline: layers::batch_config(false, config.threads, sizes.per_class),
        }
    }
}

/// An untraced full-size run sets up at least `SETUP_REPS` times and until
/// `SETUP_SECONDS` have gone; `setup_s` is the fastest.  A set-up is mostly
/// first-touch page faults, which this sandbox prices in two modes about 2×
/// apart: one cold set-up spreads by 9–36 % between runs of one commit, the
/// median of three by 10–26 %, the fastest of three by 7–12 % — and still
/// fell into the slow mode in 4 runs of 10 on `cc_dense`, whose 60 ms
/// set-up three repetitions do not sample for long enough.  The README has
/// the measurements.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;

/// Calls `setup` repeatedly (once, unless the run reports `setup_s`),
/// keeping the last result, and returns it with each repetition's seconds.
fn repeat_setup<T>(config: &RunConfig, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    // Traced runs, the warm-up pass and the self-tests set up once.
    let once = config.trace || config.shrink != 1.0;
    let clock = Instant::now();
    let mut seconds = Vec::new();
    let mut last = None;
    loop {
        // Release the previous repetition's state before building the
        // next, as a fresh process would.
        drop(last.take());
        let start = Instant::now();
        let built = setup();
        seconds.push(start.elapsed().as_secs_f64());
        let enough = seconds.len() >= SETUP_REPS && clock.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if once || enough {
            return (built, seconds);
        }
        last = Some(built);
    }
}

/// Keeps calling `pass` until `seconds` have elapsed and it has been called
/// `at_least` times (once, if that is 0), or until it returns false.
fn for_seconds(seconds: f64, at_least: usize, mut pass: impl FnMut() -> bool) {
    let clock = Instant::now();
    let mut passes = 0;
    loop {
        passes += 1;
        if !pass() || (passes >= at_least && clock.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
}

fn percent(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        100.0 * (value - base) / base
    } else {
        0.0
    }
}

/// The kinds of operation the two streaming workloads time.
#[derive(Clone, Copy)]
enum Kind {
    Ingest,
    Update,
    Remove,
    Group,
    Drain,
    Compact,
    Checkpoint,
}

/// Each block's seconds and each operation's latency (ms) by kind.
#[derive(Default)]
struct Tally {
    block_s: Vec<f64>,
    latency_ms: [Vec<f64>; 7],
}

impl Tally {
    fn sample(&mut self, kind: Kind, seconds: f64) {
        self.latency_ms[kind as usize].push(seconds * 1e3);
    }

    fn ms(&self, kind: Kind) -> &[f64] {
        &self.latency_ms[kind as usize]
    }

    /// The median over the blocks of each block's `p`-th percentile
    /// latency of `kind` (every block runs `kind` equally often).  A
    /// busy stretch of the sandbox lifts the tail of the blocks it falls
    /// on; taken per block, those blocks are outvoted by the rest, where a
    /// percentile over the whole run would be made of them.
    fn block_percentile_ms(&self, kind: Kind, p: f64) -> f64 {
        let samples = self.ms(kind);
        let per_block = (samples.len() / self.block_s.len().max(1)).max(1);
        let blocks: Vec<f64> = samples
            .chunks_exact(per_block)
            .map(|block| stats::percentile(block, p))
            .collect();
        stats::median(&blocks)
    }
}

/// One engine's pass over a streaming workload's blocks: its spans (if
/// traced), its tally, and whatever else the workload keeps per engine.
struct Pass<S> {
    t: Tracer,
    tally: Tally,
    state: S,
}

impl<S> Pass<S> {
    fn new(traced: bool, state: S) -> Pass<S> {
        Pass {
            t: Tracer::new(traced),
            tally: Tally::default(),
            state,
        }
    }

    /// Seconds a typical block spends in `kinds`: each kind's median
    /// latency times how often a block runs it.  Differences between
    /// passes are taken on this rather than on raw sums, which one
    /// descheduled op or slow fsync can swing by more than the difference
    /// being measured.
    fn typical_s(&self, kinds: &[Kind]) -> f64 {
        let per_run: f64 = kinds
            .iter()
            .map(|&kind| self.tally.ms(kind))
            .map(|ms| stats::median(ms) * ms.len() as f64 / 1e3)
            .sum();
        per_run / self.tally.block_s.len().max(1) as f64
    }

    /// How much slower this pass ran `kinds` than `base` ran the same
    /// operations, in percent: the median of the op-by-op latency ratios.
    /// The passes run in lockstep, so each ratio compares one op with
    /// itself moments apart and the median shrugs off the ops the
    /// scheduler interrupted.
    fn overhead_pct(&self, base: &Pass<S>, kinds: &[Kind]) -> f64 {
        let ratios: Vec<f64> = kinds
            .iter()
            .flat_map(|&kind| self.tally.ms(kind).iter().zip(base.tally.ms(kind)))
            .filter(|(_, &base)| base > 0.0)
            .map(|(pass, base)| pass / base)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            100.0 * (stats::median(&ratios) - 1.0)
        }
    }
}

/// Runs the workload once, after one untimed warm-up pass at 1/100 size
/// (code paths, lazy statics and the allocator warm; nothing of it is
/// kept).
pub fn execute(config: &RunConfig) -> Record {
    if config.shrink == 1.0 {
        run(&RunConfig {
            seconds: 0.0,
            trace: false,
            shrink: SMOKE_SHRINK,
            ..config.clone()
        });
    }
    run(config)
}

fn run(config: &RunConfig) -> Record {
    let mut record = Record::default();
    if config.trace {
        // A traced run reports every per-layer metric; layers the workload
        // never enters stay at 0.
        for metric in spec::per_layer() {
            record.set(metric.name, 0.0);
        }
    }
    match config.workload {
        Workload::DirtySparse | Workload::CcDense => batch::run(config, &mut record),
        Workload::StreamCrud => stream::run(config, &mut record),
        Workload::DurableShard => durable::run(config, &mut record),
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Record {
        run(&RunConfig {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            shrink: SMOKE_SHRINK,
            threads: 2,
        })
    }

    #[test]
    fn untraced_smoke_emits_exactly_the_declared_end_to_end_metrics() {
        for workload in Workload::ALL {
            let record = smoke(workload, false);
            assert_eq!(record.failed, 0, "{}: {:?}", workload.name(), record.checks);
            assert!(record.attempted > 0);
            let expected: Vec<&str> = spec::END_TO_END
                .iter()
                .filter(|m| m.applies_to(workload))
                .map(|m| m.name)
                .collect();
            let mut emitted: Vec<&str> = record.metrics.keys().map(String::as_str).collect();
            emitted.sort_by_key(|name| expected.iter().position(|e| e == name));
            assert_eq!(emitted, expected, "{}", workload.name());
            for (name, value) in &record.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn traced_smoke_emits_exactly_the_declared_per_layer_metrics() {
        let declared: Vec<String> = {
            let mut names: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
            names.sort();
            names
        };
        for workload in Workload::ALL {
            let record = smoke(workload, true);
            assert_eq!(record.failed, 0, "{}: {:?}", workload.name(), record.checks);
            let emitted: Vec<String> = record.metrics.keys().cloned().collect();
            assert_eq!(emitted, declared, "{}", workload.name());
            assert!(record.metrics.values().all(|v| v.is_finite()));
            assert!(record.trace.is_some());
        }
    }

    #[test]
    fn a_panicking_operation_is_counted_not_propagated() {
        let mut record = Record::default();
        assert_eq!(record.op(|| 3), Some(3));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let lost: Option<()> = record.op(|| panic!("boom"));
        std::panic::set_hook(hook);
        assert!(lost.is_none());
        assert!(record.op_ok(|| Err::<(), _>("refused")).is_none());
        record.check("holds", true);
        record.check("does not hold", false);
        assert_eq!((record.attempted, record.failed), (5, 3));
        assert!(!record.correct());
    }
}
