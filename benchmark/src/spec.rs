//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, per-layer metrics.  `BENCHMARK.json` at the repository root is
//! this table rendered (`-- spec` prints it; a self-test keeps them equal).

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    DirtySparse,
    CcDense,
    StreamCrud,
    DurableShard,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 4] = [DirtySparse, CcDense, StreamCrud, DurableShard];

    pub fn name(self) -> &'static str {
        match self {
            DirtySparse => "dirty_sparse",
            CcDense => "cc_dense",
            StreamCrud => "stream_crud",
            DurableShard => "durable_shard",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, sizes included (one line, ≤200 chars).
    pub fn why(self) -> &'static str {
        match self {
            DirtySparse => {
                "Dirty ER, 250k entities, ~2.1M candidate pairs (~8/entity): token blocking is \
                 ~57% of a BLAST+RCNP batch run, so er-blocking changes show here and \
                 scoreboard changes barely do"
            }
            CcDense => {
                "Clean-Clean Movies x5, 46k entities, ~11M pairs (~240/entity), all schemes, \
                 streamed scoring: blocking ~5%, fused scoring ~43%, sampling+training ~16%; \
                 the mirror image of dirty_sparse"
            }
            StreamCrud => {
                "StreamingPipeline on a 50k seed of scal-300k: closed-loop ingest(64), update(32), \
                 2x remove(32) at constant corpus size, compaction, drains; er-stream, \
                 LiveView, schedule: untouched by batch"
            }
            DurableShard => {
                "4-shard durable service on a 50k seed of scal-300k: ingest(64) alternating with \
                 8x8 group commits, trim + checkpoint per 128 ops, then recovery; the only \
                 workload where er-persist and er-shard work"
            }
        }
    }
}

/// `run_seconds`: how long the driver asks one run to measure, and the
/// default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// R: how many times `run` repeats each workload.
pub const REPS: usize = 3;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
    /// For quality metrics compared at the same seed: the absolute
    /// tolerance `compare` applies instead of `bound` (they are
    /// deterministic per seed, so any real movement is a changed answer).
    pub same_seed_abs: Option<f64>,
    pub workloads: &'static [Workload],
}

impl EndToEnd {
    /// Metrics defined on every workload are the ones `BENCHMARK.json`
    /// lists under `end_to_end` (the driver requires each of those from
    /// every workload); the workload-scoped ones are gated by `compare`
    /// and listed among the per-layer metrics.
    pub fn on_every_workload(&self) -> bool {
        self.workloads.len() == Workload::ALL.len()
    }

    pub fn applies_to(&self, workload: Workload) -> bool {
        self.workloads.contains(&workload)
    }
}

const EVERY: &[Workload] = &Workload::ALL;
const STREAMING: &[Workload] = &[StreamCrud, DurableShard];

const fn quality(name: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ratio",
        higher_is_better: true,
        bound,
        same_seed_abs: Some(0.002),
        workloads: EVERY,
    }
}

const fn latency(name: &'static str, workloads: &'static [Workload]) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        same_seed_abs: None,
        workloads,
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_abs: None,
        workloads: EVERY,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_abs: None,
        workloads: EVERY,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.15,
        same_seed_abs: None,
        workloads: EVERY,
    },
    quality("pc_blast", 0.05),
    quality("f1_blast", 0.10),
    quality("pc_rcnp", 0.05),
    quality("f1_rcnp", 0.10),
    latency("ingest_p50_ms", STREAMING),
    latency("ingest_p95_ms", STREAMING),
    latency("update_p50_ms", &[StreamCrud]),
    latency("remove_p50_ms", &[StreamCrud]),
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_abs: None,
        workloads: &[DurableShard],
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Slugs of `AlgorithmKind::all()`, in that order.
pub const ALGORITHMS: [&str; 8] = ["bcl", "wep", "wnp", "rwnp", "blast", "cep", "cnp", "rcnp"];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

/// `(name, unit, higher is better)`; names ending in `.*` expand to one
/// metric per pruning algorithm.
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("er-datasets.generate_s", "s", false),
    ("er-datasets.entities", "count", true),
    ("er-datasets.duplicates", "count", true),
    ("er-core.tokenize_s", "s", false),
    ("er-blocking.token_blocking_s", "s", false),
    ("er-blocking.build_self_s", "s", false),
    ("er-blocking.purging_s", "s", false),
    ("er-blocking.filtering_s", "s", false),
    ("er-blocking.stats_s", "s", false),
    ("er-blocking.entities_per_s", "1/s", true),
    ("er-blocking.parallel_speedup", "ratio", true),
    ("er-blocking.blocks_raw", "count", false),
    ("er-blocking.blocks_cleaned", "count", false),
    ("er-blocking.keys_interned", "count", false),
    ("er-blocking.postings_scattered", "count", false),
    ("er-blocking.candidates_s", "s", false),
    ("er-blocking.stream_build_s", "s", false),
    ("er-blocking.candidate_pairs", "count", false),
    ("er-blocking.pairs_per_s", "1/s", true),
    ("er-blocking.index_bytes", "bytes", false),
    ("er-blocking.stream_aggregate_bytes", "bytes", false),
    ("er-features.context_s", "s", false),
    ("er-features.score_s", "s", false),
    ("er-features.pairs_per_s", "1/s", true),
    ("er-features.parallel_speedup", "ratio", true),
    ("er-features.scratch_bytes_hwm", "bytes", false),
    ("er-features.dense_entities", "count", true),
    ("er-features.radix_entities", "count", false),
    ("er-learn.sample_s", "s", false),
    ("er-learn.fit_s", "s", false),
    ("er-learn.training_rows", "count", false),
    ("meta-blocking.prune_s.*", "s", false),
    ("meta-blocking.retained.*", "count", false),
    ("meta-blocking.stream_overhead_s", "s", false),
    ("meta-blocking.drain_p50_ms", "ms", false),
    ("er-eval.evaluate_s", "s", false),
    ("er-eval.pc.*", "ratio", true),
    ("er-eval.pq.*", "ratio", true),
    ("er-eval.f1.*", "ratio", true),
    ("er-eval.blocks_pc", "ratio", true),
    ("er-eval.blocks_pq", "ratio", true),
    ("er-eval.reduction_ratio.*", "ratio", true),
    ("er-stream.ingest_s", "s", false),
    ("er-stream.update_s", "s", false),
    ("er-stream.remove_s", "s", false),
    ("er-stream.compact_s", "s", false),
    ("er-stream.compact_p50_ms", "ms", false),
    ("er-stream.ingest_p99_ms", "ms", false),
    ("er-stream.entities_per_s", "1/s", true),
    ("er-stream.delta_pairs", "count", false),
    ("er-stream.retractions", "count", false),
    ("er-stream.rescored", "count", false),
    ("er-stream.revivals", "count", false),
    ("er-shard.ingest_s", "s", false),
    ("er-shard.apply_group_s", "s", false),
    ("er-shard.group_p50_ms", "ms", false),
    ("er-shard.remove_s", "s", false),
    ("er-shard.checkpoint_s", "s", false),
    ("er-shard.checkpoint_p50_ms", "ms", false),
    ("er-shard.epoch_publishes", "count", false),
    ("er-shard.reader_load_p50_ns", "ns", false),
    ("er-shard.shard_overhead_s", "s", false),
    ("er-persist.durable_overhead_s", "s", false),
    ("er-persist.wal_appends", "count", false),
    ("er-persist.wal_syncs", "count", false),
    ("er-persist.fsyncs_per_batch", "ratio", false),
    ("er-persist.wal_bytes", "bytes", false),
    ("er-persist.fsync_p50_us", "us", false),
    ("er-persist.snapshot_bytes", "bytes", false),
    ("er-persist.disk_bytes_per_entity", "bytes", false),
    ("er-persist.records_replayed", "count", false),
    ("er-persist.recover_s", "s", false),
    ("er-obs.overhead_pct", "%", false),
    ("trace.overhead_pct", "%", false),
    ("trace.attributed_pct", "%", true),
];

/// Every per-layer metric a traced run reports: the layer table expanded
/// per algorithm, then the workload-scoped end-to-end metrics.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for &(name, unit, higher_is_better) in PER_LAYER {
        match name.strip_suffix('*') {
            Some(prefix) => out.extend(ALGORITHMS.iter().map(|alg| PerLayer {
                name: format!("{prefix}{alg}"),
                unit,
                higher_is_better,
            })),
            None => out.push(PerLayer {
                name: name.to_string(),
                unit,
                higher_is_better,
            }),
        }
    }
    out.extend(
        END_TO_END
            .iter()
            .filter(|m| !m.on_every_workload())
            .map(|m| PerLayer {
                name: m.name.to_string(),
                unit: m.unit,
                higher_is_better: m.higher_is_better,
            }),
    );
    out
}

/// The unit of any declared metric (empty for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    if let Some(metric) = end_to_end(name) {
        return metric.unit;
    }
    PER_LAYER
        .iter()
        .find(|(pattern, ..)| match pattern.strip_suffix('*') {
            Some(prefix) => name
                .strip_prefix(prefix)
                .is_some_and(|alg| ALGORITHMS.contains(&alg)),
            None => *pattern == name,
        })
        .map_or("", |&(_, unit, _)| unit)
}

fn better(higher_is_better: bool) -> Json {
    Json::from(if higher_is_better { "higher" } else { "lower" })
}

/// The content of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::from).collect()),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::from(w.name())), ("why", Json::from(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.on_every_workload())
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        // The scoped end-to-end metrics appear in both lists by design.
        let scoped = END_TO_END.iter().filter(|m| !m.on_every_workload()).count();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total - scoped);
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn every_declared_metric_has_its_unit() {
        for metric in per_layer() {
            assert_eq!(unit_of(&metric.name), metric.unit, "{}", metric.name);
        }
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("er-eval.pc.nonesuch"), "");
    }

    #[test]
    fn contract_limits_hold() {
        for workload in Workload::ALL {
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert!(!workload.why().contains('\n'));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }
}
