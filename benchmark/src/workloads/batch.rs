//! `dirty_sparse` and `cc_dense`: the paper's batch workflow.
//!
//! One iteration of the timed section is `MetaBlockingPipeline::run` with
//! BLAST, `Effectiveness::evaluate`, then the same with RCNP — the two
//! headline algorithms (the paper's best weight- and cardinality-based
//! ones).  The traced run decomposes the same iteration into its calls
//! into each layer and must reproduce the pipeline's output bit for bit.

use std::collections::HashMap;
use std::time::Instant;

use super::{for_seconds, percent, repeat_setup, Record, RunConfig, Sizes};
use crate::host;
use crate::layers::{
    self, AlgorithmKind, BlockStats, CachedScores, CandidatePairs, CandidateStream,
    CsrBlockCollection, Dataset, Effectiveness, EntityId, FeatureContext, FeatureMatrix,
    MetaBlockingConfig, MetaBlockingPipeline, PairId, ProbabilisticClassifier,
    StreamFeatureContext,
};
use crate::spec::{Workload, ALGORITHMS};
use crate::stats;
use crate::trace::Tracer;

const HEADLINE: [AlgorithmKind; 2] = [AlgorithmKind::Blast, AlgorithmKind::Rcnp];

fn slug(algorithm: AlgorithmKind) -> &'static str {
    let position = AlgorithmKind::all()
        .iter()
        .position(|&a| a == algorithm)
        .expect("every algorithm is in AlgorithmKind::all()");
    ALGORITHMS[position]
}

/// What one pipeline run produced, reduced to what two runs are compared
/// on: the probabilities and retained ids enter as hashes so that holding
/// a reference does not add to the workload's peak memory.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    algorithm: &'static str,
    candidates: usize,
    retained: usize,
    probabilities_hash: u64,
    retained_hash: u64,
    effectiveness: Effectiveness,
}

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(
    algorithm: AlgorithmKind,
    probabilities: &[f64],
    retained: &[PairId],
    effectiveness: Effectiveness,
) -> Digest {
    Digest {
        algorithm: slug(algorithm),
        candidates: probabilities.len(),
        retained: retained.len(),
        probabilities_hash: fnv(probabilities.iter().map(|p| p.to_bits())),
        retained_hash: fnv(retained.iter().map(|id| id.index() as u64)),
        effectiveness,
    }
}

fn evaluate(pairs: &[(EntityId, EntityId)], dataset: &Dataset) -> Effectiveness {
    Effectiveness::evaluate(pairs, &dataset.ground_truth, dataset.num_duplicates())
}

/// One iteration through the library's own entry point.  Returns the
/// digests and each run's seconds inside the library (digesting is not
/// timed).
fn pipeline_iteration(
    config: &MetaBlockingConfig,
    dataset: &Dataset,
    record: &mut Record,
) -> (Vec<Digest>, Vec<f64>) {
    let mut digests = Vec::new();
    let mut seconds = Vec::new();
    for algorithm in HEADLINE {
        let start = Instant::now();
        let outcome = record
            .op_ok(|| MetaBlockingPipeline::new(config.clone()).run(dataset, algorithm))
            .map(|outcome| {
                let effectiveness = evaluate(&outcome.retained_pairs(), dataset);
                (outcome, effectiveness)
            });
        seconds.push(start.elapsed().as_secs_f64());
        if let Some((outcome, effectiveness)) = outcome {
            digests.push(digest(
                algorithm,
                outcome.probabilities.as_slice(),
                &outcome.retained,
                effectiveness,
            ));
        }
    }
    (digests, seconds)
}

/// Reports the headline quality metrics from an iteration's digests.
fn set_quality(record: &mut Record, digests: &[Digest]) {
    for d in digests {
        record.set(format!("pc_{}", d.algorithm), d.effectiveness.recall);
        record.set(format!("f1_{}", d.algorithm), d.effectiveness.f1);
    }
}

/// The headline quality metrics of a streaming session, evaluated on its
/// alive entities as a corpus of their own (`alive[new id]` = the id the
/// session knows the entity by): BLAST and RCNP prune the candidate pairs
/// of `blocks` — that corpus's block collection — by the probabilities in
/// `scored`, which the engine computed incrementally, and the retained
/// pairs are evaluated against the surviving ground truth.
pub(super) fn set_scored_quality(
    record: &mut Record,
    config: &MetaBlockingConfig,
    corpus: &Dataset,
    alive: &[EntityId],
    blocks: &CsrBlockCollection,
    candidates: &CandidatePairs,
    scored: &HashMap<(EntityId, EntityId), f64>,
) {
    let probabilities: Option<Vec<f64>> = candidates
        .pairs()
        .iter()
        .map(|(a, b)| scored.get(&(alive[a.index()], alive[b.index()])).copied())
        .collect();
    record.check(
        "the engine scored every candidate pair of the surviving corpus",
        probabilities.is_some(),
    );
    let Some(probabilities) = probabilities else {
        return;
    };
    for algorithm in HEADLINE {
        let effectiveness = record.op(|| {
            let retained = algorithm
                .build_with_csr(blocks, config.blast_ratio)
                .prune(candidates, &CachedScores::new(probabilities.clone()));
            let pairs: Vec<_> = retained.iter().map(|&id| candidates.pair(id)).collect();
            evaluate(&pairs, corpus)
        });
        if let Some(effectiveness) = effectiveness {
            record.set(format!("pc_{}", slug(algorithm)), effectiveness.recall);
            record.set(format!("f1_{}", slug(algorithm)), effectiveness.f1);
        }
    }
}

/// Corpus-level numbers a decomposed run reads off the intermediate
/// structures.
#[derive(Default)]
struct Facts {
    blocks_raw: usize,
    blocks_cleaned: usize,
    candidate_pairs: usize,
    index_bytes: usize,
    stream_aggregate_bytes: usize,
    training_rows: usize,
    blocks_quality: Option<Effectiveness>,
    /// Per pruned algorithm: retained pairs and their quality.
    pruned: Vec<(AlgorithmKind, usize, Effectiveness)>,
}

struct Plan<'a> {
    /// Pruned and digested: what the iteration compares with the pipeline.
    algorithms: &'a [AlgorithmKind],
    /// Pruned under an `extras` span that the overhead comparison leaves
    /// out (the rest of the quality table).
    extras: &'a [AlgorithmKind],
    /// Also evaluate the input block collection (PC/PQ of the candidates).
    blocks_quality: bool,
}

/// The workflow of `MetaBlockingPipeline::run`, call by call, each call a
/// span named after the layer it enters.  Also returns the seconds spent
/// under `extras`.
fn decomposed(
    t: &mut Tracer,
    config: &MetaBlockingConfig,
    dataset: &Dataset,
    plan: &Plan<'_>,
) -> (Vec<Digest>, Facts, f64) {
    let threads = config.effective_threads();
    let set = config.feature_set;
    let mut facts = Facts::default();

    let raw = t.span("er-blocking.token_blocking", |_| {
        layers::token_blocking_csr(dataset, threads)
    });
    facts.blocks_raw = raw.num_blocks();
    // Intermediate collections are released inside the span that consumed
    // them, as the library's own workflow function does on return.
    let purged = t.span("er-blocking.purging", move |_| {
        layers::block_purging_csr(&raw)
    });
    let blocks = t.span("er-blocking.filtering", move |_| {
        layers::block_filtering_csr(&purged, layers::DEFAULT_FILTERING_RATIO)
    });
    facts.blocks_cleaned = blocks.num_blocks();
    let stats = t.span("er-blocking.stats", |_| BlockStats::from_csr(&blocks));
    let candidates = t.span("er-blocking.candidates", |_| {
        CandidatePairs::try_from_stats(&stats, threads)
            .expect("benchmark corpora stay far below the pair-index ceiling")
    });
    facts.candidate_pairs = candidates.len();
    facts.index_bytes = candidates.index_bytes();
    let context = t.span("er-features.context", |_| {
        FeatureContext::new(&stats, &candidates)
    });

    let sample = t.span("er-learn.sample", |_| {
        layers::balanced_sample(config, dataset, &candidates)
    });
    let training = t.span("er-features.pair_features", |_| {
        layers::training_rows(config, &candidates, &context, &sample)
    });
    facts.training_rows = training.len();
    let model = t.span("er-learn.fit", |_| layers::fit(config, &training));

    let probability = |row: &[f64]| model.probability(row).clamp(0.0, 1.0);
    let scores = match config.candidate_chunk_pairs {
        Some(chunk_pairs) => {
            let stream = t.span("er-blocking.stream_build", |_| {
                CandidateStream::from_stats(&stats, threads)
            });
            facts.stream_aggregate_bytes = stream.aggregate_bytes();
            let stream_context = t.span("er-features.context", |_| {
                StreamFeatureContext::new(&stats, stream.lcp_table())
            });
            t.span("er-features.score", |_| {
                CachedScores::new(FeatureMatrix::score_stream_with(
                    &stream_context,
                    &stream,
                    set,
                    threads,
                    &config.scoreboard,
                    chunk_pairs,
                    probability,
                ))
            })
        }
        None => t.span("er-features.score", |_| {
            CachedScores::new(FeatureMatrix::score_rows_with(
                &context,
                set,
                threads,
                &config.scoreboard,
                probability,
            ))
        }),
    };

    let mut prune = |t: &mut Tracer, algorithm: AlgorithmKind| {
        let retained = t.span(format!("meta-blocking.prune.{}", slug(algorithm)), |_| {
            algorithm
                .build_with_csr(&blocks, config.blast_ratio)
                .prune(&candidates, &scores)
        });
        let effectiveness = t.span("er-eval.evaluate", |_| {
            let pairs: Vec<_> = retained.iter().map(|&id| candidates.pair(id)).collect();
            evaluate(&pairs, dataset)
        });
        facts
            .pruned
            .push((algorithm, retained.len(), effectiveness));
        digest(algorithm, scores.as_slice(), &retained, effectiveness)
    };
    let digests = plan.algorithms.iter().map(|&a| prune(t, a)).collect();
    let mut extras_s = 0.0;
    if !plan.extras.is_empty() {
        extras_s = t
            .timed("extras", |t| {
                for &algorithm in plan.extras {
                    prune(t, algorithm);
                }
            })
            .1;
    }
    if plan.blocks_quality {
        facts.blocks_quality =
            Some(t.span("er-eval.blocks", |_| evaluate(candidates.pairs(), dataset)));
    }
    (digests, facts, extras_s)
}

/// One decomposed iteration: a decomposed run per headline algorithm, like
/// the pipeline iteration it mirrors.  The per-run seconds leave out what
/// ran under `extras`.
fn decomposed_iteration(
    t: &mut Tracer,
    config: &MetaBlockingConfig,
    dataset: &Dataset,
    extras: &[AlgorithmKind],
) -> (Vec<Digest>, Facts, Vec<f64>) {
    let mut digests = Vec::new();
    let mut facts = Facts::default();
    let mut seconds = Vec::new();
    for (i, algorithm) in HEADLINE.into_iter().enumerate() {
        let last = i + 1 == HEADLINE.len();
        let plan = Plan {
            algorithms: &[algorithm],
            extras: if last { extras } else { &[] },
            blocks_quality: false,
        };
        let start = Instant::now();
        let (mut run_digests, mut run_facts, extras_s) = decomposed(t, config, dataset, &plan);
        seconds.push(start.elapsed().as_secs_f64() - extras_s);
        digests.append(&mut run_digests);
        run_facts.pruned.splice(0..0, facts.pruned).for_each(drop);
        facts = run_facts;
    }
    (digests, facts, seconds)
}

pub fn run(config: &RunConfig, record: &mut Record) {
    let dense = config.workload == Workload::CcDense;
    let sizes = Sizes::new(config.shrink);
    let (dataset, setup_s) = repeat_setup(config, || {
        if dense {
            layers::movies_dataset(sizes.movies_scale, config.seed)
        } else {
            layers::dirty_dataset(sizes.dirty_entities, config.seed)
        }
    });
    record.sizes = vec![
        ("entities", dataset.num_entities() as f64),
        ("duplicates", dataset.num_duplicates() as f64),
    ];
    let pipeline = layers::batch_config(dense, config.threads, sizes.per_class);
    if config.trace {
        record.set_dataset_metrics(stats::min(&setup_s), &dataset);
        traced(config, record, &pipeline, &dataset, dense);
    } else {
        record.set_min("setup_s", setup_s);
        untraced(config, record, &pipeline, &dataset);
    }
}

fn untraced(
    config: &RunConfig,
    record: &mut Record,
    pipeline: &MetaBlockingConfig,
    dataset: &Dataset,
) {
    let mut walls = Vec::new();
    let mut reference: Option<Vec<Digest>> = None;
    for_seconds(config.seconds, 1, || {
        let (digests, seconds) = pipeline_iteration(pipeline, dataset, record);
        walls.push(seconds.iter().sum());
        match &reference {
            None => reference = Some(digests),
            Some(first) => record.check("every iteration repeats the first", *first == digests),
        }
        true
    });
    record.set("peak_rss_bytes", host::peak_rss_bytes() as f64);
    // The iterations are the same work repeated and interference only ever
    // adds time, so the fastest one estimates the program's own cost; a
    // median moves by a quarter when a run falls into one of the shared
    // sandbox's busy minutes, the minimum by a few percent.
    record.set_min("wall_s", walls);

    let reference = reference.unwrap_or_default();
    let (digests, ..) = decomposed_iteration(&mut Tracer::new(false), pipeline, dataset, &[]);
    record.check(
        "decomposed run is bit-identical to MetaBlockingPipeline::run",
        digests == reference,
    );
    record.check(
        "both headline algorithms retained pairs",
        reference.len() == HEADLINE.len() && reference.iter().all(|d| d.retained > 0),
    );
    set_quality(record, &reference);
}

/// The iterations of one pass of a traced run (untraced, er-obs off, or
/// traced).
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    /// The fastest run seen so far of each headline algorithm.
    best_runs: [f64; HEADLINE.len()],
}

impl Passes {
    fn note(&mut self, run_seconds: &[f64]) {
        let first = self.walls.is_empty();
        self.walls.push(run_seconds.iter().sum());
        for (best, &seconds) in self.best_runs.iter_mut().zip(run_seconds) {
            *best = if first { seconds } else { best.min(seconds) };
        }
    }

    /// An iteration made of each algorithm's fastest run.  Overheads
    /// compare these: interference only ever adds time, and taking the
    /// minimum per run rather than per iteration halves the window a busy
    /// moment has to miss.
    fn best_s(&self) -> f64 {
        self.best_runs.iter().sum()
    }
}

fn traced(
    config: &RunConfig,
    record: &mut Record,
    pipeline: &MetaBlockingConfig,
    dataset: &Dataset,
    dense: bool,
) {
    let threads = config.threads;
    // On the dense workload the last run of each traced iteration also
    // prunes with the six other algorithms, under `extras`.
    let extras: Vec<AlgorithmKind> = AlgorithmKind::all()
        .into_iter()
        .filter(|a| dense && !HEADLINE.contains(a))
        .collect();

    // Rounds of three iterations — the pipeline untraced with er-obs at its
    // default, untraced with er-obs off (the two overhead bases), and the
    // decomposed traced one — interleaved so that warm-up and drift fall on
    // all three alike.
    let mut t = Tracer::new(true);
    let (mut obs_on, mut obs_off, mut traced) =
        (Passes::default(), Passes::default(), Passes::default());
    let mut reference: Option<Vec<Digest>> = None;
    let mut facts = Facts::default();
    let (mut keys_interned, mut postings_scattered) = (0.0, 0.0);
    let (mut dense_entities, mut radix_entities) = (0.0, 0.0);
    layers::reset_scoreboard_metrics();
    let min_rounds = if config.seconds > 0.0 { 2 } else { 1 };
    let clock = Instant::now();
    while traced.walls.len() < min_rounds || clock.elapsed().as_secs_f64() < config.seconds {
        let (digests, seconds) = pipeline_iteration(pipeline, dataset, record);
        obs_on.note(&seconds);
        let reference = reference.get_or_insert(digests);

        layers::set_obs_enabled(false);
        obs_off.note(&pipeline_iteration(pipeline, dataset, record).1);
        layers::set_obs_enabled(true);

        let (before, board_before) = (layers::obs_reading(), layers::scoreboard_metrics());
        let (digests, iteration_facts, seconds) = t.span("iteration", |t| {
            decomposed_iteration(t, pipeline, dataset, &extras)
        });
        let (after, board_after) = (layers::obs_reading(), layers::scoreboard_metrics());
        keys_interned += after.since(&before, "blocking_keys_interned_total");
        postings_scattered += after.since(&before, "blocking_postings_scattered_total");
        dense_entities += (board_after.dense_entities - board_before.dense_entities) as f64;
        radix_entities += (board_after.radix_entities - board_before.radix_entities) as f64;
        record.attempted += HEADLINE.len() as u64;
        record.check(
            "decomposed run is bit-identical to MetaBlockingPipeline::run",
            digests == *reference,
        );
        facts = iteration_facts;
        traced.note(&seconds);
    }
    let scratch_bytes_hwm = layers::scoreboard_metrics().scratch_bytes_hwm;
    let iterations = traced.walls.len() as f64;
    let runs = iterations * HEADLINE.len() as f64;

    // Outside the iteration: the tokeniser alone (as often as an iteration
    // tokenises), and one single-threaded run for the speed-up ratios and
    // the quality of the input block collection.
    for _ in HEADLINE {
        t.span("er-core.tokenize", |_| {
            std::hint::black_box(layers::tokenize_all(dataset, threads))
        });
    }
    let mut single = Tracer::new(true);
    let single_config = MetaBlockingConfig {
        threads: Some(1),
        ..pipeline.clone()
    };
    let plan = Plan {
        algorithms: &[],
        extras: &[],
        blocks_quality: true,
    };
    let (_, single_facts, _) = decomposed(&mut single, &single_config, dataset, &plan);

    // Times are per iteration (two pipeline runs), so they add up to
    // `wall_s`; rates and counts are per run.
    let per_iteration = |name: &str| t.total(name) / iterations;
    let per_run = |name: &str| t.total(name) / runs;
    let rate = |work: f64, seconds: f64| if seconds > 0.0 { work / seconds } else { 0.0 };
    let entities = dataset.num_entities() as f64;
    let pairs = facts.candidate_pairs as f64;

    for (metric, span) in [
        ("er-blocking.token_blocking_s", "er-blocking.token_blocking"),
        ("er-blocking.purging_s", "er-blocking.purging"),
        ("er-blocking.filtering_s", "er-blocking.filtering"),
        ("er-blocking.stats_s", "er-blocking.stats"),
        ("er-blocking.candidates_s", "er-blocking.candidates"),
        ("er-blocking.stream_build_s", "er-blocking.stream_build"),
        ("er-features.context_s", "er-features.context"),
        ("er-features.score_s", "er-features.score"),
        ("er-learn.sample_s", "er-learn.sample"),
        ("er-learn.fit_s", "er-learn.fit"),
    ] {
        record.set(metric, per_iteration(span));
    }
    // `er-core.tokenize` ran outside the iterations, once per headline run.
    let tokenize_s = t.total("er-core.tokenize");
    record.set("er-core.tokenize_s", tokenize_s);
    record.set(
        "er-blocking.build_self_s",
        per_iteration("er-blocking.token_blocking") - tokenize_s,
    );
    let blocking_run_s = per_run("er-blocking.token_blocking")
        + per_run("er-blocking.purging")
        + per_run("er-blocking.filtering");
    record.set("er-blocking.entities_per_s", rate(entities, blocking_run_s));
    record.set(
        "er-blocking.parallel_speedup",
        rate(
            single.total("er-blocking.token_blocking"),
            per_run("er-blocking.token_blocking"),
        ),
    );
    record.set("er-blocking.blocks_raw", facts.blocks_raw as f64);
    record.set("er-blocking.blocks_cleaned", facts.blocks_cleaned as f64);
    record.set("er-blocking.keys_interned", keys_interned / runs);
    record.set("er-blocking.postings_scattered", postings_scattered / runs);
    record.set("er-blocking.candidate_pairs", pairs);
    record.set(
        "er-blocking.pairs_per_s",
        rate(pairs, per_run("er-blocking.candidates")),
    );
    record.set("er-blocking.index_bytes", facts.index_bytes as f64);
    record.set(
        "er-blocking.stream_aggregate_bytes",
        facts.stream_aggregate_bytes as f64,
    );
    record.set(
        "er-features.pairs_per_s",
        rate(pairs, per_run("er-features.score")),
    );
    record.set(
        "er-features.parallel_speedup",
        rate(
            single.total("er-features.score"),
            per_run("er-features.score"),
        ),
    );
    record.set("er-features.scratch_bytes_hwm", scratch_bytes_hwm as f64);
    record.set("er-features.dense_entities", dense_entities / runs);
    record.set("er-features.radix_entities", radix_entities / runs);
    record.set("er-learn.training_rows", facts.training_rows as f64);

    // Evaluation of the headline algorithms only; the extras' share sits
    // under `extras`.
    let extras_eval_s: f64 = t
        .spans()
        .iter()
        .filter(|s| {
            s.name == "er-eval.evaluate" && s.parent.is_some_and(|p| t.spans()[p].name == "extras")
        })
        .map(|s| s.seconds())
        .sum();
    record.set(
        "er-eval.evaluate_s",
        (t.total("er-eval.evaluate") - extras_eval_s) / iterations,
    );
    let brute_force = layers::brute_force_comparisons(dataset);
    for &(algorithm, retained, effectiveness) in &facts.pruned {
        let alg = slug(algorithm);
        record.set(
            format!("meta-blocking.prune_s.{alg}"),
            per_iteration(&format!("meta-blocking.prune.{alg}")),
        );
        record.set(format!("meta-blocking.retained.{alg}"), retained as f64);
        record.set(format!("er-eval.pc.{alg}"), effectiveness.recall);
        record.set(format!("er-eval.pq.{alg}"), effectiveness.precision);
        record.set(format!("er-eval.f1.{alg}"), effectiveness.f1);
        record.set(
            format!("er-eval.reduction_ratio.{alg}"),
            1.0 - retained as f64 / brute_force,
        );
    }
    if let Some(blocks) = single_facts.blocks_quality {
        record.set("er-eval.blocks_pc", blocks.recall);
        record.set("er-eval.blocks_pq", blocks.precision);
    }

    record.set(
        "trace.overhead_pct",
        percent(traced.best_s(), obs_on.best_s()),
    );
    record.set(
        "er-obs.overhead_pct",
        percent(obs_on.best_s(), obs_off.best_s()),
    );
    record.set(
        "trace.attributed_pct",
        100.0 * t.attributed_share("iteration", "extras"),
    );
    record.keep_pass_walls(obs_on.walls, obs_off.walls, traced.walls);
    record.trace = Some(t.to_json(64));
}
