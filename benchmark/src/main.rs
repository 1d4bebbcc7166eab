//! The repository's end-to-end benchmark.
//!
//! ```text
//! gsmb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! gsmb-benchmark run     [--seed <n>] [--seconds <s>] [--out <file>]
//! gsmb-benchmark trace   [--seed <n>] [--seconds <s>] [--out <file>]
//! gsmb-benchmark compare <base.json> <candidate.json>
//! gsmb-benchmark spec
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object `BENCHMARK.json`'s
//! contract describes.  `run` and `trace` re-execute it once per workload
//! and repetition (so peak memory is per run) and write the artifacts
//! under `benchmark/results/`; `compare` applies the bounds to two of
//! them.  See `benchmark/README.md`.

mod compare;
mod host;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use spec::Workload;
use workloads::{Record, RunConfig};

/// The value following `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       \
         run [--seed n] [--seconds s] [--out file] | trace [--seed n] [--seconds s] [--out file] \
         | compare <base.json> <candidate.json> | spec",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..]),
        Some("trace") => report::trace(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => single(&args),
    };
    outcome.unwrap_or_else(|problem| usage(&problem))
}

/// One run of one workload in this process.
fn single(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let config = RunConfig {
        workload,
        seed: parsed_flag(args, "--seed", 1u64)?,
        seconds: parsed_flag(args, "--seconds", spec::RUN_SECONDS as f64)?,
        trace: parsed_flag(args, "--trace", 0u8)? != 0,
        shrink: 1.0,
        threads: host::nproc(),
    };
    if !(config.seconds.is_finite() && config.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let record = workloads::execute(&config);

    println!(
        "{} seed={} seconds={} trace={} threads={}",
        workload.name(),
        config.seed,
        config.seconds,
        config.trace as u8,
        config.threads
    );
    for (name, value) in &record.metrics {
        println!("{name:<40} {value:>18.6} {}", spec::unit_of(name));
    }
    println!(
        "ops_attempted {} ops_failed {}",
        record.attempted, record.failed
    );
    if let Some(path) = flag(args, "--out") {
        report::write_json(path.as_ref(), &record_json(&config, &record))?;
    }
    println!("{}", contract_line(&config, &record).render());
    Ok(ExitCode::SUCCESS)
}

fn metric_json(name: &str, value: f64) -> Json {
    Json::obj([
        ("value", Json::from(value)),
        ("unit", Json::from(spec::unit_of(name))),
    ])
}

/// The result object the driver reads: every `end_to_end` metric of
/// `BENCHMARK.json` for an untraced run, every `per_layer` metric for a
/// traced one.
fn contract_line(config: &RunConfig, record: &Record) -> Json {
    let names: Vec<String> = if config.trace {
        spec::per_layer().into_iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END
            .iter()
            .filter(|m| m.on_every_workload())
            .map(|m| m.name.to_string())
            .collect()
    };
    let complete = names.iter().all(|name| record.metrics.contains_key(name));
    Json::obj([
        ("correct", Json::from(record.correct() && complete)),
        ("attempted", Json::from(record.attempted.max(1))),
        ("failed", Json::from(record.failed)),
        (
            "metrics",
            Json::Obj(
                names
                    .into_iter()
                    .map(|name| {
                        let value = record.metrics.get(&name).copied().unwrap_or(0.0);
                        let entry = metric_json(&name, value);
                        (name, entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Everything the run measured, for `--out`.
fn record_json(config: &RunConfig, record: &Record) -> Json {
    Json::obj([
        ("workload", Json::from(config.workload.name())),
        ("seed", Json::from(config.seed)),
        ("seconds", Json::from(config.seconds)),
        ("trace", Json::from(config.trace)),
        ("threads", Json::from(config.threads)),
        (
            "sizes",
            Json::Obj(
                record
                    .sizes
                    .iter()
                    .map(|&(name, value)| (name.to_string(), Json::from(value)))
                    .collect(),
            ),
        ),
        ("correct", Json::from(record.correct())),
        ("ops_attempted", Json::from(record.attempted)),
        ("ops_failed", Json::from(record.failed)),
        (
            "failed_checks",
            Json::Arr(
                record
                    .checks
                    .iter()
                    .filter(|(_, holds)| !holds)
                    .map(|(name, _)| Json::from(name.as_str()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                record
                    .metrics
                    .iter()
                    .map(|(name, &value)| (name.clone(), metric_json(name, value)))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                record
                    .samples
                    .iter()
                    .map(|(name, values)| (name.clone(), Json::from(values.clone())))
                    .collect(),
            ),
        ),
        ("spans", record.trace.clone().unwrap_or(Json::Null)),
    ])
}
