//! `run` and `trace`: every workload, each run in its own re-executed
//! child process (so `VmHWM` is per run), gathered into one artifact.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::spec::{self, Workload};
use crate::{flag, host, parsed_flag, stats};

pub fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs one workload once in a child process and returns its full record.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tag: &str,
) -> Result<Json, String> {
    let out = host::scratch_root().join(format!(
        "{}-{}-{tag}.json",
        std::process::id(),
        workload.name()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the workload process: {e}"))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", workload.name()));
    }
    let record = read_json(&out);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir(host::scratch_root());
    record
}

fn number(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One workload's repetitions folded into median / min / max per metric.
fn fold(records: &[Json]) -> Json {
    let first = &records[0];
    let names: Vec<&str> = first
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|metrics| metrics.iter().map(|(name, _)| name.as_str()).collect())
        .unwrap_or_default();
    let mut failed: f64 = records.iter().map(|r| number(r, "ops_failed")).sum();
    let mut failed_checks: Vec<Json> = records
        .iter()
        .flat_map(|r| r.get("failed_checks").and_then(Json::as_arr).unwrap_or(&[]))
        .cloned()
        .collect();
    let mut metrics = Vec::new();
    for name in names {
        let entry = |r: &Json| r.get("metrics").and_then(|m| m.get(name)).cloned();
        let values: Vec<f64> = records
            .iter()
            .filter_map(|r| entry(r)?.get("value")?.as_f64())
            .collect();
        let unit = entry(first)
            .and_then(|e| e.get("unit")?.as_str().map(str::to_string))
            .unwrap_or_default();
        // Quality is deterministic per seed: repetitions must agree exactly.
        let exact = spec::end_to_end(name).is_some_and(|m| m.same_seed_abs.is_some());
        if exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            failed += 1.0;
            failed_checks.push(Json::from(format!("{name} identical across repetitions")));
        }
        metrics.push((
            name.to_string(),
            Json::obj([
                ("unit", Json::from(unit)),
                ("median", Json::from(stats::median(&values))),
                ("min", Json::from(stats::min(&values))),
                ("max", Json::from(stats::max(&values))),
                ("values", Json::from(values)),
            ]),
        ));
    }
    let attempted: f64 = records.iter().map(|r| number(r, "ops_attempted")).sum();
    let mut folded = vec![
        (
            "sizes".to_string(),
            first.get("sizes").cloned().unwrap_or(Json::Null),
        ),
        ("ops_attempted".to_string(), Json::from(attempted)),
        ("ops_failed".to_string(), Json::from(failed)),
        ("failed_checks".to_string(), Json::Arr(failed_checks)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ];
    if let Some(spans) = first.get("spans").filter(|s| **s != Json::Null) {
        folded.push(("trace".to_string(), spans.clone()));
    }
    Json::Obj(folded)
}

fn print_workload(name: &str, folded: &Json) {
    println!(
        "\n{name}: ops_attempted {} ops_failed {}",
        number(folded, "ops_attempted"),
        number(folded, "ops_failed")
    );
    for (metric, entry) in folded.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        println!(
            "  {metric:<40} {:>16.6} {:<6} [{:.6} .. {:.6}]",
            number(entry, "median"),
            entry.get("unit").and_then(Json::as_str).unwrap_or(""),
            number(entry, "min"),
            number(entry, "max"),
        );
    }
}

fn gather(args: &[String], trace: bool, default_out: &str) -> Result<ExitCode, String> {
    let seed = parsed_flag(args, "--seed", 1u64)?;
    let seconds = parsed_flag(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let reps = if trace { 1 } else { spec::REPS };
    let out = flag(args, "--out").map_or_else(|| results_dir().join(default_out), PathBuf::from);

    let mut workloads = Vec::new();
    let mut any_failed = false;
    for workload in Workload::ALL {
        let records = (0..reps)
            .map(|rep| child(workload, seed, seconds, trace, &rep.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let folded = fold(&records);
        print_workload(workload.name(), &folded);
        any_failed |= number(&folded, "ops_failed") > 0.0;
        workloads.push((workload.name().to_string(), folded));
    }
    let artifact = Json::obj([
        ("benchmark", Json::from("gsmb end-to-end")),
        ("kind", Json::from(if trace { "trace" } else { "run" })),
        ("host", host::facts()),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("reps", Json::from(reps)),
        ("workloads", Json::Obj(workloads)),
    ]);
    write_json(&out, &artifact)?;
    println!("\nwrote {}", out.display());
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `run`: R untraced repetitions of every workload → `BENCH_e2e.json`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    gather(args, false, "BENCH_e2e.json")
}

/// `trace`: one traced run of every workload → `trace.json`.
pub fn trace(args: &[String]) -> Result<ExitCode, String> {
    gather(args, true, "trace.json")
}
