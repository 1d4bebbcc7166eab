//! Shared setup for the benchmark harness.
//!
//! Every bench target reproduces one table or figure of the paper.  They all
//! read their scale from environment variables so the default `cargo bench`
//! run finishes in minutes on a laptop while still exercising every code path;
//! raise the variables to approach the paper's original dataset sizes.
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `GSMB_SCALE` | multiplier on the Clean-Clean catalog entity counts | `0.5` |
//! | `GSMB_DIRTY_SCALE` | multiplier on the Dirty scalability dataset sizes | `0.02` |
//! | `GSMB_REPS` | repetitions averaged per experiment | `3` |
//! | `GSMB_FULL_SWEEP` | set to `1` to run the full 255-combination feature sweep | unset |
//! | `GSMB_SWEEP_DATASETS` | number of datasets used in the feature sweep | `4` |

use er_datasets::{generate_catalog_dataset, CatalogOptions, DatasetName};
use er_eval::experiment::PreparedDataset;

/// Reads an `f64` environment variable with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `usize` environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True if the named flag variable is set to a truthy value.
pub fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).ok().as_deref(),
        Some("1") | Some("true") | Some("yes")
    )
}

/// The catalog options used by the bench harness.
pub fn bench_catalog_options() -> CatalogOptions {
    CatalogOptions {
        scale: env_f64("GSMB_SCALE", 0.5),
        dirty_scale: env_f64("GSMB_DIRTY_SCALE", 0.02),
        ..CatalogOptions::default()
    }
}

/// Number of repetitions averaged per experiment.
pub fn bench_repetitions() -> usize {
    env_usize("GSMB_REPS", 3).max(1)
}

/// Generates and prepares (blocks) one catalog dataset.
pub fn prepare(name: DatasetName) -> PreparedDataset {
    let options = bench_catalog_options();
    let dataset = generate_catalog_dataset(name, &options)
        .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
    PreparedDataset::prepare(dataset).unwrap_or_else(|e| panic!("failed to prepare {name}: {e}"))
}

/// Prepares every catalog dataset, in Table 1 order.
pub fn prepare_all() -> Vec<PreparedDataset> {
    DatasetName::all().into_iter().map(prepare).collect()
}

/// Prepares the first `count` catalog datasets (the smaller ones), used by
/// the expensive sweeps.
pub fn prepare_subset(count: usize) -> Vec<PreparedDataset> {
    DatasetName::all()
        .into_iter()
        .take(count)
        .map(prepare)
        .collect()
}

/// Prints a section header so the bench output reads like the paper.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Where `BENCH_*.json` artifacts go, if requested: set `GSMB_BENCH_JSON`
/// to a directory, or to `1`/`true`/`yes` for the repository root.  Unset
/// means no artifact is written.
pub fn bench_json_dir() -> Option<std::path::PathBuf> {
    let value = std::env::var("GSMB_BENCH_JSON").ok()?;
    Some(match value.as_str() {
        "1" | "true" | "yes" => std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        directory => std::path::PathBuf::from(directory),
    })
}

/// Writes one `BENCH_*` artifact (JSON, Prometheus text, ...) if
/// `GSMB_BENCH_JSON` is set.  Returns the path written to.
pub fn write_bench_artifact(file_name: &str, contents: &str) -> Option<std::path::PathBuf> {
    let path = bench_json_dir()?.join(file_name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("failed to write {path:?}: {e}"));
    println!("\nbench artifact written to {}", path.display());
    Some(path)
}

/// Writes one `BENCH_*.json` artifact (hand-rolled JSON) if
/// `GSMB_BENCH_JSON` is set.  Returns the path written to.
pub fn write_bench_json(file_name: &str, json: &str) -> Option<std::path::PathBuf> {
    write_bench_artifact(file_name, json)
}

/// Writes the current er-obs registry as a `BENCH_*.prom` Prometheus text
/// artifact next to the JSON ones, if `GSMB_BENCH_JSON` is set.
pub fn write_bench_prometheus(file_name: &str) -> Option<std::path::PathBuf> {
    write_bench_artifact(file_name, &er_obs::snapshot().render_prometheus())
}

/// The median of what histogram `name` observed between two registry
/// snapshots, as the upper bound of the log2 bucket holding it (so within
/// 2× of the true median); 0 if it observed nothing in between.
pub fn histogram_p50_between(
    before: &er_obs::MetricsSnapshot,
    after: &er_obs::MetricsSnapshot,
    name: &str,
) -> u64 {
    let Some(now) = after.histogram(name) else {
        return 0;
    };
    let earlier = before.histogram(name);
    // Bucket lists are cumulative and stop at the last populated bucket.
    let earlier_up_to = |bound: u64| {
        earlier
            .and_then(|h| h.buckets.iter().take_while(|&&(b, _)| b <= bound).last())
            .map_or(0, |&(_, cumulative)| cumulative)
    };
    let observed = now.count - earlier.map_or(0, |h| h.count);
    now.buckets
        .iter()
        .find(|&&(bound, cumulative)| {
            observed > 0 && (cumulative - earlier_up_to(bound)) * 2 >= observed
        })
        .map_or(0, |&(bound, _)| bound)
}

/// The process-wide peak-RSS gauge every bench routes `VmHWM` samples
/// through, so memory tracking is one more registry consumer rather than a
/// bespoke side channel.
pub fn process_rss_gauge() -> &'static er_obs::Gauge {
    static GAUGE: std::sync::OnceLock<&'static er_obs::Gauge> = std::sync::OnceLock::new();
    GAUGE.get_or_init(|| {
        er_obs::gauge(
            "process_peak_rss_bytes_hwm",
            "Peak resident-set size of the process (VmHWM), bytes",
        )
    })
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface does not exist
/// (non-Linux).  Every sample is also published to
/// [`process_rss_gauge`], so the value shows up in Prometheus snapshots
/// alongside the pipeline metrics.  Reported in every bench JSON artifact
/// so memory growth is tracked alongside throughput across PRs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    let bytes = kb * 1024;
    process_rss_gauge().record_max(bytes);
    Some(bytes)
}

/// `peak_rss_bytes` rendered for a JSON field: the byte count, or `null`.
pub fn peak_rss_json() -> String {
    match peak_rss_bytes() {
        Some(bytes) => bytes.to_string(),
        None => "null".to_string(),
    }
}

/// Measures `workload` with the er-obs layer disabled and enabled
/// (interleaved best-of-`rounds`, so clock drift and cache warmth cancel)
/// and asserts the enabled path stays within 2% of the disabled one, plus
/// a small absolute floor for sub-millisecond workloads.  Leaves the layer
/// enabled.  Returns `(disabled_s, enabled_s)`.
pub fn assert_obs_overhead(label: &str, rounds: usize, mut workload: impl FnMut()) -> (f64, f64) {
    let time_once = |workload: &mut dyn FnMut()| -> f64 {
        let start = std::time::Instant::now();
        workload();
        start.elapsed().as_secs_f64()
    };
    // Warm up both arms before timing anything.
    er_obs::set_enabled(false);
    workload();
    er_obs::set_enabled(true);
    workload();

    let mut disabled_s = f64::INFINITY;
    let mut enabled_s = f64::INFINITY;
    for _ in 0..rounds.max(3) {
        er_obs::set_enabled(false);
        disabled_s = disabled_s.min(time_once(&mut workload));
        er_obs::set_enabled(true);
        enabled_s = enabled_s.min(time_once(&mut workload));
    }
    er_obs::set_enabled(true);

    let overhead = (enabled_s / disabled_s - 1.0) * 100.0;
    println!("obs overhead gate [{label}]: disabled {disabled_s:.4}s, enabled {enabled_s:.4}s ({overhead:+.2}%)");
    // 2% relative, with a 2ms absolute floor: best-of timing still jitters
    // by more than 2% on sub-100ms workloads, and an absolute floor keeps
    // the gate about instrumentation cost rather than scheduler noise.
    let budget = (disabled_s * 0.02).max(0.002);
    assert!(
        enabled_s <= disabled_s + budget,
        "er-obs overhead gate failed for {label}: disabled {disabled_s:.4}s vs enabled \
         {enabled_s:.4}s exceeds the 2% budget ({budget:.4}s)"
    );
    (disabled_s, enabled_s)
}

/// One `BENCH_*.json` artifact: the shared shape every micro/figure bench
/// emits — `bench` name, scalar fields in insertion order, a
/// `peak_rss_bytes` sample routed through [`process_rss_gauge`], then any
/// row arrays.  Replaces the per-bench hand-assembled footers.
pub mod report {
    /// Builder for the flat `BENCH_*.json` document.
    pub struct Report {
        bench: String,
        fields: Vec<(String, String)>,
        sections: Vec<(String, Vec<String>)>,
    }

    impl Report {
        /// A report for the bench called `bench`.
        pub fn new(bench: &str) -> Self {
            Report {
                bench: bench.to_string(),
                fields: Vec::new(),
                sections: Vec::new(),
            }
        }

        /// Adds one scalar field; `value` is spliced in as raw JSON
        /// (numbers and `null` pass through, strings must arrive quoted).
        pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }

        /// Adds one array of pre-rendered JSON rows under `key`.
        pub fn rows(mut self, key: &str, rows: Vec<String>) -> Self {
            self.sections.push((key.to_string(), rows));
            self
        }

        /// Renders the document (trailing newline included).
        pub fn render(&self) -> String {
            let mut entries = vec![format!("\"bench\": \"{}\"", self.bench)];
            for (key, value) in &self.fields {
                entries.push(format!("\"{key}\": {value}"));
            }
            entries.push(format!("\"peak_rss_bytes\": {}", super::peak_rss_json()));
            for (key, rows) in &self.sections {
                entries.push(format!("\"{key}\": [\n{}\n]", rows.join(",\n")));
            }
            format!("{{\n{}\n}}\n", entries.join(",\n"))
        }

        /// Writes the rendered document as `file_name` if
        /// `GSMB_BENCH_JSON` is set; returns the path written to.
        pub fn write(&self, file_name: &str) -> Option<std::path::PathBuf> {
            super::write_bench_json(file_name, &self.render())
        }
    }
}

/// Runs the feature-selection sweep (Tables 3 and 4) for one algorithm and
/// returns `(feature set, mean effectiveness)` sorted by descending F1.
///
/// By default only combinations of up to 5 schemes are evaluated; set
/// `GSMB_FULL_SWEEP=1` to cover all 255 combinations as in the paper.
pub fn feature_sweep(
    algorithm: meta_blocking::pruning::AlgorithmKind,
    prepared: &[PreparedDataset],
    repetitions: usize,
) -> Vec<(er_features::FeatureSet, er_eval::Effectiveness)> {
    use er_eval::experiment::{default_config, run_with_matrix};
    use er_eval::Effectiveness;
    use er_features::{FeatureMatrix, FeatureSet};
    use meta_blocking::pipeline::MetaBlockingConfig;
    use std::time::Duration;

    let full_sweep = env_flag("GSMB_FULL_SWEEP");
    let sets: Vec<FeatureSet> = FeatureSet::all_combinations()
        .filter(|s| full_sweep || s.num_schemes() <= 5)
        .collect();

    // One all-schemes matrix per dataset; every combination is a projection.
    let matrices: Vec<FeatureMatrix> = prepared
        .iter()
        .map(|p| p.build_features(FeatureSet::all_schemes()).0)
        .collect();

    let mut results = Vec::with_capacity(sets.len());
    for &set in &sets {
        let mut per_dataset = Vec::new();
        for (dataset, matrix) in prepared.iter().zip(&matrices) {
            let projected = matrix.project(set);
            let config = MetaBlockingConfig {
                feature_set: set,
                per_class: 250,
                ..default_config()
            };
            let mut per_run = Vec::new();
            for rep in 0..repetitions.max(1) {
                let seed = er_core::rng::derive_seed(config.seed, rep as u64);
                let runs = run_with_matrix(
                    dataset,
                    &projected,
                    Duration::ZERO,
                    &[algorithm],
                    &config,
                    seed,
                )
                .expect("sweep run failed");
                per_run.push(runs[0].effectiveness);
            }
            per_dataset.push(Effectiveness::mean(&per_run));
        }
        results.push((set, Effectiveness::mean(&per_dataset)));
    }
    results.sort_by(|a, b| b.1.f1.partial_cmp(&a.1.f1).unwrap());
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_helpers_fall_back_to_defaults() {
        assert_eq!(env_f64("GSMB_DOES_NOT_EXIST", 1.25), 1.25);
        assert_eq!(env_usize("GSMB_DOES_NOT_EXIST", 7), 7);
        assert!(!env_flag("GSMB_DOES_NOT_EXIST"));
    }

    #[test]
    fn bench_options_are_positive() {
        let options = bench_catalog_options();
        assert!(options.scale > 0.0);
        assert!(options.dirty_scale > 0.0);
        assert!(bench_repetitions() >= 1);
    }

    #[test]
    fn histogram_p50_between_reads_only_the_window() {
        let h = er_obs::histogram("bench_test_p50_window", "test-only");
        let empty = er_obs::snapshot();
        for _ in 0..9 {
            h.record(1_000_000); // before the window: must not count
        }
        let before = er_obs::snapshot();
        for v in [10, 12, 900, 1_000, 1_100] {
            h.record(v);
        }
        let after = er_obs::snapshot();
        let name = "bench_test_p50_window";
        assert_eq!(histogram_p50_between(&before, &before, name), 0);
        let p50 = histogram_p50_between(&before, &after, name);
        assert!((900..2 * 900).contains(&p50), "{p50}");
        // From an empty registry the nine large samples dominate.
        assert!(histogram_p50_between(&empty, &after, name) >= 1_000_000);
        assert_eq!(
            histogram_p50_between(&before, &after, "no_such_histogram"),
            0
        );
    }

    #[test]
    fn peak_rss_reads_vm_hwm_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            let bytes = rss.expect("VmHWM should exist on Linux");
            assert!(bytes > 0);
            // A high-water mark: the second read may be higher (the other
            // tests of this binary allocate meanwhile), never lower.
            let again: u64 = peak_rss_json().parse().expect("a plain integer");
            assert!(again >= bytes);
        } else {
            assert!(rss.is_none());
            assert_eq!(peak_rss_json(), "null");
        }
    }
}
