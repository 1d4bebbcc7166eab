//! Micro-bench: the unified parallel block-building engine.
//!
//! Sweeps thread counts through the sharded-interner CSR builder and compares
//! against the retained sequential reference builders
//! (`er_blocking::reference`), for all three redundancy-positive schemes, on
//! the two largest Clean-Clean catalog datasets (the Figure 7/9 workload).
//! Every engine run is checked for bit-identical output against the
//! reference before timing, so the speedups below never trade determinism
//! for throughput.
//!
//! Emits `BENCH_blocking.json` when `GSMB_BENCH_JSON` is set.

use bench::{
    assert_obs_overhead, banner, bench_catalog_options, bench_repetitions, report::Report,
};
use er_blocking::reference;
use er_blocking::{
    qgrams_blocking_csr, standard_blocking_workflow_csr, suffix_array_blocking_csr,
    token_blocking_csr, BlockCollection, SuffixArrayConfig,
};
use er_core::Dataset;
use er_datasets::{generate_catalog_dataset, DatasetName};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn time(repetitions: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..repetitions {
        f();
    }
    start.elapsed().as_secs_f64() / repetitions as f64
}

fn json_row(dataset: &str, scheme: &str, reference_s: f64, engine_s: &[f64]) -> String {
    let threads = THREAD_COUNTS
        .iter()
        .zip(engine_s)
        .map(|(t, s)| format!("\"{t}\": {s:.4}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "  {{\n",
            "    \"dataset\": \"{}\",\n",
            "    \"scheme\": \"{}\",\n",
            "    \"reference_s\": {:.4},\n",
            "    \"engine_s\": {{ {} }}\n",
            "  }}"
        ),
        dataset, scheme, reference_s, threads
    )
}

/// Benchmarks one scheme: the sequential reference against the engine at
/// every thread count, asserting bit-identical block output.  Returns the
/// JSON artifact row.
fn sweep(
    scheme: &str,
    dataset_name: &str,
    dataset: &Dataset,
    repetitions: usize,
    reference: &dyn Fn(&Dataset) -> BlockCollection,
    engine: &dyn Fn(&Dataset, usize) -> BlockCollection,
) -> String {
    let expected = reference(dataset);
    for threads in THREAD_COUNTS {
        let produced = engine(dataset, threads);
        assert_eq!(
            produced.blocks, expected.blocks,
            "{scheme}: engine output diverged at {threads} threads"
        );
    }

    let base = time(repetitions, || {
        criterion::black_box(reference(dataset));
    });
    print!("{scheme:<14} {base:>11.3}s");
    let mut engine_s = Vec::with_capacity(THREAD_COUNTS.len());
    for threads in THREAD_COUNTS {
        let t = time(repetitions, || {
            criterion::black_box(engine(dataset, threads));
        });
        print!(" {:>7.3}s ({:>4.2}x)", t, base / t);
        engine_s.push(t);
    }
    println!();
    json_row(dataset_name, scheme, base, &engine_s)
}

fn main() {
    banner("Micro-bench: parallel block building (reference vs engine, by thread count)");
    let repetitions = bench_repetitions();
    let options = bench_catalog_options();
    let suffix_config = SuffixArrayConfig::default();
    let mut json_entries: Vec<String> = Vec::new();
    let mut gate_dataset: Option<Dataset> = None;

    for name in DatasetName::largest_two() {
        let dataset = generate_catalog_dataset(name, &options)
            .unwrap_or_else(|e| panic!("failed to generate {name}: {e}"));
        println!("\n--- {} ({} entities) ---", name, dataset.num_entities());
        println!(
            "{:<14} {:>12} {:>16} {:>16} {:>16} {:>16}",
            "scheme", "reference", "t=1", "t=2", "t=4", "t=8"
        );
        let dataset_name = name.to_string();
        json_entries.push(sweep(
            "token",
            &dataset_name,
            &dataset,
            repetitions,
            &reference::token_blocking,
            &|ds, t| token_blocking_csr(ds, t).to_block_collection(),
        ));
        json_entries.push(sweep(
            "qgrams(3)",
            &dataset_name,
            &dataset,
            repetitions,
            &|ds| reference::qgrams_blocking(ds, 3),
            &|ds, t| qgrams_blocking_csr(ds, 3, t).to_block_collection(),
        ));
        json_entries.push(sweep(
            "suffix(4,50)",
            &dataset_name,
            &dataset,
            repetitions,
            &|ds| reference::suffix_array_blocking(ds, suffix_config),
            &|ds, t| suffix_array_blocking_csr(ds, suffix_config, t).to_block_collection(),
        ));

        // The full standard workflow (blocking + purging + filtering), CSR
        // end-to-end, without materialising the nested view.
        let base = time(repetitions, || {
            criterion::black_box(er_blocking::block_filtering(
                &er_blocking::block_purging(&reference::token_blocking(&dataset)),
                er_blocking::DEFAULT_FILTERING_RATIO,
            ));
        });
        print!("{:<14} {base:>11.3}s", "workflow");
        let mut engine_s = Vec::with_capacity(THREAD_COUNTS.len());
        for threads in THREAD_COUNTS {
            let t = time(repetitions, || {
                criterion::black_box(standard_blocking_workflow_csr(&dataset, threads));
            });
            print!(" {:>7.3}s ({:>4.2}x)", t, base / t);
            engine_s.push(t);
        }
        println!();
        json_entries.push(json_row(&dataset_name, "workflow", base, &engine_s));
        gate_dataset = Some(dataset);
    }

    // Overhead gate: the instrumented build (emit → group → order → assemble,
    // with its batched er-obs updates) must cost the same as with the
    // layer disabled, within 2%.
    println!();
    let gate_dataset = gate_dataset.expect("at least one dataset was benchmarked");
    let (disabled_s, enabled_s) = assert_obs_overhead("token_blocking_csr", 5, || {
        criterion::black_box(token_blocking_csr(&gate_dataset, 1));
    });

    Report::new("micro_blocking")
        .field("repetitions", repetitions)
        .field("obs_overhead_disabled_s", format!("{disabled_s:.4}"))
        .field("obs_overhead_enabled_s", format!("{enabled_s:.4}"))
        .rows("rows", json_entries)
        .write("BENCH_blocking.json");
}
