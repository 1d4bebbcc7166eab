//! Figure 17: scalability analysis over the synthetic Dirty ER datasets.
//!
//! Runs BCl vs BLAST (weight-based) and CNP vs RCNP (cardinality-based) over
//! the D10K…D300K analogues with logistic regression and 50 labelled
//! instances.  Expected shape: the generalized algorithms keep recall high
//! while improving precision/F1 by a large factor over their baselines, on
//! every dataset size.

use bench::{banner, bench_catalog_options, env_usize};
use er_blocking::{reference, standard_blocking_workflow_csr};
use er_datasets::{dirty_catalog, generate_dirty};
use er_eval::scalability::run_scalability;
use meta_blocking::pruning::AlgorithmKind;

/// Thread sweep of the parallel blocking engine over the Dirty ER datasets:
/// the full standard workflow (Token Blocking + Purging + Filtering) through
/// the CSR builder at 1/2/4/8 workers, against the retained sequential
/// reference path.
fn blocking_thread_sweep(options: &er_datasets::CatalogOptions, repetitions: usize) {
    println!("\n--- Blocking workflow: thread sweep (engine vs sequential reference) ---");
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "dataset", "entities", "reference", "t=1", "t=2", "t=4", "t=8"
    );
    for config in dirty_catalog(options) {
        let dataset = generate_dirty(&config).expect("dirty dataset generation failed");
        let time = |f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            for _ in 0..repetitions.max(1) {
                f();
            }
            start.elapsed().as_secs_f64() / repetitions.max(1) as f64
        };
        let base = time(&mut || {
            criterion::black_box(reference::block_filtering(
                &reference::block_purging(&reference::token_blocking(&dataset)),
                er_blocking::DEFAULT_FILTERING_RATIO,
            ));
        });
        print!(
            "{:<8} {:>10} {:>11.3}s",
            config.name,
            dataset.num_entities(),
            base
        );
        for threads in [1usize, 2, 4, 8] {
            let t = time(&mut || {
                criterion::black_box(standard_blocking_workflow_csr(&dataset, threads));
            });
            print!(" {:>5.3}s/{:>3.1}x", t, base / t);
        }
        println!();
    }
}

fn main() {
    banner("Figure 17: scalability over the Dirty ER datasets");
    let options = bench_catalog_options();
    let repetitions = env_usize("GSMB_SCALABILITY_REPS", 2);
    blocking_thread_sweep(&options, repetitions);
    let algorithms = [
        AlgorithmKind::Bcl,
        AlgorithmKind::Blast,
        AlgorithmKind::Cnp,
        AlgorithmKind::Rcnp,
    ];
    let points =
        run_scalability(&options, &algorithms, repetitions).expect("scalability run failed");

    println!(
        "{:<8} {:<8} {:>10} {:>12} {:>8} {:>10} {:>8} {:>9}",
        "dataset", "algo", "entities", "|C|", "recall", "precision", "F1", "RT(s)"
    );
    for point in &points {
        println!(
            "{:<8} {:<8} {:>10} {:>12} {:>8.4} {:>10.4} {:>8.4} {:>9.3}",
            point.dataset,
            point.algorithm.name(),
            point.num_entities,
            point.num_candidates,
            point.effectiveness.recall,
            point.effectiveness.precision,
            point.effectiveness.f1,
            point.rt_seconds
        );
    }
}
