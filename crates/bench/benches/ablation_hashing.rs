//! Ablation: Fx hashing vs the default SipHash in the blocking inverted
//! index.
//!
//! Token Blocking hashes every attribute-value token of every profile; the
//! performance guide recommends an Fx-style hasher for such workloads.  This
//! bench re-implements the inverted-index construction with
//! `std::collections::HashMap` (SipHash) and compares it against the
//! `FxHashMap`-based implementation used by `er-blocking`.

use std::collections::HashMap;
use std::time::Instant;

use bench::{banner, bench_catalog_options};
use er_blocking::token_blocking_csr;
use er_core::EntityId;
use er_datasets::{generate_catalog_dataset, DatasetName};

fn main() {
    banner("Ablation: FxHash vs SipHash for the token inverted index");
    let options = bench_catalog_options();
    let dataset =
        generate_catalog_dataset(DatasetName::Movies, &options).expect("generation failed");

    let start = Instant::now();
    let fx_blocks = token_blocking_csr(&dataset, er_core::available_threads());
    let fx_time = start.elapsed();

    let start = Instant::now();
    let mut index: HashMap<String, Vec<EntityId>> = HashMap::new();
    for (i, profile) in dataset.profiles.iter().enumerate() {
        for token in profile.value_tokens() {
            index.entry(token).or_default().push(EntityId::from(i));
        }
    }
    let sip_entries: usize = index.values().map(Vec::len).sum();
    let sip_time = start.elapsed();

    println!(
        "FxHash token blocking: {:>8.3}s ({} blocks)",
        fx_time.as_secs_f64(),
        fx_blocks.num_blocks()
    );
    println!(
        "SipHash inverted index only: {:>8.3}s ({} assignments)",
        sip_time.as_secs_f64(),
        sip_entries
    );
    println!(
        "note: the FxHash figure includes block materialisation and filtering of useless blocks,"
    );
    println!("      so the honest comparison is the index-construction share of each run.");
}
