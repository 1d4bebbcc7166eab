//! Golden digests of the generated corpora.
//!
//! Every downstream number (blocks, candidate pairs, PC/PQ/F1) is a function
//! of the generated bytes, so a generator change that is meant to be a pure
//! speed-up must leave every corpus byte-identical.  Each digest below was
//! recorded from the generators before the guide-table sampler and the
//! allocation-free renderer replaced the plain binary search and the
//! per-token `format!`; a mismatch means a corpus changed.
//!
//! The digest is a CRC-64 (`er_core::crc64`) over the dataset's name, kind
//! split, and, per profile, the CRC-64 of its external id, attribute names
//! and values (each length-prefixed), followed by the ground-truth pairs.
//! Hashing each profile first keeps the digest buffer at 8 bytes per
//! profile, so the 10^6-entity corpus does not need a second copy of its
//! text.
//!
//! The 10^6-entity check is `#[ignore]`d only because an unoptimised build
//! takes minutes; CI runs it with
//! `cargo test --release -p er-datasets -- --ignored`.

use er_core::{crc64, Dataset};
use er_datasets::{
    dirty_catalog, generate_catalog_dataset, generate_dirty, generate_scalability, CatalogOptions,
    DatasetName, ScalabilityConfig,
};

fn push_text(buf: &mut Vec<u8>, text: &str) {
    buf.extend_from_slice(&(text.len() as u64).to_le_bytes());
    buf.extend_from_slice(text.as_bytes());
}

fn digest(dataset: &Dataset) -> u64 {
    let mut outer = Vec::with_capacity(8 * (dataset.profiles.len() + 4));
    push_text(&mut outer, &dataset.name);
    outer.extend_from_slice(&(dataset.split as u64).to_le_bytes());
    let mut profile_bytes = Vec::new();
    for profile in &dataset.profiles {
        profile_bytes.clear();
        push_text(&mut profile_bytes, &profile.external_id);
        profile_bytes.extend_from_slice(&(profile.attributes.len() as u64).to_le_bytes());
        for attribute in &profile.attributes {
            push_text(&mut profile_bytes, &attribute.name);
            push_text(&mut profile_bytes, &attribute.value);
        }
        outer.extend_from_slice(&crc64(&profile_bytes).to_le_bytes());
    }
    outer.extend_from_slice(&(dataset.ground_truth.len() as u64).to_le_bytes());
    for &(a, b) in dataset.ground_truth.pairs() {
        outer.extend_from_slice(&a.0.to_le_bytes());
        outer.extend_from_slice(&b.0.to_le_bytes());
    }
    crc64(&outer)
}

fn scalability_digest(num_entities: usize, seed: u64) -> u64 {
    digest(&generate_scalability(&ScalabilityConfig::at_scale(num_entities, seed)).unwrap())
}

/// Checks every `(label, actual, expected)` row and reports all mismatches
/// at once.
fn assert_digests(rows: &[(String, u64, u64)]) {
    let wrong: Vec<String> = rows
        .iter()
        .filter(|(_, actual, expected)| actual != expected)
        .map(|(label, actual, expected)| {
            format!("{label}: got {actual:#018x}, golden {expected:#018x}")
        })
        .collect();
    assert!(wrong.is_empty(), "corpora changed:\n{}", wrong.join("\n"));
}

#[test]
fn scalability_corpora_match_their_golden_digests() {
    let golden = [
        (2_000, 7, 0xe458_eb74_e6b8_7a51u64),
        (2_000, 8, 0xb3f1_90ce_e92e_695a),
        (50_000, 7, 0x391a_b267_d921_48f8),
        (50_000, 8, 0x6290_9350_33db_6f8d),
    ];
    let rows: Vec<(String, u64, u64)> = golden
        .iter()
        .map(|&(n, seed, expected)| {
            (
                format!("scal-{n} seed {seed}"),
                scalability_digest(n, seed),
                expected,
            )
        })
        .collect();
    assert_digests(&rows);
}

#[test]
fn dirty_catalog_matches_its_golden_digests() {
    let golden = [
        0xe4c0_c52d_42db_3269u64, // D10K
        0xf719_33b3_293a_9894,    // D50K
        0x83a7_2ae3_d713_11be,    // D100K
        0xb033_9f95_14be_17b5,    // D200K
        0xedb1_6582_b4bb_d1e0,    // D300K
    ];
    let configs = dirty_catalog(&CatalogOptions::default());
    assert_eq!(configs.len(), golden.len());
    let rows: Vec<(String, u64, u64)> = configs
        .iter()
        .zip(golden)
        .map(|(config, expected)| {
            (
                config.name.clone(),
                digest(&generate_dirty(config).unwrap()),
                expected,
            )
        })
        .collect();
    assert_digests(&rows);
}

#[test]
fn clean_clean_catalog_matches_its_golden_digests() {
    let golden = [
        0xc164_d148_8a38_ac21u64, // AbtBuy
        0xcafd_a356_a62c_e619,    // DblpAcm
        0xd1f4_7019_6a12_2774,    // ScholarDblp
        0x17ad_9698_7fd2_460f,    // AmazonGP
        0x53b6_12de_1b09_1fa5,    // ImdbTmdb
        0xc98c_efa5_c683_e47e,    // ImdbTvdb
        0xa8bf_c1f3_2e8d_9ae2,    // TmdbTvdb
        0x455e_c789_c94f_9aee,    // Movies
        0x5921_6ddc_e559_59dc,    // WalmartAmazon
    ];
    let options = CatalogOptions::tiny();
    let rows: Vec<(String, u64, u64)> = DatasetName::all()
        .into_iter()
        .zip(golden)
        .map(|(name, expected)| {
            (
                name.to_string(),
                digest(&generate_catalog_dataset(name, &options).unwrap()),
                expected,
            )
        })
        .collect();
    assert_digests(&rows);
}

/// The corpus where the guide table's buckets are densest (the Zipf head)
/// and sparsest (the 4 M-rank tail).
#[test]
#[ignore = "minutes in an unoptimised build; run with --release -- --ignored"]
fn million_entity_scalability_corpus_matches_its_golden_digest() {
    assert_digests(&[(
        "scal-1000000 seed 1".to_string(),
        scalability_digest(1_000_000, 1),
        0x2f84_202a_a0d1_c667,
    )]);
}
