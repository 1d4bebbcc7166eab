//! Golden digests of the batch workflow's outputs.
//!
//! The other batch suites check one path against another built from the
//! same stages (the reference engines, `run_once` against the pipeline,
//! streamed against materialised scoring), so a change to a shared stage —
//! blocking, sampling, the classifier, a pruning threshold — passes them
//! all.  This suite pins absolute outputs instead: for each cell it runs
//! `MetaBlockingPipeline::run` once and records
//!
//! * the candidate count and the valid count;
//! * an order-sensitive CRC-64 (`er_core::crc64`) of every probability's
//!   IEEE-754 bits, in pair-id order;
//! * for each of the eight pruning algorithms, deciding on the run's valid
//!   pairs: the retained count, the CRC-64 of the retained pair ids, and
//!   PC and PQ as exact `f64` bits.
//!
//! Each cell runs at 1 and at 3 threads, which must give the same digest.
//! The golden values were recorded before attribute names became shared
//! `Arc<str>`s; a mismatch means an output changed, and the failure
//! message prints the table the code produces now.
//!
//! The experiment runners are pinned the same way, on WalmartAmazon at
//! `CatalogOptions::tiny()` with `er_eval::experiment::default_config()`:
//! for each algorithm, `run_once`'s retained count and retained-id CRC-64,
//! and `run_averaged`'s mean retained count and per-run PC and PQ bits over
//! three repetitions.  These values were recorded while every algorithm
//! still trained and scored in a run of its own; `run_averaged` now runs
//! all eight on one training and scoring pass per repetition.
//!
//! One cell pins the linear SVM with Platt scaling on WalmartAmazon tiny:
//! the pipeline's digests and `run_once`'s retained ids.  Its values were
//! recorded while the runner still scored the rows of a materialised
//! feature matrix.

use gsmb::core::{crc64, Dataset};
use gsmb::datasets::{
    generate_catalog_dataset, generate_scalability, CatalogOptions, DatasetName, ScalabilityConfig,
};
use gsmb::eval::experiment::{default_config, run_averaged, run_once, PreparedDataset};
use gsmb::eval::Effectiveness;
use gsmb::learn::LinearSvmConfig;
use gsmb::meta::pipeline::{ClassifierKind, MetaBlockingConfig, MetaBlockingPipeline};
use gsmb::meta::pruning::AlgorithmKind;

/// One algorithm's retained pairs: its name, their count, the CRC-64 of
/// their ids, and the bits of their PC and PQ.
type Retained = (&'static str, usize, u64, u64, u64);

/// The pinned outputs of one cell.
#[derive(Debug, PartialEq)]
struct Golden {
    candidates: usize,
    valid: usize,
    probabilities: u64,
    /// In `AlgorithmKind::all()` order.
    retained: [Retained; 8],
}

impl Golden {
    /// The digest as the Rust literal the golden table holds.
    fn literal(&self) -> String {
        let mut out = format!(
            "Golden {{\n    candidates: {},\n    valid: {},\n    probabilities: {:#018x},\n    retained: [\n",
            self.candidates, self.valid, self.probabilities
        );
        for (name, count, ids, pc, pq) in &self.retained {
            out.push_str(&format!(
                "        (\"{name}\", {count}, {ids:#018x}, {pc:#018x}, {pq:#018x}),\n"
            ));
        }
        out.push_str("    ],\n}");
        out
    }
}

/// Runs the pipeline under `config` on `dataset` at `threads` and digests
/// its outputs.
fn digest(dataset: &Dataset, config: &MetaBlockingConfig, threads: usize) -> Golden {
    let config = MetaBlockingConfig {
        threads: Some(threads),
        ..config.clone()
    };
    let outcome = MetaBlockingPipeline::new(config.clone())
        .run(dataset, AlgorithmKind::Blast)
        .unwrap();
    let probability_bits: Vec<u8> = outcome
        .probabilities
        .as_slice()
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();

    let valid = outcome.valid.pairs();
    let retained = AlgorithmKind::all().map(|algorithm| {
        let ids = algorithm
            .build_with_csr(&outcome.blocks, config.blast_ratio)
            .prune_valid(&outcome.valid);
        if algorithm == AlgorithmKind::Blast {
            assert_eq!(ids, outcome.retained, "the pipeline's own decision");
        }
        // Both lists ascend by pair id, so one forward walk resolves them.
        let mut walk = valid.iter();
        let pairs: Vec<_> = ids
            .iter()
            .map(|&id| {
                let pair = walk.find(|pair| pair.id == id).expect("retained ⊆ valid");
                (pair.a, pair.b)
            })
            .collect();
        let quality =
            Effectiveness::evaluate(&pairs, &dataset.ground_truth, dataset.num_duplicates());
        let id_bytes: Vec<u8> = ids.iter().flat_map(|id| id.0.to_le_bytes()).collect();
        (
            algorithm.name(),
            ids.len(),
            crc64(&id_bytes),
            quality.recall.to_bits(),
            quality.precision.to_bits(),
        )
    });
    Golden {
        candidates: outcome.num_candidates,
        valid: valid.len(),
        probabilities: crc64(&probability_bits),
        retained,
    }
}

/// Digests `dataset` under `config` at 1 and 3 threads, requires the two
/// to agree and compares them with the golden value, printing the actual
/// table on a mismatch.
fn check(dataset: &Dataset, config: &MetaBlockingConfig, golden: &Golden) {
    let one = digest(dataset, config, 1);
    let three = digest(dataset, config, 3);
    assert_eq!(
        one, three,
        "{}: the thread count changed an output",
        dataset.name
    );
    assert!(
        &one == golden,
        "{}: outputs changed; the code now produces\n{}",
        dataset.name,
        one.literal()
    );
}

/// `scal-20000`, seed 7.
#[rustfmt::skip]
const SCAL_20K: Golden = Golden {
    candidates: 141169,
    valid: 13042,
    probabilities: 0xcc7cc9a70b9e7b6f,
    retained: [
        ("BCl", 13042, 0x6ad119a93aef0a50, 0x3fed54d3b38048eb, 0x3fe53946f0560d95),
        ("WEP", 8648, 0x46282cd50c1162d7, 0x3fe6d3dd2b28d398, 0x3fe8e9075762c0c5),
        ("WNP", 10515, 0x25c6e7128a5f713c, 0x3fe8cc36cc0d212d, 0x3fe64164d1479a23),
        ("RWNP", 6506, 0x1738cde325214451, 0x3fe0293bc2e8ce62, 0x3fe7711645690f59),
        ("BLAST", 12375, 0x27a5dea10eea6e1e, 0x3feccacdadcdec4e, 0x3fe5f4ded6c564e4),
        ("CEP", 13042, 0x6ad119a93aef0a50, 0x3fed54d3b38048eb, 0x3fe53946f0560d95),
        ("CNP", 13037, 0xe94023a6842066b2, 0x3fed54d3b38048eb, 0x3fe53b5c63aca9bd),
        ("RCNP", 12964, 0xf95931a26ca6242d, 0x3fed507c9182b9ee, 0x3fe556ceca5dfee5),
    ],
};

/// The Walmart-Amazon analogue at `CatalogOptions::tiny()`, where RCNP
/// binds and CEP/CNP do not.
#[rustfmt::skip]
const WALMART_AMAZON_TINY: Golden = Golden {
    candidates: 52257,
    valid: 1988,
    probabilities: 0xa483f48c3098beb2,
    retained: [
        ("BCl", 1988, 0x0939abc263eb51bb, 0x3fefae147ae147ae, 0x3fb97f3a348a0b55),
        ("WEP", 1294, 0xfc99cb6d98d12a23, 0x3feee147ae147ae1, 0x3fc317583c2466e0),
        ("WNP", 1697, 0x65e08cdc6c7d12dc, 0x3fefae147ae147ae, 0x3fbdde82a3d3f354),
        ("RWNP", 990, 0x549e6af8452f5d5f, 0x3fee147ae147ae14, 0x3fc84e9c2f946da4),
        ("BLAST", 1846, 0xe77ff1afed6d6b47, 0x3fefae147ae147ae, 0x3fbb75525ff71fe5),
        ("CEP", 1988, 0x0939abc263eb51bb, 0x3fefae147ae147ae, 0x3fb97f3a348a0b55),
        ("CNP", 1988, 0x0939abc263eb51bb, 0x3fefae147ae147ae, 0x3fb97f3a348a0b55),
        ("RCNP", 1794, 0xfd03bec8b3d7a466, 0x3fefae147ae147ae, 0x3fbc4111fadce575),
    ],
};

#[test]
fn scalability_corpus_outputs_match_their_golden_digests() {
    let dataset = generate_scalability(&ScalabilityConfig::at_scale(20_000, 7)).unwrap();
    check(&dataset, &MetaBlockingConfig::default(), &SCAL_20K);
}

#[test]
fn clean_clean_catalog_outputs_match_their_golden_digests() {
    let dataset =
        generate_catalog_dataset(DatasetName::WalmartAmazon, &CatalogOptions::tiny()).unwrap();
    check(
        &dataset,
        &MetaBlockingConfig::default(),
        &WALMART_AMAZON_TINY,
    );
}

/// One algorithm's experiment-runner outputs: its name, `run_once`'s
/// retained count and retained-id CRC-64, `run_averaged`'s mean retained
/// count as `f64` bits, and each repetition's PC and PQ bits.
type EvalCell = (&'static str, usize, u64, u64, [(u64, u64); 3]);

/// The bytes the retained-id CRC-64 runs over.
fn id_crc(ids: &[gsmb::core::PairId]) -> u64 {
    let bytes: Vec<u8> = ids.iter().flat_map(|id| id.0.to_le_bytes()).collect();
    crc64(&bytes)
}

/// The runner cells as the Rust literal the golden table holds.
fn eval_literal(cells: &[EvalCell]) -> String {
    let mut out = String::from("[\n");
    for (name, count, ids, mean, runs) in cells {
        let runs: Vec<String> = runs
            .iter()
            .map(|(pc, pq)| format!("({pc:#018x}, {pq:#018x})"))
            .collect();
        out.push_str(&format!(
            "    (\"{name}\", {count}, {ids:#018x}, {mean:#018x},\n        [{}]),\n",
            runs.join(", ")
        ));
    }
    out.push(']');
    out
}

/// `run_once` and `run_averaged` (3 repetitions) on WalmartAmazon tiny under
/// `default_config()`, in `AlgorithmKind::all()` order.
#[rustfmt::skip]
const WALMART_AMAZON_TINY_EVAL: [EvalCell; 8] = [
    ("BCl", 1346, 0x6e0769f4a78963e0, 0x40998aaaaaaaaaab,
        [(0x3ff0000000000000, 0x3fbfc3047257a99c), (0x3fefd70a3d70a3d7, 0x3fbea6f84c6646db), (0x3fef5c28f5c28f5c, 0x3fbec86707397b72)]),
    ("WEP", 868, 0x551cff9e0da8d4d0, 0x408e600000000000,
        [(0x3fef0a3d70a3d70a, 0x3fca3fdd5c8cb804), (0x3fef0a3d70a3d70a, 0x3fc870e1c3870e1c), (0x3feeb851eb851eb8, 0x3fc9c2d14ee4a102)]),
    ("WNP", 1218, 0x410078fbccd916ee, 0x4096295555555555,
        [(0x3ff0000000000000, 0x3fc22e8ba2e8ba2f), (0x3fefd70a3d70a3d7, 0x3fc1c34d7a7740a0), (0x3fef5c28f5c28f5c, 0x3fc1c15042ac1db6)]),
    ("RWNP", 655, 0x38d0e9732d1b9c61, 0x4087b2aaaaaaaaab,
        [(0x3fee3d70a3d70a3d, 0x3fd0750750750750), (0x3fedc28f5c28f5c3, 0x3fcf0a58c842c0eb), (0x3fed70a3d70a3d71, 0x3fce77e2db3d448e)]),
    ("BLAST", 1267, 0x1a0a0bcf1d710250, 0x4097e80000000000,
        [(0x3fefd70a3d70a3d7, 0x3fc0c4d8651e8118), (0x3fefd70a3d70a3d7, 0x3fc05157bd16cbaf), (0x3fef333333333333, 0x3fc087a10f421e84)]),
    ("CEP", 1346, 0x6e0769f4a78963e0, 0x40998aaaaaaaaaab,
        [(0x3ff0000000000000, 0x3fbfc3047257a99c), (0x3fefd70a3d70a3d7, 0x3fbea6f84c6646db), (0x3fef5c28f5c28f5c, 0x3fbec86707397b72)]),
    ("CNP", 1346, 0x6e0769f4a78963e0, 0x40998aaaaaaaaaab,
        [(0x3ff0000000000000, 0x3fbfc3047257a99c), (0x3fefd70a3d70a3d7, 0x3fbea6f84c6646db), (0x3fef5c28f5c28f5c, 0x3fbec86707397b72)]),
    ("RCNP", 1243, 0x3fb9f48f9d840546, 0x409756aaaaaaaaab,
        [(0x3fefae147ae147ae, 0x3fc143a9810bdbba), (0x3fefd70a3d70a3d7, 0x3fc0d5de7f93b63b), (0x3fef5c28f5c28f5c, 0x3fc0b9af72015d86)]),
];

#[test]
fn experiment_runner_outputs_match_their_golden_digests() {
    let dataset =
        generate_catalog_dataset(DatasetName::WalmartAmazon, &CatalogOptions::tiny()).unwrap();
    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let config = default_config();
    let algorithms = AlgorithmKind::all();
    // One call for all eight: each repetition trains and scores once.
    let averaged = run_averaged(&prepared, &algorithms, &config, 3).unwrap();
    let cells: Vec<EvalCell> = algorithms
        .iter()
        .zip(&averaged)
        .map(|(&algorithm, averaged)| {
            let once = run_once(&prepared, algorithm, &config).unwrap();
            let runs: Vec<(u64, u64)> = averaged
                .per_run
                .iter()
                .map(|run| (run.recall.to_bits(), run.precision.to_bits()))
                .collect();
            (
                algorithm.name(),
                once.retained,
                id_crc(&once.retained_ids),
                averaged.mean_retained.to_bits(),
                runs.try_into().unwrap(),
            )
        })
        .collect();
    assert!(
        cells == WALMART_AMAZON_TINY_EVAL,
        "runner outputs changed; the code now produces\n{}",
        eval_literal(&cells)
    );
}

/// The pipeline on WalmartAmazon tiny with the linear SVM and Platt scaling
/// in place of logistic regression (default feature set).
#[rustfmt::skip]
const WALMART_AMAZON_TINY_SVM: Golden = Golden {
    candidates: 52257,
    valid: 1659,
    probabilities: 0x0cac3251efd132b8,
    retained: [
        ("BCl", 1659, 0xb657e7d6b805584b, 0x3fefd70a3d70a3d7, 0x3fbeb528e460e815),
        ("WEP", 904, 0x1ecac77501ad1e80, 0x3fee666666666666, 0x3fcae71463ae7146),
        ("WNP", 1435, 0x192c1a5a37ba7317, 0x3fefd70a3d70a3d7, 0x3fc1c02240946d2e),
        ("RWNP", 701, 0x219a31372c82015e, 0x3fedc28f5c28f5c3, 0x3fd0fb40a39b34f4),
        ("BLAST", 1565, 0x4cbf2bd46f2fadd0, 0x3fefd70a3d70a3d7, 0x3fc046aa72d4fa9a),
        ("CEP", 1659, 0xb657e7d6b805584b, 0x3fefd70a3d70a3d7, 0x3fbeb528e460e815),
        ("CNP", 1659, 0xb657e7d6b805584b, 0x3fefd70a3d70a3d7, 0x3fbeb528e460e815),
        ("RCNP", 1518, 0xfddae691ce6a7b1f, 0x3fef851eb851eb85, 0x3fc09c802b2c2f38),
    ],
};

/// `run_once` on WalmartAmazon tiny under `default_config()` with the SVM,
/// in `AlgorithmKind::all()` order: the retained count and retained-id
/// CRC-64.
#[rustfmt::skip]
const WALMART_AMAZON_TINY_SVM_EVAL: [(&str, usize, u64); 8] = [
    ("BCl", 1527, 0xc67263878e05b8e5),
    ("WEP", 952, 0xd0148191aede5c8f),
    ("WNP", 1329, 0x0e81d6e5c77ba355),
    ("RWNP", 757, 0xa45574638991388c),
    ("BLAST", 1406, 0xbf335c189f0c677d),
    ("CEP", 1527, 0xc67263878e05b8e5),
    ("CNP", 1527, 0xc67263878e05b8e5),
    ("RCNP", 1391, 0x6e69922f94829b43),
];

/// The SVM + Platt classifier, pinned on the pipeline and on the
/// experiment runner.
#[test]
fn svm_outputs_match_their_golden_digests() {
    let dataset =
        generate_catalog_dataset(DatasetName::WalmartAmazon, &CatalogOptions::tiny()).unwrap();
    let svm = ClassifierKind::Svm(LinearSvmConfig::default());
    let pipeline_config = MetaBlockingConfig {
        classifier: svm.clone(),
        ..MetaBlockingConfig::default()
    };
    check(&dataset, &pipeline_config, &WALMART_AMAZON_TINY_SVM);

    let prepared = PreparedDataset::prepare(dataset).unwrap();
    let config = MetaBlockingConfig {
        classifier: svm,
        ..default_config()
    };
    let cells: Vec<(&str, usize, u64)> = AlgorithmKind::all()
        .iter()
        .map(|&algorithm| {
            let once = run_once(&prepared, algorithm, &config).unwrap();
            (algorithm.name(), once.retained, id_crc(&once.retained_ids))
        })
        .collect();
    let literal: Vec<String> = cells
        .iter()
        .map(|(name, count, ids)| format!("    (\"{name}\", {count}, {ids:#018x}),"))
        .collect();
    assert!(
        cells == WALMART_AMAZON_TINY_SVM_EVAL,
        "SVM runner outputs changed; the code now produces\n{}",
        literal.join("\n")
    );
}
