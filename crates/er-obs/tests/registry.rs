//! Registry hammering: exact totals under 8-thread contention,
//! snapshot-during-write consistency, and label-family cardinality
//! bounds.
//!
//! The exact totals hold only while the layer stays on.  No test in this
//! binary calls `set_enabled` or touches the event sink, and each test
//! owns its metric names, so the tests cannot race one another; a test
//! added here that switches the layer off must serialise with all of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 50_000;

#[test]
fn concurrent_counter_and_histogram_totals_are_exact() {
    let counter = er_obs::counter("registry_test_hammer_total", "hammered counter");
    let histogram = er_obs::histogram("registry_test_hammer_ns", "hammered histogram");
    let gauge = er_obs::gauge("registry_test_hammer_hwm", "hammered gauge");
    let family = er_obs::counter_family(
        "registry_test_hammer_by_worker",
        "hammered family",
        "worker",
        THREADS,
    );

    thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            scope.spawn(move || {
                // Each worker resolves its labeled child once, then hammers
                // the relaxed fast paths.
                let child = family.with_label(&t.to_string());
                for i in 0..OPS_PER_THREAD {
                    counter.inc();
                    histogram.record(i % 1024);
                    gauge.record_max(t * OPS_PER_THREAD + i);
                    child.inc();
                }
            });
        }
    });

    let expected = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(counter.get(), expected);
    assert_eq!(histogram.count(), expected);
    // Sum of (i % 1024) over a full cycle is 1023*1024/2 per 1024 ops.
    let cycles = OPS_PER_THREAD / 1024;
    let tail = OPS_PER_THREAD % 1024;
    let per_thread_sum = cycles * (1023 * 1024 / 2) + tail * (tail - 1) / 2;
    assert_eq!(histogram.sum(), THREADS as u64 * per_thread_sum);
    // Every observation landed in a bucket, and buckets partition the range.
    let bucket_total: u64 = (0..er_obs::HISTOGRAM_BUCKETS)
        .map(|i| histogram.bucket_count(i))
        .sum();
    assert_eq!(bucket_total, expected);
    assert_eq!(gauge.get(), THREADS as u64 * OPS_PER_THREAD - 1);
    for t in 0..THREADS as u64 {
        assert_eq!(
            family.with_label(&t.to_string()).get(),
            OPS_PER_THREAD,
            "per-label child {t} lost updates"
        );
    }
}

#[test]
fn snapshot_during_writes_is_internally_consistent() {
    let counter = er_obs::counter("registry_test_live_total", "written during snapshot");
    let histogram = er_obs::histogram("registry_test_live_ns", "written during snapshot");
    let stop = Arc::new(AtomicBool::new(false));

    thread::scope(|scope| {
        for _ in 0..4 {
            let stop = stop.clone();
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    counter.inc();
                    histogram.record(i % 4096);
                    i += 1;
                }
            });
        }
        // Snapshot repeatedly while writers run; every view must be sane.
        let mut last_count = 0u64;
        for _ in 0..200 {
            let snapshot = er_obs::snapshot();
            let count = snapshot.value("registry_test_live_total").unwrap();
            assert!(count >= last_count, "counter went backwards");
            last_count = count;
            let hist = snapshot.histogram("registry_test_live_ns").unwrap();
            // The cumulative `le` series never decreases and ends at the
            // reported count.
            let mut prev = 0u64;
            for &(_, cumulative) in &hist.buckets {
                assert!(cumulative >= prev, "bucket series not monotone");
                prev = cumulative;
            }
            assert_eq!(hist.buckets.last().unwrap().1, hist.count);
            // Rendering must never panic mid-write.
            let prom = snapshot.render_prometheus();
            assert!(prom.contains("registry_test_live_ns_count"));
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn family_cardinality_is_bounded() {
    let family = er_obs::counter_family(
        "registry_test_cardinality_total",
        "bounded labels",
        "key",
        4,
    );
    for i in 0..100 {
        family.with_label(&format!("label-{i}")).inc();
    }
    let children = family.children();
    // 4 real labels plus the shared overflow child — never 100.
    assert_eq!(children.len(), 5);
    let overflow = family.with_label("label-99");
    assert!(std::ptr::eq(
        overflow,
        family.with_label(er_obs::OVERFLOW_LABEL)
    ));
    // 96 labels collapsed into the overflow child.
    assert_eq!(overflow.get(), 96);
    // Established labels keep resolving to their own child past the cap.
    assert_eq!(family.with_label("label-2").get(), 1);
    let snapshot = er_obs::snapshot();
    assert_eq!(
        snapshot.labeled_value("registry_test_cardinality_total", er_obs::OVERFLOW_LABEL),
        Some(96)
    );
}

#[test]
fn concurrent_label_resolution_creates_each_child_once() {
    let family =
        er_obs::counter_family("registry_test_label_race_total", "raced labels", "key", 32);
    thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(move || {
                for i in 0..16 {
                    family.with_label(&format!("shared-{i}")).inc();
                }
            });
        }
    });
    assert_eq!(family.children().len(), 16);
    for i in 0..16 {
        assert_eq!(
            family.with_label(&format!("shared-{i}")).get(),
            THREADS as u64
        );
    }
}
