//! Zero-overhead observability: a dependency-free, lock-free metrics
//! registry plus a lightweight structured-event layer.
//!
//! Every subsystem of the pipeline (blocking build, scoreboards,
//! candidate streaming, streaming CRUD, WAL/generational durability,
//! sharded group commit, epoch-published reads) records into one global
//! registry of named metrics:
//!
//! * [`Counter`] — monotonic, relaxed `fetch_add`;
//! * [`Gauge`] — last-value or high-water mark (`fetch_max`), relaxed;
//! * [`Histogram`] — 64 fixed log2 buckets plus count and sum, all relaxed
//!   atomics, recording byte sizes or nanosecond durations;
//! * [`Family`] — labeled variants of any of the three, with a bounded
//!   label set (past [`Family::max_cardinality`] new labels collapse into
//!   the [`OVERFLOW_LABEL`] child so an unbounded label source can never
//!   leak memory).
//!
//! **Hot-path cost.**  Registration happens once per call site (cache the
//! returned `&'static` handle in a `OnceLock` or a struct of handles);
//! after that every update is one relaxed atomic RMW, and instrumented
//! code batches updates at task/batch boundaries rather than per element.
//! The whole layer can be switched off with [`set_enabled`]: the disabled
//! path is a single relaxed load per update (timers skip the clock read
//! entirely), which is what the `micro_blocking`/`micro_stream` overhead
//! gate measures.
//!
//! **Reading.**  [`snapshot`] walks the registry with relaxed loads —
//! safe during concurrent writes — and renders as Prometheus text
//! exposition ([`MetricsSnapshot::render_prometheus`]) or the repository's
//! hand-rolled `BENCH_*.json` shape ([`MetricsSnapshot::render_json`]).
//!
//! **Events.**  [`event`] is the structured side-channel for rare,
//! high-information occurrences (recovery reports, fault-injection op
//! logs): named key/value records pushed to a pluggable
//! [`event::EventSink`] ([`event::NoopSink`] by default — emission is one
//! relaxed load when no sink is installed).
//!
//! Naming scheme: `<subsystem>_<what>[_total|_bytes|_ns|_hwm]` —
//! `_total` for counters, `_bytes`/`_ns` for the unit of histograms and
//! sized gauges, `_hwm` for high-water-mark gauges.

pub mod event;
mod export;

pub use export::{HistogramSnapshot, MetricFamilySnapshot, MetricsSnapshot, Sample, SampleKind};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Global on/off switch, checked with one relaxed load per update.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// True if metric updates are currently recorded (the default).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches the whole metrics layer on or off.  Disabled, every update
/// call reduces to the one relaxed load inside [`enabled`] — the
/// "uninstrumented" arm of the bench overhead gate.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (relaxed; no-op while the layer is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero — for sequential bench phases, not concurrent use.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v` (relaxed; no-op while disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (`fetch_max`) — high-water-mark
    /// semantics.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (for level-style gauges updated by deltas).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero — for sequential bench phases, not concurrent use.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of fixed log2 buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram: bucket `i` counts values in
/// `[2^(i-1), 2^i - 1]` (bucket 0 counts zeros, the last bucket is
/// unbounded above), plus an exact total count and sum.  Records byte
/// sizes, element counts, or nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index of `v`: `0` for zero, else `floor(log2 v) + 1`,
    /// clamped to the last bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` (`u64::MAX` for the
    /// unbounded last bucket).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation (three relaxed adds; no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a scoped timer that records its elapsed nanoseconds here on
    /// drop.  While the layer is disabled the clock is never read.
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            histogram: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Raw (non-cumulative) count of bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Resets all buckets — for sequential bench phases, not concurrent
    /// use.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A scoped timer from [`Histogram::start_timer`]: records the elapsed
/// nanoseconds into its histogram when dropped.
#[derive(Debug)]
pub struct Timer<'a> {
    histogram: &'a Histogram,
    start: Option<Instant>,
}

impl Timer<'_> {
    /// Records now (identical to dropping, but reads as a statement).
    pub fn observe(self) {}

    /// Drops the timer without recording.
    pub fn discard(mut self) {
        self.start = None;
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

/// Label value that absorbs every label past a family's cardinality cap.
pub const OVERFLOW_LABEL: &str = "other";

/// Default cardinality cap for labeled families.
pub const DEFAULT_MAX_CARDINALITY: usize = 64;

/// A labeled family of metrics: one child per label value, bounded.  Child
/// lookup takes a mutex — resolve the child once and cache the `&'static`
/// handle on hot paths.
#[derive(Debug)]
pub struct Family<M: Default + 'static> {
    label_key: &'static str,
    max_cardinality: usize,
    children: Mutex<Vec<(&'static str, &'static M)>>,
}

impl<M: Default + 'static> Family<M> {
    fn new(label_key: &'static str, max_cardinality: usize) -> Self {
        Family {
            label_key,
            max_cardinality: max_cardinality.max(1),
            children: Mutex::new(Vec::new()),
        }
    }

    /// The label key shared by every child (e.g. `class`, `shard`).
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    /// Distinct label values this family will hold before collapsing new
    /// ones into [`OVERFLOW_LABEL`].
    pub fn max_cardinality(&self) -> usize {
        self.max_cardinality
    }

    /// The child metric for `value`, created on first use.  Past the
    /// cardinality cap, unseen labels all share the [`OVERFLOW_LABEL`]
    /// child.
    pub fn with_label(&self, value: &str) -> &'static M {
        let mut children = self.children.lock().unwrap();
        if let Some(&(_, m)) = children.iter().find(|(v, _)| *v == value) {
            return m;
        }
        let label: &'static str = if children.len() >= self.max_cardinality {
            if let Some(&(_, m)) = children.iter().find(|(v, _)| *v == OVERFLOW_LABEL) {
                return m;
            }
            OVERFLOW_LABEL
        } else {
            Box::leak(value.to_string().into_boxed_str())
        };
        let metric: &'static M = Box::leak(Box::new(M::default()));
        children.push((label, metric));
        metric
    }

    /// Snapshot of `(label, child)` pairs in creation order.
    pub fn children(&self) -> Vec<(&'static str, &'static M)> {
        self.children.lock().unwrap().clone()
    }
}

/// One registered metric (any shape).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Registered {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    CounterFamily(&'static Family<Counter>),
    GaugeFamily(&'static Family<Gauge>),
    HistogramFamily(&'static Family<Histogram>),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) metric: Registered,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn registry_entries() -> Vec<Entry> {
    registry().lock().unwrap().clone()
}

fn register(
    name: &'static str,
    help: &'static str,
    make: impl FnOnce() -> Registered,
) -> Registered {
    let mut entries = registry().lock().unwrap();
    if let Some(entry) = entries.iter().find(|e| e.name == name) {
        return entry.metric;
    }
    let metric = make();
    entries.push(Entry { name, help, metric });
    metric
}

/// The counter registered under `name`, created on first call.
/// Re-registration with the same name returns the same handle; a name
/// clash across metric kinds panics.
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    match register(name, help, || {
        Registered::Counter(Box::leak(Box::new(Counter::default())))
    }) {
        Registered::Counter(c) => c,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The gauge registered under `name`.
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    match register(name, help, || {
        Registered::Gauge(Box::leak(Box::new(Gauge::default())))
    }) {
        Registered::Gauge(g) => g,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The histogram registered under `name`.
pub fn histogram(name: &'static str, help: &'static str) -> &'static Histogram {
    match register(name, help, || {
        Registered::Histogram(Box::leak(Box::new(Histogram::default())))
    }) {
        Registered::Histogram(h) => h,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The labeled counter family registered under `name`.
pub fn counter_family(
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    max_cardinality: usize,
) -> &'static Family<Counter> {
    match register(name, help, || {
        Registered::CounterFamily(Box::leak(Box::new(Family::new(label_key, max_cardinality))))
    }) {
        Registered::CounterFamily(f) => f,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The labeled gauge family registered under `name`.
pub fn gauge_family(
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    max_cardinality: usize,
) -> &'static Family<Gauge> {
    match register(name, help, || {
        Registered::GaugeFamily(Box::leak(Box::new(Family::new(label_key, max_cardinality))))
    }) {
        Registered::GaugeFamily(f) => f,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// The labeled histogram family registered under `name`.
pub fn histogram_family(
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    max_cardinality: usize,
) -> &'static Family<Histogram> {
    match register(name, help, || {
        Registered::HistogramFamily(Box::leak(Box::new(Family::new(label_key, max_cardinality))))
    }) {
        Registered::HistogramFamily(f) => f,
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// A consistent-enough point-in-time view of every registered metric
/// (individual values are relaxed loads; safe during concurrent writes).
pub fn snapshot() -> MetricsSnapshot {
    export::snapshot_from(registry_entries())
}

/// Serialises the unit tests that touch process-wide state: the `ENABLED`
/// switch, the event sink slot, or a value recorded while another test
/// could switch the layer off.  The harness runs tests on parallel
/// threads, so each such test holds this guard for its whole body.
#[cfg(test)]
pub(crate) fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the state it guards carries no
    // invariant a later test could trip over.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2_shaped() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's bound is the largest value mapping to it.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_bound(i)), i);
            assert_eq!(
                Histogram::bucket_index(Histogram::bucket_bound(i) + 1),
                i + 1
            );
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let _guard = global_state_lock();
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1005);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(10), 1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = global_state_lock();
        let c = Counter::default();
        let g = Gauge::default();
        let h = Histogram::default();
        set_enabled(false);
        c.inc();
        g.record_max(7);
        h.record(7);
        let t = h.start_timer();
        drop(t);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let _guard = global_state_lock();
        let a = counter("er_obs_test_idempotent_total", "test");
        let b = counter("er_obs_test_idempotent_total", "test");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn timer_feeds_histogram() {
        let _guard = global_state_lock();
        let h = Histogram::default();
        {
            let _t = h.start_timer();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
        let t = h.start_timer();
        t.discard();
        assert_eq!(h.count(), 1);
    }
}
