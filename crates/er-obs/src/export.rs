//! Snapshotting and rendering: Prometheus text exposition and the
//! repository's hand-rolled JSON shape.

use std::fmt::Write as _;

use crate::{Counter, Entry, Family, Gauge, Histogram, Registered, HISTOGRAM_BUCKETS};

/// What shape a sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotonic counter.
    Counter,
    /// Last-value / high-water-mark gauge.
    Gauge,
    /// log2 histogram.
    Histogram,
}

impl SampleKind {
    fn prometheus_type(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
            SampleKind::Histogram => "histogram",
        }
    }
}

/// A histogram's loaded state: `(inclusive upper bound, cumulative
/// count)` per populated bucket prefix, ending with the unbounded bucket
/// (`u64::MAX` ≙ `+Inf`).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Cumulative bucket counts, truncated after the last populated
    /// bucket; always ends with the `(u64::MAX, count)` overflow entry.
    pub buckets: Vec<(u64, u64)>,
}

/// One exported sample: a child of a (possibly unlabeled) metric.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `(label key, label value)` for family children, `None` for plain
    /// metrics.
    pub label: Option<(&'static str, &'static str)>,
    /// Counter/gauge value; a histogram's total count.
    pub value: u64,
    /// Bucket detail for histogram samples.
    pub histogram: Option<HistogramSnapshot>,
}

/// All samples of one registered name.
#[derive(Debug, Clone)]
pub struct MetricFamilySnapshot {
    /// Registered metric name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Sample shape.
    pub kind: SampleKind,
    /// One entry for a plain metric, one per label for families.
    pub samples: Vec<Sample>,
}

/// A point-in-time view of the whole registry, ready to render.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Every registered metric, sorted by name.
    pub families: Vec<MetricFamilySnapshot>,
}

fn counter_sample(label: Option<(&'static str, &'static str)>, c: &Counter) -> Sample {
    Sample {
        label,
        value: c.get(),
        histogram: None,
    }
}

fn gauge_sample(label: Option<(&'static str, &'static str)>, g: &Gauge) -> Sample {
    Sample {
        label,
        value: g.get(),
        histogram: None,
    }
}

fn histogram_sample(label: Option<(&'static str, &'static str)>, h: &Histogram) -> Sample {
    let mut buckets = Vec::new();
    let mut cumulative = 0u64;
    let mut last_populated = 0usize;
    let raw: Vec<u64> = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket_count(i)).collect();
    for (i, &c) in raw.iter().enumerate() {
        if c > 0 {
            last_populated = i;
        }
    }
    for (i, &c) in raw.iter().enumerate().take(last_populated + 1) {
        cumulative += c;
        buckets.push((Histogram::bucket_bound(i), cumulative));
    }
    // `record` bumps the bucket before the total and all loads are
    // relaxed, so during a concurrent snapshot either side may lead; take
    // the max so the cumulative `le` series stays monotone.
    let count = h.count().max(cumulative);
    match buckets.last_mut() {
        Some(last) if last.0 == u64::MAX => last.1 = count,
        _ => buckets.push((u64::MAX, count)),
    }
    Sample {
        label,
        value: count,
        histogram: Some(HistogramSnapshot {
            count,
            sum: h.sum(),
            buckets,
        }),
    }
}

fn family_samples<M: Default + 'static>(
    family: &'static Family<M>,
    sample: impl Fn(Option<(&'static str, &'static str)>, &'static M) -> Sample,
) -> Vec<Sample> {
    family
        .children()
        .into_iter()
        .map(|(label, child)| sample(Some((family.label_key(), label)), child))
        .collect()
}

pub(crate) fn snapshot_from(entries: Vec<Entry>) -> MetricsSnapshot {
    let mut families: Vec<MetricFamilySnapshot> = entries
        .into_iter()
        .map(|entry| {
            let (kind, samples) = match entry.metric {
                Registered::Counter(c) => (SampleKind::Counter, vec![counter_sample(None, c)]),
                Registered::Gauge(g) => (SampleKind::Gauge, vec![gauge_sample(None, g)]),
                Registered::Histogram(h) => {
                    (SampleKind::Histogram, vec![histogram_sample(None, h)])
                }
                Registered::CounterFamily(f) => {
                    (SampleKind::Counter, family_samples(f, counter_sample))
                }
                Registered::GaugeFamily(f) => (SampleKind::Gauge, family_samples(f, gauge_sample)),
                Registered::HistogramFamily(f) => {
                    (SampleKind::Histogram, family_samples(f, histogram_sample))
                }
            };
            MetricFamilySnapshot {
                name: entry.name,
                help: entry.help,
                kind,
                samples,
            }
        })
        .collect();
    families.sort_by(|a, b| a.name.cmp(b.name));
    MetricsSnapshot { families }
}

fn prometheus_le(bound: u64) -> String {
    if bound == u64::MAX {
        "+Inf".to_string()
    } else {
        bound.to_string()
    }
}

impl MetricsSnapshot {
    /// The value of the unlabeled metric `name` (a histogram's total
    /// count), if registered.
    pub fn value(&self, name: &str) -> Option<u64> {
        let family = self.families.iter().find(|f| f.name == name)?;
        family
            .samples
            .iter()
            .find(|s| s.label.is_none())
            .map(|s| s.value)
    }

    /// The value of the `label = value` child of family `name`.
    pub fn labeled_value(&self, name: &str, label_value: &str) -> Option<u64> {
        let family = self.families.iter().find(|f| f.name == name)?;
        family
            .samples
            .iter()
            .find(|s| s.label.is_some_and(|(_, v)| v == label_value))
            .map(|s| s.value)
    }

    /// Bucket detail of the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        let family = self.families.iter().find(|f| f.name == name)?;
        family
            .samples
            .iter()
            .find(|s| s.label.is_none())
            .and_then(|s| s.histogram.as_ref())
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` per metric, `_bucket`/`_sum`/`_count` expansion for
    /// histograms, log2 bucket bounds as `le` labels.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                family.name,
                family.kind.prometheus_type()
            );
            for sample in &family.samples {
                let label = |extra: Option<(&str, String)>| -> String {
                    let mut parts = Vec::new();
                    if let Some((k, v)) = sample.label {
                        parts.push(format!("{k}=\"{v}\""));
                    }
                    if let Some((k, v)) = extra {
                        parts.push(format!("{k}=\"{v}\""));
                    }
                    if parts.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", parts.join(","))
                    }
                };
                match &sample.histogram {
                    None => {
                        let _ = writeln!(out, "{}{} {}", family.name, label(None), sample.value);
                    }
                    Some(h) => {
                        for &(bound, cumulative) in &h.buckets {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                label(Some(("le", prometheus_le(bound)))),
                                cumulative
                            );
                        }
                        let _ = writeln!(out, "{}_sum{} {}", family.name, label(None), h.sum);
                        let _ = writeln!(out, "{}_count{} {}", family.name, label(None), h.count);
                    }
                }
            }
        }
        out
    }

    /// The repository's hand-rolled JSON shape (the workspace's serde
    /// shims are no-ops by design): a flat object of metric name →
    /// value, `{"count": n, "sum": s}` for histograms, and an object of
    /// label value → value for families.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for family in &self.families {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "  \"{}\": ", family.name);
            let scalar = |s: &Sample| match &s.histogram {
                None => s.value.to_string(),
                Some(h) => format!("{{\"count\": {}, \"sum\": {}}}", h.count, h.sum),
            };
            let labeled = family.samples.iter().any(|s| s.label.is_some());
            if labeled {
                let children: Vec<String> = family
                    .samples
                    .iter()
                    .filter_map(|s| s.label.map(|(_, v)| format!("\"{}\": {}", v, scalar(s))))
                    .collect();
                let _ = write!(out, "{{{}}}", children.join(", "));
            } else if let Some(sample) = family.samples.first() {
                out.push_str(&scalar(sample));
            } else {
                out.push_str("null");
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_both_formats() {
        let _guard = crate::global_state_lock();
        let c = crate::counter("er_obs_export_test_total", "a test counter");
        let g = crate::gauge("er_obs_export_test_hwm", "a test gauge");
        let h = crate::histogram("er_obs_export_test_ns", "a test histogram");
        let f = crate::counter_family("er_obs_export_test_by_class", "labeled", "class", 4);
        c.add(3);
        g.record_max(9);
        h.record(0);
        h.record(5);
        f.with_label("fatal").add(2);

        let snapshot = crate::snapshot();
        assert_eq!(snapshot.value("er_obs_export_test_total"), Some(3));
        assert_eq!(snapshot.value("er_obs_export_test_hwm"), Some(9));
        assert_eq!(
            snapshot.labeled_value("er_obs_export_test_by_class", "fatal"),
            Some(2)
        );
        let hist = snapshot.histogram("er_obs_export_test_ns").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 5);
        assert_eq!(hist.buckets.last(), Some(&(u64::MAX, 2)));

        let prom = snapshot.render_prometheus();
        assert!(prom.contains("# TYPE er_obs_export_test_total counter"));
        assert!(prom.contains("er_obs_export_test_total 3"));
        assert!(prom.contains("er_obs_export_test_by_class{class=\"fatal\"} 2"));
        assert!(prom.contains("er_obs_export_test_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("er_obs_export_test_ns_sum 5"));
        assert!(prom.contains("er_obs_export_test_ns_count 2"));

        let json = snapshot.render_json();
        assert!(json.contains("\"er_obs_export_test_total\": 3"));
        assert!(json.contains("\"er_obs_export_test_ns\": {\"count\": 2, \"sum\": 5}"));
        assert!(json.contains("\"er_obs_export_test_by_class\": {\"fatal\": 2}"));
    }

    #[test]
    fn empty_histogram_renders_inf_bucket_only() {
        let sample = histogram_sample(None, &Histogram::default());
        let h = sample.histogram.unwrap();
        assert_eq!(h.buckets, vec![(0, 0), (u64::MAX, 0)]);
    }
}
