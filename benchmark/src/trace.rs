//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, aggregated (and optionally written
//! out) when the run ends.  With tracing off a span is just the call.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: Cow<'static, str>,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_s: f64,
    /// `total_s` minus the part covered by child spans.
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` and returns its result with the elapsed seconds; records a
    /// span named `name` under the currently open span when tracing is on.
    pub fn timed<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.on {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans[id].end_s = end_s;
        (out, end_s - start_s)
    }

    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.timed(name, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotal> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.seconds();
            }
        }
        let mut totals: BTreeMap<String, SpanTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            let entry = totals.entry(span.name.to_string()).or_default();
            entry.count += 1;
            entry.total_s += span.seconds();
            entry.self_s += span.seconds() - children;
        }
        totals
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// The share of `root`-named spans' time covered by their direct
    /// children; children called `skip` count on neither side.
    pub fn attributed_share(&self, root: &str, skip: &str) -> f64 {
        let mut root_s = 0.0;
        let mut covered_s = 0.0;
        for span in &self.spans {
            if span.name == root {
                root_s += span.seconds();
            } else if span
                .parent
                .is_some_and(|parent| self.spans[parent].name == root)
            {
                if span.name == skip {
                    root_s -= span.seconds();
                } else {
                    covered_s += span.seconds();
                }
            }
        }
        if root_s > 0.0 {
            covered_s / root_s
        } else {
            0.0
        }
    }

    /// The trace as JSON: per-name totals, plus the individual spans of
    /// every name recorded at most `max_listed` times (per-op spans of the
    /// streaming workloads run to thousands and stay aggregated).
    pub fn to_json(&self, max_listed: u64) -> Json {
        let totals = self.totals();
        let listed = self
            .spans
            .iter()
            .filter(|s| totals[s.name.as_ref()].count <= max_listed)
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.as_ref())),
                    (
                        "parent",
                        s.parent
                            .map_or(Json::Null, |p| Json::from(self.spans[p].name.as_ref())),
                    ),
                    ("start_s", Json::from(s.start_s)),
                    ("end_s", Json::from(s.end_s)),
                ])
            })
            .collect();
        Json::obj([
            (
                "span_totals",
                Json::Obj(
                    totals
                        .into_iter()
                        .map(|(name, t)| {
                            (
                                name,
                                Json::obj([
                                    ("count", Json::from(t.count)),
                                    ("total_s", Json::from(t.total_s)),
                                    ("self_s", Json::from(t.self_s)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(listed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_share_counts_direct_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("b", |t| {
                t.span("a", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let totals = t.totals();
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["root"].count, 1);
        assert!(totals["b"].self_s < totals["b"].total_s);
        assert!((totals["a"].self_s - totals["a"].total_s).abs() < 1e-12);
        assert!(totals["root"].self_s < 0.002, "{:?}", totals["root"]);
        let share = t.attributed_share("root", "none");
        assert!(share > 0.9 && share <= 1.0, "{share}");
        // Skipping `b` removes it from both sides: `a` then covers the rest.
        assert!(t.attributed_share("root", "b") > 0.9);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (value, seconds) = t.timed("x", |_| 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(t.spans().is_empty());
    }
}
