//! The metrics registry: named instruments, consistent snapshots, and the
//! Prometheus-style text exposition.
//!
//! Naming convention: `mlq_<crate>_<metric>`, optionally followed by a
//! `{key="value",...}` label block that is part of the metric's identity
//! (see [`labeled`]). Registration takes a mutex once per instrument;
//! recording through the returned handle is lock-free thereafter.

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Builds a labeled metric name: `labeled("mlq_serve_applied", &[("udf",
/// "WIN")])` → `mlq_serve_applied{udf="WIN"}`. Quotes and backslashes in
/// values are escaped so the exposition stays parseable.
#[must_use]
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    out.push('}');
    out
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics with a one-pass snapshot API.
///
/// Cheap to share (`Arc<Registry>`); instruments are registered once and
/// the returned handles are lock-free. Re-registering a name returns the
/// *same* instrument, so independent subsystems can meet on a shared
/// metric by name alone.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = metrics.entry(name.to_string()).or_insert_with(make);
        entry.clone()
    }

    /// The counter registered under `name` (creating it on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind — two
    /// subsystems disagreeing on a metric's type is a programming error
    /// that must not be silently papered over.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The gauge registered under `name` (creating it on first use).
    ///
    /// # Panics
    ///
    /// Panics on a kind collision, like [`Registry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// The histogram registered under `name` (creating it on first use).
    ///
    /// # Panics
    ///
    /// Panics on a kind collision, like [`Registry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Registered metric names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect()
    }

    /// Reads every instrument in one pass, producing an immutable
    /// [`RegistrySnapshot`]. This is the *only* sanctioned way to read
    /// several metrics together: individual handle reads taken one at a
    /// time can be arbitrarily far apart in time, while a snapshot is as
    /// close to a single point in time as lock-free instruments allow.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        RegistrySnapshot {
            metrics: metrics
                .iter()
                .map(|(name, inst)| {
                    let value = match inst {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter's total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's buckets and sum (boxed: the 64-bucket array is an
    /// order of magnitude larger than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// An immutable point-in-time view of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

/// Error from [`RegistrySnapshot::parse_prometheus_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the parse failed on.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Splits `mlq_x_y{udf="A"}` into (`mlq_x_y`, `{udf="A"}`).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Joins a label block with an extra `le` label for histogram buckets.
fn bucket_series(base: &str, labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{base}_bucket{{le=\"{le}\"}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{base}_bucket{{{inner},le=\"{le}\"}}")
    }
}

impl RegistrySnapshot {
    /// The metric stored under `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// A counter's total; `None` if absent or not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A labeled counter's total, composing the series name from `name`
    /// and `labels` exactly like [`labeled`]; `None` if absent or not a
    /// counter. Saves callers from hand-formatting
    /// `name{k="v"}` strings when asserting on labeled series.
    #[must_use]
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counter(&labeled(name, labels))
    }

    /// A gauge's value; `None` if absent or not a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's snapshot; `None` if absent or not a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Sums every counter whose name starts with `prefix` — the idiom for
    /// totaling a labeled family, e.g. `sum_counters("mlq_serve_applied")`
    /// across all `{udf=...}` series.
    #[must_use]
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(name, _)| {
                name.as_str() == prefix
                    || (name.starts_with(prefix) && name[prefix.len()..].starts_with('{'))
            })
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Number of metrics captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Merges `other` into `self`. Counters and histograms add; gauges
    /// take the maximum (a merge has no notion of "later", so the only
    /// order-independent choice is a high-water mark). Merging is
    /// commutative and associative, so shard- or run-local snapshots can
    /// be combined in any order — the contract `tests/obs_contracts.rs`
    /// pins down.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.metrics {
            match (self.metrics.get_mut(name), value) {
                (None, v) => {
                    self.metrics.insert(name.clone(), v.clone());
                }
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = a.max(*b),
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(mine), theirs) => {
                    panic!("metric {name} kind mismatch in merge: {mine:?} vs {theirs:?}")
                }
            }
        }
    }

    /// A copy of this snapshot with `extra` labels appended to every
    /// series (after any labels a series already carries), composing
    /// names exactly like [`labeled`]. This is how a replicated tier
    /// exposes per-instance views in one registry: relabel each
    /// instance's snapshot with `{replica="<i>"}` and [`merge`](Self::merge)
    /// them — same-named series stay distinct because the label is part
    /// of the series identity.
    #[must_use]
    pub fn with_labels(&self, extra: &[(&str, &str)]) -> RegistrySnapshot {
        if extra.is_empty() {
            return self.clone();
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let (base, labels) = split_labels(name);
                let renamed = if labels.is_empty() {
                    labeled(base, extra)
                } else {
                    let inner = &labels[1..labels.len() - 1];
                    let appended = labeled(base, extra);
                    let extra_inner = &appended[base.len() + 1..appended.len() - 1];
                    format!("{base}{{{inner},{extra_inner}}}")
                };
                (renamed, value.clone())
            })
            .collect();
        RegistrySnapshot { metrics }
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` series (only
    /// buckets that change the cumulative count, plus `+Inf`), `_sum`,
    /// and `_count`. The output round-trips exactly through
    /// [`RegistrySnapshot::parse_prometheus_text`].
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let (base, labels) = split_labels(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {base} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {base} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {base} histogram");
                    let mut cumulative = 0u64;
                    for (b, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_upper_bound(b);
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            bucket_series(base, labels, &le.to_string())
                        );
                    }
                    let _ = writeln!(out, "{} {cumulative}", bucket_series(base, labels, "+Inf"));
                    let _ = writeln!(out, "{base}_sum{labels} {}", h.sum);
                    let _ = writeln!(out, "{base}_count{labels} {cumulative}");
                }
            }
        }
        out
    }

    /// Parses text produced by [`RegistrySnapshot::to_prometheus_text`]
    /// back into a snapshot. This is a deliberately tiny parser for the
    /// round-trip property tests — it handles exactly the subset this
    /// crate emits, not arbitrary Prometheus input.
    ///
    /// # Errors
    ///
    /// [`ParseError`] naming the offending line.
    pub fn parse_prometheus_text(text: &str) -> Result<RegistrySnapshot, ParseError> {
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        let mut metrics: BTreeMap<String, MetricValue> = BTreeMap::new();
        let err = |line: usize, reason: String| ParseError { line, reason };

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(err(line_no, "malformed TYPE line".into()));
                };
                kinds.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // A sample: `<series> <value>`; the series may contain spaces
            // only inside the label block, which this crate never emits.
            let Some(space) = line.rfind(' ') else {
                return Err(err(line_no, "sample without a value".into()));
            };
            let (series, value_text) = (line[..space].trim(), line[space + 1..].trim());
            let (series_base, series_labels) = split_labels(series);

            // Histogram component series?
            let histogram_of = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                let stem = series_base.strip_suffix(suffix)?;
                (kinds.get(stem).map(String::as_str) == Some("histogram"))
                    .then(|| (stem.to_string(), *suffix))
            });

            if let Some((stem, suffix)) = histogram_of {
                // Reconstruct the metric key: stem + labels minus `le`.
                let mut le: Option<String> = None;
                let mut other_labels: Vec<(String, String)> = Vec::new();
                if !series_labels.is_empty() {
                    let inner = &series_labels[1..series_labels.len() - 1];
                    for pair in inner.split(',').filter(|p| !p.is_empty()) {
                        let Some((k, v)) = pair.split_once('=') else {
                            return Err(err(line_no, format!("malformed label {pair}")));
                        };
                        let v = v.trim_matches('"').to_string();
                        if k == "le" {
                            le = Some(v);
                        } else {
                            other_labels.push((k.to_string(), v));
                        }
                    }
                }
                let key = labeled(
                    &stem,
                    &other_labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect::<Vec<_>>(),
                );
                let entry =
                    metrics.entry(key).or_insert_with(|| MetricValue::Histogram(Box::default()));
                let MetricValue::Histogram(h) = entry else {
                    return Err(err(line_no, format!("{stem} is not a histogram")));
                };
                match suffix {
                    "_sum" => {
                        h.sum = value_text
                            .parse()
                            .map_err(|e| err(line_no, format!("bad sum: {e}")))?;
                    }
                    "_count" => { /* implied by the buckets */ }
                    _ => {
                        let le = le.ok_or_else(|| err(line_no, "bucket without le".into()))?;
                        if le == "+Inf" {
                            continue; // total, implied by the buckets
                        }
                        let bound: u64 =
                            le.parse().map_err(|e| err(line_no, format!("bad le bound: {e}")))?;
                        let cumulative: u64 = value_text
                            .parse()
                            .map_err(|e| err(line_no, format!("bad bucket count: {e}")))?;
                        let b = crate::metrics::bucket_index(bound);
                        if bucket_upper_bound(b) != bound {
                            return Err(err(line_no, format!("le {bound} is not a bucket bound")));
                        }
                        // Counts arrive cumulative in ascending le order;
                        // subtract everything already assigned.
                        let assigned: u64 = h.buckets[..=b].iter().sum();
                        h.buckets[b] = cumulative
                            .checked_sub(assigned - h.buckets[b])
                            .ok_or_else(|| err(line_no, "non-monotone cumulative count".into()))?;
                    }
                }
                continue;
            }

            let value = match kinds.get(series_base).map(String::as_str) {
                Some("counter") => MetricValue::Counter(
                    value_text.parse().map_err(|e| err(line_no, format!("bad counter: {e}")))?,
                ),
                Some("gauge") => MetricValue::Gauge(
                    value_text.parse().map_err(|e| err(line_no, format!("bad gauge: {e}")))?,
                ),
                Some(other) => return Err(err(line_no, format!("unknown kind {other}"))),
                None => return Err(err(line_no, format!("sample {series} before its TYPE"))),
            };
            metrics.insert(series.to_string(), value);
        }
        Ok(RegistrySnapshot { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("mlq_test_total");
        let b = r.counter("mlq_test_total");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counter("mlq_test_total"), Some(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("mlq_test_x");
        let _ = r.gauge("mlq_test_x");
    }

    #[test]
    fn labeled_builds_and_escapes() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(labeled("m", &[("udf", "WIN")]), "m{udf=\"WIN\"}");
        assert_eq!(labeled("m", &[("a", "1"), ("b", "2")]), "m{a=\"1\",b=\"2\"}");
        assert_eq!(labeled("m", &[("k", "a\"b")]), "m{k=\"a\\\"b\"}");
    }

    #[test]
    fn snapshot_reads_every_kind() {
        let r = Registry::new();
        r.counter("mlq_test_c").add(7);
        r.gauge("mlq_test_g").set(1.5);
        r.histogram("mlq_test_h").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("mlq_test_c"), Some(7));
        assert_eq!(s.gauge("mlq_test_g"), Some(1.5));
        assert_eq!(s.histogram("mlq_test_h").unwrap().count(), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sum_counters_totals_a_labeled_family() {
        let r = Registry::new();
        r.counter(&labeled("mlq_serve_applied", &[("udf", "A")])).add(2);
        r.counter(&labeled("mlq_serve_applied", &[("udf", "B")])).add(3);
        r.counter("mlq_serve_applied_errors").add(100); // different family
        let s = r.snapshot();
        assert_eq!(s.sum_counters("mlq_serve_applied"), 5);
    }

    #[test]
    fn merge_is_commutative() {
        let r1 = Registry::new();
        r1.counter("mlq_test_c").add(1);
        r1.gauge("mlq_test_g").set(5.0);
        r1.histogram("mlq_test_h").record(10);
        let r2 = Registry::new();
        r2.counter("mlq_test_c").add(2);
        r2.gauge("mlq_test_g").set(3.0);
        r2.histogram("mlq_test_h").record(2000);
        r2.counter("mlq_test_only2").add(9);

        let (s1, s2) = (r1.snapshot(), r2.snapshot());
        let mut ab = s1.clone();
        ab.merge(&s2);
        let mut ba = s2.clone();
        ba.merge(&s1);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("mlq_test_c"), Some(3));
        assert_eq!(ab.gauge("mlq_test_g"), Some(5.0));
        assert_eq!(ab.histogram("mlq_test_h").unwrap().count(), 2);
        assert_eq!(ab.counter("mlq_test_only2"), Some(9));
    }

    #[test]
    fn with_labels_relabels_every_series() {
        let r = Registry::new();
        r.counter("mlq_test_c").add(4);
        r.counter(&labeled("mlq_test_lc", &[("udf", "A")])).add(7);
        r.gauge("mlq_test_g").set(2.5);
        r.histogram("mlq_test_h").record(11);
        let view = r.snapshot().with_labels(&[("replica", "3")]);
        assert_eq!(view.counter_labeled("mlq_test_c", &[("replica", "3")]), Some(4));
        assert_eq!(
            view.counter_labeled("mlq_test_lc", &[("udf", "A"), ("replica", "3")]),
            Some(7),
            "existing labels keep their position, extras append"
        );
        assert_eq!(view.gauge(&labeled("mlq_test_g", &[("replica", "3")])), Some(2.5));
        assert_eq!(view.histogram(&labeled("mlq_test_h", &[("replica", "3")])).unwrap().count(), 1);
        assert!(view.counter("mlq_test_c").is_none(), "unlabeled originals are gone");
        // No labels → verbatim copy.
        assert_eq!(r.snapshot().with_labels(&[]), r.snapshot());
    }

    #[test]
    fn relabeled_views_merge_without_colliding() {
        let per_replica = |n: u64| {
            let r = Registry::new();
            r.counter("mlq_serve_processed").add(n);
            r.snapshot()
        };
        let mut merged = per_replica(10).with_labels(&[("replica", "0")]);
        merged.merge(&per_replica(32).with_labels(&[("replica", "1")]));
        assert_eq!(merged.counter_labeled("mlq_serve_processed", &[("replica", "0")]), Some(10));
        assert_eq!(merged.counter_labeled("mlq_serve_processed", &[("replica", "1")]), Some(32));
        assert_eq!(merged.sum_counters("mlq_serve_processed"), 42);
        // The relabeled view still round-trips through the exposition.
        let text = merged.to_prometheus_text();
        assert_eq!(RegistrySnapshot::parse_prometheus_text(&text).unwrap(), merged);
    }

    #[test]
    fn prometheus_text_round_trips() {
        let r = Registry::new();
        r.counter("mlq_test_c").add(42);
        r.counter(&labeled("mlq_test_lc", &[("udf", "A")])).add(7);
        r.gauge("mlq_test_g").set(0.25);
        let h = r.histogram("mlq_test_h");
        for v in [0u64, 1, 3, 900, 1 << 30] {
            h.record(v);
        }
        let lh = r.histogram(&labeled("mlq_test_lh", &[("udf", "B")]));
        lh.record(5);
        let s = r.snapshot();
        let text = s.to_prometheus_text();
        let back = RegistrySnapshot::parse_prometheus_text(&text).unwrap();
        assert_eq!(back, s, "exposition must round-trip:\n{text}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(RegistrySnapshot::parse_prometheus_text("mlq_x 1").is_err());
        assert!(RegistrySnapshot::parse_prometheus_text("# TYPE mlq_x counter\nmlq_x abc").is_err());
        assert!(RegistrySnapshot::parse_prometheus_text("# TYPE mlq_x\n").is_err());
    }
}
