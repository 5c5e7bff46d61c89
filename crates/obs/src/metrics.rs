//! The metric primitives: atomic counters, gauges, and fixed-bucket
//! log-scale histograms.
//!
//! Every handle is a cheap `Arc` clone around lock-free atomics; recording
//! never allocates and never takes a lock, so instruments can sit directly
//! on serving hot paths. Consistent multi-metric reads go through
//! [`Registry::snapshot`](crate::Registry::snapshot), which reads every
//! atomic in one pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets. Bucket 0 holds the value `0`; bucket
/// `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]`, so 64 buckets cover the
/// whole `u64` domain.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros(v)`,
/// capped to the last bucket.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last bucket).
#[must_use]
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (registered ones come from
    /// [`Registry::counter`](crate::Registry::counter)).
    #[must_use]
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors an externally accumulated monotonic total into this
    /// counter: the stored value only ever moves up to `total`. Lets a
    /// subsystem that keeps its own cumulative counts (e.g. a buffer
    /// pool's `IoStats`) export them without double counting across
    /// repeated exports.
    pub fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A fresh, unregistered gauge at `0.0`.
    #[must_use]
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is below it (high-water marks).
    pub fn set_max(&self, value: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A fixed-bucket base-2 log-scale histogram.
///
/// Recording is two relaxed atomic adds — no allocation, no lock, no
/// floating point — which is what lets predict-latency instrumentation
/// live on the serving hot path. Quantiles are read from a
/// [`HistogramSnapshot`]: with power-of-two buckets they are exact to
/// within a factor of 2, which is the right resolution for latency
/// percentiles that span nanoseconds to milliseconds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a `Duration` in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy of the bucket counts and sum.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot { buckets, sum: self.0.sum.load(Ordering::Relaxed) }
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }
}

/// An immutable copy of a [`Histogram`]'s state.
///
/// The observation count is *defined* as the sum of the bucket counts —
/// there is no separate count field to drift out of sync, which is the
/// contract `tests/obs_contracts.rs` pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Total observations (the sum of the bucket counts).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value; `None` before any observation.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of
    /// the bucket containing that rank; `None` before any observation.
    /// `quantile(0.5)` is the p50, `quantile(0.99)` the p99.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(b));
            }
        }
        Some(bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Adds another snapshot into this one, bucket by bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value v falls in a bucket whose bounds bracket it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 20, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b), "{v} above bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "{v} below bucket {b}");
            }
        }
    }

    #[test]
    fn counter_adds_and_mirrors() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_total(100);
        assert_eq!(c.get(), 100);
        c.record_total(50); // never moves down
        assert_eq!(c.get(), 100);
    }

    #[test]
    fn gauge_sets_and_high_watermarks() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        g.set_max(2.0);
        assert_eq!(g.get(), 3.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.mean(), Some(50.5));
        // p50 of 1..=100 lands in the bucket holding 50 -> [32, 63].
        assert_eq!(s.quantile(0.5), Some(63));
        // p99 lands in [64, 127].
        assert_eq!(s.quantile(0.99), Some(127));
        assert!(s.quantile(1.0).is_some());
    }

    #[test]
    fn histogram_empty_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(1000);
        b.record(1000);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count(), 3);
        assert_eq!(sa.sum, 2001);
    }

    #[test]
    fn clones_share_the_instrument() {
        let c = Counter::new();
        let c2 = c.clone();
        c2.add(3);
        assert_eq!(c.get(), 3);
        let h = Histogram::new();
        let h2 = h.clone();
        h2.record(9);
        assert_eq!(h.count(), 1);
    }
}
