//! Property tests pinning down the `mlq-obs` contracts the rest of the
//! workspace leans on:
//!
//! * a histogram's observation count is *defined* as the sum of its
//!   bucket counts (no separate field to drift), and every recorded
//!   value lands in the bucket whose bounds bracket it;
//! * [`RegistrySnapshot::merge`] is commutative and associative, so
//!   per-run and per-shard snapshots can be combined in any order;
//! * the Prometheus text exposition round-trips exactly through
//!   [`RegistrySnapshot::parse_prometheus_text`] — what
//!   [`RegistrySnapshot::to_prometheus_text`] writes is what a consumer
//!   reads back.

use mlq_obs::{
    bucket_index, bucket_upper_bound, labeled, Registry, RegistrySnapshot, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// One generated registry's worth of raw instrument data. Fixed metric
/// names with generated values give merges real key overlap.
#[derive(Debug, Clone)]
struct RegistryData {
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histogram: Vec<u64>,
}

fn arb_registry_data() -> impl Strategy<Value = RegistryData> {
    (
        prop::collection::vec(0u64..1_000_000, 1..4),
        prop::collection::vec(-1e9f64..1e9, 1..4),
        prop::collection::vec(0u64..1u64 << 40, 0..24),
    )
        .prop_map(|(counters, gauges, histogram)| RegistryData { counters, gauges, histogram })
}

/// Materializes the generated data as a real registry and snapshots it.
fn snapshot_of(data: &RegistryData) -> RegistrySnapshot {
    let registry = Registry::new();
    for (i, &v) in data.counters.iter().enumerate() {
        let udf = format!("UDF{i}");
        registry.counter(&labeled("mlq_test_applied", &[("udf", &udf)])).add(v);
    }
    for (i, &v) in data.gauges.iter().enumerate() {
        registry.gauge(&format!("mlq_test_depth_{i}")).set(v);
    }
    let h = registry.histogram("mlq_test_latency_ns");
    for &v in &data.histogram {
        h.record(v);
    }
    registry.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_count_is_the_sum_of_its_buckets(
        values in prop::collection::vec(0u64..1u64 << 40, 0..200)
    ) {
        let registry = Registry::new();
        let h = registry.histogram("mlq_test_hist");
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        if let Some(&max) = values.iter().max() {
            // The top quantile is the bucket bound covering the maximum.
            prop_assert_eq!(
                snap.quantile(1.0),
                Some(bucket_upper_bound(bucket_index(max)))
            );
        } else {
            prop_assert_eq!(snap.quantile(1.0), None);
        }
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_brackets_it(value in 0u64..u64::MAX) {
        let b = bucket_index(value);
        prop_assert!(b < HISTOGRAM_BUCKETS);
        prop_assert!(value <= bucket_upper_bound(b));
        if b > 0 && b < HISTOGRAM_BUCKETS - 1 {
            prop_assert!(value > bucket_upper_bound(b - 1));
        }
        // Bounds are strictly increasing, so buckets partition the axis.
        if b + 1 < HISTOGRAM_BUCKETS {
            prop_assert!(bucket_upper_bound(b) < bucket_upper_bound(b + 1));
        }
    }

    #[test]
    fn merge_is_commutative_and_associative(
        a in arb_registry_data(),
        b in arb_registry_data(),
        c in arb_registry_data(),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // c ⊕ (b ⊕ a): reversed order and reversed grouping.
        let mut right = sc.clone();
        right.merge(&sb);
        right.merge(&sa);
        prop_assert_eq!(&left, &right);

        // Counters add across the merge...
        let total: u64 = [&a, &b, &c].iter().flat_map(|d| d.counters.iter()).sum();
        prop_assert_eq!(left.sum_counters("mlq_test_applied"), total);
        // ...histograms concatenate...
        let observations = (a.histogram.len() + b.histogram.len() + c.histogram.len()) as u64;
        let merged_hist = left.histogram("mlq_test_latency_ns").expect("merged histogram");
        prop_assert_eq!(merged_hist.count(), observations);
        // ...and gauges keep the high-water mark.
        let peak = [&a, &b, &c]
            .iter()
            .filter_map(|d| d.gauges.first().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(left.gauge("mlq_test_depth_0"), Some(peak));
    }

    #[test]
    fn prometheus_text_round_trips_exactly(data in arb_registry_data()) {
        let snap = snapshot_of(&data);
        let text = snap.to_prometheus_text();
        let parsed = RegistrySnapshot::parse_prometheus_text(&text)
            .expect("own exposition must parse");
        prop_assert_eq!(&parsed, &snap);
        // And the round-trip is a fixed point: render again, same text.
        prop_assert_eq!(parsed.to_prometheus_text(), text);
    }
}

#[test]
fn merging_into_an_empty_snapshot_copies_it() {
    let data =
        RegistryData { counters: vec![3, 7], gauges: vec![2.5], histogram: vec![1, 10, 100] };
    let snap = snapshot_of(&data);
    let mut empty = RegistrySnapshot::default();
    empty.merge(&snap);
    assert_eq!(empty, snap);
}
