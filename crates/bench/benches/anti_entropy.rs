//! One anti-entropy round of the replicated serving tier. Untimed setup
//! builds a Manual-mode group of four replicas and hands each replica a
//! fixed, seeded feedback batch; the timed part is one
//! `ReplicaGroup::sync`: extract every replica's delta, fold the deltas
//! into the merge base, then ship, install and republish the merged
//! models on every replica.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlq_bench::standard_workload;
use mlq_core::Space;
use mlq_serve::{MaintainerMode, ReplicaGroup, ReplicaGroupConfig, ServeConfig};
use mlq_udfs::ExecutionCost;
use std::hint::black_box;

const REPLICAS: usize = 4;
/// Feedbacks each replica absorbs before the round.
const BATCH: usize = 512;
const UDF: &str = "WIN";

fn group_with_pending_deltas(points: &[Vec<f64>], actuals: &[f64]) -> ReplicaGroup {
    let config = ReplicaGroupConfig {
        replicas: REPLICAS,
        serve: ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() },
        ..Default::default()
    };
    let space = Space::cube(4, 0.0, 1000.0).expect("valid space");
    let group = ReplicaGroup::builder(config)
        .register(UDF, &space)
        .expect("register")
        .build()
        .expect("build replica group");
    for (i, (p, &cost)) in points.iter().zip(actuals).enumerate() {
        let cost = ExecutionCost { cpu: cost, io: cost / 8.0, results: 1 };
        group.replica(i % REPLICAS).observe(UDF, p, cost).expect("observe");
    }
    group.pump().expect("pump");
    group
}

fn bench_sync(c: &mut Criterion) {
    let (points, actuals) = standard_workload(REPLICAS * BATCH, 17);
    let mut group = c.benchmark_group("anti_entropy");
    group.sample_size(20);
    group.bench_function("sync_4_replicas", |b| {
        b.iter_batched(
            || group_with_pending_deltas(&points, &actuals),
            // Dropping a group shuts it down with one more round; the
            // routine returns the spent group so that round runs after
            // the clock stops.
            |replicas| {
                let report = replicas.sync().expect("sync");
                black_box(report.merged_observations);
                replicas
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_sync);
criterion_main!(benches);
