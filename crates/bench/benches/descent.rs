//! Microbenchmarks of the frozen read path's three layers: scalar
//! descent (the single-call floor), the fused CPU+IO pair kernel over a
//! 256-query batch (the shard read path), and copy-on-write
//! republication vs. a full freeze after a small feedback batch.

use criterion::{criterion_group, criterion_main, Criterion};
use mlq_bench::standard_workload;
use mlq_core::{BatchPlan, FrozenTree, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use std::hint::black_box;

fn trained(dims: usize, n: usize) -> (MemoryLimitedQuadtree, Vec<Vec<f64>>) {
    let space = Space::cube(dims, 0.0, 1000.0).unwrap();
    let config = MlqConfig::builder(space)
        .memory_budget(1 << 18)
        .strategy(InsertionStrategy::Eager)
        .build()
        .unwrap();
    let mut model = MemoryLimitedQuadtree::new(config).unwrap();
    let mut seed = 0x5EEDu64 ^ (dims as u64) << 16;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let point =
        |r: u64| -> Vec<f64> { (0..dims).map(|d| ((r >> (d * 10)) % 1000) as f64).collect() };
    for _ in 0..n {
        let p = point(next());
        model.insert(&p, (next() % 1000) as f64 / 8.0).unwrap();
    }
    let queries: Vec<Vec<f64>> = (0..1024).map(|_| point(next())).collect();
    (model, queries)
}

fn bench_descent(c: &mut Criterion) {
    let (model, queries) = trained(4, 4000);
    let frozen = model.freeze();

    let mut group = c.benchmark_group("frozen_descent");
    let mut i = 0usize;
    group.bench_function("scalar", |b| {
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(frozen.predict(black_box(&queries[i])).unwrap())
        })
    });
    // The shard read path: prepare the plan once and descend both trees
    // fused into one wave, so their record loads overlap.
    let (model_b, _) = trained(4, 2000);
    let frozen_b = model_b.freeze();
    let mut plan = BatchPlan::new();
    let (mut out_a, mut out_b) = (Vec::with_capacity(256), Vec::with_capacity(256));
    group.bench_function("planned_256_fused_pair", |b| {
        b.iter(|| {
            plan.prepare(&frozen.config().space, frozen.packed_levels(), &queries[..256]).unwrap();
            FrozenTree::predict_planned_pair_into(
                &frozen, &frozen_b, &plan, &mut out_a, &mut out_b,
            );
            black_box(out_a.len() + out_b.len())
        })
    });
    group.finish();
}

fn bench_republish(c: &mut Criterion) {
    // Value-only feedback between publications: CoW patching should beat
    // the from-scratch freeze it replaces.
    let (points, actuals) = standard_workload(4000, 21);
    let space = Space::cube(4, 0.0, 1000.0).unwrap();
    let config = MlqConfig::builder(space)
        .memory_budget(1 << 18)
        .strategy(InsertionStrategy::Eager)
        .build()
        .unwrap();
    let mut model = MemoryLimitedQuadtree::new(config).unwrap();
    for (p, &a) in points.iter().zip(&actuals) {
        model.insert(p, a).unwrap();
    }
    let mut group = c.benchmark_group("republish");
    group.bench_function("full_freeze", |b| b.iter(|| black_box(model.freeze().node_count())));
    // Chain the snapshots: each refreeze patches the one before it, the
    // shape of a maintainer republishing after every small batch.
    let mut prev = model.freeze();
    group.bench_function("cow_refreeze_after_8_obs", |b| {
        b.iter(|| {
            for (p, &a) in points.iter().zip(&actuals).take(8) {
                model.insert(p, a).unwrap();
            }
            let next = model.refreeze(&prev);
            black_box(next.node_count());
            prev = next;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_descent, bench_republish);
criterion_main!(benches);
