//! Benchmarks of the model-lifecycle features: snapshot/restore, the
//! snapshot envelope that hibernation, checkpoints and replica shipping
//! write, tree merging, trace replay, and the drift experiment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlq_bench::{standard_model, standard_workload};
use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, TreeSnapshot};
use mlq_experiments::drift::{run as run_drift, DriftConfig};
use std::hint::black_box;

fn trained(seed: u64) -> MemoryLimitedQuadtree {
    let (points, actuals) = standard_workload(1500, seed);
    let mut m = standard_model(16 << 10, InsertionStrategy::Eager);
    for (p, &a) in points.iter().zip(&actuals) {
        m.insert(p, a).unwrap();
    }
    m
}

fn bench_snapshot(c: &mut Criterion) {
    let model = trained(41);
    let mut group = c.benchmark_group("lifecycle");
    group.bench_function("snapshot", |b| b.iter(|| black_box(model.snapshot())));
    let snap = model.snapshot();
    group.bench_function("restore", |b| {
        b.iter(|| black_box(MemoryLimitedQuadtree::from_snapshot(black_box(&snap)).unwrap()))
    });
    group.finish();
}

/// The served models' shape: a 4-D lazy tree filled to a 64 KiB budget.
fn at_budget_64k() -> MemoryLimitedQuadtree {
    let (points, actuals) = standard_workload(20_000, 44);
    let mut m = standard_model(64 << 10, InsertionStrategy::Lazy { alpha: 0.05 });
    for (p, &a) in points.iter().zip(&actuals) {
        m.insert(p, a).unwrap();
    }
    m
}

fn bench_envelope(c: &mut Criterion) {
    let model = at_budget_64k();
    let snap = model.snapshot();
    let bytes = snap.to_envelope();
    let fallback = model.config().clone();
    let mut group = c.benchmark_group("lifecycle");
    group.bench_function("envelope_encode", |b| b.iter(|| black_box(snap.to_envelope())));
    group.bench_function("envelope_decode", |b| {
        b.iter(|| black_box(TreeSnapshot::from_envelope(black_box(&bytes)).unwrap()))
    });
    group.bench_function("restore_from_envelope", |b| {
        b.iter(|| {
            black_box(MemoryLimitedQuadtree::restore(black_box(&bytes), fallback.clone()).unwrap())
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let other = trained(43);
    c.bench_function("lifecycle/merge", |b| {
        b.iter_batched(
            || trained(42),
            |mut m| black_box(m.merge_from(&other).unwrap()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_drift(c: &mut Criterion) {
    let config = DriftConfig::quick();
    let mut group = c.benchmark_group("lifecycle");
    group.sample_size(10);
    group.bench_function("drift_experiment", |b| {
        b.iter(|| black_box(run_drift(black_box(&config)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot, bench_envelope, bench_merge, bench_drift);
criterion_main!(benches);
