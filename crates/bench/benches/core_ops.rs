//! Microbenchmarks of the three MLQ operations whose costs the paper's
//! Experiment 2 reports: prediction (APC numerator), insertion, and
//! compression (AUC numerators), plus fleet-wide mass eviction and the
//! guarded observe that wraps insertion on the served write path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlq_bench::{standard_model, standard_workload};
use mlq_core::{
    evict_to_global_budget, CostModel, FleetModel, GuardConfig, GuardedModel, InsertionStrategy,
    MemoryLimitedQuadtree,
};
use std::hint::black_box;

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlq_predict");
    for (label, budget) in [("1800B", 1800usize), ("16KB", 16 << 10)] {
        let (points, actuals) = standard_workload(2000, 11);
        let mut model = standard_model(budget, InsertionStrategy::Eager);
        for (p, &a) in points.iter().zip(&actuals) {
            model.insert(p, a).unwrap();
        }
        let mut i = 0usize;
        group.bench_function(label, |b| {
            b.iter(|| {
                i = (i + 1) % points.len();
                black_box(model.predict(black_box(&points[i])).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlq_insert");
    let (points, actuals) = standard_workload(2000, 12);
    for (label, strategy) in
        [("eager", InsertionStrategy::Eager), ("lazy", InsertionStrategy::Lazy { alpha: 0.05 })]
    {
        group.bench_function(label, |b| {
            b.iter_batched(
                || standard_model(1800, strategy),
                |mut model| {
                    for (p, &a) in points.iter().zip(&actuals) {
                        model.insert(p, a).unwrap();
                    }
                    black_box(model.node_count())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// A γ-sized pass over a big (1 MiB) eager tree.
fn bench_compress(c: &mut Criterion) {
    let (points, actuals) = standard_workload(2000, 13);
    c.bench_function("mlq_compress_pass", |b| {
        b.iter_batched(
            || {
                // A big tree about to be compressed.
                let mut model = standard_model(1 << 20, InsertionStrategy::Eager);
                for (p, &a) in points.iter().zip(&actuals) {
                    model.insert(p, a).unwrap();
                }
                model
            },
            |mut model| black_box(model.compress()),
            BatchSize::SmallInput,
        )
    });
}

/// The served case: a 4-D lazy tree (`α = 0.05`, 64 KiB) already at its
/// budget, timed on the one insert that pushes it over and so runs a
/// compression pass. Set-up replays the stream to just before that
/// insert, so every iteration times the same pass.
fn bench_compress_at_budget(c: &mut Criterion) {
    let (points, actuals) = standard_workload(20_000, 14);
    let strategy = InsertionStrategy::Lazy { alpha: 0.05 };
    let mut base = standard_model(64 << 10, strategy);
    let insert = |m: &mut MemoryLimitedQuadtree, i: usize| {
        m.insert(&points[i], actuals[i]).unwrap().compression.is_some()
    };
    // Fill to the budget: stop after the first compression.
    let filled =
        (0..points.len()).find(|&i| insert(&mut base, i)).expect("stream fills the budget");
    // Find the next insert that compresses, then replay up to just before it.
    let mut probe = base.clone();
    let trigger = (filled + 1..points.len())
        .find(|&i| insert(&mut probe, i))
        .expect("stream overfills the budget again");
    for i in filled + 1..trigger {
        insert(&mut base, i);
    }
    let (point, actual) = (&points[trigger], actuals[trigger]);
    c.bench_function("mlq_compress_at_budget", |b| {
        b.iter_batched(
            || base.clone(),
            |mut model| {
                let outcome = model.insert(black_box(point), actual).unwrap();
                // Hand the tree back so a harness that drops outputs
                // untimed does not charge its deallocation to the pass.
                (outcome, model)
            },
            BatchSize::SmallInput,
        )
    });
}

/// Mass eviction, the shortlist's worst case: eight 4-D lazy trees
/// (`α = 0.05`, 64 KiB) at their budgets, all weight 1.0, squeezed by
/// one [`evict_to_global_budget`] call to ¾ of their summed bytes.
fn bench_fleet_mass_eviction(c: &mut Criterion) {
    let strategy = InsertionStrategy::Lazy { alpha: 0.05 };
    let fleet: Vec<MemoryLimitedQuadtree> = (0..8u64)
        .map(|seed| {
            let (points, actuals) = standard_workload(20_000, 40 + seed);
            let mut model = standard_model(64 << 10, strategy);
            // Fill to the budget: stop after the first compression.
            for (p, &a) in points.iter().zip(&actuals) {
                if model.insert(p, a).unwrap().compression.is_some() {
                    break;
                }
            }
            model
        })
        .collect();
    let budget = fleet.iter().map(MemoryLimitedQuadtree::bytes_used).sum::<usize>() * 3 / 4;
    c.bench_function("mlq_fleet_mass_eviction", |b| {
        b.iter_batched(
            || fleet.clone(),
            |mut models| {
                let mut view: Vec<FleetModel<'_>> =
                    models.iter_mut().map(|model| FleetModel { weight: 1.0, model }).collect();
                let report = evict_to_global_budget(&mut view, black_box(budget)).unwrap();
                drop(view);
                // Hand the trees back so their deallocation is not timed.
                (report, models)
            },
            BatchSize::SmallInput,
        )
    });
}

/// Observations per timed sample of [`bench_guarded_observe_at_budget`].
const GUARDED_BATCH: usize = 256;

/// The served write path's per-observation model work: a guarded 4-D
/// lazy tree (`α = 0.05`, 64 KiB) at its budget, timed over
/// [`GUARDED_BATCH`] observations per sample — the guard's screen, the
/// insert, any compression it triggers, and the guard's invariant
/// check. Every eighth cost is inflated 1000×, so the batch mixes
/// accepted and quarantined feedback.
fn bench_guarded_observe_at_budget(c: &mut Criterion) {
    let (points, actuals) = standard_workload(20_000, 15);
    let tree = standard_model(64 << 10, InsertionStrategy::Lazy { alpha: 0.05 });
    let mut guard = GuardedModel::for_quadtree(tree, GuardConfig::default()).expect("valid guard");
    let cost = |i: usize| if i.is_multiple_of(8) { actuals[i] * 1000.0 } else { actuals[i] };
    // Fill to the budget: stop after the first compression.
    let mut next = 0;
    while !guard.inner().has_compressed() {
        let _ = guard.observe(&points[next], cost(next));
        next += 1;
    }
    c.bench_function("mlq_guarded_observe_at_budget", |b| {
        b.iter(|| {
            for _ in 0..GUARDED_BATCH {
                let _ = black_box(guard.observe(black_box(&points[next]), cost(next)));
                next = (next + 1) % points.len();
            }
        })
    });
}

criterion_group!(
    benches,
    bench_predict,
    bench_insert,
    bench_compress,
    bench_compress_at_budget,
    bench_fleet_mass_eviction,
    bench_guarded_observe_at_budget
);
criterion_main!(benches);
