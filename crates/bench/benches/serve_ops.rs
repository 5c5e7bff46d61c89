//! The served feedback path's producer and maintainer costs, on a
//! Manual-mode service over the 4-D standard workload with a queue
//! large enough never to fill:
//!
//! - `observe_no_waiter`: 256 `observe` calls with no consumer parked on
//!   the queue, as in a Manual service between steps. The queue is
//!   drained, untimed, before each sample.
//! - `observe_then_step_256`: the same 256 calls, then one `step` that
//!   drains, applies and republishes them (no journal).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlq_bench::standard_workload;
use mlq_core::Space;
use mlq_serve::{ConcurrentEstimator, MaintainerMode, PushOutcome, ServeConfig};
use mlq_udfs::ExecutionCost;
use std::hint::black_box;

const BATCH: usize = 256;
const UDF: &str = "WIN";

fn service() -> ConcurrentEstimator {
    let config = ServeConfig {
        maintainer: MaintainerMode::Manual,
        queue_capacity: 4 * BATCH,
        ..ServeConfig::default()
    };
    let space = Space::cube(4, 0.0, 1000.0).expect("valid space");
    ConcurrentEstimator::builder(config)
        .register(UDF, &space)
        .and_then(|b| b.build())
        .expect("build service")
}

fn observe_all(svc: &ConcurrentEstimator, points: &[Vec<f64>], costs: &[ExecutionCost]) {
    for (p, &cost) in points.iter().zip(costs) {
        let outcome = svc.observe(UDF, black_box(p), cost).expect("observe");
        debug_assert_eq!(outcome, PushOutcome::Enqueued);
    }
}

fn bench_feedback(c: &mut Criterion) {
    let (points, actuals) = standard_workload(BATCH, 23);
    let costs: Vec<ExecutionCost> =
        actuals.iter().map(|&a| ExecutionCost { cpu: a, io: a / 8.0, results: 1 }).collect();
    let mut group = c.benchmark_group("serve_ops");

    let svc = service();
    group.bench_function("observe_no_waiter", |b| {
        b.iter_batched(
            || {
                svc.step(usize::MAX).expect("step");
            },
            |()| observe_all(&svc, &points, &costs),
            BatchSize::SmallInput,
        )
    });

    let svc = service();
    group.bench_function("observe_then_step_256", |b| {
        b.iter(|| {
            observe_all(&svc, &points, &costs);
            black_box(svc.step(usize::MAX).expect("step"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_feedback);
criterion_main!(benches);
