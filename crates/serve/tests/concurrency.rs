//! Concurrency guarantees of the serving layer, in the style of
//! `crates/storage/tests/concurrency.rs`: seeded multi-threaded
//! workloads with deterministic assertions.
//!
//! The two load-bearing properties:
//!
//! 1. **Readers never observe a torn model.** Every prediction a reader
//!    gets must be explainable by *some* published snapshot — never a
//!    half-applied batch or a tree mid-compression.
//! 2. **Shutdown flushes the queue.** Every observation admitted before
//!    `shutdown` is applied to the models and counted in the report.

use mlq_core::{GuardConfig, Space};
use mlq_serve::{BackpressurePolicy, ConcurrentEstimator, PushOutcome, ServeConfig};
use mlq_udfs::ExecutionCost;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn space() -> Space {
    Space::cube(2, 0.0, 100.0).unwrap()
}

fn service(config: ServeConfig, udfs: &[&str]) -> Arc<ConcurrentEstimator> {
    let mut b = ConcurrentEstimator::builder(config);
    for name in udfs {
        b = b.register(name, &space()).unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// The service handle itself must be shareable across threads.
#[test]
fn service_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentEstimator>();
    assert_send_sync::<mlq_serve::EstimatorHandle>();
    assert_send_sync::<mlq_serve::ShardSnapshot>();
}

/// Each shard is fed a single constant cost; whatever snapshot a reader
/// lands on, every informed prediction must equal that shard's exact
/// combined constant. Any torn read — a partially applied batch, a tree
/// observed mid-mutation — would surface as a different value.
#[test]
fn readers_never_observe_a_torn_model() {
    const READERS: usize = 4;
    const SHARDS: usize = 3;
    const WRITES_PER_SHARD: usize = 400;

    let names: Vec<String> = (0..SHARDS).map(|i| format!("UDF{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let svc = service(ServeConfig { io_weight: 100.0, ..ServeConfig::default() }, &refs);
    // Shard i always observes cpu = 10(i+1), io = i+1.
    let expected: Vec<f64> = (0..SHARDS)
        .map(|i| {
            let k = (i + 1) as f64;
            10.0 * k + 100.0 * k
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    // Readers that have checked at least one informed prediction.
    let ready = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let names = names.clone();
            let expected = expected.clone();
            let done = Arc::clone(&done);
            let ready = Arc::clone(&ready);
            thread::spawn(move || {
                let mut informed = 0u64;
                let mut x = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
                while !done.load(Ordering::Relaxed) {
                    // xorshift: cheap deterministic point scatter.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let shard = (x % SHARDS as u64) as usize;
                    let p = [(x % 101) as f64, ((x >> 8) % 101) as f64];
                    let got = svc.predict(&names[shard], &p).unwrap();
                    if let Some(v) = got {
                        assert!(
                            (v - expected[shard]).abs() < 1e-9,
                            "torn read on {}: got {v}, expected {}",
                            names[shard],
                            expected[shard]
                        );
                        if informed == 0 {
                            ready.fetch_add(1, Ordering::Relaxed);
                        }
                        informed += 1;
                    }
                }
                informed
            })
        })
        .collect();

    // Writer: interleave feedback across shards while readers hammer.
    let write = |range: std::ops::Range<usize>| {
        for w in range {
            for (i, name) in names.iter().enumerate() {
                let k = (i + 1) as f64;
                let p = [((w * 13 + i * 7) % 101) as f64, ((w * 29 + i * 3) % 101) as f64];
                svc.observe(name, &p, ExecutionCost { cpu: 10.0 * k, io: k, results: 0 }).unwrap();
            }
        }
    };
    // First half, then hold the second half back until every reader has
    // checked an informed value, so all of them are reading informed
    // models while the second half is applied.
    write(0..WRITES_PER_SHARD / 2);
    svc.flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    while ready.load(Ordering::Relaxed) < READERS {
        // A reader that stopped early panicked; its join reports why.
        if readers.iter().any(|r| r.is_finished()) {
            break;
        }
        if Instant::now() > deadline {
            done.store(true, Ordering::Relaxed);
            panic!("readers saw no informed prediction after the first half was flushed");
        }
        thread::yield_now();
    }
    write(WRITES_PER_SHARD / 2..WRITES_PER_SHARD);
    svc.flush();
    done.store(true, Ordering::Relaxed);
    let informed: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(informed >= READERS as u64, "every reader should have seen informed predictions");

    let report = svc.shutdown().unwrap();
    let total_applied: u64 = report.shards.iter().map(|(_, c)| c.applied).sum();
    assert_eq!(total_applied, (SHARDS * WRITES_PER_SHARD) as u64);
}

/// Everything admitted before shutdown is applied — even feedback still
/// sitting in the queue when shutdown begins. How much is still queued
/// then (all, some or none of the writes) depends on how the background
/// maintainer was scheduled; the assertions hold for every split.
#[test]
fn shutdown_flushes_all_queued_feedback() {
    const WRITES: usize = 1000;
    let svc = service(ServeConfig::default(), &["F"]);
    for w in 0..WRITES {
        let p = [(w % 101) as f64, ((w * 31) % 101) as f64];
        // Constant honest cost: nothing should be quarantined.
        let out = svc.observe("F", &p, ExecutionCost { cpu: 5.0, io: 2.0, results: 1 }).unwrap();
        assert_eq!(out, PushOutcome::Enqueued);
    }
    let report = svc.shutdown().unwrap();
    assert_eq!(report.queue.enqueued, WRITES as u64);
    let (_, counters) = &report.shards[0];
    assert_eq!(counters.applied, WRITES as u64, "shutdown must flush the queue");
    assert_eq!(counters.apply_errors, 0);
    assert_eq!(counters.quarantined(), 0);
    // After shutdown, feedback is refused, not silently dropped.
    assert!(svc.observe("F", &[1.0, 1.0], ExecutionCost::default()).is_err());
    // Shutdown is idempotent.
    assert!(svc.shutdown().is_none());
}

/// Under `DropOldest`, a flood beyond queue capacity stays bounded and
/// consistent: admissions + evictions reconcile with the applied count.
#[test]
fn drop_oldest_flood_stays_consistent() {
    const FLOOD: usize = 5000;
    let svc = service(
        ServeConfig {
            queue_capacity: 16,
            backpressure: BackpressurePolicy::DropOldest,
            ..ServeConfig::default()
        },
        &["F"],
    );
    for w in 0..FLOOD {
        let p = [(w % 101) as f64, (w % 53) as f64];
        svc.observe("F", &p, ExecutionCost { cpu: 1.0, io: 1.0, results: 0 }).unwrap();
    }
    let report = svc.shutdown().unwrap();
    let (_, counters) = &report.shards[0];
    // Every admitted observation is either applied or was evicted.
    assert_eq!(
        counters.applied + report.queue.dropped_oldest,
        report.queue.enqueued,
        "admissions must reconcile: applied {} + dropped {} != enqueued {}",
        counters.applied,
        report.queue.dropped_oldest,
        report.queue.enqueued
    );
    assert!(report.queue.dropped_oldest > 0, "a 5000-deep flood into a 16-slot queue must evict");
    assert!(report.queue.max_depth <= 16);
}

/// PR-1 guard semantics survive the move onto the maintainer thread:
/// outliers fed through the asynchronous path are quarantined, and the
/// quarantine counts surface to readers through the counters snapshot.
#[test]
fn guard_outcomes_surface_through_counters_snapshot() {
    let svc =
        service(ServeConfig { guard: GuardConfig::default(), ..ServeConfig::default() }, &["F"]);
    // Honest warmup: establishes the guard's cost distribution.
    const HONEST: usize = 64;
    for w in 0..HONEST {
        let p = [(w % 101) as f64, ((w * 17) % 101) as f64];
        let cost = ExecutionCost { cpu: 100.0 + (w % 5) as f64, io: 10.0, results: 0 };
        svc.observe("F", &p, cost).unwrap();
    }
    svc.flush();
    let warm = svc.counters("F").unwrap();
    assert_eq!(warm.applied, HONEST as u64);
    assert_eq!(warm.quarantined(), 0, "honest feedback must not be quarantined");
    assert!(warm.is_healthy());

    // A burst of wild outliers: the guard must quarantine them off the
    // maintainer thread exactly as it would have synchronously.
    const OUTLIERS: usize = 8;
    for w in 0..OUTLIERS {
        let p = [(w % 101) as f64, (w % 101) as f64];
        svc.observe("F", &p, ExecutionCost { cpu: 1.0e9, io: 10.0, results: 0 }).unwrap();
    }
    svc.flush();
    let after = svc.counters("F").unwrap();
    assert!(
        after.cpu_guard.quarantined >= OUTLIERS as u64,
        "outlier CPU costs must be quarantined (got {})",
        after.cpu_guard.quarantined
    );
    // The IO component saw honest values throughout.
    assert_eq!(after.io_guard.quarantined, 0);
    // Quarantines are not apply errors, and the model still predicts from
    // the honest distribution.
    assert_eq!(after.apply_errors, 0);
    let v = svc.predict("F", &[50.0, 50.0]).unwrap().unwrap();
    assert!(v < 1.0e6, "outliers must not poison predictions, got {v}");
    svc.shutdown();
}

/// Snapshots handed to a reader stay internally consistent for as long as
/// the reader holds them, even across later feedback and republication.
#[test]
fn held_snapshots_are_immutable() {
    let svc = service(ServeConfig::default(), &["F"]);
    svc.observe("F", &[10.0, 10.0], ExecutionCost { cpu: 7.0, io: 0.0, results: 0 }).unwrap();
    svc.flush();
    let held = svc.snapshot("F").unwrap();
    let before = held.predict(&[10.0, 10.0]).unwrap();

    // Feed divergent costs and republish.
    for _ in 0..100 {
        svc.observe("F", &[10.0, 10.0], ExecutionCost { cpu: 900.0, io: 0.0, results: 0 }).unwrap();
    }
    svc.flush();
    let fresh = svc.snapshot("F").unwrap();
    assert_eq!(
        held.predict(&[10.0, 10.0]).unwrap(),
        before,
        "a held snapshot must never change underneath its reader"
    );
    assert!(fresh.version() > held.version());
    svc.shutdown();
}

/// The optimizer seam: an `EstimatorHandle` drives predictions and
/// feedback through the shared service.
#[test]
fn handles_route_through_the_shared_service() {
    use mlq_optimizer::Estimator;

    let svc = service(ServeConfig::default(), &["A", "B"]);
    let mut handle = svc.handle("A").unwrap();
    assert!(svc.handle("MISSING").is_err());
    assert_eq!(Estimator::name(&handle), "serve(A)");

    handle.observe(&[5.0, 5.0], ExecutionCost { cpu: 3.0, io: 1.0, results: 0 }).unwrap();
    svc.flush();
    let via_handle = Estimator::predict(&handle, &[5.0, 5.0]).unwrap();
    let via_service = svc.predict("A", &[5.0, 5.0]).unwrap();
    assert_eq!(via_handle, via_service);
    assert!(via_handle.is_some());
    // Shard isolation: B never learned anything.
    assert_eq!(svc.predict("B", &[5.0, 5.0]).unwrap(), None);
    svc.shutdown();
}

/// DropOldest flood accounting: however hard a seeded multi-writer flood
/// races the maintainer, every admitted observation is either applied or
/// counted as an eviction — once the queue quiesces,
/// `enqueued == processed + dropped_oldest` holds exactly. (Quiescing
/// goes through `shutdown`, not `flush`: under DropOldest the flush
/// target includes observations that were later evicted.)
#[test]
fn drop_oldest_flood_accounting_balances_exactly() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 3_000;

    let svc = service(
        ServeConfig {
            queue_capacity: 32,
            backpressure: BackpressurePolicy::DropOldest,
            ..ServeConfig::default()
        },
        &["FLOOD"],
    );
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                let mut evictions = 0u64;
                for i in 0..PER_WRITER {
                    let x = ((w * PER_WRITER + i) % 100) as f64;
                    let outcome = svc
                        .observe(
                            "FLOOD",
                            &[x, 50.0],
                            ExecutionCost { cpu: 2.0, io: 1.0, results: 1 },
                        )
                        .unwrap();
                    match outcome {
                        PushOutcome::Enqueued => {}
                        PushOutcome::DroppedOldest => evictions += 1,
                        PushOutcome::SampledOut => panic!("SampledOut under DropOldest"),
                    }
                }
                evictions
            })
        })
        .collect();
    let observed_evictions: u64 = writers.into_iter().map(|t| t.join().unwrap()).sum();

    let report = svc.shutdown().expect("first shutdown yields a report");
    let queue = report.queue;
    let processed = report.metrics.counter("mlq_serve_processed").unwrap_or(0);

    // Every push was admitted (DropOldest never refuses the new item).
    assert_eq!(queue.enqueued, (WRITERS * PER_WRITER) as u64);
    // Producers saw exactly the evictions the queue counted.
    assert_eq!(queue.dropped_oldest, observed_evictions);
    // The flood invariant: nothing admitted is unaccounted for.
    assert_eq!(
        queue.enqueued,
        processed + queue.dropped_oldest,
        "admitted observations must split exactly into applied and evicted"
    );
    // And everything processed reached the shard.
    let (_, counters) = &report.shards[0];
    assert_eq!(counters.applied + counters.apply_errors, processed);
    assert!(queue.max_depth <= 32);
}
