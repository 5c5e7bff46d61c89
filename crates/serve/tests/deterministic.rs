//! Deterministic concurrency harness for the serve/feedback pipeline.
//!
//! Built on [`MaintainerMode::Manual`]: no maintainer thread exists, so
//! nothing happens between explicit [`ConcurrentEstimator::step`] calls —
//! every drain, apply, and republish is driven by the test itself. That
//! turns the registry's metrics into exact, scriptable quantities: the
//! assertions below are equalities, not sleep-and-hope thresholds.
//!
//! The multi-writer tests use seeded workloads with the `Block` policy
//! and a capacity that can never fill, so the final totals are
//! schedule-independent whatever the OS does with thread interleaving.

use mlq_core::{MlqError, Space};
use mlq_serve::{
    BackpressurePolicy, ConcurrentEstimator, DurabilityConfig, MaintainerMode, PushOutcome,
    ServeConfig,
};
use mlq_udfs::ExecutionCost;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

const SEED_MATRIX: [u64; 4] = [0x5EED, 0xBEEF, 0xC0FFEE, 1];

fn manual_config() -> ServeConfig {
    ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() }
}

fn service(config: ServeConfig, udfs: &[&str]) -> ConcurrentEstimator {
    let space = Space::cube(2, 0.0, 100.0).expect("space");
    let mut builder = ConcurrentEstimator::builder(config);
    for name in udfs {
        builder = builder.register(name, &space).expect("register");
    }
    builder.build().expect("build")
}

fn cost(cpu: f64) -> ExecutionCost {
    ExecutionCost { cpu, io: 1.0, results: 0 }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn scripted_batches_account_exactly() {
    let svc = service(manual_config(), &["A", "B"]);

    // Script: 4 observations for A, 3 for B, no maintenance yet.
    for i in 0..4 {
        svc.observe("A", &[f64::from(i), 1.0], cost(10.0)).expect("observe A");
    }
    for i in 0..3 {
        svc.observe("B", &[f64::from(i), 2.0], cost(20.0)).expect("observe B");
    }
    assert_eq!(svc.feedback_lag(), 7);
    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_queue_enqueued"), Some(7));
    assert_eq!(m.counter("mlq_serve_processed"), Some(0));
    assert_eq!(m.gauge("mlq_serve_queue_depth"), Some(7.0));

    // Drain in scripted batch sizes 3, 3, 1 (FIFO: AAA, AB B, B).
    assert_eq!(svc.step(3).expect("step"), 3);
    assert_eq!(svc.step(3).expect("step"), 3);
    assert_eq!(svc.step(3).expect("step"), 1);
    assert_eq!(svc.step(3).expect("step"), 0, "queue is empty now");
    assert_eq!(svc.feedback_lag(), 0);

    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_processed"), Some(7));
    assert_eq!(m.gauge("mlq_serve_queue_depth"), Some(0.0));
    assert_eq!(m.gauge("mlq_serve_queue_max_depth"), Some(7.0));
    assert_eq!(m.counter("mlq_serve_applied{udf=\"A\"}"), Some(4));
    assert_eq!(m.counter("mlq_serve_applied{udf=\"B\"}"), Some(3));
    assert_eq!(m.counter("mlq_serve_apply_errors{udf=\"A\"}"), Some(0));

    // Batch-size histogram: exactly three non-empty batches totalling 7.
    let batches = m.histogram("mlq_serve_batch_size").expect("batch histogram");
    assert_eq!(batches.count(), 3);
    assert_eq!(batches.sum, 7);

    // Publish accounting: batch 1 touches A only, batch 2 touches A and
    // B, batch 3 touches B only — 4 feedback-driven republications.
    assert_eq!(m.counter("mlq_serve_publishes"), Some(4));
    // Initial publish + those republications, per shard.
    assert_eq!(m.counter("mlq_serve_snapshot_version{udf=\"A\"}"), Some(3));
    assert_eq!(m.counter("mlq_serve_snapshot_version{udf=\"B\"}"), Some(3));

    // The applied feedback is visible to readers after the step.
    let v = svc.predict("A", &[1.0, 1.0]).expect("predict").expect("trained");
    assert!((v - 110.0).abs() < 1e-9, "10 cpu + 100 io_weight * 1 io, got {v}");
}

/// A point of the wrong arity is refused at `observe`, by the handle
/// and by the service alike: it is never queued, so it reaches neither
/// the journal nor the guards, and no apply error is counted.
#[test]
fn wrong_arity_feedback_is_refused_before_the_queue() {
    let svc = Arc::new(service(manual_config(), &["A"]));
    let handle = svc.handle("A").expect("handle");
    let err = svc.observe("A", &[1.0, 2.0, 3.0], cost(10.0)).expect_err("3-D point accepted");
    assert_eq!(err, MlqError::DimensionMismatch { expected: 2, got: 3 });
    let err = handle.offer(&[1.0], cost(10.0)).expect_err("1-D point accepted");
    assert_eq!(err, MlqError::DimensionMismatch { expected: 2, got: 1 });
    svc.observe("A", &[1.0, 2.0], cost(10.0)).expect("well-formed point");
    assert_eq!(svc.step(usize::MAX).expect("step"), 1);

    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_queue_enqueued"), Some(1));
    assert_eq!(m.counter("mlq_serve_applied{udf=\"A\"}"), Some(1));
    assert_eq!(m.counter("mlq_serve_apply_errors{udf=\"A\"}"), Some(0));
}

#[test]
fn scripted_reader_sees_exactly_the_stepped_state() {
    let svc = service(manual_config(), &["F"]);
    let before = svc.snapshot("F").expect("snapshot");

    svc.observe("F", &[5.0, 5.0], cost(40.0)).expect("observe");
    // Not yet stepped: the published snapshot is unchanged.
    let held = svc.snapshot("F").expect("snapshot");
    assert_eq!(held.counters().version, before.counters().version);
    assert_eq!(held.predict(&[5.0, 5.0]).expect("predict"), None);

    assert_eq!(svc.step(16).expect("step"), 1);
    // The old snapshot is immutable; a re-fetch sees the new state.
    assert_eq!(held.predict(&[5.0, 5.0]).expect("predict"), None);
    let after = svc.snapshot("F").expect("snapshot");
    assert_eq!(after.counters().version, before.counters().version + 1);
    assert_eq!(after.counters().applied, 1);
    assert!(after.predict(&[5.0, 5.0]).expect("predict").is_some());
}

#[test]
fn drop_oldest_overflow_accounting_is_exact() {
    let config = ServeConfig {
        queue_capacity: 4,
        backpressure: BackpressurePolicy::DropOldest,
        ..manual_config()
    };
    let svc = service(config, &["F"]);

    let mut dropped = 0;
    for i in 0..10 {
        let outcome = svc.observe("F", &[f64::from(i % 7), 0.0], cost(5.0)).expect("observe");
        if outcome == PushOutcome::DroppedOldest {
            dropped += 1;
        }
    }
    assert_eq!(dropped, 6, "pushes 5..10 each evict the head");

    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_queue_enqueued"), Some(10));
    assert_eq!(m.counter("mlq_serve_queue_dropped_oldest"), Some(6));
    assert_eq!(m.gauge("mlq_serve_queue_depth"), Some(4.0));
    assert_eq!(m.gauge("mlq_serve_queue_max_depth"), Some(4.0));

    // Only the 4 surviving observations ever reach the model.
    assert_eq!(svc.step(usize::MAX).expect("step"), 4);
    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_processed"), Some(4));
    assert_eq!(m.counter("mlq_serve_applied{udf=\"F\"}"), Some(4));
}

#[test]
fn sample_policy_thins_on_a_deterministic_schedule() {
    let config = ServeConfig {
        queue_capacity: 2,
        backpressure: BackpressurePolicy::Sample { keep_one_in: 3 },
        ..manual_config()
    };
    let svc = service(config, &["F"]);

    for i in 0..2 {
        assert_eq!(
            svc.observe("F", &[f64::from(i), 0.0], cost(5.0)).expect("observe"),
            PushOutcome::Enqueued
        );
    }
    // Overflow ticks 1..=7: ticks 3 and 6 admit (evicting the head), the
    // other five are thinned out.
    let outcomes: Vec<PushOutcome> = (0..7)
        .map(|i| svc.observe("F", &[f64::from(i), 1.0], cost(5.0)).expect("observe"))
        .collect();
    assert_eq!(outcomes.iter().filter(|&&o| o == PushOutcome::DroppedOldest).count(), 2);
    assert_eq!(outcomes.iter().filter(|&&o| o == PushOutcome::SampledOut).count(), 5);

    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_queue_enqueued"), Some(4));
    assert_eq!(m.counter("mlq_serve_queue_dropped_oldest"), Some(2));
    assert_eq!(m.counter("mlq_serve_queue_sampled_out"), Some(5));
}

#[test]
fn seeded_writer_threads_converge_to_schedule_independent_totals() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 200;

    for seed0 in SEED_MATRIX {
        // Block + roomy capacity: no observation can ever be dropped, so
        // the totals below hold for every possible thread interleaving.
        let config = ServeConfig {
            queue_capacity: WRITERS * PER_WRITER,
            backpressure: BackpressurePolicy::Block,
            ..manual_config()
        };
        let svc = Arc::new(service(config, &["A", "B"]));

        thread::scope(|scope| {
            for w in 0..WRITERS {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    let mut seed = seed0.wrapping_add(w as u64).wrapping_mul(0x9E37_79B9) | 1;
                    for _ in 0..PER_WRITER {
                        let r = xorshift(&mut seed);
                        let name = if r.is_multiple_of(2) { "A" } else { "B" };
                        let p = [(r % 100) as f64, ((r >> 8) % 100) as f64];
                        svc.observe(name, &p, cost(5.0 + (r % 10) as f64)).expect("observe");
                    }
                });
            }
            // The test thread is the maintainer, stepping concurrently
            // with the writers. Interleaving varies; the totals cannot.
            let mut applied = 0usize;
            while applied < WRITERS * PER_WRITER {
                applied += svc.step(64).expect("step");
            }
        });

        let total = (WRITERS * PER_WRITER) as u64;
        let m = svc.metrics();
        assert_eq!(m.counter("mlq_serve_queue_enqueued"), Some(total), "seed {seed0:#x}");
        assert_eq!(m.counter("mlq_serve_processed"), Some(total), "seed {seed0:#x}");
        assert_eq!(m.counter("mlq_serve_queue_dropped_oldest"), Some(0));
        assert_eq!(m.counter("mlq_serve_queue_sampled_out"), Some(0));
        // The median/MAD screen sees costs in arrival order, which the
        // writers vary, so how many CPU costs it quarantines is
        // schedule-dependent. IO is constant, so never quarantined, and
        // every observation is either applied or CPU-quarantined.
        let mut settled = 0;
        for name in ["A", "B"] {
            let c = svc.counters(name).expect("counters");
            assert_eq!(c.io_guard.quarantined, 0, "seed {seed0:#x}");
            assert_eq!(c.apply_errors, 0, "seed {seed0:#x}");
            settled += c.applied + c.cpu_guard.quarantined;
        }
        assert_eq!(settled, total, "seed {seed0:#x}");
        assert_eq!(svc.feedback_lag(), 0);
        // Batch sizes sum to the processed total exactly.
        let batches = m.histogram("mlq_serve_batch_size").expect("batch histogram");
        assert_eq!(batches.sum, total, "seed {seed0:#x}");
    }
}

#[test]
fn manual_shutdown_flushes_everything_without_any_steps() {
    let svc = service(manual_config(), &["F"]);
    for i in 0..25 {
        svc.observe("F", &[f64::from(i % 9), 3.0], cost(7.0)).expect("observe");
    }
    let report = svc.shutdown().expect("first shutdown");
    assert_eq!(report.queue.enqueued, 25);
    assert_eq!(report.shards[0].1.applied, 25);
    assert_eq!(report.metrics.counter("mlq_serve_processed"), Some(25));
    assert_eq!(report.metrics.counter("mlq_serve_applied{udf=\"F\"}"), Some(25));
    assert!(svc.shutdown().is_none(), "shutdown is idempotent");
    assert!(svc.step(1).is_err(), "no stepping after shutdown");
}

#[test]
fn shutdown_applies_the_whole_queue_in_one_batch() {
    let svc = service(manual_config(), &["F"]);
    for i in 0..200 {
        svc.observe("F", &[f64::from(i % 97), 5.0], cost(4.0)).expect("observe");
    }
    let report = svc.shutdown().expect("shutdown");
    assert_eq!(report.metrics.counter("mlq_serve_processed"), Some(200));
    // No step bound but the queue's: one drain, one apply.
    let batches = report.metrics.histogram("mlq_serve_batch_size").expect("batch histogram");
    assert_eq!(batches.count(), 1);
    assert_eq!(batches.sum, 200);
}

#[test]
fn flush_drives_manual_maintenance_on_the_calling_thread() {
    let svc = service(manual_config(), &["F"]);
    for i in 0..10 {
        svc.observe("F", &[f64::from(i), 0.0], cost(3.0)).expect("observe");
    }
    svc.flush();
    assert_eq!(svc.feedback_lag(), 0);
    assert_eq!(svc.metrics().counter("mlq_serve_processed"), Some(10));
}

/// Lossy backpressure evicts admitted observations that will never be
/// applied: `flush()` must settle once `processed + dropped_oldest`
/// covers what was admitted, and `feedback_lag()` must not count the
/// evicted ones. `flush()` runs on its own thread behind a deadline, so
/// a regression fails here instead of hanging the suite.
fn assert_flush_settles(policy: BackpressurePolicy) {
    let config = ServeConfig { queue_capacity: 4, backpressure: policy, ..manual_config() };
    let svc = Arc::new(service(config, &["F"]));
    for i in 0..10 {
        svc.observe("F", &[f64::from(i), 0.0], cost(3.0)).expect("observe");
    }
    assert!(svc.queue_counters().dropped_oldest > 0, "{policy:?}: the queue must overflow");

    let (done, finished) = mpsc::channel();
    let flusher = Arc::clone(&svc);
    let handle = thread::spawn(move || {
        flusher.flush();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{policy:?}: flush() did not return"));
    handle.join().expect("flush thread panicked");

    let m = svc.metrics();
    assert_eq!(m.gauge("mlq_serve_queue_depth"), Some(0.0), "{policy:?}");
    assert_eq!(svc.feedback_lag(), 0, "{policy:?}");
    let queue = svc.queue_counters();
    let processed = m.counter("mlq_serve_processed").expect("processed");
    assert_eq!(queue.enqueued, processed + queue.dropped_oldest, "{policy:?}");
}

#[test]
fn flush_settles_under_drop_oldest() {
    assert_flush_settles(BackpressurePolicy::DropOldest);
}

#[test]
fn flush_settles_under_sample() {
    assert_flush_settles(BackpressurePolicy::Sample { keep_one_in: 2 });
}

/// Under the background maintainer a flush sleeps until the maintainer
/// reports progress, so an observe → flush round trip costs about one
/// apply-and-republish, not a polling interval. The round trips run on
/// their own thread behind a deadline, so a lost wake-up fails here
/// instead of hanging the suite.
#[test]
fn background_flush_waits_on_progress_not_a_poll() {
    const ROUND_TRIPS: usize = 300;
    let svc = Arc::new(service(ServeConfig::default(), &["F"]));
    let (done, finished) = mpsc::channel();
    let driver = Arc::clone(&svc);
    let handle = thread::spawn(move || {
        let mut latencies: Vec<Duration> = (0..ROUND_TRIPS)
            .map(|i| {
                let x = (i % 100) as f64;
                driver.observe("F", &[x, 100.0 - x], cost(3.0)).expect("observe");
                let start = Instant::now();
                driver.flush();
                start.elapsed()
            })
            .collect();
        latencies.sort_unstable();
        let _ = done.send(latencies[ROUND_TRIPS / 2]);
    });
    let median = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("background flush round trips did not finish");
    handle.join().expect("flush thread panicked");
    assert!(
        median < Duration::from_micros(500),
        "median background flush took {median:?}; a flush must wait on progress, not poll"
    );
    assert_eq!(svc.feedback_lag(), 0);
    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_processed"), Some(ROUND_TRIPS as u64));
}

#[test]
fn step_is_refused_under_background_mode() {
    let svc = service(ServeConfig::default(), &["F"]);
    assert!(svc.step(8).is_err());
    svc.shutdown();
}

/// The journal commits once per non-empty step — one write and one sync
/// — however many shards the step touched.
#[test]
fn journal_commits_once_per_step_not_once_per_shard() {
    let dir = std::env::temp_dir().join(format!("mlq_det_journal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let space = Space::cube(2, 0.0, 100.0).expect("space");
    let durability = DurabilityConfig { checkpoint_every: 0, ..DurabilityConfig::new(&dir) };
    let mut builder = ConcurrentEstimator::builder(manual_config());
    for name in ["A", "B", "C"] {
        builder = builder.register(name, &space).expect("register");
    }
    let svc = builder.with_durability_config(durability).build().expect("build");
    let steps = 5u32;
    for step in 0..steps {
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            let point = [f64::from(step) * 10.0, i as f64 * 30.0];
            svc.observe(name, &point, cost(f64::from(step) + 1.0)).expect("observe");
        }
        assert_eq!(svc.step(64).expect("step"), 3);
    }
    assert_eq!(svc.step(64).expect("step"), 0, "an empty step commits nothing");

    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_wal_commits"), Some(u64::from(steps)));
    let commit_nanos = m.histogram("mlq_serve_wal_commit_nanos").expect("commit histogram");
    assert_eq!(commit_nanos.count(), u64::from(steps));
    assert!(m.counter("mlq_serve_wal_bytes").unwrap_or(0) > 0);
    for name in ["A", "B", "C"] {
        let label = format!("{{udf=\"{name}\"}}");
        let appended = m.counter(&format!("mlq_serve_wal_appended_records{label}"));
        assert_eq!(appended, Some(u64::from(steps)));
        let synced = m.gauge(&format!("mlq_serve_wal_synced_seq{label}"));
        assert_eq!(synced, Some(f64::from(steps)));
        assert_eq!(svc.durable_seq(name).expect("durable seq"), u64::from(steps));
    }
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_snapshot_round_trips_through_prometheus_text() {
    let svc = service(manual_config(), &["A", "B"]);
    for i in 0..6 {
        svc.observe(if i % 2 == 0 { "A" } else { "B" }, &[f64::from(i), 1.0], cost(9.0))
            .expect("observe");
    }
    svc.step(usize::MAX).expect("step");
    let snap = svc.metrics();
    let text = snap.to_prometheus_text();
    let parsed = mlq_obs::RegistrySnapshot::parse_prometheus_text(&text).expect("parse exposition");
    assert_eq!(parsed.counter("mlq_serve_queue_enqueued"), Some(6));
    assert_eq!(parsed.counter("mlq_serve_applied{udf=\"A\"}"), Some(3));
    assert_eq!(
        parsed.histogram("mlq_serve_batch_size").map(|h| (h.count(), h.sum)),
        snap.histogram("mlq_serve_batch_size").map(|h| (h.count(), h.sum)),
    );
}

#[test]
fn batched_reads_match_single_reads_and_account_once_per_batch() {
    let svc = service(manual_config(), &["A"]);
    let mut seed = 0x5EEDu64;
    for _ in 0..200 {
        let p = [(xorshift(&mut seed) % 100) as f64, (xorshift(&mut seed) % 100) as f64];
        svc.observe("A", &p, cost((xorshift(&mut seed) % 50) as f64)).expect("observe");
    }
    svc.flush();

    let mut queries: Vec<Vec<f64>> = (0..64)
        .map(|_| vec![(xorshift(&mut seed) % 100) as f64, (xorshift(&mut seed) % 100) as f64])
        .collect();
    // Out-of-range points clamp onto the space's boundary on both paths.
    queries.extend([
        vec![-5.0, 50.0],
        vec![150.0, 50.0],
        vec![1e300, -1e300],
        vec![100.0, 100.0],
        vec![-0.0, 0.0],
        vec![f64::MIN_POSITIVE, 99.999_999_999],
    ]);
    let batch = svc.predict_batch("A", &queries).expect("batch");
    assert_eq!(batch.len(), queries.len());
    for (q, b) in queries.iter().zip(&batch) {
        assert_eq!(*b, svc.predict("A", q).expect("single"), "point {q:?}");
    }

    // Read accounting is exact: one batch plus one single per query, all
    // under the same per-UDF series.
    let m = svc.metrics();
    assert_eq!(m.counter("mlq_serve_reads{udf=\"A\"}"), Some(2 * queries.len() as u64));
    assert!(svc.predict_batch("missing", &queries).is_err());

    // A malformed point fails both paths with the same error.
    for bad in
        [vec![f64::NAN, 5.0], vec![5.0, f64::INFINITY], vec![f64::NEG_INFINITY, 0.0], vec![5.0]]
    {
        let single = svc.predict("A", &bad).expect_err("single accepted a malformed point");
        let batched = svc
            .predict_batch("A", &[vec![5.0, 5.0], bad.clone()])
            .expect_err("batch accepted a malformed point");
        assert_eq!(single, batched, "point {bad:?}");
    }
}

#[test]
fn batched_reads_use_one_snapshot_even_across_republication() {
    // A snapshot fetched before new feedback keeps answering the batch
    // from the old state; the service-level batch sees the new state —
    // both are internally consistent.
    let svc = service(manual_config(), &["F"]);
    svc.observe("F", &[5.0, 5.0], cost(40.0)).expect("observe");
    svc.flush();
    let held = svc.snapshot("F").expect("snapshot");

    svc.observe("F", &[5.0, 5.0], cost(400.0)).expect("observe");
    svc.flush();

    let old = held.predict_batch(&[vec![5.0, 5.0]]).expect("held batch");
    let new = svc.predict_batch("F", &[vec![5.0, 5.0]]).expect("service batch");
    assert_eq!(old[0], held.predict(&[5.0, 5.0]).expect("held single"));
    assert_eq!(new[0], svc.predict("F", &[5.0, 5.0]).expect("service single"));
    assert!(new[0].unwrap() > old[0].unwrap(), "republication moved the estimate");
}

#[test]
fn open_breaker_batches_fall_back_like_single_predictions() {
    use mlq_optimizer::Estimator as _;

    let svc = Arc::new(service(manual_config(), &["G"]));
    for i in 0..50 {
        svc.observe("G", &[f64::from(i % 10) * 10.0, 5.0], cost(20.0)).expect("observe");
    }
    svc.flush();
    // Hammer one component with outliers until its breaker opens.
    for _ in 0..64 {
        svc.observe("G", &[5.0, 5.0], cost(1e7)).expect("observe outlier");
        svc.flush();
        if !svc.counters("G").expect("counters").is_healthy() {
            break;
        }
    }
    let handle = svc.handle("G").expect("handle");
    let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i * 5 % 100), 5.0]).collect();
    let batch = handle.predict_batch(&queries).expect("handle batch");
    for (q, b) in queries.iter().zip(&batch) {
        assert_eq!(*b, handle.predict(q).expect("single"), "point {q:?}");
    }

    // Handle reads count exactly like service reads: one batch of 20
    // plus 20 singles = 40.
    let reads = svc.metrics().counter("mlq_serve_reads{udf=\"G\"}");
    assert_eq!(reads, Some(2 * queries.len() as u64));
}
