//! The bounded multi-producer feedback queue between request threads and
//! the maintainer.
//!
//! Producers are request threads reporting observed UDF execution costs;
//! the single consumer is the maintainer thread, which drains batches,
//! applies them to the live models, and republishes snapshots. The queue
//! is deliberately bounded: an unbounded queue would turn a slow
//! maintainer into unbounded memory growth. What happens at the bound is
//! the serving layer's [`BackpressurePolicy`].

use mlq_core::MlqError;
use mlq_obs::{Counter, Gauge, Registry};
use mlq_udfs::ExecutionCost;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// What producers do when the feedback queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the maintainer frees space. No feedback is
    /// lost; request latency absorbs the lag.
    #[default]
    Block,
    /// Drop the oldest queued observation to admit the new one. Bounded
    /// lag; the model always learns from the freshest executions.
    DropOldest,
    /// Admit only every `keep_one_in`-th observation while full (each
    /// admission evicts the oldest), dropping the rest. A uniform thinning
    /// of the feedback stream under sustained overload.
    Sample {
        /// Admit one in this many overflowing observations (≥ 1; a value
        /// of 1 behaves like [`BackpressurePolicy::DropOldest`]).
        keep_one_in: u32,
    },
}

impl BackpressurePolicy {
    pub(crate) fn validate(self) -> Result<(), MlqError> {
        if let BackpressurePolicy::Sample { keep_one_in: 0 } = self {
            return Err(MlqError::InvalidConfig {
                reason: "Sample backpressure needs keep_one_in >= 1".into(),
            });
        }
        Ok(())
    }
}

/// How one feedback offer ([`EstimatorHandle::offer`](crate::EstimatorHandle::offer),
/// [`ConcurrentEstimator::observe`](crate::ConcurrentEstimator::observe)) was
/// admitted to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued without displacing anything.
    Enqueued,
    /// Enqueued after evicting the oldest queued observation.
    DroppedOldest,
    /// Not enqueued: thinned out by [`BackpressurePolicy::Sample`].
    SampledOut,
}

/// Monotonic counters describing the queue's life so far.
///
/// Since the observability rework this is a *view* assembled from the
/// shared [`mlq_obs::Registry`] (metrics `mlq_serve_queue_*`), kept as a
/// plain struct so call sites and reports keep their shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueCounters {
    /// Observations admitted into the queue.
    pub enqueued: u64,
    /// Oldest-entry evictions under `DropOldest` (and `Sample` admits).
    pub dropped_oldest: u64,
    /// Observations thinned out by `Sample`.
    pub sampled_out: u64,
    /// Times a producer blocked on a full queue under `Block`.
    pub block_waits: u64,
    /// Deepest the queue has ever been.
    pub max_depth: usize,
}

/// Registry handles behind the queue's accounting. Every mutation happens
/// under the queue mutex, so the individual instruments stay mutually
/// consistent at any quiesce point.
#[derive(Debug, Clone)]
pub(crate) struct QueueMetrics {
    enqueued: Counter,
    dropped_oldest: Counter,
    sampled_out: Counter,
    block_waits: Counter,
    depth: Gauge,
    max_depth: Gauge,
}

impl QueueMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        QueueMetrics {
            enqueued: registry.counter("mlq_serve_queue_enqueued"),
            dropped_oldest: registry.counter("mlq_serve_queue_dropped_oldest"),
            sampled_out: registry.counter("mlq_serve_queue_sampled_out"),
            block_waits: registry.counter("mlq_serve_queue_block_waits"),
            depth: registry.gauge("mlq_serve_queue_depth"),
            max_depth: registry.gauge("mlq_serve_queue_max_depth"),
        }
    }

    /// Assembles the classic [`QueueCounters`] view from the registry
    /// handles. `dropped_oldest` is read before `enqueued`, so a concurrent
    /// evict-and-admit can only make `enqueued − dropped_oldest` overstate
    /// the queued backlog, never understate it.
    pub(crate) fn view(&self) -> QueueCounters {
        QueueCounters {
            dropped_oldest: self.dropped_oldest.get(),
            enqueued: self.enqueued.get(),
            sampled_out: self.sampled_out.get(),
            block_waits: self.block_waits.get(),
            max_depth: self.max_depth.get() as usize,
        }
    }
}

/// One queued observation, bound for `shard`.
#[derive(Debug, Clone)]
pub(crate) struct Feedback {
    pub shard: usize,
    pub point: Vec<f64>,
    pub cost: ExecutionCost,
}

#[derive(Debug)]
struct Inner {
    items: VecDeque<Feedback>,
    closed: bool,
    /// Ticks once per overflow decision under `Sample`.
    sample_tick: u64,
}

/// Bounded MPSC queue: any number of producers, one maintainer.
#[derive(Debug)]
pub(crate) struct FeedbackQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    not_full: Condvar,
    not_empty: Condvar,
    metrics: QueueMetrics,
}

fn stopped() -> MlqError {
    MlqError::InvalidConfig { reason: "concurrent estimator is shut down".into() }
}

impl FeedbackQueue {
    pub(crate) fn new(capacity: usize, metrics: QueueMetrics) -> Self {
        FeedbackQueue {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                sample_tick: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            metrics,
        }
    }

    /// Admits `item` under `policy`.
    ///
    /// # Errors
    ///
    /// Fails only after [`close`](Self::close) — feedback offered to a
    /// shut-down estimator is refused, never silently dropped.
    pub(crate) fn push(
        &self,
        item: Feedback,
        policy: BackpressurePolicy,
    ) -> Result<PushOutcome, MlqError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut outcome = PushOutcome::Enqueued;
        loop {
            if inner.closed {
                return Err(stopped());
            }
            if inner.items.len() < self.capacity {
                break;
            }
            match policy {
                BackpressurePolicy::Block => {
                    self.metrics.block_waits.inc();
                    inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
                BackpressurePolicy::DropOldest => {
                    inner.items.pop_front();
                    self.metrics.dropped_oldest.inc();
                    outcome = PushOutcome::DroppedOldest;
                    break;
                }
                BackpressurePolicy::Sample { keep_one_in } => {
                    inner.sample_tick += 1;
                    if inner.sample_tick.is_multiple_of(u64::from(keep_one_in)) {
                        inner.items.pop_front();
                        self.metrics.dropped_oldest.inc();
                        outcome = PushOutcome::DroppedOldest;
                        break;
                    }
                    self.metrics.sampled_out.inc();
                    return Ok(PushOutcome::SampledOut);
                }
            }
        }
        inner.items.push_back(item);
        self.metrics.enqueued.inc();
        let depth = inner.items.len() as f64;
        self.metrics.depth.set(depth);
        self.metrics.max_depth.set_max(depth);
        drop(inner);
        self.not_empty.notify_one();
        Ok(outcome)
    }

    /// Takes up to `max` queued observations, waiting up to `wait` for the
    /// first one. Returns `(batch, finished)`; `finished` is true exactly
    /// once the queue is closed *and* fully drained, so a consumer looping
    /// until `finished` processes every admitted observation.
    pub(crate) fn drain(&self, max: usize, wait: Duration) -> (Vec<Feedback>, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while inner.items.is_empty() {
            if inner.closed {
                return (Vec::new(), true);
            }
            let (guard, timeout) =
                self.not_empty.wait_timeout(inner, wait).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if timeout.timed_out() && inner.items.is_empty() && !inner.closed {
                return (Vec::new(), false);
            }
        }
        let n = max.min(inner.items.len());
        let batch: Vec<Feedback> = inner.items.drain(..n).collect();
        self.metrics.depth.set(inner.items.len() as f64);
        drop(inner);
        // Several producers may be blocked; space for `n` opened up.
        self.not_full.notify_all();
        (batch, false)
    }

    /// Current queue depth (the feedback lag, in observations).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }

    /// Counters snapshot (a view over the shared registry).
    pub(crate) fn counters(&self) -> QueueCounters {
        self.metrics.view()
    }

    /// Refuses new feedback and wakes everyone; queued items remain for
    /// the consumer to flush.
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(shard: usize) -> Feedback {
        Feedback { shard, point: vec![1.0, 2.0], cost: ExecutionCost::default() }
    }

    fn queue(capacity: usize) -> FeedbackQueue {
        FeedbackQueue::new(capacity, QueueMetrics::new(&Registry::new()))
    }

    #[test]
    fn fifo_through_push_and_drain() {
        let q = queue(8);
        for i in 0..5 {
            assert_eq!(q.push(fb(i), BackpressurePolicy::Block).unwrap(), PushOutcome::Enqueued);
        }
        assert_eq!(q.len(), 5);
        let (batch, finished) = q.drain(3, Duration::from_millis(1));
        assert!(!finished);
        assert_eq!(batch.iter().map(|f| f.shard).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = queue(2);
        q.push(fb(0), BackpressurePolicy::DropOldest).unwrap();
        q.push(fb(1), BackpressurePolicy::DropOldest).unwrap();
        assert_eq!(
            q.push(fb(2), BackpressurePolicy::DropOldest).unwrap(),
            PushOutcome::DroppedOldest
        );
        let (batch, _) = q.drain(10, Duration::from_millis(1));
        assert_eq!(batch.iter().map(|f| f.shard).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.counters().dropped_oldest, 1);
    }

    #[test]
    fn sample_thins_overflow_uniformly() {
        let q = queue(1);
        let policy = BackpressurePolicy::Sample { keep_one_in: 4 };
        q.push(fb(0), policy).unwrap();
        let mut admitted = 0;
        let mut thinned = 0;
        for i in 1..=16 {
            match q.push(fb(i), policy).unwrap() {
                PushOutcome::DroppedOldest => admitted += 1,
                PushOutcome::SampledOut => thinned += 1,
                PushOutcome::Enqueued => unreachable!("queue is full"),
            }
        }
        assert_eq!(admitted, 4);
        assert_eq!(thinned, 12);
        assert_eq!(q.counters().sampled_out, 12);
    }

    #[test]
    fn closed_queue_refuses_pushes_and_finishes_drains() {
        let q = queue(4);
        q.push(fb(0), BackpressurePolicy::Block).unwrap();
        q.close();
        assert!(q.push(fb(1), BackpressurePolicy::Block).is_err());
        // The queued item is still flushed before `finished`.
        let (batch, finished) = q.drain(10, Duration::from_millis(1));
        assert_eq!(batch.len(), 1);
        assert!(!finished);
        let (batch, finished) = q.drain(10, Duration::from_millis(1));
        assert!(batch.is_empty());
        assert!(finished);
    }

    #[test]
    fn sample_policy_validates() {
        assert!(BackpressurePolicy::Sample { keep_one_in: 0 }.validate().is_err());
        assert!(BackpressurePolicy::Sample { keep_one_in: 1 }.validate().is_ok());
        assert!(BackpressurePolicy::Block.validate().is_ok());
    }
}
