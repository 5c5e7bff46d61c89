//! The bounded multi-producer feedback queue between request threads and
//! the maintainer.
//!
//! Producers are request threads reporting observed UDF execution costs;
//! the single consumer is the maintainer thread, which drains batches,
//! applies them to the live models, and republishes snapshots. The queue
//! is deliberately bounded: an unbounded queue would turn a slow
//! maintainer into unbounded memory growth. What happens at the bound is
//! the serving layer's [`BackpressurePolicy`].
//!
//! An enqueue is a lock, two ring appends and the registry updates:
//!
//! - Queued observations live in a [`Batch`]: a ring of fixed-size heads
//!   (shard, dimension count, cost) and one ring of coordinates, `dims`
//!   values per head. A queued observation owns no allocation, so once
//!   the rings have grown to the working depth a push allocates nothing.
//! - Condvars are signalled only when someone waits on them. Waiters
//!   register in [`Inner`] under the mutex before they sleep, so a
//!   signaller that reads the count under the same mutex never misses
//!   one; `notify_one` on Linux is a futex system call even with no
//!   waiter, and in Manual mode nobody ever waits.
//! - A drain moves the oldest observations into the consumer's `Batch`.
//!   Both sides keep their rings' capacity across drains, so neither
//!   allocates or frees per observation once the rings have grown to the
//!   working backlog.

use mlq_core::MlqError;
use mlq_obs::{Counter, Gauge, Registry};
use mlq_udfs::ExecutionCost;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// The fixed-size part of one queued observation; its `dims`
/// coordinates sit in the [`Batch`]'s coordinate ring.
#[derive(Debug, Clone, Copy)]
struct Head {
    shard: usize,
    dims: usize,
    cost: ExecutionCost,
}

/// Queued observations in FIFO order, kept in two rings: one of heads
/// and one of coordinates, `dims` values per head. Every observation
/// enters and leaves both rings together.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    heads: VecDeque<Head>,
    coords: VecDeque<f64>,
}

impl Batch {
    /// Observations held.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.coords.clear();
    }

    fn push_back(&mut self, shard: usize, point: &[f64], cost: ExecutionCost) {
        self.heads.push_back(Head { shard, dims: point.len(), cost });
        self.coords.extend(point);
    }

    /// Drops the oldest observation, head and coordinates together.
    fn pop_front(&mut self) {
        if let Some(head) = self.heads.pop_front() {
            self.coords.drain(..head.dims);
        }
    }

    /// Moves the oldest `n` observations to the back of `out`.
    fn move_front(&mut self, n: usize, out: &mut Batch) {
        let dims: usize = self.heads.range(..n).map(|h| h.dims).sum();
        out.heads.extend(self.heads.drain(..n));
        out.coords.extend(self.coords.drain(..dims));
    }

    /// The observations in FIFO order, as `(shard, point, cost)`. Takes
    /// `&mut self` only to make both rings contiguous, which moves
    /// nothing unless a lossy policy's evictions wrapped them.
    pub(crate) fn iter(&mut self) -> impl Iterator<Item = (usize, &[f64], ExecutionCost)> + '_ {
        let heads: &[Head] = self.heads.make_contiguous();
        let mut coords: &[f64] = self.coords.make_contiguous();
        heads.iter().map(move |head| {
            let (point, rest) = coords.split_at(head.dims);
            coords = rest;
            (head.shard, point, head.cost)
        })
    }
}

#[derive(Debug)]
struct Inner {
    items: Batch,
    closed: bool,
    /// Ticks once per overflow decision under `Sample`.
    sample_tick: u64,
    /// Consumers asleep in [`FeedbackQueue::drain`] on `not_empty`.
    parked_consumers: usize,
    /// Producers asleep in [`FeedbackQueue::push`] on `not_full`.
    blocked_producers: usize,
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
                items: Batch::default(),
                closed: false,
                sample_tick: 0,
                parked_consumers: 0,
                blocked_producers: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one observation of `shard` under `policy`. The caller has
    /// checked `point` against the shard's dimension count.
    ///
    /// # Errors
    ///
    /// Fails only after [`close`](Self::close) — feedback offered to a
    /// shut-down estimator is refused, never silently dropped.
    pub(crate) fn push(
        &self,
        shard: usize,
        point: &[f64],
        cost: ExecutionCost,
        policy: BackpressurePolicy,
    ) -> Result<PushOutcome, MlqError> {
        let mut inner = self.lock();
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
                    inner.blocked_producers += 1;
                    inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    inner.blocked_producers -= 1;
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
        inner.items.push_back(shard, point, cost);
        self.metrics.enqueued.inc();
        let depth = inner.items.len() as f64;
        self.metrics.depth.set(depth);
        self.metrics.max_depth.set_max(depth);
        let wake = inner.parked_consumers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(outcome)
    }

    /// Moves up to `max` queued observations, oldest first, into `out`
    /// (cleared first), waiting up to `wait` for the first one; a zero
    /// `wait` never sleeps. Returns `finished`: true exactly once the
    /// queue is closed *and* fully drained, so a consumer looping until
    /// `finished` processes every admitted observation.
    pub(crate) fn drain(&self, out: &mut Batch, max: usize, wait: Duration) -> bool {
        out.clear();
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return true;
            }
            if wait.is_zero() {
                return false;
            }
            inner.parked_consumers += 1;
            let (guard, timeout) =
                self.not_empty.wait_timeout(inner, wait).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.parked_consumers -= 1;
            if timeout.timed_out() && inner.items.is_empty() && !inner.closed {
                return false;
            }
        }
        let n = max.min(inner.items.len());
        inner.items.move_front(n, out);
        self.metrics.depth.set(inner.items.len() as f64);
        let wake = inner.blocked_producers > 0;
        drop(inner);
        // Several producers may be blocked; space opened up for all of
        // the drained observations.
        if wake {
            self.not_full.notify_all();
        }
        false
    }

    /// Current queue depth (the feedback lag, in observations).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Counters snapshot (a view over the shared registry).
    pub(crate) fn counters(&self) -> QueueCounters {
        self.metrics.view()
    }

    /// Refuses new feedback and wakes everyone; queued items remain for
    /// the consumer to flush.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::thread;

    type Entry = (usize, Vec<f64>, ExecutionCost);

    /// Shard `shard`'s dimension count in these tests: 1 to 4, so
    /// neighbouring observations differ in length.
    fn dims(shard: usize) -> usize {
        1 + shard % 4
    }

    /// A point whose coordinates name its shard and its position in the
    /// push sequence, so a misaligned ring shows as a wrong value.
    fn entry(shard: usize, seq: usize) -> Entry {
        let point = (0..dims(shard)).map(|d| (seq * 10 + d) as f64).collect();
        (shard, point, ExecutionCost { cpu: seq as f64, io: shard as f64, results: 1 })
    }

    fn push(q: &FeedbackQueue, e: &Entry, policy: BackpressurePolicy) -> PushOutcome {
        q.push(e.0, &e.1, e.2, policy).unwrap()
    }

    fn contents(batch: &mut Batch) -> Vec<Entry> {
        batch.iter().map(|(shard, point, cost)| (shard, point.to_vec(), cost)).collect()
    }

    fn drain(q: &FeedbackQueue, max: usize) -> (Vec<Entry>, bool) {
        let mut batch = Batch::default();
        let finished = q.drain(&mut batch, max, Duration::from_millis(1));
        (contents(&mut batch), finished)
    }

    fn shards(entries: &[Entry]) -> Vec<usize> {
        entries.iter().map(|e| e.0).collect()
    }

    fn queue(capacity: usize) -> FeedbackQueue {
        FeedbackQueue::new(capacity, QueueMetrics::new(&Registry::new()))
    }

    #[test]
    fn fifo_through_push_and_drain() {
        let q = queue(8);
        for i in 0..5 {
            assert_eq!(push(&q, &entry(i, i), BackpressurePolicy::Block), PushOutcome::Enqueued);
        }
        assert_eq!(q.len(), 5);
        let (batch, finished) = drain(&q, 3);
        assert!(!finished);
        assert_eq!(shards(&batch), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = queue(2);
        push(&q, &entry(0, 0), BackpressurePolicy::DropOldest);
        push(&q, &entry(1, 1), BackpressurePolicy::DropOldest);
        assert_eq!(
            push(&q, &entry(2, 2), BackpressurePolicy::DropOldest),
            PushOutcome::DroppedOldest
        );
        let (batch, _) = drain(&q, 10);
        assert_eq!(shards(&batch), vec![1, 2]);
        assert_eq!(q.counters().dropped_oldest, 1);
    }

    #[test]
    fn sample_thins_overflow_uniformly() {
        let q = queue(1);
        let policy = BackpressurePolicy::Sample { keep_one_in: 4 };
        push(&q, &entry(0, 0), policy);
        let mut admitted = 0;
        let mut thinned = 0;
        for i in 1..=16 {
            match push(&q, &entry(i, i), policy) {
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
        push(&q, &entry(0, 0), BackpressurePolicy::Block);
        q.close();
        assert!(q
            .push(1, &[1.0, 2.0], ExecutionCost::default(), BackpressurePolicy::Block)
            .is_err());
        // The queued item is still flushed before `finished`.
        let (batch, finished) = drain(&q, 10);
        assert_eq!(batch.len(), 1);
        assert!(!finished);
        let (batch, finished) = drain(&q, 10);
        assert!(batch.is_empty());
        assert!(finished);
    }

    #[test]
    fn sample_policy_validates() {
        assert!(BackpressurePolicy::Sample { keep_one_in: 0 }.validate().is_err());
        assert!(BackpressurePolicy::Sample { keep_one_in: 1 }.validate().is_ok());
        assert!(BackpressurePolicy::Block.validate().is_ok());
    }

    /// Evictions under `DropOldest` take each head's own coordinates with
    /// it, across shards of different dimension counts and after the
    /// rings wrap.
    #[test]
    fn drop_oldest_keeps_mixed_dimension_rings_aligned() {
        let q = queue(3);
        let pushed: Vec<Entry> = (0..11).map(|i| entry(i % 5, i)).collect();
        for e in &pushed {
            push(&q, e, BackpressurePolicy::DropOldest);
        }
        let (batch, _) = drain(&q, usize::MAX);
        assert_eq!(batch, pushed[8..].to_vec());
        assert_eq!(q.counters().dropped_oldest, 8);
    }

    /// `Sample` admits evict the oldest observation whole; thinned-out
    /// observations leave no coordinates behind.
    #[test]
    fn sample_keeps_mixed_dimension_rings_aligned() {
        let q = queue(2);
        let policy = BackpressurePolicy::Sample { keep_one_in: 3 };
        let mut admitted = Vec::new();
        for i in 0..12 {
            let e = entry(i % 4, i);
            if push(&q, &e, policy) != PushOutcome::SampledOut {
                admitted.push(e);
            }
        }
        let (batch, _) = drain(&q, usize::MAX);
        assert_eq!(batch, admitted[admitted.len() - 2..].to_vec());
    }

    /// A drain of fewer than everything queued moves exactly the oldest
    /// `max` observations and leaves the rest, coordinates included, for
    /// the next drain.
    #[test]
    fn partial_drain_keeps_mixed_dimension_rings_aligned() {
        let q = queue(16);
        let pushed: Vec<Entry> = (0..9).map(|i| entry((i * 3) % 7, i)).collect();
        for e in &pushed {
            push(&q, e, BackpressurePolicy::Block);
        }
        let mut batch = Batch::default();
        assert!(!q.drain(&mut batch, 4, Duration::ZERO));
        assert_eq!(contents(&mut batch), pushed[..4].to_vec());
        for e in &pushed[..2] {
            push(&q, e, BackpressurePolicy::Block);
        }
        assert!(!q.drain(&mut batch, 3, Duration::ZERO));
        assert_eq!(contents(&mut batch), pushed[4..7].to_vec());
        assert!(!q.drain(&mut batch, usize::MAX, Duration::ZERO));
        let mut rest = pushed[7..].to_vec();
        rest.extend_from_slice(&pushed[..2]);
        assert_eq!(contents(&mut batch), rest);
        assert_eq!(q.len(), 0);
    }

    /// A consumer parked on an empty queue wakes when a producer pushes,
    /// long before its 60 s wait runs out: a lost wake-up shows as the
    /// 10 s timeout, not as a slow median.
    #[test]
    fn parked_consumer_wakes_on_push() {
        let q = Arc::new(queue(4));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut batch = Batch::default();
                let finished = q.drain(&mut batch, usize::MAX, Duration::from_secs(60));
                tx.send((contents(&mut batch), finished)).unwrap();
            })
        };
        while q.lock().parked_consumers == 0 {
            thread::yield_now();
        }
        push(&q, &entry(2, 7), BackpressurePolicy::Block);
        let (batch, finished) =
            rx.recv_timeout(Duration::from_secs(10)).expect("parked consumer was never woken");
        assert_eq!(batch, vec![entry(2, 7)]);
        assert!(!finished);
        consumer.join().unwrap();
    }

    /// A producer blocked on a full queue under `Block` wakes when a
    /// drain frees space.
    #[test]
    fn blocked_producer_wakes_on_drain() {
        let q = Arc::new(queue(1));
        push(&q, &entry(0, 0), BackpressurePolicy::Block);
        let (tx, rx) = mpsc::channel();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                tx.send(push(&q, &entry(1, 1), BackpressurePolicy::Block)).unwrap();
            })
        };
        while q.lock().blocked_producers == 0 {
            thread::yield_now();
        }
        let (batch, _) = drain(&q, usize::MAX);
        assert_eq!(batch, vec![entry(0, 0)]);
        let outcome =
            rx.recv_timeout(Duration::from_secs(10)).expect("blocked producer was never woken");
        assert_eq!(outcome, PushOutcome::Enqueued);
        producer.join().unwrap();
        assert_eq!(drain(&q, usize::MAX).0, vec![entry(1, 1)]);
        assert_eq!(q.counters().block_waits, 1);
    }

    fn policy(tag: u8) -> BackpressurePolicy {
        match tag {
            0 => BackpressurePolicy::Block,
            1 => BackpressurePolicy::DropOldest,
            k => BackpressurePolicy::Sample { keep_one_in: u32::from(k - 1) },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pushes and drains under one policy agree with a plain
        /// `VecDeque` of owned entries: FIFO contents of every drain, the
        /// final backlog, and every `QueueCounters` field.
        #[test]
        fn queue_matches_a_reference_model(
            capacity in 1usize..8,
            tag in 0u8..5,
            ops in prop::collection::vec((0u8..3, 0usize..6, 1usize..10), 1..80),
        ) {
            let policy = policy(tag);
            let q = queue(capacity);
            let mut model: VecDeque<Entry> = VecDeque::new();
            let mut want = QueueCounters::default();
            let mut tick = 0u64;
            for (seq, &(op, shard, max)) in ops.iter().enumerate() {
                if op == 0 {
                    let (got, finished) = drain(&q, max);
                    let n = max.min(model.len());
                    let expected: Vec<Entry> = model.drain(..n).collect();
                    prop_assert_eq!(got, expected);
                    prop_assert!(!finished);
                    continue;
                }
                let e = entry(shard, seq);
                if model.len() == capacity {
                    match policy {
                        // A full queue would block forever on this thread.
                        BackpressurePolicy::Block => continue,
                        BackpressurePolicy::DropOldest => {}
                        BackpressurePolicy::Sample { keep_one_in } => {
                            tick += 1;
                            if !tick.is_multiple_of(u64::from(keep_one_in)) {
                                prop_assert_eq!(push(&q, &e, policy), PushOutcome::SampledOut);
                                want.sampled_out += 1;
                                continue;
                            }
                        }
                    }
                    prop_assert_eq!(push(&q, &e, policy), PushOutcome::DroppedOldest);
                    model.pop_front();
                    want.dropped_oldest += 1;
                } else {
                    prop_assert_eq!(push(&q, &e, policy), PushOutcome::Enqueued);
                }
                model.push_back(e);
                want.enqueued += 1;
                want.max_depth = want.max_depth.max(model.len());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.counters(), want);
            let (rest, _) = drain(&q, usize::MAX);
            prop_assert_eq!(rest, Vec::from(model));
        }
    }
}
