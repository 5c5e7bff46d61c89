//! Lightweight span tracing with a bounded ring-buffer event log.
//!
//! A [`TraceRing`] records [`SpanEvent`]s — named spans with start offset
//! and duration — into a fixed-capacity ring: when full, the oldest event
//! is overwritten and counted in [`TraceRing::dropped`], so tracing can
//! stay enabled on hot paths without unbounded memory growth. Consumers
//! take the buffered events with [`TraceRing::drain`].
//!
//! Timing uses a monotonic epoch captured at ring construction; tests
//! that need exact determinism record events with explicit timestamps via
//! [`TraceRing::record`] instead of timing real spans.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name; static so recording never allocates.
    pub name: &'static str,
    /// Nanoseconds from the ring's epoch to the span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<SpanEvent>,
    dropped: u64,
    recorded: u64,
}

/// A bounded, thread-safe ring buffer of span events.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity.max(1)),
                dropped: 0,
                recorded: 0,
            }),
        }
    }

    /// Starts a span; the event is recorded when the guard drops.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span { ring: self, name, started: Instant::now() }
    }

    /// Records an event directly (deterministic tests, external clocks).
    pub fn record(&self, event: SpanEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
        inner.recorded += 1;
    }

    /// Takes every buffered event, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanEvent> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.events.drain(..).collect()
    }

    /// Events overwritten before being drained.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).dropped
    }

    /// Events ever recorded (buffered + dropped + drained).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).recorded
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).events.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Guard returned by [`TraceRing::span`]; records on drop.
#[must_use = "a span records when dropped; binding it to _ records immediately"]
pub struct Span<'a> {
    ring: &'a TraceRing,
    name: &'static str,
    started: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let start_ns =
            u64::try_from(self.started.saturating_duration_since(self.ring.epoch).as_nanos())
                .unwrap_or(u64::MAX);
        let duration_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ring.record(SpanEvent { name: self.name, start_ns, duration_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent { name, start_ns: start, duration_ns: dur }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.record(ev("e", i, 1));
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
        let events: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(events, vec![2, 3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let ring = TraceRing::new(8);
        {
            let _span = ring.span("work");
        }
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
    }
}
