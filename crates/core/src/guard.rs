//! Feedback guarding: validation, outlier quarantine, and a circuit
//! breaker around any [`CostModel`].
//!
//! The feedback loop of a self-tuning cost model runs inside a query
//! optimizer, where a malformed observation must never take the optimizer
//! down and a corrupted model must never silently poison plan choices.
//! [`GuardedModel`] hardens any inner [`CostModel`] in three layers:
//!
//! 1. **Point validation** — feedback points are checked against the
//!    model [`Space`]; out-of-range coordinates are clamped onto the
//!    boundary or rejected, per [`PointPolicy`]. Non-finite coordinates
//!    and costs are always rejected.
//! 2. **Outlier quarantine** — observed costs are screened against a
//!    sliding window of recently accepted costs using the median/MAD
//!    robust statistic. A cost deviating from the window median by more
//!    than `mad_k` scaled MADs is quarantined: counted, reported as
//!    [`MlqError::FeedbackQuarantined`], and never shown to the inner
//!    model. (A window of honest costs is immune to a burst of 100×
//!    outliers — unlike mean/stddev screening, which the outliers
//!    themselves would inflate.)
//! 3. **Circuit breaker** — repeated inner-model failures on *valid*
//!    input, or one failed structural-invariant check, trip the guard
//!    [`BreakerState::Open`]. A cheap check of what an observation
//!    changed runs after every observation the inner model accepts.
//!    While open, predictions degrade to a cheap running-average
//!    fallback (the global mean of every accepted cost) and the inner
//!    model is left untouched. After `probe_after` guarded
//!    operations the breaker goes [`BreakerState::HalfOpen`] and probes
//!    the inner model again; `probe_successes` consecutive successes
//!    (plus a passing check of the whole model) close it.
//!
//! The guard's own state — breaker state and per-layer counters — is
//! observable through [`GuardedModel::state`] and
//! [`GuardedModel::counters`], so operators can distinguish "healthy",
//! "degraded but serving", and "rejecting hostile feedback".

use crate::error::MlqError;
use crate::model::CostModel;
use crate::space::{Space, MAX_DIMS};
use crate::summary::Summary;
use crate::tree::MemoryLimitedQuadtree;
use std::cell::Cell;
use std::collections::VecDeque;

/// Signature of a structural-invariant check over the inner model.
type InvariantCheck<M> = fn(&M) -> Result<(), String>;

/// What to do with a feedback point whose coordinates fall outside the
/// model space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointPolicy {
    /// Clamp the offending coordinates onto the space boundary (the
    /// inner quadtree's own convention for queries).
    #[default]
    Clamp,
    /// Reject the observation with [`MlqError::InvalidSpace`].
    Reject,
}

/// Tuning knobs of a [`GuardedModel`]. Start from `GuardConfig::default()`
/// and override fields as needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Policy for out-of-space feedback points.
    pub point_policy: PointPolicy,
    /// Sliding-window length for the outlier quarantine.
    pub window: usize,
    /// Observations required in the window before quarantine screening
    /// activates (below this, every finite cost is accepted).
    pub min_window: usize,
    /// Quarantine threshold in scaled MADs from the window median.
    pub mad_k: f64,
    /// Consecutive inner-model failures that trip the breaker open.
    pub trip_threshold: u32,
    /// Guarded operations to wait, while open, before half-opening.
    pub probe_after: u32,
    /// Consecutive successful probes required to close again.
    pub probe_successes: u32,
    /// Consecutive quarantined observations treated as a cost-regime
    /// change rather than outliers: once a streak reaches this length
    /// the quarantine window is cleared and the triggering observation
    /// accepted, so screening re-learns the new regime (0 disables the
    /// escape — sustained drift then stays quarantined forever).
    ///
    /// The streak requirement is what separates drift from an
    /// adversarial flood: drifted feedback is *every* observation, so
    /// the streak builds immediately, while flooded outliers arrive
    /// interleaved with honest feedback and keep resetting it.
    pub quarantine_streak: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            point_policy: PointPolicy::Clamp,
            window: 64,
            min_window: 16,
            mad_k: 8.0,
            trip_threshold: 3,
            probe_after: 16,
            probe_successes: 3,
            quarantine_streak: 64,
        }
    }
}

impl GuardConfig {
    fn validate(&self) -> Result<(), MlqError> {
        if self.window == 0 || self.min_window == 0 || self.min_window > self.window {
            return Err(MlqError::InvalidConfig {
                reason: format!(
                    "guard window must satisfy 0 < min_window ({}) <= window ({})",
                    self.min_window, self.window
                ),
            });
        }
        if !self.mad_k.is_finite() || self.mad_k <= 0.0 {
            return Err(MlqError::InvalidConfig {
                reason: format!("guard mad_k must be finite and positive, got {}", self.mad_k),
            });
        }
        if self.trip_threshold == 0 || self.probe_after == 0 || self.probe_successes == 0 {
            return Err(MlqError::InvalidConfig {
                reason: "guard trip_threshold, probe_after, and probe_successes must be nonzero"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Circuit-breaker state of a [`GuardedModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the inner model serves predictions and feedback.
    Closed,
    /// Tripped: the fallback serves; the inner model is quiesced.
    Open,
    /// Probing: feedback is offered to the inner model again; predictions
    /// still come from the fallback until the probe succeeds.
    HalfOpen,
}

/// Monotonic counters exposed by [`GuardedModel::counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GuardCounters {
    /// Costs rejected by the median/MAD quarantine.
    pub quarantined: u64,
    /// Feedback points with out-of-space coordinates that were clamped.
    pub clamped_points: u64,
    /// Feedback points rejected under [`PointPolicy::Reject`].
    pub rejected_points: u64,
    /// Errors returned by the inner model on validated input.
    pub inner_errors: u64,
    /// Times the breaker tripped open (including re-trips from half-open).
    pub trips: u64,
    /// Probe observations offered to the inner model while half-open.
    pub probes: u64,
    /// Predictions answered by the running-average fallback.
    pub fallback_predictions: u64,
    /// Invariant-check failures observed.
    pub invariant_failures: u64,
    /// Quarantine streaks that ended in a regime reset (window cleared,
    /// observation accepted) per [`GuardConfig::quarantine_streak`].
    pub regime_resets: u64,
}

/// The complete mutable state of a [`GuardedModel`], detached from the
/// inner model: breaker position, quarantine window, running-average
/// fallback, and every counter.
///
/// A guard's behavior is a pure function of this state plus the feedback
/// stream, so exporting it alongside a model snapshot and importing it
/// after a restart makes the restored guard *bit-identical* in both its
/// predictions (the fallback average answers uninformed regions) and its
/// future quarantine/breaker decisions — the property the serving
/// layer's crash-recovery equivalence tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardState {
    /// Breaker position.
    pub breaker: BreakerState,
    /// Recently accepted costs, oldest first.
    pub window: Vec<f64>,
    /// Running average of every accepted cost (the degraded-mode model).
    pub fallback: Summary,
    /// Consecutive inner-model failures toward the trip threshold.
    pub consecutive_failures: u32,
    /// Guarded operations seen while the breaker has been open.
    pub open_ops: u32,
    /// Consecutive successful probes while half-open.
    pub half_open_successes: u32,
    /// Total observations accepted past the quarantine.
    pub accepted: u64,
    /// The guard's monotonic counters (without the prediction-path cell).
    pub counters: GuardCounters,
    /// Prediction-path failures not yet folded into the breaker.
    pub pending_predict_failures: u32,
    /// Predictions answered by the fallback (prediction-path cell).
    pub fallback_predictions: u64,
    /// Consecutive quarantined observations toward the regime-change
    /// escape ([`GuardConfig::quarantine_streak`]).
    pub consecutive_quarantined: u32,
}

/// A [`CostModel`] wrapper adding feedback validation, outlier
/// quarantine, and a circuit breaker with a running-average fallback.
///
/// Point validation, cost screening and breaker transitions are
/// described on [`GuardConfig`]'s fields.
/// `Clone` (available when the inner model is `Clone`) duplicates the
/// guard state — window, breaker, counters — alongside the model, so a
/// maintainer thread can snapshot a guarded model wholesale.
#[derive(Debug, Clone)]
pub struct GuardedModel<M: CostModel> {
    inner: M,
    space: Space,
    config: GuardConfig,
    /// Checks what one accepted observation changed; run after each one
    /// the inner model takes.
    observe_check: Option<InvariantCheck<M>>,
    /// Checks the whole model; run before a half-open breaker closes.
    full_check: Option<InvariantCheck<M>>,
    state: BreakerState,
    /// Recently accepted costs, with their sorted mirror.
    window: CostWindow,
    /// Running average of every accepted cost (the degraded-mode model).
    fallback: Summary,
    consecutive_failures: u32,
    consecutive_quarantined: u32,
    open_ops: u32,
    half_open_successes: u32,
    accepted: u64,
    counters: GuardCounters,
    // Prediction runs through `&self`; failures observed there are folded
    // into the breaker at the next `observe`.
    pending_predict_failures: Cell<u32>,
    fallback_predictions: Cell<u64>,
}

impl<M: CostModel> GuardedModel<M> {
    /// Wraps `inner`, guarding feedback against `space`.
    ///
    /// # Errors
    ///
    /// Returns [`MlqError::InvalidConfig`] for nonsensical guard settings.
    pub fn new(inner: M, space: Space, config: GuardConfig) -> Result<Self, MlqError> {
        config.validate()?;
        Ok(GuardedModel {
            inner,
            space,
            config,
            observe_check: None,
            full_check: None,
            state: BreakerState::Closed,
            window: CostWindow::with_capacity(config.window),
            fallback: Summary::empty(),
            consecutive_failures: 0,
            consecutive_quarantined: 0,
            open_ops: 0,
            half_open_successes: 0,
            accepted: 0,
            counters: GuardCounters::default(),
            pending_predict_failures: Cell::new(0),
            fallback_predictions: Cell::new(0),
        })
    }

    /// Registers the structural-invariant checks: `observe_check`, run
    /// after every observation the inner model accepts (closed or
    /// half-open), should check what that observation changed;
    /// `full_check`, run before a half-open breaker closes, checks the
    /// whole model. A failing check counts one invariant failure and
    /// trips the breaker at once.
    #[must_use]
    pub fn with_invariant_checks(
        mut self,
        observe_check: InvariantCheck<M>,
        full_check: InvariantCheck<M>,
    ) -> Self {
        self.observe_check = Some(observe_check);
        self.full_check = Some(full_check);
        self
    }

    /// Current breaker state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Snapshot of the guard's counters.
    #[must_use]
    pub fn counters(&self) -> GuardCounters {
        let mut c = self.counters;
        c.fallback_predictions += self.fallback_predictions.get();
        c
    }

    /// True when predictions are currently served by the inner model.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Read access to the wrapped model.
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped model. The guard's breaker state and
    /// counters are preserved; use this to service the inner model (e.g.
    /// repair its backing storage) without resetting the guard's memory
    /// of past failures. Feedback applied directly through this reference
    /// bypasses validation and quarantine.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwraps the guard, returning the inner model.
    #[must_use]
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// The running-average fallback's current prediction.
    #[must_use]
    pub fn fallback_prediction(&self) -> Option<f64> {
        (self.fallback.count > 0).then(|| self.fallback.avg())
    }

    /// Exports the guard's complete mutable state (everything but the
    /// inner model) for persistence alongside a model snapshot.
    #[must_use]
    pub fn export_state(&self) -> GuardState {
        GuardState {
            breaker: self.state,
            window: self.window.recent.iter().copied().collect(),
            fallback: self.fallback,
            consecutive_failures: self.consecutive_failures,
            consecutive_quarantined: self.consecutive_quarantined,
            open_ops: self.open_ops,
            half_open_successes: self.half_open_successes,
            accepted: self.accepted,
            counters: self.counters,
            pending_predict_failures: self.pending_predict_failures.get(),
            fallback_predictions: self.fallback_predictions.get(),
        }
    }

    /// Restores state previously captured with
    /// [`export_state`](Self::export_state). If the current configuration
    /// has a shorter window than the exported one, the newest entries are
    /// kept — they are the ones quarantine screening consults.
    pub fn import_state(&mut self, state: GuardState) {
        let GuardState {
            breaker,
            window,
            fallback,
            consecutive_failures,
            consecutive_quarantined,
            open_ops,
            half_open_successes,
            accepted,
            counters,
            pending_predict_failures,
            fallback_predictions,
        } = state;
        self.state = breaker;
        let skip = window.len().saturating_sub(self.config.window);
        self.window = CostWindow::from_oldest_first(
            window.into_iter().skip(skip).collect(),
            self.config.window,
        );
        self.fallback = fallback;
        self.consecutive_failures = consecutive_failures;
        self.consecutive_quarantined = consecutive_quarantined;
        self.open_ops = open_ops;
        self.half_open_successes = half_open_successes;
        self.accepted = accepted;
        self.counters = counters;
        self.pending_predict_failures.set(pending_predict_failures);
        self.fallback_predictions.set(fallback_predictions);
    }

    /// Validates a feedback point into `out` (its first `dims` slots),
    /// clamping or rejecting out-of-space coordinates per the point
    /// policy.
    fn sanitize_point(&mut self, point: &[f64], out: &mut [f64; MAX_DIMS]) -> Result<(), MlqError> {
        let mut clamped = false;
        clamp_into(&self.space, point, out, |i, x, lo, hi| {
            if self.config.point_policy == PointPolicy::Reject {
                self.counters.rejected_points += 1;
                return Err(MlqError::InvalidSpace {
                    reason: format!(
                        "feedback point outside space: dimension {i} is {x}, range [{lo}, {hi}]"
                    ),
                });
            }
            clamped = true;
            Ok(())
        })?;
        if clamped {
            self.counters.clamped_points += 1;
        }
        Ok(())
    }

    /// Median/MAD screen. Returns the violated threshold when `cost` is
    /// an outlier with respect to the current window.
    fn quarantine_threshold(&self, cost: f64) -> Option<f64> {
        if self.window.len() < self.config.min_window {
            return None;
        }
        let median = self.window.median();
        // The relative and absolute floors keep a near-constant window
        // (MAD ≈ 0) from quarantining routine jitter. They bound `scale`
        // from below, so a cost within `mad_k` floors of the median passes
        // whatever the MAD is, and the MAD need not be found.
        let floor = (0.05 * median.abs()).max(1e-9);
        let distance = (cost - median).abs();
        if distance <= self.config.mad_k * floor {
            return None;
        }
        // 1.4826 scales MAD to the stddev of a Gaussian.
        let scale = (1.4826 * self.window.mad(median)).max(floor);
        (distance > self.config.mad_k * scale).then_some(self.config.mad_k * scale)
    }

    /// Runs `check`, if registered, counting a failure.
    fn invariants_ok(&mut self, check: Option<InvariantCheck<M>>) -> bool {
        match check {
            None => true,
            Some(f) => match f(&self.inner) {
                Ok(()) => true,
                Err(_) => {
                    self.counters.invariant_failures += 1;
                    false
                }
            },
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.counters.trips += 1;
        self.consecutive_failures = 0;
        self.open_ops = 0;
        self.half_open_successes = 0;
    }

    /// Folds failures recorded on the `&self` prediction path into the
    /// breaker accounting.
    fn absorb_predict_failures(&mut self) {
        let pending = self.pending_predict_failures.replace(0);
        if pending > 0 {
            self.counters.inner_errors += u64::from(pending);
            self.consecutive_failures += pending;
            if self.state == BreakerState::Closed
                && self.consecutive_failures >= self.config.trip_threshold
            {
                self.trip();
            }
        }
    }
}

impl<M: CostModel> CostModel for GuardedModel<M> {
    fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        // Queries always clamp: the optimizer deserves an answer even for
        // an out-of-range probe. Malformed points are still the caller's
        // error.
        let mut buf = [0.0; MAX_DIMS];
        clamp_into(&self.space, point, &mut buf, |_, _, _, _| Ok(()))?;
        let sanitized = &buf[..point.len()];

        if self.state == BreakerState::Closed {
            match self.inner.predict(sanitized) {
                Ok(Some(v)) => return Ok(Some(v)),
                Ok(None) => {
                    // The inner model has no information here; the running
                    // average is still a better answer than nothing.
                }
                Err(_) => {
                    self.pending_predict_failures
                        .set(self.pending_predict_failures.get().saturating_add(1));
                }
            }
        }
        self.fallback_predictions.set(self.fallback_predictions.get() + 1);
        Ok(self.fallback_prediction())
    }

    fn observe(&mut self, point: &[f64], actual: f64) -> Result<(), MlqError> {
        self.absorb_predict_failures();

        let mut buf = [0.0; MAX_DIMS];
        self.sanitize_point(point, &mut buf)?;
        let sanitized = &buf[..point.len()];
        if !actual.is_finite() {
            return Err(MlqError::NonFiniteValue { context: "cost value" });
        }
        if let Some(threshold) = self.quarantine_threshold(actual) {
            self.consecutive_quarantined = self.consecutive_quarantined.saturating_add(1);
            let streak = self.config.quarantine_streak;
            if streak == 0 || self.consecutive_quarantined < streak {
                self.counters.quarantined += 1;
                return Err(MlqError::FeedbackQuarantined { cost: actual, threshold });
            }
            // A full streak of consecutive "outliers" is not outliers: the
            // cost regime changed under the model (workload drift, data
            // growth). Clear the window so screening re-learns the new
            // regime, and accept this observation.
            self.window.clear();
            self.counters.regime_resets += 1;
        }
        self.consecutive_quarantined = 0;

        // Accepted: the fallback learns every cost the guard lets through,
        // so degradation is instant and warm.
        self.window.push(actual, self.config.window);
        self.fallback.add(actual);
        self.accepted += 1;

        match self.state {
            BreakerState::Closed => {
                match self.inner.observe(sanitized, actual) {
                    Ok(()) => {
                        self.consecutive_failures = 0;
                        if !self.invariants_ok(self.observe_check) {
                            self.trip();
                        }
                    }
                    Err(_) => {
                        self.counters.inner_errors += 1;
                        self.consecutive_failures += 1;
                        if self.consecutive_failures >= self.config.trip_threshold {
                            self.trip();
                        }
                    }
                }
                Ok(())
            }
            BreakerState::Open => {
                self.open_ops += 1;
                if self.open_ops >= self.config.probe_after {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_successes = 0;
                }
                Ok(())
            }
            BreakerState::HalfOpen => {
                self.counters.probes += 1;
                match self.inner.observe(sanitized, actual) {
                    Ok(()) => {
                        if !self.invariants_ok(self.observe_check) {
                            self.trip();
                            return Ok(());
                        }
                        self.half_open_successes += 1;
                        if self.half_open_successes >= self.config.probe_successes {
                            if self.invariants_ok(self.full_check) {
                                self.state = BreakerState::Closed;
                                self.consecutive_failures = 0;
                            } else {
                                self.trip();
                            }
                        }
                    }
                    Err(_) => {
                        self.counters.inner_errors += 1;
                        self.trip();
                    }
                }
                Ok(())
            }
        }
    }

    fn memory_used(&self) -> usize {
        // The guard charges itself for the quarantine window and its sorted
        // mirror on top of the inner model's accounted bytes; counters and
        // breaker state are constant-size bookkeeping.
        self.inner.memory_used() + self.window.bytes()
    }

    fn name(&self) -> String {
        format!("guarded({})", self.inner.name())
    }
}

/// Copies `point` into `out`, clamped onto `space`. Malformed points
/// (wrong arity, non-finite coordinates) are errors; for each
/// out-of-space coordinate `on_outside(dimension, value, low, high)`
/// decides whether to clamp (`Ok`) or reject.
fn clamp_into(
    space: &Space,
    point: &[f64],
    out: &mut [f64; MAX_DIMS],
    mut on_outside: impl FnMut(usize, f64, f64, f64) -> Result<(), MlqError>,
) -> Result<(), MlqError> {
    if point.len() != space.dims() {
        return Err(MlqError::DimensionMismatch { expected: space.dims(), got: point.len() });
    }
    for (i, (&x, slot)) in point.iter().zip(out.iter_mut()).enumerate() {
        if !x.is_finite() {
            return Err(MlqError::NonFiniteValue { context: "point coordinate" });
        }
        let (lo, hi) = (space.low(i), space.high(i));
        if x < lo || x > hi {
            on_outside(i, x, lo, hi)?;
        }
        *slot = x.clamp(lo, hi);
    }
    Ok(())
}

/// The quarantine window: recently accepted costs, oldest first, plus a
/// `total_cmp`-sorted mirror of the same values, kept in step by binary
/// search so the median/MAD screen never sorts.
#[derive(Debug, Clone)]
struct CostWindow {
    recent: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl CostWindow {
    fn with_capacity(window: usize) -> Self {
        CostWindow { recent: VecDeque::with_capacity(window), sorted: Vec::with_capacity(window) }
    }

    /// A window holding `recent` (oldest first, at most `window` values).
    fn from_oldest_first(recent: VecDeque<f64>, window: usize) -> Self {
        let mut sorted = Vec::with_capacity(window);
        sorted.extend(recent.iter().copied());
        sorted.sort_by(f64::total_cmp);
        CostWindow { recent, sorted }
    }

    fn len(&self) -> usize {
        self.recent.len()
    }

    /// Appends `cost`, first dropping the oldest value when the window
    /// already holds `window` values.
    fn push(&mut self, cost: f64, window: usize) {
        if self.recent.len() == window {
            if let Some(oldest) = self.recent.pop_front() {
                // `total_cmp` equality is bit equality, so this finds a
                // copy of exactly the value being dropped.
                let at = self.sorted.partition_point(|x| x.total_cmp(&oldest).is_lt());
                self.sorted.remove(at);
            }
        }
        self.recent.push_back(cost);
        let at = self.sorted.partition_point(|x| x.total_cmp(&cost).is_lt());
        self.sorted.insert(at, cost);
    }

    fn clear(&mut self) {
        self.recent.clear();
        self.sorted.clear();
    }

    /// Accounted bytes of the window and its mirror.
    fn bytes(&self) -> usize {
        (self.recent.capacity() + self.sorted.capacity()) * std::mem::size_of::<f64>()
    }

    /// The median `sorted[n/2]` of a non-empty window.
    fn median(&self) -> f64 {
        self.sorted[self.sorted.len() / 2]
    }

    /// The MAD, the `n/2`-th smallest `|x − median|`, of a non-empty
    /// window given its [`Self::median`]. Walking outward from the
    /// median, the deviations of `sorted[n/2..]` and of `sorted[..n/2]`
    /// (taken right to left) are each non-decreasing — float subtraction
    /// rounds monotonically — so a two-way merge of the two runs reaches
    /// the same order statistic as sorting every deviation, bit for bit.
    fn mad(&self, median: f64) -> f64 {
        let sorted = &self.sorted;
        let mid = sorted.len() / 2;
        let deviation = |i: usize| (sorted[i] - median).abs();
        // `left` is one past the next left-run index, `right` the next
        // right-run index.
        let (mut left, mut right) = (mid, mid);
        let mut mad = 0.0;
        for _ in 0..=mid {
            let take_left = right == sorted.len()
                || (left > 0 && deviation(left - 1).total_cmp(&deviation(right)).is_lt());
            mad = if take_left {
                left -= 1;
                deviation(left)
            } else {
                right += 1;
                deviation(right - 1)
            };
        }
        mad
    }
}

impl GuardedModel<MemoryLimitedQuadtree> {
    /// Wraps a quadtree with its structural invariant checks pre-wired:
    /// [`MemoryLimitedQuadtree::check_last_insert`] after every accepted
    /// observation and the full [`MemoryLimitedQuadtree::check_invariants`]
    /// walk before a half-open breaker closes.
    ///
    /// # Errors
    ///
    /// Returns [`MlqError::InvalidConfig`] for nonsensical guard settings.
    pub fn for_quadtree(
        inner: MemoryLimitedQuadtree,
        config: GuardConfig,
    ) -> Result<Self, MlqError> {
        let space = inner.config().space.clone();
        Ok(GuardedModel::new(inner, space, config)?.with_invariant_checks(
            MemoryLimitedQuadtree::check_last_insert,
            MemoryLimitedQuadtree::check_invariants,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InsertionStrategy, MlqConfig};
    use proptest::prelude::*;

    /// The screen as first written: copy the window, sort it, sort the
    /// deviations. The sorted-mirror screen must match it bit for bit.
    fn reference_threshold<M: CostModel>(g: &GuardedModel<M>, cost: f64) -> Option<f64> {
        if g.window.len() < g.config.min_window {
            return None;
        }
        let mut sorted: Vec<f64> = g.window.recent.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut deviations: Vec<f64> = sorted.iter().map(|&x| (x - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        let mad = deviations[deviations.len() / 2];
        let scale = (1.4826 * mad).max(0.05 * median.abs()).max(1e-9);
        let distance = (cost - median).abs();
        (distance > g.config.mad_k * scale).then_some(g.config.mad_k * scale)
    }

    /// Costs with duplicates, negatives, signed zeros and magnitudes from
    /// 1e-9 to 1e12.
    fn arb_cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (0usize..4).prop_map(|i| [1.0, -1.0, 1e-9, 1e12][i]),
            (-9.0..11.0f64, 1.0..10.0f64, any::<bool>()).prop_map(|(e, m, neg)| if neg {
                -m * 10f64.powf(e)
            } else {
                m * 10f64.powf(e)
            }),
        ]
    }

    /// One step of a guard's life: observe a cost (accepting, popping the
    /// oldest, or quarantining toward a regime clear), or import a state
    /// whose window may exceed the configured length.
    #[derive(Debug, Clone)]
    enum WindowOp {
        Observe(f64),
        Import(Vec<f64>),
    }

    fn arb_op() -> impl Strategy<Value = WindowOp> {
        prop_oneof![
            arb_cost().prop_map(WindowOp::Observe),
            arb_cost().prop_map(WindowOp::Observe),
            arb_cost().prop_map(WindowOp::Observe),
            prop::collection::vec(arb_cost(), 0..24).prop_map(WindowOp::Import),
        ]
    }

    fn same_threshold(a: Option<f64>, b: Option<f64>) -> bool {
        a.map(f64::to_bits) == b.map(f64::to_bits)
    }

    /// The next float above finite `x` (what `f64::next_up` returns).
    fn next_up(x: f64) -> f64 {
        if x == 0.0 {
            return f64::from_bits(1);
        }
        let bits = x.to_bits();
        f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
    }

    /// The next float below finite `x` (what `f64::next_down` returns).
    fn next_down(x: f64) -> f64 {
        -next_up(-x)
    }

    /// Probes at the median-first early accept's edge,
    /// `median ± mad_k·max(0.05·|median|, 1e-9)`, and one float to
    /// either side of each, where the screen hands over to the MAD.
    fn edge_probes<M: CostModel>(g: &GuardedModel<M>) -> Vec<f64> {
        if g.window.len() == 0 {
            return Vec::new();
        }
        let median = g.window.median();
        let reach = g.config.mad_k * (0.05 * median.abs()).max(1e-9);
        [median - reach, median + reach]
            .into_iter()
            .flat_map(|edge| [next_down(edge), edge, next_up(edge)])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sorted_mirror_screen_matches_the_two_sort_reference(
            window in 1usize..12,
            min_window_pick in 1usize..12,
            mad_k in prop_oneof![Just(0.5), Just(8.0), Just(1e6)],
            streak in 0u32..4,
            ops in prop::collection::vec(arb_op(), 1..200),
        ) {
            let config = GuardConfig {
                window,
                min_window: min_window_pick.min(window),
                mad_k,
                quarantine_streak: streak,
                ..GuardConfig::default()
            };
            let mut g = guarded_flaky(config);
            for op in ops {
                match op {
                    WindowOp::Observe(cost) => {
                        for probe in [cost, -cost, 0.0, 1e12].into_iter().chain(edge_probes(&g)) {
                            let fast = g.quarantine_threshold(probe);
                            let slow = reference_threshold(&g, probe);
                            prop_assert!(
                                same_threshold(fast, slow),
                                "probe {probe}: {fast:?} vs {slow:?} over {:?}",
                                g.window.recent
                            );
                        }
                        let _ = g.observe(&[1.0, 1.0], cost);
                    }
                    WindowOp::Import(values) => {
                        let mut state = g.export_state();
                        state.window = values;
                        g.import_state(state);
                    }
                }
                let mut expected: Vec<f64> = g.window.recent.iter().copied().collect();
                expected.sort_by(f64::total_cmp);
                prop_assert_eq!(
                    g.window.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    /// A scriptable inner model: fails observe/predict while `broken`.
    struct FlakyModel {
        broken: bool,
        observed: u64,
    }

    impl CostModel for FlakyModel {
        fn predict(&self, _point: &[f64]) -> Result<Option<f64>, MlqError> {
            if self.broken {
                Err(MlqError::InvalidConfig { reason: "simulated".into() })
            } else {
                Ok(Some(42.0))
            }
        }

        fn observe(&mut self, _point: &[f64], _actual: f64) -> Result<(), MlqError> {
            if self.broken {
                Err(MlqError::InvalidConfig { reason: "simulated".into() })
            } else {
                self.observed += 1;
                Ok(())
            }
        }

        fn memory_used(&self) -> usize {
            0
        }

        fn name(&self) -> String {
            "flaky".into()
        }
    }

    fn space2() -> Space {
        Space::cube(2, 0.0, 100.0).unwrap()
    }

    fn guarded_flaky(config: GuardConfig) -> GuardedModel<FlakyModel> {
        GuardedModel::new(FlakyModel { broken: false, observed: 0 }, space2(), config).unwrap()
    }

    #[test]
    fn config_is_validated() {
        let m = FlakyModel { broken: false, observed: 0 };
        let bad = GuardConfig { window: 0, ..GuardConfig::default() };
        assert!(matches!(GuardedModel::new(m, space2(), bad), Err(MlqError::InvalidConfig { .. })));
    }

    #[test]
    fn rejects_malformed_feedback() {
        let mut g = guarded_flaky(GuardConfig::default());
        assert!(matches!(
            g.observe(&[1.0], 5.0),
            Err(MlqError::DimensionMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(g.observe(&[1.0, f64::NAN], 5.0), Err(MlqError::NonFiniteValue { .. })));
        assert!(matches!(
            g.observe(&[1.0, 2.0], f64::INFINITY),
            Err(MlqError::NonFiniteValue { .. })
        ));
        assert_eq!(g.inner().observed, 0);
    }

    #[test]
    fn clamp_policy_clamps_and_counts() {
        let mut g = guarded_flaky(GuardConfig::default());
        g.observe(&[150.0, -3.0], 5.0).unwrap();
        assert_eq!(g.counters().clamped_points, 1);
        assert_eq!(g.inner().observed, 1);
    }

    #[test]
    fn reject_policy_refuses_out_of_space_points() {
        let config = GuardConfig { point_policy: PointPolicy::Reject, ..GuardConfig::default() };
        let mut g = guarded_flaky(config);
        assert!(matches!(g.observe(&[150.0, 3.0], 5.0), Err(MlqError::InvalidSpace { .. })));
        assert_eq!(g.counters().rejected_points, 1);
        assert_eq!(g.inner().observed, 0);
    }

    #[test]
    fn quarantines_outliers_after_warmup() {
        let mut g = guarded_flaky(GuardConfig::default());
        for i in 0..32 {
            g.observe(&[i as f64, i as f64], 10.0 + (i % 3) as f64).unwrap();
        }
        let err = g.observe(&[1.0, 1.0], 1000.0).unwrap_err();
        assert!(matches!(err, MlqError::FeedbackQuarantined { cost, .. } if cost == 1000.0));
        assert_eq!(g.counters().quarantined, 1);
        // The outlier never reached the inner model.
        assert_eq!(g.inner().observed, 32);
        // Honest feedback is still accepted afterwards.
        g.observe(&[1.0, 1.0], 11.0).unwrap();
        assert_eq!(g.inner().observed, 33);
    }

    #[test]
    fn sustained_quarantine_streak_resets_the_regime() {
        let config = GuardConfig { quarantine_streak: 8, ..GuardConfig::default() };
        let mut g = guarded_flaky(config);
        for i in 0..32 {
            g.observe(&[1.0, 1.0], 10.0 + (i % 3) as f64).unwrap();
        }

        // The regime shifts: every cost triples. Seven in a row stay
        // quarantined, the eighth trips the escape — window cleared,
        // observation accepted.
        for _ in 0..7 {
            let err = g.observe(&[1.0, 1.0], 33.0).unwrap_err();
            assert!(matches!(err, MlqError::FeedbackQuarantined { .. }));
        }
        g.observe(&[1.0, 1.0], 33.0).unwrap();
        assert_eq!(g.counters().regime_resets, 1);
        assert_eq!(g.counters().quarantined, 7);
        // The new regime is now the norm: screening re-learns around it.
        for _ in 0..16 {
            g.observe(&[1.0, 1.0], 33.0).unwrap();
        }
        assert_eq!(g.counters().regime_resets, 1);
    }

    #[test]
    fn interleaved_outliers_never_build_a_streak() {
        // An adversarial flood mixes outliers with honest feedback; the
        // streak keeps resetting, so the escape never fires and every
        // outlier stays quarantined.
        let config = GuardConfig { quarantine_streak: 4, ..GuardConfig::default() };
        let mut g = guarded_flaky(config);
        for i in 0..32 {
            g.observe(&[1.0, 1.0], 10.0 + (i % 3) as f64).unwrap();
        }
        for round in 0..20 {
            assert!(g.observe(&[1.0, 1.0], 1000.0).is_err(), "round {round}");
            g.observe(&[1.0, 1.0], 11.0).unwrap();
        }
        assert_eq!(g.counters().regime_resets, 0);
        assert_eq!(g.counters().quarantined, 20);
    }

    #[test]
    fn zero_streak_disables_the_regime_escape() {
        let config = GuardConfig { quarantine_streak: 0, ..GuardConfig::default() };
        let mut g = guarded_flaky(config);
        for i in 0..32 {
            g.observe(&[1.0, 1.0], 10.0 + (i % 3) as f64).unwrap();
        }
        for _ in 0..100 {
            assert!(g.observe(&[1.0, 1.0], 1000.0).is_err());
        }
        assert_eq!(g.counters().regime_resets, 0);
        assert_eq!(g.counters().quarantined, 100);
    }

    #[test]
    fn small_windows_accept_everything() {
        let mut g = guarded_flaky(GuardConfig::default());
        for v in [1.0, 1e6, 3.0] {
            g.observe(&[1.0, 1.0], v).unwrap();
        }
        assert_eq!(g.counters().quarantined, 0);
    }

    #[test]
    fn breaker_trips_and_recovers() {
        let config = GuardConfig {
            trip_threshold: 3,
            probe_after: 4,
            probe_successes: 2,
            ..GuardConfig::default()
        };
        let mut g = guarded_flaky(config);
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::Closed);

        // Break the inner model: three failures trip the breaker.
        g.inner.broken = true;
        for _ in 0..3 {
            g.observe(&[1.0, 1.0], 10.0).unwrap();
        }
        assert_eq!(g.state(), BreakerState::Open);
        assert_eq!(g.counters().trips, 1);

        // While open, the fallback keeps serving predictions.
        assert_eq!(g.predict(&[1.0, 1.0]).unwrap(), Some(10.0));

        // After probe_after guarded operations the breaker half-opens, and
        // with the model healed, two probes close it.
        g.inner.broken = false;
        for _ in 0..4 {
            g.observe(&[1.0, 1.0], 10.0).unwrap();
        }
        assert_eq!(g.state(), BreakerState::HalfOpen);
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::Closed);
        assert!(g.counters().probes >= 2);

        // Healthy again: inner predictions flow through.
        assert_eq!(g.predict(&[1.0, 1.0]).unwrap(), Some(42.0));
    }

    #[test]
    fn failed_probe_reopens() {
        let config = GuardConfig {
            trip_threshold: 1,
            probe_after: 2,
            probe_successes: 2,
            ..GuardConfig::default()
        };
        let mut g = guarded_flaky(config);
        g.inner.broken = true;
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::Open);
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::HalfOpen);
        // Probe fails: straight back to open.
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::Open);
        assert_eq!(g.counters().trips, 2);
    }

    #[test]
    fn predict_failures_feed_the_breaker() {
        let config = GuardConfig { trip_threshold: 2, ..GuardConfig::default() };
        let mut g = guarded_flaky(config);
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        g.inner.broken = true;
        // Failing predictions are absorbed without panicking or erroring...
        assert_eq!(g.predict(&[1.0, 1.0]).unwrap(), Some(10.0));
        assert_eq!(g.predict(&[1.0, 1.0]).unwrap(), Some(10.0));
        // ...and fold into the breaker at the next observation.
        g.inner.broken = false;
        g.observe(&[1.0, 1.0], 10.0).unwrap();
        assert_eq!(g.state(), BreakerState::Open);
    }

    #[test]
    fn fallback_prediction_is_running_average() {
        let mut g = guarded_flaky(GuardConfig::default());
        assert_eq!(g.predict(&[1.0, 1.0]).unwrap(), Some(42.0)); // inner
        g.inner.broken = true;
        assert_eq!(g.fallback_prediction(), None);
        g.inner.broken = false;
        for v in [10.0, 20.0, 30.0] {
            g.observe(&[1.0, 1.0], v).unwrap();
        }
        assert_eq!(g.fallback_prediction(), Some(20.0));
    }

    #[test]
    fn guarded_quadtree_wires_invariant_check() {
        let space = space2();
        let config = MlqConfig::builder(space)
            .memory_budget(1 << 14)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let tree = MemoryLimitedQuadtree::new(config).unwrap();
        let mut g = GuardedModel::for_quadtree(tree, GuardConfig::default()).unwrap();
        for i in 0..100 {
            let x = (i % 10) as f64 * 10.0;
            g.observe(&[x, x], 5.0 + (i % 4) as f64).unwrap();
        }
        assert!(g.is_healthy());
        assert_eq!(g.counters().invariant_failures, 0);
        assert!(g.predict(&[55.0, 55.0]).unwrap().is_some());
        assert!(g.name().starts_with("guarded("));
        assert!(g.memory_used() > g.inner().memory_used());
    }

    /// A guarded 2-D lazy quadtree with `budget` bytes, fed `n` accepted
    /// observations from [`honest_stream`].
    fn guarded_tree(budget: usize, n: usize) -> GuardedModel<MemoryLimitedQuadtree> {
        let config = MlqConfig::builder(space2())
            .memory_budget(budget)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let tree = MemoryLimitedQuadtree::new(config).unwrap();
        let mut g = GuardedModel::for_quadtree(tree, GuardConfig::default()).unwrap();
        for i in 0..n {
            let (point, cost) = honest_stream(i);
            g.observe(&point, cost).unwrap();
        }
        assert!(g.is_healthy());
        g
    }

    /// Observation `i` of a spread-out stream whose costs the screen
    /// always accepts.
    fn honest_stream(i: usize) -> ([f64; 2], f64) {
        let x = (i * 37 % 100) as f64 + 0.5;
        let y = (i * 61 % 100) as f64 + 0.5;
        ([x, y], 5.0 + (i % 4) as f64)
    }

    /// Feeds `g` observation `i`, which must be accepted, and asserts it
    /// counted exactly one invariant failure and tripped the breaker.
    fn assert_next_observation_trips(g: &mut GuardedModel<MemoryLimitedQuadtree>, i: usize) {
        let before = g.counters();
        let (point, cost) = honest_stream(i);
        g.observe(&point, cost).unwrap();
        let after = g.counters();
        assert_eq!(after.quarantined, before.quarantined, "the observation was accepted");
        assert_eq!(after.invariant_failures, before.invariant_failures + 1);
        assert_eq!(after.trips, before.trips + 1);
        assert_eq!(g.state(), BreakerState::Open);
    }

    #[test]
    fn path_count_above_parent_trips_on_the_next_observation() {
        let mut g = guarded_tree(1 << 16, 40);
        let (point, _) = honest_stream(40);
        let tree = g.inner_mut();
        let grid = tree.config().space.grid_point(&point).unwrap();
        let root = tree.root;
        let child = tree.arena.get(root).child(grid.child_slot(0)).expect("a populated quadrant");
        // The next insert adds one to both counts, so the child stays over.
        tree.arena.get_mut(child).summary.count = tree.arena.get(root).summary.count + 10;
        assert_next_observation_trips(&mut g, 40);
    }

    #[test]
    fn n_children_mismatch_on_an_evicted_leafs_parent_trips_on_the_next_observation() {
        // Fill to the budget, then find an insert whose compression evicts
        // a leaf from a node that survives the pass.
        let budget = MlqConfig::min_budget(&space2(), 6) + 512;
        let mut g = guarded_tree(budget, 0);
        for i in 0..2000 {
            let before = g.inner();
            let mut probe = before.clone();
            let (point, cost) = honest_stream(i);
            let compressed = probe.insert(&point, cost).unwrap().compression.is_some();
            let victim = probe.last_insert.changed.iter().copied().find(|&idx| {
                before.arena.is_live(idx)
                    && probe.arena.is_live(idx)
                    && probe.arena.get(idx).n_children < before.arena.get(idx).n_children
            });
            if let (true, Some(victim)) = (compressed, victim) {
                g.inner_mut().arena.get_mut(victim).n_children += 1;
                assert_next_observation_trips(&mut g, i);
                return;
            }
            g.observe(&point, cost).unwrap();
            assert!(g.is_healthy());
        }
        panic!("no compression evicted a leaf from a surviving parent");
    }

    #[test]
    fn bytes_over_budget_trip_on_the_next_observation() {
        let budget = 1 << 14;
        let mut g = guarded_tree(budget, 40);
        // Even compressing down to the root cannot bring this under budget.
        g.inner_mut().bytes_used += 4 * budget;
        assert_next_observation_trips(&mut g, 40);
    }

    #[test]
    fn whole_tree_faults_reopen_a_half_open_breaker_at_the_closing_probe() {
        let corruptions: [fn(&mut MemoryLimitedQuadtree); 2] = [
            |tree| {
                let root = tree.root;
                tree.arena.alloc(crate::node::Node::new(root, 0, 1));
            },
            |tree| tree.bytes_used += 1,
        ];
        for corrupt in corruptions {
            let mut g = guarded_tree(1 << 16, 40);
            let mut state = g.export_state();
            state.breaker = BreakerState::HalfOpen;
            g.import_state(state);
            corrupt(g.inner_mut());
            // The per-observation check cannot see an orphan or a skewed
            // total, so the probes before the last one succeed...
            let probes = g.config.probe_successes as usize;
            for i in 40..40 + probes - 1 {
                let (point, cost) = honest_stream(i);
                g.observe(&point, cost).unwrap();
                assert_eq!(g.state(), BreakerState::HalfOpen);
            }
            assert_eq!(g.counters().invariant_failures, 0);
            // ...and the whole-tree walk before closing re-trips instead.
            assert_next_observation_trips(&mut g, 40 + probes - 1);
        }
    }

    #[test]
    fn guard_state_roundtrips_exactly() {
        let space = space2();
        let config = MlqConfig::builder(space.clone())
            .memory_budget(1 << 14)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let tree = MemoryLimitedQuadtree::new(config.clone()).unwrap();
        let mut original = GuardedModel::for_quadtree(tree, GuardConfig::default()).unwrap();
        for i in 0..200u32 {
            let x = f64::from(i % 10) * 10.0;
            let cost = 5.0 + f64::from(i % 7);
            let _ = original.observe(&[x, x], cost);
        }
        // One hostile outlier so the counters are non-trivial.
        let _ = original.observe(&[5.0, 5.0], 1e9);
        assert_eq!(original.counters().quarantined, 1);

        let state = original.export_state();
        let fresh_tree = MemoryLimitedQuadtree::new(config).unwrap();
        let mut restored = GuardedModel::for_quadtree(fresh_tree, GuardConfig::default()).unwrap();
        restored.import_state(state.clone());

        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.state(), original.state());
        assert_eq!(restored.counters(), original.counters());
        assert_eq!(restored.fallback_prediction(), original.fallback_prediction());
        // Future quarantine decisions match: the same outlier is screened
        // identically by both guards.
        let a = original.observe(&[5.0, 5.0], 1e9);
        let b = restored.observe(&[5.0, 5.0], 1e9);
        assert!(matches!(a, Err(MlqError::FeedbackQuarantined { .. })));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn import_state_truncates_oversized_windows_to_newest() {
        let space = space2();
        let config = MlqConfig::builder(space.clone()).memory_budget(1 << 14).build().unwrap();
        let tree = MemoryLimitedQuadtree::new(config).unwrap();
        let short_window = GuardConfig { window: 4, min_window: 2, ..GuardConfig::default() };
        let mut g = GuardedModel::for_quadtree(tree, short_window).unwrap();
        let mut state = g.export_state();
        state.window = (0..10).map(f64::from).collect();
        g.import_state(state);
        assert_eq!(g.export_state().window, vec![6.0, 7.0, 8.0, 9.0]);
    }
}
