//! Published, immutable per-shard snapshots — what reader threads see.
//!
//! The maintainer thread owns the live guarded models; after absorbing a
//! feedback batch it freezes each touched shard into a [`ShardSnapshot`]
//! and swaps it behind the shard's `RwLock<Arc<ShardSnapshot>>`. Readers
//! clone the `Arc` (the lock is held only for the pointer copy) and then
//! predict against a structure nothing will ever mutate — snapshot
//! isolation, not read locking.
//!
//! The snapshot carries more than the trees: it embeds the guard's
//! breaker state and counters at publication time. That is the serving
//! layer's *counters snapshot API* — quarantined feedback and circuit
//! trips that happen on the maintainer thread surface to any reader
//! through [`ShardSnapshot::counters`], instead of being swallowed by the
//! asynchronous feedback path.

use std::cell::RefCell;

use mlq_core::{BatchPlan, BreakerState, FrozenTree, GuardCounters, MlqError};
use mlq_udfs::{CostKind, ExecutionCost};

/// Per-thread scratch for [`ShardSnapshot::predict_batch_into`]: the
/// quantization plan plus the two component output buffers.
type ShardScratch = (BatchPlan, Vec<Option<f64>>, Vec<Option<f64>>);

thread_local! {
    /// Reader threads issuing batch after batch reuse these allocations
    /// across calls and across snapshots (a plan over a space is valid
    /// for any tree over that space).
    static SHARD_SCRATCH: RefCell<ShardScratch> =
        RefCell::new((BatchPlan::new(), Vec::new(), Vec::new()));
}

/// One cost component (CPU or IO) frozen for reading.
#[derive(Debug, Clone)]
pub struct ComponentSnapshot {
    tree: FrozenTree,
    /// Breaker closed at publication time: predictions come from the tree.
    healthy: bool,
    /// The guard's running-average fallback at publication time.
    fallback: Option<f64>,
}

impl ComponentSnapshot {
    pub(crate) fn new(tree: FrozenTree, healthy: bool, fallback: Option<f64>) -> Self {
        ComponentSnapshot { tree, healthy, fallback }
    }

    /// Predicts this component's cost, mirroring the guarded model's read
    /// path: the tree answers while the breaker was closed, the running
    /// average covers open breakers and uninformed regions.
    ///
    /// # Errors
    ///
    /// Propagates malformed-point errors.
    pub fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        // The tree walk also validates and clamps the point, exactly like
        // the live prediction path.
        let learned = self.tree.predict(point)?;
        if self.healthy {
            if let Some(v) = learned {
                return Ok(Some(v));
            }
        }
        Ok(self.fallback)
    }

    /// Batched [`Self::predict`]: one result per point, appended to
    /// `out` (cleared first). The whole batch runs against the packed
    /// tree in one pass; the healthy/fallback policy is applied as a
    /// fix-up afterwards so the descent loop stays branch-light.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed point; `out` is left empty then.
    pub fn predict_batch_into<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        self.tree.predict_batch_into(points, out)?;
        self.apply_policy(out);
        Ok(())
    }

    /// The guarded read policy over a batch of raw tree answers: healthy
    /// components fall back only where the tree was uninformed, an open
    /// breaker routes every query to the running average.
    fn apply_policy(&self, out: &mut [Option<f64>]) {
        if self.healthy {
            if self.fallback.is_some() {
                for slot in out.iter_mut() {
                    if slot.is_none() {
                        *slot = self.fallback;
                    }
                }
            }
        } else {
            // Open breaker: the running average covers every query, but
            // the tree pass already validated/clamped the points.
            out.iter_mut().for_each(|slot| *slot = self.fallback);
        }
    }

    /// The frozen tree backing this component.
    #[must_use]
    pub fn tree(&self) -> &FrozenTree {
        &self.tree
    }

    /// True when the component's breaker was closed at publication.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }
}

/// Guard and feedback accounting for one shard, as of the snapshot's
/// publication. All counters are monotonic across a shard's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounters {
    /// Publication sequence number (1 = the initial empty snapshot).
    pub version: u64,
    /// Feedback observations fully absorbed (both components accepted).
    pub applied: u64,
    /// Observations where at least one component returned a
    /// non-quarantine error.
    pub apply_errors: u64,
    /// The CPU guard's own counters (quarantines, trips, probes, ...).
    pub cpu_guard: GuardCounters,
    /// The IO guard's own counters.
    pub io_guard: GuardCounters,
    /// CPU breaker state at publication.
    pub cpu_breaker: BreakerState,
    /// IO breaker state at publication.
    pub io_breaker: BreakerState,
}

impl ShardCounters {
    /// Total quarantined observations across both components.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.cpu_guard.quarantined + self.io_guard.quarantined
    }

    /// True when both breakers were closed at publication.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.cpu_breaker == BreakerState::Closed && self.io_breaker == BreakerState::Closed
    }
}

impl Default for ShardCounters {
    fn default() -> Self {
        ShardCounters {
            version: 0,
            applied: 0,
            apply_errors: 0,
            cpu_guard: GuardCounters::default(),
            io_guard: GuardCounters::default(),
            cpu_breaker: BreakerState::Closed,
            io_breaker: BreakerState::Closed,
        }
    }
}

/// An immutable published view of one UDF's estimator pair.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    name: String,
    cpu: ComponentSnapshot,
    io: ComponentSnapshot,
    io_weight: f64,
    counters: ShardCounters,
    /// True when this is the stand-in published for a hibernated shard:
    /// the live models were spilled to snapshot envelopes by fleet
    /// arbitration. The service's own predict paths never answer from a
    /// hibernated stub (they wake the shard first); the flag lets
    /// callers holding a raw snapshot detect the state.
    hibernated: bool,
}

impl ShardSnapshot {
    pub(crate) fn new(
        name: String,
        cpu: ComponentSnapshot,
        io: ComponentSnapshot,
        io_weight: f64,
        counters: ShardCounters,
    ) -> Self {
        ShardSnapshot { name, cpu, io, io_weight, counters, hibernated: false }
    }

    /// Marks this snapshot as a hibernated shard's stand-in.
    pub(crate) fn mark_hibernated(mut self) -> Self {
        self.hibernated = true;
        self
    }

    /// True when this snapshot is the stand-in for a hibernated shard
    /// (see [`FleetConfig`](crate::FleetConfig)). Predictions through
    /// the service wake the shard instead of answering from the stub.
    #[must_use]
    pub fn is_hibernated(&self) -> bool {
        self.hibernated
    }

    /// Predicted combined cost at `point` (CPU + `io_weight` × IO);
    /// `None` while both components are uninformed.
    ///
    /// # Errors
    ///
    /// Propagates malformed-point errors.
    pub fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        let cpu = self.cpu.predict(point)?;
        let io = self.io.predict(point)?;
        Ok(match (cpu, io) {
            (None, None) => None,
            (c, i) => Some(c.unwrap_or(0.0) + self.io_weight * i.unwrap_or(0.0)),
        })
    }

    /// Batched [`Self::predict`]: every point is validated and quantized
    /// exactly once (both component trees share the shard's space), then
    /// one pass descends the CPU and IO packed slabs back to back and
    /// combines in place. Exactly equivalent to calling [`Self::predict`]
    /// per point, but the per-point overhead — validation, quantization,
    /// component dispatch, intermediate buffers — is paid once per batch.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed point, before any descent runs.
    pub fn predict_batch<P: AsRef<[f64]>>(
        &self,
        points: &[P],
    ) -> Result<Vec<Option<f64>>, MlqError> {
        let mut out = Vec::with_capacity(points.len());
        self.predict_batch_into(points, &mut out)?;
        Ok(out)
    }

    /// [`Self::predict_batch`] into a caller-owned buffer (cleared first;
    /// left empty on error). All scratch — the descent plan and both
    /// component buffers — lives in a per-thread cache, so a reader
    /// issuing batch after batch allocates nothing in steady state.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed point, before any descent runs.
    pub fn predict_batch_into<P: AsRef<[f64]>>(
        &self,
        points: &[P],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        out.clear();
        let space = &self.cpu.tree().config().space;
        debug_assert!(
            *space == self.io.tree().config().space,
            "shard components must share a space"
        );
        let levels = self.cpu.tree().packed_levels().max(self.io.tree().packed_levels());
        SHARD_SCRATCH.with(|scratch| {
            let (plan, cpu_out, io_out) = &mut *scratch.borrow_mut();
            plan.prepare(space, levels, points)?;
            // One fused pass walks both component slabs: the plan is read
            // once and the two trees' record loads overlap in the memory
            // system.
            FrozenTree::predict_planned_pair_into(
                self.cpu.tree(),
                self.io.tree(),
                plan,
                cpu_out,
                io_out,
            );
            // Guarded read policy and CPU + weight × IO combination in a
            // single pass (same per-component semantics as
            // `apply_policy`, fused so the batch is touched once).
            let (cpu_healthy, cpu_fb) = (self.cpu.healthy, self.cpu.fallback);
            let (io_healthy, io_fb) = (self.io.healthy, self.io.fallback);
            out.extend(cpu_out.iter().zip(io_out.iter()).map(|(&cpu_raw, &io_raw)| {
                let cpu = if cpu_healthy { cpu_raw.or(cpu_fb) } else { cpu_fb };
                let io = if io_healthy { io_raw.or(io_fb) } else { io_fb };
                match (cpu, io) {
                    (None, None) => None,
                    (c, i) => Some(c.unwrap_or(0.0) + self.io_weight * i.unwrap_or(0.0)),
                }
            }));
            Ok(())
        })
    }

    /// Predicts one cost component.
    ///
    /// # Errors
    ///
    /// Propagates malformed-point errors.
    pub fn predict_component(
        &self,
        point: &[f64],
        kind: CostKind,
    ) -> Result<Option<f64>, MlqError> {
        match kind {
            CostKind::Cpu => self.cpu.predict(point),
            CostKind::DiskIo => self.io.predict(point),
        }
    }

    /// The combined cost of an observed execution under this shard's
    /// weighting.
    #[must_use]
    pub fn combine(&self, cost: ExecutionCost) -> f64 {
        cost.cpu + self.io_weight * cost.io
    }

    /// The UDF this shard serves.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Guard and feedback accounting as of this snapshot's publication.
    #[must_use]
    pub fn counters(&self) -> &ShardCounters {
        &self.counters
    }

    /// Publication sequence number.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.counters.version
    }

    /// Component views (CPU, IO).
    #[must_use]
    pub fn components(&self) -> (&ComponentSnapshot, &ComponentSnapshot) {
        (&self.cpu, &self.io)
    }
}
