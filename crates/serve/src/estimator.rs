//! The concurrent sharded estimator service.
//!
//! One [`ConcurrentEstimator`] serves cost estimates for every registered
//! UDF. Internally it is sharded per UDF, one CPU and one IO model per
//! shard (paper §1), and split across two worlds:
//!
//! * **Readers** (any number of threads) fetch the shard's published
//!   [`ShardSnapshot`] — an `Arc` clone under a briefly held
//!   `parking_lot::RwLock` read guard — and predict against the immutable
//!   snapshot. No reader ever touches a live model.
//! * **The maintainer core** holds the live [`GuardedModel`]s behind one
//!   mutex. Feedback arrives through a bounded MPSC queue
//!   ([`FeedbackQueue`]), is applied in batches (`observe`, including any
//!   compression the insert triggers — all off the read path), every
//!   touched shard is refrozen and republished, and one fleet
//!   arbitration round follows. [`MaintainerMode`] decides only who
//!   drives those batches: a background thread or
//!   [`ConcurrentEstimator::step`]. Everything else that needs the live
//!   models — waking a hibernated shard on a read, the replication
//!   half-steps, fleet introspection — locks the same core in either
//!   mode.
//!
//! Shutdown closes the queue (new feedback is refused), joins any
//! maintainer thread, flushes every queued observation into the models,
//! and republishes final snapshots — nothing admitted is ever dropped by
//! shutdown.

use crate::queue::{
    BackpressurePolicy, Feedback, FeedbackQueue, PushOutcome, QueueCounters, QueueMetrics,
};
use crate::recovery::{
    prune_generations, recover_dir, write_checkpoint, RecoveryReport, RestoreKind, ShardRecovery,
    ShardState,
};
use crate::snapshot::{ComponentSnapshot, ShardCounters, ShardSnapshot};
use crate::wal::{
    shard_stem, DurabilityConfig, DurabilityIo, DurabilityShared, DurabilityStatus, Journal,
    WalError, WalRecord, JOURNAL_FILE,
};
use mlq_core::{
    evict_to_global_budget, CostModel, DeltaTracker, FleetModel, FrozenTree, GuardConfig,
    GuardState, GuardedModel, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, MlqError,
    ModelCounters, Space, TreeSnapshot, NODE_BYTES,
};
use mlq_obs::{labeled, Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use mlq_udfs::ExecutionCost;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Who drives the drain → apply → republish → arbitrate loop. The
/// maintainer core and everything that locks it are the same in both
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintainerMode {
    /// A dedicated background thread (production default).
    #[default]
    Background,
    /// No thread: the test or embedding code drives maintenance explicitly
    /// through [`ConcurrentEstimator::step`]. Feedback application becomes
    /// fully deterministic — nothing happens between steps — which is what
    /// the deterministic concurrency harness builds on.
    Manual,
}

/// Fleet-level memory arbitration for a [`ConcurrentEstimator`]: one
/// global byte budget shared by every shard's live models, enforced by
/// the maintainer after each feedback batch (eviction stays off the
/// read path, like compression).
///
/// Arbitration runs in rounds. Each round snapshots every shard's
/// `mlq_serve_reads` counter exactly once, turns the deltas since the
/// previous round into traffic weights, hibernates shards that stayed
/// cold for [`hibernate_after`](Self::hibernate_after) consecutive
/// rounds (their models spill to CRC-checked snapshot envelopes and a
/// stand-in snapshot is published), and — when the remaining live
/// models exceed [`global_budget`](Self::global_budget) — runs one
/// cross-model eviction pass that drops the globally smallest
/// traffic-weighted-SSEG leaves first
/// ([`evict_to_global_budget`](mlq_core::evict_to_global_budget)).
/// A prediction against a hibernated shard wakes it: the models are
/// restored bit-identically from their envelopes and republished before
/// the prediction is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Global byte budget across every live shard's CPU and IO models.
    pub global_budget: usize,
    /// Consecutive traffic-free arbitration rounds after which a shard
    /// hibernates. `0` disables hibernation (eviction still runs).
    pub hibernate_after: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { global_budget: 1 << 20, hibernate_after: 0 }
    }
}

/// Tuning of a [`ConcurrentEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bound of the feedback queue, in observations. A maintainer step
    /// applies everything queued, so this also bounds one step.
    pub queue_capacity: usize,
    /// What producers do when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// CPU-unit cost of one page read (see
    /// [`CostEstimator`](mlq_optimizer::CostEstimator)).
    pub io_weight: f64,
    /// Guard settings applied to every shard's CPU and IO models.
    pub guard: GuardConfig,
    /// Byte budget per model for UDFs registered through the builder.
    pub budget_per_model: usize,
    /// Whether maintenance runs on a background thread or is stepped
    /// manually.
    pub maintainer: MaintainerMode,
    /// Fleet-level budget arbitration; `None` (the default) serves every
    /// shard at its own per-model budget with no global coupling.
    pub fleet: Option<FleetConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 4096,
            backpressure: BackpressurePolicy::Block,
            io_weight: 100.0,
            guard: GuardConfig::default(),
            budget_per_model: 1 << 16,
            maintainer: MaintainerMode::Background,
            fleet: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), MlqError> {
        if self.queue_capacity == 0 {
            return Err(MlqError::InvalidConfig {
                reason: "queue_capacity must be nonzero".into(),
            });
        }
        if !self.io_weight.is_finite() || self.io_weight < 0.0 {
            return Err(MlqError::InvalidConfig {
                reason: format!(
                    "io_weight must be finite and non-negative, got {}",
                    self.io_weight
                ),
            });
        }
        if let Some(fleet) = &self.fleet {
            // Two roots (CPU + IO) per live shard can never be evicted,
            // so anything below that per shard is unsatisfiable.
            if fleet.global_budget < 2 * NODE_BYTES {
                return Err(MlqError::InvalidConfig {
                    reason: format!(
                        "fleet.global_budget must hold at least one shard's two roots \
                         ({} B), got {} B",
                        2 * NODE_BYTES,
                        fleet.global_budget
                    ),
                });
            }
        }
        self.backpressure.validate()
    }
}

/// Cached registry handles accumulating one shard component's
/// [`ModelCounters`] (series `mlq_core_*{udf=...,component=...}`).
/// Handles are resolved once at shard construction so the per-publish
/// export is pure atomic adds. Each export adds what the live model did
/// since the previous export, so the series keep counting when the
/// model is swapped for one whose own counters start elsewhere
/// (hibernation stub, restored envelope, installed replica merge).
struct ModelObs {
    predictions: Counter,
    predict_nanos: Counter,
    predict_nodes_visited: Counter,
    insertions: Counter,
    insert_nanos: Counter,
    compressions: Counter,
    compress_nanos: Counter,
    sseg_evictions: Counter,
    lazy_skips: Counter,
    freezes: Counter,
    freeze_nanos: Counter,
    /// The live model's counters as of the last export or model swap.
    exported: ModelCounters,
}

impl ModelObs {
    fn new(registry: &Registry, udf: &str, component: &str) -> Self {
        let labels = [("udf", udf), ("component", component)];
        let handle = |metric: &str| registry.counter(&labeled(metric, &labels));
        ModelObs {
            predictions: handle("mlq_core_predictions"),
            predict_nanos: handle("mlq_core_predict_nanos"),
            predict_nodes_visited: handle("mlq_core_predict_nodes_visited"),
            insertions: handle("mlq_core_insertions"),
            insert_nanos: handle("mlq_core_insert_nanos"),
            compressions: handle("mlq_core_compressions"),
            compress_nanos: handle("mlq_core_compress_nanos"),
            sseg_evictions: handle("mlq_core_sseg_evictions"),
            lazy_skips: handle("mlq_core_lazy_skips"),
            freezes: handle("mlq_core_freezes"),
            freeze_nanos: handle("mlq_core_freeze_nanos"),
            exported: ModelCounters::default(),
        }
    }

    /// Adds the live model's counts since the last export.
    fn export(&mut self, c: ModelCounters) {
        let was = std::mem::replace(&mut self.exported, c);
        let add = |counter: &Counter, now: u64, then: u64| counter.add(now.saturating_sub(then));
        add(&self.predictions, c.predictions, was.predictions);
        add(&self.predict_nanos, c.predict_nanos, was.predict_nanos);
        add(&self.predict_nodes_visited, c.predict_nodes_visited, was.predict_nodes_visited);
        add(&self.insertions, c.insertions, was.insertions);
        add(&self.insert_nanos, c.insert_nanos, was.insert_nanos);
        add(&self.compressions, c.compressions, was.compressions);
        add(&self.compress_nanos, c.compress_nanos, was.compress_nanos);
        add(&self.sseg_evictions, c.sseg_evictions, was.sseg_evictions);
        add(&self.lazy_skips, c.lazy_skips, was.lazy_skips);
        add(&self.freezes, c.freezes, was.freezes);
        add(&self.freeze_nanos, c.freeze_nanos, was.freeze_nanos);
    }
}

/// The maintainer's live state for one shard. The apply/version tallies
/// live in the shared registry (labeled `{udf="<name>"}`); the plain
/// [`ShardCounters`] struct snapshots them as a view.
struct ShardModels {
    name: String,
    cpu: GuardedModel<MemoryLimitedQuadtree>,
    io: GuardedModel<MemoryLimitedQuadtree>,
    applied: Counter,
    apply_errors: Counter,
    version: Counter,
    cpu_obs: ModelObs,
    io_obs: ModelObs,
    /// Replication tee (CPU and IO trackers): every observation the
    /// guarded models absorb is also recorded here, so an anti-entropy
    /// round can extract exactly what this shard learned since the last
    /// sync. `None` unless the service was built with
    /// [`ConcurrentEstimatorBuilder::with_delta_tracking`].
    deltas: Option<Box<(DeltaTracker, DeltaTracker)>>,
    /// The previously published frozen trees, kept so the next
    /// publication can patch them copy-on-write instead of re-freezing
    /// from scratch. A clone is cheap: the node chunks and child slabs
    /// are `Arc`-shared with the published snapshot.
    prev_cpu: Option<FrozenTree>,
    prev_io: Option<FrozenTree>,
    /// `Some` while this shard is hibernated by fleet arbitration: its
    /// spilled state, while the live `GuardedModel`s hold empty stand-in
    /// trees. A wake restores from here bit-identically.
    hibernated: Option<Box<ShardState>>,
}

impl ShardModels {
    fn new(
        name: String,
        cpu: GuardedModel<MemoryLimitedQuadtree>,
        io: GuardedModel<MemoryLimitedQuadtree>,
        registry: &Registry,
    ) -> Self {
        let shard_counter = |metric: &str| registry.counter(&labeled(metric, &[("udf", &name)]));
        let applied = shard_counter("mlq_serve_applied");
        let apply_errors = shard_counter("mlq_serve_apply_errors");
        let version = shard_counter("mlq_serve_snapshot_version");
        let cpu_obs = ModelObs::new(registry, &name, "cpu");
        let io_obs = ModelObs::new(registry, &name, "io");
        ShardModels {
            name,
            cpu,
            io,
            applied,
            apply_errors,
            version,
            cpu_obs,
            io_obs,
            deltas: None,
            prev_cpu: None,
            prev_io: None,
            hibernated: None,
        }
    }

    fn snapshot(&mut self, io_weight: f64) -> ShardSnapshot {
        self.version.inc();
        self.cpu_obs.export(self.cpu.inner().counters());
        self.io_obs.export(self.io.inner().counters());
        let counters = ShardCounters {
            version: self.version.get(),
            applied: self.applied.get(),
            apply_errors: self.apply_errors.get(),
            cpu_guard: self.cpu.counters(),
            io_guard: self.io.counters(),
            cpu_breaker: self.cpu.state(),
            io_breaker: self.io.state(),
        };
        // Republish copy-on-write when possible: a feedback batch that
        // only bumped summaries patches the previous frozen tree's
        // touched chunks instead of re-packing the whole slab. A
        // structural change (or the first publication) falls back to a
        // full freeze inside `refreeze`.
        let cpu_tree = match self.prev_cpu.take() {
            Some(prev) => self.cpu.inner().refreeze(&prev),
            None => self.cpu.inner().freeze(),
        };
        let io_tree = match self.prev_io.take() {
            Some(prev) => self.io.inner().refreeze(&prev),
            None => self.io.inner().freeze(),
        };
        self.prev_cpu = Some(cpu_tree.clone());
        self.prev_io = Some(io_tree.clone());
        let cpu =
            ComponentSnapshot::new(cpu_tree, self.cpu.is_healthy(), self.cpu.fallback_prediction());
        let io =
            ComponentSnapshot::new(io_tree, self.io.is_healthy(), self.io.fallback_prediction());
        let snap = ShardSnapshot::new(self.name.clone(), cpu, io, io_weight, counters);
        if self.hibernated.is_some() {
            snap.mark_hibernated()
        } else {
            snap
        }
    }

    /// Both components' envelopes and guard states, as a hibernation
    /// spills them and a checkpoint writes them.
    fn spill(&self) -> ShardState {
        ShardState {
            cpu_env: self.cpu.inner().snapshot().to_envelope(),
            io_env: self.io.inner().snapshot().to_envelope(),
            cpu_guard: self.cpu.export_state(),
            io_guard: self.io.export_state(),
        }
    }

    /// Swaps in new CPU and IO models (hibernation stub, woken envelope,
    /// installed merge). What the outgoing models counted since the last
    /// publish is exported first, and the export then counts from the
    /// incoming models' own counters. Fresh trees carry fresh identities,
    /// so the previous frozen snapshots can never be patched against
    /// them; they are dropped and the next publication freezes from
    /// scratch.
    fn replace_models(&mut self, cpu: MemoryLimitedQuadtree, io: MemoryLimitedQuadtree) {
        self.cpu_obs.export(self.cpu.inner().counters());
        self.io_obs.export(self.io.inner().counters());
        *self.cpu.inner_mut() = cpu;
        *self.io.inner_mut() = io;
        self.cpu_obs.exported = self.cpu.inner().counters();
        self.io_obs.exported = self.io.inner().counters();
        self.prev_cpu = None;
        self.prev_io = None;
    }

    /// Applies one observation to both components, mirroring
    /// [`CostEstimator::observe`](mlq_optimizer::CostEstimator::observe):
    /// both models are always fed; one component's quarantine must not
    /// starve the other.
    fn apply(&mut self, point: &[f64], cost: ExecutionCost) {
        // Absorption detection for the replication tee: the guard returns
        // `Ok` even when its breaker swallows the observation, so the only
        // reliable signal that the inner model was actually fed is its
        // root count growing.
        let before = self
            .deltas
            .is_some()
            .then(|| (self.cpu.inner().root_summary().count, self.io.inner().root_summary().count));
        let cpu = self.cpu.observe(point, cost.cpu);
        let io = self.io.observe(point, cost.io);
        if let (Some((cpu_before, io_before)), Some(trackers)) = (before, self.deltas.as_mut()) {
            let (cpu_delta, io_delta) = trackers.as_mut();
            if self.cpu.inner().root_summary().count > cpu_before
                && cpu_delta.record(point, cost.cpu).is_err()
            {
                self.apply_errors.inc();
            }
            if self.io.inner().root_summary().count > io_before
                && io_delta.record(point, cost.io).is_err()
            {
                self.apply_errors.inc();
            }
        }
        let quarantine_only = |r: &Result<(), MlqError>| {
            matches!(r, Ok(()) | Err(MlqError::FeedbackQuarantined { .. }))
        };
        if cpu.is_ok() && io.is_ok() {
            self.applied.inc();
        } else if !quarantine_only(&cpu) || !quarantine_only(&io) {
            // Quarantines are already counted by the guards themselves;
            // anything else (malformed point that slipped past the
            // producer, inner-model failure) is an apply error.
            self.apply_errors.inc();
        }
    }
}

/// Registry handles for the maintainer loop's own metrics.
struct MaintainerObs {
    /// Mirror of the `processed` atomic (`mlq_serve_processed`).
    processed_total: Counter,
    batch_size: Histogram,
    batch_nanos: Histogram,
    publishes: Counter,
    snapshot_age: Histogram,
}

impl MaintainerObs {
    fn new(registry: &Registry) -> Self {
        MaintainerObs {
            processed_total: registry.counter("mlq_serve_processed"),
            batch_size: registry.histogram("mlq_serve_batch_size"),
            batch_nanos: registry.histogram("mlq_serve_batch_apply_nanos"),
            publishes: registry.counter("mlq_serve_publishes"),
            snapshot_age: registry.histogram("mlq_serve_snapshot_age_nanos"),
        }
    }
}

/// One shard's durable-side state, index-aligned with
/// [`MaintainerCore::shards`].
struct ShardDurability {
    /// Newest published checkpoint generation.
    generation: u64,
    /// Sequence number that generation covers.
    covered: u64,
    appended: Counter,
    synced_gauge: Gauge,
    checkpoints: Counter,
}

/// The maintainer's durability engine: journals every drained batch
/// before it is applied with one group commit into the service-wide
/// journal, checkpoints on a batch cadence, and trips a circuit breaker
/// into in-memory-only serving when persistence keeps failing.
struct DurabilityCore {
    dir: PathBuf,
    checkpoint_every: u64,
    degrade_after: u32,
    io: DurabilityIo,
    journal: Journal,
    shards: Vec<ShardDurability>,
    /// Legacy per-shard journals replayed at startup, deleted once the
    /// startup checkpoint covers them.
    legacy: Vec<PathBuf>,
    shared: Arc<DurabilityShared>,
    commits: Counter,
    commit_nanos: Histogram,
    committed_bytes: Counter,
    truncations: Counter,
    commit_retries: Counter,
    checkpoint_failures: Counter,
    degraded_gauge: Gauge,
    /// Consecutive failed durable operations (commits, checkpoints,
    /// truncations), each already retried per the [`RetryPolicy`]
    /// (crate::wal::RetryPolicy). Reset by any success.
    failure_streak: u32,
    batches_since_checkpoint: u64,
}

impl DurabilityCore {
    /// Whether durable I/O should still be attempted.
    fn active(&self) -> bool {
        !self.io.crashed() && self.shared.status() == DurabilityStatus::Active
    }

    fn degrade(&mut self) {
        self.shared.set_status(DurabilityStatus::Degraded);
        self.degraded_gauge.set(1.0);
    }

    fn crash(&mut self) {
        self.shared.set_status(DurabilityStatus::Crashed);
    }

    fn note_failure(&mut self, err: MlqError) {
        self.shared.set_error(err.to_string());
        self.failure_streak += 1;
        if self.failure_streak >= self.degrade_after {
            self.degrade();
        }
    }

    /// Journals one drained batch with one group commit — one write and
    /// one sync, no matter how many observations or shards the batch
    /// held. Runs *before* the records are applied to the models.
    fn journal(&mut self, batch: &[Feedback]) {
        if !self.active() {
            return;
        }
        for fb in batch {
            if let Some(sd) = self.shards.get(fb.shard) {
                self.journal.append(fb.shard, &fb.point, fb.cost);
                sd.appended.inc();
            }
        }
        self.commit();
    }

    /// Commits whatever the journal holds; on success, advances every
    /// shard's published durable sequence number.
    fn commit(&mut self) {
        let bytes = self.journal.pending_bytes();
        if bytes == 0 {
            return;
        }
        let start = Instant::now();
        let outcome = self.journal.commit(&mut self.io);
        self.commit_retries.add(self.io.take_retries());
        match outcome {
            Ok(()) => {
                self.commit_nanos
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                self.commits.inc();
                self.committed_bytes.add(bytes as u64);
                self.failure_streak = 0;
                for (idx, sd) in self.shards.iter().enumerate() {
                    let seq = self.journal.synced_seq(idx);
                    if seq != self.shared.synced(idx) {
                        self.shared.set_synced(idx, seq);
                        sd.synced_gauge.set(seq as f64);
                    }
                }
            }
            Err(WalError::Crashed) => self.crash(),
            Err(WalError::Io(err)) => self.note_failure(err),
        }
    }

    /// Batch-cadence bookkeeping; checkpoints every shard once
    /// `checkpoint_every` batches have been applied (`0` disables the
    /// periodic cadence — startup and shutdown still checkpoint).
    fn after_batch(&mut self, shards: &[ShardModels]) {
        if self.checkpoint_every == 0 || !self.active() {
            return;
        }
        self.batches_since_checkpoint += 1;
        if self.batches_since_checkpoint < self.checkpoint_every {
            return;
        }
        self.batches_since_checkpoint = 0;
        self.checkpoint_all(shards);
    }

    /// Checkpoints every shard, then truncates the journal once — only
    /// when every shard's newest published generation covers its synced
    /// sequence number, so no record is dropped that a checkpoint does
    /// not hold. Returns whether the journal was truncated.
    fn checkpoint_all(&mut self, shards: &[ShardModels]) -> bool {
        // Anything still buffered must become durable first: a checkpoint
        // must never claim a sequence number the journal could not.
        self.commit();
        if !self.active() || self.journal.pending_bytes() > 0 {
            return false;
        }
        for (idx, shard) in shards.iter().enumerate().take(self.shards.len()) {
            if !self.active() {
                return false;
            }
            self.checkpoint_shard(idx, shard);
        }
        let covered = self
            .shards
            .iter()
            .enumerate()
            .all(|(idx, sd)| sd.covered == self.journal.synced_seq(idx));
        if !self.active() || !covered {
            return false;
        }
        match self.journal.truncate(&mut self.io) {
            Ok(()) => {
                self.truncations.inc();
                for (sd, shard) in self.shards.iter().zip(shards) {
                    prune_generations(&self.dir, &shard.name, sd.generation);
                }
                true
            }
            Err(WalError::Crashed) => {
                self.crash();
                false
            }
            Err(WalError::Io(err)) => {
                self.note_failure(err);
                false
            }
        }
    }

    /// Establishes the recovery baseline at build time: a fresh
    /// checkpoint per shard, then the journal truncated down to this
    /// service's name table and the replayed legacy journals deleted.
    /// Nothing on disk is dropped until the checkpoints covering it have
    /// published, so a crash mid-startup still recovers from the old
    /// state. A service that cannot establish its baseline must not
    /// journal, so any startup failure degrades the layer immediately
    /// rather than waiting for the runtime streak.
    fn startup(&mut self, shards: &[ShardModels]) {
        if self.checkpoint_all(shards) {
            for path in self.legacy.drain(..) {
                let _ = std::fs::remove_file(path);
            }
        } else if self.shared.status() == DurabilityStatus::Active {
            self.degrade();
        }
    }

    fn checkpoint_shard(&mut self, idx: usize, shard: &ShardModels) {
        let seq = self.journal.synced_seq(idx);
        let generation = self.shards[idx].generation + 1;
        // A hibernated shard's live trees are empty stand-ins; its spilled
        // state is its checkpoint. Feedback wakes a shard before it is
        // applied, so that state holds everything the shard journaled.
        let spilled;
        let state = match shard.hibernated.as_deref() {
            Some(state) => state,
            None => {
                spilled = shard.spill();
                &spilled
            }
        };
        let outcome =
            write_checkpoint(&mut self.io, &self.dir, &shard.name, generation, seq, state);
        self.commit_retries.add(self.io.take_retries());
        match outcome {
            Ok(()) => {
                let sd = &mut self.shards[idx];
                sd.generation = generation;
                sd.covered = seq;
                sd.checkpoints.inc();
                self.failure_streak = 0;
            }
            Err(WalError::Crashed) => self.crash(),
            Err(WalError::Io(err)) => {
                self.checkpoint_failures.inc();
                self.note_failure(err);
            }
        }
    }
}

/// Registry handles for the fleet arbiter's `mlq_catalog_*` series. The
/// arbiter lives here, in the serving tier; the `mlq_catalog_` prefix is
/// historical and kept because dashboards and `perfbench` read these
/// names.
struct FleetObs {
    global_budget: Gauge,
    live_bytes: Gauge,
    cold_bytes: Gauge,
    hibernated_models: Gauge,
    arbitrations: Counter,
    evicted_leaves: Counter,
    evicted_bytes: Counter,
    hibernations: Counter,
    restores: Counter,
    budget_overruns: Counter,
}

impl FleetObs {
    fn new(registry: &Registry, global_budget: usize) -> Self {
        let obs = FleetObs {
            global_budget: registry.gauge("mlq_catalog_global_budget_bytes"),
            live_bytes: registry.gauge("mlq_catalog_live_bytes"),
            cold_bytes: registry.gauge("mlq_catalog_cold_bytes"),
            hibernated_models: registry.gauge("mlq_catalog_hibernated_models"),
            arbitrations: registry.counter("mlq_catalog_arbitrations"),
            evicted_leaves: registry.counter("mlq_catalog_evicted_leaves"),
            evicted_bytes: registry.counter("mlq_catalog_evicted_bytes"),
            hibernations: registry.counter("mlq_catalog_hibernations"),
            restores: registry.counter("mlq_catalog_restores"),
            budget_overruns: registry.counter("mlq_catalog_budget_overruns"),
        };
        obs.global_budget.set(global_budget as f64);
        obs
    }
}

/// What one fleet arbitration round did. Exposed through
/// [`ConcurrentEstimator::last_arbitration`] so a deterministic harness
/// can assert the budget invariant after every step.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArbitration {
    /// Arbitration round number (1 = the first round after build).
    pub round: u64,
    /// Per-shard read-counter deltas since the previous round, in shard
    /// name order — the traffic that weighted this round's eviction.
    pub traffic: Vec<u64>,
    /// Sum of [`traffic`](Self::traffic).
    pub traffic_total: u64,
    /// Shards hibernated during this round, by name.
    pub hibernated: Vec<String>,
    /// Leaves evicted by this round's cross-model pass.
    pub evicted_leaves: usize,
    /// Bytes freed by this round's cross-model pass.
    pub evicted_bytes: usize,
    /// Summed accounted bytes of all live (non-hibernated) models after
    /// the round.
    pub live_bytes: usize,
    /// Whether `live_bytes <= global_budget` held after the round.
    pub fit: bool,
}

/// The maintainer-side state of fleet arbitration.
struct FleetCore {
    config: FleetConfig,
    /// Clones of the service's per-shard `mlq_serve_reads` handles,
    /// index-aligned with [`MaintainerCore::shards`].
    reads: Vec<Counter>,
    /// The previous round's traffic snapshot (read-counter totals).
    last_reads: Vec<u64>,
    /// Consecutive traffic-free rounds per shard.
    cold_rounds: Vec<u32>,
    round: u64,
    last: Option<FleetArbitration>,
    obs: FleetObs,
}

/// Observations fully applied and republished, with a condition variable
/// a flush under [`MaintainerMode::Background`] sleeps on until the
/// maintainer makes progress instead of polling. The maintainer signals
/// only while a flush waits, so its batches take no lock and make no
/// wake-up call otherwise.
#[derive(Default)]
struct Progress {
    processed: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    advanced: Condvar,
}

impl Progress {
    fn get(&self) -> u64 {
        // Sequentially consistent, like `waiters`: see `add`.
        self.processed.load(Ordering::SeqCst)
    }

    /// Adds `n` and wakes every waiter.
    fn add(&self, n: u64) {
        self.processed.fetch_add(n, Ordering::SeqCst);
        // A waiter registers before it re-checks the total, both in one
        // sequentially consistent order: either it sees the new total or
        // this load sees it waiting.
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Passing through the lock orders this signal after a
            // waiter's re-check under it, so the waiter is already asleep
            // (and woken) or sees the new total.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.advanced.notify_all();
        }
    }

    /// Sleeps until the next advance unless `done` already holds. The
    /// wait is bounded, so progress nobody signals (a lossy queue
    /// evicting observations) costs one timeout rather than a hang.
    fn wait_unless(&self, done: impl Fn() -> bool) {
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if !done() {
            let _ = self.advanced.wait_timeout(guard, Duration::from_millis(5));
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything one apply → republish → arbitrate step needs. Lives behind
/// the estimator's one maintainer lock in both [`MaintainerMode`]s; the
/// mode decides only whether a background thread or
/// [`ConcurrentEstimator::step`] feeds it batches.
struct MaintainerCore {
    shards: Vec<ShardModels>,
    touched: Vec<bool>,
    last_publish: Vec<Instant>,
    io_weight: f64,
    processed: Arc<Progress>,
    obs: MaintainerObs,
    durability: Option<DurabilityCore>,
    fleet: Option<FleetCore>,
}

impl MaintainerCore {
    /// One maintenance step: applies a drained batch, then runs one
    /// arbitration round. Arbitration runs after empty batches too: idle
    /// rounds must tick so cold streaks accumulate. Returns the number
    /// of observations consumed.
    fn run(&mut self, batch: Vec<Feedback>, published: &[RwLock<Arc<ShardSnapshot>>]) -> usize {
        let n = self.apply_batch(batch, published);
        self.arbitrate(published);
        n
    }

    /// Applies one drained batch and republishes every touched shard.
    /// Returns the number of observations consumed.
    fn apply_batch(
        &mut self,
        batch: Vec<Feedback>,
        published: &[RwLock<Arc<ShardSnapshot>>],
    ) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let start = Instant::now();
        let n = batch.len();
        self.obs.batch_size.record(n as u64);
        // Write-ahead: the batch is journaled and group-committed before
        // any of it reaches a model. A crash from here on loses only
        // what the journal never acknowledged.
        if let Some(dur) = self.durability.as_mut() {
            dur.journal(&batch);
        }
        for fb in batch {
            // Feedback for a hibernated shard wakes it first: the
            // stand-in trees must never absorb observations the real
            // (spilled) models would miss on restore.
            if self.shards.get(fb.shard).is_some_and(|s| s.hibernated.is_some()) {
                self.wake_one(fb.shard, published);
            }
            if let Some(shard) = self.shards.get_mut(fb.shard) {
                shard.apply(&fb.point, fb.cost);
                self.touched[fb.shard] = true;
            }
        }
        for idx in 0..self.touched.len() {
            if self.touched[idx] {
                self.publish(idx, published);
                self.touched[idx] = false;
            }
        }
        if let Some(dur) = self.durability.as_mut() {
            dur.after_batch(&self.shards);
        }
        self.obs.batch_nanos.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        // Republish-then-count: once `processed` covers an observation,
        // its effect is visible to readers (the flush contract), and so
        // is its `mlq_serve_processed` count. Batches apply only under
        // the maintainer lock, so nothing else moves the total between
        // these two lines.
        self.obs.processed_total.record_total(self.processed.get() + n as u64);
        self.processed.add(n as u64);
        n
    }

    fn publish(&mut self, idx: usize, published: &[RwLock<Arc<ShardSnapshot>>]) {
        // How stale the outgoing snapshot had become by the time it was
        // replaced.
        let age = self.last_publish[idx].elapsed();
        *published[idx].write() = Arc::new(self.shards[idx].snapshot(self.io_weight));
        self.obs.publishes.inc();
        self.obs.snapshot_age.record(u64::try_from(age.as_nanos()).unwrap_or(u64::MAX));
        self.last_publish[idx] = Instant::now();
    }

    /// Final publication so shutdown reports the very last counters,
    /// plus the shutdown checkpoint so a clean restart replays nothing.
    fn final_publish(&mut self, published: &[RwLock<Arc<ShardSnapshot>>]) {
        // Hibernated shards come back first: the final snapshots (and
        // the shutdown checkpoint) must reflect the real models, not the
        // stand-ins.
        for idx in 0..self.shards.len() {
            self.wake_one(idx, published);
        }
        for idx in 0..self.shards.len() {
            self.publish(idx, published);
        }
        if let Some(dur) = self.durability.as_mut() {
            dur.checkpoint_all(&self.shards);
        }
    }

    /// Summed accounted bytes of every live (non-hibernated) shard's
    /// CPU and IO models — what the global budget constrains.
    fn live_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.hibernated.is_none())
            .map(|s| s.cpu.inner().bytes_used() + s.io.inner().bytes_used())
            .sum()
    }

    /// Summed envelope bytes of every hibernated shard.
    fn cold_bytes(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.hibernated.as_deref())
            .map(|h| h.cpu_env.len() + h.io_env.len())
            .sum()
    }

    /// Restores shard `idx` from hibernation (no-op when live). Safe to
    /// call whether or not fleet arbitration is configured.
    fn wake_one(&mut self, idx: usize, published: &[RwLock<Arc<ShardSnapshot>>]) {
        let Some(mut fleet) = self.fleet.take() else { return };
        self.restore_shard(idx, published, &mut fleet);
        self.fleet = Some(fleet);
    }

    /// Spills shard `idx`'s models to snapshot envelopes, installs empty
    /// stand-in trees, and publishes the hibernated stand-in snapshot.
    fn hibernate_shard(
        &mut self,
        idx: usize,
        published: &[RwLock<Arc<ShardSnapshot>>],
        fleet: &mut FleetCore,
    ) {
        let shard = &mut self.shards[idx];
        if shard.hibernated.is_some() {
            return;
        }
        let stub = |m: &GuardedModel<MemoryLimitedQuadtree>| {
            MemoryLimitedQuadtree::new(m.inner().config().clone())
        };
        let (Ok(cpu_stub), Ok(io_stub)) = (stub(&shard.cpu), stub(&shard.io)) else {
            // A live model's config is valid by construction, so this
            // cannot fail; stay live rather than lose state if it ever
            // does.
            shard.apply_errors.inc();
            return;
        };
        shard.hibernated = Some(Box::new(shard.spill()));
        shard.replace_models(cpu_stub, io_stub);
        fleet.obs.hibernations.inc();
        self.publish(idx, published);
    }

    /// Restores shard `idx`'s models bit-identically from its hibernation
    /// envelopes and republishes a live snapshot. No-op when live.
    fn restore_shard(
        &mut self,
        idx: usize,
        published: &[RwLock<Arc<ShardSnapshot>>],
        fleet: &mut FleetCore,
    ) {
        let Some(shard) = self.shards.get_mut(idx) else { return };
        let Some(h) = shard.hibernated.take() else { return };
        let restore = |bytes: &[u8]| -> Result<MemoryLimitedQuadtree, MlqError> {
            MemoryLimitedQuadtree::from_snapshot(&TreeSnapshot::from_envelope(bytes)?)
        };
        match (restore(&h.cpu_env), restore(&h.io_env)) {
            (Ok(cpu), Ok(io)) => {
                shard.replace_models(cpu, io);
                shard.cpu.import_state(h.cpu_guard);
                shard.io.import_state(h.io_guard);
                fleet.cold_rounds[idx] = 0;
                fleet.obs.restores.inc();
                self.publish(idx, published);
            }
            _ => {
                // The envelopes were produced by this process from live
                // models, so decoding cannot fail; should it ever, keep
                // the envelopes for the next attempt and count the error.
                shard.hibernated = Some(h);
                shard.apply_errors.inc();
            }
        }
    }

    /// One fleet arbitration round (no-op without a fleet budget): a
    /// single traffic snapshot, cold-shard hibernation, and — if the live
    /// models exceed the global budget — one cross-model
    /// traffic-weighted eviction pass. Runs after every maintenance
    /// batch, so eviction and hibernation stay off the read path.
    fn arbitrate(&mut self, published: &[RwLock<Arc<ShardSnapshot>>]) {
        let Some(mut fleet) = self.fleet.take() else { return };
        fleet.round += 1;
        // One consistent traffic snapshot per round. Reading the live
        // atomics again mid-scan would hand later shards a longer
        // accounting window than earlier ones (the stale-counter bug
        // class `feedback_lag` fixed): a burst landing mid-arbitration
        // could make a genuinely hot shard look cold relative to shards
        // scanned later. Serve read counters are registry-owned and
        // monotonic across hibernation, so plain subtraction is exact.
        let now: Vec<u64> = fleet.reads.iter().map(Counter::get).collect();
        let traffic: Vec<u64> =
            now.iter().zip(&fleet.last_reads).map(|(n, l)| n.saturating_sub(*l)).collect();
        let traffic_total: u64 = traffic.iter().sum();
        fleet.last_reads = now;
        // Cold-streak bookkeeping, then hibernation of shards cold for
        // `hibernate_after` consecutive rounds.
        let mut hibernated = Vec::new();
        for (idx, &delta) in traffic.iter().enumerate() {
            if delta == 0 {
                fleet.cold_rounds[idx] = fleet.cold_rounds[idx].saturating_add(1);
            } else {
                fleet.cold_rounds[idx] = 0;
            }
            if fleet.config.hibernate_after > 0
                && fleet.cold_rounds[idx] >= fleet.config.hibernate_after
                && self.shards[idx].hibernated.is_none()
            {
                self.hibernate_shard(idx, published, &mut fleet);
                hibernated.push(self.shards[idx].name.clone());
            }
        }
        // Cross-model eviction over whatever is still live.
        let mut evicted_leaves = 0;
        let mut evicted_bytes = 0;
        let mut fit = true;
        if self.live_bytes() > fleet.config.global_budget {
            // All-cold rounds fall back to uniform weights: zeroing every
            // weight would collapse the eviction key and lose the SSEG
            // ordering entirely.
            let weight_of = |idx: usize| {
                if traffic_total == 0 {
                    1.0
                } else {
                    traffic[idx] as f64 / traffic_total as f64
                }
            };
            // Model slot -> shard index, for republication below.
            let mut slots = Vec::new();
            let mut models = Vec::new();
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                if shard.hibernated.is_some() {
                    continue;
                }
                slots.push(idx);
                models.push(FleetModel { weight: weight_of(idx), model: shard.cpu.inner_mut() });
                slots.push(idx);
                models.push(FleetModel { weight: weight_of(idx), model: shard.io.inner_mut() });
            }
            match evict_to_global_budget(&mut models, fleet.config.global_budget) {
                Ok(report) => {
                    evicted_leaves = report.nodes_freed;
                    evicted_bytes = report.bytes_freed;
                    fit = report.fit;
                    drop(models);
                    let mut touched = vec![false; self.shards.len()];
                    for (slot, pm) in report.per_model.iter().enumerate() {
                        if pm.nodes_freed > 0 {
                            touched[slots[slot]] = true;
                        }
                    }
                    for (idx, shrunk) in touched.into_iter().enumerate() {
                        if shrunk {
                            self.publish(idx, published);
                        }
                    }
                }
                // Weights are finite fractions by construction; treat a
                // rejection as an overrun rather than dropping state.
                Err(_) => fit = false,
            }
        }
        let live_bytes = self.live_bytes();
        fit = fit && live_bytes <= fleet.config.global_budget;
        if !fit {
            fleet.obs.budget_overruns.inc();
        }
        fleet.obs.arbitrations.inc();
        fleet.obs.evicted_leaves.add(evicted_leaves as u64);
        fleet.obs.evicted_bytes.add(evicted_bytes as u64);
        fleet.obs.live_bytes.set(live_bytes as f64);
        fleet.obs.cold_bytes.set(self.cold_bytes() as f64);
        fleet
            .obs
            .hibernated_models
            .set(self.shards.iter().filter(|s| s.hibernated.is_some()).count() as f64);
        fleet.last = Some(FleetArbitration {
            round: fleet.round,
            traffic,
            traffic_total,
            hibernated,
            evicted_leaves,
            evicted_bytes,
            live_bytes,
            fit,
        });
        self.fleet = Some(fleet);
    }
}

/// A shard about to be built: registered fresh, or reconstructed from
/// the durability directory.
struct PendingShard {
    name: String,
    cpu: MemoryLimitedQuadtree,
    io: MemoryLimitedQuadtree,
    guards: Option<(GuardState, GuardState)>,
    replay: Vec<WalRecord>,
    checkpoint_seq: u64,
    recovered_seq: u64,
    generation: u64,
    kind: RestoreKind,
    detail: String,
}

impl PendingShard {
    fn fresh(name: String, cpu: MemoryLimitedQuadtree, io: MemoryLimitedQuadtree) -> Self {
        PendingShard {
            name,
            cpu,
            io,
            guards: None,
            replay: Vec::new(),
            checkpoint_seq: 0,
            recovered_seq: 0,
            generation: 0,
            kind: RestoreKind::Fresh,
            detail: String::new(),
        }
    }
}

/// The model pair of one UDF shard over `space`: a CPU model with
/// `β = 1` and an IO model with `β = 10` — the paper's tuned settings for
/// deterministic vs. buffer-cache-noised costs — both lazy (`α = 0.05`)
/// with `budget_per_model` bytes, raised to the MLQ dimensional floor.
///
/// Every registered shard and a replica group's merge base use this
/// recipe, so they are configured identically.
pub(crate) fn shard_models(
    space: &Space,
    budget_per_model: usize,
) -> Result<(MemoryLimitedQuadtree, MemoryLimitedQuadtree), MlqError> {
    let build = |beta: u64| -> Result<MemoryLimitedQuadtree, MlqError> {
        let floor = MlqConfig::min_budget(space, 6);
        let config = MlqConfig::builder(space.clone())
            .memory_budget(budget_per_model.max(floor))
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .beta(beta)
            .build()?;
        MemoryLimitedQuadtree::new(config)
    };
    Ok((build(1)?, build(10)?))
}

/// Incrementally registers UDF shards, then spawns the service.
pub struct ConcurrentEstimatorBuilder {
    config: ServeConfig,
    models: Vec<(String, MemoryLimitedQuadtree, MemoryLimitedQuadtree)>,
    registry: Option<Arc<Registry>>,
    durability: Option<DurabilityConfig>,
    delta_budget: Option<usize>,
}

impl ConcurrentEstimatorBuilder {
    /// Starts a builder with `config`.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        ConcurrentEstimatorBuilder {
            config,
            models: Vec::new(),
            registry: None,
            durability: None,
            delta_budget: None,
        }
    }

    /// Enables crash-safe serving under `dir` with default
    /// [`DurabilityConfig`] settings: [`build`](Self::build) recovers
    /// whatever the directory holds, and the maintainer journals feedback
    /// and checkpoints from then on.
    #[must_use]
    pub fn with_durability(self, dir: impl Into<PathBuf>) -> Self {
        self.with_durability_config(DurabilityConfig::new(dir))
    }

    /// Enables crash-safe serving with explicit durability settings
    /// (checkpoint cadence, retry policy, fault injection, crash hooks).
    #[must_use]
    pub fn with_durability_config(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Records metrics into `registry` instead of a private one — lets an
    /// embedding application (or a replica group) aggregate serving
    /// metrics with its own in a single exposition.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables per-shard delta tracking for replication: every absorbed
    /// observation is also recorded into a shadow
    /// [`DeltaTracker`] (per component, each with
    /// `delta_budget` bytes), so an anti-entropy round can extract what
    /// this service learned since the last sync via
    /// [`ConcurrentEstimator::take_deltas`] and install merged models via
    /// [`ConcurrentEstimator::install_models`], in either
    /// [`MaintainerMode`].
    ///
    /// Observations replayed from a durability directory at build time
    /// are *not* recorded — a recovered replica's pre-crash state counts
    /// as already synced (see DESIGN.md §12 for the trade-off).
    #[must_use]
    pub fn with_delta_tracking(mut self, delta_budget: usize) -> Self {
        self.delta_budget = Some(delta_budget);
        self
    }

    /// Registers a fresh UDF shard over `space`, with a `β = 1` CPU and a
    /// `β = 10` IO model, both lazy.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for duplicate names; propagates model
    /// construction failures.
    pub fn register(mut self, name: &str, space: &Space) -> Result<Self, MlqError> {
        if self.models.iter().any(|(n, _, _)| n == name) {
            return Err(MlqError::InvalidConfig {
                reason: format!("UDF {name} is already registered"),
            });
        }
        let (cpu, io) = shard_models(space, self.config.budget_per_model)?;
        self.models.push((name.to_string(), cpu, io));
        Ok(self)
    }

    /// Wraps every model in its guard, publishes initial snapshots, and
    /// under [`MaintainerMode::Background`] spawns the maintainer thread.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when nothing is registered or the
    /// configuration is nonsensical.
    pub fn build(self) -> Result<ConcurrentEstimator, MlqError> {
        let ConcurrentEstimatorBuilder { config, models, registry, durability, delta_budget } =
            self;
        config.validate()?;
        if let Some(dconfig) = &durability {
            dconfig.validate()?;
        }
        let registry = registry.unwrap_or_else(|| Arc::new(Registry::new()));

        let mut pending: Vec<PendingShard> =
            models.into_iter().map(|(name, cpu, io)| PendingShard::fresh(name, cpu, io)).collect();
        let mut report = RecoveryReport::default();

        // Recovery: disk state replaces (or adds to) same-name registered
        // shards; the checkpointed trees carry their own configuration.
        let mut dur_io = None;
        let mut legacy = Vec::new();
        if let Some(dconfig) = &durability {
            std::fs::create_dir_all(&dconfig.dir).map_err(|e| MlqError::IoFault {
                reason: format!("durability dir create {}: {e}", dconfig.dir.display()),
            })?;
            dur_io = Some(DurabilityIo::new(dconfig)?);
            let recovered = recover_dir(&dconfig.dir)?;
            legacy = recovered.legacy;
            for shard in recovered.shards {
                let replayed = shard.records.len() as u64;
                let p = PendingShard {
                    name: shard.name,
                    cpu: shard.cpu,
                    io: shard.io,
                    guards: Some((shard.cpu_guard, shard.io_guard)),
                    replay: shard.records,
                    checkpoint_seq: shard.checkpoint_seq,
                    recovered_seq: shard.checkpoint_seq + replayed,
                    generation: shard.generation,
                    kind: shard.kind,
                    detail: shard.detail,
                };
                match pending.iter_mut().find(|e| e.name == p.name) {
                    Some(existing) => *existing = p,
                    None => pending.push(p),
                }
            }
            for (stem, reason) in recovered.unreadable {
                match pending.iter_mut().find(|e| shard_stem(&e.name) == stem) {
                    Some(existing) => {
                        existing.kind = RestoreKind::CorruptRecovered;
                        existing.detail = format!(
                            "every generation failed verification ({reason}); serving fresh"
                        );
                    }
                    None => report.shards.push(ShardRecovery {
                        name: stem,
                        kind: RestoreKind::CorruptRecovered,
                        checkpoint_seq: 0,
                        replayed: 0,
                        recovered_seq: 0,
                        detail: format!("unreadable and not registered; not serving ({reason})"),
                    }),
                }
            }
        }

        if pending.is_empty() {
            return Err(MlqError::InvalidConfig {
                reason: "a concurrent estimator needs at least one registered UDF".into(),
            });
        }
        // Shards are ordered by name.
        pending.sort_by(|a, b| a.name.cmp(&b.name));

        let mut shards = Vec::with_capacity(pending.len());
        let mut names = BTreeMap::new();
        let mut reads = Vec::with_capacity(pending.len());
        let mut dur_shards = Vec::new();
        let (mut dur_names, mut dur_seqs) = (Vec::new(), Vec::new());
        for (idx, p) in pending.into_iter().enumerate() {
            names.insert(p.name.clone(), idx);
            reads.push(registry.counter(&labeled("mlq_serve_reads", &[("udf", &p.name)])));
            let mut cpu = GuardedModel::for_quadtree(p.cpu, config.guard)?;
            let mut io = GuardedModel::for_quadtree(p.io, config.guard)?;
            if let Some((cpu_state, io_state)) = p.guards {
                cpu.import_state(cpu_state);
                io.import_state(io_state);
            }
            let mut shard = ShardModels::new(p.name.clone(), cpu, io, &registry);
            // Replay runs through the normal guarded-apply path with the
            // imported guard states, so every quarantine and breaker
            // decision repeats exactly as it happened live.
            for rec in &p.replay {
                shard.apply(&rec.point, rec.cost);
            }
            // Trackers attach only after replay: recovered observations
            // count as already synced to the replica group.
            if let Some(budget) = delta_budget {
                shard.deltas = Some(Box::new((
                    DeltaTracker::for_model(shard.cpu.inner(), budget)?,
                    DeltaTracker::for_model(shard.io.inner(), budget)?,
                )));
            }
            if durability.is_some() {
                registry
                    .counter(&labeled(
                        "mlq_serve_restore_outcome",
                        &[("udf", &p.name), ("outcome", p.kind.label())],
                    ))
                    .inc();
                report.shards.push(ShardRecovery {
                    name: p.name.clone(),
                    kind: p.kind,
                    checkpoint_seq: p.checkpoint_seq,
                    replayed: p.replay.len() as u64,
                    recovered_seq: p.recovered_seq,
                    detail: if p.detail.is_empty() {
                        "no durable state found".to_string()
                    } else {
                        p.detail
                    },
                });
                let wal_labels = [("udf", p.name.as_str())];
                dur_names.push(p.name.clone());
                dur_seqs.push(p.recovered_seq);
                dur_shards.push(ShardDurability {
                    generation: p.generation,
                    covered: p.checkpoint_seq,
                    appended: registry
                        .counter(&labeled("mlq_serve_wal_appended_records", &wal_labels)),
                    synced_gauge: registry.gauge(&labeled("mlq_serve_wal_synced_seq", &wal_labels)),
                    checkpoints: registry.counter(&labeled("mlq_serve_checkpoints", &wal_labels)),
                });
            }
            shards.push(shard);
        }
        report.shards.sort_by(|a, b| a.name.cmp(&b.name));

        let mut shared = None;
        let durability_core = match (durability, dur_io) {
            (Some(dconfig), Some(io)) => {
                let core_shared = Arc::new(DurabilityShared::new(shards.len()));
                shared = Some(Arc::clone(&core_shared));
                let degraded_gauge = registry.gauge("mlq_serve_durability_degraded");
                degraded_gauge.set(0.0);
                for (idx, (sd, &seq)) in dur_shards.iter().zip(&dur_seqs).enumerate() {
                    core_shared.set_synced(idx, seq);
                    sd.synced_gauge.set(seq as f64);
                }
                let journal =
                    Journal::open_preserving(dconfig.dir.join(JOURNAL_FILE), dur_names, dur_seqs)?;
                let mut core = DurabilityCore {
                    dir: dconfig.dir,
                    checkpoint_every: dconfig.checkpoint_every,
                    degrade_after: dconfig.degrade_after,
                    io,
                    journal,
                    shards: dur_shards,
                    legacy,
                    shared: core_shared,
                    commits: registry.counter("mlq_serve_wal_commits"),
                    commit_nanos: registry.histogram("mlq_serve_wal_commit_nanos"),
                    committed_bytes: registry.counter("mlq_serve_wal_bytes"),
                    truncations: registry.counter("mlq_serve_wal_truncations"),
                    commit_retries: registry.counter("mlq_serve_wal_commit_retries"),
                    checkpoint_failures: registry.counter("mlq_serve_checkpoint_failures"),
                    degraded_gauge,
                    failure_streak: 0,
                    batches_since_checkpoint: 0,
                };
                core.startup(&shards);
                Some(core)
            }
            _ => None,
        };

        let published: Arc<Vec<RwLock<Arc<ShardSnapshot>>>> = Arc::new(
            shards
                .iter_mut()
                .map(|s| RwLock::new(Arc::new(s.snapshot(config.io_weight))))
                .collect(),
        );
        let queue =
            Arc::new(FeedbackQueue::new(config.queue_capacity, QueueMetrics::new(&registry)));
        let processed = Arc::new(Progress::default());

        let shard_count = shards.len();
        let fleet_core = config.fleet.map(|fleet| FleetCore {
            config: fleet,
            reads: reads.clone(),
            last_reads: vec![0; shard_count],
            cold_rounds: vec![0; shard_count],
            round: 0,
            last: None,
            obs: FleetObs::new(&registry, fleet.global_budget),
        });
        let core = Arc::new(Mutex::new(Some(MaintainerCore {
            shards,
            touched: vec![false; shard_count],
            last_publish: vec![Instant::now(); shard_count],
            io_weight: config.io_weight,
            processed: Arc::clone(&processed),
            obs: MaintainerObs::new(&registry),
            durability: durability_core,
            fleet: fleet_core,
        })));
        // The initial publications above bypass `core.publish`, so
        // `mlq_serve_publishes` counts only feedback-driven republications.

        let maintainer_thread = match config.maintainer {
            MaintainerMode::Background => {
                let queue = Arc::clone(&queue);
                let published = Arc::clone(&published);
                let core = Arc::clone(&core);
                let handle = thread::Builder::new()
                    .name("mlq-serve-maintainer".into())
                    .spawn(move || loop {
                        // Wait outside the lock, so readers waking a
                        // shard and replication calls only ever contend
                        // with an applying batch. A step takes everything
                        // queued, so a backlog costs one publish.
                        let (batch, finished) = queue.drain(usize::MAX, Duration::from_millis(20));
                        if finished {
                            break;
                        }
                        let mut guard = core.lock().unwrap_or_else(PoisonError::into_inner);
                        let Some(maintainer) = guard.as_mut() else { break };
                        maintainer.run(batch, &published);
                    })
                    .map_err(|e| MlqError::IoFault {
                        reason: format!("spawning maintainer thread: {e}"),
                    })?;
                Some(handle)
            }
            MaintainerMode::Manual => None,
        };

        Ok(ConcurrentEstimator {
            names,
            published,
            reads,
            queue,
            processed,
            backpressure: config.backpressure,
            registry,
            mode: config.maintainer,
            core,
            maintainer_thread: Mutex::new(maintainer_thread),
            durability: shared,
            recovery: report,
        })
    }
}

/// A sharded, concurrently readable estimator service over every
/// registered UDF. See the [module documentation](self).
pub struct ConcurrentEstimator {
    names: BTreeMap<String, usize>,
    published: Arc<Vec<RwLock<Arc<ShardSnapshot>>>>,
    /// Per-shard `mlq_serve_reads{udf=...}` counters: predictions served
    /// from published snapshots, one per point. Only [`Self::predict_at`]
    /// and [`Self::predict_batch_into_at`] bump them.
    reads: Vec<Counter>,
    queue: Arc<FeedbackQueue>,
    /// Observations fully applied and republished by the maintainer.
    processed: Arc<Progress>,
    backpressure: BackpressurePolicy,
    registry: Arc<Registry>,
    mode: MaintainerMode,
    /// The maintainer's live state; `None` once shut down. The
    /// background thread holds the lock for one batch at a time.
    core: Arc<Mutex<Option<MaintainerCore>>>,
    /// The background maintainer thread (`None` under
    /// [`MaintainerMode::Manual`] and once joined). Shutdown holds this
    /// slot throughout, which serializes concurrent shutdowns.
    maintainer_thread: Mutex<Option<JoinHandle<()>>>,
    /// Shared durability state (`None` when built without durability).
    durability: Option<Arc<DurabilityShared>>,
    /// What startup recovery did, per shard (empty without durability).
    recovery: RecoveryReport,
}

/// One shard's extracted feedback delta: everything the service absorbed
/// for that shard since the previous [`ConcurrentEstimator::take_deltas`]
/// call (or since build). Returned in shard name order.
#[derive(Debug)]
pub struct ShardDelta {
    /// Shard (UDF) name.
    pub name: String,
    /// Delta over the CPU component.
    pub cpu: MemoryLimitedQuadtree,
    /// Delta over the IO component.
    pub io: MemoryLimitedQuadtree,
    /// Observations the delta holds (max over the two components — they
    /// only diverge when a guard quarantined one component but not the
    /// other).
    pub observations: u64,
}

/// Final accounting returned by [`ConcurrentEstimator::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-shard counters at shutdown, in name order.
    pub shards: Vec<(String, ShardCounters)>,
    /// Queue counters at shutdown.
    pub queue: QueueCounters,
    /// Full registry snapshot at shutdown — every `mlq_serve_*` metric
    /// (plus whatever else shares the registry).
    pub metrics: RegistrySnapshot,
}

impl ConcurrentEstimator {
    /// Shorthand for [`ConcurrentEstimatorBuilder::new`].
    #[must_use]
    pub fn builder(config: ServeConfig) -> ConcurrentEstimatorBuilder {
        ConcurrentEstimatorBuilder::new(config)
    }

    /// Health of the durability layer: [`DurabilityStatus::Disabled`]
    /// when the service was built without one.
    #[must_use]
    pub fn durability_status(&self) -> DurabilityStatus {
        self.durability.as_ref().map_or(DurabilityStatus::Disabled, |s| s.status())
    }

    /// The most recent persistence failure, if any — what tripped (or is
    /// about to trip) the durability circuit breaker.
    #[must_use]
    pub fn durability_error(&self) -> Option<String> {
        self.durability.as_ref().and_then(|s| s.error())
    }

    /// Highest sequence number of `name`'s feedback known durable: every
    /// observation up to it survives a crash. Always `0` without
    /// durability.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names.
    pub fn durable_seq(&self, name: &str) -> Result<u64, MlqError> {
        let idx = self.shard_index(name)?;
        Ok(self.durability.as_ref().map_or(0, |s| s.synced(idx)))
    }

    /// What startup recovery did, per shard. Empty without durability.
    #[must_use]
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Registered UDF names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.names.keys().map(String::as_str).collect()
    }

    fn shard_index(&self, name: &str) -> Result<usize, MlqError> {
        self.names.get(name).copied().ok_or_else(|| MlqError::InvalidConfig {
            reason: format!("no UDF named {name} is registered"),
        })
    }

    pub(crate) fn snapshot_at(&self, shard: usize) -> Arc<ShardSnapshot> {
        Arc::clone(&self.published[shard].read())
    }

    /// [`Self::snapshot_at`], waking the shard first if fleet arbitration
    /// hibernated it: the calling thread restores it under the maintainer
    /// lock. Callers must bump the shard's read counter *before* calling:
    /// the read count is the traffic signal that keeps the restored
    /// shard from being counted cold again next round. The two read
    /// entries below are the only callers.
    fn live_snapshot_at(&self, shard: usize) -> Arc<ShardSnapshot> {
        let snap = self.snapshot_at(shard);
        if !snap.is_hibernated() {
            return snap;
        }
        // After shutdown the core is gone, but `final_publish` already
        // restored every shard, so the published snapshot is live.
        if let Some(core) = self.core.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
            core.wake_one(shard, &self.published);
        }
        self.snapshot_at(shard)
    }

    /// Runs `f` on the live maintainer core under its lock.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] after shutdown; whatever `f` returns.
    fn with_core<T>(
        &self,
        op: &str,
        f: impl FnOnce(&mut MaintainerCore) -> Result<T, MlqError>,
    ) -> Result<T, MlqError> {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let core = guard.as_mut().ok_or_else(|| MlqError::InvalidConfig {
            reason: format!("{op}() requires a live service"),
        })?;
        f(core)
    }

    /// True when fleet arbitration currently has `name` hibernated.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names.
    pub fn is_hibernated(&self, name: &str) -> Result<bool, MlqError> {
        Ok(self.snapshot_at(self.shard_index(name)?).is_hibernated())
    }

    /// The most recent fleet arbitration round's report, or `None`
    /// before the first round.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] unless the service was built with a
    /// [`FleetConfig`] and is still live.
    pub fn last_arbitration(&self) -> Result<Option<FleetArbitration>, MlqError> {
        self.with_core("last_arbitration", |core| match &core.fleet {
            Some(fleet) => Ok(fleet.last.clone()),
            None => Err(MlqError::InvalidConfig {
                reason: "last_arbitration() requires a fleet budget at build time".into(),
            }),
        })
    }

    /// Exact summed accounted bytes of every live (non-hibernated)
    /// shard's models, read under the maintainer lock — the quantity the
    /// fleet budget constrains.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] after shutdown.
    pub fn fleet_live_bytes(&self) -> Result<usize, MlqError> {
        self.with_core("fleet_live_bytes", |core| Ok(core.live_bytes()))
    }

    /// The current published snapshot for `name`. Readers that predict
    /// many points in a row should fetch once and reuse the `Arc` — the
    /// snapshot stays internally consistent however long it is held.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names.
    pub fn snapshot(&self, name: &str) -> Result<Arc<ShardSnapshot>, MlqError> {
        Ok(self.snapshot_at(self.shard_index(name)?))
    }

    /// The one scalar shard read: counts the read, wakes the shard if it
    /// is hibernated, and predicts from its live snapshot. Service and
    /// handle reads both go through here.
    pub(crate) fn predict_at(&self, shard: usize, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.reads[shard].inc();
        self.live_snapshot_at(shard).predict(point)
    }

    /// The one batched shard read: [`Self::predict_at`] for every point,
    /// with one snapshot load and one counter update for the whole batch.
    pub(crate) fn predict_batch_into_at<P: AsRef<[f64]>>(
        &self,
        shard: usize,
        points: &[P],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        self.reads[shard].add(points.len() as u64);
        self.live_snapshot_at(shard).predict_batch_into(points, out)
    }

    /// Predicted combined cost for `name` at `point` from the current
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; propagates
    /// malformed-point errors.
    pub fn predict(&self, name: &str, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.predict_at(self.shard_index(name)?, point)
    }

    /// Predicted combined costs for `name` at every point in `points`,
    /// all answered from one consistent snapshot. The snapshot `Arc` is
    /// loaded and the read metrics updated once per batch rather than
    /// once per call, and the packed trees are walked while hot in cache
    /// — this is the fast path for ranking many candidate plans.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; fails on the first
    /// malformed point.
    pub fn predict_batch<P: AsRef<[f64]>>(
        &self,
        name: &str,
        points: &[P],
    ) -> Result<Vec<Option<f64>>, MlqError> {
        let mut out = Vec::with_capacity(points.len());
        self.predict_batch_into(name, points, &mut out)?;
        Ok(out)
    }

    /// [`Self::predict_batch`] into a caller-owned buffer (cleared first;
    /// left empty on error), so a driver issuing batch after batch reuses
    /// one output allocation per call site.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; fails on the first
    /// malformed point.
    pub fn predict_batch_into<P: AsRef<[f64]>>(
        &self,
        name: &str,
        points: &[P],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        self.predict_batch_into_at(self.shard_index(name)?, points, out)
    }

    pub(crate) fn observe_at(
        &self,
        shard: usize,
        point: &[f64],
        cost: ExecutionCost,
    ) -> Result<PushOutcome, MlqError> {
        self.queue.push(Feedback { shard, point: point.to_vec(), cost }, self.backpressure)
    }

    /// Offers an observed execution of `name` as feedback. Returns
    /// immediately (or blocks under [`BackpressurePolicy::Block`] while
    /// the queue is full); the maintainer applies it asynchronously.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names or after shutdown.
    pub fn observe(
        &self,
        name: &str,
        point: &[f64],
        cost: ExecutionCost,
    ) -> Result<PushOutcome, MlqError> {
        self.observe_at(self.shard_index(name)?, point, cost)
    }

    /// Counters snapshot for `name`: guard quarantines, breaker states,
    /// applied/error totals — everything the asynchronous feedback path
    /// would otherwise swallow.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names.
    pub fn counters(&self, name: &str) -> Result<ShardCounters, MlqError> {
        Ok(*self.snapshot(name)?.counters())
    }

    /// Queue accounting (drops, samples, blocks, peak depth).
    #[must_use]
    pub fn queue_counters(&self) -> QueueCounters {
        self.queue.counters()
    }

    /// The metrics registry this service records into.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time snapshot of every metric in the registry.
    #[must_use]
    pub fn metrics(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Current feedback lag: observations admitted and still waiting —
    /// queued or in flight, not yet applied and republished. Observations
    /// a lossy [`BackpressurePolicy`] evicted from the queue will never
    /// be applied, so they are not lag.
    #[must_use]
    pub fn feedback_lag(&self) -> u64 {
        // Read `processed` first, then the queue counters (`dropped_oldest`
        // before `enqueued`, see `QueueMetrics::view`): every term only
        // grows, so this order can only overstate the lag. The reverse
        // order raced with concurrent maintenance — an observation
        // admitted and applied between the reads underflowed.
        let processed = self.processed.get();
        let queue = self.queue.counters();
        queue.enqueued.saturating_sub(queue.dropped_oldest).saturating_sub(processed)
    }

    /// Runs one manual maintenance step: drains up to `max` queued
    /// observations, applies them, republishes touched shards, and runs
    /// one fleet arbitration round on the calling thread. Returns how
    /// many observations were applied (zero when the queue was empty).
    /// The service adds no bound of its own: `step(usize::MAX)` applies
    /// everything queued, at most [`ServeConfig::queue_capacity`].
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] unless the service was built with
    /// [`MaintainerMode::Manual`] (a second drainer next to the
    /// background thread would break FIFO apply order) and is still live.
    pub fn step(&self, max: usize) -> Result<usize, MlqError> {
        if self.mode != MaintainerMode::Manual {
            return Err(MlqError::InvalidConfig {
                reason: "step() requires MaintainerMode::Manual".into(),
            });
        }
        // The drain happens under the lock, so concurrent steppers apply
        // batches in queue order.
        self.with_core("step", |core| {
            let (batch, _finished) = self.queue.drain(max.max(1), Duration::ZERO);
            Ok(core.run(batch, &self.published))
        })
    }

    /// Extracts every shard's feedback delta — what this service absorbed
    /// since the previous extraction — leaving the trackers empty. The
    /// anti-entropy half-step a [`ReplicaGroup`](crate::ReplicaGroup)
    /// runs against each replica before folding deltas into its merge
    /// base.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] unless the service was built with
    /// [`ConcurrentEstimatorBuilder::with_delta_tracking`] and is still
    /// live.
    pub fn take_deltas(&self) -> Result<Vec<ShardDelta>, MlqError> {
        self.with_core("take_deltas", |core| {
            let mut out = Vec::with_capacity(core.shards.len());
            for shard in &mut core.shards {
                let trackers = shard.deltas.as_mut().ok_or_else(|| MlqError::InvalidConfig {
                    reason: "take_deltas() requires with_delta_tracking() at build time".into(),
                })?;
                let (cpu_delta, io_delta) = trackers.as_mut();
                let (cpu, cpu_n) = cpu_delta.take()?;
                let (io, io_n) = io_delta.take()?;
                out.push(ShardDelta {
                    name: shard.name.clone(),
                    cpu,
                    io,
                    observations: cpu_n.max(io_n),
                });
            }
            Ok(out)
        })
    }

    /// Installs externally merged models as each named shard's new live
    /// state and republishes its snapshot — the anti-entropy half-step
    /// that brings a replica up to the group's merged view.
    ///
    /// Any feedback this service absorbed *after* the extraction the
    /// merge was computed from (the pending delta) is folded into the
    /// incoming models first, so local observations are never lost or
    /// temporarily un-learned; they simply stay pending until the next
    /// extraction ships them to peers.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown shard names or unless the
    /// service was built with
    /// [`ConcurrentEstimatorBuilder::with_delta_tracking`] and is still
    /// live; propagates merge errors (mismatched spaces).
    pub fn install_models(
        &self,
        models: Vec<(String, MemoryLimitedQuadtree, MemoryLimitedQuadtree)>,
    ) -> Result<(), MlqError> {
        self.with_core("install_models", |core| {
            let untracked = || MlqError::InvalidConfig {
                reason: "install_models() requires with_delta_tracking() at build time".into(),
            };
            if core.shards.iter().any(|shard| shard.deltas.is_none()) {
                return Err(untracked());
            }
            for (name, mut cpu, mut io) in models {
                let idx = self.shard_index(&name)?;
                let shard = &mut core.shards[idx];
                let (cpu_delta, io_delta) = &**shard.deltas.as_ref().ok_or_else(untracked)?;
                if !cpu_delta.is_empty() {
                    cpu.merge_from(cpu_delta.tree())?;
                }
                if !io_delta.is_empty() {
                    io.merge_from(io_delta.tree())?;
                }
                shard.replace_models(cpu, io);
                // The merged models supersede whatever was spilled at
                // hibernation time; dropping the envelopes also makes the
                // published snapshot live again.
                shard.hibernated = None;
                core.publish(idx, &self.published);
            }
            Ok(())
        })
    }

    /// Blocks until every observation admitted *before this call* has
    /// been applied and republished. Under [`MaintainerMode::Manual`] the
    /// calling thread performs the maintenance itself.
    ///
    /// Observations a lossy [`BackpressurePolicy`] evicted from the queue
    /// count as settled: they were admitted but will never be applied.
    pub fn flush(&self) {
        let target = self.queue.counters().enqueued;
        let settled = || self.processed.get() + self.queue.counters().dropped_oldest >= target;
        while !settled() {
            // Under Background (or once a Manual service has shut down)
            // someone else applies: sleep until they report progress.
            let stepped = self.mode == MaintainerMode::Manual && self.step(usize::MAX).is_ok();
            if !stepped {
                self.processed.wait_unless(settled);
            }
        }
    }

    /// Stops the service: refuses new feedback, joins any maintainer
    /// thread, flushes everything queued into the models, and republishes
    /// final snapshots. Idempotent; later calls return `None`.
    pub fn shutdown(&self) -> Option<ServeReport> {
        let mut thread_slot = self.maintainer_thread.lock().unwrap_or_else(PoisonError::into_inner);
        self.queue.close();
        // A panicked maintainer already surfaced its panic; the drain
        // below still flushes what it left queued.
        if let Some(handle) = thread_slot.take() {
            let _ = handle.join();
        }
        // The final drain and publication run under the core lock, so a
        // reader waking a shard meanwhile waits for the live snapshot.
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let core = guard.as_mut()?;
        let (batch, _finished) = self.queue.drain(usize::MAX, Duration::ZERO);
        core.apply_batch(batch, &self.published);
        core.final_publish(&self.published);
        *guard = None;
        Some(ServeReport {
            shards: self
                .names
                .iter()
                .map(|(name, &idx)| (name.clone(), *self.snapshot_at(idx).counters()))
                .collect(),
            queue: self.queue.counters(),
            metrics: self.registry.snapshot(),
        })
    }
}

impl Drop for ConcurrentEstimator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ConcurrentEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentEstimator")
            .field("shards", &self.names.len())
            .field("feedback_lag", &self.feedback_lag())
            .finish_non_exhaustive()
    }
}
