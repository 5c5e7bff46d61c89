//! The concurrent sharded estimator service.
//!
//! One [`ConcurrentEstimator`] serves cost estimates for every registered
//! UDF. Internally it is sharded per UDF — the same keying as the
//! optimizer's [`UdfCatalog`] — and split across two worlds:
//!
//! * **Readers** (any number of threads) fetch the shard's published
//!   [`ShardSnapshot`] — an `Arc` clone under a briefly held
//!   `parking_lot::RwLock` read guard — and predict against the immutable
//!   snapshot. No reader ever touches a live model.
//! * **The maintainer** (one background thread) owns the live
//!   [`GuardedModel`]s. Feedback arrives through a bounded MPSC queue
//!   ([`FeedbackQueue`]), is applied in batches (`observe`, including any
//!   compression the insert triggers — all off the read path), and every
//!   touched shard is refrozen and republished.
//!
//! Shutdown closes the queue (new feedback is refused), flushes every
//! queued observation into the models, republishes final snapshots, and
//! joins the maintainer — nothing admitted is ever dropped by shutdown.

use crate::queue::{
    BackpressurePolicy, Feedback, FeedbackQueue, PushOutcome, QueueCounters, QueueMetrics,
};
use crate::recovery::{
    prune_generations, recover_dir, wal_path, write_checkpoint, RecoveryReport, RestoreKind,
    ShardRecovery,
};
use crate::snapshot::{ComponentSnapshot, ShardCounters, ShardSnapshot};
use crate::wal::{
    shard_stem, DurabilityConfig, DurabilityIo, DurabilityShared, DurabilityStatus, WalError,
    WalRecord, WalWriter,
};
use mlq_core::{
    evict_to_global_budget, CostModel, DeltaTracker, FleetModel, FrozenTree, GuardConfig,
    GuardState, GuardedModel, MemoryLimitedQuadtree, MlqError, Space, TreeSnapshot, NODE_BYTES,
};
use mlq_obs::{labeled, Counter, Gauge, Histogram, Registry, RegistrySnapshot, TraceRing};
use mlq_optimizer::{catalog_models, UdfCatalog};
use mlq_udfs::ExecutionCost;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Who drives the drain → apply → republish loop.
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
    /// Bound of the feedback queue, in observations.
    pub queue_capacity: usize,
    /// Most observations the maintainer applies before republishing.
    pub batch_max: usize,
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
            batch_max: 64,
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
        if self.queue_capacity == 0 || self.batch_max == 0 {
            return Err(MlqError::InvalidConfig {
                reason: "queue_capacity and batch_max must be nonzero".into(),
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

/// Cached registry handles mirroring one live model's cumulative
/// [`ModelCounters`](mlq_core::ModelCounters) (series
/// `mlq_core_*{udf=...,component=...}`). Handles are resolved once at
/// shard construction so the per-publish export is pure atomic stores.
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
        }
    }

    fn export(&self, c: &mlq_core::ModelCounters) {
        self.predictions.record_total(c.predictions);
        self.predict_nanos.record_total(c.predict_nanos);
        self.predict_nodes_visited.record_total(c.predict_nodes_visited);
        self.insertions.record_total(c.insertions);
        self.insert_nanos.record_total(c.insert_nanos);
        self.compressions.record_total(c.compressions);
        self.compress_nanos.record_total(c.compress_nanos);
        self.sseg_evictions.record_total(c.sseg_evictions);
        self.lazy_skips.record_total(c.lazy_skips);
        self.freezes.record_total(c.freezes);
        self.freeze_nanos.record_total(c.freeze_nanos);
    }
}

/// A hibernated shard's spilled state: both components as CRC-checked
/// snapshot envelopes plus the guard states at hibernation time. While
/// this exists the shard's live `GuardedModel`s hold empty stand-in
/// trees; a wake restores from here bit-identically.
struct HibernatedShard {
    cpu_env: Vec<u8>,
    io_env: Vec<u8>,
    cpu_guard: GuardState,
    io_guard: GuardState,
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
    /// `Some` while this shard is hibernated by fleet arbitration.
    hibernated: Option<Box<HibernatedShard>>,
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
        self.cpu_obs.export(&self.cpu.inner().counters());
        self.io_obs.export(&self.io.inner().counters());
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
    wal: WalWriter,
    /// Newest published checkpoint generation.
    generation: u64,
    appended: Counter,
    synced_gauge: Gauge,
    checkpoints: Counter,
}

/// The maintainer's durability engine: journals every drained batch
/// before it is applied, group-commits once per touched shard per batch,
/// checkpoints on a batch cadence, and trips a circuit breaker into
/// in-memory-only serving when persistence keeps failing.
struct DurabilityCore {
    dir: PathBuf,
    checkpoint_every: u64,
    degrade_after: u32,
    io: DurabilityIo,
    shards: Vec<ShardDurability>,
    shared: Arc<DurabilityShared>,
    commits: Counter,
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

    /// Journals one drained batch and group-commits every shard with
    /// pending frames — one write and one fsync per touched shard, no
    /// matter how many observations the batch held. Runs *before* the
    /// records are applied to the models.
    fn journal(&mut self, batch: &[Feedback]) {
        if !self.active() {
            return;
        }
        for fb in batch {
            if let Some(sd) = self.shards.get_mut(fb.shard) {
                sd.wal.append(&fb.point, fb.cost);
                sd.appended.inc();
            }
        }
        for idx in 0..self.shards.len() {
            if !self.active() {
                return;
            }
            if self.shards[idx].wal.has_pending() {
                self.commit_shard(idx);
            }
        }
    }

    fn commit_shard(&mut self, idx: usize) {
        let outcome = self.shards[idx].wal.commit(&mut self.io);
        self.commit_retries.add(self.io.take_retries());
        match outcome {
            Ok(()) => {
                self.commits.inc();
                self.failure_streak = 0;
                let seq = self.shards[idx].wal.synced_seq();
                self.shared.set_synced(idx, seq);
                self.shards[idx].synced_gauge.set(seq as f64);
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

    fn checkpoint_all(&mut self, shards: &[ShardModels]) {
        for (idx, shard) in shards.iter().enumerate().take(self.shards.len()) {
            if !self.active() {
                return;
            }
            self.checkpoint_shard(idx, shard);
        }
    }

    /// Establishes the recovery baseline at build time: a fresh
    /// checkpoint per shard followed by journal truncation. The on-disk
    /// journal stays untouched until the checkpoint covering it has
    /// published, so a crash mid-startup still recovers from the old
    /// state. A shard that cannot establish its baseline makes journaling
    /// unsafe, so any startup failure degrades the layer immediately
    /// rather than waiting for the runtime streak.
    fn startup(&mut self, shards: &[ShardModels]) {
        self.checkpoint_all(shards);
        if self.failure_streak > 0 && self.shared.status() == DurabilityStatus::Active {
            self.degrade();
        }
    }

    fn checkpoint_shard(&mut self, idx: usize, shard: &ShardModels) {
        // A hibernated shard's live trees are empty stand-ins; its real
        // state is the spilled envelopes. Checkpointing the stand-in
        // would clobber the durable baseline with an empty model, and
        // the shard cannot have unjournaled feedback (feedback wakes it
        // before applying), so skipping is safe.
        if shard.hibernated.is_some() {
            return;
        }
        // Anything still buffered must become durable first: a checkpoint
        // must never claim a sequence number the journal could not.
        if self.shards[idx].wal.has_pending() {
            self.commit_shard(idx);
        }
        if !self.active() {
            return;
        }
        let wal = &self.shards[idx].wal;
        if wal.synced_seq() != wal.appended_seq() {
            return;
        }
        let seq = wal.synced_seq();
        let generation = self.shards[idx].generation + 1;
        let outcome = write_checkpoint(
            &mut self.io,
            &self.dir,
            &shard.name,
            generation,
            seq,
            shard.cpu.inner(),
            shard.io.inner(),
            &shard.cpu.export_state(),
            &shard.io.export_state(),
        );
        self.commit_retries.add(self.io.take_retries());
        match outcome {
            Ok(()) => {
                self.shards[idx].generation = generation;
                self.shards[idx].checkpoints.inc();
                self.failure_streak = 0;
                match self.shards[idx].wal.truncate(&mut self.io) {
                    Ok(()) => prune_generations(&self.dir, &shard.name, generation),
                    Err(WalError::Crashed) => self.crash(),
                    Err(WalError::Io(err)) => self.note_failure(err),
                }
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
    /// Reader-side wake requests (set by a predict call that hit a
    /// hibernated stand-in under [`MaintainerMode::Background`]);
    /// serviced at the start of every arbitration round.
    wake: Arc<Vec<AtomicBool>>,
    round: u64,
    last: Option<FleetArbitration>,
    obs: FleetObs,
}

/// Everything one drain → apply → republish step needs. Owned by the
/// background thread under [`MaintainerMode::Background`], or parked
/// inside the estimator and driven by [`ConcurrentEstimator::step`] under
/// [`MaintainerMode::Manual`].
struct MaintainerCore {
    shards: Vec<ShardModels>,
    touched: Vec<bool>,
    last_publish: Vec<Instant>,
    io_weight: f64,
    batch_max: usize,
    processed: Arc<AtomicU64>,
    obs: MaintainerObs,
    trace: Option<Arc<TraceRing>>,
    durability: Option<DurabilityCore>,
    fleet: Option<FleetCore>,
}

impl MaintainerCore {
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
        let trace = self.trace.clone();
        let _span = trace.as_ref().map(|ring| ring.span("serve.apply_batch"));
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
        // its effect is visible to readers (the flush contract).
        let total = self.processed.fetch_add(n as u64, Ordering::Release) + n as u64;
        self.obs.processed_total.record_total(total);
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
        shard.hibernated = Some(Box::new(HibernatedShard {
            cpu_env: shard.cpu.inner().snapshot().to_envelope(),
            io_env: shard.io.inner().snapshot().to_envelope(),
            cpu_guard: shard.cpu.export_state(),
            io_guard: shard.io.export_state(),
        }));
        *shard.cpu.inner_mut() = cpu_stub;
        *shard.io.inner_mut() = io_stub;
        // The stand-ins carry fresh tree identities: the previous frozen
        // snapshots can never be patched against them.
        shard.prev_cpu = None;
        shard.prev_io = None;
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
                *shard.cpu.inner_mut() = cpu;
                *shard.io.inner_mut() = io;
                shard.cpu.import_state(h.cpu_guard);
                shard.io.import_state(h.io_guard);
                shard.prev_cpu = None;
                shard.prev_io = None;
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

    /// One fleet arbitration round (no-op without a fleet budget): wake
    /// requests, a single traffic snapshot, cold-shard hibernation, and
    /// — if the live models exceed the global budget — one cross-model
    /// traffic-weighted eviction pass. Runs on the maintainer thread
    /// after every applied batch, so eviction and hibernation stay off
    /// the read path.
    fn arbitrate(&mut self, published: &[RwLock<Arc<ShardSnapshot>>]) {
        let Some(mut fleet) = self.fleet.take() else { return };
        fleet.round += 1;
        // Reader wake requests first, so a woken shard's pending reads
        // count as this round's traffic below.
        for idx in 0..self.shards.len() {
            if fleet.wake[idx].swap(false, Ordering::AcqRel) {
                self.restore_shard(idx, published, &mut fleet);
            }
        }
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

/// Incrementally registers UDF shards, then spawns the service.
pub struct ConcurrentEstimatorBuilder {
    config: ServeConfig,
    models: Vec<(String, MemoryLimitedQuadtree, MemoryLimitedQuadtree)>,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceRing>>,
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
            trace: None,
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
    /// embedding application (or the bench harness) aggregate serving
    /// metrics with its own in a single exposition.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Traces maintainer batches (span `serve.apply_batch`) into `ring`.
    #[must_use]
    pub fn with_trace_ring(mut self, ring: Arc<TraceRing>) -> Self {
        self.trace = Some(ring);
        self
    }

    /// Enables per-shard delta tracking for replication: every absorbed
    /// observation is also recorded into a shadow
    /// [`DeltaTracker`] (per component, each with
    /// `delta_budget` bytes), so an anti-entropy round can extract what
    /// this service learned since the last sync via
    /// [`ConcurrentEstimator::take_deltas`] and install merged models via
    /// [`ConcurrentEstimator::install_models`]. Both require
    /// [`MaintainerMode::Manual`].
    ///
    /// Observations replayed from a durability directory at build time
    /// are *not* recorded — a recovered replica's pre-crash state counts
    /// as already synced (see DESIGN.md §12 for the trade-off).
    #[must_use]
    pub fn with_delta_tracking(mut self, delta_budget: usize) -> Self {
        self.delta_budget = Some(delta_budget);
        self
    }

    /// Registers a fresh UDF shard over `space`, using the catalog's model
    /// recipe (`β = 1` CPU, `β = 10` IO, lazy insertion).
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for duplicate names; propagates model
    /// construction failures.
    pub fn register(self, name: &str, space: &Space) -> Result<Self, MlqError> {
        let (cpu, io) = catalog_models(space, self.config.budget_per_model)?;
        self.register_models(name, cpu, io)
    }

    /// Registers a UDF shard seeded with already-learned models (e.g.
    /// handed over from a [`UdfCatalog`]).
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for duplicate names.
    pub fn register_models(
        mut self,
        name: &str,
        cpu: MemoryLimitedQuadtree,
        io: MemoryLimitedQuadtree,
    ) -> Result<Self, MlqError> {
        if self.models.iter().any(|(n, _, _)| n == name) {
            return Err(MlqError::InvalidConfig {
                reason: format!("UDF {name} is already registered"),
            });
        }
        self.models.push((name.to_string(), cpu, io));
        Ok(self)
    }

    /// Wraps every model in its guard, publishes initial snapshots, and
    /// spawns the maintainer thread.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when nothing is registered or the
    /// configuration is nonsensical.
    pub fn build(self) -> Result<ConcurrentEstimator, MlqError> {
        let ConcurrentEstimatorBuilder {
            config,
            models,
            registry,
            trace,
            durability,
            delta_budget,
        } = self;
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
        if let Some(dconfig) = &durability {
            std::fs::create_dir_all(&dconfig.dir).map_err(|e| MlqError::IoFault {
                reason: format!("durability dir create {}: {e}", dconfig.dir.display()),
            })?;
            dur_io = Some(DurabilityIo::new(dconfig)?);
            let recovered = recover_dir(&dconfig.dir)?;
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
        // Shards are ordered by name, like the catalog.
        pending.sort_by(|a, b| a.name.cmp(&b.name));

        let mut shards = Vec::with_capacity(pending.len());
        let mut names = BTreeMap::new();
        let mut reads = Vec::with_capacity(pending.len());
        let mut dur_shards = Vec::new();
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
            if let Some(dconfig) = &durability {
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
                dur_shards.push(ShardDurability {
                    wal: WalWriter::open_preserving(
                        wal_path(&dconfig.dir, &p.name),
                        p.recovered_seq,
                    )?,
                    generation: p.generation,
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
                let mut core = DurabilityCore {
                    dir: dconfig.dir,
                    checkpoint_every: dconfig.checkpoint_every,
                    degrade_after: dconfig.degrade_after,
                    io,
                    shards: dur_shards,
                    shared: core_shared,
                    commits: registry.counter("mlq_serve_wal_commits"),
                    commit_retries: registry.counter("mlq_serve_wal_commit_retries"),
                    checkpoint_failures: registry.counter("mlq_serve_checkpoint_failures"),
                    degraded_gauge,
                    failure_streak: 0,
                    batches_since_checkpoint: 0,
                };
                for (idx, sd) in core.shards.iter().enumerate() {
                    core.shared.set_synced(idx, sd.wal.synced_seq());
                    sd.synced_gauge.set(sd.wal.synced_seq() as f64);
                }
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
        let processed = Arc::new(AtomicU64::new(0));

        let shard_count = shards.len();
        let wake: Option<Arc<Vec<AtomicBool>>> = config
            .fleet
            .map(|_| Arc::new((0..shard_count).map(|_| AtomicBool::new(false)).collect()));
        let fleet_core = config.fleet.map(|fleet| FleetCore {
            config: fleet,
            reads: reads.clone(),
            last_reads: vec![0; shard_count],
            cold_rounds: vec![0; shard_count],
            wake: Arc::clone(wake.as_ref().expect("wake flags exist whenever fleet does")),
            round: 0,
            last: None,
            obs: FleetObs::new(&registry, fleet.global_budget),
        });
        let mut core = MaintainerCore {
            shards,
            touched: vec![false; shard_count],
            last_publish: vec![Instant::now(); shard_count],
            io_weight: config.io_weight,
            batch_max: config.batch_max,
            processed: Arc::clone(&processed),
            obs: MaintainerObs::new(&registry),
            trace,
            durability: durability_core,
            fleet: fleet_core,
        };
        // The initial publications above bypass `core.publish`, so
        // `mlq_serve_publishes` counts only feedback-driven republications.

        let state = match config.maintainer {
            MaintainerMode::Background => {
                let queue = Arc::clone(&queue);
                let published = Arc::clone(&published);
                let handle = thread::Builder::new()
                    .name("mlq-serve-maintainer".into())
                    .spawn(move || {
                        loop {
                            let (batch, finished) =
                                queue.drain(core.batch_max, Duration::from_millis(20));
                            if finished {
                                break;
                            }
                            core.apply_batch(batch, &published);
                            // Arbitration runs every loop iteration, not
                            // just after non-empty batches: idle rounds
                            // must tick so cold streaks accumulate and
                            // reader wake requests are serviced promptly
                            // (each within one ≤20 ms drain timeout).
                            core.arbitrate(&published);
                        }
                        core.final_publish(&published);
                    })
                    .map_err(|e| MlqError::IoFault {
                        reason: format!("spawning maintainer thread: {e}"),
                    })?;
                MaintainerState::Background(handle)
            }
            MaintainerMode::Manual => MaintainerState::Manual(Box::new(core)),
        };

        Ok(ConcurrentEstimator {
            names,
            published,
            reads,
            queue,
            processed,
            backpressure: config.backpressure,
            registry,
            maintainer: Mutex::new(Some(state)),
            durability: shared,
            recovery: report,
            wake,
        })
    }
}

/// Where maintenance runs for a live service.
enum MaintainerState {
    Background(JoinHandle<()>),
    Manual(Box<MaintainerCore>),
}

/// A sharded, concurrently readable estimator service over every
/// registered UDF. See the [module documentation](self).
pub struct ConcurrentEstimator {
    names: BTreeMap<String, usize>,
    published: Arc<Vec<RwLock<Arc<ShardSnapshot>>>>,
    /// Per-shard `mlq_serve_reads{udf=...}` counters: predictions served
    /// from published snapshots. Bumped once per call on the single-point
    /// path and once per *batch* on the batched path.
    reads: Vec<Counter>,
    queue: Arc<FeedbackQueue>,
    /// Observations fully applied and republished by the maintainer.
    processed: Arc<AtomicU64>,
    backpressure: BackpressurePolicy,
    registry: Arc<Registry>,
    maintainer: Mutex<Option<MaintainerState>>,
    /// Shared durability state (`None` when built without durability).
    durability: Option<Arc<DurabilityShared>>,
    /// What startup recovery did, per shard (empty without durability).
    recovery: RecoveryReport,
    /// Per-shard wake flags (`None` without a fleet budget): a reader
    /// hitting a hibernated stand-in sets its shard's flag and the
    /// maintainer restores the shard on its next arbitration round.
    wake: Option<Arc<Vec<AtomicBool>>>,
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

    /// Builds the service from an optimizer catalog, taking ownership of
    /// its learned per-UDF models — the serving layer's shards are keyed
    /// exactly like the catalog.
    ///
    /// # Errors
    ///
    /// Propagates builder errors (e.g. an empty catalog).
    pub fn from_catalog(catalog: UdfCatalog, config: ServeConfig) -> Result<Self, MlqError> {
        let mut builder = ConcurrentEstimatorBuilder::new(config);
        for (name, cpu, io) in catalog.into_models() {
            builder = builder.register_models(&name, cpu, io)?;
        }
        builder.build()
    }

    /// Builds a service by recovering everything a durability directory
    /// holds: per shard, the newest valid checkpoint plus the journal
    /// tail replayed on top. Shorthand for
    /// `builder(config).with_durability(dir).build()`; use the builder
    /// form to also register shards the directory does not know yet.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when the directory yields no shard
    /// (nothing was ever checkpointed there); propagates I/O errors
    /// listing the directory. Corrupt content is not an error — it
    /// surfaces in the [`recovery_report`](Self::recovery_report).
    pub fn recover(dir: impl Into<PathBuf>, config: ServeConfig) -> Result<Self, MlqError> {
        Self::builder(config).with_durability(dir).build()
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
    /// hibernated it. Callers must bump the shard's read counter *before*
    /// calling: the wake itself is the traffic signal that keeps the
    /// restored shard from being counted cold again next round.
    fn live_snapshot_at(&self, shard: usize) -> Arc<ShardSnapshot> {
        let snap = self.snapshot_at(shard);
        if self.wake.is_none() || !snap.is_hibernated() {
            return snap;
        }
        self.wake_shard(shard);
        self.snapshot_at(shard)
    }

    /// Blocks until `shard` is restored from hibernation. Under
    /// [`MaintainerMode::Manual`] the calling thread restores it inline;
    /// under [`MaintainerMode::Background`] it raises the shard's wake
    /// flag and waits for the maintainer (which services flags at least
    /// once per ≤20 ms drain timeout) to republish a live snapshot.
    fn wake_shard(&self, shard: usize) {
        loop {
            {
                let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
                match guard.as_mut() {
                    Some(MaintainerState::Manual(core)) => {
                        core.wake_one(shard, &self.published);
                        return;
                    }
                    Some(MaintainerState::Background(_)) => {
                        if let Some(wake) = &self.wake {
                            wake[shard].store(true, Ordering::Release);
                        }
                    }
                    // Shut down: final_publish already restored every
                    // shard, so the published snapshot is live.
                    None => return,
                }
            }
            if !self.snapshot_at(shard).is_hibernated() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
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
    /// [`MlqError::InvalidConfig`] unless the service was built with
    /// [`MaintainerMode::Manual`] and a [`FleetConfig`], and is still
    /// live.
    pub fn last_arbitration(&self) -> Result<Option<FleetArbitration>, MlqError> {
        let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(MaintainerState::Manual(core)) => match &core.fleet {
                Some(fleet) => Ok(fleet.last.clone()),
                None => Err(MlqError::InvalidConfig {
                    reason: "last_arbitration() requires a fleet budget at build time".into(),
                }),
            },
            _ => Err(MlqError::InvalidConfig {
                reason: "last_arbitration() requires MaintainerMode::Manual on a live service"
                    .into(),
            }),
        }
    }

    /// Exact summed accounted bytes of every live (non-hibernated)
    /// shard's models, read under the maintainer lock — the quantity the
    /// fleet budget constrains.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] unless the service was built with
    /// [`MaintainerMode::Manual`] and is still live.
    pub fn fleet_live_bytes(&self) -> Result<usize, MlqError> {
        let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(MaintainerState::Manual(core)) => Ok(core.live_bytes()),
            _ => Err(MlqError::InvalidConfig {
                reason: "fleet_live_bytes() requires MaintainerMode::Manual on a live service"
                    .into(),
            }),
        }
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

    /// Predicted combined cost for `name` at `point` from the current
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names; propagates
    /// malformed-point errors.
    pub fn predict(&self, name: &str, point: &[f64]) -> Result<Option<f64>, MlqError> {
        let shard = self.shard_index(name)?;
        self.reads[shard].inc();
        self.live_snapshot_at(shard).predict(point)
    }

    pub(crate) fn predict_batch_at<P: AsRef<[f64]>>(
        &self,
        shard: usize,
        points: &[P],
    ) -> Result<Vec<Option<f64>>, MlqError> {
        // One Arc load and one metrics update cover the whole batch —
        // the per-call overhead the single-point path pays per prediction.
        self.reads[shard].add(points.len() as u64);
        self.live_snapshot_at(shard).predict_batch(points)
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
        self.predict_batch_at(self.shard_index(name)?, points)
    }

    pub(crate) fn predict_batch_into_at<P: AsRef<[f64]>>(
        &self,
        shard: usize,
        points: &[P],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        self.reads[shard].add(points.len() as u64);
        self.live_snapshot_at(shard).predict_batch_into(points, out)
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
        let processed = self.processed.load(Ordering::Acquire);
        let queue = self.queue.counters();
        queue.enqueued.saturating_sub(queue.dropped_oldest).saturating_sub(processed)
    }

    /// Runs one manual maintenance step: drains up to `max` queued
    /// observations, applies them, and republishes touched shards on the
    /// calling thread. Returns how many observations were applied (zero
    /// when the queue was empty).
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] unless the service was built with
    /// [`MaintainerMode::Manual`] and is still live.
    pub fn step(&self, max: usize) -> Result<usize, MlqError> {
        let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(MaintainerState::Manual(core)) => {
                let (batch, _finished) = self.queue.drain(max.max(1), Duration::ZERO);
                let n = core.apply_batch(batch, &self.published);
                // One arbitration round per step, batch or not — manual
                // mode's deterministic mirror of the background loop.
                core.arbitrate(&self.published);
                Ok(n)
            }
            _ => Err(MlqError::InvalidConfig {
                reason: "step() requires MaintainerMode::Manual on a live service".into(),
            }),
        }
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
    /// [`MaintainerMode::Manual`] *and*
    /// [`ConcurrentEstimatorBuilder::with_delta_tracking`], and is still
    /// live.
    pub fn take_deltas(&self) -> Result<Vec<ShardDelta>, MlqError> {
        let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(MaintainerState::Manual(core)) = guard.as_mut() else {
            return Err(MlqError::InvalidConfig {
                reason: "take_deltas() requires MaintainerMode::Manual on a live service".into(),
            });
        };
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
    /// service was built with [`MaintainerMode::Manual`] and
    /// [`ConcurrentEstimatorBuilder::with_delta_tracking`]; propagates
    /// merge errors (mismatched spaces).
    pub fn install_models(
        &self,
        models: Vec<(String, MemoryLimitedQuadtree, MemoryLimitedQuadtree)>,
    ) -> Result<(), MlqError> {
        let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(MaintainerState::Manual(core)) = guard.as_mut() else {
            return Err(MlqError::InvalidConfig {
                reason: "install_models() requires MaintainerMode::Manual on a live service".into(),
            });
        };
        if core.shards.iter().any(|shard| shard.deltas.is_none()) {
            return Err(MlqError::InvalidConfig {
                reason: "install_models() requires with_delta_tracking() at build time".into(),
            });
        }
        for (name, mut cpu, mut io) in models {
            let idx = *self.names.get(&name).ok_or_else(|| MlqError::InvalidConfig {
                reason: format!("no UDF named {name} is registered"),
            })?;
            {
                let shard = &mut core.shards[idx];
                let trackers = shard.deltas.as_ref().ok_or_else(|| MlqError::InvalidConfig {
                    reason: "install_models() requires with_delta_tracking() at build time".into(),
                })?;
                let (cpu_delta, io_delta) = &**trackers;
                if !cpu_delta.is_empty() {
                    cpu.merge_from(cpu_delta.tree())?;
                }
                if !io_delta.is_empty() {
                    io.merge_from(io_delta.tree())?;
                }
                *shard.cpu.inner_mut() = cpu;
                *shard.io.inner_mut() = io;
                // Fresh trees carry fresh identities, so the previous
                // frozen snapshots can never be patched against them;
                // drop them so the next publication freezes from scratch.
                shard.prev_cpu = None;
                shard.prev_io = None;
                // The merged models supersede whatever was spilled at
                // hibernation time; dropping the envelopes also makes
                // the published snapshot live again.
                shard.hibernated = None;
            }
            core.publish(idx, &self.published);
        }
        Ok(())
    }

    /// Blocks until every observation admitted *before this call* has
    /// been applied and republished. Under [`MaintainerMode::Manual`] the
    /// calling thread performs the maintenance itself.
    ///
    /// Observations a lossy [`BackpressurePolicy`] evicted from the queue
    /// count as settled: they were admitted but will never be applied.
    pub fn flush(&self) {
        let target = self.queue.counters().enqueued;
        let settled =
            || self.processed.load(Ordering::Acquire) + self.queue.counters().dropped_oldest;
        while settled() < target {
            if self.step(usize::MAX).is_err() {
                thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Stops the service: refuses new feedback, flushes everything queued
    /// into the models, republishes final snapshots, and joins the
    /// maintainer. Idempotent; later calls return `None`.
    pub fn shutdown(&self) -> Option<ServeReport> {
        let state = {
            let mut guard = self.maintainer.lock().unwrap_or_else(PoisonError::into_inner);
            guard.take()?
        };
        self.queue.close();
        match state {
            // A panicked maintainer already surfaced its panic; the report
            // below still reflects the last published snapshots.
            MaintainerState::Background(handle) => {
                let _ = handle.join();
            }
            MaintainerState::Manual(mut core) => {
                loop {
                    let (batch, finished) = self.queue.drain(core.batch_max, Duration::ZERO);
                    if finished {
                        break;
                    }
                    core.apply_batch(batch, &self.published);
                }
                core.final_publish(&self.published);
            }
        }
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
