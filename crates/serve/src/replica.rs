//! The replicated estimator tier: N independent writer replicas kept
//! convergent by periodic anti-entropy merges.
//!
//! Each replica is a full [`ConcurrentEstimator`] — its own shards,
//! guards, feedback queue, and (optionally) write-ahead journal — that
//! absorbs only the feedback stream routed to it. Because the tree's
//! summary statistics are plain sums, replicas fed disjoint stream
//! partitions merge *exactly*: an anti-entropy round
//!
//! 1. extracts every replica's per-shard delta (what it absorbed since
//!    the last round, recorded by a [`DeltaTracker`](mlq_core::DeltaTracker)
//!    tee alongside the guarded models),
//! 2. folds the deltas into the group's per-shard **merge base** via
//!    [`MemoryLimitedQuadtree::merge_from`] (re-compressing if the union
//!    exceeds the base's budget),
//! 3. ships the merged base back to every replica through the CRC-32
//!    snapshot envelope — byte-for-byte the same frames a cross-process
//!    transport would carry, and a value-exact round trip — and installs
//!    it, folding each replica's still-pending local delta on top so
//!    nothing it learned meanwhile is ever un-learned,
//! 4. republishes each replica's read snapshots through the usual
//!    `RwLock<Arc<_>>` pointer swap.
//!
//! After a round with no concurrent writes, every replica's models are
//! identical to a single estimator fed the union stream (bit-identical
//! while nothing compressed — the merge-equivalence invariant CI sweeps
//! across 25 seeds).
//!
//! Replicas run under the group's own `serve.maintainer`. Under
//! [`MaintainerMode::Background`] each replica's maintainer thread
//! drains its queue and the group adds one scheduler thread running the
//! rounds, so the whole tier needs no external pumping. Under
//! [`MaintainerMode::Manual`] nothing runs between calls: the embedding
//! code drives replicas via [`ReplicaGroup::pump`] and rounds via
//! [`ReplicaGroup::sync`], which is what the merge-equivalence harness
//! builds on.

use crate::estimator::{shard_models, MaintainerMode, ServeConfig, ServeReport};
use crate::wal::DurabilityConfig;
use crate::ConcurrentEstimator;
use mlq_core::{MemoryLimitedQuadtree, MlqError, Space, TreeSnapshot};
use mlq_obs::{labeled, Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning of a [`ReplicaGroup`].
#[derive(Debug, Clone)]
pub struct ReplicaGroupConfig {
    /// Number of writer replicas.
    pub replicas: usize,
    /// Per-replica serving configuration. Its `maintainer` mode also
    /// decides whether the group runs an anti-entropy scheduler thread.
    pub serve: ServeConfig,
    /// Byte budget of each shadow delta tree (per shard, per component).
    pub delta_budget: usize,
    /// Anti-entropy cadence under [`MaintainerMode::Background`].
    pub sync_interval: Duration,
}

impl Default for ReplicaGroupConfig {
    fn default() -> Self {
        ReplicaGroupConfig {
            replicas: 2,
            serve: ServeConfig::default(),
            delta_budget: 1 << 16,
            sync_interval: Duration::from_millis(200),
        }
    }
}

impl ReplicaGroupConfig {
    fn validate(&self) -> Result<(), MlqError> {
        if self.replicas == 0 {
            return Err(MlqError::InvalidConfig {
                reason: "a replica group needs at least one replica".into(),
            });
        }
        if self.serve.maintainer == MaintainerMode::Background && self.sync_interval.is_zero() {
            return Err(MlqError::InvalidConfig {
                reason: "sync_interval must be nonzero under MaintainerMode::Background".into(),
            });
        }
        Ok(())
    }
}

/// Incrementally registers shards, then spawns the replica group.
pub struct ReplicaGroupBuilder {
    config: ReplicaGroupConfig,
    spaces: Vec<(String, Space)>,
    durability: BTreeMap<usize, DurabilityConfig>,
}

impl ReplicaGroupBuilder {
    /// Starts a builder with `config`.
    #[must_use]
    pub fn new(config: ReplicaGroupConfig) -> Self {
        ReplicaGroupBuilder { config, spaces: Vec::new(), durability: BTreeMap::new() }
    }

    /// Registers a UDF shard over `space` on every replica (and in the
    /// group's merge base), with the same model pair
    /// [`ConcurrentEstimatorBuilder::register`](crate::ConcurrentEstimatorBuilder::register)
    /// builds.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for duplicate names.
    pub fn register(mut self, name: &str, space: &Space) -> Result<Self, MlqError> {
        if self.spaces.iter().any(|(n, _)| n == name) {
            return Err(MlqError::InvalidConfig {
                reason: format!("UDF {name} is already registered"),
            });
        }
        self.spaces.push((name.to_string(), space.clone()));
        Ok(self)
    }

    /// Gives one replica crash-safe serving with explicit durability
    /// settings (fault injection, checkpoint cadence, …). Replicas without
    /// settings serve without durability.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when `replica` is out of range.
    pub fn with_replica_durability(
        mut self,
        replica: usize,
        config: DurabilityConfig,
    ) -> Result<Self, MlqError> {
        if replica >= self.config.replicas {
            return Err(MlqError::InvalidConfig {
                reason: format!(
                    "replica {replica} out of range for a group of {}",
                    self.config.replicas
                ),
            });
        }
        self.durability.insert(replica, config);
        Ok(self)
    }

    /// Builds every replica, the merge base, and (under
    /// [`MaintainerMode::Background`]) the anti-entropy scheduler thread.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when nothing is registered or the
    /// configuration is nonsensical; propagates replica build failures.
    pub fn build(self) -> Result<ReplicaGroup, MlqError> {
        let ReplicaGroupBuilder { config, spaces, mut durability } = self;
        config.validate()?;
        if spaces.is_empty() {
            return Err(MlqError::InvalidConfig {
                reason: "a replica group needs at least one registered UDF".into(),
            });
        }

        let registry = Arc::new(Registry::new());
        let serve = config.serve;

        let mut replicas = Vec::with_capacity(config.replicas);
        let mut replica_registries = Vec::with_capacity(config.replicas);
        for i in 0..config.replicas {
            let replica_registry = Arc::new(Registry::new());
            let mut b = ConcurrentEstimator::builder(serve)
                .with_registry(Arc::clone(&replica_registry))
                .with_delta_tracking(config.delta_budget);
            for (name, space) in &spaces {
                b = b.register(name, space)?;
            }
            if let Some(dconfig) = durability.remove(&i) {
                b = b.with_durability_config(dconfig);
            }
            replicas.push(Arc::new(b.build()?));
            replica_registries.push(replica_registry);
        }

        // The merge base: one pair of trees per shard, configured exactly
        // like the replicas' live models, in the replicas' (sorted) shard
        // order.
        let mut sorted = spaces;
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut base = Vec::with_capacity(sorted.len());
        for (name, space) in sorted {
            let (cpu, io) = shard_models(&space, serve.budget_per_model)?;
            base.push(BaseShard { name, cpu, io });
        }

        let metrics = GroupMetrics::new(&registry, config.replicas);
        metrics.replica_count.set(config.replicas as f64);
        let shared = Arc::new(GroupShared {
            replicas,
            replica_registries,
            registry,
            core: Mutex::new(GroupCore { base }),
            metrics,
            stop: AtomicBool::new(false),
        });

        let scheduler = match serve.maintainer {
            MaintainerMode::Manual => None,
            MaintainerMode::Background => {
                let sched_shared = Arc::clone(&shared);
                let interval = config.sync_interval;
                let handle = thread::Builder::new()
                    .name("mlq-replica-sync".into())
                    .spawn(move || {
                        let tick = interval.min(Duration::from_millis(5));
                        let mut last = Instant::now();
                        while !sched_shared.stop.load(Ordering::Acquire) {
                            thread::sleep(tick);
                            if last.elapsed() >= interval {
                                let _ = sched_shared.sync();
                                last = Instant::now();
                            }
                        }
                    })
                    .map_err(|e| MlqError::IoFault {
                        reason: format!("spawning anti-entropy scheduler: {e}"),
                    })?;
                Some(handle)
            }
        };

        Ok(ReplicaGroup { shared, scheduler: Mutex::new(scheduler) })
    }
}

/// The group's merged view of one shard.
struct BaseShard {
    name: String,
    cpu: MemoryLimitedQuadtree,
    io: MemoryLimitedQuadtree,
}

struct GroupCore {
    base: Vec<BaseShard>,
}

/// Registry handles for the `mlq_serve_replica_*` series.
struct GroupMetrics {
    syncs: Counter,
    skipped_syncs: Counter,
    sync_nanos: Histogram,
    merged_observations: Counter,
    merge_compressions: Counter,
    envelope_bytes: Counter,
    installs: Counter,
    replica_count: Gauge,
    /// Per-replica extracted-observation tallies
    /// (`mlq_serve_replica_delta_observations{replica="<i>"}`).
    delta_observations: Vec<Counter>,
}

impl GroupMetrics {
    fn new(registry: &Registry, replicas: usize) -> Self {
        GroupMetrics {
            syncs: registry.counter("mlq_serve_replica_syncs"),
            skipped_syncs: registry.counter("mlq_serve_replica_skipped_syncs"),
            sync_nanos: registry.histogram("mlq_serve_replica_sync_nanos"),
            merged_observations: registry.counter("mlq_serve_replica_merged_observations"),
            merge_compressions: registry.counter("mlq_serve_replica_merge_compressions"),
            envelope_bytes: registry.counter("mlq_serve_replica_envelope_bytes"),
            installs: registry.counter("mlq_serve_replica_installs"),
            replica_count: registry.gauge("mlq_serve_replica_count"),
            delta_observations: (0..replicas)
                .map(|i| {
                    registry.counter(&labeled(
                        "mlq_serve_replica_delta_observations",
                        &[("replica", &i.to_string())],
                    ))
                })
                .collect(),
        }
    }
}

struct GroupShared {
    replicas: Vec<Arc<ConcurrentEstimator>>,
    replica_registries: Vec<Arc<Registry>>,
    registry: Arc<Registry>,
    core: Mutex<GroupCore>,
    metrics: GroupMetrics,
    stop: AtomicBool,
}

impl GroupShared {
    fn sync(&self) -> Result<SyncReport, MlqError> {
        let start = Instant::now();
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);

        // 1. Extract: take every replica's pending delta.
        let mut per_replica = Vec::with_capacity(self.replicas.len());
        let mut all_deltas = Vec::with_capacity(self.replicas.len());
        for (i, replica) in self.replicas.iter().enumerate() {
            let deltas = replica.take_deltas()?;
            let n: u64 = deltas.iter().map(|d| d.observations).sum();
            self.metrics.delta_observations[i].add(n);
            per_replica.push(n);
            all_deltas.push(deltas);
        }
        let merged_observations: u64 = per_replica.iter().sum();
        if merged_observations == 0 {
            self.metrics.skipped_syncs.inc();
            return Ok(SyncReport {
                merged_observations: 0,
                per_replica,
                compressions: 0,
                envelope_bytes: 0,
                skipped: true,
            });
        }

        // 2. Fold every delta into the merge base (pairwise merge_from,
        // re-compressing when the union exceeds the base's budget).
        let mut compressions = 0u64;
        for deltas in &all_deltas {
            for (shard_idx, delta) in deltas.iter().enumerate() {
                let shard = &mut core.base[shard_idx];
                debug_assert_eq!(shard.name, delta.name, "replica shard order must match base");
                if delta.cpu.root_summary().count > 0 && shard.cpu.merge_from(&delta.cpu)?.is_some()
                {
                    compressions += 1;
                }
                if delta.io.root_summary().count > 0 && shard.io.merge_from(&delta.io)?.is_some() {
                    compressions += 1;
                }
            }
        }

        // 3. Ship + install: every replica gets the merged base through
        // its envelopes (its own pending delta is folded on top inside
        // install_models).
        let mut envelope_bytes = 0u64;
        let envelopes: Vec<(String, Vec<u8>, Vec<u8>)> = core
            .base
            .iter()
            .map(|shard| {
                let cpu = shard.cpu.snapshot().to_envelope();
                let io = shard.io.snapshot().to_envelope();
                envelope_bytes += (cpu.len() + io.len()) as u64;
                (shard.name.clone(), cpu, io)
            })
            .collect();
        let unframe = |bytes: &[u8]| {
            MemoryLimitedQuadtree::from_snapshot(&TreeSnapshot::from_envelope(bytes)?)
        };
        for replica in &self.replicas {
            let models = envelopes
                .iter()
                .map(|(name, cpu, io)| Ok((name.clone(), unframe(cpu)?, unframe(io)?)))
                .collect::<Result<Vec<_>, MlqError>>()?;
            replica.install_models(models)?;
            self.metrics.installs.inc();
        }

        self.metrics.syncs.inc();
        self.metrics.merged_observations.add(merged_observations);
        self.metrics.merge_compressions.add(compressions);
        self.metrics.envelope_bytes.add(envelope_bytes);
        self.metrics
            .sync_nanos
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(SyncReport {
            merged_observations,
            per_replica,
            compressions,
            envelope_bytes,
            skipped: false,
        })
    }
}

/// What one anti-entropy round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncReport {
    /// Observations folded into the merge base this round.
    pub merged_observations: u64,
    /// Observations extracted per replica, group order.
    pub per_replica: Vec<u64>,
    /// Compression passes the fold triggered on the base trees.
    pub compressions: u64,
    /// Envelope bytes shipped (0 when the round was skipped).
    pub envelope_bytes: u64,
    /// True when no replica had pending feedback — nothing was merged or
    /// installed.
    pub skipped: bool,
}

/// Final accounting returned by [`ReplicaGroup::shutdown`].
#[derive(Debug)]
pub struct GroupReport {
    /// What the final anti-entropy round (after draining every queue)
    /// folded.
    pub final_sync: SyncReport,
    /// Each replica's own [`ServeReport`], group order.
    pub replicas: Vec<ServeReport>,
    /// Merged metrics view (see [`ReplicaGroup::metrics`]).
    pub metrics: RegistrySnapshot,
}

/// N replicated [`ConcurrentEstimator`]s kept convergent by anti-entropy
/// merges. See the [module documentation](self).
pub struct ReplicaGroup {
    shared: Arc<GroupShared>,
    /// The anti-entropy scheduler thread (`None` under
    /// [`MaintainerMode::Manual`] and once joined).
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaGroup {
    /// Shorthand for [`ReplicaGroupBuilder::new`].
    #[must_use]
    pub fn builder(config: ReplicaGroupConfig) -> ReplicaGroupBuilder {
        ReplicaGroupBuilder::new(config)
    }

    /// Number of replicas in the group.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Replica `index` — route a client's predictions and feedback to one
    /// replica; the anti-entropy rounds spread what it learns to the
    /// rest.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn replica(&self, index: usize) -> &Arc<ConcurrentEstimator> {
        &self.shared.replicas[index]
    }

    /// Runs one anti-entropy round now: extract deltas, fold into the
    /// merge base, ship + install + republish everywhere.
    ///
    /// # Errors
    ///
    /// Propagates extraction/merge/install failures (these indicate a
    /// torn-down replica or a configuration bug, not transient state).
    pub fn sync(&self) -> Result<SyncReport, MlqError> {
        self.shared.sync()
    }

    /// One manual maintenance step on every replica, draining each
    /// replica's whole queue. Returns the total observations applied.
    ///
    /// # Errors
    ///
    /// Propagates [`ConcurrentEstimator::step`] failures, including its
    /// refusal under [`MaintainerMode::Background`].
    pub fn pump(&self) -> Result<usize, MlqError> {
        let mut total = 0;
        for replica in &self.shared.replicas {
            total += replica.step(usize::MAX)?;
        }
        Ok(total)
    }

    /// Blocks until every observation admitted to any replica before this
    /// call has been applied and republished on its home replica (not
    /// necessarily synced to peers — call [`Self::sync`] for that).
    pub fn flush(&self) {
        for replica in &self.shared.replicas {
            replica.flush();
        }
    }

    /// Merged metrics view: the group's own `mlq_serve_replica_*` series
    /// plus every replica's full registry relabeled with
    /// `{replica="<index>"}`, in one exposition.
    #[must_use]
    pub fn metrics(&self) -> RegistrySnapshot {
        let mut merged = self.shared.registry.snapshot();
        for (i, registry) in self.shared.replica_registries.iter().enumerate() {
            let label = i.to_string();
            merged.merge(&registry.snapshot().with_labels(&[("replica", &label)]));
        }
        merged
    }

    /// Stops the tier: joins the scheduler thread, drains every
    /// replica's queue, runs one final anti-entropy round so every
    /// replica converges to the union of all streams, and shuts each
    /// replica down. Idempotent; later calls return `None`.
    pub fn shutdown(&self) -> Option<GroupReport> {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return None;
        }
        let scheduler = self.scheduler.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(handle) = scheduler {
            let _ = handle.join();
        }
        self.flush();
        let final_sync = self.shared.sync().unwrap_or(SyncReport {
            merged_observations: 0,
            per_replica: Vec::new(),
            compressions: 0,
            envelope_bytes: 0,
            skipped: true,
        });
        let metrics = self.metrics();
        let replicas =
            self.shared.replicas.iter().filter_map(|replica| replica.shutdown()).collect();
        Some(GroupReport { final_sync, replicas, metrics })
    }
}

impl Drop for ReplicaGroup {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ReplicaGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaGroup")
            .field("replicas", &self.shared.replicas.len())
            .finish_non_exhaustive()
    }
}
