//! Concurrent sharded serving layer for MLQ cost estimators.
//!
//! The library crates model one estimator at a time; a database server
//! runs many request threads asking for costs while executions stream
//! back as feedback. This crate is that serving layer:
//!
//! * **Sharding** — one shard per registered UDF, keyed by name, each a
//!   CPU and an IO model (paper §1), registered through
//!   [`ConcurrentEstimatorBuilder::register`].
//! * **Snapshot-isolated reads** — readers clone an `Arc` of an immutable
//!   published [`ShardSnapshot`]; the `parking_lot::RwLock` guards only
//!   the pointer swap. Predictions never contend with model maintenance,
//!   and compression never runs on the read path.
//! * **Batched asynchronous feedback** — observations flow through a
//!   bounded MPSC queue with a pluggable [`BackpressurePolicy`] into a
//!   single maintainer — a background thread, or
//!   [`ConcurrentEstimator::step`] under [`MaintainerMode::Manual`] —
//!   which applies them through the
//!   [`GuardedModel`](mlq_core::GuardedModel)s (validation, quarantine,
//!   circuit breaking all intact) and republishes snapshots.
//! * **Observability** — quarantines, breaker states, queue drops, and
//!   feedback lag surface through [`ShardCounters`] / [`QueueCounters`]
//!   rather than disappearing into the asynchronous pipeline.
//! * **Graceful shutdown** — [`ConcurrentEstimator::shutdown`] refuses
//!   new feedback, flushes everything already admitted, and returns a
//!   final [`ServeReport`].
//!
//! ```
//! use mlq_core::Space;
//! use mlq_serve::{ConcurrentEstimator, ServeConfig};
//! use mlq_udfs::ExecutionCost;
//!
//! let space = Space::cube(2, 0.0, 100.0).unwrap();
//! let service = ConcurrentEstimator::builder(ServeConfig::default())
//!     .register("WIN", &space)
//!     .unwrap()
//!     .build()
//!     .unwrap();
//!
//! service
//!     .observe("WIN", &[10.0, 20.0], ExecutionCost { cpu: 5.0, io: 1.0, results: 3 })
//!     .unwrap();
//! service.flush();
//! assert!(service.predict("WIN", &[10.0, 20.0]).unwrap().is_some());
//! let report = service.shutdown().unwrap();
//! assert_eq!(report.shards[0].1.applied, 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod estimator;
mod handle;
mod queue;
mod recovery;
mod replica;
mod snapshot;
mod wal;

pub use estimator::{
    ConcurrentEstimator, ConcurrentEstimatorBuilder, FleetArbitration, FleetConfig, MaintainerMode,
    ServeConfig, ServeReport, ShardDelta,
};
pub use handle::EstimatorHandle;
pub use queue::{BackpressurePolicy, PushOutcome, QueueCounters};
pub use recovery::{RecoveryReport, RestoreKind, ShardRecovery};
pub use replica::{GroupReport, ReplicaGroup, ReplicaGroupBuilder, ReplicaGroupConfig, SyncReport};
pub use snapshot::{ComponentSnapshot, ShardCounters, ShardSnapshot};
pub use wal::{CrashOp, CrashPoint, DurabilityConfig, DurabilityStatus, RetryPolicy, CRASH_OPS};
