//! Per-UDF handles that plug the concurrent service into the optimizer.
//!
//! The optimizer's [`FeedbackExecutor`](mlq_optimizer::FeedbackExecutor)
//! drives anything implementing [`Estimator`]; an [`EstimatorHandle`] is
//! that implementation for one shard of a [`ConcurrentEstimator`]. Each
//! handle holds an `Arc` of the service, so executors, request threads,
//! and the maintainer all share one set of models without a dependency
//! from the optimizer onto this crate.

use crate::estimator::ConcurrentEstimator;
use crate::queue::PushOutcome;
use crate::snapshot::ShardSnapshot;
use mlq_core::MlqError;
use mlq_optimizer::Estimator;
use mlq_udfs::ExecutionCost;
use std::sync::Arc;

/// One UDF's view of a shared [`ConcurrentEstimator`].
#[derive(Debug, Clone)]
pub struct EstimatorHandle {
    service: Arc<ConcurrentEstimator>,
    shard: usize,
    name: String,
}

impl ConcurrentEstimator {
    /// A cloneable per-UDF handle onto this service, suitable for the
    /// optimizer's [`Estimator`] seam.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] for unknown names.
    pub fn handle(self: &Arc<Self>, name: &str) -> Result<EstimatorHandle, MlqError> {
        let shard = self.names().iter().position(|n| *n == name).ok_or_else(|| {
            MlqError::InvalidConfig { reason: format!("no UDF named {name} is registered") }
        })?;
        Ok(EstimatorHandle { service: Arc::clone(self), shard, name: name.to_string() })
    }
}

impl EstimatorHandle {
    /// The current published snapshot for this handle's UDF, as
    /// published: it is not counted as a read and does not wake the
    /// shard, so under a [`FleetConfig`](crate::FleetConfig) it can be
    /// a hibernated shard's stand-in (see
    /// [`ShardSnapshot::is_hibernated`]). Predictions should go through
    /// the handle's [`Estimator`] methods, which count and wake like the
    /// service's own reads.
    #[must_use]
    pub fn snapshot(&self) -> Arc<ShardSnapshot> {
        self.service.snapshot_at(self.shard)
    }

    /// The service this handle points into.
    #[must_use]
    pub fn service(&self) -> &Arc<ConcurrentEstimator> {
        &self.service
    }

    /// The UDF this handle serves.
    #[must_use]
    pub fn udf_name(&self) -> &str {
        &self.name
    }

    /// Enqueues feedback, reporting how backpressure admitted it.
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] after the service shuts down.
    pub fn offer(&self, point: &[f64], cost: ExecutionCost) -> Result<PushOutcome, MlqError> {
        self.service.observe_at(self.shard, point, cost)
    }
}

impl Estimator for EstimatorHandle {
    fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.service.predict_at(self.shard, point)
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> Result<Vec<Option<f64>>, MlqError> {
        let mut out = Vec::with_capacity(points.len());
        self.predict_batch_into(points, &mut out)?;
        Ok(out)
    }

    fn predict_batch_into(
        &self,
        points: &[Vec<f64>],
        out: &mut Vec<Option<f64>>,
    ) -> Result<(), MlqError> {
        // The caller's output buffer plus the service's per-thread
        // descent scratch: no per-call `Vec`s.
        self.service.predict_batch_into_at(self.shard, points, out)
    }

    fn observe(&mut self, point: &[f64], cost: ExecutionCost) -> Result<(), MlqError> {
        self.offer(point, cost).map(|_| ())
    }

    fn combine(&self, cost: ExecutionCost) -> f64 {
        self.snapshot().combine(cost)
    }

    fn memory_used(&self) -> usize {
        // The read path serves from the published packed snapshot; its
        // bytes are the model state a reader actually pays for.
        let snapshot = self.snapshot();
        let (cpu, io) = snapshot.components();
        cpu.tree().bytes() + io.tree().bytes()
    }

    fn name(&self) -> String {
        format!("serve({})", self.name)
    }
}
