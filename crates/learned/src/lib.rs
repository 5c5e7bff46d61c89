//! # mlq-learned — online learned cost-model baselines
//!
//! GRACEFUL-style learned estimators are the 2025 state of the art for
//! UDF cost estimation; this crate supplies two *online* learned
//! baselines that slot into the same harnesses as MLQ and the static
//! histograms, so the bake-off (`mlq-exp bakeoff`) can compare the
//! paper's approach against learned competition at a fixed byte budget:
//!
//! * [`KnnRegressor`] — an incremental k-nearest-neighbour regressor
//!   whose training set is bounded by *reservoir sampling* (Vitter's
//!   algorithm R), so its memory is a hard byte budget no matter how
//!   long the feedback stream runs;
//! * [`GbStumpEnsemble`] — a small gradient-boosted ensemble of decision
//!   stumps over a fixed dyadic threshold grid, trained stage-wise on
//!   residuals, one feedback point at a time.
//!
//! Both implement [`mlq_core::CostModel`] and
//! [`mlq_core::TrainableModel`], so they drop into `build_model`-style
//! experiment harnesses unchanged, and both are deterministic under a
//! fixed seed (the stump ensemble uses no randomness at all).
//!
//! [`CombinedEstimator`] adapts any single [`mlq_core::CostModel`] to the
//! optimizer's [`mlq_optimizer::Estimator`] seam — including
//! `predict_batch` — by learning the *combined* CPU + weighted-IO cost
//! with one model, which is how a learned baseline would actually be
//! deployed (one regressor per UDF, not one per cost component).
//!
//! ```
//! use mlq_core::{CostModel, Space};
//! use mlq_learned::KnnRegressor;
//!
//! let space = Space::cube(2, 0.0, 1000.0)?;
//! // Memory-fair with the paper's 1.8 KB budget:
//! let mut knn = KnnRegressor::with_budget(space, 4, 1800, 7)?;
//! knn.observe(&[10.0, 10.0], 5.0)?;
//! assert!(knn.predict(&[11.0, 10.0])?.is_some());
//! # Ok::<(), mlq_core::MlqError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod combined;
mod knn;
mod stumps;

pub use combined::CombinedEstimator;
pub use knn::KnnRegressor;
pub use stumps::GbStumpEnsemble;
