//! # mlq-optimizer — the query-feedback loop of paper Fig. 1
//!
//! The reason UDF cost models exist at all (paper §1): when a `WHERE`
//! clause holds several expensive UDF predicates, "the order in which the
//! UDF predicates are evaluated can make a significant difference to the
//! execution time of the query". This crate closes the loop the paper
//! diagrams in Fig. 1:
//!
//! ```text
//!   query ─▶ optimizer ──(prediction)──▶ execution engine
//!                ▲                            │
//!                └──── cost model ◀─(actual)──┘
//! ```
//!
//! * [`CostEstimator`] pairs two cost models per UDF — one for CPU, one
//!   for disk IO, exactly as §1 prescribes ("the query optimizer needs to
//!   keep two cost estimators for each UDF") — and combines them into one
//!   per-tuple cost.
//! * [`RowPredicate`] / [`SyntheticPredicate`] model boolean UDF
//!   predicates with a known cost surface and selectivity.
//! * [`FeedbackExecutor`] evaluates a conjunction of UDF predicates over a
//!   row stream, ordering them by the classic ascending
//!   `cost / (1 − selectivity)` rank [Hellerstein & Stonebraker 1993]
//!   computed from *predicted* costs and *observed* selectivities, and
//!   feeds every observed actual cost back into the models.
//!
//! * [`JoinUdfPlanner`] makes the introduction's *other* decision — UDF
//!   predicate before or after a join (pull-up vs push-down) — from the
//!   estimator's predicted per-tuple cost.
//! * [`SelectivityModel`] reuses the quadtree for region-aware
//!   selectivity, the companion signal to cost in the rank formula.
//!
//! With self-tuning MLQ estimators the ordering converges to the oracle
//! ordering; with a mispredicting static model it cannot recover — the
//! end-to-end motivation for the paper.

//! ```
//! use mlq_core::{CostModel, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
//! use mlq_optimizer::CostEstimator;
//! use mlq_udfs::ExecutionCost;
//!
//! let mlq = || -> Box<dyn CostModel> {
//!     let config = MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
//!         .memory_budget(4096)
//!         .build()
//!         .unwrap();
//!     Box::new(MemoryLimitedQuadtree::new(config).unwrap())
//! };
//! // One estimator per UDF, modeling CPU and IO separately (paper §1).
//! let mut est = CostEstimator::new(mlq(), mlq(), 100.0)?;
//! est.observe(&[5.0, 5.0], ExecutionCost { cpu: 30.0, io: 2.0, results: 9 })?;
//! assert_eq!(est.predict(&[5.0, 5.0])?, Some(30.0 + 100.0 * 2.0));
//! # Ok::<(), mlq_core::MlqError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod catalog;
mod estimator;
mod executor;
mod plan;
mod predicate;
mod selectivity;

pub use catalog::{catalog_models, CatalogSnapshot, UdfCatalog};
pub use estimator::{CostEstimator, Estimator};
pub use executor::{ExecutionReport, FeedbackExecutor, OrderingPolicy};
pub use plan::{JoinStats, JoinUdfPlanner, PlanEstimate, PlanShape};
pub use predicate::{RowPredicate, SyntheticPredicate};
pub use selectivity::SelectivityModel;
