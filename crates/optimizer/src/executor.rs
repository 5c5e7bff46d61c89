//! Evaluating a conjunction of expensive UDF predicates over a row stream.
//!
//! For independent predicates with per-tuple cost `c_i` and selectivity
//! `s_i`, expected evaluation cost is minimized by evaluating in ascending
//! `c_i / (1 − s_i)` — the predicate-ordering rank of Hellerstein &
//! Stonebraker's *Predicate Migration* (the paper's reference \[1\]). The
//! executor computes that rank per row from the estimators' *predicted*
//! costs and the *observed* pass rates, then feeds every actual cost back
//! into the estimators — the full Fig. 1 loop.

use crate::estimator::{CostEstimator, Estimator};
use crate::predicate::RowPredicate;
use crate::selectivity::SelectivityModel;
use serde::{Deserialize, Serialize};

/// How the executor orders predicate evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// A fixed order, never revisited (a naive optimizer without cost
    /// models).
    Fixed(Vec<usize>),
    /// Ascending `predicted cost / (1 − observed selectivity)`, recomputed
    /// per row from the current models (the Fig. 1 loop). Selectivity is
    /// a single observed pass rate per predicate.
    EstimatedRank,
    /// Like [`OrderingPolicy::EstimatedRank`], but the selectivity is also
    /// modeled per region with a [`SelectivityModel`], so a predicate that
    /// filters well only in parts of the space is ranked per row.
    LocalSelectivityRank,
    /// Ascending rank from *true* per-row costs and configured
    /// selectivities — the unattainable lower-bound ordering. Requires
    /// pure predicates (evaluating to peek costs must be side-effect
    /// free), which all predicates in this crate are.
    OracleRank,
}

/// What a batch execution cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Rows processed.
    pub rows: usize,
    /// Total combined (CPU + weighted IO) cost of all predicate
    /// evaluations.
    pub total_cost: f64,
    /// Individual predicate evaluations performed (short-circuiting makes
    /// this smaller than `rows × predicates`).
    pub evaluations: u64,
    /// Rows that passed every predicate.
    pub qualified: usize,
}

/// Running pass-rate observation for one predicate.
#[derive(Debug, Default, Clone, Copy)]
struct SelectivityStats {
    evaluations: u64,
    passes: u64,
}

impl SelectivityStats {
    /// Observed selectivity with a weak 0.5 prior so early rows don't
    /// divide by zero.
    fn selectivity(&self) -> f64 {
        (self.passes as f64 + 1.0) / (self.evaluations as f64 + 2.0)
    }
}

/// Executes a conjunction of UDF predicates with cost-model feedback.
///
/// Generic over the estimator backend: the default `E = CostEstimator`
/// owns its models in-process, while a serving layer can supply handles
/// into a shared concurrent estimator (any [`Estimator`] implementation)
/// without changing the execution loop.
pub struct FeedbackExecutor<E: Estimator = CostEstimator> {
    predicates: Vec<Box<dyn RowPredicate>>,
    estimators: Vec<E>,
    stats: Vec<SelectivityStats>,
    selectivity_models: Vec<Option<SelectivityModel>>,
    /// Known selectivities for the oracle policy (`None` entries fall back
    /// to 0.5).
    true_selectivities: Vec<Option<f64>>,
    /// When false, observed costs are not fed back (ablation switch).
    feedback: bool,
}

impl<E: Estimator> FeedbackExecutor<E> {
    /// Builds the executor; one estimator per predicate.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length or are empty.
    #[must_use]
    pub fn new(predicates: Vec<Box<dyn RowPredicate>>, estimators: Vec<E>) -> Self {
        assert_eq!(predicates.len(), estimators.len(), "one estimator per predicate");
        assert!(!predicates.is_empty(), "need at least one predicate");
        let n = predicates.len();
        let mut exec = FeedbackExecutor {
            predicates,
            estimators,
            stats: vec![SelectivityStats::default(); n],
            selectivity_models: Vec::new(),
            true_selectivities: vec![None; n],
            feedback: true,
        };
        exec.selectivity_models = (0..n)
            .map(|i| SelectivityModel::new(exec.predicates[i].space().clone(), 4096).ok())
            .collect();
        exec
    }

    /// Supplies the true selectivities used by [`OrderingPolicy::OracleRank`].
    pub fn set_true_selectivities(&mut self, selectivities: Vec<Option<f64>>) {
        assert_eq!(selectivities.len(), self.predicates.len());
        self.true_selectivities = selectivities;
    }

    /// Disables model feedback (for static-model comparisons).
    pub fn set_feedback(&mut self, on: bool) {
        self.feedback = on;
    }

    /// Number of predicates.
    #[must_use]
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Access to an estimator (e.g. to inspect model state after a run).
    #[must_use]
    pub fn estimator(&self, i: usize) -> &E {
        &self.estimators[i]
    }

    /// Processes `rows` under `policy`. Each row supplies one model point
    /// per predicate (`rows[r][i]` feeds predicate `i`).
    ///
    /// # Panics
    ///
    /// Panics when a row has the wrong number of points or a fixed order
    /// is not a permutation.
    pub fn run(&mut self, rows: &[Vec<Vec<f64>>], policy: &OrderingPolicy) -> ExecutionReport {
        let n = self.predicates.len();
        if let OrderingPolicy::Fixed(order) = policy {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "fixed order must be a permutation");
        }
        let mut report = ExecutionReport { rows: rows.len(), ..Default::default() };
        let mut order: Vec<usize> = (0..n).collect();
        for row in rows {
            assert_eq!(row.len(), n, "one model point per predicate");
            let predicted = |i: usize| -> f64 {
                self.estimators[i]
                    .predict(&row[i])
                    .expect("row points are well-formed")
                    .unwrap_or(1.0)
            };
            match policy {
                OrderingPolicy::Fixed(fixed) => order.copy_from_slice(fixed),
                OrderingPolicy::EstimatedRank => {
                    let ranks: Vec<f64> =
                        (0..n).map(|i| rank(predicted(i), self.stats[i].selectivity())).collect();
                    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
                }
                OrderingPolicy::LocalSelectivityRank => {
                    let ranks: Vec<f64> = (0..n)
                        .map(|i| {
                            let cost = predicted(i);
                            let sel = match &self.selectivity_models[i] {
                                Some(m) => {
                                    m.selectivity(&row[i]).expect("row points are well-formed")
                                }
                                None => self.stats[i].selectivity(),
                            };
                            rank(cost, sel)
                        })
                        .collect();
                    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
                }
                OrderingPolicy::OracleRank => {
                    let ranks: Vec<f64> = (0..n)
                        .map(|i| {
                            let (_, cost) = self.predicates[i].evaluate(&row[i]);
                            let sel = self.true_selectivities[i].unwrap_or(0.5);
                            rank(self.estimators[i].combine(cost), sel)
                        })
                        .collect();
                    order.sort_by(|&a, &b| ranks[a].total_cmp(&ranks[b]));
                }
            }

            let mut all_passed = true;
            for &i in &order {
                let (pass, cost) = self.predicates[i].evaluate(&row[i]);
                report.evaluations += 1;
                report.total_cost += self.estimators[i].combine(cost);
                self.stats[i].evaluations += 1;
                if pass {
                    self.stats[i].passes += 1;
                }
                if self.feedback {
                    self.estimators[i].observe(&row[i], cost).expect("row points are well-formed");
                    if let Some(m) = &mut self.selectivity_models[i] {
                        m.observe(&row[i], pass).expect("row points are well-formed");
                    }
                }
                if !pass {
                    all_passed = false;
                    break;
                }
            }
            if all_passed {
                report.qualified += 1;
            }
        }
        report
    }
}

/// The predicate-migration rank: ascending `cost / (1 − selectivity)`;
/// a selectivity of 1 makes the predicate useless as a filter (rank ∞).
fn rank(cost: f64, selectivity: f64) -> f64 {
    let filter_power = (1.0 - selectivity).max(1e-9);
    cost / filter_power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::SyntheticPredicate;
    use mlq_core::{CostModel, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
    use mlq_synth::{QueryDistribution, SyntheticUdf};

    fn space() -> Space {
        Space::cube(2, 0.0, 1000.0).unwrap()
    }

    fn mlq_model() -> Box<dyn CostModel> {
        let config = MlqConfig::builder(space())
            .memory_budget(1 << 15)
            .strategy(InsertionStrategy::Eager)
            .build()
            .unwrap();
        Box::new(MemoryLimitedQuadtree::new(config).unwrap())
    }

    fn estimator() -> CostEstimator {
        CostEstimator::new(mlq_model(), mlq_model(), 0.0).unwrap()
    }

    /// Three predicates with very different cost scales and selectivities.
    fn setup() -> (FeedbackExecutor, Vec<Vec<Vec<f64>>>) {
        let mk = |seed: u64, max_cost: f64, sel: f64, name: &str| {
            let surface =
                SyntheticUdf::builder(space()).peaks(5).max_cost(max_cost).seed(seed).build();
            SyntheticPredicate::new(name, surface, sel, seed)
        };
        let preds: Vec<Box<dyn RowPredicate>> = vec![
            Box::new(mk(1, 10_000.0, 0.9, "expensive-weak")),
            Box::new(mk(2, 100.0, 0.2, "cheap-strong")),
            Box::new(mk(3, 1_000.0, 0.5, "middling")),
        ];
        let estimators = vec![estimator(), estimator(), estimator()];
        let mut exec = FeedbackExecutor::new(preds, estimators);
        exec.set_true_selectivities(vec![Some(0.9), Some(0.2), Some(0.5)]);

        let points = QueryDistribution::Uniform.generate(&space(), 600, 9);
        let rows: Vec<Vec<Vec<f64>>> = points.chunks_exact(3).map(|c| c.to_vec()).collect();
        (exec, rows)
    }

    #[test]
    fn short_circuit_reduces_evaluations() {
        let (mut exec, rows) = setup();
        let report = exec.run(&rows, &OrderingPolicy::Fixed(vec![1, 2, 0]));
        assert!(report.evaluations < (report.rows * 3) as u64);
        assert!(report.qualified < report.rows);
    }

    #[test]
    fn learned_ordering_beats_worst_fixed_ordering() {
        // Worst order: expensive-weak predicate first.
        let (mut exec, rows) = setup();
        let worst = exec.run(&rows, &OrderingPolicy::Fixed(vec![0, 2, 1]));

        let (mut exec, rows) = setup();
        // Warm-up: let the models learn, then measure.
        let (warm, test) = rows.split_at(rows.len() / 2);
        exec.run(warm, &OrderingPolicy::EstimatedRank);
        let learned = exec.run(test, &OrderingPolicy::EstimatedRank);

        let (mut exec, rows) = setup();
        let worst_test = exec.run(&rows[rows.len() / 2..], &OrderingPolicy::Fixed(vec![0, 2, 1]));
        let _ = worst;
        assert!(
            learned.total_cost < worst_test.total_cost,
            "learned {} vs worst-fixed {}",
            learned.total_cost,
            worst_test.total_cost
        );
    }

    #[test]
    fn learned_ordering_approaches_oracle() {
        let (mut exec, rows) = setup();
        let (warm, test) = rows.split_at(rows.len() / 2);
        exec.run(warm, &OrderingPolicy::EstimatedRank);
        let learned = exec.run(test, &OrderingPolicy::EstimatedRank);

        let (mut exec, rows) = setup();
        let oracle = exec.run(&rows[rows.len() / 2..], &OrderingPolicy::OracleRank);

        assert!(
            learned.total_cost < oracle.total_cost * 2.0,
            "learned {} should be within 2x of oracle {}",
            learned.total_cost,
            oracle.total_cost
        );
        assert!(oracle.total_cost <= learned.total_cost * 1.001);
    }

    #[test]
    fn qualified_rows_independent_of_order() {
        let (mut a, rows) = setup();
        let ra = a.run(&rows, &OrderingPolicy::Fixed(vec![0, 1, 2]));
        let (mut b, rows) = setup();
        let rb = b.run(&rows, &OrderingPolicy::Fixed(vec![2, 1, 0]));
        assert_eq!(ra.qualified, rb.qualified, "conjunction result is order-independent");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_non_permutation_order() {
        let (mut exec, rows) = setup();
        exec.run(&rows, &OrderingPolicy::Fixed(vec![0, 0, 1]));
    }

    /// A deterministic predicate whose filtering power is regional: it
    /// always passes left of `threshold` and always fails right of it.
    struct RegionPredicate {
        space: Space,
        threshold: f64,
        cost: f64,
    }

    impl RowPredicate for RegionPredicate {
        fn name(&self) -> &str {
            "region"
        }

        fn space(&self) -> &Space {
            &self.space
        }

        fn evaluate(&self, point: &[f64]) -> (bool, mlq_udfs::ExecutionCost) {
            (
                point[0] < self.threshold,
                mlq_udfs::ExecutionCost { cpu: self.cost, io: 0.0, results: 0 },
            )
        }
    }

    #[test]
    fn local_selectivity_rank_exploits_regional_filters() {
        // P0 is cheap and filters perfectly in the right 30% of the space
        // (always fails there) but never filters on the left. P1 is
        // expensive with a flat 50% pass rate. A global rank sees P0 as a
        // mediocre filter; the local rank learns to run P0 first exactly
        // where it kills the row.
        let build = || {
            let preds: Vec<Box<dyn RowPredicate>> = vec![
                Box::new(RegionPredicate { space: space(), threshold: 700.0, cost: 100.0 }),
                Box::new(SyntheticPredicate::new(
                    "flat",
                    SyntheticUdf::builder(space()).peaks(3).max_cost(1000.0).seed(5).build(),
                    0.5,
                    5,
                )),
            ];
            FeedbackExecutor::new(preds, vec![estimator(), estimator()])
        };
        let points = QueryDistribution::Uniform.generate(&space(), 2400, 31);
        let rows: Vec<Vec<Vec<f64>>> = points
            .chunks_exact(2)
            .map(|c| vec![c[0].clone(), c[0].clone()]) // same point feeds both
            .collect();
        let (warm, test) = rows.split_at(rows.len() / 2);

        let mut global = build();
        global.run(warm, &OrderingPolicy::EstimatedRank);
        let global_cost = global.run(test, &OrderingPolicy::EstimatedRank).total_cost;

        let mut local = build();
        local.run(warm, &OrderingPolicy::LocalSelectivityRank);
        let local_cost = local.run(test, &OrderingPolicy::LocalSelectivityRank).total_cost;

        assert!(
            local_cost < global_cost,
            "regional selectivity must pay: local {local_cost} vs global {global_cost}"
        );
    }

    #[test]
    fn rank_formula() {
        assert!(rank(100.0, 0.1) < rank(100.0, 0.9));
        assert!(rank(10.0, 0.5) < rank(100.0, 0.5));
        assert!(rank(1.0, 1.0).is_finite());
    }
}
