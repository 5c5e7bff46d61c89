//! # mlq-bench — shared fixtures for the Criterion benchmarks
//!
//! The benchmarks live in `benches/`:
//!
//! * `core_ops` — MLQ predict / insert / compress microbenches (the APC
//!   and AUC quantities of paper Eqs. 1–2);
//! * `descent` — the frozen read path: scalar descent, the fused CPU+IO
//!   pair kernel, and copy-on-write republication;
//! * `baseline_ops` — SH-W / SH-H fit and predict;
//! * `udf_exec` — raw execution cost of the six real UDFs;
//! * `figures` — one bench per paper figure (8, 9, 10, 11, 12), running
//!   the same harness code as the `mlq-exp` binary at reduced scale;
//! * `ablations` — the parameter-sweep harness;
//! * `optimizer` — predicate-ordering policies end to end;
//! * `lifecycle` — snapshot/restore, merging, trace replay, drift;
//! * `bakeoff` — the bake-off contenders through the `Estimator` seam;
//! * `anti_entropy` — one replica-group anti-entropy round.
//!
//! The served predict → execute → observe loop is measured end to end
//! and layer by layer by the separate `perfbench/` package
//! (`python3 perfbench/run.py`), not here. This crate only holds the
//! fixtures the microbenches share.

#![warn(missing_docs)]
#![warn(clippy::all)]

use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use mlq_synth::{CostSurface, QueryDistribution, SyntheticUdf};

/// A standard 4-D workload: surface, query points, and actual costs.
#[must_use]
pub fn standard_workload(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = Space::cube(4, 0.0, 1000.0).expect("valid dims");
    let udf = SyntheticUdf::builder(space.clone()).peaks(50).seed(seed).build();
    let points = QueryDistribution::Uniform.generate(&space, n, seed ^ 0xBE);
    let actuals = points.iter().map(|p| udf.cost(p)).collect();
    (points, actuals)
}

/// An MLQ model at the paper's parameters over the 4-D space.
///
/// # Panics
///
/// Panics only on invalid internal configuration (never for callers).
#[must_use]
pub fn standard_model(budget: usize, strategy: InsertionStrategy) -> MemoryLimitedQuadtree {
    let space = Space::cube(4, 0.0, 1000.0).expect("valid dims");
    let floor = MlqConfig::min_budget(&space, 6);
    let config = MlqConfig::builder(space)
        .memory_budget(budget.max(floor))
        .strategy(strategy)
        .build()
        .expect("valid config");
    MemoryLimitedQuadtree::new(config).expect("valid model")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let (points, actuals) = standard_workload(100, 1);
        assert_eq!(points.len(), 100);
        assert_eq!(actuals.len(), 100);
        let mut model = standard_model(4096, InsertionStrategy::Eager);
        model.insert(&points[0], actuals[0]).unwrap();
        assert!(model.predict(&points[0]).unwrap().is_some());
    }
}
