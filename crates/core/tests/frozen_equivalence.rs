//! Property: freezing is semantically invisible. For arbitrary insert
//! sequences — eager or lazy, with or without budget-triggered
//! compression — a [`FrozenTree`](mlq_core::FrozenTree) built by
//! `freeze()` answers every prediction exactly like the live tree it was
//! taken from, at the configured β and at arbitrary explicit βs. This is
//! the contract the serving layer's snapshot isolation stands on: readers
//! holding a frozen snapshot must see the same estimates the maintainer's
//! live model would have given at publication time.

use mlq_core::{BatchPlan, FrozenTree, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use proptest::prelude::*;

const DIMS: usize = 2;
const SIDE: f64 = 1000.0;

fn tree(budget: usize, strategy: InsertionStrategy, beta: u64) -> MemoryLimitedQuadtree {
    let space = Space::cube(DIMS, 0.0, SIDE).unwrap();
    let floor = MlqConfig::min_budget(&space, 4);
    let config = MlqConfig::builder(space)
        .memory_budget(budget.max(floor))
        .strategy(strategy)
        .lambda(4)
        .beta(beta)
        .build()
        .unwrap();
    MemoryLimitedQuadtree::new(config).unwrap()
}

fn arb_points() -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    prop::collection::vec((prop::collection::vec(0.0..SIDE, DIMS), 0.0..500.0f64), 1..120)
}

/// Query points: some are generated independently of the data, so both
/// informed and uninformed regions get exercised.
fn arb_queries() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..SIDE, DIMS), 1..40)
}

/// The *old* frozen layout, reconstructed as a reference model: one heap
/// node per tree node, with a `NIL`-padded `2^d` child-slot array boxed
/// per internal node, walked by direct slot indexing. Rebuilt here from
/// the packed snapshot's structure accessors so the packed bitmask+rank
/// layout is checked against the layout it replaced, not just against the
/// live tree.
struct BoxedReferenceNode {
    count: u64,
    avg: f64,
    children: Option<Box<[Option<usize>]>>,
}

struct BoxedReference {
    nodes: Vec<BoxedReferenceNode>,
    space: Space,
    beta: u64,
}

impl BoxedReference {
    fn from_packed(frozen: &FrozenTree) -> Self {
        let space = frozen.config().space.clone();
        let fanout = space.fanout();
        let nodes = (0..frozen.node_count())
            .map(|idx| {
                let (count, avg) = frozen.node_stats(idx);
                let slots: Vec<Option<usize>> =
                    (0..fanout).map(|slot| frozen.child_of(idx, slot)).collect();
                let children = slots.iter().any(Option::is_some).then(|| slots.into_boxed_slice());
                BoxedReferenceNode { count, avg, children }
            })
            .collect();
        BoxedReference { nodes, space, beta: frozen.config().beta }
    }

    /// The Fig. 3 descent over boxed slot arrays — the old algorithm.
    fn predict_with_beta(&self, point: &[f64], beta: u64) -> Option<f64> {
        let grid = self.space.grid_point(point).expect("query validated by packed path");
        let mut node = &self.nodes[0];
        if node.count == 0 {
            return None;
        }
        let mut best = node.avg;
        let mut depth = 0u32;
        while node.count >= beta {
            best = node.avg;
            let next = node.children.as_ref().and_then(|slots| slots[grid.child_slot(depth)]);
            match next {
                Some(child) => {
                    node = &self.nodes[child];
                    depth += 1;
                }
                None => break,
            }
        }
        Some(best)
    }

    fn predict(&self, point: &[f64]) -> Option<f64> {
        self.predict_with_beta(point, self.beta)
    }
}

fn assert_equivalent(
    live: &MemoryLimitedQuadtree,
    queries: &[Vec<f64>],
    data: &[(Vec<f64>, f64)],
) -> Result<(), TestCaseError> {
    let frozen = live.freeze();
    let boxed = BoxedReference::from_packed(&frozen);
    // Every data point and every independent query, at the configured β
    // and a spread of explicit ones (β = 1 answers wherever any point
    // landed; large βs force fallback to shallow blocks or None).
    // Out-of-range queries clamp onto the boundary identically in every
    // layout; derive a few from each in-range query.
    let clamped: Vec<Vec<f64>> = queries
        .iter()
        .flat_map(|q| {
            [
                q.iter().map(|c| c + SIDE * 2.0).collect::<Vec<f64>>(),
                q.iter().map(|c| c - SIDE * 2.0).collect(),
            ]
        })
        .collect();
    for q in queries.iter().chain(data.iter().map(|(p, _)| p)).chain(clamped.iter()) {
        let live_p = live.predict(q).unwrap();
        prop_assert_eq!(
            frozen.predict(q).unwrap(),
            live_p,
            "configured-β prediction diverged at {:?}",
            q
        );
        prop_assert_eq!(boxed.predict(q), live_p, "boxed-layout reference diverged at {:?}", q);
        for beta in [1, 2, 5, 10, 1000] {
            let live_b = live.predict_with_beta(q, beta).unwrap();
            prop_assert_eq!(
                frozen.predict_with_beta(q, beta).unwrap(),
                live_b,
                "β = {} prediction diverged at {:?}",
                beta,
                q
            );
            prop_assert_eq!(
                boxed.predict_with_beta(q, beta),
                live_b,
                "boxed-layout reference diverged at β = {}, {:?}",
                beta,
                q
            );
        }
    }
    // The fused pair kernel is the same function evaluated in bulk.
    let all: Vec<Vec<f64>> = queries.iter().chain(clamped.iter()).cloned().collect();
    let mut plan = BatchPlan::new();
    plan.prepare(&frozen.config().space, frozen.packed_levels(), &all).unwrap();
    let (mut batch, mut twin) = (Vec::new(), Vec::new());
    FrozenTree::predict_planned_pair_into(&frozen, &frozen, &plan, &mut batch, &mut twin);
    for ((q, b), t) in all.iter().zip(&batch).zip(&twin) {
        prop_assert_eq!(*b, live.predict(q).unwrap(), "batch diverged at {:?}", q);
        prop_assert_eq!(*t, *b, "pair sides diverged at {:?}", q);
    }
    prop_assert_eq!(frozen.node_count(), live.node_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn freeze_preserves_predictions_eager(
        data in arb_points(),
        queries in arb_queries(),
    ) {
        let mut live = tree(1 << 20, InsertionStrategy::Eager, 2);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        assert_equivalent(&live, &queries, &data)?;
    }

    #[test]
    fn freeze_preserves_predictions_lazy(
        data in arb_points(),
        queries in arb_queries(),
    ) {
        let mut live = tree(1 << 20, InsertionStrategy::Lazy { alpha: 0.05 }, 2);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        assert_equivalent(&live, &queries, &data)?;
    }

    #[test]
    fn freeze_preserves_predictions_under_compression(
        data in arb_points(),
        queries in arb_queries(),
    ) {
        // A budget at the floor: inserts keep tripping compression, so
        // the frozen tree is compared against a heavily evicted live one.
        let mut live = tree(0, InsertionStrategy::Eager, 1);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        live.check_invariants().map_err(TestCaseError::fail)?;
        assert_equivalent(&live, &queries, &data)?;
    }

    #[test]
    fn freeze_is_a_stable_point_in_time_copy(
        data in arb_points(),
        later in arb_points(),
        queries in arb_queries(),
    ) {
        let mut live = tree(1 << 20, InsertionStrategy::Eager, 2);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        let frozen = live.freeze();
        let at_freeze: Vec<_> =
            queries.iter().map(|q| frozen.predict(q).unwrap()).collect();
        // Keep mutating the live tree; the frozen copy must not move.
        for (p, v) in &later {
            live.insert(p, *v).unwrap();
        }
        for (q, expected) in queries.iter().zip(at_freeze) {
            prop_assert_eq!(frozen.predict(q).unwrap(), expected);
        }
    }
}
