//! Structural invariant checking: the full walk, used heavily by tests
//! (including property-based tests in dependent crates), at snapshot
//! restore and before a guard's half-open breaker closes; and the O(path)
//! check of what the last insert changed, which a guard runs after every
//! accepted observation.

use crate::node::{Node, NIL};
use crate::tree::MemoryLimitedQuadtree;
use crate::{child_array_bytes, NODE_BYTES};

impl MemoryLimitedQuadtree {
    /// Verifies every structural invariant of the tree.
    ///
    /// Checked invariants:
    /// 1. all live nodes are reachable from the root, and nothing else is;
    /// 2. child/parent links agree (slot back-pointers, depth = parent + 1);
    /// 3. `n_children` matches the number of non-`NIL` slots;
    /// 4. no node exceeds depth `λ`;
    /// 5. a child's count never exceeds its parent's count, and summaries
    ///    are consistent (children's counts and squares sum to at most the
    ///    parent's);
    /// 6. the accounted `bytes_used` equals a from-scratch recomputation;
    /// 7. the tree respects its byte budget (compression ran when needed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lambda = self.config().lambda;

        // Walk from the root, marking each node as the edge into it is
        // crossed, so a second edge into a marked node (a shared child, or
        // a cycle back to the root) is caught before its back-pointer is.
        let mut reachable = vec![false; self.arena.capacity()];
        reachable[self.root as usize] = true;
        let mut n_reachable = 1usize;
        let mut stack = vec![self.root];
        let mut recomputed_bytes = 0usize;
        while let Some(idx) = stack.pop() {
            let node = self.arena.get(idx);
            recomputed_bytes += NODE_BYTES;
            if node.depth > lambda {
                return Err(format!("node {idx} at depth {} exceeds lambda {lambda}", node.depth));
            }
            let Some(slots) = self.checked_child_array(idx)? else {
                continue;
            };
            recomputed_bytes += child_array_bytes(self.config().space.dims());
            let mut child_count = 0u64;
            let mut child_sum_sq = 0.0;
            for (slot, &child_idx) in slots.iter().enumerate() {
                if child_idx == NIL {
                    continue;
                }
                if std::mem::replace(&mut reachable[child_idx as usize], true) {
                    return Err(format!(
                        "node {child_idx} reachable twice (cycle or shared child)"
                    ));
                }
                n_reachable += 1;
                let child = self.arena.get(child_idx);
                Self::check_child_link(idx, node, slot, child_idx, child)?;
                child_count += child.summary.count;
                child_sum_sq += child.summary.sum_sq;
                stack.push(child_idx);
            }
            // Children partition a subset of the parent's points.
            let eps = 1e-6 * (1.0 + node.summary.sum_sq.abs());
            if child_count > node.summary.count {
                return Err(format!(
                    "node {idx}: children count {child_count} > parent {}",
                    node.summary.count
                ));
            }
            if child_sum_sq > node.summary.sum_sq + eps {
                return Err(format!(
                    "node {idx}: children sum_sq {child_sum_sq} > parent {}",
                    node.summary.sum_sq
                ));
            }
        }

        if n_reachable != self.arena.live() {
            return Err(format!(
                "{} live arena nodes but {n_reachable} reachable from the root",
                self.arena.live()
            ));
        }
        if recomputed_bytes != self.bytes_used {
            return Err(format!(
                "bytes_used {} but recomputation gives {recomputed_bytes}",
                self.bytes_used
            ));
        }
        self.check_budget()
    }

    /// Verifies what the last [`Self::insert`] changed, at O(λ) cost plus
    /// O(2^d) per child array it changed: the cheap counterpart of
    /// [`Self::check_invariants`], affordable after every observation.
    ///
    /// Checked invariants:
    /// 1. the root has no parent and depth 0;
    /// 2. along the inserted point's root-to-leaf path, each child links
    ///    back to its parent and slot, sits one level below it and at most
    ///    at depth `λ`, and counts no more points than its parent;
    /// 3. every still-live node that the insert created a child under,
    ///    or whose child its compression evicted, holds a non-empty child
    ///    array whose live slots number its `n_children`;
    /// 4. the tree respects its byte budget.
    ///
    /// The child arrays of unchanged path nodes are never scanned. The
    /// whole-tree properties — every live node reachable from the root,
    /// and `bytes_used` equal to a from-scratch recomputation — are
    /// [`Self::check_invariants`]' alone. Before any insert only the
    /// root and the budget are checked.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_last_insert(&self) -> Result<(), String> {
        let lambda = self.config().lambda;
        let root = self.arena.get(self.root);
        if root.parent != NIL || root.depth != 0 {
            return Err(format!(
                "root {} has parent {} and depth {}",
                self.root, root.parent, root.depth
            ));
        }
        if let Some(grid) = &self.last_insert.grid {
            // Each step either fails or goes one level deeper, so a
            // corrupted link cannot make the walk cycle.
            let (mut idx, mut node) = (self.root, root);
            loop {
                self.child_array_shape(idx, node)?;
                let slot = grid.child_slot(u32::from(node.depth));
                let Some(child_idx) = node.child(slot) else {
                    break;
                };
                let child = self.arena.get(child_idx);
                Self::check_child_link(idx, node, slot, child_idx, child)?;
                if child.depth > lambda {
                    return Err(format!(
                        "node {child_idx} at depth {} exceeds lambda {lambda}",
                        child.depth
                    ));
                }
                (idx, node) = (child_idx, child);
            }
        }
        for &idx in &self.last_insert.changed {
            // Skip nodes the same compression pass freed later.
            if self.arena.is_live(idx) {
                self.checked_child_array(idx)?;
            }
        }
        self.check_budget()
    }

    /// The child array of live node `idx`, checked: its
    /// [`Self::child_array_shape`], and if present, non-empty with as
    /// many live slots as the node's `n_children`.
    fn checked_child_array(&self, idx: u32) -> Result<Option<&[u32]>, String> {
        let node = self.arena.get(idx);
        let Some(slots) = self.child_array_shape(idx, node)? else {
            return Ok(None);
        };
        let live_slots = slots.iter().filter(|&&c| c != NIL).count();
        if live_slots != node.n_children as usize {
            return Err(format!(
                "node {idx} n_children {} but {live_slots} live slots",
                node.n_children
            ));
        }
        if live_slots == 0 {
            return Err(format!("node {idx} holds an empty child array (wastes budget)"));
        }
        Ok(Some(slots))
    }

    /// The child array of `node` (at arena index `idx`), checked in O(1)
    /// without scanning its slots: `None` for a leaf, which must claim no
    /// children; otherwise exactly `2^d` slots.
    fn child_array_shape<'a>(&self, idx: u32, node: &'a Node) -> Result<Option<&'a [u32]>, String> {
        let Some(slots) = &node.children else {
            if node.n_children != 0 {
                return Err(format!(
                    "node {idx} claims {} children but has no child array",
                    node.n_children
                ));
            }
            return Ok(None);
        };
        if slots.len() != self.fanout {
            return Err(format!(
                "node {idx} child array has {} slots, fanout is {}",
                slots.len(),
                self.fanout
            ));
        }
        Ok(Some(slots))
    }

    /// The link from `parent` (at arena index `idx`) to the child in
    /// `slot`: back-pointer, recorded slot, depth one below, and a count
    /// no larger than the parent's.
    fn check_child_link(
        idx: u32,
        parent: &Node,
        slot: usize,
        child_idx: u32,
        child: &Node,
    ) -> Result<(), String> {
        if child.parent != idx {
            return Err(format!("child {child_idx} of {idx} points back to {}", child.parent));
        }
        if child.slot_in_parent as usize != slot {
            return Err(format!(
                "child {child_idx} in slot {slot} records slot {}",
                child.slot_in_parent
            ));
        }
        if child.depth != parent.depth + 1 {
            return Err(format!(
                "child {child_idx} depth {} under parent depth {}",
                child.depth, parent.depth
            ));
        }
        if child.summary.count > parent.summary.count {
            return Err(format!(
                "child {child_idx} count {} exceeds parent count {}",
                child.summary.count, parent.summary.count
            ));
        }
        Ok(())
    }

    /// The budget may be exceeded only transiently inside `insert()`;
    /// externally observable states always fit.
    fn check_budget(&self) -> Result<(), String> {
        if self.bytes_used > self.config().memory_budget {
            return Err(format!(
                "bytes_used {} exceeds budget {}",
                self.bytes_used,
                self.config().memory_budget
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::node::{Node, NIL};
    use crate::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
    use proptest::prelude::*;

    /// A sound 2-D tree with at least two children under the root.
    fn sound_tree() -> MemoryLimitedQuadtree {
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(1 << 16)
            .strategy(InsertionStrategy::Eager)
            .lambda(3)
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for (x, y, v) in [(1.0, 1.0, 5.0), (999.0, 999.0, 9.0), (1.0, 999.0, 7.0)] {
            m.insert(&[x, y], v).unwrap();
        }
        m.check_invariants().unwrap();
        m
    }

    #[test]
    fn shared_child_is_reachable_twice() {
        let mut m = sound_tree();
        let root = m.root;
        let slots = m.arena.get_mut(root).children.as_mut().unwrap();
        let live: Vec<usize> = (0..slots.len()).filter(|&s| slots[s] != NIL).collect();
        // Point the second live slot at the first slot's child; the slot
        // count (and so `n_children`) is unchanged.
        slots[live[1]] = slots[live[0]];
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("reachable twice"), "{err}");
    }

    #[test]
    fn orphaned_live_node_is_unreachable() {
        let mut m = sound_tree();
        let root = m.root;
        m.arena.alloc(Node::new(root, 0, 1));
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("live arena nodes but") && err.contains("reachable"), "{err}");
    }

    #[test]
    fn skewed_byte_accounting_is_caught() {
        let mut m = sound_tree();
        m.bytes_used += 1;
        let err = m.check_invariants().unwrap_err();
        assert!(err.starts_with("bytes_used") && err.contains("recomputation"), "{err}");
    }

    /// The arena indices on the last insert's root-to-leaf path.
    fn last_insert_path(m: &MemoryLimitedQuadtree) -> Vec<u32> {
        let grid = m.last_insert.grid.expect("an insert happened");
        let mut path = vec![m.root];
        let mut node = m.arena.get(m.root);
        while let Some(child) = node.child(grid.child_slot(u32::from(node.depth))) {
            path.push(child);
            node = m.arena.get(child);
        }
        path
    }

    /// Breaks one link of path node `idx`: its parent link, its slot, its
    /// depth, or (not at the root) its count, which goes above its
    /// parent's.
    fn corrupt_path_node(m: &mut MemoryLimitedQuadtree, idx: u32, kind: usize) {
        let fanout = m.fanout;
        let parent = m.arena.get(idx).parent;
        let parent_count = (parent != NIL).then(|| m.arena.get(parent).summary.count);
        let node = m.arena.get_mut(idx);
        match (kind, parent_count) {
            (0, _) => node.parent = node.parent.wrapping_add(1),
            (1, _) => node.depth += 1,
            (2, Some(_)) => {
                node.slot_in_parent = ((node.slot_in_parent as usize + 1) % fanout) as u16;
            }
            (_, Some(count)) => node.summary.count = count + 1,
            // The root has no slot or count to break against a parent.
            (_, None) => node.depth += 1,
        }
    }

    fn arb_strategy() -> impl Strategy<Value = InsertionStrategy> {
        prop_oneof![
            Just(InsertionStrategy::Eager),
            (0.001..0.5f64).prop_map(|alpha| InsertionStrategy::Lazy { alpha }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flagship property: any sequence of insertions in any
        /// dimensionality, strategy, and (tight) budget leaves the tree
        /// structurally sound and inside its budget.
        #[test]
        fn invariants_hold_after_arbitrary_insertions(
            dims in 1usize..4,
            strategy in arb_strategy(),
            budget_slack in 0usize..4096,
            lambda in 2u8..8,
            points in prop::collection::vec(
                (prop::collection::vec(0.0..1000.0f64, 3), 0.0..1e4f64), 1..300),
        ) {
            let space = Space::cube(dims, 0.0, 1000.0).unwrap();
            let budget = MlqConfig::min_budget(&space, lambda) + budget_slack;
            let config = MlqConfig::builder(space)
                .memory_budget(budget)
                .strategy(strategy)
                .lambda(lambda)
                .build()
                .unwrap();
            let mut m = MemoryLimitedQuadtree::new(config).unwrap();
            for (coords, value) in &points {
                m.insert(&coords[..dims], *value).unwrap();
            }
            m.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(m.root_summary().count, points.len() as u64);
        }

        /// The per-insert check never fails where the full walk passes,
        /// and catches any single broken link on the last insert's path.
        #[test]
        fn last_insert_check_agrees_with_the_full_walk(
            (dims, strategy) in (prop_oneof![1usize..=4, Just(7usize)], arb_strategy()),
            (budget_slack, lambda) in (0usize..4096, 2u8..8),
            points in prop::collection::vec(
                (prop::collection::vec(0.0..1000.0f64, 7), 0.0..1e4f64), 1..300),
            (pick, kind) in (0usize..64, 0usize..4),
        ) {
            let space = Space::cube(dims, 0.0, 1000.0).unwrap();
            let budget = MlqConfig::min_budget(&space, lambda) + budget_slack;
            let config = MlqConfig::builder(space)
                .memory_budget(budget)
                .strategy(strategy)
                .lambda(lambda)
                .build()
                .unwrap();
            let mut m = MemoryLimitedQuadtree::new(config).unwrap();
            for (coords, value) in &points {
                m.insert(&coords[..dims], *value).unwrap();
                m.check_invariants().map_err(TestCaseError::fail)?;
                m.check_last_insert().map_err(TestCaseError::fail)?;
            }
            let path = last_insert_path(&m);
            let idx = path[pick % path.len()];
            corrupt_path_node(&mut m, idx, kind);
            prop_assert!(m.check_last_insert().is_err(), "corruption {kind} of node {idx} missed");
        }

        /// Predictions always fall inside the observed value range: block
        /// averages cannot extrapolate.
        #[test]
        fn predictions_bounded_by_observed_values(
            points in prop::collection::vec(
                (prop::collection::vec(0.0..1000.0f64, 2), 0.0..1e4f64), 1..100),
            query in prop::collection::vec(0.0..1000.0f64, 2),
            beta in 1u64..20,
        ) {
            let space = Space::cube(2, 0.0, 1000.0).unwrap();
            let config = MlqConfig::builder(space)
                .memory_budget(1 << 16)
                .beta(beta)
                .build()
                .unwrap();
            let mut m = MemoryLimitedQuadtree::new(config).unwrap();
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (coords, value) in &points {
                m.insert(coords, *value).unwrap();
                lo = lo.min(*value);
                hi = hi.max(*value);
            }
            let p = m.predict(&query).unwrap().expect("model has data");
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }

        /// Compression preserves the root summary (total knowledge of the
        /// data distribution is never lost, only resolution).
        #[test]
        fn compression_preserves_root_summary(
            points in prop::collection::vec(
                (prop::collection::vec(0.0..1000.0f64, 2), 0.0..1e4f64), 1..200),
        ) {
            let space = Space::cube(2, 0.0, 1000.0).unwrap();
            let config = MlqConfig::builder(space)
                .memory_budget(1 << 16)
                .build()
                .unwrap();
            let mut m = MemoryLimitedQuadtree::new(config).unwrap();
            for (coords, value) in &points {
                m.insert(coords, *value).unwrap();
            }
            let before = m.root_summary();
            m.compress();
            prop_assert_eq!(m.root_summary(), before);
            m.check_invariants().map_err(TestCaseError::fail)?;
        }
    }
}
