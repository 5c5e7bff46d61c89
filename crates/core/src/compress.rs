//! Model compression (paper §4.4, Fig. 6).
//!
//! When an insertion pushes the tree over its byte budget, leaves are
//! evicted bottom-up in ascending order of
//! `SSEG(b) = C(b)·(AVG(parent) − AVG(b))²` (Eq. 9) — the exact increase in
//! TSSENC (Eq. 6) caused by dropping the leaf — until at least a `γ`
//! fraction of the budget has been freed *and* the tree fits the budget
//! again. When a node loses its last child it becomes a leaf and joins the
//! queue, making the pass incremental exactly as in the paper. The root is
//! never evicted.
//!
//! Eq. 9 depends only on a leaf's own summary and its parent's average,
//! both of which are unchanged by evicting *other* leaves (summaries are
//! cumulative: a parent already includes its children's points). Priorities
//! therefore never go stale within a pass and a plain binary min-heap
//! computes the same result as recomputing SSEG after every removal.
//!
//! The heap loop itself is the fleet eviction pass ([`crate::fleet`]):
//! compressing one tree is fleet eviction over a single model of
//! weight 1.0.

use crate::fleet::{evict_pass_observed, FleetModel};
use crate::tree::MemoryLimitedQuadtree;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Outcome of one compression pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Number of nodes evicted.
    pub nodes_freed: usize,
    /// Accounted bytes reclaimed (node structs plus dropped child arrays).
    pub bytes_freed: usize,
}

impl MemoryLimitedQuadtree {
    /// The slot path from the root down to `node`: the structure-intrinsic
    /// identity that breaks SSEG ties, so a snapshot-restored tree evicts
    /// exactly what the live tree would. The eviction pass compares it
    /// without materializing it ([`Self::cmp_root_paths`]); this form
    /// serves [`Self::leaf_ssegs`] and tests.
    pub(crate) fn root_path(&self, node: u32) -> Vec<u16> {
        let mut path = Vec::new();
        let mut cur = node;
        while cur != self.root {
            let n = self.arena.get(cur);
            path.push(n.slot_in_parent);
            cur = n.parent;
        }
        path.reverse();
        path
    }

    /// Orders two nodes by root path exactly as comparing their
    /// [`Self::root_path`]s would (slot by slot, a proper prefix first),
    /// but by walking parent links instead of materializing either path:
    /// lift the deeper node to the other's depth, then climb both to the
    /// children of their common ancestor and compare those slots.
    pub(crate) fn cmp_root_paths(&self, a: u32, b: u32) -> Ordering {
        let node = |idx: u32| self.arena.get(idx);
        let (depth_a, depth_b) = (node(a).depth, node(b).depth);
        let (mut a, mut b) = (a, b);
        while node(a).depth > depth_b {
            a = node(a).parent;
        }
        while node(b).depth > depth_a {
            b = node(b).parent;
        }
        if a == b {
            // One path is a prefix of the other: the shorter sorts first.
            return depth_a.cmp(&depth_b);
        }
        while node(a).parent != node(b).parent {
            a = node(a).parent;
            b = node(b).parent;
        }
        node(a).slot_in_parent.cmp(&node(b).slot_in_parent)
    }

    /// Runs one compression pass (paper Fig. 6) and reports what was freed.
    ///
    /// Normally invoked automatically by [`Self::insert`] when the budget
    /// is exceeded; public so callers can shrink a model eagerly (e.g.
    /// before serializing optimizer metadata).
    pub fn compress(&mut self) -> CompressionReport {
        self.compress_noting(None)
    }

    /// [`Self::compress`], appending the parent of every evicted leaf to
    /// `evicted_parents` when one is given (for [`Self::insert`]'s record
    /// of what it changed).
    pub(crate) fn compress_noting(
        &mut self,
        mut evicted_parents: Option<&mut Vec<u32>>,
    ) -> CompressionReport {
        let start = std::time::Instant::now();
        let budget = self.config().memory_budget;
        let gamma_target = (self.config().gamma * budget as f64).ceil() as usize;
        // Fig. 6 is the fleet pass over one model: with weight 1.0 the key
        // `1.0 · SSEG` is SSEG exactly, so the eviction order is
        // `(SSEG, root path)`. Line 2 frees at least `γ` of the budget,
        // with the operational extension that the pass also keeps going
        // until the tree actually fits its budget again.
        let report = evict_pass_observed(
            &mut [FleetModel { weight: 1.0, model: self }],
            budget,
            gamma_target,
            |_, m, leaf| {
                if let Some(parents) = evicted_parents.as_deref_mut() {
                    parents.push(m.arena.get(leaf).parent);
                }
            },
        );

        // A compression has now happened, whatever triggered it: the lazy
        // strategy's SSE threshold (Eq. 7) is in force from here on.
        self.set_had_compression(true);
        self.note_compression(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            report.nodes_freed as u64,
        );
        CompressionReport { nodes_freed: report.nodes_freed, bytes_freed: report.bytes_freed }
    }
}

#[cfg(test)]
mod tests {
    use crate::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};

    fn big_model(lambda: u8) -> MemoryLimitedQuadtree {
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(1 << 20)
            .strategy(InsertionStrategy::Eager)
            .lambda(lambda)
            .build()
            .unwrap();
        MemoryLimitedQuadtree::new(config).unwrap()
    }

    #[test]
    fn compress_frees_at_least_gamma_of_budget() {
        let mut m = big_model(6);
        for i in 0..64u32 {
            let x = f64::from(i % 8) * 125.0 + 1.0;
            let y = f64::from(i / 8) * 125.0 + 1.0;
            m.insert(&[x, y], f64::from(i)).unwrap();
        }
        let before = m.bytes_used();
        let gamma_target = (m.config().gamma * m.config().memory_budget as f64).ceil() as usize;
        let report = m.compress();
        assert!(report.bytes_freed >= gamma_target);
        assert_eq!(m.bytes_used(), before - report.bytes_freed);
        m.check_invariants().unwrap();
    }

    #[test]
    fn compress_evicts_lowest_sseg_first() {
        // Two depth-1 leaves: one agrees with the root average (low SSEG),
        // one diverges (high SSEG). Lambda 1 keeps the tree tiny.
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(1 << 20)
            .lambda(1)
            .gamma(0.000_001) // free as little as possible
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        // Quadrant (0,0): two points at value 100 -> diverges from mean.
        m.insert(&[1.0, 1.0], 100.0).unwrap();
        m.insert(&[2.0, 2.0], 100.0).unwrap();
        // Quadrant (1,1): one point near the overall mean -> low SSEG.
        m.insert(&[999.0, 999.0], 67.0).unwrap();
        // Root avg = 89, SSEG(q00) = 2*(100-89)^2 = 242,
        // SSEG(q11) = (67-89)^2 = 484... wait: avg = 267/3 = 89.
        // q11: (89-67)^2 = 484 * 1 = 484 > q00 242? Then q00 goes first.
        let report = m.compress();
        assert_eq!(report.nodes_freed, 1);
        // The evicted quadrant must be the one with the smaller SSEG.
        let q00 = m.predict_with_beta(&[1.0, 1.0], 1).unwrap().unwrap();
        let q11 = m.predict_with_beta(&[999.0, 999.0], 1).unwrap().unwrap();
        // q00 (SSEG 242) was evicted; its query now answers from the root.
        assert!((q00 - 89.0).abs() < 1.0, "q00 now served by root, got {q00}");
        assert_eq!(q11, 67.0, "q11 leaf survives");
    }

    #[test]
    fn paper_figure7_compression_order() {
        // Fig. 7: leaves B141(s=4,c=1), B144(s=6,c=1) under B14 with
        // AVG(B14)=5; B11 with AVG 9 under root with AVG 7 (c=2).
        // SSEG(B141) = (5-4)^2 = 1, SSEG(B144) = (6-5)^2 = 1,
        // SSEG(B11) = 2*(7-9)^2 = 8 in spirit — B141/B144 go first, and
        // removing both costs only TSSENC +2.
        let b141 = crate::Summary::from_values(&[4.0]);
        let b144 = crate::Summary::from_values(&[6.0]);
        let mut b14 = b141;
        b14.merge(&b144);
        assert_eq!(b141.sseg(b14.avg()), 1.0);
        assert_eq!(b144.sseg(b14.avg()), 1.0);
    }

    #[test]
    fn compress_handles_parent_cascades() {
        // A deep single path: evicting the lambda-depth leaf makes its
        // parent a leaf, and so on up the path.
        let mut m = big_model(6);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        assert_eq!(m.node_count(), 7);
        // Free essentially everything: gamma = 1.0 of a huge budget can't
        // be met, so the pass stops when only the root is left.
        let space = m.config().space.clone();
        let _ = space;
        let report = m.compress();
        assert_eq!(m.node_count(), 1, "only the root survives");
        assert_eq!(report.nodes_freed, 6);
        assert_eq!(m.bytes_used(), crate::NODE_BYTES);
        // Root summary still remembers the data.
        assert_eq!(m.root_summary().count, 1);
        assert_eq!(m.predict(&[1.0, 1.0]).unwrap(), Some(5.0));
        m.check_invariants().unwrap();
    }

    #[test]
    fn compress_on_root_only_tree_is_a_noop() {
        let mut m = big_model(6);
        let report = m.compress();
        assert_eq!(report.nodes_freed, 0);
        assert_eq!(report.bytes_freed, 0);
        assert_eq!(m.node_count(), 1);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Build the same model twice; compression must evict identically.
        let build = || {
            let mut m = big_model(3);
            for i in 0..32u32 {
                let x = f64::from(i % 8) * 125.0 + 1.0;
                let y = f64::from(i / 8) * 125.0 + 1.0;
                m.insert(&[x, y], 5.0).unwrap(); // all equal -> all SSEG ties
            }
            m.compress();
            let mut views: Vec<_> =
                m.nodes().iter().map(|v| (v.depth, v.slot_in_parent, v.summary.count)).collect();
            views.sort_unstable();
            views
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn tie_breaking_is_stable_across_snapshot_roundtrip() {
        // A restored tree has renumbered arena indices; the path-based
        // tie-break must make it evict exactly the leaves the live tree
        // evicts, or crash recovery would diverge under compression.
        let mut live = big_model(3);
        for i in 0..32u32 {
            let x = f64::from(i % 8) * 125.0 + 1.0;
            let y = f64::from(i / 8) * 125.0 + 1.0;
            live.insert(&[x, y], 5.0).unwrap(); // all equal -> all SSEG ties
        }
        let mut restored = MemoryLimitedQuadtree::from_snapshot(&live.snapshot()).unwrap();
        live.compress();
        restored.compress();

        let structure = |m: &MemoryLimitedQuadtree| {
            let mut paths: Vec<(Vec<u16>, u64)> = m
                .arena
                .iter_live()
                .map(|(idx, node)| (m.root_path(idx), node.summary.count))
                .collect();
            paths.sort_unstable();
            paths
        };
        assert_eq!(structure(&live), structure(&restored));
    }
}
