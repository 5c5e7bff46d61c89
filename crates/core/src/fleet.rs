//! Fleet-level, traffic-normalized SSEG eviction across many models.
//!
//! The paper sizes one quadtree for one UDF (~1.8 KB, §6). A catalog
//! serving thousands of UDF × tenant models instead holds a *single*
//! global byte budget, and the question becomes: when the fleet is over
//! budget, which leaf — across every model — is cheapest to forget?
//!
//! The answer extends Eq. 9 unchanged: evicting leaf `b` of model `m`
//! costs `SSEG(b)` of *that model's* accuracy, but the fleet only pays
//! that cost when model `m` is actually queried. Weighting each leaf's
//! SSEG by its model's share of recent predict traffic
//! (`key = weight(m) · SSEG(b)`) makes the global pass evict the leaves
//! with the least traffic-weighted error contribution first: cold
//! models give up detail before hot models give up anything.
//!
//! This module holds the crate's only SSEG eviction loop: single-model
//! compression ([`crate::compress`]) is the same pass over one model of
//! weight 1.0. Candidates are totally ordered by
//! `(key, weight, model index, root path)`, where the root path is a
//! structure-intrinsic leaf identity and the model index is the caller's
//! (sorted) model ordering. Priorities never go stale within a pass:
//! summaries are cumulative, so evicting one leaf changes no other
//! candidate's key.
//!
//! A pass evicts a handful of a tree's ~1,000 leaves, so it does not
//! order them all. One scan keeps the 16 smallest candidates in a sorted
//! shortlist; every leaf left out is larger than the largest one kept,
//! so the shortlist pops in the global order until that bound is popped.
//! Cascaded parents join the shortlist. Past the bound the pass rescans
//! with twice the room, so evicting E leaves costs O(log E) scans.

use crate::node::NIL;
use crate::tree::MemoryLimitedQuadtree;
use crate::MlqError;
use std::cmp::Ordering;

/// One model's view into a fleet eviction pass: the tree plus its
/// traffic weight (typically its share of predict traffic since the
/// last arbitration round; any finite non-negative scale works — only
/// the relative ordering of weights matters).
#[derive(Debug)]
pub struct FleetModel<'a> {
    /// Traffic weight; finite and `>= 0`. A weight of exactly `0.0`
    /// marks a traffic-zero model whose leaves are always evicted
    /// before any positively weighted model loses a leaf.
    pub weight: f64,
    /// The model itself, mutated in place by the pass.
    pub model: &'a mut MemoryLimitedQuadtree,
}

/// Per-model share of a [`FleetEvictionReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelEviction {
    /// Leaves evicted from this model.
    pub nodes_freed: usize,
    /// Accounted bytes reclaimed from this model.
    pub bytes_freed: usize,
}

/// Outcome of one cross-model eviction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvictionReport {
    /// Total leaves evicted across the fleet.
    pub nodes_freed: usize,
    /// Total accounted bytes reclaimed.
    pub bytes_freed: usize,
    /// Per-model breakdown, index-aligned with the input slice.
    pub per_model: Vec<ModelEviction>,
    /// True when the fleet fits `global_budget` after the pass. False
    /// only when every model is already down to its root and the sum of
    /// root nodes still exceeds the budget.
    pub fit: bool,
}

/// One leaf's SSEG and structure-intrinsic identity, for diagnostics
/// and fleet-level arbitration previews.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSseg {
    /// `SSEG(b) = C(b)·(AVG(parent) − AVG(b))²` (Eq. 9).
    pub sseg: f64,
    /// The slot path from the root down to the leaf — the same
    /// snapshot-stable identity compression uses to break ties.
    pub path: Vec<u16>,
}

impl MemoryLimitedQuadtree {
    /// Every non-root leaf's SSEG, sorted ascending by
    /// `(sseg, root path)` — exactly the order a compression pass would
    /// evict them in. This is the per-model export a fleet arbiter (or
    /// an operator's diagnostics) ranks models with.
    #[must_use]
    pub fn leaf_ssegs(&self) -> Vec<LeafSseg> {
        let root = self.root;
        let mut out: Vec<LeafSseg> = self
            .arena
            .iter_live()
            .filter(|&(idx, node)| idx != root && node.is_leaf())
            .map(|(idx, node)| {
                let parent_avg = self.arena.get(node.parent).summary.avg();
                LeafSseg { sseg: node.summary.sseg(parent_avg), path: self.root_path(idx) }
            })
            .collect();
        out.sort_unstable_by(|a, b| a.sseg.total_cmp(&b.sseg).then_with(|| a.path.cmp(&b.path)));
        out
    }
}

/// Shortlist entry for the eviction pass. Ordered ascending by
/// `(key, weight, model, root path)`:
///
/// * `key = weight · sseg` — the traffic-weighted accuracy cost of the
///   eviction;
/// * `weight` next, so a traffic-zero model's leaves (key `0.0`
///   regardless of SSEG) drain before a hot model's zero-SSEG leaves
///   (also key `0.0`, but positive weight);
/// * the caller's model index, then the leaf's root path, so the order
///   is total and snapshot-stable.
///
/// The path tie-break must be *structure-intrinsic*: arena indices are
/// recycled by eviction and renumbered by a snapshot restore, so two
/// behaviorally identical trees can disagree on them. The slot path from
/// the root depends only on which blocks exist — a restored tree evicts
/// exactly the leaves the live tree would have, which is what the serving
/// layer's crash-recovery equivalence invariant rests on. The path is
/// never stored: exact `(key, weight, model)` ties compare it through the
/// tree's parent links ([`MemoryLimitedQuadtree::cmp_root_paths`]), so a
/// candidate is plain data and a scan allocates nothing per leaf.
#[derive(Debug, Clone, Copy)]
struct FleetCandidate {
    key: f64,
    weight: f64,
    model: usize,
    node: u32,
}

impl FleetCandidate {
    fn cmp(&self, other: &Self, models: &[FleetModel<'_>]) -> Ordering {
        // Keys and weights are finite and non-negative (validated and
        // normalized at entry), so total_cmp is a plain total order and
        // -0.0 cannot sort below 0.0.
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.weight.total_cmp(&other.weight))
            .then_with(|| self.model.cmp(&other.model))
            .then_with(|| models[self.model].model.cmp_root_paths(self.node, other.node))
    }
}

/// Evicts leaves across `models` — globally, in ascending
/// traffic-weighted SSEG order — until their summed accounted bytes fit
/// `global_budget`.
///
/// Each model's candidates are keyed `weight · SSEG`; cascaded parents
/// (a node whose last child was evicted) rejoin the queue with their
/// model's weight, exactly as in the single-model pass. Roots are never
/// evicted, so the floor is one node per model. Models that lost leaves
/// get their compression counters bumped and (for the lazy strategy)
/// their had-compression latch set, the same bookkeeping as
/// [`MemoryLimitedQuadtree::compress`].
///
/// A no-op (already within budget) returns an all-zero report with
/// `fit: true`.
///
/// # Errors
///
/// [`MlqError::InvalidConfig`] when any weight is NaN, infinite, or
/// negative.
pub fn evict_to_global_budget(
    models: &mut [FleetModel<'_>],
    global_budget: usize,
) -> Result<FleetEvictionReport, MlqError> {
    let start = std::time::Instant::now();
    for fm in models.iter() {
        if !fm.weight.is_finite() || fm.weight < 0.0 {
            return Err(MlqError::InvalidConfig {
                reason: format!(
                    "fleet eviction weights must be finite and non-negative, got {}",
                    fm.weight
                ),
            });
        }
    }
    let report = evict_pass(models, global_budget, 0);

    // Same bookkeeping as a single-model pass, charged only to the
    // models that actually shed leaves; the elapsed time is split
    // evenly across them (the pass is one shared walk).
    let touched = report.per_model.iter().filter(|pm| pm.nodes_freed > 0).count();
    if touched > 0 {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let share = nanos / touched as u64;
        for (fm, pm) in models.iter_mut().zip(report.per_model.iter()) {
            if pm.nodes_freed > 0 {
                fm.model.set_had_compression(true);
                fm.model.note_compression(share, pm.nodes_freed as u64);
            }
        }
    }
    Ok(report)
}

/// The one SSEG eviction loop (paper Fig. 6, across models): evicts
/// leaves in ascending [`FleetCandidate`] order until at least
/// `min_freed` bytes are reclaimed *and* the models' summed bytes fit
/// `budget`, or only roots remain. Weights must already be finite and
/// non-negative. Counters and latches are the caller's business.
pub(crate) fn evict_pass(
    models: &mut [FleetModel<'_>],
    budget: usize,
    min_freed: usize,
) -> FleetEvictionReport {
    evict_pass_observed(models, budget, min_freed, |_, _, _| {})
}

/// [`evict_pass`], calling `on_evict(model index, model, leaf)` just
/// before each leaf is evicted.
pub(crate) fn evict_pass_observed(
    models: &mut [FleetModel<'_>],
    budget: usize,
    min_freed: usize,
    mut on_evict: impl FnMut(usize, &MemoryLimitedQuadtree, u32),
) -> FleetEvictionReport {
    let mut per_model = vec![ModelEviction::default(); models.len()];
    let mut total: usize = models.iter().map(|fm| fm.model.bytes_used()).sum();
    if min_freed == 0 && total <= budget {
        return FleetEvictionReport { nodes_freed: 0, bytes_freed: 0, per_model, fit: true };
    }

    // Fig. 6 line 1 queues every leaf. Here a scan shortlists the `cap`
    // smallest, sorted descending (minimum last); every leaf left out is
    // larger than the bound, the largest one scanned in. Keys never
    // change within a pass, so until the bound itself pops, the
    // shortlist's minimum is the global minimum. Then rescan with twice
    // the room.
    let mut shortlist: Vec<FleetCandidate> = Vec::new();
    let mut cap = 16;
    let mut bound = None;
    let mut rescan = true;
    let mut nodes_freed = 0usize;
    let mut bytes_freed = 0usize;
    while bytes_freed < min_freed || total > budget {
        if rescan {
            bound = scan_shortlist(models, cap, &mut shortlist);
            cap *= 2;
        }
        let Some(FleetCandidate { weight, model: mi, node, .. }) = shortlist.pop() else {
            break; // every model is down to its root
        };
        rescan = bound == Some((mi, node));
        on_evict(mi, models[mi].model, node);
        let m = &mut *models[mi].model;
        let (bytes, newly_leaf) = m.evict_leaf(node);
        total -= bytes;
        bytes_freed += bytes;
        nodes_freed += 1;
        per_model[mi].nodes_freed += 1;
        per_model[mi].bytes_freed += bytes;
        // Fig. 6 lines 5-7: a parent that became a leaf joins the queue
        // (unless it is the root).
        if let Some(parent) = newly_leaf {
            if parent != m.root {
                let grand = m.arena.get(parent).parent;
                debug_assert_ne!(grand, NIL);
                let parent_avg = m.arena.get(grand).summary.avg();
                let sseg = m.arena.get(parent).summary.sseg(parent_avg);
                let candidate =
                    FleetCandidate { key: weight * sseg, weight, model: mi, node: parent };
                let at = shortlist.partition_point(|c| c.cmp(&candidate, models).is_gt());
                shortlist.insert(at, candidate);
            }
        }
    }
    FleetEvictionReport { nodes_freed, bytes_freed, per_model, fit: total <= budget }
}

/// Refills `shortlist` with the `cap` smallest current candidates across
/// `models`, sorted descending. Returns the bound — the largest one,
/// as `(model, node)` — when some leaf did not fit, and `None` when the
/// shortlist holds every candidate.
fn scan_shortlist(
    models: &[FleetModel<'_>],
    cap: usize,
    shortlist: &mut Vec<FleetCandidate>,
) -> Option<(usize, u32)> {
    shortlist.clear();
    let mut capped = false;
    for (mi, fm) in models.iter().enumerate() {
        // Normalize -0.0 so the weight tie-break cannot distinguish it
        // from +0.0 (total_cmp would order -0.0 first).
        let weight = fm.weight + 0.0;
        let m = &*fm.model;
        for (idx, node) in m.arena.iter_live() {
            if idx == m.root || !node.is_leaf() {
                continue;
            }
            let parent_avg = m.arena.get(node.parent).summary.avg();
            let sseg = node.summary.sseg(parent_avg);
            let candidate = FleetCandidate { key: weight * sseg, weight, model: mi, node: idx };
            if shortlist.len() == cap {
                capped = true;
                if candidate.cmp(&shortlist[0], models).is_gt() {
                    continue;
                }
                shortlist.remove(0);
            }
            let at = shortlist.partition_point(|c| c.cmp(&candidate, models).is_gt());
            shortlist.insert(at, candidate);
        }
    }
    capped.then(|| (shortlist[0].model, shortlist[0].node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InsertionStrategy, MlqConfig, Space, NODE_BYTES};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The pass as first written: every candidate carries its
    /// materialized root path, and a `BinaryHeap` orders them. The
    /// lazy-path pass must evict the same leaves in the same order.
    struct PathCandidate {
        key: f64,
        weight: f64,
        model: usize,
        path: Vec<u16>,
        node: u32,
    }

    impl PartialEq for PathCandidate {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for PathCandidate {}

    impl PartialOrd for PathCandidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for PathCandidate {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key
                .total_cmp(&other.key)
                .then_with(|| self.weight.total_cmp(&other.weight))
                .then_with(|| self.model.cmp(&other.model))
                .then_with(|| self.path.cmp(&other.path))
        }
    }

    fn reference_evict_pass(
        models: &mut [FleetModel<'_>],
        budget: usize,
        min_freed: usize,
        mut on_evict: impl FnMut(usize, &MemoryLimitedQuadtree, u32),
    ) -> FleetEvictionReport {
        let mut per_model = vec![ModelEviction::default(); models.len()];
        let mut total: usize = models.iter().map(|fm| fm.model.bytes_used()).sum();
        if min_freed == 0 && total <= budget {
            return FleetEvictionReport { nodes_freed: 0, bytes_freed: 0, per_model, fit: true };
        }
        let mut seed: Vec<Reverse<PathCandidate>> = Vec::new();
        for (mi, fm) in models.iter().enumerate() {
            let weight = fm.weight + 0.0;
            let m = &*fm.model;
            for (idx, node) in m.arena.iter_live() {
                if idx == m.root || !node.is_leaf() {
                    continue;
                }
                let parent_avg = m.arena.get(node.parent).summary.avg();
                let sseg = node.summary.sseg(parent_avg);
                seed.push(Reverse(PathCandidate {
                    key: weight * sseg,
                    weight,
                    model: mi,
                    path: m.root_path(idx),
                    node: idx,
                }));
            }
        }
        let mut heap = BinaryHeap::from(seed);
        let mut nodes_freed = 0usize;
        let mut bytes_freed = 0usize;
        while bytes_freed < min_freed || total > budget {
            let Some(Reverse(PathCandidate { weight, model: mi, node, .. })) = heap.pop() else {
                break;
            };
            on_evict(mi, models[mi].model, node);
            let m = &mut *models[mi].model;
            let (bytes, newly_leaf) = m.evict_leaf(node);
            total -= bytes;
            bytes_freed += bytes;
            nodes_freed += 1;
            per_model[mi].nodes_freed += 1;
            per_model[mi].bytes_freed += bytes;
            if let Some(parent) = newly_leaf {
                if parent != m.root {
                    let grand = m.arena.get(parent).parent;
                    let parent_avg = m.arena.get(grand).summary.avg();
                    let sseg = m.arena.get(parent).summary.sseg(parent_avg);
                    heap.push(Reverse(PathCandidate {
                        key: weight * sseg,
                        weight,
                        model: mi,
                        path: m.root_path(parent),
                        node: parent,
                    }));
                }
            }
        }
        FleetEvictionReport { nodes_freed, bytes_freed, per_model, fit: total <= budget }
    }

    /// One fleet member: how to grow it, its weight, and whether to
    /// evict from a snapshot-restored (renumbered) copy.
    #[derive(Debug, Clone)]
    struct MemberSpec {
        lazy: bool,
        lambda: u8,
        budget: usize,
        points: Vec<(f64, f64, f64)>,
        weight: f64,
        restored: bool,
    }

    fn arb_member() -> impl Strategy<Value = MemberSpec> {
        (
            (any::<bool>(), 2u8..6, 2048usize..16384),
            prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64, 0u32..4), 0..400),
            (any::<bool>(), any::<bool>()),
            prop_oneof![Just(0.0), Just(-0.0), Just(0.5), Just(1.0), Just(3.0)],
            any::<bool>(),
        )
            .prop_map(
                |((lazy, lambda, budget), raw, (all_equal, coarse), weight, restored)| {
                    // All-equal costs make every SSEG zero: ties everywhere,
                    // decided by the root path alone. Coarse coordinates
                    // repeat points, so single-child chains whose SSEG is
                    // exactly zero form whatever the costs.
                    let snap = |c: f64| if coarse { (c / 125.0).floor() * 125.0 + 1.0 } else { c };
                    MemberSpec {
                        lazy,
                        lambda,
                        budget,
                        points: raw
                            .into_iter()
                            .map(|(x, y, v)| {
                                (
                                    snap(x),
                                    snap(y),
                                    if all_equal { 5.0 } else { f64::from(v) * 10.0 },
                                )
                            })
                            .collect(),
                        weight,
                        restored,
                    }
                },
            )
    }

    fn build_member(spec: &MemberSpec) -> MemoryLimitedQuadtree {
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let strategy = if spec.lazy {
            InsertionStrategy::Lazy { alpha: 0.05 }
        } else {
            InsertionStrategy::Eager
        };
        let config = MlqConfig::builder(space.clone())
            .memory_budget(spec.budget.max(MlqConfig::min_budget(&space, spec.lambda)))
            .strategy(strategy)
            .lambda(spec.lambda)
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for &(x, y, v) in &spec.points {
            m.insert(&[x, y], v).unwrap();
        }
        if spec.restored {
            m = MemoryLimitedQuadtree::from_snapshot(&m.snapshot()).unwrap();
        }
        m
    }

    type Pass = fn(
        &mut [FleetModel<'_>],
        usize,
        usize,
        &mut dyn FnMut(usize, &MemoryLimitedQuadtree, u32),
    ) -> FleetEvictionReport;

    /// What one pass did to a fleet.
    #[derive(Debug, PartialEq)]
    struct FleetRun {
        /// `(model, root path)` of each evicted leaf, in eviction order.
        order: Vec<(usize, Vec<u16>)>,
        report: FleetEvictionReport,
        /// The surviving trees.
        shapes: Vec<TreeShape>,
    }

    /// Runs `pass` over a fresh build of the fleet.
    fn run_fleet(specs: &[MemberSpec], budget_frac: f64, min_freed: usize, pass: Pass) -> FleetRun {
        let mut trees: Vec<MemoryLimitedQuadtree> = specs.iter().map(build_member).collect();
        let total: usize = trees.iter().map(MemoryLimitedQuadtree::bytes_used).sum();
        let budget = (total as f64 * budget_frac) as usize;
        let mut fleet: Vec<FleetModel<'_>> = trees
            .iter_mut()
            .zip(specs)
            .map(|(model, spec)| FleetModel { weight: spec.weight, model })
            .collect();
        let mut order = Vec::new();
        let report = pass(&mut fleet, budget, min_freed, &mut |mi, m, node| {
            order.push((mi, m.root_path(node)));
        });
        drop(fleet);
        FleetRun { order, report, shapes: trees.iter().map(shape).collect() }
    }

    type TreeShape = Vec<(Vec<u16>, u64)>;

    fn shape(m: &MemoryLimitedQuadtree) -> TreeShape {
        let mut paths: TreeShape =
            m.arena.iter_live().map(|(idx, node)| (m.root_path(idx), node.summary.count)).collect();
        paths.sort_unstable();
        paths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lazy_path_pass_matches_the_materialized_path_reference(
            specs in prop::collection::vec(arb_member(), 1..6),
            // A global budget well under the fleet's sum makes one pass
            // evict more leaves than two shortlist refills hold, with
            // cascades.
            budget_frac in prop_oneof![0.0..1.0f64, 0.0..0.3f64],
            min_freed in prop_oneof![Just(0usize), 1usize..4096],
        ) {
            let fast = run_fleet(&specs, budget_frac, min_freed, |f, b, m, log| {
                evict_pass_observed(f, b, m, log)
            });
            let slow = run_fleet(&specs, budget_frac, min_freed, |f, b, m, log| {
                reference_evict_pass(f, b, m, log)
            });
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn mass_eviction_matches_the_reference_leaf_for_leaf() {
        // Four members of 400 points each, squeezed to a quarter of their
        // sum: one call evicts hundreds of leaves, far past the first
        // shortlist and its refills. One member has flat costs (every
        // SSEG zero), one is snapshot-restored, one is lazy.
        let specs: Vec<MemberSpec> = (0..4u32)
            .map(|k| {
                let mut state = 0x9E37_79B9u32.wrapping_mul(k + 1);
                let mut coord = move || {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    f64::from(state >> 8) / f64::from(1u32 << 24) * 1000.0
                };
                MemberSpec {
                    lazy: k == 3,
                    lambda: 5,
                    budget: 1 << 20,
                    points: (0..400u32)
                        .map(|i| {
                            let cost = if k == 2 { 5.0 } else { f64::from(i % 4) * 10.0 };
                            (coord(), coord(), cost)
                        })
                        .collect(),
                    weight: [0.5, 1.0, 1.0, 3.0][k as usize],
                    restored: k == 1,
                }
            })
            .collect();
        let reference =
            run_fleet(&specs, 0.25, 0, |f, b, m, log| reference_evict_pass(f, b, m, log));
        assert!(reference.report.nodes_freed >= 200, "{} evicted", reference.report.nodes_freed);
        let observed = run_fleet(&specs, 0.25, 0, |f, b, m, log| evict_pass_observed(f, b, m, log));
        assert_eq!(observed, reference);

        // The public entry point runs that same pass.
        let mut trees: Vec<MemoryLimitedQuadtree> = specs.iter().map(build_member).collect();
        let total: usize = trees.iter().map(MemoryLimitedQuadtree::bytes_used).sum();
        let mut fleet: Vec<FleetModel<'_>> = trees
            .iter_mut()
            .zip(&specs)
            .map(|(model, spec)| FleetModel { weight: spec.weight, model })
            .collect();
        let report = evict_to_global_budget(&mut fleet, (total as f64 * 0.25) as usize).unwrap();
        drop(fleet);
        assert_eq!(report, reference.report);
        assert_eq!(trees.iter().map(shape).collect::<Vec<_>>(), reference.shapes);
    }

    #[test]
    fn root_path_order_matches_materialized_paths() {
        // Every pair of live nodes, including ancestor/descendant pairs
        // (where one path is a prefix of the other).
        let mut m = model(&grid(24, |i| f64::from(i % 5)));
        m = MemoryLimitedQuadtree::from_snapshot(&m.snapshot()).unwrap();
        let nodes: Vec<u32> = m.arena.iter_live().map(|(idx, _)| idx).collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(m.cmp_root_paths(a, b), m.root_path(a).cmp(&m.root_path(b)), "{a} {b}");
            }
        }
    }

    fn model(seed_values: &[(f64, f64, f64)]) -> MemoryLimitedQuadtree {
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(1 << 20)
            .strategy(InsertionStrategy::Eager)
            .lambda(3)
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for &(x, y, v) in seed_values {
            m.insert(&[x, y], v).unwrap();
        }
        m
    }

    fn grid(n: u32, value: impl Fn(u32) -> f64) -> Vec<(f64, f64, f64)> {
        (0..n)
            .map(|i| (f64::from(i % 8) * 125.0 + 1.0, f64::from(i / 8) * 125.0 + 1.0, value(i)))
            .collect()
    }

    #[test]
    fn fits_budget_and_reports_per_model() {
        let mut a = model(&grid(32, f64::from));
        let mut b = model(&grid(32, |i| f64::from(i) * 3.0));
        let before: usize = a.bytes_used() + b.bytes_used();
        let budget = before / 2;
        let mut fleet =
            [FleetModel { weight: 0.5, model: &mut a }, FleetModel { weight: 0.5, model: &mut b }];
        let report = evict_to_global_budget(&mut fleet, budget).unwrap();
        assert!(report.fit);
        assert_eq!(report.bytes_freed, before - (a.bytes_used() + b.bytes_used()));
        assert!(a.bytes_used() + b.bytes_used() <= budget);
        assert_eq!(
            report.per_model.iter().map(|pm| pm.bytes_freed).sum::<usize>(),
            report.bytes_freed
        );
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn zero_weight_model_drains_before_hot_model_loses_anything() {
        let mut cold = model(&grid(32, f64::from));
        let mut hot = model(&grid(32, |i| f64::from(i) * 2.0));
        let hot_nodes = hot.node_count();
        // A budget the hot model alone can satisfy: only the cold model
        // should shrink.
        let budget = hot.bytes_used() + cold.bytes_used() / 2;
        let mut fleet = [
            FleetModel { weight: 0.0, model: &mut cold },
            FleetModel { weight: 1.0, model: &mut hot },
        ];
        let report = evict_to_global_budget(&mut fleet, budget).unwrap();
        assert!(report.fit);
        assert_eq!(report.per_model[1], ModelEviction::default(), "hot model untouched");
        assert_eq!(hot.node_count(), hot_nodes);
        assert!(report.per_model[0].nodes_freed > 0);
    }

    #[test]
    fn impossible_budget_reports_unfit_but_keeps_roots() {
        let mut a = model(&grid(8, f64::from));
        let mut b = model(&grid(8, f64::from));
        let mut fleet =
            [FleetModel { weight: 1.0, model: &mut a }, FleetModel { weight: 1.0, model: &mut b }];
        let report = evict_to_global_budget(&mut fleet, NODE_BYTES).unwrap();
        assert!(!report.fit);
        assert_eq!(a.node_count(), 1);
        assert_eq!(b.node_count(), 1);
        assert_eq!(a.bytes_used() + b.bytes_used(), 2 * NODE_BYTES);
    }

    #[test]
    fn rejects_invalid_weights() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut a = model(&grid(4, f64::from));
            let mut fleet = [FleetModel { weight: bad, model: &mut a }];
            assert!(matches!(
                evict_to_global_budget(&mut fleet, 0),
                Err(MlqError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn negative_zero_weight_ties_with_positive_zero() {
        // -0.0 must behave exactly like 0.0: the model-index tie-break
        // decides, not the sign bit.
        let build = |w0: f64, w1: f64| {
            let mut a = model(&grid(16, |_| 5.0));
            let mut b = model(&grid(16, |_| 5.0));
            let budget = (a.bytes_used() + b.bytes_used()) / 2;
            let mut fleet = [
                FleetModel { weight: w0, model: &mut a },
                FleetModel { weight: w1, model: &mut b },
            ];
            let report = evict_to_global_budget(&mut fleet, budget).unwrap();
            (report.per_model[0], report.per_model[1])
        };
        assert_eq!(build(-0.0, 0.0), build(0.0, 0.0));
        assert_eq!(build(0.0, -0.0), build(0.0, 0.0));
    }

    #[test]
    fn leaf_ssegs_sorted_and_matches_eviction_order() {
        let mut m = model(&grid(32, f64::from));
        let ssegs = m.leaf_ssegs();
        assert!(!ssegs.is_empty());
        assert!(ssegs.windows(2).all(|w| w[0].sseg <= w[1].sseg));
        // The globally smallest-SSEG leaf is the first one a
        // single-model fleet pass evicts.
        let first = ssegs[0].clone();
        let budget = m.bytes_used() - 1;
        let mut fleet = [FleetModel { weight: 1.0, model: &mut m }];
        evict_to_global_budget(&mut fleet, budget).unwrap();
        assert!(!m.leaf_ssegs().contains(&first));
    }
}
