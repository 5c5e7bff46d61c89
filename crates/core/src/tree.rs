//! The memory-limited quadtree itself: prediction (paper Fig. 3) and data
//! point insertion (paper Fig. 4). Compression (paper Fig. 6) lives in
//! [`crate::compress`].

use crate::compress::CompressionReport;
use crate::config::{InsertionStrategy, MlqConfig};
use crate::counters::{CounterCells, ModelCounters};
use crate::error::MlqError;
use crate::node::{Arena, Node, NodeView, NIL};
use crate::space::GridPoint;
use crate::summary::{ssenc, Summary};
use crate::{child_array_bytes, NODE_BYTES};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Source of unique tree identities, used to pair a live tree with the
/// [`FrozenTree`](crate::FrozenTree)s it produced (see [`FreezeState`]).
/// Starts at 1 so 0 can mean "no tree" (e.g. merged snapshots).
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(1);

/// Cap on the summary-dirty log between freezes. Once an inter-freeze
/// write burst exceeds this many path-node touches the log overflows and
/// the next [`MemoryLimitedQuadtree::refreeze`] falls back to a full
/// rebuild — correctness never depends on the log, only the incremental
/// fast path does. At the default `λ = 6` an observation logs at most 7
/// entries, so a step feeding one tree over ~290 observations rebuilds it.
const DIRTY_LIMIT: usize = 2048;

/// Bookkeeping that lets [`MemoryLimitedQuadtree::refreeze`] patch the
/// previous snapshot instead of rebuilding it: which snapshot is current
/// (`seq`), which arena nodes' summaries changed since it was taken
/// (`dirty`), and the arena → BFS-slab index map captured at the last
/// full freeze.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreezeState {
    /// Sequence number of the most recent freeze taken from this tree.
    pub(crate) seq: u64,
    /// Arena indices whose summaries changed since that freeze
    /// (duplicates allowed; patching twice is idempotent).
    pub(crate) dirty: Vec<u32>,
    /// Set when the log hit [`DIRTY_LIMIT`]; forces a full rebuild.
    pub(crate) dirty_overflow: bool,
    /// Arena index → BFS slab index, captured at the last full freeze
    /// ([`crate::node::NIL`] for slots not in the snapshot).
    pub(crate) bfs_index: Vec<u32>,
    /// The `structure_epoch` the map was built at.
    pub(crate) map_epoch: u64,
    /// False until the first full freeze builds the map.
    pub(crate) map_built: bool,
}

/// What the most recent [`MemoryLimitedQuadtree::insert`] changed, kept
/// for [`MemoryLimitedQuadtree::check_last_insert`]: the grid point it
/// descended to, and the nodes whose child arrays it created a child in
/// or its compression evicted a leaf from (sorted and deduplicated after
/// a compression; some may since have been freed). The buffer is reused
/// across inserts, so recording allocates nothing at steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct LastInsert {
    /// The inserted point on the grid; `None` before the first insert.
    pub(crate) grid: Option<GridPoint>,
    /// Arena indices of the nodes whose child arrays changed.
    pub(crate) changed: Vec<u32>,
}

/// What one insertion did to the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertOutcome {
    /// Nodes created along the descent.
    pub nodes_created: usize,
    /// Depth of the deepest node the point was recorded in.
    pub depth_reached: u8,
    /// Set when the insertion pushed the tree over budget and triggered a
    /// compression pass.
    pub compression: Option<CompressionReport>,
}

/// The self-tuning, memory-limited quadtree cost model (paper §4).
///
/// See the [crate-level documentation](crate) for the algorithmic overview
/// and an example. Not `Sync`: prediction updates internal APC counters
/// through a `Cell`; use one model per optimizer thread, or publish an
/// immutable [`FrozenTree`](crate::FrozenTree) via [`Self::freeze`] for
/// shared lock-free reads. `Clone` duplicates the whole arena — cheap in
/// absolute terms (the arena is bounded by the byte budget) but O(nodes).
#[derive(Debug, Clone)]
pub struct MemoryLimitedQuadtree {
    config: MlqConfig,
    pub(crate) arena: Arena,
    pub(crate) root: u32,
    pub(crate) fanout: usize,
    pub(crate) bytes_used: usize,
    had_compression: bool,
    counters: CounterCells,
    /// BFS work queue reused across [`Self::freeze`] calls so repeated
    /// snapshots don't regrow it from cold.
    freeze_scratch: RefCell<Vec<u32>>,
    /// Unique identity tying this tree (and its clones, which share the
    /// cloned freeze state) to the snapshots it froze.
    pub(crate) tree_id: u64,
    /// Bumped on every structural change (node created, leaf evicted,
    /// clear, merge); an unchanged epoch is what licenses the
    /// copy-on-write [`Self::refreeze`] fast path.
    pub(crate) structure_epoch: u64,
    /// Incremental-refreeze bookkeeping (see [`FreezeState`]).
    freeze_state: RefCell<FreezeState>,
    /// What the last insert changed (see [`LastInsert`]).
    pub(crate) last_insert: LastInsert,
}

impl MemoryLimitedQuadtree {
    /// Creates an empty model.
    ///
    /// The tree immediately contains the root node covering the entire
    /// space, so it "can start making predictions immediately after the
    /// first data point is inserted" (paper §1).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures (see
    /// [`MlqConfig::builder`]).
    pub fn new(config: MlqConfig) -> Result<Self, MlqError> {
        config.validate()?;
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new(NIL, 0, 0));
        let fanout = config.space.fanout();
        Ok(MemoryLimitedQuadtree {
            config,
            arena,
            root,
            fanout,
            bytes_used: NODE_BYTES,
            had_compression: false,
            counters: CounterCells::default(),
            freeze_scratch: RefCell::new(Vec::new()),
            tree_id: NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed),
            structure_epoch: 0,
            freeze_state: RefCell::new(FreezeState::default()),
            last_insert: LastInsert::default(),
        })
    }

    /// The configuration the model was built with.
    #[must_use]
    pub fn config(&self) -> &MlqConfig {
        &self.config
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.arena.live()
    }

    /// Accounted bytes currently used by the tree.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The configured byte budget.
    #[must_use]
    pub fn memory_budget(&self) -> usize {
        self.config.memory_budget
    }

    /// Summary statistics of the root block (all data ever observed,
    /// including points whose nodes were later compressed away).
    #[must_use]
    pub fn root_summary(&self) -> Summary {
        self.arena.get(self.root).summary
    }

    /// Operation counts and timings backing APC / AUC (paper Eqs. 1–2).
    ///
    /// Reading the counters also marks them *observed*: optional
    /// bookkeeping such as freeze-duration timing is only paid for once
    /// something is actually watching (see [`Self::freeze`]).
    #[must_use]
    pub fn counters(&self) -> ModelCounters {
        self.counters.snapshot()
    }

    /// True once at least one compression pass has run (this is when the
    /// lazy strategy's SSE threshold becomes active, per paper Fig. 4).
    #[must_use]
    pub fn has_compressed(&self) -> bool {
        self.had_compression
    }

    /// The lazy-insertion partition threshold `th_SSE` currently in force
    /// (paper Eq. 7). Zero for the eager strategy and for the lazy strategy
    /// before the first compression.
    #[must_use]
    pub fn current_threshold(&self) -> f64 {
        match self.config.strategy {
            InsertionStrategy::Eager => 0.0,
            InsertionStrategy::Lazy { alpha } => {
                if self.had_compression {
                    alpha * self.arena.get(self.root).summary.sse()
                } else {
                    0.0
                }
            }
        }
    }

    /// Predicts the cost at `point` using the configured `β`
    /// (paper Fig. 3): the average of the deepest block on the point's
    /// root-to-leaf path holding at least `β` data points. Falls back to
    /// the root average when even the root has fewer than `β` points;
    /// returns `Ok(None)` only while the model has seen no data at all.
    ///
    /// # Errors
    ///
    /// [`MlqError::DimensionMismatch`] or [`MlqError::NonFiniteValue`] for
    /// malformed query points.
    pub fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.predict_with_beta(point, self.config.beta)
    }

    /// [`Self::predict`] with an explicit `β`, for experimentation.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predict`].
    pub fn predict_with_beta(&self, point: &[f64], beta: u64) -> Result<Option<f64>, MlqError> {
        let grid = self.config.space.grid_point(point)?;
        let start = Instant::now();

        let (answer, nodes_visited) = self.predict_inner(&grid, beta);

        self.counters.note_predict(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            nodes_visited,
        );
        Ok(answer.map(|node| node.summary.avg()))
    }

    /// The Fig. 3 descent on the live tree: the answering block (the
    /// deepest on the point's path holding at least `beta` data points,
    /// else the root) and the number of nodes visited. `None` while the
    /// model has seen no data. Touches no counters.
    pub(crate) fn predict_inner(&self, grid: &GridPoint, beta: u64) -> (Option<&Node>, u64) {
        let root = self.arena.get(self.root);
        if root.summary.count == 0 {
            return (None, 1);
        }
        let mut best = root;
        let mut cn = root;
        let mut visited = 1u64;
        // Counts are non-increasing along the path, so stop as soon as a
        // block falls below beta.
        while cn.summary.count >= beta {
            best = cn;
            let slot = grid.child_slot(u32::from(cn.depth));
            match cn.child(slot) {
                Some(child) => {
                    cn = self.arena.get(child);
                    visited += 1;
                }
                None => break,
            }
        }
        (Some(best), visited)
    }

    /// Inserts the observed actual cost `value` at `point` (paper Fig. 4),
    /// updating summaries along the descent, creating nodes per the
    /// configured strategy, and compressing if the byte budget is exceeded.
    ///
    /// # Errors
    ///
    /// [`MlqError::DimensionMismatch`] / [`MlqError::NonFiniteValue`] for
    /// malformed input; a non-finite `value` is rejected (a cost
    /// observation of NaN would poison every summary on the path).
    pub fn insert(&mut self, point: &[f64], value: f64) -> Result<InsertOutcome, MlqError> {
        if !value.is_finite() {
            return Err(MlqError::NonFiniteValue { context: "cost value" });
        }
        let grid = self.config.space.grid_point(point)?;
        let start = Instant::now();
        self.last_insert.grid = Some(grid);
        self.last_insert.changed.clear();

        // Line 2 of Fig. 4: update the root, then derive the threshold —
        // the root's SSE reflects the new point.
        self.arena.get_mut(self.root).summary.add(value);
        self.note_dirty(self.root);
        let th = self.current_threshold();
        let lambda = u32::from(self.config.lambda);

        let mut cn = self.root;
        let mut nodes_created = 0usize;
        let mut depth_reached;
        let lazy_skip;
        loop {
            let node = self.arena.get(cn);
            depth_reached = node.depth;
            let depth = u32::from(node.depth);
            // Fig. 4 line 3-4: continue while the block is worth splitting
            // or the point must be routed into an existing subtree.
            let descend = (node.summary.sse() >= th && depth < lambda) || !node.is_leaf();
            if !descend || depth >= lambda {
                // A leaf short of λ that th_SSE declined to split is work
                // the lazy strategy saved (Eq. 7).
                lazy_skip = !descend && depth < lambda && th > 0.0;
                break;
            }
            let slot = grid.child_slot(depth);
            let child = match self.arena.get(cn).child(slot) {
                Some(c) => c,
                None => {
                    nodes_created += 1;
                    self.last_insert.changed.push(cn);
                    self.create_child(cn, slot)
                }
            };
            self.arena.get_mut(child).summary.add(value);
            self.note_dirty(child);
            cn = child;
        }

        self.counters
            .note_insert(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX), lazy_skip);

        // "Compression is triggered when the memory limit is reached."
        // The pass accounts its own time and evictions, and notes the
        // parent of every leaf it evicts.
        let compression = (self.bytes_used > self.config.memory_budget).then(|| {
            let mut changed = std::mem::take(&mut self.last_insert.changed);
            let report = self.compress_noting(Some(&mut changed));
            // One check per changed array, however many children it lost.
            changed.sort_unstable();
            changed.dedup();
            self.last_insert.changed = changed;
            report
        });

        Ok(InsertOutcome { nodes_created, depth_reached, compression })
    }

    /// Convenience: inserts a batch of `(point, value)` observations.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first insertion error.
    pub fn train<'a, I>(&mut self, data: I) -> Result<(), MlqError>
    where
        I: IntoIterator<Item = (&'a [f64], f64)>,
    {
        for (point, value) in data {
            self.insert(point, value)?;
        }
        Ok(())
    }

    /// Creates the child of `parent` at `slot`, charging its memory.
    /// Internal building block for snapshot restore and tree merging.
    pub(crate) fn materialize_child(&mut self, parent: u32, slot: usize) -> u32 {
        self.create_child(parent, slot)
    }

    /// Restores the lazy-threshold activation flag (snapshot restore).
    pub(crate) fn set_had_compression(&mut self, value: bool) {
        self.had_compression = value;
    }

    /// Records one compression pass: wall-clock time and the number of
    /// leaves evicted in SSEG order. Called by [`crate::compress`].
    pub(crate) fn note_compression(&self, nanos: u64, nodes_freed: u64) {
        self.counters.note_compression(nanos, nodes_freed);
    }

    /// Records one `freeze()` snapshot and its wall-clock time. Called by
    /// [`crate::frozen`].
    pub(crate) fn note_freeze(&self, nanos: u64) {
        self.counters.note_freeze(nanos);
    }

    /// True once someone has read [`Self::counters`] — freeze timing is
    /// only worth measuring then. Called by [`crate::frozen`].
    pub(crate) fn counters_observed(&self) -> bool {
        self.counters.is_observed()
    }

    /// The reusable BFS queue backing [`Self::freeze`].
    pub(crate) fn freeze_scratch(&self) -> &RefCell<Vec<u32>> {
        &self.freeze_scratch
    }

    /// The incremental-refreeze bookkeeping (see [`FreezeState`]).
    pub(crate) fn freeze_state(&self) -> &RefCell<FreezeState> {
        &self.freeze_state
    }

    /// Logs a summary change on arena node `idx` for the next
    /// [`Self::refreeze`]. Bounded by [`DIRTY_LIMIT`]; overflow just
    /// downgrades the next refreeze to a full rebuild.
    #[inline]
    fn note_dirty(&self, idx: u32) {
        let mut state = self.freeze_state.borrow_mut();
        if state.dirty_overflow {
            return;
        }
        if state.dirty.len() >= DIRTY_LIMIT {
            state.dirty_overflow = true;
            state.dirty.clear();
        } else {
            state.dirty.push(idx);
        }
    }

    /// Declares a structural (or bulk-summary) change that invalidates
    /// incremental refreezing of any outstanding snapshot. Called by every
    /// arena mutation that is not a logged single-path summary update.
    pub(crate) fn bump_structure_epoch(&mut self) {
        self.structure_epoch += 1;
    }

    fn create_child(&mut self, parent: u32, slot: usize) -> u32 {
        self.bump_structure_epoch();
        let depth = self.arena.get(parent).depth + 1;
        let child = self.arena.alloc(Node::new(parent, slot as u16, depth));
        self.bytes_used += NODE_BYTES;
        let fanout = self.fanout;
        let parent_node = self.arena.get_mut(parent);
        if parent_node.children.is_none() {
            parent_node.children = Some(vec![NIL; fanout].into_boxed_slice());
            self.bytes_used += child_array_bytes(self.config.space.dims());
        }
        let slots = parent_node.children.as_mut().expect("just ensured");
        debug_assert_eq!(slots[slot], NIL, "creating child over a live slot");
        slots[slot] = child;
        parent_node.n_children += 1;
        child
    }

    /// Unlinks and frees a leaf, reclaiming its bytes. Returns the bytes
    /// freed and whether the parent became a leaf. Used by compression.
    pub(crate) fn evict_leaf(&mut self, leaf: u32) -> (usize, Option<u32>) {
        self.bump_structure_epoch();
        let (parent, slot) = {
            let node = self.arena.get(leaf);
            debug_assert!(node.is_leaf(), "evicting an internal node");
            debug_assert_ne!(node.parent, NIL, "evicting the root");
            (node.parent, node.slot_in_parent as usize)
        };
        let mut freed = NODE_BYTES;
        let dims = self.config.space.dims();
        let parent_node = self.arena.get_mut(parent);
        let slots = parent_node.children.as_mut().expect("parent of a live child");
        debug_assert_eq!(slots[slot], leaf);
        slots[slot] = NIL;
        parent_node.n_children -= 1;
        let mut newly_leaf = None;
        if parent_node.n_children == 0 {
            parent_node.children = None;
            freed += child_array_bytes(dims);
            newly_leaf = Some(parent);
        }
        self.arena.free(leaf);
        self.bytes_used -= freed;
        (freed, newly_leaf)
    }

    /// Resets the model to its freshly constructed state (same
    /// configuration, no data, counters zeroed). An optimizer does this
    /// when a UDF is re-implemented and its history becomes meaningless.
    pub fn clear(&mut self) {
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new(NIL, 0, 0));
        self.arena = arena;
        self.root = root;
        self.bytes_used = NODE_BYTES;
        self.had_compression = false;
        self.counters.store(ModelCounters::default());
        self.bump_structure_epoch();
        self.last_insert.grid = None;
        self.last_insert.changed.clear();
        // Stale arena indices in the dirty log / BFS map would point into
        // the discarded arena; drop them with it.
        let mut state = self.freeze_state.borrow_mut();
        state.dirty.clear();
        state.dirty_overflow = false;
        state.map_built = false;
        state.bfs_index.clear();
    }

    /// Total SSENC over all non-full nodes — the paper's optimality
    /// criterion TSSENC (Eq. 6). Quadratic in tree size; diagnostics only.
    #[must_use]
    pub fn tssenc(&self) -> f64 {
        let mut total = 0.0;
        for (_, node) in self.arena.iter_live() {
            if node.n_children as usize == self.fanout {
                continue; // full nodes are excluded from NFB(qt)
            }
            let children: Vec<Summary> = match &node.children {
                None => Vec::new(),
                Some(slots) => slots
                    .iter()
                    .filter(|&&c| c != NIL)
                    .map(|&c| self.arena.get(c).summary)
                    .collect(),
            };
            total += ssenc(&node.summary, &children);
        }
        total
    }

    /// Read-only snapshots of all live nodes (diagnostics, tests,
    /// visualization).
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeView> {
        self.arena
            .iter_live()
            .map(|(_, n)| NodeView {
                depth: n.depth,
                summary: n.summary,
                n_children: n.n_children,
                slot_in_parent: n.slot_in_parent,
            })
            .collect()
    }

    /// Number of live nodes per depth (index = depth).
    #[must_use]
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.config.lambda as usize + 1];
        for (_, n) in self.arena.iter_live() {
            hist[n.depth as usize] += 1;
        }
        hist
    }

    /// Depth of the deepest live node.
    #[must_use]
    pub fn max_depth(&self) -> u8 {
        self.arena.iter_live().map(|(_, n)| n.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Space;

    fn model(budget: usize, strategy: InsertionStrategy, lambda: u8) -> MemoryLimitedQuadtree {
        let space = Space::cube(2, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(budget)
            .strategy(strategy)
            .lambda(lambda)
            .build()
            .unwrap();
        MemoryLimitedQuadtree::new(config).unwrap()
    }

    #[test]
    fn empty_model_predicts_none() {
        let m = model(4096, InsertionStrategy::Eager, 6);
        assert_eq!(m.predict(&[1.0, 2.0]).unwrap(), None);
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.bytes_used(), NODE_BYTES);
    }

    #[test]
    fn first_insertion_enables_prediction_everywhere() {
        // "MLQ can start making predictions immediately after the first
        // data point is inserted."
        let mut m = model(4096, InsertionStrategy::Eager, 6);
        m.insert(&[10.0, 10.0], 100.0).unwrap();
        // Far corner still predicts via the root.
        assert_eq!(m.predict(&[990.0, 990.0]).unwrap(), Some(100.0));
        // Same block predicts the value exactly.
        assert_eq!(m.predict(&[10.0, 10.0]).unwrap(), Some(100.0));
    }

    #[test]
    fn eager_insertion_builds_full_path() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 6);
        let out = m.insert(&[1.0, 1.0], 5.0).unwrap();
        assert_eq!(out.nodes_created, 6);
        assert_eq!(out.depth_reached, 6);
        assert_eq!(m.node_count(), 7); // root + 6
        assert_eq!(m.max_depth(), 6);
    }

    #[test]
    fn lambda_limits_depth() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 3);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        assert_eq!(m.max_depth(), 3);
    }

    #[test]
    fn eager_reuses_shared_prefix_of_paths() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 6);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        let n_before = m.node_count();
        // A nearby point shares high-level blocks.
        let out = m.insert(&[2.0, 2.0], 6.0).unwrap();
        assert!(out.nodes_created < 6, "shared prefix must be reused");
        assert!(m.node_count() < n_before + 6);
    }

    #[test]
    fn summaries_accumulate_along_path() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 4);
        m.insert(&[1.0, 1.0], 3.0).unwrap();
        m.insert(&[999.0, 999.0], 7.0).unwrap();
        let root = m.root_summary();
        assert_eq!(root.count, 2);
        assert_eq!(root.sum, 10.0);
        assert_eq!(root.sum_sq, 58.0);
        // Quadrant averages differ.
        assert_eq!(m.predict(&[1.0, 1.0]).unwrap(), Some(3.0));
        assert_eq!(m.predict(&[999.0, 999.0]).unwrap(), Some(7.0));
    }

    #[test]
    fn beta_backs_off_to_coarser_blocks() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 6);
        m.insert(&[1.0, 1.0], 2.0).unwrap();
        m.insert(&[400.0, 400.0], 10.0).unwrap(); // same root quadrant, different leaf
                                                  // beta = 1: deepest block holding the query point -> exact value.
        assert_eq!(m.predict_with_beta(&[1.0, 1.0], 1).unwrap(), Some(2.0));
        // beta = 2: must climb to the first ancestor with >= 2 points.
        assert_eq!(m.predict_with_beta(&[1.0, 1.0], 2).unwrap(), Some(6.0));
        // beta larger than all data: root fallback.
        assert_eq!(m.predict_with_beta(&[1.0, 1.0], 99).unwrap(), Some(6.0));
    }

    #[test]
    fn insert_rejects_bad_values() {
        let mut m = model(4096, InsertionStrategy::Eager, 6);
        assert!(m.insert(&[1.0, 1.0], f64::NAN).is_err());
        assert!(m.insert(&[1.0, 1.0], f64::INFINITY).is_err());
        assert!(m.insert(&[1.0], 1.0).is_err());
        assert!(m.insert(&[f64::NAN, 1.0], 1.0).is_err());
        // Nothing was recorded by the failed attempts.
        assert_eq!(m.root_summary().count, 0);
    }

    #[test]
    fn out_of_range_points_are_clamped_not_rejected() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 6);
        m.insert(&[-50.0, 2000.0], 9.0).unwrap();
        assert_eq!(m.predict(&[0.0, 1000.0]).unwrap(), Some(9.0));
    }

    #[test]
    fn lazy_behaves_eagerly_before_first_compression() {
        let mut m = model(1 << 20, InsertionStrategy::Lazy { alpha: 0.05 }, 6);
        assert_eq!(m.current_threshold(), 0.0);
        let out = m.insert(&[1.0, 1.0], 5.0).unwrap();
        assert_eq!(out.nodes_created, 6);
    }

    #[test]
    fn lazy_threshold_activates_after_compression() {
        let budget = MlqConfig::min_budget(&Space::cube(2, 0.0, 1000.0).unwrap(), 6) + 256;
        let mut m = model(budget, InsertionStrategy::Lazy { alpha: 0.05 }, 6);
        // Insert spread-out points until compression fires.
        let mut fired = false;
        for i in 0..200u32 {
            let x = f64::from(i % 32) * 31.0;
            let y = f64::from((i / 32) % 32) * 31.0;
            let out = m.insert(&[x, y], f64::from(i % 7)).unwrap();
            if out.compression.is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "compression must fire under a tight budget");
        assert!(m.has_compressed());
        assert!(m.current_threshold() > 0.0, "alpha * SSE(root) now in force");
    }

    #[test]
    fn compression_keeps_tree_within_budget() {
        let budget = 2048;
        let mut m = model(budget, InsertionStrategy::Eager, 6);
        for i in 0..500u32 {
            let x = f64::from(i.wrapping_mul(97) % 1000);
            let y = f64::from(i.wrapping_mul(31) % 1000);
            m.insert(&[x, y], f64::from(i % 13)).unwrap();
            assert!(m.bytes_used() <= budget, "after insert {i}: {} bytes", m.bytes_used());
        }
        assert!(m.counters().compressions > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn counters_track_operations() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 6);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        m.insert(&[2.0, 2.0], 6.0).unwrap();
        m.predict(&[1.0, 1.0]).unwrap();
        let c = m.counters();
        assert_eq!(c.insertions, 2);
        assert_eq!(c.predictions, 1);
        assert!(c.apc().is_some());
        assert!(c.auc().is_some());
    }

    #[test]
    fn tssenc_zero_for_identical_values() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 4);
        for i in 0..20 {
            let x = f64::from(i) * 50.0;
            m.insert(&[x, x], 5.0).unwrap();
        }
        assert!(m.tssenc().abs() < 1e-9);
    }

    #[test]
    fn tssenc_positive_when_leaves_mix_values() {
        // lambda = 1 so distinct values land in the same leaf.
        let mut m = model(1 << 20, InsertionStrategy::Eager, 1);
        m.insert(&[1.0, 1.0], 0.0).unwrap();
        m.insert(&[2.0, 2.0], 10.0).unwrap();
        assert!(m.tssenc() > 0.0);
    }

    #[test]
    fn depth_histogram_counts_all_nodes() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 3);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        let hist = m.depth_histogram();
        assert_eq!(hist, vec![1, 1, 1, 1]);
        assert_eq!(hist.iter().sum::<usize>(), m.node_count());
    }

    #[test]
    fn clear_resets_to_fresh_state() {
        let mut m = model(2048, InsertionStrategy::Lazy { alpha: 0.05 }, 6);
        for i in 0..200u32 {
            let x = f64::from(i.wrapping_mul(97) % 1000);
            m.insert(&[x, x], f64::from(i % 7)).unwrap();
        }
        assert!(m.has_compressed());
        m.clear();
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.bytes_used(), NODE_BYTES);
        assert!(!m.has_compressed());
        assert_eq!(m.counters(), Default::default());
        assert_eq!(m.predict(&[1.0, 1.0]).unwrap(), None);
        m.check_invariants().unwrap();
        // And it learns again.
        m.insert(&[1.0, 1.0], 3.0).unwrap();
        assert_eq!(m.predict(&[1.0, 1.0]).unwrap(), Some(3.0));
    }

    #[test]
    fn train_batch_inserts_everything() {
        let mut m = model(1 << 20, InsertionStrategy::Eager, 4);
        let points: Vec<(Vec<f64>, f64)> =
            (0..10).map(|i| (vec![f64::from(i) * 100.0, 500.0], f64::from(i))).collect();
        m.train(points.iter().map(|(p, v)| (p.as_slice(), *v))).unwrap();
        assert_eq!(m.root_summary().count, 10);
    }
}
