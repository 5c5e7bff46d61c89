//! Immutable, shareable prediction snapshots of a quadtree, in a packed
//! cache-compact layout.
//!
//! The live [`MemoryLimitedQuadtree`] is deliberately not `Sync`: its
//! prediction path updates APC counters through a `Cell`, and its
//! insertion path restructures the arena. A serving layer that wants many
//! reader threads therefore publishes a [`FrozenTree`] — a compacted,
//! read-only copy of the live nodes that answers predictions with the
//! exact semantics of paper Fig. 3 but carries no interior mutability, so
//! it is `Send + Sync` and can sit behind an `Arc` shared by any number
//! of threads while the writer keeps mutating its private live tree.
//!
//! ## Packed layout
//!
//! Prediction only ever needs two facts per node — the point count
//! (compared against `β`) and the precomputed block average — plus a way
//! to find the child covering the query point. The snapshot therefore
//! stores one 32-byte [`PackedNode`] record per node:
//!
//! ```text
//! PackedNode { count: u64, avg: f64, mask: u64, children_base: u32 }
//! ```
//!
//! Children are **dense**: instead of a heap-boxed `2^d`-slot array full
//! of `NIL` padding per internal node (the live tree's layout), every
//! present child's index goes into one shared `u32` slab, and the record
//! keeps a child-presence bitmask plus the node's base offset into that
//! slab. The child for slot `s` lives at
//! `children[children_base + popcount(mask & (1 << s) - 1)]` — a
//! popcount-rank, one branch and no pointer chase. A root-to-leaf descent
//! touches one cache line per level (the record) plus one slab word when
//! it takes a child; there are no per-node allocations at all.
//!
//! For spaces with more than 6 dimensions the fanout exceeds the 64 bits
//! of the inline mask; such trees keep their (multi-word) masks in a
//! shared overflow slab and the record's `mask` field holds the node's
//! word offset into it. The paper's experiments use `d ≤ 4`, so the
//! inline path is the one that matters.
//!
//! Freezing is O(live nodes) in time and space; the node count is bounded
//! by the model's byte budget, so for the paper's configurations a freeze
//! copies a few kilobytes. Nodes are re-indexed in BFS order into the
//! slab (dead arena slots are dropped), so siblings — and the upper
//! levels every descent shares — sit adjacent in memory.
//!
//! ## Descent words
//!
//! The child slot taken at depth `t` depends only on the query point's
//! quantized grid coordinates, never on the tree. Quantization therefore
//! precomputes a **descent word** per query
//! ([`GridPoint::descent_word`]): the child slots for depths
//! `0..packed_levels`, packed `d` bits per level into one `u64`. The hot
//! descent loop reads its slot with one shift-and-mask instead of
//! re-deriving it from `d` coordinate bit-tests per level, and because
//! every slab index was validated once at construction
//! ([`FrozenTree::validate_slabs`]), the loop indexes records and child
//! slots without per-step bounds checks.
//!
//! ## Fused pair batches
//!
//! A shard always reads a CPU and an IO tree over the same space, so the
//! one multi-lane kernel, [`FrozenTree::predict_planned_pair_into`],
//! descends both trees for [`LANES`] queries per wave in lockstep depth:
//! one pass gathers the packed records of every live lane in both slabs
//! (independent loads the CPU overlaps), a second pass extracts each
//! lane's child slot once and does both trees' β-compare and advance,
//! issuing a software prefetch for each lane's next record. Lanes retire
//! independently per tree — a lane whose block drops under `β` or runs
//! out of children keeps its answer while the rest of the wave descends.
//! The result is bit-identical to running the scalar descent per query
//! and tree; trees with multi-word masks (`d ≥ 7`) and empty trees take
//! the scalar descent instead.
//!
//! ## Copy-on-write republication
//!
//! Records live in fixed-size [`NodeChunk`]s behind `Arc`s, and the child
//! slabs are `Arc`-shared wholesale. When a maintainer applies a small
//! guarded batch and republishes, [`MemoryLimitedQuadtree::refreeze`]
//! patches only the chunks whose summaries actually changed (the live
//! tree logs dirty nodes between freezes) and shares every other chunk
//! with the previous snapshot — an O(touched) republication instead of an
//! O(nodes) rebuild. Any structural change (split, eviction, merge,
//! restore) or log overflow falls back to a full freeze, so a refrozen
//! snapshot is always bit-identical to a from-scratch [`freeze`].
//!
//! [`freeze`]: MemoryLimitedQuadtree::freeze

use std::sync::Arc;

use crate::config::MlqConfig;
use crate::error::MlqError;
use crate::node::NIL;
use crate::space::{GridPoint, Space, GRID_BITS};
use crate::summary::Summary;
use crate::tree::MemoryLimitedQuadtree;

/// Sentinel in the wide-mask `mask` field marking a childless node.
const WIDE_LEAF: u64 = u64::MAX;

/// Queries descended per wave by the fused pair kernel.
const LANES: usize = 16;

/// Records per copy-on-write chunk (2 KiB of 32-byte records — a handful
/// of cache lines, small enough that patching one node copies little,
/// large enough that the chunk table stays tiny).
const CHUNK_NODES: usize = 64;
const CHUNK_SHIFT: u32 = 6;
const CHUNK_MASK: u32 = CHUNK_NODES as u32 - 1;

/// One packed node record: everything a descent reads, in 32 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct PackedNode {
    /// `C(b)` — compared against `β` at every level.
    count: u64,
    /// `AVG(b)`, precomputed at freeze time (0.0 for an empty block).
    avg: f64,
    /// Child-presence bitmask for fanout ≤ 64; otherwise the node's word
    /// offset into the shared wide-mask slab (`WIDE_LEAF` for leaves).
    mask: u64,
    /// Offset of this node's first child in the shared child slab.
    children_base: u32,
}

/// Padding record for the tail of the last chunk; never reachable (every
/// validated index is below `len`).
const EMPTY_NODE: PackedNode = PackedNode { count: 0, avg: 0.0, mask: 0, children_base: 0 };

/// A fixed-size block of packed records. Sized (not a slice) so
/// [`Arc::make_mut`] can clone exactly one chunk on a copy-on-write
/// patch.
#[derive(Debug, Clone)]
struct NodeChunk([PackedNode; CHUNK_NODES]);

/// Which live tree state a snapshot was frozen from, used by
/// [`MemoryLimitedQuadtree::refreeze`] to decide whether the previous
/// snapshot can be patched in place of a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Provenance {
    /// Identity of the producing live tree.
    tree_id: u64,
    /// The tree's freeze sequence number when this snapshot was taken.
    freeze_seq: u64,
    /// The tree's structure epoch when this snapshot was taken.
    epoch: u64,
}

/// Pre-quantized queries plus their precomputed descent words — the
/// reusable "plan" half of a batched prediction, split out so callers
/// descending several trees over the same [`Space`] (the serving layer
/// walks a CPU and an IO tree per shard) quantize and pack each point
/// once.
///
/// Build with [`BatchPlan::prepare`], run with
/// [`FrozenTree::predict_planned_pair_into`]. The plan owns its buffers
/// and reuses their capacity across calls.
#[derive(Debug, Default)]
pub struct BatchPlan {
    grids: Vec<GridPoint>,
    words: Vec<u64>,
    levels: u32,
}

impl BatchPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        BatchPlan::default()
    }

    /// Quantizes `points` against `space` and packs descent words for
    /// `levels` levels (clamped to what one word / the grid resolution
    /// can hold). Clears any previous plan; buffers are reused.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed point
    /// ([`MlqError::DimensionMismatch`] / [`MlqError::NonFiniteValue`]),
    /// leaving the plan empty.
    pub fn prepare<P: AsRef<[f64]>>(
        &mut self,
        space: &Space,
        levels: u32,
        points: &[P],
    ) -> Result<(), MlqError> {
        self.grids.clear();
        self.words.clear();
        let dims = u32::try_from(space.dims()).expect("dims fit u32");
        self.levels = levels.min(64 / dims).min(GRID_BITS);
        self.grids.reserve(points.len());
        self.words.reserve(points.len());
        for p in points {
            let grid = match space.grid_point(p.as_ref()) {
                Ok(grid) => grid,
                Err(e) => {
                    self.grids.clear();
                    self.words.clear();
                    return Err(e);
                }
            };
            self.words.push(grid.descent_word(self.levels));
            self.grids.push(grid);
        }
        Ok(())
    }

    /// Number of planned queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.grids.len()
    }

    /// True when the plan holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }

    /// Levels packed into each descent word.
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

/// A read-only prediction snapshot of a [`MemoryLimitedQuadtree`] in the
/// packed struct-of-slabs layout described in the
/// [module documentation](self).
///
/// Shares the live tree's prediction semantics ([Fig. 3]: deepest block
/// on the root-to-leaf path holding at least `β` points, root fallback)
/// without its interior mutability — `FrozenTree` is `Send + Sync`.
/// `Clone` is cheap: chunks and slabs are `Arc`-shared.
///
/// [Fig. 3]: MemoryLimitedQuadtree::predict
#[derive(Debug, Clone)]
pub struct FrozenTree {
    config: MlqConfig,
    /// Full summary of the root block (the packed records only carry
    /// count and average).
    root: Summary,
    /// Number of packed records; index 0 is the root, BFS order.
    len: u32,
    /// Packed records in copy-on-write chunks of [`CHUNK_NODES`]; the
    /// last chunk is padded with [`EMPTY_NODE`].
    chunks: Vec<Arc<NodeChunk>>,
    /// Dense child indices, shared by every internal node.
    children: Arc<[u32]>,
    /// Multi-word child masks for fanout > 64; empty otherwise.
    wide_masks: Arc<[u64]>,
    /// Mask words per internal node (1 means the inline-mask fast path).
    mask_words: u32,
    /// Dimensions of the model space (slot width of a descent word).
    dims: u32,
    /// Levels each descent word covers for this tree.
    packed_levels: u32,
    /// Which live tree state produced this snapshot.
    provenance: Provenance,
}

impl FrozenTree {
    /// Builds a frozen copy of `tree`'s live nodes (root first), reusing
    /// the tree's scratch BFS queue, and records the arena → slab index
    /// map that future [`MemoryLimitedQuadtree::refreeze`] patches need.
    pub(crate) fn from_tree(tree: &MemoryLimitedQuadtree) -> Self {
        let fanout = tree.config().space.fanout();
        let mask_words = fanout.div_ceil(64);
        // BFS from the root, assigning contiguous indices as nodes are
        // discovered; children are recorded under the new indices. The
        // queue is borrowed from the tree so repeated freezes reuse its
        // capacity instead of growing a fresh Vec from empty every time.
        let mut order = tree.freeze_scratch().borrow_mut();
        order.clear();
        order.push(tree.root);
        let mut nodes: Vec<PackedNode> = Vec::with_capacity(tree.node_count());
        let mut children: Vec<u32> = Vec::new();
        let mut wide_masks: Vec<u64> = Vec::new();
        let mut head = 0usize;
        while head < order.len() {
            let old = order[head];
            head += 1;
            let node = tree.arena.get(old);
            let children_base = u32::try_from(children.len()).expect("child slab fits u32");
            let enqueue = |order: &mut Vec<u32>, children: &mut Vec<u32>, child: u32| {
                order.push(child);
                children.push(u32::try_from(order.len() - 1).expect("arena indices fit u32"));
            };
            let mask = match &node.children {
                None => {
                    if mask_words == 1 {
                        0
                    } else {
                        WIDE_LEAF
                    }
                }
                Some(slots) if mask_words == 1 => {
                    let mut mask = 0u64;
                    for (slot, &child) in slots.iter().enumerate() {
                        if child != NIL {
                            mask |= 1 << slot;
                            enqueue(&mut order, &mut children, child);
                        }
                    }
                    mask
                }
                Some(slots) => {
                    let base = wide_masks.len();
                    wide_masks.resize(base + mask_words, 0);
                    for (slot, &child) in slots.iter().enumerate() {
                        if child != NIL {
                            wide_masks[base + slot / 64] |= 1 << (slot % 64);
                            enqueue(&mut order, &mut children, child);
                        }
                    }
                    base as u64
                }
            };
            nodes.push(PackedNode {
                count: node.summary.count,
                avg: node.summary.avg(),
                mask,
                children_base,
            });
        }
        // Reset the dirty log and rebuild the arena → slab map: this
        // snapshot is now the one `refreeze` may patch.
        let provenance = {
            let mut state = tree.freeze_state().borrow_mut();
            state.seq += 1;
            state.dirty.clear();
            state.dirty_overflow = false;
            state.map_epoch = tree.structure_epoch;
            state.map_built = true;
            state.bfs_index.clear();
            state.bfs_index.resize(tree.arena.capacity(), NIL);
            for (slab, &arena_idx) in order.iter().enumerate() {
                state.bfs_index[arena_idx as usize] =
                    u32::try_from(slab).expect("slab indices fit u32");
            }
            Provenance { tree_id: tree.tree_id, freeze_seq: state.seq, epoch: tree.structure_epoch }
        };
        FrozenTree::assemble(
            tree.config().clone(),
            tree.root_summary(),
            nodes,
            children,
            wide_masks,
            provenance,
        )
    }

    /// Chunks the record slab and derives the descent parameters. Every
    /// construction path funnels through here, so the validation pass
    /// below is the single place that licenses the unchecked descent.
    fn assemble(
        config: MlqConfig,
        root: Summary,
        nodes: Vec<PackedNode>,
        children: Vec<u32>,
        wide_masks: Vec<u64>,
        provenance: Provenance,
    ) -> Self {
        let fanout = config.space.fanout();
        let mask_words = fanout.div_ceil(64);
        let dims = u32::try_from(config.space.dims()).expect("dims fit u32");
        // One extra level past λ so the word also covers the slot probed
        // at a depth-λ node (the lookup fails there — λ-nodes are leaves
        // — but the probe still reads a slot).
        let packed_levels = (u32::from(config.lambda) + 1).min(64 / dims).min(GRID_BITS);
        Self::validate_slabs(&nodes, &children, &wide_masks, mask_words, fanout);
        let len = u32::try_from(nodes.len()).expect("node count fits u32");
        let mut chunks: Vec<Arc<NodeChunk>> = Vec::with_capacity(nodes.len().div_ceil(CHUNK_NODES));
        for group in nodes.chunks(CHUNK_NODES) {
            let mut arr = [EMPTY_NODE; CHUNK_NODES];
            arr[..group.len()].copy_from_slice(group);
            chunks.push(Arc::new(NodeChunk(arr)));
        }
        FrozenTree {
            config,
            root,
            len,
            chunks,
            children: children.into(),
            wide_masks: wide_masks.into(),
            mask_words: u32::try_from(mask_words).expect("mask words fit u32"),
            dims,
            packed_levels,
            provenance,
        }
    }

    /// Checks, once at construction, every invariant the descent loops
    /// rely on instead of per-step bounds checks: inline masks carry no
    /// bits at or above the fanout, wide-mask offsets stay inside the
    /// wide slab, every node's child range stays inside the child slab,
    /// and every child index refers to a real record.
    ///
    /// # Panics
    ///
    /// Panics when a slab is malformed — construction bugs must never
    /// reach the unchecked read path.
    fn validate_slabs(
        nodes: &[PackedNode],
        children: &[u32],
        wide_masks: &[u64],
        mask_words: usize,
        fanout: usize,
    ) {
        let len = nodes.len();
        for node in nodes {
            let degree = if mask_words == 1 {
                if fanout < 64 {
                    assert!(node.mask >> fanout == 0, "mask bits beyond fanout");
                }
                node.mask.count_ones() as usize
            } else if node.mask == WIDE_LEAF {
                0
            } else {
                let base = usize::try_from(node.mask).expect("wide-mask offset fits usize");
                assert!(base + mask_words <= wide_masks.len(), "wide-mask slab overrun");
                wide_masks[base..base + mask_words].iter().map(|w| w.count_ones() as usize).sum()
            };
            let base = node.children_base as usize;
            assert!(base + degree <= children.len(), "child slab overrun");
            for &c in &children[base..base + degree] {
                assert!((c as usize) < len, "child index out of range");
            }
        }
    }

    /// The record at slab index `idx`, by value (32 bytes — one load the
    /// optimizer keeps in registers).
    #[inline(always)]
    fn node(&self, idx: u32) -> PackedNode {
        debug_assert!(idx < self.len, "slab index {idx} out of range");
        // SAFETY: descent starts at index 0 (`len` ≥ 1 for any frozen
        // tree) and only follows child indices, all of which
        // `validate_slabs` proved `< len`; the chunk table covers
        // `ceil(len / CHUNK_NODES)` chunks of exactly `CHUNK_NODES`
        // records each.
        unsafe {
            let chunk = self.chunks.get_unchecked((idx >> CHUNK_SHIFT) as usize);
            *chunk.0.get_unchecked((idx & CHUNK_MASK) as usize)
        }
    }

    /// The child slab entry at `i`.
    #[inline(always)]
    fn child_at(&self, i: u32) -> u32 {
        debug_assert!((i as usize) < self.children.len(), "child slab index out of range");
        // SAFETY: `validate_slabs` proved `children_base + degree` stays
        // inside the slab for every node, and the rank passed here is
        // `< degree` by construction of the popcount.
        unsafe { *self.children.get_unchecked(i as usize) }
    }

    /// Prefetches the record at `idx` into cache (advisory; no-op off
    /// x86_64). Issued as soon as a lane knows its next node so the load
    /// overlaps the rest of the wave.
    #[inline(always)]
    fn prefetch(&self, idx: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the index was produced by `child_at`, so the chunk and
        // slot are in range (same argument as `Self::node`); prefetch
        // itself has no memory effects.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let chunk = self.chunks.get_unchecked((idx >> CHUNK_SHIFT) as usize);
            let rec = chunk.0.get_unchecked((idx & CHUNK_MASK) as usize);
            _mm_prefetch::<{ _MM_HINT_T0 }>(std::ptr::from_ref(rec).cast::<i8>());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// The configuration of the tree this snapshot was frozen from.
    #[must_use]
    pub fn config(&self) -> &MlqConfig {
        &self.config
    }

    /// Number of nodes in the snapshot.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.len as usize
    }

    /// Summary of the root block (every point the live tree had seen).
    #[must_use]
    pub fn root_summary(&self) -> Summary {
        self.root
    }

    /// True while the snapshot holds no data at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.count == 0
    }

    /// Levels each precomputed descent word covers for this tree (λ + 1,
    /// clamped to what one `u64` and the grid resolution can hold).
    #[must_use]
    pub fn packed_levels(&self) -> u32 {
        self.packed_levels
    }

    /// Number of record chunks this snapshot shares (by identity) with
    /// `other` — nonzero after a copy-on-write
    /// [`MemoryLimitedQuadtree::refreeze`], zero between unrelated
    /// freezes. Exposed so tests and diagnostics can observe sharing.
    #[must_use]
    pub fn shared_chunks(&self, other: &FrozenTree) -> usize {
        self.chunks.iter().zip(other.chunks.iter()).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Heap bytes of the packed slabs (record chunks, including tail
    /// padding, + child slab + any wide masks). This is the snapshot's
    /// real resident footprint, directly comparable with the
    /// `NODE_BYTES`-style accounting of the layout it replaced: per node
    /// a summary plus a boxed `2^d` child-slot array dominated by `NIL`
    /// padding.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<NodeChunk>()
            + self.children.len() * std::mem::size_of::<u32>()
            + self.wide_masks.len() * std::mem::size_of::<u64>()
    }

    /// `(count, avg)` of node `node` (BFS index; 0 is the root). Exposed
    /// so tests and tools can rebuild reference layouts from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn node_stats(&self, node: usize) -> (u64, f64) {
        assert!(node < self.len as usize, "node {node} out of range");
        let n = self.node(u32::try_from(node).expect("validated above"));
        (n.count, n.avg)
    }

    /// Index of the child of `node` in child slot `slot`, if present.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range or `slot >= 2^d`.
    #[must_use]
    pub fn child_of(&self, node: usize, slot: usize) -> Option<usize> {
        assert!(slot < self.config.space.fanout(), "slot {slot} out of range");
        assert!(node < self.len as usize, "node {node} out of range");
        let rec = self.node(u32::try_from(node).expect("validated above"));
        self.child_index(&rec, slot).map(|c| c as usize)
    }

    /// Popcount-rank child lookup (see the [module docs](self)).
    #[inline]
    fn child_index(&self, node: &PackedNode, slot: usize) -> Option<u32> {
        if self.mask_words == 1 {
            let bit = 1u64 << slot;
            if node.mask & bit == 0 {
                return None;
            }
            let rank = (node.mask & (bit - 1)).count_ones();
            Some(self.child_at(node.children_base + rank))
        } else {
            self.wide_child(node, slot)
        }
    }

    /// Child lookup through the multi-word mask slab (fanout > 64).
    fn wide_child(&self, node: &PackedNode, slot: usize) -> Option<u32> {
        if node.mask == WIDE_LEAF {
            return None;
        }
        let base = node.mask as usize;
        let (word, bit) = (slot / 64, (slot % 64) as u32);
        let w = self.wide_masks[base + word];
        if w & (1u64 << bit) == 0 {
            return None;
        }
        let mut rank = (w & ((1u64 << bit) - 1)).count_ones();
        for i in 0..word {
            rank += self.wide_masks[base + i].count_ones();
        }
        Some(self.child_at(node.children_base + rank))
    }

    /// The Fig. 3 descent over the packed slab, reading child slots from
    /// the precomputed `word` for the first `word_levels` levels and
    /// falling back to per-level bit extraction beyond it.
    fn descend(&self, grid: &GridPoint, word: u64, word_levels: u32, beta: u64) -> Option<f64> {
        let mut cn = self.node(0);
        if cn.count == 0 {
            return None;
        }
        let mut best = cn.avg;
        let mut depth = 0u32;
        let slot_mask = (1u64 << self.dims) - 1;
        while cn.count >= beta {
            best = cn.avg;
            // Descent words are left-aligned: depth 0 sits in the top
            // `d` bits (see [`GridPoint::descent_word`]).
            let slot = if depth < word_levels {
                ((word >> (64 - (depth + 1) * self.dims)) & slot_mask) as usize
            } else {
                grid.child_slot(depth)
            };
            let next = if self.mask_words == 1 {
                let bit = 1u64 << slot;
                if cn.mask & bit == 0 {
                    None
                } else {
                    let rank = (cn.mask & (bit - 1)).count_ones();
                    Some(self.child_at(cn.children_base + rank))
                }
            } else {
                self.wide_child(&cn, slot)
            };
            match next {
                Some(child) => {
                    cn = self.node(child);
                    depth += 1;
                }
                None => break,
            }
        }
        Some(best)
    }

    /// Predicts the cost at `point` with the configured `β` — the frozen
    /// equivalent of [`MemoryLimitedQuadtree::predict`]. Out-of-range
    /// coordinates clamp onto the space boundary, like the live tree.
    ///
    /// # Errors
    ///
    /// [`MlqError::DimensionMismatch`] or [`MlqError::NonFiniteValue`] for
    /// malformed query points.
    pub fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        self.predict_with_beta(point, self.config.beta)
    }

    /// [`Self::predict`] with an explicit `β`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predict`].
    pub fn predict_with_beta(&self, point: &[f64], beta: u64) -> Result<Option<f64>, MlqError> {
        let grid = self.config.space.grid_point(point)?;
        Ok(self.descend(&grid, 0, 0, beta))
    }

    /// [`Self::predict`] from a point already quantized by
    /// [`Space::grid_point`] over this tree's space, so trees sharing a
    /// space (a shard's CPU and IO components) quantize a query once.
    /// Bit-identical to [`Self::predict`] on the point `grid` came from.
    ///
    /// The single-query descent extracts child slots on demand rather
    /// than packing a descent word first: one query visits each level at
    /// most once, so precomputing all `packed_levels` slots up front is
    /// pure overhead (measurably so — ~25% of the single-call budget on
    /// shallow trees). Descent words pay off only when a [`BatchPlan`]
    /// amortizes the packing across every tree descended from the same
    /// plan.
    #[must_use]
    pub fn predict_grid(&self, grid: &GridPoint) -> Option<f64> {
        debug_assert_eq!(grid.dims(), self.config.space.dims(), "grid from a different space");
        self.descend(grid, 0, 0, self.config.beta)
    }

    /// Descends two trees over the same [`Space`] in one fused multi-lane
    /// pass: each wave carries a lane per query with a cursor into *both*
    /// slabs, so the plan arrays are read once, the child slot is
    /// extracted once per lane-level, and the two trees' record loads
    /// issue together and overlap in the memory system. This is the
    /// serving layer's shard read path — every shard walks a CPU and an
    /// IO tree for the same query batch.
    ///
    /// Appends one result per planned query to `a_out`/`b_out` (cleared
    /// first), each at its tree's configured `β`. Bit-identical to
    /// [`Self::predict`] per query and tree. The plan must have been
    /// prepared over the trees' [`Space`]; pass the same tree twice to
    /// descend just one.
    pub fn predict_planned_pair_into(
        a: &FrozenTree,
        b: &FrozenTree,
        plan: &BatchPlan,
        a_out: &mut Vec<Option<f64>>,
        b_out: &mut Vec<Option<f64>>,
    ) {
        debug_assert_eq!(a.config.space, b.config.space, "paired trees must share a space");
        debug_assert!(
            plan.grids.iter().all(|g| g.dims() == a.config.space.dims()),
            "plan prepared over a different space"
        );
        a_out.clear();
        b_out.clear();
        a_out.reserve(plan.len());
        b_out.reserve(plan.len());
        let (grids, words, levels) = (&plan.grids, &plan.words, plan.levels);
        let (beta_a, beta_b) = (a.config.beta, b.config.beta);
        let root_a = a.node(0);
        let root_b = b.node(0);
        if a.mask_words != 1 || b.mask_words != 1 || root_a.count == 0 || root_b.count == 0 {
            // Wide masks (d ≥ 7) descend scalar: the multi-word rank walk
            // does not fit the branch-free lane advance. The scalar
            // descent also answers `None` for an empty tree.
            for (grid, &word) in grids.iter().zip(words) {
                a_out.push(a.descend(grid, word, levels, beta_a));
                b_out.push(b.descend(grid, word, levels, beta_b));
            }
            return;
        }
        let dims = a.dims;
        let slot_mask = (1u64 << dims) - 1;
        let mut base = 0usize;
        while base < grids.len() {
            let n = LANES.min(grids.len() - base);
            let mut idx_a = [0u32; LANES];
            let mut idx_b = [0u32; LANES];
            let mut best_a = [root_a.avg; LANES];
            let mut best_b = [root_b.avg; LANES];
            let mut recs_a = [root_a; LANES];
            let mut recs_b = [root_b; LANES];
            let full: u32 = (1u32 << n) - 1;
            let (mut live_a, mut live_b) = (full, full);
            let mut depth = 0u32;
            while live_a | live_b != 0 {
                // Gather pass over both slabs: all live loads issue
                // back-to-back before any β-compare consumes them.
                let mut m = live_a;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    recs_a[l] = a.node(idx_a[l]);
                }
                let mut m = live_b;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    recs_b[l] = b.node(idx_b[l]);
                }
                // Advance pass: one slot extraction per lane drives both
                // trees' steps.
                let mut m = live_a | live_b;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let slot = if depth < levels {
                        ((words[base + l] >> (64 - (depth + 1) * dims)) & slot_mask) as usize
                    } else {
                        grids[base + l].child_slot(depth)
                    };
                    let bit = 1u64 << slot;
                    let lane = 1u32 << l;
                    if live_a & lane != 0 {
                        let rec = recs_a[l];
                        if rec.count < beta_a {
                            live_a &= !lane;
                        } else {
                            best_a[l] = rec.avg;
                            if rec.mask & bit == 0 {
                                live_a &= !lane;
                            } else {
                                let rank = (rec.mask & (bit - 1)).count_ones();
                                let child = a.child_at(rec.children_base + rank);
                                idx_a[l] = child;
                                a.prefetch(child);
                            }
                        }
                    }
                    if live_b & lane != 0 {
                        let rec = recs_b[l];
                        if rec.count < beta_b {
                            live_b &= !lane;
                        } else {
                            best_b[l] = rec.avg;
                            if rec.mask & bit == 0 {
                                live_b &= !lane;
                            } else {
                                let rank = (rec.mask & (bit - 1)).count_ones();
                                let child = b.child_at(rec.children_base + rank);
                                idx_b[l] = child;
                                b.prefetch(child);
                            }
                        }
                    }
                }
                depth += 1;
            }
            a_out.extend(best_a[..n].iter().map(|&v| Some(v)));
            b_out.extend(best_b[..n].iter().map(|&v| Some(v)));
            base += n;
        }
    }

    /// True when `prev` is the tree's most recent snapshot and nothing
    /// structural changed since — i.e. the dirty log fully describes the
    /// difference and [`Self::patched_from`] applies.
    fn can_patch(tree: &MemoryLimitedQuadtree, prev: &FrozenTree) -> bool {
        let state = tree.freeze_state().borrow();
        tree.tree_id != 0
            && prev.provenance.tree_id == tree.tree_id
            && prev.provenance.freeze_seq == state.seq
            && prev.provenance.epoch == tree.structure_epoch
            && state.map_built
            && state.map_epoch == tree.structure_epoch
            && !state.dirty_overflow
    }

    /// Copy-on-write republication: clones only the chunks holding dirty
    /// records, re-reads their `(count, avg)` from the live summaries
    /// (exactly what a full freeze would store — the patch is
    /// bit-identical), and shares every untouched chunk plus both child
    /// slabs with `prev`.
    fn patched_from(tree: &MemoryLimitedQuadtree, prev: &FrozenTree) -> FrozenTree {
        let mut chunks = prev.chunks.clone();
        let mut state = tree.freeze_state().borrow_mut();
        for &arena_idx in &state.dirty {
            let slab = state.bfs_index[arena_idx as usize];
            debug_assert_ne!(slab, NIL, "dirty node missing from the slab map");
            let summary = &tree.arena.get(arena_idx).summary;
            let chunk = Arc::make_mut(&mut chunks[(slab >> CHUNK_SHIFT) as usize]);
            let rec = &mut chunk.0[(slab & CHUNK_MASK) as usize];
            rec.count = summary.count;
            rec.avg = summary.avg();
        }
        state.seq += 1;
        state.dirty.clear();
        FrozenTree {
            config: prev.config.clone(),
            root: tree.root_summary(),
            len: prev.len,
            chunks,
            children: Arc::clone(&prev.children),
            wide_masks: Arc::clone(&prev.wide_masks),
            mask_words: prev.mask_words,
            dims: prev.dims,
            packed_levels: prev.packed_levels,
            provenance: Provenance {
                tree_id: tree.tree_id,
                freeze_seq: state.seq,
                epoch: tree.structure_epoch,
            },
        }
    }
}

impl MemoryLimitedQuadtree {
    /// Captures an immutable, `Send + Sync` prediction snapshot of the
    /// current tree (see [`FrozenTree`]). O(live nodes); the live tree is
    /// untouched and can keep learning while readers share the snapshot.
    ///
    /// The freeze is only wall-clock timed once [`Self::counters`] has
    /// been read (i.e. something observes the model's counters); an
    /// unmonitored model skips the clock calls entirely and records the
    /// freeze with zero nanoseconds.
    #[must_use]
    pub fn freeze(&self) -> FrozenTree {
        self.freeze_with(None)
    }

    /// [`Self::freeze`], patching `prev` copy-on-write when possible.
    ///
    /// When `prev` is this tree's latest snapshot and only summaries
    /// changed since (value-only updates: no split, eviction, merge, or
    /// restore), the new snapshot clones just the record chunks holding
    /// dirty nodes and shares everything else with `prev` — O(touched)
    /// instead of O(nodes). Otherwise this is exactly [`Self::freeze`].
    /// Either way the result is bit-identical to a from-scratch freeze.
    #[must_use]
    pub fn refreeze(&self, prev: &FrozenTree) -> FrozenTree {
        self.freeze_with(Some(prev))
    }

    fn freeze_with(&self, prev: Option<&FrozenTree>) -> FrozenTree {
        let build = |tree: &Self| match prev {
            Some(p) if FrozenTree::can_patch(tree, p) => FrozenTree::patched_from(tree, p),
            _ => FrozenTree::from_tree(tree),
        };
        if self.counters_observed() {
            let start = std::time::Instant::now();
            let frozen = build(self);
            self.note_freeze(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            frozen
        } else {
            let frozen = build(self);
            self.note_freeze(0);
            frozen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{child_array_bytes, InsertionStrategy, Space, NODE_BYTES};

    fn model_d(dims: usize, budget: usize) -> MemoryLimitedQuadtree {
        let space = Space::cube(dims, 0.0, 1000.0).unwrap();
        let config = MlqConfig::builder(space)
            .memory_budget(budget)
            .strategy(InsertionStrategy::Eager)
            .build()
            .unwrap();
        MemoryLimitedQuadtree::new(config).unwrap()
    }

    fn model(budget: usize) -> MemoryLimitedQuadtree {
        model_d(2, budget)
    }

    fn spread_points(m: &mut MemoryLimitedQuadtree, n: u32) {
        let dims = m.config().space.dims();
        for i in 0..n {
            let p: Vec<f64> =
                (0..dims).map(|d| f64::from(i.wrapping_mul(97 + d as u32 * 31) % 1000)).collect();
            m.insert(&p, f64::from(i % 13)).unwrap();
        }
    }

    /// Runs the fused pair kernel over `queries` (planned at the wider of
    /// the two trees' packed levels, like the shard read path) and
    /// returns both trees' answers.
    fn pair_batch(
        a: &FrozenTree,
        b: &FrozenTree,
        queries: &[Vec<f64>],
    ) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let mut plan = BatchPlan::new();
        plan.prepare(&a.config().space, a.packed_levels().max(b.packed_levels()), queries).unwrap();
        let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
        FrozenTree::predict_planned_pair_into(a, b, &plan, &mut a_out, &mut b_out);
        (a_out, b_out)
    }

    /// Asserts the two snapshots are bit-identical in content: same
    /// records, same structure, same root summary.
    fn assert_bit_identical(a: &FrozenTree, b: &FrozenTree) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.root_summary(), b.root_summary());
        let fanout = a.config().space.fanout();
        for node in 0..a.node_count() {
            let (ca, va) = a.node_stats(node);
            let (cb, vb) = b.node_stats(node);
            assert_eq!(ca, cb, "count at node {node}");
            assert_eq!(va.to_bits(), vb.to_bits(), "avg bits at node {node}");
            for slot in 0..fanout {
                assert_eq!(a.child_of(node, slot), b.child_of(node, slot), "child at {node}");
            }
        }
    }

    #[test]
    fn frozen_tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenTree>();
    }

    #[test]
    fn empty_freeze_predicts_none() {
        let f = model(4096).freeze();
        assert!(f.is_empty());
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.predict(&[1.0, 2.0]).unwrap(), None);
        let (a, b) = pair_batch(&f, &f, &[vec![1.0, 2.0], vec![9.0, 9.0]]);
        assert_eq!((a, b), (vec![None, None], vec![None, None]));
    }

    #[test]
    fn root_only_tree_predicts_root_average_everywhere() {
        // A tree whose root holds data but never split (as a restored
        // summary-only model would look): every query answers root avg.
        let mut m = model(1 << 16);
        m.arena.get_mut(m.root).summary.add(4.0);
        m.arena.get_mut(m.root).summary.add(8.0);
        let f = m.freeze();
        assert_eq!(f.node_count(), 1);
        assert_eq!(f.predict(&[500.0, 1.0]).unwrap(), Some(6.0));
        assert_eq!(f.predict(&[0.0, 999.0]).unwrap(), Some(6.0));
        assert_eq!(f.predict_with_beta(&[7.0, 7.0], 1).unwrap(), Some(6.0));
    }

    #[test]
    fn beta_above_every_count_falls_back_to_root() {
        let mut m = model(1 << 16);
        spread_points(&mut m, 50);
        let f = m.freeze();
        let root_avg = f.root_summary().avg();
        for q in [[1.0, 1.0], [999.0, 999.0], [123.0, 456.0]] {
            assert_eq!(f.predict_with_beta(&q, u64::MAX).unwrap(), Some(root_avg));
            assert_eq!(
                f.predict_with_beta(&q, u64::MAX).unwrap(),
                m.predict_with_beta(&q, u64::MAX).unwrap()
            );
        }
    }

    #[test]
    fn freeze_matches_live_predictions_everywhere() {
        let mut m = model(4096);
        spread_points(&mut m, 500);
        let f = m.freeze();
        assert_eq!(f.node_count(), m.node_count());
        assert_eq!(f.root_summary(), m.root_summary());
        for i in 0..300u32 {
            let p = [f64::from(i * 37 % 1009) % 1000.0, f64::from(i * 11 % 997) % 1000.0];
            assert_eq!(f.predict(&p).unwrap(), m.predict(&p).unwrap(), "point {p:?}");
        }
        // Explicit-beta predictions agree as well.
        for beta in [1, 2, 8, 99] {
            assert_eq!(
                f.predict_with_beta(&[123.0, 456.0], beta).unwrap(),
                m.predict_with_beta(&[123.0, 456.0], beta).unwrap()
            );
        }
    }

    #[test]
    fn pair_batch_matches_single_calls() {
        let mut m = model(1 << 14);
        spread_points(&mut m, 300);
        let f = m.freeze();
        let queries: Vec<Vec<f64>> = (0..200u32)
            .map(|i| vec![f64::from(i * 37 % 1009) % 1000.0, f64::from(i * 11 % 997) % 1000.0])
            .collect();
        let (a, b) = pair_batch(&f, &f, &queries);
        assert_eq!(a.len(), queries.len());
        assert_eq!(a, b, "the same tree twice answers the same");
        for (q, got) in queries.iter().zip(&a) {
            assert_eq!(*got, f.predict(q).unwrap(), "point {q:?}");
        }
    }

    #[test]
    fn planned_batches_are_reusable_across_trees() {
        // One plan over the space drives two different trees, partial
        // waves (len not a multiple of LANES) retire correctly, and the
        // output buffers are cleared of stale contents.
        let mut a = model(1 << 14);
        let mut b = model(1 << 14);
        spread_points(&mut a, 300);
        spread_points(&mut b, 77);
        let (fa, fb) = (a.freeze(), b.freeze());
        let queries: Vec<Vec<f64>> = (0..(LANES * 3 + 5) as u32)
            .map(|i| vec![f64::from(i * 37 % 1009) % 1000.0, f64::from(i * 11 % 997) % 1000.0])
            .collect();
        let mut plan = BatchPlan::new();
        plan.prepare(&fa.config().space, fa.packed_levels(), &queries).unwrap();
        assert_eq!(plan.len(), queries.len());
        assert!(!plan.is_empty());
        assert!(plan.levels() > 0);
        let (mut a_out, mut b_out) = (vec![Some(f64::NAN)], vec![Some(f64::NAN); 3]);
        for (x, y) in [(&fa, &fb), (&fb, &fa)] {
            FrozenTree::predict_planned_pair_into(x, y, &plan, &mut a_out, &mut b_out);
            for (f, out) in [(x, &a_out), (y, &b_out)] {
                assert_eq!(out.len(), queries.len());
                for (q, got) in queries.iter().zip(out) {
                    assert_eq!(*got, f.predict(q).unwrap(), "point {q:?}");
                }
            }
        }
    }

    #[test]
    fn plan_prepare_fails_fast_on_malformed_points() {
        let space = model(1 << 14).config().space.clone();
        let mut plan = BatchPlan::new();
        plan.prepare(&space, 4, &[vec![5.0, 5.0]]).unwrap();
        let bad = [vec![1.0, 1.0], vec![f64::NAN, 2.0]];
        assert!(plan.prepare(&space, 4, &bad).is_err());
        assert!(plan.is_empty(), "no partial plan on a failed prepare");
        let wrong_dims = [vec![1.0, 1.0], vec![3.0]];
        assert!(plan.prepare(&space, 4, &wrong_dims).is_err());
        assert!(plan.is_empty());
    }

    #[test]
    fn freeze_is_isolated_from_later_inserts() {
        let mut m = model(1 << 16);
        m.insert(&[10.0, 10.0], 5.0).unwrap();
        let f = m.freeze();
        m.insert(&[10.0, 10.0], 105.0).unwrap();
        // The live tree moved; the snapshot did not.
        assert_eq!(f.predict(&[10.0, 10.0]).unwrap(), Some(5.0));
        assert_eq!(m.predict(&[10.0, 10.0]).unwrap(), Some(55.0));
    }

    #[test]
    fn freeze_clamps_out_of_range_queries() {
        let mut m = model(1 << 16);
        m.insert(&[0.0, 1000.0], 9.0).unwrap();
        let f = m.freeze();
        assert_eq!(f.predict(&[-50.0, 2000.0]).unwrap(), Some(9.0));
        assert_eq!(pair_batch(&f, &f, &[vec![-50.0, 2000.0]]).0, vec![Some(9.0)]);
        assert!(f.predict(&[1.0],).is_err());
        assert!(f.predict(&[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn repeated_freezes_reuse_scratch_and_stay_equivalent() {
        let mut m = model(1 << 14);
        for round in 0..5u32 {
            spread_points(&mut m, 100 + round * 17);
            let f = m.freeze();
            assert_eq!(f.node_count(), m.node_count(), "round {round}");
            let q = [f64::from(round * 31 % 1000), 77.0];
            assert_eq!(f.predict(&q).unwrap(), m.predict(&q).unwrap());
        }
        assert_eq!(m.counters().freezes, 5);
    }

    #[test]
    fn unobserved_freeze_skips_timing_observed_freeze_may_record_it() {
        let mut m = model(1 << 16);
        spread_points(&mut m, 200);
        let _ = m.freeze(); // nobody has read counters yet
        let c = m.counters(); // this read turns observation on
        assert_eq!(c.freezes, 1);
        assert_eq!(c.freeze_nanos, 0, "unobserved freeze must not be timed");
        let _ = m.freeze();
        assert_eq!(m.counters().freezes, 2);
    }

    #[test]
    fn refreeze_patches_value_only_updates_bit_identically() {
        let mut m = model(1 << 18);
        spread_points(&mut m, 600);
        let prev = m.freeze();
        // Re-inserting already-mapped points updates summaries along
        // existing paths only — no structural change.
        let p = [97.0 % 1000.0, 128.0];
        m.insert(&p, 42.0).unwrap();
        m.insert(&p, 7.0).unwrap();
        let patched = m.refreeze(&prev);
        let fresh = FrozenTree::from_tree(&m);
        assert_bit_identical(&patched, &fresh);
        // The patch really was copy-on-write: only the touched path's
        // chunks were cloned, everything else is shared with `prev`.
        assert!(patched.chunks.len() > 1, "test needs a multi-chunk tree");
        assert!(patched.shared_chunks(&prev) > 0, "untouched chunks must be shared");
        assert_eq!(fresh.shared_chunks(&prev), 0, "full freezes share nothing");
        // And the republished snapshot serves the new values.
        assert_eq!(patched.predict(&p).unwrap(), m.predict(&p).unwrap());
    }

    #[test]
    fn refreeze_after_structural_change_falls_back_to_full_freeze() {
        let mut m = model(1 << 18);
        spread_points(&mut m, 200);
        let prev = m.freeze();
        // A point in fresh territory splits new nodes: structure changed.
        m.insert(&[431.5, 997.25], 3.0).unwrap();
        let refrozen = m.refreeze(&prev);
        assert_bit_identical(&refrozen, &FrozenTree::from_tree(&m));
        assert_eq!(refrozen.node_count(), m.node_count());
    }

    #[test]
    fn refreeze_with_foreign_or_stale_snapshot_falls_back() {
        let mut m = model(1 << 18);
        let mut other = model(1 << 18);
        spread_points(&mut m, 150);
        spread_points(&mut other, 150);
        let foreign = other.freeze();
        // A snapshot from another tree never patches.
        let got = m.refreeze(&foreign);
        assert_bit_identical(&got, &FrozenTree::from_tree(&m));
        // A stale snapshot (superseded by a later freeze) never patches:
        // its dirty log no longer describes the difference.
        let old = m.freeze();
        m.insert(&[97.0, 128.0], 1.0).unwrap();
        let _newer = m.freeze();
        m.insert(&[97.0, 128.0], 2.0).unwrap();
        let got = m.refreeze(&old);
        assert_bit_identical(&got, &FrozenTree::from_tree(&m));
    }

    #[test]
    fn refreeze_after_dirty_log_overflow_falls_back() {
        let mut m = model(1 << 18);
        spread_points(&mut m, 300);
        let prev = m.freeze();
        // Re-insert the same stream twice: value-only updates, but far
        // more path touches than the dirty log holds.
        spread_points(&mut m, 300);
        spread_points(&mut m, 300);
        let refrozen = m.refreeze(&prev);
        assert_bit_identical(&refrozen, &FrozenTree::from_tree(&m));
    }

    #[test]
    fn packed_layout_is_smaller_than_boxed_slot_arrays() {
        // The old frozen layout carried, per node, the full summary plus
        // an Option'd boxed `2^d`-slot child array on every internal
        // node; `NODE_BYTES`/`child_array_bytes` is the same accounting
        // the live tree charges itself. The packed layout must beat it
        // for every d ≥ 2, and the win must grow with d as the slot
        // arrays fill up with NIL padding.
        let mut last_ratio = f64::MAX;
        for dims in [2usize, 3, 4] {
            let mut m = model_d(dims, 1 << 16);
            spread_points(&mut m, 600);
            let f = m.freeze();
            let internal = m.nodes().iter().filter(|n| n.n_children > 0).count();
            let boxed_layout = f.node_count() * NODE_BYTES + internal * child_array_bytes(dims);
            assert!(
                f.bytes() < boxed_layout,
                "d={dims}: packed {} must beat boxed {}",
                f.bytes(),
                boxed_layout
            );
            let ratio = f.bytes() as f64 / boxed_layout as f64;
            assert!(ratio < last_ratio, "packing must pay more as d grows");
            last_ratio = ratio;
        }
    }

    #[test]
    fn high_dimension_wide_masks_stay_equivalent() {
        // d = 7 → fanout 128: the inline 64-bit mask no longer fits and
        // the wide-mask slab takes over. Same semantics, still far
        // smaller than 128 boxed slots per internal node.
        let mut m = model_d(7, 1 << 18);
        let pts: Vec<Vec<f64>> = (0..120u32)
            .map(|i| (0..7).map(|d| f64::from(i.wrapping_mul(89 + d) % 1000)).collect())
            .collect();
        for (i, p) in pts.iter().enumerate() {
            m.insert(p, (i % 11) as f64).unwrap();
        }
        let f = m.freeze();
        assert_eq!(f.node_count(), m.node_count());
        for p in &pts {
            assert_eq!(f.predict(p).unwrap(), m.predict(p).unwrap(), "point {p:?}");
            for beta in [1, 3, 50] {
                assert_eq!(
                    f.predict_with_beta(p, beta).unwrap(),
                    m.predict_with_beta(p, beta).unwrap()
                );
            }
        }
        // The pair kernel's wide-mask fallback agrees with scalar
        // descents.
        let (a, b) = pair_batch(&f, &f, &pts);
        for ((p, got_a), got_b) in pts.iter().zip(&a).zip(&b) {
            assert_eq!(*got_a, f.predict(p).unwrap());
            assert_eq!(*got_b, f.predict(p).unwrap());
        }
        let internal = m.nodes().iter().filter(|n| n.n_children > 0).count();
        let boxed_layout = f.node_count() * NODE_BYTES + internal * child_array_bytes(7);
        assert!(f.bytes() < boxed_layout);
    }

    #[test]
    fn structure_accessors_expose_the_tree_shape() {
        let mut m = model(1 << 16);
        m.insert(&[1.0, 1.0], 5.0).unwrap();
        let f = m.freeze();
        let (count, avg) = f.node_stats(0);
        assert_eq!(count, 1);
        assert!((avg - 5.0).abs() < 1e-12);
        // [1,1] lives in the low quadrant at every level: slot 0 chains.
        let child = f.child_of(0, 0).expect("root has a low-quadrant child");
        assert!(f.child_of(0, 1).is_none());
        assert_eq!(f.node_stats(child).0, 1);
    }

    #[test]
    fn clone_of_live_tree_diverges_independently() {
        let mut a = model(1 << 16);
        a.insert(&[10.0, 10.0], 5.0).unwrap();
        let mut b = a.clone();
        b.insert(&[10.0, 10.0], 105.0).unwrap();
        assert_eq!(a.predict(&[10.0, 10.0]).unwrap(), Some(5.0));
        assert_eq!(b.predict(&[10.0, 10.0]).unwrap(), Some(55.0));
    }

    #[test]
    fn cloned_live_trees_refreeze_soundly() {
        // `Clone` copies the freeze state and dirty log along with the
        // arena, so a clone patching a pre-clone snapshot is still exact.
        let mut a = model(1 << 18);
        spread_points(&mut a, 200);
        let prev = a.freeze();
        let mut b = a.clone();
        b.insert(&[97.0, 128.0], 9.0).unwrap(); // existing path: value-only
        let patched = b.refreeze(&prev);
        assert_bit_identical(&patched, &FrozenTree::from_tree(&b));
        // The original tree is unaffected and patches independently.
        a.insert(&[97.0, 128.0], 4.0).unwrap();
        let patched_a = a.refreeze(&prev);
        assert_bit_identical(&patched_a, &FrozenTree::from_tree(&a));
    }
}
