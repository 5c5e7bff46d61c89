//! Arena storage for quadtree nodes.
//!
//! Nodes live in a `Vec` and refer to each other through `u32` indices;
//! freed slots are recycled through a free list. Child pointers are kept in
//! a lazily allocated boxed slice of `2^d` slots so that leaves — the large
//! majority of nodes under compression — pay nothing for fan-out. This is
//! both the fast layout (no pointer chasing across allocations) and the
//! layout the byte-accounting model in [`crate::NODE_BYTES`] describes.

use crate::summary::Summary;

/// Sentinel for "no node" inside the arena.
pub(crate) const NIL: u32 = u32::MAX;

/// One quadtree node: the summary of its block plus tree bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Summary statistics of every data point that mapped into this block.
    pub summary: Summary,
    /// Arena index of the parent; `NIL` for the root.
    pub parent: u32,
    /// Which child slot of the parent this node occupies.
    pub slot_in_parent: u16,
    /// Depth in the tree; the root is 0.
    pub depth: u8,
    /// Number of live children (kept so leaf checks are O(1)).
    pub n_children: u16,
    /// Child pointer array of length `2^d`, allocated on first child.
    pub children: Option<Box<[u32]>>,
}

impl Node {
    pub(crate) fn new(parent: u32, slot_in_parent: u16, depth: u8) -> Self {
        Node {
            summary: Summary::empty(),
            parent,
            slot_in_parent,
            depth,
            n_children: 0,
            children: None,
        }
    }

    /// True when the node has no children (paper: a "non-full" leaf node).
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.n_children == 0
    }

    /// Child index in slot `slot`, if present.
    #[inline]
    pub(crate) fn child(&self, slot: usize) -> Option<u32> {
        match &self.children {
            Some(c) if c[slot] != NIL => Some(c[slot]),
            _ => None,
        }
    }
}

/// Slab of nodes with index recycling.
#[derive(Debug, Default, Clone)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Index-aligned with `nodes`: true while the slot sits on the free
    /// list, so liveness is an O(1) test.
    freed: Vec<bool>,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena::default()
    }

    /// Number of live (non-freed) nodes.
    pub(crate) fn live(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of slots ever allocated (live + freed); the index range a
    /// dense arena-keyed side table must cover.
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn alloc(&mut self, node: Node) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            self.freed[idx as usize] = false;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("arena exceeds u32 indices");
            self.nodes.push(node);
            self.freed.push(false);
            idx
        }
    }

    /// Returns a slot to the free list. The caller must already have
    /// unlinked the node from its parent.
    pub(crate) fn free(&mut self, idx: u32) {
        debug_assert!(!self.freed[idx as usize], "double free of node {idx}");
        // Drop any child array now so its memory is not held hostage by the
        // free list.
        self.nodes[idx as usize].children = None;
        self.nodes[idx as usize].n_children = 0;
        self.freed[idx as usize] = true;
        self.free.push(idx);
    }

    /// True while `idx` names an allocated, not yet freed slot.
    #[inline]
    pub(crate) fn is_live(&self, idx: u32) -> bool {
        self.freed.get(idx as usize).is_some_and(|&freed| !freed)
    }

    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut Node {
        &mut self.nodes[idx as usize]
    }

    /// Iterator over `(index, node)` pairs of live nodes, in index order.
    /// O(capacity) and allocation-free; used by diagnostics, not on the
    /// insert path.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.nodes
            .iter()
            .zip(&self.freed)
            .enumerate()
            .filter(|(_, (_, &freed))| !freed)
            .map(|(i, (n, _))| (i as u32, n))
    }
}

/// Read-only view of one node, exposed for inspection, tests, and the
/// experiment harness (e.g. rendering tree shapes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// Depth in the tree (root = 0).
    pub depth: u8,
    /// Summary statistics of the node's block.
    pub summary: Summary,
    /// Number of children.
    pub n_children: u16,
    /// Child slot occupied in the parent (0 for the root).
    pub slot_in_parent: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut a = Arena::new();
        let n0 = a.alloc(Node::new(NIL, 0, 0));
        let n1 = a.alloc(Node::new(n0, 1, 1));
        assert_eq!(a.live(), 2);
        a.free(n1);
        assert_eq!(a.live(), 1);
        let n2 = a.alloc(Node::new(n0, 2, 1));
        assert_eq!(n2, n1, "freed index is recycled");
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn free_drops_child_array() {
        let mut a = Arena::new();
        let n0 = a.alloc(Node::new(NIL, 0, 0));
        a.get_mut(n0).children = Some(vec![NIL; 4].into_boxed_slice());
        a.get_mut(n0).n_children = 0;
        a.free(n0);
        // Slot is recycled clean.
        let n1 = a.alloc(Node::new(NIL, 0, 0));
        assert_eq!(n1, n0);
        assert!(a.get(n1).children.is_none());
    }

    #[test]
    fn child_lookup_handles_missing_array_and_nil() {
        let mut n = Node::new(NIL, 0, 0);
        assert_eq!(n.child(3), None);
        let mut arr = vec![NIL; 4].into_boxed_slice();
        arr[2] = 7;
        n.children = Some(arr);
        assert_eq!(n.child(2), Some(7));
        assert_eq!(n.child(3), None);
    }

    #[test]
    fn iter_live_skips_freed() {
        let mut a = Arena::new();
        let n0 = a.alloc(Node::new(NIL, 0, 0));
        let n1 = a.alloc(Node::new(n0, 0, 1));
        let n2 = a.alloc(Node::new(n0, 1, 1));
        a.free(n1);
        let live: Vec<u32> = a.iter_live().map(|(i, _)| i).collect();
        assert_eq!(live, vec![n0, n2]);
    }

    #[test]
    fn is_leaf_tracks_n_children() {
        let mut n = Node::new(NIL, 0, 0);
        assert!(n.is_leaf());
        n.n_children = 1;
        assert!(!n.is_leaf());
    }
}
