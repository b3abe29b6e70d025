//! Flattened, total-annotated split-tree indices for O(log b) range sums.
//!
//! [`TreeIndex`] lowers a [`SplitTree`] into two contiguous parallel
//! arrays — a flat `f64` array of per-node **subtree totals** and a packed
//! node array with precomputed child offsets — and answers
//! `mass_in_box` queries with a pruned walk that is **bit-identical** to
//! [`SplitTree::mass_in_box`] while touching only the buckets on the
//! query-box boundary ("Enhancing Histograms by Tree-Like Bucket
//! Indices"-style aggregates).
//!
//! # Layout
//!
//! Nodes are stored in preorder: a node at index `i` has its left child at
//! `i + 1` and its right child at an explicit offset (a CSR-style index),
//! so a root-to-leaf descent is a forward scan of two contiguous arrays.
//! Each packed node carries the split value, the right-child offset, and
//! the split attribute's *position* within the tree's attribute set
//! (`u16::MAX` marks a leaf), so the walk never re-derives
//! `attrs.position(attr)` per node.
//!
//! Every arena node is materialized. Zero subtrees are not collapsed:
//! prune 1 below stops the walk at a zero subtree's root before it reads
//! the node, so a zero subtree costs one visit whatever its shape.
//!
//! # Bit-identity contract
//!
//! The walk reproduces `SplitTree::mass_rec` exactly — same descent
//! conditions, same left-then-right `+=` accumulation, same per-leaf
//! fraction loop in attribute order — and adds exactly two prunes, each
//! proven to return the bit pattern the full recursion would:
//!
//! 1. **Zero subtrees.** Leaf frequencies are validated non-negative, so a
//!    subtree total of `0.0` means every leaf in it is exactly zero; the
//!    full recursion over it returns `+0.0` (every leaf short-circuits on
//!    its zero check), and `x + 0.0 == x` bitwise for the non-negative
//!    accumulator. Returning `0.0` without descending is identical.
//! 2. **Fully-contained subtrees.** When the query box covers the node's
//!    box in every dimension (tracked in a per-dimension bitmask that only
//!    the split dimension can change on descent), every leaf fraction
//!    factor is exactly `(hi-lo+1)/(hi-lo+1) == 1.0`, so each non-zero
//!    leaf contributes exactly `freq` and the recursion's tree-shaped sum
//!    `(l + r)` is precisely how the subtree totals were precomputed.
//!    Returning the stored total is identical.
//!
//! The summation order is therefore *fixed by the tree shape* and shared
//! with `SplitTree::mass_rec`; `tests/plan_equivalence.rs` pins the equivalence
//! with proptests.

use dbhist_distribution::{AttrId, AttrSet};

use super::{Node, SplitTree};

/// Sentinel in [`PackedNode::pos`] marking a leaf.
const LEAF_POS: u16 = u16::MAX;

/// One flattened node: split value, right-child offset (left child is
/// always the next index), and the split attribute's position in the
/// tree's attribute set (`u16::MAX` = leaf).
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    split: u32,
    right: u32,
    pos: u16,
}

/// A flattened split tree answering `mass_in_box` with a pruned,
/// bit-identical walk; see the `mhist::index` module docs for the layout
/// and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    attrs: AttrSet,
    /// The root box, one inclusive range per attribute position.
    domain: Vec<(u32, u32)>,
    /// Per-node subtree totals — the contiguous flat `f64` array.
    totals: Vec<f64>,
    /// Parallel packed structure array.
    nodes: Vec<PackedNode>,
}

impl TreeIndex {
    /// Lowers `tree` into a flattened index.
    ///
    /// Returns `None` when the tree cannot be indexed: more than 64
    /// attributes (the containment bitmask is a `u64`), or a structurally
    /// inconsistent arena (an uncovered split attribute), for which the
    /// caller must keep using the tree walk.
    #[must_use]
    pub fn lower(tree: &SplitTree) -> Option<Self> {
        if tree.attrs().len() > 64 {
            return None;
        }
        // Subtree totals on the source arena, children before parents.
        // Leaf totals are zero-normalized (`-0.0` → `+0.0`) so the flat
        // total doubles as the walk's zero short-circuit; for non-zero
        // leaves the total *is* the frequency bit pattern.
        let arena = tree.nodes();
        let mut arena_total = vec![0.0f64; arena.len()];
        for (idx, node) in arena.iter().enumerate().rev() {
            arena_total[idx] = match node {
                Node::Leaf { freq } => {
                    // lint:allow-next-line(float-cmp): exact-zero normalization mirrors mass_rec's short-circuit
                    if *freq == 0.0 {
                        0.0
                    } else {
                        *freq
                    }
                }
                Node::Internal { left, right, .. } => {
                    // Children always sit later in the arena than their
                    // parent in builder/codec output; fall back to a
                    // second pass if not.
                    let (l, r) = (*left as usize, *right as usize);
                    if l <= idx || r <= idx {
                        return None;
                    }
                    arena_total[l] + arena_total[r]
                }
            };
        }
        let mut index = Self {
            attrs: tree.attrs().clone(),
            domain: tree.domain().ranges().to_vec(),
            totals: Vec::with_capacity(arena.len()),
            nodes: Vec::with_capacity(arena.len()),
        };
        index.emit(tree, &arena_total, 0)?;
        Some(index)
    }

    /// Appends the subtree rooted at arena node `src` in preorder.
    /// Returns `None` on an uncovered split attribute (corrupt tree).
    fn emit(&mut self, tree: &SplitTree, arena_total: &[f64], src: u32) -> Option<()> {
        let total = arena_total[src as usize];
        match &tree.nodes()[src as usize] {
            Node::Internal { attr, split, left, right } => {
                let pos = tree.attrs().position(*attr)?;
                let pos = u16::try_from(pos).ok().filter(|p| *p != LEAF_POS)?;
                let here = self.nodes.len();
                self.totals.push(total);
                self.nodes.push(PackedNode { split: *split, right: 0, pos });
                self.emit(tree, arena_total, *left)?;
                let right_at = u32::try_from(self.nodes.len()).ok()?;
                self.nodes[here].right = right_at;
                self.emit(tree, arena_total, *right)?;
            }
            Node::Leaf { .. } => {
                self.totals.push(total);
                self.nodes.push(PackedNode { split: 0, right: 0, pos: LEAF_POS });
            }
        }
        Some(())
    }

    /// The attributes the index covers (same as the source tree).
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Total frequency mass (the root's subtree total).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.totals.first().copied().unwrap_or(0.0)
    }

    /// Heap bytes held by the two flat arrays.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.totals.len() * std::mem::size_of::<f64>()
            + self.nodes.len() * std::mem::size_of::<PackedNode>()
    }

    /// Bit-identical to [`SplitTree::mass_in_box`] on the source tree;
    /// allocates its own scratch. Prefer
    /// [`TreeIndex::mass_in_box_with`] on hot paths.
    #[must_use]
    pub fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        self.mass_in_box_with(ranges, &mut bounds, &mut constraint)
    }

    /// Bit-identical to [`SplitTree::mass_in_box`] on the source tree,
    /// reusing caller-owned scratch buffers (cleared and refilled here)
    /// so repeated queries allocate nothing.
    #[must_use]
    pub fn mass_in_box_with(
        &self,
        ranges: &[(AttrId, u32, u32)],
        bounds: &mut Vec<(u32, u32)>,
        constraint: &mut Vec<(u32, u32)>,
    ) -> f64 {
        // Constraint setup is verbatim from SplitTree::mass_in_box: query
        // ranges intersected with the domain, empty intersection ⇒ 0.
        constraint.clear();
        constraint.extend_from_slice(&self.domain);
        for &(a, lo, hi) in ranges {
            if let Some(p) = self.attrs.position(a) {
                let c = &mut constraint[p];
                *c = (c.0.max(lo), c.1.min(hi));
                if c.0 > c.1 {
                    return 0.0;
                }
            }
        }
        bounds.clear();
        bounds.extend_from_slice(&self.domain);
        // Bit p of `resolved` = "the query box fully covers the current
        // node's box in dimension p". Since the constraint was intersected
        // with the domain, the root is covered exactly where the
        // constraint equals the domain.
        let full: u64 =
            if self.domain.len() >= 64 { u64::MAX } else { (1u64 << self.domain.len()) - 1 };
        let mut resolved = 0u64;
        for (p, (&(lo, hi), &(clo, chi))) in bounds.iter().zip(constraint.iter()).enumerate() {
            if clo <= lo && hi <= chi {
                resolved |= 1u64 << p;
            }
        }
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.mass_rec(0, bounds, constraint, resolved, full)
    }

    /// The pruned walk; see the module docs for why both prunes are
    /// bit-identical to `SplitTree::mass_rec`.
    fn mass_rec(
        &self,
        i: usize,
        bounds: &mut [(u32, u32)],
        constraint: &[(u32, u32)],
        resolved: u64,
        full: u64,
    ) -> f64 {
        let t = self.totals[i];
        // lint:allow-next-line(float-cmp): exact-zero subtree prune (proof in module docs)
        if t == 0.0 {
            return 0.0;
        }
        if resolved == full {
            return t;
        }
        let node = self.nodes[i];
        if node.pos == LEAF_POS {
            // Verbatim leaf fraction loop from SplitTree::mass_rec; `t`
            // is the leaf frequency bit pattern (non-zero here).
            let mut fraction = 1.0;
            for (&(lo, hi), &(clo, chi)) in bounds.iter().zip(constraint) {
                let olo = lo.max(clo);
                let ohi = hi.min(chi);
                if olo > ohi {
                    return 0.0;
                }
                fraction *= (f64::from(ohi - olo) + 1.0) / (f64::from(hi - lo) + 1.0);
            }
            return t * fraction;
        }
        let p = usize::from(node.pos);
        let split = node.split;
        let (lo, hi) = bounds[p];
        let (clo, chi) = constraint[p];
        // Only dimension p changes on descent, so only bit p of the
        // containment mask needs recomputing per child.
        let base = resolved & !(1u64 << p);
        let mut mass = 0.0;
        if clo < split && lo < split {
            bounds[p] = (lo, split - 1);
            let r = base | (u64::from(clo <= lo && split - 1 <= chi) << p);
            mass += self.mass_rec(i + 1, bounds, constraint, r, full);
        }
        if chi >= split && hi >= split {
            bounds[p] = (split, hi);
            let r = base | (u64::from(clo <= split && hi <= chi) << p);
            mass += self.mass_rec(node.right as usize, bounds, constraint, r, full);
        }
        bounds[p] = (lo, hi);
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::mhist::MhistBuilder;
    use crate::SplitCriterion;
    use dbhist_distribution::{Relation, Schema};

    fn skewed_tree(zero_fraction: u32) -> SplitTree {
        // 16x16 grid where only cells with x % zero_fraction == 0 carry mass.
        let schema = Schema::new(vec![("x", 16), ("y", 16)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..16u32 {
            for y in 0..16u32 {
                if zero_fraction == 0 || x % zero_fraction == 0 {
                    for _ in 0..=(x + y) % 5 {
                        rows.push(vec![x, y]);
                    }
                }
            }
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        MhistBuilder::build(&rel.distribution(), 24, SplitCriterion::MaxDiff).unwrap()
    }

    fn boxes() -> Vec<Vec<(AttrId, u32, u32)>> {
        let mut out = vec![vec![]];
        for lo in [0u32, 3, 7, 15] {
            for hi in [0u32, 4, 9, 15] {
                out.push(vec![(0, lo, hi)]);
                out.push(vec![(1, lo, hi)]);
                out.push(vec![(0, lo, hi), (1, hi.min(12), 15)]);
                out.push(vec![(0, lo, hi), (1, 2, 5), (0, 1, 14)]);
            }
        }
        out.push(vec![(9, 0, 0)]); // uncovered attribute ignored
        out
    }

    #[test]
    fn dense_index_is_bit_identical_to_tree_walk() {
        let tree = skewed_tree(0);
        let index = TreeIndex::lower(&tree).unwrap();
        assert_eq!(index.total().to_bits(), {
            let mut b = Vec::new();
            let mut c = Vec::new();
            index.mass_in_box_with(&[], &mut b, &mut c).to_bits()
        });
        for q in boxes() {
            assert_eq!(
                tree.mass_in_box(&q).to_bits(),
                index.mass_in_box(&q).to_bits(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn low_occupancy_index_stays_bit_identical() {
        let tree = skewed_tree(8); // only x ∈ {0, 8} occupied
        let index = TreeIndex::lower(&tree).unwrap();
        for q in boxes() {
            assert_eq!(
                tree.mass_in_box(&q).to_bits(),
                index.mass_in_box(&q).to_bits(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_across_queries_changes_nothing() {
        let tree = skewed_tree(3);
        let index = TreeIndex::lower(&tree).unwrap();
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        for q in boxes() {
            let fresh = index.mass_in_box(&q);
            let reused = index.mass_in_box_with(&q, &mut bounds, &mut constraint);
            assert_eq!(fresh.to_bits(), reused.to_bits());
            assert_eq!(tree.mass_in_box(&q).to_bits(), reused.to_bits());
        }
    }

    #[test]
    fn fully_contained_prune_returns_the_total() {
        let attrs = AttrSet::from_ids([0, 1]);
        let domain = BoundingBox::new(attrs.clone(), vec![(0, 7), (0, 7)]);
        let nodes = vec![
            Node::Internal { attr: 0, split: 4, left: 1, right: 2 },
            Node::Leaf { freq: 0.1 + 0.2 }, // deliberately inexact
            Node::Leaf { freq: 24.0 },
        ];
        let tree = SplitTree::from_parts(attrs, domain, nodes);
        let index = TreeIndex::lower(&tree).unwrap();
        let full = [(0u16, 0u32, 7u32), (1, 0, 7)];
        assert_eq!(tree.mass_in_box(&full).to_bits(), index.mass_in_box(&full).to_bits());
        assert_eq!(index.mass_in_box(&full).to_bits(), index.total().to_bits());
    }
}
