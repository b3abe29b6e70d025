//! MHIST operators on split trees (paper §3.3.2, Figs. 4 & 5).
//!
//! Both `project` and `product` work *solely on the split-tree
//! representation* of their inputs and output — the paper's headline
//! implementation contribution — and both write their output straight
//! into the [`SplitTree`] node arena in preorder (placeholder, left
//! subtree, right subtree), tracking the current node's box in one
//! in-place bounds buffer instead of cloning a [`BoundingBox`] per node.
//! Subtrees whose two children both come out as zero leaves collapse into
//! one zero leaf as they are written.
//!
//! * `project` (Fig. 4) first builds the projection's structure with the
//!   paper's `genSplits`/`restrictNode` overlay, then materializes it,
//!   computing each output bucket's frequency as the uniformity-weighted
//!   sum `Σ w_l'·frequency(l')` with the source's allocation-free mass
//!   walk.
//! * `product` (Fig. 5) is one recursive walk. It walks `self`'s split
//!   tree and, under each non-zero bucket, `other`'s tree restricted to
//!   the bucket's ranges along the shared attributes (the paper's
//!   `restrictNode`), emitting output nodes as it goes. Each output
//!   bucket lies inside exactly one bucket of each operand, so the
//!   separation formula `(w_i f_i)(w_j f_j)/(w_ij f_ij)` takes its operand
//!   terms in O(1) from the enclosing buckets (`other`'s leaf volumes are
//!   precomputed once), and the separator term from a mass query on
//!   `H(S_ij)` that starts at the deepest separator node containing the
//!   current `self` bucket — generalizing the paper's formula to output
//!   buckets that straddle several separator buckets. A node budget
//!   bounds the walk; regions past it become coarse buckets whose terms
//!   all come from mass queries started at the roots.

use dbhist_distribution::{AttrId, AttrSet};

use crate::bbox::BoundingBox;
use crate::error::HistogramError;

use super::{Node, NodeId, SplitTree};

/// Split structure of a projection (the output of `genSplits`): the
/// output tree's splits, before leaf frequencies are computed.
#[derive(Debug, Clone)]
enum TempNode {
    Internal { attr: AttrId, split: u32, left: Box<TempNode>, right: Box<TempNode> },
    Leaf,
}

/// Upper bound on the number of structural nodes a single `product` may
/// materialize. Chained products over many cliques grow multiplicatively;
/// past this budget the remaining regions collapse into coarse buckets
/// (estimates stay uniformity-consistent, resolution degrades gracefully,
/// and memory stays bounded).
const PRODUCT_NODE_BUDGET: usize = 1 << 18;

impl SplitTree {
    /// Projects the histogram onto `attrs ⊂ self.attrs()` (paper Fig. 4):
    /// the output split tree reflects every split along the kept
    /// dimensions, and each output bucket's frequency is the
    /// uniformity-weighted mass of the input inside it.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::NotASubset`] if `attrs` is not a subset of
    /// the histogram's attributes, or [`HistogramError::InvalidRequest`]
    /// for an empty target set.
    pub fn project(&self, attrs: &AttrSet) -> Result<SplitTree, HistogramError> {
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot project onto the empty attribute set".into(),
            });
        }
        if let Some(missing) = attrs.iter().find(|&a| !self.attrs().contains(a)) {
            return Err(HistogramError::NotASubset { missing });
        }
        if attrs == self.attrs() {
            return Ok(self.clone());
        }
        // Step 1 (genSplits): structure of the projected tree.
        let domain = sub_box(self.domain(), attrs);
        let structure = gen_splits(self, 0, attrs, &domain);
        // Steps 2–4: frequencies from uniformity-weighted sums.
        let mut pass = ProjectPass::new(self, attrs, &domain);
        pass.emit(&structure);
        Ok(SplitTree::from_parts(attrs.clone(), domain, pass.nodes))
    }

    /// Multiplies two clique histograms into a histogram over the union of
    /// their attributes (paper Fig. 5), using the separation formula
    /// `f_{Ci ∪ Cj} = f_{Ci} · f_{Cj} / f_{Ci ∩ Cj}`.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::IncompatibleOperands`] if the operands
    /// disagree on a shared attribute's domain.
    pub fn product(&self, other: &SplitTree) -> Result<SplitTree, HistogramError> {
        self.product_budgeted(other, PRODUCT_NODE_BUDGET)
    }

    /// [`SplitTree::product`] under an explicit node budget (tests force
    /// coarse buckets with small ones).
    fn product_budgeted(
        &self,
        other: &SplitTree,
        budget: usize,
    ) -> Result<SplitTree, HistogramError> {
        let shared = self.attrs().intersection(other.attrs());
        for a in shared.iter() {
            if self.domain().range(a) != other.domain().range(a) {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} has different domains in the operands"),
                });
            }
        }
        let union = self.attrs().union(other.attrs());
        // Union domain box: every union attribute has a range in at least
        // one operand by construction; a miss means corrupt operands.
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(union.len());
        for a in union.iter() {
            let Some(r) = self.domain().range(a).or_else(|| other.domain().range(a)) else {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} missing from both operand domains"),
                });
            };
            ranges.push(r);
        }
        let domain = BoundingBox::new(union.clone(), ranges);

        // Step 6: the separator histogram H(S_ij) = project(H(C_i), S_ij).
        let separator = if shared.is_empty() {
            None
        } else {
            Some(Separator::new(self.project(&shared)?, &union, self.attrs()))
        };

        // Steps 1–5 (graft `other`, restricted, onto every bucket of
        // `self`) and 7–11 (separation-formula frequencies) in one walk.
        let mut pass = ProductPass::new(self, other, &domain, separator, budget);
        pass.walk(Level::Lhs, 0);
        let nodes = pass.nodes;
        Ok(SplitTree::from_parts(union, domain, nodes))
    }
}

/// Restricts `domain` to the attributes in `attrs`. Attributes absent
/// from `domain` — excluded by the callers' subset checks — are dropped
/// rather than invented.
fn sub_box(domain: &BoundingBox, attrs: &AttrSet) -> BoundingBox {
    let mut kept = AttrSet::empty();
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(attrs.len());
    for a in attrs.iter() {
        if let Some(r) = domain.range(a) {
            kept = kept.with(a);
            ranges.push(r);
        }
    }
    BoundingBox::new(kept, ranges)
}

/// The paper's `genSplits(N, S)` (Fig. 4): the structure of the projection
/// of the subtree at `node` onto `keep`, expressed over `keep`'s domain
/// box `keep_box`.
fn gen_splits(tree: &SplitTree, node: NodeId, keep: &AttrSet, keep_box: &BoundingBox) -> TempNode {
    match &tree.nodes()[node as usize] {
        Node::Leaf { .. } => TempNode::Leaf,
        Node::Internal { attr, split, left, right } => {
            let l = gen_splits(tree, *left, keep, keep_box);
            let r = gen_splits(tree, *right, keep, keep_box);
            if keep.contains(*attr) {
                TempNode::Internal {
                    attr: *attr,
                    split: *split,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            } else {
                // Fig. 4 steps 8–12: overlay the right structure onto every
                // leaf of the left structure, so that all splits along the
                // kept dimensions survive.
                overlay(l, &r, keep_box.clone())
            }
        }
    }
}

/// Replaces every leaf of `base` (whose box is tracked in `bbox`) with
/// `other` restricted to that leaf's ranges.
fn overlay(base: TempNode, other: &TempNode, bbox: BoundingBox) -> TempNode {
    match base {
        TempNode::Leaf => restrict_node(other, &bbox),
        TempNode::Internal { attr, split, left, right } => {
            // Kept split attributes always have a range in the kept box;
            // if not (corrupt structure), degrade by skipping the clamp.
            let Some((lo, hi)) = bbox.range(attr) else {
                return TempNode::Internal {
                    attr,
                    split,
                    left: Box::new(overlay(*left, other, bbox.clone())),
                    right: Box::new(overlay(*right, other, bbox)),
                };
            };
            let mut lbox = bbox.clone();
            lbox.clamp(attr, lo, split - 1);
            let mut rbox = bbox;
            rbox.clamp(attr, split, hi);
            TempNode::Internal {
                attr,
                split,
                left: Box::new(overlay(*left, other, lbox)),
                right: Box::new(overlay(*right, other, rbox)),
            }
        }
    }
}

/// The paper's `restrictNode(N, R)`: the subtree of `node` containing only
/// the splits and leaves pertaining to the range restriction `restriction`.
/// Attributes not constrained by the restriction pass through untouched.
fn restrict_node(node: &TempNode, restriction: &BoundingBox) -> TempNode {
    match node {
        TempNode::Leaf => TempNode::Leaf,
        TempNode::Internal { attr, split, left, right } => match restriction.range(*attr) {
            Some((_, hi)) if hi < *split => restrict_node(left, restriction),
            Some((lo, _)) if lo >= *split => restrict_node(right, restriction),
            _ => TempNode::Internal {
                attr: *attr,
                split: *split,
                left: Box::new(restrict_node(left, restriction)),
                right: Box::new(restrict_node(right, restriction)),
            },
        },
    }
}

/// One side of `range` split at `split`, narrowed exactly as the tree
/// walks narrow a [`BoundingBox`] with `clamp`: a side that would be
/// empty (only in a corrupt tree) leaves `range` unchanged.
fn side(range: (u32, u32), split: u32, right: bool) -> (u32, u32) {
    let (lo, hi) = if right {
        (range.0.max(split), range.1)
    } else {
        (range.0, range.1.min(split.saturating_sub(1)))
    };
    if lo <= hi {
        (lo, hi)
    } else {
        range
    }
}

/// A dimension of an in-place box saved before a split narrows it: its
/// slot in the box and its range (`None` if the box lacks the split
/// attribute, which only a corrupt tree does; the box then stays as is).
type Saved = Option<(usize, (u32, u32))>;

/// Narrows the saved dimension of `bounds` to one side of `split`.
fn enter(bounds: &mut [(u32, u32)], saved: Saved, split: u32, right: bool) {
    if let Some((p, range)) = saved {
        bounds[p] = side(range, split, right);
    }
}

/// Restores the saved dimension of `bounds`.
fn leave(bounds: &mut [(u32, u32)], saved: Saved) {
    if let Some((p, range)) = saved {
        bounds[p] = range;
    }
}

/// Number of integer points in a box given by its ranges (`Π (hi − lo +
/// 1)`), saturating — [`BoundingBox::volume`] on an in-place box.
fn volume<'r>(ranges: impl IntoIterator<Item = &'r (u32, u32)>) -> u64 {
    ranges.into_iter().map(|&(lo, hi)| u64::from(hi - lo) + 1).fold(1u64, u64::saturating_mul)
}

/// Appends a placeholder for an internal node and returns its id.
fn open_internal(nodes: &mut Vec<Node>) -> NodeId {
    let id = nodes.len() as NodeId;
    nodes.push(Node::Leaf { freq: 0.0 });
    id
}

/// Fills in the internal node opened at `id` once both children are in
/// the arena.
///
/// All-zero subtrees are collapsed into single zero leaves as they are
/// built: a zero bucket estimates zero over every sub-box regardless of
/// its internal splits, so the collapse is estimate-preserving, and it
/// shrinks the products of sparse operands (whose trimmed empty regions
/// multiply into large zero forests) dramatically.
fn close_internal(
    nodes: &mut Vec<Node>,
    id: NodeId,
    attr: AttrId,
    split: u32,
    left: NodeId,
    right: NodeId,
) {
    // Zero-collapse: if both children ended up as zero leaves (they are
    // the only arena entries past `id`), drop them.
    let both_zero = left == id + 1
        && matches!(nodes[left as usize], Node::Leaf { freq } if freq == 0.0) // lint:allow(float-cmp): collapse only literally-zero leaves
        && right as usize == nodes.len() - 1
        && matches!(nodes[right as usize], Node::Leaf { freq } if freq == 0.0); // lint:allow(float-cmp): collapse only literally-zero leaves
    if both_zero {
        nodes.truncate(id as usize + 1);
        // `id` already holds the zero-leaf placeholder.
    } else {
        nodes[id as usize] = Node::Internal { attr, split, left, right };
    }
}

/// Appends a leaf and returns its id.
fn push_leaf(nodes: &mut Vec<Node>, freq: f64) -> NodeId {
    let id = nodes.len() as NodeId;
    nodes.push(Node::Leaf { freq });
    id
}

/// Position of each attribute of `of` within `within`. Callers pass a
/// superset (a projection target within its source, an operand within
/// the union, the separator within either), so every lookup hits.
fn positions(of: &AttrSet, within: &AttrSet) -> Vec<usize> {
    of.iter().map(|a| within.position(a).unwrap_or(usize::MAX)).collect()
}

/// Leaf pass of `project`: writes the `genSplits` structure into the
/// arena, each leaf's frequency being `src.mass_in_box` of its box.
struct ProjectPass<'a> {
    src: &'a SplitTree,
    kept: &'a AttrSet,
    /// Box of the current output node over the kept attributes.
    bounds: Vec<(u32, u32)>,
    /// Source position of each kept attribute.
    positions: Vec<usize>,
    /// The current leaf's query box over the source attributes.
    constraint: Vec<(u32, u32)>,
    /// The source walk's node box (`mass_rec` restores it).
    walk: Vec<(u32, u32)>,
    nodes: Vec<Node>,
}

impl<'a> ProjectPass<'a> {
    fn new(src: &'a SplitTree, kept: &'a AttrSet, domain: &BoundingBox) -> Self {
        Self {
            src,
            kept,
            bounds: domain.ranges().to_vec(),
            positions: positions(kept, src.attrs()),
            constraint: src.domain().ranges().to_vec(),
            walk: src.domain().ranges().to_vec(),
            nodes: Vec::new(),
        }
    }

    fn emit(&mut self, structure: &TempNode) -> NodeId {
        match structure {
            TempNode::Leaf => {
                let freq = self.leaf_mass();
                push_leaf(&mut self.nodes, freq)
            }
            TempNode::Internal { attr, split, left, right } => {
                let id = open_internal(&mut self.nodes);
                let saved = self.kept.position(*attr).map(|p| (p, self.bounds[p]));
                enter(&mut self.bounds, saved, *split, false);
                let left = self.emit(left);
                enter(&mut self.bounds, saved, *split, true);
                let right = self.emit(right);
                leave(&mut self.bounds, saved);
                close_internal(&mut self.nodes, id, *attr, *split, left, right);
                id
            }
        }
    }

    /// [`SplitTree::mass_in_box`] of the current box, without allocating.
    fn leaf_mass(&mut self) -> f64 {
        self.constraint.copy_from_slice(self.src.domain().ranges());
        for (k, &p) in self.positions.iter().enumerate() {
            let (lo, hi) = self.bounds[k];
            let c = &mut self.constraint[p];
            *c = (c.0.max(lo), c.1.min(hi));
            if c.0 > c.1 {
                return 0.0;
            }
        }
        self.src.mass_rec(0, &mut self.walk, &self.constraint)
    }
}

/// The separator histogram `H(S_ij)` of a product, with the state of its
/// pruned mass queries.
struct Separator {
    tree: SplitTree,
    /// Position of each separator attribute in the union and among
    /// `self`'s attributes.
    union_pos: Vec<usize>,
    lhs_pos: Vec<usize>,
    /// Deepest separator node whose box contains the current `self`
    /// bucket's shared ranges, and that node's box.
    start: NodeId,
    start_box: Vec<(u32, u32)>,
    /// The current output bucket's query box.
    constraint: Vec<(u32, u32)>,
}

impl Separator {
    fn new(tree: SplitTree, union: &AttrSet, lhs: &AttrSet) -> Self {
        let union_pos = positions(tree.attrs(), union);
        let lhs_pos = positions(tree.attrs(), lhs);
        let start_box = tree.domain().ranges().to_vec();
        let constraint = start_box.clone();
        Self { tree, union_pos, lhs_pos, start: 0, start_box, constraint }
    }

    /// Descends from the root to the deepest node whose box contains the
    /// `self` bucket `lhs_box` along every separator attribute. Each
    /// output bucket of that `self` bucket lies inside it, so `mass_rec`
    /// from the root would visit exactly one child at every node above it
    /// and add the child's mass to `0.0` — and `0.0 + x == x` bitwise for
    /// the non-negative masses — hence starting there is bit-identical.
    fn seek(&mut self, lhs_box: &[(u32, u32)]) {
        self.start_box.copy_from_slice(self.tree.domain().ranges());
        let mut node = 0;
        while let Node::Internal { attr, split, left, right } = self.tree.nodes()[node as usize] {
            let Some(p) = self.tree.attrs().position(attr) else { break };
            let (lo, hi) = lhs_box[self.lhs_pos[p]];
            let (blo, bhi) = self.start_box[p];
            if hi < split && blo < split {
                self.start_box[p] = (blo, split - 1);
                node = left;
            } else if lo >= split && bhi >= split {
                self.start_box[p] = (split, bhi);
                node = right;
            } else {
                break;
            }
        }
        self.start = node;
    }

    /// [`SplitTree::mass_in_bounding_box`] of the union box `bounds`,
    /// which lies inside the bucket last passed to [`Separator::seek`].
    fn mass(&mut self, bounds: &[(u32, u32)]) -> f64 {
        let domain = self.tree.domain().ranges();
        for (p, &u) in self.union_pos.iter().enumerate() {
            let (lo, hi) = bounds[u];
            let c = (domain[p].0.max(lo), domain[p].1.min(hi));
            if c.0 > c.1 {
                return 0.0;
            }
            self.constraint[p] = c;
        }
        self.tree.mass_rec(self.start, &mut self.start_box, &self.constraint)
    }
}

/// The separation formula `(w_i f_i)(w_j f_j)/(w_ij f_ij)` with its zero
/// short-circuits; `fsep` runs only when both operand terms are non-zero.
fn separation(wi_fi: f64, wj_fj: f64, fsep: impl FnOnce() -> f64) -> f64 {
    // lint:allow-next-line(float-cmp): exact multiplicative zero short-circuit
    if wi_fi == 0.0 || wj_fj == 0.0 {
        return 0.0;
    }
    let fsep = fsep();
    if fsep <= 0.0 {
        0.0
    } else {
        wi_fi * wj_fj / fsep
    }
}

/// Which operand a [`ProductPass`] walk is in.
#[derive(Clone, Copy)]
enum Level {
    /// Walking `self`'s tree.
    Lhs,
    /// Walking `other`'s tree under the `self` bucket of this frequency
    /// and own-box volume.
    Rhs { freq: f64, volume: f64 },
}

/// The one-pass product walk (Fig. 5 steps 1–5 and 7–11).
struct ProductPass<'a> {
    lhs: &'a SplitTree,
    rhs: &'a SplitTree,
    union: &'a AttrSet,
    /// Box of the current output node over the union attributes.
    bounds: Vec<(u32, u32)>,
    /// Box of the current `lhs` node; while `rhs` is walked, the enclosing
    /// `lhs` bucket, whose shared ranges restrict `rhs`.
    lhs_box: Vec<(u32, u32)>,
    /// Union position of each `lhs` / `rhs` attribute.
    lhs_pos: Vec<usize>,
    rhs_pos: Vec<usize>,
    /// Own-box volume of each `rhs` leaf, by node id.
    rhs_volume: Vec<f64>,
    separator: Option<Separator>,
    /// Structural nodes left: decremented once per node visited, in the
    /// walk's preorder; at zero or below the walk emits coarse buckets.
    budget: isize,
    nodes: Vec<Node>,
}

impl<'a> ProductPass<'a> {
    fn new(
        lhs: &'a SplitTree,
        rhs: &'a SplitTree,
        domain: &'a BoundingBox,
        separator: Option<Separator>,
        budget: usize,
    ) -> Self {
        let union = domain.attrs();
        let mut rhs_volume = vec![0.0; rhs.nodes().len()];
        leaf_volumes(rhs, 0, &mut rhs.domain().ranges().to_vec(), &mut rhs_volume);
        Self {
            lhs,
            rhs,
            union,
            bounds: domain.ranges().to_vec(),
            lhs_box: lhs.domain().ranges().to_vec(),
            lhs_pos: positions(lhs.attrs(), union),
            rhs_pos: positions(rhs.attrs(), union),
            rhs_volume,
            separator,
            budget: isize::try_from(budget).unwrap_or(isize::MAX),
            nodes: Vec::new(),
        }
    }

    /// Emits the output subtree for `node` of the operand `level` walks.
    fn walk(&mut self, level: Level, node: NodeId) -> NodeId {
        self.budget -= 1;
        if self.budget <= 0 {
            return self.push_coarse();
        }
        match level {
            Level::Lhs => match self.lhs.nodes()[node as usize] {
                Node::Leaf { freq } => {
                    // lint:allow-next-line(float-cmp): exact zero marks a trimmed empty region
                    if freq == 0.0 {
                        // A zero operand bucket zeroes the whole region; no
                        // need to overlay the other operand's structure.
                        return push_leaf(&mut self.nodes, 0.0);
                    }
                    let volume = volume(&self.lhs_box) as f64;
                    if let Some(sep) = &mut self.separator {
                        sep.seek(&self.lhs_box);
                    }
                    self.walk(Level::Rhs { freq, volume }, 0)
                }
                Node::Internal { attr, split, left, right } => {
                    self.split(level, attr, split, left, right)
                }
            },
            Level::Rhs { freq: lhs_freq, volume: lhs_volume } => {
                match self.rhs.nodes()[node as usize] {
                    Node::Leaf { freq } => {
                        let freq = self.pair_freq(lhs_freq, lhs_volume, freq, node);
                        push_leaf(&mut self.nodes, freq)
                    }
                    Node::Internal { attr, split, left, right } => {
                        // restrictNode: a split the `lhs` bucket lies on
                        // one side of contributes only that side.
                        if let Some(p) = self.lhs.attrs().position(attr) {
                            let (lo, hi) = self.lhs_box[p];
                            if hi < split {
                                return self.walk(level, left);
                            }
                            if lo >= split {
                                return self.walk(level, right);
                            }
                        }
                        self.split(level, attr, split, left, right)
                    }
                }
            }
        }
    }

    /// Emits an internal output node splitting `attr` at `split`, with
    /// the subtrees of `left` and `right` below it.
    fn split(
        &mut self,
        level: Level,
        attr: AttrId,
        split: u32,
        left: NodeId,
        right: NodeId,
    ) -> NodeId {
        let id = open_internal(&mut self.nodes);
        // Only `lhs` splits narrow the `lhs` bucket box.
        let own = match level {
            Level::Lhs => self.lhs.attrs().position(attr).map(|p| (p, self.lhs_box[p])),
            Level::Rhs { .. } => None,
        };
        let out = self.union.position(attr).map(|p| (p, self.bounds[p]));
        enter(&mut self.lhs_box, own, split, false);
        enter(&mut self.bounds, out, split, false);
        let left = self.walk(level, left);
        enter(&mut self.lhs_box, own, split, true);
        enter(&mut self.bounds, out, split, true);
        let right = self.walk(level, right);
        leave(&mut self.lhs_box, own);
        leave(&mut self.bounds, out);
        close_internal(&mut self.nodes, id, attr, split, left, right);
        id
    }

    /// Frequency of the output bucket at the current box, which lies in
    /// the `lhs` bucket (`lhs_freq`, `lhs_volume`) and the `rhs` leaf
    /// `rhs_node`.
    fn pair_freq(
        &mut self,
        lhs_freq: f64,
        lhs_volume: f64,
        rhs_freq: f64,
        rhs_node: NodeId,
    ) -> f64 {
        let Self { lhs, bounds, lhs_pos, rhs_pos, rhs_volume, separator, .. } = self;
        let wi_fi = lhs_freq * volume(lhs_pos.iter().map(|&p| &bounds[p])) as f64 / lhs_volume;
        let wj_fj = rhs_freq * volume(rhs_pos.iter().map(|&p| &bounds[p])) as f64
            / rhs_volume[rhs_node as usize];
        let total = lhs.total();
        separation(wi_fi, wj_fj, || match separator {
            Some(sep) => sep.mass(bounds),
            None => total,
        })
    }

    /// Emits a coarse bucket at the current box: the budget ran out, so
    /// the bucket may span several buckets of each operand and every term
    /// of the formula comes from a mass query walked from the root.
    fn push_coarse(&mut self) -> NodeId {
        let leaf_box = BoundingBox::new(self.union.clone(), self.bounds.clone());
        let wi_fi = self.lhs.mass_in_bounding_box(&leaf_box);
        let wj_fj = self.rhs.mass_in_bounding_box(&leaf_box);
        let freq = separation(wi_fi, wj_fj, || match &self.separator {
            Some(sep) => sep.tree.mass_in_bounding_box(&leaf_box),
            None => self.lhs.total(),
        });
        push_leaf(&mut self.nodes, freq)
    }
}

/// Records the own-box volume of every leaf below `node` in `out`, by
/// node id; `bounds` is `node`'s box, narrowed in place and restored.
fn leaf_volumes(tree: &SplitTree, node: NodeId, bounds: &mut [(u32, u32)], out: &mut [f64]) {
    match tree.nodes()[node as usize] {
        Node::Leaf { .. } => out[node as usize] = volume(&*bounds) as f64,
        Node::Internal { attr, split, left, right } => {
            let saved = tree.attrs().position(attr).map(|p| (p, bounds[p]));
            enter(bounds, saved, split, false);
            leaf_volumes(tree, left, bounds, out);
            enter(bounds, saved, split, true);
            leaf_volumes(tree, right, bounds, out);
            leave(bounds, saved);
        }
    }
}

/// The product and projection exactly as they were computed before the
/// one-pass walk — boxed structural trees with payload leaves, a
/// [`BoundingBox`] per node, a separator mass query from the root per
/// leaf — kept as the bit-for-bit reference for the arena walks.
#[cfg(test)]
mod reference {
    use dbhist_distribution::{AttrId, AttrSet};

    use super::{gen_splits, sub_box, Node, NodeId, SplitTree, TempNode};
    use crate::bbox::BoundingBox;

    /// Structural tree with a payload on each leaf.
    #[derive(Debug, Clone)]
    enum RefNode<L> {
        Internal { attr: AttrId, split: u32, left: Box<RefNode<L>>, right: Box<RefNode<L>> },
        Leaf(L),
    }

    /// Frequency and own-box volume of a source bucket.
    #[derive(Debug, Clone, Copy)]
    struct SourceLeaf {
        freq: f64,
        volume: f64,
    }

    /// Payload of a product bucket.
    #[derive(Debug, Clone, Copy)]
    enum ProductLeaf {
        Pair { left: SourceLeaf, right: SourceLeaf },
        Coarse,
    }

    /// `(attr, lo, hi)` constraints of a box.
    pub(super) fn box_to_ranges(bbox: &BoundingBox) -> Vec<(AttrId, u32, u32)> {
        bbox.attrs().iter().zip(bbox.ranges()).map(|(a, &(lo, hi))| (a, lo, hi)).collect()
    }

    fn from_structure(node: &TempNode) -> RefNode<()> {
        match node {
            TempNode::Leaf => RefNode::Leaf(()),
            TempNode::Internal { attr, split, left, right } => RefNode::Internal {
                attr: *attr,
                split: *split,
                left: Box::new(from_structure(left)),
                right: Box::new(from_structure(right)),
            },
        }
    }

    /// `SplitTree::project` (for a proper, non-empty subset `attrs`).
    pub(super) fn project(tree: &SplitTree, attrs: &AttrSet) -> SplitTree {
        if attrs == tree.attrs() {
            return tree.clone();
        }
        let domain = sub_box(tree.domain(), attrs);
        let structure = from_structure(&gen_splits(tree, 0, attrs, &domain));
        materialize(attrs.clone(), domain, &structure, |leaf_box, ()| {
            tree.mass_in_box(&box_to_ranges(leaf_box))
        })
    }

    /// `SplitTree::product` under the node budget `budget`, for
    /// compatible operands.
    pub(super) fn product(lhs: &SplitTree, rhs: &SplitTree, budget: usize) -> SplitTree {
        let shared = lhs.attrs().intersection(rhs.attrs());
        let union = lhs.attrs().union(rhs.attrs());
        let ranges = union
            .iter()
            .map(|a| lhs.domain().range(a).or_else(|| rhs.domain().range(a)).unwrap())
            .collect();
        let domain = BoundingBox::new(union.clone(), ranges);
        let rhs_temp = to_source_temp(rhs, 0, rhs.domain().clone());
        let mut budget = isize::try_from(budget).unwrap();
        let structure = graft(lhs, 0, lhs.domain().clone(), &rhs_temp, &mut budget);
        let separator = if shared.is_empty() { None } else { Some(project(lhs, &shared)) };
        let (lhs_attrs, rhs_attrs) = (lhs.attrs().clone(), rhs.attrs().clone());
        materialize(union, domain, &structure, |leaf_box, payload: ProductLeaf| {
            let (wi_fi, wj_fj) = match payload {
                ProductLeaf::Pair { left, right } => (
                    left.freq * leaf_box.volume_over(&lhs_attrs) as f64 / left.volume,
                    right.freq * leaf_box.volume_over(&rhs_attrs) as f64 / right.volume,
                ),
                ProductLeaf::Coarse => {
                    (lhs.mass_in_bounding_box(leaf_box), rhs.mass_in_bounding_box(leaf_box))
                }
            };
            if wi_fi == 0.0 || wj_fj == 0.0 {
                return 0.0;
            }
            let fsep = match &separator {
                Some(sep) => sep.mass_in_bounding_box(leaf_box),
                None => lhs.total(),
            };
            if fsep <= 0.0 {
                0.0
            } else {
                wi_fi * wj_fj / fsep
            }
        })
    }

    fn to_source_temp(tree: &SplitTree, node: NodeId, bbox: BoundingBox) -> RefNode<SourceLeaf> {
        match &tree.nodes()[node as usize] {
            Node::Leaf { freq } => {
                RefNode::Leaf(SourceLeaf { freq: *freq, volume: bbox.volume() as f64 })
            }
            Node::Internal { attr, split, left, right } => {
                let (lo, hi) = bbox.range(*attr).unwrap_or((0, u32::MAX));
                let mut lbox = bbox.clone();
                lbox.clamp(*attr, lo, split.saturating_sub(1));
                let mut rbox = bbox;
                rbox.clamp(*attr, *split, hi);
                RefNode::Internal {
                    attr: *attr,
                    split: *split,
                    left: Box::new(to_source_temp(tree, *left, lbox)),
                    right: Box::new(to_source_temp(tree, *right, rbox)),
                }
            }
        }
    }

    fn graft(
        tree: &SplitTree,
        node: NodeId,
        own_box: BoundingBox,
        other: &RefNode<SourceLeaf>,
        budget: &mut isize,
    ) -> RefNode<ProductLeaf> {
        *budget -= 1;
        match &tree.nodes()[node as usize] {
            Node::Leaf { freq } => {
                if *budget <= 0 {
                    return RefNode::Leaf(ProductLeaf::Coarse);
                }
                if *freq == 0.0 {
                    return RefNode::Leaf(ProductLeaf::Pair {
                        left: SourceLeaf { freq: 0.0, volume: 1.0 },
                        right: SourceLeaf { freq: 0.0, volume: 1.0 },
                    });
                }
                let left = SourceLeaf { freq: *freq, volume: own_box.volume() as f64 };
                restrict_node_budgeted(other, &own_box, budget, &move |right| ProductLeaf::Pair {
                    left,
                    right,
                })
            }
            Node::Internal { attr, split, left, right } => {
                if *budget <= 0 {
                    return RefNode::Leaf(ProductLeaf::Coarse);
                }
                let (lo, hi) = own_box.range(*attr).unwrap_or((0, u32::MAX));
                let mut lbox = own_box.clone();
                lbox.clamp(*attr, lo, split.saturating_sub(1));
                let mut rbox = own_box;
                rbox.clamp(*attr, *split, hi);
                RefNode::Internal {
                    attr: *attr,
                    split: *split,
                    left: Box::new(graft(tree, *left, lbox, other, budget)),
                    right: Box::new(graft(tree, *right, rbox, other, budget)),
                }
            }
        }
    }

    fn restrict_node_budgeted(
        node: &RefNode<SourceLeaf>,
        restriction: &BoundingBox,
        budget: &mut isize,
        map: &impl Fn(SourceLeaf) -> ProductLeaf,
    ) -> RefNode<ProductLeaf> {
        *budget -= 1;
        if *budget <= 0 {
            return RefNode::Leaf(ProductLeaf::Coarse);
        }
        match node {
            RefNode::Leaf(payload) => RefNode::Leaf(map(*payload)),
            RefNode::Internal { attr, split, left, right } => match restriction.range(*attr) {
                Some((_, hi)) if hi < *split => {
                    restrict_node_budgeted(left, restriction, budget, map)
                }
                Some((lo, _)) if lo >= *split => {
                    restrict_node_budgeted(right, restriction, budget, map)
                }
                _ => RefNode::Internal {
                    attr: *attr,
                    split: *split,
                    left: Box::new(restrict_node_budgeted(left, restriction, budget, map)),
                    right: Box::new(restrict_node_budgeted(right, restriction, budget, map)),
                },
            },
        }
    }

    fn materialize<L: Copy>(
        attrs: AttrSet,
        domain: BoundingBox,
        structure: &RefNode<L>,
        mut leaf_freq: impl FnMut(&BoundingBox, L) -> f64,
    ) -> SplitTree {
        let mut nodes: Vec<Node> = Vec::new();
        build_arena(structure, &domain, &mut nodes, &mut leaf_freq);
        SplitTree::from_parts(attrs, domain, nodes)
    }

    fn build_arena<L: Copy>(
        structure: &RefNode<L>,
        bbox: &BoundingBox,
        nodes: &mut Vec<Node>,
        leaf_freq: &mut impl FnMut(&BoundingBox, L) -> f64,
    ) -> NodeId {
        match structure {
            RefNode::Leaf(payload) => {
                let id = nodes.len() as NodeId;
                nodes.push(Node::Leaf { freq: leaf_freq(bbox, *payload) });
                id
            }
            RefNode::Internal { attr, split, left, right } => {
                let id = nodes.len() as NodeId;
                nodes.push(Node::Leaf { freq: 0.0 });
                let (lo, hi) = bbox.range(*attr).unwrap_or((0, u32::MAX));
                let mut lbox = bbox.clone();
                lbox.clamp(*attr, lo, split.saturating_sub(1));
                let left_id = build_arena(left, &lbox, nodes, leaf_freq);
                let mut rbox = bbox.clone();
                rbox.clamp(*attr, *split, hi);
                let right_id = build_arena(right, &rbox, nodes, leaf_freq);
                let both_zero = left_id == id + 1
                    && matches!(nodes[left_id as usize], Node::Leaf { freq } if freq == 0.0)
                    && right_id as usize == nodes.len() - 1
                    && matches!(nodes[right_id as usize], Node::Leaf { freq } if freq == 0.0);
                if both_zero {
                    nodes.truncate(id as usize + 1);
                } else {
                    nodes[id as usize] = Node::Internal {
                        attr: *attr,
                        split: *split,
                        left: left_id,
                        right: right_id,
                    };
                }
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::SplitCriterion;
    use crate::mhist::tests::grid_relation;
    use crate::mhist::MhistBuilder;
    use dbhist_distribution::{Relation, Schema};
    use proptest::prelude::*;

    #[test]
    fn project_conserves_mass() {
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 12, SplitCriterion::MaxDiff).unwrap();
        for target in [AttrSet::singleton(0), AttrSet::singleton(1)] {
            let p = tree.project(&target).unwrap();
            assert_eq!(p.attrs(), &target);
            assert!((p.total() - tree.total()).abs() < 1e-6, "mass conserved");
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn project_identity_and_errors() {
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 6, SplitCriterion::MaxDiff).unwrap();
        let same = tree.project(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(same.bucket_count(), tree.bucket_count());
        assert!(tree.project(&AttrSet::empty()).is_err());
        assert!(matches!(
            tree.project(&AttrSet::singleton(9)),
            Err(HistogramError::NotASubset { missing: 9 })
        ));
    }

    #[test]
    fn project_reflects_all_kept_splits() {
        // The paper's motivating example: splits on X at different values in
        // different buckets must all appear in the projection onto X.
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 16, SplitCriterion::MaxDiff).unwrap();
        let p = tree.project(&AttrSet::singleton(0)).unwrap();
        // Collect distinct split boundaries of the source along attr 0.
        let mut source_bounds: Vec<u32> =
            tree.leaves().iter().map(|(b, _)| b.range(0).unwrap().0).filter(|&lo| lo > 0).collect();
        source_bounds.sort_unstable();
        source_bounds.dedup();
        let mut proj_bounds: Vec<u32> =
            p.leaves().iter().map(|(b, _)| b.range(0).unwrap().0).filter(|&lo| lo > 0).collect();
        proj_bounds.sort_unstable();
        proj_bounds.dedup();
        assert_eq!(source_bounds, proj_bounds);
    }

    #[test]
    fn project_matches_direct_estimate() {
        // Projection then estimation must agree with estimating on the
        // source with the same (marginal) ranges.
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 20, SplitCriterion::MaxDiff).unwrap();
        let p = tree.project(&AttrSet::singleton(1)).unwrap();
        for lo in 0..8u32 {
            for hi in lo..8u32 {
                let direct = tree.mass_in_box(&[(1, lo, hi)]);
                let projected = p.mass_in_box(&[(1, lo, hi)]);
                assert!(
                    (direct - projected).abs() < 1e-6,
                    "range [{lo},{hi}]: {direct} vs {projected}"
                );
            }
        }
    }

    /// Builds split trees over two overlapping marginals of a 3-attribute
    /// relation where (a ⊥ c | b) holds by construction.
    fn conditional_pair() -> (SplitTree, SplitTree, Relation) {
        let schema = Schema::new(vec![("a", 6), ("b", 4), ("c", 6)]).unwrap();
        let mut rows = Vec::new();
        // a depends on b, c depends on b, a ⊥ c given b.
        for b in 0..4u32 {
            for a in 0..6u32 {
                for c in 0..6u32 {
                    let fa = if a % 4 == b { 3 } else { 1 };
                    let fc = if c % 4 == b { 2 } else { 1 };
                    for _ in 0..fa * fc {
                        rows.push(vec![a, b, c]);
                    }
                }
            }
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let ab = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let bc = rel.marginal(&AttrSet::from_ids([1, 2])).unwrap();
        let hab = MhistBuilder::build(&ab, 24, SplitCriterion::MaxDiff).unwrap();
        let hbc = MhistBuilder::build(&bc, 24, SplitCriterion::MaxDiff).unwrap();
        (hab, hbc, rel)
    }

    #[test]
    fn product_covers_union_and_conserves_mass() {
        let (hab, hbc, rel) = conditional_pair();
        let prod = hab.product(&hbc).unwrap();
        assert_eq!(prod.attrs(), &AttrSet::from_ids([0, 1, 2]));
        assert!(prod.validate().is_ok());
        let n = rel.row_count() as f64;
        assert!((prod.total() - n).abs() / n < 0.02, "product total {} vs N {n}", prod.total());
    }

    #[test]
    fn product_with_saturated_histograms_is_exact() {
        // With enough buckets both marginals are exact, so the product must
        // reproduce the conditional-independence estimate exactly.
        let (_, _, rel) = conditional_pair();
        let ab = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let bc = rel.marginal(&AttrSet::from_ids([1, 2])).unwrap();
        let hab = MhistBuilder::build(&ab, 10_000, SplitCriterion::MaxDiff).unwrap();
        let hbc = MhistBuilder::build(&bc, 10_000, SplitCriterion::MaxDiff).unwrap();
        let prod = hab.product(&hbc).unwrap();
        let b_marg = rel.marginal(&AttrSet::singleton(1)).unwrap();
        for a in 0..6u32 {
            for b in 0..4u32 {
                for c in 0..6u32 {
                    let expect =
                        ab.frequency(&[a, b]) * bc.frequency(&[b, c]) / b_marg.frequency(&[b]);
                    let got = prod.mass_in_box(&[(0, a, a), (1, b, b), (2, c, c)]);
                    assert!((got - expect).abs() < 1e-6, "cell ({a},{b},{c}): {got} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn product_disjoint_attrs_is_independence() {
        // Disjoint attribute sets: empty separator, f = f1 · f2 / N.
        let schema = Schema::new(vec![("x", 4), ("y", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..160u32).map(|i| vec![i % 4, (i * 3) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let hx = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(0)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let hy = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(1)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let prod = hx.product(&hy).unwrap();
        for x in 0..4u32 {
            for y in 0..4u32 {
                let expect = 40.0 * 40.0 / 160.0;
                let got = prod.mass_in_box(&[(0, x, x), (1, y, y)]);
                assert!((got - expect).abs() < 1e-9);
            }
        }
        assert!((prod.total() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn product_rejects_incompatible_domains() {
        let s1 = Schema::new(vec![("x", 4)]).unwrap();
        let s2 = Schema::new(vec![("x", 8)]).unwrap();
        let r1 =
            Relation::from_rows(s1, (0..16u32).map(|i| vec![i % 4]).collect::<Vec<_>>()).unwrap();
        let r2 =
            Relation::from_rows(s2, (0..16u32).map(|i| vec![i % 8]).collect::<Vec<_>>()).unwrap();
        let h1 = MhistBuilder::build(&r1.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        let h2 = MhistBuilder::build(&r2.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        assert!(matches!(h1.product(&h2), Err(HistogramError::IncompatibleOperands { .. })));
    }

    #[test]
    fn product_then_project_roundtrip() {
        // Projecting a product back onto one operand's attrs approximates
        // that operand (exactly, for consistent marginals of the same data).
        let (hab, hbc, _) = conditional_pair();
        let prod = hab.product(&hbc).unwrap();
        let back = prod.project(&AttrSet::from_ids([0, 1])).unwrap();
        // Totals agree with the original marginal histogram's.
        assert!((back.total() - hab.total()).abs() / hab.total() < 0.02);
    }

    #[test]
    fn product_matches_slow_mass_formula() {
        // The O(1)-per-leaf fast path must agree with evaluating the
        // separation formula through mass queries on the operands.
        let (hab, hbc, _) = conditional_pair();
        let sep = hab.project(&AttrSet::singleton(1)).unwrap();
        let prod = hab.product(&hbc).unwrap();
        for (bbox, freq) in prod.leaves() {
            let ranges = reference::box_to_ranges(&bbox);
            let fi = hab.mass_in_box(&ranges);
            let fj = hbc.mass_in_box(&ranges);
            let fs = sep.mass_in_box(&ranges);
            let expect = if fs <= 0.0 { 0.0 } else { fi * fj / fs };
            assert!(
                (freq - expect).abs() < 1e-6 * (1.0 + expect),
                "box {bbox:?}: {freq} vs {expect}"
            );
        }
    }

    /// Bit-for-bit equality of two split trees: same attributes, domain
    /// and arena, every leaf frequency and the total compared by
    /// `f64::to_bits`.
    fn bit_identical(got: &SplitTree, want: &SplitTree) -> Result<(), String> {
        prop_assert_eq!(got.attrs(), want.attrs());
        prop_assert_eq!(got.domain(), want.domain());
        prop_assert_eq!(got.nodes().len(), want.nodes().len());
        for (i, (g, w)) in got.nodes().iter().zip(want.nodes()).enumerate() {
            match (g, w) {
                (Node::Leaf { freq: g }, Node::Leaf { freq: w }) => {
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "leaf {i}: {g} vs {w}");
                }
                _ => prop_assert_eq!(g, w, "node {i}"),
            }
        }
        prop_assert_eq!(got.total().to_bits(), want.total().to_bits(), "total");
        Ok(())
    }

    #[test]
    fn product_budget_exhaustion_matches_reference() {
        // Small budgets cut the walk at every depth of both operands, so
        // coarse buckets appear at `self`-node and `other`-node level.
        let (hab, hbc, _) = conditional_pair();
        let full = hab.product(&hbc).unwrap();
        for budget in (1..=64).chain([PRODUCT_NODE_BUDGET]) {
            for (lhs, rhs) in [(&hab, &hbc), (&hbc, &hab)] {
                let got = lhs.product_budgeted(rhs, budget).unwrap();
                bit_identical(&got, &reference::product(lhs, rhs, budget)).unwrap();
            }
        }
        let coarse = hab.product_budgeted(&hbc, 16).unwrap();
        assert!(coarse.nodes().len() < full.nodes().len(), "budget 16 must cut the product");
    }

    /// A random relation over 3–5 attributes with domains of 2–6 values;
    /// rows cluster around a few seeds, so marginals have empty regions
    /// and histograms have zero buckets.
    fn random_relation(next: &mut impl FnMut(u64) -> u64) -> Relation {
        let arity = 3 + next(3) as usize;
        let domains: Vec<u32> = (0..arity).map(|_| 2 + next(5) as u32).collect();
        let schema =
            Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
        let centers: Vec<Vec<u32>> = (0..1 + next(4))
            .map(|_| domains.iter().map(|&d| next(u64::from(d)) as u32).collect())
            .collect();
        let rows: Vec<Vec<u32>> = (0..20 + next(180))
            .map(|_| {
                let center = &centers[next(centers.len() as u64) as usize];
                center
                    .iter()
                    .zip(&domains)
                    .map(|(&c, &d)| if next(4) == 0 { next(u64::from(d)) as u32 } else { c })
                    .collect()
            })
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass product and the arena projection reproduce the
        /// boxed-tree reference node for node and bit for bit, along
        /// chains of 2–4 operands (overlapping, disjoint, sparse and
        /// saturated), in both operand orders, and under budgets that
        /// exhaust mid-walk.
        #[test]
        fn product_and_project_bit_identical_to_reference(seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let rel = random_relation(&mut next);
            let arity = rel.schema().arity();
            let chain_len = 2 + next(3) as usize;
            let budget = if next(2) == 0 { PRODUCT_NODE_BUDGET } else { 1 + next(64) as usize };
            let mut operands = Vec::new();
            for _ in 0..chain_len {
                let size = 1 + next(3) as usize;
                let attrs = AttrSet::from_ids((0..size).map(|_| next(arity as u64) as AttrId));
                // One operand in five is saturated (exact marginal).
                let buckets = if next(5) == 0 { 10_000 } else { 1 + next(12) as usize };
                let marginal = rel.marginal(&attrs).unwrap();
                operands.push(MhistBuilder::build(&marginal, buckets, SplitCriterion::MaxDiff).unwrap());
            }
            let mut acc = operands[0].clone();
            for h in &operands[1..] {
                for (lhs, rhs) in [(&acc, h), (h, &acc)] {
                    let got = lhs.product_budgeted(rhs, budget).unwrap();
                    bit_identical(&got, &reference::product(lhs, rhs, budget))?;
                }
                acc = acc.product_budgeted(h, budget).unwrap();
                // Every proper projection of the running product.
                let attrs: Vec<AttrId> = acc.attrs().iter().collect();
                for mask in 1..(1u32 << attrs.len()) - 1 {
                    let keep = AttrSet::from_ids(
                        attrs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &a)| a),
                    );
                    bit_identical(&acc.project(&keep).unwrap(), &reference::project(&acc, &keep))?;
                }
            }
        }
    }
}
