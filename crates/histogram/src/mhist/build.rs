//! MHIST-2 construction (paper §3.2, after Poosala & Ioannidis \[18\]).
//!
//! The builder maintains the current bucketization as a growing split
//! tree. At each step it finds, over all buckets and all dimensions, the
//! split the partitioning constraint rates highest ("the bucket in most
//! need of partitioning") and applies it, until the bucket budget is
//! exhausted or every bucket is a single cell.
//!
//! Like [`crate::one_dim::OneDimBuilder`], the builder is *incremental*:
//! `IncrementalGains` space allocation interleaves construction across
//! clique histograms, so it can ask for the error improvement of the next
//! split (`peek_gain`) before paying a bucket for it.

use dbhist_distribution::{AttrId, AttrSet, Distribution};

use crate::bbox::BoundingBox;
use crate::criterion::{best_split_bounded, SplitCriterion};
use crate::error::HistogramError;

use super::{Node, NodeId, SplitTree};

/// A bucket under construction: its cells, box, and cached best split.
#[derive(Debug, Clone)]
struct BucketState {
    /// Non-zero cells inside the bucket: key (aligned with attrs) → freq.
    cells: Vec<(Vec<u32>, f64)>,
    bbox: BoundingBox,
    /// Arena id of the leaf node representing this bucket.
    node: NodeId,
    /// Cached best split `(attr, split value, criterion score)`.
    best: Option<(AttrId, u32, f64)>,
    /// Cached volume-aware SSE of the bucket.
    sse: f64,
}

/// Incremental MHIST-2 builder over a marginal [`Distribution`].
#[derive(Debug, Clone)]
pub struct MhistBuilder {
    attrs: AttrSet,
    domain: BoundingBox,
    criterion: SplitCriterion,
    nodes: Vec<Node>,
    buckets: Vec<BucketState>,
}

impl MhistBuilder {
    /// Starts a builder with a single bucket covering the full domain of
    /// the distribution's attributes.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if the distribution is
    /// empty or covers no attributes.
    pub fn new(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, HistogramError> {
        let attrs = dist.attrs().clone();
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "MHIST requires at least one attribute".into(),
            });
        }
        if dist.total() <= 0.0 {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot build a histogram over an empty distribution".into(),
            });
        }
        let ranges: Vec<(u32, u32)> =
            attrs.iter().map(|a| (0, dist.schema().domain_size(a) - 1)).collect();
        let domain = BoundingBox::new(attrs.clone(), ranges);
        let cells: Vec<(Vec<u32>, f64)> = dist.iter().map(|(k, f)| (k.to_vec(), f)).collect();
        let nodes = vec![Node::Leaf { freq: dist.total() }];
        let mut bucket = BucketState { cells, bbox: domain.clone(), node: 0, best: None, sse: 0.0 };
        let mut builder = Self { attrs, domain, criterion, nodes, buckets: Vec::new() };
        builder.refresh_bucket(&mut bucket);
        builder.buckets.push(bucket);
        Ok(builder)
    }

    /// Convenience: builds an MHIST with at most `max_buckets` buckets.
    ///
    /// # Errors
    ///
    /// See [`MhistBuilder::new`]; additionally rejects a zero budget.
    pub fn build(
        dist: &Distribution,
        max_buckets: usize,
        criterion: SplitCriterion,
    ) -> Result<SplitTree, HistogramError> {
        if max_buckets == 0 {
            return Err(HistogramError::InvalidRequest {
                reason: "bucket budget must be positive".into(),
            });
        }
        let mut b = Self::new(dist, criterion)?;
        while b.bucket_count() < max_buckets && b.split_once() {}
        Ok(b.finish())
    }

    /// Recomputes a bucket's cached best split and SSE.
    fn refresh_bucket(&self, bucket: &mut BucketState) {
        // Volume-aware SSE: cells not present count as zeroes.
        let volume = bucket.bbox.volume() as f64;
        let total: f64 = bucket.cells.iter().map(|(_, f)| f).sum();
        let nnz = bucket.cells.len() as f64;
        let mean = total / volume;
        let nonzero_sse: f64 = bucket.cells.iter().map(|(_, f)| (f - mean).powi(2)).sum();
        bucket.sse = nonzero_sse + (volume - nnz) * mean * mean;

        // Best split across dimensions by the partitioning constraint.
        let mut best: Option<(AttrId, u32, f64)> = None;
        for (pos, attr) in self.attrs.iter().enumerate() {
            // Aggregate cell frequencies along this dimension.
            let mut agg: Vec<(u32, f64)> = Vec::new();
            {
                let mut tmp: Vec<(u32, f64)> =
                    bucket.cells.iter().map(|(k, f)| (k[pos], *f)).collect();
                tmp.sort_unstable_by_key(|&(v, _)| v);
                for (v, f) in tmp {
                    match agg.last_mut() {
                        Some(last) if last.0 == v => last.1 += f,
                        _ => agg.push((v, f)),
                    }
                }
            }
            // Bucket boxes cover every histogram attribute by
            // construction; skip the dimension if this one is corrupt.
            let Some((lo, hi)) = bucket.bbox.range(attr) else {
                continue;
            };
            if let Some(choice) = best_split_bounded(&agg, lo, hi, self.criterion) {
                if best.is_none_or(|(_, _, s)| choice.score > s) {
                    best = Some((attr, choice.value, choice.score));
                }
            }
        }
        bucket.best = best;
    }

    /// Current number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current total volume-aware SSE across buckets (the error measure
    /// handed to the space-allocation algorithms).
    #[must_use]
    pub fn error(&self) -> f64 {
        self.buckets.iter().map(|b| b.sse).sum()
    }

    /// Index of the bucket the construction algorithm would split next.
    fn next_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.best.map(|(_, _, score)| (i, score)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Splits `bucket`'s cell list by its cached best split, returning the
    /// two halves as fresh bucket states (node ids unassigned).
    fn split_bucket(&self, idx: usize) -> Option<(BucketState, BucketState)> {
        let bucket = &self.buckets[idx];
        let (attr, value, _) = bucket.best?;
        let pos = self.attrs.position(attr)?;
        let (mut left_cells, mut right_cells) = (Vec::new(), Vec::new());
        for (k, f) in &bucket.cells {
            if k[pos] < value {
                left_cells.push((k.clone(), *f));
            } else {
                right_cells.push((k.clone(), *f));
            }
        }
        let (lo, hi) = bucket.bbox.range(attr)?;
        let mut lbox = bucket.bbox.clone();
        lbox.clamp(attr, lo, value - 1);
        let mut rbox = bucket.bbox.clone();
        rbox.clamp(attr, value, hi);
        let mut left = BucketState { cells: left_cells, bbox: lbox, node: 0, best: None, sse: 0.0 };
        let mut right =
            BucketState { cells: right_cells, bbox: rbox, node: 0, best: None, sse: 0.0 };
        self.refresh_bucket(&mut left);
        self.refresh_bucket(&mut right);
        Some((left, right))
    }

    /// The error decrease the next split would achieve (`None` when no
    /// bucket can be split further).
    #[must_use]
    pub fn peek_gain(&self) -> Option<f64> {
        let idx = self.next_bucket()?;
        let (left, right) = self.split_bucket(idx)?;
        Some(self.buckets[idx].sse - left.sse - right.sse)
    }

    /// Applies the next split (adding exactly one bucket). Returns `false`
    /// when construction is saturated.
    pub fn split_once(&mut self) -> bool {
        let Some(idx) = self.next_bucket() else {
            return false;
        };
        let Some((attr, value, _)) = self.buckets[idx].best else {
            return false;
        };
        let Some((mut left, mut right)) = self.split_bucket(idx) else {
            return false;
        };
        let leaf = self.buckets[idx].node;
        // The old leaf becomes an internal node with two fresh leaves.
        let left_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        let right_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        self.nodes[leaf as usize] =
            Node::Internal { attr, split: value, left: left_id, right: right_id };
        left.node = left_id;
        right.node = right_id;
        self.buckets[idx] = left;
        self.buckets.push(right);
        true
    }

    /// Materializes the split tree.
    #[must_use]
    pub fn finish(&self) -> SplitTree {
        let mut nodes = self.nodes.clone();
        for bucket in &self.buckets {
            let freq: f64 = bucket.cells.iter().map(|(_, f)| f).sum();
            nodes[bucket.node as usize] = Node::Leaf { freq };
        }
        SplitTree::from_parts(self.attrs.clone(), self.domain.clone(), nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhist::tests::grid_relation;
    use dbhist_distribution::{Relation, Schema};

    #[test]
    fn budget_and_mass_conservation() {
        let dist = grid_relation().distribution();
        for budget in [1usize, 2, 5, 10, 30, 64, 1000] {
            let tree = MhistBuilder::build(&dist, budget, SplitCriterion::MaxDiff).unwrap();
            assert!(tree.bucket_count() <= budget.min(64));
            assert!(
                (tree.total() - dist.total()).abs() < 1e-9,
                "mass conserved at budget {budget}"
            );
            assert!(tree.validate().is_ok());
        }
    }

    #[test]
    fn saturated_tree_is_exact() {
        let rel = grid_relation();
        let dist = rel.distribution();
        let tree = MhistBuilder::build(&dist, 64, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(tree.bucket_count(), 64);
        for x in 0..8u32 {
            for y in 0..8u32 {
                let exact = f64::from(x + 2 * y + 1);
                let est = tree.mass_in_box(&[(0, x, x), (1, y, y)]);
                assert!((est - exact).abs() < 1e-9, "cell ({x},{y}): {est} vs {exact}");
            }
        }
    }

    #[test]
    fn error_decreases_and_reaches_zero() {
        let dist = grid_relation().distribution();
        let mut b = MhistBuilder::new(&dist, SplitCriterion::VOptimal).unwrap();
        let mut prev = b.error();
        assert!(prev > 0.0);
        while b.split_once() {
            let cur = b.error();
            assert!(cur <= prev + 1e-9, "SSE must not increase");
            prev = cur;
        }
        assert!(prev.abs() < 1e-9, "fully partitioned SSE is zero");
        assert_eq!(b.bucket_count(), 64);
    }

    #[test]
    fn peek_gain_matches_actual() {
        let dist = grid_relation().distribution();
        let mut b = MhistBuilder::new(&dist, SplitCriterion::MaxDiff).unwrap();
        for _ in 0..20 {
            let Some(gain) = b.peek_gain() else { break };
            let before = b.error();
            assert!(b.split_once());
            assert!((gain - (before - b.error())).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let dist = grid_relation().distribution();
        assert!(MhistBuilder::build(&dist, 0, SplitCriterion::MaxDiff).is_err());
        let schema = Schema::new(vec![("x", 4)]).unwrap();
        let empty = Relation::from_rows(schema, Vec::<Vec<u32>>::new()).unwrap().distribution();
        assert!(MhistBuilder::new(&empty, SplitCriterion::MaxDiff).is_err());
    }

    #[test]
    fn one_dimensional_mhist_works() {
        // A split tree over a single attribute behaves like a 1-D histogram.
        let schema = Schema::new(vec![("x", 16)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..160u32).map(|i| vec![(i * i) % 16]).collect();
        let dist = Relation::from_rows(schema, rows).unwrap().distribution();
        let tree = MhistBuilder::build(&dist, 6, SplitCriterion::MaxDiff).unwrap();
        assert!(tree.bucket_count() <= 6);
        assert!((tree.mass_in_box(&[(0, 0, 15)]) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_data_gets_isolated() {
        // One heavy cell among uniform noise: with a handful of buckets the
        // MaxDiff MHIST isolates the spike and estimates it well.
        let schema = Schema::new(vec![("x", 8), ("y", 8)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                rows.push(vec![x, y]);
            }
        }
        for _ in 0..500 {
            rows.push(vec![3, 3]);
        }
        let dist = Relation::from_rows(schema, rows).unwrap().distribution();
        let tree = MhistBuilder::build(&dist, 8, SplitCriterion::MaxDiff).unwrap();
        let spike = tree.mass_in_box(&[(0, 3, 3), (1, 3, 3)]);
        assert!((spike - 501.0).abs() / 501.0 < 0.25, "spike estimate {spike} should be near 501");
    }
}
