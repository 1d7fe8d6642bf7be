//! Edge-list sparse structure shared by the differentiable graph ops.

use std::sync::Arc;

use crate::backend::{reference, Kernel};
use crate::Tensor;

/// A static edge list `(src, dst)` describing a sparse matrix pattern.
///
/// The autograd ops that consume an `EdgeList` ([`crate::Tape::spmm`],
/// [`crate::Tape::edge_softmax`]) hold it behind an [`Arc`] so one sampled
/// subgraph can feed many tape nodes without copying.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl EdgeList {
    /// Build from parallel `src`/`dst` arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn new(src: Vec<u32>, dst: Vec<u32>) -> Self {
        assert_eq!(src.len(), dst.len(), "EdgeList: src/dst length mismatch");
        Self { src, dst }
    }

    /// Build from `(src, dst)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let (src, dst) = pairs.into_iter().unzip();
        Self { src, dst }
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Source endpoint of edge `e`.
    #[inline]
    pub fn src(&self, e: usize) -> usize {
        self.src[e] as usize
    }

    /// Destination endpoint of edge `e`.
    #[inline]
    pub fn dst(&self, e: usize) -> usize {
        self.dst[e] as usize
    }

    /// Iterate `(src, dst)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.src
            .iter()
            .zip(&self.dst)
            .map(|(&s, &d)| (s as usize, d as usize))
    }

    /// Largest referenced node index + 1, or 0 when empty.
    pub fn min_num_nodes(&self) -> usize {
        self.iter().map(|(s, d)| s.max(d) + 1).max().unwrap_or(0)
    }

    /// In-degree (number of incoming edges) per destination, for `n` nodes.
    pub fn in_degrees(&self, n: usize) -> Vec<u32> {
        let mut deg = vec![0u32; n];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Wrap in an [`Arc`] for sharing across tape nodes.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Sparse aggregate over these edges: `out[dst] += w_e · x[src]` into
    /// an `out_rows×d` result. `w` is an optional `E×1` weight column (all
    /// ones when absent), in edge order; zero-weight edges are skipped.
    ///
    /// # Panics
    /// Panics if `w` is not `E×1`.
    pub fn spmm(&self, x: &Tensor, w: Option<&Tensor>, out_rows: usize) -> Tensor {
        if let Some(wt) = w {
            assert_eq!(
                wt.shape(),
                (self.len(), 1),
                "spmm: weights must be E×1 (E = {})",
                self.len()
            );
        }
        let mut out = Tensor::zeros(out_rows, x.cols());
        Kernel::Spmm {
            edges: self,
            x,
            w: w.map(Tensor::as_slice),
            out: &mut out,
        }
        .run();
        out
    }

    /// Softmax of `E×1` edge scores grouped by destination node (stable:
    /// per-group max subtraction).
    ///
    /// # Panics
    /// Panics if `scores` is not `E×1`.
    pub fn edge_softmax(&self, scores: &Tensor) -> Tensor {
        assert_eq!(
            scores.shape(),
            (self.len(), 1),
            "edge_softmax: scores must be E×1"
        );
        let mut exp = vec![0.0f32; self.len()];
        reference::edge_softmax(self, scores.as_slice(), &mut exp);
        Tensor::from_vec(self.len(), 1, exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let e = EdgeList::from_pairs([(0, 1), (2, 1), (1, 0)]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.src(1), 2);
        assert_eq!(e.dst(1), 1);
        assert_eq!(e.min_num_nodes(), 3);
        assert_eq!(e.in_degrees(3), vec![1, 2, 0]);
    }

    #[test]
    fn empty_edge_list() {
        let e = EdgeList::default();
        assert!(e.is_empty());
        assert_eq!(e.min_num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_arrays_panic() {
        let _ = EdgeList::new(vec![0, 1], vec![0]);
    }
}
