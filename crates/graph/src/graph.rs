//! Multi-relational graph storage in CSR form.

use gp_tensor::Tensor;

/// A directed, typed edge `(head, relation, tail)` — Definition 1 of the
/// paper: `e = (u, r, v)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Head/subject node.
    pub head: u32,
    /// Relation id; for KG datasets this is also the edge *label*.
    pub rel: u16,
    /// Tail/object node.
    pub tail: u32,
}

impl Triple {
    /// Convenience constructor.
    pub fn new(head: u32, rel: u16, tail: u32) -> Self {
        Self { head, rel, tail }
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects triples and node metadata, then freezes into CSR.
pub struct GraphBuilder {
    num_nodes: usize,
    num_relations: usize,
    triples: Vec<Triple>,
    node_features: Option<Tensor>,
    node_labels: Option<Vec<u16>>,
    rel_features: Option<Tensor>,
}

impl GraphBuilder {
    /// Start a builder for `num_nodes` nodes and `num_relations` relation types.
    pub fn new(num_nodes: usize, num_relations: usize) -> Self {
        Self {
            num_nodes,
            num_relations,
            triples: Vec::new(),
            node_features: None,
            node_labels: None,
            rel_features: None,
        }
    }

    /// Add one directed typed edge.
    ///
    /// # Panics
    /// Panics if an endpoint or the relation id is out of range.
    pub fn add_triple(&mut self, head: u32, rel: u16, tail: u32) -> &mut Self {
        assert!((head as usize) < self.num_nodes, "head {head} out of range");
        assert!((tail as usize) < self.num_nodes, "tail {tail} out of range");
        assert!(
            (rel as usize) < self.num_relations,
            "relation {rel} out of range"
        );
        self.triples.push(Triple::new(head, rel, tail));
        self
    }

    /// Attach an `n×d` node feature matrix.
    ///
    /// # Panics
    /// Panics if the row count differs from the node count.
    pub fn node_features(&mut self, features: Tensor) -> &mut Self {
        assert_eq!(features.rows(), self.num_nodes, "feature rows != num_nodes");
        self.node_features = Some(features);
        self
    }

    /// Attach an `|R|×d_r` relation feature matrix (the “specific initial
    /// embedding” of each edge type, §IV-A2). Using *fixed* per-dataset
    /// random features rather than a learned relation vocabulary keeps the
    /// model applicable to downstream graphs with unseen relations.
    pub fn rel_features(&mut self, features: Tensor) -> &mut Self {
        assert_eq!(
            features.rows(),
            self.num_relations,
            "rel-feature rows != num_relations"
        );
        self.rel_features = Some(features);
        self
    }

    /// Attach per-node class labels (for node-classification datasets).
    pub fn node_labels(&mut self, labels: Vec<u16>) -> &mut Self {
        assert_eq!(labels.len(), self.num_nodes, "label count != num_nodes");
        self.node_labels = Some(labels);
        self
    }

    /// Freeze into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.num_nodes;
        // Undirected CSR adjacency: each triple contributes both directions
        // (message passing and random walks treat edges as traversable both
        // ways, as in Prodigy's neighborhood sampler).
        let mut degree = vec![0usize; n];
        for t in &self.triples {
            degree[t.head as usize] += 1;
            degree[t.tail as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let total = acc;
        let mut neighbors = vec![0u32; total];
        let mut adj_rel = vec![0u16; total];
        let mut adj_edge = vec![0u32; total];
        let mut cursor = offsets[..n].to_vec();
        for (eid, t) in self.triples.iter().enumerate() {
            let (h, ta) = (t.head as usize, t.tail as usize);
            neighbors[cursor[h]] = t.tail;
            adj_rel[cursor[h]] = t.rel;
            adj_edge[cursor[h]] = eid as u32;
            cursor[h] += 1;
            neighbors[cursor[ta]] = t.head;
            adj_rel[cursor[ta]] = t.rel;
            adj_edge[cursor[ta]] = eid as u32;
            cursor[ta] += 1;
        }
        let node_features = self.node_features.unwrap_or_else(|| Tensor::zeros(n, 1));
        let rel_features = self.rel_features;
        Graph {
            num_nodes: n,
            num_relations: self.num_relations,
            offsets,
            neighbors,
            adj_rel,
            adj_edge,
            triples: self.triples,
            node_features,
            node_labels: self.node_labels,
            rel_features,
        }
    }
}

/// Immutable multi-relational graph: `G = (V, E, R)` with node features and
/// optional node labels, stored as an undirected CSR plus the original
/// directed triple list.
pub struct Graph {
    num_nodes: usize,
    num_relations: usize,
    /// CSR row offsets, length `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Flattened neighbor lists.
    neighbors: Vec<u32>,
    /// Relation id of each adjacency entry.
    adj_rel: Vec<u16>,
    /// Original triple index of each adjacency entry.
    adj_edge: Vec<u32>,
    /// The directed triples as inserted.
    triples: Vec<Triple>,
    node_features: Tensor,
    node_labels: Option<Vec<u16>>,
    rel_features: Option<Tensor>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.triples.len())
            .field("num_relations", &self.num_relations)
            .field("feature_dim", &self.node_features.cols())
            .finish_non_exhaustive()
    }
}

impl Graph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed triples `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.triples.len()
    }

    /// Number of relation types `|R|`.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Node feature dimensionality.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.node_features.cols()
    }

    /// The `n×d` node feature matrix.
    #[inline]
    pub fn features(&self) -> &Tensor {
        &self.node_features
    }

    /// Feature row of one node.
    #[inline]
    pub fn feature_row(&self, node: u32) -> &[f32] {
        self.node_features.row(node as usize)
    }

    /// The `|R|×d_r` relation feature matrix, when present.
    #[inline]
    pub fn rel_features(&self) -> Option<&Tensor> {
        self.rel_features.as_ref()
    }

    /// Per-node labels, when the dataset is node-labelled.
    #[inline]
    pub fn node_labels(&self) -> Option<&[u16]> {
        self.node_labels.as_deref()
    }

    /// Label of one node.
    ///
    /// # Panics
    /// Panics if the graph carries no node labels.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: only node-labelled datasets call it, as the Panics section says"
    )]
    pub fn node_label(&self, node: u32) -> u16 {
        self.node_labels.as_ref().expect("graph has no node labels")[node as usize]
    }

    /// All directed triples.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Triple by edge id.
    #[inline]
    pub fn triple(&self, eid: u32) -> Triple {
        self.triples[eid as usize]
    }

    /// Undirected degree of a node.
    #[inline]
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        self.offsets[n + 1] - self.offsets[n]
    }

    /// Iterate `(neighbor, relation, edge_id)` over a node's undirected
    /// adjacency (each triple appears from both endpoints).
    pub fn neighbors(&self, node: u32) -> impl Iterator<Item = (u32, u16, u32)> + '_ {
        let n = node as usize;
        let range = self.offsets[n]..self.offsets[n + 1];
        range.map(move |i| (self.neighbors[i], self.adj_rel[i], self.adj_edge[i]))
    }

    /// The `i`-th adjacency entry of a node (for O(1) random neighbor picks).
    #[inline]
    pub fn neighbor_at(&self, node: u32, i: usize) -> (u32, u16, u32) {
        let base = self.offsets[node as usize];
        (
            self.neighbors[base + i],
            self.adj_rel[base + i],
            self.adj_edge[base + i],
        )
    }

    /// Mean undirected degree.
    pub fn mean_degree(&self) -> f32 {
        if self.num_nodes == 0 {
            return 0.0;
        }
        self.neighbors.len() as f32 / self.num_nodes as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // 0 -r0- 1 -r1- 2, 0 -r1- 2
        let mut b = GraphBuilder::new(3, 2);
        b.add_triple(0, 0, 1)
            .add_triple(1, 1, 2)
            .add_triple(0, 1, 2);
        b.node_labels(vec![7, 8, 9]);
        b.node_features(Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        b.build()
    }

    #[test]
    fn csr_roundtrip() {
        let g = toy();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        let n0: Vec<_> = g.neighbors(0).collect();
        assert!(n0.contains(&(1, 0, 0)));
        assert!(n0.contains(&(2, 1, 2)));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = toy();
        for u in 0..g.num_nodes() as u32 {
            for (v, r, e) in g.neighbors(u) {
                assert!(
                    g.neighbors(v)
                        .any(|(w, r2, e2)| w == u && r2 == r && e2 == e),
                    "edge {u}->{v} not mirrored"
                );
            }
        }
    }

    #[test]
    fn labels_and_features() {
        let g = toy();
        assert_eq!(g.node_label(2), 9);
        assert_eq!(g.feature_row(1), &[0.0, 1.0]);
        assert_eq!(g.feature_dim(), 2);
    }

    #[test]
    fn triple_lookup() {
        let g = toy();
        assert_eq!(g.triple(1), Triple::new(1, 1, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_endpoint() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_triple(0, 0, 5);
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let b = GraphBuilder::new(4, 1);
        let g = b.build();
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(3).count(), 0);
    }
}
