//! Local-index subgraphs extracted around anchor nodes.

use std::collections::HashMap;

use gp_tensor::{EdgeList, Tensor};

use crate::Graph;

/// A subgraph with its own compact node index space.
///
/// `nodes[i]` is the original id of local node `i`. `edges` are the edges
/// *induced* by the node set, expressed in local indices and already
/// mirrored in both directions (ready for message passing). `anchors` are
/// the local positions of the datapoint's input node(s) `x_i` — one anchor
/// for node classification, two (head, tail) for edge classification.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// Original node ids; index = local id.
    pub nodes: Vec<u32>,
    /// Induced edges in local indices, both directions.
    pub edges: EdgeList,
    /// Relation id per local edge (parallel to `edges`).
    pub rels: Vec<u16>,
    /// Local indices of the anchor node(s).
    pub anchors: Vec<usize>,
}

impl Subgraph {
    /// Induce a subgraph from a set of original node ids plus anchors.
    ///
    /// Every edge of `graph` with both endpoints inside `nodes` is kept,
    /// mirrored in both directions; self-loops are added for isolated-in-
    /// subgraph nodes so message passing never produces empty rows.
    ///
    /// # Panics
    /// Panics if an anchor is not contained in `nodes`.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: samplers always include their anchors in the node set"
    )]
    pub fn induce(graph: &Graph, nodes: Vec<u32>, anchor_ids: &[u32]) -> Self {
        let local: HashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let anchors = anchor_ids
            .iter()
            .map(|a| *local.get(a).expect("anchor not in node set"))
            .collect();

        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut rels = Vec::new();
        let mut seen_edge = std::collections::HashSet::new();
        // Iterate nodes in their (deterministic) local order, NOT the hash
        // map: edge order fixes the floating-point accumulation order of
        // every aggregation downstream, so it must be reproducible across
        // runs for bit-identical inference.
        for (lu, &orig) in nodes.iter().enumerate() {
            for (v, r, eid) in graph.neighbors(orig) {
                if let Some(&lv) = local.get(&v) {
                    // Each triple appears in both endpoints' adjacency; dedupe
                    // by edge id, then mirror explicitly.
                    if seen_edge.insert(eid) {
                        src.push(lu as u32);
                        dst.push(lv as u32);
                        rels.push(r);
                        if lu != lv {
                            src.push(lv as u32);
                            dst.push(lu as u32);
                            rels.push(r);
                        }
                    }
                }
            }
        }
        // Self-loops keep every node reachable by aggregation.
        let mut has_in = vec![false; nodes.len()];
        for &d in &dst {
            has_in[d as usize] = true;
        }
        for (i, covered) in has_in.iter().enumerate() {
            if !covered {
                src.push(i as u32);
                dst.push(i as u32);
                rels.push(0);
            }
        }

        Self {
            nodes,
            edges: EdgeList::new(src, dst),
            rels,
            anchors,
        }
    }

    /// Number of local nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of local directed edges (mirrored + self-loops).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Gather this subgraph's node features from the parent graph into a
    /// dense `num_nodes×d` matrix (local order).
    pub fn features(&self, graph: &Graph) -> Tensor {
        let d = graph.feature_dim();
        let mut data = Vec::with_capacity(self.nodes.len() * d);
        for &n in &self.nodes {
            data.extend_from_slice(graph.feature_row(n));
        }
        Tensor::from_vec(self.nodes.len(), d, data)
    }

    /// Remove the direct edge(s) between the first two anchors.
    ///
    /// For edge-classification datapoints the label *is* the relation of
    /// the anchor pair's edge, so that edge must not appear in the data
    /// graph (Prodigy removes the target edge the same way). No-op when
    /// there are fewer than two anchors. Nodes left without in-edges get a
    /// self-loop, preserving the message-passing invariant.
    pub fn without_anchor_edges(mut self) -> Self {
        if self.anchors.len() < 2 {
            return self;
        }
        let (a, b) = (self.anchors[0] as u32, self.anchors[1] as u32);
        let mut src = Vec::with_capacity(self.edges.len());
        let mut dst = Vec::with_capacity(self.edges.len());
        let mut rels = Vec::with_capacity(self.rels.len());
        for (e, (s, d)) in self.edges.iter().enumerate() {
            let (s, d) = (s as u32, d as u32);
            if (s == a && d == b) || (s == b && d == a) {
                continue;
            }
            src.push(s);
            dst.push(d);
            rels.push(self.rels[e]);
        }
        let mut has_in = vec![false; self.nodes.len()];
        for &d in &dst {
            has_in[d as usize] = true;
        }
        for (i, covered) in has_in.iter().enumerate() {
            if !covered {
                src.push(i as u32);
                dst.push(i as u32);
                rels.push(0);
            }
        }
        self.edges = gp_tensor::EdgeList::new(src, dst);
        self.rels = rels;
        self
    }

    /// Mean-aggregation normalization weights (`1/in-degree(dst)`), one per
    /// local edge — the fixed part of GraphSAGE mean aggregation that the
    /// Prompt Generator's learned weights multiply into.
    pub fn mean_norm_weights(&self) -> Vec<f32> {
        let deg = self.edges.in_degrees(self.nodes.len());
        (0..self.edges.len())
            .map(|e| 1.0 / deg[self.edges.dst(e)].max(1) as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn toy() -> Graph {
        let mut b = GraphBuilder::new(5, 2);
        b.add_triple(0, 0, 1)
            .add_triple(1, 1, 2)
            .add_triple(2, 0, 3)
            .add_triple(3, 1, 4)
            .add_triple(0, 1, 4);
        b.node_features(Tensor::from_vec(
            5,
            2,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0, 2.0],
        ));
        b.build()
    }

    #[test]
    fn induced_edges_stay_inside_node_set() {
        let g = toy();
        let sg = Subgraph::induce(&g, vec![0, 1, 2], &[0]);
        assert_eq!(sg.num_nodes(), 3);
        for (s, d) in sg.edges.iter() {
            assert!(s < 3 && d < 3);
        }
        // Edges 0-1 and 1-2 induced, both mirrored → 4 directed edges,
        // plus no self-loops needed (every node has an in-edge).
        assert_eq!(sg.num_edges(), 4);
    }

    #[test]
    fn anchors_map_to_local_indices() {
        let g = toy();
        let sg = Subgraph::induce(&g, vec![3, 0, 4], &[0, 4]);
        assert_eq!(sg.anchors, vec![1, 2]);
        assert_eq!(sg.nodes[sg.anchors[0]], 0);
    }

    #[test]
    fn isolated_node_gets_self_loop() {
        let g = toy();
        // Nodes 0 and 3 are not adjacent in the toy graph.
        let sg = Subgraph::induce(&g, vec![0, 3], &[0]);
        let self_loops = sg.edges.iter().filter(|(s, d)| s == d).count();
        assert_eq!(self_loops, 2);
    }

    #[test]
    fn features_follow_local_order() {
        let g = toy();
        let sg = Subgraph::induce(&g, vec![4, 0], &[4]);
        let f = sg.features(&g);
        assert_eq!(f.row(0), &[0.0, 2.0]); // node 4
        assert_eq!(f.row(1), &[1.0, 0.0]); // node 0
    }

    #[test]
    fn mean_norm_weights_sum_to_one_per_dst() {
        let g = toy();
        let sg = Subgraph::induce(&g, vec![0, 1, 2, 3, 4], &[2]);
        let w = sg.mean_norm_weights();
        let mut per_dst = vec![0.0f32; sg.num_nodes()];
        for e in 0..sg.num_edges() {
            per_dst[sg.edges.dst(e)] += w[e];
        }
        for (i, s) in per_dst.iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-6, "dst {i} sums to {s}");
        }
    }

    #[test]
    fn without_anchor_edges_strips_target_edge() {
        let g = toy();
        // Anchors 0 and 1 share edge (0,0,1).
        let sg = Subgraph::induce(&g, vec![0, 1, 2], &[0, 1]).without_anchor_edges();
        for (e, (s, d)) in sg.edges.iter().enumerate() {
            let su = sg.nodes[s];
            let du = sg.nodes[d];
            assert!(
                !((su == 0 && du == 1) || (su == 1 && du == 0)),
                "anchor edge survived at local edge {e}"
            );
        }
        // Node 0 lost its only in-edge → must have a self-loop now.
        let local0 = sg.nodes.iter().position(|&n| n == 0).unwrap();
        assert!(sg.edges.iter().any(|(s, d)| s == local0 && d == local0));
    }

    #[test]
    fn without_anchor_edges_is_noop_for_single_anchor() {
        let g = toy();
        let sg = Subgraph::induce(&g, vec![0, 1, 2], &[1]);
        let before = sg.edges.len();
        let sg = sg.without_anchor_edges();
        assert_eq!(sg.edges.len(), before);
    }

    #[test]
    #[should_panic(expected = "anchor not in node set")]
    fn missing_anchor_panics() {
        let g = toy();
        let _ = Subgraph::induce(&g, vec![0, 1], &[4]);
    }
}
