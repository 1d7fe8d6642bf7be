//! Local-index subgraphs extracted around anchor nodes.
//!
//! Induction hashes nothing. Membership of an original id goes first
//! through a filter of 2,048 bits on the stack, keyed by `id & 2047`,
//! which rejects almost every neighbour of a small node set at once. A
//! filter hit resolves through the node set's sorted `(orig, local)`
//! pairs by binary search. Nothing allocated scales with the parent
//! graph.

use gp_tensor::EdgeList;

use crate::Graph;

/// A membership filter over original node ids: 2,048 bits keyed by
/// `id & 2047`, small enough to live on the stack.
///
/// A clear bit proves an id absent. A set bit only says it may be present,
/// since ids equal modulo 2,048 share one bit; callers confirm a hit
/// against the node set itself.
pub(crate) struct NodeFilter([u64; 32]);

impl NodeFilter {
    /// The empty filter.
    pub(crate) fn new() -> Self {
        Self([0; 32])
    }

    /// Set `id`'s bit.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let key = id & 2047;
        self.0[(key >> 6) as usize] |= 1 << (key & 63);
    }

    /// False when `id` was never inserted; true when it was, or when an id
    /// equal to it modulo 2,048 was.
    #[inline]
    pub(crate) fn may_contain(&self, id: u32) -> bool {
        let key = id & 2047;
        self.0[(key >> 6) as usize] & (1 << (key & 63)) != 0
    }
}

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
    /// `nodes` must be distinct (debug builds assert it; the sampler
    /// guarantees it). Returns `None` when an anchor is not in `nodes`.
    pub fn induce(graph: &Graph, nodes: Vec<u32>, anchor_ids: &[u32]) -> Option<Self> {
        let anchors = anchor_ids
            .iter()
            .map(|a| nodes.iter().position(|n| n == a))
            .collect::<Option<_>>()?;
        let mut filter = NodeFilter::new();
        for &n in &nodes {
            filter.insert(n);
        }
        Some(Self::induce_at(graph, nodes, &filter, anchors))
    }

    /// [`Subgraph::induce`] with the anchors already located: `anchors`
    /// are local positions, and `filter` holds every id of `nodes`.
    ///
    /// Edges come in the order the local nodes list them, each triple at
    /// its first sighting. A triple sits in both endpoints' adjacency
    /// lists, so it is kept at the endpoint with the smaller local index.
    /// A self-loop sits twice, back to back, in one list
    /// ([`crate::GraphBuilder::build`] writes a triple's two entries in
    /// turn), so it is kept at its first entry. Edge order fixes the
    /// floating-point accumulation order of every aggregation downstream,
    /// so it must not depend on anything but `graph` and `nodes`.
    pub(crate) fn induce_at(
        graph: &Graph,
        nodes: Vec<u32>,
        filter: &NodeFilter,
        anchors: Vec<usize>,
    ) -> Self {
        let mut index: Vec<(u32, u32)> = nodes.iter().copied().zip(0..).collect();
        index.sort_unstable();
        debug_assert!(
            index.windows(2).all(|w| w[0].0 != w[1].0),
            "Subgraph::induce: nodes must be distinct"
        );
        let local = |v: u32| {
            if !filter.may_contain(v) {
                return None;
            }
            let at = index.binary_search_by_key(&v, |&(orig, _)| orig).ok()?;
            Some(index[at].1)
        };

        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut rels = Vec::new();
        for (lu, &orig) in (0u32..).zip(&nodes) {
            let mut last_loop = None;
            for (v, r, eid) in graph.neighbors(orig) {
                if v == orig {
                    if last_loop != Some(eid) {
                        src.push(lu);
                        dst.push(lu);
                        rels.push(r);
                    }
                    last_loop = Some(eid);
                } else if let Some(lv) = local(v).filter(|&lv| lv > lu) {
                    src.extend([lu, lv]);
                    dst.extend([lv, lu]);
                    rels.extend([r, r]);
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
        self.edges = EdgeList::new(src, dst);
        self.rels = rels;
        self
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
        b.build()
    }

    fn induce(g: &Graph, nodes: Vec<u32>, anchors: &[u32]) -> Subgraph {
        Subgraph::induce(g, nodes, anchors).expect("anchors are in the node set")
    }

    #[test]
    fn induced_edges_stay_inside_node_set() {
        let g = toy();
        let sg = induce(&g, vec![0, 1, 2], &[0]);
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
        let sg = induce(&g, vec![3, 0, 4], &[0, 4]);
        assert_eq!(sg.anchors, vec![1, 2]);
        assert_eq!(sg.nodes[sg.anchors[0]], 0);
    }

    #[test]
    fn isolated_node_gets_self_loop() {
        let g = toy();
        // Nodes 0 and 3 are not adjacent in the toy graph.
        let sg = induce(&g, vec![0, 3], &[0]);
        let self_loops = sg.edges.iter().filter(|(s, d)| s == d).count();
        assert_eq!(self_loops, 2);
    }

    #[test]
    fn without_anchor_edges_strips_target_edge() {
        let g = toy();
        // Anchors 0 and 1 share edge (0,0,1).
        let sg = induce(&g, vec![0, 1, 2], &[0, 1]).without_anchor_edges();
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
        let sg = induce(&g, vec![0, 1, 2], &[1]);
        let before = sg.edges.len();
        let sg = sg.without_anchor_edges();
        assert_eq!(sg.edges.len(), before);
    }

    #[test]
    fn missing_anchor_is_none() {
        let g = toy();
        assert!(Subgraph::induce(&g, vec![0, 1], &[4]).is_none());
        assert!(Subgraph::induce(&g, vec![0, 1], &[0, 4]).is_none());
    }
}
