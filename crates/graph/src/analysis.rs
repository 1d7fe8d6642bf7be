//! Structural graph statistics — the numbers a dataset card reports
//! (degree distribution, connectivity, label homophily) and the
//! experiment harness uses to sanity-check generated graphs.

use crate::Graph;

/// Summary statistics of a graph's structure.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed triples.
    pub edges: usize,
    /// Number of relation types.
    pub relations: usize,
    /// Mean undirected degree.
    pub mean_degree: f32,
    /// Maximum undirected degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
    /// Number of connected components (undirected).
    pub components: usize,
    /// Fraction of nodes in the largest component.
    pub largest_component_frac: f32,
    /// Edge homophily: fraction of edges joining same-label endpoints
    /// (`None` when the graph carries no node labels).
    pub homophily: Option<f32>,
}

/// Compute [`GraphStats`] in one pass plus a union-find over edges.
pub fn graph_stats(graph: &Graph) -> GraphStats {
    let n = graph.num_nodes();
    let mut max_degree = 0usize;
    let mut isolated = 0usize;
    for v in 0..n as u32 {
        let d = graph.degree(v);
        max_degree = max_degree.max(d);
        if d == 0 {
            isolated += 1;
        }
    }

    let (components, largest) = connected_components(graph);

    let homophily = graph.node_labels().map(|labels| {
        if graph.num_edges() == 0 {
            return 0.0;
        }
        let same = graph
            .triples()
            .iter()
            .filter(|t| labels[t.head as usize] == labels[t.tail as usize])
            .count();
        same as f32 / graph.num_edges() as f32
    });

    GraphStats {
        nodes: n,
        edges: graph.num_edges(),
        relations: graph.num_relations(),
        mean_degree: graph.mean_degree(),
        max_degree,
        isolated,
        components,
        largest_component_frac: if n == 0 {
            0.0
        } else {
            largest as f32 / n as f32
        },
        homophily,
    }
}

/// Number of connected components and the size of the largest one
/// (union-find with path halving and union by size).
pub fn connected_components(graph: &Graph) -> (usize, usize) {
    let n = graph.num_nodes();
    if n == 0 {
        return (0, 0);
    }
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for t in graph.triples() {
        let (mut a, mut b) = (
            find(&mut parent, t.head as usize),
            find(&mut parent, t.tail as usize),
        );
        if a != b {
            if size[a] < size[b] {
                std::mem::swap(&mut a, &mut b);
            }
            parent[b] = a;
            size[a] += size[b];
        }
    }

    let mut components = 0usize;
    let mut largest = 0usize;
    #[expect(
        clippy::needless_range_loop,
        reason = "`find` needs &mut parent while v indexes `size`"
    )]
    for v in 0..n {
        if find(&mut parent, v) == v {
            components += 1;
            largest = largest.max(size[v]);
        }
    }
    (components, largest)
}

/// Degree histogram up to `max_bucket` (the last bucket absorbs the tail).
pub fn degree_histogram(graph: &Graph, max_bucket: usize) -> Vec<usize> {
    assert!(max_bucket > 0, "need at least one bucket");
    let mut hist = vec![0usize; max_bucket + 1];
    for v in 0..graph.num_nodes() as u32 {
        let d = graph.degree(v).min(max_bucket);
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles() -> Graph {
        let mut b = GraphBuilder::new(7, 1);
        // Triangle 0-1-2, triangle 3-4-5, node 6 isolated.
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_triple(u, 0, v);
        }
        b.node_labels(vec![0, 0, 0, 1, 1, 2, 0]);
        b.build()
    }

    #[test]
    fn components_counted_correctly() {
        let g = two_triangles();
        let (comps, largest) = connected_components(&g);
        assert_eq!(comps, 3); // two triangles + the isolate
        assert_eq!(largest, 3);
    }

    #[test]
    fn stats_cover_all_fields() {
        let g = two_triangles();
        let s = graph_stats(&g);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.edges, 6);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.components, 3);
        assert!((s.largest_component_frac - 3.0 / 7.0).abs() < 1e-6);
        assert_eq!(s.max_degree, 2);
        // Homophily: triangle 1 all label 0 (3 same), triangle 2 has labels
        // 1,1,2 → (3,4) same, (4,5) diff, (5,3) diff → 4/6.
        assert!((s.homophily.unwrap() - 4.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_absorbs_tail() {
        let g = two_triangles();
        let h = degree_histogram(&g, 1);
        assert_eq!(h[0], 1); // the isolate
        assert_eq!(h[1], 6); // all triangle nodes clamp into the tail bucket
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = GraphBuilder::new(0, 1).build();
        assert_eq!(connected_components(&g), (0, 0));
        let s = graph_stats(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.largest_component_frac, 0.0);
    }
}
