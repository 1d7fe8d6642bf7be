//! Property tests for graph construction, sampling and subgraph induction.

use gp_graph::{Graph, GraphBuilder, RandomWalkSampler, SamplerConfig, Subgraph};
use gp_tensor::rng::{check, StdRng};

/// Random multigraph: 4–39 nodes, 1–4 relations, 1–119 triples.
fn random_graph(rng: &mut StdRng) -> Graph {
    let (n, r) = (rng.gen_range(4..40), rng.gen_range(1..5));
    let mut b = GraphBuilder::new(n, r);
    for _ in 0..rng.gen_range(1..120) {
        let (u, rel, v) = (
            rng.gen_range(0..n),
            rng.gen_range(0..r),
            rng.gen_range(0..n),
        );
        b.add_triple(u as u32, rel as u16, v as u32);
    }
    b.build()
}

#[test]
fn adjacency_is_always_symmetric() {
    check(48, |rng| {
        let g = random_graph(rng);
        for u in 0..g.num_nodes() as u32 {
            for (v, r, e) in g.neighbors(u) {
                assert!(
                    g.neighbors(v)
                        .any(|(w, r2, e2)| w == u && r2 == r && e2 == e),
                    "edge {u}->{v} not mirrored"
                );
            }
        }
    });
}

#[test]
fn degree_sum_counts_each_triple_twice() {
    check(48, |rng| {
        let g = random_graph(rng);
        let total: usize = (0..g.num_nodes() as u32).map(|n| g.degree(n)).sum();
        assert_eq!(total, 2 * g.num_edges());
    });
}

#[test]
fn sampler_respects_cap_and_anchor() {
    check(48, |rng| {
        let g = random_graph(rng);
        let (cap, hops) = (rng.gen_range(2..20), rng.gen_range(1..4));
        let sampler = RandomWalkSampler::new(SamplerConfig {
            hops,
            max_nodes: cap,
            neighbors_per_node: 5,
        });
        let anchor = rng.gen_range(0..g.num_nodes()) as u32;
        let sg = sampler.sample(&g, &[anchor], rng);
        assert!(sg.num_nodes() <= cap);
        assert_eq!(sg.nodes[sg.anchors[0]], anchor);
        // No duplicate nodes.
        let mut sorted = sg.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sg.nodes.len());
    });
}

#[test]
fn induced_subgraph_edges_stay_inside_and_every_node_reachable() {
    check(48, |rng| {
        let g = random_graph(rng);
        let mut nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        rng.shuffle(&mut nodes);
        let take = (g.num_nodes() / 2).max(1);
        let subset: Vec<u32> = nodes.into_iter().take(take).collect();
        let anchor = subset[0];
        let sg =
            Subgraph::induce(&g, subset.clone(), &[anchor]).expect("the anchor is in the subset");
        // All endpoints in-range, all in-degrees positive (self-loops fill).
        let deg = sg.edges.in_degrees(sg.num_nodes());
        assert!(deg.iter().all(|&d| d > 0));
        for (s, d) in sg.edges.iter() {
            assert!(s < sg.num_nodes() && d < sg.num_nodes());
        }
        // Relation list parallel to the edge list.
        assert_eq!(sg.rels.len(), sg.edges.len());
    });
}

#[test]
fn anchor_edge_removal_never_leaves_orphans() {
    check(48, |rng| {
        let g = random_graph(rng);
        let t = g.triple(rng.gen_range(0..g.num_edges()) as u32);
        if t.head == t.tail {
            return;
        }
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let sg = sampler
            .sample(&g, &[t.head, t.tail], rng)
            .without_anchor_edges();
        let deg = sg.edges.in_degrees(sg.num_nodes());
        assert!(
            deg.iter().all(|&d| d > 0),
            "orphan after anchor-edge removal"
        );
        let (a, b) = (sg.anchors[0], sg.anchors[1]);
        assert!(
            !sg.edges
                .iter()
                .any(|(s, d)| (s == a && d == b) || (s == b && d == a)),
            "anchor edge survived"
        );
    });
}
