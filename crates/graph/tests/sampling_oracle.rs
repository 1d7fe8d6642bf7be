//! The hash-free walk and induction against kept copies of the hashing
//! originals: the same subgraphs (nodes, edges in order, relations,
//! anchors) and the same generator position afterwards, on multigraphs
//! with multi-edges, self-loops, isolated nodes and ids that alias in the
//! 2,048-bit filter.

use std::collections::{HashMap, HashSet};

use gp_graph::{Graph, GraphBuilder, RandomWalkSampler, SamplerConfig, Subgraph};
use gp_tensor::rng::{check, StdRng};
use gp_tensor::EdgeList;

/// The walk as it was with a `HashSet` of picked nodes and a full
/// `(0..deg)` slot vector per hop, kept verbatim as the oracle.
fn kept_sample(
    config: SamplerConfig,
    graph: &Graph,
    anchors: &[u32],
    rng: &mut StdRng,
) -> Subgraph {
    assert!(!anchors.is_empty(), "at least one anchor required");
    let cap = config.max_nodes.max(anchors.len());
    let mut nodes: Vec<u32> = Vec::with_capacity(cap);
    let mut in_set = HashSet::with_capacity(cap * 2);
    for &a in anchors {
        if in_set.insert(a) {
            nodes.push(a);
        }
    }

    let mut walkers: Vec<u32> = anchors.to_vec();
    'outer: for _hop in 0..config.hops {
        for w in walkers.iter_mut() {
            let deg = graph.degree(*w);
            if deg == 0 {
                continue;
            }
            let take = config.neighbors_per_node.min(deg);
            let mut slots: Vec<usize> = (0..deg).collect();
            rng.partial_shuffle(&mut slots, take);
            for &slot in slots.iter().take(take) {
                let (v, _r, _e) = graph.neighbor_at(*w, slot);
                if in_set.insert(v) {
                    nodes.push(v);
                    if nodes.len() >= cap {
                        break 'outer;
                    }
                }
            }
            let step = rng.gen_range(0..deg);
            *w = graph.neighbor_at(*w, step).0;
        }
    }

    kept_induce(graph, nodes, anchors)
}

/// Induction as it was with a `HashMap` index and a `HashSet` of edge
/// ids, kept verbatim as the oracle.
fn kept_induce(graph: &Graph, nodes: Vec<u32>, anchor_ids: &[u32]) -> Subgraph {
    let local: HashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let anchors = anchor_ids
        .iter()
        .map(|a| *local.get(a).expect("anchor not in node set"))
        .collect();

    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut rels = Vec::new();
    let mut seen_edge = HashSet::new();
    for (lu, &orig) in nodes.iter().enumerate() {
        for (v, r, eid) in graph.neighbors(orig) {
            if let Some(&lv) = local.get(&v) {
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

    Subgraph {
        nodes,
        edges: EdgeList::new(src, dst),
        rels,
        anchors,
    }
}

/// `Subgraph::without_anchor_edges` as it was, kept verbatim as the oracle.
fn kept_without_anchor_edges(mut sg: Subgraph) -> Subgraph {
    if sg.anchors.len() < 2 {
        return sg;
    }
    let (a, b) = (sg.anchors[0] as u32, sg.anchors[1] as u32);
    let mut src = Vec::with_capacity(sg.edges.len());
    let mut dst = Vec::with_capacity(sg.edges.len());
    let mut rels = Vec::with_capacity(sg.rels.len());
    for (e, (s, d)) in sg.edges.iter().enumerate() {
        let (s, d) = (s as u32, d as u32);
        if (s == a && d == b) || (s == b && d == a) {
            continue;
        }
        src.push(s);
        dst.push(d);
        rels.push(sg.rels[e]);
    }
    let mut has_in = vec![false; sg.nodes.len()];
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
    sg.edges = EdgeList::new(src, dst);
    sg.rels = rels;
    sg
}

/// A random multigraph and the node ids its triples touch. Every graph
/// has multi-edges, self-loops and (usually) isolated nodes. One case in
/// three spreads its triples over a few ids in each 2,048-id lane of a
/// 4k–8k node graph, so ids equal modulo 2,048 meet in one subgraph.
fn random_graph(rng: &mut StdRng) -> (Graph, Vec<u32>) {
    let relations = rng.gen_range(1..5);
    // Triples touch the ids `k + 2048 * lane` for `k < width`, `lane < lanes`.
    let (n, width, lanes) = if rng.gen_range(0..3) == 0 {
        let lanes = rng.gen_range(2..5);
        (
            2048 * lanes + rng.gen_range(1..64),
            rng.gen_range(3..24),
            lanes,
        )
    } else {
        // The top fifth of the ids only ever appear as isolated nodes.
        let n = rng.gen_range(1..48);
        (n, (n - n / 5).max(1), 1)
    };
    let pick = |rng: &mut StdRng| (rng.gen_range(0..width) + 2048 * rng.gen_range(0..lanes)) as u32;
    let mut b = GraphBuilder::new(n, relations);
    let mut touched = Vec::new();
    let mut last = None;
    for _ in 0..rng.gen_range(0..200) {
        let rel = rng.gen_range(0..relations) as u16;
        let (u, v) = match (rng.gen_range(0..8), last) {
            (0, _) => {
                let u = pick(rng);
                (u, u)
            }
            (1, Some(prev)) => prev,
            _ => (pick(rng), pick(rng)),
        };
        b.add_triple(u, rel, v);
        touched.extend([u, v]);
        last = Some((u, v));
    }
    touched.sort_unstable();
    touched.dedup();
    (b.build(), touched)
}

/// One datapoint's anchors: a node, a triple's endpoints (a self-loop's
/// give `head == tail`), a node twice, or any two nodes.
fn random_anchors(rng: &mut StdRng, g: &Graph, touched: &[u32]) -> Vec<u32> {
    let node = |rng: &mut StdRng| {
        if touched.is_empty() || rng.gen_range(0..4) == 0 {
            rng.gen_range(0..g.num_nodes()) as u32
        } else {
            touched[rng.gen_range(0..touched.len())]
        }
    };
    match rng.gen_range(0..4) {
        0 => vec![node(rng)],
        1 if g.num_edges() > 0 => {
            let t = g.triple(rng.gen_range(0..g.num_edges()) as u32);
            vec![t.head, t.tail]
        }
        2 => {
            let a = node(rng);
            vec![a, a]
        }
        _ => vec![node(rng), node(rng)],
    }
}

fn assert_same(got: &Subgraph, want: &Subgraph, what: &str) {
    assert_eq!(got.nodes, want.nodes, "{what}: nodes");
    assert_eq!(
        got.edges.iter().collect::<Vec<_>>(),
        want.edges.iter().collect::<Vec<_>>(),
        "{what}: edges"
    );
    assert_eq!(got.rels, want.rels, "{what}: rels");
    assert_eq!(got.anchors, want.anchors, "{what}: anchors");
}

#[test]
fn sample_matches_the_kept_walk_and_leaves_the_same_draws() {
    check(96, |rng| {
        let (g, touched) = random_graph(rng);
        let config = SamplerConfig {
            hops: rng.gen_range(1..=3),
            max_nodes: rng.gen_range(2..=90),
            neighbors_per_node: rng.gen_range(1..=12),
        };
        let sampler = RandomWalkSampler::new(config);
        // Datapoints share one generator, as pre-training's do.
        for point in 0..8 {
            let anchors = random_anchors(rng, &g, &touched);
            let mut kept_rng = rng.clone();
            let got = sampler.sample(&g, &anchors, rng);
            let want = kept_sample(config, &g, &anchors, &mut kept_rng);
            let what = format!("point {point}, anchors {anchors:?}, {config:?}");
            assert_same(&got, &want, &what);
            assert_same(
                &got.without_anchor_edges(),
                &kept_without_anchor_edges(want),
                &format!("{what}, without anchor edges"),
            );
            assert_eq!(
                rng.clone().next_u64(),
                kept_rng.next_u64(),
                "{what}: generator position"
            );
        }
    });
}

#[test]
fn induce_matches_the_kept_induction() {
    check(64, |rng| {
        let (g, touched) = random_graph(rng);
        for _ in 0..4 {
            // Distinct nodes in random order, mostly touched ones.
            let mut nodes = touched.clone();
            for _ in 0..rng.gen_range(1..6) {
                nodes.push(rng.gen_range(0..g.num_nodes()) as u32);
            }
            nodes.sort_unstable();
            nodes.dedup();
            rng.shuffle(&mut nodes);
            nodes.truncate(rng.gen_range(1..=nodes.len()));
            let anchors: Vec<u32> = (0..rng.gen_range(1..3))
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            let got = Subgraph::induce(&g, nodes.clone(), &anchors)
                .expect("every anchor is in the node set");
            let want = kept_induce(&g, nodes.clone(), &anchors);
            assert_same(&got, &want, &format!("nodes {nodes:?}"));

            let outside = (0..g.num_nodes() as u32).find(|n| !nodes.contains(n));
            if let Some(missing) = outside {
                assert!(Subgraph::induce(&g, nodes, &[anchors[0], missing]).is_none());
            }
        }
    });
}
