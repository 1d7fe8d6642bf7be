//! The paper's data-graph sampler (Eq. 1).
//!
//! > “The random walk algorithm starts from the selected node, adds its
//! > neighboring nodes to the subgraph. Then, randomly chooses a direction
//! > to move to the next node. The neighbors of this node are added to the
//! > subgraph, with duplicates removed. This process is repeated `l` times,
//! > and the algorithm terminates if the number of nodes in the subgraph
//! > reaches the preset limit.”
//!
//! [`RandomWalkSampler`] implements exactly that, with a per-hop neighbor
//! cap so dense hubs (MAG-style graphs) cannot blow up the subgraph.
//!
//! The walk hashes nothing. Whether a neighbor is already picked goes
//! through the same stack bit filter [`Subgraph::induce`] uses, and a
//! filter hit is confirmed by a scan of the picked nodes (at most the
//! node cap). Each hop picks its adjacency slots by a sparse Fisher–Yates
//! that records only the positions its swaps moved.
//!
//! The draws are part of the output: callers such as pre-training share
//! one generator across many datapoints, so every hop makes exactly the
//! draws of `partial_shuffle` over `0..deg` (`gen_range(i..deg)` for each
//! of the `take` picks, all of them even when the cap fills midway)
//! followed by one `gen_range(0..deg)` step, and nothing after the cap
//! fills.

use gp_tensor::rng::StdRng;

use crate::subgraph::NodeFilter;
use crate::{Graph, Subgraph};

/// Knobs for [`RandomWalkSampler`].
#[derive(Copy, Clone, Debug)]
pub struct SamplerConfig {
    /// `l` — walk length / neighborhood radius (the paper uses `l = 1`
    /// for the main experiments and 1–3 in the multi-hop analysis, Fig. 8).
    pub hops: usize,
    /// Hard cap on the subgraph node count (“preset limit”).
    pub max_nodes: usize,
    /// Max neighbors added per visited node per hop (fan-out cap).
    pub neighbors_per_node: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            hops: 1,
            max_nodes: 30,
            neighbors_per_node: 10,
        }
    }
}

/// Samples `l`-hop data graphs `G_i^D` around anchor nodes by random walk.
pub struct RandomWalkSampler {
    config: SamplerConfig,
}

impl RandomWalkSampler {
    /// Build a sampler with the given config.
    pub fn new(config: SamplerConfig) -> Self {
        assert!(
            config.max_nodes >= 2,
            "max_nodes must allow anchors + neighbors"
        );
        assert!(config.hops >= 1, "hops must be >= 1");
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// Sample the data graph for a datapoint whose input is `anchors`
    /// (1 node for node classification, 2 for edge classification).
    ///
    /// Returns the induced [`Subgraph`]; anchors are always included.
    pub fn sample(&self, graph: &Graph, anchors: &[u32], rng: &mut StdRng) -> Subgraph {
        assert!(!anchors.is_empty(), "at least one anchor required");
        let cap = self.config.max_nodes.max(anchors.len());
        let mut nodes: Vec<u32> = Vec::with_capacity(cap);
        let mut filter = NodeFilter::new();
        let mut local_anchors = Vec::with_capacity(anchors.len());
        for &a in anchors {
            match nodes.iter().position(|&n| n == a) {
                Some(at) => local_anchors.push(at),
                None => {
                    local_anchors.push(nodes.len());
                    nodes.push(a);
                    filter.insert(a);
                }
            }
        }

        // One walker per anchor; each hop the walker's current node dumps a
        // sampled slice of its neighborhood into the set, then the walker
        // steps to a random neighbor.
        let mut walkers: Vec<u32> = anchors.to_vec();
        // Sparse Fisher–Yates over the slots `0..deg`: `(position, slot)`
        // for each position a swap moved; every other position holds its
        // own index.
        let mut moved: Vec<(usize, usize)> = Vec::new();
        'outer: for _hop in 0..self.config.hops {
            for w in walkers.iter_mut() {
                let deg = graph.degree(*w);
                if deg == 0 {
                    continue;
                }
                // Sample up to `neighbors_per_node` distinct adjacency slots,
                // drawing all `take` of them even once the set is full.
                let take = self.config.neighbors_per_node.min(deg);
                moved.clear();
                let mut full = false;
                for i in 0..take {
                    let j = rng.gen_range(i..deg);
                    let slot = slot_at(&moved, j);
                    moved.push((j, slot_at(&moved, i)));
                    if full {
                        continue;
                    }
                    let (v, _r, _e) = graph.neighbor_at(*w, slot);
                    if !(filter.may_contain(v) && nodes.contains(&v)) {
                        filter.insert(v);
                        nodes.push(v);
                        full = nodes.len() >= cap;
                    }
                }
                if full {
                    break 'outer;
                }
                // Random step.
                let step = rng.gen_range(0..deg);
                *w = graph.neighbor_at(*w, step).0;
            }
        }

        Subgraph::induce_at(graph, nodes, &filter, local_anchors)
    }
}

/// The slot at `position` of a sparse permutation of `0..deg`: the last
/// slot a swap moved there, or `position` itself.
fn slot_at(moved: &[(usize, usize)], position: usize) -> usize {
    moved
        .iter()
        .rev()
        .find(|&&(p, _)| p == position)
        .map_or(position, |&(_, slot)| slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// A ring of `n` nodes with a chord every 5th node.
    fn ring(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize, 2);
        for i in 0..n {
            b.add_triple(i, 0, (i + 1) % n);
            if i % 5 == 0 {
                b.add_triple(i, 1, (i + n / 2) % n);
            }
        }
        b.build()
    }

    #[test]
    fn anchors_always_present() {
        let g = ring(50);
        let s = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        for a in [0u32, 13, 49] {
            let sg = s.sample(&g, &[a], &mut rng);
            assert_eq!(sg.nodes[sg.anchors[0]], a);
        }
    }

    #[test]
    fn node_cap_is_respected() {
        let g = ring(200);
        let cfg = SamplerConfig {
            hops: 3,
            max_nodes: 12,
            neighbors_per_node: 8,
        };
        let s = RandomWalkSampler::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        for seed_node in 0..20u32 {
            let sg = s.sample(&g, &[seed_node], &mut rng);
            assert!(sg.num_nodes() <= 12, "got {} nodes", sg.num_nodes());
        }
    }

    #[test]
    fn no_duplicate_nodes() {
        let g = ring(100);
        let s = RandomWalkSampler::new(SamplerConfig {
            hops: 3,
            max_nodes: 25,
            neighbors_per_node: 6,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let sg = s.sample(&g, &[7], &mut rng);
        let mut sorted = sg.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sg.nodes.len());
    }

    #[test]
    fn two_anchor_edge_task_sampling() {
        let g = ring(60);
        let s = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let sg = s.sample(&g, &[10, 11], &mut rng);
        assert_eq!(sg.anchors.len(), 2);
        assert_eq!(sg.nodes[sg.anchors[0]], 10);
        assert_eq!(sg.nodes[sg.anchors[1]], 11);
    }

    #[test]
    fn more_hops_reach_further() {
        let g = ring(500);
        let mut rng = StdRng::seed_from_u64(4);
        let near = RandomWalkSampler::new(SamplerConfig {
            hops: 1,
            max_nodes: 100,
            neighbors_per_node: 4,
        });
        let far = RandomWalkSampler::new(SamplerConfig {
            hops: 3,
            max_nodes: 100,
            neighbors_per_node: 4,
        });
        let avg = |s: &RandomWalkSampler, rng: &mut StdRng| -> f32 {
            let mut total = 0usize;
            for a in 0..30u32 {
                total += s.sample(&g, &[a * 7], rng).num_nodes();
            }
            total as f32 / 30.0
        };
        let n_near = avg(&near, &mut rng);
        let n_far = avg(&far, &mut rng);
        assert!(n_far > n_near, "far {n_far} <= near {n_near}");
    }

    #[test]
    fn isolated_anchor_yields_singleton_with_self_loop() {
        let mut b = GraphBuilder::new(3, 1);
        b.add_triple(0, 0, 1);
        let g = b.build();
        let s = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let sg = s.sample(&g, &[2], &mut rng);
        assert_eq!(sg.num_nodes(), 1);
        assert_eq!(sg.num_edges(), 1); // self-loop
    }
}
