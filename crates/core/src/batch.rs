//! Block-diagonal batching of sampled subgraphs.
//!
//! Every episode embeds tens to hundreds of data graphs; concatenating
//! them into one disjoint union (node indices offset per graph) lets the
//! whole batch run through `GNN_D` with a single sparse aggregation per
//! layer. The per-graph readout (`G_i`, Eq. 4) is itself expressed as an
//! spmm over anchor→graph edges with `1/|anchors|` weights, so it stays on
//! the autodiff tape. It reads the union at the anchors only, so the
//! batch's [`EncodeGraph`] names them as its read rows and `GNN_D`'s last
//! layer computes no other row.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use gp_graph::{Graph, Subgraph};
use gp_nn::EncodeGraph;
use gp_tensor::{EdgeList, Tensor};

/// A batch of subgraphs fused into one disjoint-union graph.
pub struct SubgraphBatch {
    /// `num_nodes×feat_dim` stacked node features (local order per graph).
    pub features: Tensor,
    /// Union edge list with per-graph index offsets applied, read at the
    /// distinct anchor union nodes, in union order.
    pub graph: EncodeGraph,
    /// `E×rel_dim` relation features per union edge (zeros when the parent
    /// graph carries none).
    pub rel_feats: Tensor,
    /// Anchor→graph readout edges (`src` = the anchor's read slot in
    /// `graph`, `dst` = graph id).
    pub readout_edges: Arc<EdgeList>,
    /// `1/|anchors_g|` readout weights, parallel to `readout_edges`.
    pub readout_weights: Tensor,
    /// Total union nodes.
    pub num_nodes: usize,
    /// Number of member subgraphs.
    pub num_graphs: usize,
    /// Member-graph id of each union node (length `num_nodes`).
    graph_of_node: Vec<usize>,
    /// Compact id of each union node's global node (length `num_nodes`).
    node_keys: Vec<usize>,
    /// Compact id of each union edge's global `(u, v, rel)` triple
    /// (length `E`).
    edge_keys: Vec<usize>,
    /// Distinct triples: `max(edge_keys) + 1`, or 0 without edges.
    distinct_edges: usize,
}

/// Compact ids by first appearance, keyed by graph ids.
type IdMap<K> = HashMap<K, u32, BuildHasherDefault<IdHasher>>;

/// The compact id of `key`: `0, 1, 2, …` in first-appearance order.
fn compact<K: Hash + Eq>(ids: &mut IdMap<K>, key: K) -> usize {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next) as usize
}

/// A multiply-rotate hasher (rustc's FxHash) for [`IdMap`]'s integer
/// keys. They come from the graph, not from a client, and std's SipHash
/// takes about 2.5× as long to compact a 40-way episode's ids. The map
/// is only probed, never iterated, so its order cannot reach a result.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl SubgraphBatch {
    /// Fuse `subgraphs` (all sampled from `graph`) into one batch.
    ///
    /// An empty slice gives a zero-graph batch. A member without anchors
    /// gets no readout edges, so its embedding row is zero.
    pub fn build(graph: &Graph, subgraphs: &[Subgraph], rel_dim: usize) -> Self {
        let feat_dim = graph.feature_dim();
        let total_nodes: usize = subgraphs.iter().map(Subgraph::num_nodes).sum();
        let total_edges: usize = subgraphs.iter().map(Subgraph::num_edges).sum();

        let mut feat = Vec::with_capacity(total_nodes * feat_dim);
        let mut src = Vec::with_capacity(total_edges);
        let mut dst = Vec::with_capacity(total_edges);
        let mut rel_feat = Vec::with_capacity(total_edges * rel_dim);
        let mut r_src = Vec::new();
        let mut r_dst = Vec::new();
        let mut r_w = Vec::new();

        let mut graph_of_node = Vec::with_capacity(total_nodes);
        let mut node_ids = IdMap::with_capacity_and_hasher(total_nodes, Default::default());
        let mut node_keys = Vec::with_capacity(total_nodes);
        let mut triple_ids = IdMap::with_capacity_and_hasher(total_edges, Default::default());
        let mut edge_keys = Vec::with_capacity(total_edges);
        let mut offset = 0u32;
        for (gid, sg) in subgraphs.iter().enumerate() {
            for &n in &sg.nodes {
                feat.extend_from_slice(graph.feature_row(n));
                graph_of_node.push(gid);
                node_keys.push(compact(&mut node_ids, n));
            }
            for (e, (s, d)) in sg.edges.iter().enumerate() {
                src.push(offset + s as u32);
                dst.push(offset + d as u32);
                edge_keys.push(compact(
                    &mut triple_ids,
                    (sg.nodes[s], sg.nodes[d], sg.rels[e]),
                ));
                match graph.rel_features() {
                    Some(rf) => rel_feat.extend_from_slice(rf.row(sg.rels[e] as usize)),
                    None => rel_feat.extend(std::iter::repeat_n(0.0, rel_dim)),
                }
            }
            let w = 1.0 / sg.anchors.len() as f32;
            for &a in &sg.anchors {
                r_src.push(offset + a as u32);
                r_dst.push(gid as u32);
                r_w.push(w);
            }
            offset += sg.num_nodes() as u32;
        }

        // Read rows: the distinct anchors, in union order; each readout
        // edge then starts at its anchor's slot among them.
        let mut is_read = vec![false; total_nodes];
        for &u in &r_src {
            is_read[u as usize] = true;
        }
        let read_rows: Vec<usize> = (0..total_nodes).filter(|&u| is_read[u]).collect();
        for u in &mut r_src {
            *u = read_rows.partition_point(|&r| r < *u as usize) as u32;
        }
        let edges = EdgeList::new(src, dst).into_shared();

        Self {
            features: Tensor::from_vec(total_nodes, feat_dim, feat),
            graph: EncodeGraph::new(edges, total_nodes, read_rows),
            rel_feats: Tensor::from_vec(total_edges, rel_dim, rel_feat),
            readout_weights: Tensor::from_vec(r_w.len(), 1, r_w),
            readout_edges: EdgeList::new(r_src, r_dst).into_shared(),
            num_nodes: total_nodes,
            num_graphs: subgraphs.len(),
            graph_of_node,
            node_keys,
            edge_keys,
            distinct_edges: triple_ids.len(),
        }
    }

    /// Compact id of each union node's global node, `0..` in order of
    /// first appearance: equal ids mean equal feature rows.
    pub fn node_keys(&self) -> &[usize] {
        &self.node_keys
    }

    /// Compact id of each union edge's global `(u, v, rel)` triple, `0..`
    /// in order of first appearance: equal ids mean equal
    /// `[h_u | h_v | rel]` reconstruction inputs.
    pub fn edge_keys(&self) -> &[usize] {
        &self.edge_keys
    }

    /// Distinct `(u, v, rel)` triples among the union edges.
    pub fn num_distinct_edges(&self) -> usize {
        self.distinct_edges
    }

    /// Member-graph id of each union node.
    pub fn graph_of_node(&self) -> &[usize] {
        &self.graph_of_node
    }

    /// Union-edge count.
    pub fn num_edges(&self) -> usize {
        self.graph.edges().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::GraphPrompterModel;
    use gp_graph::{GraphBuilder, RandomWalkSampler, SamplerConfig};
    use gp_nn::{Eval, Forward};
    use gp_tensor::rng as trng;
    use gp_tensor::rng::StdRng;

    fn toy_graph() -> Graph {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new(20, 3);
        for i in 0..19u32 {
            b.add_triple(i, (i % 3) as u16, i + 1);
        }
        b.add_triple(0, 2, 10);
        b.node_features(trng::randn(&mut rng, 20, 4, 1.0));
        b.rel_features(trng::randn(&mut rng, 3, 2, 1.0));
        b.build()
    }

    #[test]
    fn offsets_partition_the_union() {
        let g = toy_graph();
        let sampler = RandomWalkSampler::new(SamplerConfig {
            hops: 1,
            max_nodes: 6,
            neighbors_per_node: 4,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let sgs: Vec<_> = [0u32, 7, 15]
            .iter()
            .map(|&a| sampler.sample(&g, &[a], &mut rng))
            .collect();
        let batch = SubgraphBatch::build(&g, &sgs, 2);
        assert_eq!(batch.num_graphs, 3);
        assert_eq!(
            batch.num_nodes,
            sgs.iter().map(|s| s.num_nodes()).sum::<usize>()
        );
        // Every union edge must stay within its member graph's index range.
        let mut bounds = Vec::new();
        let mut off = 0;
        for sg in &sgs {
            bounds.push((off, off + sg.num_nodes()));
            off += sg.num_nodes();
        }
        for (s, d) in batch.graph.edges().iter() {
            let block = bounds
                .iter()
                .position(|&(lo, hi)| s >= lo && s < hi)
                .unwrap();
            let (lo, hi) = bounds[block];
            assert!(d >= lo && d < hi, "edge {s}->{d} crosses blocks");
        }
    }

    #[test]
    fn readout_weights_sum_to_one_per_graph() {
        let g = toy_graph();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        // Mix of 1-anchor and 2-anchor datapoints.
        let sgs = vec![
            sampler.sample(&g, &[1], &mut rng),
            sampler.sample(&g, &[3, 4], &mut rng),
        ];
        let batch = SubgraphBatch::build(&g, &sgs, 2);
        let mut per_graph = [0.0f32; 2];
        for (e, (_, d)) in batch.readout_edges.iter().enumerate() {
            per_graph[d] += batch.readout_weights.as_slice()[e];
        }
        for (gid, s) in per_graph.iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-6, "graph {gid} readout sums to {s}");
        }
    }

    #[test]
    fn rel_features_align_with_edges() {
        let g = toy_graph();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let sgs = vec![sampler.sample(&g, &[5], &mut rng)];
        let batch = SubgraphBatch::build(&g, &sgs, 2);
        assert_eq!(batch.rel_feats.rows(), batch.num_edges());
        assert_eq!(batch.rel_feats.cols(), 2);
    }

    #[test]
    fn graph_of_node_partitions_union_in_order() {
        let g = toy_graph();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let sgs = vec![
            sampler.sample(&g, &[1], &mut rng),
            sampler.sample(&g, &[8], &mut rng),
            sampler.sample(&g, &[15], &mut rng),
        ];
        let batch = SubgraphBatch::build(&g, &sgs, 2);
        let ids = batch.graph_of_node();
        assert_eq!(ids.len(), batch.num_nodes);
        // Non-decreasing, covering 0..num_graphs with the right counts.
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        for (gid, sg) in sgs.iter().enumerate() {
            assert_eq!(ids.iter().filter(|&&x| x == gid).count(), sg.num_nodes());
        }
    }

    /// Embeds `sgs`, sampled from `g`, with a small untrained model.
    fn embed(g: &Graph, sgs: &[Subgraph]) -> Tensor {
        let model = GraphPrompterModel::new(ModelConfig {
            feat_dim: 4,
            rel_dim: 2,
            embed_dim: 8,
            hidden_dim: 12,
            ..ModelConfig::default()
        });
        let batch = SubgraphBatch::build(g, sgs, 2);
        let mut ev = Eval::new(&model.store);
        let emb = model.embed_batch(&mut ev, &batch, true);
        ev.value(&emb.embeddings).clone()
    }

    #[test]
    fn empty_batch_embeds_to_zero_rows() {
        let g = toy_graph();
        let batch = SubgraphBatch::build(&g, &[], 2);
        assert_eq!(batch.num_graphs, 0);
        assert_eq!(embed(&g, &[]).shape(), (0, 8));
    }

    #[test]
    fn anchorless_member_embeds_to_a_zero_row() {
        let g = toy_graph();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut sgs = vec![
            sampler.sample(&g, &[1], &mut rng),
            sampler.sample(&g, &[8], &mut rng),
            sampler.sample(&g, &[15], &mut rng),
        ];
        let full = embed(&g, &sgs);
        sgs[1].anchors.clear();
        let holed = embed(&g, &sgs);
        assert!(holed.row(1).iter().all(|&v| v == 0.0), "{:?}", holed.row(1));
        for r in [0, 2] {
            let bits = |t: &Tensor| t.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&full), bits(&holed), "row {r}");
        }
    }
}
