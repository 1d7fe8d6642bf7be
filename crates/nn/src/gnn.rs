//! Message-passing GNN encoders over sampled subgraphs.
//!
//! All encoders accept optional **differentiable per-edge weights** — the
//! output of the Prompt Generator's reconstruction layer (Eq. 3) — so the
//! reweighting module trains jointly with the graph model, exactly as the
//! paper specifies ("we jointly train the reweighting modules along with
//! the graph model", §IV-A2).
//!
//! An encoder computes only the rows its caller reads, as GraphSAGE's
//! minibatch forward does (Hamilton et al. 2017, Alg. 2). Every layer but
//! the last runs over all nodes of the [`EncodeGraph`]; the last runs at
//! its read rows only, over their in-edges. The read rows get the bits
//! the all-rows pass gives them, in both [`Forward`] contexts:
//!
//! * `spmm` is an edge-order scatter and `edge_softmax` a per-dst fold
//!   in edge order, so aggregating over a read row's in-edges, kept in
//!   edge order, runs that row's float sequence unchanged;
//! * `matmul` and the row-wise ops are row-local;
//! * in a `Session`, a dropped row would only ever have received `+0.0`
//!   adjoints, which add nothing to a gradient.
//!
//! The first layer also takes keys for the rows of `x`, so an
//! [`Eval`](crate::Eval) pass computes a node-only share once per
//! distinct key. [`GraphSage`]'s `x_v · W[..d]` self share goes through
//! [`Linear::forward_gather_concat`]; [`Gat`]'s projection `x·W + b`
//! goes through [`Forward::keyed_rows`], and its scores and aggregation
//! read the built rows through the returned [`RowMap`].

use gp_tensor::rng::StdRng;
use std::sync::Arc;

use gp_tensor::{EdgeList, Tensor};

use crate::forward::{Forward, RowMap};
use crate::linear::{Activation, Linear};
use crate::params::{ParamId, ParamStore};

/// The graph an encoder runs over, and the rows its caller reads.
///
/// The read rows ascend, so a backward pass folds their gradients in
/// the all-rows pass's order. Their in-edges are the edges whose `dst`
/// is a read row, in edge order, with `dst` renumbered to the row's
/// read slot.
#[derive(Debug)]
pub struct EncodeGraph {
    edges: Arc<EdgeList>,
    num_nodes: usize,
    read_rows: Arc<Vec<usize>>,
    read_edges: Arc<EdgeList>,
    read_edge_ids: Arc<Vec<usize>>,
}

impl EncodeGraph {
    /// `edges` over `num_nodes` nodes, read at `read_rows`.
    ///
    /// # Panics
    /// Panics if the read rows do not strictly ascend, or the last is not
    /// below `num_nodes`.
    pub fn new(edges: Arc<EdgeList>, num_nodes: usize, read_rows: Vec<usize>) -> Self {
        assert!(
            read_rows.windows(2).all(|w| w[0] < w[1]),
            "read rows must strictly ascend"
        );
        let mut slot = vec![u32::MAX; num_nodes];
        for (s, &r) in read_rows.iter().enumerate() {
            slot[r] = s as u32;
        }
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut ids = Vec::new();
        for (e, (s, d)) in edges.iter().enumerate() {
            if slot[d] != u32::MAX {
                src.push(s as u32);
                dst.push(slot[d]);
                ids.push(e);
            }
        }
        Self {
            edges,
            num_nodes,
            read_rows: Arc::new(read_rows),
            read_edges: EdgeList::new(src, dst).into_shared(),
            read_edge_ids: Arc::new(ids),
        }
    }

    /// `edges` over `num_nodes` nodes, every row read: the read rows'
    /// in-edges are `edges` itself.
    pub fn all_rows(edges: Arc<EdgeList>, num_nodes: usize) -> Self {
        Self {
            read_rows: Arc::new((0..num_nodes).collect()),
            read_edges: edges.clone(),
            read_edge_ids: Arc::new((0..edges.len()).collect()),
            edges,
            num_nodes,
        }
    }

    /// Every edge.
    pub fn edges(&self) -> &Arc<EdgeList> {
        &self.edges
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node of each read slot.
    pub fn read_rows(&self) -> &Arc<Vec<usize>> {
        &self.read_rows
    }

    /// The read rows' in-edges (`dst` = read slot).
    pub fn read_edges(&self) -> &Arc<EdgeList> {
        &self.read_edges
    }

    /// The edge id of each of [`EncodeGraph::read_edges`].
    pub fn read_edge_ids(&self) -> &Arc<Vec<usize>> {
        &self.read_edge_ids
    }

    /// An `E×1` per-edge value at the read rows' in-edges.
    fn at_read_edges<'a, F: Forward<'a>>(&self, f: &mut F, w: &F::V) -> F::V {
        f.gather_rows(w, self.read_edge_ids.clone())
    }
}

/// A node encoder producing `out_dim`-wide embeddings from node features
/// and a graph, with optional per-edge weights in `[0, 1]`.
pub trait GnnEncoder {
    /// Encode `x` (`n×d`, `n = graph.num_nodes()`) over `graph`, one row
    /// per read row. `x_keys`, when given, has one key per row of `x`,
    /// equal wherever the rows are equal (`None`: every row distinct).
    /// `edge_weights` is an optional `E×1` value multiplied into the
    /// aggregation.
    fn encode<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        x: F::V,
        x_keys: Option<&[usize]>,
        graph: &EncodeGraph,
        edge_weights: Option<F::V>,
    ) -> F::V;

    /// Output embedding width.
    fn out_dim(&self) -> usize;
}

/// Mean-aggregation weights `1/in-degree(dst)` as a data tensor.
fn mean_norm<'a, F: Forward<'a>>(f: &mut F, edges: &EdgeList, num_nodes: usize) -> F::V {
    let deg = edges.in_degrees(num_nodes);
    let w: Vec<f32> = (0..edges.len())
        .map(|e| 1.0 / deg[edges.dst(e)].max(1) as f32)
        .collect();
    f.data(Tensor::from_vec(edges.len(), 1, w))
}

/// Normalize learned edge weights to sum to 1 per destination:
/// `ŵ_e = w_e / Σ_{e'→dst(e)} w_{e'}`. Plain sigmoid weights in `(0, 1)`
/// *shrink* total aggregation mass (a systematic self-vs-neighbor bias
/// that does not transfer across graph domains); renormalizing makes the
/// reconstruction layer purely re-distributional, which is the intent of
/// the paper's edge reweighting.
fn normalize_per_dst<'a, F: Forward<'a>>(
    f: &mut F,
    edges: &Arc<EdgeList>,
    weights: F::V,
    num_nodes: usize,
) -> F::V {
    let ones = f.data(Tensor::full(num_nodes, 1, 1.0));
    let sums = f.spmm(edges, &ones, Some(&weights), num_nodes);
    let dst_idx: Arc<Vec<usize>> = Arc::new((0..edges.len()).map(|e| edges.dst(e)).collect());
    let denom = f.gather_rows(&sums, dst_idx);
    let inv = f.recip(denom, 1e-6);
    f.mul(weights, &inv)
}

/// GCN-style symmetric normalization `1/√(deg(src)·deg(dst))`.
fn sym_norm<'a, F: Forward<'a>>(f: &mut F, edges: &EdgeList, num_nodes: usize) -> F::V {
    let deg = edges.in_degrees(num_nodes);
    let w: Vec<f32> = (0..edges.len())
        .map(|e| {
            let ds = deg[edges.src(e)].max(1) as f32;
            let dd = deg[edges.dst(e)].max(1) as f32;
            1.0 / (ds * dd).sqrt()
        })
        .collect();
    f.data(Tensor::from_vec(edges.len(), 1, w))
}

/// One GraphSAGE layer: `h' = act([h | mean_w(h_neigh)]·W + b)`.
struct SageLayer {
    lin: Linear,
    act: Activation,
}

/// GraphSAGE (Hamilton et al. 2017) with the concat-mean aggregator — the
/// paper's `GNN_D` (§V-A4: "We use GraphSAGE to generate the embeddings for
/// data graph prompts in Eq 4, which has been proven to have good
/// scalability on large-scale graphs").
///
/// The final layer output is row-L2-normalized, matching Prodigy's use of
/// cosine-space embeddings downstream.
pub struct GraphSage {
    layers: Vec<SageLayer>,
    out_dim: usize,
    normalize_learned: bool,
}

impl GraphSage {
    /// `dims = [in, h1, ..., out]`; ReLU between layers.
    #[expect(
        clippy::unwrap_used,
        reason = "dims.len() >= 2 is asserted on entry, so dims.last() is Some"
    )]
    pub fn new(store: &mut ParamStore, rng_: &mut StdRng, name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "GraphSage needs at least [in, out]");
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| SageLayer {
                // Concat aggregator: input is [self | neighbors] → 2·w[0].
                lin: Linear::new(store, rng_, &format!("{name}.sage{i}"), 2 * w[0], w[1]),
                act: if i < last {
                    Activation::Relu
                } else {
                    Activation::None
                },
            })
            .collect();
        Self {
            layers,
            out_dim: *dims.last().unwrap(),
            normalize_learned: true,
        }
    }

    /// Choose how learned edge weights enter the aggregation: per-dst
    /// renormalized (default) or multiplied into the fixed mean norm.
    pub fn set_normalize_learned(&mut self, normalize: bool) {
        self.normalize_learned = normalize;
    }
}

impl GnnEncoder for GraphSage {
    fn encode<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        mut x: F::V,
        x_keys: Option<&[usize]>,
        graph: &EncodeGraph,
        edge_weights: Option<F::V>,
    ) -> F::V {
        let (edges, num_nodes) = (graph.edges(), graph.num_nodes());
        let w = match edge_weights {
            Some(lw) if self.normalize_learned => normalize_per_dst(f, edges, lw, num_nodes),
            Some(lw) => {
                let norm = mean_norm(f, edges, num_nodes);
                f.mul(lw, &norm)
            }
            None => mean_norm(f, edges, num_nodes),
        };
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // The nodes this layer computes rows for, and their
            // neighbour means.
            let (rows, neigh) = if i < last {
                let neigh = f.spmm(edges, &x, Some(&w), num_nodes);
                (Arc::new((0..num_nodes).collect::<Vec<_>>()), neigh)
            } else {
                let w = graph.at_read_edges(f, &w);
                let neigh = f.spmm(graph.read_edges(), &x, Some(&w), graph.read_rows().len());
                (graph.read_rows().clone(), neigh)
            };
            // Only the input rows repeat with their keys: copies of a
            // node in different neighbourhoods differ after one layer.
            let keys: Vec<usize> = match x_keys {
                Some(k) if i == 0 => rows.iter().map(|&r| k[r]).collect(),
                _ => (0..rows.len()).collect(),
            };
            let h = layer.lin.forward_gather_concat(f, &x, rows, &keys, &neigh);
            x = layer.act.apply(f, h);
        }
        f.row_l2_normalize(x)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Graph Convolutional Network (Kipf & Welling 2017) with symmetric
/// normalization, provided as an alternative `GNN_D`.
pub struct Gcn {
    layers: Vec<(Linear, Activation)>,
    out_dim: usize,
}

impl Gcn {
    /// `dims = [in, h1, ..., out]`; ReLU between layers.
    #[expect(
        clippy::unwrap_used,
        reason = "dims.len() >= 2 is asserted on entry, so dims.last() is Some"
    )]
    pub fn new(store: &mut ParamStore, rng_: &mut StdRng, name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "Gcn needs at least [in, out]");
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                (
                    Linear::new(store, rng_, &format!("{name}.gcn{i}"), w[0], w[1]),
                    if i < last {
                        Activation::Relu
                    } else {
                        Activation::None
                    },
                )
            })
            .collect();
        Self {
            layers,
            out_dim: *dims.last().unwrap(),
        }
    }
}

impl GnnEncoder for Gcn {
    fn encode<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        mut x: F::V,
        _x_keys: Option<&[usize]>,
        graph: &EncodeGraph,
        edge_weights: Option<F::V>,
    ) -> F::V {
        let (edges, num_nodes) = (graph.edges(), graph.num_nodes());
        let w = match edge_weights {
            Some(lw) => normalize_per_dst(f, edges, lw, num_nodes),
            None => sym_norm(f, edges, num_nodes),
        };
        let last = self.layers.len() - 1;
        for (i, (lin, act)) in self.layers.iter().enumerate() {
            let agg = if i < last {
                f.spmm(edges, &x, Some(&w), num_nodes)
            } else {
                let w = graph.at_read_edges(f, &w);
                f.spmm(graph.read_edges(), &x, Some(&w), graph.read_rows().len())
            };
            let h = lin.forward(f, &agg);
            x = act.apply(f, h);
        }
        f.row_l2_normalize(x)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// One GAT head's parameters.
struct GatHead {
    lin: Linear,
    a_src: ParamId,
    a_dst: ParamId,
}

/// One GAT layer: one or more attention heads, concatenated.
struct GatLayer {
    heads: Vec<GatHead>,
    act: Activation,
}

/// Graph Attention Network (Veličković et al. 2018), optionally
/// multi-head (heads are concatenated; each head gets `out/H` channels,
/// the standard GAT arrangement).
///
/// Used in the Fig. 4 ablation as an alternative Prompt Generator: GAT's
/// attention *is* a form of learned edge reweighting, which the paper
/// compares against its reconstruction-layer + GraphSAGE combination.
pub struct Gat {
    layers: Vec<GatLayer>,
    out_dim: usize,
}

impl Gat {
    /// Single-head GAT; `dims = [in, h1, ..., out]`.
    pub fn new(store: &mut ParamStore, rng_: &mut StdRng, name: &str, dims: &[usize]) -> Self {
        Self::with_heads(store, rng_, name, dims, 1)
    }

    /// Multi-head GAT with `heads` attention heads per layer.
    ///
    /// # Panics
    /// Panics if a layer width is not divisible by `heads`.
    #[expect(
        clippy::unwrap_used,
        reason = "dims.len() >= 2 is asserted on entry, so dims.last() is Some"
    )]
    pub fn with_heads(
        store: &mut ParamStore,
        rng_: &mut StdRng,
        name: &str,
        dims: &[usize],
        heads: usize,
    ) -> Self {
        assert!(dims.len() >= 2, "Gat needs at least [in, out]");
        assert!(heads >= 1, "Gat needs at least one head");
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                assert!(
                    w[1] % heads == 0,
                    "layer width {} not divisible by {heads} heads",
                    w[1]
                );
                let head_dim = w[1] / heads;
                GatLayer {
                    heads: (0..heads)
                        .map(|h| GatHead {
                            lin: Linear::new(
                                store,
                                rng_,
                                &format!("{name}.gat{i}.h{h}"),
                                w[0],
                                head_dim,
                            ),
                            a_src: store.add(
                                format!("{name}.gat{i}.h{h}.a_src"),
                                gp_tensor::rng::xavier_uniform(rng_, head_dim, 1),
                            ),
                            a_dst: store.add(
                                format!("{name}.gat{i}.h{h}.a_dst"),
                                gp_tensor::rng::xavier_uniform(rng_, head_dim, 1),
                            ),
                        })
                        .collect(),
                    act: if i < last {
                        Activation::LeakyRelu
                    } else {
                        Activation::None
                    },
                }
            })
            .collect();
        Self {
            layers,
            out_dim: *dims.last().unwrap(),
        }
    }
}

impl GnnEncoder for Gat {
    fn encode<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        mut x: F::V,
        x_keys: Option<&[usize]>,
        graph: &EncodeGraph,
        edge_weights: Option<F::V>,
    ) -> F::V {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // Every layer needs `h` at every source node; the last
            // scores, normalizes and aggregates only the read rows'
            // in-edges.
            let at_read = i == last;
            let (edges, out_rows) = if at_read {
                (graph.read_edges(), graph.read_rows().len())
            } else {
                (graph.edges(), graph.num_nodes())
            };
            let src_idx: Arc<Vec<usize>> =
                Arc::new((0..edges.len()).map(|e| edges.src(e)).collect());
            let dst_idx: Arc<Vec<usize>> =
                Arc::new((0..edges.len()).map(|e| edges.dst(e)).collect());
            let read_lw = match &edge_weights {
                Some(lw) if at_read => Some(graph.at_read_edges(f, lw)),
                _ => None,
            };
            let lw = if at_read {
                read_lw.as_ref()
            } else {
                edge_weights.as_ref()
            };
            let mut head_outputs = Vec::with_capacity(layer.heads.len());
            for head in &layer.heads {
                // `h = x·W + b` for each built row, and each node's
                // built row: the first layer projects each distinct key
                // once (`x_keys`), later layers every node.
                let (h, map) = match x_keys {
                    Some(keys) if i == 0 => {
                        let ([h], map) = f.keyed_rows(keys, |f, rows| {
                            // Selecting as many rows as there are nodes
                            // selects `0..n`.
                            [if rows.len() == keys.len() {
                                head.lin.forward(f, &x)
                            } else {
                                let x_rows = f.gather_rows(&x, Arc::new(rows.to_vec()));
                                head.lin.forward(f, &x_rows)
                            }]
                        });
                        (h, map)
                    }
                    _ => (head.lin.forward(f, &x), RowMap::identity()),
                };
                // e_uv = LeakyReLU(a_srcᵀ h_u + a_dstᵀ h_v), softmax per dst.
                let a_src = f.param(head.a_src);
                let a_dst = f.param(head.a_dst);
                // `a_srcᵀ h_u` at the built rows; `a_dstᵀ h_v` at the
                // read rows (last layer) or the built rows, and each
                // edge's row of it.
                let s_all = f.matmul(&h, &a_src);
                let (d_out, d_idx) = if at_read {
                    let h_read = f.gather_rows(&h, map.compose(graph.read_rows().clone()));
                    (f.matmul(&h_read, &a_dst), dst_idx.clone())
                } else {
                    (f.matmul(&h, &a_dst), map.compose(dst_idx.clone()))
                };
                let s_e = f.gather_rows(&s_all, map.compose(src_idx.clone()));
                let d_e = f.gather_rows(&d_out, d_idx);
                let raw = f.add(s_e, &d_e);
                let scores = f.leaky_relu(raw, 0.2);
                let mut alpha = f.edge_softmax(edges, &scores);
                if let Some(lw) = lw {
                    // External reconstruction weights modulate attention.
                    alpha = f.mul(alpha, lw);
                }
                // Each edge reads its source's built row in place.
                head_outputs.push(f.spmm(&map.sources(edges), &h, Some(&alpha), out_rows));
            }
            // `with_heads` asserts at least one head.
            let mut heads = head_outputs.into_iter();
            if let Some(mut agg) = heads.next() {
                for rest in heads {
                    agg = f.concat_cols(&agg, &rest);
                }
                x = layer.act.apply(f, agg);
            }
        }
        f.row_l2_normalize(x)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{AdamW, Optimizer};
    use crate::Session;

    fn line_graph(n: usize) -> Arc<EdgeList> {
        let mut pairs = Vec::new();
        for i in 0..n as u32 - 1 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        // self loops
        for i in 0..n as u32 {
            pairs.push((i, i));
        }
        EdgeList::from_pairs(pairs).into_shared()
    }

    fn features(n: usize, d: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        gp_tensor::rng::randn(&mut rng, n, d, 1.0)
    }

    #[test]
    fn sage_output_shape_and_normalization() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let sage = GraphSage::new(&mut store, &mut rng, "s", &[4, 8, 6]);
        assert_eq!(sage.out_dim(), 6);
        let edges = line_graph(5);
        let mut sess = Session::new(&store);
        let x = sess.data(features(5, 4, 1));
        let h = sage.encode(
            &mut sess,
            x,
            None,
            &EncodeGraph::all_rows(edges.clone(), 5),
            None,
        );
        let hv = sess.value(&h);
        assert_eq!(hv.shape(), (5, 6));
        for r in 0..5 {
            let norm: f32 = hv.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "row {r} norm {norm}");
        }
    }

    #[test]
    fn gcn_and_gat_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gcn = Gcn::new(&mut store, &mut rng, "g", &[4, 6]);
        let gat = Gat::new(&mut store, &mut rng, "a", &[4, 6]);
        let edges = line_graph(4);
        let mut sess = Session::new(&store);
        let x = sess.data(features(4, 4, 2));
        let h1 = gcn.encode(
            &mut sess,
            x,
            None,
            &EncodeGraph::all_rows(edges.clone(), 4),
            None,
        );
        let h2 = gat.encode(
            &mut sess,
            x,
            None,
            &EncodeGraph::all_rows(edges.clone(), 4),
            None,
        );
        assert_eq!(sess.value(&h1).shape(), (4, 6));
        assert_eq!(sess.value(&h2).shape(), (4, 6));
    }

    #[test]
    fn zero_edge_weights_isolate_nodes_in_sage() {
        // With all reconstruction weights at 0 the neighbor half of the
        // concat must be exactly zero → output depends only on self features.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let sage = GraphSage::new(&mut store, &mut rng, "s", &[3, 4]);
        let edges = line_graph(4);
        let x_t = features(4, 3, 4);

        let mut s1 = Session::new(&store);
        let x1 = s1.data(x_t.clone());
        let zeros = s1.data(Tensor::zeros(edges.len(), 1));
        let h_zero = sage.encode(
            &mut s1,
            x1,
            None,
            &EncodeGraph::all_rows(edges.clone(), 4),
            Some(zeros),
        );
        let h_zero = s1.value(&h_zero).clone();

        // Manually: concat(x, 0) → same as linear on [x|0].
        let mut s2 = Session::new(&store);
        let x2 = s2.data(x_t.clone());
        let z = s2.data(Tensor::zeros(4, 3));
        let cat = s2.tape.concat_cols(x2, z);
        // first (only) layer
        let lin_out = sage.layers[0].lin.forward(&mut s2, &cat);
        let act = sage.layers[0].act.apply(&mut s2, lin_out);
        let expect = s2.tape.row_l2_normalize(act);
        let expect = s2.value(&expect).clone();

        for (a, b) in h_zero.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// All three encoders must be trainable end-to-end: learn to classify
    /// nodes of a two-cluster graph from noisy features.
    fn encoder_learns(enc: &impl GnnEncoder, store: &mut ParamStore, head: &Linear) -> f32 {
        let n = 12;
        let mut pairs = Vec::new();
        // two cliques of 6, one bridge
        for c in 0..2u32 {
            for i in 0..6u32 {
                for j in 0..6u32 {
                    if i != j {
                        pairs.push((c * 6 + i, c * 6 + j));
                    }
                }
            }
        }
        pairs.push((0, 6));
        pairs.push((6, 0));
        let edges = EdgeList::from_pairs(pairs).into_shared();
        let x = features(n, 4, 9);
        let targets: Arc<Vec<usize>> = Arc::new((0..n).map(|i| i / 6).collect());
        let mut opt = AdamW::new(0.02, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            let mut sess = Session::new(store);
            let xv = sess.data(x.clone());
            let h = enc.encode(
                &mut sess,
                xv,
                None,
                &EncodeGraph::all_rows(edges.clone(), n),
                None,
            );
            let logits = head.forward(&mut sess, &h);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            let (lv, grads) = sess.grads(loss);
            opt.step(store, &grads);
            last = lv;
        }
        last
    }

    #[test]
    fn sage_trains_to_low_loss() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = GraphSage::new(&mut store, &mut rng, "s", &[4, 8, 8]);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 2);
        let loss = encoder_learns(&enc, &mut store, &head);
        assert!(loss < 0.2, "SAGE loss {loss}");
    }

    #[test]
    fn multi_head_gat_shapes_and_training() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let gat = Gat::with_heads(&mut store, &mut rng, "mh", &[4, 8, 8], 4);
        let edges = line_graph(5);
        let mut sess = Session::new(&store);
        let x = sess.data(features(5, 4, 13));
        let h = gat.encode(
            &mut sess,
            x,
            None,
            &EncodeGraph::all_rows(edges.clone(), 5),
            None,
        );
        assert_eq!(sess.value(&h).shape(), (5, 8));
        assert!(sess.value(&h).all_finite());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn gat_rejects_indivisible_heads() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let _ = Gat::with_heads(&mut store, &mut rng, "mh", &[4, 6], 4);
    }

    #[test]
    fn gat_trains_to_low_loss() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let enc = Gat::new(&mut store, &mut rng, "a", &[4, 8, 8]);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 2);
        let loss = encoder_learns(&enc, &mut store, &head);
        assert!(loss < 0.3, "GAT loss {loss}");
    }

    #[test]
    fn gcn_trains_to_low_loss() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let enc = Gcn::new(&mut store, &mut rng, "g", &[4, 8, 8]);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 2);
        let loss = encoder_learns(&enc, &mut store, &head);
        assert!(loss < 0.3, "GCN loss {loss}");
    }
}
