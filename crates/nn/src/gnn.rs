//! Message-passing GNN encoders over sampled subgraphs.
//!
//! All encoders accept optional **differentiable per-edge weights** — the
//! output of the Prompt Generator's reconstruction layer (Eq. 3) — so the
//! reweighting module trains jointly with the graph model, exactly as the
//! paper specifies ("we jointly train the reweighting modules along with
//! the graph model", §IV-A2).

use gp_tensor::rng::StdRng;
use std::sync::Arc;

use gp_tensor::{EdgeList, Tensor, Var};

use crate::linear::{Activation, Linear};
use crate::params::{ParamId, ParamStore};
use crate::session::Session;

/// A node encoder producing `n×out_dim` embeddings from node features and
/// an edge list, with optional per-edge weights in `[0, 1]`.
pub trait GnnEncoder {
    /// Encode `x` (`n×d`) over `edges`; `edge_weights` is an optional `E×1`
    /// tape variable multiplied into the aggregation.
    fn encode(
        &self,
        sess: &mut Session<'_>,
        x: Var,
        edges: &Arc<EdgeList>,
        num_nodes: usize,
        edge_weights: Option<Var>,
    ) -> Var;

    /// Output embedding width.
    fn out_dim(&self) -> usize;
}

/// Mean-aggregation weights `1/in-degree(dst)` as a data tensor.
fn mean_norm(sess: &mut Session<'_>, edges: &Arc<EdgeList>, num_nodes: usize) -> Var {
    let deg = edges.in_degrees(num_nodes);
    let w: Vec<f32> = (0..edges.len())
        .map(|e| 1.0 / deg[edges.dst(e)].max(1) as f32)
        .collect();
    sess.data(Tensor::from_vec(edges.len(), 1, w))
}

/// Normalize learned edge weights to sum to 1 per destination:
/// `ŵ_e = w_e / Σ_{e'→dst(e)} w_{e'}`. Plain sigmoid weights in `(0, 1)`
/// *shrink* total aggregation mass (a systematic self-vs-neighbor bias
/// that does not transfer across graph domains); renormalizing makes the
/// reconstruction layer purely re-distributional, which is the intent of
/// the paper's edge reweighting.
fn normalize_per_dst(
    sess: &mut Session<'_>,
    edges: &Arc<EdgeList>,
    weights: Var,
    num_nodes: usize,
) -> Var {
    let ones = sess.data(Tensor::full(num_nodes, 1, 1.0));
    let sums = sess
        .tape
        .spmm(edges.clone(), ones, Some(weights), num_nodes);
    let dst_idx: Arc<Vec<usize>> = Arc::new((0..edges.len()).map(|e| edges.dst(e)).collect());
    let denom = sess.tape.gather_rows(sums, dst_idx);
    let inv = sess.tape.recip(denom, 1e-6);
    sess.tape.mul(weights, inv)
}

/// GCN-style symmetric normalization `1/√(deg(src)·deg(dst))`.
fn sym_norm(sess: &mut Session<'_>, edges: &Arc<EdgeList>, num_nodes: usize) -> Var {
    let deg = edges.in_degrees(num_nodes);
    let w: Vec<f32> = (0..edges.len())
        .map(|e| {
            let ds = deg[edges.src(e)].max(1) as f32;
            let dd = deg[edges.dst(e)].max(1) as f32;
            1.0 / (ds * dd).sqrt()
        })
        .collect();
    sess.data(Tensor::from_vec(edges.len(), 1, w))
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
    fn encode(
        &self,
        sess: &mut Session<'_>,
        mut x: Var,
        edges: &Arc<EdgeList>,
        num_nodes: usize,
        edge_weights: Option<Var>,
    ) -> Var {
        let w = match edge_weights {
            Some(lw) if self.normalize_learned => normalize_per_dst(sess, edges, lw, num_nodes),
            Some(lw) => {
                let norm = mean_norm(sess, edges, num_nodes);
                sess.tape.mul(lw, norm)
            }
            None => mean_norm(sess, edges, num_nodes),
        };
        for layer in &self.layers {
            let neigh = sess.tape.spmm(edges.clone(), x, Some(w), num_nodes);
            let cat = sess.tape.concat_cols(x, neigh);
            let h = layer.lin.forward(sess, cat);
            x = layer.act.apply(sess, h);
        }
        sess.tape.row_l2_normalize(x)
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
    fn encode(
        &self,
        sess: &mut Session<'_>,
        mut x: Var,
        edges: &Arc<EdgeList>,
        num_nodes: usize,
        edge_weights: Option<Var>,
    ) -> Var {
        let w = match edge_weights {
            Some(lw) => normalize_per_dst(sess, edges, lw, num_nodes),
            None => sym_norm(sess, edges, num_nodes),
        };
        for (lin, act) in &self.layers {
            let agg = sess.tape.spmm(edges.clone(), x, Some(w), num_nodes);
            let h = lin.forward(sess, agg);
            x = act.apply(sess, h);
        }
        sess.tape.row_l2_normalize(x)
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
    fn encode(
        &self,
        sess: &mut Session<'_>,
        mut x: Var,
        edges: &Arc<EdgeList>,
        num_nodes: usize,
        edge_weights: Option<Var>,
    ) -> Var {
        let src_idx: Arc<Vec<usize>> = Arc::new((0..edges.len()).map(|e| edges.src(e)).collect());
        let dst_idx: Arc<Vec<usize>> = Arc::new((0..edges.len()).map(|e| edges.dst(e)).collect());
        for layer in &self.layers {
            let mut head_outputs = Vec::with_capacity(layer.heads.len());
            for head in &layer.heads {
                let h = head.lin.forward(sess, x);
                // e_uv = LeakyReLU(a_srcᵀ h_u + a_dstᵀ h_v), softmax per dst.
                let a_src = sess.param(head.a_src);
                let a_dst = sess.param(head.a_dst);
                let s_all = sess.tape.matmul(h, a_src); // n×1
                let d_all = sess.tape.matmul(h, a_dst); // n×1
                let s_e = sess.tape.gather_rows(s_all, src_idx.clone());
                let d_e = sess.tape.gather_rows(d_all, dst_idx.clone());
                let raw = sess.tape.add(s_e, d_e);
                let scores = sess.tape.leaky_relu(raw, 0.2);
                let mut alpha = sess.tape.edge_softmax(edges.clone(), scores);
                if let Some(lw) = edge_weights {
                    // External reconstruction weights modulate attention.
                    alpha = sess.tape.mul(alpha, lw);
                }
                head_outputs.push(sess.tape.spmm(edges.clone(), h, Some(alpha), num_nodes));
            }
            let mut agg = head_outputs[0];
            for &rest in &head_outputs[1..] {
                agg = sess.tape.concat_cols(agg, rest);
            }
            x = layer.act.apply(sess, agg);
        }
        sess.tape.row_l2_normalize(x)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};

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
        let h = sage.encode(&mut sess, x, &edges, 5, None);
        let hv = sess.value(h);
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
        let h1 = gcn.encode(&mut sess, x, &edges, 4, None);
        let h2 = gat.encode(&mut sess, x, &edges, 4, None);
        assert_eq!(sess.value(h1).shape(), (4, 6));
        assert_eq!(sess.value(h2).shape(), (4, 6));
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
        let h_zero = sage.encode(&mut s1, x1, &edges, 4, Some(zeros));
        let h_zero = s1.value(h_zero).clone();

        // Manually: concat(x, 0) → same as linear on [x|0].
        let mut s2 = Session::new(&store);
        let x2 = s2.data(x_t.clone());
        let z = s2.data(Tensor::zeros(4, 3));
        let cat = s2.tape.concat_cols(x2, z);
        // first (only) layer
        let lin_out = sage.layers[0].lin.forward(&mut s2, cat);
        let act = sage.layers[0].act.apply(&mut s2, lin_out);
        let expect = s2.tape.row_l2_normalize(act);
        let expect = s2.value(expect).clone();

        for (a, b) in h_zero.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// All three encoders must be trainable end-to-end: learn to classify
    /// nodes of a two-cluster graph from noisy features.
    fn encoder_learns(enc: &dyn GnnEncoder, store: &mut ParamStore, head: &Linear) -> f32 {
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
        let mut opt = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            let mut sess = Session::new(store);
            let xv = sess.data(x.clone());
            let h = enc.encode(&mut sess, xv, &edges, n, None);
            let logits = head.forward(&mut sess, h);
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
        let h = gat.encode(&mut sess, x, &edges, 5, None);
        assert_eq!(sess.value(h).shape(), (5, 8));
        assert!(sess.value(h).all_finite());
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
