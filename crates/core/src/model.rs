//! The GraphPrompter model: reconstruction layer + `GNN_D` + selection
//! layer + task-graph GNN, all owned by one [`ParamStore`].
//!
//! Everything trainable is learned in the pre-training phase (Alg. 1);
//! inference (Alg. 2) never updates parameters. Each forward below is
//! generic over [`Forward`]: pre-training runs it on a
//! [`gp_nn::Session`] tape, inference on the tape-free [`gp_nn::Eval`].

use std::sync::Arc;

use gp_datasets::{DataPoint, Task};
use gp_graph::{Graph, RandomWalkSampler, Subgraph};
use gp_nn::{
    Activation, EncodeGraph, Forward, Gat, Gcn, GnnEncoder, GraphSage, Mlp, ParamStore,
    TaskGraphAttention,
};
use gp_tensor::rng::StdRng;

use crate::batch::SubgraphBatch;
use crate::config::{GeneratorKind, ModelConfig};

/// Width of the task graph's `T`/`F` edge-attribute embedding.
const EDGE_ATTR_DIM: usize = 8;

/// The full parameter set of GraphPrompter.
pub struct GraphPrompterModel {
    /// All trainable tensors.
    pub store: ParamStore,
    /// `MLP_φ` — reconstruction layer (Eq. 2). Input: `[h_u | h_v | rel]`.
    recon: Mlp,
    /// `GNN_D` (Eq. 4).
    gnn: Generator,
    /// `MLP_θ` — selection layer (Eq. 5). Input: subgraph embedding.
    select: Mlp,
    /// `GNN_T` — task-graph attention model (Eq. 10).
    task_graph: TaskGraphAttention,
    cfg: ModelConfig,
}

/// `GNN_D`, one variant per [`GeneratorKind`].
enum Generator {
    Sage(GraphSage),
    Gat(Gat),
    Gcn(Gcn),
}

impl Generator {
    fn encode<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        x: F::V,
        x_keys: Option<&[usize]>,
        graph: &EncodeGraph,
        edge_weights: Option<F::V>,
    ) -> F::V {
        match self {
            Generator::Sage(g) => g.encode(f, x, x_keys, graph, edge_weights),
            Generator::Gat(g) => g.encode(f, x, x_keys, graph, edge_weights),
            Generator::Gcn(g) => g.encode(f, x, x_keys, graph, edge_weights),
        }
    }
}

/// Embeddings and importances for a batch of data graphs, as values of
/// the forward pass that computed them.
pub struct BatchEmbedding<V> {
    /// `G×d` subgraph embeddings (`G_i`, Eq. 4), row-L2-normalized.
    pub embeddings: V,
    /// `G×1` selection-layer importances (`I_p`, Eq. 5), in `(0, 1)`.
    pub importance: V,
}

impl GraphPrompterModel {
    /// Initialize all modules with Xavier weights from `cfg.seed`.
    pub fn new(cfg: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let recon = Mlp::new(
            &mut store,
            &mut rng,
            "recon",
            &[2 * cfg.feat_dim + cfg.rel_dim, cfg.hidden_dim, 1],
            Activation::Relu,
            Activation::None,
        );
        let dims = [cfg.feat_dim, cfg.hidden_dim, cfg.embed_dim];
        let gnn = match cfg.generator {
            GeneratorKind::Sage => {
                let mut sage = GraphSage::new(&mut store, &mut rng, "gnn_d", &dims);
                sage.set_normalize_learned(cfg.recon_normalize);
                Generator::Sage(sage)
            }
            GeneratorKind::Gat => Generator::Gat(Gat::new(&mut store, &mut rng, "gnn_d", &dims)),
            GeneratorKind::Gcn => Generator::Gcn(Gcn::new(&mut store, &mut rng, "gnn_d", &dims)),
        };
        let select = Mlp::new(
            &mut store,
            &mut rng,
            "select",
            &[cfg.embed_dim, cfg.hidden_dim, 1],
            Activation::Relu,
            Activation::None,
        );
        let mut task_graph = TaskGraphAttention::new(
            &mut store,
            &mut rng,
            "gnn_t",
            cfg.embed_dim,
            cfg.hidden_dim,
            EDGE_ATTR_DIM,
        );
        task_graph.set_prototype_residual(cfg.proto_residual);
        Self {
            store,
            recon,
            gnn,
            select,
            task_graph,
            cfg,
        }
    }

    /// Shapes of the parameters [`GraphPrompterModel::new`] builds for
    /// `cfg`, in store order, or `None` when a width or a tensor size
    /// overflows `usize`. Lets a loader check a file against its config
    /// before it allocates the model.
    pub fn param_shapes(cfg: &ModelConfig) -> Option<Vec<(usize, usize)>> {
        let (f, r, e, h) = (cfg.feat_dim, cfg.rel_dim, cfg.embed_dim, cfg.hidden_dim);
        let linear = |i: usize, o: usize| [(i, o), (1, o)];
        let mut shapes = Vec::new();
        // recon
        shapes.extend(linear(f.checked_mul(2)?.checked_add(r)?, h));
        shapes.extend(linear(h, 1));
        // gnn_d
        match cfg.generator {
            GeneratorKind::Sage => {
                shapes.extend(linear(f.checked_mul(2)?, h));
                shapes.extend(linear(h.checked_mul(2)?, e));
            }
            GeneratorKind::Gat => {
                shapes.extend(linear(f, h));
                shapes.extend([(h, 1), (h, 1)]);
                shapes.extend(linear(h, e));
                shapes.extend([(e, 1), (e, 1)]);
            }
            GeneratorKind::Gcn => {
                shapes.extend(linear(f, h));
                shapes.extend(linear(h, e));
            }
        }
        // select
        shapes.extend(linear(e, h));
        shapes.extend(linear(h, 1));
        // gnn_t
        shapes.push((2, EDGE_ATTR_DIM));
        shapes.extend(linear(e.checked_add(EDGE_ATTR_DIM)?, h));
        shapes.extend(linear(h, 1));
        shapes.extend(linear(h, e));
        shapes.extend(linear(e, e));
        shapes.push((1, 1));
        for &(rows, cols) in &shapes {
            rows.checked_mul(cols)?;
        }
        Some(shapes)
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Save the model (config + parameters) as a GPCK v2 checkpoint:
    /// checksummed container, written atomically (see [`crate::checkpoint`]).
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        crate::checkpoint::save_model(path.as_ref(), self)
    }

    /// Load a GPCK v2 model file. The config is read first, the
    /// architecture rebuilt deterministically, then the trained
    /// parameter values are validated against it and installed.
    /// Foreign, corrupt, truncated or mismatched files yield a typed
    /// [`crate::checkpoint::CheckpointError`]; the stored tensors are
    /// checked against the config's [`GraphPrompterModel::param_shapes`]
    /// before the model is allocated.
    pub fn load(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        crate::checkpoint::load_model(path.as_ref())
    }

    /// Embed a batch of data graphs: reconstruction weights (Eqs. 2–3,
    /// when `use_reconstruction`), `GNN_D` aggregation (Eq. 4), per-graph
    /// anchor readout, and selection-layer importance (Eq. 5).
    ///
    /// `GNN_D` computes its last layer at the batch's read rows (the
    /// anchors) only, and keys its input rows by
    /// [`SubgraphBatch::node_keys`]: see [`gp_nn::gnn`].
    pub fn embed_batch<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        batch: &'a SubgraphBatch,
        use_reconstruction: bool,
    ) -> BatchEmbedding<F::V> {
        let x = f.input(&batch.features);
        let edge_weights =
            (use_reconstruction && batch.num_edges() > 0).then(|| self.edge_weights(f, batch, &x));
        // Eq. 4: node embeddings at the anchors, then readout per graph.
        let h = self
            .gnn
            .encode(f, x, Some(batch.node_keys()), &batch.graph, edge_weights);
        let r_w = f.input(&batch.readout_weights);
        let g_raw = f.spmm(&batch.readout_edges, &h, Some(&r_w), batch.num_graphs);
        let embeddings = f.row_l2_normalize(g_raw);

        // Eq. 5: I_p = σ(MLP_θ(G_p)).
        let imp_raw = self.select.forward(f, &embeddings);
        let importance = f.sigmoid(imp_raw);

        BatchEmbedding {
            embeddings,
            importance,
        }
    }

    /// Eqs. 2–3: the `E×1` weights `w_uv = σ(MLP_φ([h_u | h_v | rel]))`
    /// of the batch's union edges, where `x` is `batch.features` as an
    /// input of `f`.
    ///
    /// A weight depends only on its global `(u, v, rel)` triple, so the
    /// layer runs under [`Forward::keyed_rows`] keyed by
    /// [`SubgraphBatch::edge_keys`], and its first layer's `h_u` share
    /// goes through [`Forward::gather_concat_matmul`] keyed by
    /// [`SubgraphBatch::node_keys`]: a `Session` computes every union
    /// edge, an `Eval` each distinct triple once and each distinct
    /// source node's share once, then gathers the `E×1` weights to the
    /// edges, with the same bits.
    pub fn edge_weights<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        batch: &'a SubgraphBatch,
        x: &F::V,
    ) -> F::V {
        let edges = batch.graph.edges();
        let ([w], map) = f.keyed_rows(batch.edge_keys(), |f, rows| {
            let src_idx: Vec<usize> = rows.iter().map(|&e| edges.src(e)).collect();
            let src_keys: Vec<usize> = src_idx.iter().map(|&u| batch.node_keys()[u]).collect();
            let dst_idx = rows.iter().map(|&e| edges.dst(e)).collect();
            let h_dst = f.gather_rows(x, Arc::new(dst_idx));
            let rel = f.input(&batch.rel_feats);
            // Selecting as many rows as there are edges selects `0..E`.
            let rel = if rows.len() == edges.len() {
                rel
            } else {
                f.gather_rows(&rel, Arc::new(rows.to_vec()))
            };
            let dst_rel = f.concat_cols(&h_dst, &rel);
            let z = self
                .recon
                .forward_gather_concat(f, x, Arc::new(src_idx), &src_keys, &dst_rel);
            [f.sigmoid(z)]
        });
        map.expand(f, w)
    }

    /// Run the task graph (Eq. 10) and return its logits per query
    /// (Eq. 11 is the caller's argmax).
    pub fn task_forward<'a, F: Forward<'a>>(
        &self,
        f: &mut F,
        prompts: &F::V,
        prompt_labels: &[usize],
        queries: &F::V,
        num_classes: usize,
    ) -> F::V {
        self.task_graph
            .forward(f, prompts, prompt_labels, queries, num_classes)
    }
}

/// Sample the data graph of one datapoint (Eq. 1). For edge
/// classification the anchor pair's direct edge is removed (the label must
/// not leak into the data graph).
pub fn sample_datapoint_subgraph(
    graph: &Graph,
    sampler: &RandomWalkSampler,
    point: DataPoint,
    task: Task,
    rng: &mut StdRng,
) -> Subgraph {
    let sg = sampler.sample(graph, &point.anchors(graph), rng);
    match task {
        Task::EdgeClassification => sg.without_anchor_edges(),
        Task::NodeClassification => sg,
    }
}

/// [`sample_datapoint_subgraph`] for each datapoint in turn, from one RNG.
pub fn sample_datapoint_subgraphs(
    graph: &Graph,
    sampler: &RandomWalkSampler,
    points: &[DataPoint],
    task: Task,
    rng: &mut StdRng,
) -> Vec<Subgraph> {
    points
        .iter()
        .map(|&dp| sample_datapoint_subgraph(graph, sampler, dp, task, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;
    use gp_graph::SamplerConfig;
    use gp_nn::Eval;

    fn small_model() -> GraphPrompterModel {
        GraphPrompterModel::new(ModelConfig {
            feat_dim: gp_datasets::NODE_FEAT_DIM,
            rel_dim: gp_datasets::REL_FEAT_DIM,
            embed_dim: 16,
            hidden_dim: 24,
            generator: GeneratorKind::Sage,
            seed: 3,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn embed_batch_shapes_and_ranges() {
        let model = small_model();
        let ds = CitationConfig::new("t", 200, 4, 5).generate();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let points: Vec<DataPoint> = ds.train[..6].to_vec();
        let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
        let batch = SubgraphBatch::build(&ds.graph, &sgs, model.config().rel_dim);
        let mut ev = Eval::new(&model.store);
        let emb = model.embed_batch(&mut ev, &batch, true);
        let g = ev.value(&emb.embeddings);
        let i = ev.value(&emb.importance);
        assert_eq!(g.shape(), (6, 16));
        assert_eq!(i.shape(), (6, 1));
        assert!(i.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        for r in 0..6 {
            let n: f32 = g.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn reconstruction_toggle_changes_embeddings() {
        let model = small_model();
        let ds = CitationConfig::new("t", 200, 4, 5).generate();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let points: Vec<DataPoint> = ds.train[..4].to_vec();
        let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
        let batch = SubgraphBatch::build(&ds.graph, &sgs, model.config().rel_dim);
        let mut s1 = Eval::new(&model.store);
        let e1 = model.embed_batch(&mut s1, &batch, true);
        let mut s2 = Eval::new(&model.store);
        let e2 = model.embed_batch(&mut s2, &batch, false);
        assert_ne!(
            s1.value(&e1.embeddings).as_slice(),
            s2.value(&e2.embeddings).as_slice()
        );
    }

    #[test]
    fn param_shapes_match_the_built_store() {
        for generator in [GeneratorKind::Sage, GeneratorKind::Gat, GeneratorKind::Gcn] {
            for (feat_dim, rel_dim, embed_dim, hidden_dim) in [(5, 3, 7, 11), (32, 8, 32, 64)] {
                let cfg = ModelConfig {
                    feat_dim,
                    rel_dim,
                    embed_dim,
                    hidden_dim,
                    generator,
                    ..ModelConfig::default()
                };
                let built: Vec<_> = GraphPrompterModel::new(cfg.clone())
                    .store
                    .iter()
                    .map(|(_, t)| t.shape())
                    .collect();
                assert_eq!(GraphPrompterModel::param_shapes(&cfg), Some(built));
            }
        }
        let huge = ModelConfig {
            feat_dim: usize::MAX / 2,
            ..ModelConfig::default()
        };
        assert_eq!(GraphPrompterModel::param_shapes(&huge), None);
    }

    #[test]
    fn all_generator_kinds_construct_and_run() {
        for kind in [GeneratorKind::Sage, GeneratorKind::Gat, GeneratorKind::Gcn] {
            let model = GraphPrompterModel::new(ModelConfig {
                generator: kind,
                embed_dim: 8,
                hidden_dim: 12,
                ..ModelConfig::default()
            });
            let ds = CitationConfig::new("t", 120, 3, 2).generate();
            let sampler = RandomWalkSampler::new(SamplerConfig::default());
            let mut rng = StdRng::seed_from_u64(2);
            let points: Vec<DataPoint> = ds.train[..3].to_vec();
            let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
            let batch = SubgraphBatch::build(&ds.graph, &sgs, model.config().rel_dim);
            let mut ev = Eval::new(&model.store);
            let emb = model.embed_batch(&mut ev, &batch, true);
            assert_eq!(ev.value(&emb.embeddings).shape(), (3, 8));
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_inference() {
        let model = small_model();
        let dir = std::env::temp_dir().join("gp_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gpck");
        model.save(&path).unwrap();
        let loaded = GraphPrompterModel::load(&path).unwrap();
        assert_eq!(loaded.num_parameters(), model.num_parameters());
        assert_eq!(loaded.config().embed_dim, model.config().embed_dim);

        // Identical embeddings on the same batch.
        let ds = CitationConfig::new("t", 150, 3, 9).generate();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let points: Vec<DataPoint> = ds.train[..4].to_vec();
        let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
        let batch = SubgraphBatch::build(&ds.graph, &sgs, model.config().rel_dim);
        let mut s1 = Eval::new(&model.store);
        let e1 = model.embed_batch(&mut s1, &batch, true);
        let mut s2 = Eval::new(&loaded.store);
        let e2 = loaded.embed_batch(&mut s2, &batch, true);
        assert_eq!(
            s1.value(&e1.embeddings).as_slice(),
            s2.value(&e2.embeddings).as_slice()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_non_checkpoint_file() {
        let dir = std::env::temp_dir().join("gp_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.gpck");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(GraphPrompterModel::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_task_subgraphs_drop_anchor_edge() {
        let ds = gp_datasets::KgConfig::new("t", 300, 6, 5, 7).generate();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<DataPoint> = ds.train[..8].to_vec();
        let sgs = sample_datapoint_subgraphs(&ds.graph, &sampler, &points, ds.task, &mut rng);
        for sg in &sgs {
            assert_eq!(sg.anchors.len(), 2);
            let (a, b) = (sg.anchors[0], sg.anchors[1]);
            for (s, d) in sg.edges.iter() {
                assert!(
                    !((s == a && d == b) || (s == b && d == a)),
                    "anchor edge leaked"
                );
            }
        }
    }
}
