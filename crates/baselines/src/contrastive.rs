//! GraphCL-style contrastive baseline (the paper's "Contrastive" row,
//! reference \[24\]): self-supervised pre-training with edge-drop and
//! feature-mask augmentations under the NT-Xent loss, adapted to
//! in-context evaluation with a hard-coded nearest-class-mean classifier.

use std::sync::Arc;

use gp_core::SubgraphBatch;
use gp_datasets::{DataPoint, Dataset, Task};
use gp_graph::{Graph, RandomWalkSampler, Subgraph};
use gp_nn::{Adam, GnnEncoder, GraphSage, Optimizer, ParamStore, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::{EdgeList, Tensor, Var};

use crate::{EvalProtocol, IclBaseline};

/// Hyperparameters for contrastive pre-training.
#[derive(Clone, Debug)]
pub struct ContrastiveConfig {
    /// Pre-training steps.
    pub steps: usize,
    /// Anchor nodes per step (batch of positive pairs).
    pub batch_size: usize,
    /// Probability of dropping each subgraph edge in an augmented view.
    pub edge_drop: f32,
    /// Probability of zeroing each feature entry in an augmented view.
    pub feature_mask: f32,
    /// NT-Xent temperature.
    pub temperature: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Embedding width.
    pub embed_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Init/episode seed.
    pub seed: u64,
}

impl Default for ContrastiveConfig {
    fn default() -> Self {
        Self {
            steps: 150,
            batch_size: 8,
            edge_drop: 0.2,
            feature_mask: 0.15,
            temperature: 0.5,
            lr: 1e-3,
            embed_dim: 32,
            hidden_dim: 64,
            seed: 0,
        }
    }
}

/// The pre-trained contrastive encoder plus its evaluation logic.
pub struct Contrastive {
    store: ParamStore,
    encoder: GraphSage,
    cfg: ContrastiveConfig,
}

/// Randomly drop edges of a subgraph (self-loops restored for orphaned
/// nodes, preserving the aggregation invariant).
fn drop_edges(sg: &Subgraph, p: f32, rng: &mut StdRng) -> Subgraph {
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut rels = Vec::new();
    for (e, (s, d)) in sg.edges.iter().enumerate() {
        if s == d || rng.next_f32() >= p {
            src.push(s as u32);
            dst.push(d as u32);
            rels.push(sg.rels[e]);
        }
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
    Subgraph {
        nodes: sg.nodes.clone(),
        edges: EdgeList::new(src, dst),
        rels,
        anchors: sg.anchors.clone(),
    }
}

/// Zero each feature entry with probability `p`.
fn mask_features(features: &Tensor, p: f32, rng: &mut StdRng) -> Tensor {
    let mut out = features.clone();
    for v in out.as_mut_slice() {
        if rng.next_f32() < p {
            *v = 0.0;
        }
    }
    out
}

impl Contrastive {
    /// Pre-train a fresh encoder on `source` with NT-Xent.
    pub fn pretrain(source: &Dataset, cfg: ContrastiveConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let encoder = GraphSage::new(
            &mut store,
            &mut rng,
            "gcl",
            &[source.graph.feature_dim(), cfg.hidden_dim, cfg.embed_dim],
        );
        let mut this = Self {
            store,
            encoder,
            cfg,
        };
        this.run_pretraining(source);
        this
    }

    fn run_pretraining(&mut self, source: &Dataset) {
        let cfg = self.cfg.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let sampler = RandomWalkSampler::new(gp_graph::SamplerConfig::default());
        let mut opt = Adam::new(cfg.lr);
        let graph = &source.graph;
        for _ in 0..cfg.steps {
            // Two augmented views of each anchor's subgraph.
            let anchors: Vec<u32> = (0..cfg.batch_size)
                .map(|_| rng.gen_range(0..graph.num_nodes()) as u32)
                .collect();
            let mut views = Vec::with_capacity(2 * cfg.batch_size);
            for &a in &anchors {
                let sg = sampler.sample(graph, &[a], &mut rng);
                views.push(drop_edges(&sg, cfg.edge_drop, &mut rng));
                views.push(drop_edges(&sg, cfg.edge_drop, &mut rng));
            }
            let batch = match SubgraphBatch::build(graph, &views, gp_datasets::REL_FEAT_DIM) {
                Ok(b) => b,
                #[expect(
                    clippy::unreachable,
                    reason = "structurally impossible: sampled subgraphs are non-empty and anchored"
                )]
                Err(e) => unreachable!("subgraph fusion failed: {e}"),
            };
            let masked = mask_features(&batch.features, cfg.feature_mask, &mut rng);

            let mut sess = Session::new(&self.store);
            let x = sess.data(masked);
            let h = self
                .encoder
                .encode(&mut sess, x, &batch.edges, batch.num_nodes, None);
            let rw = sess.data(batch.readout_weights.clone());
            let z_raw = sess
                .tape
                .spmm(batch.readout_edges.clone(), h, Some(rw), batch.num_graphs);
            let z = sess.tape.row_l2_normalize(z_raw);

            // NT-Xent: rows 2i and 2i+1 are positives; self-similarity
            // masked out with a large negative bias.
            let n = 2 * cfg.batch_size;
            let sims = sess.tape.matmul_tb(z, z);
            let scaled = sess.tape.scale(sims, 1.0 / cfg.temperature);
            let mut mask = Tensor::zeros(n, n);
            for i in 0..n {
                mask.set(i, i, -1e9);
            }
            let maskv = sess.data(mask);
            let logits = sess.tape.add(scaled, maskv);
            let targets: Arc<Vec<usize>> = Arc::new(
                (0..n)
                    .map(|i| if i % 2 == 0 { i + 1 } else { i - 1 })
                    .collect(),
            );
            let loss = sess.tape.cross_entropy_logits(logits, targets);
            let (_, grads) = sess.grads(loss);
            opt.step(&mut self.store, &grads);
        }
    }

    /// Embed datapoints with the frozen encoder (no augmentation).
    pub fn embed(
        &self,
        graph: &Graph,
        sampler: &RandomWalkSampler,
        points: &[DataPoint],
        task: Task,
        rng: &mut StdRng,
    ) -> Tensor {
        let sgs = gp_core::sample_datapoint_subgraphs(graph, sampler, points, task, rng);
        let batch = match SubgraphBatch::build(graph, &sgs, gp_datasets::REL_FEAT_DIM) {
            Ok(b) => b,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: sampled subgraphs are non-empty and anchored"
            )]
            Err(e) => unreachable!("subgraph fusion failed: {e}"),
        };
        let mut sess = Session::new(&self.store);
        let x = sess.data(batch.features.clone());
        let h = self
            .encoder
            .encode(&mut sess, x, &batch.edges, batch.num_nodes, None);
        let rw = sess.data(batch.readout_weights.clone());
        let z = sess
            .tape
            .spmm(batch.readout_edges.clone(), h, Some(rw), batch.num_graphs);
        let z = sess.tape.row_l2_normalize(z);
        sess.value(z).clone()
    }

    /// Embed from an already-on-tape feature variable (lets [`crate::ProG`]
    /// differentiate through the frozen encoder into its prompt token).
    pub(crate) fn embed_from_var(
        &self,
        sess: &mut Session<'_>,
        x: Var,
        batch: &SubgraphBatch,
    ) -> Var {
        let h = self
            .encoder
            .encode(sess, x, &batch.edges, batch.num_nodes, None);
        let rw = sess.data(batch.readout_weights.clone());
        let z = sess
            .tape
            .spmm(batch.readout_edges.clone(), h, Some(rw), batch.num_graphs);
        sess.tape.row_l2_normalize(z)
    }

    /// The parameter store (exposed for head-training baselines; cloning it
    /// preserves ids so the encoder keeps working against the clone).
    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Embedding width.
    pub fn embed_dim(&self) -> usize {
        self.cfg.embed_dim
    }

    /// Classify queries by cosine to class-mean prompt embeddings (the
    /// paper's "hard-coded nearest neighbor" adaptation).
    pub fn nearest_class_mean(
        prompt_embs: &Tensor,
        prompt_labels: &[usize],
        query_embs: &Tensor,
        ways: usize,
    ) -> Vec<usize> {
        let d = prompt_embs.cols();
        let mut means = Tensor::zeros(ways, d);
        let mut counts = vec![0usize; ways];
        for (i, &l) in prompt_labels.iter().enumerate() {
            for c in 0..d {
                let v = means.get(l, c) + prompt_embs.get(i, c);
                means.set(l, c, v);
            }
            counts[l] += 1;
        }
        for (l, &count) in counts.iter().enumerate() {
            if count > 0 {
                for c in 0..d {
                    let v = means.get(l, c) / count as f32;
                    means.set(l, c, v);
                }
            }
        }
        (0..query_embs.rows())
            .map(|q| {
                (0..ways)
                    // Total comparator: a NaN cosine (zero-norm class
                    // mean) loses every comparison instead of making the
                    // argmax order-dependent (gp-lint rule D2).
                    .max_by(|&a, &b| {
                        gp_tensor::rank_asc(
                            query_embs.cosine_rows(q, &means, a),
                            query_embs.cosine_rows(q, &means, b),
                        )
                    })
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl IclBaseline for Contrastive {
    fn name(&self) -> &str {
        "Contrastive"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        episodes: usize,
        protocol: &EvalProtocol,
    ) -> Vec<f32> {
        let sampler = RandomWalkSampler::new(protocol.sampler);
        (0..episodes)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(protocol.seed.wrapping_add(i as u64 * 7919));
                let task = gp_datasets::sample_few_shot_task(
                    dataset,
                    ways,
                    protocol.shots, // prompts drawn directly, k per class
                    protocol.queries,
                    &mut rng,
                );
                let (p_points, p_labels): (Vec<_>, Vec<_>) =
                    task.candidates.iter().copied().unzip();
                let (q_points, q_labels): (Vec<_>, Vec<_>) = task.queries.iter().copied().unzip();
                let p_embs =
                    self.embed(&dataset.graph, &sampler, &p_points, dataset.task, &mut rng);
                let q_embs =
                    self.embed(&dataset.graph, &sampler, &q_points, dataset.task, &mut rng);
                let preds = Self::nearest_class_mean(&p_embs, &p_labels, &q_embs, ways);
                let correct = preds.iter().zip(&q_labels).filter(|(a, b)| a == b).count();
                100.0 * correct as f32 / q_labels.len().max(1) as f32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;

    #[test]
    fn augmentations_preserve_invariants() {
        let ds = CitationConfig::new("t", 150, 3, 1).generate();
        let sampler = RandomWalkSampler::new(gp_graph::SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let sg = sampler.sample(&ds.graph, &[5], &mut rng);
        let aug = drop_edges(&sg, 0.5, &mut rng);
        assert_eq!(aug.nodes, sg.nodes);
        assert!(aug.edges.len() <= sg.edges.len() + sg.nodes.len());
        // Every node keeps at least one in-edge.
        let deg = aug.edges.in_degrees(aug.nodes.len());
        assert!(deg.iter().all(|&d| d > 0));
    }

    #[test]
    fn mask_features_zeroes_roughly_p() {
        let t = Tensor::full(50, 20, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let m = mask_features(&t, 0.3, &mut rng);
        let zeros = m.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 1000.0;
        assert!((frac - 0.3).abs() < 0.08, "masked {frac}");
    }

    #[test]
    fn nearest_class_mean_classifies_separated_clusters() {
        let p = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]);
        let q = Tensor::from_vec(2, 2, vec![0.95, 0.0, 0.0, 0.95]);
        let preds = Contrastive::nearest_class_mean(&p, &[0, 0, 1, 1], &q, 2);
        assert_eq!(preds, vec![0, 1]);
    }

    #[test]
    fn pretrained_contrastive_beats_chance_in_domain() {
        let ds = CitationConfig::new("t", 300, 4, 2).generate();
        let cfg = ContrastiveConfig {
            steps: 60,
            batch_size: 6,
            ..ContrastiveConfig::default()
        };
        let model = Contrastive::pretrain(&ds, cfg);
        let accs = model.evaluate(
            &ds,
            3,
            3,
            &EvalProtocol {
                queries: 15,
                ..EvalProtocol::default()
            },
        );
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        assert!(mean > 40.0, "contrastive mean {mean}%");
    }
}
