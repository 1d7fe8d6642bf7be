//! The ProG / All-in-One baseline (Sun et al., KDD 2023; the paper's
//! reference \[32\]): a **Prompt Token** method. A learnable prompt vector
//! is added to the node features of every data graph and meta-tuned on the
//! episode's k-shot examples; queries are then classified by cosine to
//! class prototypes.
//!
//! The paper's finding this baseline must reproduce: prompt-*token*
//! methods need more labelled data than few-shot episodes provide, so
//! their cross-domain accuracy is unstable (huge std) and collapses as the
//! way count grows (Tables III–V). Both effects emerge here naturally:
//! tuning a feature-space token on `m·k` examples through a frozen encoder
//! is a high-variance optimization.

use std::sync::Arc;

use gp_core::SubgraphBatch;
use gp_datasets::Dataset;
use gp_graph::RandomWalkSampler;
use gp_nn::{Optimizer, Session, Sgd};
use gp_tensor::rng::StdRng;
use gp_tensor::{EdgeList, Tensor};

use crate::{Contrastive, EvalProtocol, IclBaseline};

/// For each union node of `batch`, the episode class of the member graph
/// it belongs to (prompt i's nodes all get `labels[i]`).
fn node_token_indices(batch: &SubgraphBatch, labels: &[usize]) -> Vec<usize> {
    batch.graph_of_node().iter().map(|&g| labels[g]).collect()
}

/// Prompt-token meta-tuning over a frozen contrastive encoder.
///
/// All-in-One learns a prompt *subgraph*; the analog here is one learnable
/// token per episode class (`m×d` parameters), inserted into the node
/// features of every data graph whose datapoint is being scored for that
/// class's prototype. Tuning `m·d` parameters on `m·k` examples is the
/// overfitting surface behind the instability the paper reports.
pub struct ProG {
    encoder: Contrastive,
    /// Meta-tuning gradient steps per episode.
    pub tune_steps: usize,
    /// Meta-tuning learning rate (aggressive, as few-step meta-tuning
    /// requires; this is also what makes the method high-variance).
    pub tune_lr: f32,
}

impl ProG {
    /// Wrap a pre-trained encoder.
    pub fn new(encoder: Contrastive) -> Self {
        Self {
            encoder,
            tune_steps: 40,
            tune_lr: 4.0,
        }
    }

    /// Tune a prompt token on the episode's shots; return query predictions.
    fn run_episode(
        &self,
        dataset: &Dataset,
        sampler: &RandomWalkSampler,
        task: &gp_datasets::FewShotTask,
        ways: usize,
        rng: &mut StdRng,
    ) -> (Vec<usize>, Vec<usize>) {
        let (p_points, p_labels): (Vec<_>, Vec<_>) = task.candidates.iter().copied().unzip();
        let (q_points, q_labels): (Vec<_>, Vec<_>) = task.queries.iter().copied().unzip();
        let p_sgs = gp_core::sample_datapoint_subgraphs(
            &dataset.graph,
            sampler,
            &p_points,
            dataset.task,
            rng,
        );
        let q_sgs = gp_core::sample_datapoint_subgraphs(
            &dataset.graph,
            sampler,
            &q_points,
            dataset.task,
            rng,
        );
        let p_batch = match SubgraphBatch::build(&dataset.graph, &p_sgs, gp_datasets::REL_FEAT_DIM)
        {
            Ok(b) => b,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: sampled subgraphs are non-empty and anchored"
            )]
            Err(e) => unreachable!("subgraph fusion failed: {e}"),
        };
        let q_batch = match SubgraphBatch::build(&dataset.graph, &q_sgs, gp_datasets::REL_FEAT_DIM)
        {
            Ok(b) => b,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: sampled subgraphs are non-empty and anchored"
            )]
            Err(e) => unreachable!("subgraph fusion failed: {e}"),
        };

        // Cloned store keeps the encoder ids valid; the tokens are appended.
        let mut store = self.encoder.store().clone();
        let d = dataset.graph.feature_dim();
        let token = store.add("prog.tokens", Tensor::zeros(ways, d));
        // Class-prototype readout: prompt i → class p_labels[i], mean-pooled.
        let proto_edges = EdgeList::from_pairs(
            p_labels
                .iter()
                .enumerate()
                .map(|(i, &l)| (i as u32, l as u32)),
        )
        .into_shared();
        let mut counts = vec![0f32; ways];
        for &l in &p_labels {
            counts[l] += 1.0;
        }
        let proto_w = Tensor::from_vec(
            p_labels.len(),
            1,
            p_labels.iter().map(|&l| 1.0 / counts[l].max(1.0)).collect(),
        );
        let targets: Arc<Vec<usize>> = Arc::new(p_labels.clone());

        // Per-node token rows: every node of prompt i's data graph gets
        // class y_i's token added to its features.
        let p_node_token_idx: Arc<Vec<usize>> = Arc::new(node_token_indices(&p_batch, &p_labels));
        let mut opt = Sgd::new(self.tune_lr);
        for _ in 0..self.tune_steps {
            let mut sess = Session::new(&store);
            let tok = sess.param(token);
            let tok_rows = sess.tape.gather_rows(tok, p_node_token_idx.clone());
            let base = sess.data(p_batch.features.clone());
            let x = sess.tape.add(base, tok_rows);
            let z = self.encoder.embed_from_var(&mut sess, x, &p_batch);
            let w = sess.data(proto_w.clone());
            let protos = sess.tape.spmm(proto_edges.clone(), z, Some(w), ways);
            let protos = sess.tape.row_l2_normalize(protos);
            let cos = sess.tape.matmul_tb(z, protos);
            let logits = sess.tape.scale(cos, 10.0);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            let (_, grads) = sess.grads(loss);
            // Only the token moves: the encoder stays frozen.
            let token_grads: Vec<_> = grads.into_iter().filter(|(id, _)| *id == token).collect();
            opt.step(&mut store, &token_grads);
        }

        // Final prototypes under the tuned tokens; queries are scored per
        // candidate class (each class's token inserted before encoding, as
        // All-in-One scores a query against each class-conditioned view).
        let mut sess = Session::new(&store);
        let tok = sess.param(token);
        let tok_rows = sess.tape.gather_rows(tok, p_node_token_idx);
        let pb = sess.data(p_batch.features.clone());
        let px = sess.tape.add(pb, tok_rows);
        let pz = self.encoder.embed_from_var(&mut sess, px, &p_batch);
        let w = sess.data(proto_w);
        let protos = sess.tape.spmm(proto_edges, pz, Some(w), ways);
        let protos = sess.tape.row_l2_normalize(protos);
        let protos_t = sess.value(protos).clone();

        let n_q = q_batch.num_graphs;
        let mut best = vec![(f32::NEG_INFINITY, 0usize); n_q];
        for class in 0..ways {
            let mut cs = Session::new(&store);
            let tokv = cs.param(token);
            let idx: Arc<Vec<usize>> = Arc::new(vec![class; q_batch.num_nodes]);
            let trows = cs.tape.gather_rows(tokv, idx);
            let qb = cs.data(q_batch.features.clone());
            let qx = cs.tape.add(qb, trows);
            let qz = self.encoder.embed_from_var(&mut cs, qx, &q_batch);
            let qz_t = cs.value(qz);
            for (q, slot) in best.iter_mut().enumerate() {
                let sim = qz_t.cosine_rows(q, &protos_t, class);
                if sim > slot.0 {
                    *slot = (sim, class);
                }
            }
        }
        let preds: Vec<usize> = best.into_iter().map(|(_, c)| c).collect();
        (preds, q_labels)
    }
}

impl IclBaseline for ProG {
    fn name(&self) -> &str {
        "ProG"
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
                    protocol.shots,
                    protocol.queries,
                    &mut rng,
                );
                let (preds, labels) = self.run_episode(dataset, &sampler, &task, ways, &mut rng);
                let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
                100.0 * correct as f32 / labels.len().max(1) as f32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContrastiveConfig;
    use gp_datasets::CitationConfig;

    #[test]
    fn prog_runs_and_stays_in_range() {
        let ds = CitationConfig::new("t", 250, 4, 61).generate();
        let enc = Contrastive::pretrain(
            &ds,
            ContrastiveConfig {
                steps: 30,
                batch_size: 6,
                ..ContrastiveConfig::default()
            },
        );
        let prog = ProG::new(enc);
        let accs = prog.evaluate(
            &ds,
            3,
            2,
            &EvalProtocol {
                queries: 9,
                ..EvalProtocol::default()
            },
        );
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }
}
