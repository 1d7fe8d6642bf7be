//! The Finetune baseline: contrastive encoder + a linear classification
//! head trained on the episode's k-shot examples ("following common
//! practice", §V-A3, reference \[23\]).

use std::sync::Arc;

use gp_datasets::Dataset;
use gp_graph::RandomWalkSampler;
use gp_nn::{AdamW, Eval, Forward, Linear, Optimizer, ParamStore, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::Tensor;

use gp_core::InferenceConfig;

use crate::{Contrastive, IclBaseline};

/// Per-episode head fine-tuning over a frozen contrastive encoder.
pub struct Finetune<'e> {
    encoder: &'e Contrastive,
    /// Gradient steps on the episode's labelled shots.
    pub head_steps: usize,
    /// Head learning rate.
    pub head_lr: f32,
}

impl<'e> Finetune<'e> {
    /// Borrow a pre-trained contrastive encoder; it stays frozen.
    pub fn new(encoder: &'e Contrastive) -> Self {
        Self {
            encoder,
            head_steps: 120,
            head_lr: 0.05,
        }
    }

    /// Train a linear head on `(embeddings, labels)` and return its
    /// predictions for `queries`.
    pub fn fit_predict(
        &self,
        prompt_embs: &Tensor,
        prompt_labels: &[usize],
        query_embs: &Tensor,
        ways: usize,
        seed: u64,
    ) -> Vec<usize> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let head = Linear::new(&mut store, &mut rng, "head", prompt_embs.cols(), ways);
        let targets: Arc<Vec<usize>> = Arc::new(prompt_labels.to_vec());
        let mut opt = AdamW::new(self.head_lr, 0.0);
        for _ in 0..self.head_steps {
            let mut sess = Session::new(&store);
            let x = sess.data(prompt_embs.clone());
            let logits = head.forward(&mut sess, &x);
            let loss = sess.tape.cross_entropy_logits(logits, targets.clone());
            let (_, grads) = sess.grads(loss);
            opt.step(&mut store, &grads);
        }
        let mut ev = Eval::new(&store);
        let x = ev.input(query_embs);
        head.forward(&mut ev, &x).argmax_rows()
    }
}

impl IclBaseline for Finetune<'_> {
    fn name(&self) -> &str {
        "Finetune"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        queries: usize,
        episodes: usize,
        cfg: &InferenceConfig,
    ) -> Vec<f32> {
        let sampler = RandomWalkSampler::new(cfg.sampler);
        (0..episodes)
            .map(|i| {
                let (task, mut rng) =
                    gp_datasets::episode_task(dataset, ways, cfg.shots, queries, cfg.seed, i);
                let (p_points, p_labels): (Vec<_>, Vec<_>) =
                    task.candidates.iter().copied().unzip();
                let (q_points, q_labels): (Vec<_>, Vec<_>) = task.queries.iter().copied().unzip();
                let p_embs =
                    self.encoder
                        .embed(&dataset.graph, &sampler, &p_points, dataset.task, &mut rng);
                let q_embs =
                    self.encoder
                        .embed(&dataset.graph, &sampler, &q_points, dataset.task, &mut rng);
                let seed = gp_datasets::episode_seed(cfg.seed, i);
                let preds = self.fit_predict(&p_embs, &p_labels, &q_embs, ways, seed);
                let correct = preds.iter().zip(&q_labels).filter(|(a, b)| a == b).count();
                100.0 * correct as f32 / q_labels.len().max(1) as f32
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
    fn head_fits_separable_embeddings() {
        let ds = CitationConfig::new("t", 200, 3, 51).generate();
        let enc = Contrastive::pretrain(
            &ds,
            ContrastiveConfig {
                steps: 10,
                ..ContrastiveConfig::default()
            },
        );
        let ft = Finetune::new(&enc);
        let p = Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]);
        let q = Tensor::from_vec(2, 2, vec![0.95, 0.0, 0.0, 0.95]);
        let preds = ft.fit_predict(&p, &[0, 0, 1, 1], &q, 2, 0);
        assert_eq!(preds, vec![0, 1]);
    }

    #[test]
    fn evaluates_end_to_end() {
        let ds = CitationConfig::new("t", 250, 4, 52).generate();
        let enc = Contrastive::pretrain(
            &ds,
            ContrastiveConfig {
                steps: 40,
                batch_size: 6,
                ..ContrastiveConfig::default()
            },
        );
        let ft = Finetune::new(&enc);
        let accs = ft.evaluate(&ds, 3, 12, 2, &InferenceConfig::default());
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }
}
