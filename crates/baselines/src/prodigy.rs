//! The Prodigy baseline (Huang et al. 2023, the paper's reference \[3\]).
//!
//! Prodigy is the in-context learning framework GraphPrompter extends:
//! the same data-graph / task-graph pipeline, but with **random** prompt
//! selection, no reconstruction layer, no selection layer and no cache.
//! We therefore implement it as the gp-core pipeline with every stage
//! toggle off — both at pre-training and at inference — which makes the
//! GraphPrompter-vs-Prodigy comparison isolate exactly the contribution.

use gp_core::{
    Engine, GraphPrompterModel, InferenceConfig, ModelConfig, PretrainConfig, StageConfig,
    TrainingCurve,
};
use gp_datasets::Dataset;

use crate::{EvalProtocol, IclBaseline};

/// A Prodigy model pre-trained on a source dataset.
pub struct Prodigy {
    engine: Engine,
    curve: TrainingCurve,
}

impl Prodigy {
    /// Pre-train on `source` with the plain Prodigy objective.
    #[expect(
        clippy::expect_used,
        reason = "baseline configs come from the experiment suite, which only builds valid ones; an invalid one is a programming error"
    )]
    pub fn pretrain(source: &Dataset, model_cfg: ModelConfig, pre_cfg: &PretrainConfig) -> Self {
        let mut engine = Engine::builder()
            .model_config(model_cfg)
            .pretrain_config(pre_cfg.clone())
            .inference_config(InferenceConfig {
                stages: StageConfig::prodigy(),
                ..InferenceConfig::default()
            })
            .try_build()
            .expect("Prodigy baseline configs must be valid");
        let curve = engine.pretrain(source);
        Self { engine, curve }
    }

    /// The recorded pre-training curve (Fig. 9 comparison).
    pub fn training_curve(&self) -> &TrainingCurve {
        &self.curve
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &GraphPrompterModel {
        self.engine.model()
    }

    /// The inference configuration Prodigy uses under `protocol`.
    pub fn inference_config(protocol: &EvalProtocol) -> InferenceConfig {
        InferenceConfig {
            shots: protocol.shots,
            candidates_per_class: protocol.candidates_per_class,
            stages: StageConfig::prodigy(),
            sampler: protocol.sampler,
            seed: protocol.seed,
            ..InferenceConfig::default()
        }
    }
}

impl IclBaseline for Prodigy {
    fn name(&self) -> &str {
        "Prodigy"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        episodes: usize,
        protocol: &EvalProtocol,
    ) -> Vec<f32> {
        let cfg = Self::inference_config(protocol);
        self.engine
            .evaluate_with(dataset, ways, protocol.queries, episodes, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;
    use gp_graph::SamplerConfig;

    #[test]
    fn prodigy_pretrains_and_evaluates() {
        let source = CitationConfig::new("src", 300, 6, 41).generate();
        let target = CitationConfig::new("tgt", 250, 5, 42).generate();
        let pre = PretrainConfig {
            steps: 50,
            ways: 4,
            shots: 2,
            queries: 4,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 10,
                neighbors_per_node: 5,
            },
            ..PretrainConfig::default()
        };
        let prodigy = Prodigy::pretrain(
            &source,
            ModelConfig {
                embed_dim: 16,
                hidden_dim: 24,
                ..ModelConfig::default()
            },
            &pre,
        );
        assert!(!prodigy.training_curve().loss.is_empty());
        let accs = prodigy.evaluate(
            &target,
            3,
            3,
            &EvalProtocol {
                queries: 12,
                ..EvalProtocol::default()
            },
        );
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }
}
