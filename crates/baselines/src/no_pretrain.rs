//! The NoPretrain baseline: identical architecture, random weights.

use gp_core::{Engine, GraphPrompterModel, InferenceConfig, ModelConfig, StageConfig};
use gp_datasets::Dataset;

use crate::{EvalProtocol, IclBaseline};

/// "This baseline employs a model with the same architecture as the
/// pre-trained models, but with randomly initialized weights" (§V-A3).
/// Evaluated with Prodigy's random-selection protocol.
pub struct NoPretrain {
    engine: Engine,
}

impl NoPretrain {
    /// Build with fresh random weights.
    #[expect(
        clippy::expect_used,
        reason = "only the model config is set and every ModelConfig the suite builds is valid; an invalid one is a programming error"
    )]
    pub fn new(cfg: ModelConfig) -> Self {
        Self {
            engine: Engine::builder()
                .model_config(cfg)
                .try_build()
                .expect("NoPretrain model config must be valid"),
        }
    }

    /// Access the wrapped (untrained) model.
    pub fn model(&self) -> &GraphPrompterModel {
        self.engine.model()
    }
}

impl IclBaseline for NoPretrain {
    fn name(&self) -> &str {
        "NoPretrain"
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        episodes: usize,
        protocol: &EvalProtocol,
    ) -> Vec<f32> {
        let cfg = InferenceConfig {
            shots: protocol.shots,
            candidates_per_class: protocol.candidates_per_class,
            stages: StageConfig::prodigy(),
            sampler: protocol.sampler,
            seed: protocol.seed,
            ..InferenceConfig::default()
        };
        self.engine
            .evaluate_with(dataset, ways, protocol.queries, episodes, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;

    #[test]
    fn runs_near_chance() {
        let ds = CitationConfig::new("t", 300, 5, 9).generate();
        let b = NoPretrain::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let accs = b.evaluate(
            &ds,
            5,
            4,
            &EvalProtocol {
                queries: 20,
                ..EvalProtocol::default()
            },
        );
        assert_eq!(accs.len(), 4);
        let mean = accs.iter().sum::<f32>() / 4.0;
        // Untrained models can be above chance (features carry signal even
        // through a random GNN) but must stay far from ceiling.
        assert!(mean < 80.0, "untrained model suspiciously good: {mean}%");
    }
}
