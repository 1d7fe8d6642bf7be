//! The prompt-graph methods: GraphPrompter and the three baselines that
//! share its pipeline.
//!
//! GraphPrompter, Prodigy (Huang et al. 2023, the paper's reference
//! \[3\]), the One-For-All analog (Liu et al., ICLR 2024, reference \[5\])
//! and NoPretrain run one gp-core [`Engine`]. They differ only in the
//! stage toggles they pre-train and evaluate with, and in their
//! pre-training budget:
//!
//! | method | pre-training | evaluation stages |
//! |---|---|---|
//! | GraphPrompter | full steps, [`StageConfig::full`] | full on edge tasks, [`StageConfig::without_augmenter`] on node tasks (§V-B) |
//! | Prodigy | full steps, [`StageConfig::prodigy`] | [`StageConfig::prodigy`] |
//! | OFA | [`LOW_RESOURCE_FRACTION`] of the steps, [`StageConfig::prodigy`] | [`StageConfig::prodigy`] |
//! | NoPretrain | none (random weights) | [`StageConfig::prodigy`] |
//!
//! Prodigy is the framework GraphPrompter extends: random prompt
//! selection, no reconstruction, no selection layer and no cache. Running
//! it as gp-core with every stage toggle off makes the
//! GraphPrompter-vs-Prodigy comparison isolate exactly the paper's
//! contribution.
//!
//! **OFA substitution note (DESIGN.md).** Real OFA encodes node/edge
//! *text* with an LLM and trains one model jointly on every dataset;
//! neither the text attributes nor the LLM exist in this reproduction.
//! The paper uses OFA's *low-resource joint* variant (`OFA-joint-lr`) and
//! reports that it is (a) structurally similar to Prodigy (a Prompt Graph
//! method), but (b) weaker and far less stable than GraphPrompter under
//! few-shot random category selection (Table VI; the paper cites OFA's
//! own issue tracker on prediction instability). The analog reproduces
//! exactly those properties: Prodigy's pipeline on a **low-resource**
//! pre-training budget, mimicking the joint model's per-dataset share of
//! capacity. It lands between NoPretrain and Prodigy on average, with
//! larger episode-to-episode variance.

use gp_core::{Engine, InferenceConfig, ModelConfig, PretrainConfig, StageConfig, TrainingCurve};
use gp_datasets::{Dataset, Task};

use crate::IclBaseline;

/// Fraction of Prodigy's pre-training steps the OFA analog gets.
pub const LOW_RESOURCE_FRACTION: f32 = 0.2;

/// GraphPrompter's evaluation stages: the Prompt Augmenter is deployed on
/// edge classification only; node tasks run with the cache off (§V-B).
fn graphprompter_stages(task: Task) -> StageConfig {
    match task {
        Task::EdgeClassification => StageConfig::full(),
        Task::NodeClassification => StageConfig::without_augmenter(),
    }
}

/// A prompt-graph method: one [`Engine`] plus the rule that picks its
/// evaluation stages from the dataset's task.
pub struct PromptGraph {
    name: &'static str,
    engine: Engine,
    curve: TrainingCurve,
    stages: fn(Task) -> StageConfig,
}

impl PromptGraph {
    /// The full method, pre-trained on `source` with every stage on.
    pub fn graphprompter(
        source: &Dataset,
        model_cfg: ModelConfig,
        pre_cfg: &PretrainConfig,
    ) -> Self {
        Self::build(
            "GraphPrompter",
            model_cfg,
            pre_cfg.clone(),
            StageConfig::full(),
            graphprompter_stages,
        )
        .pretrained(source)
    }

    /// Prodigy, pre-trained on `source` with every stage off.
    pub fn prodigy(source: &Dataset, model_cfg: ModelConfig, pre_cfg: &PretrainConfig) -> Self {
        Self::build(
            "Prodigy",
            model_cfg,
            pre_cfg.clone(),
            StageConfig::prodigy(),
            |_| StageConfig::prodigy(),
        )
        .pretrained(source)
    }

    /// The OFA-joint-lr analog: Prodigy on [`LOW_RESOURCE_FRACTION`] of
    /// `pre_cfg`'s steps.
    pub fn ofa(source: &Dataset, model_cfg: ModelConfig, pre_cfg: &PretrainConfig) -> Self {
        let low_resource = PretrainConfig {
            steps: ((pre_cfg.steps as f32 * LOW_RESOURCE_FRACTION) as usize).max(1),
            ..pre_cfg.clone()
        };
        Self {
            name: "OFA",
            ..Self::prodigy(source, model_cfg, &low_resource)
        }
    }

    /// "A model with the same architecture as the pre-trained models, but
    /// with randomly initialized weights" (§V-A3), evaluated with
    /// Prodigy's random-selection protocol.
    pub fn no_pretrain(model_cfg: ModelConfig) -> Self {
        Self::build(
            "NoPretrain",
            model_cfg,
            PretrainConfig::default(),
            StageConfig::prodigy(),
            |_| StageConfig::prodigy(),
        )
    }

    /// An untrained method whose pre-training runs `pre_cfg` under
    /// `train_stages`.
    #[expect(
        clippy::expect_used,
        reason = "method configs come from the experiment suite, which only builds valid ones; an invalid one is a programming error"
    )]
    fn build(
        name: &'static str,
        model_cfg: ModelConfig,
        pre_cfg: PretrainConfig,
        train_stages: StageConfig,
        stages: fn(Task) -> StageConfig,
    ) -> Self {
        let engine = Engine::builder()
            .model_config(model_cfg)
            .pretrain_config(pre_cfg)
            .inference_config(InferenceConfig {
                stages: train_stages,
                ..InferenceConfig::default()
            })
            .try_build()
            .expect("prompt-graph method configs must be valid");
        Self {
            name,
            engine,
            curve: TrainingCurve::default(),
            stages,
        }
    }

    fn pretrained(mut self, source: &Dataset) -> Self {
        self.curve = self.engine.pretrain(source);
        self
    }

    /// The engine that owns the weights and the cross-episode embedding
    /// cache (experiments that vary the stages call its
    /// [`Engine::evaluate_with`] directly).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The recorded pre-training curve (Fig. 9); empty for NoPretrain.
    pub fn curve(&self) -> &TrainingCurve {
        &self.curve
    }
}

impl IclBaseline for PromptGraph {
    fn name(&self) -> &str {
        self.name
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        queries: usize,
        episodes: usize,
        cfg: &InferenceConfig,
    ) -> Vec<f32> {
        let cfg = InferenceConfig {
            stages: (self.stages)(dataset.task),
            ..cfg.clone()
        };
        self.engine
            .evaluate_with(dataset, ways, queries, episodes, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;
    use gp_graph::SamplerConfig;

    fn tiny_model() -> ModelConfig {
        ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        }
    }

    fn tiny_pretrain() -> PretrainConfig {
        PretrainConfig {
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
        }
    }

    #[test]
    fn prodigy_pretrains_and_evaluates() {
        let source = CitationConfig::new("src", 300, 6, 41).generate();
        let target = CitationConfig::new("tgt", 250, 5, 42).generate();
        let prodigy = PromptGraph::prodigy(&source, tiny_model(), &tiny_pretrain());
        assert!(!prodigy.curve().loss.is_empty());
        let accs = prodigy.evaluate(&target, 3, 12, 3, &InferenceConfig::default());
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }

    #[test]
    fn ofa_gets_fewer_steps_and_still_runs() {
        let source = CitationConfig::new("src", 250, 5, 71).generate();
        let target = CitationConfig::new("tgt", 200, 4, 72).generate();
        let ofa = PromptGraph::ofa(&source, tiny_model(), &tiny_pretrain());
        assert_eq!(ofa.engine().pretrain_config().steps, 10);
        let accs = ofa.evaluate(&target, 3, 9, 2, &InferenceConfig::default());
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }

    #[test]
    fn runs_near_chance() {
        let ds = CitationConfig::new("t", 300, 5, 9).generate();
        let b = PromptGraph::no_pretrain(tiny_model());
        assert!(b.curve().loss.is_empty());
        let accs = b.evaluate(&ds, 5, 20, 4, &InferenceConfig::default());
        assert_eq!(accs.len(), 4);
        let mean = accs.iter().sum::<f32>() / 4.0;
        // Untrained models can be above chance (features carry signal even
        // through a random GNN) but must stay far from ceiling.
        assert!(mean < 80.0, "untrained model suspiciously good: {mean}%");
    }

    #[test]
    fn stage_rules_follow_the_method_and_task() {
        use Task::{EdgeClassification as Edge, NodeClassification as Node};
        assert_eq!(graphprompter_stages(Edge), StageConfig::full());
        assert_eq!(graphprompter_stages(Node), StageConfig::without_augmenter());
        let floor = PromptGraph::no_pretrain(tiny_model());
        for task in [Edge, Node] {
            assert_eq!((floor.stages)(task), StageConfig::prodigy());
        }
    }
}
