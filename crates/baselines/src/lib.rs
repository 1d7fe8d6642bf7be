//! # gp-baselines
//!
//! The methods of the paper's evaluation (§V-A3), all behind
//! [`IclBaseline`] so the experiment harness sweeps them uniformly:
//!
//! * [`PromptGraph`] — the prompt-graph methods, one gp-core `Engine`
//!   each: GraphPrompter itself, Prodigy (the in-context learning
//!   baseline GraphPrompter builds on: every stage toggle off, so the
//!   comparison isolates exactly the paper's contribution), the
//!   One-For-All analog (`OFA-joint-lr`: Prodigy on a low-resource
//!   pre-training budget; see the module docs for the substitution
//!   rationale) and NoPretrain (the architecture with random weights,
//!   the chance-level floor).
//! * [`Contrastive`] — GraphCL-style self-supervised pre-training
//!   (edge-drop / feature-mask augmentations, NT-Xent loss) with a
//!   hard-coded nearest-class-mean classifier.
//! * [`Finetune`] — the contrastive encoder plus a linear head trained on
//!   the episode's k-shot examples (the "common practice" adapter).
//! * [`ProG`] — All-in-One-style learnable prompt tokens, meta-tuned on
//!   the episode's few shots (captures the paper's observed instability of
//!   prompt-token methods in few-shot cross-domain settings).
//!
//! Every method draws episode `i` from [`gp_datasets::episode_task`], so
//! per-episode accuracies of two methods are paired.

pub mod contrastive;
pub mod finetune;
pub mod prog;
pub mod prompt_graph;

pub use contrastive::{Contrastive, ContrastiveConfig};
pub use finetune::Finetune;
pub use prog::ProG;
pub use prompt_graph::PromptGraph;

use gp_core::InferenceConfig;
use gp_datasets::Dataset;

/// A method evaluable under the in-context learning protocol.
pub trait IclBaseline {
    /// Display name for tables.
    fn name(&self) -> &str;

    /// Run `episodes` independent `ways`-way episodes of `queries`
    /// queries on `dataset` and return per-episode accuracies in percent.
    ///
    /// `cfg` is the protocol, with [`gp_core::Engine::evaluate_with`]'s
    /// meaning: prompt-graph methods run it under their own stage rule;
    /// the encoder methods read its `shots` (prompts drawn per class),
    /// `sampler` and `seed`.
    fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        queries: usize,
        episodes: usize,
        cfg: &InferenceConfig,
    ) -> Vec<f32>;
}
