//! # graphprompter
//!
//! Facade crate for the GraphPrompter reproduction (Lv et al., *“GraphPrompter:
//! Multi-stage Adaptive Prompt Optimization for Graph In-Context Learning”*,
//! ICDE 2025). Re-exports the workspace crates under stable paths:
//!
//! * [`tensor`] — dense tensors + tape autodiff ([`gp_tensor`])
//! * [`graph`] — multi-relational graphs and sampling ([`gp_graph`])
//! * [`nn`] — layers, optimizers, GNNs ([`gp_nn`])
//! * [`datasets`] — synthetic benchmark generators ([`gp_datasets`])
//! * [`core`] — the GraphPrompter method ([`gp_core`])
//! * [`baselines`] — comparison methods ([`gp_baselines`])
//! * [`eval`] — metrics, t-SNE, tables ([`gp_eval`])
//! * [`obs`] — zero-dependency metrics registry ([`gp_obs`])
//! * [`serve`] — overload-safe HTTP inference server ([`gp_serve`])
//!
//! The public entry point is [`Engine`] (built through the fallible
//! [`EngineBuilder`]); `use graphprompter::prelude::*;` pulls in
//! everything the pretrain → evaluate lifecycle needs.
//!
//! See `examples/quickstart.rs` for the end-to-end flow and DESIGN.md for
//! the system inventory.

pub use gp_baselines as baselines;
pub use gp_core as core;
pub use gp_datasets as datasets;
pub use gp_eval as eval;
pub use gp_graph as graph;
pub use gp_nn as nn;
pub use gp_obs as obs;
pub use gp_serve as serve;
pub use gp_tensor as tensor;

pub use gp_core::{ConfigError, Engine, EngineBuilder};

/// Everything the typical pretrain → evaluate flow needs in one import.
pub mod prelude {
    pub use gp_core::{
        ConfigError, EmbedCacheStats, Engine, EngineBuilder, EpisodeResult, InferenceConfig,
        ModelConfig, PretrainConfig, PseudoLabelPolicy, StageConfig, TrainingCurve,
    };
    pub use gp_datasets::{presets, sample_few_shot_task, Dataset, FewShotTask};
    pub use gp_graph::SamplerConfig;
    pub use gp_obs::MetricsSnapshot;
    pub use gp_tensor::{Backend, BackendGuard, Parallelism, WorkerPool};
}

/// Workspace version, from the facade crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
#[path = "../tests/support/clippy_fixture.rs"]
mod clippy_fixture;
#[cfg(test)]
#[path = "../tests/support/lock_order.rs"]
mod lock_order;
#[cfg(test)]
mod rules;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _ = crate::tensor::Tensor::zeros(1, 1);
        let _ = crate::core::StageConfig::full();
        assert!(!crate::VERSION.is_empty());
    }

    #[test]
    fn prelude_builds_an_engine() {
        use crate::prelude::*;
        let engine = Engine::builder()
            .inference_config(InferenceConfig::default())
            .try_build()
            .expect("defaults are valid");
        assert!(engine.embed_cache_stats().is_some());
    }
}
