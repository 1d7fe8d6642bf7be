//! # gp-core — GraphPrompter
//!
//! The paper's contribution: **multi-stage adaptive prompt optimization
//! for graph in-context learning** (Lv et al., ICDE 2025), built on a
//! Prodigy-style pre-train-once / adapt-with-prompts pipeline.
//!
//! The three stages:
//!
//! 1. **Prompt Generator** ([`model`], [`batch`]) — random-walk data-graph
//!    sampling (Eq. 1) plus a reconstruction layer that learns per-edge
//!    weights `w_uv = σ(MLP_φ(...))` (Eqs. 2–3) before `GNN_D`
//!    aggregation (Eq. 4).
//! 2. **Prompt Selector** ([`selector`]) — pre-trained selection-layer
//!    importance `I_p = σ(MLP_θ(G_p))` (Eq. 5), kNN retrieval
//!    `sim(p, q)` (Eq. 6), combined score (Eq. 7), and query voting
//!    (Eq. 8).
//! 3. **Prompt Augmenter** ([`augmenter`], [`cache`]) — a test-time LFU
//!    cache of high-confidence pseudo-labelled queries, `Ŝ' = Ŝ ∪ C`
//!    (Eq. 9).
//!
//! Training (Alg. 1) lives in [`mod@pretrain`]; inference (Alg. 2) in
//! [`infer`]. Every stage has an ablation toggle in
//! [`config::StageConfig`]; with all stages off the pipeline *is* the
//! Prodigy baseline.
//!
//! The public entry point is the [`Engine`], built through the fallible
//! [`EngineBuilder`]: it validates every config, owns the model, holds
//! one [`gp_tensor::Parallelism`] thread budget that [`Engine::evaluate`]
//! maps its episodes over ([`gp_tensor::WorkerPool::map`]), and memoizes
//! candidate embeddings across episodes in an [`EmbeddingStore`]
//! (invalidated automatically whenever the weights change).
//!
//! ```
//! use gp_core::{Engine, InferenceConfig, ModelConfig, PretrainConfig};
//!
//! let source = gp_datasets::CitationConfig::new("pretrain", 300, 6, 1).generate();
//! let target = gp_datasets::CitationConfig::new("downstream", 200, 5, 2).generate();
//!
//! let mut engine = Engine::builder()
//!     .model_config(ModelConfig::default())
//!     .pretrain_config(PretrainConfig {
//!         steps: 30,
//!         ..PretrainConfig::default()
//!     })
//!     .inference_config(InferenceConfig::default())
//!     .try_build()
//!     .unwrap();
//! engine.pretrain(&source);
//!
//! // In-context adaptation: no gradient updates on the target graph.
//! let accs = engine.evaluate(&target, 3, 10, 2);
//! assert_eq!(accs.len(), 2);
//! ```

pub mod augmenter;
pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod deadline;
pub mod embed_disk;
pub mod embed_store;
pub mod engine;
pub mod error;
pub mod infer;
pub mod model;
pub mod pretrain;
pub mod selector;

pub use augmenter::{CacheEntry, PromptAugmenter};
pub use batch::SubgraphBatch;
pub use cache::{Cache, CachePolicy};
pub use checkpoint::{inspect_checkpoint, CheckpointError, CheckpointSummary};
pub use config::{
    ConfigError, GeneratorKind, InferenceConfig, ModelConfig, PretrainConfig, PseudoLabelPolicy,
    StageConfig,
};
pub use deadline::Deadline;
pub use embed_store::{EmbedCacheStats, EmbeddingStore};
pub use engine::{Engine, EngineBuilder, EpisodeRequest, DEFAULT_EMBED_CACHE_CAPACITY};
pub use error::{DeadlineExceeded, DivergenceError};
pub use infer::EpisodeResult;
pub use model::{sample_datapoint_subgraph, sample_datapoint_subgraphs, GraphPrompterModel};
pub use pretrain::{pretrain, try_pretrain, try_pretrain_validated, PretrainReport, TrainingCurve};
pub use selector::{select_prompts, DistanceMetric, SelectionOutcome};
