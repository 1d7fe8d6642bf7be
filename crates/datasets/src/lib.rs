//! # gp-datasets
//!
//! Synthetic dataset generators standing in for the paper's six benchmark
//! graphs, plus few-shot episode sampling.
//!
//! The paper evaluates on graphs we cannot ship or fit on a laptop
//! (MAG240M has 244 M nodes). Per the reproduction's substitution rule
//! (DESIGN.md), each dataset is replaced by a generator that preserves the
//! properties the experiments actually exercise:
//!
//! * **Citation graphs** (MAG240M, arXiv) → [`CitationConfig`]: a
//!   stochastic block model whose classes show up both in structure
//!   (intra-class edges dominate) and in features (class-centered Gaussian
//!   clusters), with tunable noise edges for the Prompt Generator to
//!   filter.
//! * **Knowledge graphs** (Wiki, ConceptNet, FB15K-237, NELL) →
//!   [`KgConfig`]: entities carry latent types; the relation of an edge is
//!   a (noisy) function of its endpoint-type pair, so relation
//!   classification is solvable from endpoint context — the same signal
//!   the real KGs provide.
//!
//! Every preset in [`presets`] is seeded independently, so the
//! pre-training graph and the downstream graphs have disjoint class
//! geometry (the cross-domain gap the paper studies).

pub mod citation;
pub mod dataset;
pub mod fewshot;
pub mod io;
pub mod kg;
pub mod presets;

pub use citation::CitationConfig;
pub use dataset::{DataPoint, Dataset, Split, Task};
pub use fewshot::{
    episode_seed, episode_task, sample_few_shot_from_splits, sample_few_shot_task,
    supported_classes, FewShotTask,
};
pub use io::{load_dataset, save_dataset, IoError};
pub use kg::KgConfig;

/// Shared relation-feature width across all datasets (must match so a
/// model pre-trained on one KG can run on another; see
/// [`gp_graph::GraphBuilder::rel_features`]).
pub const REL_FEAT_DIM: usize = 8;

/// Shared node-feature width across all datasets (the paper uses 768-dim
/// inputs; we scale to 32 for laptop-size models).
pub const NODE_FEAT_DIM: usize = 32;
