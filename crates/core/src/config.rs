//! Configuration surfaces for the GraphPrompter pipeline.
//!
//! Every config is a plain struct of `pub` fields whose `Default` is the
//! paper's protocol; set fields with a struct-update literal such as
//! `InferenceConfig { shots: 2, ..InferenceConfig::default() }`. Each
//! config's `validate` checks cross-field invariants up front, and
//! [`crate::EngineBuilder::try_build`] runs it on every config it is
//! handed, so misconfiguration surfaces as a typed [`ConfigError`] instead
//! of a panic (or silent nonsense) deep inside an episode.

use gp_graph::SamplerConfig;

use crate::cache::CachePolicy;
use crate::selector::DistanceMetric;

/// Typed validation error returned by each config's `validate` (and so by
/// [`crate::EngineBuilder::try_build`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A structural size that must be ≥ 1 was 0.
    ZeroField {
        /// Field name, e.g. `"embed_dim"`.
        field: &'static str,
    },
    /// `shots` must not exceed `candidates_per_class` — the selector picks
    /// `k` prompts per class out of `N` candidates.
    ShotsExceedCandidates {
        /// Requested shots `k`.
        shots: usize,
        /// Available candidates per class `N`.
        candidates: usize,
    },
    /// A sampler bound is below the minimum the random-walk sampler needs.
    SamplerTooSmall {
        /// Field name inside [`SamplerConfig`].
        field: &'static str,
        /// Offending value.
        value: usize,
        /// Minimum accepted value.
        min: usize,
    },
    /// A persistent embedding disk tier was configured while the
    /// in-memory embedding cache is disabled. The disk tier is the
    /// cache's L1 — entries reach it only by demotion from the RAM tier —
    /// so the combination cannot do anything.
    DiskTierWithoutCache,
    /// A float field fell outside its valid range (or was non-finite).
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f32,
        /// Inclusive lower bound.
        lo: f32,
        /// Inclusive upper bound.
        hi: f32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroField { field } => {
                write!(f, "config field `{field}` must be at least 1")
            }
            ConfigError::ShotsExceedCandidates { shots, candidates } => write!(
                f,
                "shots ({shots}) cannot exceed candidates_per_class ({candidates})"
            ),
            ConfigError::SamplerTooSmall { field, value, min } => {
                write!(f, "sampler.{field} is {value}, but must be at least {min}")
            }
            ConfigError::DiskTierWithoutCache => write!(
                f,
                "embed_store_dir requires the in-memory embedding cache \
                 (remove no_embedding_cache or drop the disk tier)"
            ),
            ConfigError::OutOfRange {
                field,
                value,
                lo,
                hi,
            } => write!(
                f,
                "config field `{field}` is {value}, outside the valid range [{lo}, {hi}]"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

fn validate_sampler(s: &SamplerConfig) -> Result<(), ConfigError> {
    if s.hops < 1 {
        return Err(ConfigError::SamplerTooSmall {
            field: "hops",
            value: s.hops,
            min: 1,
        });
    }
    if s.max_nodes < 2 {
        return Err(ConfigError::SamplerTooSmall {
            field: "max_nodes",
            value: s.max_nodes,
            min: 2,
        });
    }
    if s.neighbors_per_node < 1 {
        return Err(ConfigError::SamplerTooSmall {
            field: "neighbors_per_node",
            value: s.neighbors_per_node,
            min: 1,
        });
    }
    Ok(())
}

fn require_nonzero(value: usize, field: &'static str) -> Result<(), ConfigError> {
    if value == 0 {
        Err(ConfigError::ZeroField { field })
    } else {
        Ok(())
    }
}

fn require_in_range(value: f32, lo: f32, hi: f32, field: &'static str) -> Result<(), ConfigError> {
    if !value.is_finite() || !(lo..=hi).contains(&value) {
        Err(ConfigError::OutOfRange {
            field,
            value,
            lo,
            hi,
        })
    } else {
        Ok(())
    }
}

/// Which GNN architecture generates data-graph embeddings (`GNN_D`,
/// Eq. 4). The paper's default is GraphSAGE; GAT is the Fig. 4 ablation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GeneratorKind {
    /// GraphSAGE mean-concat aggregation (default, §V-A4).
    Sage,
    /// Graph attention network.
    Gat,
    /// Graph convolutional network (extra ablation beyond the paper).
    Gcn,
}

/// Model architecture hyperparameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Node feature width (matches the dataset generators).
    pub feat_dim: usize,
    /// Relation feature width.
    pub rel_dim: usize,
    /// Data-graph embedding width (the paper uses 256; we scale down).
    pub embed_dim: usize,
    /// Hidden width for MLPs and GNN layers.
    pub hidden_dim: usize,
    /// `GNN_D` architecture.
    pub generator: GeneratorKind,
    /// Renormalize reconstruction edge weights per target node (see
    /// `gp_nn::gnn`): true makes the reweighting purely re-distributional.
    pub recon_normalize: bool,
    /// Wire the task graph's prototype residual path (label embeddings
    /// anchored at class-mean prompt embeddings plus a learned gate).
    /// Off by default: prototype averaging dilutes the value of *which*
    /// prompts were selected, washing out the Prompt Selector's advantage
    /// (measured in DESIGN.md's calibration notes).
    pub proto_residual: bool,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            feat_dim: gp_datasets::NODE_FEAT_DIM,
            rel_dim: gp_datasets::REL_FEAT_DIM,
            embed_dim: 32,
            hidden_dim: 64,
            generator: GeneratorKind::Sage,
            recon_normalize: true,
            proto_residual: false,
            seed: 0,
        }
    }
}

impl ModelConfig {
    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero(self.feat_dim, "feat_dim")?;
        require_nonzero(self.rel_dim, "rel_dim")?;
        require_nonzero(self.embed_dim, "embed_dim")?;
        require_nonzero(self.hidden_dim, "hidden_dim")?;
        Ok(())
    }
}

/// Per-stage toggles, the axes of the Fig. 3 ablation.
///
/// With everything disabled the pipeline degrades to Prodigy: random
/// prompt selection over unweighted subgraph embeddings, no cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StageConfig {
    /// Prompt Generator's reconstruction layer (edge reweighting, Eq. 2–3).
    pub use_reconstruction: bool,
    /// Prompt Selector's pre-trained selection layer (`I_p`, Eq. 5).
    pub use_selection_layer: bool,
    /// Prompt Selector's kNN retrieval (`sim(p,q)`, Eq. 6).
    pub use_knn: bool,
    /// Prompt Augmenter's pseudo-label cache (Eq. 9).
    pub use_augmenter: bool,
}

impl StageConfig {
    /// Full GraphPrompter.
    pub fn full() -> Self {
        Self {
            use_reconstruction: true,
            use_selection_layer: true,
            use_knn: true,
            use_augmenter: true,
        }
    }

    /// The Prodigy baseline: all stages off.
    pub fn prodigy() -> Self {
        Self {
            use_reconstruction: false,
            use_selection_layer: false,
            use_knn: false,
            use_augmenter: false,
        }
    }

    /// `w/o generator` ablation.
    pub fn without_reconstruction() -> Self {
        Self {
            use_reconstruction: false,
            ..Self::full()
        }
    }

    /// `w/o selection layer` ablation.
    pub fn without_selection_layer() -> Self {
        Self {
            use_selection_layer: false,
            ..Self::full()
        }
    }

    /// `w/o kNN` ablation.
    pub fn without_knn() -> Self {
        Self {
            use_knn: false,
            ..Self::full()
        }
    }

    /// `w/o augmenter` ablation.
    pub fn without_augmenter() -> Self {
        Self {
            use_augmenter: false,
            ..Self::full()
        }
    }
}

impl Default for StageConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// How the Prompt Augmenter scores pseudo-labels for cache admission.
///
/// The policy travels inside [`InferenceConfig`], so there is exactly
/// one way to configure an episode (Table VII's random-pseudo-label
/// ablation sets [`PseudoLabelPolicy::UniformRandom`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum PseudoLabelPolicy {
    /// Admit a query's pseudo-label when its softmax confidence clears
    /// `min` (Eq. 9; the paper uses 0.9).
    Confidence {
        /// Minimum softmax confidence in `[0, 1]`.
        min: f32,
    },
    /// Table VII control: confidences are drawn uniformly at random, so
    /// admissions are arbitrary. Quantifies how much the confidence gate
    /// actually matters.
    UniformRandom,
}

impl Default for PseudoLabelPolicy {
    fn default() -> Self {
        PseudoLabelPolicy::Confidence { min: 0.9 }
    }
}

/// Inference-time settings (the paper's §V-A2 protocol).
#[derive(Clone, Debug)]
pub struct InferenceConfig {
    /// `k` — prompts used per class (3-shot in the main tables).
    pub shots: usize,
    /// `N` — candidate prompts per class (10 in the paper).
    pub candidates_per_class: usize,
    /// `c` — Prompt Augmenter cache size (3 after the Fig. 5 sweep).
    pub cache_size: usize,
    /// Pseudo-label admission policy for the Prompt Augmenter cache.
    pub pseudo_labels: PseudoLabelPolicy,
    /// Cache replacement policy (LFU per the paper; LRU/FIFO provided as
    /// the §VI extension).
    pub cache_policy: CachePolicy,
    /// kNN retrieval metric (Eq. 6; cosine per the paper, Euclidean and
    /// Manhattan provided as the noted substitutions).
    pub knn_metric: DistanceMetric,
    /// Queries scored together per step (the voting pool of Eq. 8).
    pub query_batch: usize,
    /// Stage toggles.
    pub stages: StageConfig,
    /// Data-graph sampling (hops `l`, node cap, fan-out).
    pub sampler: SamplerConfig,
    /// Episode/pipeline seed (selector tie-breaks, query subgraphs, random
    /// confidences).
    pub seed: u64,
    /// Seed for *candidate* subgraph sampling. Each candidate's subgraph
    /// RNG is derived from `(candidate_seed, datapoint)` only — not from
    /// `seed` — so a datapoint embeds identically in every episode that
    /// shares this value, which is what makes cross-episode embedding
    /// reuse (the `EmbeddingStore`) sound.
    pub candidate_seed: u64,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        Self {
            shots: 3,
            candidates_per_class: 10,
            cache_size: 3,
            pseudo_labels: PseudoLabelPolicy::default(),
            cache_policy: CachePolicy::Lfu,
            knn_metric: DistanceMetric::Cosine,
            query_batch: 10,
            stages: StageConfig::full(),
            sampler: SamplerConfig::default(),
            seed: 0,
            candidate_seed: 0,
        }
    }
}

impl InferenceConfig {
    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero(self.shots, "shots")?;
        require_nonzero(self.candidates_per_class, "candidates_per_class")?;
        if self.shots > self.candidates_per_class {
            return Err(ConfigError::ShotsExceedCandidates {
                shots: self.shots,
                candidates: self.candidates_per_class,
            });
        }
        require_nonzero(self.cache_size, "cache_size")?;
        require_nonzero(self.query_batch, "query_batch")?;
        if let PseudoLabelPolicy::Confidence { min } = self.pseudo_labels {
            require_in_range(min, 0.0, 1.0, "pseudo_labels.min")?;
        }
        validate_sampler(&self.sampler)
    }
}

/// Pre-training settings (Alg. 1; §V-A4 model configurations).
#[derive(Clone, Debug)]
pub struct PretrainConfig {
    /// Number of optimization steps.
    pub steps: usize,
    /// Ways per Multi-Task episode (the paper uses 30 on an A100; scaled).
    pub ways: usize,
    /// Shots per class per episode.
    pub shots: usize,
    /// Queries per episode.
    pub queries: usize,
    /// Ways per Neighbor-Matching episode.
    pub nm_ways: usize,
    /// Example nodes per neighborhood in Neighbor Matching.
    pub nm_shots: usize,
    /// Queries per Neighbor-Matching episode.
    pub nm_queries: usize,
    /// AdamW learning rate (paper: 1e-3).
    pub lr: f32,
    /// AdamW weight decay (paper: 1e-3).
    pub weight_decay: f32,
    /// Record the loss/accuracy curve every this many steps.
    pub log_every: usize,
    /// Data-graph sampling config.
    pub sampler: SamplerConfig,
    /// Episode-sampling seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            steps: 400,
            ways: 6,
            shots: 3,
            queries: 4,
            nm_ways: 4,
            nm_shots: 3,
            nm_queries: 4,
            lr: 1e-3,
            weight_decay: 1e-3,
            log_every: 20,
            sampler: SamplerConfig::default(),
            seed: 0,
        }
    }
}

impl PretrainConfig {
    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero(self.steps, "steps")?;
        require_nonzero(self.ways, "ways")?;
        require_nonzero(self.shots, "shots")?;
        require_nonzero(self.queries, "queries")?;
        require_nonzero(self.nm_ways, "nm_ways")?;
        require_nonzero(self.nm_shots, "nm_shots")?;
        require_nonzero(self.nm_queries, "nm_queries")?;
        require_nonzero(self.log_every, "log_every")?;
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "lr",
                value: self.lr,
                lo: f32::MIN_POSITIVE,
                hi: f32::MAX,
            });
        }
        require_in_range(self.weight_decay, 0.0, f32::MAX, "weight_decay")?;
        validate_sampler(&self.sampler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prodigy_config_disables_everything() {
        let s = StageConfig::prodigy();
        assert!(!s.use_reconstruction && !s.use_selection_layer && !s.use_knn && !s.use_augmenter);
    }

    #[test]
    fn ablations_disable_exactly_one_stage() {
        let full = StageConfig::full();
        assert_ne!(full, StageConfig::without_knn());
        assert!(!StageConfig::without_knn().use_knn);
        assert!(StageConfig::without_knn().use_selection_layer);
        assert!(!StageConfig::without_augmenter().use_augmenter);
        assert!(StageConfig::without_augmenter().use_knn);
    }

    #[test]
    fn default_configs_validate() {
        assert_eq!(ModelConfig::default().validate(), Ok(()));
        assert_eq!(InferenceConfig::default().validate(), Ok(()));
        assert_eq!(PretrainConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builders_reject_invalid_configs() {
        assert_eq!(
            ModelConfig {
                embed_dim: 0,
                ..ModelConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroField { field: "embed_dim" })
        );
        assert_eq!(
            InferenceConfig {
                shots: 5,
                candidates_per_class: 3,
                ..InferenceConfig::default()
            }
            .validate(),
            Err(ConfigError::ShotsExceedCandidates {
                shots: 5,
                candidates: 3
            })
        );
        assert_eq!(
            InferenceConfig {
                cache_size: 0,
                ..InferenceConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroField {
                field: "cache_size"
            })
        );
        assert!(matches!(
            InferenceConfig {
                pseudo_labels: PseudoLabelPolicy::Confidence { min: 1.5 },
                ..InferenceConfig::default()
            }
            .validate(),
            Err(ConfigError::OutOfRange { .. })
        ));
        assert_eq!(
            InferenceConfig {
                sampler: SamplerConfig {
                    max_nodes: 1,
                    ..SamplerConfig::default()
                },
                ..InferenceConfig::default()
            }
            .validate(),
            Err(ConfigError::SamplerTooSmall {
                field: "max_nodes",
                value: 1,
                min: 2
            })
        );
        assert!(matches!(
            PretrainConfig {
                lr: 0.0,
                ..PretrainConfig::default()
            }
            .validate(),
            Err(ConfigError::OutOfRange { field: "lr", .. })
        ));
        assert!(matches!(
            PretrainConfig {
                steps: 0,
                ..PretrainConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroField { field: "steps" })
        ));
    }

    #[test]
    fn config_error_messages_are_friendly() {
        let e = ConfigError::ShotsExceedCandidates {
            shots: 5,
            candidates: 3,
        };
        assert!(e.to_string().contains("shots (5)"));
        let e = ConfigError::SamplerTooSmall {
            field: "max_nodes",
            value: 1,
            min: 2,
        };
        assert!(e.to_string().contains("sampler.max_nodes"));
    }
}
