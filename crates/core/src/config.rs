//! Configuration surfaces for the GraphPrompter pipeline.
//!
//! Every config implements `Default` for the paper's protocol and offers a
//! fallible builder (`ModelConfig::builder()` → `.try_build()`) that
//! validates cross-field invariants up front, so misconfiguration surfaces
//! as a typed [`ConfigError`] instead of a panic (or silent nonsense) deep
//! inside an episode.

use gp_graph::SamplerConfig;

use crate::cache::CachePolicy;
use crate::guard::GuardRailConfig;
use crate::selector::DistanceMetric;

/// Typed validation error produced by the config builders' `try_build`
/// (and the underlying `validate` methods).
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
    /// Start a fallible builder seeded with the defaults.
    pub fn builder() -> ModelConfigBuilder {
        ModelConfigBuilder(Self::default())
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero(self.feat_dim, "feat_dim")?;
        require_nonzero(self.rel_dim, "rel_dim")?;
        require_nonzero(self.embed_dim, "embed_dim")?;
        require_nonzero(self.hidden_dim, "hidden_dim")?;
        Ok(())
    }
}

/// Fallible builder for [`ModelConfig`]; see [`ModelConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct ModelConfigBuilder(ModelConfig);

impl ModelConfigBuilder {
    /// Node feature width.
    pub fn feat_dim(mut self, v: usize) -> Self {
        self.0.feat_dim = v;
        self
    }

    /// Relation feature width.
    pub fn rel_dim(mut self, v: usize) -> Self {
        self.0.rel_dim = v;
        self
    }

    /// Data-graph embedding width.
    pub fn embed_dim(mut self, v: usize) -> Self {
        self.0.embed_dim = v;
        self
    }

    /// Hidden width for MLPs and GNN layers.
    pub fn hidden_dim(mut self, v: usize) -> Self {
        self.0.hidden_dim = v;
        self
    }

    /// `GNN_D` architecture.
    pub fn generator(mut self, v: GeneratorKind) -> Self {
        self.0.generator = v;
        self
    }

    /// Renormalize reconstruction edge weights per target node.
    pub fn recon_normalize(mut self, v: bool) -> Self {
        self.0.recon_normalize = v;
        self
    }

    /// Wire the task graph's prototype residual path.
    pub fn proto_residual(mut self, v: bool) -> Self {
        self.0.proto_residual = v;
        self
    }

    /// Weight-init seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.0.seed = v;
        self
    }

    /// Validate and produce the config.
    pub fn try_build(self) -> Result<ModelConfig, ConfigError> {
        self.0.validate()?;
        Ok(self.0)
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
    /// Scale applied to cached embeddings when they join the prompt set.
    /// Values < 1 soften the query-domain pull a cached prompt exerts on
    /// its class's label embedding (see DESIGN.md on augmenter bias).
    pub cache_prompt_scale: f32,
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
            cache_prompt_scale: 1.0,
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
    /// Start a fallible builder seeded with the defaults.
    pub fn builder() -> InferenceConfigBuilder {
        InferenceConfigBuilder(Self::default())
    }

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
        require_in_range(self.cache_prompt_scale, 0.0, f32::MAX, "cache_prompt_scale")?;
        validate_sampler(&self.sampler)
    }
}

/// Fallible builder for [`InferenceConfig`]; see [`InferenceConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct InferenceConfigBuilder(InferenceConfig);

impl InferenceConfigBuilder {
    /// `k` — prompts used per class.
    pub fn shots(mut self, v: usize) -> Self {
        self.0.shots = v;
        self
    }

    /// `N` — candidate prompts per class.
    pub fn candidates_per_class(mut self, v: usize) -> Self {
        self.0.candidates_per_class = v;
        self
    }

    /// `c` — Prompt Augmenter cache size.
    pub fn cache_size(mut self, v: usize) -> Self {
        self.0.cache_size = v;
        self
    }

    /// Pseudo-label admission policy.
    pub fn pseudo_labels(mut self, v: PseudoLabelPolicy) -> Self {
        self.0.pseudo_labels = v;
        self
    }

    /// Cache replacement policy.
    pub fn cache_policy(mut self, v: CachePolicy) -> Self {
        self.0.cache_policy = v;
        self
    }

    /// Scale applied to cached embeddings joining the prompt set.
    pub fn cache_prompt_scale(mut self, v: f32) -> Self {
        self.0.cache_prompt_scale = v;
        self
    }

    /// kNN retrieval metric.
    pub fn knn_metric(mut self, v: DistanceMetric) -> Self {
        self.0.knn_metric = v;
        self
    }

    /// Queries scored together per step.
    pub fn query_batch(mut self, v: usize) -> Self {
        self.0.query_batch = v;
        self
    }

    /// Stage toggles.
    pub fn stages(mut self, v: StageConfig) -> Self {
        self.0.stages = v;
        self
    }

    /// Data-graph sampling config.
    pub fn sampler(mut self, v: SamplerConfig) -> Self {
        self.0.sampler = v;
        self
    }

    /// Episode/pipeline seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.0.seed = v;
        self
    }

    /// Candidate subgraph sampling seed (see
    /// [`InferenceConfig::candidate_seed`]).
    pub fn candidate_seed(mut self, v: u64) -> Self {
        self.0.candidate_seed = v;
        self
    }

    /// Validate and produce the config.
    pub fn try_build(self) -> Result<InferenceConfig, ConfigError> {
        self.0.validate()?;
        Ok(self.0)
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
    /// Non-finite/divergence guard rails for the training loop (`None`
    /// trains unguarded, the historical behavior).
    pub guard: Option<GuardRailConfig>,
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
            guard: None,
        }
    }
}

impl PretrainConfig {
    /// Start a fallible builder seeded with the defaults.
    pub fn builder() -> PretrainConfigBuilder {
        PretrainConfigBuilder(Self::default())
    }

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
        if let Some(g) = &self.guard {
            // The trailing median is undefined over an empty window, and a
            // zero window would make every comparison vacuous.
            require_nonzero(g.window, "guard.window")?;
            // Non-positive disables spike detection (documented contract);
            // a positive factor must be finite and above 1.0, or every
            // healthy fluctuation would count as a spike.
            let sf = g.spike_factor;
            if sf.is_nan() || (sf > 0.0 && !(sf.is_finite() && sf > 1.0)) {
                return Err(ConfigError::OutOfRange {
                    field: "guard.spike_factor",
                    value: sf,
                    lo: 1.0,
                    hi: f32::MAX,
                });
            }
            if let Some(c) = g.clip_norm {
                if !c.is_finite() || c <= 0.0 {
                    return Err(ConfigError::OutOfRange {
                        field: "guard.clip_norm",
                        value: c,
                        lo: f32::MIN_POSITIVE,
                        hi: f32::MAX,
                    });
                }
            }
        }
        validate_sampler(&self.sampler)
    }
}

/// Fallible builder for [`PretrainConfig`]; see [`PretrainConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct PretrainConfigBuilder(PretrainConfig);

impl PretrainConfigBuilder {
    /// Number of optimization steps.
    pub fn steps(mut self, v: usize) -> Self {
        self.0.steps = v;
        self
    }

    /// Ways per Multi-Task episode.
    pub fn ways(mut self, v: usize) -> Self {
        self.0.ways = v;
        self
    }

    /// Shots per class per episode.
    pub fn shots(mut self, v: usize) -> Self {
        self.0.shots = v;
        self
    }

    /// Queries per episode.
    pub fn queries(mut self, v: usize) -> Self {
        self.0.queries = v;
        self
    }

    /// Ways per Neighbor-Matching episode.
    pub fn nm_ways(mut self, v: usize) -> Self {
        self.0.nm_ways = v;
        self
    }

    /// Example nodes per neighborhood in Neighbor Matching.
    pub fn nm_shots(mut self, v: usize) -> Self {
        self.0.nm_shots = v;
        self
    }

    /// Queries per Neighbor-Matching episode.
    pub fn nm_queries(mut self, v: usize) -> Self {
        self.0.nm_queries = v;
        self
    }

    /// AdamW learning rate.
    pub fn lr(mut self, v: f32) -> Self {
        self.0.lr = v;
        self
    }

    /// AdamW weight decay.
    pub fn weight_decay(mut self, v: f32) -> Self {
        self.0.weight_decay = v;
        self
    }

    /// Curve recording interval.
    pub fn log_every(mut self, v: usize) -> Self {
        self.0.log_every = v;
        self
    }

    /// Data-graph sampling config.
    pub fn sampler(mut self, v: SamplerConfig) -> Self {
        self.0.sampler = v;
        self
    }

    /// Episode-sampling seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.0.seed = v;
        self
    }

    /// Divergence guard rails (`None` trains unguarded).
    pub fn guard(mut self, v: Option<GuardRailConfig>) -> Self {
        self.0.guard = v;
        self
    }

    /// Validate and produce the config.
    pub fn try_build(self) -> Result<PretrainConfig, ConfigError> {
        self.0.validate()?;
        Ok(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretrain_validates_guard_rail() {
        use crate::guard::GuardRailConfig;
        let with_guard = |g: GuardRailConfig| PretrainConfig::builder().guard(Some(g)).try_build();

        assert!(with_guard(GuardRailConfig::default()).is_ok());
        assert!(
            with_guard(GuardRailConfig::skip().with_window(1).with_warmup(0)).is_ok(),
            "minimal window is legal"
        );
        assert!(
            with_guard(GuardRailConfig::skip().with_spike_factor(-1.0)).is_ok(),
            "non-positive factor disables spike detection"
        );

        let err =
            with_guard(GuardRailConfig::skip().with_window(0)).expect_err("zero window must fail");
        assert_eq!(
            err,
            ConfigError::ZeroField {
                field: "guard.window"
            }
        );
        assert!(with_guard(GuardRailConfig::skip().with_spike_factor(f32::NAN)).is_err());
        assert!(with_guard(GuardRailConfig::skip().with_spike_factor(1.0)).is_err());
        assert!(with_guard(GuardRailConfig::skip().with_spike_factor(f32::INFINITY)).is_err());
        assert!(with_guard(GuardRailConfig::clip(0.0)).is_err());
        assert!(with_guard(GuardRailConfig::clip(f32::NAN)).is_err());
    }

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
    fn builders_build_what_they_are_told() {
        let m = ModelConfig::builder()
            .embed_dim(16)
            .hidden_dim(24)
            .seed(7)
            .try_build()
            .expect("valid model config");
        assert_eq!((m.embed_dim, m.hidden_dim, m.seed), (16, 24, 7));

        let i = InferenceConfig::builder()
            .shots(2)
            .candidates_per_class(4)
            .pseudo_labels(PseudoLabelPolicy::UniformRandom)
            .candidate_seed(99)
            .try_build()
            .expect("valid inference config");
        assert_eq!(i.shots, 2);
        assert_eq!(i.pseudo_labels, PseudoLabelPolicy::UniformRandom);
        assert_eq!(i.candidate_seed, 99);

        let p = PretrainConfig::builder()
            .steps(10)
            .lr(1e-2)
            .try_build()
            .expect("valid pretrain config");
        assert_eq!((p.steps, p.lr), (10, 1e-2));
    }

    #[test]
    fn builders_reject_invalid_configs() {
        assert_eq!(
            ModelConfig::builder().embed_dim(0).try_build().err(),
            Some(ConfigError::ZeroField { field: "embed_dim" })
        );
        assert_eq!(
            InferenceConfig::builder()
                .shots(5)
                .candidates_per_class(3)
                .try_build()
                .err(),
            Some(ConfigError::ShotsExceedCandidates {
                shots: 5,
                candidates: 3
            })
        );
        assert_eq!(
            InferenceConfig::builder().cache_size(0).try_build().err(),
            Some(ConfigError::ZeroField {
                field: "cache_size"
            })
        );
        assert!(matches!(
            InferenceConfig::builder()
                .pseudo_labels(PseudoLabelPolicy::Confidence { min: 1.5 })
                .try_build(),
            Err(ConfigError::OutOfRange { .. })
        ));
        let bad_sampler = SamplerConfig {
            max_nodes: 1,
            ..SamplerConfig::default()
        };
        assert_eq!(
            InferenceConfig::builder()
                .sampler(bad_sampler)
                .try_build()
                .err(),
            Some(ConfigError::SamplerTooSmall {
                field: "max_nodes",
                value: 1,
                min: 2
            })
        );
        assert!(matches!(
            PretrainConfig::builder().lr(0.0).try_build(),
            Err(ConfigError::OutOfRange { field: "lr", .. })
        ));
        assert!(matches!(
            PretrainConfig::builder().steps(0).try_build(),
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
