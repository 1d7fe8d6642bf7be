//! The single public entry point for the GraphPrompter pipeline.
//!
//! [`EngineBuilder`] validates every config up front ([`ConfigError`]),
//! fixes the engine's **thread budget** ([`Parallelism`]) and decides
//! whether the cross-episode [`EmbeddingStore`] is wired in. The built
//! [`Engine`] runs [`Engine::evaluate`]'s episodes on up to that many
//! threads through [`gp_tensor::WorkerPool::map`] (the one fan-out;
//! kernels run whole on their calling thread, and pre-training and
//! single episodes run on the caller alone) — and exposes the whole
//! lifecycle:
//!
//! ```
//! use gp_core::{Engine, InferenceConfig, PretrainConfig};
//!
//! let source = gp_datasets::CitationConfig::new("pretrain", 300, 6, 1).generate();
//! let target = gp_datasets::CitationConfig::new("downstream", 200, 5, 2).generate();
//!
//! let mut engine = Engine::builder()
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
//!
//! Kernel numerics are not a choice: every kernel runs one pinned float
//! sequence (see [`gp_tensor::backend`]), compiled for AVX2 where the
//! host has it, with the same bits. [`EngineBuilder::backend`] accepts
//! a [`gp_tensor::Backend`] name and changes nothing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::path::PathBuf;

use gp_obs::sync::{Mutex, Rank};

use gp_datasets::{Dataset, FewShotTask};
use gp_tensor::{Backend, Parallelism, WorkerPool};

use crate::config::{ConfigError, InferenceConfig, ModelConfig, PretrainConfig};
use crate::deadline::Deadline;
use crate::embed_store::{EmbedCacheStats, EmbeddingStore};
use crate::error::{DeadlineExceeded, DivergenceError};
use crate::infer::{evaluate_episode, infer, run_episode, EpisodeResult};
use crate::model::GraphPrompterModel;
use crate::pretrain::{
    pretrain, try_pretrain, try_pretrain_validated, PretrainReport, TrainingCurve,
};

/// Default capacity of the cross-episode embedding cache.
pub const DEFAULT_EMBED_CACHE_CAPACITY: usize = 4096;

/// One member of an [`Engine::run_episodes_batched`] call: a task plus
/// its own optional deadline.
pub struct EpisodeRequest<'a> {
    /// The member's few-shot task.
    pub task: &'a FewShotTask,
    /// The member's deadline; expiry aborts this member only.
    pub deadline: Option<Deadline>,
}

/// Fallible builder for [`Engine`]; start from [`Engine::builder`].
pub struct EngineBuilder {
    model_cfg: ModelConfig,
    model: Option<GraphPrompterModel>,
    pretrain_cfg: PretrainConfig,
    infer_cfg: InferenceConfig,
    parallelism: Parallelism,
    timing_mode: bool,
    embed_cache: Option<usize>,
    embed_store_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            model_cfg: ModelConfig::default(),
            model: None,
            pretrain_cfg: PretrainConfig::default(),
            infer_cfg: InferenceConfig::default(),
            parallelism: Parallelism::Serial,
            timing_mode: false,
            embed_cache: Some(DEFAULT_EMBED_CACHE_CAPACITY),
            embed_store_dir: None,
        }
    }
}

impl EngineBuilder {
    /// A builder with the paper's default protocol everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Architecture config for the model the engine will create. Ignored
    /// when [`EngineBuilder::model`] supplies a pre-built model.
    pub fn model_config(mut self, cfg: ModelConfig) -> Self {
        self.model_cfg = cfg;
        self
    }

    /// Adopt an existing (e.g. already pre-trained or checkpoint-loaded)
    /// model instead of creating a fresh one.
    pub fn model(mut self, model: GraphPrompterModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Pre-training protocol for [`Engine::pretrain`].
    pub fn pretrain_config(mut self, cfg: PretrainConfig) -> Self {
        self.pretrain_cfg = cfg;
        self
    }

    /// Inference protocol for [`Engine::evaluate`] / [`Engine::run_episode`].
    pub fn inference_config(mut self, cfg: InferenceConfig) -> Self {
        self.infer_cfg = cfg;
        self
    }

    /// The engine's **thread budget** — the number of threads
    /// [`Engine::evaluate`] runs its episodes on, the engine's one
    /// fan-out (default [`Parallelism::Serial`]). Every budget produces
    /// bit-identical results — this is purely a throughput knob.
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Timing mode: [`Engine::evaluate`] runs its episodes one at a time
    /// on the caller, whatever the budget. Results are bit-identical
    /// either way.
    pub fn timing_mode(mut self, on: bool) -> Self {
        self.timing_mode = on;
        self
    }

    /// Accepts a compute backend name and changes nothing: both names
    /// run the same kernels and give the same bits.
    pub fn backend(self, _backend: Backend) -> Self {
        self
    }

    /// Capacity of the cross-episode candidate-embedding cache
    /// (default [`DEFAULT_EMBED_CACHE_CAPACITY`]).
    pub fn embedding_cache(mut self, capacity: usize) -> Self {
        self.embed_cache = Some(capacity);
        self
    }

    /// Disable the embedding cache: every episode embeds every candidate
    /// from scratch (the pre-Engine behavior).
    pub fn no_embedding_cache(mut self) -> Self {
        self.embed_cache = None;
        self
    }

    /// Attach a persistent disk tier (L1) under `dir` to the embedding
    /// cache. Entries evicted from the in-memory LFU tier are demoted to
    /// CRC-protected GPES shards keyed by `(dataset, weight revision)`
    /// and promoted back on a later lookup — including across process
    /// restarts: a fresh engine with the same weights pointed at the same
    /// directory starts warm. Requires the in-memory cache;
    /// [`EngineBuilder::try_build`] rejects the combination with
    /// [`ConfigError::DiskTierWithoutCache`] when
    /// [`EngineBuilder::no_embedding_cache`] is also set.
    pub fn embed_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.embed_store_dir = Some(dir.into());
        self
    }

    /// Validate all configs and build the engine.
    pub fn try_build(self) -> Result<Engine, ConfigError> {
        let model = match self.model {
            Some(model) => {
                model.config().validate()?;
                model
            }
            None => {
                self.model_cfg.validate()?;
                GraphPrompterModel::new(self.model_cfg)
            }
        };
        self.pretrain_cfg.validate()?;
        self.infer_cfg.validate()?;
        let embed_store = match (self.embed_cache, self.embed_store_dir) {
            (Some(capacity), Some(dir)) => Some(EmbeddingStore::with_disk_tier(capacity, dir)),
            (Some(capacity), None) => Some(EmbeddingStore::new(capacity)),
            (None, Some(_)) => return Err(ConfigError::DiskTierWithoutCache),
            (None, None) => None,
        };
        Ok(Engine {
            model,
            pretrain_cfg: self.pretrain_cfg,
            infer_cfg: self.infer_cfg,
            parallelism: self.parallelism,
            timing_mode: self.timing_mode,
            embed_store,
            weights_fp: Mutex::new(Rank::WeightsFingerprint, None),
        })
    }
}

/// Owns a [`GraphPrompterModel`], its validated configs, a thread budget
/// and the cross-episode [`EmbeddingStore`]; the one place the
/// pretrain → evaluate lifecycle happens.
pub struct Engine {
    model: GraphPrompterModel,
    pretrain_cfg: PretrainConfig,
    infer_cfg: InferenceConfig,
    parallelism: Parallelism,
    timing_mode: bool,
    embed_store: Option<EmbeddingStore>,
    /// `(revision, fingerprint)` of the last weight fingerprint computed
    /// for the disk tier — hashing every parameter is O(weights), so it
    /// is cached until the revision moves.
    weights_fp: Mutex<Option<(u64, u64)>>,
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Arm the embedding store's disk tier with the weight fingerprint of
    /// the current revision. Revision counters are process-local, so
    /// shards persisted by a *previous* process cannot be validated by
    /// revision alone — they carry this fingerprint of the parameter
    /// bits and are trusted only when it matches. The hash walks every
    /// parameter tensor, so it is cached until the revision moves.
    /// A no-op without a disk tier: the pure in-memory path keeps its
    /// hash-free revision check.
    fn prepare_embed_store(&self) {
        let Some(store) = &self.embed_store else {
            return;
        };
        if !store.has_disk_tier() {
            return;
        }
        let revision = self.model.store.revision();
        let mut cached = self.weights_fp.lock();
        let fp = match *cached {
            Some((rev, fp)) if rev == revision => fp,
            _ => {
                let mut h = DefaultHasher::new();
                for (_, tensor) in self.model.store.iter() {
                    for &x in tensor.as_slice() {
                        x.to_bits().hash(&mut h);
                    }
                }
                let fp = h.finish();
                *cached = Some((revision, fp));
                fp
            }
        };
        store.set_weights_context(revision, fp);
    }

    /// Pre-train on `dataset` (Alg. 1) with the engine's pretrain config;
    /// stage toggles follow the inference config's
    /// [`crate::StageConfig`]. Weight updates automatically invalidate
    /// the embedding cache (revision tracking), so a later
    /// [`Engine::evaluate`] never sees stale embeddings.
    ///
    /// # Panics
    /// Panics if a step's loss is not finite; use
    /// [`Engine::try_pretrain`] for a recoverable error.
    pub fn pretrain(&mut self, dataset: &Dataset) -> TrainingCurve {
        pretrain(
            &mut self.model,
            dataset,
            &self.pretrain_cfg,
            self.infer_cfg.stages,
        )
    }

    /// As [`Engine::pretrain`], surfacing a non-finite loss as a typed
    /// [`DivergenceError`], with the last finite step's weights kept.
    pub fn try_pretrain(&mut self, dataset: &Dataset) -> Result<TrainingCurve, DivergenceError> {
        try_pretrain(
            &mut self.model,
            dataset,
            &self.pretrain_cfg,
            self.infer_cfg.stages,
        )
    }

    /// As [`Engine::try_pretrain`], scoring held-out episodes after every
    /// `validate_every` steps and after the last, and restoring the
    /// best-scoring snapshot (see [`try_pretrain_validated`]).
    pub fn try_pretrain_validated(
        &mut self,
        dataset: &Dataset,
        validate_every: NonZeroUsize,
    ) -> Result<PretrainReport, DivergenceError> {
        try_pretrain_validated(
            &mut self.model,
            dataset,
            &self.pretrain_cfg,
            self.infer_cfg.stages,
            validate_every,
        )
    }

    /// Evaluate `episodes` independent `ways`-way episodes and return
    /// per-episode accuracies in %. Candidate embeddings are memoized in
    /// the engine's [`EmbeddingStore`] and shared across episodes (and
    /// across repeated `evaluate` calls) — results are bit-identical to a
    /// cache-less run.
    pub fn evaluate(
        &self,
        dataset: &Dataset,
        ways: usize,
        queries_per_episode: usize,
        episodes: usize,
    ) -> Vec<f32> {
        self.evaluate_with(
            dataset,
            ways,
            queries_per_episode,
            episodes,
            &self.infer_cfg,
        )
    }

    /// As [`Engine::evaluate`], but under an explicit inference config
    /// instead of the engine's own — for sweeps that vary the protocol
    /// per call (the experiment harness, the baselines). The embedding
    /// cache is still shared: its keys carry the dataset fingerprint,
    /// sampler geometry, seed and stage flags, so entries from different
    /// configs — or from different datasets evaluated on one engine —
    /// never collide.
    ///
    /// Outside timing mode the episodes run on up to the engine's thread
    /// budget ([`WorkerPool::map`]); each accuracy lands at its episode's
    /// index, so the result is bit-identical to a sequential run for any
    /// budget.
    pub fn evaluate_with(
        &self,
        dataset: &Dataset,
        ways: usize,
        queries_per_episode: usize,
        episodes: usize,
        cfg: &InferenceConfig,
    ) -> Vec<f32> {
        let store = self.embed_store.as_ref();
        let one = |i| {
            evaluate_episode(
                &self.model,
                dataset,
                ways,
                queries_per_episode,
                cfg,
                store,
                i,
            )
        };
        self.prepare_embed_store();
        let budget = if self.timing_mode {
            1
        } else {
            self.parallelism.workers()
        };
        WorkerPool::with_budget(budget).map(episodes, one)
    }

    /// Run Alg. 2 over one explicit episode.
    pub fn run_episode(&self, dataset: &Dataset, task: &FewShotTask) -> EpisodeResult {
        self.run_episode_with(dataset, task, &self.infer_cfg)
    }

    /// As [`Engine::run_episode`], enforcing `deadline` at the stage
    /// boundaries of the pipeline. `Err(DeadlineExceeded)`
    /// reports the expiring stage, the queries completed, and the partial
    /// per-stage wall-clock — gp-serve maps it to HTTP 504. An expired
    /// deadline never corrupts engine state: the episode aborts between
    /// stages, and the shared embedding cache keeps whatever was
    /// memoized.
    pub fn run_episode_deadline(
        &self,
        dataset: &Dataset,
        task: &FewShotTask,
        deadline: Deadline,
    ) -> Result<EpisodeResult, DeadlineExceeded> {
        self.prepare_embed_store();
        infer(
            &self.model,
            dataset,
            task,
            &self.infer_cfg,
            self.embed_store.as_ref(),
            deadline,
        )
    }

    /// Run several episodes one after another, each under its own
    /// deadline. Every member is the same code as a solo
    /// [`Engine::run_episode`] or [`Engine::run_episode_deadline`] call,
    /// so it gives the same bits; an expired member gets its own
    /// `Err(DeadlineExceeded)` slot while the rest complete.
    pub fn run_episodes_batched(
        &self,
        dataset: &Dataset,
        requests: &[EpisodeRequest<'_>],
    ) -> Vec<Result<EpisodeResult, DeadlineExceeded>> {
        self.prepare_embed_store();
        let store = self.embed_store.as_ref();
        requests
            .iter()
            .map(|req| match req.deadline {
                Some(deadline) => infer(
                    &self.model,
                    dataset,
                    req.task,
                    &self.infer_cfg,
                    store,
                    deadline,
                ),
                None => Ok(run_episode(
                    &self.model,
                    dataset,
                    req.task,
                    &self.infer_cfg,
                    store,
                )),
            })
            .collect()
    }

    /// As [`Engine::run_episode`], under an explicit inference config.
    pub fn run_episode_with(
        &self,
        dataset: &Dataset,
        task: &FewShotTask,
        cfg: &InferenceConfig,
    ) -> EpisodeResult {
        self.prepare_embed_store();
        run_episode(&self.model, dataset, task, cfg, self.embed_store.as_ref())
    }

    /// The owned model (read-only).
    pub fn model(&self) -> &GraphPrompterModel {
        &self.model
    }

    /// The model's weight revision: bumped on every parameter mutation
    /// (pretraining steps, checkpoint loads). gp-serve reports it from
    /// `/v1/health` so a client can detect an engine swap mid-session.
    pub fn revision(&self) -> u64 {
        self.model.store.revision()
    }

    /// Mutable model access (checkpoint loading, manual surgery). Any
    /// weight mutation bumps the [`gp_nn::ParamStore::revision`], which
    /// invalidates the embedding cache on its next use.
    pub fn model_mut(&mut self) -> &mut GraphPrompterModel {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> GraphPrompterModel {
        self.model
    }

    /// The active inference config.
    pub fn inference_config(&self) -> &InferenceConfig {
        &self.infer_cfg
    }

    /// The active pretrain config.
    pub fn pretrain_config(&self) -> &PretrainConfig {
        &self.pretrain_cfg
    }

    /// The thread budget [`Engine::evaluate`] runs its episodes under.
    /// It is per-engine and never touches process-wide state.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Change the thread budget for later `evaluate` calls. Results are
    /// bit-identical across budgets — this only changes throughput.
    pub fn set_parallelism(&mut self, p: Parallelism) {
        self.parallelism = p;
    }

    /// Whether [`Engine::evaluate`] runs its episodes one at a time
    /// ([`EngineBuilder::timing_mode`]).
    pub fn timing_mode(&self) -> bool {
        self.timing_mode
    }

    /// Usage counters of the embedding cache, or `None` when disabled.
    pub fn embed_cache_stats(&self) -> Option<EmbedCacheStats> {
        self.embed_store.as_ref().map(EmbeddingStore::stats)
    }

    /// Drop every memoized embedding (counters survive). Weight changes
    /// do this automatically; an explicit clear is only useful for
    /// benchmarking cold-cache behavior. With a disk tier attached this
    /// is a *full* cold start: the on-disk shards are deleted too.
    pub fn clear_embed_cache(&self) {
        if let Some(store) = &self.embed_store {
            store.clear();
        }
    }

    /// Write every in-memory embedding back to the disk tier and fsync
    /// the shards, returning the number of entries persisted (0 without a
    /// disk tier, or before the first inference call arms it). Dropping
    /// the engine flushes too; the explicit call is a durability barrier
    /// — e.g. before handing the shard directory to another process.
    pub fn flush_embed_store(&self) -> usize {
        self.embed_store.as_ref().map_or(0, EmbeddingStore::flush)
    }

    /// Snapshot of the process-wide metrics registry (counters, gauges,
    /// per-stage latency histograms). Metrics collection is off by default
    /// — enable it with [`gp_obs::set_enabled`] before the calls you want
    /// observed, or the snapshot will be empty. Instruments are process-
    /// global, so two engines in one process share one registry.
    pub fn metrics_snapshot(&self) -> gp_obs::MetricsSnapshot {
        gp_obs::snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_datasets::CitationConfig;
    use gp_graph::SamplerConfig;

    fn tiny_sampler() -> SamplerConfig {
        SamplerConfig {
            hops: 1,
            max_nodes: 10,
            neighbors_per_node: 5,
        }
    }

    fn tiny_infer() -> InferenceConfig {
        InferenceConfig {
            shots: 2,
            candidates_per_class: 4,
            cache_size: 2,
            query_batch: 5,
            sampler: tiny_sampler(),
            ..InferenceConfig::default()
        }
    }

    fn tiny_model() -> ModelConfig {
        ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let err = Engine::builder()
            .model_config(ModelConfig {
                embed_dim: 0,
                ..ModelConfig::default()
            })
            .try_build()
            .err()
            .expect("zero embed_dim must fail");
        assert_eq!(err, ConfigError::ZeroField { field: "embed_dim" });

        assert!(Engine::builder()
            .inference_config(InferenceConfig {
                shots: 9,
                candidates_per_class: 3,
                ..InferenceConfig::default()
            })
            .try_build()
            .is_err());

        assert!(Engine::builder()
            .pretrain_config(PretrainConfig {
                steps: 0,
                ..PretrainConfig::default()
            })
            .try_build()
            .is_err());
    }

    #[test]
    fn engine_lifecycle_pretrain_then_evaluate() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let pre = PretrainConfig {
            steps: 30,
            ways: 4,
            shots: 2,
            queries: 4,
            nm_ways: 3,
            nm_shots: 2,
            nm_queries: 3,
            log_every: 15,
            sampler: tiny_sampler(),
            ..PretrainConfig::default()
        };
        let mut engine = Engine::builder()
            .model_config(tiny_model())
            .pretrain_config(pre)
            .inference_config(tiny_infer())
            .try_build()
            .expect("valid engine");
        let curve = engine.pretrain(&ds);
        assert!(!curve.loss.is_empty());
        let accs = engine.evaluate(&ds, 3, 8, 2);
        assert_eq!(accs.len(), 2);
        let stats = engine.embed_cache_stats().expect("cache on by default");
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn engine_cache_matches_cacheless_engine_bitwise() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let cached = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .try_build()
            .expect("valid engine");
        let plain = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .no_embedding_cache()
            .try_build()
            .expect("valid engine");
        let a = cached.evaluate(&ds, 3, 10, 3);
        let b = plain.evaluate(&ds, 3, 10, 3);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(cached.embed_cache_stats().expect("cache on").misses > 0);
        assert_eq!(plain.embed_cache_stats(), None);
    }

    /// Enabling metrics must observe the pipeline, never perturb it:
    /// per-episode accuracies are bit-identical with collection on and
    /// off, and the per-stage inference histograms actually fill.
    #[test]
    fn metrics_collection_never_changes_predictions() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let engine = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .no_embedding_cache()
            .try_build()
            .expect("valid engine");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let off = engine.evaluate(&ds, 3, 8, 2);
        let selection_before = engine
            .metrics_snapshot()
            .histogram("infer.selection_micros")
            .map_or(0, |h| h.count);
        gp_obs::set_enabled(true);
        let on = engine.evaluate(&ds, 3, 8, 2);
        gp_obs::set_enabled(false);
        assert_eq!(bits(&off), bits(&on), "metrics must be read-only");

        // Delta assertions only: the registry is process-global and other
        // tests in this binary run concurrently.
        let snap = engine.metrics_snapshot();
        let selection_after = snap
            .histogram("infer.selection_micros")
            .map_or(0, |h| h.count);
        assert!(
            selection_after > selection_before,
            "selection span did not record ({selection_before} -> {selection_after})"
        );
        let again = engine.evaluate(&ds, 3, 8, 2);
        assert_eq!(bits(&off), bits(&again), "disabling must also be clean");
    }

    #[test]
    fn engine_adopts_existing_model() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let model = GraphPrompterModel::new(tiny_model());
        let engine = Engine::builder()
            .model(model)
            .inference_config(tiny_infer())
            .try_build()
            .expect("valid engine");
        let accs = engine.evaluate(&ds, 3, 6, 1);
        assert_eq!(accs.len(), 1);
        assert_eq!(engine.model().config().embed_dim, 16);
    }

    /// Every budget `evaluate` runs its episodes under gives the serial
    /// run's bits. That one map call stays within its budget is
    /// `gp_tensor`'s `map_runs_on_at_most_budget_threads`.
    #[test]
    fn thread_budget_bounds_total_threads_and_preserves_bits() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let build = |p: Parallelism| {
            Engine::builder()
                .model_config(tiny_model())
                .inference_config(tiny_infer())
                .parallelism(p)
                .try_build()
                .expect("valid engine")
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let base = build(Parallelism::Serial).evaluate(&ds, 3, 8, 4);
        for budget in [2usize, 3, 8] {
            let accs = build(Parallelism::Threads(budget)).evaluate(&ds, 3, 8, 4);
            assert_eq!(bits(&base), bits(&accs), "budget {budget} changed results");
        }
    }

    /// Timing mode keeps a `Threads` engine's bits, and `set_parallelism`
    /// resizes the budget later `evaluate` calls run under.
    #[test]
    fn timing_mode_and_set_parallelism_resize_pool() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let mut engine = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .parallelism(Parallelism::Threads(2))
            .timing_mode(true)
            .try_build()
            .expect("valid engine");
        assert!(engine.timing_mode());
        assert_eq!(engine.parallelism(), Parallelism::Threads(2));
        let base = engine.evaluate(&ds, 3, 8, 2);

        engine.set_parallelism(Parallelism::Serial);
        assert_eq!(engine.parallelism(), Parallelism::Serial);
        let again = engine.evaluate(&ds, 3, 8, 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&again));
    }

    /// A generous deadline is invisible (bit-identical results, populated
    /// confidences); an already-expired one aborts at the first stage
    /// boundary with a typed diagnosis, and the engine stays fully
    /// usable afterwards — no poisoned lock.
    #[test]
    fn deadline_episode_matches_undeadlined_and_expires_cleanly() {
        use gp_tensor::rng::StdRng;

        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let engine = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .parallelism(Parallelism::Threads(2))
            .try_build()
            .expect("valid engine");
        let mut rng = StdRng::seed_from_u64(9);
        let task = gp_datasets::sample_few_shot_task(&ds, 3, 4, 8, &mut rng);

        let plain = engine.run_episode(&ds, &task);
        let timed = engine
            .run_episode_deadline(&ds, &task, Deadline::after_millis(120_000))
            .expect("a two-minute deadline cannot expire here");
        assert_eq!(plain.predictions, timed.predictions);
        assert_eq!(timed.confidences.len(), timed.total);
        assert!(timed.confidences.iter().all(|c| (0.0..=1.0).contains(c)));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.confidences), bits(&timed.confidences));

        let d = engine
            .run_episode_deadline(&ds, &task, Deadline::after_millis(0))
            .expect_err("an expired deadline must abort");
        assert_eq!(d.stage, "candidate_embed");
        assert_eq!(d.completed_queries, 0);
        assert_eq!(d.total_queries, 8);
        assert!(
            d.stage_micros.iter().any(|(s, _)| *s == "candidate_embed"),
            "partial timing must cover the aborting stage: {:?}",
            d.stage_micros
        );

        let again = engine.run_episode(&ds, &task);
        assert_eq!(bits(&[again.accuracy()]), bits(&[plain.accuracy()]));
    }

    /// A request whose deadline has already passed aborts before the
    /// candidate pass: the embedding store sees no lookup and no insert.
    #[test]
    fn expired_deadline_does_no_candidate_work() {
        use gp_tensor::rng::StdRng;

        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let engine = Engine::builder()
            .model_config(tiny_model())
            .inference_config(tiny_infer())
            .embedding_cache(64)
            .try_build()
            .expect("valid engine");
        let mut rng = StdRng::seed_from_u64(9);
        let task = gp_datasets::sample_few_shot_task(&ds, 3, 4, 8, &mut rng);

        let d = engine
            .run_episode_deadline(&ds, &task, Deadline::after_millis(0))
            .expect_err("an expired deadline must abort");
        assert_eq!((d.stage, d.completed_queries), ("candidate_embed", 0));
        let stats = engine.embed_cache_stats().expect("the engine has a store");
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));

        // The same store counts a live episode's candidates.
        let _ = engine.run_episode(&ds, &task);
        let stats = engine.embed_cache_stats().expect("the engine has a store");
        assert!(stats.misses > 0 && stats.len > 0, "{stats:?}");
    }
}
