//! The single public entry point for the GraphPrompter pipeline.
//!
//! [`EngineBuilder`] validates every config up front ([`ConfigError`]),
//! fixes the engine's **thread budget** ([`Parallelism`]) and decides
//! whether the cross-episode [`EmbeddingStore`] is wired in. The built
//! [`Engine`] owns a persistent [`gp_tensor::WorkerPool`] sized to that
//! budget — episode fan-out and tensor-kernel row-blocks all draw from
//! the one pool, so `--threads n` really means at most `n` live threads
//! — and exposes the whole lifecycle:
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
//! Kernel numerics are selected per engine with
//! [`EngineBuilder::backend`]: [`gp_tensor::Backend::Reference`] (the
//! default) keeps the historical bit-exact accumulation order, while
//! [`gp_tensor::Backend::Fast`] swaps in the tiled/SIMD kernels. Every
//! entry point installs the engine's backend alongside its worker pool,
//! so episode fan-out runs under the same kernels.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

use gp_obs::sync::{Mutex, Rank};

use gp_datasets::{Dataset, FewShotTask};
use gp_tensor::{Backend, Parallelism, PoolStats, WorkerPool};

use crate::config::{ConfigError, InferenceConfig, ModelConfig, PretrainConfig};
use crate::deadline::Deadline;
use crate::embed_disk::{DiskTierConfig, Quantization};
use crate::embed_store::{EmbedCacheStats, EmbeddingStore};
use crate::error::{DeadlineExceeded, EngineError};
use crate::guard::DivergenceError;
use crate::infer::{evaluate_episode, run_episodes, EpisodeResult};
use crate::model::GraphPrompterModel;
use crate::planner::EpisodeRequest;
use crate::pretrain::{pretrain, try_pretrain, TrainingCurve};

/// Default capacity of the cross-episode embedding cache.
pub const DEFAULT_EMBED_CACHE_CAPACITY: usize = 4096;

/// Fallible builder for [`Engine`]; start from [`Engine::builder`].
pub struct EngineBuilder {
    model_cfg: ModelConfig,
    model: Option<GraphPrompterModel>,
    pretrain_cfg: PretrainConfig,
    infer_cfg: InferenceConfig,
    parallelism: Option<Parallelism>,
    timing_mode: bool,
    embed_cache: Option<usize>,
    embed_store_dir: Option<PathBuf>,
    embed_quantization: Quantization,
    shared_pool: Option<Arc<WorkerPool>>,
    backend: Backend,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            model_cfg: ModelConfig::default(),
            model: None,
            pretrain_cfg: PretrainConfig::default(),
            infer_cfg: InferenceConfig::default(),
            parallelism: None,
            timing_mode: false,
            embed_cache: Some(DEFAULT_EMBED_CACHE_CAPACITY),
            embed_store_dir: None,
            embed_quantization: Quantization::F32,
            shared_pool: None,
            backend: Backend::default(),
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

    /// The engine's **thread budget** — the total number of threads its
    /// [`gp_tensor::WorkerPool`] may occupy across *every* parallelism
    /// layer: episode fan-out in [`Engine::evaluate`] and tensor-kernel
    /// row-blocks alike draw from this one allowance, so
    /// `Parallelism::Threads(n)` means at most `n` live threads, not
    /// `n × n`. Every budget produces bit-identical results — this is
    /// purely a throughput knob.
    ///
    /// The pool is per-engine: two engines with different settings no
    /// longer stomp a process-wide atomic. When not set, the engine
    /// resolves its budget from the ambient
    /// [`gp_tensor::configured_workers`] at each call (so transient
    /// engines, e.g. inside baselines, inherit the caller's choice).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = Some(p);
        self
    }

    /// Timing mode: pin [`Engine::evaluate`]'s episode-level fan-out to 1,
    /// so the whole budget goes to the kernels of one episode at a time
    /// instead of episodes competing for it. Only `evaluate` and
    /// [`Engine::evaluate_with`] read it; [`Engine::run_episode`] and
    /// [`Engine::run_episodes_batched`] never fan episodes out, so the
    /// flag does not change them. Results are bit-identical either way.
    pub fn timing_mode(mut self, on: bool) -> Self {
        self.timing_mode = on;
        self
    }

    /// Share an existing [`WorkerPool`] instead of owning one: every
    /// engine built with the same `Arc` draws from that pool's single
    /// thread budget, so N engines in one process (e.g. gp-serve's
    /// per-session engines) together never exceed the pool's budget.
    /// Takes precedence over [`EngineBuilder::parallelism`], and
    /// [`Engine::set_parallelism`] becomes a no-op on the pool.
    pub fn worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// Compute backend for every tensor kernel the engine runs:
    /// [`Backend::Reference`] (the default) is the bit-exact ground
    /// truth, [`Backend::Fast`] the tiled/SIMD implementation that is
    /// tolerance-equal to it. Both are bit-identical across worker
    /// counts; only Reference is bit-identical across *backends* of
    /// historical runs, so CI accuracy pins stay on Reference.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
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

    /// On-disk encoding for demoted embeddings: [`Quantization::F32`]
    /// (the default) is bit-exact on roundtrip; [`Quantization::F16`] /
    /// [`Quantization::I8`] shrink shards ~2×/~4× at a bounded, tested
    /// dequantization error. No effect unless
    /// [`EngineBuilder::embed_store_dir`] is set.
    pub fn embed_quantization(mut self, q: Quantization) -> Self {
        self.embed_quantization = q;
        self
    }

    /// Validate all configs and build the engine. The worker pool itself
    /// is created lazily on the first `pretrain`/`evaluate`/`run_episode`
    /// call (a budget of 1 never spawns any thread at all).
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
            (Some(capacity), Some(dir)) => Some(EmbeddingStore::with_disk_tier(
                capacity,
                DiskTierConfig {
                    quantization: self.embed_quantization,
                    ..DiskTierConfig::new(dir)
                },
            )),
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
            pool: Mutex::new(Rank::EnginePool, None),
            shared_pool: self.shared_pool,
            embed_store,
            weights_fp: Mutex::new(Rank::WeightsFingerprint, None),
            backend: self.backend,
        })
    }
}

/// Owns a [`GraphPrompterModel`], its validated configs, a budgeted
/// [`WorkerPool`] and the cross-episode [`EmbeddingStore`]; the one place
/// the pretrain → evaluate lifecycle happens.
pub struct Engine {
    model: GraphPrompterModel,
    pretrain_cfg: PretrainConfig,
    infer_cfg: InferenceConfig,
    parallelism: Option<Parallelism>,
    timing_mode: bool,
    /// Lazily built, cached worker pool; rebuilt when the resolved budget
    /// changes (e.g. an inherited ambient setting moved, or
    /// [`Engine::set_parallelism`] was called).
    pool: Mutex<Option<Arc<WorkerPool>>>,
    /// Externally owned pool shared across engines
    /// ([`EngineBuilder::worker_pool`]); takes precedence over `pool`.
    shared_pool: Option<Arc<WorkerPool>>,
    embed_store: Option<EmbeddingStore>,
    /// `(revision, fingerprint)` of the last weight fingerprint computed
    /// for the disk tier — hashing every parameter is O(weights), so it
    /// is cached until the revision moves.
    weights_fp: Mutex<Option<(u64, u64)>>,
    backend: Backend,
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The engine's worker pool at the currently resolved budget
    /// (explicit [`Parallelism`] if set, else the ambient
    /// [`gp_tensor::configured_workers`]), creating or resizing it as
    /// needed. Every entry point installs this pool for the duration of
    /// the call, so all kernel and episode fan-out shares one budget.
    fn thread_pool(&self) -> Arc<WorkerPool> {
        if let Some(shared) = &self.shared_pool {
            return Arc::clone(shared);
        }
        let want = self
            .parallelism
            .map_or_else(gp_tensor::configured_workers, Parallelism::workers)
            .max(1);
        // A poisoned slot only means a panicking thread held the lock; the
        // cached pool handle inside is still valid, so `lock` recovers it
        // rather than cascading the panic into every later request.
        let mut slot = self.pool.lock();
        match slot.as_ref() {
            Some(pool) if pool.budget() == want => Arc::clone(pool),
            _ => {
                // Pool construction happens once per budget change; the slot lock guards exactly
                // this memoization and is never nested.
                let pool = Arc::new(WorkerPool::with_budget(want));
                *slot = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// Arm the embedding store's disk tier with the weight fingerprint of
    /// the current revision. Revision counters are process-local, so
    /// shards persisted by a *previous* process cannot be validated by
    /// revision alone — they carry this fingerprint (parameter bits +
    /// backend name) and are trusted only when it matches. The hash walks
    /// every parameter tensor, so it is cached until the revision moves.
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
                self.backend.name().hash(&mut h);
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

    /// Run `f` with the engine's worker pool and backend installed and
    /// its embedding store armed: the preamble of every inference entry
    /// point. `f` receives the installed pool.
    fn with_runtime<T>(&self, f: impl FnOnce(&WorkerPool) -> T) -> T {
        let pool = self.thread_pool();
        let _ctx = pool.install();
        let _be = self.backend.install();
        self.prepare_embed_store();
        f(&pool)
    }

    /// Alg. 2 over `requests` under `cfg`, one fused batch.
    fn run_batch(
        &self,
        dataset: &Dataset,
        requests: &[EpisodeRequest<'_>],
        cfg: &InferenceConfig,
    ) -> Vec<Result<EpisodeResult, DeadlineExceeded>> {
        self.with_runtime(|_| {
            run_episodes(
                &self.model,
                dataset,
                requests,
                cfg,
                self.embed_store.as_ref(),
            )
        })
    }

    /// Pre-train on `dataset` (Alg. 1) with the engine's pretrain config;
    /// stage toggles follow the inference config's
    /// [`crate::StageConfig`]. Weight updates automatically invalidate
    /// the embedding cache (revision tracking), so a later
    /// [`Engine::evaluate`] never sees stale embeddings.
    ///
    /// # Panics
    /// Panics if the configured guard rail aborts; use
    /// [`Engine::try_pretrain`] for a recoverable error.
    pub fn pretrain(&mut self, dataset: &Dataset) -> TrainingCurve {
        let pool = self.thread_pool();
        let _ctx = pool.install();
        let _be = self.backend.install();
        pretrain(
            &mut self.model,
            dataset,
            &self.pretrain_cfg,
            self.infer_cfg.stages,
        )
    }

    /// As [`Engine::pretrain`], surfacing guard-rail aborts as a typed
    /// [`DivergenceError`].
    pub fn try_pretrain(&mut self, dataset: &Dataset) -> Result<TrainingCurve, DivergenceError> {
        let pool = self.thread_pool();
        let _ctx = pool.install();
        let _be = self.backend.install();
        try_pretrain(
            &mut self.model,
            dataset,
            &self.pretrain_cfg,
            self.infer_cfg.stages,
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
    /// Outside timing mode the episodes run as tasks on the engine's
    /// pool, whose queue also executes the kernel fan-out inside them, so
    /// total live threads never exceed the budget. Results land in fixed
    /// per-episode slots: accuracies are bit-identical to a sequential
    /// run for any budget.
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
        self.with_runtime(|pool| {
            if self.timing_mode {
                return (0..episodes).map(one).collect();
            }
            let mut accs = vec![0.0f32; episodes];
            let slots: Vec<Mutex<&mut f32>> = accs
                .iter_mut()
                .map(|acc| Mutex::new(Rank::ResultSlot, acc))
                .collect();
            pool.for_each_index(episodes, |i| {
                // Pool workers have their own thread-local backend slot;
                // without this, pooled episodes would run on Reference.
                let _be = self.backend.install();
                let acc = one(i);
                // Each slot is touched by exactly one task; a poisoned lock
                // can only mean that task already panicked, so `lock`'s
                // recovery is safe.
                **slots[i].lock() = acc;
            });
            drop(slots);
            accs
        })
    }

    /// Run Alg. 2 over one explicit episode.
    pub fn run_episode(&self, dataset: &Dataset, task: &FewShotTask) -> EpisodeResult {
        self.run_episode_with(dataset, task, &self.infer_cfg)
    }

    /// As [`Engine::run_episode`], enforcing `deadline` at the stage
    /// boundaries of the pipeline. `Err(EngineError::DeadlineExceeded)`
    /// reports the expiring stage, the queries completed, and the partial
    /// per-stage wall-clock — gp-serve maps it to HTTP 504. An expired
    /// deadline never corrupts engine state: the episode aborts between
    /// stages, the shared embedding cache keeps whatever was memoized,
    /// and the worker pool releases every thread it borrowed.
    pub fn run_episode_deadline(
        &self,
        dataset: &Dataset,
        task: &FewShotTask,
        deadline: Deadline,
    ) -> Result<EpisodeResult, EngineError> {
        let request = EpisodeRequest {
            task,
            deadline: Some(deadline),
        };
        match self
            .run_batch(dataset, std::slice::from_ref(&request), &self.infer_cfg)
            .pop()
        {
            Some(res) => res.map_err(EngineError::from),
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: run_episodes answers every request"
            )]
            None => unreachable!("a batch of one answers its member"),
        }
    }

    /// Run several episodes as one fused cross-request batch. Candidate
    /// embedding runs once over the deduplicated union of every member's
    /// candidates, and all live members' queries go through a single
    /// stacked [`crate::SubgraphBatch`] pass — amortizing the per-request
    /// embed cost without changing any member's result: on
    /// [`Backend::Reference`] every member is **bit-identical** to a solo
    /// [`Engine::run_episode_deadline`] call (per-datapoint RNG streams +
    /// row-local embedding; asserted by the property tests in
    /// `crates/core/tests/batching.rs`). A solo call is the same code
    /// with one member.
    ///
    /// Deadlines stay per member: an expired member gets its own
    /// `Err(EngineError::DeadlineExceeded)` slot while the rest of the
    /// batch completes.
    pub fn run_episodes_batched(
        &self,
        dataset: &Dataset,
        requests: &[EpisodeRequest<'_>],
    ) -> Vec<Result<EpisodeResult, EngineError>> {
        self.run_batch(dataset, requests, &self.infer_cfg)
            .into_iter()
            .map(|r| r.map_err(EngineError::from))
            .collect()
    }

    /// As [`Engine::run_episode`], under an explicit inference config.
    pub fn run_episode_with(
        &self,
        dataset: &Dataset,
        task: &FewShotTask,
        cfg: &InferenceConfig,
    ) -> EpisodeResult {
        let request = EpisodeRequest {
            task,
            deadline: None,
        };
        match self
            .run_batch(dataset, std::slice::from_ref(&request), cfg)
            .pop()
        {
            Some(Ok(res)) => res,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: a deadline-free batch of one answers its member"
            )]
            _ => unreachable!("an episode without a deadline cannot time out"),
        }
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

    /// The thread budget this engine was built with, or `None` when it
    /// inherits the ambient [`gp_tensor::configured_workers`] at each
    /// call. The budget is per-engine: it sizes this engine's own
    /// [`WorkerPool`] and never touches process-wide state.
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.parallelism
    }

    /// Change the thread budget. The cached worker pool is dropped (its
    /// threads join) and a pool at the new budget is built lazily on the
    /// next `pretrain`/`evaluate`/`run_episode` call. Results are
    /// bit-identical across budgets — this only changes throughput.
    pub fn set_parallelism(&mut self, p: Option<Parallelism>) {
        self.parallelism = p;
        *self.pool.lock() = None;
    }

    /// Whether episode-level fan-out is pinned to 1
    /// ([`EngineBuilder::timing_mode`]).
    pub fn timing_mode(&self) -> bool {
        self.timing_mode
    }

    /// The compute backend this engine installs around every call
    /// ([`EngineBuilder::backend`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Switch the compute backend. Takes effect on the next
    /// `pretrain`/`evaluate`/`run_episode` call. The disk tier's weight
    /// fingerprint hashes the backend name, so it is recomputed; the
    /// in-memory cache is keyed by protocol + weights only and Fast is
    /// only tolerance-equal to Reference, so callers that flip backends
    /// on one engine should clear it between runs.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        *self.weights_fp.lock() = None;
    }

    /// Counters of the engine's worker pool (budget, spawned workers,
    /// peak concurrently active tasks, executed/stolen task counts), or
    /// `None` before the first `pretrain`/`evaluate`/`run_episode` call
    /// builds the pool. The regression tests use `peak_active ≤ budget`
    /// to pin down that nested fan-out cannot oversubscribe.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        if let Some(shared) = &self.shared_pool {
            return Some(shared.stats());
        }
        self.pool.lock().as_ref().map(|p| p.stats())
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

    /// The tentpole invariant, engine-level: one budget bounds *total*
    /// thread use across episode fan-out and kernel fan-out, a Serial
    /// engine never spawns a worker, and every budget is bit-identical.
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

        let serial = build(Parallelism::Serial);
        let base = serial.evaluate(&ds, 3, 8, 4);
        let stats = serial.pool_stats().expect("pool built by evaluate");
        assert_eq!(stats.budget, 1);
        assert_eq!(stats.spawned_workers, 0, "budget 1 must not spawn");
        assert_eq!(stats.peak_active, 0, "budget 1 must run inline");

        let budgeted = build(Parallelism::Threads(3));
        let accs = budgeted.evaluate(&ds, 3, 8, 4);
        let stats = budgeted.pool_stats().expect("pool built by evaluate");
        assert_eq!(stats.budget, 3);
        assert_eq!(stats.spawned_workers, 2, "budget B spawns B-1 workers");
        assert!(
            stats.peak_active <= 3,
            "peak active tasks {} exceeded budget 3",
            stats.peak_active
        );
        assert!(stats.tasks_executed >= 4, "episodes should ride the pool");

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&accs), "budget must not change results");
    }

    /// Timing mode pins episode fan-out to 1 while keeping the budget for
    /// kernels — and `set_parallelism` rebuilds the pool at the new size.
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
        let base = engine.evaluate(&ds, 3, 8, 2);
        assert_eq!(engine.pool_stats().expect("pool").budget, 2);

        engine.set_parallelism(Some(Parallelism::Serial));
        assert_eq!(engine.pool_stats(), None, "set_parallelism drops pool");
        let again = engine.evaluate(&ds, 3, 8, 2);
        assert_eq!(engine.pool_stats().expect("pool").budget, 1);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&again));
    }

    /// A generous deadline is invisible (bit-identical results, populated
    /// confidences); an already-expired one aborts at the first stage
    /// boundary with a typed diagnosis, and the engine stays fully
    /// usable afterwards — no poisoned lock, no leaked pool thread.
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

        let err = engine
            .run_episode_deadline(&ds, &task, Deadline::after_millis(0))
            .expect_err("an expired deadline must abort");
        match err {
            EngineError::DeadlineExceeded(d) => {
                assert_eq!(d.stage, "candidate_embed");
                assert_eq!(d.completed_queries, 0);
                assert_eq!(d.total_queries, 8);
                assert!(
                    d.stage_micros.iter().any(|(s, _)| *s == "candidate_embed"),
                    "partial timing must cover the aborting stage: {:?}",
                    d.stage_micros
                );
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }

        let again = engine.run_episode(&ds, &task);
        assert_eq!(bits(&[again.accuracy()]), bits(&[plain.accuracy()]));
        let stats = engine.pool_stats().expect("pool built");
        assert!(
            stats.peak_active <= stats.budget,
            "aborted episodes must release their pool slots"
        );
    }

    /// Engines sharing one pool ([`EngineBuilder::worker_pool`]) draw
    /// from a single thread budget — the gp-serve sessions model.
    #[test]
    fn shared_worker_pool_bounds_engines_jointly() {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let pool = Arc::new(WorkerPool::with_budget(2));
        let build = || {
            Engine::builder()
                .model_config(tiny_model())
                .inference_config(tiny_infer())
                .worker_pool(Arc::clone(&pool))
                .try_build()
                .expect("valid engine")
        };
        let a = build();
        let b = build();
        let ra = a.evaluate(&ds, 3, 6, 2);
        let rb = b.evaluate(&ds, 3, 6, 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ra), bits(&rb), "same pool, same weights, same task");
        let stats = pool.stats();
        assert_eq!(stats.budget, 2);
        assert!(
            stats.peak_active <= 2,
            "shared budget must bound both engines"
        );
        assert_eq!(a.pool_stats().expect("shared").budget, 2);
        assert_eq!(a.revision(), b.revision());
    }
}
