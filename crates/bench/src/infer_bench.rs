//! The committed inference benchmark behind `BENCH_inference.json`.
//!
//! Measures Alg. 2 per-query latency under the three execution modes the
//! "parallel kernels + embedding reuse" PR added, for each compute
//! backend the tensor crate ships:
//!
//! * `serial_cold` — the recorded baseline: one worker, embedding cache
//!   cleared before every episode (the pre-PR behavior).
//! * `serial_warm` — one worker, cross-episode [`gp_core::EmbeddingStore`]
//!   kept hot, so candidate subgraphs are never re-embedded.
//! * `parallel_cold` — cold cache, one kernel worker per core (only
//!   emitted on multi-core hosts; kernels are bit-identical either way).
//!
//! The `reference` rows are the bit-exact ground truth and stay
//! comparable with older artifacts; the `fast` rows run the same
//! workload on the tiled/SIMD kernels ([`Backend::Fast`]), and the
//! `wide_matmul` microbench pins the kernel-level speedup claim on the
//! dot-product-shaped matmul the scoring path leans on (a reduction the
//! scalar kernels cannot auto-vectorize, so this is where SIMD pays).
//!
//! The headline number is `best_speedup` over the reference
//! `serial_cold`: on a multi-core host the parallel row alone clears 2×,
//! on a single-core host the warm embedding cache carries the claim.
//! Each mode also reports its embedding-cache hit rate (from the
//! always-on [`gp_core::EmbedCacheStats`] counters) so the speedup can
//! be traced to actual cache behavior rather than inferred from timings
//! alone.
//!
//! All modes run in the engine's **timing mode**: episode-level fan-out
//! is pinned to 1, so a single episode at a time owns the whole thread
//! budget and per-query latency is measured uncontended. Budgets are set
//! per-engine via [`Engine::set_parallelism`] and backends via
//! [`Engine::set_backend`] — nothing here touches process-wide state.

use std::path::PathBuf;
use std::time::Instant;

use gp_core::{Engine, EpisodeRequest, GraphPrompterModel, PretrainConfig, StageConfig};
use gp_datasets::{presets, sample_few_shot_task, FewShotTask};
use gp_tensor::rng::StdRng;
use gp_tensor::{Backend, Parallelism, Tensor};

use crate::harness::Suite;

/// Mean per-query and per-query-embed time over the measured episodes.
#[derive(Copy, Clone, Debug)]
pub struct ModeTiming {
    /// Mean microseconds per query, everything included.
    pub per_query_micros: f64,
    /// Mean microseconds per query spent embedding subgraphs.
    pub embed_micros: f64,
    /// Embedding-cache hit rate over the timed reps, in `[0, 1]`.
    ///
    /// Computed from [`gp_core::EmbedCacheStats`] deltas around the timed
    /// loop — the always-on cache counters, not the gp-obs registry — so
    /// collecting it costs nothing and timings stay comparable with older
    /// artifacts.
    pub embed_hit_rate: f64,
    /// Episode accuracy sum, kept to prove the modes agree.
    pub correct: usize,
}

/// One cross-request batching measurement: `batch` members sharing a
/// class space (concurrent requests against one serving session), each
/// with its own queries, run both ways on a cold store.
///
/// `serial` is what `batch` independent requests pay on an idle server
/// — each episode alone, each re-embedding the full candidate pool.
/// `batched` is one fused [`Engine::run_episodes_batched`] pass over
/// the same members: the candidate union is embedded once and shared.
/// The gain is amortization, not parallelism — both sides run the same
/// kernels on the same thread budget.
#[derive(Copy, Clone, Debug)]
pub struct BatchedTiming {
    /// Members fused per pass.
    pub batch: usize,
    /// Queries each member carries.
    pub queries_per_member: usize,
    /// Mean microseconds per query, members run one at a time (cold).
    pub serial_per_query_micros: f64,
    /// Mean microseconds per query, members fused into one pass (cold).
    pub batched_per_query_micros: f64,
}

impl BatchedTiming {
    /// Fused cost as a fraction of the solo cost (< 1 means batching
    /// pays; the acceptance bar is ≤ 0.5 at batch 8).
    pub fn cost_ratio(&self) -> f64 {
        self.batched_per_query_micros / self.serial_per_query_micros.max(1e-9)
    }
}

/// The three execution modes measured on one compute backend.
#[derive(Clone, Debug)]
pub struct BackendRows {
    /// Which kernels these rows ran on.
    pub backend: Backend,
    /// Cold-cache serial baseline.
    pub serial_cold: ModeTiming,
    /// Warm embedding cache, serial kernels.
    pub serial_warm: ModeTiming,
    /// Cold cache, one worker per core; `None` on single-core hosts.
    pub parallel_cold: Option<ModeTiming>,
    /// A *restarted* engine's first episode against a warm persistent
    /// disk tier (cold RAM, GPES shards on disk): the gp-serve
    /// warm-start scenario. `None` when the benchmark ran without an
    /// embedding-store directory.
    pub disk_warm: Option<ModeTiming>,
    /// Cross-request batching rows, one per fused batch size.
    pub batched: Vec<BatchedTiming>,
}

impl BackendRows {
    /// Warm-cache speedup over this backend's serial cold baseline.
    pub fn warm_speedup(&self) -> f64 {
        self.serial_cold.per_query_micros / self.serial_warm.per_query_micros.max(1e-9)
    }

    /// Restart-with-warm-disk speedup over this backend's serial cold
    /// baseline — the cold-query reduction a restarted server gets from
    /// the persistent tier.
    pub fn disk_warm_speedup(&self) -> Option<f64> {
        self.disk_warm
            .as_ref()
            .map(|d| self.serial_cold.per_query_micros / d.per_query_micros.max(1e-9))
    }

    /// Parallel speedup over this backend's serial cold baseline.
    pub fn parallel_speedup(&self) -> Option<f64> {
        self.parallel_cold
            .as_ref()
            .map(|p| self.serial_cold.per_query_micros / p.per_query_micros.max(1e-9))
    }

    /// Best measured speedup over this backend's serial baseline.
    pub fn best_speedup(&self) -> f64 {
        self.parallel_speedup()
            .unwrap_or(0.0)
            .max(self.warm_speedup())
    }

    /// Cost ratio of the largest fused batch measured (the headline
    /// batching claim), if batching rows were recorded.
    pub fn largest_batch_cost_ratio(&self) -> Option<f64> {
        self.batched.last().map(BatchedTiming::cost_ratio)
    }
}

/// Kernel-level microbenchmark: one wide `A · Bᵀ` matmul (the
/// dot-product reduction behind cosine scoring) timed on both backends.
#[derive(Copy, Clone, Debug)]
pub struct WideMatmul {
    /// Rows of `A` (and of the output).
    pub rows: usize,
    /// Shared inner dimension — the "wide" axis the reduction runs over.
    pub inner: usize,
    /// Rows of `B` (columns of the output).
    pub cols: usize,
    /// Timed repetitions per backend (after warm-up).
    pub reps: usize,
    /// Mean microseconds per matmul on [`Backend::Reference`].
    pub reference_micros: f64,
    /// Mean microseconds per matmul on [`Backend::Fast`].
    pub fast_micros: f64,
}

impl WideMatmul {
    /// Fast-kernel speedup over the reference kernel.
    pub fn speedup(&self) -> f64 {
        self.reference_micros / self.fast_micros.max(1e-9)
    }
}

/// The full benchmark result; `to_json` renders the committed artifact.
#[derive(Clone, Debug)]
pub struct InferBenchReport {
    /// Worker threads a parallel run uses on this host.
    pub host_cores: usize,
    /// Ways / candidates-per-class / queries of the measured episode.
    pub ways: usize,
    /// Queries per episode.
    pub queries: usize,
    /// Timed repetitions per mode.
    pub reps: usize,
    /// One set of mode rows per measured backend (reference first).
    pub backends: Vec<BackendRows>,
    /// The kernel-level reference-vs-fast microbench.
    pub wide_matmul: WideMatmul,
}

impl InferBenchReport {
    /// The rows measured on `backend`, if that backend was run.
    pub fn row(&self, backend: Backend) -> Option<&BackendRows> {
        self.backends.iter().find(|r| r.backend == backend)
    }

    /// The headline: best measured speedup over the serial baseline of
    /// the reference backend (falling back to the first measured backend
    /// when reference was skipped).
    pub fn best_speedup(&self) -> f64 {
        self.row(Backend::Reference)
            .or_else(|| self.backends.first())
            .map_or(0.0, BackendRows::best_speedup)
    }

    /// End-to-end fast-vs-reference speedup on the warm serial path
    /// (the steady-state serving configuration), when both were run.
    pub fn fast_vs_reference_warm(&self) -> Option<f64> {
        let reference = self.row(Backend::Reference)?;
        let fast = self.row(Backend::Fast)?;
        Some(reference.serial_warm.per_query_micros / fast.serial_warm.per_query_micros.max(1e-9))
    }

    /// Render the committed `BENCH_inference.json` artifact.
    pub fn to_json(&self) -> String {
        fn mode(t: &ModeTiming) -> String {
            format!(
                "{{\"per_query_micros\": {:.2}, \"embed_micros\": {:.2}, \"embed_hit_rate\": {:.4}, \"correct\": {}}}",
                t.per_query_micros, t.embed_micros, t.embed_hit_rate, t.correct
            )
        }
        let backends = self
            .backends
            .iter()
            .map(|row| {
                let parallel = match &row.parallel_cold {
                    Some(p) => mode(p),
                    None => "null".into(),
                };
                let parallel_speedup = match row.parallel_speedup() {
                    Some(s) => format!("{s:.2}"),
                    None => "null".into(),
                };
                let disk_warm = match &row.disk_warm {
                    Some(d) => mode(d),
                    None => "null".into(),
                };
                let disk_warm_speedup = match row.disk_warm_speedup() {
                    Some(s) => format!("{s:.2}"),
                    None => "null".into(),
                };
                let batched = row
                    .batched
                    .iter()
                    .map(|b| {
                        format!(
                            "        {{\"batch\": {}, \"queries_per_member\": {}, \"serial_per_query_micros\": {:.2}, \"batched_per_query_micros\": {:.2}, \"cost_ratio\": {:.3}}}",
                            b.batch,
                            b.queries_per_member,
                            b.serial_per_query_micros,
                            b.batched_per_query_micros,
                            b.cost_ratio()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    "    {{\n      \"backend\": \"{}\",\n      \"serial_cold\": {},\n      \"serial_warm\": {},\n      \"parallel_cold\": {},\n      \"disk_warm\": {},\n      \"speedup_warm_vs_serial\": {:.2},\n      \"speedup_parallel_vs_serial\": {},\n      \"speedup_disk_warm_vs_serial\": {},\n      \"best_speedup_vs_serial\": {:.2},\n      \"batched\": [\n{}\n      ]\n    }}",
                    row.backend.name(),
                    mode(&row.serial_cold),
                    mode(&row.serial_warm),
                    parallel,
                    disk_warm,
                    row.warm_speedup(),
                    parallel_speedup,
                    disk_warm_speedup,
                    row.best_speedup(),
                    batched
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let fast_vs_reference = match self.fast_vs_reference_warm() {
            Some(s) => format!("{s:.2}"),
            None => "null".into(),
        };
        let batch_ratio = match self
            .row(Backend::Reference)
            .or_else(|| self.backends.first())
            .and_then(BackendRows::largest_batch_cost_ratio)
        {
            Some(r) => format!("{r:.3}"),
            None => "null".into(),
        };
        format!(
            "{{\n  \"bench\": \"inference\",\n  \"host_cores\": {},\n  \"ways\": {},\n  \"queries\": {},\n  \"reps\": {},\n  \"backends\": [\n{}\n  ],\n  \"speedup_fast_vs_reference_warm\": {},\n  \"largest_batch_cost_ratio\": {},\n  \"wide_matmul\": {{\"rows\": {}, \"inner\": {}, \"cols\": {}, \"reps\": {}, \"reference_micros\": {:.2}, \"fast_micros\": {:.2}, \"speedup\": {:.2}}}\n}}\n",
            self.host_cores,
            self.ways,
            self.queries,
            self.reps,
            backends,
            fast_vs_reference,
            batch_ratio,
            self.wide_matmul.rows,
            self.wide_matmul.inner,
            self.wide_matmul.cols,
            self.wide_matmul.reps,
            self.wide_matmul.reference_micros,
            self.wide_matmul.fast_micros,
            self.wide_matmul.speedup()
        )
    }
}

/// Time one wide `A · Bᵀ` on both backends. The inner dimension is the
/// wide axis: each output element is a length-`inner` dot product, the
/// shape the scalar reference kernel cannot vectorize (serial float
/// dependency chain) and the SIMD kernels fold 32 lanes at a time.
#[expect(
    clippy::disallowed_methods,
    reason = "a benchmark: wall time is the measurement"
)]
fn wide_matmul_bench(smoke: bool) -> WideMatmul {
    let (rows, inner, cols) = (64, 512, 64);
    let reps = if smoke { 10 } else { 400 };
    let mut state = 0x9e37_79b9_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let a = Tensor::from_vec(rows, inner, (0..rows * inner).map(|_| next()).collect());
    let b = Tensor::from_vec(cols, inner, (0..cols * inner).map(|_| next()).collect());

    let time = |backend: Backend| -> f64 {
        let _be = backend.install();
        let mut sink = 0.0f32;
        sink += a.matmul_tb(&b).get(0, 0); // warm-up, also keeps `sink` live
        let t0 = Instant::now();
        for _ in 0..reps {
            sink += a.matmul_tb(&b).get(rows - 1, cols - 1);
        }
        let mean = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        std::hint::black_box(sink);
        mean
    };

    // Reference timed last so any first-touch page-fault cost lands on
    // the backend we expect to win (conservative for the speedup claim).
    let fast_micros = time(Backend::Fast);
    let reference_micros = time(Backend::Reference);
    WideMatmul {
        rows,
        inner,
        cols,
        reps,
        reference_micros,
        fast_micros,
    }
}

/// Run the benchmark. `smoke` shrinks pre-training and repetitions to a
/// CI-sized sanity pass (a single tiny episode per mode). `threads`
/// forces the parallel mode's thread budget (and emits the parallel row
/// even on a single-core host); `None` keeps the per-core default.
/// `backend` restricts the episode rows to one backend; `None` measures
/// both. The wide-matmul microbench always measures both backends.
///
/// With `embed_store_dir` set, each backend also gets a `disk_warm` row:
/// one engine populates a persistent embedding tier under that directory
/// and is dropped; then per rep a *fresh* engine (cold RAM, same
/// weights) is built against the directory and its first episode is
/// timed — the gp-serve restart-with-warm-shards scenario. Shards are
/// written f32, so the warm answers are asserted bit-identical to the
/// writer's. The directory is wiped before and after.
#[expect(
    clippy::disallowed_methods,
    reason = "a benchmark: wall time is the measurement"
)]
#[expect(
    clippy::expect_used,
    reason = "bench harness: every engine is built from the suite's known-good knobs, and snapshots restore onto identically-configured models; a failure is a bug worth aborting the measurement over"
)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "best-effort cleanup of the disk-warm scratch directory before and after its rows"
)]
pub fn run(
    smoke: bool,
    threads: Option<usize>,
    backend: Option<Backend>,
    embed_store_dir: Option<PathBuf>,
) -> InferBenchReport {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let suite = if smoke {
        Suite::smoke()
    } else {
        Suite::default()
    };
    let (ways, reps) = if smoke { (5, 1) } else { (10, 3) };
    let queries = suite.queries;

    let wiki = presets::wiki_like(suite.seed);
    let fb = presets::fb15k237_like(suite.seed);
    let mut engine = Engine::builder()
        .model_config(suite.model_config())
        .pretrain_config(PretrainConfig {
            steps: if smoke { 30 } else { 120 },
            ..suite.pretrain_config()
        })
        .inference_config(suite.inference_config(StageConfig::full()))
        .parallelism(Parallelism::Serial)
        .timing_mode(true)
        .try_build()
        .expect("suite configs must be valid");
    // Pre-training always runs on the reference backend so the measured
    // weights are identical across rows — only inference kernels differ.
    engine.pretrain(&wiki);

    // One fixed episode: the comparison is about execution mode, not task
    // variance, so every mode runs the identical workload.
    let cfg = engine.inference_config().clone();
    let mut rng = StdRng::seed_from_u64(suite.seed.wrapping_add(7));
    let task = sample_few_shot_task(&fb, ways, cfg.candidates_per_class, queries, &mut rng);

    // Cross-request batching workload: up to 8 members sharing one class
    // space (concurrent requests against the same serving session), each
    // carrying its own slice of queries. One oversized task is sampled
    // and its queries dealt across the members so both sides of the
    // comparison run exactly the same total work.
    let max_fused = 8usize;
    let queries_per_member = if smoke { 2 } else { 5 };
    let mut batch_rng = StdRng::seed_from_u64(suite.seed.wrapping_add(13));
    let fused_pool = sample_few_shot_task(
        &fb,
        ways,
        cfg.candidates_per_class,
        max_fused * queries_per_member,
        &mut batch_rng,
    );
    assert_eq!(
        fused_pool.queries.len(),
        max_fused * queries_per_member,
        "preset test split too small for the batching workload"
    );
    let members: Vec<FewShotTask> = (0..max_fused)
        .map(|i| FewShotTask {
            classes: fused_pool.classes.clone(),
            candidates: fused_pool.candidates.clone(),
            queries: fused_pool.queries[i * queries_per_member..(i + 1) * queries_per_member]
                .to_vec(),
        })
        .collect();

    let measure = |engine: &mut Engine, workers: Parallelism, warm: bool| -> ModeTiming {
        engine.set_parallelism(Some(workers));
        engine.clear_embed_cache();
        if warm {
            // Populate the store once; the timed reps then hit it.
            let _ = engine.run_episode(&fb, &task);
        }
        let mut per_query = 0.0;
        let mut embed = 0.0;
        let mut correct = 0;
        let stats0 = engine.embed_cache_stats().unwrap_or_default();
        for _ in 0..reps {
            if !warm {
                engine.clear_embed_cache();
            }
            let t0 = Instant::now();
            let res = engine.run_episode(&fb, &task);
            // Wall-clock over the whole episode: per_query_micros excludes
            // per-call overhead the user still pays.
            let wall = t0.elapsed().as_secs_f64() * 1e6 / res.total.max(1) as f64;
            per_query += wall;
            embed += res.embed_micros;
            correct += res.correct;
        }
        engine.set_parallelism(Some(Parallelism::Serial));
        let stats1 = engine.embed_cache_stats().unwrap_or_default();
        let hits = stats1.hits.saturating_sub(stats0.hits);
        let misses = stats1.misses.saturating_sub(stats0.misses);
        let lookups = hits + misses;
        ModeTiming {
            per_query_micros: per_query / reps as f64,
            embed_micros: embed / reps as f64,
            embed_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            correct,
        }
    };

    let which = match backend {
        Some(b) => vec![b],
        None => vec![Backend::Reference, Backend::Fast],
    };
    let parallel_threads = threads.filter(|&n| n > 1);
    let mut rows = Vec::with_capacity(which.len());
    for b in which {
        engine.set_backend(b);
        // Embeddings memoized under one backend must not leak into the
        // other's rows: Fast is only tolerance-equal to Reference.
        engine.clear_embed_cache();
        let serial_cold = measure(&mut engine, Parallelism::Serial, false);
        let serial_warm = measure(&mut engine, Parallelism::Serial, true);
        let parallel_cold = (host_cores > 1 || parallel_threads.is_some()).then(|| {
            measure(
                &mut engine,
                parallel_threads.map_or(Parallelism::Auto, Parallelism::Threads),
                false,
            )
        });

        // Restart-with-warm-disk: a writer engine populates the
        // persistent tier and flushes; each rep then builds a FRESH
        // engine (new process stand-in: cold RAM tier, new revision
        // counter, same weight bits) and times its first episode. Only
        // the weight fingerprint can connect it to the shards — exactly
        // what a restarted gp-serve relies on.
        let disk_warm = embed_store_dir.as_ref().map(|base| {
            let dir = base.join(format!("disk-warm-{}", b.name()));
            let _ = std::fs::remove_dir_all(&dir);
            let snapshot = engine.model().store.snapshot();
            let build = || -> Engine {
                let mut model = GraphPrompterModel::new(suite.model_config());
                model
                    .store
                    .try_restore(&snapshot)
                    .expect("snapshot restores onto an identically-shaped model");
                Engine::builder()
                    .model(model)
                    .inference_config(cfg.clone())
                    .parallelism(Parallelism::Serial)
                    .timing_mode(true)
                    .backend(b)
                    .embed_store_dir(&dir)
                    .try_build()
                    .expect("bench engine config must be valid")
            };
            let writer = build();
            let baseline = writer.run_episode(&fb, &task);
            let flushed = writer.flush_embed_store();
            assert!(flushed > 0, "the writer must persist its embeddings");
            drop(writer);

            let mut per_query = 0.0;
            let mut embed = 0.0;
            let mut correct = 0;
            let (mut hits, mut lookups) = (0u64, 0u64);
            for _ in 0..reps {
                let restarted = build();
                let t0 = Instant::now();
                let res = restarted.run_episode(&fb, &task);
                per_query += t0.elapsed().as_secs_f64() * 1e6 / res.total.max(1) as f64;
                embed += res.embed_micros;
                correct += res.correct;
                // f32 shards roundtrip bit-exactly: the restarted engine
                // must answer exactly as the writer did.
                assert_eq!(
                    res.predictions, baseline.predictions,
                    "disk warm start must not change predictions"
                );
                let s = restarted.embed_cache_stats().unwrap_or_default();
                hits += s.hits;
                lookups += s.hits + s.misses;
            }
            let _ = std::fs::remove_dir_all(&dir);
            ModeTiming {
                per_query_micros: per_query / reps as f64,
                embed_micros: embed / reps as f64,
                embed_hit_rate: if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
                correct,
            }
        });

        // Cross-request batching rows: the same members run solo (cold —
        // what independent requests pay) and fused (one candidate-union
        // pass). Both sides are serial on the same kernels; the ratio
        // isolates the amortization win.
        let mut batched = Vec::new();
        for &fused in &[1usize, 2, 4, 8] {
            let group = &members[..fused];
            let total_queries = (fused * queries_per_member) as f64;
            let mut serial_wall = 0.0;
            let mut batched_wall = 0.0;
            for _ in 0..reps {
                let mut solo_results = Vec::with_capacity(fused);
                let t0 = Instant::now();
                for m in group {
                    engine.clear_embed_cache();
                    solo_results.push(engine.run_episode(&fb, m));
                }
                serial_wall += t0.elapsed().as_secs_f64() * 1e6 / total_queries;

                engine.clear_embed_cache();
                let requests: Vec<EpisodeRequest> = group
                    .iter()
                    .map(|m| EpisodeRequest {
                        task: m,
                        deadline: None,
                    })
                    .collect();
                let t0 = Instant::now();
                let fused_results = engine.run_episodes_batched(&fb, &requests);
                batched_wall += t0.elapsed().as_secs_f64() * 1e6 / total_queries;

                // The benchmark must never compare runs that answered
                // differently: fused members are bit-identical to solo
                // runs on Reference, tolerance-equal on Fast — either
                // way the predictions agree.
                for (solo, fused_r) in solo_results.iter().zip(&fused_results) {
                    assert_eq!(
                        Some(&solo.predictions),
                        fused_r.as_ref().ok().map(|f| &f.predictions),
                        "fused member must succeed (no deadline) and agree with solo"
                    );
                }
            }
            batched.push(BatchedTiming {
                batch: fused,
                queries_per_member,
                serial_per_query_micros: serial_wall / reps as f64,
                batched_per_query_micros: batched_wall / reps as f64,
            });
        }

        // Bit-identity across modes of ONE backend is asserted in
        // gp-core's tests; here we sanity-check the cheap observable so a
        // regression cannot ship a benchmark comparing different
        // predictions. Across backends the counts may legitimately drift
        // by tolerance, so no cross-row assert.
        assert_eq!(serial_cold.correct, serial_warm.correct);
        if let Some(p) = &parallel_cold {
            assert_eq!(serial_cold.correct, p.correct);
        }
        if let Some(d) = &disk_warm {
            assert_eq!(serial_cold.correct, d.correct);
        }
        rows.push(BackendRows {
            backend: b,
            serial_cold,
            serial_warm,
            parallel_cold,
            disk_warm,
            batched,
        });
    }
    engine.set_backend(Backend::Reference);

    InferBenchReport {
        host_cores,
        ways,
        queries,
        reps,
        backends: rows,
        wide_matmul: wide_matmul_bench(smoke),
    }
}
