//! Inference (Alg. 2): the full multi-stage pipeline over one few-shot
//! episode — embed candidates once, then per query batch: embed, score
//! (Eqs. 6–8), select, augment from the cache (Eq. 9), predict (Eqs.
//! 10–11), and update the cache with high-confidence pseudo-labels.
//!
//! Entry points: [`crate::Engine`] (preferred; owns the model, validated
//! configs and the cross-episode [`EmbeddingStore`]) or the deprecated
//! free-function shims kept for source compatibility.
//!
//! # Determinism
//!
//! Candidate and query subgraphs are sampled from RNGs derived per
//! datapoint — `mix(candidate_seed, point)` / `mix(seed, point)` — not
//! from one shared sequential stream. A datapoint therefore embeds
//! identically however the episode is batched, whatever the tensor-kernel
//! worker count, and whether or not its embedding came from the
//! [`EmbeddingStore`]: all three axes are bit-identical by construction
//! and asserted in tests.

use std::time::Instant;

use gp_datasets::{DataPoint, Dataset, FewShotTask};
use gp_graph::RandomWalkSampler;
use gp_nn::Session;
use gp_tensor::rng::StdRng;
use gp_tensor::{Tensor, WorkerPool};

use crate::augmenter::PromptAugmenter;
use crate::batch::SubgraphBatch;
use crate::cache::CachePolicy;
use crate::config::{InferenceConfig, PseudoLabelPolicy};
use crate::deadline::Deadline;
use crate::embed_store::EmbeddingStore;
use crate::error::DeadlineExceeded;
use crate::model::{sample_datapoint_subgraphs, GraphPrompterModel};
use crate::planner::EpisodeRequest;
use crate::selector::select_prompts_with_metric;

// Per-stage wall-clock of the Alg. 2 pipeline, recorded once per call to
// the corresponding stage (µs). Surfaced via `Engine::metrics_snapshot`
// and `gp --metrics`.
static SAMPLING_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("infer.sampling_micros");
static RECONSTRUCTION_MICROS: gp_obs::Histogram =
    gp_obs::Histogram::new("infer.reconstruction_micros");
static SELECTION_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("infer.selection_micros");
static AUGMENTATION_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("infer.augmentation_micros");
static TASK_GRAPH_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("infer.task_graph_micros");

/// Outcome of one evaluated episode.
#[derive(Clone, Debug)]
pub struct EpisodeResult {
    /// Correctly classified queries.
    pub correct: usize,
    /// Total queries.
    pub total: usize,
    /// Mean wall-clock time per query over the whole pipeline, µs.
    pub per_query_micros: f64,
    /// Mean wall-clock time per query spent embedding subgraphs
    /// (candidates amortized plus the query's own batch), µs. Always
    /// ≤ [`EpisodeResult::per_query_micros`]; the gap is selector, task
    /// graph and cache time.
    pub embed_micros: f64,
    /// Query data-graph embeddings (for the Fig. 7 embedding analysis).
    pub query_embeddings: Tensor,
    /// Ground-truth episode labels per query.
    pub query_labels: Vec<usize>,
    /// Predicted episode labels per query.
    pub predictions: Vec<usize>,
    /// Softmax probability of the predicted class per query — the model's
    /// confidence, independent of the pseudo-label admission policy.
    pub confidences: Vec<f32>,
}

impl EpisodeResult {
    /// Classification accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }
}

/// splitmix64-style combiner for deriving per-datapoint RNG seeds.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        ^ tag
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable 64-bit tag for a datapoint (node and edge spaces disjoint).
fn point_tag(p: DataPoint) -> u64 {
    match p {
        DataPoint::Node(n) => n as u64,
        DataPoint::Edge(e) => (1u64 << 32) | e as u64,
    }
}

/// Embed datapoints with no gradient tracking; each point's subgraph is
/// sampled from its own derived RNG (`mix(stream_seed, point)`), so the
/// result is independent of batch composition. With `cache` present,
/// memoized rows are reused and fresh rows are memoized.
fn embed_points(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    sampler: &RandomWalkSampler,
    points: &[DataPoint],
    use_reconstruction: bool,
    stream_seed: u64,
    cache: Option<&EmbeddingStore>,
) -> (Tensor, Vec<f32>) {
    let dim = model.config().embed_dim;
    let revision = model.store.revision();
    let sampler_cfg = sampler.config();
    // The dataset is part of the memo key: a DataPoint is only an id, so
    // Node(i) on two graphs names two different subgraphs.
    let dataset_id = if cache.is_some() {
        EmbeddingStore::dataset_id(dataset)
    } else {
        0
    };

    let mut rows: Vec<Option<(Vec<f32>, f32)>> = Vec::with_capacity(points.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, &p) in points.iter().enumerate() {
        let hit = cache.and_then(|c| {
            c.lookup(
                revision,
                dataset_id,
                p,
                stream_seed,
                &sampler_cfg,
                use_reconstruction,
            )
        });
        if hit.is_none() {
            missing.push(i);
        }
        rows.push(hit);
    }

    if !missing.is_empty() {
        // Sample every missing subgraph from its per-point RNG, embed them
        // as one batch (embedding is row/graph-local, so the batch
        // composition cannot affect any row's bits).
        let mut sgs = Vec::with_capacity(missing.len());
        {
            let _span = SAMPLING_MICROS.span();
            for &i in &missing {
                let mut rng = StdRng::seed_from_u64(mix(stream_seed, point_tag(points[i])));
                let mut one = sample_datapoint_subgraphs(
                    &dataset.graph,
                    sampler,
                    &[points[i]],
                    dataset.task,
                    &mut rng,
                );
                #[expect(
                    clippy::expect_used,
                    reason = "the sampler returns one subgraph per input point"
                )]
                sgs.push(one.pop().expect("one subgraph per point"));
            }
        }
        let _span = RECONSTRUCTION_MICROS.span();
        let batch = match SubgraphBatch::build(&dataset.graph, &sgs, model.config().rel_dim) {
            Ok(b) => b,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: `missing` is non-empty and sampled subgraphs always carry their anchors"
            )]
            Err(e) => unreachable!("subgraph fusion failed: {e}"),
        };
        let mut sess = Session::new(&model.store);
        let emb = model.embed_batch(&mut sess, &batch, use_reconstruction);
        let e = sess.value(emb.embeddings);
        let imps = sess.value(emb.importance).as_slice().to_vec();
        for (slot, &i) in missing.iter().enumerate() {
            let row = e.row(slot).to_vec();
            let imp = imps[slot];
            if let Some(c) = cache {
                c.insert(
                    revision,
                    dataset_id,
                    points[i],
                    stream_seed,
                    &sampler_cfg,
                    use_reconstruction,
                    row.clone(),
                    imp,
                );
            }
            rows[i] = Some((row, imp));
        }
    }

    let mut data = Vec::with_capacity(points.len() * dim);
    let mut importances = Vec::with_capacity(points.len());
    for row in rows {
        #[expect(
            clippy::expect_used,
            reason = "every row is filled above, from the store or from the fresh embedding pass"
        )]
        let (emb, imp) = row.expect("every row resolved");
        debug_assert_eq!(emb.len(), dim);
        data.extend_from_slice(&emb);
        importances.push(imp);
    }
    (Tensor::from_vec(points.len(), dim, data), importances)
}

/// Cumulative per-stage wall-clock for the partial-timing diagnostics a
/// deadline abort carries. Only active when a deadline is present, so
/// the deadline-free path pays no extra clock reads.
struct StageClock {
    active: bool,
    stages: Vec<(&'static str, u64)>,
}

impl StageClock {
    fn new(active: bool) -> Self {
        Self {
            active,
            stages: Vec::new(),
        }
    }

    /// Time `f`, attributing its wall-clock to `stage`.
    fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.active {
            return f();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "deadline-abort diagnostics only; never feeds a prediction"
        )]
        let started = Instant::now();
        let out = f();
        self.add(stage, started.elapsed().as_micros() as u64);
        out
    }

    /// Accumulate `micros` onto `stage`.
    fn add(&mut self, stage: &'static str, micros: u64) {
        if !self.active {
            return;
        }
        match self.stages.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, total)) => *total += micros,
            None => self.stages.push((stage, micros)),
        }
    }
}

/// `Err` when `deadline` has expired at the boundary named `stage`,
/// carrying progress and the partial stage timing collected so far.
fn check_deadline(
    deadline: Option<Deadline>,
    stage: &'static str,
    completed_queries: usize,
    total_queries: usize,
    clock: &StageClock,
) -> Result<(), DeadlineExceeded> {
    match deadline {
        Some(d) if d.expired() => Err(DeadlineExceeded {
            stage,
            completed_queries,
            total_queries,
            stage_micros: clock.stages.clone(),
        }),
        _ => Ok(()),
    }
}

/// Run Alg. 2 over one episode; `cache` memoizes candidate embeddings
/// across calls (the Engine passes its [`EmbeddingStore`]).
pub(crate) fn run_episode_impl(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    task: &FewShotTask,
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
) -> EpisodeResult {
    match run_episode_deadline_impl(model, dataset, task, cfg, cache, None) {
        Ok(res) => res,
        #[expect(
            clippy::unreachable,
            reason = "structurally impossible: a None deadline never expires"
        )]
        Err(_) => unreachable!("an episode without a deadline cannot time out"),
    }
}

/// As [`run_episode_impl`], enforcing `deadline` at the stage boundaries
/// of the pipeline: after candidate embedding, and after each query
/// batch's embed / selection / task-graph stages. Work completed before
/// the expiry is bit-identical to an undeadlined run — the clock decides
/// only whether to continue, never what to compute.
pub(crate) fn run_episode_deadline_impl(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    task: &FewShotTask,
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
    deadline: Option<Deadline>,
) -> Result<EpisodeResult, DeadlineExceeded> {
    run_episode_inner(model, dataset, task, cfg, cache, deadline, None)
}

/// Query rows for one episode pre-embedded by a fused cross-request pass.
/// Row `i` corresponds to `task.queries[i]` and is bit-identical to what
/// the serial path would compute: each row's subgraph RNG derives from
/// `mix(cfg.seed, point)` and embedding is row/graph-local, so batch
/// composition cannot leak into any member's bits.
struct PreparedQueries {
    /// `Q×embed_dim` query embeddings in episode-local row order.
    embs: Tensor,
    /// Importance scalars parallel to `embs` rows.
    imps: Vec<f32>,
    /// This member's share of fused-pass wall-clock, µs (diagnostics only).
    fused_micros: u64,
}

/// The single-episode pipeline behind both the serial and the batched
/// entry points. With `prepared` present, query chunks gather their rows
/// from the fused pass instead of embedding on the spot; everything
/// downstream (selection, augmenter, task graph, RNG draws) is identical.
fn run_episode_inner(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    task: &FewShotTask,
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
    deadline: Option<Deadline>,
    prepared: Option<&PreparedQueries>,
) -> Result<EpisodeResult, DeadlineExceeded> {
    let mut clock = StageClock::new(deadline.is_some());
    let total_queries = task.queries.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let m = task.ways();
    let stages = cfg.stages;
    let random_pseudo_labels = cfg.pseudo_labels == PseudoLabelPolicy::UniformRandom;

    #[expect(
        clippy::disallowed_methods,
        reason = "wall time feeds only the EpisodeResult timing diagnostics, never a prediction"
    )]
    let started = Instant::now();
    let mut embed_nanos = 0u128;
    if let Some(p) = prepared {
        // The fused cross-request passes already paid this member's embed
        // cost; surface it in the same diagnostics a serial run reports.
        embed_nanos += u128::from(p.fused_micros) * 1_000;
        clock.add("query_embed", p.fused_micros);
    }

    // Prompt Generator over the candidate set S (embedded once, memoized
    // across episodes when a cache is present: candidate subgraph RNGs
    // derive from `candidate_seed`, not the episode seed).
    let (cand_points, cand_labels): (Vec<_>, Vec<_>) = task.candidates.iter().copied().unzip();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time feeds only the EpisodeResult timing diagnostics, never a prediction"
    )]
    let embed_started = Instant::now();
    let (cand_embs, cand_imps) = embed_points(
        model,
        dataset,
        &sampler,
        &cand_points,
        stages.use_reconstruction,
        cfg.candidate_seed,
        cache,
    );
    let cand_embed_nanos = embed_started.elapsed().as_nanos();
    embed_nanos += cand_embed_nanos;
    clock.add("candidate_embed", (cand_embed_nanos / 1_000) as u64);
    check_deadline(deadline, "candidate_embed", 0, total_queries, &clock)?;

    // Per-class caches of size c; admission takes each class's most
    // confident gated query per batch ("|Q̂| ≤ m").
    let min_confidence = match cfg.pseudo_labels {
        PseudoLabelPolicy::Confidence { min } => min,
        PseudoLabelPolicy::UniformRandom => 0.0,
    };
    let mut augmenter = PromptAugmenter::with_policy(cfg.cache_size.max(1), m, cfg.cache_policy)
        .with_min_confidence(min_confidence);
    let mut correct = 0usize;
    let mut predictions = Vec::with_capacity(task.queries.len());
    let mut all_confidences = Vec::with_capacity(task.queries.len());
    let mut query_labels = Vec::with_capacity(task.queries.len());
    // Raw row accumulator, materialized as one Tensor at the end: a
    // per-chunk `concat_rows` re-copied every prior row each iteration
    // (O(Q²) in the query count).
    let embed_dim = model.config().embed_dim;
    let mut all_query_embs: Vec<f32> = Vec::with_capacity(task.queries.len() * embed_dim);

    let mut q_offset = 0usize;
    for chunk in task.queries.chunks(cfg.query_batch.max(1)) {
        let (q_points, q_labels): (Vec<_>, Vec<_>) = chunk.iter().copied().unzip();
        let (q_embs, q_imps) = match prepared {
            // Fused path: this chunk's rows were embedded by the shared
            // cross-request pass; gathering them is bit-identical to
            // embedding the chunk alone.
            Some(p) => {
                let idx: Vec<usize> = (q_offset..q_offset + chunk.len()).collect();
                (
                    p.embs.gather_rows(&idx),
                    p.imps[q_offset..q_offset + chunk.len()].to_vec(),
                )
            }
            None => {
                // Query embeddings are never memoized: their RNG stream is
                // per-episode (`cfg.seed`), and each query appears once.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall time feeds only the EpisodeResult timing diagnostics, never a prediction"
                )]
                let embed_started = Instant::now();
                let out = embed_points(
                    model,
                    dataset,
                    &sampler,
                    &q_points,
                    stages.use_reconstruction,
                    cfg.seed,
                    None,
                );
                let q_embed_nanos = embed_started.elapsed().as_nanos();
                embed_nanos += q_embed_nanos;
                clock.add("query_embed", (q_embed_nanos / 1_000) as u64);
                out
            }
        };
        q_offset += chunk.len();
        check_deadline(
            deadline,
            "query_embed",
            predictions.len(),
            total_queries,
            &clock,
        )?;

        // Prompt Selector: score + vote → Ŝ (k per class).
        let selection = clock.time("selection", || {
            let _span = SELECTION_MICROS.span();
            select_prompts_with_metric(
                &cand_embs,
                &cand_imps,
                &cand_labels,
                &q_embs,
                &q_imps,
                m,
                cfg.shots,
                stages.use_knn,
                stages.use_selection_layer,
                cfg.knn_metric,
                &mut rng,
            )
        });
        check_deadline(
            deadline,
            "selection",
            predictions.len(),
            total_queries,
            &clock,
        )?;

        // Assemble the task-graph prompt rows: Ŝ, importance-weighted when
        // the selection layer is active, then Ŝ' = Ŝ ∪ C (Eq. 9).
        let mut p_rows = cand_embs.gather_rows(&selection.selected);
        if stages.use_selection_layer {
            let imps = Tensor::from_vec(
                selection.selected.len(),
                1,
                selection.selected.iter().map(|&i| cand_imps[i]).collect(),
            );
            p_rows = p_rows.mul_rows_by_col(&imps);
        }
        let mut p_labels: Vec<usize> = selection.selected.iter().map(|&i| cand_labels[i]).collect();
        if stages.use_augmenter {
            let _span = AUGMENTATION_MICROS.span();
            if let Some((c_embs, c_labels)) = augmenter.cached_prompts(cand_embs.cols()) {
                p_rows = p_rows.concat_rows(&c_embs.scale(cfg.cache_prompt_scale));
                p_labels.extend(c_labels);
            }
        }

        // Task graph (Eq. 10) + cosine argmax prediction (Eq. 11).
        let logits = clock.time("task_graph", || {
            let _span = TASK_GRAPH_MICROS.span();
            let mut sess = Session::new(&model.store);
            let pv = sess.data(p_rows);
            let qv = sess.data(q_embs.clone());
            let out = model.task_forward(&mut sess, pv, &p_labels, qv, m);
            sess.value(out.logits).clone()
        });
        let preds = logits.argmax_rows();
        let probs = logits.softmax_rows();
        let confidences: Vec<f32> = (0..preds.len())
            .map(|r| {
                if random_pseudo_labels {
                    rng.next_f32()
                } else {
                    probs.get(r, preds[r])
                }
            })
            .collect();

        correct += preds.iter().zip(&q_labels).filter(|(a, b)| a == b).count();
        // Model confidence per query (always the softmax of the argmax:
        // the pseudo-label policy above may randomize its own copy, but
        // the reported confidence stays the model's).
        all_confidences.extend((0..preds.len()).map(|r| probs.get(r, preds[r])));
        predictions.extend(preds.iter().copied());
        query_labels.extend(q_labels.iter().copied());
        all_query_embs.extend_from_slice(q_embs.as_slice());

        // Prompt Augmenter: LFU hits + high-confidence admissions. Cached
        // embeddings are importance-weighted exactly like selected prompts
        // (Ŝ and C must live on the same scale inside the task graph).
        if stages.use_augmenter {
            let _span = AUGMENTATION_MICROS.span();
            let admit_embs = if stages.use_selection_layer {
                let imps = Tensor::from_vec(q_imps.len(), 1, q_imps.clone());
                q_embs.mul_rows_by_col(&imps)
            } else {
                q_embs.clone()
            };
            // Oracle bound: wrong pseudo-labels never enter the cache.
            let confidences = if cfg.cache_policy == CachePolicy::Oracle {
                preds
                    .iter()
                    .zip(&q_labels)
                    .zip(&confidences)
                    .map(|((p, t), &c)| if p == t { c } else { 0.0 })
                    .collect()
            } else {
                confidences
            };
            augmenter.observe(&admit_embs, &preds, &confidences);
        }
        // A finished episode is always returned, even if the deadline
        // fired during its final chunk — the work is already done.
        if predictions.len() < total_queries {
            check_deadline(
                deadline,
                "task_graph",
                predictions.len(),
                total_queries,
                &clock,
            )?;
        }
    }

    let total = task.queries.len();
    let elapsed = started.elapsed();
    Ok(EpisodeResult {
        correct,
        total,
        per_query_micros: elapsed.as_micros() as f64 / total.max(1) as f64,
        embed_micros: embed_nanos as f64 / 1000.0 / total.max(1) as f64,
        query_embeddings: Tensor::from_vec(query_labels.len(), embed_dim, all_query_embs),
        query_labels,
        predictions,
        confidences: all_confidences,
    })
}

/// Run Alg. 2 over several episodes as one fused batch (the cross-request
/// batching layer behind [`crate::Engine::run_episodes_batched`]).
///
/// Two fused passes amortize the embedding cost across members:
/// 1. the deduplicated union of every member's candidate points is
///    embedded once through the (possibly transient) [`EmbeddingStore`],
///    so each member's candidate gather is a cache hit;
/// 2. every live member's query points are stacked into one
///    block-diagonal [`SubgraphBatch`] pass, and per-member rows are
///    sliced back out.
///
/// Because subgraph RNGs derive per datapoint and embedding is
/// row/graph-local, results are bit-identical on `Backend::Reference` to
/// running each member alone — batch membership cannot leak into any
/// member's predictions, embeddings, or confidences. Deadlines stay
/// per-member: an expired member yields its own [`DeadlineExceeded`]
/// without poisoning the rest of the batch.
pub(crate) fn run_episodes_batched_impl(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    requests: &[EpisodeRequest<'_>],
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
) -> Vec<Result<EpisodeResult, DeadlineExceeded>> {
    if requests.is_empty() {
        return Vec::new();
    }
    if requests.len() == 1 {
        let req = &requests[0];
        return vec![run_episode_inner(
            model,
            dataset,
            req.task,
            cfg,
            cache,
            req.deadline,
            None,
        )];
    }
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let stages = cfg.stages;

    // Candidate union, deduplicated by point tag (sorted Vec membership —
    // no hash iteration), preserving first-seen order.
    let mut union_points: Vec<DataPoint> = Vec::new();
    let mut seen_tags: Vec<u64> = Vec::new();
    for req in requests {
        for &(p, _) in &req.task.candidates {
            let tag = point_tag(p);
            if let Err(pos) = seen_tags.binary_search(&tag) {
                seen_tags.insert(pos, tag);
                union_points.push(p);
            }
        }
    }

    // The fused candidate pass lands in the engine's store when present,
    // else in a transient one scoped to this batch. The store is
    // transparent (asserted in tests), so member bits cannot change.
    let transient;
    let store: &EmbeddingStore = match cache {
        Some(c) => c,
        None => {
            transient = EmbeddingStore::new(union_points.len().max(1));
            &transient
        }
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "wall time feeds only timing diagnostics, never a prediction"
    )]
    let cand_started = Instant::now();
    if !union_points.is_empty() {
        let _ = embed_points(
            model,
            dataset,
            &sampler,
            &union_points,
            stages.use_reconstruction,
            cfg.candidate_seed,
            Some(store),
        );
    }
    let union_micros = cand_started.elapsed().as_micros() as u64;

    // Members whose deadline expired while the shared candidate pass ran
    // abort at the same boundary a serial run would.
    let mut results: Vec<Option<Result<EpisodeResult, DeadlineExceeded>>> =
        requests.iter().map(|_| None).collect();
    let mut live: Vec<usize> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        match req.deadline {
            Some(d) if d.expired() => {
                results[i] = Some(Err(DeadlineExceeded {
                    stage: "candidate_embed",
                    completed_queries: 0,
                    total_queries: req.task.queries.len(),
                    stage_micros: vec![("candidate_embed", union_micros)],
                }));
            }
            _ => live.push(i),
        }
    }

    // One stacked pass over every live member's queries. Queries are
    // never memoized (their RNG stream is the per-episode `cfg.seed`), so
    // this goes straight through `embed_points` with no cache.
    let q_points: Vec<DataPoint> = live
        .iter()
        .flat_map(|&i| requests[i].task.queries.iter().map(|&(p, _)| p))
        .collect();
    let mut fused = None;
    let mut fused_q_micros = 0u64;
    if !q_points.is_empty() {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time feeds only timing diagnostics, never a prediction"
        )]
        let q_started = Instant::now();
        fused = Some(embed_points(
            model,
            dataset,
            &sampler,
            &q_points,
            stages.use_reconstruction,
            cfg.seed,
            None,
        ));
        fused_q_micros = q_started.elapsed().as_micros() as u64;
    }

    let mut offset = 0usize;
    for &i in &live {
        let req = &requests[i];
        let q = req.task.queries.len();
        let prepared = fused.as_ref().map(|(embs, imps)| {
            let idx: Vec<usize> = (offset..offset + q).collect();
            PreparedQueries {
                embs: embs.gather_rows(&idx),
                imps: imps[offset..offset + q].to_vec(),
                fused_micros: union_micros + fused_q_micros,
            }
        });
        offset += q;
        results[i] = Some(run_episode_inner(
            model,
            dataset,
            req.task,
            cfg,
            Some(store),
            req.deadline,
            prepared.as_ref(),
        ));
    }

    results
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            #[expect(
                clippy::unreachable,
                reason = "structurally impossible: every index is either expired above or in `live`"
            )]
            None => unreachable!("batched episode slot left unfilled"),
        })
        .collect()
}

/// Evaluate `episodes` independent episodes of `ways`-way classification
/// and return per-episode accuracies (in %). Episode `i` derives its
/// episode-sampling and pipeline seeds from `cfg.seed`. `cache` is shared by
/// every episode worker, so candidate embeddings computed by one episode
/// are reused by all later ones (their subgraph RNGs derive from
/// `cfg.candidate_seed`, which stays fixed across episodes).
///
/// Episode-level parallelism draws from the same thread budget as the
/// tensor kernels: with `episode_workers > 1` the episodes run as tasks
/// on `pool` (or a transient budget-sized [`WorkerPool`] when none is
/// given), whose queue also executes any kernel fan-out from inside an
/// episode — total live threads never exceed the budget. Results land in
/// fixed per-episode slots, so scheduling order cannot perturb them:
/// accuracies are bit-identical to a sequential run for any worker count.
///
/// The caller's active [`gp_tensor::Backend`] is captured on entry and
/// re-installed inside every episode task — pool workers have their own
/// thread-local backend slot, so without this an engine configured for
/// the Fast kernels would silently run pooled episodes on Reference.
#[allow(
    clippy::too_many_arguments,
    reason = "crate-internal; Engine passes its own config, store and pool through"
)]
pub(crate) fn evaluate_episodes_impl(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    ways: usize,
    queries_per_episode: usize,
    episodes: usize,
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
    pool: Option<&WorkerPool>,
    episode_workers: usize,
) -> Vec<f32> {
    let backend = gp_tensor::installed_backend();
    let one = |i: usize| -> f32 {
        let _be = backend.install();
        let mut ep_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64 * 7919));
        let task = gp_datasets::sample_few_shot_task(
            dataset,
            ways,
            cfg.candidates_per_class,
            queries_per_episode,
            &mut ep_rng,
        );
        let mut ep_cfg = cfg.clone();
        ep_cfg.seed = cfg.seed.wrapping_add(i as u64 * 104_729);
        // candidate_seed is deliberately NOT varied: episode i and episode
        // j sample a shared candidate's subgraph identically, which is
        // what lets `cache` serve both.
        run_episode_impl(model, dataset, &task, &ep_cfg, cache).accuracy() * 100.0
    };

    if episode_workers <= 1 || episodes <= 1 {
        return (0..episodes).map(one).collect();
    }
    let transient;
    let pool = match pool {
        Some(p) => p,
        None => {
            transient = WorkerPool::with_budget(episode_workers);
            &transient
        }
    };
    // Kernels inside the episodes must share the budget too (idle pool
    // workers steal their row-blocks instead of new threads spawning).
    let _ctx = pool.install();
    let mut results = vec![0.0f32; episodes];
    let slots: Vec<std::sync::Mutex<&mut f32>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    pool.for_each_index(episodes, |i| {
        let acc = one(i);
        // Each slot is touched by exactly one task; a poisoned lock can
        // only mean that task already panicked, so recovery is safe.
        **slots[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = acc;
    });
    drop(slots);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, PretrainConfig, StageConfig};
    use crate::model::GraphPrompterModel;
    use crate::pretrain::pretrain;
    use gp_datasets::{sample_few_shot_task, CitationConfig};
    use gp_graph::SamplerConfig;

    fn tiny_setup() -> (GraphPrompterModel, Dataset) {
        let ds = CitationConfig::new("t", 300, 5, 31).generate();
        let model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        (model, ds)
    }

    fn tiny_cfg() -> InferenceConfig {
        InferenceConfig {
            shots: 2,
            candidates_per_class: 4,
            cache_size: 2,
            query_batch: 5,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 10,
                neighbors_per_node: 5,
            },
            ..InferenceConfig::default()
        }
    }

    #[test]
    fn episode_runs_and_reports_consistent_counts() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(0);
        let task = sample_few_shot_task(&ds, 3, 4, 12, &mut rng);
        let res = run_episode_impl(&model, &ds, &task, &tiny_cfg(), None);
        assert_eq!(res.total, 12);
        assert_eq!(res.predictions.len(), 12);
        assert_eq!(res.query_labels.len(), 12);
        assert_eq!(res.query_embeddings.rows(), 12);
        assert!(res.correct <= res.total);
        assert!(res.per_query_micros > 0.0);
        assert!(res.embed_micros > 0.0);
        assert!(res.embed_micros <= res.per_query_micros);
        assert!(res.predictions.iter().all(|&p| p < 3));
    }

    #[test]
    fn prodigy_stages_run_without_cache_or_scoring() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(1);
        let task = sample_few_shot_task(&ds, 3, 4, 9, &mut rng);
        let mut cfg = tiny_cfg();
        cfg.stages = StageConfig::prodigy();
        let res = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(res.total, 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let task = sample_few_shot_task(&ds, 3, 4, 10, &mut rng);
        let cfg = tiny_cfg();
        let a = run_episode_impl(&model, &ds, &task, &cfg, None);
        let b = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.correct, b.correct);
    }

    #[test]
    fn pretrained_model_beats_chance() {
        let (mut model, ds) = tiny_setup();
        let pre = PretrainConfig {
            steps: 80,
            ways: 4,
            shots: 2,
            queries: 4,
            nm_ways: 3,
            nm_shots: 2,
            nm_queries: 3,
            log_every: 40,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 10,
                neighbors_per_node: 5,
            },
            ..PretrainConfig::default()
        };
        pretrain(&mut model, &ds, &pre, StageConfig::full());
        let accs = evaluate_episodes_impl(&model, &ds, 3, 12, 3, &tiny_cfg(), None, None, 1);
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        // Chance is 33%; a pre-trained model must do clearly better.
        assert!(mean > 45.0, "mean accuracy {mean}% not above chance");
    }

    #[test]
    fn random_pseudo_label_policy_runs() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let task = sample_few_shot_task(&ds, 3, 4, 10, &mut rng);
        let mut cfg = tiny_cfg();
        cfg.pseudo_labels = PseudoLabelPolicy::UniformRandom;
        let res = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(res.total, 10);
    }

    #[test]
    fn oracle_cache_policy_runs() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(4);
        let task = sample_few_shot_task(&ds, 3, 4, 10, &mut rng);
        let mut cfg = tiny_cfg();
        cfg.cache_policy = CachePolicy::Oracle;
        cfg.pseudo_labels = PseudoLabelPolicy::Confidence { min: 0.0 };
        let res = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(res.total, 10);
    }

    #[test]
    fn kernel_parallelism_is_bit_identical() {
        // The whole-pipeline counterpart of the tensor-level proptests:
        // accuracies (and predictions) must not depend on the thread
        // budget. Per-instance pools, not the deprecated global knob — the
        // old version raced against sibling tests in this binary.
        let (model, ds) = tiny_setup();
        let cfg = tiny_cfg();
        let serial = evaluate_episodes_impl(&model, &ds, 3, 12, 3, &cfg, None, None, 1);
        let pool = gp_tensor::WorkerPool::with_budget(4);
        let parallel = evaluate_episodes_impl(&model, &ds, 3, 12, 3, &cfg, None, Some(&pool), 4);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&serial), to_bits(&parallel));
        let stats = pool.stats();
        assert!(stats.peak_active <= 4, "budget exceeded: {stats:?}");
        assert!(stats.tasks_executed >= 3, "episodes must run on the pool");

        let mut rng = StdRng::seed_from_u64(5);
        let task = sample_few_shot_task(&ds, 3, 4, 10, &mut rng);
        let a = {
            let kernel_pool = gp_tensor::WorkerPool::with_budget(3);
            let _ctx = kernel_pool.install();
            run_episode_impl(&model, &ds, &task, &cfg, None)
        };
        let b = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(
            to_bits(a.query_embeddings.as_slice()),
            to_bits(b.query_embeddings.as_slice())
        );
    }

    #[test]
    fn embedding_cache_is_transparent_and_reused() {
        let (model, ds) = tiny_setup();
        let cfg = tiny_cfg();
        let store = EmbeddingStore::new(4096);
        let cold = evaluate_episodes_impl(&model, &ds, 3, 12, 4, &cfg, None, None, 1);
        let warm1 = evaluate_episodes_impl(&model, &ds, 3, 12, 4, &cfg, Some(&store), None, 1);
        let warm2 = evaluate_episodes_impl(&model, &ds, 3, 12, 4, &cfg, Some(&store), None, 1);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            to_bits(&cold),
            to_bits(&warm1),
            "cache must not change results"
        );
        assert_eq!(to_bits(&warm1), to_bits(&warm2));
        let stats = store.stats();
        assert!(stats.hits > 0, "second pass must hit: {stats:?}");
        assert!(stats.len > 0);
    }

    #[test]
    fn embedding_cache_shared_across_datasets_stays_transparent() {
        // Regression: the same store serving evaluations of two different
        // graphs (same candidate_seed, sampler, stages, weights — as the
        // experiment harness does with one Engine) must never serve one
        // graph's Node(i)/Edge(i) embedding for the other.
        let (model, ds_a) = tiny_setup();
        let ds_b = CitationConfig::new("other", 280, 4, 77).generate();
        let cfg = tiny_cfg();
        let store = EmbeddingStore::new(4096);
        let a_ref = evaluate_episodes_impl(&model, &ds_a, 3, 12, 3, &cfg, None, None, 1);
        let b_ref = evaluate_episodes_impl(&model, &ds_b, 3, 12, 3, &cfg, None, None, 1);
        // Warm the store on dataset A, then evaluate B against the warm
        // store, then A again (B's entries now resident too).
        let a1 = evaluate_episodes_impl(&model, &ds_a, 3, 12, 3, &cfg, Some(&store), None, 1);
        let b1 = evaluate_episodes_impl(&model, &ds_b, 3, 12, 3, &cfg, Some(&store), None, 1);
        let a2 = evaluate_episodes_impl(&model, &ds_a, 3, 12, 3, &cfg, Some(&store), None, 1);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&a_ref), to_bits(&a1));
        assert_eq!(
            to_bits(&b_ref),
            to_bits(&b1),
            "dataset B served A's embeddings"
        );
        assert_eq!(to_bits(&a_ref), to_bits(&a2));
    }

    #[test]
    fn embedding_cache_invalidates_when_weights_change() {
        let (mut model, ds) = tiny_setup();
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let task = sample_few_shot_task(&ds, 3, 4, 8, &mut rng);
        let store = EmbeddingStore::new(4096);

        let before = run_episode_impl(&model, &ds, &task, &cfg, Some(&store));
        assert!(store.stats().len > 0);

        // Mutate one weight through try_set: revision bumps, and the next
        // lookup must drop every memoized row instead of serving stale
        // embeddings.
        let (id, tensor) = {
            let (id, t) = model.store.iter().next().expect("model has params");
            (id, t.clone())
        };
        let mut bumped = tensor.clone();
        bumped.as_mut_slice()[0] += 0.25;
        model.store.try_set(id, bumped).expect("same shape");

        let after = run_episode_impl(&model, &ds, &task, &cfg, Some(&store));
        assert_eq!(store.stats().invalidations, 1, "{:?}", store.stats());

        // Fresh embeddings under the new weights must equal a cache-less
        // run — i.e. nothing stale leaked through.
        let reference = run_episode_impl(&model, &ds, &task, &cfg, None);
        assert_eq!(after.predictions, reference.predictions);
        let to_bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            to_bits(&after.query_embeddings),
            to_bits(&reference.query_embeddings)
        );

        // And restoring the original weights (try_restore) invalidates again.
        let snap: Vec<Tensor> = {
            let mut m2 = GraphPrompterModel::new(ModelConfig {
                embed_dim: 16,
                hidden_dim: 24,
                ..ModelConfig::default()
            });
            m2.store.try_set(id, tensor).expect("same shape");
            m2.store.snapshot()
        };
        model.store.try_restore(&snap).expect("same layout");
        let _ = run_episode_impl(&model, &ds, &task, &cfg, Some(&store));
        assert_eq!(store.stats().invalidations, 2);
        let _ = before;
    }
}
