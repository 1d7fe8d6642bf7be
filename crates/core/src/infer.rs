//! Inference (Alg. 2): the full multi-stage pipeline over few-shot
//! episodes — embed candidates once, then per query batch: embed, score
//! (Eqs. 6–8), select, augment from the cache (Eq. 9), predict (Eqs.
//! 10–11), and update the cache with high-confidence pseudo-labels.
//!
//! There is one episode path. It fuses the candidate and query embedding
//! passes of every member of a batch, and a solo episode is a batch of
//! one. The entry point is [`crate::Engine`], which owns the model, the
//! validated configs and the cross-episode [`EmbeddingStore`].
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

use std::collections::BTreeMap;
use std::time::Instant;

use gp_datasets::{DataPoint, Dataset};
use gp_graph::RandomWalkSampler;
use gp_nn::{Eval, Forward};
use gp_tensor::rng::StdRng;
use gp_tensor::Tensor;

use crate::augmenter::PromptAugmenter;
use crate::batch::SubgraphBatch;
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
    /// Mean wall-clock time per query over the whole pipeline, from the
    /// start of the call that ran the episode, µs.
    pub per_query_micros: f64,
    /// Mean wall-clock time per query spent in the call's two embedding
    /// passes (candidate union and stacked queries, shared by every
    /// member of a fused batch), µs. Always ≤
    /// [`EpisodeResult::per_query_micros`]; the gap is selector, task
    /// graph and cache time, in a fused batch also that of the members
    /// answered before this one.
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

/// Embed datapoints on the tape-free [`Eval`] pass; each point's subgraph
/// is sampled from its own derived RNG (`mix(stream_seed, point)`), so the
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

    // Row `slot` of the fresh pass embeds `points[missing[slot]]`.
    let (fresh, fresh_imps) = if missing.is_empty() {
        (Tensor::zeros(0, dim), Vec::new())
    } else {
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
        let batch = SubgraphBatch::build(&dataset.graph, &sgs, model.config().rel_dim);
        let mut ev = Eval::new(&model.store);
        let emb = model.embed_batch(&mut ev, &batch, use_reconstruction);
        let e = emb.embeddings.into_owned();
        let imps = emb.importance.as_slice().to_vec();
        if let Some(c) = cache {
            for (slot, &i) in missing.iter().enumerate() {
                c.insert(
                    revision,
                    dataset_id,
                    points[i],
                    stream_seed,
                    &sampler_cfg,
                    use_reconstruction,
                    e.row(slot).to_vec(),
                    imps[slot],
                );
            }
        }
        (e, imps)
    };
    if missing.len() == points.len() {
        // Nothing came from the store: the fresh pass is the whole result.
        return (fresh, fresh_imps);
    }

    let mut data = Vec::with_capacity(points.len() * dim);
    let mut importances = Vec::with_capacity(points.len());
    let mut slot = 0;
    for row in rows {
        match row {
            Some((emb, imp)) => {
                debug_assert_eq!(emb.len(), dim);
                data.extend_from_slice(&emb);
                importances.push(imp);
            }
            None => {
                data.extend_from_slice(fresh.row(slot));
                importances.push(fresh_imps[slot]);
                slot += 1;
            }
        }
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

/// Run Alg. 2 over a batch of episodes sharing `cfg` — the one episode
/// path: a solo episode is a batch of one.
///
/// 1. The deduplicated union of every member's candidate points is
///    embedded once through `cache` (one store lookup per distinct point).
/// 2. Members whose deadline expired during that pass abort at
///    `candidate_embed`.
/// 3. Every live member's queries are embedded in one stacked pass, then
///    checked against `query_embed`.
/// 4. Each member runs its per-chunk selection, augmenter and task-graph
///    loop (chunks of `cfg.query_batch`) over its own rows of the two
///    passes, gathered by index.
///
/// Subgraph RNGs derive per datapoint and embedding is row/graph-local,
/// so on `Backend::Reference` a member's result is bit-identical whatever
/// else shares its batch. Deadlines stay per member, enforced at the
/// stage boundaries above and after each chunk's selection and task
/// graph: an expired member yields its own [`DeadlineExceeded`] without
/// poisoning the rest, and work completed before an expiry is
/// bit-identical to an undeadlined run — the clock decides only whether
/// to continue, never what to compute.
#[expect(
    clippy::disallowed_methods,
    reason = "wall time feeds only the EpisodeResult timing diagnostics, never a prediction"
)]
pub(crate) fn run_episodes(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    requests: &[EpisodeRequest<'_>],
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
) -> Vec<Result<EpisodeResult, DeadlineExceeded>> {
    // Every member's clock starts here, so its per-query time covers the
    // shared passes charged to its `embed_micros`.
    let started = Instant::now();
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let stages = cfg.stages;
    let random_pseudo_labels = cfg.pseudo_labels == PseudoLabelPolicy::UniformRandom;
    let min_confidence = match cfg.pseudo_labels {
        PseudoLabelPolicy::Confidence { min } => min,
        PseudoLabelPolicy::UniformRandom => 0.0,
    };

    // Prompt Generator over the candidate union in first-seen order, each
    // member's candidates kept as rows of it. Candidate subgraph RNGs
    // derive from `candidate_seed`, not the episode seed, so the store
    // serves them across episodes.
    let mut union_points: Vec<DataPoint> = Vec::new();
    let mut union_rows: BTreeMap<u64, usize> = BTreeMap::new();
    let cand_rows: Vec<Vec<usize>> = requests
        .iter()
        .map(|req| {
            req.task
                .candidates
                .iter()
                .map(|&(p, _)| {
                    *union_rows.entry(point_tag(p)).or_insert_with(|| {
                        union_points.push(p);
                        union_points.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let cand_started = Instant::now();
    let (cand_all, cand_all_imps) = embed_points(
        model,
        dataset,
        &sampler,
        &union_points,
        stages.use_reconstruction,
        cfg.candidate_seed,
        cache,
    );
    let cand_nanos = cand_started.elapsed().as_nanos();

    let admitted: Vec<Result<StageClock, DeadlineExceeded>> = requests
        .iter()
        .map(|req| {
            let mut clock = StageClock::new(req.deadline.is_some());
            clock.add("candidate_embed", (cand_nanos / 1_000) as u64);
            check_deadline(
                req.deadline,
                "candidate_embed",
                0,
                req.task.queries.len(),
                &clock,
            )?;
            Ok(clock)
        })
        .collect();

    // Queries are never memoized: their RNG stream is the per-episode
    // `cfg.seed`, and each query appears once.
    let q_points: Vec<DataPoint> = requests
        .iter()
        .zip(&admitted)
        .filter(|(_, a)| a.is_ok())
        .flat_map(|(req, _)| req.task.queries.iter().map(|&(p, _)| p))
        .collect();
    let q_started = Instant::now();
    let (query_all, query_all_imps) = embed_points(
        model,
        dataset,
        &sampler,
        &q_points,
        stages.use_reconstruction,
        cfg.seed,
        None,
    );
    let q_nanos = q_started.elapsed().as_nanos();
    let embed_nanos = cand_nanos + q_nanos;

    let mut q_next = 0usize;
    requests
        .iter()
        .zip(&cand_rows)
        .zip(admitted)
        .map(|((req, member_cands), admitted)| {
            let mut clock = admitted?;
            let task = req.task;
            let total = task.queries.len();
            let q_first = q_next;
            q_next += total;
            clock.add("query_embed", (q_nanos / 1_000) as u64);
            check_deadline(req.deadline, "query_embed", 0, total, &clock)?;

            let cand_embs = cand_all.gather_rows(member_cands);
            let cand_imps: Vec<f32> = member_cands.iter().map(|&r| cand_all_imps[r]).collect();
            let cand_labels: Vec<usize> = task.candidates.iter().map(|&(_, l)| l).collect();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let m = task.ways();
            // Per-class caches of size c; admission takes each class's most
            // confident gated query per batch ("|Q̂| ≤ m").
            let mut augmenter =
                PromptAugmenter::with_policy(cfg.cache_size.max(1), m, cfg.cache_policy)
                    .with_min_confidence(min_confidence);
            let mut correct = 0usize;
            let mut predictions = Vec::with_capacity(total);
            let mut all_confidences = Vec::with_capacity(total);
            let mut query_labels = Vec::with_capacity(total);

            for chunk in task.queries.chunks(cfg.query_batch.max(1)) {
                let q_labels: Vec<usize> = chunk.iter().map(|&(_, l)| l).collect();
                let first = q_first + predictions.len();
                let q_rows: Vec<usize> = (first..first + chunk.len()).collect();
                let q_embs = query_all.gather_rows(&q_rows);
                let q_imps = &query_all_imps[first..first + chunk.len()];

                // Prompt Selector: score + vote → Ŝ (k per class).
                let selection = clock.time("selection", || {
                    let _span = SELECTION_MICROS.span();
                    select_prompts_with_metric(
                        &cand_embs,
                        &cand_imps,
                        &cand_labels,
                        &q_embs,
                        q_imps,
                        m,
                        cfg.shots,
                        stages.use_knn,
                        stages.use_selection_layer,
                        cfg.knn_metric,
                        &mut rng,
                    )
                });
                check_deadline(req.deadline, "selection", predictions.len(), total, &clock)?;

                // Assemble the task-graph prompt rows: Ŝ, importance-weighted
                // when the selection layer is active, then Ŝ' = Ŝ ∪ C (Eq. 9).
                let mut p_rows = cand_embs.gather_rows(&selection.selected);
                if stages.use_selection_layer {
                    let imps = Tensor::from_vec(
                        selection.selected.len(),
                        1,
                        selection.selected.iter().map(|&i| cand_imps[i]).collect(),
                    );
                    p_rows = p_rows.mul_rows_by_col(&imps);
                }
                let mut p_labels: Vec<usize> =
                    selection.selected.iter().map(|&i| cand_labels[i]).collect();
                if stages.use_augmenter {
                    let _span = AUGMENTATION_MICROS.span();
                    if let Some((c_embs, c_labels)) = augmenter.cached_prompts(cand_embs.cols()) {
                        p_rows = p_rows.concat_rows(&c_embs);
                        p_labels.extend(c_labels);
                    }
                }

                // Task graph (Eq. 10) + cosine argmax prediction (Eq. 11).
                let logits = clock.time("task_graph", || {
                    let _span = TASK_GRAPH_MICROS.span();
                    let mut ev = Eval::new(&model.store);
                    let pv = ev.data(p_rows);
                    let qv = ev.input(&q_embs);
                    model
                        .task_forward(&mut ev, &pv, &p_labels, &qv, m)
                        .into_owned()
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
                // Model confidence per query (always the softmax of the
                // argmax: the pseudo-label policy above may randomize its
                // own copy, but the reported confidence stays the model's).
                all_confidences.extend((0..preds.len()).map(|r| probs.get(r, preds[r])));
                predictions.extend(preds.iter().copied());
                query_labels.extend(q_labels.iter().copied());

                // Prompt Augmenter: LFU hits + high-confidence admissions.
                // Cached embeddings are importance-weighted exactly like
                // selected prompts (Ŝ and C must live on the same scale
                // inside the task graph).
                if stages.use_augmenter {
                    let _span = AUGMENTATION_MICROS.span();
                    let admit_embs = if stages.use_selection_layer {
                        let imps = Tensor::from_vec(q_imps.len(), 1, q_imps.to_vec());
                        q_embs.mul_rows_by_col(&imps)
                    } else {
                        q_embs
                    };
                    augmenter.observe(&admit_embs, &preds, &confidences);
                }
                // A finished episode is always returned, even if the
                // deadline fired during its final chunk — the work is done.
                if predictions.len() < total {
                    check_deadline(req.deadline, "task_graph", predictions.len(), total, &clock)?;
                }
            }

            let q_rows: Vec<usize> = (q_first..q_first + total).collect();
            let per_query = |nanos: u128| nanos as f64 / 1000.0 / total.max(1) as f64;
            Ok(EpisodeResult {
                correct,
                total,
                per_query_micros: per_query(started.elapsed().as_nanos()),
                embed_micros: per_query(embed_nanos),
                query_embeddings: query_all.gather_rows(&q_rows),
                query_labels,
                predictions,
                confidences: all_confidences,
            })
        })
        .collect()
}

/// Accuracy (%) of evaluation episode `i`: a `ways`-way task with
/// `queries_per_episode` queries sampled from seed `cfg.seed + 7919·i`,
/// run under pipeline seed `cfg.seed + 104729·i`. `candidate_seed` is
/// deliberately not varied: episodes sharing a candidate sample its
/// subgraph identically, which is what lets `cache` serve them all.
pub(crate) fn evaluate_episode(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    ways: usize,
    queries_per_episode: usize,
    cfg: &InferenceConfig,
    cache: Option<&EmbeddingStore>,
    i: usize,
) -> f32 {
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
    let request = EpisodeRequest {
        task: &task,
        deadline: None,
    };
    match run_episodes(
        model,
        dataset,
        std::slice::from_ref(&request),
        &ep_cfg,
        cache,
    )
    .pop()
    {
        Some(Ok(res)) => res.accuracy() * 100.0,
        #[expect(
            clippy::unreachable,
            reason = "structurally impossible: a deadline-free batch of one answers its member"
        )]
        _ => unreachable!("an episode without a deadline cannot time out"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, PretrainConfig, StageConfig};
    use crate::model::GraphPrompterModel;
    use crate::pretrain::pretrain;
    use gp_datasets::{sample_few_shot_task, CitationConfig};
    use gp_graph::SamplerConfig;
    use gp_obs::sync::{Mutex, Rank};

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

    /// One deadline-free episode: a batch of one.
    fn run(
        model: &GraphPrompterModel,
        ds: &Dataset,
        task: &gp_datasets::FewShotTask,
        cfg: &InferenceConfig,
        cache: Option<&EmbeddingStore>,
    ) -> EpisodeResult {
        let request = EpisodeRequest {
            task,
            deadline: None,
        };
        run_episodes(model, ds, std::slice::from_ref(&request), cfg, cache)
            .pop()
            .expect("one result per request")
            .expect("no deadline")
    }

    /// Accuracies of evaluation episodes `0..episodes` (3-way, 12 queries).
    fn evaluate(
        model: &GraphPrompterModel,
        ds: &Dataset,
        episodes: usize,
        cfg: &InferenceConfig,
        cache: Option<&EmbeddingStore>,
    ) -> Vec<f32> {
        (0..episodes)
            .map(|i| evaluate_episode(model, ds, 3, 12, cfg, cache, i))
            .collect()
    }

    #[test]
    fn episode_runs_and_reports_consistent_counts() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(0);
        let task = sample_few_shot_task(&ds, 3, 4, 12, &mut rng);
        let res = run(&model, &ds, &task, &tiny_cfg(), None);
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
        let res = run(&model, &ds, &task, &cfg, None);
        assert_eq!(res.total, 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, ds) = tiny_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let task = sample_few_shot_task(&ds, 3, 4, 10, &mut rng);
        let cfg = tiny_cfg();
        let a = run(&model, &ds, &task, &cfg, None);
        let b = run(&model, &ds, &task, &cfg, None);
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
        let accs = evaluate(&model, &ds, 3, &tiny_cfg(), None);
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
        let res = run(&model, &ds, &task, &cfg, None);
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
        let serial = evaluate(&model, &ds, 3, &cfg, None);
        // Episodes fanned out over the pool that also runs their kernels.
        let pool = gp_tensor::WorkerPool::with_budget(4);
        let slots: Vec<Mutex<f32>> = (0..3).map(|_| Mutex::new(Rank::ResultSlot, 0.0)).collect();
        {
            let _ctx = pool.install();
            pool.for_each_index(3, |i| {
                *slots[i].lock() = evaluate_episode(&model, &ds, 3, 12, &cfg, None, i);
            });
        }
        let parallel: Vec<f32> = slots.iter().map(|s| *s.lock()).collect();
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
            run(&model, &ds, &task, &cfg, None)
        };
        let b = run(&model, &ds, &task, &cfg, None);
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
        let cold = evaluate(&model, &ds, 4, &cfg, None);
        let warm1 = evaluate(&model, &ds, 4, &cfg, Some(&store));
        let warm2 = evaluate(&model, &ds, 4, &cfg, Some(&store));
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
        let a_ref = evaluate(&model, &ds_a, 3, &cfg, None);
        let b_ref = evaluate(&model, &ds_b, 3, &cfg, None);
        // Warm the store on dataset A, then evaluate B against the warm
        // store, then A again (B's entries now resident too).
        let a1 = evaluate(&model, &ds_a, 3, &cfg, Some(&store));
        let b1 = evaluate(&model, &ds_b, 3, &cfg, Some(&store));
        let a2 = evaluate(&model, &ds_a, 3, &cfg, Some(&store));
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

        let before = run(&model, &ds, &task, &cfg, Some(&store));
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

        let after = run(&model, &ds, &task, &cfg, Some(&store));
        assert_eq!(store.stats().invalidations, 1, "{:?}", store.stats());

        // Fresh embeddings under the new weights must equal a cache-less
        // run — i.e. nothing stale leaked through.
        let reference = run(&model, &ds, &task, &cfg, None);
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
        let _ = run(&model, &ds, &task, &cfg, Some(&store));
        assert_eq!(store.stats().invalidations, 2);
        let _ = before;
    }
}
