//! Pre-training (Alg. 1): joint optimization of the reconstruction layer,
//! `GNN_D`, selection layer and task-graph GNN on in-context episodes,
//! with the loss `L = L_NM + L_MT` (Eqs. 12–14).
//!
//! One loop serves every entry point. [`try_pretrain_validated`] adds
//! held-out validation with best-snapshot restore (§V-A4); validation
//! draws from its own RNG, so it never moves the training episode stream.
//! The loop is plain AdamW, as in the paper; its one check stops the run
//! with a [`DivergenceError`] when a step's loss is not finite, before
//! the optimizer applies that step.

use std::num::NonZeroUsize;
use std::sync::Arc;

use gp_datasets::{sample_few_shot_from_splits, DataPoint, Dataset, Split, Task};
use gp_graph::{RandomWalkSampler, Subgraph};
use gp_nn::{AdamW, Eval, Forward, Optimizer, ParamId, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::{Tensor, Var};

use crate::batch::SubgraphBatch;
use crate::config::{PretrainConfig, StageConfig};
use crate::error::DivergenceError;
use crate::model::{sample_datapoint_subgraphs, GraphPrompterModel};

static LOSS_MILLI: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.loss_milli");
static GRAD_NORM_MILLI: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.grad_norm_milli");
static STEP_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.step_micros");

/// Global L2 norm over all gradient tensors (the
/// `pretrain.grad_norm_milli` histogram).
fn grad_l2_norm(grads: &[(ParamId, Tensor)]) -> f32 {
    grads
        .iter()
        .map(|(_, g)| {
            let n = g.frobenius_norm();
            n * n
        })
        .sum::<f32>()
        .sqrt()
}

/// Loss/accuracy trajectory recorded during pre-training (Fig. 9).
#[derive(Clone, Debug, Default)]
pub struct TrainingCurve {
    /// Step indices at which metrics were recorded.
    pub steps: Vec<usize>,
    /// Total loss `L_NM + L_MT` at each recorded step.
    pub loss: Vec<f32>,
    /// Multi-Task episode training accuracy at each recorded step.
    pub accuracy: Vec<f32>,
}

/// Fuse an episode's prompt and query data graphs into one block-diagonal
/// batch, prompts first.
fn episode_batch(
    model: &GraphPrompterModel,
    graph: &gp_graph::Graph,
    prompt_sgs: &[Subgraph],
    query_sgs: &[Subgraph],
) -> SubgraphBatch {
    let all: Vec<Subgraph> = prompt_sgs.iter().chain(query_sgs).cloned().collect();
    SubgraphBatch::build(graph, &all, model.config().rel_dim)
}

/// The forward half of an episode, shared by both pre-training tasks and
/// validation: embeds the [`episode_batch`], applies selection-layer
/// importance weighting to the prompt rows (`G'_p = G_p · I_p`) when
/// enabled, and returns the task graph's query logits.
fn episode_logits<'a, F: Forward<'a>>(
    model: &GraphPrompterModel,
    f: &mut F,
    batch: &'a SubgraphBatch,
    prompt_labels: &[usize],
    num_classes: usize,
    stages: StageConfig,
) -> F::V {
    let p = prompt_labels.len();
    let emb = model.embed_batch(f, batch, stages.use_reconstruction);
    let p_idx: Arc<Vec<usize>> = Arc::new((0..p).collect());
    let q_idx: Arc<Vec<usize>> = Arc::new((p..batch.num_graphs).collect());
    let mut prompts = f.gather_rows(&emb.embeddings, p_idx.clone());
    let queries = f.gather_rows(&emb.embeddings, q_idx);
    if stages.use_selection_layer {
        let p_imp = f.gather_rows(&emb.importance, p_idx);
        prompts = f.mul_rows_by_col(prompts, &p_imp);
    }
    model.task_forward(f, &prompts, prompt_labels, &queries, num_classes)
}

/// Queries whose argmax logit is their label.
fn count_correct(logits: &Tensor, labels: &[usize]) -> usize {
    let preds = logits.argmax_rows();
    preds.iter().zip(labels).filter(|(a, b)| a == b).count()
}

/// Build an episode's task-graph loss on the session tape and return
/// `(loss, #correct)` for the episode.
#[expect(
    clippy::too_many_arguments,
    reason = "one episode's inputs as both pre-training tasks hand them over; a struct would only be unpacked again"
)]
pub(crate) fn episode_loss(
    model: &GraphPrompterModel,
    sess: &mut Session<'_>,
    graph: &gp_graph::Graph,
    prompt_sgs: &[Subgraph],
    prompt_labels: &[usize],
    query_sgs: &[Subgraph],
    query_labels: &[usize],
    num_classes: usize,
    stages: StageConfig,
) -> (Var, usize) {
    let batch = episode_batch(model, graph, prompt_sgs, query_sgs);
    let logits = episode_logits(model, sess, &batch, prompt_labels, num_classes, stages);
    let targets = Arc::new(query_labels.to_vec());
    let loss = sess.tape.cross_entropy_logits(logits, targets);
    (loss, count_correct(sess.tape.value(logits), query_labels))
}

/// Prompts, prompt labels, queries and query labels of one NM episode.
type NmEpisode = (Vec<DataPoint>, Vec<usize>, Vec<DataPoint>, Vec<usize>);

/// Sample a Neighbor-Matching episode (§IV-D): `nm_ways` disjoint local
/// neighborhoods; examples and queries are nodes from each neighborhood
/// and the episode label is *which neighborhood a node belongs to*.
fn sample_neighbor_matching(
    graph: &gp_graph::Graph,
    sampler: &RandomWalkSampler,
    nm_ways: usize,
    nm_shots: usize,
    nm_queries: usize,
    rng: &mut StdRng,
) -> Option<NmEpisode> {
    let per_class_queries = nm_queries.div_ceil(nm_ways).max(1);
    let need = nm_shots + per_class_queries;
    let mut used = std::collections::HashSet::new();
    let mut prompts = Vec::new();
    let mut prompt_labels = Vec::new();
    let mut queries = Vec::new();
    let mut query_labels = Vec::new();

    let mut class = 0usize;
    let mut attempts = 0;
    while class < nm_ways {
        attempts += 1;
        if attempts > nm_ways * 20 {
            return None; // graph too small/disconnected for this episode
        }
        let center = rng.gen_range(0..graph.num_nodes()) as u32;
        if used.contains(&center) || graph.degree(center) == 0 {
            continue;
        }
        // Gather the center's local neighborhood via the data-graph sampler.
        let sg = sampler.sample(graph, &[center], rng);
        let mut pool: Vec<u32> = sg
            .nodes
            .iter()
            .copied()
            .filter(|n| !used.contains(n))
            .collect();
        if pool.len() < need {
            continue;
        }
        rng.shuffle(&mut pool);
        for &n in &pool[..need] {
            used.insert(n);
        }
        for &n in &pool[..nm_shots] {
            prompts.push(DataPoint::Node(n));
            prompt_labels.push(class);
        }
        for &n in &pool[nm_shots..need] {
            queries.push(DataPoint::Node(n));
            query_labels.push(class);
        }
        class += 1;
    }
    Some((prompts, prompt_labels, queries, query_labels))
}

/// Held-out episodes each validation scores.
const VALID_EPISODES: usize = 4;

/// What a validated pre-training run ([`try_pretrain_validated`]) reports.
#[derive(Debug, Default)]
pub struct PretrainReport {
    /// Loss/accuracy trajectory; the same as [`try_pretrain`]'s.
    pub curve: TrainingCurve,
    /// Best held-out accuracy observed (`-inf` when no step ran).
    pub best_acc: f32,
    /// Steps trained when `best_acc` was measured: the restored snapshot.
    pub best_step: usize,
}

/// The episodes validation scores: prompts from the train partition,
/// queries from the valid one. They are sampled once, from their own RNG,
/// so every snapshot is scored on the same episodes and the training
/// episode stream never sees a draw.
struct HeldOut {
    ways: usize,
    /// Each episode's fused batch, prompt labels and query labels.
    episodes: Vec<(SubgraphBatch, Vec<usize>, Vec<usize>)>,
}

impl HeldOut {
    fn sample(model: &GraphPrompterModel, dataset: &Dataset, cfg: &PretrainConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa111);
        let sampler = RandomWalkSampler::new(cfg.sampler);
        let ways = cfg.ways.min(dataset.num_classes);
        let episodes = (0..VALID_EPISODES)
            .map(|_| {
                let ep = sample_few_shot_from_splits(
                    dataset,
                    Split::Train,
                    Split::Valid,
                    ways,
                    cfg.shots,
                    cfg.queries,
                    &mut rng,
                );
                let (p_points, p_labels): (Vec<_>, Vec<_>) = ep.candidates.iter().copied().unzip();
                let (q_points, q_labels): (Vec<_>, Vec<_>) = ep.queries.iter().copied().unzip();
                let mut subgraphs = |points: &[DataPoint]| {
                    sample_datapoint_subgraphs(
                        &dataset.graph,
                        &sampler,
                        points,
                        dataset.task,
                        &mut rng,
                    )
                };
                let p_sgs = subgraphs(&p_points);
                let q_sgs = subgraphs(&q_points);
                let batch = episode_batch(model, &dataset.graph, &p_sgs, &q_sgs);
                (batch, p_labels, q_labels)
            })
            .collect();
        Self { ways, episodes }
    }

    /// Share of the held-out queries `model` classifies correctly.
    fn accuracy(&self, model: &GraphPrompterModel, stages: StageConfig) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (batch, p_labels, q_labels) in &self.episodes {
            let mut ev = Eval::new(&model.store);
            let logits = episode_logits(model, &mut ev, batch, p_labels, self.ways, stages);
            correct += count_correct(&logits, q_labels);
            total += q_labels.len();
        }
        correct as f32 / total.max(1) as f32
    }
}

/// Run Alg. 1: pre-train `model` on `dataset` and return the training
/// curve. Stage toggles control what is trained (the Prodigy baseline
/// pre-trains with everything off — plain Prodigy episodes).
///
/// Panics if a step's loss is not finite; use [`try_pretrain`] for a
/// `Result`-returning variant.
#[expect(
    clippy::panic,
    reason = "documented panicking twin of try_pretrain; callers that must survive a non-finite loss use try_pretrain"
)]
pub fn pretrain(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
) -> TrainingCurve {
    try_pretrain(model, dataset, cfg, stages)
        .unwrap_or_else(|e| panic!("pre-training diverged: {e}"))
}

/// As [`pretrain`], returning a non-finite loss as a typed
/// [`DivergenceError`] (with the last finite step's weights kept).
pub fn try_pretrain(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
) -> Result<TrainingCurve, DivergenceError> {
    pretrain_loop(model, dataset, cfg, stages, None).map(|report| report.curve)
}

/// As [`try_pretrain`], also scoring held-out episodes (queries from the
/// valid partition) after every `validate_every` steps and after the last
/// step, then restoring the best-scoring snapshot: the checkpoint
/// selection the paper follows ("we checkpoint the model every 500
/// steps", §V-A4). Ties keep the earlier snapshot.
///
/// Validation only observes the run: the curve is [`try_pretrain`]'s,
/// and the restored parameters are those of a plain `best_step`-step run.
pub fn try_pretrain_validated(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
    validate_every: NonZeroUsize,
) -> Result<PretrainReport, DivergenceError> {
    pretrain_loop(model, dataset, cfg, stages, Some(validate_every))
}

/// The training loop behind every entry point: `cfg.steps` optimization
/// steps, stopping before the first whose loss is not finite. Without
/// `validate_every` it scores nothing and takes no snapshot.
fn pretrain_loop(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
    validate_every: Option<NonZeroUsize>,
) -> Result<PretrainReport, DivergenceError> {
    let mut opt = AdamW::new(cfg.lr, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let mut curve = TrainingCurve::default();
    let validation =
        validate_every.map(|every| (every.get(), HeldOut::sample(model, dataset, cfg)));
    // Accuracy, step and parameters of the best-scoring snapshot.
    let mut best: Option<(f32, usize, Vec<Tensor>)> = None;

    let ways = cfg.ways.min(dataset.num_classes);
    for step in 0..cfg.steps {
        let step_span = STEP_MICROS.span();
        let mut sess = Session::new(&model.store);
        // Multi-Task episode (Eq. 13): real labels, few-shot prompt format.
        let mt = sample_few_shot_from_splits(
            dataset,
            Split::Train,
            Split::Train,
            ways,
            cfg.shots,
            cfg.queries,
            &mut rng,
        );
        let (mt_prompt_points, mt_prompt_labels): (Vec<_>, Vec<_>) =
            mt.candidates.iter().copied().unzip();
        let (mt_query_points, mt_query_labels): (Vec<_>, Vec<_>) =
            mt.queries.iter().copied().unzip();
        let mt_prompt_sgs = sample_datapoint_subgraphs(
            &dataset.graph,
            &sampler,
            &mt_prompt_points,
            dataset.task,
            &mut rng,
        );
        let mt_query_sgs = sample_datapoint_subgraphs(
            &dataset.graph,
            &sampler,
            &mt_query_points,
            dataset.task,
            &mut rng,
        );
        let (mt_loss, mt_correct) = episode_loss(
            model,
            &mut sess,
            &dataset.graph,
            &mt_prompt_sgs,
            &mt_prompt_labels,
            &mt_query_sgs,
            &mt_query_labels,
            ways,
            stages,
        );
        let mt_total = mt_query_labels.len();

        // Neighbor-Matching episode (Eq. 12): pseudo-labels from locality.
        let nm_loss = sample_neighbor_matching(
            &dataset.graph,
            &sampler,
            cfg.nm_ways,
            cfg.nm_shots,
            cfg.nm_queries,
            &mut rng,
        )
        .map(|(np, nl, nq, nql)| {
            let np_sgs = sample_datapoint_subgraphs(
                &dataset.graph,
                &sampler,
                &np,
                Task::NodeClassification,
                &mut rng,
            );
            let nq_sgs = sample_datapoint_subgraphs(
                &dataset.graph,
                &sampler,
                &nq,
                Task::NodeClassification,
                &mut rng,
            );
            episode_loss(
                model,
                &mut sess,
                &dataset.graph,
                &np_sgs,
                &nl,
                &nq_sgs,
                &nql,
                cfg.nm_ways,
                stages,
            )
            .0
        });

        // L = L_NM + L_MT (Eq. 14).
        let total = match nm_loss {
            Some(nm) => sess.tape.add(mt_loss, nm),
            None => mt_loss,
        };
        let (loss_value, grads) = sess.grads(total);
        if gp_obs::enabled() {
            // The grad-norm pass is only worth its O(params) cost when
            // someone is actually collecting metrics.
            LOSS_MILLI.record_f64(f64::from(loss_value) * 1000.0);
            GRAD_NORM_MILLI.record_f64(f64::from(grad_l2_norm(&grads)) * 1000.0);
        }
        if !loss_value.is_finite() {
            return Err(DivergenceError::NonFiniteLoss { step });
        }
        opt.step(&mut model.store, &grads);

        if step % cfg.log_every == 0 || step + 1 == cfg.steps {
            curve.steps.push(step);
            curve.loss.push(loss_value);
            curve
                .accuracy
                .push(mt_correct as f32 / mt_total.max(1) as f32);
        }
        drop(step_span);

        let done = step + 1;
        if let Some((every, held_out)) = &validation {
            if done.is_multiple_of(*every) || done == cfg.steps {
                let acc = held_out.accuracy(model, stages);
                if best.as_ref().is_none_or(|&(best_acc, ..)| acc > best_acc) {
                    best = Some((acc, done, model.store.snapshot()));
                }
            }
        }
    }

    let (best_acc, best_step) = match best {
        Some((acc, step, params)) => {
            model.store.restore(&params);
            (acc, step)
        }
        None => (f32::NEG_INFINITY, 0),
    };
    Ok(PretrainReport {
        curve,
        best_acc,
        best_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use gp_datasets::CitationConfig;
    use gp_graph::SamplerConfig;

    fn quick_cfg(steps: usize) -> PretrainConfig {
        PretrainConfig {
            steps,
            ways: 3,
            shots: 2,
            queries: 3,
            nm_ways: 3,
            nm_shots: 2,
            nm_queries: 3,
            log_every: 5,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 10,
                neighbors_per_node: 5,
            },
            ..PretrainConfig::default()
        }
    }

    fn small_model() -> GraphPrompterModel {
        GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        })
    }

    /// Every parameter's bits, in store order.
    fn param_bits(m: &GraphPrompterModel) -> Vec<u32> {
        m.store
            .iter()
            .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn pretrain_reduces_loss() {
        let ds = CitationConfig::new("t", 300, 6, 21).generate();
        let mut model = small_model();
        let curve = pretrain(&mut model, &ds, &quick_cfg(60), StageConfig::full());
        assert!(curve.loss.len() >= 3);
        let head: f32 = curve.loss[..2].iter().sum::<f32>() / 2.0;
        let tail: f32 = curve.loss[curve.loss.len() - 2..].iter().sum::<f32>() / 2.0;
        assert!(tail < head, "loss did not decrease: {head} -> {tail}");
    }

    #[test]
    fn neighbor_matching_episode_is_well_formed() {
        let ds = CitationConfig::new("t", 300, 4, 22).generate();
        let sampler = RandomWalkSampler::new(SamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let (p, pl, q, ql) =
            sample_neighbor_matching(&ds.graph, &sampler, 3, 2, 3, &mut rng).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(pl.len(), 6);
        assert_eq!(q.len(), 3);
        assert_eq!(ql.len(), 3);
        // Disjoint node use across the episode.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for dp in p.iter().chain(&q) {
            let DataPoint::Node(n) = dp else {
                panic!("NM must use node datapoints")
            };
            assert!(seen.insert(*n), "node {n} reused across neighborhoods");
        }
        assert!(pl.iter().all(|&l| l < 3));
        assert!(ql.iter().all(|&l| l < 3));
    }

    #[test]
    fn pretrain_works_on_edge_task_dataset() {
        let ds = gp_datasets::KgConfig::new("t", 300, 6, 5, 23).generate();
        let mut model = small_model();
        let curve = pretrain(&mut model, &ds, &quick_cfg(10), StageConfig::full());
        assert_eq!(curve.steps.len(), curve.loss.len());
        assert!(curve.loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn validation_pretraining_restores_best_snapshot() {
        let ds = CitationConfig::new("t", 300, 5, 25).generate();
        let cfg = quick_cfg(40);
        let every = NonZeroUsize::new(10).unwrap();
        let mut validated = small_model();
        let report = try_pretrain_validated(&mut validated, &ds, &cfg, StageConfig::full(), every)
            .expect("a healthy run has finite losses");
        assert!(
            (0.0..=1.0).contains(&report.best_acc),
            "{}",
            report.best_acc
        );
        // On this data an earlier snapshot wins, so the restore moves the
        // weights away from the last step's.
        assert!(
            report.best_step.is_multiple_of(10) && (10..40).contains(&report.best_step),
            "{}",
            report.best_step
        );

        // Validation only observes: the curve is the plain run's.
        let mut plain = small_model();
        let curve = try_pretrain(&mut plain, &ds, &cfg, StageConfig::full()).unwrap();
        let bits = |c: &TrainingCurve| {
            let loss = c.loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            let acc = c.accuracy.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            (c.steps.clone(), loss, acc)
        };
        assert_eq!(bits(&report.curve), bits(&curve));

        // The restored snapshot is a plain run of `best_step` steps.
        let mut at_best = small_model();
        let best_cfg = PretrainConfig {
            steps: report.best_step,
            ..cfg
        };
        try_pretrain(&mut at_best, &ds, &best_cfg, StageConfig::full()).unwrap();
        assert_eq!(param_bits(&validated), param_bits(&at_best));
    }

    /// A run pushed to divergence by a huge (but valid) learning rate stops
    /// at its first non-finite step and keeps the weights of the step
    /// before. Release builds return the typed error, and the panicking
    /// twin panics with it; debug builds stop at the same step one check
    /// earlier, on the first non-finite forward value
    /// (`Tensor::debug_assert_finite`).
    #[test]
    fn diverging_run_stops_before_its_first_non_finite_step() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ds = CitationConfig::new("t", 300, 5, 27).generate();
        let cfg = PretrainConfig {
            lr: 1e30,
            ..quick_cfg(12)
        };
        cfg.validate().unwrap();

        // Step 0 trains the initial weights, so its loss is finite.
        let mut one_step = small_model();
        let one_cfg = PretrainConfig {
            steps: 1,
            ..cfg.clone()
        };
        try_pretrain(&mut one_step, &ds, &one_cfg, StageConfig::full()).unwrap();

        let mut diverged = small_model();
        let run = catch_unwind(AssertUnwindSafe(|| {
            try_pretrain(&mut diverged, &ds, &cfg, StageConfig::full())
        }));
        assert_eq!(param_bits(&diverged), param_bits(&one_step));
        if cfg!(debug_assertions) {
            let payload = run.expect_err("debug builds assert every forward value");
            let msg = payload.downcast::<String>().unwrap();
            assert!(msg.contains("non-finite forward value"), "{msg}");
            return;
        }
        let err = run.expect("release builds return the error").unwrap_err();
        assert_eq!(err, DivergenceError::NonFiniteLoss { step: 1 });

        let mut engine = crate::Engine::builder()
            .model_config(small_model().config().clone())
            .pretrain_config(cfg)
            .try_build()
            .unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| engine.pretrain(&ds))).unwrap_err();
        assert_eq!(
            *payload.downcast::<String>().unwrap(),
            format!("pre-training diverged: {err}")
        );
    }

    #[test]
    fn prodigy_stages_also_train() {
        let ds = CitationConfig::new("t", 250, 4, 24).generate();
        let mut model = small_model();
        let curve = pretrain(&mut model, &ds, &quick_cfg(10), StageConfig::prodigy());
        assert!(curve.loss.iter().all(|l| l.is_finite()));
    }
}
