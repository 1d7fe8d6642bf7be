//! Pre-training (Alg. 1): joint optimization of the reconstruction layer,
//! `GNN_D`, selection layer and task-graph GNN on in-context episodes,
//! with the loss `L = L_NM + L_MT` (Eqs. 12–14).
//!
//! Training is organized in deterministic *chunks* whose boundaries fall
//! on validation and checkpoint cadences; each chunk reseeds the episode
//! stream from `cfg.seed + steps_done`, so a run killed between chunks
//! and resumed from a [`crate::checkpoint`] trainer checkpoint reproduces
//! the uninterrupted run bit for bit (parameters, optimizer moments and
//! training curve alike).

use std::path::PathBuf;
use std::sync::Arc;

use gp_datasets::{sample_few_shot_from_splits, DataPoint, Dataset, Split, Task};
use gp_graph::{RandomWalkSampler, Subgraph};
use gp_nn::{AdamW, Optimizer, Session};
use gp_tensor::rng::StdRng;
use gp_tensor::Var;

use crate::batch::SubgraphBatch;
use crate::checkpoint::{self, CheckpointError, TrainerMeta};
use crate::config::{PretrainConfig, StageConfig};
use crate::guard::{DivergenceError, GuardAction, GuardRail, StepVerdict};
use crate::model::{sample_datapoint_subgraphs, GraphPrompterModel};

static LOSS_MILLI: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.loss_milli");
static GRAD_NORM_MILLI: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.grad_norm_milli");
static STEP_MICROS: gp_obs::Histogram = gp_obs::Histogram::new("pretrain.step_micros");
static CHECKPOINT_WRITE_MICROS: gp_obs::Histogram =
    gp_obs::Histogram::new("pretrain.checkpoint_write_micros");

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

/// Build an episode's task-graph loss on the session tape.
///
/// Shared by both pre-training tasks: embeds prompts and queries in one
/// block-diagonal batch, applies selection-layer importance weighting to
/// the prompt rows (`G'_p = G_p · I_p`) when enabled, runs the task graph,
/// and returns `(loss, #correct)` for the episode.
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
    let p = prompt_sgs.len();
    let n = query_sgs.len();
    let all: Vec<Subgraph> = prompt_sgs.iter().chain(query_sgs).cloned().collect();
    let batch = match SubgraphBatch::build(graph, &all, model.config().rel_dim) {
        Ok(b) => b,
        #[expect(
            clippy::unreachable,
            reason = "structurally impossible: sampled subgraphs are non-empty and anchored"
        )]
        Err(e) => unreachable!("subgraph fusion failed: {e}"),
    };
    let emb = model.embed_batch(sess, &batch, stages.use_reconstruction);

    let p_idx: Arc<Vec<usize>> = Arc::new((0..p).collect());
    let q_idx: Arc<Vec<usize>> = Arc::new((p..p + n).collect());
    let mut prompts = sess.tape.gather_rows(emb.embeddings, p_idx.clone());
    let queries = sess.tape.gather_rows(emb.embeddings, q_idx);
    if stages.use_selection_layer {
        let p_imp = sess.tape.gather_rows(emb.importance, p_idx);
        prompts = sess.tape.mul_rows_by_col(prompts, p_imp);
    }

    let out = model.task_forward(sess, prompts, prompt_labels, queries, num_classes);
    let targets = Arc::new(query_labels.to_vec());
    let loss = sess.tape.cross_entropy_logits(out.logits, targets);
    let preds = sess.value(out.logits).argmax_rows();
    let correct = preds
        .iter()
        .zip(query_labels)
        .filter(|(a, b)| a == b)
        .count();
    (loss, correct)
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

/// Everything a validated pre-training run reports back.
#[derive(Debug, Default)]
pub struct PretrainReport {
    /// Loss/accuracy trajectory over the whole run (resumed runs include
    /// the curve recorded before the interruption).
    pub curve: TrainingCurve,
    /// Best validation accuracy observed.
    pub best_acc: f32,
    /// Step count at which `best_acc` was measured (the restored snapshot).
    pub best_step: usize,
    /// Step the run resumed from, when recovery found a valid checkpoint.
    pub resumed_from: Option<usize>,
    /// Checkpoints that failed validation during recovery, with the reason.
    pub skipped_checkpoints: Vec<(PathBuf, String)>,
    /// Optimizer steps the guard rail skipped.
    pub guard_skipped: usize,
    /// Steps whose gradients the guard rail clipped.
    pub guard_clipped: usize,
}

/// Why a validated/resumable pre-training run stopped early.
#[derive(Debug)]
pub enum PretrainError {
    /// The guard rail aborted on a divergence incident.
    Divergence(DivergenceError),
    /// Writing or recovering a checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for PretrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PretrainError::Divergence(e) => write!(f, "training diverged: {e}"),
            PretrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for PretrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PretrainError::Divergence(e) => Some(e),
            PretrainError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<DivergenceError> for PretrainError {
    fn from(e: DivergenceError) -> Self {
        PretrainError::Divergence(e)
    }
}

impl From<CheckpointError> for PretrainError {
    fn from(e: CheckpointError) -> Self {
        PretrainError::Checkpoint(e)
    }
}

/// Where and how often [`pretrain_resumable`] persists trainer state.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding `ckpt-<step>.gpck` files (created if missing).
    pub dir: PathBuf,
    /// Persist trainer state every this many steps (also at run end).
    pub every: usize,
    /// Retain only the newest `keep_last` checkpoints (0 keeps all).
    pub keep_last: usize,
    /// Scan `dir` for the newest *valid* checkpoint and continue from it.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every 100 steps, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 100,
            keep_last: 3,
            resume: false,
        }
    }
}

/// As [`pretrain`], additionally evaluating held-out episodes (drawn from
/// the valid partition) every `validate_every` steps and restoring the
/// best-validation snapshot at the end — the checkpoint-selection practice
/// the paper follows ("we checkpoint the model every 500 steps", §V-A4).
///
/// Crash-safe: when `ckpt` is set, the full trainer state (parameters,
/// optimizer moments, best-validation snapshot, curve, guard window) is
/// written atomically as a GPCK v2 trainer checkpoint every
/// [`CheckpointConfig::every`] steps, old files are pruned to
/// [`CheckpointConfig::keep_last`], and with
/// [`CheckpointConfig::resume`] the run continues from the newest valid
/// checkpoint — corrupt ones are skipped and reported, and the resumed
/// run's curve and final parameters are bit-identical to an uninterrupted
/// run with the same configuration.
pub fn pretrain_resumable(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
    validate_every: usize,
    valid_episodes: usize,
    ckpt: Option<&CheckpointConfig>,
) -> Result<PretrainReport, PretrainError> {
    assert!(validate_every > 0, "validate_every must be positive");
    let total = cfg.steps;
    let mut opt = AdamW::new(cfg.lr, cfg.weight_decay);
    let mut guard = cfg.guard.clone().map(GuardRail::new);
    let mut done = 0usize;
    let mut best_acc = f32::NEG_INFINITY;
    let mut best_step = 0usize;
    let mut best_snapshot = model.store.snapshot();
    let mut curve = TrainingCurve::default();
    let mut resumed_from = None;
    let mut skipped_checkpoints = Vec::new();

    if let Some(c) = ckpt {
        std::fs::create_dir_all(&c.dir).map_err(CheckpointError::from)?;
        if c.resume {
            let scan = checkpoint::scan_for_recovery(&c.dir);
            skipped_checkpoints = scan
                .skipped
                .into_iter()
                .map(|(p, e)| (p, e.to_string()))
                .collect();
            if let Some((step, _, saved, meta)) = scan.recovered {
                if *saved.config() != *model.config() {
                    return Err(CheckpointError::ShapeMismatch(
                        "checkpoint was trained with a different model configuration".into(),
                    )
                    .into());
                }
                *model = saved;
                opt.restore_state(&meta.optim);
                if let Some(g) = guard.as_mut() {
                    g.restore_window(&meta.guard_window);
                }
                done = meta.step.min(total);
                best_acc = meta.best_acc;
                best_step = meta.best_step;
                best_snapshot = meta.best_params;
                curve = meta.curve;
                resumed_from = Some(step);
            }
        }
    }

    while done < total {
        // Chunk boundaries are deterministic functions of the cadences, so
        // an interrupted run and an uninterrupted one reseed the episode
        // stream at exactly the same steps.
        let mut boundary = done + validate_every - done % validate_every;
        if let Some(c) = ckpt {
            let every = c.every.max(1);
            boundary = boundary.min(done + every - done % every);
        }
        let boundary = boundary.min(total);
        let mut chunk_cfg = cfg.clone();
        chunk_cfg.steps = boundary - done;
        // Advance the episode stream deterministically across chunks.
        chunk_cfg.seed = cfg.seed.wrapping_add(done as u64);
        let part = pretrain_steps(
            model,
            dataset,
            &chunk_cfg,
            stages,
            &mut opt,
            guard.as_mut(),
            done,
        )?;
        for (i, &s) in part.steps.iter().enumerate() {
            curve.steps.push(done + s);
            curve.loss.push(part.loss[i]);
            curve.accuracy.push(part.accuracy[i]);
        }
        done = boundary;

        if done.is_multiple_of(validate_every) || done == total {
            let acc = validation_accuracy(model, dataset, cfg, stages, valid_episodes, done as u64);
            if acc > best_acc {
                best_acc = acc;
                best_step = done;
                best_snapshot = model.store.snapshot();
            }
        }

        if let Some(c) = ckpt {
            if done.is_multiple_of(c.every.max(1)) || done == total {
                let meta = TrainerMeta {
                    step: done,
                    best_acc,
                    best_step,
                    best_params: best_snapshot.clone(),
                    optim: opt.state(),
                    curve: curve.clone(),
                    guard_window: guard.as_ref().map(GuardRail::window).unwrap_or_default(),
                };
                let path = c.dir.join(checkpoint::checkpoint_file_name(done));
                {
                    let _span = CHECKPOINT_WRITE_MICROS.span();
                    checkpoint::save_trainer_checkpoint(&path, model, &meta)?;
                }
                if c.keep_last > 0 {
                    checkpoint::prune_checkpoints(&c.dir, c.keep_last);
                }
            }
        }
    }

    model
        .store
        .try_restore(&best_snapshot)
        .map_err(|e| CheckpointError::ShapeMismatch(e.to_string()))?;
    Ok(PretrainReport {
        curve,
        best_acc,
        best_step,
        resumed_from,
        skipped_checkpoints,
        guard_skipped: guard.as_ref().map_or(0, |g| g.skipped),
        guard_clipped: guard.as_ref().map_or(0, |g| g.clipped),
    })
}

/// Mean accuracy over `episodes` held-out episodes (prompts from train,
/// queries from valid) under the current parameters.
fn validation_accuracy(
    model: &GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
    episodes: usize,
    salt: u64,
) -> f32 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa111 ^ salt);
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let ways = cfg.ways.min(dataset.num_classes);
    let mut correct = 0usize;
    let mut totals = 0usize;
    for _ in 0..episodes.max(1) {
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
        let p_sgs =
            sample_datapoint_subgraphs(&dataset.graph, &sampler, &p_points, dataset.task, &mut rng);
        let q_sgs =
            sample_datapoint_subgraphs(&dataset.graph, &sampler, &q_points, dataset.task, &mut rng);
        let mut sess = Session::new(&model.store);
        let (_, c) = episode_loss(
            model,
            &mut sess,
            &dataset.graph,
            &p_sgs,
            &p_labels,
            &q_sgs,
            &q_labels,
            ways,
            stages,
        );
        correct += c;
        totals += q_labels.len();
    }
    correct as f32 / totals.max(1) as f32
}

/// Run Alg. 1: pre-train `model` on `dataset` and return the training
/// curve. Stage toggles control what is trained (the Prodigy baseline
/// pre-trains with everything off — plain Prodigy episodes).
///
/// Panics if the configured guard rail aborts; use [`try_pretrain`] for a
/// `Result`-returning variant.
#[expect(
    clippy::panic,
    reason = "documented panicking twin of try_pretrain; callers that must survive a guard-rail abort use try_pretrain"
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

/// As [`pretrain`], surfacing guard-rail aborts as a typed
/// [`DivergenceError`] instead of panicking.
pub fn try_pretrain(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
) -> Result<TrainingCurve, DivergenceError> {
    let mut opt = AdamW::new(cfg.lr, cfg.weight_decay);
    let mut guard = cfg.guard.clone().map(GuardRail::new);
    pretrain_steps(model, dataset, cfg, stages, &mut opt, guard.as_mut(), 0)
}

/// The inner training loop: runs `cfg.steps` optimization steps against a
/// caller-owned optimizer (so moments survive across chunks on resume) and
/// an optional guard rail. `step_offset` is the absolute index of this
/// chunk's first step, used for guard diagnostics; the returned curve's
/// step indices stay chunk-relative.
fn pretrain_steps(
    model: &mut GraphPrompterModel,
    dataset: &Dataset,
    cfg: &PretrainConfig,
    stages: StageConfig,
    opt: &mut AdamW,
    mut guard: Option<&mut GuardRail>,
    step_offset: usize,
) -> Result<TrainingCurve, DivergenceError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = RandomWalkSampler::new(cfg.sampler);
    let mut curve = TrainingCurve::default();

    let ways = cfg.ways.min(dataset.num_classes);
    for step in 0..cfg.steps {
        let _step_span = STEP_MICROS.span();
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
        let (loss_value, mut grads) = sess.grads(total);
        if gp_obs::enabled() {
            // The grad-norm pass is only worth its O(params) cost when
            // someone is actually collecting metrics.
            LOSS_MILLI.record_f64(f64::from(loss_value) * 1000.0);
            GRAD_NORM_MILLI.record_f64(f64::from(crate::guard::grad_l2_norm(&grads)) * 1000.0);
        }
        let abs_step = step_offset + step;
        let mut apply = true;
        if let Some(rail) = guard.as_deref_mut() {
            match rail.check(abs_step, loss_value, &mut grads)? {
                StepVerdict::Proceed => {}
                StepVerdict::Skip(_) => apply = false,
            }
        }
        if apply {
            if guard.is_some() {
                // Guarded runs keep a pre-step snapshot so an update that
                // still yields non-finite weights can be rolled back.
                let pre = model.store.snapshot();
                opt.step(&mut model.store, &grads);
                let finite = model.store.iter().all(|(_, t)| t.all_finite());
                #[expect(
                    clippy::expect_used,
                    reason = "this branch runs only when guard.is_some()"
                )]
                let rail = guard.as_deref_mut().expect("guard checked above");
                if let Some(err) = rail.after_step(abs_step, finite) {
                    model.store.restore(&pre);
                    if rail.config().action == GuardAction::Abort {
                        return Err(err);
                    }
                }
            } else {
                opt.step(&mut model.store, &grads);
            }
        }

        if step % cfg.log_every == 0 || step + 1 == cfg.steps {
            curve.steps.push(step);
            curve.loss.push(loss_value);
            curve
                .accuracy
                .push(mt_correct as f32 / mt_total.max(1) as f32);
        }
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::guard::GuardRailConfig;
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

    #[test]
    fn pretrain_reduces_loss() {
        let ds = CitationConfig::new("t", 300, 6, 21).generate();
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
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
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let curve = pretrain(&mut model, &ds, &quick_cfg(10), StageConfig::full());
        assert_eq!(curve.steps.len(), curve.loss.len());
        assert!(curve.loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn validation_pretraining_restores_best_snapshot() {
        let ds = CitationConfig::new("t", 300, 5, 25).generate();
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let report = pretrain_resumable(
            &mut model,
            &ds,
            &quick_cfg(40),
            StageConfig::full(),
            20,
            2,
            None,
        )
        .expect("unguarded pretraining cannot fail");
        assert!(report.curve.loss.iter().all(|l| l.is_finite()));
        let best = report.best_acc;
        assert!((0.0..=1.0).contains(&best), "best acc {best}");
        // The snapshot's step index must be one of the validation points.
        assert!(
            report.best_step.is_multiple_of(20) && report.best_step <= 40,
            "{}",
            report.best_step
        );
        assert!(report.resumed_from.is_none());
        // The restored parameters must reproduce the best validation
        // accuracy exactly (same seed & salt ⇒ same episodes).
        // A weaker but robust check: the model is usable for inference.
        let cfg = crate::config::InferenceConfig {
            shots: 2,
            candidates_per_class: 4,
            ..crate::config::InferenceConfig::default()
        };
        let acc = crate::infer::evaluate_episode(&model, &ds, 3, 8, &cfg, None, 0);
        assert!((0.0..=100.0).contains(&acc), "accuracy {acc}%");
    }

    #[test]
    fn guarded_pretraining_matches_unguarded_when_healthy() {
        let ds = CitationConfig::new("t", 300, 5, 26).generate();
        let cfg_plain = quick_cfg(15);
        let mut cfg_guarded = cfg_plain.clone();
        // A permissive rail: nothing in a healthy run should trip it.
        cfg_guarded.guard = Some(GuardRailConfig {
            spike_factor: 1e6,
            ..GuardRailConfig::skip()
        });
        let mk = || {
            GraphPrompterModel::new(ModelConfig {
                embed_dim: 16,
                hidden_dim: 24,
                ..ModelConfig::default()
            })
        };
        let mut a = mk();
        let mut b = mk();
        let curve_a = pretrain(&mut a, &ds, &cfg_plain, StageConfig::full());
        let curve_b = try_pretrain(&mut b, &ds, &cfg_guarded, StageConfig::full()).unwrap();
        let bits = |c: &TrainingCurve| c.loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&curve_a), bits(&curve_b));
        for ((_, ta), (_, tb)) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn abort_guard_surfaces_divergence_error() {
        let ds = CitationConfig::new("t", 300, 5, 27).generate();
        let mut cfg = quick_cfg(12);
        // An absurdly small grad-norm ceiling: any real step exceeds it,
        // so the rail must abort on the very first step.
        cfg.guard = Some(GuardRailConfig {
            action: GuardAction::Abort,
            clip_norm: Some(1e-12),
            ..GuardRailConfig::default()
        });
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let err = try_pretrain(&mut model, &ds, &cfg, StageConfig::full()).unwrap_err();
        assert!(
            matches!(err, DivergenceError::GradNormExceeded { step: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn resumable_writes_and_prunes_checkpoints() {
        let dir = std::env::temp_dir().join(format!("gp-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = CitationConfig::new("t", 300, 5, 28).generate();
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let ckpt = CheckpointConfig {
            every: 10,
            keep_last: 2,
            ..CheckpointConfig::new(&dir)
        };
        let report = pretrain_resumable(
            &mut model,
            &ds,
            &quick_cfg(30),
            StageConfig::full(),
            15,
            2,
            Some(&ckpt),
        )
        .unwrap();
        assert!(report.curve.loss.iter().all(|l| l.is_finite()));
        let found = checkpoint::list_checkpoints(&dir);
        let steps: Vec<usize> = found.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![20, 30], "retention should keep the newest 2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prodigy_stages_also_train() {
        let ds = CitationConfig::new("t", 250, 4, 24).generate();
        let mut model = GraphPrompterModel::new(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        });
        let curve = pretrain(&mut model, &ds, &quick_cfg(10), StageConfig::prodigy());
        assert!(curve.loss.iter().all(|l| l.is_finite()));
    }
}
