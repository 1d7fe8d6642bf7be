//! Integration tests spanning the workspace crates: end-to-end
//! pretrain→infer runs, determinism, protocol parity across baselines,
//! and cross-crate invariants the unit tests cannot see.

use gp_tensor::rng::StdRng;
use graphprompter::baselines::{IclBaseline, PromptGraph};
use graphprompter::datasets::{CitationConfig, KgConfig};
use graphprompter::prelude::*;

fn tiny_model() -> ModelConfig {
    ModelConfig {
        embed_dim: 16,
        hidden_dim: 24,
        ..ModelConfig::default()
    }
}

fn tiny_pretrain(steps: usize) -> PretrainConfig {
    PretrainConfig {
        steps,
        ways: 3,
        shots: 2,
        queries: 3,
        nm_ways: 3,
        nm_shots: 2,
        nm_queries: 3,
        log_every: 10,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 10,
            neighbors_per_node: 5,
        },
        ..PretrainConfig::default()
    }
}

fn tiny_infer() -> InferenceConfig {
    InferenceConfig {
        shots: 2,
        candidates_per_class: 4,
        query_batch: 5,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 10,
            neighbors_per_node: 5,
        },
        ..InferenceConfig::default()
    }
}

fn tiny_engine(steps: usize, source: &Dataset) -> Engine {
    let mut engine = Engine::builder()
        .model_config(tiny_model())
        .pretrain_config(tiny_pretrain(steps))
        .inference_config(tiny_infer())
        .try_build()
        .expect("tiny configs are valid");
    engine.pretrain(source);
    engine
}

#[test]
fn end_to_end_node_classification_beats_chance() {
    let source = CitationConfig::new("src", 300, 6, 101).generate();
    let target = CitationConfig::new("tgt", 250, 4, 102).generate();
    let engine = tiny_engine(70, &source);
    let accs = engine.evaluate(&target, 3, 12, 3);
    let mean = accs.iter().sum::<f32>() / accs.len() as f32;
    assert!(
        mean > 40.0,
        "cross-domain 3-way accuracy {mean}% ≤ chance+noise"
    );
}

#[test]
fn end_to_end_edge_classification_beats_chance() {
    // Edge classification needs cleaner type signal than the node test at
    // this tiny scale: lower endpoint noise, denser graph, more steps.
    let mut src_cfg = KgConfig::new("src", 400, 8, 6, 103);
    src_cfg.type_noise = 0.05;
    src_cfg.feature_noise = 0.2;
    src_cfg.triples_per_entity = 6.0;
    let source = src_cfg.generate();
    let mut tgt_cfg = KgConfig::new("tgt", 300, 6, 5, 104);
    tgt_cfg.type_noise = 0.05;
    tgt_cfg.feature_noise = 0.2;
    tgt_cfg.triples_per_entity = 6.0;
    let target = tgt_cfg.generate();
    let engine = tiny_engine(200, &source);
    let accs = engine.evaluate(&target, 3, 12, 6);
    let mean = accs.iter().sum::<f32>() / accs.len() as f32;
    assert!(
        mean > 40.0,
        "cross-domain 3-way KG accuracy {mean}% ≤ chance+noise"
    );
}

#[test]
fn inference_is_deterministic_for_fixed_seeds() {
    let source = CitationConfig::new("src", 250, 4, 105).generate();
    let engine = tiny_engine(20, &source);
    let a = engine.evaluate(&source, 3, 10, 2);
    let b = engine.evaluate(&source, 3, 10, 2);
    assert_eq!(a, b, "same seeds must give identical results");
    // The second pass must have reused memoized candidate embeddings.
    assert!(engine.embed_cache_stats().expect("cache on").hits > 0);
}

#[test]
fn parallel_kernels_match_serial_bitwise_end_to_end() {
    let source = CitationConfig::new("src", 250, 4, 109).generate();
    let mut engine = tiny_engine(20, &source);
    engine.set_parallelism(Parallelism::Serial);
    let serial = engine.evaluate(&source, 3, 10, 2);
    engine.set_parallelism(Parallelism::Threads(4));
    let threaded = engine.evaluate(&source, 3, 10, 2);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&serial),
        bits(&threaded),
        "thread budget must not change predictions"
    );
}

/// An engine that never names a backend, and one built with an explicit
/// `Backend::Reference`, replay each other bitwise — even under a
/// `Backend::Fast` guard on the calling thread: backend names are
/// accepted and change nothing.
#[test]
fn reference_backend_replays_the_default_engine_bitwise() {
    let source = CitationConfig::new("src", 250, 4, 117).generate();
    let default_engine = tiny_engine(20, &source);
    let a = default_engine.evaluate(&source, 3, 10, 2);

    let mut explicit = Engine::builder()
        .model_config(tiny_model())
        .pretrain_config(tiny_pretrain(20))
        .inference_config(tiny_infer())
        .backend(Backend::Reference)
        .try_build()
        .expect("tiny configs are valid");
    explicit.pretrain(&source);
    let _ambient = Backend::Fast.install();
    let b = explicit.evaluate(&source, 3, 10, 2);

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a),
        bits(&b),
        "explicit Reference must be bit-identical to the default engine"
    );
}

/// An engine built with `Backend::Fast` end-to-end: the same accuracies
/// as the default engine, bit-identical on replay, and bit-identical
/// across worker counts (rows are never split across workers).
#[test]
fn fast_backend_is_tolerance_equal_and_deterministic_end_to_end() {
    let source = CitationConfig::new("src", 250, 4, 118).generate();
    let reference = tiny_engine(20, &source).evaluate(&source, 3, 10, 2);

    let mut engine = Engine::builder()
        .model_config(tiny_model())
        .pretrain_config(tiny_pretrain(20))
        .inference_config(tiny_infer())
        .backend(Backend::Fast)
        .try_build()
        .expect("tiny configs are valid");
    engine.pretrain(&source);
    let fast = engine.evaluate(&source, 3, 10, 2);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fast),
        bits(&reference),
        "fast accuracies must equal reference's"
    );

    let replay = engine.evaluate(&source, 3, 10, 2);
    assert_eq!(
        bits(&fast),
        bits(&replay),
        "fast replay must be bit-identical"
    );

    engine.set_parallelism(Parallelism::Threads(4));
    let threaded = engine.evaluate(&source, 3, 10, 2);
    assert_eq!(
        bits(&fast),
        bits(&threaded),
        "worker count must not change fast-backend bits"
    );
}

/// The oversubscription regression test, end to end: every budget
/// `evaluate` runs its episodes under gives the serial run's bits (that
/// one map stays within its budget is `gp_tensor`'s
/// `map_runs_on_at_most_budget_threads`).
#[test]
fn thread_budget_bounds_total_threads_end_to_end() {
    let source = CitationConfig::new("src", 250, 4, 109).generate();

    let mut engine = tiny_engine(20, &source);
    engine.set_parallelism(Parallelism::Serial);
    let serial = engine.evaluate(&source, 3, 10, 4);

    for budget in [2usize, 3, 5] {
        engine.set_parallelism(Parallelism::Threads(budget));
        assert_eq!(engine.parallelism(), Parallelism::Threads(budget));
        let accs = engine.evaluate(&source, 3, 10, 4);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&serial),
            bits(&accs),
            "budget {budget} changed predictions"
        );
    }
}

#[test]
fn metrics_collection_is_invisible_to_predictions_end_to_end() {
    // The observability layer must be read-only: turning collection on
    // changes no prediction bit. Delta-based assertions because the
    // registry is process-global and other tests share it.
    let source = CitationConfig::new("src", 250, 4, 110).generate();
    let engine = tiny_engine(20, &source);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let off = engine.evaluate(&source, 3, 10, 2);
    let spans_before = engine
        .metrics_snapshot()
        .histogram("infer.selection_micros")
        .map(|h| h.count)
        .unwrap_or(0);

    graphprompter::obs::set_enabled(true);
    let on = engine.evaluate(&source, 3, 10, 2);
    graphprompter::obs::set_enabled(false);

    assert_eq!(
        bits(&off),
        bits(&on),
        "metrics collection must not change predictions"
    );
    let spans_after = engine
        .metrics_snapshot()
        .histogram("infer.selection_micros")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(
        spans_after > spans_before,
        "enabled run must record per-stage spans"
    );

    let off_again = engine.evaluate(&source, 3, 10, 2);
    assert_eq!(bits(&off), bits(&off_again), "disabling must restore no-op");
}

#[test]
fn every_ablation_configuration_runs() {
    let source = CitationConfig::new("src", 250, 4, 106).generate();
    let engine = tiny_engine(15, &source);
    for stages in [
        StageConfig::full(),
        StageConfig::prodigy(),
        StageConfig::without_reconstruction(),
        StageConfig::without_knn(),
        StageConfig::without_selection_layer(),
        StageConfig::without_augmenter(),
    ] {
        let cfg = InferenceConfig {
            stages,
            ..tiny_infer()
        };
        let accs = engine.evaluate_with(&source, 3, 8, 1, &cfg);
        assert_eq!(accs.len(), 1);
        assert!((0.0..=100.0).contains(&accs[0]), "{stages:?} → {accs:?}");
    }
}

#[test]
fn builders_reject_bad_configs_at_the_facade() {
    let err = Engine::builder()
        .inference_config(InferenceConfig {
            shots: 9,
            candidates_per_class: 3,
            ..InferenceConfig::default()
        })
        .try_build()
        .err()
        .expect("shots > candidates must fail");
    assert!(matches!(err, ConfigError::ShotsExceedCandidates { .. }));
    // Message must be human-readable for the CLI.
    assert!(err.to_string().contains("shots"));
}

#[test]
fn baselines_share_the_episode_protocol() {
    let source = CitationConfig::new("src", 250, 5, 107).generate();
    let cfg = InferenceConfig {
        shots: 2,
        candidates_per_class: 4,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 10,
            neighbors_per_node: 5,
        },
        seed: 0,
        ..InferenceConfig::default()
    };
    let no_pre = PromptGraph::no_pretrain(tiny_model());
    let prodigy = PromptGraph::prodigy(&source, tiny_model(), &tiny_pretrain(15));
    for method in [&no_pre, &prodigy] {
        let accs = method.evaluate(&source, 3, 10, 2, &cfg);
        assert_eq!(
            accs.len(),
            2,
            "{} returned wrong episode count",
            method.name()
        );
        assert!(accs.iter().all(|a| (0.0..=100.0).contains(a)));
    }
}

#[test]
fn pretrained_selector_orders_prompts_meaningfully() {
    // The kNN term must select candidates whose embeddings align with the
    // query batch — check on a hand-built geometry via the public API.
    use graphprompter::core::{select_prompts, DistanceMetric};
    use graphprompter::tensor::Tensor;
    let prompts = Tensor::from_vec(4, 2, vec![1.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, -1.0]);
    let queries = Tensor::from_vec(2, 2, vec![1.0, 0.1, 0.1, 1.0]);
    let mut rng = StdRng::seed_from_u64(0);
    let out = select_prompts(
        &prompts,
        &[0.5; 4],
        &[0, 0, 1, 1],
        &queries,
        &[0.5; 2],
        2,
        1,
        true,
        false,
        DistanceMetric::Cosine,
        &mut rng,
    );
    assert_eq!(
        out.selected,
        vec![0, 2],
        "kNN must pick the aligned candidates"
    );
}

#[test]
fn total_cmp_ranking_is_bit_identical_to_partial_cmp_on_nan_free_scores() {
    // The D2 sweep swapped every `partial_cmp(..).unwrap_or(Equal)`
    // comparator for the canonicalizing total comparators
    // `rank_asc`/`rank_desc`. On NaN-free inputs the two must be
    // indistinguishable: same permutation, bit-for-bit. Check on real
    // pipeline scores (cosine similarities over generated features and
    // selector votes), not synthetic grids.
    use graphprompter::core::{select_prompts, DistanceMetric};
    use graphprompter::tensor::{rank_desc, Tensor};
    use std::cmp::Ordering;

    #[expect(
        clippy::disallowed_methods,
        reason = "the partial_cmp comparator is the reference this test compares against"
    )]
    let reference_desc = |a: f32, b: f32| b.partial_cmp(&a).unwrap_or(Ordering::Equal);
    let assert_same_order = |scores: &[f32]| {
        assert!(
            scores.iter().all(|s| !s.is_nan()),
            "fixture must be NaN-free"
        );
        let indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        let mut with_total = indexed.clone();
        with_total.sort_by(|x, y| rank_desc(x.1, y.1));
        let mut with_partial = indexed;
        with_partial.sort_by(|x, y| reference_desc(x.1, y.1));
        let bits =
            |v: &[(usize, f32)]| v.iter().map(|(i, s)| (*i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&with_total), bits(&with_partial));
    };

    // Cosine scores straight off a generated dataset (ties included:
    // every row scores 1.0 against itself-aligned rows).
    let source = CitationConfig::new("src", 250, 4, 111).generate();
    let feats = source.graph.features();
    for probe in [0usize, 17, 111] {
        let sims: Vec<f32> = (0..feats.rows())
            .map(|i| feats.cosine_rows(probe, feats, i))
            .collect();
        assert_same_order(&sims);
    }

    // Selector votes from the real selection path.
    let prompts = Tensor::from_vec(
        6,
        2,
        vec![1.0, 0.0, 0.9, 0.1, 0.7, 0.3, 0.0, 1.0, 0.1, 0.9, 0.3, 0.7],
    );
    let queries = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
    let mut rng = StdRng::seed_from_u64(11);
    let out = select_prompts(
        &prompts,
        &[0.8, 0.6, 0.4, 0.8, 0.6, 0.4],
        &[0, 0, 0, 1, 1, 1],
        &queries,
        &[1.0, 1.0],
        2,
        2,
        true,
        true,
        DistanceMetric::Cosine,
        &mut rng,
    );
    assert_same_order(&out.votes);
}

/// The batching contract (README § "Request batching"): every member of
/// a `run_episodes_batched` call is bit-identical to running its episode
/// alone. Exercised across batch sizes, mixed shapes, mixed deadline
/// membership and a member whose deadline has already expired.
#[test]
fn batched_inference_is_bit_identical_to_serial() {
    use graphprompter::core::{Deadline, EpisodeRequest};
    let source = CitationConfig::new("src", 250, 4, 111).generate();
    let engine = tiny_engine(20, &source);
    let mut rng = StdRng::seed_from_u64(17);
    let shapes = [(3usize, 6usize), (4, 9), (3, 1), (4, 12), (2, 5)];
    let tasks: Vec<FewShotTask> = shapes
        .iter()
        .map(|&(ways, queries)| sample_few_shot_task(&source, ways, 4, queries, &mut rng))
        .collect();

    let serial: Vec<EpisodeResult> = tasks
        .iter()
        .map(|t| engine.run_episode(&source, t))
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let same = |b: &EpisodeResult, s: &EpisodeResult, label: &str| {
        assert_eq!(b.predictions, s.predictions, "{label}");
        assert_eq!(b.query_labels, s.query_labels, "{label}");
        assert_eq!(
            bits(&b.confidences),
            bits(&s.confidences),
            "{label}: confidences must be bit-identical"
        );
    };
    let check = |batched: Vec<Result<EpisodeResult, _>>, label: &str| {
        for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
            let b = b.as_ref().expect("generous/no deadline must not expire");
            same(b, s, &format!("{label} member {i}"));
        }
    };

    for batch_size in [1usize, 2, 5] {
        let requests: Vec<EpisodeRequest> = tasks[..batch_size]
            .iter()
            .map(|t| EpisodeRequest {
                task: t,
                deadline: None,
            })
            .collect();
        let batched = engine.run_episodes_batched(&source, &requests);
        assert_eq!(batched.len(), batch_size);
        check(batched, &format!("batch of {batch_size}"));
    }

    // Mixed-deadline membership: generous deadlines on some members,
    // none on others — still bit-identical.
    let requests: Vec<EpisodeRequest> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| EpisodeRequest {
            task: t,
            deadline: (i % 2 == 0).then(|| Deadline::after_millis(600_000)),
        })
        .collect();
    check(
        engine.run_episodes_batched(&source, &requests),
        "mixed-deadline batch",
    );

    // An expired member aborts alone, before any query; its live
    // neighbours still give their solo bits.
    let victim = 2;
    let requests: Vec<EpisodeRequest> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let millis = if i == victim { 0 } else { 600_000 };
            EpisodeRequest {
                task: t,
                deadline: Some(Deadline::after_millis(millis)),
            }
        })
        .collect();
    let batched = engine.run_episodes_batched(&source, &requests);
    assert_eq!(batched.len(), tasks.len());
    for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
        match b {
            Err(d) if i == victim => {
                assert_eq!(d.completed_queries, 0);
                assert_eq!(d.stage, "candidate_embed");
            }
            Ok(b) if i != victim => same(b, s, &format!("expired batch member {i}")),
            other => panic!("member {i} (victim {victim}): {other:?}"),
        }
    }
}

#[test]
fn episode_timing_is_positive_and_bounded() {
    let source = CitationConfig::new("src", 250, 4, 108).generate();
    let engine = tiny_engine(10, &source);
    let mut rng = StdRng::seed_from_u64(3);
    let task = sample_few_shot_task(&source, 3, 4, 8, &mut rng);
    let res = engine.run_episode(&source, &task);
    assert!(res.per_query_micros > 0.0);
    assert!(res.embed_micros >= 0.0);
    assert!(
        res.per_query_micros < 5_000_000.0,
        "implausible per-query time"
    );
}

#[test]
fn facade_versions_are_consistent() {
    assert_eq!(graphprompter::VERSION, env!("CARGO_PKG_VERSION"));
}

/// Scratch directory for the persistent-embedding-store tests; wiped on
/// entry so a crashed previous run cannot leak shards into this one.
fn scratch_store(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gp_pipeline_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn f32_disk_tier_is_bit_invisible_to_predictions() {
    let source = CitationConfig::new("src", 300, 6, 101).generate();
    let target = CitationConfig::new("tgt", 250, 4, 102).generate();
    let dir = scratch_store("tier_invisible");
    let plain = tiny_engine(40, &source);
    let mut tiered = Engine::builder()
        .model_config(tiny_model())
        .pretrain_config(tiny_pretrain(40))
        .inference_config(tiny_infer())
        // A tiny L0 keeps entries churning through demotion/promotion,
        // so the comparison actually exercises the disk tier.
        .embedding_cache(8)
        .embed_store_dir(&dir)
        .try_build()
        .expect("tiny configs are valid");
    tiered.pretrain(&source);
    let a = plain.evaluate(&target, 3, 12, 3);
    let b = tiered.evaluate(&target, 3, 12, 3);
    assert_eq!(a, b, "an f32 disk tier must be bit-invisible");
    let stats = tiered.embed_cache_stats().expect("cache is on");
    assert!(
        stats.demotions > 0 && stats.disk_hits > 0,
        "workload must demote from an L0 of 8 and serve from disk: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restarted engine over the same directory answers from the shards
/// the first one persisted.
#[test]
fn embedding_store_warm_starts_a_fresh_engine() {
    let source = CitationConfig::new("src", 300, 6, 101).generate();
    let target = CitationConfig::new("tgt", 250, 4, 102).generate();
    let task = sample_few_shot_task(&target, 3, 4, 8, &mut StdRng::seed_from_u64(11));
    let dir = scratch_store("warm_start");
    // Identical construction both times: deterministic pretrain gives
    // bit-identical weights, so the restarted engine carries the same
    // weight fingerprint (and revision) the shards were written under.
    let build = || {
        let mut e = Engine::builder()
            .model_config(tiny_model())
            .pretrain_config(tiny_pretrain(40))
            .inference_config(tiny_infer())
            .embed_store_dir(&dir)
            .try_build()
            .expect("tiny configs are valid");
        e.pretrain(&source);
        e
    };
    let first = build();
    let cold = first.evaluate(&target, 3, 12, 2);
    let cold_episode = first.run_episode(&target, &task);
    assert!(
        first.flush_embed_store() > 0,
        "the first engine must persist its embeddings"
    );
    drop(first);

    let restarted = build();
    let warm = restarted.evaluate(&target, 3, 12, 2);
    let warm_episode = restarted.run_episode(&target, &task);
    assert_eq!(cold, warm, "a warm start must not change any accuracy");
    assert_eq!(
        cold_episode.predictions, warm_episode.predictions,
        "a warm start must not change any prediction"
    );
    let stats = restarted.embed_cache_stats().expect("cache is on");
    assert!(
        stats.disk_hits > 0,
        "the restarted engine must answer from the persisted shards: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shards written by an engine named `Backend::Fast` warm-start a fresh
/// engine named `Backend::Reference` over the same directory: both names
/// run the same kernels, so the weight fingerprint leaves the name out
/// and the reader answers from disk with the writer's predictions.
#[test]
fn disk_tier_takes_shards_written_under_the_other_backend_name() {
    let source = CitationConfig::new("src", 300, 6, 101).generate();
    let target = CitationConfig::new("tgt", 250, 4, 102).generate();
    let dir = scratch_store("backend_names");
    let build = |backend: Backend| {
        let mut e = Engine::builder()
            .model_config(tiny_model())
            .pretrain_config(tiny_pretrain(40))
            .inference_config(tiny_infer())
            .backend(backend)
            .embed_store_dir(&dir)
            .try_build()
            .expect("tiny configs are valid");
        e.pretrain(&source);
        e
    };
    let writer = build(Backend::Fast);
    let written = writer.evaluate(&target, 3, 12, 2);
    assert!(
        writer.flush_embed_store() > 0,
        "the writer must persist its embeddings"
    );
    drop(writer);

    let reader = build(Backend::Reference);
    let read = reader.evaluate(&target, 3, 12, 2);
    assert_eq!(
        written, read,
        "reading the shards must not change any accuracy"
    );
    let stats = reader.embed_cache_stats().expect("cache is on");
    assert!(
        stats.disk_hits > 0,
        "a Reference engine must read Fast-written shards: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_tier_without_cache_is_rejected_at_build() {
    let err = Engine::builder()
        .model_config(tiny_model())
        .no_embedding_cache()
        .embed_store_dir(std::env::temp_dir().join("gp_pipeline_never_created"))
        .try_build()
        .err()
        .expect("disk tier without an in-memory cache must not build");
    assert!(matches!(err, ConfigError::DiskTierWithoutCache));
}
