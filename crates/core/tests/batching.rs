//! Property suite for batched inference
//! ([`gp_core::Engine::run_episodes_batched`]).
//!
//! The contract under test: **batch membership is invisible in
//! results**. A fused member must be bit-identical to running the same
//! episode alone — same predictions, same labels, confidences equal to
//! the bit — for every batch size, any mix of member shapes, and any mix
//! of deadlines, whichever backend name the engine was built with.

use gp_core::{Deadline, Engine, EpisodeRequest, EpisodeResult};
use gp_datasets::{sample_few_shot_task, CitationConfig, DataPoint, Dataset, FewShotTask};
use gp_graph::SamplerConfig;
use gp_tensor::rng::{check, StdRng};
use gp_tensor::Backend;

fn tiny_engine(source: &Dataset, backend: Backend) -> Engine {
    let mut engine = Engine::builder()
        .model_config(gp_core::ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..gp_core::ModelConfig::default()
        })
        .pretrain_config(gp_core::PretrainConfig {
            steps: 12,
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
            ..gp_core::PretrainConfig::default()
        })
        .inference_config(gp_core::InferenceConfig {
            shots: 2,
            candidates_per_class: 4,
            query_batch: 5,
            sampler: SamplerConfig {
                hops: 1,
                max_nodes: 10,
                neighbors_per_node: 5,
            },
            ..gp_core::InferenceConfig::default()
        })
        .backend(backend)
        .try_build()
        .expect("tiny configs are valid");
    engine.pretrain(source);
    engine
}

/// `count` tasks with shapes drawn from `rng` (2–4 ways, 1–12 queries).
fn varied_tasks(source: &Dataset, count: usize, rng: &mut StdRng) -> Vec<FewShotTask> {
    (0..count)
        .map(|_| {
            let ways = rng.gen_range(2..=4usize);
            let queries = rng.gen_range(1..=12usize);
            sample_few_shot_task(source, ways, 4, queries, rng)
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(batched: &EpisodeResult, serial: &EpisodeResult, label: &str) {
    assert_eq!(batched.predictions, serial.predictions, "{label}");
    assert_eq!(batched.query_labels, serial.query_labels, "{label}");
    assert_eq!(
        bits(&batched.confidences),
        bits(&serial.confidences),
        "{label}: confidences must match to the bit"
    );
}

/// Any batch size from 1 to all members, over
/// randomly-shaped episodes, is bit-identical to serial runs.
#[test]
fn batched_reference_is_bit_identical_to_serial() {
    check(12, |rng| {
        let data_seed = 100 + rng.gen_range(0..40) as u64;
        let source = CitationConfig::new("batch-prop", 250, 4, data_seed).generate();
        let engine = tiny_engine(&source, Backend::Reference);
        let tasks = varied_tasks(&source, 8, rng);
        let serial: Vec<EpisodeResult> = tasks
            .iter()
            .map(|t| engine.run_episode(&source, t))
            .collect();

        for batch_size in [1usize, 2, 5, 8] {
            let requests: Vec<EpisodeRequest> = tasks[..batch_size]
                .iter()
                .map(|t| EpisodeRequest {
                    task: t,
                    deadline: None,
                })
                .collect();
            let batched = engine.run_episodes_batched(&source, &requests);
            assert_eq!(batched.len(), batch_size);
            for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
                let b = b.as_ref().expect("no deadline must not expire");
                assert_bit_identical(b, s, &format!("batch {batch_size} member {i}"));
                // Each member's clock covers the shared passes it is
                // charged for, so embedding never exceeds the whole.
                assert!(
                    b.embed_micros <= b.per_query_micros,
                    "batch {batch_size} member {i}: embed {} > total {} µs/query",
                    b.embed_micros,
                    b.per_query_micros
                );
            }
        }
    });
}

/// A fused call looks each distinct candidate up in the store once, however
/// many members share it: on a cold store every lookup misses and none hits.
#[test]
fn fused_call_looks_up_each_distinct_candidate_once() {
    let source = CitationConfig::new("batch-lookups", 250, 4, 137).generate();
    let engine = tiny_engine(&source, Backend::Reference);
    let mut rng = StdRng::seed_from_u64(7);
    let base = varied_tasks(&source, 3, &mut rng);
    // Overlapping pools: a repeated member, and a member replaying
    // another's candidates with fewer queries.
    let replay = FewShotTask {
        queries: base[1].queries[..1].to_vec(),
        ..base[1].clone()
    };
    let tasks = [
        base[0].clone(),
        base[0].clone(),
        base[1].clone(),
        replay,
        base[2].clone(),
    ];
    let mut union: Vec<DataPoint> = Vec::new();
    for &(p, _) in tasks.iter().flat_map(|t| &t.candidates) {
        if !union.contains(&p) {
            union.push(p);
        }
    }

    engine.clear_embed_cache();
    let before = engine.embed_cache_stats().expect("cache on by default");
    let requests: Vec<EpisodeRequest> = tasks
        .iter()
        .map(|t| EpisodeRequest {
            task: t,
            deadline: None,
        })
        .collect();
    let results = engine.run_episodes_batched(&source, &requests);
    assert!(results.iter().all(Result::is_ok));
    let after = engine.embed_cache_stats().expect("cache on by default");
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(
        hits + misses,
        union.len() as u64,
        "one lookup per distinct candidate"
    );
    assert_eq!(hits, 0, "a cold store cannot hit");
}

/// Deadlines are per-member properties: a batch mixing generous
/// deadlines with none at all answers every member bit-identically
/// to its solo run — a neighbour's deadline never perturbs results.
#[test]
fn mixed_deadlines_do_not_perturb_members() {
    check(12, |rng| {
        let stagger = rng.gen_range(1..4);
        let source = CitationConfig::new("batch-prop-ddl", 250, 4, 123).generate();
        let engine = tiny_engine(&source, Backend::Reference);
        let tasks = varied_tasks(&source, 6, rng);
        let serial: Vec<EpisodeResult> = tasks
            .iter()
            .map(|t| engine.run_episode(&source, t))
            .collect();

        let requests: Vec<EpisodeRequest> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| EpisodeRequest {
                task: t,
                deadline: (i % stagger != 0).then(|| Deadline::after_millis(600_000)),
            })
            .collect();
        let batched = engine.run_episodes_batched(&source, &requests);
        for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
            let b = b.as_ref().expect("generous deadline must not expire");
            assert_bit_identical(b, s, &format!("mixed-deadline member {i}"));
        }
    });
}

/// A member whose deadline is already gone when the fused pass
/// starts is reported as `DeadlineExceeded` for that member alone;
/// every live member still answers bit-identically to serial.
#[test]
fn expired_member_does_not_poison_the_batch() {
    check(12, |rng| {
        let victim = rng.gen_range(0..4);
        let source = CitationConfig::new("batch-prop-exp", 250, 4, 129).generate();
        let engine = tiny_engine(&source, Backend::Reference);
        let tasks = varied_tasks(&source, 4, rng);
        let serial: Vec<EpisodeResult> = tasks
            .iter()
            .map(|t| engine.run_episode(&source, t))
            .collect();

        let requests: Vec<EpisodeRequest> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| EpisodeRequest {
                task: t,
                deadline: Some(if i == victim {
                    Deadline::after_millis(0) // expired before dispatch
                } else {
                    Deadline::after_millis(600_000)
                }),
            })
            .collect();
        let batched = engine.run_episodes_batched(&source, &requests);
        assert_eq!(batched.len(), tasks.len());
        for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
            if i == victim {
                match b {
                    Err(d) => {
                        assert_eq!(d.completed_queries, 0, "victim ran no queries");
                    }
                    other => panic!("victim must expire, got {other:?}"),
                }
            } else {
                let b = b.as_ref().expect("live member must not expire");
                assert_bit_identical(b, s, &format!("live member {i}"));
            }
        }
    });
}

/// An engine built with `Backend::Fast` (an accepted name that changes
/// nothing): fused members are bit-identical to serial runs too.
#[test]
fn batched_fast_matches_serial_within_tolerance() {
    check(12, |rng| {
        let source = CitationConfig::new("batch-prop-fast", 250, 4, 131).generate();
        let engine = tiny_engine(&source, Backend::Fast);
        let tasks = varied_tasks(&source, 5, rng);
        let serial: Vec<EpisodeResult> = tasks
            .iter()
            .map(|t| engine.run_episode(&source, t))
            .collect();

        let requests: Vec<EpisodeRequest> = tasks
            .iter()
            .map(|t| EpisodeRequest {
                task: t,
                deadline: None,
            })
            .collect();
        let batched = engine.run_episodes_batched(&source, &requests);
        for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
            let b = b.as_ref().expect("no deadline must not expire");
            assert_bit_identical(b, s, &format!("fast member {i}"));
        }
    });
}
