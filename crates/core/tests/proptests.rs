//! Property tests for the core components: cache policies, the prompt
//! selector, the augmenter's invariants, and the cross-episode
//! embedding store's transparency guarantees.

use gp_core::{
    select_prompts, Cache, CachePolicy, DistanceMetric, Engine, InferenceConfig, ModelConfig,
    PretrainConfig, PromptAugmenter,
};
use gp_datasets::CitationConfig;
use gp_graph::SamplerConfig;
use gp_tensor::rng::{check, StdRng};
use gp_tensor::Tensor;

/// Operations for cache-model testing.
#[derive(Clone, Debug)]
enum CacheOp {
    Insert(u8),
    Touch(u8),
}

/// 1–199 inserts and touches, evenly mixed, over keys 0–31.
fn random_ops(rng: &mut StdRng) -> Vec<CacheOp> {
    (0..rng.gen_range(1..200))
        .map(|_| {
            let key = rng.gen_range(0..32) as u8;
            if rng.gen_range(0..2) == 0 {
                CacheOp::Insert(key)
            } else {
                CacheOp::Touch(key)
            }
        })
        .collect()
}

/// Operations for the cache-vs-reference agreement test.
#[derive(Clone, Debug)]
enum ModelOp {
    Insert(u8),
    Touch(u8),
    Evict,
}

/// 1–399 operations over keys 0–15, weighted 3 inserts : 4 touches : 1
/// eviction.
fn random_model_ops(rng: &mut StdRng) -> Vec<ModelOp> {
    (0..rng.gen_range(1..400))
        .map(|_| {
            let key = rng.gen_range(0..16) as u8;
            match rng.gen_range(0..8) {
                0..=2 => ModelOp::Insert(key),
                3..=6 => ModelOp::Touch(key),
                _ => ModelOp::Evict,
            }
        })
        .collect()
}

const POLICIES: [CachePolicy; 3] = [CachePolicy::Lfu, CachePolicy::Lru, CachePolicy::Fifo];

/// Naive O(n) reference model: the victim is the minimum
/// `(rank, stamp)`, found by a scan. LFU ranks by use count and renews
/// the stamp whenever the count changes (FIFO within a count); LRU ranks
/// 0 and renews the stamp on every touch and re-insert; FIFO ranks 0,
/// stamps once at insert and ignores touches.
struct NaiveCache {
    policy: CachePolicy,
    cap: usize,
    /// `(key, value, rank, stamp)`.
    entries: Vec<(u8, u32, u64, u64)>,
    clock: u64,
}

impl NaiveCache {
    fn new(policy: CachePolicy, cap: usize) -> Self {
        Self {
            policy,
            cap,
            entries: Vec::new(),
            clock: 0,
        }
    }

    fn touch(&mut self, key: u8) -> bool {
        if self.policy == CachePolicy::Fifo {
            return false;
        }
        self.clock += 1;
        let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) else {
            return false;
        };
        if self.policy == CachePolicy::Lfu {
            e.2 += 1;
        }
        e.3 = self.clock;
        true
    }

    fn insert(&mut self, key: u8, value: u32) -> Option<u8> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 = value;
            self.touch(key);
            return None;
        }
        let evicted = if self.entries.len() >= self.cap {
            self.evict()
        } else {
            None
        };
        self.clock += 1;
        let rank = u64::from(self.policy == CachePolicy::Lfu);
        self.entries.push((key, value, rank, self.clock));
        evicted
    }

    fn evict(&mut self) -> Option<u8> {
        let pos = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.2, e.3))
            .map(|(i, _)| i)?;
        Some(self.entries.remove(pos).0)
    }

    /// `(key, value)` in eviction order.
    fn contents(&self) -> Vec<(u8, u32)> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| (e.2, e.3));
        sorted.iter().map(|e| (e.0, e.1)).collect()
    }
}

#[test]
fn caches_never_exceed_capacity() {
    check(64, |rng| {
        let (ops, cap) = (random_ops(rng), rng.gen_range(1..8));
        for policy in POLICIES {
            let mut cache: Cache<u8, u32> = Cache::new(policy, cap);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    CacheOp::Insert(k) => {
                        cache.insert(*k, i as u32);
                    }
                    CacheOp::Touch(k) => {
                        cache.touch(k);
                    }
                }
                assert!(cache.len() <= cap, "{policy:?} overflowed");
            }
        }
    });
}

/// Under every policy the cache agrees with the naive reference on every
/// evicted key and on the final contents, in eviction order.
#[test]
fn lfu_agrees_with_naive_reference() {
    check(64, |rng| {
        let (ops, cap) = (random_model_ops(rng), rng.gen_range(1..7));
        for policy in POLICIES {
            let mut real: Cache<u8, u32> = Cache::new(policy, cap);
            let mut naive = NaiveCache::new(policy, cap);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    ModelOp::Insert(k) => {
                        let got = real.insert(k, i as u32).map(|(k, _)| k);
                        let want = naive.insert(k, i as u32);
                        assert_eq!(got, want, "{policy:?} step {i}: eviction disagreed");
                    }
                    ModelOp::Touch(k) => {
                        assert_eq!(real.touch(&k), naive.touch(k), "{policy:?} step {i}");
                    }
                    ModelOp::Evict => {
                        let got = real.evict().map(|(k, _)| k);
                        let want = naive.evict();
                        assert_eq!(got, want, "{policy:?} step {i}: evict() disagreed");
                    }
                }
                assert_eq!(real.len(), naive.entries.len(), "{policy:?} step {i}");
            }
            let got: Vec<(u8, u32)> = real.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(
                got,
                naive.contents(),
                "{policy:?}: final contents disagreed"
            );
        }
    });
}

#[test]
fn lfu_eviction_order_is_by_frequency() {
    check(64, |rng| {
        let freqs: Vec<usize> = (0..rng.gen_range(2..8))
            .map(|_| rng.gen_range(0..6))
            .collect();
        let mut cache: Cache<usize, ()> = Cache::new(CachePolicy::Lfu, freqs.len());
        for (k, &f) in freqs.iter().enumerate() {
            cache.insert(k, ());
            for _ in 0..f {
                cache.touch(&k);
            }
        }
        // Draining evictions must come out in non-decreasing frequency.
        let mut last = -1i32;
        while let Some((k, ())) = cache.evict() {
            let f = freqs[k] as i32;
            assert!(f >= last, "evicted freq {f} after {last}");
            last = f;
        }
    });
}

#[test]
fn selector_output_is_class_balanced_subset() {
    check(64, |rng| {
        let (n_per_class, classes, shots) = (
            rng.gen_range(1..6),
            rng.gen_range(2..5),
            rng.gen_range(1..4),
        );
        let (use_knn, use_sel) = (rng.gen_range(0..2) == 1, rng.gen_range(0..2) == 1);
        let p = n_per_class * classes;
        let embs = gp_tensor::rng::randn(rng, p, 8, 1.0);
        let queries = gp_tensor::rng::randn(rng, 3, 8, 1.0);
        let labels: Vec<usize> = (0..p).map(|i| i % classes).collect();
        let imps = vec![0.5; p];
        let out = select_prompts(
            &embs,
            &imps,
            &labels,
            &queries,
            &[0.5; 3],
            classes,
            shots,
            use_knn,
            use_sel,
            DistanceMetric::Cosine,
            rng,
        );
        // Selected indices are unique and in range.
        let mut sorted = out.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.selected.len(), "duplicate selections");
        assert!(out.selected.iter().all(|&i| i < p));
        // Exactly min(shots, n_per_class) per class.
        for c in 0..classes {
            let got = out.selected.iter().filter(|&&i| labels[i] == c).count();
            assert_eq!(got, shots.min(n_per_class), "class {} got {}", c, got);
        }
    });
}

#[test]
fn augmenter_respects_per_class_capacity() {
    check(64, |rng| {
        let batches: Vec<Vec<(usize, f32)>> = (0..rng.gen_range(1..8))
            .map(|_| {
                (0..rng.gen_range(1..6))
                    .map(|_| (rng.gen_range(0..4), rng.gen_range(0.0..1.0)))
                    .collect()
            })
            .collect();
        let cache_size = rng.gen_range(1..4);
        let mut aug = PromptAugmenter::new(cache_size, 4).with_min_confidence(0.2);
        for batch in &batches {
            let n = batch.len();
            let embs = Tensor::full(n, 4, 1.0);
            let preds: Vec<usize> = batch.iter().map(|(c, _)| *c).collect();
            let confs: Vec<f32> = batch.iter().map(|(_, f)| *f).collect();
            aug.observe(&embs, &preds, &confs);
            assert!(aug.len() <= 4 * cache_size);
        }
        if let Some((embs, labels)) = aug.cached_prompts(4) {
            assert_eq!(embs.rows(), labels.len());
            assert!(labels.iter().all(|&l| l < 4));
        }
    });
}

/// A small engine over a generated citation graph, embedding cache on.
fn tiny_engine(data_seed: u64) -> (Engine, gp_datasets::Dataset) {
    let ds = CitationConfig::new("prop", 240, 5, 31 + data_seed).generate();
    let sampler = SamplerConfig {
        hops: 1,
        max_nodes: 10,
        neighbors_per_node: 5,
    };
    let engine = Engine::builder()
        .model_config(ModelConfig {
            embed_dim: 16,
            hidden_dim: 24,
            ..ModelConfig::default()
        })
        .pretrain_config(PretrainConfig {
            steps: 6,
            ways: 3,
            shots: 2,
            queries: 3,
            nm_ways: 3,
            nm_shots: 2,
            nm_queries: 3,
            log_every: 100,
            sampler,
            ..PretrainConfig::default()
        })
        .inference_config(InferenceConfig {
            shots: 2,
            candidates_per_class: 4,
            cache_size: 2,
            query_batch: 5,
            sampler,
            ..InferenceConfig::default()
        })
        .try_build()
        .expect("valid engine");
    (engine, ds)
}

/// The embedding store is a pure memo: reusing cached candidate
/// embeddings never changes predictions, and entries computed under
/// old weights are never served after the weights move.
#[test]
fn embedding_reuse_is_invisible_and_weight_changes_invalidate() {
    use gp_datasets::sample_few_shot_task;

    // Each case pre-trains a model, so keep the case count low.
    check(6, |rng| {
        let (data_seed, ways) = (rng.gen_range(0..64) as u64, rng.gen_range(2..4));
        let (mut engine, ds) = tiny_engine(data_seed);
        let candidates = engine.inference_config().candidates_per_class;
        let task = sample_few_shot_task(&ds, ways, candidates, 6, rng);
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Cold vs warm: the second run answers from the store.
        let cold = engine.run_episode(&ds, &task);
        let warm = engine.run_episode(&ds, &task);
        assert_eq!(&cold.predictions, &warm.predictions);
        assert_eq!(bits(&cold.query_embeddings), bits(&warm.query_embeddings));
        let stats = engine.embed_cache_stats().expect("cache on by default");
        assert!(stats.hits > 0, "warm run must hit the store");

        // Move the weights (bumps the ParamStore revision), then compare a
        // store-carrying run against an explicitly cleared one: identical
        // output means no stale embedding survived the weight change.
        engine.pretrain(&ds);
        let stale = engine.run_episode(&ds, &task);
        engine.clear_embed_cache();
        let fresh = engine.run_episode(&ds, &task);
        assert_eq!(&stale.predictions, &fresh.predictions);
        assert_eq!(bits(&stale.query_embeddings), bits(&fresh.query_embeddings));
    });
}
