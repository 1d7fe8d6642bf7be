//! Prompt Augmenter (§IV-C): a test-time cache of high-confidence
//! pseudo-labelled queries, managed with LFU replacement, that augments
//! the selected prompt set: `Ŝ' = Ŝ ∪ C` (Eq. 9).
//!
//! The cache is **per class**: `c` slots for each of the `m` episode
//! classes, each class running its own LFU. This follows the paper's own
//! arithmetic — with `k = 3` selected prompts and `c = 3` cached prompts
//! per class it reports `|Ŝ'| = 2·k = 6` (§V-F) — and matters for
//! correctness: a *global* pool of `c < m` entries boosts the cached
//! classes' label embeddings toward the test domain while leaving the
//! rest behind, biasing every prediction toward cached classes (we
//! measured a 3–9 point drop with a global cache; see DESIGN.md).
//! Per-class caches keep the domain pull symmetric, which is what makes
//! test-time adaptation work in the T3A/TENT line the paper builds on.

use gp_tensor::{cosine_slices, Tensor};

use crate::cache::{AnyCache, CachePolicy};

static ADMISSIONS: gp_obs::Counter = gp_obs::Counter::new("augmenter.admissions");
static REJECTED_BY_GATE: gp_obs::Counter = gp_obs::Counter::new("augmenter.rejected_by_gate");
static TOUCH_HITS: gp_obs::Counter = gp_obs::Counter::new("augmenter.touch_hits");
static EVICTIONS: gp_obs::Counter = gp_obs::Counter::new("augmenter.evictions");
static CACHED_ENTRIES: gp_obs::Gauge = gp_obs::Gauge::new("augmenter.cached_entries");
static LFU_BUCKET_MEMBERS: gp_obs::Gauge = gp_obs::Gauge::new("augmenter.lfu_bucket_members");

/// One cached pseudo-labelled sample.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The query's data-graph embedding (length `d`).
    pub embedding: Vec<f32>,
    /// Its predicted (pseudo) episode label.
    pub label: usize,
    /// Softmax confidence of the prediction at admission time.
    pub confidence: f32,
}

/// Test-time prompt augmentation: per-class caches of size `c`
/// (LFU by default; see [`CachePolicy`] for alternatives).
pub struct PromptAugmenter {
    caches: Vec<AnyCache<u64, CacheEntry>>,
    next_id: u64,
    /// Similarity hits per incoming query (the top-`hit_k` most similar
    /// cached entries get their use count bumped).
    hit_k: usize,
    /// Minimum prediction confidence for admission. Pseudo-labels below
    /// this are more likely wrong than helpful ("the noise introduced by
    /// additional pseudo-label samples outweighs their benefits", §V-D1).
    min_confidence: f32,
}

impl PromptAugmenter {
    /// Create with per-class cache size `c` (the paper settles on `c = 3`,
    /// Fig. 5) for an `m`-way episode.
    pub fn new(cache_size_per_class: usize, num_classes: usize) -> Self {
        Self::with_policy(cache_size_per_class, num_classes, CachePolicy::Lfu)
    }

    /// Create with an explicit replacement policy (§VI: "we can replace
    /// the cache in the prompt augmenter with other caching solutions").
    pub fn with_policy(
        cache_size_per_class: usize,
        num_classes: usize,
        policy: CachePolicy,
    ) -> Self {
        Self {
            caches: (0..num_classes.max(1))
                .map(|_| AnyCache::new(policy, cache_size_per_class.max(1)))
                .collect(),
            next_id: 0,
            hit_k: 1,
            min_confidence: 0.0,
        }
    }

    /// Set the admission confidence gate (builder style).
    pub fn with_min_confidence(mut self, min_confidence: f32) -> Self {
        self.min_confidence = min_confidence;
        self
    }

    /// Set how many top-similarity cached entries each incoming query
    /// refreshes (builder style; the paper's "top-k highest similarity
    /// scores are considered hits"). Defaults to 1.
    pub fn with_hit_k(mut self, hit_k: usize) -> Self {
        self.hit_k = hit_k;
        self
    }

    /// Total cached samples across classes.
    pub fn len(&self) -> usize {
        self.caches.iter().map(AnyCache::len).sum()
    }

    /// True when no class holds a cached sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached prompt set `C` as `(embeddings, labels)`; `None` when
    /// empty. Rows are grouped by class.
    pub fn cached_prompts(&self, dim: usize) -> Option<(Tensor, Vec<usize>)> {
        if self.is_empty() {
            return None;
        }
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for cache in &self.caches {
            // Admission-id order: the raw cache iteration order is
            // hash-map order, and `Ŝ' = Ŝ ∪ C` row order feeds the label
            // embedding sums downstream — it must not vary run to run.
            for (_, entry) in cache.sorted_iter() {
                assert_eq!(entry.embedding.len(), dim, "cached embedding width drifted");
                data.extend_from_slice(&entry.embedding);
                labels.push(entry.label);
            }
        }
        Some((Tensor::from_vec(labels.len(), dim, data), labels))
    }

    /// Observe one scored query batch:
    ///
    /// 1. **Hits** — for each incoming query, the top-`hit_k` most similar
    ///    cached entries (across all classes) get their LFU use count
    ///    bumped ("entries with the top-k highest similarity scores are
    ///    considered hits").
    /// 2. **Admission** — per predicted class, the most confident query
    ///    above the gate is inserted (`|Q̂| ≤ m`), each class evicting its
    ///    own LFU victim when full.
    ///
    /// `query_embs` is `n×d`; `predictions`/`confidences` have length `n`.
    pub fn observe(&mut self, query_embs: &Tensor, predictions: &[usize], confidences: &[f32]) {
        let n = query_embs.rows();
        assert_eq!(predictions.len(), n, "one prediction per query");
        assert_eq!(confidences.len(), n, "one confidence per query");

        // 1. Similarity hits refresh frequently-relevant entries. Cosine
        //    runs directly over each entry's stored `&[f32]` embedding —
        //    the old path materialised a fresh 1-row `Tensor` (an
        //    allocation plus a full copy) per (query × cached entry),
        //    which dominated warm-cache inference profiles.
        let mut sims: Vec<(usize, u64, f32)> = Vec::new();
        for q in 0..n {
            sims.clear();
            let query = query_embs.row(q);
            for (class, cache) in self.caches.iter().enumerate() {
                // Admission-id order so similarity ties (and the stable
                // sort below) break identically on every run.
                for (key, entry) in cache.sorted_iter() {
                    sims.push((class, *key, cosine_slices(query, &entry.embedding)));
                }
            }
            // Total comparator: a NaN similarity ranks last instead of
            // scrambling the order (rule D2, a `clippy.toml` ban).
            sims.sort_by(|a, b| gp_tensor::rank_desc(a.2, b.2));
            for &(class, key, _) in sims.iter().take(self.hit_k) {
                if self.caches[class].touch(&key) {
                    TOUCH_HITS.inc();
                }
            }
        }

        // 2. Per-class admission of the most confident gated query.
        let mut best: Vec<Option<usize>> = vec![None; self.caches.len()];
        for q in 0..n {
            let class = predictions[q];
            if class >= self.caches.len() {
                continue;
            }
            if confidences[q] < self.min_confidence {
                REJECTED_BY_GATE.inc();
                continue;
            }
            match best[class] {
                Some(cur) if confidences[cur] >= confidences[q] => {}
                _ => best[class] = Some(q),
            }
        }
        for (class, pick) in best.iter().enumerate() {
            if let Some(q) = pick {
                let entry = CacheEntry {
                    embedding: query_embs.row(*q).to_vec(),
                    label: class,
                    confidence: confidences[*q],
                };
                let key = self.next_id;
                self.next_id += 1;
                ADMISSIONS.inc();
                if self.caches[class].insert(key, entry).is_some() {
                    EVICTIONS.inc();
                }
            }
        }
        self.update_gauges();
    }

    /// Admit one sample directly into its class cache (used by the
    /// Table VII random-pseudo-label robustness experiment).
    pub fn admit(&mut self, embedding: Vec<f32>, label: usize, confidence: f32) {
        if label >= self.caches.len() {
            return;
        }
        let key = self.next_id;
        self.next_id += 1;
        ADMISSIONS.inc();
        if self.caches[label]
            .insert(
                key,
                CacheEntry {
                    embedding,
                    label,
                    confidence,
                },
            )
            .is_some()
        {
            EVICTIONS.inc();
        }
        self.update_gauges();
    }

    /// Refresh the live-size gauges. `bucket_members` walks the LFU lists
    /// (O(len)), so it only runs when metrics are actually enabled — with
    /// metrics off this is a single relaxed atomic load.
    fn update_gauges(&self) {
        if !gp_obs::enabled() {
            return;
        }
        CACHED_ENTRIES.set(self.len() as i64);
        LFU_BUCKET_MEMBERS.set(
            self.caches
                .iter()
                .map(AnyCache::bucket_members)
                .sum::<usize>() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embs(rows: usize, dim: usize, fill: impl Fn(usize, usize) -> f32) -> Tensor {
        let mut data = Vec::new();
        for r in 0..rows {
            for c in 0..dim {
                data.push(fill(r, c));
            }
        }
        Tensor::from_vec(rows, dim, data)
    }

    #[test]
    fn admits_most_confident_per_class() {
        let mut aug = PromptAugmenter::new(2, 2);
        // Three queries predicted class 0 (conf .3, .9, .5), one class 1.
        let q = embs(4, 4, |r, c| if c == r { 1.0 } else { 0.0 });
        aug.observe(&q, &[0, 0, 0, 1], &[0.3, 0.9, 0.5, 0.7]);
        assert_eq!(aug.len(), 2);
        let (emb, labels) = aug.cached_prompts(4).unwrap();
        // Class 0's entry must be the most confident (query row 1).
        let class0_row = labels.iter().position(|&l| l == 0).unwrap();
        assert_eq!(emb.row(class0_row), &[0.0, 1.0, 0.0, 0.0]);
        assert!(labels.contains(&1));
    }

    #[test]
    fn per_class_capacity_is_respected() {
        let mut aug = PromptAugmenter::new(2, 3);
        for step in 0..10u64 {
            let q = embs(3, 2, |r, _| (step * 3 + r as u64) as f32);
            aug.observe(&q, &[0, 1, 2], &[0.9, 0.9, 0.9]);
        }
        assert_eq!(aug.len(), 6); // 2 per class × 3 classes
    }

    #[test]
    fn confidence_gate_blocks_admission() {
        let mut aug = PromptAugmenter::new(2, 2).with_min_confidence(0.8);
        let q = embs(2, 2, |_, _| 1.0);
        aug.observe(&q, &[0, 1], &[0.5, 0.79]);
        assert!(aug.is_empty());
        aug.observe(&q, &[0, 1], &[0.85, 0.5]);
        assert_eq!(aug.len(), 1);
    }

    #[test]
    fn similar_queries_protect_entries_from_eviction() {
        let mut aug = PromptAugmenter::new(1, 2);
        aug.admit(vec![1.0, 0.0], 0, 0.9);
        aug.admit(vec![0.0, 1.0], 1, 0.9);
        // Axis-0-like queries keep hitting class 0's entry; class 0's
        // cache refuses churn only through frequency, so its entry's count
        // grows while class 1's stays at insert level.
        for _ in 0..3 {
            let q = embs(1, 2, |_, c| if c == 0 { 1.0 } else { 0.05 });
            aug.observe(&q, &[0], &[0.95]);
        }
        let (_, labels) = aug.cached_prompts(2).unwrap();
        assert!(labels.contains(&0));
        assert!(labels.contains(&1));
        assert_eq!(aug.len(), 2);
    }

    #[test]
    fn cached_prompts_empty_when_new() {
        let aug = PromptAugmenter::new(3, 4);
        assert!(aug.cached_prompts(4).is_none());
        assert!(aug.is_empty());
    }

    #[test]
    fn out_of_range_label_is_ignored() {
        let mut aug = PromptAugmenter::new(2, 2);
        aug.admit(vec![1.0], 7, 0.9);
        assert!(aug.is_empty());
    }

    /// One query refreshes exactly `hit_k` entries. With `hit_k = 1` only
    /// the most similar entry (A) is protected and B is the LFU victim;
    /// with `hit_k = 2` both are refreshed, the tie breaks FIFO, and the
    /// older A is evicted instead.
    #[test]
    fn hit_k_controls_how_many_entries_a_query_refreshes() {
        let setup = || {
            let mut aug = PromptAugmenter::new(2, 2).with_min_confidence(0.5);
            aug.admit(vec![1.0, 0.0], 0, 0.9); // A
            aug.admit(vec![0.8, 0.6], 0, 0.9); // B
            aug.admit(vec![0.0, 1.0], 1, 0.9); // other class
            aug
        };
        let q = embs(1, 2, |_, c| if c == 0 { 1.0 } else { 0.0 });
        let class0_rows = |aug: &PromptAugmenter| -> Vec<Vec<f32>> {
            let (emb, labels) = aug.cached_prompts(2).unwrap();
            labels
                .iter()
                .enumerate()
                .filter(|(_, l)| **l == 0)
                .map(|(i, _)| emb.row(i).to_vec())
                .collect()
        };

        let mut aug = setup();
        aug.observe(&q, &[0], &[0.1]); // below gate: hits only, no admission
        aug.admit(vec![0.5, 0.5], 0, 0.9); // forces one class-0 eviction
        let rows = class0_rows(&aug);
        assert!(rows.contains(&vec![1.0, 0.0]), "A survives under hit_k=1");
        assert!(
            !rows.contains(&vec![0.8, 0.6]),
            "B is the victim under hit_k=1"
        );

        let mut aug = setup().with_hit_k(2);
        aug.observe(&q, &[0], &[0.1]);
        aug.admit(vec![0.5, 0.5], 0, 0.9);
        let rows = class0_rows(&aug);
        assert!(rows.contains(&vec![0.8, 0.6]), "B survives under hit_k=2");
        assert!(
            !rows.contains(&vec![1.0, 0.0]),
            "A is the victim under hit_k=2"
        );
    }

    #[test]
    #[should_panic(expected = "one prediction per query")]
    fn mismatched_predictions_panic() {
        let mut aug = PromptAugmenter::new(2, 1);
        let q = embs(2, 2, |_, _| 0.0);
        aug.observe(&q, &[0], &[0.5, 0.5]);
    }
}
