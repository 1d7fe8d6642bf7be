//! The Prompt Augmenter in isolation: watch the per-class LFU cache admit
//! high-confidence pseudo-labelled queries, refresh entries on similarity
//! hits, and evict least-frequently-used victims (§IV-C, Eq. 9).
//!
//! ```text
//! cargo run --release --example online_augmentation
//! ```

use graphprompter::core::{Cache, CachePolicy, PromptAugmenter};
use graphprompter::tensor::Tensor;

fn main() {
    // --- Plain LFU cache (the paper's reference [51]) --------------------
    println!("== LFU cache ==");
    let mut cache: Cache<&str, &str> = Cache::new(CachePolicy::Lfu, 2);
    cache.insert("paris", "capital_of fr");
    cache.insert("rome", "capital_of it");
    cache.touch(&"paris"); // a hit protects the entry
    let evicted = cache.insert("berlin", "capital_of de");
    println!(
        "inserted berlin → evicted {:?} (LFU, not FIFO)",
        evicted.map(|e| e.0)
    );

    // --- Prompt Augmenter over a toy episode -----------------------------
    println!("\n== Prompt Augmenter (3 classes, cache c = 2 per class) ==");
    let mut aug = PromptAugmenter::new(2, 3).with_min_confidence(0.6);

    // Batch 1: class-0 and class-1 queries, one of each confident enough.
    let batch1 = Tensor::from_vec(
        3,
        2,
        vec![
            1.0, 0.0, // class 0, confident
            0.0, 1.0, // class 1, confident
            0.6, 0.4, // class 0, below the gate
        ],
    );
    aug.observe(&batch1, &[0, 1, 0], &[0.9, 0.8, 0.4]);
    println!("after batch 1: {} cached samples", aug.len());

    // Batch 2: a near-duplicate of the class-0 entry arrives — the hit
    // bumps its use count; a confident class-2 query is admitted.
    let batch2 = Tensor::from_vec(2, 2, vec![0.98, 0.05, -0.7, 0.7]);
    aug.observe(&batch2, &[0, 2], &[0.95, 0.85]);
    println!("after batch 2: {} cached samples", aug.len());

    let (embs, labels) = aug.cached_prompts(2).expect("cache is non-empty");
    println!("cached prompt set Ŝ∪C rows:");
    for (r, label) in labels.iter().enumerate() {
        println!(
            "  label {label} ← [{:+.2}, {:+.2}]",
            embs.get(r, 0),
            embs.get(r, 1)
        );
    }

    // The augmented set is what Alg. 2 feeds to the task graph alongside
    // the Prompt Selector's Ŝ — see `Engine::run_episode` for the full
    // pipeline and `experiments fig5` for the cache-size sweep.
    println!("\n(see `cargo run -p gp-bench --release --bin experiments -- fig5`)");
}
