//! Least-Frequently-Used cache, after Matani, Shah & Mitra,
//! *“An O(1) algorithm for implementing the LFU cache eviction scheme”*
//! (the paper's reference \[51\]).
//!
//! Design: a `HashMap<K, Entry>` stores values, use counts and intrusive
//! FIFO links; a `BTreeMap<u64, (head, tail)>` indexes the non-empty
//! frequency buckets, each bucket being a doubly-linked list threaded
//! through the entries. Ties within a frequency evict FIFO (oldest
//! promoted into the bucket first).
//!
//! A key is removed from its old bucket **eagerly** on every promotion
//! and empty buckets are pruned, so total bucket membership is exactly
//! [`LfuCache::len`] at all times (asserted by [`LfuCache::bucket_members`]
//! and a churn test) — an earlier lazy-removal design let stale key clones
//! accumulate without bound under touch-heavy workloads.
//!
//! Complexity: `get`/`touch`/`insert`/`evict` are O(1) hash operations
//! plus one O(log F) bucket-map lookup, where F is the number of
//! *distinct live frequencies* (≤ `len()`, tiny in practice) — there are
//! no scans over entries anywhere.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

static INSERTIONS: gp_obs::Counter = gp_obs::Counter::new("lfu.insertions");
static EVICTIONS: gp_obs::Counter = gp_obs::Counter::new("lfu.evictions");
static TOUCHES: gp_obs::Counter = gp_obs::Counter::new("lfu.touches");

struct Entry<K, V> {
    value: V,
    freq: u64,
    /// Previous (older) key in this entry's frequency bucket.
    prev: Option<K>,
    /// Next (newer) key in this entry's frequency bucket.
    next: Option<K>,
}

/// A fixed-capacity LFU cache.
///
/// ```
/// use gp_core::LfuCache;
///
/// let mut cache = LfuCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.touch(&"a");                       // protect "a"
/// let evicted = cache.insert("c", 3);      // evicts the least used
/// assert_eq!(evicted, Some(("b", 2)));
/// ```
pub struct LfuCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    entries: HashMap<K, Entry<K, V>>,
    /// `freq → (head, tail)` of that bucket's FIFO list. Invariant: a
    /// bucket is present iff it has at least one member, so
    /// `first_key_value` is always the live minimum frequency.
    buckets: BTreeMap<u64, (K, K)>,
}

impl<K: Eq + Hash + Clone, V> LfuCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LfuCache capacity must be positive");
        Self {
            capacity,
            entries: HashMap::new(),
            buckets: BTreeMap::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up without touching the frequency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Look up and bump the use count.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.entries.contains_key(key) {
            self.touch(key);
        }
        self.entries.get(key).map(|e| &e.value)
    }

    /// Bump a key's use count without reading it (a "hit" in the paper's
    /// Prompt Augmenter: similar queries refresh cached prompts). The key
    /// moves from its old frequency bucket to the new one eagerly.
    #[expect(
        clippy::expect_used,
        reason = "contains_key is checked on entry; intrusive bucket-list invariant: every link and bucket member names a live entry"
    )]
    pub fn touch(&mut self, key: &K) -> bool {
        if !self.entries.contains_key(key) {
            return false;
        }
        TOUCHES.inc();
        self.unlink(key);
        let new_freq = {
            let e = self.entries.get_mut(key).expect("checked above");
            e.freq += 1;
            e.freq
        };
        self.push_tail(new_freq, key.clone());
        true
    }

    /// Insert (or replace) a value with use count 1, evicting the least
    /// frequently used entry if at capacity. Returns the evicted pair.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(e) = self.entries.get_mut(&key) {
            e.value = value;
            self.touch(&key);
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.evict()
        } else {
            None
        };
        INSERTIONS.inc();
        self.entries.insert(
            key.clone(),
            Entry {
                value,
                freq: 1,
                prev: None,
                next: None,
            },
        );
        self.push_tail(1, key);
        evicted
    }

    /// Iterate `(key, value, freq)` in arbitrary order.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-erased diagnostic API; result-affecting callers go through AnyCache::sorted_iter"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, u64)> {
        self.entries.iter().map(|(k, e)| (k, &e.value, e.freq))
    }

    /// Keys in deterministic eviction order: ascending use count, FIFO
    /// within a count (the next eviction victim comes first). Walks the
    /// intrusive bucket lists, so the order is reproducible across runs —
    /// unlike [`LfuCache::iter`] — at O(len) cost. The embedding store's
    /// disk-tier flush uses this to serialize shards deterministically.
    pub fn ordered_keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (head, _) in self.buckets.values() {
            let mut cur = Some(head.clone());
            while let Some(k) = cur {
                cur = self.entries.get(&k).and_then(|e| e.next.clone());
                out.push(k);
            }
        }
        out
    }

    /// Remove and return the least frequently used entry (FIFO within the
    /// minimum frequency).
    #[expect(
        clippy::expect_used,
        reason = "intrusive bucket-list invariant: every link and bucket member names a live entry"
    )]
    pub fn evict(&mut self) -> Option<(K, V)> {
        let victim = self.buckets.first_key_value()?.1 .0.clone();
        self.unlink(&victim);
        let entry = self.entries.remove(&victim).expect("bucket member exists");
        EVICTIONS.inc();
        Some((victim, entry.value))
    }

    /// Total membership across all frequency buckets, counted by walking
    /// the lists. Diagnostics only (O(len)): by construction this always
    /// equals [`LfuCache::len`] — the churn test and the augmenter's
    /// `augmenter.lfu_bucket_members` gauge use it as a regression
    /// tripwire against stale-entry growth.
    #[expect(
        clippy::expect_used,
        reason = "intrusive bucket-list invariant: every link and bucket member names a live entry"
    )]
    pub fn bucket_members(&self) -> usize {
        let mut n = 0usize;
        for (head, _) in self.buckets.values() {
            let mut cur = Some(head.clone());
            while let Some(k) = cur {
                n += 1;
                cur = self
                    .entries
                    .get(&k)
                    .expect("bucket links point at live entries")
                    .next
                    .clone();
            }
        }
        n
    }

    /// Detach `key` from its frequency bucket, pruning the bucket when it
    /// empties. The entry stays in `entries` with cleared links.
    #[expect(
        clippy::expect_used,
        reason = "intrusive bucket-list invariant: every link and bucket member names a live entry"
    )]
    fn unlink(&mut self, key: &K) {
        let (freq, prev, next) = {
            let e = self.entries.get_mut(key).expect("unlink of live key");
            (e.freq, e.prev.take(), e.next.take())
        };
        if let Some(p) = &prev {
            self.entries.get_mut(p).expect("prev link is live").next = next.clone();
        }
        if let Some(n) = &next {
            self.entries.get_mut(n).expect("next link is live").prev = prev.clone();
        }
        match (prev, next) {
            (None, None) => {
                self.buckets.remove(&freq);
            }
            (None, Some(n)) => {
                self.buckets.get_mut(&freq).expect("bucket exists").0 = n;
            }
            (Some(p), None) => {
                self.buckets.get_mut(&freq).expect("bucket exists").1 = p;
            }
            (Some(_), Some(_)) => {}
        }
    }

    /// Append `key` (links already cleared) to the tail of bucket `freq`.
    #[expect(
        clippy::expect_used,
        reason = "intrusive bucket-list invariant: every link and bucket member names a live entry"
    )]
    fn push_tail(&mut self, freq: u64, key: K) {
        match self.buckets.get_mut(&freq) {
            Some((_, tail)) => {
                let old_tail = std::mem::replace(tail, key.clone());
                self.entries
                    .get_mut(&old_tail)
                    .expect("tail link is live")
                    .next = Some(key.clone());
                self.entries.get_mut(&key).expect("pushed key is live").prev = Some(old_tail);
            }
            None => {
                self.buckets.insert(freq, (key.clone(), key));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut c = LfuCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // a: freq 2, b: freq 1
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.peek(&"a").is_some());
        assert!(c.peek(&"c").is_some());
    }

    #[test]
    fn fifo_tie_break_within_frequency() {
        let mut c = LfuCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Both freq 1 → oldest ("a") goes first.
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn touch_protects_entry() {
        let mut c = LfuCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        c.touch(&"a");
        c.touch(&"a");
        c.touch(&"b");
        let evicted = c.insert("d", 4);
        assert_eq!(evicted, Some(("c", 3)));
    }

    #[test]
    fn reinsert_updates_value_and_bumps() {
        let mut c = LfuCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        assert_eq!(c.peek(&"a"), Some(&10));
        c.insert("b", 2);
        // "a" has freq 2 (insert + touch), "b" freq 1 → b evicted.
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
    }

    #[test]
    fn touch_on_missing_key_is_false() {
        let mut c: LfuCache<&str, i32> = LfuCache::new(1);
        assert!(!c.touch(&"nope"));
    }

    #[test]
    fn never_exceeds_capacity_under_churn() {
        let mut c = LfuCache::new(3);
        for i in 0..100u64 {
            c.insert(i, i);
            if i % 3 == 0 {
                c.touch(&i);
            }
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn eviction_order_respects_frequency_globally() {
        let mut c = LfuCache::new(4);
        for (k, touches) in [("w", 5), ("x", 3), ("y", 1), ("z", 0)] {
            c.insert(k, 0);
            for _ in 0..touches {
                c.touch(&k);
            }
        }
        assert_eq!(c.evict().unwrap().0, "z");
        assert_eq!(c.evict().unwrap().0, "y");
        assert_eq!(c.evict().unwrap().0, "x");
        assert_eq!(c.evict().unwrap().0, "w");
        assert!(c.evict().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: LfuCache<u8, u8> = LfuCache::new(0);
    }

    /// The regression the lazy-removal design failed: under touch-heavy
    /// churn, internal bucket membership must stay exactly `len()` —
    /// stale key clones used to accumulate without bound.
    #[test]
    fn bucket_membership_bounded_under_touch_heavy_churn() {
        let mut c: LfuCache<u64, u64> = LfuCache::new(8);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..10_000u64 {
            match rng() % 10 {
                // Touch-heavy mix: 70% touches, 20% inserts, 10% evict/get.
                0..=6 => {
                    c.touch(&(rng() % 16));
                }
                7..=8 => {
                    c.insert(rng() % 16, i);
                }
                9 => {
                    if i % 2 == 0 {
                        c.evict();
                    } else {
                        c.get(&(rng() % 16));
                    }
                }
                _ => unreachable!(),
            }
            assert!(c.len() <= 8);
            let members = c.bucket_members();
            assert!(
                members <= c.len(),
                "step {i}: {members} bucket members for {} entries",
                c.len()
            );
            assert_eq!(members, c.len(), "membership must be exact, step {i}");
        }
    }

    /// Naive O(n²) reference model: victim is min by (freq, order of
    /// promotion into its current frequency).
    struct NaiveLfu {
        cap: usize,
        /// `(key, value, freq, promoted_at)`.
        entries: Vec<(u64, u64, u64, u64)>,
        clock: u64,
    }

    impl NaiveLfu {
        fn new(cap: usize) -> Self {
            Self {
                cap,
                entries: Vec::new(),
                clock: 0,
            }
        }

        fn touch(&mut self, key: u64) -> bool {
            self.clock += 1;
            for e in &mut self.entries {
                if e.0 == key {
                    e.2 += 1;
                    e.3 = self.clock;
                    return true;
                }
            }
            false
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
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
            self.entries.push((key, value, 1, self.clock));
            evicted
        }

        fn evict(&mut self) -> Option<u64> {
            let pos = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.2, e.3))
                .map(|(i, _)| i)?;
            Some(self.entries.remove(pos).0)
        }
    }

    /// Fixed-seed companion of the LFU property test: the repaired cache agrees
    /// with the naive reference on every evicted key and on the final
    /// contents, over a long random op sequence.
    #[test]
    fn agrees_with_naive_reference_model() {
        for seed in [1u64, 7, 42, 1234] {
            let cap = 1 + (seed as usize % 6);
            let mut real: LfuCache<u64, u64> = LfuCache::new(cap);
            let mut naive = NaiveLfu::new(cap);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 0..2_000u64 {
                let key = rng() % 12;
                match rng() % 4 {
                    0 | 1 => {
                        let got = real.insert(key, i).map(|(k, _)| k);
                        let want = naive.insert(key, i);
                        assert_eq!(got, want, "seed {seed} step {i}: eviction disagreed");
                    }
                    2 => {
                        assert_eq!(real.touch(&key), naive.touch(key), "seed {seed} step {i}");
                    }
                    3 => {
                        let got = real.evict().map(|(k, _)| k);
                        let want = naive.evict();
                        assert_eq!(got, want, "seed {seed} step {i}: evict() disagreed");
                    }
                    _ => unreachable!(),
                }
                assert_eq!(real.len(), naive.entries.len());
                assert_eq!(real.bucket_members(), real.len());
            }
            // Final contents agree: same keys, values and frequencies.
            let mut got: Vec<(u64, u64, u64)> = real.iter().map(|(k, v, f)| (*k, *v, f)).collect();
            got.sort_unstable();
            let mut want: Vec<(u64, u64, u64)> =
                naive.entries.iter().map(|e| (e.0, e.1, e.2)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: final contents disagreed");
        }
    }
}
