//! The fixed-capacity replacement-policy cache behind the Prompt
//! Augmenter and the embedding store's RAM tier.
//!
//! The paper evicts least-frequently-used entries, after Matani, Shah &
//! Mitra, *“An O(1) algorithm for implementing the LFU cache eviction
//! scheme”* (its reference \[51\]), and notes "we can replace the cache in
//! the prompt augmenter with other caching solutions" (§VI); the
//! `ext-cache-policy` experiment compares LFU, LRU and FIFO.
//!
//! One [`Cache`] serves all three. Every entry has a position
//! `(rank, stamp)`, and an ordered index from position to key puts the
//! next victim first. The [`CachePolicy`] only decides how a position
//! moves:
//!
//! * **LFU** — the rank is the use count, and the stamp is renewed
//!   whenever the count changes, so ties evict FIFO within a count.
//! * **LRU** — the rank is 0, and the stamp is renewed on every touch and
//!   re-insert.
//! * **FIFO** — the rank is 0, and the stamp is set once at insert;
//!   touches are ignored.
//!
//! Stamps come from one strictly increasing clock, so positions are
//! unique and the eviction order is reproducible run to run. Every
//! operation is O(1) hash work plus O(log len) index work.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

static INSERTIONS: gp_obs::Counter = gp_obs::Counter::new("cache.insertions");
static EVICTIONS: gp_obs::Counter = gp_obs::Counter::new("cache.evictions");
static TOUCHES: gp_obs::Counter = gp_obs::Counter::new("cache.touches");

/// Which replacement policy a [`Cache`] uses.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-frequently-used (the paper's choice).
    #[default]
    Lfu,
    /// Least-recently-used.
    Lru,
    /// First-in-first-out (insertion order; touches are ignored).
    Fifo,
}

/// An entry's place in the eviction order: `(rank, stamp)`.
type Position = (u64, u64);

/// A fixed-capacity cache whose victim is the entry with the smallest
/// `(rank, stamp)` under its [`CachePolicy`].
///
/// ```
/// use gp_core::{Cache, CachePolicy};
///
/// let mut cache = Cache::new(CachePolicy::Lfu, 2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.touch(&"a");                       // protect "a"
/// let evicted = cache.insert("c", 3);      // evicts the least used
/// assert_eq!(evicted, Some(("b", 2)));
/// ```
pub struct Cache<K: Eq + Hash + Clone, V> {
    policy: CachePolicy,
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, Position)>,
    /// One key per entry; the first is the next victim.
    order: BTreeMap<Position, K>,
}

impl<K: Eq + Hash + Clone, V> Cache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(policy: CachePolicy, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            policy,
            capacity,
            clock: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up without registering a use.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _)| v)
    }

    /// Look up and register a use (see [`Cache::touch`]).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.touch(key);
        self.peek(key)
    }

    /// Register a use of `key` without reading it (a "hit" in the paper's
    /// Prompt Augmenter: similar queries refresh cached prompts). Returns
    /// false for a missing key, and always under FIFO.
    pub fn touch(&mut self, key: &K) -> bool {
        if self.policy == CachePolicy::Fifo {
            return false;
        }
        let Some((_, pos)) = self.entries.get_mut(key) else {
            return false;
        };
        TOUCHES.inc();
        self.clock += 1;
        let rank = pos.0 + u64::from(self.policy == CachePolicy::Lfu);
        let old = std::mem::replace(pos, (rank, self.clock));
        if let Some(k) = self.order.remove(&old) {
            self.order.insert(*pos, k);
        }
        true
    }

    /// Insert a new entry, evicting the victim first when at capacity, and
    /// return the evicted pair. Re-inserting a key replaces its value and
    /// counts as a [`Cache::touch`].
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some((v, _)) = self.entries.get_mut(&key) {
            *v = value;
            self.touch(&key);
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.evict()
        } else {
            None
        };
        INSERTIONS.inc();
        self.clock += 1;
        let pos = (u64::from(self.policy == CachePolicy::Lfu), self.clock);
        self.order.insert(pos, key.clone());
        self.entries.insert(key, (value, pos));
        evicted
    }

    /// Remove and return the victim: the smallest `(rank, stamp)`.
    pub fn evict(&mut self) -> Option<(K, V)> {
        let (_, key) = self.order.pop_first()?;
        let (value, _) = self.entries.remove(&key)?;
        EVICTIONS.inc();
        Some((key, value))
    }

    /// `(key, value)` pairs in eviction order, the next victim first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order
            .values()
            .filter_map(|k| self.entries.get(k).map(|(v, _)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [CachePolicy; 3] = [CachePolicy::Lfu, CachePolicy::Lru, CachePolicy::Fifo];

    #[test]
    fn insert_and_get() {
        let mut c = Cache::new(CachePolicy::Lfu, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = Cache::new(CachePolicy::Lfu, 2);
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
        let mut c = Cache::new(CachePolicy::Lfu, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Both freq 1 → oldest ("a") goes first.
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn touch_protects_entry() {
        let mut c = Cache::new(CachePolicy::Lfu, 3);
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
        let mut c = Cache::new(CachePolicy::Lfu, 2);
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
        for policy in POLICIES {
            let mut c: Cache<&str, i32> = Cache::new(policy, 1);
            assert!(!c.touch(&"nope"), "{policy:?}");
        }
    }

    #[test]
    fn never_exceeds_capacity_under_churn() {
        let mut c = Cache::new(CachePolicy::Lfu, 3);
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
        let mut c = Cache::new(CachePolicy::Lfu, 4);
        for (k, touches) in [("w", 5), ("x", 3), ("y", 1), ("z", 0)] {
            c.insert(k, 0);
            for _ in 0..touches {
                c.touch(&k);
            }
        }
        let order: Vec<&str> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, ["z", "y", "x", "w"], "iter() runs in eviction order");
        assert_eq!(c.evict().unwrap().0, "z");
        assert_eq!(c.evict().unwrap().0, "y");
        assert_eq!(c.evict().unwrap().0, "x");
        assert_eq!(c.evict().unwrap().0, "w");
        assert!(c.evict().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: Cache<u8, u8> = Cache::new(CachePolicy::Lfu, 0);
    }

    /// Under touch-heavy churn the order index must hold exactly one key
    /// per entry (an earlier lazy-removal LFU let stale key clones
    /// accumulate without bound).
    #[test]
    fn bucket_membership_bounded_under_touch_heavy_churn() {
        let mut c: Cache<u64, u64> = Cache::new(CachePolicy::Lfu, 8);
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
            assert_eq!(c.order.len(), c.len(), "one index key per entry, step {i}");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CachePolicy::Lru, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.touch(&"a");
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
    }

    #[test]
    fn lru_insert_refreshes_recency() {
        let mut c = Cache::new(CachePolicy::Lru, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(c.peek(&"a"), Some(&10));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = Cache::new(CachePolicy::Fifo, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(!c.touch(&"a"), "FIFO registers no use");
        // Oldest ("a") goes regardless of use.
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn fifo_reinsert_keeps_position() {
        let mut c = Cache::new(CachePolicy::Fifo, 2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        let evicted = c.insert("c", 3);
        assert_eq!(
            evicted,
            Some(("a", 10)),
            "re-insert must not move 'a' to the back"
        );
    }

    /// One touched key, three victims: LFU and LRU protect the touched
    /// entry, FIFO evicts the oldest regardless.
    #[test]
    fn any_cache_dispatches_all_policies() {
        for (policy, victim) in [
            (CachePolicy::Lfu, 2),
            (CachePolicy::Lru, 2),
            (CachePolicy::Fifo, 1),
        ] {
            let mut c: Cache<u32, u32> = Cache::new(policy, 2);
            c.insert(1, 10);
            c.insert(2, 20);
            c.touch(&1);
            assert_eq!(c.insert(3, 30).map(|(k, _)| k), Some(victim), "{policy:?}");
            assert_eq!(c.len(), 2, "{policy:?} exceeded capacity");
            assert_eq!(c.iter().count(), 2);
        }
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        for policy in POLICIES {
            let mut c: Cache<u64, u64> = Cache::new(policy, 3);
            for i in 0..200u64 {
                c.insert(i % 17, i);
                if i % 2 == 0 {
                    c.touch(&(i % 17));
                }
                assert!(c.len() <= 3, "{policy:?} overflowed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn lru_zero_capacity_panics() {
        let _: Cache<u8, u8> = Cache::new(CachePolicy::Lru, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_zero_capacity_panics() {
        let _: Cache<u8, u8> = Cache::new(CachePolicy::Fifo, 0);
    }

    /// Naive O(n) reference model: the victim is the minimum
    /// `(rank, stamp)`, found by a scan, under the rules in the module
    /// docs.
    struct Naive {
        policy: CachePolicy,
        cap: usize,
        /// `(key, value, rank, stamp)`.
        entries: Vec<(u64, u64, u64, u64)>,
        clock: u64,
    }

    impl Naive {
        fn new(policy: CachePolicy, cap: usize) -> Self {
            Self {
                policy,
                cap,
                entries: Vec::new(),
                clock: 0,
            }
        }

        fn touch(&mut self, key: u64) -> bool {
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
            let rank = u64::from(self.policy == CachePolicy::Lfu);
            self.entries.push((key, value, rank, self.clock));
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

        /// `(key, value)` in eviction order.
        fn contents(&self) -> Vec<(u64, u64)> {
            let mut sorted = self.entries.clone();
            sorted.sort_unstable_by_key(|e| (e.2, e.3));
            sorted.iter().map(|e| (e.0, e.1)).collect()
        }
    }

    /// Fixed-seed companion of the agreement property test: for every
    /// policy the cache agrees with the naive model on every evicted key
    /// and on the final contents, in eviction order, over a long random
    /// op sequence.
    #[test]
    fn agrees_with_naive_reference_model() {
        for policy in POLICIES {
            for seed in [1u64, 7, 42, 1234] {
                let cap = 1 + (seed as usize % 6);
                let mut real: Cache<u64, u64> = Cache::new(policy, cap);
                let mut naive = Naive::new(policy, cap);
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let at = |i| format!("{policy:?} seed {seed} step {i}");
                for i in 0..2_000u64 {
                    let key = rng() % 12;
                    match rng() % 4 {
                        0 | 1 => {
                            let got = real.insert(key, i).map(|(k, _)| k);
                            assert_eq!(got, naive.insert(key, i), "{}: insert", at(i));
                        }
                        2 => assert_eq!(real.touch(&key), naive.touch(key), "{}", at(i)),
                        3 => {
                            let got = real.evict().map(|(k, _)| k);
                            assert_eq!(got, naive.evict(), "{}: evict", at(i));
                        }
                        _ => unreachable!(),
                    }
                    assert_eq!(real.len(), naive.entries.len(), "{}", at(i));
                    assert_eq!(real.order.len(), real.len(), "{}", at(i));
                }
                let got: Vec<(u64, u64)> = real.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(
                    got,
                    naive.contents(),
                    "{policy:?} seed {seed}: final contents"
                );
            }
        }
    }
}
