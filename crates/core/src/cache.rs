//! Alternative cache replacement policies for the Prompt Augmenter.
//!
//! The paper uses LFU ([`crate::LfuCache`]) and notes "we can replace the
//! cache in the prompt augmenter with other caching solutions" (§VI).
//! [`LruCache`] and [`FifoCache`] are provided, unified behind
//! [`AnyCache`] so the augmenter is policy-generic; the `ext-cache-policy`
//! experiment compares them.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::lfu::LfuCache;

/// Which replacement policy the Prompt Augmenter's cache uses.
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

/// A fixed-capacity least-recently-used cache.
///
/// Recency is tracked with a monotonically increasing stamp per entry;
/// eviction scans for the minimum stamp — O(capacity), which is the right
/// trade-off for the augmenter's single-digit capacities.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64)>,
    clock: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be positive");
        Self {
            capacity,
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Refresh a key's recency. Returns false for missing keys.
    pub fn touch(&mut self, key: &K) -> bool {
        self.clock += 1;
        if let Some((_, stamp)) = self.entries.get_mut(key) {
            *stamp = self.clock;
            true
        } else {
            false
        }
    }

    /// Insert with fresh recency, evicting the least recently used entry
    /// when at capacity. Returns the evicted pair.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        if let Some((v, stamp)) = self.entries.get_mut(&key) {
            *v = value;
            *stamp = self.clock;
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            #[expect(
                clippy::disallowed_methods,
                reason = "min_by_key over per-entry stamps; the clock is strictly monotonic so the minimum is unique and independent of map iteration order"
            )]
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())?;
            self.entries.remove(&victim).map(|(v, _)| (victim, v))
        } else {
            None
        };
        self.entries.insert(key, (value, self.clock));
        evicted
    }

    /// Iterate `(key, value)` in arbitrary order.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-erased diagnostic API; result-affecting callers go through AnyCache::sorted_iter"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (v, _))| (k, v))
    }
}

/// A fixed-capacity first-in-first-out cache. Touches are no-ops.
pub struct FifoCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    order: VecDeque<K>,
    entries: HashMap<K, V>,
}

impl<K: Eq + Hash + Clone, V> FifoCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue holds one key per entry and insert evicts at capacity, so it never outgrows the cap"
    )]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FifoCache capacity must be positive");
        Self {
            capacity,
            order: VecDeque::new(),
            entries: HashMap::new(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert, evicting the oldest entry when full. Re-inserting an
    /// existing key replaces its value without changing its position.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(v) = self.entries.get_mut(&key) {
            *v = value;
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.order
                .pop_front()
                .and_then(|victim| self.entries.remove(&victim).map(|v| (victim, v)))
        } else {
            None
        };
        self.order.push_back(key.clone());
        self.entries.insert(key, value);
        evicted
    }

    /// Iterate `(key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order
            .iter()
            .filter_map(|k| self.entries.get(k).map(|v| (k, v)))
    }
}

/// Policy-erased cache used by the Prompt Augmenter.
pub enum AnyCache<K: Eq + Hash + Clone, V> {
    /// LFU-backed.
    Lfu(LfuCache<K, V>),
    /// LRU-backed.
    Lru(LruCache<K, V>),
    /// FIFO-backed.
    Fifo(FifoCache<K, V>),
}

impl<K: Eq + Hash + Clone, V> AnyCache<K, V> {
    /// Create a cache with the given policy and capacity.
    pub fn new(policy: CachePolicy, capacity: usize) -> Self {
        match policy {
            CachePolicy::Lfu => AnyCache::Lfu(LfuCache::new(capacity)),
            CachePolicy::Lru => AnyCache::Lru(LruCache::new(capacity)),
            CachePolicy::Fifo => AnyCache::Fifo(FifoCache::new(capacity)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            AnyCache::Lfu(c) => c.len(),
            AnyCache::Lru(c) => c.len(),
            AnyCache::Fifo(c) => c.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert, evicting per policy.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        match self {
            AnyCache::Lfu(c) => c.insert(key, value),
            AnyCache::Lru(c) => c.insert(key, value),
            AnyCache::Fifo(c) => c.insert(key, value),
        }
    }

    /// Register a use of `key` (no-op under FIFO).
    pub fn touch(&mut self, key: &K) -> bool {
        match self {
            AnyCache::Lfu(c) => c.touch(key),
            AnyCache::Lru(c) => c.touch(key),
            AnyCache::Fifo(_) => false,
        }
    }

    /// Iterate `(key, value)` in arbitrary order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (&K, &V)> + '_> {
        match self {
            AnyCache::Lfu(c) => Box::new(c.iter().map(|(k, v, _)| (k, v))),
            AnyCache::Lru(c) => Box::new(c.iter()),
            AnyCache::Fifo(c) => Box::new(c.iter()),
        }
    }

    /// `(key, value)` pairs in ascending key order — the deterministic
    /// traversal result-affecting callers must use. The LFU/LRU stores
    /// are hash maps whose raw iteration order varies run to run; the
    /// Prompt Augmenter keys entries by a monotonic admission id, so
    /// sorting by key yields admission order regardless of policy.
    pub fn sorted_iter(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Internal bookkeeping size: LFU frequency-bucket membership (see
    /// [`LfuCache::bucket_members`]), or plain [`AnyCache::len`] for
    /// policies without auxiliary index structures. Diagnostics only —
    /// feeds the `augmenter.lfu_bucket_members` gauge.
    pub fn bucket_members(&self) -> usize {
        match self {
            AnyCache::Lfu(c) => c.bucket_members(),
            AnyCache::Lru(c) => c.len(),
            AnyCache::Fifo(c) => c.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.touch(&"a");
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
    }

    #[test]
    fn lru_insert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(
            c.iter().find(|(k, _)| **k == "a").map(|(_, v)| *v),
            Some(10)
        );
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = FifoCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // FIFO has no touch; oldest ("a") goes regardless of use.
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn fifo_reinsert_keeps_position() {
        let mut c = FifoCache::new(2);
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

    #[test]
    fn any_cache_dispatches_all_policies() {
        for policy in [CachePolicy::Lfu, CachePolicy::Lru, CachePolicy::Fifo] {
            let mut c: AnyCache<u32, u32> = AnyCache::new(policy, 2);
            c.insert(1, 10);
            c.insert(2, 20);
            c.touch(&1);
            c.insert(3, 30);
            assert_eq!(c.len(), 2, "{policy:?} exceeded capacity");
            assert_eq!(c.iter().count(), 2);
        }
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        for policy in [CachePolicy::Lfu, CachePolicy::Lru, CachePolicy::Fifo] {
            let mut c: AnyCache<u64, u64> = AnyCache::new(policy, 3);
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
        let _: LruCache<u8, u8> = LruCache::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_zero_capacity_panics() {
        let _: FifoCache<u8, u8> = FifoCache::new(0);
    }
}
