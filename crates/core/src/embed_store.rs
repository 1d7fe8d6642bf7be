//! Cross-episode memoization of candidate subgraph embeddings.
//!
//! Candidate datapoints repeat heavily across evaluation episodes (an
//! episode draws `N` candidates per class from the same train split), and
//! since PR "parallel kernels + embedding reuse" their subgraph RNG is
//! derived purely from `(candidate_seed, datapoint)` — see
//! [`crate::config::InferenceConfig::candidate_seed`] — a candidate's
//! embedding is a pure function of:
//!
//! * the datapoint,
//! * the candidate sampling seed,
//! * the sampler geometry (hops, node cap, fan-out),
//! * the reconstruction stage toggle,
//! * the dataset the point indexes into (a `DataPoint` is only an id;
//!   `Node(7)` on two graphs is two different subgraphs),
//! * and the model weights.
//!
//! [`EmbeddingStore`] memoizes exactly that function, in two tiers:
//!
//! * **L0 (RAM)** — an LFU [`crate::Cache`] of f32 rows. Lookups bump the
//!   use count; the least-frequently-used entry (FIFO within a count) is
//!   the eviction victim.
//! * **L1 (disk, optional)** — persistent GPES shards
//!   ([`crate::embed_disk`]), one per `(dataset, revision)`, holding the
//!   same f32 entries. L0 evictions *demote* into L1; an L1 hit is copied
//!   and *promoted* back into L0. Shards survive the process, so a
//!   restarted engine (same weights, same backend) warm-starts instead of
//!   re-embedding its prompt pool.
//!
//! The dataset enters the key as a fingerprint
//! ([`EmbeddingStore::dataset_id`]) covering the dataset's shape *and a
//! sample of its contents* (feature rows, edge endpoints), so one store
//! can serve an `Engine` that is evaluated against several graphs in turn
//! without cross-dataset collisions — including two same-shape datasets
//! generated from different seeds. Weights are tracked by
//! [`gp_nn::ParamStore::revision`]: any mutation bumps the revision and
//! both tiers drop their contents the next time the store is consulted —
//! stale reuse is impossible by construction. Because revision counters
//! are process-local, the disk tier additionally records a fingerprint of
//! the weight bits (see [`EmbeddingStore::set_weights_context`]); until
//! the context is installed the store runs L0-only.
//!
//! The store is internally synchronized, so one instance can serve all
//! episode worker threads of an `Engine` evaluation concurrently.
//!
//! Process-wide metrics: the `embed_store.*` counters and the
//! `embed_store.len` / `embed_store.disk.len` gauges aggregate across
//! *all* live stores (gp-serve runs one store per session): each store
//! publishes only the delta of its own residency, so concurrent sessions
//! add up instead of overwriting each other. Per-store numbers come from
//! [`EmbeddingStore::stats`], which is the per-session source of truth.

use gp_obs::sync::{Mutex, Rank};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use gp_datasets::{DataPoint, Dataset, Task};
use gp_graph::SamplerConfig;

use crate::cache::{Cache, CachePolicy};
use crate::embed_disk::DiskTier;

static HITS: gp_obs::Counter = gp_obs::Counter::new("embed_store.hits");
static MISSES: gp_obs::Counter = gp_obs::Counter::new("embed_store.misses");
static INVALIDATIONS: gp_obs::Counter = gp_obs::Counter::new("embed_store.invalidations");
static LEN: gp_obs::Gauge = gp_obs::Gauge::new("embed_store.len");
static DISK_HITS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.hits");
static DISK_LEN: gp_obs::Gauge = gp_obs::Gauge::new("embed_store.disk.len");
static DEMOTIONS: gp_obs::Counter = gp_obs::Counter::new("embed_store.demotions");
static PROMOTIONS: gp_obs::Counter = gp_obs::Counter::new("embed_store.promotions");

/// Memoization key: everything an embedding depends on except the weights
/// (which are handled by revision tracking on the whole store).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub(crate) dataset_id: u64,
    pub(crate) point: DataPoint,
    pub(crate) candidate_seed: u64,
    pub(crate) hops: usize,
    pub(crate) max_nodes: usize,
    pub(crate) neighbors_per_node: usize,
    pub(crate) use_reconstruction: bool,
}

/// One memoized result: the embedding row and its selector importance.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) embedding: Vec<f32>,
    pub(crate) importance: f32,
}

struct Inner {
    /// [`gp_nn::ParamStore::revision`] the entries were computed at.
    revision: u64,
    /// Fingerprint of the weight bits at `revision`, once the owning
    /// engine has installed it. The disk tier is inert without it.
    weights_fp: Option<u64>,
    l0: Cache<Key, Entry>,
    disk: Option<DiskTier>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    disk_hits: u64,
    demotions: u64,
    promotions: u64,
    /// L0/L1 sizes last published to the aggregate gauges; publishing
    /// deltas (not absolutes) keeps multiple live stores additive.
    reported_len: i64,
    reported_disk_len: i64,
}

impl Inner {
    /// Publish residency changes to the process-wide gauges as deltas.
    fn refresh_gauges(&mut self) {
        let len = self.l0.len() as i64;
        if len != self.reported_len {
            LEN.offset(len - self.reported_len);
            self.reported_len = len;
        }
        let disk_len = self.disk.as_ref().map_or(0, DiskTier::len) as i64;
        if disk_len != self.reported_disk_len {
            DISK_LEN.offset(disk_len - self.reported_disk_len);
            self.reported_disk_len = disk_len;
        }
    }
}

/// Counters describing how an [`EmbeddingStore`] has been used.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EmbedCacheStats {
    /// Lookups answered from the store (either tier).
    pub hits: u64,
    /// Lookups that required a fresh embedding.
    pub misses: u64,
    /// Times the whole store was dropped because the model weights
    /// changed underneath it.
    pub invalidations: u64,
    /// Entries currently resident in the RAM tier.
    pub len: usize,
    /// The subset of `hits` answered by the disk tier (always 0 without
    /// one).
    pub disk_hits: u64,
    /// RAM-tier evictions parked in the disk tier.
    pub demotions: u64,
    /// Disk-tier hits copied back into the RAM tier.
    pub promotions: u64,
    /// Entries currently resident in the disk tier's open shards.
    pub disk_len: usize,
    /// Damaged shard files detected (CRC/structure) and discarded as cold
    /// misses.
    pub corrupt_shards: u64,
}

/// Bounded, internally synchronized, optionally disk-backed memo table
/// for candidate embeddings.
pub struct EmbeddingStore {
    capacity: usize,
    /// Recovered after a panic (`gp_obs::sync`): entries are only ever
    /// written whole under the lock, so a panicking holder cannot leave a
    /// torn entry — the worst case after recovery is a stale miss.
    inner: Mutex<Inner>,
}

impl EmbeddingStore {
    /// A RAM-only store holding at most `capacity` embeddings (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A tiered store: `capacity` embeddings in RAM, overflow demoted to
    /// persistent GPES shards under `dir` (created on first write). The
    /// disk tier stays inert until [`EmbeddingStore::set_weights_context`]
    /// ties the current revision to actual weight bits.
    pub fn with_disk_tier(capacity: usize, dir: impl Into<PathBuf>) -> Self {
        Self::build(capacity, Some(DiskTier::new(dir.into())))
    }

    fn build(capacity: usize, disk: Option<DiskTier>) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(
                Rank::EmbeddingStore,
                Inner {
                    revision: 0,
                    weights_fp: None,
                    l0: Cache::new(CachePolicy::Lfu, capacity),
                    disk,
                    hits: 0,
                    misses: 0,
                    invalidations: 0,
                    disk_hits: 0,
                    demotions: 0,
                    promotions: 0,
                    reported_len: 0,
                    reported_disk_len: 0,
                },
            ),
        }
    }

    /// Maximum number of RAM-resident embeddings.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when this store was built with a persistent disk tier.
    pub fn has_disk_tier(&self) -> bool {
        self.inner.lock().disk.is_some()
    }

    /// Fingerprint used as the dataset axis of the memoization key. Hashes
    /// the dataset's name, task, class count, graph size, split sizes,
    /// *and a strided sample of its contents* (up to 16 node-feature rows
    /// and 16 edge triples) — cheap, stable for the lifetime of a
    /// `Dataset`, and distinct for any two datasets a caller could
    /// plausibly interleave on one engine. The content sample is what
    /// separates two datasets generated from the same config with
    /// different seeds: they agree on every size, but not on feature bits
    /// or edge endpoints. Two genuinely identical datasets (same generator
    /// config, same seed) fingerprint identically, so regenerating a
    /// dataset does not cold-start the cache.
    pub fn dataset_id(dataset: &Dataset) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        dataset.name.hash(&mut h);
        match dataset.task {
            Task::NodeClassification => 0u8.hash(&mut h),
            Task::EdgeClassification => 1u8.hash(&mut h),
        }
        dataset.num_classes.hash(&mut h);
        dataset.graph.num_nodes().hash(&mut h);
        dataset.graph.num_edges().hash(&mut h);
        dataset.train.len().hash(&mut h);
        dataset.valid.len().hash(&mut h);
        dataset.test.len().hash(&mut h);
        // Content sample: same-shape datasets from different seeds agree
        // on everything above, so fold in actual bits.
        let n = dataset.graph.num_nodes();
        if n > 0 {
            let stride = (n / 16).max(1);
            let mut v = 0;
            while v < n {
                for x in dataset.graph.feature_row(v as u32) {
                    x.to_bits().hash(&mut h);
                }
                v += stride;
            }
        }
        let m = dataset.graph.num_edges();
        if m > 0 {
            let stride = (m / 16).max(1);
            let mut e = 0;
            while e < m {
                let t = dataset.graph.triple(e as u32);
                t.head.hash(&mut h);
                t.rel.hash(&mut h);
                t.tail.hash(&mut h);
                e += stride;
            }
        }
        h.finish()
    }

    fn key(
        dataset_id: u64,
        point: DataPoint,
        candidate_seed: u64,
        sampler: &SamplerConfig,
        use_reconstruction: bool,
    ) -> Key {
        Key {
            dataset_id,
            point,
            candidate_seed,
            hops: sampler.hops,
            max_nodes: sampler.max_nodes,
            neighbors_per_node: sampler.neighbors_per_node,
            use_reconstruction,
        }
    }

    /// Adopt `revision` if it is newer than the store's, dropping both
    /// tiers (entries computed under older weights, including their shard
    /// files). Older revisions are never adopted
    /// ([`gp_nn::ParamStore::revision`] is monotonic, so an older revision
    /// can only mean a stale caller) — the callers treat them as a miss /
    /// no-op instead of letting them clear fresher entries.
    fn sync_revision(&self, inner: &mut Inner, revision: u64) {
        if revision > inner.revision {
            let had_entries =
                !inner.l0.is_empty() || inner.disk.as_ref().is_some_and(|d| d.len() > 0);
            if had_entries {
                inner.invalidations += 1;
                INVALIDATIONS.inc();
            }
            inner.l0 = Cache::new(CachePolicy::Lfu, self.capacity);
            if let Some(disk) = inner.disk.as_mut() {
                disk.invalidate();
            }
            inner.revision = revision;
            inner.weights_fp = None;
            inner.refresh_gauges();
        }
    }

    /// Install the fingerprint of the weight bits backing `revision`,
    /// arming the disk tier. Revision counters are process-local, so the
    /// fingerprint (weight bits + compute backend) is what lets a shard
    /// written by a previous process be trusted — or rejected — on a warm
    /// start. The owning engine calls this before every episode batch;
    /// external callers only need it when driving the store directly.
    pub fn set_weights_context(&self, revision: u64, weights_fp: u64) {
        let mut inner = self.inner.lock();
        // `sync_revision` may drop stale shards on disk; the inner mutex IS the store's
        // single-writer serialization point (tiered design).
        self.sync_revision(&mut inner, revision);
        if inner.revision == revision {
            inner.weights_fp = Some(weights_fp);
        }
    }

    /// Fetch a memoized embedding, if one computed at exactly `revision`
    /// (the current [`gp_nn::ParamStore::revision`]) exists in either
    /// tier. A newer revision drops every entry before the lookup; an
    /// older one is answered as a miss without touching the store. A disk
    /// hit is promoted into the RAM tier.
    pub fn lookup(
        &self,
        revision: u64,
        dataset_id: u64,
        point: DataPoint,
        candidate_seed: u64,
        sampler: &SamplerConfig,
        use_reconstruction: bool,
    ) -> Option<(Vec<f32>, f32)> {
        let key = Self::key(
            dataset_id,
            point,
            candidate_seed,
            sampler,
            use_reconstruction,
        );
        let mut inner = self.inner.lock();
        // Revision sync under the store lock is the design: a lookup must never race a shard
        // invalidation.
        self.sync_revision(&mut inner, revision);
        if inner.revision == revision {
            if let Some(entry) = inner.l0.get(&key) {
                let out = (entry.embedding.clone(), entry.importance);
                inner.hits += 1;
                HITS.inc();
                return Some(out);
            }
            let inner = &mut *inner;
            if let (Some(fp), Some(disk)) = (inner.weights_fp, inner.disk.as_mut()) {
                if let Some(entry) = disk.lookup(&key, revision, fp).cloned() {
                    inner.hits += 1;
                    inner.disk_hits += 1;
                    inner.promotions += 1;
                    HITS.inc();
                    DISK_HITS.inc();
                    PROMOTIONS.inc();
                    let out = (entry.embedding.clone(), entry.importance);
                    if let Some((vk, ve)) = inner.l0.insert(key, entry) {
                        disk.demote(vk, ve, revision, fp);
                        inner.demotions += 1;
                        DEMOTIONS.inc();
                        if disk.should_autoflush() {
                            disk.flush();
                        }
                    }
                    inner.refresh_gauges();
                    return Some(out);
                }
            }
            inner.misses += 1;
            MISSES.inc();
            inner.refresh_gauges();
            return None;
        }
        inner.misses += 1;
        MISSES.inc();
        None
    }

    /// Memoize an embedding computed at `revision`. A newer revision
    /// evicts everything older first; an embedding computed at an older
    /// revision than the store's current one is silently discarded (it
    /// belongs to weights that no longer exist). The RAM tier's LFU
    /// eviction victim is demoted to the disk tier when one is armed.
    #[expect(
        clippy::too_many_arguments,
        reason = "the store key's six components plus the value, each already held separately by the callers"
    )]
    pub fn insert(
        &self,
        revision: u64,
        dataset_id: u64,
        point: DataPoint,
        candidate_seed: u64,
        sampler: &SamplerConfig,
        use_reconstruction: bool,
        embedding: Vec<f32>,
        importance: f32,
    ) {
        let key = Self::key(
            dataset_id,
            point,
            candidate_seed,
            sampler,
            use_reconstruction,
        );
        let mut inner = self.inner.lock();
        // Same single-writer contract as lookup: insert and revision sync are atomic under the
        // inner mutex.
        self.sync_revision(&mut inner, revision);
        if inner.revision != revision || inner.l0.peek(&key).is_some() {
            // Stale revision (weights moved since this embedding was
            // computed) or a concurrent worker beat us to the slot with an
            // equal entry — either way there is nothing to store.
            return;
        }
        let inner = &mut *inner;
        let evicted = inner.l0.insert(
            key,
            Entry {
                embedding,
                importance,
            },
        );
        if let (Some((vk, ve)), Some(fp)) = (evicted, inner.weights_fp) {
            if let Some(disk) = inner.disk.as_mut() {
                // Demotion moves the entry into the in-memory shard; actual disk writes batch up
                // behind should_autoflush.
                disk.demote(vk, ve, inner.revision, fp);
                inner.demotions += 1;
                DEMOTIONS.inc();
                if disk.should_autoflush() {
                    // Autoflush under the lock is deliberate: a consistent shard snapshot needs the
                    // store frozen while rows serialize.
                    disk.flush();
                }
            }
        }
        inner.refresh_gauges();
    }

    /// Drop every entry in both tiers, including the current shard files
    /// — a full cold start (counters survive).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.l0 = Cache::new(CachePolicy::Lfu, self.capacity);
        if let Some(disk) = inner.disk.as_mut() {
            // `clear()` must atomically drop RAM and disk tiers; unlocking between them would let a
            // reader see half a store.
            disk.invalidate();
        }
        inner.refresh_gauges();
    }

    /// Persist the store to its disk tier: RAM-resident entries are
    /// written back into their shards and every dirty shard is rewritten
    /// atomically (temp → fsync → rename). Returns the number of entries
    /// persisted. A no-op (0) without a disk tier, or before
    /// [`EmbeddingStore::set_weights_context`] has armed it. Also runs on
    /// drop, and automatically every 64 demotions.
    pub fn flush(&self) -> usize {
        let mut inner = self.inner.lock();
        // Flush-under-lock is the persistence contract: the shard on disk is a frozen snapshot of
        // the locked store.
        self.flush_locked(&mut inner, None)
    }

    /// [`EmbeddingStore::flush`] with an injected crash inside the shard
    /// write — fault-injection tests prove a kill mid-flush leaves the
    /// previous shard (or nothing), never a torn file.
    #[doc(hidden)]
    pub fn flush_with_fault(&self, fault: crate::checkpoint::WriteFault) -> usize {
        let mut inner = self.inner.lock();
        // Fault-injection twin of flush(); same frozen-snapshot contract.
        self.flush_locked(&mut inner, Some(fault))
    }

    fn flush_locked(
        &self,
        inner: &mut Inner,
        fault: Option<crate::checkpoint::WriteFault>,
    ) -> usize {
        let inner = &mut *inner;
        let Some(fp) = inner.weights_fp else { return 0 };
        let Some(disk) = inner.disk.as_mut() else {
            return 0;
        };
        let revision = inner.revision;
        for (key, entry) in inner.l0.iter() {
            disk.demote(*key, entry.clone(), revision, fp);
        }
        let written = match fault {
            None => disk.flush(),
            Some(f) => disk.flush_with_fault(f),
        };
        inner.refresh_gauges();
        written
    }

    /// Usage counters and current per-tier sizes. This is the per-store
    /// (per-session, in gp-serve) source of truth; the `embed_store.*`
    /// gp-obs instruments aggregate across every live store.
    pub fn stats(&self) -> EmbedCacheStats {
        let inner = self.inner.lock();
        EmbedCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            len: inner.l0.len(),
            disk_hits: inner.disk_hits,
            demotions: inner.demotions,
            promotions: inner.promotions,
            disk_len: inner.disk.as_ref().map_or(0, DiskTier::len),
            corrupt_shards: inner.disk.as_ref().map_or(0, DiskTier::corrupt_shards),
        }
    }
}

impl Drop for EmbeddingStore {
    fn drop(&mut self) {
        // Best-effort persistence, then retract this store's contribution
        // to the aggregate gauges so surviving stores keep them accurate.
        let mut inner = self.inner.lock();
        // Drop-time flush; the store is unreachable so the held guard cannot stall any other
        // thread.
        self.flush_locked(&mut inner, None);
        if inner.reported_len != 0 {
            LEN.offset(-inner.reported_len);
            inner.reported_len = 0;
        }
        if inner.reported_disk_len != 0 {
            DISK_LEN.offset(-inner.reported_disk_len);
            inner.reported_disk_len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dataset axis used by tests that are not about dataset separation.
    const DS: u64 = 7;

    fn sampler() -> SamplerConfig {
        SamplerConfig::default()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gp_estore_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiered(capacity: usize, dir: &PathBuf) -> EmbeddingStore {
        let store = EmbeddingStore::with_disk_tier(capacity, dir);
        store.set_weights_context(1, 42);
        store
    }

    #[test]
    fn lookup_after_insert_hits() {
        let store = EmbeddingStore::new(8);
        let p = DataPoint::Node(3);
        assert!(store.lookup(1, DS, p, 0, &sampler(), true).is_none());
        store.insert(1, DS, p, 0, &sampler(), true, vec![1.0, 2.0], 0.5);
        let (emb, imp) = store.lookup(1, DS, p, 0, &sampler(), true).expect("hit");
        assert_eq!(emb, vec![1.0, 2.0]);
        assert_eq!(imp, 0.5);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn key_distinguishes_every_dimension() {
        let store = EmbeddingStore::new(8);
        let p = DataPoint::Node(3);
        store.insert(1, DS, p, 0, &sampler(), true, vec![1.0], 0.5);
        // Different dataset, point, candidate seed, sampler geometry,
        // stage flag.
        assert!(store.lookup(1, DS + 1, p, 0, &sampler(), true).is_none());
        assert!(store
            .lookup(1, DS, DataPoint::Node(4), 0, &sampler(), true)
            .is_none());
        assert!(store
            .lookup(1, DS, DataPoint::Edge(3), 0, &sampler(), true)
            .is_none());
        assert!(store.lookup(1, DS, p, 9, &sampler(), true).is_none());
        let mut other = sampler();
        other.max_nodes += 1;
        assert!(store.lookup(1, DS, p, 0, &other, true).is_none());
        assert!(store.lookup(1, DS, p, 0, &sampler(), false).is_none());
        assert!(store.lookup(1, DS, p, 0, &sampler(), true).is_some());
    }

    #[test]
    fn same_point_id_on_two_datasets_never_collides() {
        // The high-stakes case: Node(i) on graph A and Node(i) on graph B
        // are different subgraphs; the store must keep both.
        let store = EmbeddingStore::new(8);
        let p = DataPoint::Node(3);
        store.insert(1, 100, p, 0, &sampler(), true, vec![1.0], 0.1);
        store.insert(1, 200, p, 0, &sampler(), true, vec![2.0], 0.2);
        assert_eq!(
            store.lookup(1, 100, p, 0, &sampler(), true).unwrap().0,
            vec![1.0]
        );
        assert_eq!(
            store.lookup(1, 200, p, 0, &sampler(), true).unwrap().0,
            vec![2.0]
        );
        assert_eq!(store.stats().len, 2);
    }

    #[test]
    fn dataset_id_separates_different_graphs_and_is_stable() {
        let a = gp_datasets::CitationConfig::new("a", 120, 4, 1).generate();
        let b = gp_datasets::CitationConfig::new("b", 150, 5, 2).generate();
        assert_ne!(
            EmbeddingStore::dataset_id(&a),
            EmbeddingStore::dataset_id(&b)
        );
        // Same generator config → same fingerprint (regeneration must not
        // cold-start the cache).
        let a2 = gp_datasets::CitationConfig::new("a", 120, 4, 1).generate();
        assert_eq!(
            EmbeddingStore::dataset_id(&a),
            EmbeddingStore::dataset_id(&a2)
        );
    }

    #[test]
    fn dataset_id_separates_same_shape_different_seed() {
        // Regression: two datasets from the same config except the seed
        // agree on every size the old fingerprint hashed; only the content
        // sample tells them apart. Serving one's embeddings for the other
        // would be silent corruption.
        let mut cfg_a = gp_datasets::CitationConfig::new("cora", 120, 4, 1);
        let mut cfg_b = gp_datasets::CitationConfig::new("cora", 120, 4, 1);
        cfg_a.seed = 11;
        cfg_b.seed = 12;
        let a = cfg_a.generate();
        let b = cfg_b.generate();
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
        assert_eq!(a.num_classes, b.num_classes);
        assert_ne!(
            EmbeddingStore::dataset_id(&a),
            EmbeddingStore::dataset_id(&b)
        );

        let mut kg_a = gp_datasets::KgConfig::new("fb", 100, 6, 3, 1);
        let mut kg_b = gp_datasets::KgConfig::new("fb", 100, 6, 3, 1);
        kg_a.seed = 21;
        kg_b.seed = 22;
        let ka = kg_a.generate();
        let kb = kg_b.generate();
        assert_ne!(
            EmbeddingStore::dataset_id(&ka),
            EmbeddingStore::dataset_id(&kb)
        );
    }

    #[test]
    fn revision_change_drops_everything() {
        let store = EmbeddingStore::new(8);
        let p = DataPoint::Node(1);
        store.insert(1, DS, p, 0, &sampler(), true, vec![1.0], 0.1);
        assert!(store.lookup(1, DS, p, 0, &sampler(), true).is_some());
        // The weights moved: the cached row must be gone.
        assert!(store.lookup(2, DS, p, 0, &sampler(), true).is_none());
        assert_eq!(store.stats().invalidations, 1);
        // And it stays gone for the old revision's entries.
        assert_eq!(store.stats().len, 0);
    }

    #[test]
    fn stale_revision_never_clears_or_pollutes_newer_entries() {
        let store = EmbeddingStore::new(8);
        let p = DataPoint::Node(1);
        store.insert(2, DS, p, 0, &sampler(), true, vec![2.0], 0.2);
        // A straggler insert computed under older weights is discarded…
        store.insert(
            1,
            DS,
            DataPoint::Node(9),
            0,
            &sampler(),
            true,
            vec![1.0],
            0.1,
        );
        // …and a stale lookup is a plain miss: neither may drop the
        // revision-2 entry.
        assert!(store.lookup(1, DS, p, 0, &sampler(), true).is_none());
        assert_eq!(store.stats().len, 1);
        let (emb, _) = store
            .lookup(2, DS, p, 0, &sampler(), true)
            .expect("fresh entry survives");
        assert_eq!(emb, vec![2.0]);
    }

    #[test]
    fn eviction_bounds_memory() {
        let store = EmbeddingStore::new(2);
        for i in 0..5u32 {
            store.insert(
                1,
                DS,
                DataPoint::Node(i),
                0,
                &sampler(),
                true,
                vec![i as f32],
                0.0,
            );
        }
        assert_eq!(store.stats().len, 2);
        // All entries are use-count 1, so LFU falls back to FIFO: the two
        // most recent survive.
        assert!(store
            .lookup(1, DS, DataPoint::Node(3), 0, &sampler(), true)
            .is_some());
        assert!(store
            .lookup(1, DS, DataPoint::Node(4), 0, &sampler(), true)
            .is_some());
        assert!(store
            .lookup(1, DS, DataPoint::Node(0), 0, &sampler(), true)
            .is_none());
    }

    #[test]
    fn lfu_keeps_hot_entries_over_recent_ones() {
        let store = EmbeddingStore::new(2);
        store.insert(
            1,
            DS,
            DataPoint::Node(0),
            0,
            &sampler(),
            true,
            vec![0.0],
            0.0,
        );
        store.insert(
            1,
            DS,
            DataPoint::Node(1),
            0,
            &sampler(),
            true,
            vec![1.0],
            0.0,
        );
        // Heat up node 0; node 1 stays at use count 1.
        for _ in 0..3 {
            assert!(store
                .lookup(1, DS, DataPoint::Node(0), 0, &sampler(), true)
                .is_some());
        }
        store.insert(
            1,
            DS,
            DataPoint::Node(2),
            0,
            &sampler(),
            true,
            vec![2.0],
            0.0,
        );
        // The cold entry (node 1) was the victim, not the hot one.
        assert!(store
            .lookup(1, DS, DataPoint::Node(0), 0, &sampler(), true)
            .is_some());
        assert!(store
            .lookup(1, DS, DataPoint::Node(1), 0, &sampler(), true)
            .is_none());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "raw threads on purpose: hammer the store from outside any pool"
    )]
    fn concurrent_access_is_safe() {
        let store = EmbeddingStore::new(64);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..50u32 {
                        let p = DataPoint::Node(i % 8);
                        if store.lookup(1, DS, p, 0, &sampler(), true).is_none() {
                            store.insert(1, DS, p, 0, &sampler(), true, vec![(i + t) as f32], 0.0);
                        }
                    }
                });
            }
        });
        assert!(store.stats().len <= 8);
    }

    // -- Tiered behavior ---------------------------------------------------

    #[test]
    fn demotion_and_promotion_roundtrip_bit_exact() {
        let dir = tmpdir("promote");
        let store = tiered(2, &dir);
        let rows: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 0.37, -(i as f32)]).collect();
        for (i, row) in rows.iter().enumerate() {
            store.insert(
                1,
                DS,
                DataPoint::Node(i as u32),
                0,
                &sampler(),
                true,
                row.clone(),
                0.1,
            );
        }
        // Capacity 2: nodes 0 and 1 were demoted to disk.
        let s = store.stats();
        assert_eq!(s.len, 2);
        assert_eq!(s.disk_len, 2);
        assert_eq!(s.demotions, 2);
        // A demoted entry still hits — from disk, bit-exact (f32 tier) —
        // and is promoted back into RAM.
        let (emb, imp) = store
            .lookup(1, DS, DataPoint::Node(0), 0, &sampler(), true)
            .expect("disk hit");
        assert_eq!(emb, rows[0]);
        assert_eq!(imp, 0.1);
        let s = store.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.promotions, 1);
        // Promotion evicted something from L0 into the disk tier.
        assert_eq!(s.len, 2);
        assert!(s.demotions >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_from_disk_after_restart() {
        let dir = tmpdir("warm");
        let row = vec![0.5f32, -2.25, 3.0e-5];
        {
            let store = tiered(4, &dir);
            store.insert(
                1,
                DS,
                DataPoint::Node(9),
                0,
                &sampler(),
                true,
                row.clone(),
                0.7,
            );
            assert!(store.flush() >= 1);
        } // drop also flushes; the block simulates process death

        // "Restart": a fresh store over the same directory, same weights
        // fingerprint → the entry is served from disk without recompute.
        let store2 = tiered(4, &dir);
        let (emb, imp) = store2
            .lookup(1, DS, DataPoint::Node(9), 0, &sampler(), true)
            .expect("warm");
        assert_eq!(emb, row);
        assert_eq!(imp, 0.7);
        assert_eq!(store2.stats().disk_hits, 1);

        // Different weights fingerprint → cold, nothing served.
        let store3 = EmbeddingStore::with_disk_tier(4, &dir);
        store3.set_weights_context(1, 43);
        assert!(store3
            .lookup(1, DS, DataPoint::Node(9), 0, &sampler(), true)
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn revision_bump_invalidates_both_tiers() {
        let dir = tmpdir("rev_bump");
        let store = tiered(1, &dir);
        store.insert(
            1,
            DS,
            DataPoint::Node(0),
            0,
            &sampler(),
            true,
            vec![0.0],
            0.0,
        );
        store.insert(
            1,
            DS,
            DataPoint::Node(1),
            0,
            &sampler(),
            true,
            vec![1.0],
            0.0,
        );
        store.flush();
        let s = store.stats();
        assert!(s.disk_len >= 1 && s.len == 1);

        // Weights moved: both tiers must be empty, and the shard file gone.
        store.set_weights_context(2, 43);
        let s = store.stats();
        assert_eq!((s.len, s.disk_len), (0, 0));
        assert!(store
            .lookup(2, DS, DataPoint::Node(0), 0, &sampler(), true)
            .is_none());
        assert!(store
            .lookup(2, DS, DataPoint::Node(1), 0, &sampler(), true)
            .is_none());
        let shards: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".gpes"))
            .collect();
        assert!(
            shards.is_empty(),
            "old-revision shard files must be deleted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_tier_inert_without_weights_context() {
        let dir = tmpdir("inert");
        let store = EmbeddingStore::with_disk_tier(1, &dir);
        // No set_weights_context: evictions are dropped, not demoted.
        store.insert(
            1,
            DS,
            DataPoint::Node(0),
            0,
            &sampler(),
            true,
            vec![0.0],
            0.0,
        );
        store.insert(
            1,
            DS,
            DataPoint::Node(1),
            0,
            &sampler(),
            true,
            vec![1.0],
            0.0,
        );
        let s = store.stats();
        assert_eq!((s.len, s.disk_len, s.demotions), (1, 0, 0));
        assert_eq!(store.flush(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite regression: the process-wide gauges aggregate across
    /// stores (delta-based), instead of each store overwriting the other's
    /// absolute value; per-store `stats()` stays the per-session truth.
    #[test]
    fn len_gauges_aggregate_across_stores() {
        gp_obs::set_enabled(true);
        let gauge = || gp_obs::snapshot().gauge("embed_store.len").unwrap_or(0);
        let len_before = gauge();
        {
            let a = EmbeddingStore::new(8);
            let b = EmbeddingStore::new(8);
            for i in 0..3u32 {
                a.insert(
                    1,
                    DS,
                    DataPoint::Node(i),
                    0,
                    &sampler(),
                    true,
                    vec![0.0],
                    0.0,
                );
            }
            for i in 0..2u32 {
                b.insert(
                    1,
                    DS + 1,
                    DataPoint::Node(i),
                    0,
                    &sampler(),
                    true,
                    vec![0.0],
                    0.0,
                );
            }
            // Aggregate view: both stores' residency adds up.
            assert_eq!(gauge() - len_before, 5);
            // Per-store view stays per-store.
            assert_eq!(a.stats().len, 3);
            assert_eq!(b.stats().len, 2);
        }
        // Dropped stores retract their contribution.
        assert_eq!(gauge(), len_before);
    }

    /// Satellite property test: under a random interleaving of inserts,
    /// lookups (promotions), evictions (demotions) and flushes, a tiered
    /// f32 store answers bit-identically to an unbounded in-memory model —
    /// tiering placement may differ, contents may not.
    #[test]
    fn tiered_lookups_match_reference_model_under_random_interleaving() {
        use std::collections::HashMap as Model;
        let dir = tmpdir("prop");
        // Tiny L0 so demote/promote churn dominates.
        let store = tiered(3, &dir);
        let mut model: Model<u32, Vec<f32>> = Model::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut step_rng = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..2000 {
            let r = step_rng();
            let id = (r % 24) as u32;
            let p = DataPoint::Node(id);
            match (r >> 8) % 5 {
                // Insert (may evict → demote).
                0 | 1 => {
                    let row = vec![id as f32 * 1.25, -(step as f32)];
                    model.entry(id).or_insert_with(|| {
                        store.insert(1, DS, p, 0, &sampler(), true, row.clone(), 0.0);
                        row
                    });
                }
                // Lookup (may promote). Hits must be bit-identical to the
                // reference; a miss is only allowed if the model never saw
                // the key (the tiered store, unlike L0 alone, is lossless
                // for everything demoted).
                2 | 3 => match (store.lookup(1, DS, p, 0, &sampler(), true), model.get(&id)) {
                    (Some((emb, _)), Some(expect)) => assert_eq!(&emb, expect, "step {step}"),
                    (None, None) => {}
                    (None, Some(_)) => panic!("step {step}: tiered store lost an entry"),
                    (Some(_), None) => {
                        panic!("step {step}: tier served data the model never held")
                    }
                },
                // Flush mid-stream: must not change any answer.
                _ => {
                    store.flush();
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_mid_flush_never_serves_torn_data() {
        let dir = tmpdir("torn");
        let row = vec![1.0f32, 2.0, 3.0];
        let store = tiered(4, &dir);
        store.insert(
            1,
            DS,
            DataPoint::Node(0),
            0,
            &sampler(),
            true,
            row.clone(),
            0.0,
        );
        store.flush();
        // A later flush with more data dies mid-write, at both crash
        // points. While the first store still lives (no graceful drop,
        // like a kill -9), a "restarted" store reads the crash residue.
        store.insert(
            1,
            DS,
            DataPoint::Node(1),
            0,
            &sampler(),
            true,
            vec![9.0],
            0.0,
        );
        for fault in [
            crate::checkpoint::WriteFault::TornWrite,
            crate::checkpoint::WriteFault::BeforeRename,
        ] {
            store.flush_with_fault(fault);
            let restarted = tiered(4, &dir);
            // Old-or-nothing: the pre-crash shard must survive intact.
            let (emb, _) = restarted
                .lookup(1, DS, DataPoint::Node(0), 0, &sampler(), true)
                .expect("pre-crash shard intact");
            assert_eq!(emb, row);
            assert_eq!(restarted.stats().corrupt_shards, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
