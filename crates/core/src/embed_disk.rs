//! GPES — the persistent disk tier behind [`crate::EmbeddingStore`].
//!
//! A GPES shard is one file per `(dataset_id, revision)` holding candidate
//! embeddings, written with exactly the GPCK container
//! discipline from [`crate::checkpoint`]: `"GPES"` magic, format version,
//! payload length and CRC32, produced by an atomic temp → fsync → rename
//! write. A shard that fails any of those checks — truncated, bit-flipped,
//! torn — is deleted and treated as a cold cache, never as data.
//!
//! Three safeguards make a warm start trustworthy:
//!
//! * **CRC32 over the payload** (shared [`crate::checkpoint::crc32`]):
//!   any single-byte corruption is a typed load error, proven by an
//!   exhaustive bit-flip test.
//! * **Revision in the file name and payload**: `ParamStore` revisions are
//!   process-local counters, so a bump invalidates the disk tier exactly
//!   like the RAM tier.
//! * **Weights fingerprint in the payload**: across restarts the revision
//!   counter restarts too, so the store also records a fingerprint of the
//!   actual parameter bits. A shard whose fingerprint does not
//!   match the live weights is stale, not corrupt — it is discarded the
//!   same way.
//!
//! Rows are stored as raw little-endian f32 bits, so a demote → flush →
//! load → promote roundtrip is bit-exact and the disk tier is invisible to
//! the determinism checks. A shard holds the same
//! `Entry` values as the RAM tier: demotion moves the evicted entry in,
//! promotion clones it back out.
//!
//! There is no `mmap` in std (this workspace is zero-dependency), so a
//! shard is validated once at open and its entries are held in memory.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use crate::checkpoint::{self, CheckpointError, Reader, WriteFault};
use crate::embed_store::{Entry, Key};
use gp_datasets::DataPoint;

/// Container magic for GPES shard files.
pub const GPES_MAGIC: &[u8; 4] = b"GPES";
/// Current GPES format version.
/// Current GPES format version. Version 1 carried a per-entry encoding
/// byte; a v1 shard fails the container check and is reclaimed as a cold
/// miss like any damaged shard.
pub const GPES_VERSION: u32 = 2;

static CORRUPT_SHARDS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.corrupt_shards");
static STALE_SHARDS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.stale_shards");
static FLUSHES: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.flushes");
static FLUSH_ERRORS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.flush_errors");

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

/// Canonical shard file name for `(dataset_id, revision)`.
pub fn shard_file_name(dataset_id: u64, revision: u64) -> String {
    format!("gpes-{dataset_id:016x}-r{revision:020}.gpes")
}

/// Parse `(dataset_id, revision)` back out of a shard file name.
fn parse_shard_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("gpes-")?.strip_suffix(".gpes")?;
    let (ds, rev) = rest.split_once("-r")?;
    if ds.len() != 16 || rev.len() != 20 {
        return None;
    }
    Some((u64::from_str_radix(ds, 16).ok()?, rev.parse::<u64>().ok()?))
}

/// One open shard: every resident entry for one `(dataset_id, revision)`,
/// already CRC-validated.
struct Shard {
    dataset_id: u64,
    revision: u64,
    weights_fp: u64,
    entries: HashMap<Key, Entry>,
    /// Insertion order; drives both capacity trimming (oldest first) and
    /// the deterministic serialization order of the shard payload.
    order: VecDeque<Key>,
    dirty: bool,
}

impl Shard {
    #[expect(
        clippy::disallowed_methods,
        reason = "the queue holds one key per entry and Shard::insert evicts down to the tier capacity"
    )]
    fn empty(dataset_id: u64, revision: u64, weights_fp: u64) -> Self {
        Self {
            dataset_id,
            revision,
            weights_fp,
            entries: HashMap::new(),
            order: VecDeque::new(),
            dirty: false,
        }
    }

    fn path(&self, dir: &Path) -> PathBuf {
        dir.join(shard_file_name(self.dataset_id, self.revision))
    }

    fn insert(&mut self, key: Key, entry: Entry, capacity: usize) {
        if self.entries.insert(key, entry).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.dirty = true;
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        checkpoint::put_u64(&mut p, self.dataset_id);
        checkpoint::put_u64(&mut p, self.revision);
        checkpoint::put_u64(&mut p, self.weights_fp);
        checkpoint::put_u64(&mut p, self.entries.len() as u64);
        // Serialize in insertion order (a plain VecDeque walk): shard
        // bytes are a pure function of the demotion sequence.
        for key in &self.order {
            let Some(entry) = self.entries.get(key) else {
                continue;
            };
            encode_entry(&mut p, key, entry);
        }
        p
    }

    fn decode(
        payload: &[u8],
        dataset_id: u64,
        revision: u64,
    ) -> Result<(Self, u64), CheckpointError> {
        let mut r = Reader::new(payload);
        let file_ds = r.u64()?;
        let file_rev = r.u64()?;
        let weights_fp = r.u64()?;
        if file_ds != dataset_id || file_rev != revision {
            return Err(CheckpointError::ShapeMismatch(format!(
                "shard payload is for dataset {file_ds:#x} rev {file_rev}, \
                 file name says dataset {dataset_id:#x} rev {revision}"
            )));
        }
        let count = r.usize()?;
        let mut shard = Shard::empty(dataset_id, revision, weights_fp);
        for _ in 0..count {
            let (key, entry) = decode_entry(&mut r, dataset_id)?;
            if shard.entries.insert(key, entry).is_none() {
                shard.order.push_back(key);
            }
        }
        if !r.finished() {
            return Err(CheckpointError::ShapeMismatch(
                "trailing bytes after shard entries".into(),
            ));
        }
        Ok((shard, weights_fp))
    }
}

fn encode_entry(p: &mut Vec<u8>, key: &Key, entry: &Entry) {
    let (tag, id) = match key.point {
        DataPoint::Node(n) => (0u8, n),
        DataPoint::Edge(e) => (1u8, e),
    };
    p.push(tag);
    checkpoint::put_u32(p, id);
    checkpoint::put_u64(p, key.candidate_seed);
    checkpoint::put_u64(p, key.hops as u64);
    checkpoint::put_u64(p, key.max_nodes as u64);
    checkpoint::put_u64(p, key.neighbors_per_node as u64);
    p.push(key.use_reconstruction as u8);
    checkpoint::put_f32(p, entry.importance);
    checkpoint::put_u64(p, entry.embedding.len() as u64);
    for x in &entry.embedding {
        checkpoint::put_f32(p, *x);
    }
}

fn decode_entry(r: &mut Reader<'_>, dataset_id: u64) -> Result<(Key, Entry), CheckpointError> {
    let tag = r.u8()?;
    let id = r.u32()?;
    let point = match tag {
        0 => DataPoint::Node(id),
        1 => DataPoint::Edge(id),
        other => {
            return Err(CheckpointError::ShapeMismatch(format!(
                "unknown datapoint tag {other}"
            )))
        }
    };
    let candidate_seed = r.u64()?;
    let hops = r.usize()?;
    let max_nodes = r.usize()?;
    let neighbors_per_node = r.usize()?;
    let use_reconstruction = r.u8()? != 0;
    let importance = r.f32()?;
    let dim = r.usize()?;
    let raw = r.take(dim.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
    let embedding = raw
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let key = Key {
        dataset_id,
        point,
        candidate_seed,
        hops,
        max_nodes,
        neighbors_per_node,
        use_reconstruction,
    };
    let entry = Entry {
        embedding,
        importance,
    };
    Ok((key, entry))
}

// ---------------------------------------------------------------------------
// The tier.
// ---------------------------------------------------------------------------

/// The disk tier of an [`crate::EmbeddingStore`]: open shards plus flush
/// bookkeeping. All methods are called under the store's mutex.
pub(crate) struct DiskTier {
    /// Directory holding the GPES shard files (created on first write).
    dir: PathBuf,
    /// Maximum entries per shard; the oldest demotions are dropped first
    /// when a shard overflows. [`DiskTier::CAPACITY`] outside tests.
    capacity: usize,
    /// Open shards, one per dataset, all at the store's current revision
    /// and weights fingerprint. A `Vec` (not a hash map) so every walk is
    /// deterministic; the number of concurrently served datasets is tiny.
    shards: Vec<Shard>,
    /// Demotions since the last flush, across shards.
    pending: usize,
    corrupt_shards: u64,
}

impl DiskTier {
    /// Entries per shard.
    const CAPACITY: usize = 65_536;
    /// Demotions accumulated before the dirty shards are rewritten to disk
    /// automatically. Explicit [`crate::EmbeddingStore::flush`] and drop
    /// also persist.
    const FLUSH_EVERY: usize = 64;

    pub(crate) fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            capacity: Self::CAPACITY,
            shards: Vec::new(),
            pending: 0,
            corrupt_shards: 0,
        }
    }

    /// Entries resident across all open shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Damaged shard files detected (and discarded) so far.
    pub(crate) fn corrupt_shards(&self) -> u64 {
        self.corrupt_shards
    }

    pub(crate) fn should_autoflush(&self) -> bool {
        self.pending >= Self::FLUSH_EVERY
    }

    /// Index of the open shard for `dataset_id`, opening (and validating)
    /// its file on first touch.
    fn shard_index(&mut self, dataset_id: u64, revision: u64, weights_fp: u64) -> usize {
        if let Some(i) = self.shards.iter().position(|s| {
            s.dataset_id == dataset_id && s.revision == revision && s.weights_fp == weights_fp
        }) {
            return i;
        }
        let shard = self.open_shard(dataset_id, revision, weights_fp);
        self.shards.push(shard);
        self.shards.len() - 1
    }

    /// Load the shard file for `(dataset_id, revision)` if a valid one
    /// exists, deleting stale/corrupt files along the way; otherwise start
    /// an empty shard. Never errors — every failure mode is a cold cache.
    fn open_shard(&mut self, dataset_id: u64, revision: u64, weights_fp: u64) -> Shard {
        self.sweep_other_revisions(dataset_id, revision);
        let path = self.dir.join(shard_file_name(dataset_id, revision));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Shard::empty(dataset_id, revision, weights_fp),
        };
        let parsed = checkpoint::tagged_container_payload(&bytes, GPES_MAGIC, GPES_VERSION)
            .and_then(|payload| Shard::decode(payload, dataset_id, revision));
        match parsed {
            Ok((shard, file_fp)) if file_fp == weights_fp => shard,
            Ok(_) => {
                // Structurally valid but computed under different weights
                // (a restart with another checkpoint):
                // stale, not corrupt. Cold-start and reclaim the file.
                STALE_SHARDS.inc();
                #[expect(
                    clippy::unused_result_ok,
                    reason = "best-effort reclaim: a shard file that survives is rejected again on the next load"
                )]
                std::fs::remove_file(&path).ok();
                Shard::empty(dataset_id, revision, weights_fp)
            }
            Err(_) => {
                self.corrupt_shards += 1;
                CORRUPT_SHARDS.inc();
                #[expect(
                    clippy::unused_result_ok,
                    reason = "best-effort reclaim: a shard file that survives is rejected again on the next load"
                )]
                std::fs::remove_file(&path).ok();
                Shard::empty(dataset_id, revision, weights_fp)
            }
        }
    }

    /// Delete shard files for `dataset_id` at any other revision — their
    /// weights no longer exist, so they can never be read again.
    fn sweep_other_revisions(&self, dataset_id: u64, revision: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(n) = name.to_str() else { continue };
            if let Some((ds, rev)) = parse_shard_name(n) {
                if ds == dataset_id && rev != revision {
                    #[expect(
                        clippy::unused_result_ok,
                        reason = "best-effort sweep: a file that survives is swept again on the next open"
                    )]
                    std::fs::remove_file(e.path()).ok();
                }
            }
        }
    }

    /// The entry for `key`, if the shard for the key's dataset holds one.
    pub(crate) fn lookup(&mut self, key: &Key, revision: u64, weights_fp: u64) -> Option<&Entry> {
        let i = self.shard_index(key.dataset_id, revision, weights_fp);
        self.shards[i].entries.get(key)
    }

    /// Park an entry evicted from the RAM tier. A key the shard already
    /// holds is left untouched (the value is identical by construction —
    /// embeddings are pure functions of the key and weights).
    pub(crate) fn demote(&mut self, key: Key, entry: Entry, revision: u64, weights_fp: u64) {
        let i = self.shard_index(key.dataset_id, revision, weights_fp);
        if self.shards[i].entries.contains_key(&key) {
            return;
        }
        self.shards[i].insert(key, entry, self.capacity);
        self.pending += 1;
    }

    /// Drop every open shard *and its file* — the weights they were
    /// computed under are gone (revision bump) or the caller asked for a
    /// full cold start (`clear`).
    pub(crate) fn invalidate(&mut self) {
        for shard in self.shards.drain(..) {
            #[expect(
                clippy::unused_result_ok,
                reason = "best-effort delete, like the pre-existing cleanup it mirrors; the open shards are dropped either way"
            )]
            std::fs::remove_file(shard.path(&self.dir)).ok();
        }
        self.pending = 0;
    }

    /// Write every dirty shard to disk atomically. Returns the number of
    /// entries persisted across rewritten shards; IO failures leave the
    /// previous file intact (atomic rename) and are counted, not raised.
    pub(crate) fn flush(&mut self) -> usize {
        self.flush_impl(None)
    }

    /// [`DiskTier::flush`] with an injected crash inside the container
    /// write, for the kill-mid-write fault tests.
    pub(crate) fn flush_with_fault(&mut self, fault: WriteFault) -> usize {
        self.flush_impl(Some(fault))
    }

    fn flush_impl(&mut self, fault: Option<WriteFault>) -> usize {
        let mut written = 0;
        for shard in &mut self.shards {
            if !shard.dirty {
                continue;
            }
            if std::fs::create_dir_all(&self.dir).is_err() {
                FLUSH_ERRORS.inc();
                continue;
            }
            let payload = shard.encode();
            let path = shard.path(&self.dir);
            match checkpoint::write_tagged_container(
                &path,
                GPES_MAGIC,
                GPES_VERSION,
                &payload,
                fault,
            ) {
                Ok(()) => {
                    shard.dirty = false;
                    written += shard.entries.len();
                    FLUSHES.inc();
                }
                Err(_) => {
                    FLUSH_ERRORS.inc();
                }
            }
        }
        self.pending = 0;
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gp_gpes_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(dataset_id: u64, n: u32) -> Key {
        Key {
            dataset_id,
            point: DataPoint::Node(n),
            candidate_seed: 7,
            hops: 2,
            max_nodes: 32,
            neighbors_per_node: 8,
            use_reconstruction: true,
        }
    }

    fn entry(vals: &[f32]) -> Entry {
        Entry {
            embedding: vals.to_vec(),
            importance: 0.25,
        }
    }

    #[test]
    fn f32_quantization_is_bit_exact() {
        let dir = tmpdir("bit_exact");
        let mut tier = DiskTier::new(dir.clone());
        let vals = [
            1.0e-30f32,
            -0.0,
            std::f32::consts::PI,
            f32::MIN_POSITIVE,
            -1.5e30,
            f32::MIN_POSITIVE / 4.0, // subnormal
        ];
        tier.demote(key(5, 1), entry(&vals), 3, 99);
        assert_eq!(tier.flush(), 1);

        let mut tier2 = DiskTier::new(dir.clone());
        let e = tier2.lookup(&key(5, 1), 3, 99).expect("warm hit");
        let bits: Vec<u32> = e.embedding.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, vals.map(f32::to_bits));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[0.125, -7.5, 3.0e-9]), 3, 99);
        tier.demote(key(5, 2), entry(&[4.0]), 3, 99);
        assert_eq!(tier.flush(), 2);

        // A fresh tier (fresh process, same weights) reads both back.
        let mut tier2 = DiskTier::new(dir.clone());
        let e = tier2.lookup(&key(5, 1), 3, 99).expect("warm hit");
        assert_eq!(e.embedding, vec![0.125, -7.5, 3.0e-9]);
        assert_eq!(e.importance, 0.25);
        assert!(tier2.lookup(&key(5, 2), 3, 99).is_some());
        assert_eq!(tier2.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_shard_is_a_counted_cold_miss() {
        let dir = tmpdir("v1");
        let path = dir.join(shard_file_name(5, 3));
        // A v1 shard: valid container and CRC, but each entry carries an
        // encoding byte (0 = f32) between its importance and its row length.
        let mut payload = Vec::new();
        for v in [5, 3, 99, 1] {
            checkpoint::put_u64(&mut payload, v);
        }
        let mut row = Vec::new();
        encode_entry(&mut row, &key(5, 1), &entry(&[1.0, 2.0]));
        row.insert(42, 0); // after the 38-byte key and the f32 importance
        payload.extend(row);
        checkpoint::write_tagged_container(&path, GPES_MAGIC, 1, &payload, None).unwrap();

        let mut tier = DiskTier::new(dir.clone());
        assert!(tier.lookup(&key(5, 1), 3, 99).is_none());
        assert_eq!(tier.corrupt_shards(), 1);
        assert!(!path.exists(), "v1 shard not reclaimed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weights_fingerprint_mismatch_is_a_cold_start() {
        let dir = tmpdir("stale_fp");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[1.0]), 3, 99);
        tier.flush();

        // Same dataset + revision, different weights: never served.
        let mut other = DiskTier::new(dir.clone());
        assert!(other.lookup(&key(5, 1), 3, 1234).is_none());
        assert_eq!(other.corrupt_shards(), 0, "stale is not corrupt");
        // The stale file was reclaimed.
        assert!(!dir.join(shard_file_name(5, 3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn other_revision_files_are_swept() {
        let dir = tmpdir("sweep");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[1.0]), 3, 99);
        tier.flush();
        assert!(dir.join(shard_file_name(5, 3)).exists());

        // New revision opens: the rev-3 file is gone, lookup is cold.
        let mut next = DiskTier::new(dir.clone());
        assert!(next.lookup(&key(5, 1), 4, 99).is_none());
        assert!(!dir.join(shard_file_name(5, 3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_corruption_is_a_cold_miss() {
        let dir = tmpdir("flip");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[1.0, 2.0, 3.0]), 3, 99);
        tier.demote(key(5, 2), entry(&[-4.0, 5.5]), 3, 99);
        tier.flush();
        let path = dir.join(shard_file_name(5, 3));
        let good = std::fs::read(&path).unwrap();

        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            let mut t = DiskTier::new(dir.clone());
            assert!(
                t.lookup(&key(5, 1), 3, 99).is_none() && t.lookup(&key(5, 2), 3, 99).is_none(),
                "corruption at byte {i} served data"
            );
            assert!(t.corrupt_shards() >= 1, "corruption at byte {i} uncounted");
            assert!(!path.exists(), "corrupt file at byte {i} not reclaimed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_a_cold_miss() {
        let dir = tmpdir("trunc");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[1.0, 2.0]), 3, 99);
        tier.flush();
        let path = dir.join(shard_file_name(5, 3));
        let good = std::fs::read(&path).unwrap();
        for cut in [0, 1, 4, 15, 16, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let mut t = DiskTier::new(dir.clone());
            assert!(
                t.lookup(&key(5, 1), 3, 99).is_none(),
                "cut at {cut} served data"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_mid_write_leaves_old_or_nothing() {
        let dir = tmpdir("kill");
        let mut tier = DiskTier::new(dir.clone());
        tier.demote(key(5, 1), entry(&[1.0]), 3, 99);
        tier.flush();

        // A later flush dies mid-write (both crash points): the previous
        // complete shard must survive untouched.
        for fault in [WriteFault::TornWrite, WriteFault::BeforeRename] {
            tier.demote(key(5, 100), entry(&[9.0]), 3, 99);
            tier.flush_with_fault(fault);
            let mut t = DiskTier::new(dir.clone());
            let e = t.lookup(&key(5, 1), 3, 99).expect("old shard intact");
            assert_eq!(e.embedding, vec![1.0]);
            assert_eq!(t.corrupt_shards(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_capacity_drops_oldest_demotions() {
        let dir = tmpdir("cap");
        let mut tier = DiskTier::new(dir.clone());
        tier.capacity = 2;
        for n in 0..5 {
            tier.demote(key(5, n), entry(&[n as f32]), 3, 99);
        }
        assert_eq!(tier.len(), 2);
        assert!(tier.lookup(&key(5, 3), 3, 99).is_some());
        assert!(tier.lookup(&key(5, 4), 3, 99).is_some());
        assert!(tier.lookup(&key(5, 0), 3, 99).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
