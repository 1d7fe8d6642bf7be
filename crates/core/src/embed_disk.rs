//! GPES — the persistent disk tier behind [`crate::EmbeddingStore`].
//!
//! A GPES shard is one file per `(dataset_id, revision)` holding quantized
//! candidate embeddings, written with exactly the GPCK container
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
//!   actual parameter bits (plus the compute backend, whose accumulation
//!   order changes embedding bits). A shard whose fingerprint does not
//!   match the live weights is stale, not corrupt — it is discarded the
//!   same way.
//!
//! Embeddings are stored per-entry as f32 (bit-exact), f16, or i8 with a
//! per-row scale (`max|v| / 127`). Quantization is chosen per store
//! ([`DiskTierConfig::quantization`]); reads dequantize into f32 before
//! the entry is promoted back into the RAM tier. Both lossy codecs are
//! idempotent — re-quantizing a dequantized row reproduces the same bytes
//! — so demote/promote churn never compounds error.
//!
//! There is no `mmap` in std (this workspace is zero-dependency), so a
//! shard is validated once at open and its *quantized* bytes are held in
//! memory: an i8 shard keeps residency at ~¼ of the f32 RAM tier per
//! entry, and the dequantize-on-read path is identical to what an
//! mmap-backed implementation would run.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use crate::checkpoint::{self, CheckpointError, Reader, WriteFault};
use crate::embed_store::{Entry, Key};
use gp_datasets::DataPoint;

/// Container magic for GPES shard files.
pub const GPES_MAGIC: &[u8; 4] = b"GPES";
/// Current GPES format version.
pub const GPES_VERSION: u32 = 1;

static CORRUPT_SHARDS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.corrupt_shards");
static STALE_SHARDS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.stale_shards");
static FLUSHES: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.flushes");
static FLUSH_ERRORS: gp_obs::Counter = gp_obs::Counter::new("embed_store.disk.flush_errors");

/// On-disk element encoding for one embedding row.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Quantization {
    /// Raw little-endian f32 bits: the roundtrip is bit-exact, so the
    /// disk tier is invisible to `Backend::Reference` determinism checks.
    #[default]
    F32,
    /// IEEE 754 binary16, round-to-nearest-even: half the bytes, relative
    /// error ≤ 2⁻¹¹ for normal values.
    F16,
    /// Per-row symmetric i8 with an f32 scale (`max|v| / 127`): a quarter
    /// of the bytes, absolute error ≤ scale/2 per element.
    I8,
}

impl Quantization {
    /// Stable lowercase name, as accepted by [`Quantization::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Quantization::F32 => "f32",
            Quantization::F16 => "f16",
            Quantization::I8 => "i8",
        }
    }

    /// Parse a CLI/config spelling. Accepts `f32`, `f16`, `i8`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(Quantization::F32),
            "f16" => Some(Quantization::F16),
            "i8" => Some(Quantization::I8),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Quantization::F32 => 0,
            Quantization::F16 => 1,
            Quantization::I8 => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CheckpointError> {
        match tag {
            0 => Ok(Quantization::F32),
            1 => Ok(Quantization::F16),
            2 => Ok(Quantization::I8),
            other => Err(CheckpointError::ShapeMismatch(format!(
                "unknown quantization tag {other}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// f32 ↔ f16 conversion (IEEE 754 binary16, round-to-nearest-even).
// ---------------------------------------------------------------------------

/// Convert an f32 to IEEE binary16 bits with round-to-nearest-even,
/// handling subnormals, overflow-to-infinity, and NaN payload survival.
pub(crate) fn f32_to_f16_bits(v: f32) -> u16 {
    let x = v.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = ((x >> 23) & 0xFF) as i32;
    let mant = x & 0x7F_FFFF;
    if exp == 0xFF {
        // Infinity or NaN; keep NaN distinguishable from infinity.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7C00;
    }
    if e >= -14 {
        let m = mant >> 13;
        let rem = mant & 0x1FFF;
        let mut bits = (((e + 15) as u32) << 10) | m;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            // Carry out of the mantissa rolls into the exponent, which is
            // exactly the correct rounding behavior (up to infinity).
            bits += 1;
        }
        return sign | bits as u16;
    }
    if e >= -24 {
        // Subnormal half: shift the (implicit-1) significand right.
        let sig = mant | 0x80_0000;
        let shift = (13 + (-14 - e)) as u32;
        let m = sig >> shift;
        let half = 1u32 << (shift - 1);
        let rem = sig & ((1u32 << shift) - 1);
        let mut bits = m;
        if rem > half || (rem == half && (m & 1) == 1) {
            bits += 1;
        }
        return sign | bits as u16;
    }
    // Magnitude below the smallest subnormal half: rounds to signed zero.
    sign
}

/// Convert IEEE binary16 bits to an f32 (exact — every half is
/// representable as a float).
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x3FF) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal half → normal float: renormalize the mantissa.
            let mut e: u32 = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (e << 23) | ((m & 0x3FF) << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------------
// Quantized embedding rows.
// ---------------------------------------------------------------------------

/// One embedding row in its resident (possibly lossy) disk-tier form.
#[derive(Clone, Debug)]
pub(crate) enum QEmbedding {
    F32(Vec<f32>),
    F16(Vec<u16>),
    I8 { scale: f32, data: Vec<i8> },
}

impl QEmbedding {
    pub(crate) fn quantize(q: Quantization, v: &[f32]) -> Self {
        match q {
            Quantization::F32 => QEmbedding::F32(v.to_vec()),
            Quantization::F16 => QEmbedding::F16(v.iter().map(|&x| f32_to_f16_bits(x)).collect()),
            Quantization::I8 => {
                let max_abs = v.iter().fold(0f32, |m, &x| m.max(x.abs()));
                if max_abs == 0.0 || !max_abs.is_finite() {
                    // All-zero rows need no scale; non-finite rows cannot
                    // be ranged — store them losslessly instead of
                    // saturating every element.
                    return if max_abs == 0.0 {
                        QEmbedding::I8 {
                            scale: 0.0,
                            data: vec![0; v.len()],
                        }
                    } else {
                        QEmbedding::F32(v.to_vec())
                    };
                }
                let scale = max_abs / 127.0;
                let data = v
                    .iter()
                    .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                QEmbedding::I8 { scale, data }
            }
        }
    }

    pub(crate) fn dequantize(&self) -> Vec<f32> {
        match self {
            QEmbedding::F32(v) => v.clone(),
            QEmbedding::F16(bits) => bits.iter().map(|&b| f16_bits_to_f32(b)).collect(),
            QEmbedding::I8 { scale, data } => data.iter().map(|&q| q as f32 * scale).collect(),
        }
    }

    fn len(&self) -> usize {
        match self {
            QEmbedding::F32(v) => v.len(),
            QEmbedding::F16(v) => v.len(),
            QEmbedding::I8 { data, .. } => data.len(),
        }
    }
}

/// One disk-tier entry: a quantized row plus its selector importance.
#[derive(Clone, Debug)]
pub(crate) struct QEntry {
    pub(crate) embedding: QEmbedding,
    pub(crate) importance: f32,
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Configuration for the persistent disk tier of an
/// [`crate::EmbeddingStore`].
#[derive(Clone, Debug)]
pub struct DiskTierConfig {
    /// Directory holding the GPES shard files (created on first write).
    pub dir: PathBuf,
    /// Element encoding for rows written by this store. Shards written
    /// under a different encoding still load (the tag is per entry).
    pub quantization: Quantization,
    /// Maximum entries per shard; the oldest demotions are dropped first
    /// when a shard overflows.
    pub capacity: usize,
    /// Demotions accumulated before the dirty shards are rewritten to
    /// disk automatically. Explicit [`crate::EmbeddingStore::flush`] and
    /// drop also persist.
    pub flush_every: usize,
}

impl DiskTierConfig {
    /// Tier config with default quantization (f32), capacity (65 536
    /// entries per shard) and flush interval (64 demotions).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            quantization: Quantization::F32,
            capacity: 65_536,
            flush_every: 64,
        }
    }
}

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
/// already CRC-validated, still quantized.
struct Shard {
    dataset_id: u64,
    revision: u64,
    weights_fp: u64,
    entries: HashMap<Key, QEntry>,
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

    fn insert(&mut self, key: Key, entry: QEntry, capacity: usize) {
        if self.entries.insert(key, entry).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > capacity.max(1) {
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

fn encode_entry(p: &mut Vec<u8>, key: &Key, entry: &QEntry) {
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
    let q = match &entry.embedding {
        QEmbedding::F32(_) => Quantization::F32,
        QEmbedding::F16(_) => Quantization::F16,
        QEmbedding::I8 { .. } => Quantization::I8,
    };
    p.push(q.tag());
    checkpoint::put_u64(p, entry.embedding.len() as u64);
    match &entry.embedding {
        QEmbedding::F32(v) => {
            for x in v {
                checkpoint::put_f32(p, *x);
            }
        }
        QEmbedding::F16(v) => {
            for x in v {
                p.extend_from_slice(&x.to_le_bytes());
            }
        }
        QEmbedding::I8 { scale, data } => {
            checkpoint::put_f32(p, *scale);
            for x in data {
                p.push(*x as u8);
            }
        }
    }
}

fn decode_entry(r: &mut Reader<'_>, dataset_id: u64) -> Result<(Key, QEntry), CheckpointError> {
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
    let q = Quantization::from_tag(r.u8()?)?;
    let dim = r.usize()?;
    let embedding = match q {
        Quantization::F32 => {
            let raw = r.take(dim.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
            QEmbedding::F32(
                raw.chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            )
        }
        Quantization::F16 => {
            let raw = r.take(dim.checked_mul(2).ok_or(CheckpointError::Truncated)?)?;
            QEmbedding::F16(
                raw.chunks_exact(2)
                    .map(|b| u16::from_le_bytes([b[0], b[1]]))
                    .collect(),
            )
        }
        Quantization::I8 => {
            let scale = r.f32()?;
            let raw = r.take(dim)?;
            QEmbedding::I8 {
                scale,
                data: raw.iter().map(|&b| b as i8).collect(),
            }
        }
    };
    let key = Key {
        dataset_id,
        point,
        candidate_seed,
        hops,
        max_nodes,
        neighbors_per_node,
        use_reconstruction,
    };
    Ok((
        key,
        QEntry {
            embedding,
            importance,
        },
    ))
}

// ---------------------------------------------------------------------------
// The tier.
// ---------------------------------------------------------------------------

/// The disk tier of an [`crate::EmbeddingStore`]: open shards plus flush
/// bookkeeping. All methods are called under the store's mutex.
pub(crate) struct DiskTier {
    cfg: DiskTierConfig,
    /// Open shards, one per dataset, all at the store's current revision
    /// and weights fingerprint. A `Vec` (not a hash map) so every walk is
    /// deterministic; the number of concurrently served datasets is tiny.
    shards: Vec<Shard>,
    /// Demotions since the last flush, across shards.
    pending: usize,
    corrupt_shards: u64,
}

impl DiskTier {
    pub(crate) fn new(cfg: DiskTierConfig) -> Self {
        Self {
            cfg,
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
        self.pending >= self.cfg.flush_every.max(1)
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
        let path = self.cfg.dir.join(shard_file_name(dataset_id, revision));
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
                // (a restart with another checkpoint, or another backend):
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
        let Ok(entries) = std::fs::read_dir(&self.cfg.dir) else {
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

    /// Fetch and dequantize an entry, if the shard for the key's dataset
    /// holds one.
    pub(crate) fn lookup(
        &mut self,
        key: &Key,
        revision: u64,
        weights_fp: u64,
    ) -> Option<(Vec<f32>, f32)> {
        let i = self.shard_index(key.dataset_id, revision, weights_fp);
        let entry = self.shards[i].entries.get(key)?;
        Some((entry.embedding.dequantize(), entry.importance))
    }

    /// Quantize and park an entry evicted from the RAM tier. A key the
    /// shard already holds is left untouched (the value is identical by
    /// construction — embeddings are pure functions of the key and
    /// weights).
    pub(crate) fn demote(&mut self, key: Key, entry: &Entry, revision: u64, weights_fp: u64) {
        let i = self.shard_index(key.dataset_id, revision, weights_fp);
        if self.shards[i].entries.contains_key(&key) {
            return;
        }
        let q = QEntry {
            embedding: QEmbedding::quantize(self.cfg.quantization, &entry.embedding),
            importance: entry.importance,
        };
        let capacity = self.cfg.capacity;
        self.shards[i].insert(key, q, capacity);
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
            std::fs::remove_file(shard.path(&self.cfg.dir)).ok();
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
            if std::fs::create_dir_all(&self.cfg.dir).is_err() {
                FLUSH_ERRORS.inc();
                continue;
            }
            let payload = shard.encode();
            let path = shard.path(&self.cfg.dir);
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
    fn f16_matches_known_vectors() {
        for (f, bits) in [
            (0.0f32, 0x0000u16),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (0.5, 0x3800),
            (65504.0, 0x7BFF),
            (f32::INFINITY, 0x7C00),
            (6.103_515_6e-5, 0x0400), // smallest normal half
            (5.960_464_5e-8, 0x0001), // smallest subnormal half
        ] {
            assert_eq!(f32_to_f16_bits(f), bits, "encoding {f}");
            if f.is_finite() {
                assert_eq!(f16_bits_to_f32(bits), f, "decoding {bits:#06x}");
            }
        }
        // Overflow saturates to infinity; NaN stays NaN.
        assert_eq!(f32_to_f16_bits(1.0e9), 0x7C00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_error_is_bounded_and_idempotent() {
        let mut x = 1.000_123e-3f32;
        for i in 0..4096 {
            let v = x * if i % 2 == 0 { 1.0 } else { -1.0 };
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            let rel = ((rt - v) / v).abs();
            assert!(rel <= 1.0 / 2048.0, "rel error {rel} at {v}");
            // Idempotence: a value that IS a half encodes back to itself.
            assert_eq!(
                f32_to_f16_bits(rt),
                f32_to_f16_bits(v),
                "idempotence at {v}"
            );
            x *= 1.004_7;
            if x > 6.0e4 {
                x = 1.000_123e-3;
            }
        }
    }

    #[test]
    fn i8_error_is_bounded_and_idempotent() {
        let vals: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.173)
            .collect();
        let q = QEmbedding::quantize(Quantization::I8, &vals);
        let rt = q.dequantize();
        let max_abs = vals.iter().fold(0f32, |m, &x| m.max(x.abs()));
        let scale = max_abs / 127.0;
        // Half a quantization step, plus a few ulps for the f32 divide
        // on the encode side and multiply on the decode side.
        let tol = scale * 0.5 + max_abs * 1e-6;
        for (a, b) in vals.iter().zip(&rt) {
            assert!((a - b).abs() <= tol, "err {} at {a}", (a - b).abs());
        }
        // Re-quantizing the dequantized row reproduces the same bytes.
        let q2 = QEmbedding::quantize(Quantization::I8, &rt);
        assert_eq!(q2.dequantize(), rt);
    }

    #[test]
    fn i8_handles_zero_and_nonfinite_rows() {
        let z = QEmbedding::quantize(Quantization::I8, &[0.0, -0.0, 0.0]);
        assert_eq!(z.dequantize(), vec![0.0, 0.0, 0.0]);
        // A row with a non-finite element falls back to lossless storage.
        let nf = QEmbedding::quantize(Quantization::I8, &[1.0, f32::INFINITY]);
        assert_eq!(nf.dequantize(), vec![1.0, f32::INFINITY]);
    }

    #[test]
    fn f32_quantization_is_bit_exact() {
        let vals = vec![
            1.0e-30f32,
            -0.0,
            std::f32::consts::PI,
            f32::MIN_POSITIVE,
            -1.5e30,
        ];
        let q = QEmbedding::quantize(Quantization::F32, &vals);
        let rt = q.dequantize();
        for (a, b) in vals.iter().zip(&rt) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shard_roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        let e = entry(&[0.125, -7.5, 3.0e-9]);
        tier.demote(key(5, 1), &e, 3, 99);
        tier.demote(key(5, 2), &entry(&[4.0]), 3, 99);
        assert_eq!(tier.flush(), 2);

        // A fresh tier (fresh process, same weights) reads both back.
        let mut tier2 = DiskTier::new(DiskTierConfig::new(&dir));
        let (emb, imp) = tier2.lookup(&key(5, 1), 3, 99).expect("warm hit");
        assert_eq!(emb, vec![0.125, -7.5, 3.0e-9]);
        assert_eq!(imp, 0.25);
        assert!(tier2.lookup(&key(5, 2), 3, 99).is_some());
        assert_eq!(tier2.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weights_fingerprint_mismatch_is_a_cold_start() {
        let dir = tmpdir("stale_fp");
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        tier.demote(key(5, 1), &entry(&[1.0]), 3, 99);
        tier.flush();

        // Same dataset + revision, different weights: never served.
        let mut other = DiskTier::new(DiskTierConfig::new(&dir));
        assert!(other.lookup(&key(5, 1), 3, 1234).is_none());
        assert_eq!(other.corrupt_shards(), 0, "stale is not corrupt");
        // The stale file was reclaimed.
        assert!(!dir.join(shard_file_name(5, 3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn other_revision_files_are_swept() {
        let dir = tmpdir("sweep");
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        tier.demote(key(5, 1), &entry(&[1.0]), 3, 99);
        tier.flush();
        assert!(dir.join(shard_file_name(5, 3)).exists());

        // New revision opens: the rev-3 file is gone, lookup is cold.
        let mut next = DiskTier::new(DiskTierConfig::new(&dir));
        assert!(next.lookup(&key(5, 1), 4, 99).is_none());
        assert!(!dir.join(shard_file_name(5, 3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_corruption_is_a_cold_miss() {
        let dir = tmpdir("flip");
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        tier.demote(key(5, 1), &entry(&[1.0, 2.0, 3.0]), 3, 99);
        tier.demote(key(5, 2), &entry(&[-4.0, 5.5]), 3, 99);
        tier.flush();
        let path = dir.join(shard_file_name(5, 3));
        let good = std::fs::read(&path).unwrap();

        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            let mut t = DiskTier::new(DiskTierConfig::new(&dir));
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
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        tier.demote(key(5, 1), &entry(&[1.0, 2.0]), 3, 99);
        tier.flush();
        let path = dir.join(shard_file_name(5, 3));
        let good = std::fs::read(&path).unwrap();
        for cut in [0, 1, 4, 15, 16, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let mut t = DiskTier::new(DiskTierConfig::new(&dir));
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
        let mut tier = DiskTier::new(DiskTierConfig::new(&dir));
        tier.demote(key(5, 1), &entry(&[1.0]), 3, 99);
        tier.flush();

        // A later flush dies mid-write (both crash points): the previous
        // complete shard must survive untouched.
        for fault in [WriteFault::TornWrite, WriteFault::BeforeRename] {
            tier.demote(key(5, 100), &entry(&[9.0]), 3, 99);
            tier.flush_with_fault(fault);
            let mut t = DiskTier::new(DiskTierConfig::new(&dir));
            let (emb, _) = t.lookup(&key(5, 1), 3, 99).expect("old shard intact");
            assert_eq!(emb, vec![1.0]);
            assert_eq!(t.corrupt_shards(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_capacity_drops_oldest_demotions() {
        let dir = tmpdir("cap");
        let mut cfg = DiskTierConfig::new(&dir);
        cfg.capacity = 2;
        let mut tier = DiskTier::new(cfg);
        for n in 0..5 {
            tier.demote(key(5, n), &entry(&[n as f32]), 3, 99);
        }
        assert_eq!(tier.len(), 2);
        assert!(tier.lookup(&key(5, 3), 3, 99).is_some());
        assert!(tier.lookup(&key(5, 4), 3, 99).is_some());
        assert!(tier.lookup(&key(5, 0), 3, 99).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantization_names_roundtrip() {
        for q in [Quantization::F32, Quantization::F16, Quantization::I8] {
            assert_eq!(Quantization::parse(q.name()), Some(q));
            assert_eq!(Quantization::from_tag(q.tag()).unwrap(), q);
        }
        assert_eq!(Quantization::parse("F16"), Some(Quantization::F16));
        assert_eq!(Quantization::parse("fp8"), None);
    }
}
