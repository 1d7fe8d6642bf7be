//! GPCK v2 — crash-safe, checksummed checkpoint containers.
//!
//! The paper's pre-training protocol checkpoints every 500 steps (§V-A4);
//! this module makes those checkpoints durable and trustworthy:
//!
//! * **Container**: `"GPCK"` magic + format version + payload length +
//!   CRC32 over the payload. The payload holds the model config, named
//!   parameter tensors and (for trainer checkpoints) the full mutable
//!   training state: step counter, optimizer moments, best-validation
//!   snapshot, training curve and guard-rail window.
//! * **Atomic writes**: payload → temp file → fsync → rename, so a crash
//!   mid-write never leaves a half-written file under the final name.
//! * **Typed errors**: every way a file can be wrong (truncated, foreign,
//!   bit-flipped, mismatched shapes, future version) maps to a
//!   [`CheckpointError`] variant — the load path never panics.
//! * **Legacy v1**: files written by the pre-v2 `GraphPrompterModel::save`
//!   (`"GPMC"` config header + `"GPPS"` parameter blob) still load,
//!   read-only.
//!
//! File-name convention for trainer checkpoints: `ckpt-<step:09>.gpck`,
//! so lexicographic order is step order and retention/recovery can scan a
//! directory without opening every file.

use std::path::{Path, PathBuf};

use gp_nn::OptimState;
use gp_tensor::Tensor;

use crate::config::{GeneratorKind, ModelConfig};
use crate::model::GraphPrompterModel;
use crate::pretrain::TrainingCurve;

/// Container magic for GPCK v2 files.
pub const MAGIC: &[u8; 4] = b"GPCK";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 2;
/// Container header size: magic + version + payload length + CRC32.
/// Shared with every container family that reuses the GPCK discipline
/// (GPES embedding shards use the same header with their own magic).
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 4;
/// Legacy (v1) model files start with the config magic.
const LEGACY_MAGIC: &[u8; 4] = b"GPMC";

/// Everything that can be wrong with a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file ends before the declared data does.
    Truncated,
    /// The file is not a GPCK (or legacy GPMC) checkpoint.
    BadMagic,
    /// The payload does not match its stored CRC32 (bit rot, partial
    /// overwrite, or tampering).
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        stored: u32,
        /// CRC32 computed over the payload found on disk.
        computed: u32,
    },
    /// Structural mismatch: parameter names/shapes/counts do not line up
    /// with the model the checkpoint claims to describe.
    ShapeMismatch(String),
    /// The container declares a format version this build cannot read.
    VersionUnsupported(u32),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::BadMagic => write!(f, "not a GPCK checkpoint (bad magic)"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            CheckpointError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            CheckpointError::VersionUnsupported(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated,
            std::io::ErrorKind::InvalidData => CheckpointError::ShapeMismatch(e.to_string()),
            _ => CheckpointError::Io(e),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial), table-driven, no external dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data`. Detects any single-byte corruption and all
/// burst errors up to 32 bits, which is what the fault-injection suite
/// leans on.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian payload reader/writer.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    put_u64(buf, t.rows() as u64);
    put_u64(buf, t.cols() as u64);
    for v in t.as_slice() {
        put_f32(buf, *v);
    }
}

/// Bounds-checked cursor over a payload; running past the end is a
/// [`CheckpointError::Truncated`], never a panic. Shared with the GPES
/// embedding-shard codec ([`crate::embed_disk`]).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, CheckpointError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::ShapeMismatch("invalid utf-8 in name".into()))
    }

    fn tensor(&mut self) -> Result<Tensor, CheckpointError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let count = rows.checked_mul(cols).ok_or(CheckpointError::Truncated)?;
        let nbytes = count.checked_mul(4).ok_or(CheckpointError::Truncated)?;
        let raw = self.take(nbytes)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Tensor::from_vec(rows, cols, data))
    }
}

// ---------------------------------------------------------------------------
// Container: atomic write + validated read.
// ---------------------------------------------------------------------------

/// Atomically write `payload` as a GPCK v2 container: temp file in the
/// same directory → fsync → rename over the final name, then best-effort
/// fsync of the directory. A crash at any point leaves either the old
/// file or the new one, never a torn mix.
pub fn write_container(path: &Path, payload: &[u8]) -> Result<(), CheckpointError> {
    write_container_impl(path, payload, None)
}

/// Simulated crash points inside the atomic container write, for the
/// fault-injection tests that prove the old-or-new (never torn) contract.
/// Each variant stops the write exactly where a real power cut or kill
/// could, leaving the same on-disk residue behind.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Die mid-`write_all`, before any fsync: only a prefix of the bytes
    /// reaches the (still temp-named) file.
    TornWrite,
    /// Die after the temp file is fully written and fsynced but before
    /// the rename: a complete orphan temp file, final name untouched.
    BeforeRename,
}

/// [`write_container`] with an injected crash at `fault`. Always returns
/// `Err`; the on-disk state afterwards is what a real crash at that point
/// would leave.
#[doc(hidden)]
pub fn write_container_faulty(
    path: &Path,
    payload: &[u8],
    fault: WriteFault,
) -> Result<(), CheckpointError> {
    write_container_impl(path, payload, Some(fault))
}

fn injected_fault(what: &str) -> CheckpointError {
    CheckpointError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

fn write_container_impl(
    path: &Path,
    payload: &[u8],
    fault: Option<WriteFault>,
) -> Result<(), CheckpointError> {
    write_tagged_container(path, MAGIC, FORMAT_VERSION, payload, fault)
}

/// The GPCK atomic-write discipline, generalized over the container
/// family: magic + version + payload length + CRC32, written to a temp
/// file, fsynced, renamed over the final name, directory fsynced.
/// [`crate::embed_disk`] reuses this for GPES embedding shards.
pub(crate) fn write_tagged_container(
    path: &Path,
    magic: &[u8; 4],
    version: u32,
    payload: &[u8],
    fault: Option<WriteFault>,
) -> Result<(), CheckpointError> {
    use std::io::Write;

    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(magic);
    put_u32(&mut file, version);
    put_u64(&mut file, payload.len() as u64);
    put_u32(&mut file, crc32(payload));
    file.extend_from_slice(payload);

    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint.gpck");
    let tmp = path.with_file_name(format!("{file_name}.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp).map_err(CheckpointError::Io)?;
        if fault == Some(WriteFault::TornWrite) {
            // Crash mid-write: half the bytes land, no fsync, no rename.
            f.write_all(&file[..file.len() / 2])
                .map_err(CheckpointError::Io)?;
            return Err(injected_fault("torn write before sync"));
        }
        f.write_all(&file).map_err(CheckpointError::Io)?;
        f.sync_all().map_err(CheckpointError::Io)?;
        if fault == Some(WriteFault::BeforeRename) {
            // Crash between fsync and rename: durable orphan temp file.
            return Err(injected_fault("crash before rename"));
        }
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        #[expect(
            clippy::unused_result_ok,
            reason = "best-effort temp cleanup; the rename error is what the caller needs"
        )]
        std::fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Io(e));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            #[expect(
                clippy::unused_result_ok,
                reason = "directory fsync is best-effort: not every filesystem supports it, and the file itself is already synced"
            )]
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// Read and validate a GPCK v2 container, returning its payload. The
/// declared payload length must match the file size *exactly* and the
/// payload must hash to the stored CRC32, so every truncation and every
/// single-byte corruption is caught here deterministically.
pub fn read_container(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    container_payload(&bytes).map(<[u8]>::to_vec)
}

fn container_payload(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    tagged_container_payload(bytes, MAGIC, FORMAT_VERSION)
}

/// Validate a tagged container (magic, version, exact length, CRC32) and
/// return its payload. The read half of [`write_tagged_container`].
pub(crate) fn tagged_container_payload<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    expect_version: u32,
) -> Result<&'a [u8], CheckpointError> {
    if bytes.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..4] != magic {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let mut r = Reader::new(&bytes[4..HEADER_LEN]);
    let version = r.u32()?;
    if version != expect_version {
        return Err(CheckpointError::VersionUnsupported(version));
    }
    let payload_len = r.u64()?;
    let stored_crc = r.u32()?;
    let body = &bytes[HEADER_LEN..];
    if payload_len != body.len() as u64 {
        return Err(CheckpointError::Truncated);
    }
    let computed = crc32(body);
    if computed != stored_crc {
        return Err(CheckpointError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Payload encoding: model config, parameters, trainer state.
// ---------------------------------------------------------------------------

/// Payload kind tags.
const KIND_MODEL: u8 = 1;
const KIND_TRAINER: u8 = 2;

fn generator_tag(g: GeneratorKind) -> u8 {
    match g {
        GeneratorKind::Sage => 0,
        GeneratorKind::Gat => 1,
        GeneratorKind::Gcn => 2,
    }
}

fn generator_from_tag(tag: u8) -> Result<GeneratorKind, CheckpointError> {
    match tag {
        0 => Ok(GeneratorKind::Sage),
        1 => Ok(GeneratorKind::Gat),
        2 => Ok(GeneratorKind::Gcn),
        other => Err(CheckpointError::ShapeMismatch(format!(
            "unknown generator tag {other}"
        ))),
    }
}

fn encode_config(buf: &mut Vec<u8>, c: &ModelConfig) {
    for v in [c.feat_dim, c.rel_dim, c.embed_dim, c.hidden_dim] {
        put_u64(buf, v as u64);
    }
    buf.push(generator_tag(c.generator));
    buf.push(c.recon_normalize as u8);
    buf.push(c.proto_residual as u8);
    put_u64(buf, c.seed);
}

fn decode_config(r: &mut Reader<'_>) -> Result<ModelConfig, CheckpointError> {
    let feat_dim = r.usize()?;
    let rel_dim = r.usize()?;
    let embed_dim = r.usize()?;
    let hidden_dim = r.usize()?;
    let generator = generator_from_tag(r.u8()?)?;
    let recon_normalize = r.u8()? != 0;
    let proto_residual = r.u8()? != 0;
    let seed = r.u64()?;
    Ok(ModelConfig {
        feat_dim,
        rel_dim,
        embed_dim,
        hidden_dim,
        generator,
        recon_normalize,
        proto_residual,
        seed,
    })
}

fn encode_params(buf: &mut Vec<u8>, model: &GraphPrompterModel) {
    put_u64(buf, model.store.len() as u64);
    for (id, t) in model.store.iter() {
        put_str(buf, model.store.name(id));
        put_tensor(buf, t);
    }
}

fn decode_params(r: &mut Reader<'_>) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let count = r.usize()?;
    let mut params = Vec::new();
    for _ in 0..count {
        let name = r.string()?;
        let tensor = r.tensor()?;
        params.push((name, tensor));
    }
    Ok(params)
}

/// The mutable training state carried by a trainer checkpoint alongside
/// the model itself. Restoring all of it resumes a run bit-identically.
#[derive(Clone, Debug, Default)]
pub struct TrainerMeta {
    /// Optimization steps completed so far.
    pub step: usize,
    /// Best validation accuracy seen so far.
    pub best_acc: f32,
    /// Step index at which `best_acc` was measured.
    pub best_step: usize,
    /// Parameter snapshot at `best_step` (store iteration order).
    pub best_params: Vec<Tensor>,
    /// AdamW step counter + first/second moments.
    pub optim: OptimState,
    /// Loss/accuracy curve accumulated so far.
    pub curve: TrainingCurve,
    /// Guard-rail trailing-loss window (empty when no guard configured).
    pub guard_window: Vec<f32>,
}

fn encode_trainer(buf: &mut Vec<u8>, meta: &TrainerMeta) {
    put_u64(buf, meta.step as u64);
    put_f32(buf, meta.best_acc);
    put_u64(buf, meta.best_step as u64);
    put_u64(buf, meta.best_params.len() as u64);
    for t in &meta.best_params {
        put_tensor(buf, t);
    }
    put_u64(buf, meta.optim.t);
    for moments in [&meta.optim.m, &meta.optim.v] {
        put_u64(buf, moments.len() as u64);
        for (idx, t) in moments {
            put_u64(buf, *idx as u64);
            put_tensor(buf, t);
        }
    }
    put_u64(buf, meta.curve.steps.len() as u64);
    for s in &meta.curve.steps {
        put_u64(buf, *s as u64);
    }
    for l in &meta.curve.loss {
        put_f32(buf, *l);
    }
    for a in &meta.curve.accuracy {
        put_f32(buf, *a);
    }
    put_u64(buf, meta.guard_window.len() as u64);
    for w in &meta.guard_window {
        put_f32(buf, *w);
    }
}

fn decode_trainer(r: &mut Reader<'_>) -> Result<TrainerMeta, CheckpointError> {
    let step = r.usize()?;
    let best_acc = r.f32()?;
    let best_step = r.usize()?;
    let n_best = r.usize()?;
    let mut best_params = Vec::new();
    for _ in 0..n_best {
        best_params.push(r.tensor()?);
    }
    let t = r.u64()?;
    let mut moments = [Vec::new(), Vec::new()];
    for slot in &mut moments {
        let n = r.usize()?;
        for _ in 0..n {
            let idx = r.usize()?;
            slot.push((idx, r.tensor()?));
        }
    }
    let [m, v] = moments;
    let n_curve = r.usize()?;
    let mut curve = TrainingCurve::default();
    for _ in 0..n_curve {
        curve.steps.push(r.usize()?);
    }
    for _ in 0..n_curve {
        curve.loss.push(r.f32()?);
    }
    for _ in 0..n_curve {
        curve.accuracy.push(r.f32()?);
    }
    let n_window = r.usize()?;
    let mut guard_window = Vec::new();
    for _ in 0..n_window {
        guard_window.push(r.f32()?);
    }
    Ok(TrainerMeta {
        step,
        best_acc,
        best_step,
        best_params,
        optim: OptimState { t, m, v },
        curve,
        guard_window,
    })
}

/// Parsed GPCK v2 payload.
struct ParsedPayload {
    config: ModelConfig,
    params: Vec<(String, Tensor)>,
    trainer: Option<TrainerMeta>,
}

fn parse_payload(payload: &[u8]) -> Result<ParsedPayload, CheckpointError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    if kind != KIND_MODEL && kind != KIND_TRAINER {
        return Err(CheckpointError::ShapeMismatch(format!(
            "unknown payload kind {kind}"
        )));
    }
    let config = decode_config(&mut r)?;
    let params = decode_params(&mut r)?;
    let trainer = if kind == KIND_TRAINER {
        Some(decode_trainer(&mut r)?)
    } else {
        None
    };
    if !r.finished() {
        return Err(CheckpointError::ShapeMismatch(
            "trailing bytes after payload".into(),
        ));
    }
    Ok(ParsedPayload {
        config,
        params,
        trainer,
    })
}

/// Rebuild the architecture from `config` and install the saved parameter
/// values, verifying names and shapes against the freshly built store.
fn model_from_parsed(
    config: ModelConfig,
    params: Vec<(String, Tensor)>,
) -> Result<GraphPrompterModel, CheckpointError> {
    let mut model = GraphPrompterModel::new(config);
    let ids: Vec<_> = model.store.iter().map(|(id, _)| id).collect();
    if params.len() != ids.len() {
        return Err(CheckpointError::ShapeMismatch(format!(
            "checkpoint has {} tensors, model expects {}",
            params.len(),
            ids.len()
        )));
    }
    for (id, (name, tensor)) in ids.into_iter().zip(params) {
        if model.store.name(id) != name {
            return Err(CheckpointError::ShapeMismatch(format!(
                "parameter order mismatch: checkpoint has '{name}', model expects '{}'",
                model.store.name(id)
            )));
        }
        model
            .store
            .try_set(id, tensor)
            .map_err(|e| CheckpointError::ShapeMismatch(e.to_string()))?;
    }
    Ok(model)
}

// ---------------------------------------------------------------------------
// Public save/load entry points.
// ---------------------------------------------------------------------------

/// Save a model-only GPCK v2 checkpoint (config + named parameters).
pub fn save_model(path: &Path, model: &GraphPrompterModel) -> Result<(), CheckpointError> {
    let mut payload = Vec::new();
    payload.push(KIND_MODEL);
    encode_config(&mut payload, model.config());
    encode_params(&mut payload, model);
    write_container(path, &payload)
}

/// Load a model from any supported checkpoint: GPCK v2 (model or trainer
/// kind — the live parameters are used) or a legacy v1 file.
pub fn load_model(path: &Path) -> Result<GraphPrompterModel, CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    if bytes.len() >= 4 && &bytes[..4] == LEGACY_MAGIC {
        return load_legacy_model(&bytes);
    }
    let payload = container_payload(&bytes)?;
    let parsed = parse_payload(payload)?;
    model_from_parsed(parsed.config, parsed.params)
}

/// Load a legacy v1 file: `"GPMC"` config header followed by the
/// `"GPPS"` [`gp_nn::ParamStore`] blob. Read-only compatibility path.
fn load_legacy_model(bytes: &[u8]) -> Result<GraphPrompterModel, CheckpointError> {
    let mut cursor = bytes;
    let cfg = crate::model::read_config_v1(&mut cursor)?;
    let mut model = GraphPrompterModel::new(cfg);
    model
        .store
        .load(&mut cursor)
        .map_err(CheckpointError::from)?;
    Ok(model)
}

/// Save a trainer checkpoint: the live model plus all mutable training
/// state needed to resume bit-identically.
pub fn save_trainer_checkpoint(
    path: &Path,
    model: &GraphPrompterModel,
    meta: &TrainerMeta,
) -> Result<(), CheckpointError> {
    let mut payload = Vec::new();
    payload.push(KIND_TRAINER);
    encode_config(&mut payload, model.config());
    encode_params(&mut payload, model);
    encode_trainer(&mut payload, meta);
    write_container(path, &payload)
}

/// [`save_trainer_checkpoint`] with an injected crash ([`WriteFault`])
/// inside the container write — the fault-injection tests use this to
/// leave realistic crash residue at a real checkpoint path.
#[doc(hidden)]
pub fn save_trainer_checkpoint_faulty(
    path: &Path,
    model: &GraphPrompterModel,
    meta: &TrainerMeta,
    fault: WriteFault,
) -> Result<(), CheckpointError> {
    let mut payload = Vec::new();
    payload.push(KIND_TRAINER);
    encode_config(&mut payload, model.config());
    encode_params(&mut payload, model);
    encode_trainer(&mut payload, meta);
    write_container_faulty(path, &payload, fault)
}

/// Load a trainer checkpoint written by [`save_trainer_checkpoint`],
/// validating the optimizer moments and best-snapshot against the
/// rebuilt model's parameter layout.
pub fn load_trainer_checkpoint(
    path: &Path,
) -> Result<(GraphPrompterModel, TrainerMeta), CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    let payload = container_payload(&bytes)?;
    let parsed = parse_payload(payload)?;
    let Some(meta) = parsed.trainer else {
        return Err(CheckpointError::ShapeMismatch(
            "model-only checkpoint has no trainer state".into(),
        ));
    };
    let model = model_from_parsed(parsed.config, parsed.params)?;
    let shapes: Vec<(usize, usize)> = model.store.iter().map(|(_, t)| t.shape()).collect();
    if meta.best_params.len() != shapes.len() {
        return Err(CheckpointError::ShapeMismatch(format!(
            "best snapshot has {} tensors, model expects {}",
            meta.best_params.len(),
            shapes.len()
        )));
    }
    for (i, t) in meta.best_params.iter().enumerate() {
        if t.shape() != shapes[i] {
            return Err(CheckpointError::ShapeMismatch(format!(
                "best snapshot tensor {i} is {:?}, model expects {:?}",
                t.shape(),
                shapes[i]
            )));
        }
    }
    for moments in [&meta.optim.m, &meta.optim.v] {
        for (idx, t) in moments {
            if *idx >= shapes.len() || t.shape() != shapes[*idx] {
                return Err(CheckpointError::ShapeMismatch(format!(
                    "optimizer moment for parameter {idx} does not match the model layout"
                )));
            }
        }
    }
    Ok((model, meta))
}

// ---------------------------------------------------------------------------
// Checkpoint directory management: naming, retention, recovery.
// ---------------------------------------------------------------------------

/// Canonical file name for the trainer checkpoint at `step`.
pub fn checkpoint_file_name(step: usize) -> String {
    format!("ckpt-{step:09}.gpck")
}

fn parse_checkpoint_step(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".gpck")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Trainer checkpoints in `dir`, sorted ascending by step. Non-matching
/// files are ignored; a missing directory yields an empty list.
pub fn list_checkpoints(dir: &Path) -> Vec<(usize, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(usize, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let step = parse_checkpoint_step(name.to_str()?)?;
            Some((step, e.path()))
        })
        .collect();
    out.sort();
    out
}

/// Delete all but the newest `keep_last` checkpoints in `dir`. Returns
/// the number of files removed. Deletion failures are ignored (retention
/// is advisory; recovery copes with extra files).
pub fn prune_checkpoints(dir: &Path, keep_last: usize) -> usize {
    let all = list_checkpoints(dir);
    let keep = keep_last.max(1);
    if all.len() <= keep {
        return 0;
    }
    let mut removed = 0;
    for (_, path) in &all[..all.len() - keep] {
        if std::fs::remove_file(path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Result of scanning a directory for the newest recoverable checkpoint.
pub struct RecoveryScan {
    /// The newest checkpoint that loaded cleanly, if any.
    pub recovered: Option<(usize, PathBuf, GraphPrompterModel, TrainerMeta)>,
    /// Newer checkpoints that failed validation and were skipped,
    /// newest first, with the typed reason each was rejected.
    pub skipped: Vec<(PathBuf, CheckpointError)>,
}

/// Walk `dir` newest-first and return the first checkpoint that passes
/// full validation, recording every corrupt/truncated file skipped on
/// the way. Never panics; a missing or empty directory recovers nothing.
pub fn scan_for_recovery(dir: &Path) -> RecoveryScan {
    let mut skipped = Vec::new();
    for (step, path) in list_checkpoints(dir).into_iter().rev() {
        match load_trainer_checkpoint(&path) {
            Ok((model, meta)) => {
                return RecoveryScan {
                    recovered: Some((step, path, model, meta)),
                    skipped,
                }
            }
            Err(e) => skipped.push((path, e)),
        }
    }
    RecoveryScan {
        recovered: None,
        skipped,
    }
}

// ---------------------------------------------------------------------------
// Inspection (the `gp inspect` command).
// ---------------------------------------------------------------------------

/// What kind of checkpoint a file holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Legacy v1 model file (`GPMC` + `GPPS`).
    ModelV1,
    /// GPCK v2, model-only payload.
    ModelV2,
    /// GPCK v2, trainer payload (model + training state).
    TrainerV2,
}

/// Header/validity report for `gp inspect`.
pub struct CheckpointSummary {
    /// Payload kind.
    pub kind: CheckpointKind,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Model architecture stored in the checkpoint.
    pub config: ModelConfig,
    /// Number of parameter tensors.
    pub num_tensors: usize,
    /// Total scalar parameter count.
    pub num_scalars: usize,
    /// Trainer bookkeeping, when the payload carries it.
    pub trainer: Option<(usize, f32, usize, usize)>,
}

/// Fully validate a checkpoint file (magic, version, length, CRC, and
/// structural parse) and summarize its contents.
pub fn inspect_checkpoint(path: &Path) -> Result<CheckpointSummary, CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    let file_len = bytes.len() as u64;
    if bytes.len() >= 4 && &bytes[..4] == LEGACY_MAGIC {
        let model = load_legacy_model(&bytes)?;
        return Ok(CheckpointSummary {
            kind: CheckpointKind::ModelV1,
            file_len,
            config: model.config().clone(),
            num_tensors: model.store.len(),
            num_scalars: model.store.num_scalars(),
            trainer: None,
        });
    }
    let payload = container_payload(&bytes)?;
    let parsed = parse_payload(payload)?;
    let num_tensors = parsed.params.len();
    let num_scalars = parsed.params.iter().map(|(_, t)| t.len()).sum();
    Ok(CheckpointSummary {
        kind: if parsed.trainer.is_some() {
            CheckpointKind::TrainerV2
        } else {
            CheckpointKind::ModelV2
        },
        file_len,
        config: parsed.config,
        num_tensors,
        num_scalars,
        trainer: parsed
            .trainer
            .map(|t| (t.step, t.best_acc, t.best_step, t.curve.steps.len())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gp_gpck_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_model(seed: u64) -> GraphPrompterModel {
        GraphPrompterModel::new(ModelConfig {
            embed_dim: 8,
            hidden_dim: 12,
            seed,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn model_roundtrip_is_bit_identical() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("m.gpck");
        let model = small_model(11);
        save_model(&path, &model).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.config(), model.config());
        for ((_, a), (_, b)) in model.store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let dir = tmpdir("legacy");
        let path = dir.join("v1.gpck");
        let model = small_model(5);
        // Write the pre-v2 format: GPMC config header + GPPS param blob.
        let mut bytes = Vec::new();
        crate::model::write_config_v1(&mut bytes, model.config()).unwrap();
        model.store.save(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.config(), model.config());
        for ((_, a), (_, b)) in model.store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let summary = inspect_checkpoint(&path).unwrap();
        assert_eq!(summary.kind, CheckpointKind::ModelV1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trainer_roundtrip_preserves_all_state() {
        let dir = tmpdir("trainer");
        let path = dir.join(checkpoint_file_name(40));
        let model = small_model(3);
        let meta = TrainerMeta {
            step: 40,
            best_acc: 0.75,
            best_step: 30,
            best_params: model.store.snapshot(),
            optim: OptimState {
                t: 40,
                m: vec![(0, Tensor::full(1, 2, 0.5))],
                v: vec![(0, Tensor::full(1, 2, 0.25))],
            },
            curve: TrainingCurve {
                steps: vec![0, 20],
                loss: vec![2.0, 1.0],
                accuracy: vec![0.3, 0.6],
            },
            guard_window: vec![2.0, 1.5, 1.0],
        };
        // Moment shapes must match parameter 0's shape to pass validation.
        let shape0 = model.store.iter().next().unwrap().1.shape();
        let meta = TrainerMeta {
            optim: OptimState {
                t: 40,
                m: vec![(0, Tensor::zeros(shape0.0, shape0.1))],
                v: vec![(0, Tensor::zeros(shape0.0, shape0.1))],
            },
            ..meta
        };
        save_trainer_checkpoint(&path, &model, &meta).unwrap();
        let (loaded, back) = load_trainer_checkpoint(&path).unwrap();
        assert_eq!(loaded.config(), model.config());
        assert_eq!(back.step, 40);
        assert_eq!(back.best_acc, 0.75);
        assert_eq!(back.best_step, 30);
        assert_eq!(back.curve.steps, vec![0, 20]);
        assert_eq!(back.curve.loss, vec![2.0, 1.0]);
        assert_eq!(back.guard_window, vec![2.0, 1.5, 1.0]);
        assert_eq!(back.optim.t, 40);
        assert_eq!(back.best_params.len(), model.store.len());

        let summary = inspect_checkpoint(&path).unwrap();
        assert_eq!(summary.kind, CheckpointKind::TrainerV2);
        assert_eq!(summary.trainer, Some((40, 0.75, 30, 2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let dir = tmpdir("trunc");
        let path = dir.join("m.gpck");
        let model = small_model(1);
        save_model(&path, &model).unwrap();
        let full = std::fs::read(&path).unwrap();

        for cut in [0, 1, 3, 4, 10, HEADER_LEN, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = load_model(&path).err().expect("load must fail");
            assert!(
                matches!(err, CheckpointError::Truncated | CheckpointError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
        std::fs::write(&path, b"random junk that is not a checkpoint").unwrap();
        assert!(matches!(
            load_model(&path).err().expect("load must fail"),
            CheckpointError::BadMagic
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_byte_corruption_is_always_detected() {
        let dir = tmpdir("flip");
        let path = dir.join("m.gpck");
        let model = small_model(2);
        save_model(&path, &model).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Exhaustively flip one bit in every byte of the whole file.
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_model(&path).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_prunes_oldest_and_recovery_prefers_newest_valid() {
        let dir = tmpdir("retain");
        let model = small_model(7);
        for step in [10usize, 20, 30, 40] {
            let meta = TrainerMeta {
                step,
                best_params: model.store.snapshot(),
                ..TrainerMeta::default()
            };
            save_trainer_checkpoint(&dir.join(checkpoint_file_name(step)), &model, &meta).unwrap();
        }
        assert_eq!(list_checkpoints(&dir).len(), 4);
        assert_eq!(prune_checkpoints(&dir, 3), 1);
        let steps: Vec<usize> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![20, 30, 40]);

        // Corrupt the newest: recovery must fall back to step 30.
        let newest = dir.join(checkpoint_file_name(40));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let scan = scan_for_recovery(&dir);
        let (step, _, _, meta) = scan.recovered.expect("should recover");
        assert_eq!(step, 30);
        assert_eq!(meta.step, 30);
        assert_eq!(scan.skipped.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_from_missing_or_empty_dir_is_none() {
        let scan = scan_for_recovery(Path::new("/nonexistent/gp_ckpt_dir"));
        assert!(scan.recovered.is_none());
        assert!(scan.skipped.is_empty());
    }

    #[test]
    fn version_from_the_future_is_rejected() {
        let dir = tmpdir("future");
        let path = dir.join("m.gpck");
        let model = small_model(4);
        save_model(&path, &model).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // bump the version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_model(&path).err().expect("load must fail"),
            CheckpointError::VersionUnsupported(99)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
