//! GPCK v2 — crash-safe, checksummed model files.
//!
//! The paper's pre-training protocol checkpoints every 500 steps to pick
//! the best-validation model (§V-A4); [`mod@crate::pretrain`] keeps that
//! snapshot in memory, and this module makes the file it ends up in
//! durable and trustworthy:
//!
//! * **Container**: `"GPCK"` magic + format version + payload length +
//!   CRC32 over the payload. The payload holds a kind tag (1, model), the
//!   model config and the named parameter tensors.
//! * **Atomic writes**: payload → temp file → fsync → rename, so a crash
//!   mid-write never leaves a half-written file under the final name.
//! * **Typed errors**: every way a file can be wrong (truncated, foreign,
//!   bit-flipped, mismatched shapes, future version, unknown payload
//!   kind) maps to a [`CheckpointError`] variant.
//! * **One format**: this module is the only encoder and decoder of model
//!   files. A file that does not start with `"GPCK"` (including the
//!   unchecksummed pre-v2 format) is [`CheckpointError::BadMagic`].

use std::path::Path;

use gp_tensor::Tensor;

use crate::config::{GeneratorKind, ModelConfig};
use crate::model::GraphPrompterModel;

/// Container magic for GPCK v2 files.
pub const MAGIC: &[u8; 4] = b"GPCK";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 2;
/// Container header size: magic + version + payload length + CRC32.
/// Shared with every container family that reuses the GPCK discipline
/// (GPES embedding shards use the same header with their own magic).
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Everything that can be wrong with a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file ends before the declared data does.
    Truncated,
    /// The file does not start with the GPCK magic.
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
// Payload encoding: model config and parameters.
// ---------------------------------------------------------------------------

/// Payload kind tag of a model file, the one kind this build reads.
const KIND_MODEL: u8 = 1;

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

/// Parse a GPCK v2 payload into its model config and named parameters.
fn parse_payload(payload: &[u8]) -> Result<(ModelConfig, Vec<(String, Tensor)>), CheckpointError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    if kind != KIND_MODEL {
        return Err(CheckpointError::ShapeMismatch(format!(
            "unknown payload kind {kind}"
        )));
    }
    let config = decode_config(&mut r)?;
    let params = decode_params(&mut r)?;
    if !r.finished() {
        return Err(CheckpointError::ShapeMismatch(
            "trailing bytes after payload".into(),
        ));
    }
    Ok((config, params))
}

/// Check the stored tensors' count and shapes against the architecture
/// `config` describes, without building it: a config whose model would
/// not fit the file is an error, never an allocation.
fn check_param_shapes(
    config: &ModelConfig,
    params: &[(String, Tensor)],
) -> Result<(), CheckpointError> {
    let expected = GraphPrompterModel::param_shapes(config).ok_or_else(|| {
        CheckpointError::ShapeMismatch("config widths overflow the address space".into())
    })?;
    if params.len() != expected.len() {
        return Err(CheckpointError::ShapeMismatch(format!(
            "checkpoint has {} tensors, model expects {}",
            params.len(),
            expected.len()
        )));
    }
    for ((name, tensor), &shape) in params.iter().zip(&expected) {
        if tensor.shape() != shape {
            return Err(CheckpointError::ShapeMismatch(format!(
                "'{name}' is {:?}, model expects {shape:?}",
                tensor.shape()
            )));
        }
    }
    Ok(())
}

/// Rebuild the architecture from `config` and install the saved parameter
/// values, verifying shapes before the build and names against the
/// freshly built store.
fn model_from_parsed(
    config: ModelConfig,
    params: Vec<(String, Tensor)>,
) -> Result<GraphPrompterModel, CheckpointError> {
    check_param_shapes(&config, &params)?;
    let mut model = GraphPrompterModel::new(config);
    let ids: Vec<_> = model.store.iter().map(|(id, _)| id).collect();
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

/// Load a model from a GPCK v2 model file.
pub fn load_model(path: &Path) -> Result<GraphPrompterModel, CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    let (config, params) = parse_payload(container_payload(&bytes)?)?;
    model_from_parsed(config, params)
}

// ---------------------------------------------------------------------------
// Inspection (the `gp inspect` command).
// ---------------------------------------------------------------------------

/// Header/validity report for `gp inspect`.
pub struct CheckpointSummary {
    /// Total file size in bytes.
    pub file_len: u64,
    /// Model architecture stored in the checkpoint.
    pub config: ModelConfig,
    /// Number of parameter tensors.
    pub num_tensors: usize,
    /// Total scalar parameter count.
    pub num_scalars: usize,
}

/// Fully validate a checkpoint file (magic, version, length, CRC,
/// structural parse, and tensor shapes against its config) and summarize
/// its contents.
pub fn inspect_checkpoint(path: &Path) -> Result<CheckpointSummary, CheckpointError> {
    let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
    let file_len = bytes.len() as u64;
    let (config, params) = parse_payload(container_payload(&bytes)?)?;
    check_param_shapes(&config, &params)?;
    Ok(CheckpointSummary {
        file_len,
        config,
        num_tensors: params.len(),
        num_scalars: params.iter().map(|(_, t)| t.len()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

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
    fn legacy_v1_files_are_bad_magic() {
        let dir = tmpdir("legacy");
        let path = dir.join("v1.gpck");
        // A pre-v2 header whose feat_dim (2^40) would abort any
        // allocation sized from it: `GPMC`, four u64 dims, three tag
        // bytes, u64 seed.
        let mut bytes = b"GPMC".to_vec();
        for dim in [1u64 << 40, 8, 64, 64] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        bytes.extend_from_slice(&[0, 0, 0]);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(bytes.len(), 47);
        std::fs::write(&path, &bytes).unwrap();

        assert!(matches!(load_model(&path), Err(CheckpointError::BadMagic)));
        assert!(matches!(
            inspect_checkpoint(&path),
            Err(CheckpointError::BadMagic)
        ));
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
