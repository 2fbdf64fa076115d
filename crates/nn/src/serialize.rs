//! Checkpointing: save and load parameter sets.
//!
//! A deliberately simple, dependency-free binary format:
//!
//! ```text
//! magic  "MUSE"            4 bytes
//! version u32 LE           4 bytes
//! v2 and v3:
//!   meta_len u32 LE, meta bytes (UTF-8, 0 = no metadata)
//! count   u32 LE           4 bytes
//! repeated count times:
//!   name_len u32 LE, name bytes (UTF-8)
//!   rank u32 LE, dims (u32 LE each)
//!   data (f32 LE each)
//! v3 only:
//!   crc32 u32 LE           CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Version 2 adds an optional metadata section right after the version
//! field — an opaque UTF-8 string (by convention a JSON model config) that
//! lets a serving process reconstruct the right architecture before
//! loading weights. Version 3 is version 2 plus a CRC-32 trailer; the
//! loader verifies it right after the version field, before decoding
//! anything else, so a torn or bit-flipped file is reported as a checksum
//! mismatch instead of loading as wrong weights. Version 1 (no metadata
//! section) and version 2 files still load.
//!
//! Saves write version 3 to a temporary file in the target's directory and
//! `rename` it into place, so a reader sees the old file or the new one,
//! never a half-written one.
//!
//! Parameters are matched **positionally** on load, with name and shape
//! verified entry-by-entry — a checkpoint can only be restored into the
//! same architecture, constructed in the same order, which is exactly the
//! safe case. Layer constructors embed shapes into names, so most
//! architecture drift is caught by the name check too.
//!
//! The loader reads the whole file and decodes from the byte slice: one
//! decoder walks the entries and hands each one, borrowed from the bytes,
//! to a sink, and nothing is allocated for a length field before the bytes
//! it claims are known to be present. [`decode_checkpoint`] turns the
//! entries into owned tensors; [`load_params`] and [`CheckpointView`]
//! instead decode each payload straight into its parameter's existing
//! buffer, after checking every entry's name and shape, so restoring a
//! model builds no entry tensor and leaves nothing on the arena's shelves.
//!
//! Every [`CheckpointError::Format`] the decoder produces names the
//! offending entry (index, and name once known) and the absolute byte
//! offset where decoding failed, so a truncated or bit-flipped file is
//! diagnosable from the message alone.

use crate::param::ParamRef;
use muse_tensor::Tensor;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const MAGIC: &[u8; 4] = b"MUSE";
/// Current write version (v3: v2 plus a CRC-32 trailer).
const VERSION: u32 = 3;
/// Caps rejecting implausible length fields with a named error.
const MAX_META_LEN: usize = 1024 * 1024;
const MAX_NAME_LEN: usize = 4096;
const MAX_RANK: usize = 8;
const MAX_ELEMS: usize = 256 * 1024 * 1024;

/// Error type for checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint file, an unsupported version, or a corrupt one.
    Format(String),
    /// Parameter set does not match the checkpoint contents.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint format: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A fully decoded checkpoint: optional metadata plus named tensors.
#[derive(Debug)]
pub struct Checkpoint {
    /// The metadata string (by convention a JSON model config); `None` for
    /// v1 files or files written without metadata.
    pub meta: Option<String>,
    /// `(name, tensor)` pairs in save order.
    pub entries: Vec<(String, Tensor)>,
}

/// Save a parameter set to `path` (no metadata section).
pub fn save_params(path: &Path, params: &[ParamRef]) -> Result<(), CheckpointError> {
    save_params_with_meta(path, params, None)
}

/// Save a parameter set to `path`, embedding an optional metadata string
/// (by convention the model's JSON config) in the header.
pub fn save_params_with_meta(
    path: &Path,
    params: &[ParamRef],
    meta: Option<&str>,
) -> Result<(), CheckpointError> {
    let meta = meta.unwrap_or("");
    if meta.len() > MAX_META_LEN {
        return Err(CheckpointError::Format(format!(
            "metadata too large to save: {} bytes (cap {MAX_META_LEN})",
            meta.len()
        )));
    }
    let mut out = Vec::new();
    let put_u32 = |out: &mut Vec<u8>, x: usize| out.extend_from_slice(&(x as u32).to_le_bytes());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION as usize);
    put_u32(&mut out, meta.len());
    out.extend_from_slice(meta.as_bytes());
    put_u32(&mut out, params.len());
    for p in params {
        let name = p.name().as_bytes();
        put_u32(&mut out, name.len());
        out.extend_from_slice(name);
        let value = p.value();
        put_u32(&mut out, value.rank());
        for &d in value.dims() {
            put_u32(&mut out, d);
        }
        out.extend(value.as_slice().iter().flat_map(|x| x.to_le_bytes()));
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    write_atomically(path, &out)?;
    Ok(())
}

/// Write `bytes` to a fresh temporary file next to `path`, then rename it
/// over `path`. The temporary name is unique per process and call, so
/// concurrent saves to one path cannot interleave their bytes.
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SAVES: AtomicUsize = AtomicUsize::new(0);
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{} names no file", path.display()))
    })?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}-{}",
        name.to_string_lossy(),
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path)).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// CRC-32 (IEEE 802.3, reflected, as in zlib and PNG) lookup tables for
/// slicing-by-8: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` advances byte `b`'s contribution by `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Byte-offset-tracking reader over a checkpoint's bytes: every decode
/// failure can say exactly where in the file it happened and what was being
/// read for which entry.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, or a named, positioned `Format` error
    /// ("truncated reading <what> for <entry> at byte offset <pos>").
    fn take(&mut self, n: usize, what: &str, entry: &str) -> Result<&'a [u8], CheckpointError> {
        let at = self.pos;
        if self.bytes.len() - at < n {
            return Err(CheckpointError::Format(format!(
                "truncated reading {what} for {entry} at byte offset {at}"
            )));
        }
        self.pos += n;
        Ok(&self.bytes[at..at + n])
    }

    fn read_u32(&mut self, what: &str, entry: &str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what, entry)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn bad(&self, field_bytes: usize, msg: String) -> CheckpointError {
        CheckpointError::Format(format!("{msg} at byte offset {}", self.pos - field_bytes))
    }
}

/// One stored entry, borrowed from the checkpoint's bytes: its name, its
/// dims (`u32` LE each) and its payload (`f32` LE each), all bounds-checked.
#[derive(Clone, Copy)]
struct Entry<'a> {
    name: &'a str,
    dims: &'a [u8],
    payload: &'a [u8],
}

/// The `u32` LE fields of `bytes`, widened.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = usize> + '_ {
    bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

impl Entry<'_> {
    fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        u32s(self.dims)
    }

    fn values(&self) -> impl Iterator<Item = f32> + '_ {
        self.payload.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn to_tensor(self) -> Tensor {
        Tensor::from_vec(self.values().collect(), &self.dims().collect::<Vec<_>>())
    }
}

/// The checkpoint decoder: check the header (and a v3 file's CRC first),
/// then walk the entries, handing each to `sink` as soon as its bytes are
/// known to be present and well formed. Returns the metadata string.
fn decode<'a>(bytes: &'a [u8], mut sink: impl FnMut(Entry<'a>)) -> Result<Option<&'a str>, CheckpointError> {
    let mut r = Cursor { bytes, pos: 0 };
    if r.take(4, "magic", "header")? != MAGIC {
        return Err(r.bad(4, "missing MUSE magic".into()));
    }
    let version = r.read_u32("version", "header")?;
    if !(1..=VERSION).contains(&version) {
        return Err(r.bad(4, format!("unsupported version {version}")));
    }
    if version >= 3 {
        // Verify the trailer first, then decode only what it covers.
        let body = bytes.len().saturating_sub(4).max(r.pos);
        let stored = Cursor { bytes, pos: body }.read_u32("crc32 trailer", "footer")?;
        let computed = crc32(&bytes[..body]);
        if stored != computed {
            return Err(CheckpointError::Format(format!(
                "checksum mismatch: trailer says {stored:#010x}, the {body} bytes before it hash to \
                 {computed:#010x} (crc32 trailer at byte offset {body})"
            )));
        }
        r.bytes = &bytes[..body];
    }
    let meta = if version >= 2 {
        let meta_len = r.read_u32("metadata length", "header")? as usize;
        if meta_len > MAX_META_LEN {
            return Err(r.bad(4, format!("implausible metadata length {meta_len}")));
        }
        let raw = r.take(meta_len, "metadata", "header")?;
        if meta_len == 0 {
            None
        } else {
            Some(std::str::from_utf8(raw).map_err(|e| r.bad(meta_len, format!("non-utf8 metadata ({e})")))?)
        }
    } else {
        None
    };
    let count = r.read_u32("entry count", "header")? as usize;
    for i in 0..count {
        let entry = format!("entry {i}");
        let name_len = r.read_u32("name length", &entry)? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(r.bad(4, format!("{entry}: implausible name length {name_len}")));
        }
        let name = r.take(name_len, "name", &entry)?;
        let name = std::str::from_utf8(name)
            .map_err(|e| r.bad(name_len, format!("{entry}: non-utf8 name ({e})")))?;
        let entry = format!("entry {i} ('{name}')");
        let rank = r.read_u32("rank", &entry)? as usize;
        if rank > MAX_RANK {
            return Err(r.bad(4, format!("{entry}: implausible rank {rank}")));
        }
        let dims_at = r.pos;
        for _ in 0..rank {
            r.read_u32("dims", &entry)?;
        }
        let dims = &r.bytes[dims_at..r.pos];
        let n = u32s(dims)
            .try_fold(1usize, |acc, d| acc.checked_mul(d))
            .filter(|&n| n <= MAX_ELEMS)
            .ok_or_else(|| {
                let dims: Vec<usize> = u32s(dims).collect();
                r.bad(0, format!("{entry}: implausible tensor size (dims {dims:?})"))
            })?;
        let payload = r.take(4 * n, &format!("{n} elements"), &entry)?;
        sink(Entry { name, dims, payload });
    }
    if version >= 3 && r.pos != r.bytes.len() {
        return Err(r.bad(0, format!("{} unread bytes before the crc32 trailer", r.bytes.len() - r.pos)));
    }
    Ok(meta)
}

/// Load a checkpoint, including its metadata section.
pub fn load_checkpoint_full(path: &Path) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(&fs::read(path)?)
}

/// Decode a checkpoint from its bytes (any supported version) into
/// owned tensors.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut entries = Vec::new();
    let meta = decode(bytes, |e| entries.push((e.name.to_owned(), e.to_tensor())))?;
    Ok(Checkpoint { meta: meta.map(str::to_owned), entries })
}

/// Load a checkpoint into `(name, tensor)` pairs (metadata discarded).
pub fn load_checkpoint(path: &Path) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    Ok(load_checkpoint_full(path)?.entries)
}

/// Load a checkpoint and write its values into a parameter set, in place.
///
/// Matching is positional; each entry's name and shape must agree with the
/// parameter at the same position (same architecture, same construction
/// order). See [`CheckpointView::restore`].
pub fn load_params(path: &Path, params: &[ParamRef]) -> Result<(), CheckpointError> {
    CheckpointView::parse(&fs::read(path)?)?.restore(params)
}

/// A checkpoint decoded without copying its values: the metadata and each
/// entry's name, dims and payload, borrowed from the file's bytes. Parse
/// it, build a matching parameter set (from the metadata, say), then
/// [`CheckpointView::restore`] the values straight into it.
pub struct CheckpointView<'a> {
    /// The metadata string; `None` for v1 files or files written without
    /// metadata.
    pub meta: Option<&'a str>,
    entries: Vec<Entry<'a>>,
}

impl<'a> CheckpointView<'a> {
    /// Decode `bytes` (any supported version), with every check and error
    /// message of [`decode_checkpoint`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        let mut entries = Vec::new();
        let meta = decode(bytes, |e| entries.push(e))?;
        Ok(CheckpointView { meta, entries })
    }

    /// Write every entry's values into the parameter at the same position,
    /// decoding each payload straight into the parameter's buffer.
    ///
    /// All or nothing: the entry count, every name and every shape are
    /// checked before any value changes, so a mismatched checkpoint leaves
    /// the parameters as they were.
    pub fn restore(&self, params: &[ParamRef]) -> Result<(), CheckpointError> {
        if self.entries.len() != params.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} parameters, model has {}",
                self.entries.len(),
                params.len()
            )));
        }
        for (i, (p, e)) in params.iter().zip(&self.entries).enumerate() {
            if p.name() != e.name {
                return Err(CheckpointError::Mismatch(format!(
                    "parameter {i} name mismatch: checkpoint '{}', model '{}'",
                    e.name,
                    p.name()
                )));
            }
            if !p.with_value(|v| e.dims().eq(v.dims().iter().copied())) {
                return Err(CheckpointError::Mismatch(format!(
                    "shape mismatch for {}: checkpoint {:?}, model {:?}",
                    p.name(),
                    e.dims().collect::<Vec<_>>(),
                    p.dims()
                )));
            }
        }
        for (p, e) in params.iter().zip(&self.entries) {
            p.with_value_mut(|v| {
                for (x, y) in v.as_mut_slice().iter_mut().zip(e.values()) {
                    *x = y;
                }
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use muse_tensor::init::SeededRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("muse-ckpt-test-{}-{}", std::process::id(), name));
        p
    }

    fn sample_params(rng: &mut SeededRng) -> Vec<ParamRef> {
        vec![
            Param::new("layer.w", Tensor::rand_uniform(rng, &[3, 4], -1.0, 1.0)),
            Param::new("layer.b", Tensor::rand_uniform(rng, &[4], -1.0, 1.0)),
        ]
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = SeededRng::new(1);
        let params = sample_params(&mut rng);
        let path = tmp("roundtrip");
        save_params(&path, &params).unwrap();
        let originals: Vec<Tensor> = params.iter().map(|p| p.value()).collect();
        // Zero out and reload.
        for p in &params {
            p.set_value(Tensor::zeros(&p.dims()));
        }
        load_params(&path, &params).unwrap();
        for (p, orig) in params.iter().zip(&originals) {
            assert_eq!(&p.value(), orig);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metadata_roundtrip_and_absence() {
        let mut rng = SeededRng::new(2);
        let params = sample_params(&mut rng);
        let path = tmp("meta");
        let meta = r#"{"d":16,"k":32}"#;
        save_params_with_meta(&path, &params, Some(meta)).unwrap();
        let ckpt = load_checkpoint_full(&path).unwrap();
        assert_eq!(ckpt.meta.as_deref(), Some(meta));
        assert_eq!(ckpt.entries.len(), 2);
        // And load_params still restores through the v2 header.
        load_params(&path, &params).unwrap();

        save_params(&path, &params).unwrap();
        assert_eq!(load_checkpoint_full(&path).unwrap().meta, None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version1_files_still_load() {
        // Hand-assemble a v1 file: no metadata section.
        let path = tmp("v1");
        let mut raw = Vec::new();
        raw.extend_from_slice(b"MUSE");
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes()); // count
        raw.extend_from_slice(&1u32.to_le_bytes()); // name_len
        raw.extend_from_slice(b"w");
        raw.extend_from_slice(&1u32.to_le_bytes()); // rank
        raw.extend_from_slice(&2u32.to_le_bytes()); // dim
        raw.extend_from_slice(&1.5f32.to_le_bytes());
        raw.extend_from_slice(&(-2.0f32).to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let ckpt = load_checkpoint_full(&path).unwrap();
        assert_eq!(ckpt.meta, None);
        assert_eq!(ckpt.entries[0].0, "w");
        assert_eq!(ckpt.entries[0].1.as_slice(), &[1.5, -2.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version2_files_still_load() {
        // A v2 file is a v3 file without the crc32 trailer.
        let v3 = valid_checkpoint_bytes("v2-src");
        let mut v2 = v3[..v3.len() - 4].to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let (a, b) = (decode_checkpoint(&v2).unwrap(), decode_checkpoint(&v3).unwrap());
        assert_eq!(a.meta, b.meta);
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value_and_the_bytewise_rule() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let bitwise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            !c
        };
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            assert_eq!(crc32(&bytes[..len]), bitwise(&bytes[..len]), "length {len}");
        }
    }

    #[test]
    fn a_flipped_byte_is_a_checksum_mismatch() {
        let mut raw = valid_checkpoint_bytes("flip");
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        let msg = format!("{}", decode_checkpoint(&raw).unwrap_err());
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert!(msg.contains(&format!("byte offset {}", raw.len() - 4)), "{msg}");
    }

    #[test]
    fn saves_replace_the_file_and_leave_no_temporary() {
        let dir = tmp("atomic-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let params = vec![Param::new("w", Tensor::ones(&[2]))];
        save_params(&path, &params).unwrap();
        params[0].set_value(Tensor::full(&[2], 3.0));
        save_params(&path, &params).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, vec![std::ffi::OsString::from("model.ckpt")]);
        assert_eq!(load_checkpoint(&path).unwrap()[0].1.as_slice(), &[3.0, 3.0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_into_mismatched_shape_fails() {
        let params = vec![Param::new("w", Tensor::ones(&[2, 2]))];
        let path = tmp("mismatch");
        save_params(&path, &params).unwrap();
        let wrong = vec![Param::new("w", Tensor::ones(&[3]))];
        let err = load_params(&path, &wrong).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_parameter_fails() {
        let params = vec![Param::new("a", Tensor::ones(&[1]))];
        let path = tmp("missing");
        save_params(&path, &params).unwrap();
        let other = vec![Param::new("b", Tensor::ones(&[1]))];
        let err = load_params(&path, &other).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_count_rejected() {
        let params = vec![Param::new("w", Tensor::ones(&[1]))];
        let path = tmp("count");
        save_params(&path, &params).unwrap();
        let more = vec![Param::new("w", Tensor::ones(&[1])), Param::new("v", Tensor::ones(&[1]))];
        let err = load_params(&path, &more).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    /// Recompute a v3 file's crc32 trailer after an edit, so the edit
    /// reaches the structural checks behind the checksum.
    fn reseal(raw: &mut [u8]) {
        let body = raw.len() - 4;
        let crc = crc32(&raw[..body]);
        raw[body..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Bytes of a small valid checkpoint, for corruption tests.
    fn valid_checkpoint_bytes(tag: &str) -> Vec<u8> {
        let mut rng = SeededRng::new(7);
        let params = sample_params(&mut rng);
        let path = tmp(tag);
        save_params_with_meta(&path, &params, Some(r#"{"arch":"test"}"#)).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        raw
    }

    #[test]
    fn corrupt_rank_field_names_entry_and_offset() {
        let raw = valid_checkpoint_bytes("rank");
        // Locate entry 0's rank field: magic(4) + version(4) + meta_len(4)
        // + meta + count(4) + name_len(4) + name.
        let meta_len = u32::from_le_bytes(raw[8..12].try_into().unwrap()) as usize;
        let name_len_at = 12 + meta_len + 4;
        let name_len = u32::from_le_bytes(raw[name_len_at..name_len_at + 4].try_into().unwrap()) as usize;
        let rank_at = name_len_at + 4 + name_len;
        let mut mutated = raw.clone();
        mutated[rank_at..rank_at + 4].copy_from_slice(&999u32.to_le_bytes());
        reseal(&mut mutated);
        let path = tmp("rank-mut");
        std::fs::write(&path, &mutated).unwrap();
        let err = load_checkpoint_full(&path).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("entry 0 ('layer.w')"), "message should name the entry: {msg}");
        assert!(
            msg.contains(&format!("byte offset {rank_at}")),
            "message should carry the field offset: {msg}"
        );
        std::fs::remove_file(path).ok();
    }
}
