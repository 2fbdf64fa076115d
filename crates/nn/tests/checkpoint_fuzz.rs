//! Seeded mutation sweep over the checkpoint reader: truncation at every
//! offset, bit flips, and oversized length fields, on a small v2 file and
//! a small v3 file. No mutation may panic, every mutated v3 file must be
//! rejected, and no decode may allocate more than a small multiple of the
//! bytes it was given. Restoring is all or nothing: a checkpoint that
//! fails to load into a live parameter set leaves every value as it was.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.

use muse_nn::{
    decode_checkpoint, load_checkpoint_full, load_params, save_params_with_meta, CheckpointError, Param,
    ParamRef,
};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// allocate through it, so every byte requested is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get().map(|n| n + layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = ALLOCATED.with(|c| c.replace(None)).unwrap_or(0);
    (out, bytes)
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("muse-ckpt-fuzz-{}-{name}", std::process::id()))
}

/// The small file's parameter set, valued from `seed`; `last` names and
/// shapes its last parameter.
fn small_params(seed: u64, last: (&str, &[usize])) -> Vec<ParamRef> {
    let mut rng = SeededRng::new(seed);
    vec![
        Param::new("enc.w", Tensor::rand_uniform(&mut rng, &[3, 4], -1.0, 1.0)),
        Param::new("enc.b", Tensor::rand_uniform(&mut rng, &[4], -1.0, 1.0)),
        Param::new(last.0, Tensor::rand_uniform(&mut rng, last.1, -1.0, 1.0)),
    ]
}

const HEAD: (&str, &[usize]) = ("head", &[2, 1, 2]);

/// The bytes `save_params_with_meta` writes for `params`.
fn saved(params: &[ParamRef]) -> Vec<u8> {
    let path = tmp("saved");
    save_params_with_meta(&path, params, Some(r#"{"arch":"fuzz"}"#)).unwrap();
    let raw = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    raw
}

/// A small v3 checkpoint as written by the saver, and the same content as
/// v2 (a v3 file without its crc32 trailer).
fn small_files() -> (Vec<u8>, Vec<u8>) {
    let v3 = saved(&small_params(5, HEAD));
    let mut v2 = v3[..v3.len() - 4].to_vec();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    (v2, v3)
}

fn u32_at(raw: &[u8], at: usize) -> usize {
    u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize
}

/// Offsets of every length field of a valid v2/v3 file: metadata length,
/// entry count, and each entry's name length, rank and dims.
fn length_fields(raw: &[u8]) -> Vec<usize> {
    let mut fields = vec![8];
    let mut at = 12 + u32_at(raw, 8);
    fields.push(at);
    let count = u32_at(raw, at);
    at += 4;
    for _ in 0..count {
        fields.push(at);
        at += 4 + u32_at(raw, at);
        fields.push(at);
        let rank = u32_at(raw, at);
        at += 4;
        let mut n = 1;
        for _ in 0..rank {
            fields.push(at);
            n *= u32_at(raw, at);
            at += 4;
        }
        at += 4 * n;
    }
    fields
}

/// Recompute a v3 file's crc32 trailer, so an edit reaches the structural
/// checks behind the checksum. The reader's own CRC is private; this is the
/// bitwise definition of the same CRC-32 (IEEE).
fn reseal(raw: &mut [u8]) {
    let body = raw.len() - 4;
    let mut c = !0u32;
    for &b in &raw[..body] {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    raw[body..].copy_from_slice(&(!c).to_le_bytes());
}

/// Decode `raw`, asserting bounded allocation; returns whether it loaded.
fn decodes(raw: &[u8], what: &str) -> bool {
    let (result, bytes) = allocated_by(|| decode_checkpoint(raw));
    let bound = 16 * raw.len() + 16 * 1024;
    assert!(bytes <= bound, "{what}: decoding {} bytes allocated {bytes} (bound {bound})", raw.len());
    match result {
        Ok(_) => true,
        Err(CheckpointError::Format(msg)) => {
            assert!(msg.contains("byte offset"), "{what}: format error without offset: {msg}");
            false
        }
        Err(e) => panic!("{what}: expected a format error, got {e}"),
    }
}

#[test]
fn mutated_checkpoints_never_panic_and_mutated_v3_files_never_load() {
    let (v2, v3) = small_files();
    assert!(decodes(&v2, "v2 original") && decodes(&v3, "v3 original"));
    let mut rng = SeededRng::new(1505);
    for (version, raw) in [("v2", &v2), ("v3", &v3)] {
        let is_v3 = version == "v3";
        for cut in 0..raw.len() {
            assert!(
                !decodes(&raw[..cut], &format!("{version} cut at {cut}")),
                "{version} prefix of {cut} bytes loaded"
            );
        }
        for i in 0..600 {
            let mut mutated = raw.clone();
            for _ in 0..1 + rng.index(3) {
                let at = rng.index(mutated.len());
                mutated[at] ^= 1 << rng.index(8);
            }
            let loaded = decodes(&mutated, &format!("{version} flip {i}"));
            assert!(!(is_v3 && loaded && mutated != *raw), "{version} flip {i} loaded");
        }
        for at in length_fields(raw) {
            for claim in [u32::MAX, 1 << 31, 1 << 24, raw.len() as u32 + 1] {
                let mut mutated = raw.clone();
                mutated[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                let what = format!("{version} field at {at} claims {claim}");
                assert!(!decodes(&mutated, &what), "{what}: loaded");
                if is_v3 {
                    reseal(&mut mutated);
                    assert!(!decodes(&mutated, &format!("{what}, resealed")), "{what}, resealed: loaded");
                }
            }
        }
    }
}

#[test]
fn a_huge_element_count_claim_costs_only_the_bytes_present() {
    // A ~100-byte v2 file whose one tensor claims 16 M elements (64 MB).
    let mut raw = Vec::new();
    raw.extend_from_slice(b"MUSE");
    for field in [2u32, 0, 1, 1] {
        raw.extend_from_slice(&field.to_le_bytes()); // version, meta_len, count, name_len
    }
    raw.push(b'w');
    raw.extend_from_slice(&1u32.to_le_bytes()); // rank
    raw.extend_from_slice(&(1u32 << 24).to_le_bytes()); // dim
    raw.extend_from_slice(&[0u8; 64]);
    let path = tmp("huge-claim");
    std::fs::write(&path, &raw).unwrap();
    let (result, bytes) = allocated_by(|| load_checkpoint_full(&path));
    std::fs::remove_file(path).ok();
    assert!(
        matches!(result, Err(CheckpointError::Format(_))),
        "a short payload is a format error: {result:?}"
    );
    assert!(bytes < 1 << 20, "a 16M-element claim in a {}-byte file allocated {bytes} bytes", raw.len());
}

#[test]
fn a_checkpoint_that_fails_to_load_changes_no_parameter() {
    let live = small_params(77, HEAD);
    let bits = |params: &[ParamRef]| -> Vec<Vec<u32>> {
        params.iter().map(|p| p.with_value(|v| v.as_slice().iter().map(|x| x.to_bits()).collect())).collect()
    };
    let original = bits(&live);
    let path = tmp("restore");
    let rejects = |raw: &[u8], what: &str| {
        std::fs::write(&path, raw).unwrap();
        assert!(load_params(&path, &live).is_err(), "{what}: loaded");
        assert_eq!(bits(&live), original, "{what}: a failed load changed a parameter");
    };
    let (_, v3) = small_files();
    for cut in 0..v3.len() {
        rejects(&v3[..cut], &format!("cut at {cut}"));
    }
    let mut rng = SeededRng::new(3003);
    for i in 0..200 {
        let mut mutated = v3.clone();
        let at = rng.index(mutated.len());
        mutated[at] ^= 1 << rng.index(8);
        rejects(&mutated, &format!("flip {i} at {at}"));
    }
    // Well-formed files that disagree with the live set only at their last
    // entry (or in their entry count): every earlier entry matches, so a
    // restore that wrote before checking would have changed those.
    rejects(&saved(&small_params(5, HEAD)[..2]), "one entry short");
    let mut extra = small_params(5, HEAD);
    extra.push(Param::new("extra", Tensor::ones(&[1])));
    rejects(&saved(&extra), "one entry over");
    rejects(&saved(&small_params(5, ("head", &[2, 2]))), "last shape differs");
    rejects(&saved(&small_params(5, ("tail", &[2, 1, 2]))), "last name differs");
    // And the file it came from still loads.
    std::fs::write(&path, &v3).unwrap();
    load_params(&path, &live).unwrap();
    assert_eq!(bits(&live), bits(&small_params(5, HEAD)));
    std::fs::remove_file(path).ok();
}
