//! Request-body allocation is bounded by the bytes received, not by the
//! `Content-Length` a client claims.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.

use muse_obs::http::{read_request, RequestError, MAX_BODY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

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

#[test]
fn a_large_content_length_claim_costs_only_the_bytes_sent() {
    let mut raw = format!("POST /ingest HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n").into_bytes();
    raw.extend_from_slice(b"0123456789");
    let mut reader = BufReader::new(&raw[..]);
    let (result, bytes) = allocated_by(|| read_request(&mut reader));
    assert!(matches!(result, Err(RequestError::Io(_))), "a short body is an i/o error: {result:?}");
    assert!(bytes < 64 * 1024, "a {MAX_BODY}-byte claim with 10 body bytes allocated {bytes} bytes");
}
