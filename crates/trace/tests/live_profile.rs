//! The live profile (`GET /debug/profile`) and `muse-trace flame` fold the
//! same spans into the same bytes: one sums the `span.*` histograms, the
//! other the trace's `span.exit` events, and both hold the same integer
//! nanoseconds.

use muse_obs as obs;
use std::hint::black_box;
use std::process::Command;

/// Some work for a span to time, so self times are non-trivial.
fn work(rounds: u64) -> u64 {
    (0..rounds * 1000).fold(0u64, |acc, i| black_box(acc.wrapping_mul(31).wrapping_add(i)))
}

/// A root that does no work of its own around two siblings doing the same
/// work (their order is a self-time comparison, by name on a tie), one of
/// them repeated so its path closes more than once.
fn nested_spans() {
    let _root = obs::span("profile.root");
    for _ in 0..3 {
        let _a = obs::span("profile.a");
        black_box(work(20));
    }
    let _b = obs::span("profile.b");
    black_box(work(60));
    let _leaf = obs::span("profile.leaf");
    black_box(work(10));
}

#[test]
fn live_profile_equals_the_flame_of_the_same_spans() {
    let _g = obs::test_lock();
    obs::reset_metrics();
    let dir = std::env::temp_dir().join("muse-trace-live-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("spans.jsonl");
    obs::open_trace(&trace).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(nested_spans);
        nested_spans();
    });
    obs::close_trace().unwrap();
    let live = obs::span::profile();
    obs::disable();

    let out = Command::new(env!("CARGO_BIN_EXE_muse-trace"))
        .args(["flame", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "flame failed: {}", String::from_utf8_lossy(&out.stderr));
    let flame = String::from_utf8(out.stdout).unwrap();
    assert_eq!(live, flame);
    // Both threads' spans are in it, under one root.
    assert!(flame.lines().all(|l| l.starts_with("profile.root")), "{flame}");
    assert!(flame.contains("profile.root;profile.b;profile.leaf "), "{flame}");
    let _ = std::fs::remove_file(&trace);
}
