//! Seeded mutation sweep over the trace reader: a recorded training trace
//! is truncated, bit-flipped, given oversized and negative numbers, nested
//! past the JSON depth limit, and handed `kernel.summary` snapshots with
//! malformed or near-`u64::MAX` span histograms. Each result goes through
//! `TraceData::load`, `report::render`, `diff::diff` against the clean
//! trace and the collapsed span fold. Nothing may panic.

mod common;

use muse_obs::json::MAX_DEPTH;
use muse_obs::span::collapsed;
use muse_tensor::init::SeededRng;
use muse_trace::ingest::TraceData;
use muse_trace::tolerance::DEFAULT_TOLERANCE;
use muse_trace::{diff, report};
use std::path::Path;

/// Numbers no well-formed trace holds.
const ODD_NUMBERS: [&str; 9] =
    ["1e300", "-1e300", "-1", "-0", "1.8e19", "18446744073709551616", "1e19", "9007199254740993", "0.5"];

/// Values for a span histogram's `count` or `sum`; `None` leaves it out.
const ODD_FIELDS: [Option<&str>; 11] = [
    None,
    Some("null"),
    Some("\"12\""),
    Some("[]"),
    Some("{}"),
    Some("true"),
    Some("-7"),
    Some("-1e300"),
    Some("1e300"),
    Some("1.8e19"),
    Some("18446744073709551615"),
];

/// Span paths, sibling-heavy so near-`u64::MAX` children add up.
const PATHS: [&str; 8] =
    ["span.a", "span.a/b", "span.a/c", "span.a/b/d", "span.a/e", "span.", "span.a//b", "span.a/"];

/// Load `bytes` as a trace and run every reader over the result.
fn exercise(clean: &TraceData, bytes: &[u8], path: &Path) {
    std::fs::write(path, bytes).unwrap();
    // A corrupt line before the last one is an error, not a panic.
    let Ok(data) = TraceData::load(path) else { return };
    report::render(&data);
    diff::diff(clean, &data, DEFAULT_TOLERANCE);
    diff::diff(&data, clean, DEFAULT_TOLERANCE);
    collapsed(&data.spans);
}

/// Byte ranges of the numbers that directly follow a `:`.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let is_num = |c: u8| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E');
    (1..b.len())
        .filter(|&i| b[i - 1] == b':' && (b[i] == b'-' || b[i].is_ascii_digit()))
        .map(|start| (start, (start..b.len()).find(|&j| !is_num(b[j])).unwrap_or(b.len())))
        .collect()
}

/// A `kernel.summary` line whose metrics hold exactly `histograms`.
fn summary_line(histograms: &str) -> String {
    format!(r#"{{"ev":"kernel.summary","seq":9999,"metrics":{{"histograms":{{{histograms}}}}}}}"#)
}

/// A span histogram entry with the given `count` and `sum` fields.
fn histogram(path: &str, count: Option<&str>, sum: Option<&str>) -> String {
    let fields: Vec<String> = [("count", count), ("sum", sum)]
        .iter()
        .filter_map(|(key, value)| value.map(|v| format!("\"{key}\":{v}")))
        .collect();
    format!("\"{path}\":{{{}}}", fields.join(","))
}

fn pick<T: Copy>(rng: &mut SeededRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

#[test]
fn mutated_traces_never_panic_the_readers() {
    let _g = muse_obs::test_lock();
    let source = common::record_training_trace("fuzz_source.jsonl");
    let text = std::fs::read_to_string(&source).unwrap();
    let clean = TraceData::load(&source).unwrap();
    std::fs::remove_file(&source).ok();
    assert!(!clean.spans.is_empty(), "the recorded trace folds");
    let path = std::env::temp_dir().join(format!("muse-trace-fuzz-{}.jsonl", std::process::id()));
    let mut rng = SeededRng::new(27);
    let lines: Vec<&str> = text.lines().collect();

    // Siblings whose sums near u64::MAX overflow a plain sum of children.
    let near_max = ["span.a", "span.a/b", "span.a/c"].map(|p| histogram(p, Some("1"), Some("1.8e19")));
    exercise(&clean, format!("{text}{}\n", summary_line(&near_max.join(","))).as_bytes(), &path);

    for _ in 0..150 {
        // Truncation at a random offset.
        let cut = rng.index(text.len() + 1);
        exercise(&clean, &text.as_bytes()[..cut], &path);

        // Bit flips.
        let mut bytes = text.clone().into_bytes();
        for _ in 0..1 + rng.index(4) {
            let at = rng.index(bytes.len());
            bytes[at] ^= 1 << rng.index(8);
        }
        exercise(&clean, &bytes, &path);

        // Oversized and negative numbers.
        let mut mutated = text.clone();
        for _ in 0..1 + rng.index(3) {
            let (start, end) = pick(&mut rng, &number_spans(&mutated));
            mutated.replace_range(start..end, pick(&mut rng, &ODD_NUMBERS));
        }
        exercise(&clean, mutated.as_bytes(), &path);

        // Nesting to twice the parser's depth limit, as a line of its own
        // or as a field of a snapshot histogram.
        let depth = 2 * MAX_DEPTH;
        let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deep_line = if rng.chance(0.5) {
            format!(r#"{{"ev":"train.epoch","seq":1,"run":1,"record":{deep}}}"#)
        } else {
            summary_line(&format!("\"span.a\":{{\"count\":1,\"sum\":{deep}}}"))
        };
        let mut nested = lines.clone();
        nested.insert(rng.index(lines.len() + 1), &deep_line);
        exercise(&clean, nested.join("\n").as_bytes(), &path);

        // A final snapshot with malformed or near-u64::MAX span histograms.
        let entries: Vec<String> = (0..1 + rng.index(PATHS.len()))
            .map(|_| {
                histogram(pick(&mut rng, &PATHS), pick(&mut rng, &ODD_FIELDS), pick(&mut rng, &ODD_FIELDS))
            })
            .collect();
        let snapshot =
            if rng.chance(0.2) { summary_line("\"span.a\":5") } else { summary_line(&entries.join(",")) };
        exercise(&clean, format!("{text}{snapshot}\n").as_bytes(), &path);
    }
    std::fs::remove_file(&path).ok();
}
