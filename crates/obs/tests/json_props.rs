//! Property test: `json::parse(v.render()) == v` for randomly generated
//! JSON trees, driven by the workspace's own deterministic `SeededRng`.
//!
//! The generator leans into the encoder's hard cases: escape-heavy and
//! control-character strings, multi-byte unicode, negative zero-adjacent
//! and ±2^53 boundary numbers, deep nesting, and empty containers.

use muse_obs::{json, Json};
use muse_tensor::init::SeededRng;

/// Characters the escaper must handle: quotes, backslashes, every class of
/// control character, and multi-byte unicode (2-, 3-, and 4-byte UTF-8).
const SPICY_CHARS: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', ' ', 'a', 'Z', '0', '{',
    '}', '[', ']', ',', ':', 'é', 'ß', '中', '文', '🚦', '𝕁', '\u{7f}', '\u{80}', '\u{2028}', '\u{fffd}',
];

fn gen_string(rng: &mut SeededRng) -> String {
    let len = rng.index(12);
    (0..len).map(|_| SPICY_CHARS[rng.index(SPICY_CHARS.len())]).collect()
}

/// Numbers that stress shortest-roundtrip rendering. All finite — the
/// encoder maps non-finite values to null by design, which cannot round-trip.
fn gen_number(rng: &mut SeededRng) -> f64 {
    match rng.index(8) {
        0 => 0.0,
        1 => -0.0,
        2 => (rng.next_u64() % (1 << 53)) as f64, // exact integers up to 2^53
        3 => -((rng.next_u64() % (1 << 53)) as f64), // ... and large-negative
        4 => 9007199254740991.0,                  // 2^53 - 1
        5 => -9007199254740991.0,
        6 => rng.uniform(-1.0, 1.0) as f64 * 1e-7, // tiny fractions
        7 => f64::from_bits(rng.next_u64() & !(0x7ff << 52)), // random finite (exponent cleared)
        _ => unreachable!(),
    }
}

fn gen_value(rng: &mut SeededRng, depth: usize) -> Json {
    // At depth 0 only generate leaves so trees terminate.
    let pick = if depth == 0 { rng.index(4) } else { rng.index(6) };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr((0..rng.index(4)).map(|_| gen_value(rng, depth - 1)).collect()),
        5 => Json::Obj(
            (0..rng.index(4))
                .map(|i| (format!("{}{}", gen_string(rng), i), gen_value(rng, depth - 1)))
                .collect(),
        ),
        _ => unreachable!(),
    }
}

#[test]
fn parse_render_round_trips_random_trees() {
    let mut rng = SeededRng::new(0x4d55_5345); // "MUSE"
    for case in 0..200 {
        let value = gen_value(&mut rng, 4);
        let text = value.render();
        let back = json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e:?}\nrendered: {text}"));
        assert_eq!(back, value, "case {case}: round trip diverged\nrendered: {text}");
        // Rendering is deterministic: render(parse(render(v))) == render(v).
        assert_eq!(back.render(), text, "case {case}: second render differs");
    }
}

#[test]
fn escape_heavy_strings_round_trip() {
    // Every spicy char alone, and the full set concatenated.
    for &c in SPICY_CHARS {
        let v = Json::Str(c.to_string());
        assert_eq!(json::parse(&v.render()).unwrap(), v, "char {:?}", c);
    }
    let all: String = SPICY_CHARS.iter().collect();
    let v = Json::obj([("k\"ey\\\n", Json::Str(all))]);
    assert_eq!(json::parse(&v.render()).unwrap(), v);
}

#[test]
fn boundary_numbers_round_trip_exactly() {
    for n in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        9007199254740991.0, // 2^53 - 1: largest exactly-representable integer run
        -9007199254740991.0,
        9007199254740992.0, // 2^53 itself is still exact
        1e308,
        -1e308,
        5e-324, // smallest subnormal
        1.5,
        -123456.789,
    ] {
        let v = Json::Num(n);
        let text = v.render();
        let back = json::parse(&text).unwrap();
        match back {
            Json::Num(m) => {
                assert_eq!(m.to_bits(), n.to_bits(), "{n} rendered as {text} parsed to {m}")
            }
            other => panic!("{n} parsed to {other:?}"),
        }
    }
}

/// Containers on the deepest path of `v`.
fn nesting(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The number formatting `render` used when every number went through its
/// own `format!` string: the reference the in-place writer must match.
fn formatted_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == 0.0 && n.is_sign_negative() {
        "-0".to_string()
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[test]
fn numbers_render_as_format_did() {
    let mut rng = SeededRng::new(0x4e55_4d53); // "NUMS"
    let mut cases = vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        9.0e15,
        -9.0e15,
        9.0e15 - 1.0,
        -(9.0e15 - 1.0),
        9.0e15 + 2.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f32::MIN_POSITIVE as f64 / 7.0,
    ];
    for _ in 0..20_000 {
        cases.push(match rng.index(4) {
            0 => f64::from_bits(rng.next_u64()), // any bit pattern, NaN and subnormals included
            1 => rng.normal() as f64,            // the served predictions are widened f32s
            2 => (rng.next_u64() % 20_000_000_000_000_000) as f64 - 1.0e16, // either side of 9e15
            3 => f32::from_bits(rng.next_u64() as u32) as f64,
            _ => unreachable!(),
        });
    }
    for n in cases {
        let want = formatted_number(n);
        assert_eq!(Json::Num(n).render(), want, "{n:e} ({:#x})", n.to_bits());
        // In a container the writer appends to the text already there.
        assert_eq!(Json::Arr(vec![Json::Num(n), Json::Num(n)]).render(), format!("[{want},{want}]"));
    }
}

#[test]
fn mutated_documents_error_instead_of_panicking() {
    let mut rng = SeededRng::new(0x4a53_4f4e); // "JSON"
    for case in 0..300 {
        let value = gen_value(&mut rng, 4);
        let text = value.render();
        let bytes = text.as_bytes();

        // Truncation anywhere.
        let cut = rng.index(bytes.len() + 1);
        let _ = json::parse(&String::from_utf8_lossy(&bytes[..cut]));

        // A few bit flips.
        let mut flipped = bytes.to_vec();
        for _ in 0..1 + rng.index(4) {
            let i = rng.index(flipped.len());
            flipped[i] ^= 1 << rng.index(8);
        }
        let _ = json::parse(&String::from_utf8_lossy(&flipped));

        // Deep nesting: wrap the document in arrays and objects, up to twice
        // the bound. It parses exactly when the total depth is within it.
        let wraps = rng.index(2 * json::MAX_DEPTH);
        let (mut open, mut close) = (String::new(), String::new());
        for _ in 0..wraps {
            if rng.chance(0.5) {
                open.push('[');
                close.push(']');
            } else {
                open.push_str("{\"k\":");
                close.push('}');
            }
        }
        let deep = format!("{open}{text}{}", close.chars().rev().collect::<String>());
        let within = wraps + nesting(&value) <= json::MAX_DEPTH;
        assert_eq!(json::parse(&deep).is_ok(), within, "case {case}: {wraps} wraps around {text}");
    }
}
