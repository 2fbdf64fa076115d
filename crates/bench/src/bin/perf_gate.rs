//! Trace-driven performance regression gate.
//!
//! `record` summarises a `MUSE_OBS` trace of the kernels bench into a
//! baseline (`BENCH_kernels.json`); `check` summarises a new trace the same
//! way and judges the pair with [`RULES`], one row per rule: a selector
//! naming `(key, current, baseline)` values, and a bound. A rule that gates
//! no key fails; a baseline value that is missing, not a number or out of
//! range is an error naming the rule and key. Before judging, `check` proves
//! its own teeth: for every rule it breaks that rule's baseline values in a
//! copy of the inputs and refuses to pass unless that rule then fails and no
//! other rule changes verdict.
//!
//! ```text
//! perf_gate record <trace.jsonl> <baseline.json>   write a new baseline
//! perf_gate check  <trace.jsonl> <baseline.json>   fail on regressions
//! ```
//!
//! Exit codes: 0 pass, 1 regression or malformed input, 2 usage error.

use muse_obs::{json, Json};
use muse_tensor::simd;
use muse_trace::ingest::TraceData;
use muse_trace::tolerance::{self, DEFAULT_TOLERANCE};
use std::process::ExitCode;

/// How far the teeth proof moves a baseline value past its bound: no honest
/// run is a thousand times off its own baseline.
const DOCTOR: f64 = 1e3;

/// How a rule judges a current value against its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bound {
    /// Must be equal. A failure stops the gate: nothing after it compares.
    Equal,
    /// One-sided: current may exceed baseline by at most this fraction.
    Ceiling(f64),
    /// Current may fall to baseline / (1 + this) and no lower.
    Floor(f64),
    /// Two-sided, over a denominator clamped at 1 (a zero baseline is usable).
    Drift(f64),
}

/// One rule: `select` names each gated key's current and baseline values
/// as paths into the document `{"trace": <summary>, "baseline": <baseline>}`.
struct Rule {
    name: &'static str,
    select: fn(&Json) -> Vec<Sample>,
    bound: Bound,
}

const RULES: [Rule; 5] = [
    // Timings only compare within one instruction set.
    Rule { name: "simd_level", select: simd_stamp, bound: Bound::Equal },
    // Minima resist noise; kernel nano totals vary with calibrated iteration counts.
    Rule { name: "min_ns", select: bench_min_ns, bound: Bound::Ceiling(DEFAULT_TOLERANCE) },
    // Averaged over every bench touching a kernel, so the shape mix jitters.
    Rule { name: "bytes_per_call", select: kernel_bytes, bound: Bound::Drift(DEFAULT_TOLERANCE) },
    // `<base>_prof<hz>` against `<base>` in one trace: machine speed cancels.
    Rule { name: "prof_overhead", select: prof_overhead, bound: Bound::Ceiling(0.02) },
    // `<base>_jobs<n>` speedup over `<base>` vs a stamp from the gating machine.
    Rule { name: "fleet_speedup", select: fleet_speedup, bound: Bound::Floor(DEFAULT_TOLERANCE) },
];

/// `(key, path of the current value, path of the baseline value)`.
type Sample = (String, Vec<String>, Vec<String>);

/// `(key, "ok" | "FAIL" | "new", detail)`.
type Line = (String, &'static str, String);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [mode, trace, baseline] if mode == "record" => record(trace, baseline),
        [mode, trace, baseline] if mode == "check" => check(trace, baseline),
        _ => {
            eprintln!("usage: perf_gate record|check <trace.jsonl> <baseline.json>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = result {
        eprintln!("perf_gate: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn load_trace(path: &str) -> Result<TraceData, String> {
    let trace = TraceData::load(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    // The ingest layer names a bench without a name `?`.
    if let Some(b) = trace.benches.iter().find(|b| b.name.is_empty() || b.name == "?" || b.min_ns <= 0.0) {
        return Err(format!("malformed bench.result `{}` in {path}: min_ns {}", b.name, b.min_ns));
    }
    if trace.benches.is_empty() {
        return Err(format!("trace {path} contains no bench.result events"));
    }
    Ok(trace)
}

/// The trace in baseline form: what `record` writes and what `check`
/// judges against the committed baseline.
fn summary(trace: &TraceData) -> Json {
    let bench = |name: &str| trace.benches.iter().find(|b| b.name == name);
    let fleet = trace.benches.iter().filter_map(|b| {
        let base = bench(sibling(&b.name, "_jobs")?)?;
        Some((b.name.clone(), Json::obj([("speedup", Json::Num(base.min_ns / b.min_ns))])))
    });
    let benches = trace.benches.iter().map(|b| {
        (b.name.clone(), Json::obj([("min_ns", Json::Num(b.min_ns)), ("mean_ns", Json::Num(b.mean_ns))]))
    });
    let kernels = trace
        .kernels
        .iter()
        .filter(|k| k.calls > 0.0)
        .map(|k| (k.name.clone(), Json::obj([("bytes_per_call", Json::Num(k.bytes_per_call()))])));
    Json::obj([
        ("simd_level", Json::Str(simd::level_name().to_string())),
        ("fleet", Json::Obj(fleet.collect())),
        ("benches", Json::Obj(benches.collect())),
        ("kernels", Json::Obj(kernels.collect())),
    ])
}

fn record(trace: &str, baseline: &str) -> Result<(), String> {
    let trace = load_trace(trace)?;
    std::fs::write(baseline, summary(&trace).render() + "\n")
        .map_err(|e| format!("cannot write baseline {baseline}: {e}"))?;
    println!("perf_gate: recorded {} benches into {baseline}", trace.benches.len());
    Ok(())
}

fn check(trace: &str, baseline: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(baseline).map_err(|e| format!("cannot read baseline {baseline}: {e}"))?;
    let base = json::parse(&text).map_err(|e| format!("baseline {baseline} is not valid JSON: {e:?}"))?;
    println!("perf_gate: {trace} vs {baseline}");
    gate(&RULES, &Json::obj([("trace", summary(&load_trace(trace)?)), ("baseline", base)]))
}

/// Prove every rule's teeth, then judge every rule, one printed line per key.
fn gate(rules: &[Rule], doc: &Json) -> Result<(), String> {
    let verdicts = evaluate(rules, doc)?;
    let mut failures = teeth(rules, doc, &verdicts)?;
    for (rule, lines) in rules.iter().zip(&verdicts) {
        for (key, status, detail) in lines {
            println!("  {status:<4} {:<14} {key:<40} {detail}", rule.name);
            if *status == "FAIL" {
                failures.push(format!("{} `{key}`: {detail}", rule.name));
            }
        }
        if rule.bound == Bound::Equal && fails(lines) {
            break;
        }
    }
    if failures.is_empty() {
        println!("perf_gate: PASS; each of the {} rules fails alone on doctored inputs", rules.len());
        Ok(())
    } else {
        Err(format!("{} failure(s):\n  {}", failures.len(), failures.join("\n  ")))
    }
}

/// Judge every key of every rule. A value missing from the trace fails, a
/// key the baseline lacks is new, and a rule that gates no key fails.
fn evaluate(rules: &[Rule], doc: &Json) -> Result<Vec<Vec<Line>>, String> {
    let mut verdicts = Vec::new();
    for rule in rules {
        let mut lines = Vec::new();
        for (key, current, baseline) in (rule.select)(doc) {
            let unusable = |value: &str| format!("rule `{}`: baseline for `{key}` is {value}", rule.name);
            let (status, detail) = match (find(doc, &current), find(doc, &baseline)) {
                (Some(c), Some(b)) => match judge(rule.bound, c, b) {
                    Some((fail, detail)) => (if fail { "FAIL" } else { "ok" }, detail),
                    None => return Err(unusable(&b.render())),
                },
                (None, _) => ("FAIL", "missing from the trace".to_string()),
                (_, None) if baseline[0] == "trace" => ("FAIL", "sibling missing from the trace".to_string()),
                (_, None) if find(doc, &baseline[..baseline.len() - 1]).is_some() => {
                    return Err(unusable("missing"));
                }
                (_, None) => ("new", "not in the baseline; re-record to gate it".to_string()),
            };
            lines.push((key, status, detail));
        }
        if lines.iter().all(|(_, status, _)| *status == "new") {
            lines.push(("*".to_string(), "FAIL", "gates no key".to_string()));
        }
        verdicts.push(lines);
    }
    Ok(verdicts)
}

/// `(fails, detail)` for `current` against `baseline`; `None` when the
/// baseline value is unusable.
fn judge(bound: Bound, current: &Json, baseline: &Json) -> Option<(bool, String)> {
    if bound == Bound::Equal {
        let (c, b) = (current.as_str()?, baseline.as_str()?);
        let why = if c == b { "" } else { ": timings do not compare across instruction sets; re-record" };
        return Some((c != b, format!("current `{c}` baseline `{b}`{why}")));
    }
    // A ratio needs a positive baseline; the clamped drift also takes zero.
    let zero_ok = matches!(bound, Bound::Drift(_));
    let b = baseline.as_f64().filter(|b| b.is_finite() && (*b > 0.0 || zero_ok && *b == 0.0))?;
    let c = current.as_f64()?;
    let show = |v: f64| if v.abs() >= 100.0 { format!("{v:.0}") } else { format!("{v:.3}") };
    let (fail, limit) = match bound {
        Bound::Ceiling(t) => {
            (tolerance::exceeds(b, c, t), format!("{:+.1}%, max +{:.0}%", 100.0 * (c / b - 1.0), 100.0 * t))
        }
        Bound::Floor(t) => (c < b / (1.0 + t), format!("floor {}", show(b / (1.0 + t)))),
        Bound::Drift(t) => (
            tolerance::drifted(b, c, t),
            format!("drift {:.0}%, max {:.0}%", 100.0 * tolerance::drift(b, c), 100.0 * t),
        ),
        Bound::Equal => unreachable!("judged above"),
    };
    Some((fail, format!("current {} baseline {} ({limit})", show(c), show(b))))
}

fn fails(lines: &[Line]) -> bool {
    lines.iter().any(|(_, status, _)| *status == "FAIL")
}

/// For each rule, judge a copy of `doc` whose baseline values for that rule
/// break its bound; complain unless that rule fails and no other changes.
fn teeth(rules: &[Rule], doc: &Json, honest: &[Vec<Line>]) -> Result<Vec<String>, String> {
    let mut complaints = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let mut doctored = doc.clone();
        for (_, current, baseline) in (rule.select)(doc) {
            let (Some(current), Some(_)) = (find(doc, &current), find(doc, &baseline)) else { continue };
            let c = current.as_f64().unwrap_or(0.0);
            let broken = match rule.bound {
                Bound::Equal => Json::Str(format!("not {}", current.as_str().unwrap_or_default())),
                Bound::Ceiling(_) => Json::Num(c / DOCTOR),
                Bound::Floor(_) => Json::Num(c * DOCTOR),
                Bound::Drift(_) => Json::Num((c + 1.0) * DOCTOR),
            };
            *find_mut(&mut doctored, &baseline).expect("found above") = broken;
        }
        let verdicts = evaluate(rules, &doctored)?;
        if !fails(&verdicts[i]) {
            complaints.push(format!("rule `{}` has no teeth: it passes doctored inputs", rule.name));
        }
        for (j, other) in rules.iter().enumerate().filter(|(j, _)| *j != i) {
            if fails(&verdicts[j]) != fails(&honest[j]) {
                complaints.push(format!("doctoring rule `{}` changed rule `{}`", rule.name, other.name));
            }
        }
    }
    Ok(complaints)
}

fn simd_stamp(_: &Json) -> Vec<Sample> {
    let at = |side| path([side, "simd_level"]);
    vec![("simd_level".to_string(), at("trace"), at("baseline"))]
}

fn bench_min_ns(doc: &Json) -> Vec<Sample> {
    keyed(doc, "benches", "min_ns", Vec::new())
}

fn kernel_bytes(doc: &Json) -> Vec<Sample> {
    keyed(doc, "kernels", "bytes_per_call", Vec::new())
}

fn fleet_speedup(doc: &Json) -> Vec<Sample> {
    // The summary has no speedup for a fleet bench without its sibling.
    let fleets = names(doc, &["trace", "benches"]).into_iter().filter(|n| sibling(n, "_jobs").is_some());
    keyed(doc, "fleet", "speedup", fleets.collect())
}

fn prof_overhead(doc: &Json) -> Vec<Sample> {
    let min_ns = |name: &str| path(["trace", "benches", name, "min_ns"]);
    let benches = names(doc, &["trace", "benches"]);
    let profiled = benches.iter().filter_map(|key| Some((key, sibling(key, "_prof")?)));
    profiled.map(|(key, base)| (key.clone(), min_ns(key), min_ns(base))).collect()
}

/// `field` of every `section` entry in the baseline, the trace or `extra`.
fn keyed(doc: &Json, section: &str, field: &str, extra: Vec<String>) -> Vec<Sample> {
    let mut keys = names(doc, &["baseline", section]);
    for key in names(doc, &["trace", section]).into_iter().chain(extra) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let at = |side, key: &str| path([side, section, key, field]);
    keys.into_iter().map(|key| (key.clone(), at("trace", &key), at("baseline", &key))).collect()
}

fn path<const N: usize>(keys: [&str; N]) -> Vec<String> {
    keys.map(String::from).to_vec()
}

fn find<'a, S: AsRef<str>>(doc: &'a Json, path: &[S]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |node, key| node.get(key.as_ref()))
}

fn find_mut<'a>(doc: &'a mut Json, path: &[String]) -> Option<&'a mut Json> {
    path.iter().try_fold(doc, |node, key| match node {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

fn names(doc: &Json, path: &[&str]) -> Vec<String> {
    match find(doc, path) {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// `train_step_prof97` with suffix `_prof` → `train_step`; `None` unless
/// the name ends in `<suffix><digits>` after a non-empty base.
fn sibling<'a>(name: &'a str, suffix: &str) -> Option<&'a str> {
    let (base, n) = name.rsplit_once(suffix)?;
    (!base.is_empty() && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())).then_some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_trace::ingest::{BenchResult, KernelRow};

    fn bench(name: &str, min_ns: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            min_ns,
            mean_ns: min_ns * 1.1,
            max_ns: min_ns * 1.5,
            samples: 10,
        }
    }

    /// A trace that gives every rule at least one key, with `scale` applied
    /// to every timing (fleet and prof ratios are unchanged by it).
    fn trace(scale: f64) -> TraceData {
        let benches = [("matmul", 1000.0), ("step", 5000.0), ("step_prof97", 5050.0), ("fleet", 8000.0)];
        let mut benches: Vec<_> = benches.iter().map(|&(n, ns)| bench(n, ns * scale)).collect();
        benches.push(bench("fleet_jobs4", 4000.0 * scale));
        let kernels = vec![
            KernelRow { name: "tensor.matmul".to_string(), calls: 10.0, nanos: 1e4, bytes: 2e4 },
            KernelRow { name: "tensor.idle".to_string(), calls: 0.0, nanos: 0.0, bytes: 0.0 },
        ];
        TraceData { benches, kernels, ..TraceData::default() }
    }

    /// The gate document for `trace` against the honest baseline, its
    /// rendered text rewritten by `edits`.
    fn doc(trace: &TraceData, edits: &[(&str, &str)]) -> Json {
        let mut text = summary(&self::trace(1.0)).render();
        for (from, to) in edits {
            assert!(text.contains(from), "{from} not in {text}");
            text = text.replace(from, to);
        }
        Json::obj([("trace", summary(trace)), ("baseline", json::parse(&text).unwrap())])
    }

    /// `rule/key` for every failing key.
    fn failing(doc: &Json) -> Vec<String> {
        let verdicts = evaluate(&RULES, doc).unwrap();
        let lines = RULES.iter().zip(verdicts).flat_map(|(r, ls)| ls.into_iter().map(move |l| (r.name, l)));
        lines
            .filter(|(_, (_, status, _))| *status == "FAIL")
            .map(|(r, (key, _, _))| format!("{r}/{key}"))
            .collect()
    }

    #[test]
    fn honest_pair_passes_and_every_rule_gates_a_key() {
        let doc = doc(&trace(1.0), &[]);
        gate(&RULES, &doc).unwrap();
        for (rule, lines) in RULES.iter().zip(evaluate(&RULES, &doc).unwrap()) {
            assert!(lines.iter().any(|(_, status, _)| *status == "ok"), "{} gates nothing", rule.name);
        }
    }

    #[test]
    fn each_rules_doctored_inputs_fail_that_rule_only() {
        let doc = doc(&trace(1.0), &[]);
        let honest = evaluate(&RULES, &doc).unwrap();
        assert!(teeth(&RULES, &doc, &honest).unwrap().is_empty());
        // The same proof holds when the honest run already fails a rule.
        let slow = self::doc(&trace(2.0), &[]);
        let keys = ["matmul", "step", "step_prof97", "fleet", "fleet_jobs4"];
        assert_eq!(failing(&slow), keys.map(|key| format!("min_ns/{key}")));
        assert!(teeth(&RULES, &slow, &evaluate(&RULES, &slow).unwrap()).unwrap().is_empty());
    }

    fn stamp_always_matches(doc: &Json) -> Vec<Sample> {
        simd_stamp(doc).into_iter().map(|(key, current, _)| (key, current.clone(), current)).collect()
    }

    #[test]
    fn a_rule_whose_comparison_always_passes_makes_check_refuse() {
        let doc = doc(&trace(1.0), &[]);
        for i in 0..RULES.len() {
            let mut rules = RULES;
            rules[i] = match rules[i].bound {
                Bound::Equal => Rule { select: stamp_always_matches, ..rules[i] },
                Bound::Ceiling(_) => Rule { bound: Bound::Ceiling(f64::INFINITY), ..rules[i] },
                Bound::Floor(_) => Rule { bound: Bound::Floor(f64::INFINITY), ..rules[i] },
                Bound::Drift(_) => Rule { bound: Bound::Drift(f64::INFINITY), ..rules[i] },
            };
            let err = gate(&rules, &doc).unwrap_err();
            assert!(err.contains(&format!("rule `{}` has no teeth", RULES[i].name)), "{err}");
        }
    }

    #[test]
    fn a_table_whose_doctor_leaks_into_another_rule_is_refused() {
        // A prof rule reading the baseline's `step` min_ns shares an input
        // with the min_ns rule, so doctoring it trips min_ns as well.
        fn leaky(_: &Json) -> Vec<Sample> {
            let at = |side| path([side, "benches", "step", "min_ns"]);
            vec![("step".to_string(), at("trace"), at("baseline"))]
        }
        let mut rules = RULES;
        rules[3] = Rule { select: leaky, ..rules[3] };
        let err = gate(&rules, &doc(&trace(1.0), &[])).unwrap_err();
        assert!(err.contains("doctoring rule `prof_overhead` changed rule `min_ns`"), "{err}");
    }

    #[test]
    fn regressions_fail_their_rule() {
        let mut t = trace(1.0);
        t.benches[0].min_ns = 1760.0; // +76% over a +75% ceiling
        t.benches[2].min_ns = 5110.0; // +2.2% over its sibling
        t.benches[3].min_ns = 4500.0; // 4500/4000 = 1.125x, floor 2/1.75 = 1.143x
        t.kernels[0].bytes = 3.6e4; // 3600 vs 2000 bytes per call: 80% drift
        let want = [
            "min_ns/matmul",
            "bytes_per_call/tensor.matmul",
            "prof_overhead/step_prof97",
            "fleet_speedup/fleet_jobs4",
        ];
        assert_eq!(failing(&doc(&t, &[])), want);

        let mut t = trace(1.0);
        t.benches[0].min_ns = 1740.0;
        t.benches[2].min_ns = 5090.0;
        t.benches[3].min_ns = 4600.0;
        t.kernels[0].bytes = 3.4e4;
        gate(&RULES, &doc(&t, &[])).unwrap();
    }

    #[test]
    fn missing_and_new_keys() {
        let mut t = trace(1.0);
        t.benches.retain(|b| b.name != "matmul" && b.name != "step" && b.name != "fleet");
        t.benches.push(bench("fft", 10.0));
        let want = [
            "min_ns/matmul",
            "min_ns/step",
            "min_ns/fleet",
            "prof_overhead/step_prof97",
            "fleet_speedup/fleet_jobs4",
        ];
        assert_eq!(failing(&doc(&t, &[])), want);
        let lines = evaluate(&RULES, &doc(&t, &[])).unwrap();
        assert!(lines[1].iter().any(|(key, status, _)| key == "fft" && *status == "new"));
    }

    #[test]
    fn a_rule_that_gates_no_key_fails() {
        let no_fleet = doc(&trace(1.0), &[(r#""fleet_jobs4":{"speedup":2}"#, "")]);
        assert_eq!(failing(&no_fleet), ["fleet_speedup/*"]);
        let mut t = trace(1.0);
        t.benches.retain(|b| b.name != "step_prof97");
        assert_eq!(
            failing(&doc(&t, &[(r#""step_prof97":{"min_ns":5050,"mean_ns":5555},"#, "")])),
            ["prof_overhead/*"]
        );
    }

    #[test]
    fn a_simd_mismatch_stops_the_gate() {
        let level = simd::level_name();
        let other = doc(&trace(3.0), &[(&format!(r#""simd_level":"{level}""#), r#""simd_level":"other""#)]);
        let err = gate(&RULES, &other).unwrap_err();
        assert!(err.starts_with("1 failure(s):\n  simd_level `simd_level`"), "{err}");
        assert!(err.contains("timings do not compare across instruction sets"), "{err}");
    }

    #[test]
    fn malformed_baseline_values_are_errors_naming_rule_and_key() {
        let level = simd::level_name();
        let stamp = format!(r#""simd_level":"{level}""#);
        let cases: [(&str, &str, &str); 9] = [
            (r#""min_ns":1000,"#, r#""min_nss":1000,"#, "rule `min_ns`: baseline for `matmul` is missing"),
            (r#""min_ns":1000,"#, r#""min_ns":"1000","#, r#"rule `min_ns`: baseline for `matmul` is "1000""#),
            (r#""min_ns":1000,"#, r#""min_ns":0,"#, "rule `min_ns`: baseline for `matmul` is 0"),
            (r#""min_ns":1000,"#, r#""min_ns":-5,"#, "rule `min_ns`: baseline for `matmul` is -5"),
            (r#""min_ns":1000,"#, r#""min_ns":1e999,"#, "rule `min_ns`: baseline for `matmul` is null"),
            (
                r#""speedup":2"#,
                r#""speedup":"2""#,
                r#"rule `fleet_speedup`: baseline for `fleet_jobs4` is "2""#,
            ),
            (r#""speedup":2"#, r#""speedup":0"#, "rule `fleet_speedup`: baseline for `fleet_jobs4` is 0"),
            (
                r#""bytes_per_call":2000"#,
                r#""bytes_per_call":-1"#,
                "rule `bytes_per_call`: baseline for `tensor.matmul` is -1",
            ),
            (&stamp, r#""simd_level":3"#, "rule `simd_level`: baseline for `simd_level` is 3"),
        ];
        for (from, to, want) in cases {
            // A 100x slower trace would still pass if the value were read as 0.
            let err = gate(&RULES, &doc(&trace(100.0), &[(from, to)])).unwrap_err();
            assert_eq!(err, want);
        }
        let no_stamp = doc(&trace(1.0), &[(&format!("{stamp},"), "")]);
        assert_eq!(
            gate(&RULES, &no_stamp).unwrap_err(),
            "rule `simd_level`: baseline for `simd_level` is missing"
        );
        // A kernel that moves no bytes is a usable drift baseline.
        let zero = doc(&trace(1.0), &[(r#""bytes_per_call":2000"#, r#""bytes_per_call":0"#)]);
        assert_eq!(failing(&zero), ["bytes_per_call/tensor.matmul"]);
    }

    #[test]
    fn summary_is_the_baseline_format_without_a_tolerance() {
        let s = summary(&trace(1.0));
        let keys: Vec<_> = match &s {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("summary is an object"),
        };
        assert_eq!(keys, ["simd_level", "fleet", "benches", "kernels"]);
        assert_eq!(
            s.render().split(r#""kernels":"#).nth(1),
            Some(r#"{"tensor.matmul":{"bytes_per_call":2000}}}"#)
        );
        assert_eq!(find(&s, &["fleet", "fleet_jobs4", "speedup"]), Some(&Json::Num(2.0)));
    }

    #[test]
    fn load_trace_checks_its_input() {
        let dir = std::env::temp_dir().join(format!("perf_gate_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            (r#"{"ev":"bench.result","name":"a","min_ns":5}"#, None),
            (r#"{"ev":"bench.result","min_ns":5}"#, Some("malformed bench.result `?`")),
            (r#"{"ev":"bench.result","name":"","min_ns":5}"#, Some("malformed bench.result ``")),
            (r#"{"ev":"bench.result","name":"a","min_ns":0}"#, Some("malformed bench.result `a`")),
            (r#"{"ev":"kernel.summary","metrics":{}}"#, Some("contains no bench.result events")),
        ];
        for (i, (line, want)) in cases.into_iter().enumerate() {
            let path = dir.join(format!("{i}.jsonl"));
            std::fs::write(&path, format!("{line}\n")).unwrap();
            match (load_trace(path.to_str().unwrap()), want) {
                (Ok(_), None) => {}
                (Err(e), Some(want)) => assert!(e.contains(want), "{e}"),
                (got, want) => panic!("{line}: got {:?}, want {want:?}", got.err()),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
