//! `muse-trace` — analyze muse-obs JSONL traces.
//!
//! ```text
//! muse-trace report <trace.jsonl>                   per-run summary
//! muse-trace diff <base.jsonl> <new.jsonl> [tol]    regression diff
//! muse-trace flame <trace.jsonl> [--out <file>]     collapsed stacks
//! muse-trace promcheck <file|->                     validate /metrics output
//! muse-trace quality <trace.jsonl>                  serve-path quality story
//! muse-trace spectrum <trace.jsonl>                 period-drift story
//! muse-trace prof <p.folded> [--out <file>]         folded-profile report
//! muse-trace prof diff <base.folded> <new.folded> [tol]  share diff
//! ```
//!
//! Exit codes: 0 ok, 1 regression/validation failure or unreadable input,
//! 2 usage error.

use muse_trace::{diff, flame, ingest::TraceData, prof, prometheus, quality, report, spectrum, tolerance};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match strs.as_slice() {
        ["report", trace] => cmd_report(trace),
        ["diff", base, current] => cmd_diff(base, current, None),
        ["diff", base, current, tol] => cmd_diff(base, current, Some(tol)),
        ["flame", trace] => cmd_flame(trace, None),
        ["flame", trace, "--out", out] => cmd_flame(trace, Some(out)),
        ["promcheck", input] => cmd_promcheck(input),
        ["quality", trace] => cmd_quality(trace),
        ["spectrum", trace] => cmd_spectrum(trace),
        ["prof", "diff", base, current] => cmd_prof_diff(base, current, None),
        ["prof", "diff", base, current, tol] => cmd_prof_diff(base, current, Some(tol)),
        ["prof", folded] => cmd_prof(folded, None),
        ["prof", folded, "--out", out] => cmd_prof(folded, Some(out)),
        _ => {
            eprintln!(
                "usage: muse-trace report <trace.jsonl>\n       \
                 muse-trace diff <base.jsonl> <new.jsonl> [tolerance]\n       \
                 muse-trace flame <trace.jsonl> [--out <collapsed.txt>]\n       \
                 muse-trace promcheck <metrics.txt|->\n       \
                 muse-trace quality <trace.jsonl>\n       \
                 muse-trace spectrum <trace.jsonl>\n       \
                 muse-trace prof <profile.folded> [--out <flame.txt>]\n       \
                 muse-trace prof diff <base.folded> <new.folded> [tolerance]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("muse-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<TraceData, String> {
    TraceData::load(path).map_err(|e| format!("cannot read trace {path}: {e}"))
}

fn cmd_report(trace: &str) -> Result<(), String> {
    let data = load(trace)?;
    print!("{}", report::render(&data));
    Ok(())
}

fn cmd_diff(base: &str, current: &str, tol_arg: Option<&str>) -> Result<(), String> {
    let baseline = load(base)?;
    let cur = load(current)?;
    let tol = tolerance::resolve(tol_arg).unwrap_or(tolerance::DEFAULT_TOLERANCE);
    let result = diff::diff(&baseline, &cur, tol);
    print!("{}", result.text);
    if result.regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("{} regression(s)", result.regressions.len()))
    }
}

fn cmd_flame(trace: &str, out: Option<&str>) -> Result<(), String> {
    let data = load(trace)?;
    if data.span_exits.is_empty() {
        return Err(format!(
            "trace {trace} has no span.exit events (was it recorded before span tracing, \
             or with telemetry disabled?)"
        ));
    }
    let folded = flame::fold_exits(&data.span_exits);
    let collapsed = muse_obs::span::collapsed(&folded);
    match out {
        Some(path) => {
            std::fs::write(path, &collapsed).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("muse-trace: wrote {} collapsed stacks to {path}", collapsed.lines().count());
        }
        None => print!("{collapsed}"),
    }
    // Always surface the ranking on stderr so `flame --out` in CI logs the
    // hot paths without another invocation.
    eprintln!("top spans by self time:");
    for span in flame::by_self_time(&folded).into_iter().take(5) {
        eprintln!(
            "  {:<44} {:>8}x  self {:>10.3} ms  total {:>10.3} ms",
            span.path,
            span.count,
            span.self_ns as f64 / 1e6,
            span.total_ns as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_quality(trace: &str) -> Result<(), String> {
    let data = load(trace)?;
    print!("{}", quality::render(&data));
    Ok(())
}

fn cmd_spectrum(trace: &str) -> Result<(), String> {
    let data = load(trace)?;
    print!("{}", spectrum::render(&data));
    Ok(())
}

fn load_folded(path: &str) -> Result<prof::FoldedProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read profile {path}: {e}"))?;
    prof::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_prof(folded: &str, out: Option<&str>) -> Result<(), String> {
    let profile = load_folded(folded)?;
    print!("{}", prof::report(&profile, 10));
    if let Some(path) = out {
        let flame_text = prof::flame(&profile);
        std::fs::write(path, &flame_text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("muse-trace: wrote {} flame-ordered stacks to {path}", flame_text.lines().count());
    }
    Ok(())
}

fn cmd_prof_diff(base: &str, current: &str, tol_arg: Option<&str>) -> Result<(), String> {
    let baseline = load_folded(base)?;
    let cur = load_folded(current)?;
    let tol = tolerance::resolve(tol_arg).unwrap_or(tolerance::DEFAULT_TOLERANCE);
    let rows = prof::diff(&baseline, &cur, tol);
    let (text, regressions) = prof::render_diff(&rows, tol);
    print!("{text}");
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("{} profile share drift(s)", regressions.len()))
    }
}

fn cmd_promcheck(input: &str) -> Result<(), String> {
    let text = if input == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?
    };
    let exp = prometheus::parse(&text)?;
    exp.validate()?;
    println!("promcheck: OK ({} samples, {} metric families)", exp.samples.len(), exp.types.len());
    Ok(())
}
