//! `muse-trace` — analyze muse-obs JSONL traces.
//!
//! ```text
//! muse-trace report <trace.jsonl>                   per-run summary
//! muse-trace diff <base.jsonl> <new.jsonl> [tol]    regression diff
//! muse-trace flame <trace.jsonl> [--out <file>]     collapsed stacks
//! muse-trace promcheck <file|->                     validate /metrics output
//! muse-trace quality <trace.jsonl>                  serve-path quality story
//! muse-trace spectrum <trace.jsonl>                 period-drift story
//! ```
//!
//! Exit codes: 0 ok, 1 regression/validation failure or unreadable input,
//! 2 usage error.

use muse_trace::{diff, ingest::TraceData, prometheus, quality, report, spectrum, tolerance};
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
        _ => {
            eprintln!(
                "usage: muse-trace report <trace.jsonl>\n       \
                 muse-trace diff <base.jsonl> <new.jsonl> [tolerance]\n       \
                 muse-trace flame <trace.jsonl> [--out <collapsed.txt>]\n       \
                 muse-trace promcheck <metrics.txt|->\n       \
                 muse-trace quality <trace.jsonl>\n       \
                 muse-trace spectrum <trace.jsonl>"
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
    if data.spans.is_empty() {
        return Err(format!(
            "trace {trace} has no span totals: its last kernel.summary holds no closed span.* \
             histogram, or it has no kernel.summary (telemetry disabled, or killed before the \
             first snapshot?)"
        ));
    }
    let collapsed = muse_obs::span::collapsed(&data.spans);
    match out {
        Some(path) => {
            std::fs::write(path, &collapsed).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("muse-trace: wrote {} collapsed stacks to {path}", collapsed.lines().count());
        }
        None => print!("{collapsed}"),
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
