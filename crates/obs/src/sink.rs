//! Trace sink: a run-scoped JSONL event stream.
//!
//! One JSON object per line. Every event carries:
//!
//! * `ev`   — event name (`train.epoch`, `kernel.summary`, …)
//! * `t_ms` — milliseconds since the trace was opened (monotonic)
//! * `seq`  — global sequence number (total order across threads)
//!
//! plus event-specific fields. Writers hold a mutex only long enough to
//! append one line; when no trace is open [`emit`]/[`emit_with`] are a
//! single atomic load.
//!
//! Spans write no events: their totals reach a trace inside the
//! `kernel.summary` snapshot (`metrics` = [`crate::snapshot`]), which
//! `muse-eval` appends after each experiment and `muse-serve` before each
//! once-a-second flush that follows new events.

use crate::json::Json;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Trace {
    writer: BufWriter<File>,
    path: PathBuf,
    opened: Instant,
}

static TRACE_OPEN: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RUN_ID: AtomicU64 = AtomicU64::new(0);
/// Total events emitted to traces so far (the global `seq` watermark).
pub fn emitted_events() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

fn trace_slot() -> &'static Mutex<Option<Trace>> {
    static SLOT: OnceLock<Mutex<Option<Trace>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn lock_trace() -> std::sync::MutexGuard<'static, Option<Trace>> {
    trace_slot().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether a JSONL trace is currently open.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_OPEN.load(Ordering::Relaxed)
}

/// Open (or replace) the JSONL trace at `path` and enable telemetry.
/// Parent directories are created as needed.
pub fn open_trace(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref().to_path_buf();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(&path)?;
    let mut slot = lock_trace();
    *slot = Some(Trace { writer: BufWriter::new(file), path, opened: Instant::now() });
    TRACE_OPEN.store(true, Ordering::Relaxed);
    crate::enable();
    Ok(())
}

/// Flush and close the trace (telemetry collection stays enabled until
/// [`crate::disable`]). Returns the path the trace was written to.
pub fn close_trace() -> Option<PathBuf> {
    let mut slot = lock_trace();
    TRACE_OPEN.store(false, Ordering::Relaxed);
    slot.take().map(|mut t| {
        let _ = t.writer.flush();
        t.path
    })
}

/// Flush the open trace's buffered lines to disk without closing it.
/// Long-running daemons call this periodically so a `SIGTERM` (which never
/// runs `close_trace`) loses at most the events since the last flush.
pub fn flush_trace() {
    let mut slot = lock_trace();
    if let Some(trace) = slot.as_mut() {
        let _ = trace.writer.flush();
    }
}

/// Path of the open trace, if any.
pub fn trace_path() -> Option<PathBuf> {
    lock_trace().as_ref().map(|t| t.path.clone())
}

/// Honour the `MUSE_OBS` environment variable: when set to a path, open a
/// JSONL trace there. Returns whether a trace is now open.
pub fn init_from_env() -> bool {
    if trace_enabled() {
        return true;
    }
    match std::env::var("MUSE_OBS") {
        Ok(path) if !path.is_empty() => match open_trace(&path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("muse-obs: cannot open MUSE_OBS trace at {path}: {e}");
                false
            }
        },
        _ => false,
    }
}

/// Next run identifier — tags all events of one logical run (a training
/// fit, an experiment) so traces with concurrent runs stay separable.
pub fn next_run_id() -> u64 {
    RUN_ID.fetch_add(1, Ordering::Relaxed) + 1
}

/// Append one event to the trace. No-op (one atomic load) when no trace is
/// open.
pub fn emit(event: &str, fields: Vec<(&str, Json)>) {
    if !trace_enabled() {
        return;
    }
    write_event(event, fields);
}

/// Like [`emit`], but the field list is only built when a trace is open —
/// use this on hot paths so argument construction is also free when
/// disabled.
#[inline]
pub fn emit_with(event: &str, fields: impl FnOnce() -> Vec<(&'static str, Json)>) {
    if !trace_enabled() {
        return;
    }
    write_event(event, fields());
}

fn write_event(event: &str, fields: Vec<(&str, Json)>) {
    let mut slot = lock_trace();
    let Some(trace) = slot.as_mut() else { return };
    let t_ms = trace.opened.elapsed().as_secs_f64() * 1e3;
    let mut obj: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 3);
    obj.push(("ev".to_string(), Json::Str(event.to_string())));
    obj.push(("t_ms".to_string(), Json::Num((t_ms * 1e3).round() / 1e3)));
    obj.push(("seq".to_string(), Json::Num(SEQ.fetch_add(1, Ordering::Relaxed) as f64)));
    for (k, v) in fields {
        obj.push((k.to_string(), v));
    }
    let line = Json::Obj(obj).render();
    // A failed write must never take training down; drop the line instead.
    let _ = writeln!(trace.writer, "{line}");
}

/// Read a JSONL trace back as parsed events (test/analysis helper).
///
/// A run killed mid-`emit` leaves exactly one casualty: a partially
/// written final line. That line is skipped with a warning so a truncated
/// trace stays analyzable; a malformed line anywhere *else* is genuine
/// corruption and still errors.
pub fn read_trace(path: impl AsRef<Path>) -> io::Result<Vec<Json>> {
    let text = std::fs::read_to_string(&path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut events = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match crate::json::parse(line) {
            Ok(v) => events.push(v),
            Err(e) if i + 1 == lines.len() => {
                eprintln!(
                    "muse-obs: skipping truncated final trace line in {}: {e}",
                    path.as_ref().display()
                );
            }
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_trace_is_noop() {
        let _g = crate::test_lock();
        close_trace();
        emit("test.noop", vec![("x", Json::Num(1.0))]);
        assert!(trace_path().is_none());
    }

    #[test]
    fn trace_roundtrip() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir().join("muse-obs-test");
        let path = dir.join("sink_roundtrip.jsonl");
        open_trace(&path).unwrap();
        emit("test.event", vec![("answer", Json::Num(42.0)), ("name", Json::Str("a\"b".into()))]);
        emit_with("test.lazy", || vec![("ok", Json::Bool(true))]);
        let written = close_trace().unwrap();
        assert_eq!(written, path);
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ev").unwrap().as_str(), Some("test.event"));
        assert_eq!(events[0].get("answer").unwrap().as_f64(), Some(42.0));
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(events[1].get("ok"), Some(&Json::Bool(true)));
        // Monotone sequence numbers.
        let s0 = events[0].get("seq").unwrap().as_f64().unwrap();
        let s1 = events[1].get("seq").unwrap().as_f64().unwrap();
        assert!(s1 > s0);
        crate::disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn read_trace_skips_truncated_final_line() {
        let _g = crate::test_lock();
        let dir = std::env::temp_dir().join("muse-obs-test");
        let path = dir.join("sink_truncated.jsonl");
        open_trace(&path).unwrap();
        emit("test.first", vec![("n", Json::Num(1.0))]);
        emit("test.second", vec![("n", Json::Num(2.0))]);
        emit("test.third", vec![("n", Json::Num(3.0))]);
        close_trace().unwrap();
        crate::disable();
        // Simulate a crash mid-`emit`: cut the file mid-way through the
        // final JSON object.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 9;
        std::fs::write(&path, &text[..cut]).unwrap();
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len(), 2, "intact lines survive, the torn one is dropped");
        assert_eq!(events[1].get("ev").unwrap().as_str(), Some("test.second"));
        // Corruption in the *middle* of a trace is still an error.
        std::fs::write(&path, "{\"ev\":\"ok\"}\n{broken\n{\"ev\":\"ok2\"}\n").unwrap();
        assert!(read_trace(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
