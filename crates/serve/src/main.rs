//! `muse-serve` — boot a forecasting daemon from a checkpoint.
//!
//! ```text
//! muse-serve --checkpoint <path> [options]
//!
//! options:
//!   --checkpoint <p> self-describing checkpoint (muse-eval --save-checkpoint
//!                    or MuseNet::save_with_config)  [required]
//!   --addr <a>       bind address (default 127.0.0.1:9600; port 0 = ephemeral)
//!   --workers <n>    server loops, one connection each at a time (default 4;
//!                    1 serves connections sequentially)
//!   --trace <p>      write a JSONL telemetry trace to <p> (same as MUSE_OBS=<p>)
//!   --journal <n>    pending-forecast journal capacity (default 4096)
//!   --quality-window <n>  rolling error-window depth (default 256)
//!   --spectral-every <n>  run the spectral sweep every n ingests (default 32;
//!                    0 disables the sweep and /spectrum detections)
//! ```
//!
//! Forecasts run on the HTTP worker that receives them, with kernels on the
//! process pool sized by `MUSE_THREADS` (default: every core).
//!
//! Three drift rules always run: `mae_drift`, `flow_level_shift` and
//! `spectral_shift` (see `muse_serve::alerts`).

use muse_obs::{self as obs, Json, ToJson};
use muse_serve::{Engine, EngineOptions, QualityConfig, Server, ServerOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    checkpoint: PathBuf,
    addr: String,
    workers: usize,
    trace: Option<PathBuf>,
    quality: QualityConfig,
    spectral_every: u64,
}

fn usage() -> String {
    "usage: muse-serve --checkpoint path.ckpt [--addr host:port] [--workers n] \
     [--trace path.jsonl] [--journal n] [--quality-window n] [--spectral-every n]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut checkpoint = None;
    let mut addr = "127.0.0.1:9600".to_string();
    let mut workers = 4usize;
    let mut trace = None;
    let mut quality = QualityConfig::default();
    let mut spectral_every = EngineOptions::default().spectral_every;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                let v = value("--workers")?;
                workers = v.parse().map_err(|_| format!("bad workers {v}"))?;
            }
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--journal" => {
                let v = value("--journal")?;
                quality.journal_capacity = v.parse().map_err(|_| format!("bad journal {v}"))?;
            }
            "--quality-window" => {
                let v = value("--quality-window")?;
                quality.window = v.parse().map_err(|_| format!("bad quality-window {v}"))?;
            }
            "--spectral-every" => {
                let v = value("--spectral-every")?;
                spectral_every = v.parse().map_err(|_| format!("bad spectral-every {v}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let checkpoint = checkpoint.ok_or(format!("--checkpoint is required\n{}", usage()))?;
    Ok(Args { checkpoint, addr, workers, trace, quality, spectral_every })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let tracing = match &args.trace {
        Some(path) => match obs::open_trace(path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("cannot open trace {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => obs::init_from_env(),
    };
    // The daemon always exposes /metrics itself; make sure there are
    // numbers behind it even without a trace file.
    obs::enable();
    obs::serve::set_build_info(vec![
        ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
        ("simd_level".to_string(), muse_tensor::simd::level_name().to_string()),
        ("threads".to_string(), muse_parallel::current_threads().to_string()),
        ("crt_static".to_string(), cfg!(target_feature = "crt-static").to_string()),
    ]);

    let engine_opts = EngineOptions { quality: args.quality.clone(), spectral_every: args.spectral_every };
    let engine = match Engine::from_checkpoint(&args.checkpoint, engine_opts) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("muse-serve: {e}");
            std::process::exit(1);
        }
    };
    let info = engine.info().clone();
    let server = match Server::start(
        Arc::clone(&engine),
        ServerOptions { addr: args.addr.clone(), workers: args.workers },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("muse-serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "muse-serve: listening on http://{} ({} variant, {} params, {}×{} grid, window {} frames, \
         max horizon {}, simd {})",
        server.addr(),
        info.variant,
        info.param_count,
        info.grid.height,
        info.grid.width,
        info.window_capacity,
        info.max_horizon,
        // Also forces ISA detection at boot, so the `muse_simd_level` gauge
        // is live on /metrics before the first inference runs.
        muse_tensor::simd::level_name(),
    );
    if tracing {
        obs::emit(
            "serve.manifest",
            vec![
                ("checkpoint", args.checkpoint.display().to_string().to_json()),
                ("addr", server.addr().to_string().to_json()),
                ("variant", info.variant.to_json()),
                ("param_count", info.param_count.to_json()),
                ("window_capacity", info.window_capacity.to_json()),
                ("max_horizon", info.max_horizon.to_json()),
                ("workers", args.workers.to_json()),
                ("threads", muse_parallel::current_threads().to_json()),
                ("crt_static", cfg!(target_feature = "crt-static").to_json()),
                ("simd", Json::Str(muse_tensor::simd::level_name().to_string())),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            ],
        );
    }
    // Serve until the process is killed; the server loops run on their own
    // threads and there is no signal handling without a libc dependency. The
    // trace is flushed every second so an external `kill` (which never runs
    // close_trace) still leaves a usable JSONL file for `muse-trace`. A
    // second that wrote events first appends a `kernel.summary` snapshot:
    // it carries the span totals, so the last one lets `muse-trace flame`
    // fold a killed daemon's trace. An idle daemon writes nothing.
    let mut summarized = obs::emitted_events();
    loop {
        std::thread::sleep(Duration::from_secs(1));
        if tracing {
            let seen = obs::emitted_events();
            if seen != summarized {
                obs::emit("kernel.summary", vec![("metrics", obs::snapshot())]);
                // Counts the snapshot itself; any event that slipped in
                // since `seen` makes the next second snapshot again.
                summarized = seen + 1;
            }
            obs::flush_trace();
        }
    }
}
