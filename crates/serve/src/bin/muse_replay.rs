//! `muse-replay` — stream a seeded simulator run into a live `muse-serve`
//! daemon, optionally injecting a mid-stream level shift, and report what
//! the daemon's quality monitoring made of it.
//!
//! ```text
//! muse-replay --addr host:port [options]
//!
//! options:
//!   --addr <a>            daemon address (host:port)  [required]
//!   --steps <n>           frames streamed after the warmup fill (default 96)
//!   --seed <n>            simulator seed (default 17)
//!   --preset <name>       stream a known-period preset (see
//!                         muse_traffic::PERIODIC_PRESETS) instead of the city
//!                         simulator
//!   --shift-at <n>        inject a persistent level shift at stream frame n;
//!                         with --preset, compress the time base instead (a
//!                         cadence change that moves the dominant period)
//!   --shift-factor <f>    level-shift scale / time-base compression (default 3.0)
//!   --horizon <h>         forecast horizon requested each step (default 1)
//!   --forecast-every <n>  forecast every n-th post-warmup frame (default 1)
//!   --expect-firing <name>  exit nonzero unless this alert reaches firing
//!                           (while polling after --shift-at, or at the end)
//! ```
//!
//! The replay asks `/stats` for the model's grid, frame length, window
//! capacity, and intervals-per-day, then runs a *calm* [`CitySimulator`]
//! (weather and incidents disabled) on that exact geometry so the only
//! distribution change in the stream is the one injected with `--shift-at`.
//! Flows are scaled by the pre-shift maximum into the unit range the model
//! was trained on. After warmup it alternates ingest/forecast, polls
//! `/alerts` once the shift is live, and prints the detection latency (in
//! frames) when the expected alert first reaches `firing`.

use muse_obs::http::fetch;
use muse_obs::json::{self, Json};
use muse_traffic::{periodic_preset, CityConfig, CitySimulator, GridMap, PERIODIC_PRESETS};

struct Args {
    addr: String,
    steps: usize,
    seed: u64,
    preset: Option<String>,
    shift_at: Option<usize>,
    shift_factor: f32,
    horizon: usize,
    forecast_every: usize,
    expect_firing: Option<String>,
}

fn usage() -> String {
    "usage: muse-replay --addr host:port [--steps n] [--seed n] [--preset name] [--shift-at n] \
     [--shift-factor f] [--horizon h] [--forecast-every n] [--expect-firing name]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut addr = None;
    let mut steps = 96usize;
    let mut seed = 17u64;
    let mut preset = None;
    let mut shift_at = None;
    let mut shift_factor = 3.0f32;
    let mut horizon = 1usize;
    let mut forecast_every = 1usize;
    let mut expect_firing = None;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--steps" => steps = parse_num(&value("--steps")?, "--steps")?,
            "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
            "--preset" => preset = Some(value("--preset")?),
            "--shift-at" => shift_at = Some(parse_num(&value("--shift-at")?, "--shift-at")?),
            "--shift-factor" => {
                let v = value("--shift-factor")?;
                shift_factor = v.parse().map_err(|_| format!("bad --shift-factor {v}"))?;
            }
            "--horizon" => horizon = parse_num(&value("--horizon")?, "--horizon")?,
            "--forecast-every" => {
                forecast_every = parse_num::<usize>(&value("--forecast-every")?, "--forecast-every")?.max(1)
            }
            "--expect-firing" => expect_firing = Some(value("--expect-firing")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let addr = addr.ok_or(format!("--addr is required\n{}", usage()))?;
    Ok(Args { addr, steps, seed, preset, shift_at, shift_factor, horizon, forecast_every, expect_firing })
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

/// One request over a fresh connection (the daemon serves one request per
/// connection). Returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: Option<(&str, &[u8])>) -> Result<(u16, String), String> {
    let (status, _, reply) =
        fetch(addr, method, path, body).map_err(|e| format!("{method} {path} on {addr}: {e}"))?;
    Ok((status, reply))
}

fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    http(addr, "GET", path, None)
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let (status, body) = get(addr, path)?;
    if status != 200 {
        return Err(format!("GET {path} -> {status}: {body}"));
    }
    json::parse(&body).map_err(|e| format!("GET {path}: {e}"))
}

fn post_frame(addr: &str, frame: &[f32]) -> Result<(), String> {
    let body: Vec<u8> = frame.iter().flat_map(|v| v.to_le_bytes()).collect();
    let (status, reply) = http(addr, "POST", "/ingest", Some(("application/octet-stream", &body)))?;
    if status != 200 {
        return Err(format!("POST /ingest -> {status}: {reply}"));
    }
    Ok(())
}

fn num_field(json: &Json, path: &[&str]) -> Result<f64, String> {
    let mut cur = json;
    for key in path {
        cur = cur.get(key).ok_or_else(|| format!("missing field '{}'", path.join(".")))?;
    }
    cur.as_f64().ok_or_else(|| format!("field '{}' is not numeric", path.join(".")))
}

fn alert_state(alerts: &Json, name: &str) -> Option<String> {
    alerts.get("alerts")?.as_arr()?.iter().find_map(|rule| {
        if rule.get("name")?.as_str()? == name {
            Some(rule.get("state")?.as_str()?.to_string())
        } else {
            None
        }
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let stats = get_json(&args.addr, "/stats")?;
    let height = num_field(&stats, &["model", "grid", "height"])? as usize;
    let width = num_field(&stats, &["model", "grid", "width"])? as usize;
    let frame_len = num_field(&stats, &["model", "frame_len"])? as usize;
    let capacity = num_field(&stats, &["serving", "window_capacity"])? as usize;
    let intervals_per_day = num_field(&stats, &["model", "max_horizon"])? as usize;
    let total = capacity + args.steps;

    // Frame source: a known-period preset (cadence-change experiments) or a
    // calm, daily-stationary city — no weather, no incidents, and no
    // weekday/weekend structure (a per-slot daily baseline cannot represent
    // weekly periodicity) — so the injected shift is the only distribution
    // change in the stream. A large agent pool keeps day-to-day sampling
    // noise of the frame mean small relative to the alert thresholds.
    let cadence_mode = args.preset.is_some();
    let flows = match &args.preset {
        Some(name) => {
            let preset = periodic_preset(name).ok_or_else(|| {
                let known: Vec<&str> = PERIODIC_PRESETS.iter().map(|p| p.name).collect();
                format!("unknown preset '{name}' (known: {})", known.join(", "))
            })?;
            preset.generate(GridMap::new(height, width), args.seed)
        }
        None => {
            let mut cfg = CityConfig::small(args.seed);
            cfg.grid = GridMap::new(height, width);
            cfg.intervals_per_day = intervals_per_day;
            cfg.days = total.div_ceil(intervals_per_day.max(1)).max(1);
            cfg.agents = 3000;
            cfg.weather_prob = 0.0;
            cfg.incident_prob = 0.0;
            cfg.weekend_commute_prob = cfg.weekday_commute_prob;
            cfg.leisure_weekend = cfg.leisure_weekday;
            cfg.level_shift_interval = args.shift_at;
            cfg.level_shift_factor = args.shift_factor;
            CitySimulator::new(cfg).run().flows
        }
    };

    // Scale by the pre-shift maximum so clean frames land in [0, 1]. A
    // cadence change never alters amplitude, so the whole series is clean.
    let src_len = flows.len();
    let clean_until = if cadence_mode { src_len } else { args.shift_at.unwrap_or(total).min(total) };
    let mut scale = 0.0f32;
    for t in 0..clean_until.min(src_len) {
        for &v in flows.frame(t).as_slice() {
            scale = scale.max(v);
        }
    }
    if scale <= 0.0 {
        scale = 1.0;
    }

    // Stream-position → source-frame mapping. Preset series wrap cleanly
    // (their length is a multiple of every constructed period); in cadence
    // mode the post-shift time base is compressed by --shift-factor, which
    // divides every apparent period by that factor.
    let source = |t: usize| -> usize {
        match args.shift_at {
            Some(at) if cadence_mode && t >= at => {
                (at + ((t - at) as f64 * args.shift_factor as f64) as usize) % src_len
            }
            _ => t % src_len,
        }
    };

    eprintln!(
        "muse-replay: streaming {total} frames ({capacity} warmup + {} live) of {}x{} flows{}",
        args.steps,
        height,
        width,
        match (args.shift_at, cadence_mode) {
            (Some(at), false) => format!(", level shift x{} at frame {at}", args.shift_factor),
            (Some(at), true) => format!(", time base compressed x{} at frame {at}", args.shift_factor),
            (None, _) => String::new(),
        }
    );

    let mut detection: Option<usize> = None;
    for t in 0..total {
        let frame: Vec<f32> = flows.frame(source(t)).as_slice().iter().map(|&v| v / scale).collect();
        assert_eq!(frame.len(), frame_len, "simulator frame does not match the served model");
        post_frame(&args.addr, &frame)?;

        if t + 1 >= capacity && (t + 1 - capacity).is_multiple_of(args.forecast_every) {
            let (status, body) = get(&args.addr, &format!("/forecast?horizon={}", args.horizon))?;
            if status != 200 {
                return Err(format!("GET /forecast -> {status}: {body}"));
            }
        }
        // Once the shift is live, watch for the expected alert to fire.
        if let (Some(name), Some(at)) = (&args.expect_firing, args.shift_at) {
            if detection.is_none() && t >= at {
                let alerts = get_json(&args.addr, "/alerts")?;
                if alert_state(&alerts, name).as_deref() == Some("firing") {
                    detection = Some(t - at + 1);
                    eprintln!("muse-replay: alert '{name}' firing {} frames after the shift", t - at + 1);
                }
            }
        }
    }

    let quality = get_json(&args.addr, "/quality")?;
    println!(
        "replay: scored={} dropped={} mae={:.6} rmse={:.6}",
        num_field(&quality, &["scored"])?,
        num_field(&quality, &["dropped"])?,
        num_field(&quality, &["mae", "ewma"])?,
        num_field(&quality, &["rmse", "ewma"])?,
    );
    let alerts = get_json(&args.addr, "/alerts")?;
    let worst = alerts.get("worst").and_then(Json::as_str).unwrap_or("?").to_string();
    println!("replay: alerts worst={worst}");
    if let Some(rules) = alerts.get("alerts").and_then(Json::as_arr) {
        for rule in rules {
            let name = rule.get("name").and_then(Json::as_str).unwrap_or("?");
            let state = rule.get("state").and_then(Json::as_str).unwrap_or("?");
            println!("replay: alert {name} state={state}");
        }
    }
    if let Some(latency) = detection {
        println!("replay: detection_latency_frames={latency}");
    }

    if let Some(name) = &args.expect_firing {
        // The periodic baseline adapts, and 3x a near-zero night slot is
        // still near zero — so judge detection (the alert reached firing
        // while we polled after the shift), falling back to the final
        // state for shift-less runs.
        let state = alert_state(&alerts, name).unwrap_or_else(|| "missing".to_string());
        if detection.is_none() && state != "firing" {
            eprintln!("muse-replay: alert '{name}' never reached firing (final state '{state}')");
            return Ok(false);
        }
    }
    Ok(true)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("muse-replay: {e}");
            std::process::exit(1);
        }
    }
}
