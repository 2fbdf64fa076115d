//! End-to-end: train a tiny MUSE-Net, save a self-describing checkpoint,
//! boot the daemon on an ephemeral port, ingest frames over HTTP, and
//! verify `/forecast` is bit-identical to the in-process forward pass —
//! byte for byte against the engine under every kernel thread count, and
//! under concurrent clients. Also: a hostile ingest body is a 400, not a
//! dead daemon.

use muse_obs as obs;
use muse_obs::http::fetch;
use muse_serve::{Engine, EngineOptions, ForecastResponse, Server, ServerOptions};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::{FlowSeries, GridMap, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig, Trainer, TrainerOptions};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn synthetic_series(grid: GridMap, spec: &SubSeriesSpec, t: usize) -> FlowSeries {
    let frame_len = 2 * grid.cells();
    let mut data = Vec::with_capacity(t * frame_len);
    for i in 0..t {
        // Periodic + per-cell structure so the model has something to fit.
        let phase = (i % spec.intervals_per_day) as f32 / spec.intervals_per_day as f32;
        for c in 0..frame_len {
            data.push(0.5 + 0.3 * (phase * std::f32::consts::TAU + c as f32 * 0.37).sin());
        }
    }
    FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, grid.height, grid.width]))
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let (_, head, body) = fetch(addr, "GET", path, None).unwrap();
    (head, body)
}

/// `body` with its `"request_id"` value replaced by `0`.
fn zero_request_id(body: &str) -> String {
    let key = "\"request_id\":";
    let start = body.find(key).expect("a request id") + key.len();
    let end = start + body[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}0{}", &body[..start], &body[end..])
}

fn post_raw_frame(addr: SocketAddr, frame: &[f32]) -> (String, String) {
    let body: Vec<u8> = frame.iter().flat_map(|v| v.to_le_bytes()).collect();
    let (_, head, body) = fetch(addr, "POST", "/ingest", Some(("application/octet-stream", &body))).unwrap();
    (head, body)
}

#[test]
fn daemon_forecast_is_bit_identical_to_in_process_model() {
    let grid = GridMap::new(3, 4);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 3, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    cfg.seed = 19;
    let t = spec.min_target() + 16;
    let flows = synthetic_series(grid, &spec, t);

    // Train for a handful of steps — enough to move the weights off init.
    let train: Vec<usize> = (spec.min_target()..t - 6).collect();
    let val: Vec<usize> = (t - 6..t - 3).collect();
    let mut trainer = Trainer::new(
        MuseNet::new(cfg),
        TrainerOptions { epochs: 2, max_batches_per_epoch: 4, learning_rate: 3e-3, ..Default::default() },
    );
    let report = trainer.fit(&flows, &spec, &train, &val);
    assert!(report.last_loss().is_finite());

    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("muse-serve-e2e-{}.ckpt", std::process::id()));
    trainer.model().save_with_config(&ckpt).unwrap();

    // In-process reference: reload the checkpoint exactly as the daemon
    // will, then roll out from the end of the series.
    let horizons = 2;
    let reference_model = MuseNet::from_checkpoint(&ckpt).unwrap();
    let expected = reference_model.predict_multi_step(&flows, &spec, &[t], horizons);
    let expected_bits: Vec<Vec<u32>> =
        expected.iter().map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect()).collect();

    let frame_len = 2 * grid.cells();
    let src = flows.tensor().as_slice();
    let frame = |i: usize| src[i * frame_len..(i + 1) * frame_len].to_vec();
    let engine = Engine::from_checkpoint(&ckpt, EngineOptions::default()).unwrap();
    let server = Server::start(Arc::new(engine), ServerOptions::default()).unwrap();
    let addr = server.addr();

    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(body.contains("\"ready\":false"));

    // Ingest the whole series; the ring keeps the last min_target frames.
    for i in 0..t {
        let (head, _) = post_raw_frame(addr, &frame(i));
        assert!(head.starts_with("HTTP/1.1 200 "), "frame {i}: {head}");
    }

    let mut bodies = Vec::new();
    for h in 1..=horizons {
        let (head, body) = get(addr, &format!("/forecast?horizon={h}"));
        assert!(head.starts_with("HTTP/1.1 200 "), "{head} {body}");
        let resp = ForecastResponse::from_json(&obs::json::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.horizon, h);
        assert_eq!(resp.target_index, (t + h - 1) as u64);
        assert_eq!(resp.shape, [2, grid.height, grid.width]);
        let got: Vec<u32> = resp.prediction.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected_bits[h - 1], "daemon diverged from in-process rollout at horizon {h}");
        assert!(resp.latent_norms.closeness.is_finite());
        assert!(resp.latent_norms.interactive.is_finite());
        bodies.push(zero_request_id(&body));
    }

    // The daemon's workers run the model on the process pool; the same
    // forecasts on the caller under every pool size match the wire bytes.
    for threads in [1usize, 2, 4] {
        let engine = Engine::from_checkpoint(&ckpt, EngineOptions::default()).unwrap();
        for i in 0..t {
            engine.ingest(frame(i)).unwrap();
        }
        for h in 1..=horizons {
            let mut resp = muse_parallel::with_threads(threads, || engine.forecast(h)).unwrap();
            // Request IDs are unique per request by design; normalize them
            // before comparing the rest of the payload byte for byte.
            resp.request_id = 0;
            assert_eq!(resp.render(), bodies[h - 1], "{threads} threads, horizon {h}: bytes diverged");
        }
    }
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn deeply_nested_json_ingest_is_a_400_and_the_daemon_survives() {
    let grid = GridMap::new(3, 4);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 3, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("muse-serve-e2e-nested-{}.ckpt", std::process::id()));
    MuseNet::new(cfg).save_with_config(&ckpt).unwrap();
    let engine = Arc::new(Engine::from_checkpoint(&ckpt, EngineOptions::default()).unwrap());
    let server = Server::start(engine, ServerOptions::default()).unwrap();
    let addr = server.addr();

    // 1 MiB of `[`: unbounded recursion here would overflow the HTTP
    // worker's stack, which aborts the process instead of panicking.
    let body = "[".repeat(1 << 20);
    let (_, head, reply) =
        fetch(addr, "POST", "/ingest", Some(("application/json", body.as_bytes()))).unwrap();
    assert!(head.starts_with("HTTP/1.1 400 "), "{head} {reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");

    let (head, _) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn concurrent_clients_get_the_in_process_rollout_of_their_window() {
    let grid = GridMap::new(3, 4);
    let spec = SubSeriesSpec { lc: 2, lp: 1, lt: 1, intervals_per_day: 4, trend_days: 2 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    cfg.seed = 29;
    let (fill, max) = (spec.min_target(), spec.intervals_per_day);
    let t = fill + 40;
    let flows = synthetic_series(grid, &spec, t);
    // Every window state the clients can see, every horizon.
    let bases: Vec<usize> = (fill..=t).collect();
    let expected = MuseNet::new(cfg.clone()).predict_multi_step(&flows, &spec, &bases, max);

    let engine = Engine::new(MuseNet::new(cfg), EngineOptions::default());
    let server = Server::start(Arc::new(engine), ServerOptions::default()).unwrap();
    let addr = server.addr();
    let frame_len = 2 * grid.cells();
    let frame = |i: usize| flows.tensor().as_slice()[i * frame_len..(i + 1) * frame_len].to_vec();
    for i in 0..fill {
        assert!(post_raw_frame(addr, &frame(i)).0.starts_with("HTTP/1.1 200 "));
    }

    // The next frame to ingest, held while it is posted so frames land in
    // order whichever client sends them.
    let next = Mutex::new(fill);
    let started = Instant::now();
    let served: Vec<ForecastResponse> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u64)
            .map(|client| {
                let (next, frame) = (&next, &frame);
                scope.spawn(move || {
                    let mut rng = SeededRng::new(0x434c_4945 + client); // "CLIE"
                    let mut served = Vec::new();
                    loop {
                        if rng.chance(0.25) {
                            let mut next = next.lock().unwrap();
                            if *next == t {
                                return served;
                            }
                            let (head, _) = post_raw_frame(addr, &frame(*next));
                            assert!(head.starts_with("HTTP/1.1 200 "), "frame {next}: {head}");
                            *next += 1;
                        } else {
                            let h = 1 + rng.index(max);
                            let (head, body) = get(addr, &format!("/forecast?horizon={h}"));
                            assert!(head.starts_with("HTTP/1.1 200 "), "{head} {body}");
                            served.push(
                                ForecastResponse::from_json(&obs::json::parse(&body).unwrap()).unwrap(),
                            );
                        }
                    }
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    assert!(started.elapsed() < Duration::from_secs(60), "took {:?}", started.elapsed());

    for resp in &served {
        let base = resp.target_index as usize + 1 - resp.horizon;
        assert!((fill..=t).contains(&base), "base {base} was never a window state");
        let row =
            &expected[resp.horizon - 1].as_slice()[(base - fill) * frame_len..(base - fill + 1) * frame_len];
        let got: Vec<u32> = resp.prediction.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "horizon {} from base {base} diverged", resp.horizon);
    }
    let (_, body) = get(addr, "/stats");
    let stats = obs::json::parse(&body).unwrap();
    let serving = |name: &str| stats.get("serving").and_then(|s| s.get(name)).and_then(|v| v.as_f64());
    assert_eq!(serving("forecasts"), Some(served.len() as f64), "/stats counts every 200");
    assert_eq!(serving("frames_ingested"), Some(t as f64));
    assert!(serving("memo_hits") > Some(0.0), "concurrent forecasts share the memo");
}
