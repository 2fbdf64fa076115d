//! The inference engine: a dedicated thread that owns the model and the
//! flow window, fed through a channel.
//!
//! `MuseNet` (like every tape-adjacent structure in this repo) is
//! single-threaded by construction — parameters are `Rc`-shared and
//! activations live in a thread-local arena — so the daemon builds the
//! model *inside* one long-lived engine thread and serializes all access
//! through message passing. HTTP workers block on a reply channel; the
//! engine answers every forecast already queued behind the first one from
//! one rollout (see [`crate::batcher`]).
//!
//! The rollout is a memo keyed by [`FlowWindow::next_index`]: the window is
//! append-only, so that index fixes every frame a rollout reads, and step
//! `h` reads only window frames and steps `0..h`. A forecast at an
//! unchanged window computes only the steps past the cached prefix — none
//! for a horizon already served — and an accepted ingest starts a new memo.
//!
//! Steady-state inference is allocation-free: one [`Tape::forward_only`]
//! tape and [`Session`] are hoisted for the engine's lifetime and `reset`
//! between passes (recycling arena buffers), the closeness / period /
//! trend staging tensors are filled in place from the ring buffer, and the
//! memo's frames are sized once at boot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use muse_autograd::Tape;
use muse_nn::Session;
use muse_obs as obs;
use muse_obs::Json;
use muse_tensor::Tensor;
use muse_traffic::{GridMap, SubSeriesSpec};
use musenet::MuseNet;

use crate::api::{ForecastResponse, IngestAck, LatentNorms};
use crate::batcher::drain_backlog;
use crate::quality::{QualityConfig, QualityTracker};
use crate::spectral::SpectralSweeper;
use crate::window::FlowWindow;

/// Process-wide request ID source. Every `/ingest` and `/forecast` gets a
/// unique ID minted at the handle, echoed in the response, and threaded
/// through the `req.ingest` / `req.coalesce` / `req.forecast` trace events
/// so `muse-trace quality` can reconstruct per-request lifecycles.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Ways a serving request can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The window has not seen enough frames to resolve every lag yet.
    NotReady {
        /// Frames currently held.
        have: usize,
        /// Frames needed before forecasting.
        need: usize,
    },
    /// The ingested frame was rejected (wrong length, non-finite values…).
    BadFrame(String),
    /// Horizon outside `1..=max` (the rollout assumes horizons shorter than
    /// one day, matching [`MuseNet::predict_multi_step`]).
    BadHorizon {
        /// Requested horizon.
        horizon: usize,
        /// Largest horizon this engine serves.
        max: usize,
    },
    /// The engine thread is gone (shutdown or startup failure).
    Stopped,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotReady { have, need } => {
                write!(f, "window not ready: {have} of {need} frames ingested")
            }
            EngineError::BadFrame(msg) => write!(f, "bad frame: {msg}"),
            EngineError::BadHorizon { horizon, max } => {
                write!(f, "horizon {horizon} outside 1..={max}")
            }
            EngineError::Stopped => write!(f, "engine stopped"),
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Kernel threads for the engine thread's forward passes (`None` =
    /// inherit `MUSE_THREADS` / auto). The engine pins this itself because
    /// the pool's thread-local override does not cross thread boundaries.
    pub threads: Option<usize>,
    /// Most queued messages swept into one batch behind a forecast.
    pub max_batch: usize,
    /// Quality-monitoring configuration (journal, estimators, alerts).
    pub quality: QualityConfig,
    /// Run a spectral periodicity sweep every this many ingested frames
    /// (0 disables the sweep entirely).
    pub spectral_every: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { threads: None, max_batch: 64, quality: QualityConfig::default(), spectral_every: 32 }
    }
}

/// Static facts about the model the engine serves.
#[derive(Debug, Clone)]
pub struct EngineInfo {
    /// Grid the model predicts over.
    pub grid: GridMap,
    /// Interception spec (lags + intervals per day).
    pub spec: SubSeriesSpec,
    /// Scalars per frame (`2·H·W`).
    pub frame_len: usize,
    /// Ring-buffer depth (`spec.min_target()`).
    pub window_capacity: usize,
    /// Largest horizon served (`spec.intervals_per_day`).
    pub max_horizon: usize,
    /// Trainable parameter count.
    pub param_count: usize,
    /// Ablation variant name.
    pub variant: String,
    /// Representation dimension `d`.
    pub d: usize,
    /// Sampled distribution dimension `k`.
    pub k: usize,
}

/// Live counters answered by `GET /stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Frames ingested since boot.
    pub frames_ingested: u64,
    /// Frames currently in the window.
    pub window_frames: usize,
    /// Window capacity.
    pub window_capacity: usize,
    /// Whether forecasts are available.
    pub ready: bool,
    /// Absolute index of the next frame / forecast base.
    pub next_index: u64,
    /// Forecast requests answered.
    pub forecasts: u64,
    /// Batches of forecasts answered together.
    pub batches: u64,
    /// Size of the most recent batch.
    pub last_batch_size: usize,
    /// Largest batch coalesced so far.
    pub max_batch_size: usize,
    /// Rollout steps computed (`infer_raw` passes).
    pub rollout_steps: u64,
    /// Forecasts answered from the memo without computing a step.
    pub memo_hits: u64,
    /// Instruction-set level the tensor kernels dispatch to
    /// (`"avx2+fma"` or `"scalar"`).
    pub simd_level: &'static str,
}

impl StatsSnapshot {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("frames_ingested", Json::Num(self.frames_ingested as f64)),
            ("window_frames", Json::Num(self.window_frames as f64)),
            ("window_capacity", Json::Num(self.window_capacity as f64)),
            ("ready", Json::Bool(self.ready)),
            ("next_index", Json::Num(self.next_index as f64)),
            ("forecasts", Json::Num(self.forecasts as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("last_batch_size", Json::Num(self.last_batch_size as f64)),
            ("max_batch_size", Json::Num(self.max_batch_size as f64)),
            ("rollout_steps", Json::Num(self.rollout_steps as f64)),
            ("memo_hits", Json::Num(self.memo_hits as f64)),
            ("simd_level", Json::Str(self.simd_level.to_string())),
        ])
    }
}

type ForecastReply = Sender<Result<ForecastResponse, EngineError>>;

/// A forecast waiting for its batch: `(horizon, request id, reply)`.
type Pending = (usize, u64, ForecastReply);

enum Request {
    Ingest { req: u64, frame: Vec<f32>, reply: Sender<Result<IngestAck, EngineError>> },
    Forecast { req: u64, horizon: usize, reply: ForecastReply },
    Stats { reply: Sender<StatsSnapshot> },
    Quality { reply: Sender<Json> },
    Alerts { reply: Sender<Json> },
    Spectrum { reply: Sender<Json> },
    Shutdown,
}

/// Handle to the engine thread. Cheap to share behind an `Arc`; all methods
/// take `&self` and block until the engine replies.
pub struct Engine {
    tx: Sender<Request>,
    handle: Mutex<Option<JoinHandle<()>>>,
    info: EngineInfo,
}

impl Engine {
    /// Boot an engine around the model returned by `build`, which runs *on*
    /// the engine thread (the model never crosses threads). Blocks until
    /// the model is constructed; a `build` failure is returned here.
    pub fn start(
        build: impl FnOnce() -> Result<MuseNet, String> + Send + 'static,
        opts: EngineOptions,
    ) -> Result<Engine, String> {
        let (tx, rx) = mpsc::channel::<Request>();
        let (info_tx, info_rx) = mpsc::channel::<Result<EngineInfo, String>>();
        let threads = opts.threads;
        let handle = std::thread::Builder::new()
            .name("muse-serve-engine".to_string())
            .spawn(move || {
                let body = move || run_engine(build, opts, rx, info_tx);
                match threads {
                    Some(n) => muse_parallel::with_threads(n, body),
                    None => body(),
                }
            })
            .map_err(|e| format!("failed to spawn engine thread: {e}"))?;
        match info_rx.recv() {
            Ok(Ok(info)) => Ok(Engine { tx, handle: Mutex::new(Some(handle)), info }),
            Ok(Err(e)) => {
                let _ = handle.join();
                Err(e)
            }
            Err(_) => {
                let _ = handle.join();
                Err("engine thread died during startup".to_string())
            }
        }
    }

    /// Boot an engine from a self-describing checkpoint
    /// (see `MuseNet::save_with_config`).
    pub fn from_checkpoint(
        path: impl Into<std::path::PathBuf>,
        opts: EngineOptions,
    ) -> Result<Engine, String> {
        let path = path.into();
        Engine::start(
            move || {
                MuseNet::from_checkpoint(&path)
                    .map_err(|e| format!("loading checkpoint {}: {e}", path.display()))
            },
            opts,
        )
    }

    /// Static facts about the served model.
    pub fn info(&self) -> &EngineInfo {
        &self.info
    }

    /// Ingest one `2·H·W` frame (scaled units, matching training).
    pub fn ingest(&self, frame: Vec<f32>) -> Result<IngestAck, EngineError> {
        let req = next_request_id();
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Ingest { req, frame, reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)?
    }

    /// Forecast `horizon` steps past the last ingested frame.
    pub fn forecast(&self, horizon: usize) -> Result<ForecastResponse, EngineError> {
        let req = next_request_id();
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Forecast { req, horizon, reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)?
    }

    /// Live counters.
    pub fn stats(&self) -> Result<StatsSnapshot, EngineError> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Stats { reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)
    }

    /// Quality snapshot: scored/dropped counts, rolling MAE/RMSE, alerts
    /// (the `GET /quality` payload).
    pub fn quality(&self) -> Result<Json, EngineError> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Quality { reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)
    }

    /// Alert rule statuses (the `GET /alerts` payload).
    pub fn alerts(&self) -> Result<Json, EngineError> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Alerts { reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)
    }

    /// Last spectral-sweep result (the `GET /spectrum` payload).
    pub fn spectrum(&self) -> Result<Json, EngineError> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Request::Spectrum { reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)
    }

    /// Stop the engine thread and wait for it. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(handle) = self.handle.lock().expect("engine handle lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Hoisted per-pass buffers: the three staging input tensors, plus the
/// rollout memo — steps `0..memo_len` of the rollout from window state
/// `memo_base`, each a predicted frame and the latent norms of its pass.
struct Staging {
    closeness: Tensor,
    period: Tensor,
    trend: Tensor,
    predicted: Vec<Vec<f32>>,
    norms: Vec<LatentNorms>,
    memo_base: u64,
    memo_len: usize,
}

impl Staging {
    fn new(grid: GridMap, spec: &SubSeriesSpec) -> Staging {
        let (h, w) = (grid.height, grid.width);
        let unset = LatentNorms { closeness: 0.0, period: 0.0, trend: 0.0, interactive: 0.0 };
        Staging {
            closeness: Tensor::zeros(&[1, 2 * spec.lc, h, w]),
            period: Tensor::zeros(&[1, 2 * spec.lp, h, w]),
            trend: Tensor::zeros(&[1, 2 * spec.lt, h, w]),
            predicted: vec![vec![0.0; 2 * grid.cells()]; spec.intervals_per_day],
            norms: vec![unset; spec.intervals_per_day],
            memo_base: 0,
            memo_len: 0,
        }
    }

    /// Extend the memo to `max_h` rollout steps past the window's newest
    /// frame and return how many steps were already cached. Step `h`
    /// forecasts absolute frame `next_index + h`; closeness lags that reach
    /// past the last real frame are backfilled with earlier predictions,
    /// while period/trend lags (≥ one day > any served horizon) always read
    /// ground truth — exactly the scheme of [`MuseNet::predict_multi_step`],
    /// sliced from the ring buffer.
    fn rollout(
        &mut self,
        model: &MuseNet,
        session: &Session<'_>,
        tape: &Tape,
        window: &FlowWindow,
        spec: &SubSeriesSpec,
        max_h: usize,
    ) -> usize {
        let frame_len = window.frame_len();
        let next = window.next_index();
        if self.memo_base != next {
            self.memo_base = next;
            self.memo_len = 0;
        }
        let cached = self.memo_len;
        for h in cached..max_h {
            let target = next + h as u64;
            {
                let dst = self.closeness.as_mut_slice();
                for (k, &lag) in spec.closeness_lags().iter().enumerate() {
                    let idx = target - lag as u64;
                    let src: &[f32] =
                        if idx >= next { &self.predicted[(idx - next) as usize] } else { window.frame(idx) };
                    dst[k * frame_len..(k + 1) * frame_len].copy_from_slice(src);
                }
            }
            for (tensor, lags) in
                [(&mut self.period, spec.period_lags()), (&mut self.trend, spec.trend_lags())]
            {
                let dst = tensor.as_mut_slice();
                for (k, &lag) in lags.iter().enumerate() {
                    let idx = target - lag as u64;
                    dst[k * frame_len..(k + 1) * frame_len].copy_from_slice(window.frame(idx));
                }
            }
            tape.reset();
            session.reset();
            let out = model.infer_raw(session, &self.closeness, &self.period, &self.trend);
            // Copy the prediction out before the next reset recycles its arena
            // buffer; [1, 2, H, W] flattens to one frame.
            self.predicted[h].copy_from_slice(out.prediction.as_slice());
            self.norms[h] = LatentNorms {
                closeness: out.exclusive_mu_norms[0],
                period: out.exclusive_mu_norms[1],
                trend: out.exclusive_mu_norms[2],
                interactive: out.interactive_mu_norm,
            };
        }
        self.memo_len = self.memo_len.max(max_h);
        cached
    }
}

/// Everything the engine thread owns besides the hoisted tape and session.
struct Serving {
    model: MuseNet,
    spec: SubSeriesSpec,
    grid: GridMap,
    window: FlowWindow,
    staging: Staging,
    tracker: QualityTracker,
    sweeper: SpectralSweeper,
    spectral_every: u64,
    frames_ingested: u64,
    forecasts: u64,
    batches: u64,
    last_batch_size: usize,
    max_batch_size: usize,
    rollout_steps: u64,
    memo_hits: u64,
}

impl Serving {
    fn new(model: MuseNet, opts: &EngineOptions) -> Serving {
        let config = model.config();
        let (spec, grid) = (config.spec, config.grid);
        Serving {
            window: FlowWindow::for_spec(grid, &spec),
            staging: Staging::new(grid, &spec),
            tracker: QualityTracker::new(spec.intervals_per_day, &opts.quality),
            sweeper: SpectralSweeper::new(),
            spectral_every: opts.spectral_every,
            model,
            spec,
            grid,
            frames_ingested: 0,
            forecasts: 0,
            batches: 0,
            last_batch_size: 0,
            max_batch_size: 0,
            rollout_steps: 0,
            memo_hits: 0,
        }
    }

    fn info(&self) -> EngineInfo {
        let config = self.model.config();
        EngineInfo {
            grid: self.grid,
            spec: self.spec,
            frame_len: self.window.frame_len(),
            window_capacity: self.window.capacity(),
            max_horizon: self.spec.intervals_per_day,
            param_count: self.model.param_count(),
            variant: config.variant.name().to_string(),
            d: config.d,
            k: config.k,
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            frames_ingested: self.frames_ingested,
            window_frames: self.window.len(),
            window_capacity: self.window.capacity(),
            ready: self.window.ready(),
            next_index: self.window.next_index(),
            forecasts: self.forecasts,
            batches: self.batches,
            last_batch_size: self.last_batch_size,
            max_batch_size: self.max_batch_size,
            rollout_steps: self.rollout_steps,
            memo_hits: self.memo_hits,
            simd_level: muse_tensor::simd::level_name(),
        }
    }

    /// One turn of the engine loop: handle `msg`; if it is a forecast, sweep
    /// the queued backlog behind it (at most `max_batch` messages) and answer
    /// every forecast collected with one rollout. Ingests land in arrival
    /// order before that rollout, so every forecast in the batch sees the
    /// same, freshest window. Returns whether a shutdown was requested.
    fn turn(
        &mut self,
        msg: Request,
        rx: &Receiver<Request>,
        max_batch: usize,
        session: &Session<'_>,
        tape: &Tape,
    ) -> bool {
        let mut waiting = Vec::new();
        let mut stop = self.handle(msg, &mut waiting);
        if !waiting.is_empty() {
            for extra in drain_backlog(rx, max_batch) {
                stop |= self.handle(extra, &mut waiting);
            }
            self.answer(waiting, session, tape);
        }
        stop
    }

    /// Answer `msg` unless it is a forecast, which joins `waiting` instead.
    /// Returns whether it was a shutdown request.
    fn handle(&mut self, msg: Request, waiting: &mut Vec<Pending>) -> bool {
        match msg {
            Request::Shutdown => return true,
            Request::Forecast { req, horizon, reply } => waiting.push((horizon, req, reply)),
            Request::Ingest { req, frame, reply } => {
                let _ = reply.send(self.ingest(req, frame));
            }
            Request::Stats { reply } => {
                let _ = reply.send(self.snapshot());
            }
            Request::Quality { reply } => {
                let _ = reply.send(self.tracker.snapshot_json());
            }
            Request::Alerts { reply } => {
                let _ = reply.send(self.tracker.alerts_json());
            }
            Request::Spectrum { reply } => {
                let _ = reply.send(spectrum_json(&self.sweeper, &self.tracker));
            }
        }
        false
    }

    fn ingest(&mut self, req: u64, frame: Vec<f32>) -> Result<IngestAck, EngineError> {
        let _span = obs::span("serve.ingest");
        let index = match self.window.push(&frame) {
            Ok(index) => index,
            Err(e) => {
                reject(req, "ingest", e.clone());
                return Err(EngineError::BadFrame(e));
            }
        };
        self.frames_ingested += 1;
        obs::counter("serve.frames_ingested").add(1);
        obs::emit_with("req.ingest", || {
            vec![("request", Json::Num(req as f64)), ("index", Json::Num(index as f64))]
        });
        self.tracker.on_ingest(&self.window, index, &frame);
        if self.spectral_every > 0
            && self.frames_ingested.is_multiple_of(self.spectral_every)
            && self.sweeper.sweep(&self.window).is_some()
        {
            self.tracker.on_spectral(self.sweeper.sweeps(), self.sweeper.last_index(), self.sweeper.last());
        }
        Ok(IngestAck { request_id: req, index, frames: self.window.len(), ready: self.window.ready() })
    }

    /// Answer one batch of forecasts from the memo, extended to the largest
    /// valid horizon in the batch.
    fn answer(&mut self, mut waiting: Vec<Pending>, session: &Session<'_>, tape: &Tape) {
        let max = self.spec.intervals_per_day;
        waiting.retain(|&(horizon, req, ref reply)| {
            let valid = (1..=max).contains(&horizon);
            if !valid {
                reject(req, "forecast", format!("bad horizon {horizon}"));
                let _ = reply.send(Err(EngineError::BadHorizon { horizon, max }));
            }
            valid
        });
        if waiting.is_empty() {
            return;
        }
        if !self.window.ready() {
            let err = EngineError::NotReady { have: self.window.len(), need: self.window.capacity() };
            for (_, req, reply) in waiting {
                reject(req, "forecast", "not_ready".to_string());
                let _ = reply.send(Err(err.clone()));
            }
            return;
        }

        let batch_size = waiting.len();
        let max_h = waiting.iter().map(|&(h, _, _)| h).max().expect("non-empty batch");
        let rollout_id = self.batches + 1;
        obs::emit_with("req.coalesce", || {
            vec![
                ("rollout", Json::Num(rollout_id as f64)),
                ("batch_size", Json::Num(batch_size as f64)),
                ("requests", Json::Arr(waiting.iter().map(|&(_, req, _)| Json::Num(req as f64)).collect())),
            ]
        });
        let started = Instant::now();
        let cached = {
            let _span = obs::span("serve.forecast.batch");
            self.staging.rollout(&self.model, session, tape, &self.window, &self.spec, max_h)
        };
        obs::histogram("serve.forecast.batch_size").record(batch_size as f64);
        obs::histogram("serve.forecast.rollout_ns").record(started.elapsed().as_nanos() as f64);
        obs::counter("serve.forecasts").add(batch_size as u64);
        let steps = max_h.saturating_sub(cached) as u64;
        let hits = waiting.iter().filter(|&&(h, _, _)| h <= cached).count() as u64;
        obs::counter("serve.rollout.steps").add(steps);
        obs::counter("serve.rollout.memo_hits").add(hits);

        let base = self.window.next_index();
        for (horizon, req, reply) in waiting {
            let prediction = &self.staging.predicted[horizon - 1];
            let target = base + horizon as u64 - 1;
            self.tracker.record_forecast(req, rollout_id, horizon, target, prediction);
            obs::emit_with("req.forecast", || {
                vec![
                    ("request", Json::Num(req as f64)),
                    ("rollout", Json::Num(rollout_id as f64)),
                    ("horizon", Json::Num(horizon as f64)),
                    ("target", Json::Num(target as f64)),
                ]
            });
            let _ = reply.send(Ok(ForecastResponse {
                request_id: req,
                horizon,
                target_index: target,
                shape: [2, self.grid.height, self.grid.width],
                prediction: prediction.clone(),
                latent_norms: self.staging.norms[horizon - 1],
                batch_size,
            }));
        }
        self.forecasts += batch_size as u64;
        self.batches += 1;
        self.last_batch_size = batch_size;
        self.max_batch_size = self.max_batch_size.max(batch_size);
        self.rollout_steps += steps;
        self.memo_hits += hits;
    }
}

fn run_engine(
    build: impl FnOnce() -> Result<MuseNet, String>,
    opts: EngineOptions,
    rx: Receiver<Request>,
    info_tx: Sender<Result<EngineInfo, String>>,
) {
    let mut serving = match build() {
        Ok(model) => Serving::new(model, &opts),
        Err(e) => {
            let _ = info_tx.send(Err(e));
            return;
        }
    };
    if info_tx.send(Ok(serving.info())).is_err() {
        return;
    }
    let tape = Tape::forward_only();
    let session = Session::new(&tape);
    while let Ok(msg) = rx.recv() {
        if serving.turn(msg, &rx, opts.max_batch, &session, &tape) {
            break;
        }
    }
}

/// Trace a rejected request.
fn reject(req: u64, stage: &str, reason: String) {
    obs::emit_with("req.reject", || {
        vec![
            ("request", Json::Num(req as f64)),
            ("stage", Json::Str(stage.to_string())),
            ("reason", Json::Str(reason)),
        ]
    });
}

/// The `GET /spectrum` payload: the last sweep's detections plus the
/// spectral-shift alert state.
fn spectrum_json(sweeper: &SpectralSweeper, tracker: &QualityTracker) -> Json {
    Json::obj([
        ("sweeps", Json::Num(sweeper.sweeps() as f64)),
        ("last_index", Json::Num(sweeper.last_index() as f64)),
        (
            "periods",
            Json::Arr(
                sweeper
                    .last()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("intervals", Json::Num(p.intervals as f64)),
                            ("power_share", Json::Num(p.power_share)),
                            ("snr", Json::Num(p.snr)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("dominant", sweeper.last().first().map_or(Json::Null, |p| Json::Num(p.intervals as f64))),
        (
            "alert",
            Json::Str(tracker.alert_state("spectral_shift").map_or("disabled", |s| s.as_str()).to_string()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    //! Every test here holds `obs::test_lock()`: the serving counters are
    //! process-global, and `http::tests` asserts exact counts.
    use super::*;
    use muse_traffic::FlowSeries;
    use musenet::MuseNetConfig;

    fn tiny_config() -> MuseNetConfig {
        let grid = GridMap::new(3, 4);
        let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 3, trend_days: 7 };
        let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
        cfg.d = 4;
        cfg.k = 8;
        cfg.seed = 7;
        cfg
    }

    /// The tiny model on a day of 24 intervals, so horizon 24 is servable.
    fn day_config() -> MuseNetConfig {
        let mut cfg = tiny_config();
        cfg.spec = SubSeriesSpec { lc: 3, lp: 1, lt: 1, intervals_per_day: 24, trend_days: 7 };
        cfg
    }

    /// Deterministic frame: every cell distinct, varying over time.
    fn frame_at(i: u64, frame_len: usize) -> Vec<f32> {
        (0..frame_len).map(|c| ((i as f32) * 0.05 + c as f32 * 0.01).sin() * 0.5 + 0.5).collect()
    }

    fn start_tiny(opts: EngineOptions) -> Engine {
        let cfg = tiny_config();
        Engine::start(move || Ok(musenet::MuseNet::new(cfg)), opts).unwrap()
    }

    /// An engine serving an untrained `cfg` model, filled with frames `0..n`.
    fn start_filled(cfg: &MuseNetConfig, n: usize) -> Engine {
        let build = cfg.clone();
        let engine =
            Engine::start(move || Ok(musenet::MuseNet::new(build)), EngineOptions::default()).unwrap();
        for i in 0..n as u64 {
            engine.ingest(frame_at(i, engine.info().frame_len)).unwrap();
        }
        engine
    }

    /// In-process `predict_multi_step` of an identically-seeded model over
    /// frames `0..base`, forecasting from `base`.
    fn reference(cfg: &MuseNetConfig, base: usize, horizons: usize) -> Vec<Tensor> {
        let frame_len = 2 * cfg.grid.cells();
        let data: Vec<f32> = (0..base as u64).flat_map(|i| frame_at(i, frame_len)).collect();
        let flows = FlowSeries::from_tensor(
            cfg.grid,
            Tensor::from_vec(data, &[base, 2, cfg.grid.height, cfg.grid.width]),
        );
        musenet::MuseNet::new(cfg.clone()).predict_multi_step(&flows, &cfg.spec, &[base], horizons)
    }

    fn assert_bits(resp: &ForecastResponse, want: &Tensor) {
        let want = want.as_slice();
        assert_eq!(resp.prediction.len(), want.len());
        for (got, want) in resp.prediction.iter().zip(want) {
            assert_eq!(got.to_bits(), want.to_bits(), "horizon {} diverged", resp.horizon);
        }
    }

    #[test]
    fn rejects_bad_frames_and_horizons_and_not_ready() {
        let _g = obs::test_lock();
        let engine = start_tiny(EngineOptions::default());
        let info = engine.info().clone();
        assert!(matches!(engine.ingest(vec![0.0; 3]), Err(EngineError::BadFrame(_))));
        assert_eq!(engine.forecast(0), Err(EngineError::BadHorizon { horizon: 0, max: info.max_horizon }));
        assert_eq!(
            engine.forecast(info.max_horizon + 1),
            Err(EngineError::BadHorizon { horizon: info.max_horizon + 1, max: info.max_horizon })
        );
        let err = engine.forecast(1).unwrap_err();
        assert_eq!(err, EngineError::NotReady { have: 0, need: info.window_capacity });
        engine.shutdown();
        assert_eq!(engine.forecast(1), Err(EngineError::Stopped));
    }

    #[test]
    fn forecast_matches_predict_multi_step_reference() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let horizons = 2;
        let expected = reference(&cfg, n, horizons);

        let engine = start_filled(&cfg, n);
        let stats = engine.stats().unwrap();
        assert!(stats.ready);
        assert_eq!(stats.frames_ingested, n as u64);

        for h in 1..=horizons {
            let resp = engine.forecast(h).unwrap();
            assert_eq!(resp.target_index, (n + h - 1) as u64);
            assert_eq!(resp.shape, [2, cfg.grid.height, cfg.grid.width]);
            assert_bits(&resp, &expected[h - 1]);
            assert!(resp.latent_norms.closeness.is_finite());
            assert!(resp.latent_norms.interactive.is_finite());
        }
    }

    #[test]
    fn forecasts_are_bit_identical_across_thread_counts() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let frame_len = 2 * cfg.grid.cells();
        let mut baseline: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 4] {
            let engine = start_tiny(EngineOptions { threads: Some(threads), ..Default::default() });
            for i in 0..n as u64 {
                engine.ingest(frame_at(i, frame_len)).unwrap();
            }
            let bits: Vec<u32> = engine.forecast(2).unwrap().prediction.iter().map(|v| v.to_bits()).collect();
            match &baseline {
                None => baseline = Some(bits),
                Some(want) => assert_eq!(&bits, want, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn shorter_horizon_is_a_pure_memo_hit() {
        let _g = obs::test_lock();
        let cfg = day_config();
        let n = cfg.spec.min_target();
        let expected = reference(&cfg, n, 24);
        let engine = start_filled(&cfg, n);

        assert_bits(&engine.forecast(24).unwrap(), &expected[23]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.rollout_steps, stats.memo_hits), (24, 0));

        let resp = engine.forecast(3).unwrap();
        assert_eq!(resp.target_index, (n + 2) as u64);
        assert_bits(&resp, &expected[2]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.rollout_steps, stats.memo_hits), (24, 1), "horizon 3 computed no step");
    }

    #[test]
    fn longer_horizon_extends_the_cached_prefix() {
        let _g = obs::test_lock();
        let cfg = day_config();
        let n = cfg.spec.min_target();
        let expected = reference(&cfg, n, 24);
        let engine = start_filled(&cfg, n);

        assert_bits(&engine.forecast(3).unwrap(), &expected[2]);
        assert_eq!(engine.stats().unwrap().rollout_steps, 3);
        assert_bits(&engine.forecast(24).unwrap(), &expected[23]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.rollout_steps, stats.memo_hits), (24, 0), "only steps 3..24 computed");
        // Every step of the extended memo still matches the reference.
        for h in [1, 4, 12] {
            assert_bits(&engine.forecast(h).unwrap(), &expected[h - 1]);
        }
        assert_eq!(engine.stats().unwrap().memo_hits, 3);
    }

    #[test]
    fn accepted_ingest_invalidates_the_memo() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let engine = start_filled(&cfg, n);
        assert_bits(&engine.forecast(2).unwrap(), &reference(&cfg, n, 2)[1]);

        engine.ingest(frame_at(n as u64, engine.info().frame_len)).unwrap();
        let resp = engine.forecast(2).unwrap();
        assert_eq!(resp.target_index, (n + 2) as u64);
        assert_bits(&resp, &reference(&cfg, n + 1, 2)[1]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.rollout_steps, stats.memo_hits), (4, 0), "new base, new rollout");
    }

    #[test]
    fn rejected_ingest_keeps_the_memo() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let engine = start_filled(&cfg, n);
        let first = engine.forecast(2).unwrap();

        let frame_len = engine.info().frame_len;
        assert!(matches!(engine.ingest(vec![0.5; frame_len + 1]), Err(EngineError::BadFrame(_))));
        let mut nan = frame_at(n as u64, frame_len);
        nan[1] = f32::NAN;
        assert!(matches!(engine.ingest(nan), Err(EngineError::BadFrame(_))));

        let again = engine.forecast(2).unwrap();
        assert_eq!(again.target_index, first.target_index);
        assert_eq!(again.prediction, first.prediction);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.rollout_steps, stats.memo_hits), (2, 1));
    }

    #[test]
    fn queued_ingests_land_before_the_batch_and_forecasts_share_it() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target() as u64;
        let frame_len = 2 * cfg.grid.cells();
        let mut serving = Serving::new(musenet::MuseNet::new(cfg), &EngineOptions::default());
        for i in 0..n {
            serving.ingest(0, frame_at(i, frame_len)).unwrap();
        }
        // Queue an ingest and a second forecast behind the first forecast,
        // then a shutdown: one turn answers all of it.
        let (tx, rx) = mpsc::channel();
        let (ingest_reply, ingest_rx) = mpsc::channel();
        let (second_reply, second_rx) = mpsc::channel();
        tx.send(Request::Ingest { req: 2, frame: frame_at(n, frame_len), reply: ingest_reply }).unwrap();
        tx.send(Request::Forecast { req: 3, horizon: 2, reply: second_reply }).unwrap();
        tx.send(Request::Shutdown).unwrap();
        let (first_reply, first_rx) = mpsc::channel();
        let tape = Tape::forward_only();
        let session = Session::new(&tape);
        let first = Request::Forecast { req: 1, horizon: 1, reply: first_reply };
        assert!(serving.turn(first, &rx, 64, &session, &tape), "the queued shutdown is reported");

        assert_eq!(ingest_rx.recv().unwrap().unwrap().index, n);
        let (first, second) = (first_rx.recv().unwrap().unwrap(), second_rx.recv().unwrap().unwrap());
        // next_index is n+1 once the queued frame lands, so horizon 1
        // targets frame n+1.
        assert_eq!(first.target_index, n + 1, "forecast must target the post-ingest index");
        assert_eq!(second.target_index, n + 2);
        assert_eq!((first.batch_size, second.batch_size), (2, 2));
        let stats = serving.snapshot();
        assert_eq!((stats.batches, stats.forecasts, stats.rollout_steps), (1, 2, 2));
    }

    #[test]
    fn quality_endpoint_scores_once_ground_truth_arrives() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let frame_len = 2 * cfg.grid.cells();
        let engine = start_tiny(EngineOptions::default());
        for i in 0..n as u64 {
            let ack = engine.ingest(frame_at(i, frame_len)).unwrap();
            assert!(ack.request_id > 0);
        }
        let q = engine.quality().unwrap();
        assert_eq!(q.get("scored").unwrap().as_f64(), Some(0.0));

        let resp = engine.forecast(1).unwrap();
        assert!(resp.request_id > 0);
        let q = engine.quality().unwrap();
        assert_eq!(q.get("pending").unwrap().as_f64(), Some(1.0), "forecast journaled");

        // The target frame arrives: the journal settles and scores it.
        engine.ingest(frame_at(n as u64, frame_len)).unwrap();
        let q = engine.quality().unwrap();
        assert_eq!(q.get("scored").unwrap().as_f64(), Some(1.0));
        assert_eq!(q.get("pending").unwrap().as_f64(), Some(0.0));
        assert!(q.get("mae").unwrap().get("ewma").unwrap().as_f64().unwrap() >= 0.0);
        let horizons = q.get("horizons").unwrap().as_arr().unwrap();
        assert_eq!(horizons[0].get("horizon").unwrap().as_f64(), Some(1.0));

        let alerts = engine.alerts().unwrap();
        assert_eq!(alerts.get("worst").unwrap().as_str(), Some("ok"));
        let rules = alerts.get("alerts").unwrap().as_arr().unwrap();
        assert!(rules.iter().any(|r| r.get("name").unwrap().as_str() == Some("flow_level_shift")));
    }
}
