//! The inference engine: the serving state behind one lock, and a thread
//! that owns the model.
//!
//! `MuseNet` (like every tape-adjacent structure in this repo) is
//! single-threaded by construction — parameters are `Rc`-shared — so the
//! daemon builds the model *inside* one long-lived engine thread and never
//! lets it leave. (Activation storage comes from the process-wide tensor
//! arena, shared by every thread.) Everything else the daemon serves from —
//! the flow window, the rollout memo, the quality tracker, the spectral
//! sweeper and the counters — is one `State` behind one `Mutex`, shared by
//! the HTTP workers and the engine thread.
//!
//! The calling worker answers, under that lock: ingests, stats, quality,
//! alerts and spectrum reads, horizon and readiness checks, and every
//! forecast whose step the memo already holds for the current window. Only
//! a forecast that needs steps the memo lacks crosses the engine's channel
//! (the only other message is shutdown); the engine thread takes the lock,
//! extends the memo with the model and answers through the same code the
//! hits use. No caller holds the lock while it waits on the channel; the
//! engine holds it while the model runs, the same serialisation one thread
//! gives. Each forecast is answered on its own; forecasts of one window
//! state share computed steps through the memo.
//!
//! The rollout is [`muse_traffic::Rollout`], the one implementation of the
//! Table III scheme that `MuseNet::predict_multi_step` also drives, run at
//! batch 1 over the ring buffer ([`FlowWindow`] is its frame source). It is
//! memoized by [`FlowWindow::next_index`]: the window is append-only, so
//! that index fixes every frame a rollout reads, and step `h` reads only
//! window frames and steps `0..h`. A forecast at an unchanged window
//! computes only the steps past the cached prefix — none for a horizon
//! already served — and an accepted ingest starts a new memo. Each step's
//! `prediction` and `latent_norms` are rendered to JSON once, when the step
//! is computed; every forecast answered with that step splices the text in.
//!
//! A panic while the model extends the memo is contained: that forecast is
//! answered [`EngineError::Panicked`], counted in `serve.panics`, and the
//! memo is discarded while the window stays. The lock recovers from
//! poisoning, so no panic turns every later request into an error.
//!
//! One [`Tape::forward_only`] tape and [`Session`] are hoisted for the
//! engine's lifetime and `reset` between passes, so activations recycle
//! arena buffers and the rollout's staging batch is filled in place. The
//! steady state is not allocation-free: a forward pass still makes a few
//! hundred small heap allocations (graph nodes, shapes); only tensor storage
//! is recycled.
//!
//! Every serving counter and histogram is looked up in the registry once,
//! when the engine boots; requests update them through the held handles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use muse_autograd::Tape;
use muse_nn::Session;
use muse_obs as obs;
use muse_obs::{Counter, Histogram, Json};
use muse_traffic::{GridMap, Rollout, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};

use crate::api::{ForecastResponse, IngestAck, LatentNorms, StepJson};
use crate::quality::{QualityConfig, QualityTracker};
use crate::spectral::SpectralSweeper;
use crate::window::FlowWindow;

/// Process-wide request ID source. Every `/ingest` and `/forecast` gets a
/// unique ID minted at the handle, echoed in the response, and threaded
/// through the `req.ingest` / `req.forecast` trace events
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
    /// Horizon outside `1..=max` (the shared [`muse_traffic::Rollout`]
    /// assumes horizons shorter than one day).
    BadHorizon {
        /// Requested horizon.
        horizon: usize,
        /// Largest horizon this engine serves.
        max: usize,
    },
    /// The model produced a NaN or infinite value for this step; the
    /// forecast is refused rather than served with `null`s.
    NonFinite {
        /// Horizon of the refused step.
        horizon: usize,
    },
    /// The model panicked while computing this forecast's steps. The memo
    /// was discarded; the window and later requests are unaffected.
    Panicked,
    /// The engine was shut down (or its thread is gone).
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
            EngineError::NonFinite { horizon } => write!(f, "non-finite prediction at horizon {horizon}"),
            EngineError::Panicked => write!(f, "the model panicked during the rollout"),
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
    /// Quality-monitoring configuration (journal, estimators, alerts).
    pub quality: QualityConfig,
    /// Run a spectral periodicity sweep every this many ingested frames
    /// (0 disables the sweep entirely).
    pub spectral_every: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { threads: None, quality: QualityConfig::default(), spectral_every: 32 }
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
    /// Batches of forecasts answered together. Each forecast is answered
    /// on its own, so this equals `forecasts`.
    pub batches: u64,
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
            ("rollout_steps", Json::Num(self.rollout_steps as f64)),
            ("memo_hits", Json::Num(self.memo_hits as f64)),
            ("simd_level", Json::Str(self.simd_level.to_string())),
        ])
    }
}

type ForecastReply = Sender<Result<ForecastResponse, EngineError>>;

/// What the engine thread sends back once the model is built.
type Boot = Result<(EngineInfo, Arc<Mutex<State>>), String>;

/// Work only the engine thread can do.
enum Job {
    /// A forecast whose step the memo lacks.
    Forecast {
        req: u64,
        horizon: usize,
        reply: ForecastReply,
    },
    Shutdown,
}

/// Handle to the engine. Cheap to share behind an `Arc`; all methods take
/// `&self` and run on the calling thread under the state lock, except a
/// forecast the memo cannot answer, which blocks until the engine thread
/// has run the model.
pub struct Engine {
    state: Arc<Mutex<State>>,
    tx: Sender<Job>,
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
        let (tx, rx) = mpsc::channel::<Job>();
        let (boot_tx, boot_rx) = mpsc::channel::<Boot>();
        let threads = opts.threads;
        let handle = std::thread::Builder::new()
            .name("muse-serve-engine".to_string())
            .spawn(move || {
                let body = move || run_engine(build, opts, rx, boot_tx);
                match threads {
                    Some(n) => muse_parallel::with_threads(n, body),
                    None => body(),
                }
            })
            .map_err(|e| format!("failed to spawn engine thread: {e}"))?;
        match boot_rx.recv() {
            Ok(Ok((info, state))) => Ok(Engine { state, tx, handle: Mutex::new(Some(handle)), info }),
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

    /// The serving state, locked, unless the engine was shut down.
    fn state(&self) -> Result<MutexGuard<'_, State>, EngineError> {
        let state = lock(&self.state);
        if state.stopped {
            return Err(EngineError::Stopped);
        }
        Ok(state)
    }

    /// Ingest one `2·H·W` frame (scaled units, matching training).
    pub fn ingest(&self, frame: Vec<f32>) -> Result<IngestAck, EngineError> {
        let req = next_request_id();
        self.state()?.ingest(req, &frame)
    }

    /// Forecast `horizon` steps past the last ingested frame: from the
    /// memo on the calling thread when it holds the step, otherwise by the
    /// model on the engine thread.
    pub fn forecast(&self, horizon: usize) -> Result<ForecastResponse, EngineError> {
        let req = next_request_id();
        {
            let mut state = self.state()?;
            state.check(req, horizon)?;
            let cached = state.staging.cached(state.window.next_index());
            if horizon <= cached {
                return state.answer(req, horizon, cached, Instant::now());
            }
        }
        let (reply, rx) = mpsc::channel();
        self.tx.send(Job::Forecast { req, horizon, reply }).map_err(|_| EngineError::Stopped)?;
        rx.recv().map_err(|_| EngineError::Stopped)?
    }

    /// Live counters.
    pub fn stats(&self) -> Result<StatsSnapshot, EngineError> {
        Ok(self.state()?.snapshot())
    }

    /// Quality snapshot: scored/dropped counts, rolling MAE/RMSE, alerts
    /// (the `GET /quality` payload).
    pub fn quality(&self) -> Result<Json, EngineError> {
        Ok(self.state()?.tracker.snapshot_json())
    }

    /// Alert rule statuses (the `GET /alerts` payload).
    pub fn alerts(&self) -> Result<Json, EngineError> {
        Ok(self.state()?.tracker.alerts_json())
    }

    /// Last spectral-sweep result (the `GET /spectrum` payload).
    pub fn spectrum(&self) -> Result<Json, EngineError> {
        let state = self.state()?;
        Ok(spectrum_json(&state.sweeper, &state.tracker))
    }

    /// Stop the engine thread and wait for it; every later call answers
    /// [`EngineError::Stopped`]. Idempotent.
    pub fn shutdown(&self) {
        lock(&self.state).stopped = true;
        let _ = self.tx.send(Job::Shutdown);
        if let Some(handle) = lock(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lock `m` even if a panic poisoned it. The engine thread contains model
/// panics before they can poison the state lock; anything else that
/// unwinds while holding it (an HTTP handler, say) leaves the state
/// usable, and one panic must not turn every later request into a `500`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One computed rollout step's latent norms and rendered JSON.
struct Step {
    norms: LatentNorms,
    json: StepJson,
}

/// The rollout memo: a batch-1 [`Rollout`] from window state
/// `rollout.bases()[0]`, plus what each computed step answers with besides
/// its prediction.
struct Staging {
    rollout: Rollout,
    steps: Vec<Step>,
}

impl Staging {
    fn new(grid: GridMap, spec: &SubSeriesSpec) -> Staging {
        Staging { rollout: Rollout::new(grid, *spec), steps: Vec::with_capacity(spec.intervals_per_day) }
    }

    /// Steps held for the window state whose next frame is `next`.
    fn cached(&self, next: u64) -> usize {
        if self.rollout.bases() == [next as usize] {
            self.rollout.computed()
        } else {
            0
        }
    }

    /// Extend the memo to `max_h` rollout steps past the window's newest
    /// frame and return how many steps were already cached. Step `h`
    /// forecasts absolute frame `next_index + h`.
    fn extend(
        &mut self,
        model: &MuseNet,
        session: &Session<'_>,
        tape: &Tape,
        window: &FlowWindow,
        max_h: usize,
    ) -> usize {
        let next = window.next_index();
        let cached = self.cached(next);
        if cached == 0 {
            self.rollout.start(&[next as usize]);
            self.steps.clear();
        }
        while self.rollout.computed() < max_h {
            self.rollout.advance(window, |b| {
                tape.reset();
                session.reset();
                let out = model.infer_raw(session, &b.closeness, &b.period, &b.trend);
                let norms = LatentNorms {
                    closeness: out.exclusive_mu_norms[0],
                    period: out.exclusive_mu_norms[1],
                    trend: out.exclusive_mu_norms[2],
                    interactive: out.interactive_mu_norm,
                };
                let json = StepJson::render(out.prediction.as_slice(), &norms);
                self.steps.push(Step { norms, json });
                out.prediction
            });
        }
        cached
    }
}

/// The serving counters and histograms, interned at boot (so each exports
/// from then on, `muse_serve_panics_total` before any panic).
struct Metrics {
    frames_ingested: &'static Counter,
    forecasts: &'static Counter,
    rollout_steps: &'static Counter,
    memo_hits: &'static Counter,
    non_finite: &'static Counter,
    panics: &'static Counter,
    rollout_ns: &'static Histogram,
}

impl Metrics {
    fn intern() -> Metrics {
        Metrics {
            frames_ingested: obs::counter("serve.frames_ingested"),
            forecasts: obs::counter("serve.forecasts"),
            rollout_steps: obs::counter("serve.rollout.steps"),
            memo_hits: obs::counter("serve.rollout.memo_hits"),
            non_finite: obs::counter("serve.forecasts_non_finite"),
            panics: obs::counter("serve.panics"),
            rollout_ns: obs::histogram("serve.forecast.rollout_ns"),
        }
    }
}

/// Everything the daemon serves from except the model, shared by the HTTP
/// workers and the engine thread behind one lock.
struct State {
    spec: SubSeriesSpec,
    grid: GridMap,
    window: FlowWindow,
    staging: Staging,
    tracker: QualityTracker,
    sweeper: SpectralSweeper,
    spectral_every: u64,
    metrics: Metrics,
    frames_ingested: u64,
    forecasts: u64,
    rollout_steps: u64,
    memo_hits: u64,
    /// Set by [`Engine::shutdown`].
    stopped: bool,
}

impl State {
    fn new(config: &MuseNetConfig, opts: &EngineOptions) -> State {
        let (spec, grid) = (config.spec, config.grid);
        State {
            window: FlowWindow::for_spec(grid, &spec),
            staging: Staging::new(grid, &spec),
            tracker: QualityTracker::new(spec.intervals_per_day, &opts.quality),
            sweeper: SpectralSweeper::new(),
            spectral_every: opts.spectral_every,
            metrics: Metrics::intern(),
            spec,
            grid,
            frames_ingested: 0,
            forecasts: 0,
            rollout_steps: 0,
            memo_hits: 0,
            stopped: false,
        }
    }

    fn info(&self, model: &MuseNet) -> EngineInfo {
        let config = model.config();
        EngineInfo {
            grid: self.grid,
            spec: self.spec,
            frame_len: self.window.frame_len(),
            window_capacity: self.window.capacity(),
            max_horizon: self.spec.intervals_per_day,
            param_count: model.param_count(),
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
            batches: self.forecasts,
            rollout_steps: self.rollout_steps,
            memo_hits: self.memo_hits,
            simd_level: muse_tensor::simd::level_name(),
        }
    }

    fn ingest(&mut self, req: u64, frame: &[f32]) -> Result<IngestAck, EngineError> {
        let _span = obs::span("serve.ingest");
        let index = match self.window.push(frame) {
            Ok(index) => index,
            Err(e) => {
                reject(req, "ingest", e.clone());
                return Err(EngineError::BadFrame(e));
            }
        };
        self.frames_ingested += 1;
        self.metrics.frames_ingested.add(1);
        obs::emit_with("req.ingest", || {
            vec![("request", Json::Num(req as f64)), ("index", Json::Num(index as f64))]
        });
        self.tracker.on_ingest(&self.window, index, frame);
        if self.spectral_every > 0
            && self.frames_ingested.is_multiple_of(self.spectral_every)
            && self.sweeper.sweep(&self.window).is_some()
        {
            self.tracker.on_spectral(self.sweeper.sweeps(), self.sweeper.last_index(), self.sweeper.last());
        }
        Ok(IngestAck { request_id: req, index, frames: self.window.len(), ready: self.window.ready() })
    }

    /// Refuse a horizon outside `1..=max`, then a window not yet full.
    fn check(&self, req: u64, horizon: usize) -> Result<(), EngineError> {
        let max = self.spec.intervals_per_day;
        if !(1..=max).contains(&horizon) {
            reject(req, "forecast", format!("bad horizon {horizon}"));
            return Err(EngineError::BadHorizon { horizon, max });
        }
        if !self.window.ready() {
            reject(req, "forecast", "not_ready".to_string());
            return Err(EngineError::NotReady { have: self.window.len(), need: self.window.capacity() });
        }
        Ok(())
    }

    /// Extend the memo to `horizon` steps with the model, then answer. A
    /// panic in the model discards the memo and refuses this forecast.
    fn compute(
        &mut self,
        req: u64,
        horizon: usize,
        model: &MuseNet,
        session: &Session<'_>,
        tape: &Tape,
    ) -> Result<ForecastResponse, EngineError> {
        let started = Instant::now();
        let State { staging, window, .. } = self;
        let extended = catch_unwind(AssertUnwindSafe(|| {
            let _span = obs::span("serve.forecast.batch");
            staging.extend(model, session, tape, window, horizon)
        }));
        match extended {
            Ok(cached) => self.answer(req, horizon, cached, started),
            Err(_) => {
                self.metrics.panics.add(1);
                reject(req, "forecast", "panic".to_string());
                self.staging = Staging::new(self.grid, &self.spec);
                Err(EngineError::Panicked)
            }
        }
    }

    /// Answer a forecast from a memo that holds its step; `cached` steps
    /// were held before `started`.
    fn answer(
        &mut self,
        req: u64,
        horizon: usize,
        cached: usize,
        started: Instant,
    ) -> Result<ForecastResponse, EngineError> {
        let rollout_id = self.forecasts + 1;
        let m = &self.metrics;
        m.rollout_ns.record(started.elapsed().as_nanos() as f64);
        m.forecasts.add(1);
        let steps = horizon.saturating_sub(cached) as u64;
        let hits = u64::from(horizon <= cached);
        m.rollout_steps.add(steps);
        m.memo_hits.add(hits);
        self.forecasts += 1;
        self.rollout_steps += steps;
        self.memo_hits += hits;

        let prediction = self.staging.rollout.step(horizon - 1).as_slice();
        if !prediction.iter().all(|v| v.is_finite()) {
            self.metrics.non_finite.add(1);
            reject(req, "forecast", "non_finite".to_string());
            return Err(EngineError::NonFinite { horizon });
        }
        let target = self.window.next_index() + horizon as u64 - 1;
        self.tracker.record_forecast(req, rollout_id, horizon, target, prediction);
        obs::emit_with("req.forecast", || {
            vec![
                ("request", Json::Num(req as f64)),
                ("rollout", Json::Num(rollout_id as f64)),
                ("horizon", Json::Num(horizon as f64)),
                ("target", Json::Num(target as f64)),
            ]
        });
        let step = &self.staging.steps[horizon - 1];
        Ok(ForecastResponse {
            request_id: req,
            horizon,
            target_index: target,
            shape: [2, self.grid.height, self.grid.width],
            prediction: prediction.to_vec(),
            latent_norms: step.norms,
            rendered: step.json.clone(),
        })
    }
}

fn run_engine(
    build: impl FnOnce() -> Result<MuseNet, String>,
    opts: EngineOptions,
    rx: Receiver<Job>,
    boot: Sender<Boot>,
) {
    let model = match build() {
        Ok(model) => model,
        Err(e) => {
            let _ = boot.send(Err(e));
            return;
        }
    };
    let state = State::new(model.config(), &opts);
    let info = state.info(&model);
    let state = Arc::new(Mutex::new(state));
    if boot.send(Ok((info, Arc::clone(&state)))).is_err() {
        return;
    }
    let tape = Tape::forward_only();
    let session = Session::new(&tape);
    // Until `Job::Shutdown` or the last handle drops.
    while let Ok(Job::Forecast { req, horizon, reply }) = rx.recv() {
        let result = lock(&state).compute(req, horizon, &model, &session, &tape);
        let _ = reply.send(result);
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
/// `spectral_shift` alert state.
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
        ("alert", Json::Str(tracker.spectral_shift_state().as_str().to_string())),
    ])
}

#[cfg(test)]
impl Engine {
    /// Swap in a full window only `depth` frames deep: it reads as ready,
    /// but is too shallow for the spec's lags, so every later rollout step
    /// panics on the engine thread.
    pub(crate) fn shrink_window(&self, depth: usize) {
        let mut state = lock(&self.state);
        let mut window = FlowWindow::new(state.grid, depth);
        let frame = vec![0.0; window.frame_len()];
        for _ in 0..depth {
            window.push(&frame).unwrap();
        }
        state.window = window;
    }
}

#[cfg(test)]
mod tests {
    //! Every test here holds `obs::test_lock()`: the serving counters are
    //! process-global, and `http::tests` asserts exact counts.
    use super::*;
    use crate::api::parse_ingest_frame;
    use muse_tensor::init::SeededRng;
    use muse_tensor::Tensor;
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
        assert_eq!(engine.ingest(vec![0.0; info.frame_len]), Err(EngineError::Stopped));
        assert_eq!(engine.stats(), Err(EngineError::Stopped));
        assert_eq!(engine.quality(), Err(EngineError::Stopped));
        assert_eq!(engine.spectrum(), Err(EngineError::Stopped));
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
    fn non_finite_predictions_are_refused_and_not_journaled() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let frame_len = 2 * cfg.grid.cells();
        let build = cfg.clone();
        let engine = Engine::start(
            move || {
                let model = musenet::MuseNet::new(build);
                let params = model.params();
                let weight = params.last().expect("model has parameters");
                weight.set_value(Tensor::from_vec(vec![f32::NAN; weight.len()], &weight.dims()));
                Ok(model)
            },
            EngineOptions::default(),
        )
        .unwrap();
        for i in 0..n as u64 {
            engine.ingest(frame_at(i, frame_len)).unwrap();
        }
        let refused = obs::counter("serve.forecasts_non_finite").get();
        assert_eq!(engine.forecast(2), Err(EngineError::NonFinite { horizon: 2 }));
        // The memoized step is refused again, not served on the second ask.
        assert_eq!(engine.forecast(1), Err(EngineError::NonFinite { horizon: 1 }));
        assert_eq!(obs::counter("serve.forecasts_non_finite").get(), refused + 2);
        let q = engine.quality().unwrap();
        assert_eq!(q.get("pending").unwrap().as_f64(), Some(0.0), "refused forecasts are not journaled");
    }

    #[test]
    fn queued_misses_see_every_landed_ingest_and_share_the_memo() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let engine = start_filled(&cfg, n);
        let frame_len = engine.info().frame_len;
        // Two misses queue behind the held lock; an ingest lands before
        // the engine thread can take it.
        let (first, second) = {
            let mut state = lock(&engine.state);
            let (first_reply, first) = mpsc::channel();
            let (second_reply, second) = mpsc::channel();
            engine.tx.send(Job::Forecast { req: 1, horizon: 2, reply: first_reply }).unwrap();
            engine.tx.send(Job::Forecast { req: 2, horizon: 1, reply: second_reply }).unwrap();
            state.ingest(3, &frame_at(n as u64, frame_len)).unwrap();
            (first, second)
        };
        let (first, second) = (first.recv().unwrap().unwrap(), second.recv().unwrap().unwrap());
        assert_eq!(first.target_index, n as u64 + 2, "the forecast must see the landed ingest");
        assert_eq!(second.target_index, n as u64 + 1);
        let expected = reference(&cfg, n + 1, 2);
        assert_bits(&first, &expected[1]);
        assert_bits(&second, &expected[0]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.batches, stats.forecasts), (2, 2), "each forecast is a batch of one");
        assert_eq!((stats.rollout_steps, stats.memo_hits), (2, 1), "the second miss found its step computed");
    }

    #[test]
    fn memo_hits_splice_the_text_rendered_with_the_step() {
        let _g = obs::test_lock();
        let cfg = day_config();
        let engine = start_filled(&cfg, cfg.spec.min_target());
        let computed = engine.forecast(24).unwrap();
        for h in [24, 3, 1] {
            let resp = engine.forecast(h).unwrap();
            let json = resp.to_json();
            assert!(matches!(json.get("prediction"), Some(Json::Raw(_))), "horizon {h}");
            let fresh = ForecastResponse { rendered: StepJson::default(), ..resp.clone() };
            assert_eq!(json.render(), fresh.to_json().render(), "horizon {h}: cached text diverged");
        }
        assert!(matches!(computed.to_json().get("latent_norms"), Some(Json::Raw(_))), "computed on a miss");
        assert_eq!(engine.stats().unwrap().memo_hits, 3);
    }

    #[test]
    fn mutated_ingest_bodies_are_refused_and_leave_the_state_alone() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target() as u64;
        let engine = start_filled(&cfg, n as usize);
        let frame_len = engine.info().frame_len;
        engine.forecast(2).unwrap();
        let observed = |engine: &Engine| {
            let state = lock(&engine.state);
            let memo = (state.staging.rollout.bases().to_vec(), state.staging.rollout.computed());
            (state.frames_ingested, state.window.next_index(), memo)
        };
        let mut rng = SeededRng::new(0x494e_4753); // "INGS"
        let mut accepted = 0;
        for case in 0..600u64 {
            let frame = frame_at(n + case, frame_len);
            let raw: Vec<u8> = frame.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut body = raw.clone();
            let mut content_type = "application/octet-stream";
            match rng.index(6) {
                // Truncated anywhere, including inside one float.
                0 => body.truncate(rng.index(raw.len())),
                // One value turned into a NaN or an infinity.
                1 => {
                    let at = 4 * rng.index(frame_len);
                    // Exponent all ones: ±infinity, or a NaN when the mantissa is non-zero.
                    let sign_and_mantissa =
                        if rng.chance(0.5) { 0 } else { rng.next_u64() as u32 & 0x807f_ffff };
                    let bits = 0x7f80_0000 | sign_and_mantissa;
                    body[at..at + 4].copy_from_slice(&bits.to_le_bytes());
                }
                // Random bit flips: some still decode to a finite frame.
                2 => {
                    for _ in 0..1 + rng.index(3) {
                        let at = rng.index(body.len());
                        body[at] ^= 1 << rng.index(8);
                    }
                }
                // Oversized: extra floats, or the frame many times over.
                3 => {
                    let copies = if rng.chance(0.5) { 2 } else { 1 + rng.index(4096) };
                    body = raw.repeat(copies);
                    body.extend_from_slice(&raw[..4 * rng.index(frame_len)]);
                }
                // JSON variants.
                _ => {
                    content_type = "application/json";
                    let mut values: Vec<String> = frame.iter().map(|v| v.to_string()).collect();
                    let at = rng.index(frame_len);
                    match rng.index(8) {
                        0 => values[at] = "null".into(),
                        1 => values[at] = "1e999".into(),
                        2 => values[at] = "-1e39".into(),
                        3 => values[at] = "\"0.5\"".into(),
                        4 => values[at] = "[0.5]".into(),
                        5 => drop(values.pop()),
                        6 => values.push("0.5".into()),
                        _ => {}
                    }
                    let key = if rng.chance(0.1) { "frames" } else { "frame" };
                    let text = format!("{{\"{key}\": [{}]}}", values.join(","));
                    let cut = if rng.chance(0.2) { rng.index(text.len()) } else { text.len() };
                    body = text.into_bytes();
                    body.truncate(cut);
                }
            }
            let before = observed(&engine);
            let result = match parse_ingest_frame(content_type, &body) {
                Ok(frame) => engine.ingest(frame),
                Err(msg) => Err(EngineError::BadFrame(msg)),
            };
            match result {
                Ok(ack) => {
                    assert_eq!(ack.index, before.1, "case {case}");
                    accepted += 1;
                }
                Err(EngineError::BadFrame(_)) => {
                    assert_eq!(observed(&engine), before, "case {case}: a refused frame changed the state")
                }
                Err(other) => panic!("case {case}: refused as {other:?}"),
            }
        }
        assert!((1..600).contains(&accepted), "the sweep needs both outcomes ({accepted} accepted)");
        assert_eq!(engine.stats().unwrap().frames_ingested, n + accepted);
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
