//! The inference engine: the model and everything the daemon serves from,
//! behind one lock.
//!
//! The model, one hoisted forward-only tape, the flow window, the rollout
//! memo, the quality tracker, the spectral sweeper and the counters are one
//! `State` behind one `Mutex`. The HTTP worker that receives a request
//! answers it under that lock: ingests, stats, quality, alerts and spectrum
//! reads, horizon and readiness checks, and every forecast. A forecast whose
//! step the memo already holds for the current window is answered from it;
//! otherwise the worker first extends the memo with the model, then answers
//! through the same code the hits use. The worker holds the lock while the
//! model runs, so forward passes are serialised as one thread would
//! serialise them. Each forecast is answered on its own; forecasts of one
//! window state share computed steps through the memo. (`MuseNet` is
//! `Send`: its parameters are `Arc`-shared behind uncontended mutexes.)
//!
//! The forward pass dispatches its kernels to the process pool, sized by
//! `MUSE_THREADS` as in every other binary; the bits do not depend on it.
//!
//! The rollout is [`muse_traffic::Rollout`], the one implementation of the
//! Table III scheme that `MuseNet::predict_multi_step` also drives, run at
//! batch 1 over the ring buffer ([`FlowWindow`] is its frame source). It is
//! memoized by [`FlowWindow::next_index`]: the window is append-only, so
//! that index fixes every frame a rollout reads, and step `h` reads only
//! window frames and steps `0..h`. A forecast at an unchanged window
//! computes only the steps past the cached prefix — none for a horizon
//! already served — and an accepted ingest starts a new memo, numbered as
//! the next rollout. Each step's prediction is copied once, when the step is
//! computed, into one shared buffer, and its `prediction` and
//! `latent_norms` are rendered to JSON then too. Every forecast answered
//! with that step shares them: the response and the quality journal hold
//! the buffer, and the response splices the text in. The `req.forecast`
//! and `forecast.scored` events name the memo rollout that computed the
//! step, so the forecasts of one window state share a rollout id.
//!
//! A panic while the model extends the memo is contained: that forecast is
//! answered [`EngineError::Panicked`], counted in `serve.panics`, and the
//! memo is discarded while the window stays. The lock recovers from
//! poisoning, so no panic turns every later request into an error.
//!
//! One [`Tape::forward_only`] tape is hoisted for the engine's lifetime and
//! `reset` between passes, so activations recycle arena buffers and the
//! rollout's staging batch is filled in place. A warm memo hit makes no
//! heap allocation at all (`tests/memo_alloc.rs`). Computing a step does: a
//! forward pass still makes a few hundred small heap allocations (graph
//! nodes, shapes), since only tensor storage is recycled, and the step's
//! shared buffer and rendered text are allocated once.
//!
//! Every serving counter and histogram is looked up in the registry once,
//! when the engine is built; requests update them through the held handles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use muse_autograd::Tape;
use muse_nn::Session;
use muse_obs as obs;
use muse_obs::{Counter, Histogram, Json};
use muse_traffic::{GridMap, Rollout, SubSeriesSpec};
use musenet::{MuseNet, Trainer};

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
    /// The engine was shut down.
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
    /// Quality-monitoring configuration (journal, estimators, alerts).
    pub quality: QualityConfig,
    /// Run a spectral periodicity sweep every this many ingested frames
    /// (0 disables the sweep entirely).
    pub spectral_every: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { quality: QualityConfig::default(), spectral_every: 32 }
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
    /// on its own, so this equals `forecasts`; it stays in `/stats` because
    /// the serve benchmark's `serve.batch_size_mean` reads it.
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

/// Handle to the engine. Cheap to share behind an `Arc`; every method
/// takes `&self` and runs on the calling thread under the state lock.
pub struct Engine {
    state: Mutex<State>,
    info: EngineInfo,
}

// The engine runs the model on whichever HTTP worker holds its lock. A
// model that stops being `Send` (an `Rc` in a layer, say) fails the build
// here instead of quietly needing a model-owning thread again.
const _: () = {
    const fn send<T: Send>() {}
    const fn sync<T: Sync>() {}
    send::<MuseNet>();
    send::<Tape>();
    send::<Trainer>();
    sync::<Engine>();
};

impl Engine {
    /// An engine serving `model`.
    pub fn new(model: MuseNet, opts: EngineOptions) -> Engine {
        let state = State::new(model, &opts);
        let info = state.info();
        Engine { state: Mutex::new(state), info }
    }

    /// Boot an engine from a self-describing checkpoint
    /// (see `MuseNet::save_with_config`).
    pub fn from_checkpoint(
        path: impl Into<std::path::PathBuf>,
        opts: EngineOptions,
    ) -> Result<Engine, String> {
        let path = path.into();
        let model = MuseNet::from_checkpoint(&path)
            .map_err(|e| format!("loading checkpoint {}: {e}", path.display()))?;
        Ok(Engine::new(model, opts))
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
    /// memo when it holds the step, otherwise after the model extends it.
    pub fn forecast(&self, horizon: usize) -> Result<ForecastResponse, EngineError> {
        let req = next_request_id();
        let mut state = self.state()?;
        state.check(req, horizon)?;
        let started = Instant::now();
        let cached = state.staging.cached(state.window.next_index());
        let cached = if horizon <= cached { cached } else { state.compute(req, horizon)? };
        state.answer(req, horizon, cached, started)
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

    /// Stop serving: every later call answers [`EngineError::Stopped`].
    /// Idempotent.
    pub fn shutdown(&self) {
        lock(&self.state).stopped = true;
    }
}

/// Lock `m` even if a panic poisoned it. [`State::compute`] contains model
/// panics before they can poison the state lock; anything else that
/// unwinds while holding it (an HTTP handler, say) leaves the state
/// usable, and one panic must not turn every later request into a `500`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What one computed rollout step answers with: its prediction, shared by
/// every response and journal entry answered from it, and its latent norms
/// and their rendered JSON.
struct Step {
    prediction: Arc<[f32]>,
    norms: LatentNorms,
    json: StepJson,
}

/// The rollout memo: a batch-1 [`Rollout`] from window state
/// `rollout.bases()[0]`, plus what each computed step answers with.
struct Staging {
    rollout: Rollout,
    steps: Vec<Step>,
    /// Memo rollouts started so far: the id of the one that computed
    /// `steps`.
    rollouts: u64,
}

impl Staging {
    fn new(grid: GridMap, spec: &SubSeriesSpec, rollouts: u64) -> Staging {
        Staging {
            rollout: Rollout::new(grid, *spec),
            steps: Vec::with_capacity(spec.intervals_per_day),
            rollouts,
        }
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
    fn extend(&mut self, model: &MuseNet, tape: &Tape, window: &FlowWindow, max_h: usize) -> usize {
        let session = Session::new(tape);
        let next = window.next_index();
        let cached = self.cached(next);
        if cached == 0 {
            self.rollout.start(&[next as usize]);
            self.steps.clear();
            self.rollouts += 1;
        }
        while self.rollout.computed() < max_h {
            self.rollout.advance(window, |b| {
                tape.reset();
                session.reset();
                let out = model.infer_raw(&session, &b.closeness, &b.period, &b.trend);
                let norms = LatentNorms {
                    closeness: out.exclusive_mu_norms[0],
                    period: out.exclusive_mu_norms[1],
                    trend: out.exclusive_mu_norms[2],
                    interactive: out.interactive_mu_norm,
                };
                let prediction = Arc::from(out.prediction.as_slice());
                let json = StepJson::render(&prediction, &norms);
                self.steps.push(Step { prediction, norms, json });
                out.prediction
            });
        }
        cached
    }
}

/// The serving counters and histograms, interned when the engine is built
/// (so each exports from then on, `muse_serve_panics_total` before any
/// panic).
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

/// Everything the daemon serves from, shared by the HTTP workers behind
/// one lock.
struct State {
    model: MuseNet,
    /// Forward-only, `reset` before every pass.
    tape: Tape,
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
    fn new(model: MuseNet, opts: &EngineOptions) -> State {
        let (spec, grid) = (model.config().spec, model.config().grid);
        State {
            model,
            tape: Tape::forward_only(),
            window: FlowWindow::for_spec(grid, &spec),
            staging: Staging::new(grid, &spec, 0),
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

    /// Extend the memo to `horizon` steps with the model and return how
    /// many steps were already cached. A panic in the model discards the
    /// memo and refuses this forecast.
    fn compute(&mut self, req: u64, horizon: usize) -> Result<usize, EngineError> {
        let State { staging, window, model, tape, .. } = self;
        let extended = catch_unwind(AssertUnwindSafe(|| {
            let _span = obs::span("serve.forecast.batch");
            staging.extend(model, tape, window, horizon)
        }));
        extended.map_err(|_| {
            self.metrics.panics.add(1);
            reject(req, "forecast", "panic".to_string());
            self.staging = Staging::new(self.grid, &self.spec, self.staging.rollouts);
            EngineError::Panicked
        })
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

        let step = &self.staging.steps[horizon - 1];
        if !step.prediction.iter().all(|v| v.is_finite()) {
            self.metrics.non_finite.add(1);
            reject(req, "forecast", "non_finite".to_string());
            return Err(EngineError::NonFinite { horizon });
        }
        let target = self.window.next_index() + horizon as u64 - 1;
        let rollout = self.staging.rollouts;
        self.tracker.record_forecast(req, rollout, horizon, target, Arc::clone(&step.prediction));
        obs::emit_with("req.forecast", || {
            vec![
                ("request", Json::Num(req as f64)),
                ("rollout", Json::Num(rollout as f64)),
                ("horizon", Json::Num(horizon as f64)),
                ("target", Json::Num(target as f64)),
            ]
        });
        Ok(ForecastResponse {
            request_id: req,
            horizon,
            target_index: target,
            shape: [2, self.grid.height, self.grid.width],
            prediction: Arc::clone(&step.prediction),
            latent_norms: step.norms,
            rendered: step.json.clone(),
        })
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
    /// panics.
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
    use std::time::Duration;

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

    fn start_tiny() -> Engine {
        Engine::new(MuseNet::new(tiny_config()), EngineOptions::default())
    }

    /// An engine serving an untrained `cfg` model, filled with frames `0..n`.
    fn start_filled(cfg: &MuseNetConfig, n: usize) -> Engine {
        let engine = Engine::new(MuseNet::new(cfg.clone()), EngineOptions::default());
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
        MuseNet::new(cfg.clone()).predict_multi_step(&flows, &cfg.spec, &[base], horizons)
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
        let engine = start_tiny();
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
        let expected = reference(&cfg, n, 2);
        for threads in [1usize, 2, 4] {
            // The model runs on the calling thread, so its pool is the caller's.
            let engine = start_filled(&cfg, n);
            let resp = muse_parallel::with_threads(threads, || engine.forecast(2)).unwrap();
            assert_eq!(engine.stats().unwrap().rollout_steps, 2, "{threads} threads: computed, not a hit");
            assert_bits(&resp, &expected[1]);
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
        let model = MuseNet::new(cfg.clone());
        let params = model.params();
        let weight = params.last().expect("model has parameters");
        weight.set_value(Tensor::from_vec(vec![f32::NAN; weight.len()], &weight.dims()));
        let engine = Engine::new(model, EngineOptions::default());
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
        // Two misses block on the held lock; an ingest lands before either
        // can take it.
        let (first, second) = std::thread::scope(|scope| {
            let mut state = lock(&engine.state);
            let minted = NEXT_REQUEST_ID.load(Ordering::Relaxed);
            let first = scope.spawn(|| engine.forecast(2));
            let second = scope.spawn(|| engine.forecast(1));
            // Each forecast mints its request ID just before it takes the lock.
            while NEXT_REQUEST_ID.load(Ordering::Relaxed) < minted + 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            state.ingest(next_request_id(), &frame_at(n as u64, frame_len)).unwrap();
            drop(state);
            (first.join().unwrap().unwrap(), second.join().unwrap().unwrap())
        });
        assert_eq!(first.target_index, n as u64 + 2, "the forecast must see the landed ingest");
        assert_eq!(second.target_index, n as u64 + 1);
        let expected = reference(&cfg, n + 1, 2);
        assert_bits(&first, &expected[1]);
        assert_bits(&second, &expected[0]);
        let stats = engine.stats().unwrap();
        assert_eq!((stats.batches, stats.forecasts), (2, 2), "each forecast is a batch of one");
        // Whichever takes the lock first, the other finds its steps computed.
        assert_eq!(stats.rollout_steps, 2, "no step is computed twice");
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
    fn a_memo_rollout_names_every_forecast_it_answers() {
        let _g = obs::test_lock();
        let cfg = tiny_config();
        let n = cfg.spec.min_target();
        let engine = start_filled(&cfg, n);
        let path = std::env::temp_dir().join(format!("muse-serve-rollout-id-{}.jsonl", std::process::id()));
        obs::open_trace(&path).unwrap();
        // One computed forecast and two hits on one window, then a new window.
        let first = engine.forecast(2).unwrap();
        let hits = [engine.forecast(1).unwrap(), engine.forecast(2).unwrap()];
        engine.ingest(frame_at(n as u64, engine.info().frame_len)).unwrap();
        engine.forecast(1).unwrap();
        obs::close_trace();
        obs::disable();
        let events = obs::read_trace(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let field = |e: &Json, name: &str| e.get(name).and_then(Json::as_f64).unwrap() as u64;
        let of = |name: &str| -> Vec<(u64, u64)> {
            events
                .iter()
                .filter(|e| e.get("ev").and_then(Json::as_str) == Some(name))
                .map(|e| (field(e, "request"), field(e, "rollout")))
                .collect()
        };
        let forecasts = of("req.forecast");
        assert_eq!(forecasts.len(), 4);
        let id = forecasts[0].1;
        let rollouts: Vec<u64> = forecasts.iter().map(|&(_, r)| r).collect();
        assert_eq!(rollouts, [id, id, id, id + 1], "hits share the id; an accepted ingest starts a new one");
        // The hits share the computed step's buffer, not a copy of it.
        assert!(Arc::ptr_eq(&first.prediction, &hits[1].prediction));
        // The horizon-1 hit targeted the ingested frame: its score carries the id.
        assert_eq!(of("forecast.scored"), [(hits[0].request_id, id)]);
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
        let engine = start_tiny();
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
