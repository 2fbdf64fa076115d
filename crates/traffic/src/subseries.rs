//! Definition 3: intercepting a flow series into closeness / period / trend
//! sub-series (Eqs. 3–5), and assembling training batches from them.

use crate::flow::FlowSeries;
use crate::grid::GridMap;
use muse_tensor::Tensor;

/// Lengths and resolution of the multi-periodic interception.
///
/// Following DeepSTN+ and §IV-E of the paper, the defaults are
/// `Lc = 3, Lp = 4, Lt = 4` with hourly / daily / weekly resolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubSeriesSpec {
    /// Closeness length `Lc` (most recent intervals).
    pub lc: usize,
    /// Period length `Lp` (daily lags).
    pub lp: usize,
    /// Trend length `Lt` (weekly lags).
    pub lt: usize,
    /// Sampling frequency `f`: intervals per day.
    pub intervals_per_day: usize,
    /// Days per trend step. The paper's trend resolution is weekly (7);
    /// auto-detected specs may use another super-period, e.g. a 3-day
    /// cycle discovered spectrally.
    pub trend_days: usize,
}

impl SubSeriesSpec {
    /// Paper defaults: `Lc=3, Lp=4, Lt=4` with a weekly trend.
    pub fn paper_default(intervals_per_day: usize) -> Self {
        SubSeriesSpec { lc: 3, lp: 4, lt: 4, intervals_per_day, trend_days: 7 }
    }

    /// Smallest target index `n` with full history available: the deepest
    /// lag of the three sub-series.
    pub fn min_target(&self) -> usize {
        self.trend_depth().max(self.lp * self.intervals_per_day).max(self.lc)
    }

    /// How far back the trend sub-series reaches (`Lt` trend steps).
    fn trend_depth(&self) -> usize {
        self.lt * self.intervals_per_day * self.trend_days
    }

    /// Closeness lag offsets (from target `n`): `n-Lc .. n-1`.
    pub fn closeness_lags(&self) -> Vec<usize> {
        (1..=self.lc).rev().collect()
    }

    /// Period lag offsets: `n - k·f` for `k = Lp .. 1`.
    pub fn period_lags(&self) -> Vec<usize> {
        (1..=self.lp).rev().map(|k| k * self.intervals_per_day).collect()
    }

    /// Trend lag offsets: `n - k·f·trend_days` for `k = Lt .. 1`.
    pub fn trend_lags(&self) -> Vec<usize> {
        (1..=self.lt).rev().map(|k| k * self.intervals_per_day * self.trend_days).collect()
    }

    /// Total sub-series length `L = Lc + Lp + Lt` (used in Table I).
    pub fn total_frames(&self) -> usize {
        self.lc + self.lp + self.lt
    }

    /// Derive a spec from spectrally detected periods (strongest first, as
    /// returned by `muse_fft::PeriodDetector`): the shorter of the top two
    /// periods becomes the daily resolution, the longer sets the trend
    /// super-period, and the paper's `Lc=3, Lp=4, Lt=4` lengths are shrunk
    /// until the spec fits a series of `series_len` intervals.
    ///
    /// With the paper's own periodicities (daily plus weekly, e.g. periods
    /// 24 and 168 at hourly cadence) and enough history this reproduces
    /// [`paper_default`](Self::paper_default) exactly.
    pub fn from_detected(
        periods: &[muse_fft::DetectedPeriod],
        series_len: usize,
    ) -> Result<SubSeriesSpec, String> {
        let mut top: Vec<usize> = periods.iter().take(2).map(|p| p.intervals).collect();
        top.sort_unstable();
        let &intervals_per_day = top.first().ok_or("no periods detected")?;
        if intervals_per_day < 2 {
            return Err(format!("detected period {intervals_per_day} is too short"));
        }
        let trend_days = match top.get(1) {
            Some(&long) if long > intervals_per_day => {
                ((long as f64 / intervals_per_day as f64).round() as usize).max(2)
            }
            _ => 7, // one period detected: keep the paper's weekly trend
        };
        let mut spec = SubSeriesSpec { lc: 3, lp: 4, lt: 4, intervals_per_day, trend_days };
        while spec.lt > 1 && spec.trend_depth() >= series_len {
            spec.lt -= 1;
        }
        if spec.trend_depth() >= series_len {
            return Err(format!(
                "series of {series_len} intervals cannot cover one trend step of \
                 {intervals_per_day}x{trend_days} intervals"
            ));
        }
        // Shrink the shorter lags into the trend depth, so `min_target` is
        // the trend depth and fits the series.
        while spec.lp > 1 && spec.lp * spec.intervals_per_day > spec.trend_depth() {
            spec.lp -= 1;
        }
        while spec.lc > 1 && spec.lc > spec.trend_depth() {
            spec.lc -= 1;
        }
        Ok(spec)
    }
}

/// One training sample: channel-stacked sub-series plus the target frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Closeness `[2·Lc, H, W]`.
    pub closeness: Tensor,
    /// Period `[2·Lp, H, W]`.
    pub period: Tensor,
    /// Trend `[2·Lt, H, W]`.
    pub trend: Tensor,
    /// Target flow `X_n`, `[2, H, W]`.
    pub target: Tensor,
    /// Global target interval index `n`.
    pub index: usize,
}

/// A batch of samples with the sub-series stacked along the channel axis:
/// closeness `[B, 2·Lc, H, W]`, period `[B, 2·Lp, H, W]`,
/// trend `[B, 2·Lt, H, W]`, target `[B, 2, H, W]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Closeness sub-series.
    pub closeness: Tensor,
    /// Period sub-series.
    pub period: Tensor,
    /// Trend sub-series.
    pub trend: Tensor,
    /// Target frames.
    pub target: Tensor,
    /// Target interval indices (length `B`).
    pub indices: Vec<usize>,
}

impl Batch {
    /// Batch size.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// An empty staging batch for [`batch_into`] — its tensors are resized
    /// on first fill and reused afterwards.
    pub fn staging() -> Self {
        let zero = || Tensor::zeros(&[0]);
        Batch { closeness: zero(), period: zero(), trend: zero(), target: zero(), indices: Vec::new() }
    }
}

/// The most recent frame of a stacked sub-series `[B, 2·L, H, W]`: its last
/// two channels, `[B, 2, H, W]`.
pub fn last_frame(x: &Tensor) -> Tensor {
    let ch = x.dims()[1];
    x.split(1, &[ch - 2, 2]).pop().expect("two chunks")
}

/// Stack `frames` (each `[2, H, W]` at `n - lag`) along the channel axis.
fn gather_lagged(flows: &FlowSeries, n: usize, lags: &[usize]) -> Tensor {
    let frames: Vec<Tensor> = lags.iter().map(|&lag| flows.frame(n - lag)).collect();
    let refs: Vec<&Tensor> = frames.iter().collect();
    Tensor::concat(&refs, 0)
}

/// Extract the sample with target index `n` (Eqs. 3–5 with `i = n`).
///
/// Panics if `n < spec.min_target()` or `n >= flows.len()`.
pub fn sample(flows: &FlowSeries, spec: &SubSeriesSpec, n: usize) -> Sample {
    assert!(n >= spec.min_target(), "target {n} lacks history (min {})", spec.min_target());
    assert!(n < flows.len(), "target {n} beyond series length {}", flows.len());
    Sample {
        closeness: gather_lagged(flows, n, &spec.closeness_lags()),
        period: gather_lagged(flows, n, &spec.period_lags()),
        trend: gather_lagged(flows, n, &spec.trend_lags()),
        target: flows.frame(n),
        index: n,
    }
}

/// Assemble a batch for the given target indices.
pub fn batch(flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> Batch {
    let mut out = Batch::staging();
    batch_into(flows, spec, indices, &mut out);
    out
}

/// Reshape `t` to `dims`, reusing its buffer when the element count already
/// matches (the caller overwrites every element).
fn stage_tensor(t: &mut Tensor, dims: &[usize]) {
    if t.dims() != dims {
        let total: usize = dims.iter().product();
        if t.len() == total {
            *t = std::mem::replace(t, Tensor::zeros(&[0])).reshape(dims);
        } else {
            *t = Tensor::zeros(dims);
        }
    }
}

/// Random access to a flow series' frames by absolute interval index —
/// all that the sub-series fill reads from a series.
pub trait FrameSource {
    /// Frame `X_i` as row-major `[2, H, W]` scalars.
    fn frame_slice(&self, i: usize) -> &[f32];
}

impl FrameSource for FlowSeries {
    fn frame_slice(&self, i: usize) -> &[f32] {
        let len = 2 * self.grid().cells();
        &self.tensor().as_slice()[i * len..(i + 1) * len]
    }
}

/// Stage `t` as `[B, 2·|lags|, H, W]`: row `b`, slot `k` holds frame
/// `targets[b] - lags[k]` as `frame(b, index)` returns it — the layout of
/// concat + stack.
fn fill_lags<'a>(
    t: &mut Tensor,
    grid: GridMap,
    targets: &[usize],
    lags: &[usize],
    frame: impl Fn(usize, usize) -> &'a [f32],
) {
    let frame_len = 2 * grid.cells();
    stage_tensor(t, &[targets.len(), 2 * lags.len(), grid.height, grid.width]);
    let dst = t.as_mut_slice();
    for (row, &n) in targets.iter().enumerate() {
        for (k, &lag) in lags.iter().enumerate() {
            let at = (row * lags.len() + k) * frame_len;
            dst[at..at + frame_len].copy_from_slice(frame(row, n - lag));
        }
    }
}

/// Assemble a batch for the given target indices **into** `out`, reusing its
/// tensor buffers when shapes allow. Frames are copied straight from the
/// series' backing storage — no per-sample staging tensors are created, and
/// a steady-state training loop reuses one `Batch` allocation-free.
///
/// Produces exactly the same batch as [`batch`].
pub fn batch_into(flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize], out: &mut Batch) {
    assert!(!indices.is_empty(), "empty batch");
    let min = spec.min_target();
    for &n in indices {
        assert!(n >= min, "target {n} lacks history (min {min})");
        assert!(n < flows.len(), "target {n} beyond series length {}", flows.len());
    }
    out.indices.clear();
    out.indices.extend_from_slice(indices);
    let grid = flows.grid();
    let source = |_, i| flows.frame_slice(i);
    fill_lags(&mut out.closeness, grid, &out.indices, &spec.closeness_lags(), source);
    fill_lags(&mut out.period, grid, &out.indices, &spec.period_lags(), source);
    fill_lags(&mut out.trend, grid, &out.indices, &spec.trend_lags(), source);
    fill_lags(&mut out.target, grid, &out.indices, &[0], source);
}

/// Bases a [`roll_out`] advances together: enough to batch the forward
/// passes, few enough that peak activation memory does not grow with the
/// number of evaluated indices.
const ROLLOUT_CHUNK: usize = 64;

/// The autoregressive multi-step rollout of Table III for a batch of base
/// indices `n`, advanced one step at a time. Step `h` forecasts frames
/// `n + h`: closeness lags that reach frames at or past `n` read the
/// rollout's own earlier predictions, every other lag reads the
/// [`FrameSource`]. Period/trend lags are at least one day, so with
/// horizons shorter than a day they only ever read real frames.
///
/// The staging [`Batch`] and the step buffer are reused across
/// [`start`](Rollout::start)s, so a warm rollout allocates nothing beyond
/// what its predictor does.
pub struct Rollout {
    grid: GridMap,
    spec: SubSeriesSpec,
    /// Closeness, period and trend lags.
    lags: [Vec<usize>; 3],
    bases: Vec<usize>,
    batch: Batch,
    /// `steps[h]` is step `h`'s `[B, 2, H, W]` prediction.
    steps: Vec<Tensor>,
}

impl Rollout {
    /// An idle rollout for `grid` and `spec`; call [`start`](Self::start).
    pub fn new(grid: GridMap, spec: SubSeriesSpec) -> Self {
        Rollout {
            grid,
            spec,
            lags: [spec.closeness_lags(), spec.period_lags(), spec.trend_lags()],
            bases: Vec::new(),
            batch: Batch::staging(),
            steps: Vec::with_capacity(spec.intervals_per_day),
        }
    }

    /// Restart from base indices `bases`, dropping every computed step.
    pub fn start(&mut self, bases: &[usize]) {
        assert!(!bases.is_empty(), "empty rollout");
        let min = self.spec.min_target();
        for &n in bases {
            assert!(n >= min, "base {n} lacks history (min {min})");
        }
        self.bases.clear();
        self.bases.extend_from_slice(bases);
        self.steps.clear();
        // Target frames lie in the future: the staged target is never
        // written, so it stays zero.
        let (h, w) = (self.grid.height, self.grid.width);
        stage_tensor(&mut self.batch.target, &[bases.len(), 2, h, w]);
    }

    /// Base indices of the current rollout.
    pub fn bases(&self) -> &[usize] {
        &self.bases
    }

    /// Steps computed since [`start`](Self::start).
    pub fn computed(&self) -> usize {
        self.steps.len()
    }

    /// Compute the next step: stage the batch for targets `n + h` and keep
    /// what `predict` returns for it.
    pub fn advance(&mut self, source: &impl FrameSource, predict: impl FnOnce(&Batch) -> Tensor) {
        let h = self.steps.len();
        assert!(h < self.spec.intervals_per_day, "rollout assumes horizons shorter than one day");
        let Rollout { grid, lags: [closeness, period, trend], bases, batch, steps, .. } = self;
        let frame_len = 2 * grid.cells();
        batch.indices.clear();
        batch.indices.extend(bases.iter().map(|&n| n + h));
        let predicted_or_source = |row: usize, i: usize| {
            let n = bases[row];
            if i >= n {
                &steps[i - n].as_slice()[row * frame_len..(row + 1) * frame_len]
            } else {
                source.frame_slice(i)
            }
        };
        fill_lags(&mut batch.closeness, *grid, &batch.indices, closeness, predicted_or_source);
        let from_source = |_, i| source.frame_slice(i);
        fill_lags(&mut batch.period, *grid, &batch.indices, period, from_source);
        fill_lags(&mut batch.trend, *grid, &batch.indices, trend, from_source);
        let prediction = predict(batch);
        assert_eq!(prediction.dims(), batch.target.dims(), "a step must predict one frame per base");
        steps.push(prediction);
    }
}

/// Roll every base in `bases` forward `horizons` steps, `ROLLOUT_CHUNK`
/// bases at a time, calling `predict` once per chunk and step. Returns one
/// `[N, 2, H, W]` tensor per horizon, rows in `bases` order.
pub fn roll_out(
    flows: &FlowSeries,
    spec: &SubSeriesSpec,
    bases: &[usize],
    horizons: usize,
    mut predict: impl FnMut(&Batch) -> Tensor,
) -> Vec<Tensor> {
    assert!(horizons >= 1, "need at least one horizon");
    let mut rollout = Rollout::new(flows.grid(), *spec);
    let mut chunks: Vec<Vec<Tensor>> = vec![Vec::new(); horizons];
    for part in bases.chunks(ROLLOUT_CHUNK) {
        rollout.start(part);
        for _ in 0..horizons {
            rollout.advance(flows, &mut predict);
        }
        for (h, step) in rollout.steps.drain(..).enumerate() {
            chunks[h].push(step);
        }
    }
    chunks
        .into_iter()
        .map(|mut parts| match parts.len() {
            1 => parts.pop().expect("one chunk"),
            _ => Tensor::concat(&parts.iter().collect::<Vec<_>>(), 0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flow series whose every element equals its interval index, so lag
    /// arithmetic is directly observable.
    fn indexed_series(t: usize) -> FlowSeries {
        let grid = GridMap::new(2, 2);
        let mut data = Vec::with_capacity(t * 8);
        for i in 0..t {
            data.extend(std::iter::repeat_n(i as f32, 8));
        }
        FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, 2, 2]))
    }

    fn spec4() -> SubSeriesSpec {
        SubSeriesSpec { lc: 3, lp: 2, lt: 1, intervals_per_day: 4, trend_days: 7 }
    }

    #[test]
    fn min_target_needs_full_trend_history() {
        let s = spec4();
        assert_eq!(s.min_target(), 28);
        let paper = SubSeriesSpec::paper_default(48);
        assert_eq!(paper.min_target(), 4 * 48 * 7);
        assert_eq!(paper.total_frames(), 11);
    }

    #[test]
    fn min_target_covers_period_lags_past_the_trend() {
        // Two-day period lags over a one-day trend: the period branch
        // reaches four frames back, the trend only two.
        let s = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 2, trend_days: 1 };
        assert_eq!(s.min_target(), 4);
        let smp = sample(&indexed_series(5), &s, s.min_target());
        // Period: frames 0 and 2; trend: frame 2; closeness: frames 2, 3.
        assert_eq!(smp.period.at(&[0, 0, 0]), 0.0);
        assert_eq!(smp.trend.at(&[0, 0, 0]), 2.0);
        assert_eq!(smp.closeness.at(&[2, 0, 0]), 3.0);
    }

    #[test]
    fn lags_match_equations() {
        let s = spec4();
        assert_eq!(s.closeness_lags(), vec![3, 2, 1]); // X_{n-3}..X_{n-1}
        assert_eq!(s.period_lags(), vec![8, 4]); // X_{n-2f}, X_{n-f}
        assert_eq!(s.trend_lags(), vec![28]); // X_{n-7f}
    }

    #[test]
    fn sample_gathers_correct_frames() {
        let s = spec4();
        let flows = indexed_series(40);
        let n = 30;
        let smp = sample(&flows, &s, n);
        // Closeness channels: frames 27, 28, 29, each contributing 2 channels.
        assert_eq!(smp.closeness.dims(), &[6, 2, 2]);
        assert_eq!(smp.closeness.at(&[0, 0, 0]), 27.0);
        assert_eq!(smp.closeness.at(&[2, 0, 0]), 28.0);
        assert_eq!(smp.closeness.at(&[4, 1, 1]), 29.0);
        // Period: frames 22, 26.
        assert_eq!(smp.period.dims(), &[4, 2, 2]);
        assert_eq!(smp.period.at(&[0, 0, 0]), 22.0);
        assert_eq!(smp.period.at(&[2, 0, 0]), 26.0);
        // Trend: frame 2.
        assert_eq!(smp.trend.dims(), &[2, 2, 2]);
        assert_eq!(smp.trend.at(&[0, 0, 0]), 2.0);
        // Target: frame 30.
        assert_eq!(smp.target.at(&[0, 0, 0]), 30.0);
        assert_eq!(smp.index, 30);
    }

    #[test]
    #[should_panic(expected = "lacks history")]
    fn sample_rejects_early_target() {
        let s = spec4();
        let flows = indexed_series(40);
        let _ = sample(&flows, &s, 10);
    }

    #[test]
    fn batch_stacks_samples() {
        let s = spec4();
        let flows = indexed_series(40);
        let b = batch(&flows, &s, &[28, 30, 35]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.closeness.dims(), &[3, 6, 2, 2]);
        assert_eq!(b.period.dims(), &[3, 4, 2, 2]);
        assert_eq!(b.trend.dims(), &[3, 2, 2, 2]);
        assert_eq!(b.target.dims(), &[3, 2, 2, 2]);
        assert_eq!(b.target.at(&[1, 0, 0, 0]), 30.0);
    }

    #[test]
    fn batch_into_matches_batch_and_reuses_buffers() {
        let s = spec4();
        let flows = indexed_series(40);
        let mut staging = Batch::staging();
        // Two rounds with the same batch size: the second must reuse the
        // first round's buffers, and both must equal the one-shot `batch`.
        for indices in [&[28usize, 30, 35][..], &[29, 31, 36][..]] {
            batch_into(&flows, &s, indices, &mut staging);
            let ptr_before = staging.closeness.as_slice().as_ptr();
            let fresh = batch(&flows, &s, indices);
            for (a, b) in [
                (&staging.closeness, &fresh.closeness),
                (&staging.period, &fresh.period),
                (&staging.trend, &fresh.trend),
                (&staging.target, &fresh.target),
            ] {
                assert_eq!(a.dims(), b.dims());
                assert_eq!(a.as_slice(), b.as_slice());
            }
            assert_eq!(staging.indices, indices);
            batch_into(&flows, &s, indices, &mut staging);
            assert_eq!(staging.closeness.as_slice().as_ptr(), ptr_before, "staging buffer was reallocated");
        }
    }

    /// A predictor forecasting `-target` everywhere, so predicted frames
    /// are told apart from real ones.
    fn negated_targets(b: &Batch) -> Tensor {
        let frame = b.target.len() / b.len();
        let data = b.indices.iter().flat_map(|&n| std::iter::repeat_n(-(n as f32), frame)).collect();
        Tensor::from_vec(data, b.target.dims())
    }

    /// The frame values of a staged sub-series, row by row.
    fn frame_values(t: &Tensor) -> Vec<f32> {
        t.as_slice().chunks(8).map(|frame| frame[0]).collect()
    }

    #[test]
    fn rollout_backfills_closeness_from_its_own_steps() {
        let s = spec4();
        // Base 31 is one past the last real frame, as when serving.
        let flows = indexed_series(31);
        let mut rollout = Rollout::new(flows.grid(), s);
        rollout.start(&[31, 28]);
        rollout.advance(&flows, negated_targets);
        rollout.advance(&flows, negated_targets);
        let mut staged = None;
        rollout.advance(&flows, |b| {
            staged = Some(b.clone());
            negated_targets(b)
        });
        let b = staged.expect("step ran");
        assert_eq!(b.indices, vec![33, 30]);
        // Closeness X_{n+2-3..n+2-1}: one real frame, then steps 0 and 1.
        assert_eq!(frame_values(&b.closeness), vec![30.0, -31.0, -32.0, 27.0, -28.0, -29.0]);
        // Period and trend always read the source.
        assert_eq!(frame_values(&b.period), vec![25.0, 29.0, 22.0, 26.0]);
        assert_eq!(frame_values(&b.trend), vec![5.0, 2.0]);
        assert_eq!(b.target.as_slice(), &[0.0; 16], "future targets are staged as zeros");
        assert_eq!(rollout.computed(), 3);
        assert_eq!(frame_values(&rollout.steps[2]), vec![-33.0, -30.0]);
    }

    #[test]
    fn roll_out_chunks_bases_and_keeps_their_order() {
        let s = spec4();
        let bases: Vec<usize> = (28..28 + ROLLOUT_CHUNK + 5).rev().collect();
        let flows = indexed_series(28 + ROLLOUT_CHUNK + 5);
        let mut calls = 0;
        let out = roll_out(&flows, &s, &bases, 3, |b| {
            calls += 1;
            negated_targets(b)
        });
        assert_eq!(calls, 2 * 3, "one call per chunk and step");
        for (h, step) in out.iter().enumerate() {
            assert_eq!(step.dims(), &[bases.len(), 2, 2, 2]);
            let want: Vec<f32> = bases.iter().map(|&n| -((n + h) as f32)).collect();
            assert_eq!(frame_values(step), want);
        }
    }

    #[test]
    #[should_panic(expected = "shorter than one day")]
    fn rollout_stops_at_one_day() {
        let s = spec4();
        let flows = indexed_series(40);
        let _ = roll_out(&flows, &s, &[30], s.intervals_per_day + 1, negated_targets);
    }

    fn dp(intervals: usize, power_share: f64) -> muse_fft::DetectedPeriod {
        muse_fft::DetectedPeriod { intervals, power_share, snr: 100.0 }
    }

    #[test]
    fn from_detected_reproduces_paper_default() {
        // Daily + weekly at hourly cadence with ample history: the derived
        // spec must coincide with the hand-written paper default.
        let spec =
            SubSeriesSpec::from_detected(&[dp(24, 0.6), dp(168, 0.3)], 24 * 7 * 4 + 100).expect("derivable");
        assert_eq!(spec, SubSeriesSpec::paper_default(24));
    }

    #[test]
    fn from_detected_expresses_off_cadence_super_period() {
        // 96 intervals/day with a 3-day super-period — inexpressible with
        // the hard-coded weekly trend.
        let spec =
            SubSeriesSpec::from_detected(&[dp(96, 0.6), dp(288, 0.3)], 96 * 3 * 4 + 50).expect("derivable");
        assert_eq!(spec.intervals_per_day, 96);
        assert_eq!(spec.trend_days, 3);
        assert_eq!((spec.lc, spec.lp, spec.lt), (3, 4, 4));
        assert_eq!(spec.min_target(), 96 * 3 * 4);
    }

    #[test]
    fn from_detected_shrinks_to_fit_short_series() {
        let len = 24 * 7 + 30;
        let spec = SubSeriesSpec::from_detected(&[dp(24, 0.6), dp(168, 0.3)], len).expect("derivable");
        assert_eq!(spec.lt, 1);
        assert!(spec.min_target() < len);
        assert_eq!(spec.min_target(), spec.trend_depth(), "period and closeness lags fit the trend");
    }

    #[test]
    fn from_detected_rejects_empty_and_too_short() {
        assert!(SubSeriesSpec::from_detected(&[], 1000).is_err());
        assert!(SubSeriesSpec::from_detected(&[dp(24, 0.5), dp(168, 0.2)], 100).is_err());
    }

    #[test]
    fn from_detected_single_period_keeps_weekly_trend() {
        let spec = SubSeriesSpec::from_detected(&[dp(48, 0.8)], 48 * 7 * 4 + 10).expect("derivable");
        assert_eq!(spec.intervals_per_day, 48);
        assert_eq!(spec.trend_days, 7);
    }
}
