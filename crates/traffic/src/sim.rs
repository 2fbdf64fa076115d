//! Agent-based city simulator — the stand-in for the paper's NYC-Bike,
//! NYC-Taxi and TaxiBJ trajectory corpora.
//!
//! The simulator counts each trip into the inflow/outflow grids as it is
//! generated, by the same Eqs. 1–2 counting function that
//! [`crate::flow::flows_from_trajectories`] applies to a stored
//! [`crate::trajectory::Trajectory`] collection, exactly as Definition 2
//! prescribes; no trajectory outlives its trip. The generated traffic
//! exhibits, by construction, the phenomena the paper's losses target:
//!
//! * **Multi-periodicity** — commuter trips create morning/evening daily
//!   peaks; weekday/weekend regimes create a weekly cycle.
//! * **Level shift** (Fig. 1 left) — "rain days" suppress all trips by a
//!   day-long damping factor.
//! * **Point shift** (Fig. 1 right) — random incidents inject a burst of
//!   trips into one region at one interval.
//! * **Interaction shift** (Fig. 2) — the mixture weight between the
//!   commuter signal (aligned with daily/weekly patterns) and recent-noise
//!   signal varies over the day, so the future correlates sometimes with
//!   closeness and sometimes with period/trend history.

use crate::flow::{count_transitions, FlowSeries};
use crate::grid::{GridMap, Region};
use crate::trajectory::TrajectoryPoint;
use muse_tensor::init::SeededRng;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// City partition.
    pub grid: GridMap,
    /// Sampling frequency `f`: intervals per day (24 ⇒ hourly intervals).
    pub intervals_per_day: usize,
    /// Number of simulated days.
    pub days: usize,
    /// Number of commuting agents.
    pub agents: usize,
    /// RNG seed (drives everything).
    pub seed: u64,
    /// Weekday index of day 0 (0 = Monday … 6 = Sunday).
    pub start_weekday: usize,
    /// Probability an agent commutes on a weekday.
    pub weekday_commute_prob: f64,
    /// Probability an agent commutes on a weekend day.
    pub weekend_commute_prob: f64,
    /// Expected leisure trips per agent per weekend day.
    pub leisure_weekend: f64,
    /// Expected leisure trips per agent per weekday.
    pub leisure_weekday: f64,
    /// Per-day probability of a weather event (level shift).
    pub weather_prob: f64,
    /// Fraction of trips retained on a weather day (< 1 damps the day).
    pub weather_damping: f64,
    /// Per-day probability of an incident (point shift outlier).
    pub incident_prob: f64,
    /// Number of burst trips an incident injects.
    pub incident_magnitude: usize,
    /// Background trips per interval per 100 agents at the diurnal peak.
    pub background_rate: f64,
    /// Inject a persistent level shift: from this interval onward every
    /// flow volume is scaled by [`CityConfig::level_shift_factor`]. This is
    /// the drift-injection scenario used to exercise live drift detection —
    /// unlike rain days (one damped day) the shift never reverts.
    pub level_shift_interval: Option<usize>,
    /// Scale factor applied from `level_shift_interval` onward (> 1 ramps
    /// traffic up, < 1 collapses it; 1.0 is a no-op).
    pub level_shift_factor: f32,
}

impl CityConfig {
    /// A small default city, convenient for tests.
    pub fn small(seed: u64) -> Self {
        CityConfig {
            grid: GridMap::new(6, 6),
            intervals_per_day: 24,
            days: 28,
            agents: 300,
            seed,
            start_weekday: 0,
            weekday_commute_prob: 0.85,
            weekend_commute_prob: 0.15,
            leisure_weekend: 1.2,
            leisure_weekday: 0.25,
            weather_prob: 0.08,
            weather_damping: 0.45,
            incident_prob: 0.10,
            incident_magnitude: 40,
            background_rate: 2.0,
            level_shift_interval: None,
            level_shift_factor: 1.0,
        }
    }

    /// Total number of intervals `T = days × f`.
    pub fn total_intervals(&self) -> usize {
        self.days * self.intervals_per_day
    }

    /// Whether `day` (0-based) is a weekend day.
    pub fn is_weekend(&self, day: usize) -> bool {
        (self.start_weekday + day) % 7 >= 5
    }
}

/// What the simulator produced, with event logs for the figure drivers.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Inflow/outflow grids, `[T, 2, H, W]`.
    pub flows: FlowSeries,
    /// Days on which a weather event damped traffic (level shifts).
    pub rain_days: Vec<usize>,
    /// `(interval, region)` of injected incidents (point shifts).
    pub incidents: Vec<(usize, Region)>,
    /// Number of generated trips (after weather damping).
    pub trips: usize,
    /// The injected `(interval, factor)` level shift, when configured.
    pub level_shift: Option<(usize, f32)>,
}

/// One commuting agent: home on the periphery, work near the centre.
#[derive(Debug, Clone, Copy)]
struct Agent {
    home: Region,
    work: Region,
    /// Personal jitter of departure times, in intervals.
    morning_offset: f32,
    evening_offset: f32,
}

/// Flows counted so far, and the number of trips behind them.
struct Tally {
    flows: FlowSeries,
    trips: usize,
}

/// The agent-based simulator.
#[derive(Debug, Clone)]
pub struct CitySimulator {
    config: CityConfig,
}

impl CitySimulator {
    /// Create a simulator for the given configuration.
    pub fn new(config: CityConfig) -> Self {
        assert!(config.intervals_per_day >= 4, "need at least 4 intervals per day");
        assert!(config.days >= 1 && config.agents >= 1, "degenerate simulation");
        CitySimulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CityConfig {
        &self.config
    }

    /// Run the simulation: generate trips and count them into flows.
    pub fn run(&self) -> SimOutput {
        let cfg = &self.config;
        let mut rng = SeededRng::new(cfg.seed);
        let agents = self.spawn_agents(&mut rng);
        let t_total = cfg.total_intervals();

        // Pre-draw day-level events.
        let rain_days: Vec<usize> = (0..cfg.days).filter(|_| rng.chance(cfg.weather_prob)).collect();
        let mut incidents: Vec<(usize, Region)> = Vec::new();
        for day in 0..cfg.days {
            if rng.chance(cfg.incident_prob) {
                let interval = (day * cfg.intervals_per_day + rng.index(cfg.intervals_per_day)).max(1);
                let region = self.random_cell(&mut rng);
                incidents.push((interval, region));
            }
        }

        let mut tally = Tally { flows: FlowSeries::zeros(cfg.grid, t_total), trips: 0 };
        for day in 0..cfg.days {
            let weekend = cfg.is_weekend(day);
            let rain = rain_days.contains(&day);
            let keep = |rng: &mut SeededRng| !rain || rng.chance(cfg.weather_damping);
            let commute_prob = if weekend { cfg.weekend_commute_prob } else { cfg.weekday_commute_prob };
            let leisure_rate = if weekend { cfg.leisure_weekend } else { cfg.leisure_weekday };

            for agent in &agents {
                // Commute: home -> work in the morning, work -> home evening.
                if rng.chance(commute_prob) && keep(&mut rng) {
                    let dep_m = self.hour_to_interval(day, 8.0 + agent.morning_offset, &mut rng);
                    self.push_trip(&mut tally, agent.home, agent.work, dep_m);
                    let dep_e = self.hour_to_interval(day, 18.0 + agent.evening_offset, &mut rng);
                    self.push_trip(&mut tally, agent.work, agent.home, dep_e);
                }
                // Leisure trips at midday/evening to random destinations.
                if rng.chance(leisure_rate.min(1.0)) && keep(&mut rng) {
                    let hour = 10.0 + rng.uniform(0.0, 10.0);
                    let dep = self.hour_to_interval(day, hour, &mut rng);
                    let dest = self.random_cell(&mut rng);
                    self.push_trip(&mut tally, agent.home, dest, dep);
                    // Return trip ~2 hours later.
                    let back = dep + (cfg.intervals_per_day / 12).max(1);
                    self.push_trip(&mut tally, dest, agent.home, back);
                }
            }

            // Diurnally modulated background churn (keeps night intervals
            // non-degenerate and adds recent-history signal).
            let peak_bg = cfg.background_rate * cfg.agents as f64 / 100.0;
            for slot in 0..cfg.intervals_per_day {
                let hour = slot as f32 * 24.0 / cfg.intervals_per_day as f32;
                let diurnal = diurnal_weight(hour);
                let lambda = peak_bg * diurnal as f64;
                let n = poisson_like(&mut rng, lambda);
                for _ in 0..n {
                    if !keep(&mut rng) {
                        continue;
                    }
                    let from = self.random_cell(&mut rng);
                    let to = self.random_neighbor(from, &mut rng);
                    let t = day * cfg.intervals_per_day + slot;
                    self.push_trip(&mut tally, from, to, t);
                }
            }
        }

        // Incident bursts: many short trips converging on one region. Trips
        // depart one interval earlier so the arrivals (the counted inflow)
        // land exactly at the logged incident interval.
        for &(interval, region) in &incidents {
            if interval == 0 {
                continue;
            }
            for _ in 0..cfg.incident_magnitude {
                let from = self.random_neighbor(region, &mut rng);
                self.push_trip(&mut tally, from, region, interval - 1);
            }
        }

        let Tally { mut flows, trips } = tally;

        // Injected distribution drift: scale every volume from the shift
        // interval onward. Applied to the counted flows (not trips) so the
        // factor is exact and fractional factors are expressible.
        let level_shift = cfg.level_shift_interval.filter(|_| cfg.level_shift_factor != 1.0).map(|start| {
            for t in start.min(t_total)..t_total {
                for channel in 0..2 {
                    for row in 0..cfg.grid.height {
                        for col in 0..cfg.grid.width {
                            *flows.volume_mut(t, channel, row, col) *= cfg.level_shift_factor;
                        }
                    }
                }
            }
            (start, cfg.level_shift_factor)
        });

        SimOutput { flows, rain_days, incidents, trips, level_shift }
    }

    // ------------------------------------------------------------- internals

    fn spawn_agents(&self, rng: &mut SeededRng) -> Vec<Agent> {
        let cfg = &self.config;
        (0..cfg.agents)
            .map(|_| {
                let home = self.edge_biased_cell(rng);
                let work = self.center_biased_cell(rng);
                Agent {
                    home,
                    work,
                    morning_offset: rng.normal_with(0.0, 0.8),
                    evening_offset: rng.normal_with(0.0, 1.0),
                }
            })
            .collect()
    }

    /// Homes cluster toward the grid periphery.
    fn edge_biased_cell(&self, rng: &mut SeededRng) -> Region {
        let g = self.config.grid;
        // Rejection sample: accept with probability growing with distance
        // from the centre.
        let c = g.center();
        let max_d = (g.height + g.width) as f32;
        for _ in 0..16 {
            let cand = self.random_cell(rng);
            let d = cand.manhattan(&c) as f32 / max_d;
            if rng.chance((0.25 + 1.5 * d).min(1.0) as f64) {
                return cand;
            }
        }
        self.random_cell(rng)
    }

    /// Workplaces cluster toward the centre (the business district).
    fn center_biased_cell(&self, rng: &mut SeededRng) -> Region {
        let g = self.config.grid;
        let c = g.center();
        let row = (c.row as f32 + rng.normal_with(0.0, g.height as f32 / 6.0)).round() as isize;
        let col = (c.col as f32 + rng.normal_with(0.0, g.width as f32 / 6.0)).round() as isize;
        g.clamp(row, col)
    }

    fn random_cell(&self, rng: &mut SeededRng) -> Region {
        let g = self.config.grid;
        Region::new(rng.index(g.height), rng.index(g.width))
    }

    fn random_neighbor(&self, r: Region, rng: &mut SeededRng) -> Region {
        let g = self.config.grid;
        let dr = rng.index(3) as isize - 1;
        let dc = rng.index(3) as isize - 1;
        let cand = g.clamp(r.row as isize + dr, r.col as isize + dc);
        if cand == r {
            // Force a move when possible.
            g.clamp(r.row as isize + 1, r.col as isize)
        } else {
            cand
        }
    }

    /// Convert an hour-of-day (with noise) into a global interval index.
    fn hour_to_interval(&self, day: usize, hour: f32, rng: &mut SeededRng) -> usize {
        let f = self.config.intervals_per_day as f32;
        let noisy = hour + rng.normal_with(0.0, 0.25);
        let slot = ((noisy / 24.0 * f).floor().max(0.0) as usize).min(self.config.intervals_per_day - 1);
        day * self.config.intervals_per_day + slot
    }

    /// Count one trip into the flows, with a midpoint for long journeys so
    /// the flows reflect pass-through traffic.
    fn push_trip(&self, tally: &mut Tally, from: Region, to: Region, depart: usize) {
        let t_total = tally.flows.len();
        if depart + 1 >= t_total || from == to {
            return;
        }
        let point = |i: usize, region: Region| TrajectoryPoint { interval: depart + i, region };
        let mut points = [point(0, from), point(1, to), point(2, to)];
        let mut len = 2;
        if from.manhattan(&to) > (self.config.grid.width + self.config.grid.height) / 3
            && depart + 2 < t_total
        {
            let mid = Region::new((from.row + to.row) / 2, (from.col + to.col) / 2);
            if mid != from && mid != to {
                points[1].region = mid;
                len = 3;
            }
        }
        count_transitions(&mut tally.flows, &points[..len]);
        tally.trips += 1;
    }
}

/// A named simulator preset whose periodicities are known by construction:
/// the generated flows are sums of cosines at the listed periods (plus a
/// positive base level and small seeded noise), so spectral detection has
/// exact integer ground truth to recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicPreset {
    /// Preset name (CLI lookup key).
    pub name: &'static str,
    /// Sampling cadence.
    pub intervals_per_day: usize,
    /// Simulated days.
    pub days: usize,
    /// `(period_in_intervals, amplitude)` components, strongest first —
    /// the dominant (shortest-ranked) component is the daily cycle.
    pub components: &'static [(usize, f64)],
}

/// Registry of known-period presets. `offcadence-96x3` is deliberately
/// inexpressible with the paper's hard-coded weekly trend: 96 intervals
/// per day with a 3-day (288-interval) super-period.
pub const PERIODIC_PRESETS: &[PeriodicPreset] = &[
    PeriodicPreset {
        name: "hourly-weekly",
        intervals_per_day: 24,
        days: 28,
        components: &[(24, 1.0), (168, 0.6)],
    },
    PeriodicPreset {
        name: "halfhour-weekly",
        intervals_per_day: 48,
        days: 21,
        components: &[(48, 1.0), (336, 0.5)],
    },
    PeriodicPreset {
        name: "offcadence-96x3",
        intervals_per_day: 96,
        days: 9,
        components: &[(96, 1.0), (288, 0.5)],
    },
];

/// Look a [`PeriodicPreset`] up by name.
pub fn periodic_preset(name: &str) -> Option<&'static PeriodicPreset> {
    PERIODIC_PRESETS.iter().find(|p| p.name == name)
}

impl PeriodicPreset {
    /// Total number of intervals `T = days × f`.
    pub fn total_intervals(&self) -> usize {
        self.days * self.intervals_per_day
    }

    /// The constructed ground-truth periods, in intervals, sorted ascending.
    pub fn true_periods(&self) -> Vec<usize> {
        let mut p: Vec<usize> = self.components.iter().map(|&(period, _)| period).collect();
        p.sort_unstable();
        p
    }

    /// Generate the preset's flow series on `grid`: every cell carries the
    /// same cosine mixture scaled by a per-cell seeded weight, on a
    /// positive base level with small seeded noise. Deterministic in
    /// `seed`; the noise is white, so it cannot move a spectral peak.
    pub fn generate(&self, grid: GridMap, seed: u64) -> FlowSeries {
        let t_total = self.total_intervals();
        let mut rng = SeededRng::new(seed);
        let mut weights = Vec::with_capacity(2 * grid.cells());
        for _ in 0..2 * grid.cells() {
            weights.push(rng.uniform(0.6, 1.4));
        }
        let mut flows = FlowSeries::zeros(grid, t_total);
        for t in 0..t_total {
            let mut signal = 10.0f64;
            for &(period, amp) in self.components {
                signal += amp * (2.0 * std::f64::consts::PI * t as f64 / period as f64).cos();
            }
            let mut cell = 0usize;
            for channel in 0..2 {
                for row in 0..grid.height {
                    for col in 0..grid.width {
                        let noise = rng.uniform(-0.05, 0.05);
                        *flows.volume_mut(t, channel, row, col) = signal as f32 * weights[cell] + noise;
                        cell += 1;
                    }
                }
            }
        }
        flows
    }
}

/// Smooth diurnal activity profile in `[0.05, 1.0]`, peaking around 8 am and
/// 6 pm like the empirical flow plots in the paper's Fig. 2/4.
pub fn diurnal_weight(hour: f32) -> f32 {
    let morning = (-((hour - 8.0) * (hour - 8.0)) / 4.5).exp();
    let evening = (-((hour - 18.0) * (hour - 18.0)) / 6.0).exp();
    let midday = 0.35 * (-((hour - 13.0) * (hour - 13.0)) / 18.0).exp();
    (0.05 + morning + evening + midday).min(1.0)
}

/// Cheap Poisson-like sampler: sum of Bernoulli draws (exact enough for
/// background noise generation).
fn poisson_like(rng: &mut SeededRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let n = (lambda * 3.0).ceil().max(1.0) as usize;
    let p = (lambda / n as f64).min(1.0);
    (0..n).filter(|_| rng.chance(p)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{INFLOW, OUTFLOW};

    fn small_run(seed: u64) -> SimOutput {
        CitySimulator::new(CityConfig::small(seed)).run()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_run(5);
        let b = small_run(5);
        assert_eq!(a.flows.tensor(), b.flows.tensor());
        assert_eq!(a.rain_days, b.rain_days);
        assert_eq!(a.incidents, b.incidents);
    }

    #[test]
    fn produces_positive_flow() {
        let out = small_run(1);
        assert!(out.trips > 1000, "too few trips: {}", out.trips);
        assert!(out.flows.tensor().sum() > 0.0);
        assert!(out.flows.tensor().max() > 1.0);
    }

    #[test]
    fn flow_conservation_holds() {
        let out = small_run(2);
        for i in 0..out.flows.len() {
            assert_eq!(out.flows.total_inflow(i), out.flows.total_outflow(i), "interval {i}");
        }
    }

    #[test]
    fn morning_peak_exceeds_night() {
        let out = small_run(3);
        let cfg = CityConfig::small(3);
        // Compare total inflow in the 8am slot vs the 3am slot over all
        // weekdays.
        let mut peak = 0.0;
        let mut night = 0.0;
        for day in 0..cfg.days {
            if cfg.is_weekend(day) {
                continue;
            }
            let base = day * cfg.intervals_per_day;
            peak += out.flows.total_inflow(base + 8);
            night += out.flows.total_inflow(base + 3);
        }
        assert!(peak > 2.0 * night, "no commute peak: peak {peak} vs night {night}");
    }

    #[test]
    fn weekday_commute_exceeds_weekend() {
        let out = small_run(4);
        let cfg = CityConfig::small(4);
        let mut wd = (0.0, 0usize);
        let mut we = (0.0, 0usize);
        for day in 0..cfg.days {
            let base = day * cfg.intervals_per_day;
            let morning: f32 = (7..10).map(|h| out.flows.total_inflow(base + h)).sum();
            if cfg.is_weekend(day) {
                we = (we.0 + morning, we.1 + 1);
            } else {
                wd = (wd.0 + morning, wd.1 + 1);
            }
        }
        let wd_avg = wd.0 / wd.1 as f32;
        let we_avg = we.0 / we.1 as f32;
        assert!(wd_avg > 1.5 * we_avg, "weekday {wd_avg} vs weekend {we_avg}");
    }

    #[test]
    fn incidents_create_point_outliers() {
        let mut cfg = CityConfig::small(6);
        cfg.incident_prob = 1.0; // force incidents
        cfg.incident_magnitude = 80;
        let out = CitySimulator::new(cfg.clone()).run();
        assert!(!out.incidents.is_empty());
        let (interval, region) = out.incidents[0];
        let inflow = out.flows.volume(interval, INFLOW, region.row, region.col);
        // The burst dominates normal traffic into one cell.
        assert!(inflow >= 40.0, "incident inflow only {inflow}");
        let _ = OUTFLOW;
    }

    #[test]
    fn rain_days_damp_traffic() {
        let mut cfg = CityConfig::small(7);
        cfg.weather_prob = 0.0;
        let dry = CitySimulator::new(cfg.clone()).run();
        cfg.weather_prob = 1.0; // every day rains
        cfg.weather_damping = 0.3;
        let wet = CitySimulator::new(cfg).run();
        let dry_total = dry.flows.tensor().sum();
        let wet_total = wet.flows.tensor().sum();
        assert!(wet_total < 0.75 * dry_total, "rain did not damp: {wet_total} vs {dry_total}");
    }

    #[test]
    fn level_shift_scales_flows_from_interval_onward() {
        let mut cfg = CityConfig::small(9);
        cfg.weather_prob = 0.0;
        cfg.incident_prob = 0.0;
        let baseline = CitySimulator::new(cfg.clone()).run();
        let shift_at = cfg.total_intervals() / 2;
        cfg.level_shift_interval = Some(shift_at);
        cfg.level_shift_factor = 3.0;
        let shifted = CitySimulator::new(cfg.clone()).run();
        assert_eq!(shifted.level_shift, Some((shift_at, 3.0)));
        // Same trajectories before the shift, exactly 3x after it.
        for t in 0..cfg.total_intervals() {
            let expect = if t >= shift_at { 3.0 } else { 1.0 };
            for (r, c) in [(0, 0), (2, 3), (5, 5)] {
                let base = baseline.flows.volume(t, INFLOW, r, c);
                let got = shifted.flows.volume(t, INFLOW, r, c);
                assert_eq!(got, base * expect, "t={t} r={r} c={c}");
            }
        }
    }

    #[test]
    fn unit_level_shift_factor_is_a_noop() {
        let mut cfg = CityConfig::small(10);
        cfg.level_shift_interval = Some(5);
        cfg.level_shift_factor = 1.0;
        let out = CitySimulator::new(cfg).run();
        assert_eq!(out.level_shift, None, "factor 1.0 records no shift");
    }

    #[test]
    fn diurnal_profile_shape() {
        assert!(diurnal_weight(8.0) > diurnal_weight(3.0));
        assert!(diurnal_weight(18.0) > diurnal_weight(12.0));
        for h in 0..24 {
            let v = diurnal_weight(h as f32);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn periodic_preset_lookup_and_geometry() {
        assert!(periodic_preset("no-such-preset").is_none());
        let p = periodic_preset("offcadence-96x3").expect("registered");
        assert_eq!(p.intervals_per_day, 96);
        assert_eq!(p.true_periods(), vec![96, 288]);
        assert_eq!(p.total_intervals(), 96 * 9);
        for preset in PERIODIC_PRESETS {
            // Enough history for at least three repetitions of the longest
            // period, so detection has something to average.
            let longest = *preset.true_periods().last().unwrap();
            assert!(preset.total_intervals() >= 3 * longest, "{}", preset.name);
        }
    }

    #[test]
    fn periodic_preset_flows_are_positive_and_deterministic() {
        let p = periodic_preset("hourly-weekly").unwrap();
        let a = p.generate(GridMap::new(3, 4), 11);
        let b = p.generate(GridMap::new(3, 4), 11);
        assert_eq!(a.tensor(), b.tensor());
        assert!(a.tensor().min() > 0.0, "flows must stay positive");
        assert_eq!(a.len(), p.total_intervals());
        let c = p.generate(GridMap::new(3, 4), 12);
        assert_ne!(a.tensor(), c.tensor(), "seed must matter");
    }

    #[test]
    fn periodic_presets_detect_exactly() {
        // The acceptance criterion at library level: detection on the
        // frame-mean series recovers each preset's constructed top-2
        // periods exactly, in intervals.
        for preset in PERIODIC_PRESETS {
            let flows = preset.generate(GridMap::new(4, 4), 23);
            let found = muse_fft::detect_periods(&flows.mean_series(), 4);
            let mut top: Vec<usize> = found.iter().take(2).map(|p| p.intervals).collect();
            top.sort_unstable();
            assert_eq!(top, preset.true_periods(), "preset {}: {found:?}", preset.name);
        }
    }

    #[test]
    fn weekend_detection_respects_start_weekday() {
        let mut cfg = CityConfig::small(0);
        cfg.start_weekday = 5; // Saturday
        assert!(cfg.is_weekend(0));
        assert!(cfg.is_weekend(1));
        assert!(!cfg.is_weekend(2));
        cfg.start_weekday = 0; // Monday
        assert!(!cfg.is_weekend(0));
        assert!(cfg.is_weekend(5));
    }
}
