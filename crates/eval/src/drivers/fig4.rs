//! Fig. 4 — predicted vs ground-truth flow curves over a window of test
//! intervals, for the multi-periodic methods.

use crate::runner::{fit_model, prepare, train_fleet, ModelKind, Profile};
use muse_parallel::FleetJob;
use muse_traffic::dataset::DatasetPreset;
use std::fmt;

/// One method's curve and its error against the truth curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method name.
    pub name: String,
    /// Citywide inflow per evaluated interval (original units).
    pub values: Vec<f32>,
    /// RMSE of this curve against the truth curve.
    pub curve_rmse: f32,
    /// Whether this is MUSE-Net.
    pub is_ours: bool,
}

/// Fig. 4 driver result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Dataset.
    pub dataset: String,
    /// Evaluated target indices (consecutive test intervals).
    pub indices: Vec<usize>,
    /// Ground-truth citywide inflow curve.
    pub truth: Vec<f32>,
    /// One curve per method.
    pub curves: Vec<Curve>,
}

impl Fig4Result {
    /// Shape check: MUSE-Net's curve tracks the truth at least as well as
    /// every baseline curve.
    pub fn muse_tracks_best(&self) -> bool {
        let ours = self.curves.iter().find(|c| c.is_ours).expect("ours");
        self.curves.iter().all(|c| ours.curve_rmse <= c.curve_rmse + 1e-6)
    }
}

/// Run the Fig. 4 driver: predictions over `window` consecutive test
/// intervals on one preset.
pub fn run(preset: DatasetPreset, profile: &Profile, window: usize) -> Fig4Result {
    let prepared = prepare(preset, profile);
    let take = window.min(prepared.split.test.len());
    let indices: Vec<usize> = prepared.split.test[..take].to_vec();
    let truth_frames = prepared.truth(&indices);
    let truth = citywide_inflow(&truth_frames);

    // One fleet job per lineup model: the model is built, trained, and
    // consumed inside its job, returning only the plain-data curve.
    let prepared_ref = &prepared;
    let indices_ref = &indices;
    let truth_ref = &truth;
    let jobs: Vec<FleetJob<'_, Curve>> = ModelKind::multiperiodic_lineup()
        .into_iter()
        .map(|kind| {
            Box::new(move || {
                let model = fit_model(kind, prepared_ref, profile);
                let pred = model.predict_unscaled(prepared_ref, indices_ref);
                let values = citywide_inflow(&pred);
                let curve_rmse =
                    (values.iter().zip(truth_ref).map(|(&p, &t)| (p - t) * (p - t)).sum::<f32>()
                        / truth_ref.len() as f32)
                        .sqrt();
                Curve { name: model.name(), values, curve_rmse, is_ours: kind.is_ours() }
            }) as FleetJob<'_, Curve>
        })
        .collect();
    let curves = train_fleet("fig4.lineup", profile, jobs);

    Fig4Result { dataset: preset.name().to_string(), indices, truth, curves }
}

/// Citywide inflow (channel 1) per frame of a `[N, 2, H, W]` stack.
fn citywide_inflow(frames: &muse_tensor::Tensor) -> Vec<f32> {
    (0..frames.dims()[0]).map(|i| frames.index_axis0(i).index_axis0(1).sum()).collect()
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4 ({}): citywide inflow, prediction vs ground truth", self.dataset)?;
        write!(f, "  interval |    truth")?;
        for c in &self.curves {
            write!(f, " | {:>12}", c.name)?;
        }
        writeln!(f)?;
        for (row, &idx) in self.indices.iter().enumerate() {
            write!(f, "  {:>8} | {:>8.1}", idx, self.truth[row])?;
            for c in &self.curves {
                write!(f, " | {:>12.1}", c.values[row])?;
            }
            writeln!(f)?;
        }
        writeln!(f, "Curve RMSE vs truth:")?;
        for c in &self.curves {
            writeln!(f, "  {:<28} {:>8.2}", c.name, c.curve_rmse)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_check() {
        let r = Fig4Result {
            dataset: "x".into(),
            indices: vec![1, 2],
            truth: vec![10.0, 20.0],
            curves: vec![
                Curve { name: "b".into(), values: vec![12.0, 25.0], curve_rmse: 3.0, is_ours: false },
                Curve { name: "ours".into(), values: vec![10.5, 21.0], curve_rmse: 0.8, is_ours: true },
            ],
        };
        assert!(r.muse_tracks_best());
        assert!(r.to_string().contains("Curve RMSE"));
    }
}
