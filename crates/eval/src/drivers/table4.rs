//! Table IV — peak vs non-peak one-step performance (RMSE, MAPE) for the
//! multi-periodic methods.

use crate::runner::{fit_model, prepare, split_channels, train_fleet, EvalSet, ModelKind, Prepared, Profile};
use muse_metrics::error::masked_errors;
use muse_metrics::Table;
use muse_parallel::FleetJob;
use muse_traffic::masks::peak_mask;
use std::fmt;

/// One method's masked metrics: `[out RMSE, out MAPE, in RMSE, in MAPE]`
/// under the mask and under its complement.
#[derive(Debug, Clone)]
pub struct MaskedRow {
    /// Method name.
    pub name: String,
    /// Metrics where the mask is true.
    pub masked: [f32; 4],
    /// Metrics where the mask is false.
    pub unmasked: [f32; 4],
    /// Whether this is MUSE-Net.
    pub is_ours: bool,
}

/// A masked comparison block for one dataset.
#[derive(Debug, Clone)]
pub struct MaskedTable {
    /// Dataset name.
    pub dataset: String,
    /// Rows in lineup order.
    pub rows: Vec<MaskedRow>,
    /// Label of the masked condition (e.g. "Peak").
    pub mask_label: String,
    /// Label of the complement (e.g. "Non-peak").
    pub complement_label: String,
}

/// Shared machinery for Tables IV and V: evaluate the lineup one-step and
/// split errors by a boolean per-target mask.
pub fn masked_comparison(prepared: &Prepared, profile: &Profile, mask: &[bool]) -> Vec<MaskedRow> {
    let lineup = ModelKind::multiperiodic_lineup();
    let plan = prepared.eval_plan(profile);
    assert_eq!(mask.len(), plan.indices.len(), "mask/indices mismatch");
    // The truth split is identical for every model: hoist it out of the
    // per-model jobs.
    let (truth_out, truth_in) = split_channels(&plan.truth);
    let inverse: Vec<bool> = mask.iter().map(|&b| !b).collect();
    let plan_ref = plan.as_ref();
    let inverse_ref = &inverse;
    let truth_out_ref = &truth_out;
    let truth_in_ref = &truth_in;
    let jobs: Vec<FleetJob<'_, MaskedRow>> = lineup
        .iter()
        .map(|&kind| {
            Box::new(move || {
                let model = fit_model(kind, prepared, profile);
                let pred = model.predict_unscaled(prepared, &plan_ref.indices);
                let (po, pi) = split_channels(&pred);
                let stats = |m: &[bool]| -> [f32; 4] {
                    let so = masked_errors(&po, truth_out_ref, m);
                    let si = masked_errors(&pi, truth_in_ref, m);
                    match (so, si) {
                        (Some(o), Some(i)) => [o.rmse, o.mape, i.rmse, i.mape],
                        _ => [f32::NAN; 4],
                    }
                };
                MaskedRow {
                    name: model.name(),
                    masked: stats(mask),
                    unmasked: stats(inverse_ref),
                    is_ours: kind.is_ours(),
                }
            }) as FleetJob<'_, MaskedRow>
        })
        .collect();
    train_fleet("table4.lineup", profile, jobs)
}

/// Full Table IV result.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// One block per dataset.
    pub datasets: Vec<MaskedTable>,
}

impl Table4Result {
    /// Shape checks: MUSE-Net best RMSE in both regimes; peak RMSE exceeds
    /// non-peak RMSE for our model (peaks are harder in absolute error).
    pub fn shape_holds(&self) -> (bool, bool) {
        let mut wins = true;
        let mut peak_harder = true;
        for d in &self.datasets {
            let ours = d.rows.iter().find(|r| r.is_ours).expect("ours");
            for i in [0usize, 2] {
                let best_m =
                    d.rows.iter().filter(|r| !r.is_ours).map(|r| r.masked[i]).fold(f32::INFINITY, f32::min);
                let best_u =
                    d.rows.iter().filter(|r| !r.is_ours).map(|r| r.unmasked[i]).fold(f32::INFINITY, f32::min);
                if ours.masked[i] > best_m || ours.unmasked[i] > best_u {
                    wins = false;
                }
            }
            if ours.masked[0] < ours.unmasked[0] {
                peak_harder = false;
            }
        }
        (wins, peak_harder)
    }
}

/// Run the Table IV driver.
pub fn run(set: EvalSet, profile: &Profile) -> Table4Result {
    let datasets = set
        .presets()
        .into_iter()
        .map(|preset| {
            let prepared = prepare(preset, profile);
            let eval_idx = prepared.eval_indices(profile);
            let mask = peak_mask(&eval_idx, prepared.dataset.intervals_per_day);
            let rows = masked_comparison(&prepared, profile, &mask);
            MaskedTable {
                dataset: preset.name().to_string(),
                rows,
                mask_label: "Peak".into(),
                complement_label: "Non-peak".into(),
            }
        })
        .collect();
    Table4Result { datasets }
}

/// Render a masked table block (shared with Table V).
pub fn render_masked(f: &mut fmt::Formatter<'_>, title: &str, block: &MaskedTable) -> fmt::Result {
    let mut t = Table::new(
        format!("{title} ({}): {} vs {}", block.dataset, block.mask_label, block.complement_label),
        &[
            "Method",
            &format!("{} OutRMSE", block.mask_label),
            &format!("{} OutMAPE%", block.mask_label),
            &format!("{} InRMSE", block.mask_label),
            &format!("{} InMAPE%", block.mask_label),
            &format!("{} OutRMSE", block.complement_label),
            &format!("{} OutMAPE%", block.complement_label),
            &format!("{} InRMSE", block.complement_label),
            &format!("{} InMAPE%", block.complement_label),
        ],
    );
    for r in &block.rows {
        let mut vals = r.masked.to_vec();
        vals.extend_from_slice(&r.unmasked);
        t.add_metric_row(&r.name, &vals);
    }
    write!(f, "{t}")
}

impl fmt::Display for Table4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.datasets {
            render_masked(f, "Table IV", d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_check_logic() {
        let block = MaskedTable {
            dataset: "x".into(),
            mask_label: "Peak".into(),
            complement_label: "Non-peak".into(),
            rows: vec![
                MaskedRow { name: "b".into(), masked: [5.0; 4], unmasked: [3.0; 4], is_ours: false },
                MaskedRow { name: "ours".into(), masked: [4.0; 4], unmasked: [2.0; 4], is_ours: true },
            ],
        };
        let r = Table4Result { datasets: vec![block] };
        let (wins, peak_harder) = r.shape_holds();
        assert!(wins && peak_harder);
        assert!(r.to_string().contains("Peak"));
    }
}
