//! Table V — weekday vs weekend one-step performance, reusing Table IV's
//! masked-comparison machinery with the weekday mask.

use crate::drivers::table4::{masked_comparison, render_masked, MaskedTable};
use crate::runner::{prepare, EvalSet, Profile};
use muse_traffic::masks::weekday_mask;
use std::fmt;

/// Full Table V result.
#[derive(Debug, Clone)]
pub struct Table5Result {
    /// One block per dataset.
    pub datasets: Vec<MaskedTable>,
}

impl Table5Result {
    /// Shape check: MUSE-Net best outflow/inflow RMSE in both regimes.
    pub fn muse_wins(&self) -> bool {
        self.datasets.iter().all(|d| {
            let ours = d.rows.iter().find(|r| r.is_ours).expect("ours");
            [0usize, 2].iter().all(|&i| {
                let best_m =
                    d.rows.iter().filter(|r| !r.is_ours).map(|r| r.masked[i]).fold(f32::INFINITY, f32::min);
                let best_u =
                    d.rows.iter().filter(|r| !r.is_ours).map(|r| r.unmasked[i]).fold(f32::INFINITY, f32::min);
                ours.masked[i] <= best_m && ours.unmasked[i] <= best_u
            })
        })
    }
}

/// Run the Table V driver.
pub fn run(set: EvalSet, profile: &Profile) -> Table5Result {
    let datasets = set
        .presets()
        .into_iter()
        .map(|preset| {
            let prepared = prepare(preset, profile);
            let eval_idx = prepared.eval_indices(profile);
            let mask =
                weekday_mask(&eval_idx, prepared.dataset.intervals_per_day, prepared.dataset.start_weekday);
            let rows = masked_comparison(&prepared, profile, &mask);
            MaskedTable {
                dataset: preset.name().to_string(),
                rows,
                mask_label: "Weekday".into(),
                complement_label: "Weekend".into(),
            }
        })
        .collect();
    Table5Result { datasets }
}

impl fmt::Display for Table5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.datasets {
            render_masked(f, "Table V", d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::table4::MaskedRow;

    #[test]
    fn win_check() {
        let block = MaskedTable {
            dataset: "x".into(),
            mask_label: "Weekday".into(),
            complement_label: "Weekend".into(),
            rows: vec![
                MaskedRow { name: "b".into(), masked: [2.0; 4], unmasked: [2.2; 4], is_ours: false },
                MaskedRow { name: "ours".into(), masked: [1.5; 4], unmasked: [1.6; 4], is_ours: true },
            ],
        };
        let r = Table5Result { datasets: vec![block] };
        assert!(r.muse_wins());
        assert!(r.to_string().contains("Weekend"));
    }
}
