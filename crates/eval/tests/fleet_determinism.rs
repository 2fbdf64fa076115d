//! Fleet-scheduling determinism (ISSUE 9 contract): running a multi-model
//! sweep through the inter-op scheduler must be **bit-identical** to the
//! sequential run — for every `MUSE_JOBS` width, every intra-op thread
//! count, and both SIMD dispatch levels. Scheduling decides *when* a model
//! trains, never *what* it computes: each job's arithmetic is pinned by its
//! own seed, so concurrency may only reorder wall-clock, not bits.

use muse_eval::drivers::table2::one_step_rows;
use muse_eval::runner::{prepare, ModelKind, Profile};
use muse_parallel::{with_jobs, with_threads};
use muse_tensor::simd;
use muse_traffic::dataset::DatasetPreset;
use musenet::AblationVariant;

/// Mini profile: tiny data, one epoch — enough structure for six real
/// trainings without making the sweep matrix slow.
fn mini_profile() -> Profile {
    Profile {
        scale: 0.45,
        epochs: 1,
        max_batches: 4,
        max_eval: 12,
        d: 4,
        k: 8,
        hidden: 8,
        channels: 4,
        ..Profile::quick()
    }
}

/// Six-model mini-fleet: two naive baselines, three trained baselines, and
/// the full MUSE-Net — a cross-section of every training code path.
fn mini_lineup() -> Vec<ModelKind> {
    vec![
        ModelKind::Ha,
        ModelKind::SeasonalNaive,
        ModelKind::Rnn,
        ModelKind::StNormLite,
        ModelKind::StgspLite,
        ModelKind::MuseNet(AblationVariant::Full),
    ]
}

/// One full sweep: train the lineup, return every metric as raw bits.
fn sweep_bits(profile: &Profile) -> Vec<(String, Vec<u32>)> {
    let prepared = prepare(DatasetPreset::NycBike, profile);
    one_step_rows(&prepared, profile, &mini_lineup())
        .into_iter()
        .map(|r| (r.name, r.metrics.iter().map(|m| m.to_bits()).collect()))
        .collect()
}

#[test]
fn fleet_is_bit_identical_to_sequential() {
    let profile = mini_profile();
    // Native level first; add the baseline (scalar) copy when the box detects SIMD.
    let mut levels = vec![simd::detected_level()];
    if simd::detected_level() != simd::Level::Scalar {
        levels.push(simd::Level::Scalar);
    }
    for level in levels {
        simd::with_level(level, || {
            let reference = with_threads(1, || with_jobs(1, || sweep_bits(&profile)));
            assert_eq!(reference.len(), 6, "every lineup model must produce a row");
            for jobs in [2usize, 4] {
                for threads in [1usize, 2] {
                    let got = with_threads(threads, || with_jobs(jobs, || sweep_bits(&profile)));
                    assert_eq!(
                        got,
                        reference,
                        "fleet diverged at jobs={jobs} threads={threads} simd={}",
                        level.name()
                    );
                }
            }
        });
    }
}
