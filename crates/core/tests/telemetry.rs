//! Telemetry integration: golden JSON lines for the training records, and a
//! full `Trainer::fit` run captured through a JSONL trace.

use muse_obs::{self as obs, Json, ToJson};
use muse_tensor::Tensor;
use muse_traffic::{FlowSeries, GridMap, SubSeriesSpec};
use musenet::trainer::{EpochRecord, Trainer, TrainerOptions};
use musenet::{LossTerms, MuseNet, MuseNetConfig};

#[test]
fn loss_terms_golden_json_line() {
    let terms = LossTerms {
        kl_exclusive: 1.5,
        kl_interactive: 0.25,
        reconstruction: 2.0,
        pulling: -0.5,
        regression: 0.125,
        total: 3.375,
    };
    let line = terms.to_json().render();
    assert_eq!(
        line,
        r#"{"kl_exclusive":1.5,"kl_interactive":0.25,"reconstruction":2,"pulling":-0.5,"regression":0.125,"total":3.375}"#
    );
    // A trace consumer parsing the line sees the same values back.
    let parsed = muse_obs::json::parse(&line).unwrap();
    assert_eq!(parsed.get("kl_exclusive").unwrap().as_f64(), Some(1.5));
    assert_eq!(parsed.get("reconstruction").unwrap().as_f64(), Some(2.0));
    assert_eq!(parsed.get("pulling").unwrap().as_f64(), Some(-0.5));
    assert_eq!(parsed, terms.to_json());
}

#[test]
fn epoch_record_golden_json_line() {
    let record =
        EpochRecord { epoch: 3, train_loss: 0.5, train_regression: 0.25, val_rmse: None, skipped_batches: 2 };
    let line = record.to_json().render();
    assert_eq!(
        line,
        r#"{"epoch":3,"train_loss":0.5,"train_regression":0.25,"val_rmse":null,"skipped_batches":2}"#
    );
    let parsed = muse_obs::json::parse(&line).unwrap();
    // A missing validation set round-trips as null, not as a magic number.
    assert_eq!(parsed.get("val_rmse"), Some(&Json::Null));
    assert_eq!(parsed.get("skipped_batches").unwrap().as_f64(), Some(2.0));
    assert_eq!(parsed, record.to_json());
}

#[test]
fn non_finite_terms_serialize_as_null() {
    let terms = LossTerms {
        kl_exclusive: f32::NAN,
        kl_interactive: f32::INFINITY,
        reconstruction: 0.0,
        pulling: 0.0,
        regression: 0.0,
        total: f32::NAN,
    };
    let line = terms.to_json().render();
    let parsed = muse_obs::json::parse(&line).unwrap();
    assert_eq!(parsed.get("kl_exclusive"), Some(&Json::Null));
    assert_eq!(parsed.get("kl_interactive"), Some(&Json::Null));
    assert_eq!(parsed.get("total"), Some(&Json::Null));
    assert_eq!(parsed.get("reconstruction").unwrap().as_f64(), Some(0.0));
}

/// A tiny synthetic flow series with a daily pattern (mirrors the trainer's
/// unit-test fixture).
fn patterned_flows(grid: GridMap, days: usize, f: usize) -> FlowSeries {
    let t = days * f;
    let mut data = Vec::with_capacity(t * 2 * grid.cells());
    for i in 0..t {
        let hour = (i % f) as f32 / f as f32;
        let level = (2.0 * std::f32::consts::PI * hour).sin() * 0.6;
        for ch in 0..2 {
            for cell in 0..grid.cells() {
                let phase = 0.1 * (cell as f32) + 0.05 * ch as f32;
                data.push((level + phase).tanh());
            }
        }
    }
    FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, grid.height, grid.width]))
}

#[test]
fn fit_emits_one_epoch_event_per_epoch() {
    let _guard = obs::test_lock();
    let trace_path = std::env::temp_dir().join(format!("musenet-telemetry-{}.jsonl", std::process::id()));
    obs::open_trace(&trace_path).expect("open trace");

    // Distinctive shuffle seed so we can find our own run in the trace even
    // if another test in this binary ever traces too.
    let shuffle_seed = 0xFEED_u64;
    let epochs = 3;
    let grid = GridMap::new(3, 3);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    let flows = patterned_flows(grid, 10, 6);
    let first = spec.min_target();
    let train: Vec<usize> = (first..first + 12).collect();
    let val: Vec<usize> = (first + 12..first + 16).collect();
    let model = MuseNet::new(cfg.clone());
    let mut trainer = Trainer::new(
        model,
        TrainerOptions { epochs, batch_size: 4, learning_rate: 3e-3, shuffle_seed, ..Default::default() },
    );
    let report = trainer.fit(&flows, &cfg.spec, &train, &val);

    // The smoothed live-loss gauge tracked the run and landed on a finite,
    // positive value.
    let loss_ewma = obs::gauge("train.loss_ewma").get();
    assert!(loss_ewma.is_finite() && loss_ewma > 0.0, "train.loss_ewma gauge: {loss_ewma}");

    obs::close_trace();
    obs::disable();
    obs::reset_metrics();

    let events = obs::read_trace(&trace_path).expect("read trace back");
    std::fs::remove_file(&trace_path).ok();

    let ev = |e: &Json| e.get("ev").and_then(|v| v.as_str().map(str::to_string));
    let start = events
        .iter()
        .find(|e| {
            ev(e).as_deref() == Some("train.start")
                && e.get("shuffle_seed").and_then(|v| v.as_f64()) == Some(shuffle_seed as f64)
        })
        .expect("train.start event for our run");
    assert_eq!(start.get("model").and_then(|v| v.as_str()), Some("MUSE-Net"), "train.start names the model");
    let run = start.get("run").and_then(|v| v.as_f64()).expect("run id");
    let same_run = |e: &&Json| e.get("run").and_then(|v| v.as_f64()) == Some(run);

    let epoch_events: Vec<&Json> =
        events.iter().filter(|e| ev(e).as_deref() == Some("train.epoch")).filter(same_run).collect();
    assert_eq!(epoch_events.len(), epochs, "expected one train.epoch event per epoch");
    for (i, e) in epoch_events.iter().enumerate() {
        let record = e.get("record").expect("epoch record");
        assert_eq!(record.get("epoch").and_then(|v| v.as_f64()), Some(i as f64));
        for field in ["train_loss", "train_regression", "val_rmse"] {
            let v = record.get(field).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            assert!(v.is_finite(), "epoch {i}: non-finite {field}");
        }
        assert_eq!(record.get("skipped_batches").and_then(|v| v.as_f64()), Some(0.0));
        // The four loss components ride along at the top level, all finite.
        for field in ["kl_exclusive", "kl_interactive", "reconstruction", "pulling"] {
            let v = e.get(field).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            assert!(v.is_finite(), "epoch {i}: non-finite {field}");
        }
        assert!(e.get("batches").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        assert!(e.get("samples_per_sec").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    let end = events
        .iter()
        .filter(|e| ev(e).as_deref() == Some("train.end"))
        .find(same_run)
        .expect("train.end event");
    assert_eq!(end.get("epochs_run").and_then(|v| v.as_f64()), Some(epochs as f64));
    assert_eq!(end.get("skipped_batches").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(report.epochs.len(), epochs, "report and trace disagree on epochs run");
}
