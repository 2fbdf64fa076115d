//! `muse-eval` — regenerate any table or figure of the MUSE-Net paper.
//!
//! ```text
//! muse-eval <experiment> [options]
//!
//! experiments:
//!   table1 table2 table3 table4 table5 table6
//!   fig1 fig2 fig4 fig5 fig6 fig7 fig8 fig9
//!   detect         spectral periodicity detection vs. known-period presets
//!   all            run everything
//!
//! options:
//!   --quick        minutes-scale profile (default)
//!   --standard     larger profile
//!   --scale <f>    multiply the profile toward paper sizes
//!   --dataset <n>  nyc-bike | nyc-taxi | taxibj (default: all for tables,
//!                  nyc-bike for figures)
//!   --epochs <n>   override training epochs
//!   --max-batches <n>
//!                  override the per-epoch train-batch cap (0 = all)
//!   --repeats <n>  seeds per fig9 sweep point (default 3)
//!   --seed <n>     override master seed
//!   --auto-periods derive the interception spec from spectrally detected
//!                  periods of the training region instead of the paper
//!                  default (recorded in the run manifest)
//!   --out <dir>    also write each artifact to <dir>/<experiment>.txt
//!   --save-checkpoint <p>
//!                  save each trained MUSE-Net (with its config) to <p>;
//!                  the most recently trained model wins — pair with a
//!                  single-model experiment for a muse-serve artifact
//!   --load-checkpoint <p>
//!                  warm-start matching MUSE-Net fits from <p>
//!   --trace <p>    write a JSONL telemetry trace to <p> (same as MUSE_OBS=<p>)
//!   --serve-metrics <addr>
//!                  serve /metrics (Prometheus) and /status (JSON) on <addr>
//!                  while the run is live
//!   --linger-ms <n>
//!                  keep the process (and the metrics endpoint) alive for
//!                  <n> ms after the last experiment — lets scrapers catch
//!                  the final state
//! ```

use muse_eval::drivers;
use muse_eval::runner::{EvalSet, Profile};
use muse_obs::{self as obs, Json, ToJson};
use muse_traffic::dataset::DatasetPreset;
use std::io::Write;
use std::path::PathBuf;

struct Args {
    experiment: String,
    profile: Profile,
    dataset: Option<DatasetPreset>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    serve_metrics: Option<String>,
    linger_ms: u64,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let experiment = argv.next().ok_or_else(usage)?;
    let mut profile = Profile::quick();
    let mut dataset = None;
    let mut out = None;
    let mut trace = None;
    let mut serve_metrics = None;
    let mut linger_ms = 0u64;
    let mut repeats = 3usize;
    let mut scale: Option<f32> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => profile = Profile::quick(),
            "--standard" => profile = Profile::standard(),
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = Some(v.parse().map_err(|_| format!("bad scale {v}"))?);
            }
            "--dataset" => {
                let v = argv.next().ok_or("--dataset needs a value")?;
                dataset = Some(match v.as_str() {
                    "nyc-bike" => DatasetPreset::NycBike,
                    "nyc-taxi" => DatasetPreset::NycTaxi,
                    "taxibj" => DatasetPreset::TaxiBj,
                    other => return Err(format!("unknown dataset {other}")),
                });
            }
            "--epochs" => {
                let v = argv.next().ok_or("--epochs needs a value")?;
                profile.epochs = v.parse().map_err(|_| format!("bad epochs {v}"))?;
            }
            "--max-batches" => {
                let v = argv.next().ok_or("--max-batches needs a value")?;
                profile.max_batches = v.parse().map_err(|_| format!("bad max-batches {v}"))?;
            }
            "--repeats" => {
                let v = argv.next().ok_or("--repeats needs a value")?;
                repeats = v.parse().map_err(|_| format!("bad repeats {v}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                profile.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a value")?;
                out = Some(PathBuf::from(v));
            }
            "--save-checkpoint" => {
                let v = argv.next().ok_or("--save-checkpoint needs a path")?;
                profile.save_checkpoint = Some(PathBuf::from(v));
            }
            "--load-checkpoint" => {
                let v = argv.next().ok_or("--load-checkpoint needs a path")?;
                profile.load_checkpoint = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = argv.next().ok_or("--trace needs a value")?;
                trace = Some(PathBuf::from(v));
            }
            "--serve-metrics" => {
                let v = argv.next().ok_or("--serve-metrics needs an address")?;
                serve_metrics = Some(v);
            }
            "--linger-ms" => {
                let v = argv.next().ok_or("--linger-ms needs a value")?;
                linger_ms = v.parse().map_err(|_| format!("bad linger-ms {v}"))?;
            }
            "--auto-periods" => profile.auto_periods = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if let Some(s) = scale {
        profile = profile.scaled(s);
    }
    Ok(Args { experiment, profile, dataset, out, trace, serve_metrics, linger_ms, repeats })
}

fn usage() -> String {
    "usage: muse-eval <table1|table2|table3|table4|table5|table6|fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|detect|all> \
     [--quick|--standard] [--scale f] [--dataset nyc-bike|nyc-taxi|taxibj] [--epochs n] [--max-batches n] \
     [--repeats n] [--seed n] [--auto-periods] [--out dir] \
     [--save-checkpoint path.ckpt] [--load-checkpoint path.ckpt] \
     [--trace path.jsonl] [--serve-metrics host:port] [--linger-ms n]"
        .to_string()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let tracing = match &args.trace {
        Some(path) => match obs::open_trace(path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("cannot open trace {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => obs::init_from_env(),
    };
    obs::serve::set_build_info(vec![
        ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
        ("simd_level".to_string(), muse_tensor::simd::level_name().to_string()),
        ("threads".to_string(), muse_parallel::current_threads().to_string()),
        ("crt_static".to_string(), cfg!(target_feature = "crt-static").to_string()),
    ]);
    // A live exporter implies telemetry: enable collection so /metrics has
    // counters to show even without a trace file.
    let server = args.serve_metrics.as_ref().map(|addr| match obs::MetricsServer::start(addr.as_str()) {
        Ok(server) => {
            obs::enable();
            eprintln!("[metrics] serving http://{}/metrics", server.addr());
            server
        }
        Err(e) => {
            eprintln!("cannot serve metrics on {addr}: {e}");
            std::process::exit(2);
        }
    });
    let experiments: Vec<String> = if args.experiment == "all" {
        [
            "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig4", "fig5",
            "fig6", "fig7", "fig8", "fig9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        vec![args.experiment.clone()]
    };
    if tracing {
        obs::emit(
            "run.manifest",
            vec![
                ("experiments", Json::Arr(experiments.iter().map(|e| e.to_json()).collect())),
                ("profile", profile_json(&args.profile)),
                ("dataset", args.dataset.map(|p| format!("{p:?}")).as_deref().unwrap_or("all").to_json()),
                ("threads", Json::Num(muse_parallel::current_threads() as f64)),
                ("jobs", Json::Num(muse_parallel::current_jobs() as f64)),
                ("crt_static", cfg!(target_feature = "crt-static").to_json()),
                ("simd", Json::Str(muse_tensor::simd::level_name().to_string())),
                ("metrics_addr", server.as_ref().map_or(Json::Null, |s| Json::Str(s.addr().to_string()))),
                (
                    "save_checkpoint",
                    args.profile
                        .save_checkpoint
                        .as_ref()
                        .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
                ),
                (
                    "load_checkpoint",
                    args.profile
                        .load_checkpoint
                        .as_ref()
                        .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
                ),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            ],
        );
    }
    for exp in experiments {
        let started = std::time::Instant::now();
        let output = run_experiment(&exp, &args);
        println!("{output}");
        eprintln!("[{exp}] finished in {:.1}s", started.elapsed().as_secs_f32());
        if tracing {
            obs::emit(
                "eval.experiment",
                vec![
                    ("experiment", exp.to_json()),
                    ("duration_s", f64::from(started.elapsed().as_secs_f32()).to_json()),
                ],
            );
            // A snapshot after each experiment, flushed, so the trace of an
            // interrupted run still carries its span totals and kernels.
            obs::emit("kernel.summary", vec![("metrics", obs::snapshot())]);
            obs::flush_trace();
        }
        if let Some(dir) = &args.out {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = dir.join(format!("{exp}.txt"));
            let mut file = std::fs::File::create(&path).expect("create artifact file");
            file.write_all(output.as_bytes()).expect("write artifact");
            eprintln!("[{exp}] wrote {}", path.display());
        }
    }
    if tracing {
        if let Some(path) = obs::close_trace() {
            eprintln!("[trace] wrote {}", path.display());
        }
    }
    if args.linger_ms > 0 && server.is_some() {
        eprintln!("[metrics] lingering {} ms for scrapers", args.linger_ms);
        std::thread::sleep(std::time::Duration::from_millis(args.linger_ms));
    }
    drop(server);
}

/// Serialize the eval profile for the `run.manifest` trace event.
fn profile_json(p: &Profile) -> Json {
    Json::obj([
        ("scale", f64::from(p.scale).to_json()),
        ("epochs", p.epochs.to_json()),
        ("batch_size", p.batch_size.to_json()),
        ("d", p.d.to_json()),
        ("k", p.k.to_json()),
        ("hidden", p.hidden.to_json()),
        ("channels", p.channels.to_json()),
        ("musenet_lr", f64::from(p.musenet_lr).to_json()),
        ("baseline_lr", f64::from(p.baseline_lr).to_json()),
        ("max_batches", p.max_batches.to_json()),
        ("max_eval", p.max_eval.to_json()),
        ("seed", p.seed.to_json()),
        ("auto_periods", p.auto_periods.to_json()),
    ])
}

fn run_experiment(exp: &str, args: &Args) -> String {
    let profile = &args.profile;
    let table_set = match args.dataset {
        Some(p) => EvalSet::One(p),
        None => EvalSet::All,
    };
    let fig_preset = args.dataset.unwrap_or(DatasetPreset::NycBike);
    match exp {
        "table1" => drivers::table1::run().to_string(),
        "table2" => drivers::table2::run(table_set, profile).to_string(),
        "table3" => drivers::table3::run(table_set, profile, 3).to_string(),
        "table4" => drivers::table4::run(table_set, profile).to_string(),
        "table5" => drivers::table5::run(table_set, profile).to_string(),
        "table6" => drivers::table6::run(table_set, profile).to_string(),
        "fig1" => drivers::fig1::run(fig_preset, profile).to_string(),
        "fig2" => drivers::fig2::run(fig_preset, profile).to_string(),
        "fig4" => drivers::fig4::run(fig_preset, profile, 48).to_string(),
        "fig5" => drivers::fig5::run(fig_preset, profile, 48).to_string(),
        "fig6" => drivers::fig6::run(fig_preset, profile, 48).to_string(),
        "fig7" => drivers::fig7::run(fig_preset, profile, 48).to_string(),
        "fig8" => drivers::fig8::run(fig_preset, profile, 78).to_string(),
        "fig9" => drivers::fig9::run(fig_preset, profile, args.repeats).to_string(),
        "detect" => drivers::detect::run(profile).to_string(),
        other => {
            eprintln!("unknown experiment {other}\n{}", usage());
            std::process::exit(2);
        }
    }
}
