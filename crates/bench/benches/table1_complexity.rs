//! Table I: the analytic complexity model, plus a real MUSE-Net forward at
//! the paper's hyper-parameters (d=64, k=128 on a 8x10 grid slice).

use muse_autograd::Tape;
use muse_bench::{criterion_group, criterion_main, Criterion};
use muse_nn::Session;
use muse_traffic::subseries::batch;
use muse_traffic::SubSeriesSpec;
use musenet::analysis::estimate;
use musenet::{MuseNet, MuseNetConfig};
use std::hint::black_box;

fn bench_estimates(c: &mut Criterion) {
    c.bench_function("table1_analytic_estimates", |bch| {
        bch.iter(|| {
            for m in ["DeepSTN+", "DMSTGCN", "GMAN", "MUSE-Net (Ours)"] {
                black_box(estimate(m, 11, 64, 200, 200 * 200));
            }
        })
    });
}

fn bench_paper_dim_forward(c: &mut Criterion) {
    let prepared = muse_bench::bench_dataset();
    let spec = SubSeriesSpec::paper_default(prepared.dataset.intervals_per_day);
    let mut cfg = MuseNetConfig::paper(prepared.dataset.grid(), spec);
    cfg.resplus_blocks = 1;
    let model = MuseNet::new(cfg);
    let b = batch(&prepared.scaled, &prepared.spec, &prepared.split.test[..2]);
    c.bench_function("table1_musenet_forward_paper_dims", |bch| {
        bch.iter(|| {
            let tape = Tape::new();
            let s = Session::new(&tape);
            black_box(model.train_graph(&s, &b).terms)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_estimates, bench_paper_dim_forward
}
criterion_main!(benches);
