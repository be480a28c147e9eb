//! Cost of the SNA engines: the exact Cartesian method (exponential in
//! granularity — Tables 1–2), the scalable DFG engine (Figure 3), and the
//! one-off LTI model build versus its per-configuration evaluation — the
//! asymmetry that makes word-length search affordable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sna_bench::{quadratic_fn, quadratic_inputs};
use sna_core::{Budget, CartesianEngine, DfgEngine, EngineOptions, NaModel};
use sna_dfg::LtiOptions;
use sna_fixp::WlConfig;

fn bench_cartesian_quadratic(c: &mut Criterion) {
    let mut group = c.benchmark_group("cartesian_quadratic");
    group.sample_size(10);
    for &g in &[4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |bench, &g| {
            let inputs = quadratic_inputs(g).unwrap();
            let engine = CartesianEngine::new(128);
            bench.iter(|| {
                std::hint::black_box(
                    engine
                        .analyze(&inputs, quadratic_fn, &Budget::unlimited())
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_dfg_engine_rgb(c: &mut Criterion) {
    let design = sna_designs::rgb_to_ycrcb();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 12).unwrap();
    let mut group = c.benchmark_group("dfg_engine_rgb");
    group.sample_size(20);
    for &bins in &[32usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(bins), &bins, |bench, &bins| {
            let engine = DfgEngine::new(EngineOptions::default().with_bins(bins));
            bench.iter(|| {
                std::hint::black_box(
                    engine
                        .analyze(
                            &design.dfg,
                            &cfg,
                            &design.input_ranges,
                            &Budget::unlimited(),
                        )
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_na_model(c: &mut Criterion) {
    let design = sna_designs::fir25();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 12).unwrap();
    let mut group = c.benchmark_group("na_model_fir25");
    group.sample_size(10);
    group.bench_function("build", |bench| {
        bench.iter(|| {
            std::hint::black_box(
                NaModel::build(&design.dfg, &design.input_ranges, &LtiOptions::default()).unwrap(),
            )
        })
    });
    let model = NaModel::build(&design.dfg, &design.input_ranges, &LtiOptions::default()).unwrap();
    group.bench_function("evaluate", |bench| {
        bench.iter(|| std::hint::black_box(model.total_power(&design.dfg, &cfg)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cartesian_quadratic,
    bench_dfg_engine_rgb,
    bench_na_model
);
criterion_main!(benches);
