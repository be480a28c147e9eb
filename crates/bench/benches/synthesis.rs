//! Cost of the HLS flow (schedule + bind + cost) and of full word-length
//! optimization runs on the paper's designs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sna_core::Session;
use sna_fixp::WlConfig;
use sna_hls::{synthesize, SynthesisConstraints};
use sna_opt::Optimizer;

fn bench_synthesize(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesize");
    group.sample_size(20);
    for design in sna_designs::Design::paper_suite() {
        let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, 16).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(design.name),
            &design,
            |bench, design| {
                bench.iter(|| {
                    std::hint::black_box(
                        synthesize(&design.dfg, &cfg, &SynthesisConstraints::default()).unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_optimize_fir(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    group.sample_size(10);
    for taps in [7usize, 15] {
        let design = sna_designs::fir(taps);
        group.bench_with_input(
            BenchmarkId::new("greedy_fir", taps),
            &design,
            |bench, design| {
                let session =
                    Session::new(design.dfg.clone(), design.input_ranges.clone()).unwrap();
                let opt = Optimizer::new(&session, SynthesisConstraints::default()).unwrap();
                let budget = opt.uniform(10).unwrap().noise_power;
                bench.iter(|| std::hint::black_box(opt.greedy(budget, 16).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_synthesize, bench_optimize_fir);
criterion_main!(benches);
